"""benchlock benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload attack|lock|verify --seed N \
        --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``
of that checkout. The seed makes the inputs; the job list is replayed in
order, one job at a time in this one process (no threads, no worker
processes), until the jobs have taken ``--seconds`` of wall time; the
cycle of job kinds in progress then runs to its end, so every run
measures whole cycles. Each job's time is scaled by the host speed
measured next to it (see ``hostspeed.py``). Output checks run after
each job, outside the timed region. With ``--trace 0`` the end-to-end
metrics are reported; ``--trace 1`` installs span
wrappers around the program's public functions and reports per-layer
metrics instead. The last line of standard output is one JSON object.
"""

from __future__ import annotations

import time

_T_START = time.perf_counter()

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / "_work"

SETUP_REPEATS = 3
SETUP_PASSES = 5
JOB_BUDGET_S = 60
# Tail percentile per workload: the highest multiple of five that leaves at
# least ten jobs beyond it in a 30 s run on the slowest host speed seen
# when the benchmark was defined. It stays fixed so runs stay comparable.
TAIL_PCT = {"attack": 70, "lock": 65, "verify": 85}


class JobTimeout(BaseException):
    """Raised by the alarm when a job exceeds its budget. A BaseException,
    so no ``except Exception`` in the program can swallow it."""


def _alarm(signum, frame):
    raise JobTimeout()


def timed_call(fn, *args):
    """Run fn under the job budget; returns (result, error, seconds)."""
    signal.setitimer(signal.ITIMER_REAL, JOB_BUDGET_S)
    t0 = time.perf_counter()
    try:
        return fn(*args), None, time.perf_counter() - t0
    except JobTimeout:
        return None, f"timeout: over {JOB_BUDGET_S} s", time.perf_counter() - t0
    except Exception as exc:  # a failed job; the run goes on
        return None, f"error: {type(exc).__name__}: {exc}", time.perf_counter() - t0
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)


def import_program():
    sys.path.insert(0, str(ROOT / "src"))
    try:
        import benchlock
    except ImportError as exc:
        sys.exit(f"run.py: cannot import benchlock from {ROOT / 'src'}: {exc}")
    if Path(benchlock.__file__).resolve().parent != ROOT / "src" / "benchlock":
        sys.exit(f"run.py: benchlock imported from {benchlock.__file__}, "
                 f"not from this checkout")
    import hostspeed
    import tracing
    import workloads
    return hostspeed, tracing, workloads


def source_digest() -> str:
    """Digest of the program and the benchmark, so that records saved by
    other code are never compared."""
    h = hashlib.sha256()
    files = [*(ROOT / "src" / "benchlock").rglob("*"), *HERE.glob("*.py")]
    for path in sorted(files):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(path.relative_to(ROOT).as_posix().encode())
            h.update(path.read_bytes())
    return h.hexdigest()[:16]


class Repeats:
    """Records that must repeat exactly: compared within the run and with
    earlier runs of the same workload, seed and program source."""

    def __init__(self, path: Path):
        self.path = path
        self.saved = json.loads(path.read_text()) if path.exists() else {}
        self.mismatches: list[str] = []

    def see(self, key: str, record) -> None:
        record = json.loads(json.dumps(record, sort_keys=True))
        if key in self.saved and self.saved[key] != record:
            self.mismatches.append(f"{key}: {self.saved[key]} != {record}")
        self.saved.setdefault(key, record)

    def save(self) -> None:
        self.path.parent.mkdir(parents=True, exist_ok=True)
        self.path.write_text(json.dumps(self.saved, sort_keys=True))


def percentile(values, pct):
    ordered = sorted(values)
    if len(ordered) == 1:
        return ordered[0]
    return statistics.quantiles(ordered, n=100, method="inclusive")[pct - 1]


def self_test(job, out, record) -> list[str]:
    """Plant faults in a passing job's outputs; each must be rejected,
    either by the output check or by a changed repeat record."""
    plants, err, _ = timed_call(job.plants, out)
    if err is not None:
        return [f"{job.label}: planting faults failed: {err}"]
    failures = []
    for label, bad in plants:
        problem, bad_record = job.check(bad)
        rejected = problem is not None or bad_record != record
        status = "rejected" if rejected else "ACCEPTED"
        print(f"self-test {job.label}: {label}: {status}"
              + (f" ({problem})" if problem else " (record changed)" if rejected else ""))
        if not rejected:
            failures.append(f"{job.label}: planted fault accepted: {label}")
    return failures


def run_probes(probes, repeats) -> list[str]:
    """Run each known-defect job once, untimed and outside attempted and
    failed, and report how often its defect shows. Only an error, a
    timeout or a changed repeat record is a problem: a wrong output is
    the defect itself."""
    problems, hits = [], {}
    for n, job in enumerate(probes):
        out, err, _ = timed_call(job.run)
        if err is None:
            checked, err, _ = timed_call(job.check, out)
            if err is None:
                err, record = checked
                repeats.see(f"probe{n}", record)
        if err is not None and err.startswith(("error:", "timeout")):
            problems.append(f"probe {n} {job.label}: {err}")
        hits.setdefault(job.known_defect, [0, 0])[1] += 1
        hits[job.known_defect][0] += err is not None
    for defect, (shown, ran) in sorted(hits.items()):
        print(f"known defect ({defect}): shown by {shown} of {ran} probe jobs,"
              f" which run untimed and count in neither attempted nor failed")
    return problems


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=["attack", "lock", "verify"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)

    hostspeed, tracing, workloads = import_program()
    import_s = time.perf_counter() - _T_START
    signal.signal(signal.SIGALRM, _alarm)

    name = args.workload
    work = WORK / f"{name}-s{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    repeats = Repeats(WORK / "state" / f"{name}-s{args.seed}-{source_digest()}.json")
    problems: list[str] = []

    # Set-up, repeated: generate and write the inputs, then one untimed
    # warm-up job. Each repetition rewrites the same inputs. Set-up has
    # few neighbours to take the host speed from, so each repetition is
    # preceded by several kernel passes rather than one.
    setups, setup_samples = [], []
    for _ in range(SETUP_REPEATS):
        setup_samples.append(hostspeed.sample(SETUP_PASSES))
        t0 = time.perf_counter()
        work.mkdir(parents=True, exist_ok=True)
        jobs = workloads.BUILDERS[name](args.seed, work)
        # Jobs that hit a known program defect run once each after the
        # timed loop, so no timed operation fails.
        probes = [job for job in jobs if job.known_defect is not None]
        jobs = [job for job in jobs if job.known_defect is None]
        warm, err, _ = timed_call(jobs[0].run)
        setups.append(time.perf_counter() - t0)
        if err is not None:
            problems.append(f"warm-up job: {err}")
            continue
        problem, record = jobs[0].check(warm)
        repeats.see("0", record)
        if problem is not None:
            problems.append(f"warm-up job {jobs[0].label}: {problem}")
    setup_wall = [import_s + s for s in setups]
    setup_s = statistics.median(hostspeed.scale(setup_wall, setup_samples))

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()

    times, samples, failed, outcomes = [], [], 0, {}
    passed, self_tested = set(), set()
    job_seconds = 0.0
    cycle = workloads.CYCLES[name]
    i = workloads.first_job(name, args.seed)
    while job_seconds < args.seconds or i % cycle:
        job = jobs[i % len(jobs)]
        samples.append(hostspeed.sample())
        if tracer is not None:
            with tracer.job_span(i):
                out, err, dt = timed_call(job.run)
        else:
            out, err, dt = timed_call(job.run)
        job_seconds += dt
        times.append(dt)
        if err is None:
            checked, err, _ = timed_call(job.check, out)
            if err is None:
                err, record = checked
                repeats.see(str(i % len(jobs)), record)
                if err is None:
                    passed.add(i)
                if err is None and job.kind not in self_tested:
                    # Planted faults on the first passing job of each kind.
                    self_tested.add(job.kind)
                    problems += self_test(job, out, record)
        if err is not None:
            failed += 1
            kind = "timeout" if err.startswith("timeout") else "wrong"
            outcomes.setdefault(kind, []).append(f"job {i} {job.label}: {err}")
            if kind == "wrong":
                problems.append(f"job {i} {job.label}: {err}")
        i += 1

    # Wrappers record spans only inside a job span, so probes leave none.
    problems += run_probes(probes, repeats)
    if tracer is not None:
        tracer.uninstall()
        for job_id, counts in sorted(tracer.counts_by_job().items()):
            if job_id in passed:
                repeats.see(f"{job_id % len(jobs)}.trace", counts)
        missing = tracing.missing_layers(tracer, name)
        if missing:
            problems.append(f"layers with no span on {name}: {', '.join(missing)}")
        tracer.write(WORK / "traces" / f"{name}-s{args.seed}.json")

    problems += [f"count changed between runs: {m}" for m in repeats.mismatches]
    repeats.save()
    shutil.rmtree(work, ignore_errors=True)

    attempted = len(times)
    ok = attempted - failed
    for kind, lines in sorted(outcomes.items()):
        print(f"failed ({kind}): {len(lines)}")
        for line in lines[:5]:
            print(f"  {line}")
    for p in problems:
        print(f"PROBLEM: {p}")
    print(f"workload {name}, seed {args.seed}: {attempted} jobs attempted, {failed} failed,"
          f" failed_ratio {failed / attempted:.4f}; one client, no queue, so no layer"
          f" waits (none reported)")

    scaled = hostspeed.scale(times, samples)
    if tracer is None:
        pct = TAIL_PCT[name]
        beyond = sum(1 for t in scaled if t > percentile(scaled, pct))
        metrics = {
            "setup_s": (setup_s, "s"),
            "jobs_per_s": (ok / sum(scaled), "1/s"),
            "job_ms_p50": (1000.0 * statistics.median(scaled), "ms"),
            "job_ms_tail": (1000.0 * percentile(scaled, pct), "ms"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "MB"),
        }
        notes = {
            "setup_s": f"import {import_s:.3f} s + median of {SETUP_REPEATS} set-ups "
                       f"{[round(s, 3) for s in setups]}; wall "
                       f"{statistics.median(setup_wall):.3f} s",
            "jobs_per_s": f"{ok} jobs passed in {sum(scaled):.2f} s scaled,"
                          f" {job_seconds:.2f} s wall: {ok / job_seconds:.3f} 1/s",
            "job_ms_p50": f"n={attempted}; wall "
                          f"{1000.0 * statistics.median(times):.1f} ms",
            "job_ms_tail": f"p{pct}, n={attempted}, {beyond} jobs beyond it; wall "
                           f"{1000.0 * percentile(times, pct):.1f} ms",
            "peak_rss_mb": "ru_maxrss of this process",
        }
    else:
        metrics = tracing.layer_metrics(tracer, attempted, sum(scaled))
        notes = {}
    print(f"host speed: one kernel pass took {1000.0 * statistics.median(samples):.3f} ms"
          f" (median of {len(samples)}, range {1000.0 * min(samples):.3f}-"
          f"{1000.0 * max(samples):.3f}); times below are scaled to"
          f" {1000.0 * hostspeed.REFERENCE_S:.1f} ms a pass")
    for key, (value, unit) in metrics.items():
        print(f"{key} {value:.6g} {unit}" + (f"  ({notes[key]})" if key in notes else ""))

    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
