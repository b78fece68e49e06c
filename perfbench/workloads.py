"""The benchmark's workloads: seeded job lists, and the output checks.

Each builder generates its inputs from the workload seed, writes them
under the work directory and returns the job list. A job's ``run`` is
the timed part and calls the program through its public interface,
looked up at call time so that installed tracing wrappers are used. A
job's ``check`` runs afterwards, untimed, and returns (problem, record):
``problem`` is None when the outputs are right, and ``record`` holds the
outputs and counts that must repeat exactly whenever the job runs again.
``plants`` gives faulty copies of a job's outputs for the self-test:
each one must make ``check`` report a problem or change the record.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from benchlock import bench, circuits, cli, llm, locking, report, verify
from benchlock.netlist import Gate, GateKind, Netlist, eval_gate

KEY_ORDER_DEFECT = "key-order"

_K = GateKind
COMPLEMENT = {_K.AND: _K.NAND, _K.NAND: _K.AND, _K.OR: _K.NOR, _K.NOR: _K.OR,
              _K.XOR: _K.XNOR, _K.XNOR: _K.XOR, _K.NOT: _K.BUFF, _K.BUFF: _K.NOT}


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], tuple[str | None, dict]]
    plants: Callable[[object], list[tuple[str, object]]] = lambda out: []
    known_defect: str | None = None

    @property
    def kind(self) -> str:
        """Jobs of one kind share one output check."""
        return self.check.__qualname__.split(".<locals>")[0]


def digest(text: str | bytes) -> str:
    data = text.encode("utf-8") if isinstance(text, str) else text
    return hashlib.sha256(data).hexdigest()[:16]


def call_cli(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def emit_verilog(netlist) -> str:
    """Gate-primitive structural Verilog of a netlist without MUX gates."""
    prim = {GateKind.AND: "and", GateKind.NAND: "nand", GateKind.OR: "or",
            GateKind.NOR: "nor", GateKind.XOR: "xor", GateKind.XNOR: "xnor",
            GateKind.NOT: "not", GateKind.BUFF: "buf"}
    ports = list(netlist.primary_inputs) + list(netlist.primary_outputs)
    lines = [f"module {netlist.name} ({', '.join(ports)});"]
    lines += [f"  input {pi};" for pi in netlist.primary_inputs]
    lines += [f"  output {po};" for po in netlist.primary_outputs]
    pos = set(netlist.primary_outputs)
    lines += [f"  wire {g.output};" for g in netlist.gates if g.output not in pos]
    for i, g in enumerate(netlist.gates):
        lines.append(f"  {prim[g.kind]} u{i} ({', '.join((g.output,) + g.inputs)});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def unlink(*paths: Path) -> None:
    """Remove a job's outputs, so a failed job cannot leave stale ones."""
    for path in paths:
        path.unlink(missing_ok=True)


def write(path: Path, text: str) -> Path:
    path.write_text(text, encoding="utf-8")
    return path


def _packed_outputs(netlist, words: dict[str, int], ones: int) -> dict[str, int]:
    values = dict(words)
    for g in netlist.topo_order():
        values[g.output] = eval_gate(g.kind, [values[i] for i in g.inputs], ones)
    return {po: values[po] for po in netlist.primary_outputs}


def same_on_samples(a, b, n_vectors: int, seed: int) -> bool:
    """a and b have one interface and agree on seeded random vectors,
    simulated bit-parallel, one vector per bit."""
    if (set(a.primary_inputs) != set(b.primary_inputs)
            or set(a.primary_outputs) != set(b.primary_outputs)):
        return False
    rng = random.Random(seed)
    words = {pi: rng.getrandbits(n_vectors) for pi in b.primary_inputs}
    ones = (1 << n_vectors) - 1
    return _packed_outputs(a, words, ones) == _packed_outputs(b, words, ones)


def complement_output(netlist):
    """A wrong copy of the netlist: its first output gate complemented."""
    pos = set(netlist.primary_outputs)
    at = next(i for i, g in enumerate(netlist.gates) if g.output in pos)
    gates = list(netlist.gates)
    g = gates[at]
    gates[at] = Gate(g.output, COMPLEMENT[g.kind], g.inputs)
    return Netlist(netlist.name, netlist.primary_inputs, netlist.primary_outputs, gates)


def known_wrong_key(locked, original, bits: str) -> str:
    """A one-bit change of ``bits`` that sampled simulation shows to be
    wrong, so a check that accepts it is at fault."""
    for i in range(len(bits)):
        cand = bits[:i] + ("1" if bits[i] == "0" else "0") + bits[i + 1:]
        unlocked = locking.apply_key(locked, locking.Key.from_string(cand))
        if not same_on_samples(unlocked, original, 256, i):
            return cand
    raise ValueError("no single-bit key change is observable")


# -- attack ---------------------------------------------------------------------

# One cycle: random XOR locking at every k from 8 to 16 and the sat-hard
# preset at every k from 8 to 12, interleaved.
ATTACK_CYCLE = [("xor", 8), ("sat-hard", 8), ("xor", 9), ("sat-hard", 9),
                ("xor", 10), ("sat-hard", 10), ("xor", 11), ("sat-hard", 11),
                ("xor", 12), ("sat-hard", 12), ("xor", 13), ("xor", 14),
                ("xor", 15), ("xor", 16)]
ATTACK_CYCLES = 4
ATTACK_TIMEOUT_MS = 25_000


def build_attack(seed: int, work: Path) -> list[Job]:
    """One in-process ``benchlock pipeline`` call per job, each on its own
    c432-scale circuit and with a small wrong-key corruption sample; the
    lock configurations follow ATTACK_CYCLE.

    The job pool is fixed, lock seeds included, and the seed picks the
    cycle the run starts with (``first_job``). Attack time depends
    strongly on where the key gates land: with seeded lock seeds the
    median job time differed
    by a third between seeds on one host, more than any bound a later
    change could be held to. A 30 s run covered the whole pool at least
    once on the host used to define the benchmark, so seeds differ
    mainly in which cycles run twice."""
    jobs = []
    for j in range(ATTACK_CYCLES * len(ATTACK_CYCLE)):
        netlist = circuits.c432_scale(433 + j)
        source = write(work / f"{netlist.name}.bench", bench.emit_bench(netlist))
        style, k = ATTACK_CYCLE[j % len(ATTACK_CYCLE)]
        lock_args = ["--key-size", str(k)] + (["--keygate", "xor"] if style == "xor"
                                              else ["--preset", "sat-hard"])
        jobs.append(_attack_job(j, source, lock_args, j, work))
    return jobs


def _attack_job(j, source: Path, lock_args, lock_seed, work: Path) -> Job:
    rep, out, key = (work / f"a{j}.report.json", work / f"a{j}.locked.bench",
                     work / f"a{j}.key")
    argv = ["pipeline", "--input", str(source), *lock_args, "--seed", str(lock_seed),
            "--wrong-keys", "4", "--inputs", "16",
            "--timeout-ms", str(ATTACK_TIMEOUT_MS),
            "--report", str(rep), "--output", str(out), "--key-out", str(key)]

    def run():
        unlink(rep, out, key)
        rc, _ = call_cli(argv)
        return {"rc": rc, "report": json.loads(rep.read_text(encoding="utf-8")),
                "locked": out.read_text(encoding="utf-8")}

    def check(res):
        rpt = res["report"]
        att = rpt["attack"]
        record = {
            "report": digest(report.report_json(report.strip_volatile(rpt))),
            "locked": digest(res["locked"]),
            "dips": att["iterations"],
            "dip_inputs": digest(json.dumps([d["input"] for d in att["dips"]],
                                            sort_keys=True)),
            "oracle_queries": att["oracle_queries"],
            "solver": att["solver_stats"],
        }
        if att["status"] == "aborted_timeout":
            return "timeout: attack budget", record
        if res["rc"] != 0 or att["status"] != "key_recovered":
            return f"pipeline exit {res['rc']}, attack {att['status']}", record
        if rpt["functional"]["functional"] != "equivalent":
            return "pipeline verify did not report equivalent", record
        original = bench.parse_bench(source.read_text(encoding="utf-8"), name=source.stem)
        locked = bench.parse_bench(res["locked"], name=source.stem)
        verdict = verify.functional_verify(
            locked, original, locking.Key.from_string(att["recovered_key"]))
        if verdict.functional != "equivalent":
            return f"recovered key gives {verdict.functional}", record
        return None, record

    def plants(res):
        original = bench.parse_bench(source.read_text(encoding="utf-8"), name=source.stem)
        locked = bench.parse_bench(res["locked"], name=source.stem)
        wrong = json.loads(json.dumps(res))
        wrong["report"]["attack"]["recovered_key"] = known_wrong_key(
            locked, original, res["report"]["attack"]["recovered_key"])
        tampered = json.loads(json.dumps(res))
        dip = tampered["report"]["attack"]["dips"][0]["input"]
        first = sorted(dip)[0]
        dip[first] ^= 1
        return [("wrong recovered key", wrong), ("tampered DIP in report", tampered)]

    label = f"{'xor' if 'xor' in lock_args else 'sat-hard'}-k{lock_args[1]}"
    return Job(label, run, check, plants)


# -- lock -----------------------------------------------------------------------

LOCK_KEY_SIZE = 64
LOCK_STRATEGIES = ["random", "fan-heavy", "scoap", "cone", "sll"]
LOCK_KEYGATES = ["xor", "mux", "mixed"]
LOCK_DUMMIES = ["constant", "pi", "other-cone", "random-fn"]
LOCK_JOBS = 90


def _lock_inputs():
    """The fixed lock inputs: name -> (netlist, written as Verilog)."""
    return {
        "lay8x300": (circuits.layered_netlist(96, [300] * 8, 2, n_outputs=200,
                                              name="lay8x300"), True),
        "rand5000": (circuits.random_netlist(128, 5000, 5, name="rand5000"), False),
        "lay10x600": (circuits.layered_netlist(128, [600] * 10, 6, n_outputs=600,
                                               name="lay10x600"), True),
    }


# The input each strategy locks, under all three key-gate policies. Cone
# and sll selection walk cones whose cost grows with depth, and deep random
# netlists have too few path-disjoint nets for sll at k=64, so those two
# take the 1.8k-gate layered input and the other strategies the ~5k-gate
# inputs. Every job then costs about the same, which keeps the median and
# the tail steady from run to run.
LOCK_INPUT = {"random": "rand5000", "fan-heavy": "rand5000", "scoap": "lay10x600",
              "cone": "lay8x300", "sll": "lay8x300"}


def build_lock(seed: int, work: Path) -> list[Job]:
    """``benchlock lock`` at k=64 then ``apply_key`` on the emitted files.
    A cycle is every selection strategy under every key-gate policy, with
    the four MUX dummy policies spread over its pairs the same way in
    every cycle; the seed picks the lock seeds."""
    rng = random.Random(seed)
    inputs = {}
    for name, (netlist, as_verilog) in _lock_inputs().items():
        if as_verilog:
            path = write(work / f"{name}.v", emit_verilog(netlist))
        else:
            path = write(work / f"{name}.bench", bench.emit_bench(netlist))
        inputs[name] = (netlist, path)
    jobs = []
    for j in range(LOCK_JOBS):
        strategy = LOCK_STRATEGIES[j % len(LOCK_STRATEGIES)]
        keygate = LOCK_KEYGATES[(j // len(LOCK_STRATEGIES)) % len(LOCK_KEYGATES)]
        netlist, path = inputs[LOCK_INPUT[strategy]]
        dummy = LOCK_DUMMIES[j % (len(LOCK_STRATEGIES) * len(LOCK_KEYGATES)) % 4]
        jobs.append(_lock_job(j, netlist, path, strategy, keygate, dummy,
                              rng.randrange(1, 10**6), work))
    return jobs


def _lock_job(j, original, source: Path, strategy, keygate, dummy, lock_seed,
              work: Path) -> Job:
    out, key = work / f"l{j}.locked.bench", work / f"l{j}.key"
    argv = ["lock", "--input", str(source), "--key-size", str(LOCK_KEY_SIZE),
            "--keygate", keygate, "--select", strategy, "--dummy", dummy,
            "--seed", str(lock_seed), "--output", str(out), "--key-out", str(key)]

    def run():
        unlink(out, key)
        rc, _ = call_cli(argv)
        if rc != 0:
            return {"rc": rc}
        locked_text = out.read_text(encoding="utf-8")
        key_text = key.read_text(encoding="utf-8")
        locked = bench.parse_bench(locked_text, name=original.name)
        unlocked = locking.apply_key(locked, locking.parse_key_file(key_text))
        return {"rc": rc, "locked": locked_text, "key": key_text, "unlocked": unlocked}

    def check(res):
        if res["rc"] != 0:
            return f"lock exit {res['rc']}", {}
        record = {"locked": digest(res["locked"]), "key": digest(res["key"])}
        if not same_on_samples(res["unlocked"], original, 256, j):
            return "apply_key(locked, key) differs from the original", record
        return None, record

    def plants(res):
        bits = locking.parse_key_file(res["key"]).to_string()
        locked = bench.parse_bench(res["locked"], name=original.name)
        wrong = dict(res, unlocked=locking.apply_key(
            locked, locking.Key.from_string(known_wrong_key(locked, original, bits))))
        lines = res["locked"].splitlines()
        tampered = dict(res, locked="\n".join(lines[:-1] + [lines[-1] + " "]) + "\n")
        return [("wrong key applied", wrong), ("tampered locked bytes", tampered)]

    return Job(f"{strategy}-{keygate}-{dummy}", run, check, plants)


# -- verify ---------------------------------------------------------------------

VERIFY_VARIANTS = 12
VERIFY_LLM_KEY = 8
VERIFY_KINDS = 11  # timed jobs per variant in build_verify
VERIFY_POOL_SEED = 1000


def _locked_files(work: Path, tag: str, netlist, key_size: int, lock_seed: int,
                  keygate: str = "xor_only"):
    """Write original, locked, correct key and a wrong key; the wrong key is
    one the sampled simulation shows to differ, so its verdict is known."""
    locked, key = locking.lock(netlist, locking.LockConfig(
        key_size, keygate_policy=keygate, seed=lock_seed))
    wrong = locking.Key.from_string(
        known_wrong_key(locked.netlist, netlist, key.to_string()))
    return {
        "original": write(work / f"{tag}.bench", bench.emit_bench(netlist)),
        "locked": write(work / f"{tag}.locked.bench", bench.emit_bench(locked.netlist)),
        "key": write(work / f"{tag}.key", locking.emit_key_file(key)),
        "wrong": write(work / f"{tag}.wrong.key", locking.emit_key_file(wrong)),
    }


def _verify_job(files, wrong_key: bool, mode: str) -> Job:
    expected = "mismatch" if wrong_key else "equivalent"

    def argv(key_path):
        return ["verify", "--locked", str(files["locked"]),
                "--original", str(files["original"]), "--key", str(key_path),
                "--mode", "auto"]

    def run(key_path=files["wrong" if wrong_key else "key"]):
        rc, text = call_cli(argv(key_path))
        return {"rc": rc, "stdout": text}

    def check(res):
        record = {"stdout": digest(res["stdout"])}
        want = f"functional: {expected} (mode: {mode})"
        got = [ln for ln in res["stdout"].splitlines() if ln.startswith("functional:")]
        if got != [want]:
            return f"verify printed {got}, expected {want!r}", record
        if res["rc"] != (1 if wrong_key else 0):
            return f"verify exit {res['rc']}", record
        return None, record

    def plants(res):
        wrong = run(files["key" if wrong_key else "wrong"])
        tampered = dict(res, stdout=res["stdout"].replace(expected, "equivalent"
                                                          if wrong_key else "mismatch"))
        return [("wrong key", wrong), ("tampered verdict", tampered)]

    return Job(f"verify-{mode}-{'wrong' if wrong_key else 'ok'}", run, check, plants)


def _corrupt_job(files, seed: int) -> Job:
    argv = ["corrupt", "--locked", str(files["locked"]), "--original",
            str(files["original"]), "--key", str(files["key"]),
            "--wrong-keys", "50", "--inputs", "50", "--seed", str(seed)]

    def run():
        rc, text = call_cli(argv)
        return {"rc": rc, "stdout": text}

    def check(res):
        record = {"stdout": digest(res["stdout"])}
        if res["rc"] != 0:
            return f"corrupt exit {res['rc']}", record
        stats = json.loads(res["stdout"])
        if (stats["wrong_keys"], stats["inputs"], stats["seed"]) != (50, 50, seed):
            return f"corrupt echoed the wrong sample sizes: {stats}", record
        if not (0.0 < stats["corruption_rate"] <= 1.0
                and 0.0 < stats["mean_output_hamming"]):
            return f"implausible corruption for an XOR lock: {stats}", record
        return None, record

    def plants(res):
        stats = json.loads(res["stdout"])
        stats["corruption_rate"] /= 2
        tampered = dict(res, stdout=json.dumps(stats, indent=2, sort_keys=True) + "\n")
        # No wrong-key plant: the sampled statistics do not depend on which
        # key is declared correct, so a wrong key file changes nothing.
        return [("tampered corruption rate", tampered)]

    return Job("corrupt", run, check, plants)


def _llm_files_check(original, expect_source: str, reference_text: str | None):
    """Check an llm_obfuscate result the way ``benchlock verify`` reads it:
    through the emitted .bench and key files."""
    def check(res):
        locked_text, key_text, source = res
        record = {"locked": digest(locked_text), "key": digest(key_text),
                  "source": source}
        if source != expect_source:
            return f"final source {source}, expected {expect_source}", record
        if reference_text is not None and locked_text != reference_text:
            return "fallback output differs from the deterministic engine", record
        locked = bench.parse_bench(locked_text, name=original.name)
        verdict = verify.functional_verify(locked, original,
                                           locking.parse_key_file(key_text))
        if verdict.functional != "equivalent":
            return f"emitted files verify as {verdict.functional}", record
        return None, record

    return check


def _obfuscate_job(label, original, source: Path, answers, cfg, work: Path,
                   tag: str, expect_source: str = "llm", reference_text=None,
                   known_defect=None) -> Job:
    out, key = work / f"{tag}.llm.bench", work / f"{tag}.llm.key"

    def run():
        netlist = bench.parse_bench(source.read_text(encoding="utf-8"), name=source.stem)
        locked, record = llm.llm_obfuscate(llm.MockTransport(list(answers)), netlist, cfg)
        locked_text = write(out, bench.emit_bench(locked.netlist)).read_text(encoding="utf-8")
        key_text = write(key, locking.emit_key_file(locked.correct_key)).read_text(
            encoding="utf-8")
        return locked_text, key_text, record.final_source

    def plants(res):
        locked_text, key_text, src = res
        bits = locking.parse_key_file(key_text).to_string()
        locked = bench.parse_bench(locked_text, name=original.name)
        wrong = (locked_text, locking.emit_key_file(locking.Key.from_string(
            known_wrong_key(locked, original, bits))), src)
        return [("wrong key file", wrong)]

    return Job(label, run, _llm_files_check(original, expect_source, reference_text),
               plants, known_defect=known_defect)


def _convert_job(label, original, source: Path, answers, expect_source) -> Job:
    def run():
        netlist, record = llm.llm_convert(llm.MockTransport(list(answers)),
                                          source.read_text(encoding="utf-8"))
        return bench.emit_bench(netlist), record.final_source

    def check(res):
        text, src = res
        record = {"bench": digest(text), "source": src}
        if src != expect_source:
            return f"final source {src}, expected {expect_source}", record
        got = bench.parse_bench(text, name=original.name)
        if not same_on_samples(got, original, 256, 0):
            return "converted netlist differs from the source", record
        return None, record

    def plants(res):
        text, src = res
        got = bench.parse_bench(text, name=original.name)
        return [("complemented output gate", (bench.emit_bench(complement_output(got)), src)),
                ("wrong final source", (text, "fallback" if src == "llm" else "llm"))]

    return Job(label, run, check, plants)


def build_verify(seed: int, work: Path) -> list[Job]:
    """The checks a user runs after locking: ``benchlock verify`` (exhaustive
    on 16 inputs, SAT miters on 36- and 48-input circuits, right and wrong
    keys), ``benchlock corrupt``, and the LLM driver on scripted answers.
    Each cycle of the eleven timed kinds is one variant, with its own
    circuits, lock seeds and LLM answers, taken from a fixed pool; the
    seed picks the corruption samples. The lock seeds and the LLM
    answers' key gates set how long the SAT proofs and the key sweep
    take: drawn from the workload seed, they moved jobs_per_s by a tenth
    between seeds on one host. Every run starts at the first variant:
    the peak memory of a run depends on the order its exhaustive and SAT
    verifies come in, and starting at a seed-picked variant moved
    peak_rss_mb by a tenth. A 30 s run covers about the whole pool,
    and memory stops growing within its first half. Each variant also has
    a key-order job, marked with its known defect: the run takes those
    out of the timed list and runs them once each as probes."""
    rng = random.Random(seed)
    variants = []
    for v in range(VERIFY_VARIANTS):
        pool = random.Random(VERIFY_POOL_SEED + v)
        s = [pool.randrange(1, 10**6) for _ in range(4)] + [rng.randrange(1, 10**6)]
        exh = _locked_files(work, f"e{v}", circuits.random_netlist(
            16, 1200, 100 + v, name=f"r16_{v}"), 10, s[0])
        small = _locked_files(work, f"c{v}", circuits.c432_scale(600 + v), 12, s[1])
        big = _locked_files(work, f"b{v}", circuits.layered_netlist(
            48, [90] * 8, 700 + v, n_outputs=12, name=f"lay48_{v}"), 16, s[2],
            keygate="mixed")
        variants.append((v, exh, small, big, s[3], s[4]))

    jobs_by_variant = []
    for v, exh, small, big, llm_seed, corrupt_seed in variants:
        llm_jobs = _llm_jobs(work, v, llm_seed)
        jobs_by_variant.append([
            _verify_job(exh, False, "exhaustive"),
            _verify_job(small, False, "sat"),
            llm_jobs["sweep"],
            _verify_job(exh, True, "exhaustive"),
            _corrupt_job(small, corrupt_seed),
            llm_jobs["convert-repair"],
            _verify_job(small, True, "sat"),
            _verify_job(big, False, "sat"),
            llm_jobs["truncated"],
            llm_jobs["fallback"],
            _verify_job(big, True, "sat"),
            llm_jobs["key-order"],
        ])
    return [job for jobs in jobs_by_variant for job in jobs]


def _llm_jobs(work: Path, v: int, seed: int) -> dict[str, Job]:
    """Scripted LLM answers on a 14-input circuit with k=8 keys."""
    rng = random.Random(seed)
    k = VERIFY_LLM_KEY
    # Every net reaches an output, so each key bit is observable.
    original = circuits.random_netlist(14, 160, 800 + v, name=f"llm{v}")
    source = write(work / f"llm{v}.bench", bench.emit_bench(original))
    cfg = locking.LockConfig(k, seed=rng.randrange(1, 10**6))

    def xor_locked(bits):
        nets = locking.select_nets(original, "random", k, rng.randrange(1, 10**6))
        return locking.insert_xor_keygates(original, nets, bits)

    # A correct lock without a key line; the all-ones key makes the
    # validator sweep all 2^k key values.
    sweep = bench.emit_bench(xor_locked((1,) * k).netlist)

    declared, key = locking.lock(original, cfg)
    good = f"# key={key.to_string()}\n" + bench.emit_bench(declared.netlist)
    lines = good.splitlines()
    half = len(lines) // 2
    truncated = [llm.ChatResponse("\n".join(lines[:half]), finish_reason="length"),
                 llm.ChatResponse("\n".join(lines[half:]))]

    # Key inputs listed out of numeric order, with the key declared
    # keyinput0 first as the prompt asks. Bits 0 and k-1 differ, so
    # reading the inputs in listed order gives a different key.
    order_bits = (0,) + (1,) * (k - 1)
    ko = bench.emit_bench(xor_locked(order_bits).netlist).splitlines()
    key_lines = [ln for ln in ko if ln.startswith("INPUT(keyinput")]
    rest = [ln for ln in ko if ln not in key_lines]
    at = rest.index(next(ln for ln in rest if ln.startswith("INPUT(")))
    key_order = "\n".join([f"# key={''.join(map(str, order_bits))}"] + rest[:at]
                          + key_lines[::-1] + rest[at:]) + "\n"

    verilog = write(work / f"llm{v}.v", emit_verilog(original))
    wrong_fn = bench.emit_bench(complement_output(original))

    tag = f"llm{v}"
    return {
        "sweep": _obfuscate_job("llm-sweep", original, source, [sweep], cfg, work,
                                f"{tag}s"),
        "truncated": _obfuscate_job("llm-truncated", original, source, truncated, cfg,
                                    work, f"{tag}t"),
        "key-order": _obfuscate_job("llm-key-order", original, source, [key_order],
                                    cfg, work, f"{tag}k",
                                    known_defect=KEY_ORDER_DEFECT),
        "fallback": _obfuscate_job("llm-fallback", original, source,
                                   ["no netlist here"] * 3, cfg, work, f"{tag}f",
                                   expect_source="fallback",
                                   reference_text=bench.emit_bench(declared.netlist)),
        "convert-repair": _convert_job("llm-convert-repair", original, verilog,
                                       [wrong_fn, bench.emit_bench(original)], "llm"),
    }


BUILDERS = {"attack": build_attack, "lock": build_lock, "verify": build_verify}


# Jobs per cycle of each job list. A run measures whole cycles, so every
# run has the same mix of job kinds.
CYCLES = {"attack": len(ATTACK_CYCLE),
          "lock": len(LOCK_STRATEGIES) * len(LOCK_KEYGATES),
          "verify": VERIFY_KINDS}


def first_job(name: str, seed: int) -> int:
    """Index of the job the timed loop starts at: on attack the first job
    of the cycle the seed picks, elsewhere job 0. The untimed warm-up is
    job 0 whatever the seed, so that set-up time does not depend on the
    cycle picked."""
    return seed % ATTACK_CYCLES * len(ATTACK_CYCLE) if name == "attack" else 0
