"""Command-line surface for the full lock/attack/verify pipeline.

Exit codes: 0 success, 1 operational failure (attack aborted, verify
mismatch, LLM gave up), 2 usage or input errors, including an AttackError
(a locked netlist with no key inputs, or one that no key makes consistent
with the oracle, is bad input), an InterfaceError (an oracle whose
ports are not the locked netlist's) and any OSError (a path that cannot
be read or written). With --json-errors a
machine-readable error object goes to stderr instead of prose.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import datetime
import functools
import json
import sys
from pathlib import Path

from . import __version__
from .attack import DEFAULT_TIMEOUT_MS, Oracle, corruption_stats, sat_attack
from .bench import emit_bench, parse_bench
from .errors import (
    AttackError,
    BenchlockError,
    BenchParseError,
    CnfError,
    DialectError,
    DummyError,
    InterfaceError,
    LockError,
    SelectionError,
    StatError,
    StructuralError,
    TransportError,
    TruncationError,
    UnsupportedConstruct,
    ValidationFailed,
)
from .locking import (
    Key,
    LockConfig,
    LockedNetlist,
    emit_key_file,
    lock,
    parse_key_file,
    resolve_key_inputs,
)
from .netlist import Netlist, fresh_name
from .report import finish_report, new_report, report_json
from .verify import functional_verify
from .verilog import parse_verilog_subset

_USAGE_ERRORS = (
    BenchParseError,
    UnsupportedConstruct,
    StructuralError,
    DialectError,
    LockError,
    SelectionError,
    DummyError,
    CnfError,
    InterfaceError,
    AttackError,
    StatError,
    OSError,
    ValueError,
)
_OPERATIONAL_ERRORS = (ValidationFailed, TruncationError, TransportError)

_KEYGATE = {"xor": "xor_only", "mux": "mux_only", "mixed": "mixed"}
_SELECT = {
    "random": "random",
    "cone": "cone_size",
    "scoap": "scoap",
    "sll": "sll",
    "fan-heavy": "fan_heavy",
}
_DUMMY = {
    "constant": "constant",
    "pi": "primary_input",
    "other-cone": "other_cone_net",
    "random-fn": "random_function",
}
_PRESET = {"sat-hard": "sat_hard"}


def _read_netlist(path: str) -> Netlist:
    p = Path(path)
    text = p.read_text(encoding="utf-8")
    if p.suffix == ".v":
        return parse_verilog_subset(text, name=p.stem)
    return parse_bench(text, name=p.stem)


def _read_locked(args: argparse.Namespace) -> LockedNetlist:
    """The --locked file, its key inputs found by --key-prefix."""
    return resolve_key_inputs(_read_netlist(args.locked), args.key_prefix)


def _lock_config(args: argparse.Namespace) -> LockConfig:
    return LockConfig(
        key_size=args.key_size,
        keygate_policy=_KEYGATE[args.keygate],
        xor_fraction=args.xor_fraction,
        selection=_SELECT[args.select],
        dummy_policy=_DUMMY[args.dummy],
        seed=args.seed,
        preset=_PRESET.get(args.preset) if args.preset else None,
        key_prefix=args.key_prefix,
    )


def _add_lock_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--key-size", type=int, required=True, help="number of key bits")
    p.add_argument("--keygate", choices=sorted(_KEYGATE), default="xor",
                   help="key-gate policy (default: xor)")
    p.add_argument("--xor-fraction", type=float, default=0.5,
                   help="XOR share under --keygate mixed (default: 0.5)")
    p.add_argument("--select", choices=list(_SELECT), default="random",
                   help="net selection strategy (default: random)")
    p.add_argument("--dummy", choices=list(_DUMMY), default="other-cone",
                   help="MUX dummy policy (default: other-cone)")
    p.add_argument("--preset", choices=list(_PRESET), default=None,
                   help="expand a named configuration preset")
    p.add_argument("--seed", type=int, default=0, help="PRNG seed (default: 0)")
    _add_key_prefix(p)


def _add_key_prefix(p: argparse.ArgumentParser) -> None:
    p.add_argument("--key-prefix", default="keyinput",
                   help="key input name prefix (default: keyinput)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="benchlock",
        description="Lock, attack and verify combinational .bench netlists.",
    )
    parser.add_argument("--version", action="version", version=f"benchlock {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name: str, help_: str) -> argparse.ArgumentParser:
        p = sub.add_parser(name, help=help_)
        p.add_argument("--json-errors", action="store_true",
                       help="emit errors as a JSON object on stderr")
        return p

    p = add("convert", "structural Verilog subset -> canonical .bench")
    p.add_argument("--input", required=True, help="input .v file")
    p.add_argument("--output", required=True, help="output .bench file")

    p = add("lock", "insert key gates into a .bench netlist")
    p.add_argument("--input", required=True, help="input .bench file")
    _add_lock_flags(p)
    p.add_argument("--output", required=True, help="locked .bench output")
    p.add_argument("--key-out", required=True, help="correct-key output file")

    p = add("attack", "oracle-guided SAT attack on a locked .bench file")
    p.add_argument("--locked", required=True, help="locked .bench file")
    p.add_argument("--oracle", required=True, help="original .bench file (oracle)")
    _add_key_prefix(p)
    p.add_argument("--timeout-ms", type=float, default=DEFAULT_TIMEOUT_MS,
                   help="attack time budget (default: 300000)")
    p.add_argument("--iteration-cap", type=int, default=None,
                   help="DIP cap, >= 0 (default: 2^min(k,20))")
    p.add_argument("--report", default=None, help="write a JSON report here")

    p = add("verify", "check a locked file against the original under a key")
    p.add_argument("--locked", required=True)
    p.add_argument("--original", required=True)
    p.add_argument("--key", required=True, help="key file")
    p.add_argument("--mode", choices=("auto", "exhaustive", "sat"), default="auto")
    _add_key_prefix(p)

    p = add("corrupt", "sampled wrong-key output corruption")
    p.add_argument("--locked", required=True)
    p.add_argument("--original", required=True)
    p.add_argument("--key", required=True, help="correct-key file")
    p.add_argument("--wrong-keys", type=int, default=100)
    p.add_argument("--inputs", type=int, default=100)
    p.add_argument("--seed", type=int, default=0)
    _add_key_prefix(p)

    p = add("llm-lock", "lock via a chat-completion endpoint, with validation")
    p.add_argument("--input", required=True, help=".v or .bench input")
    _add_lock_flags(p)
    p.add_argument("--endpoint", required=True, help="chat-completion URL")
    p.add_argument("--model", default="", help="model identifier")
    p.add_argument("--fallback", choices=("on", "off"), default="on",
                   help="deterministic fallback after failed retries")
    p.add_argument("--retries", type=int, default=2, help="validation retries, >= 0")
    p.add_argument("--output", default=None, help="locked .bench output")
    p.add_argument("--key-out", default=None, help="correct-key output file")
    p.add_argument("--report", default=None, help="write a JSON report here")

    p = add("pipeline", "convert -> lock -> verify -> attack -> report")
    p.add_argument("--input", required=True, nargs="+",
                   help="input file(s), .v or .bench")
    _add_lock_flags(p)
    p.add_argument("--timeout-ms", type=float, default=DEFAULT_TIMEOUT_MS)
    p.add_argument("--iteration-cap", type=int, default=None)
    p.add_argument("--wrong-keys", type=int, default=0,
                   help="also sample corruption with this many wrong keys")
    p.add_argument("--inputs", type=int, default=100,
                   help="input samples for corruption (default: 100)")
    p.add_argument("--report", default=None,
                   help="report path (single input) or directory (batch); "
                        "not with --run-dir")
    p.add_argument("--run-dir", default=None,
                   help="create a <timestamp>_s<seed> run directory here")
    p.add_argument("--output", default=None,
                   help="locked .bench output path (single input only)")
    p.add_argument("--key-out", default=None,
                   help="key file output path (single input only)")
    p.add_argument("--jobs", type=int, default=1,
                   help="parallel workers in batch mode (default: 1)")

    return parser


# -- subcommands -------------------------------------------------------------------


def _write_lock(locked: LockedNetlist, output, key_out, comment: str) -> None:
    """Write the locked .bench and its key file, each where a path is given."""
    if output:
        Path(output).write_text(emit_bench(locked.netlist), encoding="utf-8")
    if key_out:
        Path(key_out).write_text(
            emit_key_file(locked.correct_key, comment=comment,
                          first_input=locked.key_inputs[0]),
            encoding="utf-8",
        )


def _write_report(report: dict, path, netlist: Netlist, locked: LockedNetlist,
                  **sections) -> None:
    """Finish a report begun when the command started, with the stats of
    ``netlist`` before and ``locked`` after locking, and write it to
    ``path`` when one is given."""
    if path:
        report.update(circuit=netlist.name, stats_before=netlist.stats().as_dict(),
                      stats_after=locked.netlist.stats().as_dict(), **sections)
        Path(path).write_text(report_json(finish_report(report)), encoding="utf-8")


def _read_checked(args) -> tuple[LockedNetlist, Netlist, Key]:
    """The inputs of verify and corrupt: --locked, --original and --key."""
    return (_read_locked(args), _read_netlist(args.original),
            parse_key_file(Path(args.key).read_text(encoding="utf-8")))


def _cmd_convert(args) -> int:
    netlist = parse_verilog_subset(
        Path(args.input).read_text(encoding="utf-8"), name=Path(args.input).stem
    )
    Path(args.output).write_text(emit_bench(netlist), encoding="utf-8")
    st = netlist.stats()
    print(f"{netlist.name}: {st.n_inputs} inputs, {st.n_outputs} outputs, "
          f"{st.n_gates} gates -> {args.output}")
    return 0


def _cmd_lock(args) -> int:
    netlist = _read_netlist(args.input)
    locked, key = lock(netlist, _lock_config(args))
    _write_lock(locked, args.output, args.key_out, f"{netlist.name} seed={args.seed}")
    print(f"locked {netlist.name} with {len(key)} key bits -> {args.output}")
    return 0


def _cmd_attack(args) -> int:
    report = new_report()
    locked = _read_locked(args)
    original = _read_netlist(args.oracle)
    result = sat_attack(locked, Oracle(original), timeout_ms=args.timeout_ms,
                        iteration_cap=args.iteration_cap)
    _write_report(report, args.report, original, locked, attack=result.as_dict())
    print(f"attack: {result.status} after {result.iterations} iterations "
          f"({result.elapsed_ms:.0f} ms)")
    if result.status == "key_recovered":
        print(f"key: {result.recovered_key.to_string()}")
        return 0
    return 1


def _cmd_verify(args) -> int:
    verdict = functional_verify(*_read_checked(args), mode=args.mode)
    for diag in verdict.structural_diagnostics:
        print(f"structural: {diag}")
    print(f"structural: {'ok' if verdict.structural_ok else 'FAILED'}")
    print(f"functional: {verdict.functional} (mode: {verdict.mode_used})")
    if verdict.counterexample:
        print(f"counterexample: {verdict.counterexample}")
    return 0 if verdict.functional == "equivalent" else 1


def _cmd_corrupt(args) -> int:
    locked, original, key = _read_checked(args)
    stats = corruption_stats(locked, Oracle(original), key, wrong_keys=args.wrong_keys,
                             inputs=args.inputs, seed=args.seed)
    print(json.dumps(stats.as_dict(), indent=2, sort_keys=True))
    return 0


def _cmd_llm_lock(args) -> int:
    from .llm import HttpTransport, llm_convert, llm_obfuscate

    config = _lock_config(args)
    report = new_report(config=config.as_dict())
    transport = HttpTransport(args.endpoint)
    llm_args = {"model": args.model, "validation_retries": args.retries,
                "fallback": args.fallback == "on"}
    path = Path(args.input)
    records = []
    if path.suffix == ".v":
        netlist, record = llm_convert(transport, path.read_text(encoding="utf-8"),
                                      **llm_args)
        records.append(record)
    else:
        netlist = _read_netlist(args.input)
    locked, record = llm_obfuscate(transport, netlist, config, **llm_args)
    records.append(record)

    _write_lock(locked, args.output, args.key_out, f"{netlist.name} (llm-lock)")
    _write_report(report, args.report, netlist, locked, llm_run=record.as_dict())
    if args.report:
        Path(args.report).with_suffix(".transcript.json").write_text(
            json.dumps([r.as_dict() for r in records], indent=2), encoding="utf-8"
        )
    print(f"llm-lock: source={record.final_source}, "
          f"{len(locked.key_inputs)} key bits")
    return 0


# one pipeline input: (input, report, locked .bench, key file)
_Job = tuple[str, Path | None, Path | None, Path | None]


def _pipeline_one(args, job: _Job) -> tuple[int, str]:
    """Lock, verify, attack and optionally sample corruption for one input;
    the exit code and summary line."""
    input_path, report_path, output_path, key_path = job
    config = _lock_config(args)
    report = new_report(config=config.as_dict())
    netlist = _read_netlist(input_path)
    locked, key = lock(netlist, config)
    verdict = functional_verify(locked, netlist, key)
    result = sat_attack(locked, Oracle(netlist), timeout_ms=args.timeout_ms,
                        iteration_cap=args.iteration_cap)
    corruption = None
    if args.wrong_keys > 0:
        corruption = corruption_stats(locked, Oracle(netlist), key,
                                      wrong_keys=args.wrong_keys, inputs=args.inputs,
                                      seed=args.seed).as_dict()

    _write_lock(locked, output_path, key_path, f"{netlist.name} seed={args.seed}")
    _write_report(
        report, report_path, netlist, locked,
        structural={"ok": verdict.structural_ok,
                    "diagnostics": list(verdict.structural_diagnostics)},
        functional=verdict.as_dict(), attack=result.as_dict(), corruption=corruption,
    )
    ok = verdict.functional == "equivalent" and result.status == "key_recovered"
    summary = (
        f"{netlist.name}: verify={verdict.functional}, attack={result.status} "
        f"({result.iterations} DIPs)"
    )
    return 0 if ok else 1, summary


def _new_run_dir(args) -> Path:
    """Create ``<run-dir>/<timestamp>_s<seed>``; when an earlier run took
    that name, the first free ``<timestamp>_s<seed>_2``, ``_3``, ..."""
    root = Path(args.run_dir)
    root.mkdir(parents=True, exist_ok=True)
    name = f"{datetime.datetime.now():%Y%m%d-%H%M%S}_s{args.seed}"
    while True:
        run_dir = root / fresh_name(name, {p.name for p in root.iterdir()})
        try:
            run_dir.mkdir()
            return run_dir
        except FileExistsError:  # a concurrent run took the name first
            continue


def _pipeline_jobs(args) -> list[_Job]:
    """The job of each input: the paths given for a single input without
    --run-dir; else ``<stem>.report.json``, ``<stem>.locked.bench`` and
    ``<stem>.key`` in the run directory or the --report directory, where
    an input whose stem an earlier one took gets the first free
    ``<stem>_2``, ``<stem>_3``, ... There --output, --key-out and (with
    --run-dir) --report are usage errors, raised before anything is written."""
    if len(args.input) == 1 and not args.run_dir:
        paths = (args.report, args.output, args.key_out)
        return [(args.input[0], *(Path(p) if p else None for p in paths))]
    for flag, path in (("--output", args.output), ("--key-out", args.key_out)):
        if path:
            raise ValueError(f"{flag} needs a single --input and no --run-dir")
    if args.run_dir and args.report:
        raise ValueError("--report cannot be combined with --run-dir")
    base = _new_run_dir(args) if args.run_dir else Path(args.report or ".")
    base.mkdir(parents=True, exist_ok=True)
    jobs: list[_Job] = []
    stems: set[str] = set()
    for ip in args.input:
        stem = fresh_name(Path(ip).stem, stems)
        stems.add(stem)
        jobs.append((ip, base / f"{stem}.report.json",
                     base / f"{stem}.locked.bench", base / f"{stem}.key"))
    return jobs


def _cmd_pipeline(args) -> int:
    jobs = _pipeline_jobs(args)
    run = functools.partial(_pipeline_one, args)
    worst = 0
    with contextlib.ExitStack() as stack:
        if args.jobs > 1 and len(jobs) > 1:
            pool = concurrent.futures.ProcessPoolExecutor(max_workers=args.jobs)
            results = stack.enter_context(pool).map(run, jobs)
        else:
            results = map(run, jobs)
        for code, summary in results:
            print(summary)
            worst = max(worst, code)
    return worst


_COMMANDS = {
    "convert": _cmd_convert,
    "lock": _cmd_lock,
    "attack": _cmd_attack,
    "verify": _cmd_verify,
    "corrupt": _cmd_corrupt,
    "llm-lock": _cmd_llm_lock,
    "pipeline": _cmd_pipeline,
}


def _emit_error(exc: Exception, as_json: bool) -> None:
    if as_json:
        obj = {"error": {"type": type(exc).__name__, "message": str(exc)}}
        print(json.dumps(obj), file=sys.stderr)
    else:
        print(f"benchlock: error: {exc}", file=sys.stderr)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser, built on first use and reused by later calls."""
    return build_parser()


def main(argv: list[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    as_json = getattr(args, "json_errors", False)
    try:
        return _COMMANDS[args.command](args)
    except _OPERATIONAL_ERRORS as exc:
        _emit_error(exc, as_json)
        return 1
    except _USAGE_ERRORS as exc:
        _emit_error(exc, as_json)
        return 2
    except BenchlockError as exc:
        _emit_error(exc, as_json)
        return 1


if __name__ == "__main__":
    sys.exit(main())
