"""Span tracing installed from outside the program.

Each wrapped function records a span (name, start, end, parent span,
job) while a job is running; outside jobs the wrappers pass straight
through, so output checks and set-up leave no spans. Spans stay in
memory and are written out when the run ends.

A wrapper is installed on every module attribute that holds the wrapped
function, because the program's modules import with ``from .x import y``
and call the copy in their own namespace. Methods are wrapped on their
class. The run is single-threaded, so spans nest strictly and a span's
self time is its duration minus the durations of its direct children.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import time
from collections import defaultdict
from pathlib import Path

# (defining module, attribute, span name). Span names are "<module>.<what>",
# where <module> is the benchlock module the layer belongs to.
FUNCTIONS = [
    ("benchlock.cli", "main", "cli.main"),
    ("benchlock.solver", "solve", "solver.solve"),
    ("benchlock.cnf", "model_satisfies", "solver.model_check"),
    ("benchlock.cnf", "encode_into", "cnf.encode_into"),
    ("benchlock.attack", "sat_attack", "attack.sat_attack"),
    ("benchlock.attack", "build_miter", "attack.build_miter"),
    ("benchlock.attack", "equivalence_check", "attack.equivalence_check"),
    ("benchlock.attack", "corruption_stats", "attack.corruption_stats"),
    ("benchlock.netlist", "truth_tables", "netlist.truth_tables"),
    ("benchlock.verify", "functional_verify", "verify.functional_verify"),
    ("benchlock.verify", "structural_check", "verify.structural_check"),
    ("benchlock.llm", "llm_obfuscate", "llm.llm_obfuscate"),
    ("benchlock.llm", "llm_convert", "llm.llm_convert"),
    ("benchlock.locking", "lock", "locking.lock"),
    ("benchlock.locking", "select_nets", "locking.select_nets"),
    ("benchlock.locking", "apply_key", "locking.apply_key"),
    ("benchlock.scoap", "scoap", "scoap.scoap"),
    ("benchlock.bench", "parse_bench", "bench.parse_bench"),
    ("benchlock.bench", "emit_bench", "bench.emit_bench"),
    ("benchlock.verilog", "parse_verilog_subset", "verilog.parse_verilog_subset"),
    ("benchlock.report", "new_report", "report.new_report"),
    ("benchlock.report", "finish_report", "report.finish_report"),
    ("benchlock.report", "report_json", "report.report_json"),
]

# (defining module, class, method, span name)
METHODS = [
    ("benchlock.solver", "Solver", "__init__", "solver.load"),
    ("benchlock.solver", "Solver", "run", "solver.search"),
    ("benchlock.attack", "Oracle", "__call__", "attack.oracle"),
    ("benchlock.netlist", "Netlist", "simulate", "netlist.simulate"),
    ("benchlock.llm", "MockTransport", "send", "llm.transport"),
]

MODULES = (
    "cli", "attack", "solver", "cnf", "netlist", "verify", "llm",
    "locking", "scoap", "bench", "verilog", "report",
)

# Span names each workload must record at least once, so that a wrapper
# installed on a name nobody calls shows up as a benchmark failure.
EXPECTED = {
    "attack": [
        "cli.main", "solver.solve", "solver.load", "solver.search",
        "solver.model_check", "cnf.encode_into", "attack.sat_attack",
        "attack.build_miter", "attack.equivalence_check", "attack.oracle",
        "attack.corruption_stats", "netlist.simulate", "verify.functional_verify",
        "locking.lock", "locking.select_nets", "locking.apply_key",
        "bench.parse_bench", "bench.emit_bench", "report.report_json",
    ],
    "lock": [
        "cli.main", "locking.lock", "locking.select_nets", "locking.apply_key",
        "scoap.scoap", "bench.parse_bench", "bench.emit_bench",
        "verilog.parse_verilog_subset",
    ],
    "verify": [
        "cli.main", "verify.functional_verify", "netlist.truth_tables",
        "attack.equivalence_check", "solver.solve", "solver.search",
        "attack.corruption_stats", "netlist.simulate", "llm.llm_obfuscate",
        "llm.llm_convert", "llm.transport", "locking.apply_key",
        "bench.parse_bench", "verilog.parse_verilog_subset",
    ],
}


# Calls whose number per job must repeat exactly.
COUNTED = ("netlist.simulate", "attack.oracle", "cnf.encode_into",
           "verify.functional_verify", "llm.transport")


class Span:
    __slots__ = ("sid", "parent", "job", "name", "start", "end", "attrs", "child")

    def __init__(self, sid, parent, job, name, start):
        self.sid = sid
        self.parent = parent
        self.job = job
        self.name = name
        self.start = start
        self.end = start
        self.attrs = None
        self.child = 0.0  # summed duration of direct children

    @property
    def dur(self) -> float:
        return self.end - self.start

    @property
    def self_time(self) -> float:
        return self.dur - self.child


def _attrs_solve(args, kwargs, result):
    cnf = args[0]
    st = result.stats
    return {
        "vars": cnf.var_count, "clauses": len(cnf.clauses), "status": result.status,
        "conflicts": st.conflicts, "decisions": st.decisions,
        "propagations": st.propagations,
    }


def _attrs_parse(args, kwargs, result):
    return {"gates": len(result.gates)}


def _attrs_attack(args, kwargs, result):
    return {"iterations": result.iterations}


def _attrs_verify(args, kwargs, result):
    return {"mode": result.mode_used}


def _attrs_select(args, kwargs, result):
    strategy = args[1] if len(args) > 1 else kwargs["strategy"]
    return {"strategy": strategy}


def _attrs_llm(args, kwargs, result):
    return {"outcomes": list(result[1].validation_outcomes)}


ATTRS = {
    "solver.solve": _attrs_solve,
    "bench.parse_bench": _attrs_parse,
    "attack.sat_attack": _attrs_attack,
    "verify.functional_verify": _attrs_verify,
    "locking.select_nets": _attrs_select,
    "llm.llm_obfuscate": _attrs_llm,
    "llm.llm_convert": _attrs_llm,
}


class Tracer:
    """In-memory span recorder. ``job`` is None outside timed jobs."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[Span] = []
        self.job: int | None = None
        self._restore: list[tuple[object, str, object]] = []

    def wrap(self, name, fn):
        attrs = ATTRS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:
                return fn(*args, **kwargs)
            parent = self.stack[-1] if self.stack else None
            span = Span(len(self.spans), parent.sid if parent else None,
                        self.job, name, time.perf_counter())
            self.spans.append(span)
            self.stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                self.stack.pop()
                if parent is not None:
                    parent.child += span.dur
            if attrs is not None:
                span.attrs = attrs(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function under each name it is called by."""
        loaded = [m for n, m in sys.modules.items()
                  if n == "benchlock" or n.startswith("benchlock.")]
        for modname, attr, name in FUNCTIONS:
            original = getattr(sys.modules[modname], attr)
            traced = self.wrap(name, original)
            for mod in loaded:
                if getattr(mod, attr, None) is original:
                    self._restore.append((mod, attr, original))
                    setattr(mod, attr, traced)
        for modname, cls_name, meth, name in METHODS:
            cls = getattr(sys.modules[modname], cls_name)
            original = cls.__dict__[meth]
            self._restore.append((cls, meth, original))
            setattr(cls, meth, self.wrap(name, original))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    @contextlib.contextmanager
    def job_span(self, job: int):
        """One timed job: a root span named ``job``."""
        span = Span(len(self.spans), None, job, "job", time.perf_counter())
        self.spans.append(span)
        self.stack = [span]
        self.job = job
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self.stack = []
            self.job = None

    def counts_by_job(self) -> dict[int, dict]:
        """Per-job counts that must repeat exactly between runs: every
        solve call's formula size and search counters, and the number of
        calls of each counted function."""
        out: dict[int, dict] = defaultdict(lambda: defaultdict(int))
        for s in self.spans:
            if s.name == "solver.solve" and s.attrs:
                a = s.attrs
                out[s.job].setdefault("solves", []).append(
                    [a["vars"], a["clauses"], a["status"], a["conflicts"],
                     a["decisions"], a["propagations"]])
            elif s.name in COUNTED:
                out[s.job][s.name] += 1
        return out

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        rows = [[s.sid, s.parent, s.job, s.name, round(s.start, 7), round(s.end, 7),
                 s.attrs] for s in self.spans]
        path.write_text(json.dumps({"fields": ["id", "parent", "job", "name",
                                               "start", "end", "attrs"],
                                    "spans": rows}), encoding="utf-8")


def layer_metrics(tracer: Tracer, jobs: int, job_seconds: float) -> dict:
    """Per-layer metrics of a traced run, normalised per job where they are
    totals. Returns {name: (value, unit)}."""
    spans = tracer.spans
    by_id = {s.sid: s for s in spans}
    tot = defaultdict(float)
    self_t = defaultdict(float)
    calls = defaultdict(int)
    for s in spans:
        tot[s.name] += s.dur
        self_t[s.name] += s.self_time
        calls[s.name] += 1

    def parent_name(s):
        return by_id[s.parent].name if s.parent is not None else None

    per_job = max(jobs, 1)
    m: dict[str, tuple[float, str]] = {}

    def ms(name, value):
        m[name] = (1000.0 * value / per_job, "ms/job")

    def count(name, value):
        m[name] = (value / per_job, "1/job")

    solves = [s for s in spans if s.name == "solver.solve" and s.attrs]
    count("solver.calls", calls["solver.solve"])
    ms("solver.load_ms", tot["solver.load"])
    ms("solver.search_ms", tot["solver.search"])
    ms("solver.model_check_ms",
       sum(s.dur for s in spans
           if s.name == "solver.model_check" and parent_name(s) == "solver.solve"))
    for key in ("conflicts", "decisions", "propagations"):
        count(f"solver.{key}", sum(s.attrs[key] for s in solves))
    props = sum(s.attrs["propagations"] for s in solves)
    m["solver.props_per_s"] = (props / tot["solver.search"] if tot["solver.search"]
                               else 0.0, "1/s")

    count("cnf.encode_calls", calls["cnf.encode_into"])
    ms("cnf.encode_ms", tot["cnf.encode_into"])
    m["cnf.vars"] = (statistics.fmean(s.attrs["vars"] for s in solves)
                     if solves else 0.0, "1/call")
    m["cnf.clauses"] = (statistics.fmean(s.attrs["clauses"] for s in solves)
                        if solves else 0.0, "1/call")

    # One DIP iteration runs from the start of a sat solve to the start of
    # the next solve: the solve, the oracle query and the two pinned copies.
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append(s)
    dip_ms = []
    dips = 0
    for s in spans:
        if s.name != "attack.sat_attack" or not s.attrs:
            continue
        n = s.attrs["iterations"]
        dips += n
        starts = [c.start for c in children[s.sid] if c.name == "solver.solve"]
        dip_ms += [1000.0 * (b - a) for a, b in zip(starts[:n], starts[1:n + 1])]
    count("attack.dips", dips)
    m["attack.dip_ms_p50"] = (statistics.median(dip_ms) if dip_ms else 0.0, "ms")
    count("attack.oracle_queries", calls["attack.oracle"])
    ms("attack.miter_ms", tot["attack.build_miter"])
    ms("attack.final_check_ms",
       sum(s.dur for s in spans if s.name == "attack.equivalence_check"
           and parent_name(s) == "attack.sat_attack"))
    ms("attack.corruption_ms", tot["attack.corruption_stats"])

    count("netlist.simulate_calls", calls["netlist.simulate"])
    ms("netlist.simulate_ms", tot["netlist.simulate"])
    ms("netlist.truth_tables_ms", tot["netlist.truth_tables"])

    verifies = [s for s in spans if s.name == "verify.functional_verify"]
    count("verify.calls", len(verifies))
    ms("verify.exhaustive_ms",
       sum(s.dur for s in verifies if s.attrs and s.attrs["mode"] == "exhaustive"))
    ms("verify.sat_ms",
       sum(s.dur for s in verifies if s.attrs and s.attrs["mode"] == "sat"))

    llm_spans = [s for s in spans if s.name.startswith("llm.llm_")]
    outcomes = [o for s in llm_spans if s.attrs for o in s.attrs["outcomes"]
                if not o.startswith("fallback:") and o != "accepted_without_reference"]
    count("llm.attempts", len(outcomes))
    m["llm.accepted_ratio"] = (outcomes.count("ok") / len(outcomes) if outcomes
                               else 0.0, "ratio")
    count("llm.keys_tried", sum(1 for s in verifies
                                if parent_name(s) == "llm.llm_obfuscate"))
    llm_ids = {s.sid for s in llm_spans}
    fallback_lock = sum(s.dur for s in spans
                        if s.name == "locking.lock" and s.parent in llm_ids)
    transport = sum(s.dur for s in spans if s.name == "llm.transport")
    ms("llm.validate_ms", sum(s.dur for s in llm_spans) - transport - fallback_lock)
    ms("llm.transport_ms", transport)

    selects = [s for s in spans if s.name == "locking.select_nets"]
    for strategy in ("random", "cone_size", "scoap", "sll", "fan_heavy"):
        ms(f"locking.select_ms.{strategy}",
           sum(s.dur for s in selects if s.attrs and s.attrs["strategy"] == strategy))
    ms("locking.lock_ms", tot["locking.lock"])
    ms("locking.insert_ms", self_t["locking.lock"])
    ms("locking.apply_key_ms", tot["locking.apply_key"])

    ms("scoap.ms", tot["scoap.scoap"])
    ms("bench.parse_ms", tot["bench.parse_bench"])
    ms("bench.emit_ms", tot["bench.emit_bench"])
    parsed = sum(s.attrs["gates"] for s in spans
                 if s.name == "bench.parse_bench" and s.attrs)
    m["bench.gates_per_s"] = (parsed / tot["bench.parse_bench"]
                              if tot["bench.parse_bench"] else 0.0, "1/s")
    ms("verilog.parse_ms", tot["verilog.parse_verilog_subset"])
    ms("cli.self_ms", self_t["cli.main"])
    ms("report.write_ms", sum(tot[n] for n in ("report.new_report",
                                               "report.finish_report",
                                               "report.report_json")))

    # Share of job time spent in each module's own code (self time).
    total = sum(s.dur for s in spans if s.name == "job")
    module_self = defaultdict(float)
    for name, t in self_t.items():
        module_self[name.split(".", 1)[0]] += t
    for mod in MODULES:
        m[f"{mod}.share_pct"] = (100.0 * module_self[mod] / total if total else 0.0,
                                 "%")
    m["harness.share_pct"] = (100.0 * module_self["job"] / total if total else 0.0,
                              "%")
    m["trace.jobs_per_s"] = (jobs / job_seconds if job_seconds else 0.0, "1/s")
    m["trace.spans"] = (len(spans) / per_job, "1/job")
    return m


def missing_layers(tracer: Tracer, workload: str) -> list[str]:
    seen = {s.name for s in tracer.spans}
    return [n for n in EXPECTED[workload] if n not in seen]
