"""Complete CDCL SAT solver: two-watched-literal unit propagation,
first-UIP clause learning, activity-based decisions, phase saving and Luby
restarts. An external DIMACS solver can be substituted per call.

A Solver is incremental in the style of Eén & Sörensson, "An Extensible
SAT-solver" (SAT 2003): variables can be added, clauses are added at
decision level 0 and simplified against the level-0 assignment, and each
run takes a list of assumption literals. Assumptions are decided first,
one decision level each. A falsified assumption means unsat under those
assumptions only; a conflict at level 0 leaves the solver unsat for good.
Learnt clauses, activities and saved phases carry over from run to run.

Decisions pop a binary heap of (-activity, variable) entries kept up
lazily: a bump or a backtrack pushes a fresh entry instead of moving the
old one, and an entry whose variable is assigned is dropped when it pops.
Invariant: every unassigned variable has an entry. ``heap_key[v]`` holds
the key of v's newest entry while that entry is in the heap, and a push
that would repeat it is skipped, so a backtrack adds no copy of an entry
that is already there. Entries are totally ordered tuples, so the pop
order depends only on which entries are present, and skipping copies
does not change which variable a decision picks. A rescale of the
activities scales the heap keys with them, keeping the order between
entries pushed before and after it.

``solve`` is the single entry point. Given a reusable Solver it adds only
the clauses that solver has not loaded yet; otherwise it starts a fresh
one. A hit on the time budget raises SolverTimeout, distinct from an
unsat answer. Every sat model is checked against the whole formula and
the assumptions before it is returned.
"""

from __future__ import annotations

import subprocess
import tempfile
import time
from dataclasses import asdict, dataclass, field, fields
from heapq import heapify, heappop, heappush
from pathlib import Path
from typing import Iterable, Sequence

from .cnf import CnfFormula, emit_dimacs, model_satisfies, parse_dimacs_model
from .errors import CnfError, SolverTimeout

_RESTART_BASE = 128
_ACTIVITY_DECAY = 0.95
_ACTIVITY_LIMIT = 1e100
_DEADLINE_STRIDE = 16  # conflicts or decisions between deadline checks
_NO_ENTRY = 1.0  # heap_key while a variable has no newest entry in the heap; keys are <= 0
_VAL_TO_BIT = bytes.maketrans(b"\x02", b"\x00")  # vals entry (1 true, 2 false) -> bit


@dataclass
class SolverStats:
    decisions: int = 0
    conflicts: int = 0
    propagations: int = 0
    restarts: int = 0

    def merge(self, other: "SolverStats") -> None:
        for f in fields(self):
            setattr(self, f.name, getattr(self, f.name) + getattr(other, f.name))

    def as_dict(self) -> dict:
        return asdict(self)


@dataclass
class SatOutcome:
    status: str  # "sat" | "unsat"
    model: dict[int, int] | None = None
    stats: SolverStats = field(default_factory=SolverStats)


def _luby(i: int) -> int:
    """i-th element (1-based) of the Luby restart sequence 1,1,2,1,1,2,4,..."""
    x = i - 1
    size, seq = 1, 0
    while size < x + 1:
        seq += 1
        size = 2 * size + 1
    while size - 1 != x:
        size = (size - 1) >> 1
        seq -= 1
        x %= size
    return 1 << seq


class Solver:
    """Incremental CDCL solver (literal codes: 2v / 2v+1).

    Clauses and variables only ever grow. ``run`` leaves the assignment of
    its answer in place; the next ``add_clauses`` or ``run`` first returns
    to level 0. ``solve`` hands a reusable Solver the clauses of its
    formula from index ``loaded`` on, so one Solver serves one growing
    formula.
    """

    def __init__(self):
        self.n_vars = 0
        self.deadline: float | None = None  # time.monotonic() limit
        self.stats = SolverStats()
        self.ok = True  # False once the clauses alone are unsat
        self.loaded = 0
        # watches[code]: the clauses (literal-code lists) watching code
        self.watches: list[list[list[int]]] = [[], []]
        # vals[code]: 0 unassigned, 1 true, 2 false
        self.vals = [0, 0]
        self.level = [0]
        self.reason: list[list[int] | None] = [None]  # implying clause
        self.trail: list[int] = []
        self.trail_lim: list[int] = []
        self.qhead = 0
        self.activity = [0.0]
        self.var_inc = 1.0
        self.phase = [False]
        self.seen = [False]
        self.heap: list[tuple[float, int]] = []
        # heap_key[v]: key of v's newest heap entry while it is in the heap
        # (see the module docstring)
        self.heap_key = [_NO_ENTRY]
        self.queued = 0  # variables 1..queued have entered the heap

    # -- incremental interface ---------------------------------------------

    def grow(self, n_vars: int) -> None:
        """Make variables 1..n_vars available."""
        extra = n_vars - self.n_vars
        if extra <= 0:
            return
        self.watches.extend([] for _ in range(2 * extra))
        self.vals.extend([0] * (2 * extra))
        self.level.extend([0] * extra)
        self.reason.extend([None] * extra)
        self.activity.extend([0.0] * extra)
        self.phase.extend([False] * extra)
        self.seen.extend([False] * extra)
        self.heap_key.extend([_NO_ENTRY] * extra)
        self.n_vars = n_vars

    def add_clauses(self, clauses: Iterable[Iterable[int]]) -> None:
        """Add clauses at level 0 (DIMACS literals).

        Literals false at level 0 are dropped and clauses satisfied at
        level 0 are skipped. A clause left with one literal fixes it at
        level 0; one left empty makes the solver unsat for good. The
        deadline is checked every 4096 clauses; ``loaded`` counts the
        clauses taken so far, so a call cut short can be resumed.
        """
        if self.trail_lim:
            self._backtrack(0)
        vals = self.vals
        activity = self.activity
        watches = self.watches
        top = 2 * self.n_vars + 1
        loaded = self.loaded
        try:
            for lits in clauses:
                if not loaded & 4095:
                    self._check_deadline()
                if not self.ok:
                    return
                free: list[int] = []
                satisfied = False
                for lit in lits:
                    code = 2 * lit if lit > 0 else 1 - 2 * lit
                    if not 1 < code <= top:
                        raise CnfError(f"literal {lit} out of range")
                    val = vals[code]
                    if not val:
                        free.append(code)
                    elif val == 1:
                        satisfied = True  # the rest are still range-checked
                if satisfied:
                    pass  # true at level 0: nothing to add
                elif len(free) > 1:
                    watches[free[0]].append(free)
                    watches[free[1]].append(free)
                    for c in free:
                        activity[c >> 1] += 1.0
                elif free:
                    self._enqueue(free[0], None)
                else:
                    self.ok = False
                loaded += 1
        finally:
            self.loaded = loaded

    def run(self, assumptions: Sequence[int] = ()) -> SatOutcome:
        """Search under assumption literals (DIMACS signs).

        The outcome's stats cover this run only. On sat the model is total
        over the solver's variables. The caller range-checks the literals
        (``solve`` does).
        """
        assume = [2 * lit if lit > 0 else 1 - 2 * lit for lit in assumptions]
        stats = self.stats = SolverStats()
        if self.trail_lim:
            self._backtrack(0)
        self._fill_heap()
        if not self.ok or self._search(assume) == "unsat":
            return SatOutcome("unsat", stats=stats)
        truth = bytes(self.vals[2::2]).translate(_VAL_TO_BIT)  # vals[2v] -> bit
        model = dict(zip(range(1, self.n_vars + 1), truth))
        return SatOutcome("sat", model=model, stats=stats)

    # -- core mechanics -----------------------------------------------------

    def _enqueue(self, code: int, reason: list[int] | None) -> None:
        self.vals[code] = 1
        self.vals[code ^ 1] = 2
        v = code >> 1
        self.level[v] = len(self.trail_lim)
        self.reason[v] = reason
        self.phase[v] = not (code & 1)
        self.trail.append(code)

    def _propagate(self) -> list[int] | None:
        """Propagate until fixpoint; return the conflicting clause or None.

        Implied literals are assigned inline (the body of ``_enqueue``).
        A clause's watched literals sit in slots 0 and 1; the falsified one
        is moved to slot 1 and, when a replacement watch is found, traded
        with it.
        """
        vals = self.vals
        watches = self.watches
        trail = self.trail
        level, reason, phase = self.level, self.reason, self.phase
        depth = len(self.trail_lim)
        start = qhead = self.qhead
        try:
            while qhead < len(trail):
                falsed = trail[qhead] ^ 1
                qhead += 1
                ws = watches[falsed]
                keep: list[list[int]] = []
                watches[falsed] = keep
                visits = iter(ws)
                for lits in visits:
                    first = lits[0]
                    if first == falsed:
                        first = lits[0] = lits[1]
                        lits[1] = falsed
                    if vals[first] == 1:
                        keep.append(lits)
                        continue
                    for k in range(2, len(lits)):
                        other = lits[k]
                        if vals[other] != 2:
                            lits[1] = other
                            lits[k] = falsed
                            watches[other].append(lits)
                            break
                    else:
                        keep.append(lits)
                        if vals[first] == 2:
                            keep.extend(visits)
                            return lits
                        vals[first] = 1
                        vals[first ^ 1] = 2
                        v = first >> 1
                        level[v] = depth
                        reason[v] = lits
                        phase[v] = not (first & 1)
                        trail.append(first)
            return None
        finally:
            self.qhead = qhead
            self.stats.propagations += qhead - start

    def _rescale(self) -> None:
        """Scale activities, their increment and every heap key alike, so
        entries pushed before the rescale keep their place among those
        pushed after it."""
        scale = 1e-100
        activity, heap_key = self.activity, self.heap_key
        for u in range(1, self.n_vars + 1):
            activity[u] *= scale
            if heap_key[u] != _NO_ENTRY:
                heap_key[u] *= scale
        self.var_inc *= scale
        self.heap[:] = [(key * scale, v) for key, v in self.heap]
        heapify(self.heap)  # rounding can tie keys that were ordered

    def _analyze(self, confl: list[int]) -> tuple[list[int], int]:
        """First-UIP conflict analysis: (learned clause codes, backtrack level)."""
        seen = self.seen
        level = self.level
        activity, heap_key, heap = self.activity, self.heap_key, self.heap
        learnt: list[int] = []
        path = 0
        p = -1
        index = len(self.trail)
        cur_level = len(self.trail_lim)
        lits = confl
        start = 0
        while True:
            for j in range(start, len(lits)):
                q = lits[j]
                v = q >> 1
                if not seen[v] and level[v] > 0:
                    seen[v] = True
                    # bump v, then push it unless its newest entry
                    # already has this key
                    act = activity[v] = activity[v] + self.var_inc
                    if act > _ACTIVITY_LIMIT:
                        self._rescale()  # in place, heap included
                        act = activity[v]
                    key = -act
                    if heap_key[v] != key:
                        heap_key[v] = key
                        heappush(heap, (key, v))
                    if level[v] >= cur_level:
                        path += 1
                    else:
                        learnt.append(q)
            while True:
                index -= 1
                if seen[self.trail[index] >> 1]:
                    break
            p = self.trail[index]
            v = p >> 1
            seen[v] = False
            path -= 1
            if path == 0:
                break
            lits = self.reason[v]
            start = 1
        for q in learnt:
            seen[q >> 1] = False
        learnt.insert(0, p ^ 1)
        if len(learnt) == 1:
            return learnt, 0
        # move a max-level literal into the second watch slot
        max_j = max(range(1, len(learnt)), key=lambda j: level[learnt[j] >> 1])
        learnt[1], learnt[max_j] = learnt[max_j], learnt[1]
        return learnt, level[learnt[1] >> 1]

    def _backtrack(self, target: int) -> None:
        limit = self.trail_lim[target]
        trail = self.trail
        vals = self.vals
        activity, heap_key, heap = self.activity, self.heap_key, self.heap
        for code in trail[limit:]:
            vals[code] = vals[code ^ 1] = 0
            v = code >> 1
            key = -activity[v]  # push unless v's newest entry has this key
            if heap_key[v] != key:
                heap_key[v] = key
                heappush(heap, (key, v))
        del trail[limit:]
        del self.trail_lim[target:]
        self.qhead = limit

    def _fill_heap(self) -> None:
        """Give variables added since the last run their heap entries, and
        drop stale entries once they outnumber the variables."""
        n = self.n_vars
        if len(self.heap) > 4 * n:
            vals, activity = self.vals, self.activity
            self.heap = [(-activity[v], v) for v in range(1, n + 1) if not vals[2 * v]]
            heapify(self.heap)
            self.heap_key = [_NO_ENTRY] * (n + 1)
            for key, v in self.heap:
                self.heap_key[v] = key
        else:
            activity, heap_key, heap = self.activity, self.heap_key, self.heap
            for v in range(self.queued + 1, n + 1):
                key = -activity[v]  # push unless v's newest entry has this key
                if heap_key[v] != key:
                    heap_key[v] = key
                    heappush(heap, (key, v))
        self.queued = n

    def _decide(self) -> None:
        heap, heap_key, vals = self.heap, self.heap_key, self.vals
        while heap:
            key, v = heappop(heap)
            if heap_key[v] == key:
                heap_key[v] = _NO_ENTRY
            if not vals[2 * v]:
                self.stats.decisions += 1
                self.trail_lim.append(len(self.trail))
                self._enqueue(2 * v if self.phase[v] else 2 * v + 1, None)
                return
        # the invariant broke: with no decision to make, _search would spin
        raise AssertionError("decision heap lost an unassigned variable")

    def _check_deadline(self) -> None:
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise SolverTimeout("solver exceeded its time budget")

    def _search(self, assume: list[int]) -> str:
        """CDCL search from level 0; assumption i is decided at level i + 1."""
        stats = self.stats
        vals = self.vals
        restart_count = 0
        budget = _RESTART_BASE * _luby(1)
        conflicts_here = 0
        while True:
            confl = self._propagate()
            if confl is not None:
                stats.conflicts += 1
                conflicts_here += 1
                if not self.trail_lim:
                    self.ok = False
                    return "unsat"
                learnt, back = self._analyze(confl)
                self._backtrack(back)
                if len(learnt) == 1:
                    self._enqueue(learnt[0], None)
                else:
                    self.watches[learnt[0]].append(learnt)
                    self.watches[learnt[1]].append(learnt)
                    self._enqueue(learnt[0], learnt)
                self.var_inc /= _ACTIVITY_DECAY
                if not stats.conflicts % _DEADLINE_STRIDE:
                    self._check_deadline()
                if conflicts_here >= budget:
                    restart_count += 1
                    stats.restarts += 1
                    conflicts_here = 0
                    budget = _RESTART_BASE * _luby(restart_count + 1)
                    if self.trail_lim:
                        self._backtrack(0)
                continue
            while len(self.trail_lim) < len(assume):
                code = assume[len(self.trail_lim)]
                if vals[code] == 2:
                    return "unsat"
                self.trail_lim.append(len(self.trail))
                if vals[code] == 0:
                    self._enqueue(code, None)
                    break
            else:
                if len(self.trail) == self.n_vars:
                    return "sat"
                if not stats.decisions % _DEADLINE_STRIDE:
                    self._check_deadline()
                self._decide()


def solve(
    cnf: CnfFormula,
    assumptions: Iterable[int] = (),
    timeout_ms: float | None = None,
    external_command: Sequence[str] | None = None,
    solver: Solver | None = None,
) -> SatOutcome:
    """Decide a formula under optional assumption literals.

    The built-in CDCL engine loads the clauses of ``cnf`` it has not seen
    and searches under the assumptions. Pass a reusable ``solver`` to keep
    it, and its learnt clauses, for later calls on the same growing
    formula; otherwise a fresh one is used. With ``external_command`` that
    solver gets the formula (plus assumptions as units) as a DIMACS file
    instead. The budget covers loading and search. Raises SolverTimeout
    when the budget is exhausted. On sat, the model is total over the
    formula's variables and is checked against every clause and every
    assumption.
    """
    assumptions = list(assumptions)
    for lit in assumptions:
        if lit == 0 or abs(lit) > cnf.var_count:
            raise CnfError(f"assumption literal {lit} out of range")
    if external_command is not None:
        if solver is not None:
            raise ValueError("a reusable solver cannot run an external command")
        augmented = CnfFormula(var_count=cnf.var_count)
        augmented.clauses = cnf.clauses + [[lit] for lit in assumptions]
        outcome = solve_with_external(augmented, external_command, timeout_ms)
    else:
        if solver is None:
            solver = Solver()
        solver.deadline = None
        if timeout_ms is not None:
            solver.deadline = time.monotonic() + timeout_ms / 1000.0
        solver.grow(cnf.var_count)
        solver.add_clauses(cnf.clauses[solver.loaded:])
        solver._check_deadline()
        outcome = solver.run(assumptions)
    if outcome.status == "sat" and not (
        model_satisfies(cnf, outcome.model)
        and all(outcome.model[abs(lit)] == (lit > 0) for lit in assumptions)
    ):
        raise AssertionError("solver produced a non-satisfying model")
    return outcome


def solve_with_external(
    cnf: CnfFormula,
    command: Sequence[str],
    timeout_ms: float | None = None,
) -> SatOutcome:
    """Run a DIMACS solver subprocess on the formula.

    The command gets the CNF file path appended. Interpretation follows
    the solver-competition convention: exit status 10 = sat, 20 = unsat,
    with the status/model lines on stdout as parsed by
    parse_dimacs_model. Any model returned is completed with zeros for
    unmentioned variables.
    """
    with tempfile.TemporaryDirectory(prefix="benchlock_cnf_") as tmp:
        path = Path(tmp) / "formula.cnf"
        path.write_text(emit_dimacs(cnf), encoding="utf-8")
        try:
            proc = subprocess.run(
                [*command, str(path)],
                capture_output=True,
                text=True,
                timeout=timeout_ms / 1000.0 if timeout_ms is not None else None,
            )
        except subprocess.TimeoutExpired:
            raise SolverTimeout(
                f"external solver exceeded {timeout_ms} ms"
            ) from None
    status, partial = parse_dimacs_model(proc.stdout)
    if status == "unknown":
        if proc.returncode == 10:
            status = "sat"
        elif proc.returncode == 20:
            status = "unsat"
        else:
            raise CnfError(
                f"external solver gave no verdict (exit {proc.returncode})"
            )
    if status == "unsat":
        return SatOutcome("unsat")
    model = {v: partial.get(v, 0) for v in range(1, cnf.var_count + 1)}
    if not model_satisfies(cnf, model):
        raise CnfError(
            "external solver reported sat but printed no usable model"
        )
    return SatOutcome("sat", model=model)
