"""Oracle-guided SAT attack on locked netlists, SAT equivalence checking,
and output-corruption measurement.

The attack builds a miter of two copies of the locked circuit sharing the
primary inputs but holding independent key variable sets. While the miter
is satisfiable, the model yields a distinguishing input pattern (DIP). The
oracle's response is pinned onto each key set by one copy of the circuit
cofactored by the DIP: constants folded, so only gates that depend on the
key are encoded. One incremental solver serves the whole run; the miter's
activator variable is assumed true to search DIPs and false to extract a
key. When no DIP remains, any key satisfying the accumulated I/O
constraints is functionally correct; one is extracted and verified against
the oracle netlist before being returned.
"""

from __future__ import annotations

import random
import time
from dataclasses import dataclass, field
from typing import Iterable

from .cnf import CnfFormula, encode_into
from .errors import AttackError, InterfaceError, SolverTimeout, StatError
from .locking import KEY_PREFIX, Key, LockedNetlist, apply_key, resolve_key_inputs
from .netlist import Netlist, cofactor
from .solver import SatOutcome, Solver, SolverStats, solve

DEFAULT_TIMEOUT_MS = 300_000


class Oracle:
    """The attacker's activated chip: the original netlist behind a
    query-only interface."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.queries = 0

    def __call__(self, assignment: dict[str, int]) -> dict[str, int]:
        self.queries += 1
        return self.netlist.simulate(assignment)


@dataclass
class MiterContext:
    cnf: CnfFormula
    pi_vars: dict[str, int]
    key_vars_a: dict[str, int]
    key_vars_b: dict[str, int]
    diff_vars: list[int]
    activator: int  # assume +activator to search DIPs, -activator to extract keys
    key_inputs: list[str]


def _miter(
    a: Netlist, b: Netlist, shared_pis: Iterable[str], outputs: Iterable[str]
) -> tuple[CnfFormula, dict[str, int], dict[str, int], list[int]]:
    """Copies of ``a`` and ``b`` in one formula, the second reading the
    first's variables for ``shared_pis``, plus one variable per output
    that is true exactly when the two copies disagree on it.

    Returns (formula, net map of a, net map of b, difference variables
    in ``outputs`` order).
    """
    cnf = CnfFormula()
    map_a = encode_into(cnf, a)
    map_b = encode_into(cnf, b, {pi: map_a[pi] for pi in shared_pis})
    diff_vars = []
    for po in outputs:
        d = cnf.new_var()
        va, vb = map_a[po], map_b[po]
        cnf.add(-d, va, vb)
        cnf.add(-d, -va, -vb)
        cnf.add(d, -va, vb)
        cnf.add(d, va, -vb)
        diff_vars.append(d)
    return cnf, map_a, map_b, diff_vars


def build_miter(
    locked: LockedNetlist | Netlist,
    key_prefix: str = KEY_PREFIX,
    allow_keyless: bool = False,
) -> MiterContext:
    """Two Tseitin copies sharing PIs, independent keys, and an activatable
    difference constraint (at least one output pair differs)."""
    netlist, key_inputs = resolve_key_inputs(locked, key_prefix=key_prefix)
    if not key_inputs and not allow_keyless:
        raise AttackError("netlist has no key inputs; nothing to attack")
    keyset = set(key_inputs)
    real_pis = [pi for pi in netlist.primary_inputs if pi not in keyset]

    cnf, map_a, map_b, diff_vars = _miter(
        netlist, netlist, real_pis, netlist.primary_outputs
    )
    activator = cnf.new_var()
    cnf.add_clause([-activator] + diff_vars)

    return MiterContext(
        cnf=cnf,
        pi_vars={pi: map_a[pi] for pi in real_pis},
        key_vars_a={k: map_a[k] for k in key_inputs},
        key_vars_b={k: map_b[k] for k in key_inputs},
        diff_vars=diff_vars,
        activator=activator,
        key_inputs=key_inputs,
    )


@dataclass
class AttackResult:
    status: str  # key_recovered | aborted_timeout | aborted_iteration_cap
    recovered_key: Key | None
    iterations: int
    dips: list[tuple[dict[str, int], dict[str, int]]]
    elapsed_ms: float
    solver_stats: SolverStats = field(default_factory=SolverStats)
    oracle_queries: int = 0

    def as_dict(self) -> dict:
        return {
            "status": self.status,
            "recovered_key": self.recovered_key.to_string()
            if self.recovered_key
            else None,
            "iterations": self.iterations,
            "dips": [{"input": x, "output": y} for x, y in self.dips],
            "elapsed_ms": self.elapsed_ms,
            "solver_stats": self.solver_stats.as_dict(),
            "oracle_queries": self.oracle_queries,
        }


def _pin_dip(
    cnf: CnfFormula,
    netlist: Netlist,
    dip: dict[str, int],
    response: dict[str, int],
    key_var_sets: Iterable[dict[str, int]],
) -> None:
    """Constrain every key set to map ``dip`` to ``response``.

    Each key set gets one copy of ``netlist`` cofactored by the DIP.
    Constant nets that the copy still reads become unit-fixed variables; a
    constant output that contradicts the oracle becomes an empty clause.
    """
    gates, const = cofactor(netlist, dip)
    read = {i for g in gates for i in g.inputs}
    fixed = [net for net in const if net in read]
    for key_vars in key_var_sets:
        shared = dict(key_vars)
        for net in fixed:
            var = shared[net] = cnf.new_var()
            cnf.add(var if const[net] else -var)
        rest = Netlist(netlist.name, list(shared), [], gates)
        copy = encode_into(cnf, rest, shared)
        for po, bit in response.items():
            if po not in const:
                cnf.add(copy[po] if bit else -copy[po])
            elif const[po] != bit:
                cnf.add_clause([])


def sat_attack(
    locked: LockedNetlist | Netlist,
    oracle: Oracle,
    timeout_ms: float | None = DEFAULT_TIMEOUT_MS,
    iteration_cap: int | None = None,
    key_prefix: str = KEY_PREFIX,
) -> AttackResult:
    """Run the DIP loop until the key space is resolved.

    On key_recovered the returned key is guaranteed functionally correct:
    apply_key(locked, key) is checked equivalent to the oracle netlist
    before returning. The time budget is checked after the miter is
    built, before each solver call and before each DIP is encoded, and
    inside the solver. Hitting it or the iteration cap returns an aborted
    result carrying the DIP trace so far.
    """
    t0 = time.monotonic()
    netlist, _ = resolve_key_inputs(locked, key_prefix=key_prefix)
    miter = build_miter(locked, key_prefix)
    if iteration_cap is None:
        iteration_cap = 1 << min(len(miter.key_inputs), 20)

    stats = SolverStats()
    dips: list[tuple[dict[str, int], dict[str, int]]] = []
    cnf = miter.cnf
    solver = Solver()

    def remaining() -> float | None:
        if timeout_ms is None:
            return None
        return timeout_ms - (time.monotonic() - t0) * 1000.0

    def out_of_time() -> bool:
        budget = remaining()
        return budget is not None and budget <= 0

    def result(status: str, key: Key | None) -> AttackResult:
        return AttackResult(
            status=status,
            recovered_key=key,
            iterations=len(dips),
            dips=dips,
            elapsed_ms=(time.monotonic() - t0) * 1000.0,
            solver_stats=stats,
            oracle_queries=oracle.queries,
        )

    def search(activator: int) -> SatOutcome:
        if out_of_time():
            raise SolverTimeout("attack exceeded its time budget")
        outcome = solve(cnf, [activator], timeout_ms=remaining(), solver=solver)
        stats.merge(outcome.stats)
        return outcome

    try:
        while True:
            outcome = search(miter.activator)
            if outcome.status == "unsat":
                break
            if len(dips) >= iteration_cap:
                return result("aborted_iteration_cap", None)
            model = outcome.model
            dip = {pi: model[v] for pi, v in miter.pi_vars.items()}
            response = oracle(dip)
            dips.append((dip, response))
            if out_of_time():
                return result("aborted_timeout", None)
            _pin_dip(cnf, netlist, dip, response,
                     (miter.key_vars_a, miter.key_vars_b))
        final = search(-miter.activator)
    except SolverTimeout:
        return result("aborted_timeout", None)
    if final.status != "sat":
        raise AttackError(
            "no key satisfies the accumulated I/O constraints; "
            "the locked netlist and oracle are inconsistent"
        )
    key = Key(
        tuple(final.model[miter.key_vars_a[k]] for k in miter.key_inputs)
    )

    unlocked = apply_key(netlist, key, key_inputs=miter.key_inputs)
    try:
        check = equivalence_check(unlocked, oracle.netlist, timeout_ms=remaining())
    except SolverTimeout:
        return result("aborted_timeout", None)
    if not check.equivalent:
        raise AttackError(
            "recovered key failed the equivalence check against the oracle; "
            "the locked netlist and oracle are inconsistent"
        )
    return result("key_recovered", key)


@dataclass
class EquivalenceResult:
    equivalent: bool
    counterexample: dict[str, int] | None = None


def equivalence_check(
    a: Netlist, b: Netlist, timeout_ms: float | None = None
) -> EquivalenceResult:
    """SAT-miter equivalence of two circuits with the same port names.

    A sat miter yields a counterexample, which is re-validated by
    simulation before being reported.
    """
    a_pis, b_pis = set(a.primary_inputs), set(b.primary_inputs)
    if a_pis != b_pis:
        raise InterfaceError(
            "primary inputs differ", missing=b_pis - a_pis, extra=a_pis - b_pis
        )
    a_pos, b_pos = set(a.primary_outputs), set(b.primary_outputs)
    if a_pos != b_pos:
        raise InterfaceError(
            "primary outputs differ", missing=b_pos - a_pos, extra=a_pos - b_pos
        )

    cnf, map_a, _, diff = _miter(a, b, a.primary_inputs, sorted(a_pos))
    cnf.add_clause(diff)

    outcome = solve(cnf, timeout_ms=timeout_ms)
    if outcome.status == "unsat":
        return EquivalenceResult(True)
    ctrex = {pi: outcome.model[map_a[pi]] for pi in a.primary_inputs}
    if a.simulate(ctrex) == b.simulate(ctrex):
        raise AssertionError("miter counterexample does not replay in simulation")
    return EquivalenceResult(False, ctrex)


@dataclass
class CorruptionStats:
    corruption_rate: float
    mean_output_hamming: float
    wrong_keys: int
    inputs: int
    seed: int

    def as_dict(self) -> dict:
        return {
            "corruption_rate": self.corruption_rate,
            "mean_output_hamming": self.mean_output_hamming,
            "wrong_keys": self.wrong_keys,
            "inputs": self.inputs,
            "seed": self.seed,
        }


def corruption_stats(
    locked: LockedNetlist | Netlist,
    oracle: Oracle,
    correct_key: Key,
    wrong_keys: int = 100,
    inputs: int = 100,
    seed: int = 0,
    key_prefix: str = KEY_PREFIX,
    wrong_key_override: list[Key] | None = None,
) -> CorruptionStats:
    """Sampled wrong-key output corruption.

    corruption_rate is the fraction of (wrong key, input) pairs whose
    outputs differ anywhere from the oracle; mean_output_hamming averages
    the number of differing outputs over all pairs. Deterministic for a
    fixed seed. ``wrong_key_override`` substitutes an explicit key list
    (test/debug hook).
    """
    netlist, key_inputs = resolve_key_inputs(locked, key_prefix=key_prefix)
    width = len(key_inputs)
    if width == 0:
        raise StatError("no key inputs: wrong keys do not exist")
    if len(correct_key) != width:
        raise StatError(
            f"key width {len(correct_key)} does not match {width} key inputs"
        )
    if wrong_keys < 1 or inputs < 1:
        raise StatError("need at least one wrong key and one input sample")

    rng = random.Random(seed)
    if wrong_key_override is not None:
        keys = list(wrong_key_override)
    else:
        keys = []
        for _ in range(wrong_keys):
            while True:
                cand = tuple(rng.getrandbits(1) for _ in range(width))
                if cand != correct_key.bits:
                    break
            keys.append(Key(cand))

    keyset = set(key_inputs)
    real_pis = [pi for pi in netlist.primary_inputs if pi not in keyset]
    vectors = [
        {pi: rng.getrandbits(1) for pi in real_pis} for _ in range(inputs)
    ]
    golden = [oracle(x) for x in vectors]

    pairs = 0
    corrupted = 0
    hamming_total = 0
    for key in keys:
        key_assign = dict(zip(key_inputs, key.bits))
        for x, want in zip(vectors, golden):
            got = netlist.simulate({**x, **key_assign})
            diff = sum(1 for po in want if got[po] != want[po])
            pairs += 1
            hamming_total += diff
            if diff:
                corrupted += 1
    return CorruptionStats(
        corruption_rate=corrupted / pairs,
        mean_output_hamming=hamming_total / pairs,
        wrong_keys=len(keys),
        inputs=inputs,
        seed=seed,
    )
