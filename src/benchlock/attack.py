"""Oracle-guided SAT attack on locked netlists, SAT equivalence checking,
and output-corruption measurement.

The attack builds a miter of two copies of the locked circuit sharing the
primary inputs but holding independent key variable sets. The encoder
hash-conses gates, so the copies share every gate that does not depend on
the key, and only outputs the key can reach get a difference variable.
While the miter is satisfiable, the model yields a distinguishing input
pattern (DIP). The oracle's response is pinned onto each key set by one
copy of the circuit cofactored by the DIP: constants folded, so only gates
that depend on the key are encoded. One incremental solver serves the
whole run; the miter's activator variable is assumed true to search DIPs
and false to extract a key. When no DIP remains, any key satisfying the
accumulated I/O constraints is functionally correct; one is extracted and
verified against the oracle netlist before being returned.
"""

from __future__ import annotations

import random
import time
from dataclasses import asdict, dataclass, field
from typing import Iterable, Mapping, Sequence

from .cnf import CnfFormula, encode_gate, encode_into
from .errors import AttackError, InterfaceError, SolverTimeout, StatError
from .locking import Key, LockedNetlist, apply_key, resolve_key_inputs
from .netlist import GateKind, Netlist, cofactor, simulate_words
from .solver import Solver, SolverStats, solve

DEFAULT_TIMEOUT_MS = 300_000
# corruption_stats packs its sample pairs into simulations at most
# MAX_SIM_WIDTH bits wide that hold at most MAX_SIM_BITS word bits in all
# (width times nets); a group still holds one key when one key's inputs
# alone exceed that.
MAX_SIM_WIDTH = 1 << 16
MAX_SIM_BITS = 1 << 22


class Oracle:
    """The attacker's activated chip: the original netlist behind a
    query-only interface."""

    def __init__(self, netlist: Netlist):
        self.netlist = netlist
        self.queries = 0

    def __call__(self, assignment: dict[str, int]) -> dict[str, int]:
        self.queries += 1
        return self.netlist.simulate(assignment)

    def batch(self, words: dict[str, int], width: int) -> dict[str, int]:
        """Answer ``width`` vectors packed one per bit (bit j of
        ``words[pi]`` is vector j) in one bit-parallel simulation; each
        vector counts as one query. Returns the output words."""
        self.queries += width
        got = simulate_words(self.netlist, words, width)
        return {po: got[po] for po in self.netlist.primary_outputs}


@dataclass
class MiterContext:
    cnf: CnfFormula
    pi_vars: dict[str, int]
    key_vars_a: dict[str, int]
    key_vars_b: dict[str, int]
    diff_vars: list[int]
    activator: int  # assume +activator to search DIPs, -activator to extract keys
    key_inputs: tuple[str, ...]


def _miter(
    a: Netlist, b: Netlist, shared_pis: Iterable[str], outputs: Iterable[str]
) -> tuple[CnfFormula, dict[str, int], dict[str, int], list[int]]:
    """Copies of ``a`` and ``b`` in one formula, the second reading the
    first's variables for ``shared_pis``, plus a variable that is true
    exactly when the copies disagree, for each output the copies compute
    on different variables. The encoder shares every gate the copies have
    in common, so an output on one variable cannot differ.

    Returns (formula, net map of a, net map of b, difference variables
    in ``outputs`` order).
    """
    cnf = CnfFormula()
    inputs = {pi: cnf.new_var() for pi in a.primary_inputs}
    map_a = encode_into(cnf, a.topo_order(), inputs)
    shared = set(shared_pis)
    inputs = {
        pi: map_a[pi] if pi in shared else cnf.new_var() for pi in b.primary_inputs
    }
    map_b = encode_into(cnf, b.topo_order(), inputs)
    diff_vars = []
    for po in outputs:
        va, vb = map_a[po], map_b[po]
        if va != vb:
            diff_vars.append(cnf.new_var())
            encode_gate(cnf, GateKind.XOR, diff_vars[-1], [va, vb])
    return cnf, map_a, map_b, diff_vars


def build_miter(locked: LockedNetlist | Netlist) -> MiterContext:
    """Two Tseitin copies sharing PIs, independent keys, and an activatable
    difference constraint (at least one output pair differs)."""
    locked = resolve_key_inputs(locked)
    netlist, key_inputs = locked.netlist, locked.key_inputs
    if not key_inputs:
        raise AttackError("netlist has no key inputs; nothing to attack")
    data_inputs = locked.data_inputs

    cnf, map_a, map_b, diff_vars = _miter(
        netlist, netlist, data_inputs, netlist.primary_outputs
    )
    activator = cnf.new_var()
    cnf.add_clause([-activator] + diff_vars)

    return MiterContext(
        cnf=cnf,
        pi_vars={pi: map_a[pi] for pi in data_inputs},
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
    Gates that read only key variables are shared with the miter.
    """
    gates, const = cofactor(netlist, dip)
    read = {i for g in gates for i in g.inputs}
    fixed = [net for net in const if net in read]
    for key_vars in key_var_sets:
        shared = dict(key_vars)
        for net in fixed:
            var = shared[net] = cnf.new_var()
            cnf.add_clause([var if const[net] else -var])
        copy = encode_into(cnf, gates, shared)
        for po, bit in response.items():
            if po not in const:
                cnf.add_clause([copy[po] if bit else -copy[po]])
            elif const[po] != bit:
                cnf.add_clause([])


def sat_attack(
    locked: LockedNetlist | Netlist,
    oracle: Oracle,
    timeout_ms: float | None = DEFAULT_TIMEOUT_MS,
    iteration_cap: int | None = None,
) -> AttackResult:
    """Run the DIP loop until the key space is resolved.

    On key_recovered the returned key is guaranteed functionally correct:
    apply_key(locked, key) is checked equivalent to the oracle netlist
    before returning. The time budget is checked before each solver call
    (DIP searches and the key extraction), after each oracle answer, and
    inside the solver; the final equivalence check gets whatever budget
    is left, so a key that hashing alone proves is returned even when the
    budget ran out. Hitting the budget or the iteration cap returns an
    aborted result with no key that keeps the DIP trace so far. A negative
    iteration cap raises ValueError, and an oracle whose ports are not the
    locked netlist's data inputs and outputs raises InterfaceError, both
    before the first query.
    """
    t0 = time.monotonic()
    if iteration_cap is not None and iteration_cap < 0:
        raise ValueError(f"iteration_cap must be >= 0, got {iteration_cap}")
    locked = resolve_key_inputs(locked)
    netlist = locked.netlist
    _require_interface(locked.data_inputs, netlist.primary_outputs, oracle.netlist)
    miter = build_miter(locked)
    if iteration_cap is None:
        iteration_cap = 1 << min(len(miter.key_inputs), 20)

    def remaining(check: bool = True) -> float | None:
        """Milliseconds left of the budget, None without one; SolverTimeout
        once it is spent, unless ``check`` is off."""
        if timeout_ms is None:
            return None
        left = timeout_ms - (time.monotonic() - t0) * 1000.0
        if check and left <= 0:
            raise SolverTimeout("attack exceeded its time budget")
        return left

    stats = SolverStats()
    dips: list[tuple[dict[str, int], dict[str, int]]] = []
    cnf = miter.cnf
    solver = Solver()
    status, key = "aborted_iteration_cap", None
    try:
        while True:
            outcome = solve(cnf, [miter.activator], timeout_ms=remaining(),
                            solver=solver)
            stats.merge(outcome.stats)
            if outcome.status == "unsat" or len(dips) >= iteration_cap:
                break
            dip = {pi: outcome.model[v] for pi, v in miter.pi_vars.items()}
            response = oracle(dip)
            dips.append((dip, response))
            remaining()  # the oracle's answer counts against the budget
            _pin_dip(cnf, netlist, dip, response,
                     (miter.key_vars_a, miter.key_vars_b))
        if outcome.status == "unsat":
            final = solve(cnf, [-miter.activator], timeout_ms=remaining(),
                          solver=solver)
            stats.merge(final.stats)
            if final.status != "sat":
                raise AttackError(
                    "no key satisfies the accumulated I/O constraints; "
                    "the locked netlist and oracle are inconsistent"
                )
            key = Key(
                tuple(final.model[miter.key_vars_a[k]] for k in miter.key_inputs)
            )
            unlocked = apply_key(locked, key)
            if not equivalence_check(unlocked, oracle.netlist,
                                     timeout_ms=remaining(check=False)).equivalent:
                raise AttackError(
                    "recovered key failed the equivalence check against the "
                    "oracle; the locked netlist and oracle are inconsistent"
                )
            status = "key_recovered"
    except SolverTimeout:
        status, key = "aborted_timeout", None
    return AttackResult(
        status=status,
        recovered_key=key,
        iterations=len(dips),
        dips=dips,
        elapsed_ms=(time.monotonic() - t0) * 1000.0,
        solver_stats=stats,
        oracle_queries=oracle.queries,
    )


def _require_interface(
    inputs: Iterable[str], outputs: Iterable[str], reference: Netlist
) -> None:
    """InterfaceError unless ``inputs`` and ``outputs`` name the primary
    inputs and outputs of ``reference``, in any order; ``missing`` lists
    the reference's names absent from them, ``extra`` the others."""
    for what, got, want in (
        ("inputs", set(inputs), set(reference.primary_inputs)),
        ("outputs", set(outputs), set(reference.primary_outputs)),
    ):
        if got != want:
            raise InterfaceError(
                f"primary {what} differ", missing=want - got, extra=got - want
            )


@dataclass
class EquivalenceResult:
    equivalent: bool
    counterexample: dict[str, int] | None = None


def equivalence_check(
    a: Netlist, b: Netlist, timeout_ms: float | None = None
) -> EquivalenceResult:
    """SAT-miter equivalence of two circuits with the same port names.

    When every output pair shares one variable, hashing alone proves the
    circuits equivalent and no solver runs. Otherwise the solver decides
    whether some output pair differs; a sat miter yields a counterexample,
    which is re-validated by simulation before being reported.
    """
    _require_interface(a.primary_inputs, a.primary_outputs, b)
    cnf, map_a, _, diff = _miter(a, b, a.primary_inputs, sorted(set(a.primary_outputs)))
    if not diff:
        return EquivalenceResult(True)
    cnf.add_clause(diff)

    outcome = solve(cnf, timeout_ms=timeout_ms)
    if outcome.status == "unsat":
        return EquivalenceResult(True)
    ctrex = {pi: outcome.model[map_a[pi]] for pi in a.primary_inputs}
    if a.simulate(ctrex) == b.simulate(ctrex):
        raise AssertionError("miter counterexample does not replay in simulation")
    return EquivalenceResult(False, ctrex)


def key_sweep(
    locked: LockedNetlist,
    keys: Sequence[Sequence[int]],
    words: Mapping[str, int],
    width: int,
    want: Mapping[str, int],
) -> list[int]:
    """Where ``locked`` under each of ``keys`` differs from ``want``.

    ``words`` packs ``width`` data-input vectors one per bit, and ``want``
    holds the oracle's output words for them. Key j's copy of the vectors
    sits at bit ``j * width`` of one simulation. Returns, for each output
    of ``want`` in order, the word whose bit ``j * width + x`` is set when
    key j gives the wrong value on vector x.
    """
    spread = sum(1 << (j * width) for j in range(len(keys)))
    packed = {pi: word * spread for pi, word in words.items()}
    ones = (1 << width) - 1
    for i, k in enumerate(locked.key_inputs):
        packed[k] = sum(ones << (j * width) for j, key in enumerate(keys) if key[i])
    got = simulate_words(locked.netlist, packed, len(keys) * width)
    return [got[po] ^ word * spread for po, word in want.items()]


@dataclass
class CorruptionStats:
    corruption_rate: float
    mean_output_hamming: float
    wrong_keys: int
    inputs: int
    seed: int

    def as_dict(self) -> dict:
        return asdict(self)


def corruption_stats(
    locked: LockedNetlist | Netlist,
    oracle: Oracle,
    correct_key: Key,
    wrong_keys: int = 100,
    inputs: int = 100,
    seed: int = 0,
) -> CorruptionStats:
    """Sampled wrong-key output corruption.

    corruption_rate is the fraction of (wrong key, input) pairs whose
    outputs differ anywhere from the oracle; mean_output_hamming averages
    the number of differing outputs over all pairs. Deterministic for a
    fixed seed. The sampled inputs are packed one per bit and the oracle
    answers them in one batch (one query per input). The locked netlist
    is simulated on many pairs at once, (wrong key j, input x) at bit
    ``j * inputs + x``: in groups of keys whose simulation is at most
    MAX_SIM_WIDTH bits wide and holds at most MAX_SIM_BITS word bits, or
    of one key if its inputs alone exceed that. An oracle whose ports are
    not the locked netlist's data inputs and outputs raises InterfaceError
    before the query.
    """
    locked = resolve_key_inputs(locked)
    netlist, key_inputs = locked.netlist, locked.key_inputs
    _require_interface(locked.data_inputs, netlist.primary_outputs, oracle.netlist)
    width = len(key_inputs)
    if width == 0:
        raise StatError("no key inputs: wrong keys do not exist")
    correct = locked.key_bits(correct_key)
    if wrong_keys < 1 or inputs < 1:
        raise StatError("need at least one wrong key and one input sample")

    rng = random.Random(seed)
    keys = []
    for _ in range(wrong_keys):
        while True:
            cand = tuple(rng.getrandbits(1) for _ in range(width))
            if cand != correct:
                break
        keys.append(cand)

    data_inputs = locked.data_inputs
    words = dict.fromkeys(data_inputs, 0)
    for j in range(inputs):
        for pi in data_inputs:
            words[pi] |= rng.getrandbits(1) << j
    want = oracle.batch(words, inputs)
    nets = len(netlist.primary_inputs) + len(netlist.gates)
    group = max(1, min(MAX_SIM_WIDTH, MAX_SIM_BITS // nets) // inputs)
    corrupted = hamming_total = 0
    for start in range(0, len(keys), group):
        differs = 0
        for diff in key_sweep(locked, keys[start:start + group], words, inputs, want):
            differs |= diff
            hamming_total += diff.bit_count()
        corrupted += differs.bit_count()
    pairs = len(keys) * inputs
    return CorruptionStats(
        corruption_rate=corrupted / pairs,
        mean_output_hamming=hamming_total / pairs,
        wrong_keys=len(keys),
        inputs=inputs,
        seed=seed,
    )
