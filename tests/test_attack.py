import gc
import hashlib
import itertools
import json
import random
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchlock import attack
from benchlock.attack import (
    Oracle,
    _miter,
    build_miter,
    corruption_stats,
    equivalence_check,
    sat_attack,
)
from benchlock.circuits import c17, c432_scale, parallel_cones, random_netlist
from benchlock.cnf import tseitin
from benchlock.errors import AttackError, InterfaceError, LockError, StatError
from benchlock.locking import (
    DUMMY_POLICIES,
    KEYGATE_POLICIES,
    Key,
    LockConfig,
    apply_key,
    insert_xor_keygates,
    lock,
    resolve_key_inputs,
)
from benchlock.netlist import Gate, GateKind, Netlist, simulate_words, truth_tables
from benchlock.solver import solve
from benchlock.verify import functional_verify


def and_gate():
    return Netlist("t", ["a", "b"], ["y"], [Gate("y", GateKind.AND, ("a", "b"))])


# -- miter construction -------------------------------------------------------------


def test_miter_variable_arithmetic():
    # copy B shares copy A's PIs and every gate that does not read the key:
    # y_pre = AND(a, b) is encoded once, so copy B adds only its own
    # keyinput0 and y
    locked = insert_xor_keygates(and_gate(), ["y"], (0,))
    m = build_miter(locked)
    n = locked.netlist
    copy_a = len(n.nets)  # 5: a, b, keyinput0, y_pre, y
    copy_b = 2  # keyinput0, y
    aux = 1 + 1  # one difference variable (for y) plus the activator
    assert len(m.diff_vars) == 1
    assert m.cnf.var_count == copy_a + copy_b + aux == 9


def test_miter_requires_key_inputs():
    with pytest.raises(AttackError, match="no key inputs"):
        build_miter(and_gate())


def test_miter_sat_only_for_differing_keys():
    locked = insert_xor_keygates(and_gate(), ["y"], (0,))
    m = build_miter(locked)
    ka, kb = m.key_vars_a["keyinput0"], m.key_vars_b["keyinput0"]
    for va, vb in itertools.product((0, 1), repeat=2):
        assumptions = [
            m.activator,
            ka if va else -ka,
            kb if vb else -kb,
        ]
        status = solve(m.cnf, assumptions=assumptions).status
        assert status == ("sat" if va != vb else "unsat"), (va, vb)


def test_clause_count_grows_per_dip_constraint():
    from benchlock.cnf import encode_into

    c = c17()
    locked, _ = lock(c, LockConfig(key_size=4, seed=1))
    m = build_miter(locked)
    before = len(m.cnf.clauses)
    # one attack iteration pins the DIP into two fresh copies
    for key_vars in (m.key_vars_a, m.key_vars_b):
        inputs = {pi: key_vars.get(pi) or m.cnf.new_var()
                  for pi in locked.netlist.primary_inputs}
        copy = encode_into(m.cnf, locked.netlist.topo_order(), inputs)
        for pi in m.pi_vars:
            m.cnf.add_clause([copy[pi]])
        for po in locked.netlist.primary_outputs:
            m.cnf.add_clause([copy[po]])
    assert len(m.cnf.clauses) > before


# -- the attack -------------------------------------------------------------------------


def test_attack_single_xor_bit():
    n = and_gate()
    locked = insert_xor_keygates(n, ["y"], (1,))
    result = sat_attack(locked, Oracle(n))
    assert result.status == "key_recovered"
    assert 1 <= result.iterations <= 2
    assert result.recovered_key == Key((1,))
    assert result.iterations == len(result.dips)


def test_attack_degenerate_equivalent_keys():
    # the key gate is cancelled immediately; both key values behave identically
    gates = [
        Gate("m", GateKind.XOR, ("a", "keyinput0")),
        Gate("y", GateKind.XOR, ("m", "keyinput0")),
    ]
    locked = Netlist("deg", ["a", "keyinput0"], ["y"], gates)
    original = Netlist("orig", ["a"], ["y"], [Gate("y", GateKind.BUFF, ("a",))])
    result = sat_attack(locked, Oracle(original))
    assert result.status == "key_recovered"
    assert result.iterations == 0
    applied = apply_key(locked, result.recovered_key)
    assert equivalence_check(applied, original).equivalent


def test_attack_c17_k4_seed42():
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, keygate_policy="xor_only", seed=42))
    result = sat_attack(locked, Oracle(c))
    assert result.status == "key_recovered"
    assert result.iterations <= 16
    applied = apply_key(locked, result.recovered_key)
    assert equivalence_check(applied, c).equivalent


@pytest.mark.parametrize("policy", ["xor_only", "mux_only", "mixed"])
def test_attack_recovers_across_policies(policy):
    c = parallel_cones(6)
    locked, key = lock(
        c,
        LockConfig(
            key_size=6,
            keygate_policy=policy,
            dummy_policy="other_cone_net",
            selection="random",
            seed=13,
        ),
    )
    result = sat_attack(locked, Oracle(c))
    assert result.status == "key_recovered"
    assert result.iterations <= 2 ** 6


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(
    circuit_seed=st.integers(0, 10_000),
    n_inputs=st.integers(3, 8),
    n_gates=st.integers(8, 30),
    key_size=st.integers(1, 6),
    policy=st.sampled_from(KEYGATE_POLICIES),
    dummy=st.sampled_from(DUMMY_POLICIES),
    lock_seed=st.integers(0, 10_000),
)
def test_a_recovered_key_is_equivalent_to_the_oracle(
    circuit_seed, n_inputs, n_gates, key_size, policy, dummy, lock_seed,
):
    n = random_netlist(n_inputs, n_gates, circuit_seed)
    locked, _ = lock(n, LockConfig(key_size=key_size, keygate_policy=policy,
                                   dummy_policy=dummy, seed=lock_seed))
    result = sat_attack(locked, Oracle(n), timeout_ms=None)
    assert result.status == "key_recovered"
    # truth tables, not the attack's own SAT check
    got = truth_tables(apply_key(locked, result.recovered_key), n.primary_inputs)
    want = truth_tables(n)
    assert [got[po] for po in n.primary_outputs] == [
        want[po] for po in n.primary_outputs]


def test_attack_iteration_cap_aborts():
    c = c17()
    locked, _ = lock(c, LockConfig(key_size=4, seed=42))
    result = sat_attack(locked, Oracle(c), iteration_cap=0)
    assert result.status == "aborted_iteration_cap"
    assert result.recovered_key is None


def test_an_iteration_capped_attack_keeps_the_first_dips():
    big = c432_scale()
    locked, _ = lock(big, LockConfig(key_size=16, keygate_policy="mixed", seed=5))
    full = sat_attack(locked, Oracle(big))
    capped = sat_attack(locked, Oracle(big), iteration_cap=2)
    assert full.iterations > 2
    assert capped.status == "aborted_iteration_cap"
    assert capped.recovered_key is None
    assert capped.iterations == 2 and capped.dips == full.dips[:2]


def test_an_attack_timed_out_by_the_oracle_keeps_its_dip():
    class SlowOracle(Oracle):
        def __call__(self, assignment):
            if self.queries == 0:
                time.sleep(0.3)
            return super().__call__(assignment)

    c = c17()
    locked, _ = lock(c, LockConfig(key_size=4, seed=42))
    result = sat_attack(locked, SlowOracle(c), timeout_ms=200)
    assert result.status == "aborted_timeout"
    assert result.recovered_key is None
    assert result.iterations == 1 and len(result.dips) == 1
    assert result.oracle_queries == 1


def test_a_key_proved_by_hashing_survives_a_spent_budget(monkeypatch):
    # the final equivalence check gets the budget left, however little: a
    # correct key needs no solver there, so it is still returned
    def slow_apply_key(*args):
        time.sleep(0.3)
        return apply_key(*args)

    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, seed=42))
    monkeypatch.setattr(attack, "apply_key", slow_apply_key)
    result = sat_attack(locked, Oracle(c), timeout_ms=200)
    assert result.elapsed_ms > 200
    assert result.status == "key_recovered" and result.recovered_key == key


def test_attack_refuses_a_negative_iteration_cap(monkeypatch):
    c = c17()
    locked, _ = lock(c, LockConfig(key_size=4, seed=42))
    monkeypatch.setattr(attack, "build_miter",
                        lambda _: pytest.fail("the miter was built"))
    with pytest.raises(ValueError, match="iteration_cap"):
        sat_attack(locked, Oracle(c), iteration_cap=-3)


def test_attack_timeout_aborts():
    c = parallel_cones(8)
    locked, _ = lock(c, LockConfig(key_size=8, keygate_policy="mixed",
                                   dummy_policy="random_function", seed=3))
    result = sat_attack(locked, Oracle(c), timeout_ms=0.0001)
    assert result.status == "aborted_timeout"


def test_attack_timeout_holds_on_large_netlist():
    # the budget is checked after the miter is built and before each DIP is
    # encoded, so a tiny budget overshoots by at most one miter build
    n = random_netlist(32, 2000, 11)
    locked, _ = lock(n, LockConfig(key_size=64, seed=1))
    gc.collect()  # no full collection of earlier tests' garbage inside the timing
    t0 = time.monotonic()
    build_miter(locked)
    miter_ms = (time.monotonic() - t0) * 1000.0
    result = sat_attack(locked, Oracle(n), timeout_ms=50)
    assert result.status == "aborted_timeout"
    assert result.elapsed_ms <= 50 + miter_ms


def test_attack_is_deterministic():
    big = c432_scale()
    locked, _ = lock(big, LockConfig(key_size=16, keygate_policy="mixed", seed=5))
    first = sat_attack(locked, Oracle(big))
    second = sat_attack(locked, Oracle(big))
    assert first.status == "key_recovered"
    assert first.dips == second.dips
    assert first.solver_stats == second.solver_stats
    assert first.recovered_key == second.recovered_key


# (config, lock seed) -> (DIPs, sha256 of the DIP list, recovered key,
# oracle queries, solver stats) on c432_scale(): the attack's path, which a
# solver speed-up must leave as it is
ATTACK_GOLDENS = [
    (dict(key_size=12, keygate_policy="xor_only"), 1,
     (5, "0ee2cbe6e4b4854b", "110100100100", 5,
      {"decisions": 493, "conflicts": 80, "propagations": 7262, "restarts": 0})),
    (dict(key_size=12, keygate_policy="xor_only"), 2,
     (9, "dfa4f5ee37c9eb81", "111101011010", 9,
      {"decisions": 774, "conflicts": 90, "propagations": 10357, "restarts": 0})),
    (dict(key_size=10, preset="sat_hard"), 1,
     (13, "385c1837fe191ad1", "0101000001", 13,
      {"decisions": 988, "conflicts": 118, "propagations": 15023, "restarts": 0})),
    (dict(key_size=10, preset="sat_hard"), 2,
     (12, "6eb920ee5b61a23b", "1111010110", 12,
      {"decisions": 889, "conflicts": 88, "propagations": 11103, "restarts": 0})),
]


@pytest.mark.parametrize("config,seed,want", ATTACK_GOLDENS)
def test_attack_path_is_pinned(config, seed, want):
    big = c432_scale()
    locked, _ = lock(big, LockConfig(seed=seed, **config))
    result = sat_attack(locked, Oracle(big))
    assert result.status == "key_recovered"
    dips = hashlib.sha256(json.dumps(result.dips, sort_keys=True).encode()).hexdigest()
    assert (
        result.iterations, dips[:16], result.recovered_key.to_string(),
        result.oracle_queries, result.solver_stats.as_dict(),
    ) == want


# The attack benchmark's pool: job j locks c432_scale(433 + j) at the j-th
# entry of this cycle, with lock seed j. The digest is sha256 over every
# job's AttackResult.as_dict() without elapsed_ms, in pool order, so a change
# that moves one DIP, model, counter or key of the 56 attacks shows here.
ATTACK_POOL_CYCLE = [("xor", 8), ("sat_hard", 8), ("xor", 9), ("sat_hard", 9),
                     ("xor", 10), ("sat_hard", 10), ("xor", 11), ("sat_hard", 11),
                     ("xor", 12), ("sat_hard", 12), ("xor", 13), ("xor", 14),
                     ("xor", 15), ("xor", 16)]
ATTACK_POOL_DIGEST = "7306ddc586ff23d7"


def _attack_pool():
    """(lock seed j, original, locked, key) for each job of the pool."""
    for j in range(4 * len(ATTACK_POOL_CYCLE)):
        original = c432_scale(433 + j)
        style, k = ATTACK_POOL_CYCLE[j % len(ATTACK_POOL_CYCLE)]
        cfg = (LockConfig(k, keygate_policy="xor_only", seed=j) if style == "xor"
               else LockConfig(k, preset="sat_hard", seed=j))
        yield (j, original, *lock(original, cfg))


def test_attack_pool_is_pinned():
    digest = hashlib.sha256()
    for _, original, locked, _ in _attack_pool():
        result = sat_attack(locked, Oracle(original), timeout_ms=None).as_dict()
        del result["elapsed_ms"]
        digest.update(json.dumps(result, sort_keys=True).encode())
    assert digest.hexdigest()[:16] == ATTACK_POOL_DIGEST


# The same pool's corruption samples, as `pipeline --wrong-keys 4 --inputs 16
# --seed j` draws them: sha256 over the 56 CorruptionStats.as_dict()s in pool
# order.
ATTACK_POOL_CORRUPTION_DIGEST = "ce187f53e34509da"


def test_attack_pool_corruption_is_pinned():
    digest = hashlib.sha256()
    for j, original, locked, key in _attack_pool():
        stats = corruption_stats(locked, Oracle(original), key, wrong_keys=4,
                                 inputs=16, seed=j)
        digest.update(json.dumps(stats.as_dict(), sort_keys=True).encode())
    assert digest.hexdigest()[:16] == ATTACK_POOL_CORRUPTION_DIGEST


# The same pool's formulas: sha256 over json.dumps([var_count, clauses]) of
# tseitin(locked.netlist), then of build_miter(locked).cnf, for each job in
# pool order, so a change to variable numbering, clause order or a literal
# of either encoding shows here.
ATTACK_POOL_FORMULA_DIGEST = "f5f69d8979ffabbc"


def test_attack_pool_formulas_are_pinned():
    digest = hashlib.sha256()
    for _, _, locked, _ in _attack_pool():
        for cnf in (tseitin(locked.netlist)[0], build_miter(locked).cnf):
            digest.update(json.dumps([cnf.var_count, cnf.clauses]).encode())
    assert digest.hexdigest()[:16] == ATTACK_POOL_FORMULA_DIGEST


def test_the_dip_loop_builds_no_netlist(monkeypatch):
    big = c432_scale()
    locked, _ = lock(big, LockConfig(key_size=12, keygate_policy="xor_only", seed=2))
    built = []
    init = Netlist.__init__

    def counted(self, *args):
        built.append(args[0])
        init(self, *args)

    monkeypatch.setattr(Netlist, "__init__", counted)
    result = sat_attack(locked, Oracle(big))
    assert result.status == "key_recovered" and result.iterations == 9
    assert built == [big.name]  # the apply_key result the final check reads


def test_attack_constant_output_contradicting_oracle_raises():
    # z does not depend on the key, and the oracle disagrees on it for every
    # input: the first DIP's constraint on z is an empty clause
    locked = Netlist("l", ["a", "b", "keyinput0"], ["y", "z"], [
        Gate("y", GateKind.XOR, ("a", "keyinput0")),
        Gate("z", GateKind.AND, ("a", "b")),
    ])
    oracle = Netlist("o", ["a", "b"], ["y", "z"], [
        Gate("y", GateKind.BUFF, ("a",)),
        Gate("z", GateKind.NAND, ("a", "b")),
    ])
    with pytest.raises(AttackError, match="inconsistent"):
        sat_attack(locked, Oracle(oracle))


def test_attack_inconsistent_oracle_raises():
    # oracle disagrees with the locked circuit under every key value
    n = and_gate()
    locked = insert_xor_keygates(n, ["y"], (0,))
    wrong_oracle = Netlist(
        "w", ["a", "b"], ["y"], [Gate("y", GateKind.XOR, ("a", "b"))]
    )
    with pytest.raises(AttackError, match="inconsistent"):
        sat_attack(locked, Oracle(wrong_oracle))


# -- equivalence ---------------------------------------------------------------------------


def test_equivalence_self():
    c = c17()
    assert equivalence_check(c, c).equivalent


def test_equivalence_counterexample_and_honesty():
    a = and_gate()
    b = Netlist("n", ["a", "b"], ["y"], [Gate("y", GateKind.NAND, ("a", "b"))])
    res = equivalence_check(a, b)
    assert not res.equivalent
    x = res.counterexample
    assert a.simulate(x) != b.simulate(x)


def _count_solves(monkeypatch) -> list:
    calls = []

    def spy(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(attack, "solve", spy)
    return calls


def test_correct_key_is_proved_by_hashing_alone(monkeypatch):
    # the right key leaves BUFFs where the key gates were, so every output
    # pair of the miter shares one variable and no solver runs
    big = c432_scale()
    locked, key = lock(big, LockConfig(12, keygate_policy="xor_only", seed=2))
    calls = _count_solves(monkeypatch)
    assert equivalence_check(apply_key(locked, key), big).equivalent
    assert calls == []


def test_structurally_different_equivalent_pair_takes_one_solve(monkeypatch):
    a = and_gate()
    b = Netlist("n", ["a", "b"], ["y"], [
        Gate("w", GateKind.NAND, ("a", "b")),
        Gate("y", GateKind.NOT, ("w",)),
    ])
    calls = _count_solves(monkeypatch)
    assert equivalence_check(a, b) == attack.EquivalenceResult(True)
    assert len(calls) == 1


def test_wrong_key_mismatch_replays(monkeypatch):
    big = c432_scale()
    locked, key = lock(big, LockConfig(12, keygate_policy="xor_only", seed=2))
    wrong = Key(tuple(1 - bit for bit in key.bits))
    applied = apply_key(locked, wrong)
    calls = _count_solves(monkeypatch)
    res = equivalence_check(applied, big)
    assert not res.equivalent and len(calls) == 1
    x = res.counterexample
    assert applied.simulate(x) != big.simulate(x)


def test_equivalence_interface_mismatch():
    a = and_gate()
    c = c17()
    with pytest.raises(InterfaceError):
        equivalence_check(a, c)


def test_equivalence_applied_lock(adder):
    locked, key = lock(adder, LockConfig(key_size=3, keygate_policy="mixed",
                                         dummy_policy="primary_input", seed=21))
    assert equivalence_check(apply_key(locked, key), adder).equivalent


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(
    circuit_seed=st.integers(0, 10_000),
    n_inputs=st.integers(2, 10),
    n_gates=st.integers(8, 40),
    with_mux=st.booleans(),
    key_size=st.integers(1, 5),
    policy=st.sampled_from(KEYGATE_POLICIES),
    dummy=st.sampled_from(DUMMY_POLICIES),
    lock_seed=st.integers(0, 10_000),
    wrong=st.lists(st.integers(0, (1 << 5) - 1), min_size=1, max_size=3),
)
def test_hashed_miter_agrees_with_truth_tables(
    circuit_seed, n_inputs, n_gates, with_mux, key_size, policy, dummy,
    lock_seed, wrong,
):
    # the encoder shares identical gates and aliases BUFFs; the verdict must
    # still be the exhaustive one, for the right key and for arbitrary keys
    n = random_netlist(n_inputs, n_gates, circuit_seed, with_mux=with_mux)
    locked, key = lock(n, LockConfig(key_size=key_size, keygate_policy=policy,
                                     dummy_policy=dummy, seed=lock_seed))
    right = apply_key(locked, key)
    *_, diff = _miter(right, n, n.primary_inputs, sorted(n.primary_outputs))
    assert diff == []  # the right key leaves only BUFFs where key gates were
    keys = [key] + [
        Key(tuple((value >> i) & 1 for i in range(key_size))) for value in wrong
    ]
    want = truth_tables(n)
    for trial in keys:
        applied = apply_key(locked, trial)
        got = truth_tables(applied, n.primary_inputs)
        same = all(got[po] == want[po] for po in n.primary_outputs)
        res = equivalence_check(applied, n)
        assert res.equivalent == same, trial
        if not same:
            x = res.counterexample
            assert applied.simulate(x) != n.simulate(x)


# -- corruption ------------------------------------------------------------------------------


def test_corruption_total_for_po_driver_complement():
    # a 1-bit lock: the only wrong key is the complement, which flips y
    n = and_gate()
    locked = insert_xor_keygates(n, ["y"], (0,))
    stats = corruption_stats(
        locked, Oracle(n), locked.correct_key, wrong_keys=1, inputs=4, seed=1
    )
    assert stats.corruption_rate == 1.0
    assert stats.mean_output_hamming >= 1.0


def test_corruption_c17_seeded_golden():
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, keygate_policy="xor_only", seed=42))
    stats = corruption_stats(locked, Oracle(c), key, wrong_keys=100, inputs=100, seed=0)
    # recorded from the one-simulation-per-pair implementation
    assert stats.as_dict() == {
        "corruption_rate": 0.6684, "mean_output_hamming": 0.9046,
        "wrong_keys": 100, "inputs": 100, "seed": 0,
    }
    again = corruption_stats(locked, Oracle(c), key, wrong_keys=100, inputs=100, seed=0)
    assert stats == again


@pytest.mark.parametrize("circuit, config, samples, want", [
    (lambda: parallel_cones(8),
     LockConfig(key_size=8, keygate_policy="mixed", seed=1), (50, 50, 1),
     (0.9596, 2.5112)),
    (c432_scale,
     LockConfig(key_size=8, keygate_policy="mixed", seed=3), (50, 50, 3),
     (0.2764, 0.2796)),
    (lambda: random_netlist(14, 600, 5, with_mux=True),
     LockConfig(key_size=8, keygate_policy="mux_only",
                dummy_policy="random_function", seed=2), (30, 70, 2),
     (0.6580952380952381, 5.405238095238095)),
], ids=["cones8", "c432s", "rand_mux"])
def test_corruption_pinned_goldens(circuit, config, samples, want):
    # recorded from the one-simulation-per-pair implementation
    n = circuit()
    locked, key = lock(n, config)
    oracle = Oracle(n)
    wrong_keys, inputs, seed = samples
    stats = corruption_stats(locked, oracle, key, wrong_keys, inputs, seed)
    assert (stats.corruption_rate, stats.mean_output_hamming) == want
    assert (stats.wrong_keys, stats.inputs, stats.seed) == samples
    assert oracle.queries == inputs


def test_corruption_asks_the_oracle_once():
    class BatchOnly(Oracle):
        batches = 0

        def __call__(self, assignment):
            raise AssertionError("corruption_stats queried one vector")

        def batch(self, words, width):
            self.batches += 1
            return super().batch(words, width)

    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, seed=42))
    oracle = BatchOnly(c)
    corruption_stats(locked, oracle, key, wrong_keys=7, inputs=33, seed=1)
    assert (oracle.batches, oracle.queries) == (1, 33)


def _corruption_per_pair(locked, oracle_netlist, correct_key, wrong_keys, inputs,
                         seed):
    """The former implementation: one simulation per (wrong key, input)."""
    resolved = resolve_key_inputs(locked)
    netlist, key_inputs = resolved.netlist, resolved.key_inputs
    rng = random.Random(seed)
    keys = []
    for _ in range(wrong_keys):
        while True:
            cand = tuple(rng.getrandbits(1) for _ in range(len(key_inputs)))
            if cand != correct_key.bits:
                break
        keys.append(cand)
    real_pis = [pi for pi in netlist.primary_inputs if pi not in key_inputs]
    vectors = [{pi: rng.getrandbits(1) for pi in real_pis} for _ in range(inputs)]
    golden = [oracle_netlist.simulate(x) for x in vectors]
    corrupted = hamming = 0
    for key in keys:
        for x, want in zip(vectors, golden):
            got = netlist.simulate({**x, **dict(zip(key_inputs, key))})
            diff = sum(1 for po in want if got[po] != want[po])
            hamming += diff
            corrupted += diff > 0
    pairs = len(keys) * inputs
    return {"corruption_rate": corrupted / pairs,
            "mean_output_hamming": hamming / pairs,
            "wrong_keys": wrong_keys, "inputs": inputs, "seed": seed}


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(
    circuit_seed=st.integers(0, 10_000),
    n_inputs=st.integers(2, 8),
    n_gates=st.integers(8, 40),
    with_mux=st.booleans(),
    key_size=st.integers(1, 4),
    policy=st.sampled_from(["xor_only", "mux_only", "mixed"]),
    wrong_keys=st.integers(1, 8),
    inputs=st.integers(1, 70),
    seed=st.integers(0, 10_000),
)
def test_corruption_matches_per_pair_reference(
    circuit_seed, n_inputs, n_gates, with_mux, key_size, policy, wrong_keys,
    inputs, seed,
):
    n = random_netlist(n_inputs, n_gates, circuit_seed, with_mux=with_mux)
    locked, key = lock(n, LockConfig(key_size=key_size, keygate_policy=policy,
                                     dummy_policy="primary_input", seed=seed))
    got = corruption_stats(locked, Oracle(n), key, wrong_keys, inputs, seed)
    assert got.as_dict() == _corruption_per_pair(
        locked, n, key, wrong_keys, inputs, seed
    )


def test_corruption_simulates_at_most_max_width(monkeypatch):
    # 3 x 22,000 pairs exceed one simulation's 65,536 bits: two key groups
    widths = []

    def spy(netlist, words, width):
        assert width <= attack.MAX_SIM_WIDTH == 65_536
        widths.append(width)
        return simulate_words(netlist, words, width)

    monkeypatch.setattr(attack, "simulate_words", spy)
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, keygate_policy="xor_only", seed=42))
    got = corruption_stats(locked, Oracle(c), key, wrong_keys=3, inputs=22_000, seed=5)
    assert widths == [22_000, 44_000, 22_000]  # the oracle, then two key groups
    assert got.as_dict() == _corruption_per_pair(locked, c, key, 3, 22_000, 5)


def test_corruption_holds_at_most_max_bits(monkeypatch):
    # the 209 nets of this c432_scale lock at 10,000 inputs: two keys per
    # simulation
    original = c432_scale()
    locked, key = lock(original, LockConfig(key_size=8, keygate_policy="xor_only", seed=42))
    nets = len(locked.netlist.nets)
    widths = []

    def spy(netlist, words, width):
        if netlist is locked.netlist:
            assert width * nets <= attack.MAX_SIM_BITS
            widths.append(width)
        return simulate_words(netlist, words, width)

    def run():
        return corruption_stats(locked, Oracle(original), key, wrong_keys=3,
                                inputs=10_000, seed=5).as_dict()

    monkeypatch.setattr(attack, "simulate_words", spy)
    got = run()
    assert nets == 209 and widths == [20_000, 10_000]
    monkeypatch.setattr(attack, "MAX_SIM_BITS", 1 << 40)  # one group of three
    assert run() == got and widths[2:] == [30_000]


# The verify benchmark's corrupt jobs at workload seed 1: variant v locks
# c432_scale(600 + v) with k=12 XOR key gates at the second draw of
# Random(1000 + v), and samples 50 wrong keys x 50 inputs at the v-th draw
# of Random(1). The digest is sha256 over the 12 CorruptionStats.as_dict()s
# in variant order.
VERIFY_POOL_CORRUPTION_DIGEST = "fe41e8191c914202"


def test_verify_pool_corruption_is_pinned():
    corrupt_seeds = random.Random(1)
    digest = hashlib.sha256()
    for v in range(12):
        pool = random.Random(1000 + v)
        lock_seed = [pool.randrange(1, 10**6) for _ in range(4)][1]
        original = c432_scale(600 + v)
        locked, key = lock(original, LockConfig(12, keygate_policy="xor_only",
                                                seed=lock_seed))
        stats = corruption_stats(locked, Oracle(original), key, wrong_keys=50,
                                 inputs=50, seed=corrupt_seeds.randrange(1, 10**6))
        digest.update(json.dumps(stats.as_dict(), sort_keys=True).encode())
    assert digest.hexdigest()[:16] == VERIFY_POOL_CORRUPTION_DIGEST


# The verify benchmark's locks: variant v locks random_netlist(16, 1200,
# 100 + v) with k=10 XOR key gates at the first draw of Random(1000 + v),
# and c432_scale(600 + v) with k=12 at the second. The digest is sha256
# over the Verdict.as_dict()s, per variant in order: exhaustive verifies
# of the first lock under the correct key and under each of its first
# three one-bit flips, then a SAT verify of the second lock under the
# correct key with bit 0 flipped. Mismatches carry their counterexamples.
VERIFY_POOL_VERDICT_DIGEST = "1e116b6fa0724db6"


def test_verify_pool_verdicts_are_pinned():
    def flipped(key, i):
        return Key(key.bits[:i] + (1 - key[i],) + key.bits[i + 1:])

    digest = hashlib.sha256()
    for v in range(12):
        pool = random.Random(1000 + v)
        seeds = [pool.randrange(1, 10**6) for _ in range(4)]
        original = random_netlist(16, 1200, 100 + v)
        locked, key = lock(original, LockConfig(10, keygate_policy="xor_only",
                                                seed=seeds[0]))
        verdicts = [functional_verify(locked, original, k, mode="exhaustive")
                    for k in [key] + [flipped(key, i) for i in range(3)]]
        original = c432_scale(600 + v)
        locked, key = lock(original, LockConfig(12, keygate_policy="xor_only",
                                                seed=seeds[1]))
        verdicts.append(functional_verify(locked, original, flipped(key, 0),
                                          mode="sat"))
        for verdict in verdicts:
            digest.update(json.dumps(verdict.as_dict(), sort_keys=True).encode())
    assert digest.hexdigest()[:16] == VERIFY_POOL_VERDICT_DIGEST


def test_corruption_honours_key_prefix_on_plain_netlist():
    # `benchlock corrupt --key-prefix` resolves a parsed, plain netlist first
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, seed=42, key_prefix="kx"))
    plain = corruption_stats(resolve_key_inputs(locked.netlist, "kx"), Oracle(c), key,
                             wrong_keys=20, inputs=20, seed=0)
    assert plain == corruption_stats(locked, Oracle(c), key, wrong_keys=20,
                                     inputs=20, seed=0)


def test_corruption_requires_keys_and_samples():
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, seed=42))
    with pytest.raises(StatError):
        corruption_stats(c, Oracle(c), Key(()), wrong_keys=1, inputs=1)
    with pytest.raises(StatError):
        corruption_stats(locked, Oracle(c), key, wrong_keys=0, inputs=5)
    with pytest.raises(LockError, match="key width 3 does not match 4 key inputs"):
        corruption_stats(locked, Oracle(c), Key(key.bits[:3]), wrong_keys=1, inputs=1)
