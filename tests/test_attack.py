import gc
import itertools
import time

import pytest

from benchlock.attack import (
    Oracle,
    build_miter,
    corruption_stats,
    equivalence_check,
    sat_attack,
)
from benchlock.circuits import c17, c432_scale, parallel_cones, random_netlist
from benchlock.errors import AttackError, InterfaceError, StatError
from benchlock.locking import (
    Key,
    LockConfig,
    apply_key,
    insert_xor_keygates,
    lock,
)
from benchlock.netlist import Gate, GateKind, Netlist
from benchlock.solver import solve


def and_gate():
    return Netlist("t", ["a", "b"], ["y"], [Gate("y", GateKind.AND, ("a", "b"))])


# -- miter construction -------------------------------------------------------------


def test_miter_variable_arithmetic():
    locked = insert_xor_keygates(and_gate(), ["y"], (0,))
    m = build_miter(locked)
    n = locked.netlist
    nets = len(n.nets)  # 5: a, b, keyinput0, y_pre, y
    shared = 2  # a, b shared between copies
    aux = len(n.primary_outputs) + 1  # one diff var per PO plus the activator
    assert m.cnf.var_count == nets + (nets - shared) + aux


def test_miter_requires_key_inputs():
    with pytest.raises(AttackError, match="no key inputs"):
        build_miter(and_gate())


def test_keyless_debug_miter_is_unsat():
    m = build_miter(and_gate(), allow_keyless=True)
    assert solve(m.cnf, assumptions=[m.activator]).status == "unsat"


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
        copy = encode_into(m.cnf, locked.netlist, shared=key_vars)
        for pi in m.pi_vars:
            m.cnf.add(copy[pi])
        for po in locked.netlist.primary_outputs:
            m.cnf.add(copy[po])
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
    applied = apply_key(locked, result.recovered_key, key_inputs=["keyinput0"])
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


def test_attack_iteration_cap_aborts():
    c = c17()
    locked, _ = lock(c, LockConfig(key_size=4, seed=42))
    result = sat_attack(locked, Oracle(c), iteration_cap=0)
    assert result.status == "aborted_iteration_cap"
    assert result.recovered_key is None


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


def test_equivalence_interface_mismatch():
    a = and_gate()
    c = c17()
    with pytest.raises(InterfaceError):
        equivalence_check(a, c)


def test_equivalence_applied_lock(adder):
    locked, key = lock(adder, LockConfig(key_size=3, keygate_policy="mixed",
                                         dummy_policy="primary_input", seed=21))
    assert equivalence_check(apply_key(locked, key), adder).equivalent


# -- corruption ------------------------------------------------------------------------------


def test_corruption_zero_for_correct_key_override():
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, seed=42))
    stats = corruption_stats(
        locked, Oracle(c), key, wrong_keys=1, inputs=16, seed=0,
        wrong_key_override=[key],
    )
    assert stats.corruption_rate == 0.0
    assert stats.mean_output_hamming == 0.0


def test_corruption_total_for_po_driver_complement():
    n = and_gate()
    locked = insert_xor_keygates(n, ["y"], (0,))
    stats = corruption_stats(
        locked,
        Oracle(n),
        locked.correct_key,
        wrong_keys=1,
        inputs=4,
        seed=1,
        wrong_key_override=[locked.correct_key.complemented()],
    )
    assert stats.corruption_rate == 1.0
    assert stats.mean_output_hamming >= 1.0


def test_corruption_c17_seeded_golden():
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, keygate_policy="xor_only", seed=42))
    stats = corruption_stats(locked, Oracle(c), key, wrong_keys=100, inputs=100, seed=0)
    assert stats.corruption_rate > 0
    again = corruption_stats(locked, Oracle(c), key, wrong_keys=100, inputs=100, seed=0)
    assert stats == again


def test_corruption_honours_key_prefix_on_plain_netlist():
    # `benchlock corrupt --key-prefix` hands over a parsed, plain netlist
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, seed=42, key_prefix="kx"))
    plain = corruption_stats(locked.netlist, Oracle(c), key, wrong_keys=20,
                             inputs=20, seed=0, key_prefix="kx")
    assert plain == corruption_stats(locked, Oracle(c), key, wrong_keys=20,
                                     inputs=20, seed=0)


def test_corruption_requires_keys_and_samples():
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, seed=42))
    with pytest.raises(StatError):
        corruption_stats(c, Oracle(c), Key(()), wrong_keys=1, inputs=1)
    with pytest.raises(StatError):
        corruption_stats(locked, Oracle(c), key, wrong_keys=0, inputs=5)
