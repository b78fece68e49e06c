import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

import benchlock
import benchlock.verify
from benchlock.attack import _miter
from benchlock.bench import lower_mux_gates
from benchlock.circuits import c17, c432_scale, parallel_cones, random_netlist
from benchlock.errors import DummyError, LockError, SelectionError
from benchlock.locking import (
    DUMMY_POLICIES,
    KEYGATE_POLICIES,
    Key,
    LockConfig,
    LockedNetlist,
    apply_key,
    insert_xor_keygates,
    lock,
)
from benchlock.netlist import EXHAUSTIVE_TABLE_BITS, Gate, GateKind, Netlist
from benchlock.verify import functional_verify, structural_check
from structure import exhaustive_verdict


def test_structural_ok_on_fresh_lock():
    c = c17()
    locked, _ = lock(c, LockConfig(key_size=4, seed=42))
    assert structural_check(locked, c) == []
    assert len(locked.netlist.primary_inputs) == 5 + 4


def test_structural_flags_renamed_po():
    from benchlock.netlist import Gate

    c = c17()
    locked, _ = lock(c, LockConfig(key_size=2, seed=1))
    n = locked.netlist
    old = n.driver("G23")
    gates = tuple(g for g in n.gates if g.output != "G23") + (
        Gate("G99", old.kind, old.inputs),
    )
    broken = Netlist(n.name, n.primary_inputs, ("G22", "G99"), gates)
    diags = structural_check(broken, c)
    assert any("missing" in d and "G23" in d for d in diags)
    assert any("unexpected" in d and "G99" in d for d in diags)


def test_structural_zero_key_debug():
    c = c17()
    assert structural_check(c, c) == []


def test_structural_flags_bad_prefix():
    c = c17()
    locked = insert_xor_keygates(c, ["G10"], (0,), prefix="secret")
    diags = structural_check(locked.netlist, c)
    assert any("input count" in d for d in diags)


def test_structural_flags_key_input_that_is_not_a_primary_input():
    # the input count still adds up, so only the key-input check catches it
    c = c17()
    locked, key = lock(c, LockConfig(key_size=2, seed=5))
    bad = LockedNetlist(locked.netlist, ("keyinput1", "nope"))
    diags = structural_check(bad, c)
    assert diags == ["key input is not a primary input: 'nope'"]
    verdict = functional_verify(bad, c, key)
    assert not verdict.structural_ok
    assert verdict.functional == "skipped"
    assert verdict.structural_diagnostics == tuple(diags)


def test_structural_flags_key_inputs_no_output_depends_on():
    c = c17()
    locked, key = lock(c, LockConfig(key_size=2, seed=5))
    n = locked.netlist
    unread = Netlist(n.name, n.primary_inputs + ("keyinput2",), n.primary_outputs,
                     n.gates)
    diags = structural_check(unread, c)
    assert diags == ["key input reaches no primary output: 'keyinput2'"]
    verdict = functional_verify(unread, c, Key(tuple(key) + (0,)))
    assert verdict.functional == "skipped"
    assert verdict.structural_diagnostics == tuple(diags)


def test_functional_verify_correct_key_exhaustive():
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, seed=42))
    verdict = functional_verify(locked, c, key)
    assert verdict.structural_ok
    assert verdict.functional == "equivalent"
    assert verdict.mode_used == "exhaustive"


def test_functional_verify_wrong_key_po_driver_mismatch():
    c = c17()
    # G22 drives a primary output; complemented key flips it everywhere
    locked = insert_xor_keygates(c, ["G22"], (0,))
    verdict = functional_verify(locked, c, Key((1,)))
    assert verdict.functional == "mismatch"
    assert verdict.counterexample is not None
    x = verdict.counterexample
    assert locked.netlist.simulate({**x, "keyinput0": 1}) != c.simulate(x)


REPLAY_UNDER_O = """
from benchlock.circuits import c17
from benchlock.locking import Key, insert_xor_keygates
from benchlock.netlist import Netlist
from benchlock.verify import functional_verify

assert not __debug__
Netlist.simulate = lambda self, assignment: {}  # every replay agrees
c = c17()
try:
    functional_verify(insert_xor_keygates(c, ["G22"], (0,)), c, Key((1,)), "exhaustive")
except AssertionError as exc:
    print("refused:", exc)
"""


def test_exhaustive_counterexample_replay_survives_python_O():
    # a bare assert would be stripped by -O and the verdict returned
    src = str(Path(benchlock.__file__).resolve().parent.parent)
    out = subprocess.run(
        [sys.executable, "-O", "-c", REPLAY_UNDER_O],
        capture_output=True, text=True, check=True, timeout=60,
        env={"PYTHONPATH": src},
    ).stdout
    assert out == "refused: counterexample does not replay in simulation\n"


def test_auto_mode_switches_to_sat_beyond_16_inputs():
    big = c432_scale()
    locked, key = lock(big, LockConfig(key_size=4, seed=5))
    verdict = functional_verify(locked, big, key)
    assert verdict.mode_used == "sat"
    assert verdict.functional == "equivalent"


def test_exhaustive_refused_beyond_hard_limit():
    big = c432_scale()
    locked, key = lock(big, LockConfig(key_size=2, seed=5))
    with pytest.raises(ValueError, match="sat"):
        functional_verify(locked, big, key, mode="exhaustive")


def test_exhaustive_refused_one_input_over_the_limit():
    # 29 inputs: one more than truth_tables enumerates
    original = random_netlist(29, 60, 1)
    locked, key = lock(original, LockConfig(key_size=2, seed=1))
    with pytest.raises(ValueError, match="29 .*'sat'"):
        functional_verify(locked, original, key, mode="exhaustive")


def test_exhaustive_refuses_a_table_too_large_to_build(monkeypatch):
    # 24 inputs pass a bound on the input count alone, but 2**24 bits for
    # each of about 2,000 nets is some 3.4 GiB per table: refused before
    # any simulation runs
    original = random_netlist(24, 2000, 3)
    locked, key = lock(original, LockConfig(key_size=2, seed=1))

    def spy(*args):
        raise AssertionError("simulate_words ran")

    monkeypatch.setattr(benchlock.netlist, "simulate_words", spy)
    with pytest.raises(ValueError, match="24 free inputs .*exhaustive.*'sat'"):
        functional_verify(locked, original, key, mode="exhaustive")


def test_exhaustive_refusal_names_the_applied_netlist_before_hashing(monkeypatch):
    # a correct key that hashing alone would prove is still refused, with
    # the net count of the key-applied netlist, and nothing is simulated
    original = random_netlist(24, 2000, 3)
    locked, key = lock(original, LockConfig(key_size=2, seed=1))
    applied = apply_key(locked, key)
    nets = len(applied.primary_inputs) + len(applied.gates)
    assert nets != len(original.primary_inputs) + len(original.gates)

    def spy(*args):
        raise AssertionError("simulate_words ran")

    monkeypatch.setattr(benchlock.netlist, "simulate_words", spy)
    with pytest.raises(ValueError) as info:
        functional_verify(locked, original, key, mode="exhaustive")
    assert str(info.value) == (
        f"24 free inputs over {nets} nets exceed the exhaustive table bound "
        f"({EXHAUSTIVE_TABLE_BITS} bits); use mode 'sat' instead"
    )


def test_auto_mode_picks_sat_when_the_table_would_not_fit(monkeypatch):
    # 16 inputs are within the auto limit, but 2**16 bits for each of
    # some 65.6k nets passes the table bound: auto mode goes to SAT
    # instead of refusing, and builds no table
    pis = [f"i{j}" for j in range(16)]
    gates = [Gate("g0", GateKind.XOR, pis[:2])]
    gates += [Gate(f"g{j}", GateKind.XOR, (f"g{j - 1}", pis[j % 16]))
              for j in range(1, 65_600)]
    original = Netlist("chain", pis, ["g65599"], gates)
    locked, key = lock(original, LockConfig(key_size=2, seed=1))

    def spy(*args):
        raise AssertionError("simulate_words ran")

    monkeypatch.setattr(benchlock.netlist, "simulate_words", spy)
    verdict = functional_verify(locked, original, key)
    assert (verdict.mode_used, verdict.functional) == ("sat", "equivalent")


def test_exhaustive_and_sat_agree():
    for circuit in (c17(), parallel_cones(6)):
        locked, key = lock(
            circuit,
            LockConfig(key_size=4, keygate_policy="mixed",
                       dummy_policy="primary_input", seed=8),
        )
        for key_value in (key, key.complemented()):
            a = functional_verify(locked, circuit, key_value, mode="exhaustive")
            b = functional_verify(locked, circuit, key_value, mode="sat")
            assert a.functional == b.functional


def test_key_width_mismatch_raises():
    c = c17()
    locked, _ = lock(c, LockConfig(key_size=4, seed=42))
    with pytest.raises(LockError, match="width"):
        functional_verify(locked, c, Key((0,)))


def test_structural_failure_skips_functional():
    c = c17()
    locked, key = lock(c, LockConfig(key_size=2, seed=3))
    n = locked.netlist
    dropped = Netlist(n.name, n.primary_inputs, ("G22",), n.gates)
    verdict = functional_verify(dropped, c, key)
    assert not verdict.structural_ok
    assert verdict.functional == "skipped"
    assert verdict.skip_reason == "structural check failed"
    # a list, not the verdict's tuple: JSON digests cannot tell them apart
    assert verdict.as_dict() == {
        "structural_ok": False,
        "structural_diagnostics": ["key input reaches no primary output: 'keyinput0'",
                                   "primary output missing: 'G23'"],
        "functional": "skipped", "mode_used": None, "counterexample": None,
        "skip_reason": "structural check failed",
    }


@pytest.mark.parametrize("policy", ["xor_only", "mixed"])
def test_sat_verify_of_large_lock_needs_no_search(policy):
    # the correct key leaves BUFFs where the key gates were, so the hashed
    # miter collapses every output and the proof ends at load time
    original = random_netlist(32, 2000, 11)
    locked, key = lock(original, LockConfig(key_size=64, keygate_policy=policy,
                                            selection="random", seed=1))
    outputs = sorted(original.primary_outputs)
    *_, diff = _miter(apply_key(locked, key), original,
                      original.primary_inputs, outputs)
    assert diff == []
    assert functional_verify(locked, original, key, mode="sat").functional == (
        "equivalent"
    )

    wrong = Key((1 - key[0],) + key.bits[1:])
    verdict = functional_verify(locked, original, wrong, mode="sat")
    assert verdict.functional == "mismatch"
    x = verdict.counterexample
    assert apply_key(locked, wrong).simulate(x) != original.simulate(x)


@pytest.mark.parametrize("policy", ["xor_only", "mixed"])
def test_exhaustive_correct_key_is_proved_by_hashing_alone(monkeypatch, policy):
    # the correct key turns every key gate into a BUFF, so each output of
    # the key-applied netlist hashes onto the original's: no table is built
    original = random_netlist(16, 1200, 100)
    locked, key = lock(original, LockConfig(key_size=10, keygate_policy=policy,
                                            seed=3))

    def spy(*args):
        raise AssertionError("simulate_words ran")

    monkeypatch.setattr(benchlock.netlist, "simulate_words", spy)
    verdict = functional_verify(locked, original, key, mode="exhaustive")
    assert (verdict.functional, verdict.mode_used) == ("equivalent", "exhaustive")


def _flipped(key: Key, i: int) -> Key:
    return Key(tuple(b ^ (j == i) for j, b in enumerate(key)))


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(n_inputs=st.integers(2, 9), n_gates=st.integers(4, 60),
       seed=st.integers(0, 10**6), with_mux=st.booleans(),
       policy=st.sampled_from(KEYGATE_POLICIES),
       dummy=st.sampled_from(DUMMY_POLICIES), data=st.data())
def test_exhaustive_verdicts_match_the_two_table_scan(
    n_inputs, n_gates, seed, with_mux, policy, dummy, data
):
    # the same verdict, counterexample included, as both circuits' full
    # truth tables: under the correct key, one-bit flips and a random key,
    # and with MUX gates lowered in the locked or the original netlist
    original = random_netlist(n_inputs, n_gates, seed, with_mux=with_mux)
    size = data.draw(st.integers(1, 6), label="key size")
    try:
        locked, key = lock(original, LockConfig(size, keygate_policy=policy,
                                                dummy_policy=dummy, seed=seed))
    except (SelectionError, DummyError):
        reject()  # too few path-disjoint nets, or no cone-safe dummy
    keys = [key, *(_flipped(key, i) for i in range(size)),
            Key(tuple(data.draw(st.lists(st.integers(0, 1), min_size=size,
                                         max_size=size), label="key")))]
    lowered = LockedNetlist(lower_mux_gates(locked.netlist), locked.key_inputs)
    cases = [(locked, original), (lowered, original),
             (locked, lower_mux_gates(original))]
    for locked_case, original_case in cases:
        for k in keys:
            want = exhaustive_verdict(apply_key(locked_case, k), original_case)
            got = functional_verify(locked_case, original_case, k, mode="exhaustive")
            assert got == want


def test_an_equal_first_difference_sends_the_scan_on(monkeypatch):
    # y1 hashes apart from the original's but is the same function, and
    # the wrong key flips y2: a second table finds y2's counterexample
    original = Netlist("two", ["a", "b", "c"], ["y1", "y2"], [
        Gate("y1", GateKind.AND, ("a", "b")),
        Gate("y2", GateKind.OR, ("b", "c")),
    ])
    locked = LockedNetlist(Netlist("two", ["a", "b", "c", "keyinput0"],
                                   ["y1", "y2"], [
        Gate("t", GateKind.NAND, ("a", "b")),
        Gate("y1", GateKind.NOT, ("t",)),
        Gate("u", GateKind.OR, ("b", "c")),
        Gate("y2", GateKind.XOR, ("u", "keyinput0")),
    ]), ("keyinput0",))
    calls = []
    tables = benchlock.verify.truth_tables

    def counted(netlist, order):
        calls.append(netlist)
        return tables(netlist, order)

    monkeypatch.setattr(benchlock.verify, "truth_tables", counted)

    verdict = functional_verify(locked, original, Key((1,)), mode="exhaustive")
    assert verdict == exhaustive_verdict(apply_key(locked, Key((1,))), original)
    assert verdict.counterexample == {"a": 0, "b": 0, "c": 0}
    assert len(calls) == 2
    calls.clear()
    verdict = functional_verify(locked, original, Key((0,)), mode="exhaustive")
    assert (verdict.functional, len(calls)) == ("equivalent", 1)


@pytest.mark.parametrize("seed", [2, 5])
def test_inputs_named_like_hashed_nodes_verify(seed):
    # the inputs take the names n6 .. n11 that the cone netlist would give
    # its first gates were its names not fresh against the inputs
    base = random_netlist(6, 80, seed)
    name = {f"i{j}": f"n{j + 6}" for j in range(6)}
    original = Netlist("renamed", [name[p] for p in base.primary_inputs],
                       base.primary_outputs,
                       [Gate(g.output, g.kind, [name.get(i, i) for i in g.inputs])
                        for g in base.gates])
    locked, key = lock(original, LockConfig(key_size=4, seed=seed))
    for k in (key, *(_flipped(key, i) for i in range(4))):
        verdict = functional_verify(locked, original, k, mode="exhaustive")
        assert verdict == exhaustive_verdict(apply_key(locked, k), original)
    assert verdict.functional == "mismatch"


def test_a_cone_of_both_circuits_past_the_bound_is_split(monkeypatch):
    # the first differing output is equal after all, and the later ones'
    # cones hold more nets than either circuit: with the bound lowered to
    # the larger circuit's table, each circuit's side gets its own table
    original = random_netlist(8, 200, 3)
    locked, key = lock(original, LockConfig(key_size=6, seed=3))
    wrong = _flipped(key, 4)
    applied = apply_key(locked, wrong)
    nets = max(len(c.primary_inputs) + len(c.gates) for c in (applied, original))
    monkeypatch.setattr(benchlock.netlist, "EXHAUSTIVE_TABLE_BITS", nets << 8)
    verdict = functional_verify(locked, original, wrong, mode="exhaustive")
    assert verdict == exhaustive_verdict(applied, original)
    assert verdict.functional == "mismatch"
