import subprocess
import sys
from pathlib import Path

import pytest

import benchlock
from benchlock.attack import _miter
from benchlock.circuits import c17, c432_scale, parallel_cones, random_netlist
from benchlock.errors import LockError
from benchlock.locking import (
    Key,
    LockConfig,
    LockedNetlist,
    apply_key,
    insert_xor_keygates,
    lock,
)
from benchlock.netlist import Netlist
from benchlock.verify import functional_verify, structural_check


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
