"""cofactor: the one partial evaluator behind apply_key and the attack's
DIP constraints."""

import hashlib
import random

import pytest

from benchlock.bench import emit_bench
from benchlock.circuits import c17, c432_scale, parallel_cones, random_netlist
from benchlock.locking import LockConfig, apply_key, lock
from benchlock.netlist import (
    Gate,
    GateKind,
    Netlist,
    cofactor,
    eval_gate,
    simulate_words,
)

CIRCUITS = {
    "c17": c17,
    "cones8": lambda: parallel_cones(8),
    "c432s": c432_scale,
    "rand_mux": lambda: random_netlist(12, 120, 5, with_mux=True),
}


@pytest.mark.parametrize("name", sorted(CIRCUITS))
@pytest.mark.parametrize("seed", range(4))
def test_cofactor_agrees_with_simulation(name, seed):
    netlist = CIRCUITS[name]()
    rng = random.Random(seed)
    pis = netlist.primary_inputs
    fixed = rng.sample(pis, rng.randint(0, len(pis)))
    partial = {pi: rng.getrandbits(1) for pi in fixed}
    gates, const = cofactor(netlist, partial)
    assert all(const[pi] == bit for pi, bit in partial.items())
    assert not {g.output for g in gates} & set(const)
    for _ in range(8):
        full = {**{pi: rng.getrandbits(1) for pi in pis}, **partial}
        want = simulate_words(netlist, full, 1)
        for net, bit in const.items():
            assert want[net] == bit, net
        got = {**full, **const}
        for gate in gates:
            got[gate.output] = eval_gate(gate.kind, [got[i] for i in gate.inputs])
            assert got[gate.output] == want[gate.output], gate.output


def test_cofactor_keeps_constant_read_by_mux_data_input():
    n = Netlist("m", ["s", "a", "b"], ["y"], [Gate("y", GateKind.MUX, ("s", "a", "b"))])
    gates, const = cofactor(n, {"a": 1})
    assert gates == [Gate("y", GateKind.MUX, ("s", "a", "b"))]
    assert const == {"a": 1}
    gates, const = cofactor(n, {"a": 0, "b": 1})
    assert gates == [Gate("y", GateKind.BUFF, ("s",))]


# sha256 prefixes of emit_bench(apply_key(...)), recorded before apply_key
# moved onto cofactor: key application stays byte-identical.
APPLY_KEY_GOLDENS = {
    "c17-xor_only-other_cone_net-right": "439ac537c7c194e0",
    "c17-xor_only-other_cone_net-wrong": "88880255b2c9328b",
    "c17-mux_only-other_cone_net-right": "439ac537c7c194e0",
    "c17-mux_only-other_cone_net-wrong": "c937c90f241d9d44",
    "c17-mux_only-constant-right": "be52323fcbbb559f",
    "c17-mux_only-constant-wrong": "ff44f41a91f306ae",
    "c17-mux_only-random_function-right": "383437ea650d8ba7",
    "c17-mux_only-random_function-wrong": "b369fbda2182cbbf",
    "cones8-xor_only-other_cone_net-right": "5bd90dc0401c55c4",
    "cones8-xor_only-other_cone_net-wrong": "61b3cd8e93c61917",
    "cones8-mux_only-other_cone_net-right": "13a3a5d7f4d25ec7",
    "cones8-mux_only-other_cone_net-wrong": "c19be54fb833c60f",
    "cones8-mux_only-constant-right": "6cf4f38d8a09dcc5",
    "cones8-mux_only-constant-wrong": "be39f1ab44194aca",
    "cones8-mux_only-random_function-right": "ef5e1aba41bf9154",
    "cones8-mux_only-random_function-wrong": "24650253bc4e8f0c",
    "c432s-xor_only-other_cone_net-right": "0b9d74e0f4a9f9ff",
    "c432s-xor_only-other_cone_net-wrong": "6fc4fb7e70c2ceaf",
    "c432s-mux_only-other_cone_net-right": "2b6f76807a63c683",
    "c432s-mux_only-other_cone_net-wrong": "fb87bf61ed1e6d72",
    "c432s-mux_only-constant-right": "9a11c2ecc22c7202",
    "c432s-mux_only-constant-wrong": "4890e6867187ad74",
    "c432s-mux_only-random_function-right": "6d2801097ba36c41",
    "c432s-mux_only-random_function-wrong": "c4572371e363635a",
}
KEY_SIZES = {"c17": 4, "cones8": 8, "c432s": 32}


@pytest.mark.parametrize("case", sorted(APPLY_KEY_GOLDENS))
def test_apply_key_emission_golden(case):
    name, policy, dummy, which = case.split("-")
    locked, key = lock(CIRCUITS[name](), LockConfig(
        key_size=KEY_SIZES[name], keygate_policy=policy, dummy_policy=dummy, seed=7))
    applied = apply_key(locked, key if which == "right" else key.complemented())
    digest = hashlib.sha256(emit_bench(applied).encode()).hexdigest()[:16]
    assert digest == APPLY_KEY_GOLDENS[case]
