import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchlock.circuits import c17, c432_scale, layered_netlist, not_chain, random_netlist
from benchlock.errors import StructuralError
from benchlock.netlist import Gate, GateKind, Netlist
from benchlock.scoap import UNOBSERVABLE, _lowered_gates, scoap


def test_primary_input_base_cases():
    n = Netlist("t", ["a"], ["a"], [])
    m = scoap(n)
    assert m.cc0["a"] == 1 and m.cc1["a"] == 1
    assert m.co["a"] == 0  # PI that is also a PO


def test_and_gate_controllability():
    n = Netlist("t", ["a", "b"], ["y"], [Gate("y", GateKind.AND, ("a", "b"))])
    m = scoap(n)
    assert m.cc1["y"] == 1 + 1 + 1  # sum of input cc1 plus one
    assert m.cc0["y"] == 1 + 1  # min of input cc0 plus one


def test_not_gate_swaps_controllability():
    n = Netlist("t", ["a"], ["y"], [Gate("y", GateKind.NOT, ("a",))])
    m = scoap(n)
    assert m.cc0["y"] == 2 and m.cc1["y"] == 2


def test_nand_nor_duality():
    n = Netlist(
        "t",
        ["a", "b"],
        ["y", "z"],
        [Gate("y", GateKind.NAND, ("a", "b")), Gate("z", GateKind.NOR, ("a", "b"))],
    )
    m = scoap(n)
    assert m.cc0["y"] == 3 and m.cc1["y"] == 2
    assert m.cc1["z"] == 3 and m.cc0["z"] == 2


def test_xor2_min_over_satisfying_combinations():
    n = Netlist("t", ["a", "b"], ["y"], [Gate("y", GateKind.XOR, ("a", "b"))])
    m = scoap(n)
    assert m.cc1["y"] == 3
    assert m.cc0["y"] == 3


def test_observability_through_and_side_inputs():
    # y = AND(a, b), y is PO: co(a) = co(y) + cc1(b) + 1 = 0 + 1 + 1
    n = Netlist("t", ["a", "b"], ["y"], [Gate("y", GateKind.AND, ("a", "b"))])
    m = scoap(n)
    assert m.co["y"] == 0
    assert m.co["a"] == 2 and m.co["b"] == 2


def test_co_is_min_over_load_positions():
    gates = [
        Gate("u", GateKind.NOT, ("a",)),
        Gate("v", GateKind.AND, ("a", "b")),
    ]
    n = Netlist("t", ["a", "b"], ["u", "v"], gates)
    m = scoap(n)
    # via NOT: 0 + 0 + 1; via AND: 0 + cc1(b) + 1 = 2
    assert m.co["a"] == 1


def test_unobservable_net_gets_sentinel():
    gates = [Gate("dead", GateKind.NOT, ("a",)), Gate("y", GateKind.NOT, ("a",))]
    n = Netlist("t", ["a"], ["y"], gates)
    m = scoap(n)
    assert m.co["dead"] == UNOBSERVABLE


def test_monotone_along_chains():
    n = not_chain(8)
    m = scoap(n)
    order = ["a"] + [f"n{j}" for j in range(8)]
    for prev, cur in zip(order, order[1:]):
        assert m.cc0[cur] > m.cc0[prev] or m.cc1[cur] > m.cc1[prev]
        assert m.co[prev] > m.co[cur]  # observability grows away from the PO


def test_c17_values_finite_and_positive():
    m = scoap(c17())
    for v in m.cc0.values():
        assert 1 <= v < UNOBSERVABLE
    for v in m.co.values():
        assert 0 <= v < UNOBSERVABLE


def test_nary_xor_lowered_to_tree():
    n = Netlist("t", ["a", "b", "c"], ["y"], [Gate("y", GateKind.XOR, ("a", "b", "c"))])
    m = scoap(n)
    # two levels of XOR2: the root combine adds one on top of the inner pair
    assert m.cc0["y"] == 5 and m.cc1["y"] == 5


def test_mux_metrics_via_lowering():
    n = Netlist(
        "t", ["s", "a", "b"], ["y"], [Gate("y", GateKind.MUX, ("s", "a", "b"))]
    )
    m = scoap(n)
    assert m.cc0["y"] >= 2 and m.cc1["y"] >= 2
    assert m.co["s"] < UNOBSERVABLE


def test_scoap_requires_valid_netlist():
    bad = Netlist("t", [], ["x"], [Gate("x", GateKind.NOT, ("x",))])
    with pytest.raises(StructuralError):
        scoap(bad)


def _reference_scoap(netlist):
    """SCOAP with the backward pass's side inputs listed per input
    position, as ``scoap`` computed it before the side sum was shared."""
    gates = _lowered_gates(netlist)
    cc0 = {pi: 1 for pi in netlist.primary_inputs}
    cc1 = dict(cc0)
    for gate in gates:
        i0 = [cc0[i] for i in gate.inputs]
        i1 = [cc1[i] for i in gate.inputs]
        kind = gate.kind
        if kind is GateKind.AND:
            c1, c0 = sum(i1) + 1, min(i0) + 1
        elif kind is GateKind.OR:
            c1, c0 = min(i1) + 1, sum(i0) + 1
        elif kind is GateKind.NAND:
            c1, c0 = min(i0) + 1, sum(i1) + 1
        elif kind is GateKind.NOR:
            c1, c0 = sum(i0) + 1, min(i1) + 1
        elif kind is GateKind.NOT:
            c1, c0 = i0[0] + 1, i1[0] + 1
        elif kind is GateKind.BUFF:
            c1, c0 = i1[0] + 1, i0[0] + 1
        else:
            odd = min(i0[0] + i1[1], i1[0] + i0[1]) + 1
            even = min(i0[0] + i0[1], i1[0] + i1[1]) + 1
            c1, c0 = (odd, even) if kind is GateKind.XOR else (even, odd)
        cc0[gate.output], cc1[gate.output] = c0, c1
    co = {n: UNOBSERVABLE for n in cc0}
    for po in netlist.primary_outputs:
        co[po] = 0
    for gate in reversed(gates):
        out_co = co[gate.output]
        if out_co >= UNOBSERVABLE:
            continue
        kind = gate.kind
        for pos, inp in enumerate(gate.inputs):
            sides = [x for j, x in enumerate(gate.inputs) if j != pos]
            if kind in (GateKind.AND, GateKind.NAND):
                sens = sum(cc1[s] for s in sides)
            elif kind in (GateKind.OR, GateKind.NOR):
                sens = sum(cc0[s] for s in sides)
            elif kind in (GateKind.XOR, GateKind.XNOR):
                sens = sum(min(cc0[s], cc1[s]) for s in sides)
            else:
                sens = 0
            co[inp] = min(co[inp], out_co + sens + 1)
    real = set(netlist.nets)
    return tuple({n: v for n, v in m.items() if n in real} for m in (cc0, cc1, co))


@st.composite
def _netlists(draw):
    """Small valid netlists over every gate kind, with repeated inputs,
    XOR/XNOR up to six wide, MUX gates and nets no output depends on."""
    nets = [f"i{j}" for j in range(draw(st.integers(1, 5)))]
    gates = []
    for j in range(draw(st.integers(1, 25))):
        kind = draw(st.sampled_from(list(GateKind)))
        arity = {GateKind.NOT: 1, GateKind.BUFF: 1, GateKind.MUX: 3}.get(
            kind) or draw(st.integers(2, 6))
        ins = draw(st.lists(st.sampled_from(nets), min_size=arity, max_size=arity))
        gates.append(Gate(f"g{j}", kind, ins))
        nets.append(f"g{j}")
    outs = draw(st.lists(st.sampled_from(nets), min_size=1, max_size=4, unique=True))
    return Netlist("t", nets[: len(nets) - len(gates)], outs, gates)


@settings(derandomize=True, deadline=None, max_examples=150, database=None)
@given(netlist=_netlists())
def test_scoap_matches_the_per_position_reference(netlist):
    m = scoap(netlist)
    assert (m.cc0, m.cc1, m.co) == _reference_scoap(netlist)


@pytest.mark.parametrize("make", [
    lambda: random_netlist(12, 200, 1, with_mux=True),
    lambda: layered_netlist(16, [30, 20, 10], 3, n_outputs=5),
    c432_scale,
], ids=["rand_mux", "layered", "c432s"])
def test_scoap_matches_the_reference_on_generated_circuits(make):
    netlist = make()
    m = scoap(netlist)
    assert (m.cc0, m.cc1, m.co) == _reference_scoap(netlist)
