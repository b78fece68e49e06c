import heapq
import itertools
import random
import re

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from benchlock.circuits import c17, random_netlist
from benchlock.errors import StructuralError, UnknownNet
from benchlock.netlist import (
    GATE_KINDS,
    Gate,
    GateKind,
    Netlist,
    eval_gate,
    input_patterns,
    simulate_words,
    truth_tables,
    vector_assignment,
)
from structure import structurally_equal, tfi, tfo


def net(gates, pis, pos, name="t"):
    return Netlist(name, pis, pos, gates)


def diagnostics(gates, pis, pos):
    """The diagnostics constructing an invalid netlist raises."""
    with pytest.raises(StructuralError) as exc:
        net(gates, pis, pos)
    return exc.value.diagnostics


# -- gates ------------------------------------------------------------------------


def test_gate_inputs_become_a_tuple():
    from_list = Gate("y", GateKind.AND, ["a", "b"])
    from_generator = Gate("y", GateKind.AND, (n for n in "ab"))
    assert from_list.inputs == from_generator.inputs == ("a", "b")
    assert type(from_list.inputs) is tuple and type(from_generator.inputs) is tuple


def test_gate_is_immutable():
    gate = Gate("y", GateKind.NOT, ("a",))
    for field, value in (("output", "z"), ("kind", GateKind.BUFF), ("inputs", ("b",))):
        with pytest.raises(AttributeError):
            setattr(gate, field, value)
    assert gate == Gate("y", GateKind.NOT, ("a",))


def test_equal_gates_are_equal_and_hash_equal():
    a = Gate("y", GateKind.XOR, ["a", "b"])
    b = Gate("y", GateKind.XOR, ("a", "b"))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != Gate("y", GateKind.XOR, ("b", "a"))
    assert a != Gate("y", GateKind.XNOR, ("a", "b"))


def test_gate_repr_names_its_fields():
    # ledger and gate reprs feed pinned digests
    assert repr(Gate("y", GateKind.MUX, ["s", "a", "b"])) == (
        "Gate(output='y', kind=<GateKind.MUX: 'MUX'>, inputs=('s', 'a', 'b'))")


# -- construction checks --------------------------------------------------------


def test_minimal_valid_netlist():
    net([Gate("y", GateKind.NAND, ("a", "b"))], ["a", "b"], ["y"])


def test_self_loop_is_a_cycle():
    diags = diagnostics([Gate("x", GateKind.NOT, ("x",))], [], ["x"])
    assert any("cycle" in d and "'x'" in d for d in diags)


def test_multi_driver_diagnostic():
    gates = [
        Gate("n1", GateKind.AND, ("a", "b")),
        Gate("n1", GateKind.OR, ("a", "b")),
    ]
    diags = diagnostics(gates, ["a", "b"], ["n1"])
    assert any("multi-driver" in d and "'n1'" in d for d in diags)


def test_arity_and_undriven_diagnostics():
    gates = [
        Gate("y", GateKind.NOT, ("a", "b")),
        Gate("z", GateKind.AND, ("a", "ghost")),
    ]
    diags = diagnostics(gates, ["a", "b"], ["y"])
    assert any("bad arity" in d and "'y'" in d for d in diags)
    assert any("undriven" in d and "'ghost'" in d for d in diags)


def test_missing_output_diagnostic():
    diags = diagnostics([], ["a"], ["nope"])
    assert any("'nope'" in d for d in diags)


def test_bad_net_name_diagnostic():
    diags = diagnostics([], ["a b"], ["a b"])
    assert any("bad net name" in d for d in diags)


def test_net_name_with_a_trailing_newline_is_bad():
    # '$' also matches before a final newline; such a name emits a file
    # that the .bench reader rejects
    diags = diagnostics([Gate("y", GateKind.AND, ("a\n", "b"))], ["a\n", "b"], ["y"])
    assert diags == ["bad net name: 'a\\n'"]


# Reference implementations: the heap-ordered Kahn sort and the per-net
# validation, as they were written before validation was cached.

_NAME = re.compile(r"[A-Za-z0-9_]+")


def _reference_drivers(pis, gates):
    driver, redefined = {}, []
    for pi in pis:
        if pi in driver:
            redefined.append(pi)
        else:
            driver[pi] = None
    for gate in gates:
        if gate.output in driver:
            redefined.append(gate.output)
        else:
            driver[gate.output] = gate
    return driver, redefined


def _reference_kahn(pis, gates):
    driver, _ = _reference_drivers(pis, gates)
    pending, missing, waiting = [], [0] * len(gates), {}
    placed = {net for net, d in driver.items() if d is None}
    for gi, gate in enumerate(gates):
        need = 0
        for inp in set(gate.inputs):
            if inp in placed or inp not in driver:
                continue
            need += 1
            waiting.setdefault(inp, []).append(gi)
        missing[gi] = need
        if need == 0:
            heapq.heappush(pending, gi)
    order, done = [], [False] * len(gates)
    while pending:
        gi = heapq.heappop(pending)
        done[gi] = True
        order.append(gates[gi])
        for wi in waiting.get(gates[gi].output, ()):
            missing[wi] -= 1
            if missing[wi] == 0:
                heapq.heappush(pending, wi)
    return tuple(order), tuple(g for gi, g in enumerate(gates) if not done[gi])


def _reference_validate(pis, pos, gates):
    driver, redefined = _reference_drivers(pis, gates)
    diags = [f"bad net name: {net!r}" for net in driver if not _NAME.fullmatch(net)]
    diags += [f"multi-driver: net '{net}' has more than one driver" for net in redefined]
    for gate in gates:
        k, arity = gate.kind, len(gate.inputs)
        if k in (GateKind.NOT, GateKind.BUFF):
            ok = arity == 1
        elif k is GateKind.MUX:
            ok = arity == 3
        else:
            ok = arity >= 2
        if not ok:
            diags.append(f"bad arity: gate '{gate.output}' = {k.value} "
                         f"with {arity} input(s)")
        diags += [f"undriven: gate '{gate.output}' reads unknown net '{inp}'"
                  for inp in gate.inputs if inp not in driver]
    diags += [f"undriven: primary output '{po}' names no net"
              for po in pos if po not in driver]
    _, leftover = _reference_kahn(pis, gates)
    if leftover:
        member = {g.output for g in leftover}
        seen, net_ = [], leftover[0].output
        while net_ not in seen:
            seen.append(net_)
            gate = driver.get(net_)
            if gate is None:
                break
            net_ = next((i for i in gate.inputs if i in member), gate.inputs[0])
        diags.append(f"cycle: combinational loop through net '{net_}'")
    return diags


@st.composite
def shaped_netlists(draw):
    """Small netlists that are sorted, shuffled, cyclic, multi-driven, read
    unknown names, or carry bad names and arities, in any mix."""
    pis = [f"i{j}" for j in range(draw(st.integers(0, 4)))]
    outs = [f"g{j}" for j in range(draw(st.integers(0, 10)))]
    back_edges = draw(st.booleans())
    extras = draw(st.lists(st.sampled_from(["ghost", "a b", "x\n", ""]), max_size=2))
    gates = []
    for j, out in enumerate(outs):
        avail = pis + outs[: len(outs) if back_edges else j] + extras
        if not avail:
            avail = [out]
        ins = draw(st.lists(st.sampled_from(avail), min_size=1, max_size=4))
        gates.append(Gate(out, draw(st.sampled_from(list(GateKind))), ins))
    if gates and draw(st.booleans()):
        at = draw(st.integers(0, len(gates) - 1))
        clash = draw(st.sampled_from(pis + outs + ["a b", "x\n"]))
        gates[at] = Gate(clash, gates[at].kind, gates[at].inputs)
    if draw(st.booleans()):
        gates = draw(st.permutations(gates))
    pos = draw(st.lists(st.sampled_from(pis + outs + ["nope"]), max_size=3))
    return pis, pos, gates


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(shape=shaped_netlists())
# a multi-driven net read twice: the reference orders it y, y, r, x, and a
# Kahn counting per input position would give y, y, x, r
@example(shape=(["i"], ["r"], [Gate("r", GateKind.AND, ("x", "x", "y")),
                               Gate("y", GateKind.NOT, ("i",)),
                               Gate("y", GateKind.BUFF, ("i",)),
                               Gate("x", GateKind.NOT, ("i",))]))
def test_order_and_validation_match_the_references(shape):
    pis, pos, gates = shape
    want = _reference_validate(pis, pos, gates)
    if want:
        assert diagnostics(gates, pis, pos) == want
    else:
        assert net(gates, pis, pos).topo_order() == _reference_kahn(pis, gates)[0]


# -- topo_order -----------------------------------------------------------------


def test_topo_chain_order():
    g1 = Gate("n1", GateKind.NOT, ("a",))
    g2 = Gate("y", GateKind.NOT, ("n1",))
    assert net([g2, g1], ["a"], ["y"]).topo_order() == (g1, g2)


def test_topo_c17_respects_drivers():
    c = c17()
    order = c.topo_order()
    seen = set(c.primary_inputs)
    for gate in order:
        assert all(i in seen for i in gate.inputs)
        seen.add(gate.output)
    assert len(order) == 6


def test_topo_preserves_topological_input_verbatim():
    c = c17()
    assert c.topo_order() == c.gates
    shuffled = Netlist(c.name, c.primary_inputs, c.primary_outputs,
                       c.gates[::-1])
    reordered = shuffled.topo_order()
    assert {g.output for g in reordered} == {g.output for g in c.gates}


def test_topo_raises_on_cycle():
    gates = [
        Gate("p", GateKind.NOT, ("q",)),
        Gate("q", GateKind.NOT, ("p",)),
    ]
    with pytest.raises(StructuralError):
        net(gates, [], ["p"]).topo_order()


# -- simulate ---------------------------------------------------------------------


def test_simulate_nand():
    n = net([Gate("y", GateKind.NAND, ("a", "b"))], ["a", "b"], ["y"])
    assert n.simulate({"a": 1, "b": 1}) == {"y": 0}
    assert n.simulate({"a": 0, "b": 1}) == {"y": 1}


def test_simulate_c17_all_zero():
    c = c17()
    out = c.simulate({pi: 0 for pi in c.primary_inputs})
    assert out == {"G22": 0, "G23": 0}


def test_simulate_mux_selector():
    n = net([Gate("y", GateKind.MUX, ("s", "a", "b"))], ["s", "a", "b"], ["y"])
    assert n.simulate({"s": 1, "a": 0, "b": 1}) == {"y": 1}
    assert n.simulate({"s": 0, "a": 0, "b": 1}) == {"y": 0}


def test_simulate_nary_xor_is_parity():
    n = net([Gate("y", GateKind.XOR, ("a", "b", "c"))], ["a", "b", "c"], ["y"])
    m = net([Gate("y", GateKind.XNOR, ("a", "b", "c"))], ["a", "b", "c"], ["y"])
    for bits in itertools.product((0, 1), repeat=3):
        x = dict(zip("abc", bits))
        assert n.simulate(x)["y"] == sum(bits) % 2
        assert m.simulate(x)["y"] == 1 - sum(bits) % 2


def test_simulate_missing_input_names_the_pi():
    n = net([Gate("y", GateKind.NOT, ("a",))], ["a"], ["y"])
    with pytest.raises(UnknownNet, match="'a'"):
        n.simulate({})


def test_simulate_rejects_non_bit_values():
    n = net([Gate("y", GateKind.NOT, ("a",))], ["a"], ["y"])
    for bad in (2, -1):
        with pytest.raises(ValueError, match="'a'"):
            n.simulate({"a": bad})


# -- bit-parallel kernel -------------------------------------------------------------


def _reference_values(netlist, vector):
    """Every net's bit under one input vector, without the kernel."""
    vals = dict(vector)
    for gate in netlist.topo_order():
        ins = [vals[i] for i in gate.inputs]
        kind = gate.kind
        if kind in (GateKind.AND, GateKind.NAND):
            v = all(ins) ^ (kind is GateKind.NAND)
        elif kind in (GateKind.OR, GateKind.NOR):
            v = any(ins) ^ (kind is GateKind.NOR)
        elif kind in (GateKind.XOR, GateKind.XNOR):
            v = sum(ins) % 2 ^ (kind is GateKind.XNOR)
        elif kind is GateKind.NOT:
            v = not ins[0]
        elif kind is GateKind.BUFF:
            v = ins[0]
        else:  # MUX(select, in0, in1)
            v = ins[2] if ins[0] else ins[1]
        vals[gate.output] = int(v)
    return vals


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(
    n_inputs=st.integers(1, 8),
    n_gates=st.integers(1, 40),
    circuit_seed=st.integers(0, 10_000),
    with_mux=st.booleans(),
    width=st.integers(1, 130),
    word_seed=st.integers(0, 10_000),
)
def test_kernel_matches_reference_per_vector(
    n_inputs, n_gates, circuit_seed, with_mux, width, word_seed
):
    n = random_netlist(n_inputs, n_gates, circuit_seed, with_mux=with_mux)
    rng = random.Random(word_seed)
    words = {pi: rng.getrandbits(width) for pi in n.primary_inputs}
    got = simulate_words(n, words, width)
    assert set(got) == set(n.nets)
    for j in range(width):
        want = _reference_values(n, {pi: (w >> j) & 1 for pi, w in words.items()})
        for name, value in want.items():
            assert (got[name] >> j) & 1 == value, (name, j)
    for name, word in got.items():
        assert 0 <= word < 1 << width, name


# Every kind at every arity it takes up to 8 (random_netlist builds at
# most 3), with inputs drawn with repeats from fewer primary inputs.
@pytest.mark.parametrize("kind", GateKind, ids=lambda kind: kind.value)
def test_every_kind_and_arity_matches_reference(kind):
    exact = GATE_KINDS[kind.value][1]
    for arity, width in itertools.product([exact] if exact else range(2, 9),
                                          [1, 64, 1 << 16]):
        _check_kind_against_reference(kind, arity, width)


def _check_kind_against_reference(kind, arity, width):
    rng = random.Random(f"{kind.value}/{arity}/{width}")
    ones = (1 << width) - 1
    for _ in range(3):
        pis = [f"i{j}" for j in range(rng.randint(1, arity))]
        ins = [rng.choice(pis) for _ in range(arity)]
        # the second gate reads the first, so a gate output is an input too
        gates = [Gate("y", kind, ins), Gate("z", kind, ["y"] + ins[1:])]
        n = net(gates, pis, ["z"])
        words = {pi: rng.getrandbits(width) for pi in pis}
        got = simulate_words(n, words, width)
        assert list(got) == pis + ["y", "z"]
        for gate in gates:
            vals = [got[i] for i in gate.inputs]
            assert eval_gate(kind, vals, ones) == got[gate.output]
        positions = range(width) if width <= 64 else [0, width - 1] + rng.sample(
            range(1, width - 1), 100)
        for j in positions:
            want = _reference_values(n, {pi: (w >> j) & 1 for pi, w in words.items()})
            assert {name: (w >> j) & 1 for name, w in got.items()} == want, j
            for gate in gates:
                vals = [want[i] for i in gate.inputs]
                assert eval_gate(kind, vals) == want[gate.output], j
        assert all(0 <= w <= ones for w in got.values())


def test_kernel_result_lists_inputs_then_topological_order():
    gates = [
        Gate("y", GateKind.AND, ("m", "b")),
        Gate("m", GateKind.NOT, ("a",)),
        Gate("w", GateKind.BUFF, ("b",)),
    ]
    n = net(gates, ["b", "a"], ["y", "w"])
    got = simulate_words(n, {"a": 1, "b": 1}, 1)
    assert list(got) == ["b", "a", "m", "y", "w"]
    assert got == {"b": 1, "a": 1, "m": 0, "y": 0, "w": 1}


def test_kernel_checks_inputs():
    n = net([Gate("y", GateKind.AND, ("a", "b"))], ["a", "b"], ["y"])
    with pytest.raises(UnknownNet, match="missing primary input 'b'"):
        simulate_words(n, {"a": 0b1010}, 4)
    with pytest.raises(ValueError, match="'b'"):
        simulate_words(n, {"a": 0b1010, "b": 0b10000}, 4)
    got = simulate_words(n, {"a": 0b1010, "b": 0b0110, "extra": 7}, 4)
    assert got == {"a": 0b1010, "b": 0b0110, "y": 0b0010}


def test_simulate_deterministic_across_gate_orders():
    c = c17()
    shuffled = Netlist(c.name, c.primary_inputs, c.primary_outputs, c.gates[::-1])
    for j in range(32):
        x = vector_assignment(c.primary_inputs, j)
        assert c.simulate(x) == shuffled.simulate(x)


# -- cones / fanout -----------------------------------------------------------------


def test_tfi_tfo_single_gate():
    n = net([Gate("y", GateKind.AND, ("a", "b"))], ["a", "b"], ["y"])
    assert tfi(n, "y") == {"a", "b"}
    assert tfo(n, "a") == {"y"}
    assert tfi(n, "a") == set()


def test_unloaded_pi_has_empty_cones():
    n = net([], ["a"], ["a"])
    assert tfi(n, "a") == set()
    assert tfo(n, "a") == set()
    assert n.fanout_count("a") == 1  # the PO slot


def test_c17_tfo_of_g11():
    assert tfo(c17(), "G11") == {"G16", "G19", "G22", "G23"}


def test_unknown_net_raises():
    c = c17()
    with pytest.raises(UnknownNet):
        tfi(c, "nope")
    with pytest.raises(UnknownNet):
        c.fanout_count("nope")


def test_cone_duality_exhaustive():
    n = random_netlist(4, 12, seed=5)
    for a in n.nets:
        for b in n.nets:
            assert (b in tfi(n, a)) == (a in tfo(n, b))


def test_fanout_counts():
    gates = [
        Gate("u", GateKind.NOT, ("a",)),
        Gate("v", GateKind.NOT, ("a",)),
    ]
    n = net(gates, ["a", "b"], ["a", "u"])
    assert n.fanout_count("b") == 0
    assert n.fanout_count("a") == 3  # two gate reads plus one PO slot


def test_c17_fanout_of_g16():
    assert c17().fanout_count("G16") == 2


# -- stats ---------------------------------------------------------------------------


def test_stats_wire_only_netlist():
    st = net([], ["a"], ["a"]).stats()
    assert (st.n_inputs, st.n_outputs, st.n_gates, dict(st.by_kind)) == (1, 1, 0, {})


def test_stats_c17():
    st = c17().stats()
    assert (st.n_inputs, st.n_outputs, st.n_gates) == (5, 2, 6)
    assert dict(st.by_kind) == {"NAND": 6}


# -- truth tables ------------------------------------------------------------------------


def test_truth_tables_match_simulation():
    n = random_netlist(4, 10, seed=9, with_mux=True)
    tabs = truth_tables(n)
    for j in range(16):
        x = vector_assignment(n.primary_inputs, j)
        vals = simulate_words(n, x, 1)
        for name, mask in tabs.items():
            assert (mask >> j) & 1 == vals[name], (name, j)


def test_truth_tables_extra_pins_inputs():
    n = net([Gate("y", GateKind.AND, ("a", "b"))], ["a", "b"], ["y"])
    tabs = truth_tables(n, input_order=["a"], extra={"b": 1})
    assert tabs["y"] == tabs["a"]


def test_truth_tables_refuses_a_repeated_or_unknown_input_order_name():
    n = net([Gate("y", GateKind.AND, ("a", "b"))], ["a", "b"], ["y"])
    with pytest.raises(ValueError, match="input_order repeats 'a'"):
        truth_tables(n, ["a", "a", "b"])
    with pytest.raises(ValueError, match="input_order names a non-input: 'c'"):
        truth_tables(n, ["a", "c", "b"])
    with pytest.raises(ValueError, match="input_order names a non-input: 'y'"):
        truth_tables(n, ["a", "b", "y"])
    assert truth_tables(n, ["b", "a"])["y"] == 0b1000


def test_truth_tables_refuses_too_many_inputs():
    n = Netlist("wide", [f"i{k}" for k in range(29)], ["i0"], [])
    with pytest.raises(ValueError, match="exhaustive"):
        truth_tables(n)


# -- structural equality ---------------------------------------------------------------


def test_structural_equality_ignores_gate_order():
    c = c17()
    r = Netlist(c.name, c.primary_inputs, c.primary_outputs, c.gates[::-1])
    assert structurally_equal(c, r)
    other = Netlist(c.name, c.primary_inputs, ("G22",), c.gates)
    assert not structurally_equal(c, other)


def test_acyclic_iff_topo_succeeds():
    for seed in range(10):
        n = random_netlist(3, 8, seed=seed)
        n.topo_order()


def _division_pattern(index: int, n_inputs: int) -> int:
    """The former per-input formula: one chunk times a repunit."""
    width = 1 << n_inputs
    half = 1 << index
    chunk = ((1 << half) - 1) << half
    period = half << 1
    repunit = ((1 << width) - 1) // ((1 << period) - 1)
    return chunk * repunit


@pytest.mark.parametrize("n", range(13))
def test_input_patterns_match_division_formula(n):
    masks = input_patterns(n)
    assert len(masks) == n
    for i, mask in enumerate(masks):
        assert mask == _division_pattern(i, n)
        assert all((mask >> j) & 1 == (j >> i) & 1 for j in range(1 << n))
