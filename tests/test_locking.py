import contextlib
import hashlib
import itertools
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from benchlock.bench import emit_bench, parse_bench
from benchlock.circuits import (
    c17,
    c432_scale,
    layered_netlist,
    parallel_cones,
    random_netlist,
)
from benchlock import locking
from benchlock.errors import DummyError, LockError, SelectionError, StructuralError
from benchlock.locking import (
    DUMMY_POLICIES,
    KEYGATE_POLICIES,
    SELECTION_STRATEGIES,
    Key,
    LockConfig,
    apply_key,
    detect_key_inputs,
    eligible_nets,
    emit_key_file,
    generate_key,
    insert_mux_keygates,
    insert_xor_keygates,
    lock,
    parse_key_file,
    select_nets,
)
from benchlock.netlist import Gate, GateKind, Netlist, truth_tables
from benchlock.verify import structural_check
from benchlock.verilog import parse_verilog_subset
from structure import load_gates, structurally_equal, tfi, tfo


def and_gate():
    return Netlist("t", ["a", "b"], ["y"], [Gate("y", GateKind.AND, ("a", "b"))])


# -- key generation ---------------------------------------------------------------


def test_empty_key():
    assert generate_key(0, seed=1).bits == ()


def test_key_determinism():
    assert generate_key(64, seed=7).bits == generate_key(64, seed=7).bits


def test_pinned_prng_distinct_seeds():
    # golden behavior of the pinned Mersenne Twister stream
    a, b = generate_key(64, seed=1), generate_key(64, seed=2)
    assert a.bits != b.bits


def test_key_string_round_trip():
    key = Key((1, 0, 1, 1))
    assert Key.from_string(key.to_string()) == key
    assert key.complemented().bits == (0, 1, 0, 0)


def test_key_rejects_non_bits():
    with pytest.raises(LockError):
        Key((0, 2))


# -- selection ----------------------------------------------------------------------


def test_select_zero_is_empty():
    assert select_nets(c17(), "random", 0) == []


def test_select_too_many():
    with pytest.raises(SelectionError, match="eligible"):
        select_nets(and_gate(), "random", 10)


def test_cone_size_prefers_the_gate_output():
    # y scores |tfi|+|tfo| = 2; each PI scores 1
    assert select_nets(and_gate(), "cone_size", 1) == ["y"]


def test_cone_size_tie_break_by_name():
    picked = select_nets(and_gate(), "cone_size", 3)
    assert picked == ["y", "a", "b"]


def test_sll_pairs_are_path_disjoint():
    c = c17()
    picked = select_nets(c, "sll", 2)
    a, b = picked
    assert b not in tfi(c, a) | tfo(c, a)
    assert a not in tfi(c, b) | tfo(c, b)


def test_sll_exhaustion_suggests_smaller_k():
    with pytest.raises(SelectionError, match="try k <="):
        select_nets(c17(), "sll", 5)


def test_sll_on_disjoint_cones_takes_one_per_cone():
    cones = parallel_cones(8)
    picked = select_nets(cones, "sll", 8)
    assert len(picked) == 8
    suffixes = {p[1:] for p in picked}
    assert len(suffixes) == 8  # one net from each cone


def test_random_selection_deterministic_per_seed():
    c = c17()
    assert select_nets(c, "random", 4, seed=5) == select_nets(c, "random", 4, seed=5)
    assert select_nets(c, "random", 4, seed=5) != select_nets(c, "random", 4, seed=6)


def test_scoap_and_fan_heavy_run(c17_netlist):
    assert len(select_nets(c17_netlist, "scoap", 3)) == 3
    heavy = select_nets(c17_netlist, "fan_heavy", 1)
    # G11 and G16 both feed two 2-input gates (score 4); G11 wins by name
    assert heavy == ["G11"]


def _reference_select(netlist, strategy, k):
    """cone_size / sll as set-based tfi/tfo walks per net."""
    ranked = sorted(
        eligible_nets(netlist),
        key=lambda n: (-(len(tfi(netlist, n)) + len(tfo(netlist, n))), n),
    )
    if strategy == "cone_size":
        return ranked[:k]
    chosen, cones = [], []
    for cand in ranked:
        if any(cand in cone for cone in cones):
            continue
        chosen.append(cand)
        cones.append(tfi(netlist, cand) | tfo(netlist, cand))
        if len(chosen) == k:
            return chosen
    return f"sll found only {len(chosen)} path-disjoint nets; try k <= {len(chosen)}"


@pytest.mark.parametrize("make", [
    lambda: random_netlist(12, 150, 1),
    lambda: random_netlist(8, 60, 2, with_mux=True),
    lambda: random_netlist(20, 300, 3),
    lambda: layered_netlist(16, [20, 16, 12, 8], 4, n_outputs=6),
    lambda: layered_netlist(24, [30, 24, 10], 5, n_outputs=10),
    lambda: parallel_cones(6),
], ids=["rand12", "rand8_mux", "rand20", "layered4", "layered5", "cones6"])
def test_bitset_selection_matches_set_walks(make):
    netlist = make()
    for k in (1, 3, 12, len(eligible_nets(netlist))):
        assert select_nets(netlist, "cone_size", k) == _reference_select(
            netlist, "cone_size", k)
        want = _reference_select(netlist, "sll", k)
        if isinstance(want, str):
            with pytest.raises(SelectionError) as exc:
                select_nets(netlist, "sll", k)
            assert str(exc.value) == want
        else:
            assert select_nets(netlist, "sll", k) == want


def _observable(netlist):
    """Nets with a structural path to a primary output."""
    return set(netlist.primary_outputs).union(
        *(tfi(netlist, po) for po in netlist.primary_outputs))


def test_a_net_no_output_depends_on_is_never_selected():
    # primary input i13 is read by nothing; scoap ranked it first because
    # its observability is UNOBSERVABLE, so key bit 0 locked nothing
    netlist = layered_netlist(32, [100] * 5, 2, n_outputs=40)
    assert load_gates(netlist, "i13") == [] and "i13" not in netlist.primary_outputs
    observable = _observable(netlist)
    assert set(eligible_nets(netlist)) == observable
    locked, _ = lock(netlist, LockConfig(key_size=16, seed=5, selection="scoap"))
    assert "i13" not in {r.target for r in locked.ledger}
    for strategy in SELECTION_STRATEGIES:
        picked = select_nets(netlist, strategy, 8, seed=5)
        assert set(picked) <= observable, strategy


def test_pi_that_is_po_not_eligible():
    n = Netlist("t", ["a", "b"], ["a", "y"], [Gate("y", GateKind.AND, ("a", "b"))])
    picked = select_nets(n, "cone_size", 2)
    assert "a" not in picked
    assert set(picked) == {"b", "y"}


# -- xor insertion ---------------------------------------------------------------------


def test_empty_insertion_is_identity():
    n = and_gate()
    locked = insert_xor_keygates(n, [], ())
    assert structurally_equal(locked.netlist, n)
    assert locked.key_inputs == ()


@pytest.mark.parametrize("bit,kind", [(0, GateKind.XOR), (1, GateKind.XNOR)])
def test_xor_lock_exhaustive_equivalence(bit, kind):
    n = and_gate()
    locked = insert_xor_keygates(n, ["y"], (bit,))
    gate = locked.netlist.driver("y")
    assert gate.kind is kind
    for a, b in itertools.product((0, 1), repeat=2):
        want = n.simulate({"a": a, "b": b})["y"]
        good = locked.netlist.simulate({"a": a, "b": b, "keyinput0": bit})
        bad = locked.netlist.simulate({"a": a, "b": b, "keyinput0": 1 - bit})
        assert good["y"] == want
        assert bad["y"] == 1 - want  # single key gate on the PO driver


def test_xor_lock_rewires_all_sinks():
    c = c17()
    locked = insert_xor_keygates(c, ["G11"], (0,))
    n = locked.netlist
    # sinks still read G11; the key gate reads the renamed carrier
    assert {g.output for g in load_gates(n, "G11")} == {"G16", "G19"}
    assert n.driver("G11").kind is GateKind.XOR
    assert locked.ledger[0].carrier.startswith("G11_pre")


def test_xor_lock_on_primary_input_keeps_port_names():
    c = c17()
    locked = insert_xor_keygates(c, ["G1"], (1,))
    n = locked.netlist
    assert n.primary_inputs[:5] == c.primary_inputs
    assert locked.ledger[0].pi_target
    x = {pi: 1 for pi in c.primary_inputs}
    assert n.simulate({**x, "keyinput0": 1}) == c.simulate(x)


def test_key_name_collision_raises():
    n = Netlist(
        "t",
        ["a", "keyinput0"],
        ["y"],
        [Gate("y", GateKind.AND, ("a", "keyinput0"))],
    )
    with pytest.raises(LockError, match="keyinput0"):
        insert_xor_keygates(n, ["y"], (0,))


def test_mismatched_lengths_raise():
    with pytest.raises(LockError):
        insert_xor_keygates(and_gate(), ["y"], (0, 1))


# -- mux insertion ---------------------------------------------------------------------


def test_mux_constant_dummy_sticks_wrong_key():
    n = and_gate()
    locked = insert_mux_keygates(n, ["y"], (0,), dummy_policy="constant", seed=0)
    record = locked.ledger[0]
    assert record.dummy_policy in ("constant0", "constant1")
    stuck = int(record.dummy_policy[-1])
    for a, b in itertools.product((0, 1), repeat=2):
        good = locked.netlist.simulate({"a": a, "b": b, "keyinput0": 0})
        bad = locked.netlist.simulate({"a": a, "b": b, "keyinput0": 1})
        assert good["y"] == n.simulate({"a": a, "b": b})["y"]
        assert bad["y"] == stuck


def test_mux_pi_dummy_on_single_gate_circuit():
    locked = insert_mux_keygates(
        and_gate(), ["y"], (1,), dummy_policy="primary_input", seed=3
    )
    assert locked.ledger[0].dummy_net in ("a", "b")


def test_mux_other_cone_dummy_outside_cone():
    c = c17()
    locked = insert_mux_keygates(
        c, ["G10"], (0,), dummy_policy="other_cone_net", seed=4
    )
    d = locked.ledger[0].dummy_net
    assert d not in tfi(c, "G10") | tfo(c, "G10") | {"G10"}


def test_mux_random_function_builds_small_tree():
    c = c17()
    locked = insert_mux_keygates(
        c, ["G10"], (1,), dummy_policy="random_function", seed=5
    )
    record = locked.ledger[0]
    assert record.dummy_net.startswith("km0_f")


def test_mux_correct_key_equivalence_all_policies():
    c = c17()
    for policy in ("constant", "primary_input", "other_cone_net", "random_function"):
        locked = insert_mux_keygates(c, ["G16", "G10"], (1, 0), policy, seed=9)
        key_extra = dict(zip(locked.key_inputs, locked.correct_key))
        tabs_orig = truth_tables(c)
        tabs_lock = truth_tables(locked.netlist, c.primary_inputs, extra=key_extra)
        for po in c.primary_outputs:
            assert tabs_orig[po] == tabs_lock[po], policy


def test_mux_dummy_error_when_no_cone_escape():
    n = and_gate()
    with pytest.raises(DummyError):
        insert_mux_keygates(n, ["y"], (0,), dummy_policy="other_cone_net", seed=0)


@contextlib.contextmanager
def _pool_checked():
    """At every MUX dummy pick, check the workbench's pool against a
    reference from ``tfi | tfo | {target}`` on its snapshot, and
    record (target, whether it is a primary input)."""
    picks = []
    pick = locking._dummy_net

    def checked(bench, bit_index, target, policy, rng):
        snap = bench.snapshot()
        blocked = tfi(snap, target) | tfo(snap, target) | {target}
        blocked.update(set(snap.primary_inputs) - set(bench.original_pis))
        assert bench.outside_cone(target) == [n for n in snap.nets if n not in blocked]
        picks.append((target, snap.is_primary_input(target)))
        return pick(bench, bit_index, target, policy, rng)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(locking, "_dummy_net", checked)
        yield picks


@pytest.mark.parametrize("policy, seed, targets", [
    ("constant", 0, ["G10", "G1", "G16"]),
    ("random_function", 1, ["G10", "G2", "G16"]),
])
def test_dummy_pool_follows_a_dummy_gate_onto_a_locked_pi(policy, seed, targets):
    with _pool_checked() as picks:
        locked = insert_mux_keygates(c17(), targets, (0, 1, 1), policy, seed=seed)
    assert picks == [("G10", False), (targets[1], True), ("G16", False)]
    # bit 0's dummy gate read the PI that bit 1 locked; the splice moved it
    # to bit 1's key gate output, like every other reader of the PI
    dummy = locked.netlist.driver(locked.ledger[0].dummy_net)
    key_gate = next(g for g in locked.netlist.gates if "keyinput1" in g.inputs)
    assert key_gate.output in dummy.inputs


@settings(derandomize=True, deadline=None, max_examples=40, database=None)
@given(n_inputs=st.integers(2, 8), n_gates=st.integers(3, 40),
       seed=st.integers(0, 10**6), k=st.integers(2, 8))
def test_dummy_pool_matches_tfi_tfo_of_the_snapshot(n_inputs, n_gates, seed, k):
    netlist = random_netlist(n_inputs, n_gates, seed)
    rng = random.Random(seed)
    pool = eligible_nets(netlist)
    pi = rng.choice([n for n in pool if netlist.is_primary_input(n)])
    gate = rng.choice([n for n in pool if not netlist.is_primary_input(n)])
    targets = rng.sample([n for n in pool if n not in (pi, gate)], min(k, len(pool)) - 2)
    # a PI-mode and a gate-driven MUX bit at random places, XOR bits between
    targets.insert(rng.randrange(len(targets) + 1), pi)
    targets.insert(rng.randrange(len(targets) + 1), gate)
    plan = [(i, t, rng.getrandbits(1), "mux" if t in (pi, gate) or i % 3 else "xor")
            for i, t in enumerate(targets)]
    for policy in DUMMY_POLICIES:
        with _pool_checked() as picks:
            try:
                locking._insert(netlist, plan, policy, random.Random(seed), "keyinput")
            except DummyError:
                continue  # no cone-safe dummy left for some bit
        assert (pi, True) in picks and (gate, False) in picks, policy


# -- lock() ------------------------------------------------------------------------------


def test_lock_c17_xor_only_counts_and_equivalence():
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, keygate_policy="xor_only", seed=42))
    st = locked.netlist.stats()
    assert (st.n_inputs, st.n_outputs, st.n_gates) == (9, 2, 10)
    key_extra = dict(zip(locked.key_inputs, key))
    orig = truth_tables(c)
    tabs = truth_tables(locked.netlist, c.primary_inputs, extra=key_extra)
    for po in c.primary_outputs:
        assert orig[po] == tabs[po]


def test_lock_gate_growth_bounds():
    # xor_only grows by exactly one gate per bit; a MUX bit costs the MUX
    # plus at most two dummy-function gates
    c = c17()
    base = c.stats().n_gates
    for policy, per_bit in (("xor_only", 1), ("mux_only", 3)):
        locked, _ = lock(
            c,
            LockConfig(
                key_size=3,
                keygate_policy=policy,
                dummy_policy="random_function",
                seed=2,
            ),
        )
        grown = locked.netlist.stats().n_gates - base
        assert 3 <= grown <= 3 * per_bit


def test_lock_byte_determinism():
    c = c17()
    cfg = LockConfig(key_size=4, keygate_policy="mixed", dummy_policy="random_function", seed=11)
    a, akey = lock(c, cfg)
    b, bkey = lock(c, cfg)
    assert emit_bench(a.netlist) == emit_bench(b.netlist)
    assert akey == bkey
    assert a.ledger == b.ledger


# sha256 over every (strategy, key gate, dummy, seed) lock of four circuits:
# emitted .bench, key string and ledger repr, or the error's type and
# message. Recorded before the workbench kept live driver/reader tables
# and selection moved to bitsets; those must not move a byte.
LOCK_GRID_DIGEST = "4fee8f01973b64d49e71ba3154aade270894358361512e094ba1ecedc8967d31"


def test_lock_output_is_pinned_over_the_policy_grid():
    digest = hashlib.sha256()
    corpus = ((c17(), 3), (parallel_cones(8), 8), (c432_scale(), 16),
              (random_netlist(14, 300, 3), 16))
    for (netlist, k), strategy, keygate, dummy, seed in itertools.product(
            corpus, SELECTION_STRATEGIES, KEYGATE_POLICIES, DUMMY_POLICIES, (1, 42)):
        cfg = LockConfig(k, keygate_policy=keygate, selection=strategy,
                         dummy_policy=dummy, seed=seed)
        try:
            locked, key = lock(netlist, cfg)
            text = f"{emit_bench(locked.netlist)}\n{key.to_string()}\n{locked.ledger!r}\n"
        except Exception as exc:  # refusals are pinned too
            text = f"{type(exc).__name__}: {exc}\n"
        digest.update(text.encode())
    assert digest.hexdigest() == LOCK_GRID_DIGEST


def _as_verilog(netlist: Netlist) -> str:
    """Primitive Verilog of a MUX-free netlist, one statement per gate
    except the first two adjacent gates of one kind, which share a
    statement; with comments and a statement spread over lines."""
    ports = ", ".join(netlist.primary_inputs + netlist.primary_outputs)
    lines = [f"// {netlist.name}", f"module {netlist.name} ({ports});",
             f"  input {', '.join(netlist.primary_inputs)};",
             f"  output {', '.join(netlist.primary_outputs)}; /* ports */"]
    gates = netlist.gates
    prim = {k: "buf" if k is GateKind.BUFF else k.value.lower() for k in GateKind}
    pair = next(i for i in range(len(gates) - 1) if gates[i].kind is gates[i + 1].kind)
    for i, g in enumerate(gates):
        terms = ", ".join((g.output,) + g.inputs)
        if i == pair:
            lines.append(f"  {prim[g.kind]} u{i} ({terms}),")
        elif i == pair + 1:
            lines.append(f"    /* no instance name */ ({terms}); // shared")
        else:
            lines.append(f"  {prim[g.kind]} u{i} ({terms});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


# sha256 over k=64 locks of a ~2k-gate layered netlist read back from
# Verilog and a 2k-gate random netlist read back from .bench: emitted
# .bench, key string and ledger repr. MUX key gates with cone-walking
# dummies, at the scale the lock benchmark runs.
LOCK_SCALE_DIGEST = "3044803efc1bc5d8"


def test_lock_path_is_pinned_at_benchmark_scale():
    layered = layered_netlist(96, [320] * 8, 4, n_outputs=240, name="lay")
    rand = random_netlist(64, 2000, 9, name="rnd")
    inputs = (parse_verilog_subset(_as_verilog(layered)),
              parse_bench(emit_bench(rand), name="rnd"))
    assert [n.gates for n in inputs] == [layered.gates, rand.gates]
    digest = hashlib.sha256()
    for netlist, keygate, dummy in itertools.product(
            inputs, ("mux_only", "mixed"), ("other_cone_net", "random_function")):
        cfg = LockConfig(64, keygate_policy=keygate, dummy_policy=dummy, seed=7)
        locked, key = lock(netlist, cfg)
        text = f"{emit_bench(locked.netlist)}\n{key.to_string()}\n{locked.ledger!r}\n"
        digest.update(text.encode())
    assert digest.hexdigest()[:16] == LOCK_SCALE_DIGEST


def _cyclic():
    return Netlist("cyc", ["a"], ["y"], [Gate("x", GateKind.AND, ("a", "y")),
                                         Gate("y", GateKind.OR, ("a", "x"))])


def _undriven():
    return Netlist("und", ["a"], ["y"], [Gate("y", GateKind.AND, ("a", "ghost"))])


_DIAGNOSTICS = {
    _cyclic: ["cycle: combinational loop through net 'x'"],
    _undriven: ["undriven: gate 'y' reads unknown net 'ghost'"],
}


@pytest.mark.parametrize("make", [_cyclic, _undriven])
@pytest.mark.parametrize("strategy", ["random", "cone_size", "fan_heavy"])
def test_lock_rejects_an_invalid_input_as_structural(make, strategy):
    # the invalid netlist is refused as it is built, before any strategy runs
    with pytest.raises(StructuralError) as exc:
        lock(make(), LockConfig(key_size=1, selection=strategy))
    assert exc.value.diagnostics == _DIAGNOSTICS[make]


@pytest.mark.parametrize("make", [_cyclic, _undriven])
def test_insert_rejects_an_invalid_input_as_structural(make):
    with pytest.raises(StructuralError):
        insert_xor_keygates(make(), ["a"], (0,))
    with pytest.raises(StructuralError):
        insert_mux_keygates(make(), ["a"], (0,), dummy_policy="constant")


@pytest.mark.parametrize("strategy", SELECTION_STRATEGIES)
@settings(derandomize=True, deadline=None, max_examples=25, database=None)
@given(n_inputs=st.integers(2, 10), n_gates=st.integers(3, 40),
       seed=st.integers(0, 10**6), k=st.integers(1, 6))
def test_correct_key_restores_the_original(strategy, n_inputs, n_gates, seed, k):
    original = random_netlist(n_inputs, n_gates, seed)
    k = min(k, len(eligible_nets(original)))
    want = truth_tables(original)
    for keygate, dummy in itertools.product(KEYGATE_POLICIES, DUMMY_POLICIES):
        cfg = LockConfig(k, keygate_policy=keygate, selection=strategy,
                         dummy_policy=dummy, seed=seed)
        try:
            locked, key = lock(original, cfg)
        except (SelectionError, DummyError):
            continue  # too few path-disjoint nets, or no cone-safe dummy
        got = truth_tables(apply_key(locked, key), original.primary_inputs)
        assert [got[po] for po in original.primary_outputs] == [
            want[po] for po in original.primary_outputs], (keygate, dummy)


@pytest.mark.parametrize("strategy", SELECTION_STRATEGIES)
@settings(derandomize=True, deadline=None, max_examples=15, database=None)
@given(n_inputs=st.integers(2, 10), n_gates=st.integers(3, 40),
       n_outputs=st.integers(1, 3), seed=st.integers(0, 10**6), k=st.integers(1, 6))
def test_every_key_input_of_an_engine_lock_reaches_an_output(
        strategy, n_inputs, n_gates, n_outputs, seed, k):
    # few outputs leave nets no output depends on, which selection must skip
    original = random_netlist(n_inputs, n_gates, seed, n_outputs=n_outputs)
    k = min(k, len(eligible_nets(original)))
    assume(k > 0)  # the only output may be a primary input
    for keygate, dummy in itertools.product(KEYGATE_POLICIES, DUMMY_POLICIES):
        cfg = LockConfig(k, keygate_policy=keygate, selection=strategy,
                         dummy_policy=dummy, seed=seed)
        try:
            locked, _ = lock(original, cfg)
        except (SelectionError, DummyError):
            continue  # too few path-disjoint nets, or no cone-safe dummy
        assert set(locked.key_inputs) <= _observable(locked.netlist), (keygate, dummy)
        assert structural_check(locked, original) == [], (keygate, dummy)


def test_select_nets_refuses_a_cycle():
    with pytest.raises(StructuralError) as exc:
        select_nets(_cyclic(), "random", 1)
    assert exc.value.diagnostics == ["cycle: combinational loop through net 'x'"]


def test_lock_rejects_zero_key():
    with pytest.raises(LockError, match="key_size must be >= 1"):
        lock(c17(), LockConfig(key_size=0))


def test_sat_hard_preset_expands():
    cfg = LockConfig(key_size=4, preset="sat_hard").normalized()
    assert cfg.keygate_policy == "mixed"
    assert cfg.selection == "fan_heavy"
    assert cfg.dummy_policy == "other_cone_net"


def test_lock_interface_growth_and_po_preserved():
    c = c17()
    locked, _ = lock(c, LockConfig(key_size=8, keygate_policy="mixed",
                                   dummy_policy="primary_input", seed=1))
    n = locked.netlist
    assert len(n.primary_inputs) == len(c.primary_inputs) + 8
    assert n.primary_outputs == c.primary_outputs


# -- apply_key -----------------------------------------------------------------------------


def test_apply_correct_key_restores_function():
    c = c17()
    locked, key = lock(c, LockConfig(key_size=4, keygate_policy="mixed",
                                     dummy_policy="other_cone_net", seed=3))
    applied = apply_key(locked, key)
    assert applied.primary_inputs == c.primary_inputs
    orig, now = truth_tables(c), truth_tables(applied, c.primary_inputs)
    for po in c.primary_outputs:
        assert orig[po] == now[po]


def test_apply_complemented_key_complements_po_driver():
    n = and_gate()
    locked = insert_xor_keygates(n, ["y"], (0,))
    flipped = apply_key(locked, Key((1,)))
    for a, b in itertools.product((0, 1), repeat=2):
        x = {"a": a, "b": b}
        assert flipped.simulate(x)["y"] == 1 - n.simulate(x)["y"]


def test_apply_empty_key_is_identity():
    c = c17()
    applied = apply_key(c, Key(()))
    assert structurally_equal(applied, c)


def test_apply_key_simplifies_to_buff_and_not():
    n = and_gate()
    locked = insert_xor_keygates(n, ["y"], (0,))
    good = apply_key(locked, Key((0,)))
    assert good.driver("y").kind is GateKind.BUFF
    bad = apply_key(locked, Key((1,)))
    assert bad.driver("y").kind is GateKind.NOT


def test_apply_key_collapses_mux_select():
    n = and_gate()
    locked = insert_mux_keygates(n, ["y"], (0,), dummy_policy="primary_input", seed=1)
    applied = apply_key(locked, locked.correct_key)
    assert applied.driver("y").kind is GateKind.BUFF


def test_apply_key_width_mismatch():
    locked = insert_xor_keygates(and_gate(), ["y"], (0,))
    with pytest.raises(LockError, match="width"):
        apply_key(locked, Key((0, 1)))


# -- key files / detection -------------------------------------------------------------------


def test_key_file_round_trip():
    key = Key((0, 1, 1, 0, 1))
    text = emit_key_file(key, comment="demo")
    assert text.startswith("#")
    assert parse_key_file(text) == key


def test_key_file_rejects_multiple_payloads():
    with pytest.raises(LockError):
        parse_key_file("01\n10\n")


def test_detect_key_inputs_numeric_order():
    pis = ["a", "keyinput10", "keyinput2", "keyinput0"]
    n = Netlist("t", pis, ["y"],
                [Gate("y", GateKind.XOR, ("a", "keyinput0", "keyinput2", "keyinput10"))])
    assert detect_key_inputs(n) == ["keyinput0", "keyinput2", "keyinput10"]
