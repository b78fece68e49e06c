from unittest import mock

import pytest

from benchlock import bench
from benchlock.bench import (
    emit_bench,
    lower_mux_gates,
    parse_bench,
    parse_bench_document,
)
from benchlock.circuits import c17, c432_scale, random_netlist
from benchlock.errors import (
    BenchParseError,
    DialectError,
    StructuralError,
    UnsupportedGate,
)
from benchlock.locking import LockConfig, lock
from benchlock.netlist import GateKind, truth_tables
from structure import structurally_equal

TINY = "INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)"


def test_parse_tiny():
    n = parse_bench(TINY)
    st = n.stats()
    assert (st.n_inputs, st.n_outputs, st.n_gates) == (2, 1, 1)
    assert n.gates[0].kind is GateKind.NAND


def test_parse_c17_counts():
    n = parse_bench(emit_bench(c17()), "c17")
    st = n.stats()
    assert (st.n_inputs, st.n_outputs, st.n_gates) == (5, 2, 6)
    assert dict(st.by_kind) == {"NAND": 6}


def test_parse_is_case_insensitive_and_accepts_buf():
    n = parse_bench("INPUT(a)\nOUTPUT(y)\nw = buf(a)\ny = Not(w)")
    kinds = [g.kind for g in n.gates]
    assert kinds == [GateKind.BUFF, GateKind.NOT]


def test_parse_mux_dialect_extension():
    n = parse_bench("INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(s, a, b)")
    assert n.gates[0].kind is GateKind.MUX


def test_dff_rejected_with_line_number():
    with pytest.raises(UnsupportedGate) as exc:
        parse_bench("INPUT(d)\nOUTPUT(q)\nq = DFF(d)")
    assert exc.value.line == 3
    assert "DFF" in str(exc.value)


def test_syntax_error_has_line_and_column():
    with pytest.raises(BenchParseError) as exc:
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = NAND(a, b")
    assert exc.value.line == 3
    assert exc.value.column is not None


def test_structural_problems_surface_at_parse_time():
    with pytest.raises(StructuralError, match="cycle"):
        parse_bench("OUTPUT(x)\nx = NOT(x)")
    with pytest.raises(StructuralError, match="multi-driver"):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(a)")


def test_comments_and_blank_lines_preserved_in_document():
    doc = parse_bench_document("# one\n# two\n\n" + TINY)
    assert doc.comments == ("one", "two")
    assert doc.netlist.stats().n_gates == 1


def test_round_trip_c17_structural_identity():
    c = c17()
    text = emit_bench(c)
    again = parse_bench(text, "c17")
    assert structurally_equal(c, again)
    assert emit_bench(again) == text  # canonical form is a fixed point


def test_round_trip_c432_scale():
    big = c432_scale()
    text = emit_bench(big)
    assert structurally_equal(parse_bench(text, big.name), big)


@pytest.mark.parametrize("seed", range(12))
def test_round_trip_random_netlists(seed):
    n = random_netlist(4, 9, seed=seed, with_mux=True)
    assert structurally_equal(parse_bench(emit_bench(n), n.name), n)


def test_emission_byte_determinism():
    n = random_netlist(5, 20, seed=3, with_mux=True)
    assert emit_bench(n) == emit_bench(n)


def test_strict_dialect_rejects_mux_without_lowering():
    n = parse_bench("INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(s, a, b)")
    with pytest.raises(DialectError):
        emit_bench(n, dialect="strict")


def test_strict_lowering_pattern():
    n = parse_bench("INPUT(s)\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(s, a, b)")
    text = emit_bench(n, dialect="strict", lower_mux=True)
    assert "MUX" not in text
    assert "y_nl0 = NOT(s)" in text
    assert "y_nl1 = AND(y_nl0, a)" in text
    assert "y_nl2 = AND(s, b)" in text
    assert "y = OR(y_nl1, y_nl2)" in text


def test_lowering_preserves_function():
    n = random_netlist(4, 8, seed=11, with_mux=True)
    lowered = lower_mux_gates(n)
    before, after = truth_tables(n), truth_tables(lowered)
    for po in n.primary_outputs:
        assert before[po] == after[po]


def test_locked_c17_emits_four_key_input_lines():
    locked, _ = lock(c17(), LockConfig(key_size=4, seed=42))
    text = emit_bench(locked.netlist)
    key_lines = [ln for ln in text.splitlines() if ln.startswith("INPUT(keyinput")]
    assert len(key_lines) == 4


def test_unknown_gate_kind_rejected():
    with pytest.raises(UnsupportedGate):
        parse_bench("INPUT(a)\nOUTPUT(y)\ny = FROB(a, a)")


@pytest.mark.parametrize("locked", [False, True], ids=["plain", "locked"])
def test_emitted_bench_is_read_without_the_per_line_match(locked):
    # Every line emit_bench writes, of a benchmark-scale netlist or of its
    # lock, must be read by the one regex pass, never matched on its own,
    # and every gate built by _new_gate, not by the Gate constructor.
    n = random_netlist(32, 2000, 11)
    if locked:
        n = lock(n, LockConfig(key_size=64, keygate_policy="mixed", seed=3))[0].netlist
    text = emit_bench(n)
    refuse = mock.Mock(match=mock.Mock(side_effect=AssertionError("per-line match")))
    with mock.patch.object(bench, "_GATE_RE", refuse), \
            mock.patch.object(bench, "_INPUT_RE", refuse), \
            mock.patch.object(bench, "Gate", refuse.match):
        got = parse_bench(text, n.name)
    assert got.gates == parse_bench(text, n.name).gates
    assert emit_bench(got) == text
