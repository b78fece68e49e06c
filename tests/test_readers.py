"""Reader contracts: parse-emit round trips for .bench (both dialects) and
the Verilog subset, and a golden table of reader outcomes on odd and
malformed input (exception type, message, line and column)."""

import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchlock import errors, verilog
from benchlock.circuits import layered_netlist
from benchlock.bench import emit_bench, lower_mux_gates, parse_bench, parse_bench_document
from benchlock.netlist import Gate, GateKind, Netlist
from benchlock.verilog import parse_verilog_subset
from structure import structurally_equal

# Outcome of parsing each text: ("ok", emitted .bench of the result) or
# (exception type, message, line, column).
READER_GOLDENS = [
    ('bench-tab-args', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a,\tb)\n',
     ('ok', '# t\n# 2 inputs  1 outputs  1 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n')),
    ('bench-odd-space-args', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND( a ,\t b\t)\n',
     ('ok', '# t\n# 2 inputs  1 outputs  1 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n')),
    ('bench-nbsp-args', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a,\xa0b)\n',
     ('ok', '# t\n# 2 inputs  1 outputs  1 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n')),
    ('bench-tab-line', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\n\ty\t=\tnand\t(a,b)\t\n',
     ('ok', '# t\n# 2 inputs  1 outputs  1 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n')),
    ('bench-crlf', 'bench', 'INPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = NAND(a, b)\r\n',
     ('ok', '# t\n# 2 inputs  1 outputs  1 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n')),
    ('bench-buf-alias', 'bench', 'INPUT(a)\nOUTPUT(y)\nw = Buf(a)\ny = buff(w)\n',
     ('ok', '# t\n# 1 inputs  1 outputs  2 gates\nINPUT(a)\nOUTPUT(y)\nw = BUFF(a)\ny = BUFF(w)\n')),
    ('bench-lower-input', 'bench', 'input(a)\nInput(b)\noutput(y)\ny = and(a, b)\n',
     ('ok', '# t\n# 2 inputs  1 outputs  1 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n')),
    ('bench-unknown-kind', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = FROB(a, b)\n',
     ('UnsupportedGate', "line 4, col 5: unsupported gate kind 'FROB'", 4, 5)),
    ('bench-unknown-kind-indented', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\n  y =  frob (a, b)\n',
     ('UnsupportedGate', "line 4, col 8: unsupported gate kind 'frob'", 4, 8)),
    ('bench-sequential-dff', 'bench', 'INPUT(d)\nOUTPUT(q)\nq = DFF(d)\n',
     ('UnsupportedGate', "line 3, col 5: sequential gate kind 'DFF'", 3, 5)),
    ('bench-sequential-lower', 'bench', 'INPUT(d)\nOUTPUT(q)\nq = latch(d)\n',
     ('UnsupportedGate', "line 3, col 5: sequential gate kind 'latch'", 3, 5)),
    ('bench-kind-in-output-name', 'bench', 'INPUT(d)\nOUTPUT(DFF1)\nDFF1 = DFF(d)\n',
     ('UnsupportedGate', "line 3, col 8: sequential gate kind 'DFF'", 3, 8)),
    ('bench-kind-in-output-name-lower', 'bench', 'INPUT(d)\nOUTPUT(dff)\n  dff = dff(d)\n',
     ('UnsupportedGate', "line 3, col 9: sequential gate kind 'dff'", 3, 9)),
    ('bench-missing-paren', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b\n',
     ('BenchParseError', "line 4, col 14: expected ')'", 4, 14)),
    ('bench-missing-paren-trailing-space', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b   \n',
     ('BenchParseError', "line 4, col 14: expected ')'", 4, 14)),
    ('bench-input-missing-paren', 'bench', 'INPUT(a\nOUTPUT(a)\n',
     ('BenchParseError', "line 1, col 8: expected ')'", 1, 8)),
    ('bench-empty-arg', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, , b)\n',
     ('BenchParseError', 'line 4, col 3: malformed gate line', 4, 3)),
    ('bench-space-separated-args', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a b)\n',
     ('BenchParseError', 'line 4, col 3: malformed gate line', 4, 3)),
    ('bench-no-args', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND()\n',
     ('BenchParseError', 'line 4, col 3: malformed gate line', 4, 3)),
    ('bench-double-equals', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = = NAND(a, b)\n',
     ('BenchParseError', 'line 4, col 3: malformed gate line', 4, 3)),
    ('bench-no-output-name', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\n= NAND(a, b)\n',
     ('BenchParseError', 'line 4, col 1: malformed gate line', 4, 1)),
    ('bench-no-kind', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = (a, b)\n',
     ('BenchParseError', 'line 4, col 3: malformed gate line', 4, 3)),
    ('bench-equals-in-input', 'bench', 'INPUT(a=b)\n',
     ('BenchParseError', 'line 1, col 8: malformed gate line', 1, 8)),
    ('bench-trailing-text', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b) junk\n',
     ('BenchParseError', 'line 4, col 3: malformed gate line', 4, 3)),
    ('bench-extra-close', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b))\n',
     ('BenchParseError', 'line 4, col 3: malformed gate line', 4, 3)),
    ('bench-unrecognized', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\nhello world\n',
     ('BenchParseError', "line 4, col 1: unrecognized line: 'hello world'", 4, 1)),
    ('bench-empty-input', 'bench', 'INPUT()\n',
     ('BenchParseError', "line 1, col 1: unrecognized line: 'INPUT()'", 1, 1)),
    ('bench-tab-unrecognized', 'bench', '\tfoo\tbar\n',
     ('BenchParseError', "line 1, col 1: unrecognized line: 'foo\\tbar'", 1, 1)),
    ('bench-bad-name-char', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny$ = NAND(a, b)\n',
     ('BenchParseError', 'line 4, col 4: malformed gate line', 4, 4)),
    ('bench-arity', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a, b)\n',
     ('StructuralError', "bad arity: gate 'y' = NOT with 2 input(s)", None, None)),
    ('bench-mux-arity', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = MUX(a, b)\n',
     ('StructuralError', "bad arity: gate 'y' = MUX with 2 input(s)", None, None)),
    ('bench-undriven', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, ghost)\n',
     ('StructuralError', "undriven: gate 'y' reads unknown net 'ghost'", None, None)),
    ('bench-undeclared-output', 'bench', 'INPUT(a)\nOUTPUT(z)\ny = NOT(a)\n',
     ('StructuralError', "undriven: primary output 'z' names no net", None, None)),
    ('bench-multi-driver', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NOT(a)\ny = BUFF(b)\n',
     ('StructuralError', "multi-driver: net 'y' has more than one driver", None, None)),
    ('bench-cycle', 'bench', 'INPUT(a)\nOUTPUT(y)\nx = AND(a, y)\ny = NOT(x)\n',
     ('StructuralError', "cycle: combinational loop through net 'x'", None, None)),
    ('bench-unsorted', 'bench', 'INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(w, b)\nw = NOT(a)\n',
     ('ok', '# t\n# 2 inputs  1 outputs  2 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nw = NOT(a)\ny = AND(w, b)\n')),
    ('bench-comments', 'bench', '# one\n#two\n\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\n# mid\ny = OR(a, b)\n',
     ('ok', '# t\n# 2 inputs  1 outputs  1 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = OR(a, b)\n')),
    ('bench-canonical-crlf', 'bench', '# t\r\n# 2 inputs  1 outputs  1 gates\r\nINPUT(a)\r\nINPUT(b)\r\nOUTPUT(y)\r\ny = NAND(a, b)\r\n',
     ('ok', '# t\n# 2 inputs  1 outputs  1 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n')),
    ('bench-formfeed-in-comment', 'bench', '# t\x0cINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n',
     ('ok', '# t\n# 1 inputs  1 outputs  1 gates\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n')),
    ('bench-formfeed-in-comment-bad', 'bench', '# t\x0cx\n# 1 inputs  1 outputs  1 gates\nINPUT(a)\nOUTPUT(y)\ny = NOT(a)\n',
     ('BenchParseError', "line 2, col 1: unrecognized line: 'x'", 2, 1)),
    ('v-tabs', 'verilog', 'module m(a,\tb,\ty);\ninput\ta ,\tb;\noutput\ty;\nnand\tg (\ty ,a,\tb\t);\nendmodule\n',
     ('ok', '# m\n# 2 inputs  1 outputs  1 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)\n')),
    ('v-ok-lists', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nwire w;\nand (w, a, b), (y, w, a);\nendmodule\n',
     ('ok', '# m\n# 2 inputs  1 outputs  2 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nw = AND(a, b)\ny = AND(w, a)\n')),
    ('v-bus-input', 'verilog', 'module m(a, y);\ninput [3:0] a;\noutput y;\nnot g(y, a);\nendmodule\n',
     ('UnsupportedConstruct', 'line 2: buses are not supported in input declaration', 2, None)),
    ('v-bus-in-instance', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nand g(y, a[0], b);\nendmodule\n',
     ('UnsupportedConstruct', 'line 4: buses are not supported in and instance', 4, None)),
    ('v-bus-after-bad', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nwire 1w, v[2];\nendmodule\n',
     ('UnsupportedConstruct', "line 4: bad identifier '1w' in wire declaration", 4, None)),
    ('v-ansi-ports', 'verilog', 'module m(input a, output y);\nnot g(y, a);\nendmodule\n',
     ('UnsupportedConstruct', 'line 1: ANSI-style port declarations are not supported', 1, None)),
    ('v-text-after-endmodule', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nnand g(y, a, b);\nendmodule nand h(y, a, b);\n',
     ('UnsupportedConstruct', 'line 5: unexpected text after endmodule', 5, None)),
    ('v-bad-ident-decl', 'verilog', 'module m(a, y);\ninput 1a;\noutput y;\nendmodule\n',
     ('UnsupportedConstruct', "line 2: bad identifier '1a' in input declaration", 2, None)),
    ('v-bad-ident-instance', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nand g(y, a, b$);\nendmodule\n',
     ('UnsupportedConstruct', "line 4: bad identifier 'b$' in and instance", 4, None)),
    ('v-empty-ident', 'verilog', 'module m(a, b, y);\ninput a,,b;\noutput y;\nendmodule\n',
     ('UnsupportedConstruct', "line 2: bad identifier '' in input declaration", 2, None)),
    ('v-escaped-ident', 'verilog', 'module m(a, y);\ninput \\a+ ;\noutput y;\nendmodule\n',
     ('UnsupportedConstruct', "line 2: bad identifier '\\\\a+' in input declaration", 2, None)),
    ('v-multi-module', 'verilog', 'module a(); endmodule\nmodule b(); endmodule\n',
     ('UnsupportedConstruct', 'only a single module is supported', None, None)),
    ('v-no-module', 'verilog', 'input a;\n',
     ('UnsupportedConstruct', 'no module found', None, None)),
    ('v-malformed-header', 'verilog', 'module 9m(a);\nendmodule\n',
     ('UnsupportedConstruct', 'line 1: malformed module header', 1, None)),
    ('v-assign-op', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nassign y = a & b;\nendmodule\n',
     ('UnsupportedConstruct', 'line 4: assign with operators is not supported', 4, None)),
    ('v-assign-ok', 'verilog', 'module m(a, y);\ninput a;\noutput y;\nassign y = a;\nendmodule\n',
     ('ok', '# m\n# 1 inputs  1 outputs  1 gates\nINPUT(a)\nOUTPUT(y)\ny = BUFF(a)\n')),
    ('v-no-space-before-paren', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nwire w;\nand(w, a, b);\nnot(y, w);\nendmodule\n',
     ('ok', '# m\n# 2 inputs  1 outputs  2 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\nw = AND(a, b)\ny = NOT(w)\n')),
    ('v-no-space-bus-in-instance', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nand(y, a[0], b);\nendmodule\n',
     ('UnsupportedConstruct', 'line 4: buses are not supported in and instance', 4, None)),
    ('v-no-space-multi-output-not', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nnot(y, a, b);\nendmodule\n',
     ('UnsupportedConstruct', 'line 4: multi-output not instances are not supported', 4, None)),
    ('v-primitive-glued-to-name', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nandg1(y, a, b);\nendmodule\n',
     ('UnsupportedConstruct', "line 4: unsupported construct 'andg1'", 4, None)),
    ('v-always', 'verilog', 'module m(q, d, clk);\ninput d, clk;\noutput q;\nalways @(posedge clk) q <= d;\nendmodule\n',
     ('UnsupportedConstruct', "line 4: unsupported construct 'always'", 4, None)),
    ('v-unexpected-between', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nand g(y, a, b) junk (y, a, b);\nendmodule\n',
     ('UnsupportedConstruct', "line 4: expected one ',' between and instances", 4, None)),
    ('v-unexpected-text', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nand g(y, a, b) 1x(w, a, b);\nendmodule\n',
     ('UnsupportedConstruct', "line 4: unexpected text '1' in gate instantiation", 4, None)),
    ('v-nbsp-list', 'verilog', 'module m(a, b, y);\ninput a,\xa0b;\noutput y;\nand g(y,\xa0a, b);\nendmodule\n',
     ('ok', '# m\n# 2 inputs  1 outputs  1 gates\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = AND(a, b)\n')),
    ('v-arity-before-later-bad-name', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nnot g1(y, a, b), g2(z, 1c);\nendmodule\n',
     ('UnsupportedConstruct', 'line 4: multi-output not instances are not supported', 4, None)),
    ('v-bad-name-in-first-instance', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nand g1(y, 1a), g2(z, a, b);\nendmodule\n',
     ('UnsupportedConstruct', "line 4: bad identifier '1a' in and instance", 4, None)),
    ('v-between-before-bad-name', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nand g1(y, 1a) junk junk (w, a, b);\nendmodule\n',
     ('UnsupportedConstruct', "line 4: unexpected text 'junk' in gate instantiation", 4, None)),
    ('v-malformed-inst', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nand g y, a, b;\nendmodule\n',
     ('UnsupportedConstruct', 'line 4: malformed and instantiation', 4, None)),
    ('v-one-port', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nand g(y);\nendmodule\n',
     ('UnsupportedConstruct', 'line 4: and instance needs an output and at least one input', 4, None)),
    ('v-multi-output-not', 'verilog', 'module m(a, b, y);\ninput a, b;\noutput y;\nnot g(y, a, b);\nendmodule\n',
     ('UnsupportedConstruct', 'line 4: multi-output not instances are not supported', 4, None)),
    ('v-comment-lines', 'verilog', '// c\n/* a\n b */ module m(a, y);\ninput a;\noutput y;\nfoo bar;\nendmodule\n',
     ('UnsupportedConstruct', "line 6: unsupported construct 'foo'", 6, None)),
    ('v-undriven-output', 'verilog', 'module m(a, y);\ninput a;\noutput y;\nendmodule\n',
     ('StructuralError', "undriven: primary output 'y' names no net", None, None)),
    ('v-cycle', 'verilog', 'module m(a, y);\ninput a;\noutput y;\nwire x;\nand g1(x, a, y);\nnot g2(y, x);\nendmodule\n',
     ('StructuralError', "cycle: combinational loop through net 'x'", None, None)),
]


@pytest.mark.parametrize(
    "fmt, text, expected", [case[1:] for case in READER_GOLDENS],
    ids=[case[0] for case in READER_GOLDENS],
)
def test_reader_outcome_matches_golden(fmt, text, expected):
    if expected[0] == "ok":
        n = parse_bench(text, "t") if fmt == "bench" else parse_verilog_subset(text)
        assert emit_bench(n) == expected[1]
        return
    parse = (lambda: parse_bench(text, "t")) if fmt == "bench" else (
        lambda: parse_verilog_subset(text))
    with pytest.raises(errors.BenchlockError) as exc:
        parse()
    got = exc.value
    assert (type(got).__name__, str(got), getattr(got, "line", None),
            getattr(got, "column", None)) == expected


# -- round trips ---------------------------------------------------------------

_VERILOG_WORDS = {"module", "endmodule", "input", "output", "inout", "wire",
                  "assign", "and", "nand", "or", "nor", "xor", "xnor", "not", "buf"}


@st.composite
def sorted_netlists(draw, names, with_mux=True):
    """A valid netlist with gates in topological order, nets named from
    ``names``; every net is unique."""
    pool = draw(st.lists(names, min_size=2, max_size=24, unique=True))
    n_pi = draw(st.integers(1, min(5, len(pool) - 1)))
    pis, outs = pool[:n_pi], pool[n_pi:]
    kinds = [k for k in GateKind if with_mux or k is not GateKind.MUX]
    gates = []
    for j, out in enumerate(outs):
        kind = draw(st.sampled_from(kinds))
        arity = {GateKind.NOT: 1, GateKind.BUFF: 1, GateKind.MUX: 3}.get(
            kind) or draw(st.integers(2, 4))
        avail = pis + outs[:j]
        gates.append(Gate(out, kind, draw(st.lists(
            st.sampled_from(avail), min_size=arity, max_size=arity))))
    pos = draw(st.lists(st.sampled_from(pis + outs), min_size=1, max_size=4))
    return Netlist(draw(names), pis, pos, gates)


_BENCH_NAMES = st.from_regex(r"[A-Za-z0-9_]{1,6}", fullmatch=True)
_VERILOG_NAMES = st.from_regex(r"[A-Za-z_][A-Za-z0-9_]{0,5}", fullmatch=True).filter(
    lambda s: s not in _VERILOG_WORDS)


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(n=sorted_netlists(_BENCH_NAMES))
def test_bench_round_trip_is_identity_and_byte_stable(n):
    text = emit_bench(n)
    again = parse_bench(text, n.name)
    assert again.primary_inputs == n.primary_inputs
    assert again.primary_outputs == n.primary_outputs
    assert again.gates == n.gates
    assert emit_bench(again) == text


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(n=sorted_netlists(_BENCH_NAMES))
def test_strict_bench_round_trip_is_identity_and_byte_stable(n):
    text = emit_bench(n, dialect="strict", lower_mux=True)
    again = parse_bench(text, n.name)
    lowered = lower_mux_gates(n)
    assert structurally_equal(again, lowered)
    assert GateKind.MUX not in {g.kind for g in again.gates}
    assert emit_bench(again, dialect="strict") == text


def _document_outcome(text):
    try:
        doc = parse_bench_document(text, "t")
    except errors.BenchlockError as exc:
        return (type(exc).__name__, str(exc), getattr(exc, "line", None),
                getattr(exc, "column", None))
    n = doc.netlist
    return (doc.comments, n.primary_inputs, n.primary_outputs, n.gates, n.topo_order())


def _relaid(text):
    """The same document with CRLF line ends, a blank line after every
    line, and every other line laid out freely: tabs and spaces before
    every line and around every token, lower-case keywords and kinds."""
    def free(line):
        line = re.sub(r"^(INPUT|OUTPUT)\(", lambda m: f"{m[1].lower()}\t( ", line)
        line = re.sub(r" = ([A-Z]+)\(", lambda m: f"\t=  {m[1].lower()} (", line)
        return " \t" + line.replace(", ", " ,\t") + " "
    lines = (free(line) if i % 2 else line for i, line in enumerate(text.splitlines()))
    return "\r\n\r\n".join(lines) + "\r\n"


# Layout does not change what a document reads as: a canonical document,
# the same with a blank line appended (same line numbers) and a copy with
# canonical and freely laid out lines give the same comments, ports, gates
# and order.
@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(n=sorted_netlists(_BENCH_NAMES))
def test_canonical_and_free_layouts_read_alike(n):
    text = emit_bench(n)
    got = _document_outcome(text)
    assert got == _document_outcome(text + "\n") == _document_outcome(_relaid(text))


@pytest.mark.parametrize("gates, error", [
    ("y = NOT(a)\ny = BUFF(b)\n", "StructuralError"),
    ("y = AND(a, ghost)\n", "StructuralError"),
    ("x = AND(a, y)\ny = NOT(x)\n", "StructuralError"),
    ("y = NOT(a, b)\n", "StructuralError"),
    ("y = DFF(a)\n", "UnsupportedGate"),
    ("y = and(a, b)\n", None),
    ("y = AND(a,, b)\n", "BenchParseError"),
], ids=["multi-driver", "undriven", "cycle", "arity", "dff", "lower-case-kind", "syntax"])
def test_canonical_and_per_line_forms_fail_alike(gates, error):
    # a trailing space keeps every line number and column but sends each
    # line to the per-line match
    text = "# t\nINPUT(a)\nINPUT(b)\nOUTPUT(y)\n" + gates
    spaced = "".join(line + " \n" for line in text.splitlines())
    got = _document_outcome(text)
    assert got == _document_outcome(text + "\n") == _document_outcome(spaced)
    if error:
        assert got[0] == error
    else:  # a lower-case kind is read, not refused
        assert got[0] == ("t",)


_PRIMITIVE = {GateKind.AND: "and", GateKind.NAND: "nand", GateKind.OR: "or",
              GateKind.NOR: "nor", GateKind.XOR: "xor", GateKind.XNOR: "xnor",
              GateKind.NOT: "not", GateKind.BUFF: "buf"}


def emit_verilog(netlist):
    """Gate-primitive structural Verilog, written the way the benchmark
    harness writes its Verilog inputs (a copy of ``perfbench``'s writer)."""
    ports = list(netlist.primary_inputs) + list(netlist.primary_outputs)
    lines = [f"module {netlist.name} ({', '.join(ports)});"]
    lines += [f"  input {pi};" for pi in netlist.primary_inputs]
    lines += [f"  output {po};" for po in netlist.primary_outputs]
    pos = set(netlist.primary_outputs)
    lines += [f"  wire {g.output};" for g in netlist.gates if g.output not in pos]
    for i, g in enumerate(netlist.gates):
        lines.append(f"  {_PRIMITIVE[g.kind]} u{i} ({', '.join((g.output,) + g.inputs)});")
    lines.append("endmodule")
    return "\n".join(lines) + "\n"


def test_benchmark_verilog_is_read_without_the_step_by_step_path():
    # Only the module header and endmodule may reach the step-by-step
    # path; every declaration and gate statement of a benchmark-shaped
    # input must be read by the one-regex fast path, and every gate built
    # by _new_gate, not by the Gate constructor.
    n = layered_netlist(32, [200] * 4, 2, n_outputs=40, name="lay")
    text = emit_verilog(n)
    head_re = verilog._HEAD_RE

    class ModuleHeadsOnly:
        @staticmethod
        def match(stmt):
            m = head_re.match(stmt)
            if m.group() not in ("module", "endmodule"):
                raise AssertionError(f"read step by step: {stmt!r}")
            return m

    refuse = mock.Mock(side_effect=AssertionError("Gate constructor"))
    with mock.patch.object(verilog, "_HEAD_RE", ModuleHeadsOnly), \
            mock.patch.object(verilog, "Gate", refuse):
        got = parse_verilog_subset(text)
    assert got.gates == n.gates
    assert emit_verilog(got) == text


@settings(derandomize=True, deadline=None, max_examples=80, database=None)
@given(n=sorted_netlists(_VERILOG_NAMES, with_mux=False))
def test_verilog_round_trip_is_identity_and_byte_stable(n):
    text = emit_verilog(n)
    again = parse_verilog_subset(text)
    assert again.name == n.name
    assert again.primary_inputs == n.primary_inputs
    assert again.primary_outputs == n.primary_outputs
    assert again.gates == n.gates
    assert emit_verilog(again) == text
