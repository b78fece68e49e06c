import itertools
import re
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchlock import verilog
from benchlock.bench import parse_bench
from benchlock.errors import BenchlockError, StructuralError, UnsupportedConstruct
from benchlock.netlist import Gate, GateKind, Netlist
from benchlock.verilog import parse_verilog_subset
from structure import structurally_equal

NAND_MODULE = """module m(a, b, y);
input a, b;
output y;
nand g(y, a, b);
endmodule
"""


def test_single_nand_matches_bench_equivalent():
    v = parse_verilog_subset(NAND_MODULE)
    b = parse_bench("INPUT(a)\nINPUT(b)\nOUTPUT(y)\ny = NAND(a, b)")
    assert structurally_equal(v, b)


def test_four_input_nand_stays_one_gate():
    text = """module m(a, b, c, d, y);
    input a, b, c, d;
    output y;
    nand g1(y, a, b, c, d);
    endmodule
    """
    n = parse_verilog_subset(text)
    assert len(n.gates) == 1
    assert n.gates[0].kind is GateKind.NAND
    assert n.gates[0].inputs == ("a", "b", "c", "d")


def test_always_block_rejected_with_location():
    text = "module m(q, d, clk);\ninput d, clk;\noutput q;\nalways @(posedge clk) q <= d;\nendmodule\n"
    with pytest.raises(UnsupportedConstruct, match="always"):
        parse_verilog_subset(text)


def test_assign_with_operators_rejected():
    text = "module m(a, b, y);\ninput a, b;\noutput y;\nassign y = a & b;\nendmodule\n"
    with pytest.raises(UnsupportedConstruct, match="assign"):
        parse_verilog_subset(text)


def test_assign_alias_becomes_buff():
    text = "module m(a, y);\ninput a;\noutput y;\nassign y = a;\nendmodule\n"
    n = parse_verilog_subset(text)
    assert n.gates[0].kind is GateKind.BUFF


def test_buses_rejected():
    text = "module m(a, y);\ninput [3:0] a;\noutput y;\nnot g(y, a);\nendmodule\n"
    with pytest.raises(UnsupportedConstruct, match="bus"):
        parse_verilog_subset(text)


def test_multiple_modules_rejected():
    text = "module a(); endmodule\nmodule b(); endmodule\n"
    with pytest.raises(UnsupportedConstruct, match="single module"):
        parse_verilog_subset(text)


def test_instance_names_optional_and_lists_supported():
    ok = """module m(a, b, y, z);
    input a, b;
    output y, z;
    wire w;
    and (w, a, b);
    not g1(y, w), g2(z, a);
    endmodule
    """
    n = parse_verilog_subset(ok)
    assert {g.output: g.kind for g in n.gates} == {
        "w": GateKind.AND,
        "y": GateKind.NOT,
        "z": GateKind.NOT,
    }


@pytest.mark.parametrize("stmt", [
    "and g1(w, a, b) g2(y, w, a);",
    "and g1(w, a, b),, g2(y, w, a);",
    "and g1(w, a, b), , g2(y, w, a);",
    "and , g1(y, a, b);",
    "and ,g1(w, a, b), g2(y, w, a);",
])
def test_gate_instances_need_exactly_one_comma_between(stmt):
    # gate-inst = prim , instance , { "," , instance } , ";"
    text = f"module m(a, b, y);\ninput a, b;\noutput y;\n{stmt}\nendmodule\n"
    with pytest.raises(UnsupportedConstruct, match="','") as exc:
        parse_verilog_subset(text)
    assert exc.value.line == 4


def test_comments_stripped_with_line_numbers_kept():
    text = """// header
module m(a, y); /* ports */
input a;
output y;
always @(a) y = a;
endmodule
"""
    with pytest.raises(UnsupportedConstruct) as exc:
        parse_verilog_subset(text)
    assert exc.value.line == 5


def test_undriven_output_is_structural_error():
    text = "module m(a, y);\ninput a;\noutput y;\nendmodule\n"
    with pytest.raises(StructuralError):
        parse_verilog_subset(text)


def test_cross_format_simulation_consistency():
    verilog = """module fa(a, b, cin, sum, cout);
    input a, b, cin;
    output sum, cout;
    wire axb, ab, cx;
    xor g1(axb, a, b);
    xor g2(sum, axb, cin);
    and g3(ab, a, b);
    and g4(cx, axb, cin);
    or g5(cout, ab, cx);
    endmodule
    """
    bench = """INPUT(a)
INPUT(b)
INPUT(cin)
OUTPUT(sum)
OUTPUT(cout)
axb = XOR(a, b)
sum = XOR(axb, cin)
ab = AND(a, b)
cx = AND(axb, cin)
cout = OR(ab, cx)
"""
    v = parse_verilog_subset(verilog)
    b = parse_bench(bench)
    for bits in itertools.product((0, 1), repeat=3):
        x = dict(zip(("a", "b", "cin"), bits))
        assert v.simulate(x) == b.simulate(x)


_SUPPORTED_KINDS = {
    "and": GateKind.AND, "nand": GateKind.NAND, "or": GateKind.OR,
    "nor": GateKind.NOR, "xor": GateKind.XOR, "xnor": GateKind.XNOR,
    "not": GateKind.NOT, "buf": GateKind.BUFF,
}
# one statement of each construct the subset refuses
_UNSUPPORTED = {
    "always": "always @(i0) z = i0;",
    "operator": "assign z = i0 & i0;",
    "bus": "wire [3:0] bus;",
    "parameter": "parameter W = 4;",
    "multi-output not": "not (z1, z2, i0);",
}


@st.composite
def verilog_modules(draw):
    """(module text, the netlist it declares, the unsupported construct in
    it or None). Supported statements only, in any order, plus at most one
    construct the subset refuses."""
    pis = [f"i{j}" for j in range(draw(st.integers(1, 4)))]
    nets, gates, statements = list(pis), [], []
    for j in range(draw(st.integers(1, 8))):
        out = f"g{j}"
        prim = draw(st.sampled_from(sorted(_SUPPORTED_KINDS) + ["assign"]))
        if prim == "assign":
            src = draw(st.sampled_from(nets))
            gates.append(Gate(out, GateKind.BUFF, (src,)))
            statements.append([f"assign {out} = {src}"])
        else:
            kind = _SUPPORTED_KINDS[prim]
            n_ins = 1 if kind in (GateKind.NOT, GateKind.BUFF) else draw(
                st.integers(2, 4))
            ins = [draw(st.sampled_from(nets)) for _ in range(n_ins)]
            gates.append(Gate(out, kind, ins))
            label = draw(st.sampled_from(["", f"u{j} "]))
            instance = f"{label}({', '.join([out, *ins])})"
            if statements and statements[-1][0] == prim and draw(st.booleans()):
                statements[-1].append(instance)  # prim (a, ..), (b, ..);
            else:
                statements.append([prim, instance])
        nets.append(out)
    pos = draw(st.lists(st.sampled_from(nets[len(pis):]), min_size=1, max_size=3,
                        unique=True))
    wires = [g.output for g in gates if g.output not in pos]
    body = [f"input {', '.join(pis)};", f"output {', '.join(pos)};"]
    if wires:
        body.append(f"wire {', '.join(wires)};")
    body += draw(st.permutations([
        f"{s[0]};" if s[0].startswith("assign") else f"{s[0]} {', '.join(s[1:])};"
        for s in statements
    ]))
    header = f"module m ({', '.join(pis + pos)});"
    footer = ["endmodule"]
    bad = draw(st.one_of(st.none(), st.sampled_from(
        sorted(_UNSUPPORTED) + ["ansi port", "second module"])))
    if bad == "ansi port":
        header = f"module m (input {pis[0]}, output {pos[0]});"
    elif bad == "second module":
        footer += ["module extra (a);", "input a;", "endmodule"]
    elif bad is not None:
        body.insert(draw(st.integers(0, len(body))), _UNSUPPORTED[bad])
    text = "\n".join([header, *body, *footer]) + "\n"
    return text, Netlist("m", pis, pos, gates), bad


@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(module=verilog_modules())
def test_reader_parses_or_refuses_and_never_drops_a_construct(module):
    text, want, bad = module
    if bad is not None:
        with pytest.raises(UnsupportedConstruct):
            parse_verilog_subset(text)
        return
    got = parse_verilog_subset(text)
    assert got.name == want.name
    assert structurally_equal(got, want)


_TOKEN_RE = re.compile(r"\w+|\s+|[^\w\s]")


def _between_instances(tokens, i):
    """Whether tokens[i] is the ',' between two instances of one gate
    statement, or the ';' between two gate statements."""
    if tokens[i] not in ",;" or tokens[i - 1] != ")":
        return False
    after = next((t for t in tokens[i + 1:] if not t.isspace()), "")
    return tokens[i] == "," or after in _SUPPORTED_KINDS


@st.composite
def mutated_modules(draw):
    """A verilog_modules() document with up to three token edits: drop or
    double a word or a punctuation mark, glue two tokens by dropping the
    whitespace between them, add whitespace after a token, or run two
    gate instances on by dropping the ',' or ';' between them."""
    tokens = _TOKEN_RE.findall(draw(verilog_modules())[0])
    for _ in range(draw(st.integers(0, 3))):
        edit = draw(st.sampled_from(["drop", "double", "glue", "space", "run on"]))
        if edit == "run on":
            at = [i for i in range(len(tokens)) if _between_instances(tokens, i)]
            edit = "drop"
        else:
            at = [i for i, t in enumerate(tokens) if t.isspace() == (edit == "glue")]
        if not at:
            continue
        i = draw(st.sampled_from(at))
        if edit == "double":
            tokens.insert(i, tokens[i])
        elif edit == "space":
            tokens.insert(i + 1, draw(st.sampled_from([" ", "\t", "\n", "  \n "])))
        else:
            del tokens[i]
    return "".join(tokens)


def _read(text):
    try:
        n = parse_verilog_subset(text)
    except BenchlockError as exc:
        return type(exc).__name__, str(exc)
    return n.name, n.primary_inputs, n.primary_outputs, n.gates


# The one-regex fast path reads a statement exactly as the step-by-step
# path does: with the fast path never matching, every document gives the
# same netlist, or the same error.
@settings(derandomize=True, deadline=None, max_examples=200, database=None)
@given(text=mutated_modules())
def test_fast_and_step_by_step_paths_read_alike(text):
    fast = _read(text)
    with mock.patch.object(verilog, "_STATEMENT_RE", re.compile(r"(?!)")):
        assert _read(text) == fast
