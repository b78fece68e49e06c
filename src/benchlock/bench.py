"""Bit-exact reader and writer for the ISCAS-85 .bench netlist format.

Accepted grammar (see docs/formats.md for the EBNF):

    line   := blank | '#' comment | 'INPUT(' net ')' | 'OUTPUT(' net ')'
            | net '=' KIND '(' net {',' net} ')'
    net    := [A-Za-z0-9_]+

Gate kinds are case-insensitive; BUF is an alias of BUFF. MUX(select,
in0, in1) is accepted as a dialect extension. Emission is canonical and
byte-deterministic: header comment, INPUT lines in PI order, OUTPUT lines
in PO order, gates in topological order, one space after commas.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable

from .errors import BenchParseError, DialectError, UnsupportedGate
from .netlist import GATE_KINDS, Gate, GateKind, Netlist, _new_gate

_INPUT_RE = re.compile(r"^\s*(INPUT|OUTPUT)\s*\(\s*([A-Za-z0-9_]+)\s*\)\s*$", re.I)
_GATE_RE = re.compile(
    r"^\s*([A-Za-z0-9_]+)\s*=\s*([A-Za-z][A-Za-z0-9_]*)\s*\(\s*"
    r"([A-Za-z0-9_]+(?:\s*,\s*[A-Za-z0-9_]+)*)\s*\)\s*$"
)
# One row per line of "\n".join(text.splitlines()): (gate output, kind,
# inputs, comment, port, net) for a line as emit_bench writes it, else the
# whole line in the last group; a blank line's row is all empty.
_CANONICAL_RE = re.compile(
    r"^(?:([A-Za-z0-9_]+) = ([A-Z]+)\(([A-Za-z0-9_]+(?:, [A-Za-z0-9_]+)*)\)"
    r"|(#.*)|(INPUT|OUTPUT)\(([A-Za-z0-9_]+)\)|(.*))$",
    re.M,
)

# Each gate kind by its upper-case .bench name (BUF included), for the
# canonical rows that need no case folding.
_KINDS = {name: kind for name, (kind, _) in GATE_KINDS.items()}

# Common sequential kinds, rejected explicitly so the message is useful.
_SEQUENTIAL = {"DFF", "SDFF", "DFFSR", "LATCH", "FF"}


@dataclass(frozen=True)
class BenchDocument:
    """A parsed .bench file with its leading comment block preserved."""

    comments: tuple[str, ...]
    netlist: Netlist


def _syntax_error(line: str, lineno: int) -> BenchParseError:
    opens, closes = line.count("("), line.count(")")
    if opens > closes:
        return BenchParseError("expected ')'", lineno, len(line.rstrip()) + 1)
    if "=" in line:
        return BenchParseError(
            "malformed gate line", lineno, line.index("=") + 1
        )
    return BenchParseError(f"unrecognized line: {line.strip()!r}", lineno, 1)


def parse_bench_document(text: str, name: str = "bench") -> BenchDocument:
    """Parse .bench text into a validated netlist, keeping leading comments.

    One regex pass splits the text into rows, one per line. A gate line
    laid out as emit_bench writes it, with a kind named in upper case,
    becomes its gate at once; every other line (comments, ports, free
    layout, lower-case or unknown kinds, errors with their line and
    column) is read further down the same loop."""
    comments: list[str] = []
    inputs: list[str] = []
    outputs: list[str] = []
    gates: list[Gate] = []
    rows = _CANONICAL_RE.findall("\n".join(text.splitlines()))
    for lineno, (out, kind, args, comment, port, net, raw) in enumerate(rows, 1):
        if out and kind in _KINDS:
            gates.append(_new_gate((out, _KINDS[kind], tuple(args.split(", ")))))
            continue
        if raw:  # laid out otherwise than emit_bench writes it
            line = raw.strip()
            if not line or line[0] == "#":
                comment = line
            # a line without '=' cannot match _GATE_RE, one with it not _INPUT_RE
            elif "=" not in line:
                m = _INPUT_RE.match(raw)
                if m is None:
                    raise _syntax_error(raw, lineno)
                port, net = m.groups()
            else:
                m = _GATE_RE.match(raw)
                if m is None:
                    raise _syntax_error(raw, lineno)
                out, kind, args = m.groups()
        if out:
            entry = GATE_KINDS.get(kind.upper())
            if entry is None:
                what = "sequential" if kind.upper() in _SEQUENTIAL else "unsupported"
                line = text.splitlines()[lineno - 1]
                column = line.index(kind, line.index("=")) + 1
                raise UnsupportedGate(f"{what} gate kind '{kind}'", lineno, column)
            # names hold no whitespace, so dropping it all leaves name,name,...
            gates.append(Gate(out, entry[0], "".join(args.split()).split(",")))
        elif port:
            (inputs if port.upper() == "INPUT" else outputs).append(net)
        elif comment and not (inputs or outputs or gates):
            comments.append(comment[1:].strip())
    return BenchDocument(tuple(comments), Netlist(name, inputs, outputs, gates))


def parse_bench(text: str, name: str = "bench") -> Netlist:
    """Parse .bench text and return the validated netlist."""
    return parse_bench_document(text, name).netlist


def mux_as_and_or(gate: Gate, fresh: Callable[[], str]) -> tuple[Gate, ...]:
    """MUX(s, a, b) as NOT/AND/AND/OR gates driving the same output;
    three ``fresh()`` calls name the internal nets, in gate order."""
    s, a, b = gate.inputs
    t_not, t_a, t_b = fresh(), fresh(), fresh()
    return (
        Gate(t_not, GateKind.NOT, (s,)),
        Gate(t_a, GateKind.AND, (t_not, a)),
        Gate(t_b, GateKind.AND, (s, b)),
        Gate(gate.output, GateKind.OR, (t_a, t_b)),
    )


def lower_mux_gates(netlist: Netlist) -> Netlist:
    """Replace every MUX with its NOT/AND/AND/OR form.

    Synthesized nets are named ``<base>_nl<counter>`` with one counter
    shared across the whole rewrite; a taken name bumps the counter.
    """
    taken = set(netlist.nets)
    counter = 0

    def fresh(base: str) -> str:
        nonlocal counter
        while f"{base}_nl{counter}" in taken:
            counter += 1
        name = f"{base}_nl{counter}"
        counter += 1
        taken.add(name)
        return name

    gates: list[Gate] = []
    for gate in netlist.gates:
        if gate.kind is GateKind.MUX:
            gates.extend(mux_as_and_or(gate, lambda: fresh(gate.output)))
        else:
            gates.append(gate)
    return Netlist(
        netlist.name, netlist.primary_inputs, netlist.primary_outputs, gates
    )


def emit_bench(
    netlist: Netlist, dialect: str = "extended", lower_mux: bool = False
) -> str:
    """Emit canonical .bench text.

    dialect 'extended' keeps MUX lines; 'strict' restricts output to the
    classic ISCAS alphabet and requires ``lower_mux=True`` if any MUX is
    present.
    """
    if dialect not in ("extended", "strict"):
        raise ValueError(f"unknown dialect: {dialect!r}")
    if dialect == "strict":
        has_mux = any(g.kind is GateKind.MUX for g in netlist.gates)
        if has_mux and not lower_mux:
            raise DialectError(
                "strict dialect cannot emit MUX gates; enable MUX lowering"
            )
        if has_mux:
            netlist = lower_mux_gates(netlist)

    lines = [
        f"# {netlist.name}",
        f"# {len(netlist.primary_inputs)} inputs  {len(netlist.primary_outputs)} "
        f"outputs  {len(netlist.gates)} gates",
    ]
    lines.extend(f"INPUT({pi})" for pi in netlist.primary_inputs)
    lines.extend(f"OUTPUT({po})" for po in netlist.primary_outputs)
    for gate in netlist.topo_order():
        args = ", ".join(gate.inputs)
        lines.append(f"{gate.output} = {gate.kind._value_}({args})")
    return "\n".join(lines) + "\n"
