"""SCOAP testability metrics: combinational controllability (CC0/CC1) and
observability (CO).

Recurrences, forward pass over a topological order:

    PI:      cc0 = cc1 = 1
    AND:     cc1 = sum(cc1(in)) + 1         cc0 = min(cc0(in)) + 1
    OR:      cc1 = min(cc1(in)) + 1         cc0 = sum(cc0(in)) + 1
    NAND:    cc1 = min(cc0(in)) + 1         cc0 = sum(cc1(in)) + 1
    NOR:     cc1 = sum(cc0(in)) + 1         cc0 = min(cc1(in)) + 1
    NOT:     cc1 = cc0(in) + 1              cc0 = cc1(in) + 1
    BUFF:    cc1 = cc1(in) + 1              cc0 = cc0(in) + 1
    XOR2:    cc1 = min(cc0+cc1', cc1+cc0') + 1
             cc0 = min(cc0+cc0', cc1+cc1') + 1
    XNOR2:   the XOR2 pair swapped

Backward pass: co(primary-output net) = 0; for a gate input position,
co = co(output) + sum(side-input sensitization cost) + 1 with AND/NAND
sides at cc1, OR/NOR sides at cc0, XOR/XNOR sides at min(cc0, cc1); a
net's co is the minimum over its load positions. The side sum of a
position is the gate's total sensitization cost less the position's own,
so each gate costs time linear in its input count.

n-ary XOR/XNOR are lowered to a balanced 2-input tree and MUX to its
AND/OR/NOT form before both passes; metrics for the synthesized nets are
dropped from the result.
"""

from __future__ import annotations

from dataclasses import dataclass

from .bench import mux_as_and_or
from .netlist import Gate, GateKind, Netlist

# Assigned to nets that no output depends on; large but finite so that
# selection scores stay orderable.
UNOBSERVABLE = 10**9


@dataclass(frozen=True)
class ScoapMetrics:
    """Per-net testability values; keys are the original netlist's nets."""

    cc0: dict[str, int]
    cc1: dict[str, int]
    co: dict[str, int]

    def score(self, net: str) -> int:
        """cc0 + cc1 + co, the hardest-to-resolve ranking used by selection."""
        return self.cc0[net] + self.cc1[net] + self.co[net]


def _lowered_gates(netlist: Netlist) -> list[Gate]:
    """Rewrite gates so only 2-input XOR/XNOR and no MUX remain.

    Synthesized nets use a '$' prefix, which cannot collide with real nets.
    """
    out: list[Gate] = []
    counter = 0

    def aux() -> str:
        nonlocal counter
        counter += 1
        return f"$s{counter}"

    def xor_tree(inputs: tuple[str, ...], top: str, top_kind: GateKind) -> None:
        def build(nets: tuple[str, ...]) -> str:
            if len(nets) == 1:
                return nets[0]
            mid = len(nets) // 2
            a, b = build(nets[:mid]), build(nets[mid:])
            name = aux()
            out.append(Gate(name, GateKind.XOR, (a, b)))
            return name

        mid = len(inputs) // 2
        left, right = build(inputs[:mid]), build(inputs[mid:])
        out.append(Gate(top, top_kind, (left, right)))

    for gate in netlist.topo_order():
        kind = gate.kind
        if kind in (GateKind.XOR, GateKind.XNOR) and len(gate.inputs) > 2:
            xor_tree(gate.inputs, gate.output, kind)
        elif kind is GateKind.MUX:
            out.extend(mux_as_and_or(gate, aux))
        else:
            out.append(gate)
    return out


def scoap(netlist: Netlist) -> ScoapMetrics:
    """Compute SCOAP metrics for every net of a netlist."""
    gates = _lowered_gates(netlist)

    cc0: dict[str, int] = {}
    cc1: dict[str, int] = {}
    for pi in netlist.primary_inputs:
        cc0[pi] = cc1[pi] = 1

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
        elif kind is GateKind.XOR:
            c1 = min(i0[0] + i1[1], i1[0] + i0[1]) + 1
            c0 = min(i0[0] + i0[1], i1[0] + i1[1]) + 1
        elif kind is GateKind.XNOR:
            c0 = min(i0[0] + i1[1], i1[0] + i0[1]) + 1
            c1 = min(i0[0] + i0[1], i1[0] + i1[1]) + 1
        else:  # pragma: no cover - MUX lowered away
            raise AssertionError(kind)
        cc0[gate.output], cc1[gate.output] = c0, c1

    co: dict[str, int] = {n: UNOBSERVABLE for n in cc0}
    for po in netlist.primary_outputs:
        co[po] = 0
    for gate in reversed(gates):
        out_co = co[gate.output]
        if out_co >= UNOBSERVABLE:
            continue
        kind = gate.kind
        if kind is GateKind.AND or kind is GateKind.NAND:
            costs = [cc1[i] for i in gate.inputs]
        elif kind is GateKind.OR or kind is GateKind.NOR:
            costs = [cc0[i] for i in gate.inputs]
        elif kind is GateKind.XOR or kind is GateKind.XNOR:
            costs = [min(cc0[i], cc1[i]) for i in gate.inputs]
        else:  # NOT / BUFF: no side inputs
            costs = [0]
        base = out_co + sum(costs) + 1  # a position adds all costs but its own
        for inp, own in zip(gate.inputs, costs):
            co[inp] = min(co[inp], base - own)

    real = set(netlist.nets)
    return ScoapMetrics(
        cc0={n: v for n, v in cc0.items() if n in real},
        cc1={n: v for n, v in cc1.items() if n in real},
        co={n: v for n, v in co.items() if n in real},
    )
