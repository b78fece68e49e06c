"""Combinational gate-level netlist IR: construction, validation, simulation,
and structural analysis (cones, fanout, counts).

A net is a named single-driver signal; drivers are primary inputs or gate
outputs. Netlists are immutable after construction — transformations build
new instances.
"""

from __future__ import annotations

import heapq
import re
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Container, Iterable, Mapping

from .errors import StructuralError, UnknownNet

NET_NAME_RE = re.compile(r"[A-Za-z0-9_]+")  # use with fullmatch


class GateKind(Enum):
    AND = "AND"
    NAND = "NAND"
    OR = "OR"
    NOR = "NOR"
    XOR = "XOR"
    XNOR = "XNOR"
    NOT = "NOT"
    BUFF = "BUFF"
    MUX = "MUX"

    def arity_ok(self, n: int) -> bool:
        exact = GATE_KINDS[self._value_][1]
        return n == exact if exact else n >= 2


# Every gate kind by its upper-case name, with its exact input count (0:
# two or more). BUF is an alias of BUFF.
GATE_KINDS: dict[str, tuple[GateKind, int]] = {
    "AND": (GateKind.AND, 0),
    "NAND": (GateKind.NAND, 0),
    "OR": (GateKind.OR, 0),
    "NOR": (GateKind.NOR, 0),
    "XOR": (GateKind.XOR, 0),
    "XNOR": (GateKind.XNOR, 0),
    "NOT": (GateKind.NOT, 1),
    "BUFF": (GateKind.BUFF, 1),
    "BUF": (GateKind.BUFF, 1),
    "MUX": (GateKind.MUX, 3),
}


@dataclass(frozen=True)
class Gate:
    """One gate: ``output = kind(inputs...)``. MUX input order is
    (select, in0, in1); select=0 picks in0."""

    output: str
    kind: GateKind
    inputs: tuple[str, ...]

    def __init__(self, output: str, kind: GateKind, inputs: Iterable[str]):
        object.__setattr__(self, "output", output)
        object.__setattr__(self, "kind", kind)
        object.__setattr__(self, "inputs", tuple(inputs))


@dataclass(frozen=True)
class CircuitStats:
    n_inputs: int
    n_outputs: int
    n_gates: int
    by_kind: tuple[tuple[str, int], ...]

    def as_dict(self) -> dict:
        return {
            "inputs": self.n_inputs,
            "outputs": self.n_outputs,
            "gates": self.n_gates,
            "by_kind": dict(self.by_kind),
        }


def eval_gate(kind: GateKind, vals: list[int], ones: int = 1) -> int:
    """Evaluate one gate over bit-parallel integer masks.

    ``ones`` is the all-ones mask for the simulation width; with ones=1 this
    is plain single-vector evaluation.
    """
    if kind is GateKind.AND or kind is GateKind.NAND:
        v = vals[0]
        for x in vals[1:]:
            v &= x
        return v ^ ones if kind is GateKind.NAND else v
    if kind is GateKind.OR or kind is GateKind.NOR:
        v = vals[0]
        for x in vals[1:]:
            v |= x
        return v ^ ones if kind is GateKind.NOR else v
    if kind is GateKind.XOR or kind is GateKind.XNOR:
        v = vals[0]
        for x in vals[1:]:
            v ^= x
        return v ^ ones if kind is GateKind.XNOR else v
    if kind is GateKind.NOT:
        return vals[0] ^ ones
    if kind is GateKind.BUFF:
        return vals[0]
    # MUX(select, in0, in1)
    s, a, b = vals
    return (a & (s ^ ones)) | (b & s)


class Netlist:
    """Ordered, immutable-by-convention combinational netlist.

    Parameters
    ----------
    name : str
        Circuit identifier.
    primary_inputs, primary_outputs : iterable of str
        Ordered port lists. Outputs name existing nets.
    gates : iterable of Gate
        Ordered gate list; order is preserved and used for tie-breaking.
    """

    def __init__(self, name, primary_inputs, primary_outputs, gates):
        self.name = name
        self.primary_inputs = tuple(primary_inputs)
        self.primary_outputs = tuple(primary_outputs)
        self.gates = tuple(gates)

        # Driver table in declaration order. First driver wins so that an
        # invalid netlist can still be inspected; duplicates are kept for
        # validate().
        self._driver: dict[str, Gate | None] = {}
        self._redefined: list[str] = []
        for pi in self.primary_inputs:
            if pi in self._driver:
                self._redefined.append(pi)
            else:
                self._driver[pi] = None
        for gate in self.gates:
            if gate.output in self._driver:
                self._redefined.append(gate.output)
            else:
                self._driver[gate.output] = gate

        self._loads: dict[str, list[tuple[int, int]]] | None = None
        self._fanin: dict[str, tuple[str, ...]] | None = None  # for tfi
        self._fanout: dict[str, list[str]] | None = None  # for tfo
        self._diags: tuple[str, ...] | None = None
        self._sorted: tuple[tuple[Gate, ...], tuple[Gate, ...]] | None = None
        self._po_slots: Counter[str] | None = None
        self._reads_unknown: bool | None = None  # a gate reads an unknown name

    # -- basic accessors ----------------------------------------------------

    @property
    def nets(self) -> tuple[str, ...]:
        """All net names, PIs first then gate outputs, in declaration order."""
        return tuple(self._driver)

    def has_net(self, net: str) -> bool:
        return net in self._driver

    def driver(self, net: str) -> Gate | None:
        """Driving gate of a net, or None for a primary input."""
        try:
            return self._driver[net]
        except KeyError:
            raise UnknownNet(f"unknown net: {net!r}") from None

    def is_primary_input(self, net: str) -> bool:
        return self.has_net(net) and self._driver[net] is None

    def _load_table(self) -> dict[str, list[tuple[int, int]]]:
        if self._loads is None:
            loads: dict[str, list[tuple[int, int]]] = {n: [] for n in self._driver}
            for gi, gate in enumerate(self.gates):
                for slot, inp in enumerate(gate.inputs):
                    if inp in loads:
                        loads[inp].append((gi, slot))
            self._loads = loads
        return self._loads

    def load_gates(self, net: str) -> list[Gate]:
        """Gates reading a net, in gate order (duplicates if read twice)."""
        if not self.has_net(net):
            raise UnknownNet(f"unknown net: {net!r}")
        return [self.gates[gi] for gi, _ in self._load_table()[net]]

    # -- validation ----------------------------------------------------------

    def validate(self) -> list[str]:
        """Return all invariant violations; an empty list means valid.

        Computed once per netlist; each call returns a fresh list.
        """
        if self._diags is None:
            self._diags = tuple(self._diagnostics())
        return list(self._diags)

    def _diagnostics(self) -> list[str]:
        diags: list[str] = []
        driver = self._driver
        if not (all(driver) and NET_NAME_RE.fullmatch("".join(driver))):
            diags.extend(
                f"bad net name: {net!r}"
                for net in driver
                if not NET_NAME_RE.fullmatch(net)
            )
        for net in self._redefined:
            diags.append(f"multi-driver: net '{net}' has more than one driver")
        for gate in self.gates:
            if not gate.kind.arity_ok(len(gate.inputs)):
                diags.append(
                    f"bad arity: gate '{gate.output}' = {gate.kind.value} "
                    f"with {len(gate.inputs)} input(s)"
                )
            for inp in gate.inputs:
                if inp not in driver:
                    diags.append(
                        f"undriven: gate '{gate.output}' reads unknown net '{inp}'"
                    )
        for po in self.primary_outputs:
            if po not in driver:
                diags.append(f"undriven: primary output '{po}' names no net")
        diags.extend(self._cycle_diagnostics())
        return diags

    def _cycle_diagnostics(self) -> list[str]:
        _, leftover = self._kahn()
        if not leftover:
            return []
        # Walk drivers inside the leftover set until a net repeats.
        member = {g.output for g in leftover}
        start = leftover[0].output
        seen: list[str] = []
        net = start
        while net not in seen:
            seen.append(net)
            gate = self._driver.get(net)
            if gate is None:
                break
            net = next((i for i in gate.inputs if i in member), gate.inputs[0])
        return [f"cycle: combinational loop through net '{net}'"]

    # -- topological order ----------------------------------------------------

    def _kahn(self) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
        """Deterministic Kahn layering; ties broken by original gate order.

        Returns (ordered gates, gates stuck on a cycle), computed once.
        """
        if self._sorted is not None:
            return self._sorted
        if not self._redefined and self._in_list_order():
            # the heap would pop every gate in list order
            self._sorted = (self.gates, ())
            return self._sorted
        pending = []
        missing = [0] * len(self.gates)
        waiting: dict[str, list[int]] = {}
        placed = {n for n, d in self._driver.items() if d is None}
        for gi, gate in enumerate(self.gates):
            need = 0
            for inp in set(gate.inputs):
                if inp in placed or inp not in self._driver:
                    continue
                need += 1
                waiting.setdefault(inp, []).append(gi)
            missing[gi] = need
            if need == 0:
                heapq.heappush(pending, gi)
        order: list[Gate] = []
        done = [False] * len(self.gates)
        while pending:
            gi = heapq.heappop(pending)
            done[gi] = True
            gate = self.gates[gi]
            order.append(gate)
            for wi in waiting.get(gate.output, ()):
                missing[wi] -= 1
                if missing[wi] == 0:
                    heapq.heappush(pending, wi)
        leftover = tuple(g for gi, g in enumerate(self.gates) if not done[gi])
        self._sorted = (tuple(order), leftover)
        return self._sorted

    def _in_list_order(self) -> bool:
        """Whether each gate reads only primary inputs, unknown names and
        outputs of earlier gates."""
        driver = self._driver
        placed = set(self.primary_inputs)
        for gate in self.gates:
            if not placed.issuperset(gate.inputs) and any(
                i in driver and i not in placed for i in gate.inputs
            ):
                return False
            placed.add(gate.output)
        return True

    def topo_order(self) -> tuple[Gate, ...]:
        """Gates ordered so each appears after the drivers of its inputs."""
        order, leftover = self._kahn()
        if leftover:
            raise StructuralError(self._cycle_diagnostics())
        return order

    # -- simulation -----------------------------------------------------------

    def simulate(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Evaluate the netlist on a total primary-input assignment.

        Returns the output assignment (PO name -> bit). Extra keys in
        ``assignment`` are ignored, which lets callers pass merged
        input+key dictionaries.
        """
        values = self.net_values(assignment)
        return {po: values[po] for po in self.primary_outputs}

    def net_values(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Like simulate() but returns the value of every net."""
        return simulate_words(self, assignment, 1)

    # -- structural analysis ----------------------------------------------------

    def tfi(self, net: str) -> set[str]:
        """Transitive fan-in: nets reachable backward through drivers,
        excluding ``net`` itself."""
        if not self.has_net(net):
            raise UnknownNet(f"unknown net: {net!r}")
        drivers = self._driver
        if self._fanin is None:
            self._fanin = {
                n: gate.inputs for n, gate in drivers.items() if gate is not None
            }
        cone = reach(net, self._fanin)
        if self._reads_unknown is None:
            self._reads_unknown = any(
                i not in drivers for gate in self.gates for i in gate.inputs
            )
        return cone & drivers.keys() if self._reads_unknown else cone

    def tfo(self, net: str) -> set[str]:
        """Transitive fan-out: nets reachable forward through gate inputs,
        excluding ``net`` itself."""
        if not self.has_net(net):
            raise UnknownNet(f"unknown net: {net!r}")
        if self._fanout is None:
            gates = self.gates
            self._fanout = {
                n: [gates[gi].output for gi, _ in loads]
                for n, loads in self._load_table().items()
            }
        return reach(net, self._fanout)

    def fanout_count(self, net: str) -> int:
        """Number of gate-input positions plus primary-output slots reading
        the net."""
        if not self.has_net(net):
            raise UnknownNet(f"unknown net: {net!r}")
        if self._po_slots is None:
            self._po_slots = Counter(self.primary_outputs)
        return len(self._load_table()[net]) + self._po_slots[net]

    def stats(self) -> CircuitStats:
        by_kind: dict[str, int] = {}
        for gate in self.gates:
            kind = gate.kind._value_
            by_kind[kind] = by_kind.get(kind, 0) + 1
        return CircuitStats(
            n_inputs=len(self.primary_inputs),
            n_outputs=len(self.primary_outputs),
            n_gates=len(self.gates),
            by_kind=tuple(sorted(by_kind.items())),
        )

    # -- comparison ---------------------------------------------------------------

    def gate_map(self) -> dict[str, tuple[GateKind, tuple[str, ...]]]:
        return {g.output: (g.kind, g.inputs) for g in self.gates}

    def structurally_equal(self, other: "Netlist") -> bool:
        """Same ports (ordered) and same gate set keyed by output net.

        Gate list order is not significant; gate input order is.
        """
        return (
            self.primary_inputs == other.primary_inputs
            and self.primary_outputs == other.primary_outputs
            and self.gate_map() == other.gate_map()
        )

    def __repr__(self):
        return (
            f"Netlist({self.name!r}, {len(self.primary_inputs)} PI, "
            f"{len(self.primary_outputs)} PO, {len(self.gates)} gates)"
        )


def simulate_words(
    netlist: Netlist, words: Mapping[str, int], width: int
) -> dict[str, int]:
    """Bit-parallel simulation of ``width`` input vectors at once.

    Bit j of ``words[pi]`` is the value of ``pi`` in vector j; the result
    holds every net's word in the same packing. Extra keys in ``words``
    are ignored. This is the one gate-evaluation loop: single vectors,
    sampled batches and truth tables all run through it.
    """
    ones = (1 << width) - 1
    values: dict[str, int] = {}
    for pi in netlist.primary_inputs:
        if pi not in words:
            raise UnknownNet(f"input error: missing primary input '{pi}'")
        word = int(words[pi])
        if word < 0 or word > ones:
            raise ValueError(
                f"value for '{pi}' does not fit {width} bit(s): {words[pi]!r}"
            )
        values[pi] = word
    for gate in netlist.topo_order():
        values[gate.output] = eval_gate(
            gate.kind, [values[i] for i in gate.inputs], ones
        )
    return values


EXHAUSTIVE_PI_LIMIT = 28


def input_patterns(n_inputs: int) -> list[int]:
    """Truth-table masks of inputs 0 .. n_inputs-1 over all 2**n_inputs
    vectors: bit j of mask i is bit i of the vector number j.

    The top mask is the upper half of the width; mask i is
    ``m ^ (m >> (1 << i))`` of the mask m of input i + 1.
    """
    if n_inputs == 0:
        return []
    half = 1 << (n_inputs - 1)
    masks = [((1 << half) - 1) << half]
    for i in range(n_inputs - 2, -1, -1):
        m = masks[-1]
        masks.append(m ^ (m >> (1 << i)))
    return masks[::-1]


def truth_tables(
    netlist: Netlist,
    input_order: Iterable[str] | None = None,
    extra: Mapping[str, int] | None = None,
) -> dict[str, int]:
    """Bit-parallel exhaustive simulation over all input vectors.

    Returns a mask per net: bit j of mask[n] is the value of net n under
    input vector j, where vector j assigns bit i of j to the i-th name in
    ``input_order`` (default: the netlist's PI order). Inputs listed in
    ``extra`` are held at the given constant instead of enumerated.
    Refuses more than EXHAUSTIVE_PI_LIMIT enumerated inputs.
    """
    extra = dict(extra or {})
    order = [
        pi
        for pi in (tuple(input_order) if input_order else netlist.primary_inputs)
        if pi not in extra
    ]
    n = len(order)
    if n > EXHAUSTIVE_PI_LIMIT:
        raise ValueError(
            f"{n} free inputs exceeds the exhaustive limit "
            f"({EXHAUSTIVE_PI_LIMIT}); use the SAT mode instead"
        )
    width = 1 << n
    words = dict(zip(order, input_patterns(n)))
    for pi, bit in extra.items():
        words[pi] = (1 << width) - 1 if bit else 0
    return simulate_words(netlist, words, width)


def vector_assignment(order: Iterable[str], j: int) -> dict[str, int]:
    """Decode truth-table vector number j into an input assignment."""
    return {pi: (j >> i) & 1 for i, pi in enumerate(order)}


def _fold_constants(
    kind: GateKind, ins: list[str], vals: list[int | None]
) -> tuple[int | None, GateKind | None, list[str]]:
    """Partial-evaluate one gate with some inputs constant and at least
    one not (so never a one-input gate; ``cofactor`` evaluates a gate whose
    inputs are all constant). Returns (constant, kind, inputs): either a
    constant output, or a simplified gate."""
    if kind in (GateKind.AND, GateKind.NAND):
        flip = kind is GateKind.NAND
        if 0 in vals:
            return (1 if flip else 0), None, []
        rest = [i for i, v in zip(ins, vals) if v is None]
        if len(rest) == 1:
            return None, (GateKind.NOT if flip else GateKind.BUFF), rest
        return None, kind, rest
    if kind in (GateKind.OR, GateKind.NOR):
        flip = kind is GateKind.NOR
        if 1 in vals:
            return (0 if flip else 1), None, []
        rest = [i for i, v in zip(ins, vals) if v is None]
        if len(rest) == 1:
            return None, (GateKind.NOT if flip else GateKind.BUFF), rest
        return None, kind, rest
    if kind in (GateKind.XOR, GateKind.XNOR):
        parity = 1 if kind is GateKind.XNOR else 0
        rest = []
        for i, v in zip(ins, vals):
            if v is None:
                rest.append(i)
            else:
                parity ^= v
        if len(rest) == 1:
            return None, (GateKind.NOT if parity else GateKind.BUFF), rest
        return None, (GateKind.XNOR if parity else GateKind.XOR), rest
    # MUX(select, in0, in1)
    s, a, b = vals
    if s is not None:
        pick = ins[2] if s else ins[1]
        v = vals[2] if s else vals[1]
        if v is not None:
            return v, None, []
        return None, GateKind.BUFF, [pick]
    if a is not None and b is not None:
        if a == b:
            return a, None, []
        # MUX(s, 0, 1) = s ; MUX(s, 1, 0) = NOT s
        return None, (GateKind.BUFF if b == 1 else GateKind.NOT), [ins[0]]
    return None, kind, list(ins)


def cofactor(
    netlist: Netlist, assignment: Mapping[str, int]
) -> tuple[list[Gate], dict[str, int]]:
    """Partial evaluation with the nets in ``assignment`` held constant.

    Returns (gates, const): the gates whose output still varies,
    simplified and in topological order, and every net with a fixed value,
    the assigned ones first. XOR(x,0) folds to BUFF(x), XOR(x,1) to
    NOT(x), XNOR dually; a MUX with a constant select collapses to the
    selected input; constants propagate through every gate kind. A gate
    may still read a net in ``const`` (a MUX data input); callers
    materialize such nets as they need.
    """
    const = dict(assignment)
    gates: list[Gate] = []
    for gate in netlist.topo_order():
        if const.keys().isdisjoint(gate.inputs):
            gates.append(gate)
            continue
        vals = [const.get(i) for i in gate.inputs]
        if None not in vals:
            const[gate.output] = eval_gate(gate.kind, vals)
            continue
        value, kind, ins = _fold_constants(gate.kind, list(gate.inputs), vals)
        if value is None:
            gates.append(Gate(gate.output, kind, ins))
        else:
            const[gate.output] = value
    return gates, const


def reach(start: str, table: Mapping[str, Iterable[str]]) -> set[str]:
    """Nets reachable from ``start`` through ``table``, excluding ``start``
    itself. The one cone walk: ``table`` maps a net to its fan-in for a
    transitive fan-in, to its readers' outputs for a transitive fan-out;
    a net missing from it has no successors.
    """
    get = table.get
    seen: set[str] = set()
    stack = [start]
    while stack:
        for nxt in get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    seen.discard(start)
    return seen


def fresh_name(base: str, taken: Container[str]) -> str:
    """First name of the form base / base_2 / base_3 ... not in ``taken``
    (only tested for membership, never copied)."""
    if base not in taken:
        return base
    i = 2
    while f"{base}_{i}" in taken:
        i += 1
    return f"{base}_{i}"
