"""Combinational gate-level netlist IR: construction, simulation, and
structural analysis (cones, fanout, counts).

A net is a named single-driver signal; drivers are primary inputs or gate
outputs. A Netlist is valid by construction, so no caller checks one it is
given. Netlists are immutable after construction — transformations build
new instances.
"""

from __future__ import annotations

import heapq
import re
import sys
from collections import Counter
from dataclasses import dataclass
from enum import Enum
from itertools import chain, compress, repeat
from operator import itemgetter
from typing import Container, Iterable, Mapping, NamedTuple, Sequence

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
# The kinds by module-level name, for is-dispatch in _eval_into and
# _fold_constants.
_AND, _NAND, _OR, _NOR, _XOR, _XNOR, _NOT, _BUFF, _MUX = GateKind
# The input counts each kind takes, by kind value.
_ARITY = {
    name: range(exact, exact + 1) if exact else range(2, sys.maxsize)
    for name, (_, exact) in GATE_KINDS.items()
}


class _GateFields(NamedTuple):
    output: str
    kind: GateKind
    inputs: tuple[str, ...]


class Gate(_GateFields):
    """One gate: ``output = kind(inputs...)``, an immutable named tuple;
    the constructor turns ``inputs`` into a tuple. MUX input order is
    (select, in0, in1); select=0 picks in0."""

    __slots__ = ()

    def __new__(cls, output: str, kind: GateKind, inputs: Iterable[str]):
        return tuple.__new__(cls, (output, kind, tuple(inputs)))


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


def _eval_into(values: dict | list, gates: Iterable[Gate], ones: int) -> dict | list:
    """The one gate-evaluation loop: write each ``(output, kind, inputs)``
    gate's word, in order, into ``values`` (by net, or by index) and return
    it. ``ones`` is the all-ones mask of the width; NOT, NAND, NOR and XNOR
    flip with ``^ ones``, BUFF aliases its input's word, and n-ary gates
    fold left to right."""
    for out, kind, ins in gates:
        if kind is _BUFF:
            values[out] = values[ins[0]]
        elif kind is _NOT:
            values[out] = values[ins[0]] ^ ones
        elif kind is _MUX:  # (select, in0, in1); select=0 picks in0
            s, a, b = ins
            s = values[s]
            values[out] = (values[a] & ~s) | (values[b] & s)
        else:
            v = values[ins[0]]
            if kind is _AND or kind is _NAND:
                for i in ins[1:]:
                    v &= values[i]
                values[out] = v ^ ones if kind is _NAND else v
            elif kind is _OR or kind is _NOR:
                for i in ins[1:]:
                    v |= values[i]
                values[out] = v ^ ones if kind is _NOR else v
            else:
                for i in ins[1:]:
                    v ^= values[i]
                values[out] = v ^ ones if kind is _XNOR else v
    return values


def eval_gate(kind: GateKind, vals: list[int], ones: int = 1) -> int:
    """One gate of the ``_eval_into`` loop over bit-parallel masks; with
    ones=1 this is plain single-vector evaluation."""
    return _eval_into([*vals, 0], [(-1, kind, range(len(vals)))], ones)[-1]


class Netlist:
    """Ordered, immutable-by-convention combinational netlist, valid by
    construction: the constructor raises StructuralError carrying every
    diagnostic, in this order: bad net names, multiple drivers, bad arity
    and reads of unknown nets, outputs that name no net, then a cycle.

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
        self.primary_inputs = pis = tuple(primary_inputs)
        self.primary_outputs = tuple(primary_outputs)
        self.gates = gates = tuple(gates)

        # Driver table in declaration order; a net driven twice keeps its
        # first driver, so the diagnostics can still walk the netlist.
        driver: dict[str, Gate | None] = dict.fromkeys(pis)
        driver.update(zip(map(itemgetter(0), gates), gates))
        redefined: list[str] = []
        if len(driver) < len(pis) + len(gates):
            driver = {}
            pairs = chain(zip(pis, repeat(None)), zip(map(itemgetter(0), gates), gates))
            for net, gate in pairs:
                if net in driver:
                    redefined.append(net)
                else:
                    driver[net] = gate
        self._driver = driver

        # One pass over the gates: a gate reading a net that is neither a
        # primary input nor an earlier gate's output (a later driver or an
        # unknown net) is late, one with the wrong input count a misfit.
        placed = set(pis)
        issuperset, place = placed.issuperset, placed.add
        late: list[int] = []
        misfit: list[int] = []
        for gi, (out, kind, ins) in enumerate(gates):
            if not issuperset(ins):
                late.append(gi)
            elif len(ins) not in _ARITY[kind._value_]:
                misfit.append(gi)
            place(out)

        # the heap would pop an in-order gate list in list order
        order, leftover = self._kahn() if late or redefined else (gates, ())
        diags = self._diagnostics(redefined, sorted(late + misfit), leftover)
        if diags:
            raise StructuralError(diags)
        self._order = order
        self._reads: Counter[str] | None = None  # for fanout_count
        self._ids: tuple[dict[str, int], list[list[int]]] | None = None
        self._cone: frozenset[str] | None = None  # for output_cone

    # -- basic accessors ----------------------------------------------------

    @property
    def nets(self) -> tuple[str, ...]:
        """All net names, PIs first then gate outputs, in declaration order."""
        return tuple(self._driver)

    def has_net(self, net: str) -> bool:
        return net in self._driver

    def _require_net(self, net: str) -> None:
        if net not in self._driver:
            raise UnknownNet(f"unknown net: {net!r}")

    def driver(self, net: str) -> Gate | None:
        """Driving gate of a net, or None for a primary input."""
        self._require_net(net)
        return self._driver[net]

    def is_primary_input(self, net: str) -> bool:
        return self.has_net(net) and self._driver[net] is None

    # -- construction checks ---------------------------------------------------

    def _diagnostics(
        self, redefined: list[str], flagged: list[int], leftover: tuple[Gate, ...]
    ) -> list[str]:
        """Every diagnostic; only ``flagged`` gates can hold the per-gate ones."""
        diags: list[str] = []
        driver = self._driver
        if not (all(driver) and NET_NAME_RE.fullmatch("".join(driver))):
            diags.extend(
                f"bad net name: {net!r}"
                for net in driver
                if not NET_NAME_RE.fullmatch(net)
            )
        for net in redefined:
            diags.append(f"multi-driver: net '{net}' has more than one driver")
        for gi in flagged:
            out, kind, ins = self.gates[gi]
            if len(ins) not in _ARITY[kind._value_]:
                diags.append(
                    f"bad arity: gate '{out}' = {kind.value} with {len(ins)} input(s)"
                )
            for inp in ins:
                if inp not in driver:
                    diags.append(f"undriven: gate '{out}' reads unknown net '{inp}'")
        for po in self.primary_outputs:
            if po not in driver:
                diags.append(f"undriven: primary output '{po}' names no net")
        if leftover:
            diags.append(self._cycle_diagnostic(leftover))
        return diags

    def _cycle_diagnostic(self, leftover: tuple[Gate, ...]) -> str:
        # Walk drivers inside the leftover set until a net repeats.
        member = {g.output for g in leftover}
        seen: list[str] = []
        net = leftover[0].output
        while net not in seen:
            seen.append(net)
            gate = self._driver.get(net)
            if gate is None:
                break
            net = next((i for i in gate.inputs if i in member), gate.inputs[0])
        return f"cycle: combinational loop through net '{net}'"

    # -- topological order ----------------------------------------------------

    def _kahn(self) -> tuple[tuple[Gate, ...], tuple[Gate, ...]]:
        """``heap_order`` on gate indices: a gate waits once for each
        distinct gate-driven net it reads. Returns (ordered gates, gates
        stuck on a cycle).
        """
        gates, driver = self.gates, self._driver
        missing = [0] * len(gates)
        waiting: dict[str, list[int]] = {}
        for gi, (_, _, ins) in enumerate(gates):
            for inp in set(ins):
                if driver.get(inp) is not None:
                    missing[gi] += 1
                    waiting.setdefault(inp, []).append(gi)
        order = heap_order(missing, [waiting.get(g.output, ()) for g in gates])
        done = set(order)
        leftover = tuple(g for gi, g in enumerate(gates) if gi not in done)
        return tuple(map(gates.__getitem__, order)), leftover

    def topo_order(self) -> tuple[Gate, ...]:
        """Gates ordered so each appears after the drivers of its inputs."""
        return self._order

    # -- simulation -----------------------------------------------------------

    def simulate(self, assignment: Mapping[str, int]) -> dict[str, int]:
        """Evaluate the netlist on a total primary-input assignment.

        Returns the output assignment (PO name -> bit). Extra keys in
        ``assignment`` are ignored, which lets callers pass merged
        input+key dictionaries.
        """
        values = simulate_words(self, assignment, 1)
        return {po: values[po] for po in self.primary_outputs}

    # -- structural analysis ----------------------------------------------------

    def net_ids(self) -> tuple[dict[str, int], list[list[int]]]:
        """(ids, fanin): each net's index in ``nets``, and per index the
        ones its driver reads. Built once and shared: change only a copy."""
        if self._ids is None:
            ids = dict(zip(self._driver, range(len(self._driver))))
            fanin = [[] for _ in self.primary_inputs]
            fanin += [[ids[i] for i in g.inputs] for g in self.gates]
            self._ids = ids, fanin
        return self._ids

    def output_cone(self) -> frozenset[str]:
        """Nets some primary output depends on: the outputs and every net
        on a path to one. One walk back from all outputs at once, on net
        ids, computed once."""
        if self._cone is None:
            ids, fanin = self.net_ids()
            starts = [ids[po] for po in self.primary_outputs]
            seen = reach(starts, fanin, bytearray(len(ids)))
            self._cone = frozenset(compress(ids, seen)).union(self.primary_outputs)
        return self._cone

    def fanout_count(self, net: str) -> int:
        """Number of gate-input positions plus primary-output slots reading
        the net."""
        self._require_net(net)
        if self._reads is None:
            inputs = chain.from_iterable(map(itemgetter(2), self.gates))
            self._reads = Counter(chain(inputs, self.primary_outputs))
        return self._reads[net]

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
    holds every net's word in the same packing: primary inputs, then the
    gates in ``topo_order()``. Extra keys in ``words`` are ignored. Single
    vectors, sampled batches and truth tables all run ``_eval_into`` here.
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
    return _eval_into(values, netlist.topo_order(), ones)


# Most bits the words of one truth table may hold together (512 MiB): 2**n
# for each input and gate of the netlist, n being the enumerated inputs.
EXHAUSTIVE_TABLE_BITS = 1 << 32


def table_fits(netlist: Netlist, n: int) -> bool:
    """Whether a truth table of ``netlist`` over n enumerated inputs stays
    within EXHAUSTIVE_TABLE_BITS."""
    nets = len(netlist.primary_inputs) + len(netlist.gates)
    return nets << n <= EXHAUSTIVE_TABLE_BITS


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
    Refuses an ``input_order`` with a repeated name or a name that is not
    a primary input, and a table of more than EXHAUSTIVE_TABLE_BITS bits:
    2**n for each of the netlist's inputs and gates, n enumerated inputs.
    """
    extra = dict(extra or {})
    names = tuple(input_order or netlist.primary_inputs)
    for pi, count in Counter(names).items():
        if count > 1 or not netlist.is_primary_input(pi):
            what = "repeats" if count > 1 else "names a non-input:"
            raise ValueError(f"input_order {what} {pi!r}")
    order = [pi for pi in names if pi not in extra]
    n = len(order)
    if not table_fits(netlist, n):
        nets = len(netlist.primary_inputs) + len(netlist.gates)
        raise ValueError(
            f"{n} free inputs over {nets} nets exceed the exhaustive table "
            f"bound ({EXHAUSTIVE_TABLE_BITS} bits); use mode 'sat' instead"
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
    if kind is _MUX:  # (select, in0, in1)
        s, a, b = vals
        if s is not None:
            pick = ins[2] if s else ins[1]
            v = vals[2] if s else vals[1]
            if v is not None:
                return v, None, []
            return None, _BUFF, [pick]
        if a is not None and b is not None:
            if a == b:
                return a, None, []
            # MUX(s, 0, 1) = s ; MUX(s, 1, 0) = NOT s
            return None, (_BUFF if b == 1 else _NOT), [ins[0]]
        return None, kind, ins
    if kind is _XOR or kind is _XNOR:
        parity = 1 if kind is _XNOR else 0
        rest = []
        for i, v in zip(ins, vals):
            if v is None:
                rest.append(i)
            else:
                parity ^= v
        if len(rest) == 1:
            return None, (_NOT if parity else _BUFF), rest
        return None, (_XNOR if parity else _XOR), rest
    # the AND/OR family: its controlling input value, and whether it inverts
    control = 1 if kind is _OR or kind is _NOR else 0
    flip = 1 if kind is _NAND or kind is _NOR else 0
    if control in vals:
        return control ^ flip, None, []
    rest = [i for i, v in zip(ins, vals) if v is None]
    if len(rest) == 1:
        return None, (_NOT if flip else _BUFF), rest
    return None, kind, rest


def cofactor(
    netlist: Netlist, assignment: Mapping[str, int]
) -> tuple[list[Gate], dict[str, int]]:
    """Partial evaluation with the nets in ``assignment`` held constant.

    Returns (gates, const): the gates whose output still varies,
    simplified and in topological order, and every net with a fixed value,
    the assigned ones first. XOR(x,0) folds to BUFF(x), XOR(x,1) to
    NOT(x), XNOR dually; a MUX with a constant select collapses to the
    selected input; ``_eval_into`` writes a gate with all inputs constant
    straight into ``const``. A gate may still read a net in ``const`` (a
    MUX data input); callers materialize such nets as they need.
    """
    const = dict(assignment)
    gates: list[Gate] = []
    for gate in netlist.topo_order():
        if const.keys().isdisjoint(gate.inputs):
            gates.append(gate)
            continue
        vals = [const.get(i) for i in gate.inputs]
        if None not in vals:
            _eval_into(const, (gate,), 1)
            continue
        value, kind, ins = _fold_constants(gate.kind, list(gate.inputs), vals)
        if value is None:
            gates.append(Gate(gate.output, kind, ins))
        else:
            const[gate.output] = value
    return gates, const


def heap_order(missing: list[int], readers: Sequence[Iterable[int]]) -> list[int]:
    """The one topological sort: Kahn's on ids, popping the smallest ready
    id, so an id order that is already topological comes back unchanged.
    ``missing[i]`` (used up) counts what id i waits for, ``readers[i]``
    the ids waiting for i, once per count; ids on or behind a loop never
    pop."""
    ready = [i for i, m in enumerate(missing) if not m]  # sorted, so a heap
    order: list[int] = []
    pop, push, emit = heapq.heappop, heapq.heappush, order.append
    while ready:
        i = pop(ready)
        emit(i)
        for r in readers[i]:
            missing[r] -= 1
            if not missing[r]:
                push(ready, r)
    return order


def reach(
    starts: Iterable[int], table: Sequence[Iterable[int]], seen: bytearray
) -> bytearray:
    """Mark in ``seen`` every net id reachable from ``starts`` through
    ``table``, and return it. The one cone walk: ``table`` maps a net id
    to its fan-in ids for a transitive fan-in, to its readers' ids for a
    transitive fan-out. The walk does not pass a net already marked, and
    marks a start only when another start reaches it.
    """
    stack = list(starts)
    pop, push = stack.pop, stack.append
    while stack:
        for nxt in table[pop()]:
            if not seen[nxt]:
                seen[nxt] = 1
                push(nxt)
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
