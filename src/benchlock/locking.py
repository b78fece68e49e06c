"""Deterministic key-gate insertion: net selection strategies plus
XOR/XNOR and MUX-with-dummy locking.

Key input i is named ``<prefix><i>`` (default prefix ``keyinput``). For a
gate-driven target net the driver's output is renamed to a fresh internal
net and the key gate takes over the original name, so every sink keeps
reading the name it always read. A primary-input target keeps its name
(the PI list must survive locking); instead the key-gate output gets the
fresh name and all sinks are rewired to it. Nets that are both a primary
input and a primary output cannot be locked either way, and a key gate on
a net that no primary output depends on would lock nothing; both are
excluded from eligibility.

All randomness comes from Python's Mersenne Twister (``random.Random``)
seeded per call; PRNG_NAME is echoed into reports so runs are pinned to
the generator that produced them.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, replace
from itertools import compress
from typing import Callable

from .errors import DummyError, LockError, SelectionError
from .netlist import Gate, GateKind, Netlist, cofactor, fresh_name, heap_order, reach
from .scoap import scoap

PRNG_NAME = "mt19937"
KEY_PREFIX = "keyinput"

SELECTION_STRATEGIES = ("random", "cone_size", "scoap", "sll", "fan_heavy")
KEYGATE_POLICIES = ("xor_only", "mux_only", "mixed")
DUMMY_POLICIES = ("constant", "primary_input", "other_cone_net", "random_function")
_RANDOM_FN_KINDS = (
    GateKind.AND,
    GateKind.OR,
    GateKind.NAND,
    GateKind.NOR,
    GateKind.XOR,
    GateKind.XNOR,
)


@dataclass(frozen=True)
class Key:
    """Ordered key bits; bit i belongs to key input ``<prefix><i>``."""

    bits: tuple[int, ...]

    def __post_init__(self):
        if any(b not in (0, 1) for b in self.bits):
            raise LockError(f"key bits must be 0/1: {self.bits}")

    def __len__(self):
        return len(self.bits)

    def __iter__(self):
        return iter(self.bits)

    def __getitem__(self, i):
        return self.bits[i]

    def to_string(self) -> str:
        return "".join(str(b) for b in self.bits)

    @classmethod
    def from_string(cls, text: str) -> "Key":
        text = text.strip()
        if not all(c in "01" for c in text):
            raise LockError(f"malformed key string: {text!r}")
        return cls(tuple(int(c) for c in text))

    def complemented(self) -> "Key":
        return Key(tuple(1 - b for b in self.bits))


@dataclass(frozen=True)
class LockRecord:
    """Ledger entry for one key bit."""

    index: int
    target: str
    gate_type: str  # XOR | XNOR | MUX
    pi_target: bool  # True when the locked net was a primary input
    carrier: str  # renamed pre-keygate net (gate mode) or rewired net (PI mode)
    dummy_policy: str | None = None
    dummy_net: str | None = None
    original_slot: int | None = None  # MUX data slot carrying the original


@dataclass(frozen=True)
class LockedNetlist:
    """A netlist and its key inputs, bit i's input at index i. A locked
    file read back from disk has no known correct key and no ledger."""

    netlist: Netlist
    key_inputs: tuple[str, ...]
    correct_key: Key | None = None
    ledger: tuple[LockRecord, ...] = ()

    @property
    def key_size(self) -> int:
        return len(self.key_inputs)

    @property
    def data_inputs(self) -> tuple[str, ...]:
        """The primary inputs that are not key inputs, in port order."""
        keys = set(self.key_inputs)
        return tuple(p for p in self.netlist.primary_inputs if p not in keys)

    def key_bits(self, key: Key | tuple[int, ...]) -> tuple[int, ...]:
        """The bits of ``key``; LockError unless there is one per key input."""
        bits = tuple(key)
        if len(bits) != self.key_size:
            raise LockError(
                f"key width {len(bits)} does not match {self.key_size} key inputs"
            )
        return bits


@dataclass(frozen=True)
class LockConfig:
    key_size: int
    keygate_policy: str = "xor_only"
    xor_fraction: float = 0.5
    selection: str = "random"
    dummy_policy: str = "other_cone_net"
    seed: int = 0
    preset: str | None = None
    key_prefix: str = KEY_PREFIX

    def normalized(self) -> "LockConfig":
        cfg = self
        if cfg.preset == "sat_hard":
            cfg = replace(
                cfg,
                keygate_policy="mixed",
                xor_fraction=0.5,
                selection="fan_heavy",
                dummy_policy="other_cone_net",
            )
        elif cfg.preset is not None:
            raise LockError(f"unknown preset: {cfg.preset!r}")
        if cfg.key_size < 1:
            raise LockError("key_size must be >= 1")
        if not 0.0 <= cfg.xor_fraction <= 1.0:
            raise LockError(f"xor_fraction out of range: {cfg.xor_fraction}")
        if cfg.keygate_policy not in KEYGATE_POLICIES:
            raise LockError(f"unknown keygate policy: {cfg.keygate_policy!r}")
        if cfg.selection not in SELECTION_STRATEGIES:
            raise LockError(f"unknown selection strategy: {cfg.selection!r}")
        if cfg.dummy_policy not in DUMMY_POLICIES:
            raise LockError(f"unknown dummy policy: {cfg.dummy_policy!r}")
        return cfg

    def as_dict(self) -> dict:
        return {**asdict(self), "prng": PRNG_NAME}


def generate_key(key_size: int, seed: int) -> Key:
    """Deterministic key bits from the seeded PRNG."""
    if key_size < 0:
        raise LockError("key_size must be >= 0")
    rng = random.Random(seed)
    return Key(tuple(rng.getrandbits(1) for _ in range(key_size)))


def eligible_nets(netlist: Netlist) -> list[str]:
    """Lockable nets in declaration order.

    A net qualifies when it is in ``netlist.output_cone()`` (a key gate
    on any other net would lock nothing), unless it is both a primary
    input and a primary output (no spot to splice a key gate without
    renaming a port).
    """
    cone = netlist.output_cone()
    ports = set(netlist.primary_inputs).intersection(netlist.primary_outputs)
    return [n for n in netlist.nets if n in cone and n not in ports]


def select_nets(
    netlist: Netlist, strategy: str, k: int, seed: int = 0
) -> list[str]:
    """Pick k distinct lock targets under the given strategy.

    random: uniform sample without replacement. cone_size: top-k by
    |tfi|+|tfo|. scoap: top-k by cc0+cc1+co. fan_heavy: top-k by
    fanout_count x driver arity (arity 1 for PIs). sll: greedy scan in
    cone_size order skipping nets on a shared path with a previous pick.
    Ties break by net name ascending.

    cone_size and sll rank by fan-in and fan-out bitsets (bit i is net i
    of ``netlist.nets``), built in one forward and one backward pass over
    ``topo_order()`` and dropped on return; |tfi|+|tfo| is a bit count,
    and sll tests a candidate against the union of the chosen cones.
    """
    if strategy not in SELECTION_STRATEGIES:
        raise SelectionError(f"unknown selection strategy: {strategy!r}")
    pool = eligible_nets(netlist)
    if k < 0:
        raise SelectionError("k must be >= 0")
    if k > len(pool):
        raise SelectionError(
            f"cannot select {k} nets: only {len(pool)} eligible"
        )
    if k == 0:
        return []

    if strategy == "random":
        return random.Random(seed).sample(pool, k)

    if strategy == "scoap":
        metrics = scoap(netlist)
        ranked = sorted(pool, key=lambda n: (-metrics.score(n), n))
        return ranked[:k]

    if strategy == "fan_heavy":
        def weight(n: str) -> int:
            gate = netlist.driver(n)
            arity = len(gate.inputs) if gate is not None else 1
            return netlist.fanout_count(n) * arity

        return sorted(pool, key=lambda n: (-weight(n), n))[:k]

    # cone_size and sll both rank by cone size
    order = netlist.topo_order()
    bit = {n: 1 << i for i, n in enumerate(netlist.nets)}
    fanin = dict.fromkeys(bit, 0)
    for gate in order:
        cone = 0
        for inp in gate.inputs:
            cone |= fanin[inp] | bit[inp]
        fanin[gate.output] = cone
    fanout = dict.fromkeys(bit, 0)
    for gate in reversed(order):
        cone = fanout[gate.output] | bit[gate.output]
        for inp in gate.inputs:
            fanout[inp] |= cone
    ranked = sorted(
        pool,
        key=lambda n: (-(fanin[n].bit_count() + fanout[n].bit_count()), n),
    )
    if strategy == "cone_size":
        return ranked[:k]

    chosen: list[str] = []
    covered = 0
    for cand in ranked:
        if covered & bit[cand]:
            continue
        chosen.append(cand)
        covered |= fanin[cand] | fanout[cand]
        if len(chosen) == k:
            return chosen
    raise SelectionError(
        f"sll found only {len(chosen)} path-disjoint nets; try k <= {len(chosen)}"
    )


# -- insertion ----------------------------------------------------------------


class _Workbench:
    """Mutable gate list while key gates are spliced in.

    Every net has an int id, its index in ``names``: the primary inputs,
    then each gate output as its gate is appended, each key input as it
    is added; ``ids`` maps a name back. Per id, ``gates`` holds the
    driving gate (None for an input), ``fanin`` the ids it reads and
    ``readers`` the ids of the gates reading it, once per input position.
    A splice renames in place, so ``names`` without the key inputs lists
    the candidate dummies in id order, and a MUX dummy walks only the
    target's cone, with ``reach`` on ``fanin`` and ``readers``. The same
    two tables give ``snapshot`` its topological gate order.
    """

    def __init__(self, netlist: Netlist, prefix: str):
        self.name = netlist.name
        self.pis = list(netlist.primary_inputs)
        self.pos = list(netlist.primary_outputs)
        self.original_pis = tuple(netlist.primary_inputs)
        self.prefix = prefix
        self.names = list(netlist.nets)
        ids, fanin = netlist.net_ids()
        self.ids = dict(ids)
        self.key_ids: list[int] = []
        self.gates: list[Gate | None] = [None] * len(self.pis)
        self.gates += netlist.gates
        # a splice replaces a reader's fan-in list, never changes it, so
        # the netlist's lists can be shared
        self.fanin = list(fanin)
        self.readers: list[list[int]] = [[] for _ in self.names]
        for i, ins in enumerate(self.fanin):
            for j in ins:
                self.readers[j].append(i)

    def snapshot(self) -> Netlist:
        """The netlist so far, its gates in the order the constructor's
        Kahn pass would give them: ``heap_order`` on the id tables, then
        any ids a loop held back, so the constructor reports the loop."""
        gates = self.gates
        order = heap_order(list(map(len, self.fanin)), self.readers)
        if len(order) < len(gates):
            order += sorted(set(range(len(gates))).difference(order))
        ordered = filter(None, map(gates.__getitem__, order))
        return Netlist(self.name, self.pis, self.pos, ordered)

    def _add(self, name: str, gate: Gate | None) -> int:
        """Give a new net the next id, wired to the existing nets the
        gate reads; returns the id."""
        i = len(self.names)
        self.names.append(name)
        self.ids[name] = i
        self.gates.append(gate)
        ins = list(map(self.ids.__getitem__, gate.inputs)) if gate else []
        self.fanin.append(ins)
        self.readers.append([])
        for j in ins:
            self.readers[j].append(i)
        return i

    def append(self, gate: Gate) -> int:
        return self._add(gate.output, gate)

    def fresh(self, base: str) -> str:
        """A name no net has yet; the caller drives it before the next
        ``fresh``."""
        return fresh_name(base, self.ids)

    def add_key_input(self, index: int) -> str:
        name = f"{self.prefix}{index}"
        if name in self.ids:
            raise LockError(f"net {name!r} already exists; refusing to lock")
        self.key_ids.append(self._add(name, None))
        self.pis.append(name)
        return name

    def outside_cone(self, net: str) -> list[str]:
        """Nets outside the transitive fan-in and fan-out of ``net``,
        other than ``net`` and the key inputs, in ``names`` order."""
        start = self.ids[net]
        seen = bytearray(len(self.names))
        for i in (*self.key_ids, start):
            seen[i] = 1
        reach((start,), self.fanin, seen)
        reach((start,), self.readers, seen)
        unseen = seen.translate(bytes.maketrans(b"\0\1", b"\1\0"))
        return list(compress(self.names, unseen))

    def splice(
        self, target: str, kind: GateKind, inputs: Callable[[str], tuple[str, ...]]
    ) -> tuple[str, bool]:
        """Splice the key gate ``kind(inputs(value))`` in front of
        ``target``'s sinks, ``value`` being the net that carries the
        target's original value; returns (value, pi_mode). Gate-driven
        target: the driver output is renamed to the fresh value net, and
        the key gate takes the original name and the sinks. PI target:
        the value is the target, and every sink is rewired to the key
        gate's fresh output."""
        t = self.ids[target]
        old = self.gates[t]
        if old is None:
            if target in self.pos:
                raise LockError(
                    f"cannot lock {target!r}: it is both a primary input "
                    "and a primary output"
                )
            value, out = target, self.fresh(f"{target}_keyed")
            for r in self.readers[t]:
                g = self.gates[r]
                self.gates[r] = Gate(
                    g.output, g.kind, (out if i == target else i for i in g.inputs)
                )
        else:
            value, out = self.fresh(f"{target}_pre"), target
            self.gates[t] = Gate(value, old.kind, old.inputs)
            self.names[t] = value
            self.ids[value] = self.ids.pop(target)
        sinks, self.readers[t] = self.readers[t], []
        k = self.append(Gate(out, kind, inputs(value)))
        self.readers[k] = sinks
        for r in sinks:
            self.fanin[r] = [k if j == t else j for j in self.fanin[r]]
        return value, old is None


def _dummy_net(
    bench: _Workbench,
    bit_index: int,
    target: str,
    policy: str,
    rng: random.Random,
) -> tuple[str, str]:
    """Pick or synthesize the dummy input for one MUX key gate.

    Returns (dummy net, description for the ledger). The cone filter keeps
    the dummy outside tfi/tfo of the locked net so insertion can never
    close a cycle. The candidates come in the workbench's id order (the
    original nets in ``nets`` order, then the nets each earlier bit
    added), so the seeded picks do not depend on how the cone was found.
    """
    if policy == "constant":
        bit = rng.getrandbits(1)
        # anchor must differ from the target: a PI-mode lock rewires every
        # reader of the target net, which would loop the constant back
        # through the key gate
        anchor = next((p for p in bench.original_pis if p != target), None)
        if anchor is None:
            raise DummyError(f"no primary input to anchor a constant for {target!r}")
        net = bench.fresh(f"km{bit_index}_c{bit}")
        kind = GateKind.XNOR if bit else GateKind.XOR
        bench.append(Gate(net, kind, (anchor, anchor)))
        return net, f"constant{bit}"

    if policy == "primary_input":
        pool = [p for p in bench.original_pis if p != target]
        if not pool:
            raise DummyError(f"no primary input available as dummy for {target!r}")
        return rng.choice(pool), "primary_input"

    pool = bench.outside_cone(target)
    if policy == "other_cone_net":
        if not pool:
            raise DummyError(f"no net outside the cone of {target!r}")
        return rng.choice(pool), "other_cone_net"

    # random_function: depth <= 2 gate tree over 2-3 cone-safe nets
    want = rng.choice((2, 3))
    if len(pool) < 2:
        raise DummyError(f"too few nets to build a dummy function for {target!r}")
    want = min(want, len(pool))
    operands = rng.sample(pool, want)
    if want == 2 or rng.getrandbits(1):
        net = bench.fresh(f"km{bit_index}_f0")
        bench.append(Gate(net, rng.choice(_RANDOM_FN_KINDS), operands))
        return net, "random_function"
    inner = bench.fresh(f"km{bit_index}_f0")
    bench.append(Gate(inner, rng.choice(_RANDOM_FN_KINDS), operands[:2]))
    net = bench.fresh(f"km{bit_index}_f1")
    bench.append(Gate(net, rng.choice(_RANDOM_FN_KINDS), (inner, operands[2])))
    return net, "random_function"


def _insert(
    netlist: Netlist,
    plan: list[tuple[int, str, int, str]],
    dummy_policy: str,
    rng: random.Random,
    prefix: str,
) -> LockedNetlist:
    """Splice key gates per plan entries (index, target, bit, style) into
    a netlist."""
    targets = [t for _, t, _, _ in plan]
    if len(set(targets)) != len(targets):
        raise LockError("lock targets must be distinct")
    bench = _Workbench(netlist, prefix)
    records: list[LockRecord] = []
    key_inputs: list[str] = []
    bits: list[int] = []

    for index, target, bit, style in plan:
        if target not in bench.ids:
            raise LockError(f"cannot lock unknown net {target!r}")
        if style == "mux":
            dummy, policy_desc = _dummy_net(
                bench, index, target, dummy_policy, rng
            )
        key_in = bench.add_key_input(index)
        if style == "xor":
            kind, mux = (GateKind.XNOR if bit else GateKind.XOR), {}
            carrier, pi_mode = bench.splice(target, kind, lambda v: (v, key_in))
        else:
            kind = GateKind.MUX
            mux = dict(dummy_policy=policy_desc, dummy_net=dummy, original_slot=bit)
            carrier, pi_mode = bench.splice(
                target, kind, lambda v: (key_in, dummy, v) if bit else (key_in, v, dummy)
            )
        records.append(LockRecord(index, target, kind.value, pi_mode, carrier, **mux))
        key_inputs.append(key_in)
        bits.append(bit)

    return LockedNetlist(
        bench.snapshot(), tuple(key_inputs), Key(tuple(bits)), tuple(records)
    )


def insert_xor_keygates(
    netlist: Netlist,
    nets: list[str],
    key_bits: Key | tuple[int, ...],
    prefix: str = KEY_PREFIX,
) -> LockedNetlist:
    """XOR/XNOR-lock each net: bit 0 inserts XOR, bit 1 inserts XNOR, so
    the correct key always restores the original value."""
    bits = tuple(key_bits)
    if len(nets) != len(bits):
        raise LockError(f"{len(nets)} nets vs {len(bits)} key bits")
    plan = [(i, n, b, "xor") for i, (n, b) in enumerate(zip(nets, bits))]
    return _insert(netlist, plan, "other_cone_net", random.Random(0), prefix)


def insert_mux_keygates(
    netlist: Netlist,
    nets: list[str],
    key_bits: Key | tuple[int, ...],
    dummy_policy: str = "other_cone_net",
    seed: int = 0,
    prefix: str = KEY_PREFIX,
) -> LockedNetlist:
    """MUX-lock each net against a policy-chosen dummy; the correct key
    bit selects the slot carrying the original value.

    Per-bit gate cost: 1 MUX, plus 1 gate for a constant dummy and up to
    2 for a random_function dummy (primary_input and other_cone_net add
    none).
    """
    bits = tuple(key_bits)
    if len(nets) != len(bits):
        raise LockError(f"{len(nets)} nets vs {len(bits)} key bits")
    if dummy_policy not in DUMMY_POLICIES:
        raise LockError(f"unknown dummy policy: {dummy_policy!r}")
    plan = [(i, n, b, "mux") for i, (n, b) in enumerate(zip(nets, bits))]
    return _insert(netlist, plan, dummy_policy, random.Random(seed), prefix)


def lock(netlist: Netlist, config: LockConfig) -> tuple[LockedNetlist, Key]:
    """Full locking flow: key generation, net selection, key-gate insertion.

    Byte-deterministic for a fixed (netlist, config): all sub-seeds derive
    from config.seed.
    """
    cfg = config.normalized()
    root = random.Random(cfg.seed)
    key_seed, select_seed, split_seed, dummy_seed = (
        root.getrandbits(64) for _ in range(4)
    )
    key = generate_key(cfg.key_size, key_seed)
    nets = select_nets(netlist, cfg.selection, cfg.key_size, select_seed)

    if cfg.keygate_policy == "xor_only":
        styles = ["xor"] * cfg.key_size
    elif cfg.keygate_policy == "mux_only":
        styles = ["mux"] * cfg.key_size
    else:
        n_xor = round(cfg.key_size * cfg.xor_fraction)
        order = list(range(cfg.key_size))
        random.Random(split_seed).shuffle(order)
        xor_idx = set(order[:n_xor])
        styles = ["xor" if i in xor_idx else "mux" for i in range(cfg.key_size)]

    plan = [
        (i, nets[i], key[i], styles[i]) for i in range(cfg.key_size)
    ]
    locked = _insert(
        netlist, plan, cfg.dummy_policy, random.Random(dummy_seed), cfg.key_prefix
    )
    return locked, locked.correct_key


# -- key application -----------------------------------------------------------


def apply_key(
    locked: LockedNetlist | Netlist,
    key: Key | tuple[int, ...],
) -> Netlist:
    """Substitute key constants, simplify with ``cofactor`` and restore the
    original PI/PO interface.

    A constant net that a gate or a primary output still reads is
    re-expressed inside the gate alphabet as XOR(x,x) / XNOR(x,x) over the
    first primary input.
    """
    locked = resolve_key_inputs(locked)
    netlist, pis = locked.netlist, locked.data_inputs
    bits = locked.key_bits(key)
    gates, const = cofactor(netlist, dict(zip(locked.key_inputs, bits)))

    # materialize constant nets that something still reads
    still_read = {i for g in gates for i in g.inputs} | set(netlist.primary_outputs)
    anchor = pis[0] if pis else None
    header: list[Gate] = []
    for net, bit in const.items():
        if net not in still_read:
            continue
        if anchor is None:
            raise LockError("cannot materialize a constant without any primary input")
        header.append(Gate(net, GateKind.XNOR if bit else GateKind.XOR, (anchor, anchor)))

    return Netlist(netlist.name, pis, netlist.primary_outputs, header + gates)


def detect_key_inputs(netlist: Netlist, prefix: str = KEY_PREFIX) -> list[str]:
    """Key inputs among the PIs, by prefix convention.

    When every match is ``<prefix><number>`` they come back in numeric
    order (bit i of a key file belongs to ``<prefix><i>``); otherwise the
    PI order is kept.
    """
    found = [pi for pi in netlist.primary_inputs if pi.startswith(prefix)]
    suffixes = [pi[len(prefix):] for pi in found]
    if found and all(s.isdigit() for s in suffixes):
        return [pi for _, pi in sorted(zip((int(s) for s in suffixes), found))]
    return found


def resolve_key_inputs(
    locked: LockedNetlist | Netlist, key_prefix: str = KEY_PREFIX
) -> LockedNetlist:
    """The one place a naming convention becomes key inputs.

    A LockedNetlist carries its own key inputs and comes back unchanged.
    A plain Netlist gets the key inputs ``detect_key_inputs`` finds by
    ``key_prefix``. Every function that takes either resolves it here with
    the default prefix; to use another, resolve the netlist first.
    """
    if isinstance(locked, LockedNetlist):
        return locked
    return LockedNetlist(locked, tuple(detect_key_inputs(locked, key_prefix)))


# -- key files ------------------------------------------------------------------


def emit_key_file(
    key: Key, comment: str | None = None, first_input: str = f"{KEY_PREFIX}0"
) -> str:
    """Key file text; the header names ``first_input``, the key input
    that bit 0 belongs to."""
    lines = [f"# {comment}"] if comment else []
    lines.append(f"# {len(key)} key bits, index 0 = {first_input}")
    lines.append(key.to_string())
    return "\n".join(lines) + "\n"


def parse_key_file(text: str) -> Key:
    payload = [
        line.strip()
        for line in text.splitlines()
        if line.strip() and not line.lstrip().startswith("#")
    ]
    if len(payload) != 1:
        raise LockError(
            f"key file must hold exactly one bit line, found {len(payload)}"
        )
    return Key.from_string(payload[0])
