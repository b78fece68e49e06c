"""Post-obfuscation validation: structural interface checks and functional
verification with selectable exhaustive/SAT modes.

A locked design must keep the original primary outputs, keep the original
primary inputs, and add exactly the key inputs on top, each on a path to
some primary output; functionally it must match the original on every
input once the correct key is applied.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass
from itertools import compress
from typing import Sequence

from .attack import equivalence_check
from .locking import Key, LockedNetlist, apply_key, resolve_key_inputs
from .netlist import Gate, GateKind, Netlist, _hash_merge, check_table_fits, reach
from .netlist import table_fits, truth_tables, vector_assignment

AUTO_EXHAUSTIVE_LIMIT = 16  # <= 65,536 vectors stays exhaustive in auto mode


@dataclass(frozen=True)
class Verdict:
    structural_ok: bool
    structural_diagnostics: tuple[str, ...]
    functional: str  # equivalent | mismatch | skipped
    mode_used: str | None  # exhaustive | sat | None
    counterexample: dict[str, int] | None = None
    skip_reason: str | None = None

    def as_dict(self) -> dict:
        d = asdict(self)
        return {**d, "structural_diagnostics": list(d["structural_diagnostics"])}


def structural_check(locked: LockedNetlist | Netlist, original: Netlist) -> list[str]:
    """Interface diagnostics; empty list means the shape is right and
    every key input is a primary input some primary output depends on."""
    locked = resolve_key_inputs(locked)
    netlist, keys = locked.netlist, locked.key_inputs
    diags: list[str] = []

    expected = len(original.primary_inputs) + len(keys)
    if len(netlist.primary_inputs) != expected:
        diags.append(
            f"input count: locked has {len(netlist.primary_inputs)}, "
            f"expected {len(original.primary_inputs)} + {len(keys)} key inputs"
        )
    missing_pi = set(original.primary_inputs) - set(netlist.primary_inputs)
    if missing_pi:
        diags.append(
            f"original primary inputs missing: {', '.join(sorted(missing_pi))}"
        )
    for key in keys:
        if not netlist.is_primary_input(key):
            diags.append(f"key input is not a primary input: '{key}'")
        elif key not in netlist.output_cone():
            diags.append(f"key input reaches no primary output: '{key}'")

    locked_pos, orig_pos = set(netlist.primary_outputs), set(original.primary_outputs)
    for po in sorted(orig_pos - locked_pos):
        diags.append(f"primary output missing: '{po}'")
    for po in sorted(locked_pos - orig_pos):
        diags.append(f"unexpected primary output: '{po}'")
    return diags


def functional_verify(
    locked: LockedNetlist | Netlist,
    original: Netlist,
    key: Key | tuple[int, ...],
    mode: str = "auto",
) -> Verdict:
    """Check that the locked design under ``key`` matches the original.

    auto picks exhaustive enumeration up to AUTO_EXHAUSTIVE_LIMIT primary
    inputs while both truth tables fit (``table_fits``), and a SAT miter
    otherwise; exhaustive can be forced while both truth tables stay
    within EXHAUSTIVE_TABLE_BITS (2**inputs bits per net), beyond which
    it raises ValueError before any simulation.

    Exhaustive mode hashes both circuits onto one set of nodes
    (``netlist._hash_merge``). Outputs that land on one node are equal
    with no truth table built, so a correct key, whose key gates are now
    BUFFs, is proved by hashing alone. Truth tables cover only the cones
    of outputs on two nodes: first the first such output's, then, if it
    is equal after all, the union of the later ones'. The counterexample
    is the lowest differing vector of the first differing output, in the
    original's output order.
    """
    if mode not in ("auto", "exhaustive", "sat"):
        raise ValueError(f"unknown verify mode: {mode!r}")
    locked = resolve_key_inputs(locked)
    bits = locked.key_bits(key)

    diags = structural_check(locked, original)
    if diags:
        return Verdict(
            structural_ok=False,
            structural_diagnostics=tuple(diags),
            functional="skipped",
            mode_used=None,
            skip_reason="structural check failed",
        )

    n = len(original.primary_inputs)
    applied = apply_key(locked, bits)
    if mode == "auto":
        fits = table_fits(applied, n) and table_fits(original, n)
        mode = "exhaustive" if n <= AUTO_EXHAUSTIVE_LIMIT and fits else "sat"

    if mode == "exhaustive":
        order = original.primary_inputs
        for netlist in (applied, original):
            check_table_fits(netlist, n)
        j = _first_difference(applied, original, order)
        if j is None:
            return Verdict(True, (), "equivalent", "exhaustive")
        ctrex = vector_assignment(order, j)
        if applied.simulate(ctrex) == original.simulate(ctrex):
            raise AssertionError("counterexample does not replay in simulation")
        return Verdict(True, (), "mismatch", "exhaustive", counterexample=ctrex)

    res = equivalence_check(applied, original)
    if res.equivalent:
        return Verdict(True, (), "equivalent", "sat")
    return Verdict(True, (), "mismatch", "sat", counterexample=res.counterexample)


def _first_difference(
    applied: Netlist, original: Netlist, order: tuple[str, ...]
) -> int | None:
    """The lowest vector number over ``order`` on which the first output,
    in the original's order, differs between the circuits; None if none
    does."""
    kinds, fanin, (node_a, node_b) = _hash_merge((applied, original), order)
    pairs = [(node_a[po], node_b[po]) for po in original.primary_outputs]
    pairs = [(a, b) for a, b in pairs if a != b]
    for group in (pairs[:1], pairs[1:]):
        if not group:
            break
        words = _node_tables(kinds, fanin, group, order)
        for a, b in group:
            delta = words[a] ^ words[b]
            if delta:
                return (delta & -delta).bit_length() - 1
    return None


def _node_tables(
    kinds: list[GateKind | None],
    fanin: list[tuple[int, ...]],
    pairs: list[tuple[int, int]],
    order: tuple[str, ...],
) -> dict[int, int]:
    """Truth tables over ``order`` of the hashed nodes in ``pairs``, by
    node id, from one ``truth_tables`` call on their cones. Holding gates
    of both circuits, that cone can pass the table bound where neither
    circuit does; each side's cone then gets its own call, as it holds
    at most its own circuit's nets."""
    starts = [i for pair in pairs for i in pair]
    cones = [(starts, _cone_netlist(kinds, fanin, starts, order))]
    if not table_fits(cones[0][1], len(order)):
        cones = [(side, _cone_netlist(kinds, fanin, side, order))
                 for side in zip(*pairs)]
    words: dict[int, int] = {}
    for starts, cone in cones:
        table = truth_tables(cone, order)
        words.update(zip(starts, map(table.__getitem__, cone.primary_outputs)))
    return words


def _cone_netlist(
    kinds: list[GateKind | None],
    fanin: list[tuple[int, ...]],
    starts: Sequence[int],
    order: tuple[str, ...],
) -> Netlist:
    """The hashed nodes ``starts`` and their cone as a netlist whose
    primary inputs are ``order`` (node i being ``order[i]``) and whose
    outputs are ``starts``. A gate is named by its node id after a prefix
    that no input name starts with."""
    n = len(order)
    seen = reach(starts, fanin, bytearray(len(fanin)))
    for i in starts:
        seen[i] = 1
    prefix = "n"
    while any(pi.startswith(prefix) for pi in order):
        prefix += "_"
    names = dict(enumerate(order))
    gates = []
    for i in compress(range(n, len(fanin)), seen[n:]):
        names[i] = name = f"{prefix}{i}"
        gates.append(Gate(name, kinds[i], map(names.__getitem__, fanin[i])))
    return Netlist("cone", order, [names[i] for i in starts], gates)
