"""Post-obfuscation validation: structural interface checks and functional
verification with selectable exhaustive/SAT modes.

A locked design must keep the original primary outputs, keep the original
primary inputs, and add exactly the key inputs on top, each on a path to
some primary output; functionally it must match the original on every
input once the correct key is applied.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

from .attack import equivalence_check
from .locking import Key, LockedNetlist, apply_key, resolve_key_inputs
from .netlist import Netlist, truth_tables, vector_assignment

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
    inputs and a SAT miter beyond; exhaustive can be forced up to
    EXHAUSTIVE_PI_LIMIT inputs, beyond which ``truth_tables`` raises
    ValueError.
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
    if mode == "auto":
        mode = "exhaustive" if n <= AUTO_EXHAUSTIVE_LIMIT else "sat"

    applied = apply_key(locked, bits)

    if mode == "exhaustive":
        order = original.primary_inputs
        tab_a = truth_tables(applied, order)
        tab_b = truth_tables(original, order)
        for po in original.primary_outputs:
            delta = tab_a[po] ^ tab_b[po]
            if delta:
                j = (delta & -delta).bit_length() - 1
                ctrex = vector_assignment(order, j)
                if applied.simulate(ctrex) == original.simulate(ctrex):
                    raise AssertionError("counterexample does not replay in simulation")
                return Verdict(
                    True, (), "mismatch", "exhaustive", counterexample=ctrex
                )
        return Verdict(True, (), "equivalent", "exhaustive")

    res = equivalence_check(applied, original)
    if res.equivalent:
        return Verdict(True, (), "equivalent", "sat")
    return Verdict(True, (), "mismatch", "sat", counterexample=res.counterexample)
