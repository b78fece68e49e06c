"""Queries that only tests use. On net names: the transitive fan-in and
fan-out of one net, the gates reading it, and structural equality of two
netlists; the program's one cone walk (``benchlock.netlist.reach``) runs
on net ids, and these cones are what it is checked against. On CNF: an
exhaustive satisfiability check, independent of the CDCL solver. On
verification: the exhaustive verdict from both circuits' full truth
tables, which ``functional_verify`` is checked against."""

from benchlock.cnf import CnfFormula
from benchlock.errors import CnfError
from benchlock.netlist import (
    Gate,
    GateKind,
    Netlist,
    input_patterns,
    truth_tables,
    vector_assignment,
)
from benchlock.verify import Verdict


def _walk(net: str, step) -> set[str]:
    seen: set[str] = set()
    stack = [net]
    while stack:
        for nxt in step(stack.pop()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    seen.discard(net)
    return seen


def tfi(netlist: Netlist, net: str) -> set[str]:
    """Nets reachable backward through drivers, excluding ``net``;
    UnknownNet for a net the netlist lacks."""
    netlist.driver(net)
    return _walk(net, lambda n: getattr(netlist.driver(n), "inputs", ()))


def tfo(netlist: Netlist, net: str) -> set[str]:
    """Nets reachable forward through gate inputs, excluding ``net``;
    UnknownNet for a net the netlist lacks."""
    netlist.driver(net)
    readers: dict[str, list[str]] = {}
    for gate in netlist.gates:
        for inp in gate.inputs:
            readers.setdefault(inp, []).append(gate.output)
    return _walk(net, lambda n: readers.get(n, ()))


def load_gates(netlist: Netlist, net: str) -> list[Gate]:
    """Gates reading a net, in gate order (duplicates if read twice);
    UnknownNet for a net the netlist lacks."""
    netlist.driver(net)
    return [gate for gate in netlist.gates for inp in gate.inputs if inp == net]


def gate_map(netlist: Netlist) -> dict[str, tuple[GateKind, tuple[str, ...]]]:
    return {g.output: (g.kind, g.inputs) for g in netlist.gates}


def structurally_equal(a: Netlist, b: Netlist) -> bool:
    """Same ports (ordered) and same gate set keyed by output net.

    Gate list order is not significant; gate input order is.
    """
    return (
        a.primary_inputs == b.primary_inputs
        and a.primary_outputs == b.primary_outputs
        and gate_map(a) == gate_map(b)
    )


def has_empty_clause(cnf: CnfFormula) -> bool:
    """An empty clause is representable but means immediate unsat."""
    return any(not c for c in cnf.clauses)


def brute_force_status(cnf: CnfFormula, max_vars: int = 24) -> str:
    """Exhaustive SAT check by bit-parallel enumeration of all assignments,
    up to ``max_vars`` variables."""
    n = cnf.var_count
    if n > max_vars:
        raise CnfError(f"{n} variables exceeds brute-force limit {max_vars}")
    ones = (1 << (1 << n)) - 1
    pos = [0] + input_patterns(n)
    live = ones
    for clause in cnf.clauses:
        mask = 0
        for lit in clause:
            p = pos[abs(lit)]
            mask |= p if lit > 0 else p ^ ones
        live &= mask
        if live == 0:
            return "unsat"
    return "sat"


def exhaustive_verdict(applied: Netlist, original: Netlist) -> Verdict:
    """The exhaustive verdict of ``applied`` (a key already applied)
    against ``original``: both circuits' full truth tables over the
    original's input order, scanned output by output in the original's
    order; the counterexample is the first differing output's lowest
    differing vector."""
    order = original.primary_inputs
    tab_a = truth_tables(applied, order)
    tab_b = truth_tables(original, order)
    for po in original.primary_outputs:
        delta = tab_a[po] ^ tab_b[po]
        if delta:
            j = (delta & -delta).bit_length() - 1
            ctrex = vector_assignment(order, j)
            return Verdict(True, (), "mismatch", "exhaustive", counterexample=ctrex)
    return Verdict(True, (), "equivalent", "exhaustive")
