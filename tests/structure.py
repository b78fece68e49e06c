"""Structural queries on net names that only tests use: the transitive
fan-in and fan-out of one net, and the gates reading it. The program's
one cone walk (``benchlock.netlist.reach``) runs on net ids; these cones
are what it is checked against."""

from benchlock.netlist import Gate, Netlist


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
