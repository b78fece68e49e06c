"""Small built-in circuit corpus, hand-written, plus a seeded generator.

Real benchmark suites are not shipped; point the CLI at your own .bench
or .v files. These circuits exist so the test suite and examples run
without external data.
"""

from __future__ import annotations

import random

from .netlist import Gate, GateKind, Netlist

_K = GateKind


def c17() -> Netlist:
    """The classic 5-input, 2-output, 6-NAND demonstration circuit."""
    gates = [
        Gate("G10", _K.NAND, ("G1", "G3")),
        Gate("G11", _K.NAND, ("G3", "G6")),
        Gate("G16", _K.NAND, ("G2", "G11")),
        Gate("G19", _K.NAND, ("G11", "G7")),
        Gate("G22", _K.NAND, ("G10", "G16")),
        Gate("G23", _K.NAND, ("G16", "G19")),
    ]
    return Netlist("c17", ["G1", "G2", "G3", "G6", "G7"], ["G22", "G23"], gates)


def full_adder() -> Netlist:
    """1-bit full adder: (a, b, cin) -> (sum, cout)."""
    gates = [
        Gate("axb", _K.XOR, ("a", "b")),
        Gate("sum", _K.XOR, ("axb", "cin")),
        Gate("ab", _K.AND, ("a", "b")),
        Gate("cx", _K.AND, ("axb", "cin")),
        Gate("cout", _K.OR, ("ab", "cx")),
    ]
    return Netlist("full_adder", ["a", "b", "cin"], ["sum", "cout"], gates)


def not_chain(length: int) -> Netlist:
    """a -> NOT -> NOT -> ... -> y, one gate per stage."""
    gates = []
    prev = "a"
    for i in range(length):
        out = f"n{i}"
        gates.append(Gate(out, _K.NOT, (prev,)))
        prev = out
    return Netlist(f"not_chain{length}", ["a"], [prev], gates)


def parallel_cones(n_cones: int = 8) -> Netlist:
    """n independent 1-input cones (NOT then NOT), one output each.

    Every cone is disjoint from the others, so path-disjoint net selection
    can pick one net per cone.
    """
    pis, pos, gates = [], [], []
    for i in range(n_cones):
        a, t, u = f"a{i}", f"t{i}", f"u{i}"
        pis.append(a)
        gates.append(Gate(t, _K.NOT, (a,)))
        gates.append(Gate(u, _K.NOT, (t,)))
        pos.append(u)
    return Netlist(f"cones{n_cones}", pis, pos, gates)


_GEN_KINDS = (
    _K.AND,
    _K.NAND,
    _K.OR,
    _K.NOR,
    _K.XOR,
    _K.XNOR,
    _K.NOT,
    _K.BUFF,
)


def random_netlist(
    n_inputs: int,
    n_gates: int,
    seed: int,
    kinds: tuple[GateKind, ...] = _GEN_KINDS,
    with_mux: bool = False,
    n_outputs: int | None = None,
    name: str | None = None,
) -> Netlist:
    """Deterministic random valid netlist.

    Gate inputs are drawn from already-driven nets with a bias toward
    recent ones so the circuit gains depth. Outputs default to all
    load-free nets (there is always at least one).
    """
    rng = random.Random(seed)
    kinds = kinds + ((_K.MUX,) if with_mux else ())
    pis = [f"i{j}" for j in range(n_inputs)]
    nets = list(pis)
    gates: list[Gate] = []
    loaded: set[str] = set()
    untouched = list(pis)  # consumed one per gate so no PI dangles

    def pick() -> str:
        if len(nets) > 4 and rng.random() < 0.7:
            return nets[rng.randrange(max(0, len(nets) - 8), len(nets))]
        return rng.choice(nets)

    for j in range(n_gates):
        kind = rng.choice(kinds)
        if kind in (_K.NOT, _K.BUFF):
            arity = 1
        elif kind is _K.MUX:
            arity = 3
        else:
            arity = rng.choice((2, 2, 3))
        ins = [pick() for _ in range(arity)]
        if untouched:
            ins[rng.randrange(arity)] = untouched.pop(0)
        out = f"g{j}"
        gates.append(Gate(out, kind, ins))
        loaded.update(ins)
        nets.append(out)

    sinks = [n for n in nets if n not in loaded]
    if not sinks:
        sinks = [nets[-1]]
    if n_outputs is not None and n_outputs < len(sinks):
        pos = rng.sample(sinks, n_outputs)
        pos = [s for s in sinks if s in set(pos)]
    else:
        pos = sinks
    return Netlist(name or f"rand_{n_inputs}x{n_gates}_s{seed}", pis, pos, gates)


def layered_netlist(
    n_inputs: int,
    layer_sizes: list[int],
    seed: int,
    kinds: tuple[GateKind, ...] = (_K.AND, _K.NAND, _K.OR, _K.NOR, _K.NOT),
    n_outputs: int = 1,
    name: str | None = None,
) -> Netlist:
    """Benchmark-shaped random circuit: wide layers, moderate depth.

    Gates draw most inputs from the previous layer and a few from older
    logic, which keeps depth near len(layer_sizes) and gives every input
    a short path toward the outputs (unlike a recency-biased chain).
    Every PI is consumed in the first layer.
    """
    rng = random.Random(seed)
    pis = [f"i{j}" for j in range(n_inputs)]
    previous = list(pis)
    everything = list(pis)
    gates: list[Gate] = []
    counter = 0
    pending_pis = list(pis)

    for size in layer_sizes:
        layer = []
        for _ in range(size):
            kind = rng.choice(kinds)
            arity = 1 if kind in (_K.NOT, _K.BUFF) else rng.choice((2, 2, 3))
            ins = []
            for _ in range(arity):
                pool = previous if rng.random() < 0.75 else everything
                ins.append(rng.choice(pool))
            if pending_pis:
                ins[rng.randrange(arity)] = pending_pis.pop(0)
            out = f"g{counter}"
            counter += 1
            gates.append(Gate(out, kind, ins))
            layer.append(out)
        previous = layer
        everything.extend(layer)

    pos = sorted(rng.sample(previous, min(n_outputs, len(previous))))
    name = name or f"layered_s{seed}"
    # drop logic no output observes
    keep = Netlist(name, pis, pos, gates).output_cone()
    return Netlist(name, pis, pos, [g for g in gates if g.output in keep])


def c432_scale(seed: int = 433) -> Netlist:
    """Synthetic stand-in sized like the 36-input ISCAS-85 c432 circuit.

    Deterministic for a fixed seed; used where tests need a mid-size
    circuit without shipping benchmark data. Shape follows the ISCAS
    pattern: 36 inputs, 7 outputs, AND/NAND/OR/NOR/NOT alphabet, wide
    layers with reconvergence rather than long chains.
    """
    return layered_netlist(
        36,
        [40, 36, 32, 28, 24, 20, 14, 10],
        seed,
        n_outputs=7,
        name=f"c432s_{seed}",
    )
