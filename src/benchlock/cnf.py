"""Tseitin encoding of netlists to CNF, plus DIMACS import/export and a
model check.

Literals are signed 1-based variable indices (DIMACS convention).
The encoder appends clauses unchecked, its literals being in range by
construction; the solver range-checks every literal it loads.
Encoding hash-conses gates within one formula: a BUFF's output aliases its
input's variable, and a gate whose kind and input variables match one
already encoded into the formula reuses that gate's variable and adds no
clauses. Variables are numbered in topological order; an n-ary XOR/XNOR
chain's auxiliaries follow its gate's variable.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import CnfError
from .netlist import Gate, GateKind, Netlist

VarMap = dict  # net name -> variable index, one circuit copy


@dataclass
class CnfFormula:
    var_count: int = 0
    clauses: list[list[int]] = field(default_factory=list)
    # (kind, input variables...) -> output variable of each encoded gate
    _gates: dict[tuple, int] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    def new_var(self) -> int:
        self.var_count += 1
        return self.var_count

    def add(self, *lits: int) -> None:
        self.add_clause(lits)

    def add_clause(self, lits: Iterable[int]) -> None:
        clause = list(lits)
        for lit in clause:
            if lit == 0 or abs(lit) > self.var_count:
                raise CnfError(f"literal {lit} out of range (vars={self.var_count})")
        self.clauses.append(clause)


def encode_gate(cnf: CnfFormula, kind: GateKind, y: int, ins: list[int]) -> None:
    """Append the clauses making ``y`` the gate's output, unchecked (see
    the module docstring); a BUFF never gets here, as ``encode_into``
    aliases it."""
    add = cnf.clauses.append
    if kind is GateKind.AND or kind is GateKind.NAND:
        out = y if kind is GateKind.AND else -y
        for a in ins:
            add([-out, a])
        add([out, *[-a for a in ins]])
    elif kind is GateKind.OR or kind is GateKind.NOR:
        out = y if kind is GateKind.OR else -y
        for a in ins:
            add([out, -a])
        add([-out, *ins])
    elif kind is GateKind.NOT:
        add([y, ins[0]])
        add([-y, -ins[0]])
    elif kind is GateKind.XOR or kind is GateKind.XNOR:
        # a chain of 2-input XORs; all but the last output an auxiliary
        prev, last = ins[0], len(ins) - 1
        for i, a in enumerate(ins[1:], 1):
            out = cnf.new_var() if i < last else (y if kind is GateKind.XOR else -y)
            add([-out, prev, a])
            add([-out, -prev, -a])
            add([out, -prev, a])
            add([out, prev, -a])
            prev = out
    elif kind is GateKind.MUX:
        s, a, b = ins
        add([-y, s, a])
        add([-y, -s, b])
        add([y, s, -a])
        add([y, -s, -b])
    else:  # pragma: no cover
        raise AssertionError(kind)


def encode_into(
    cnf: CnfFormula, gates: Iterable[Gate], inputs: Mapping[str, int]
) -> VarMap:
    """Append a Tseitin copy of ``gates`` to ``cnf``.

    ``gates`` is in topological order, and ``inputs`` gives the variable
    of every net no gate drives (fresh primary inputs, or PI and key
    variables tied across circuit copies); a variable of ``inputs`` out
    of range raises CnfError before anything is added. A BUFF aliases its
    input's variable, and a gate identical in kind and input variables to
    one already in ``cnf`` shares its variable, so a second copy adds
    only the gates that read something the first does not. Returns the
    net -> variable map of this copy, ``inputs`` included.
    """
    top = cnf.var_count
    for net, var in inputs.items():
        if not 0 < abs(var) <= top:
            raise CnfError(f"net {net!r}: variable {var} out of range (vars={top})")
    varmap: VarMap = dict(inputs)
    hashed = cnf._gates
    buff = GateKind.BUFF
    for output, kind, reads in gates:
        ins = [varmap[i] for i in reads]
        if kind is buff:
            varmap[output] = ins[0]
            continue
        # the kind's value, not the member: Enum.__hash__ runs in Python
        key = (kind._value_, *ins)
        y = hashed.get(key)
        if y is None:
            y = hashed[key] = cnf.new_var()
            encode_gate(cnf, kind, y, ins)
        varmap[output] = y
    return varmap


def tseitin(netlist: Netlist) -> tuple[CnfFormula, VarMap]:
    """Encode a netlist: BUFFs alias their input, identical gates share a
    variable, numbering follows topological order, and n-ary XOR/XNOR
    chains add auxiliaries."""
    cnf = CnfFormula()
    inputs = {pi: cnf.new_var() for pi in netlist.primary_inputs}
    return cnf, encode_into(cnf, netlist.topo_order(), inputs)


# -- DIMACS ------------------------------------------------------------------


def emit_dimacs(cnf: CnfFormula) -> str:
    lines = [f"p cnf {cnf.var_count} {len(cnf.clauses)}"]
    for clause in cnf.clauses:
        lines.append(" ".join(str(lit) for lit in clause) + " 0")
    return "\n".join(lines) + "\n"


def parse_dimacs(text: str) -> CnfFormula:
    """Parse DIMACS CNF text (comments allowed, clauses 0-terminated)."""
    var_count = None
    n_clauses = None
    lits: list[int] = []
    clauses: list[list[int]] = []
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        if line.startswith("p"):
            parts = line.split()
            if len(parts) != 4 or parts[1] != "cnf":
                raise CnfError(f"line {lineno}: malformed DIMACS header {line!r}")
            try:
                var_count, n_clauses = int(parts[2]), int(parts[3])
            except ValueError:
                raise CnfError(
                    f"line {lineno}: malformed DIMACS header {line!r}"
                ) from None
            continue
        if var_count is None:
            raise CnfError(f"line {lineno}: clause before header")
        for tok in line.split():
            try:
                lit = int(tok)
            except ValueError:
                raise CnfError(f"line {lineno}: bad literal {tok!r}") from None
            if lit == 0:
                clauses.append(lits)
                lits = []
            else:
                lits.append(lit)
    if lits:
        raise CnfError("unterminated final clause (missing 0)")
    if var_count is None:
        raise CnfError("missing DIMACS header")
    if n_clauses is not None and n_clauses != len(clauses):
        raise CnfError(f"header claims {n_clauses} clauses, found {len(clauses)}")
    cnf = CnfFormula(var_count=var_count)
    for clause in clauses:
        cnf.add_clause(clause)
    return cnf


def parse_dimacs_model(text: str) -> tuple[str, dict[int, int]]:
    """Parse solver output: 's'/'SAT'/'UNSAT' status lines and 'v' lines.

    Returns (status, assignment) where status is 'sat', 'unsat' or
    'unknown' and assignment maps variable -> bit.
    """
    status = "unknown"
    model: dict[int, int] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        line = line.strip()
        if not line or line.startswith("c"):
            continue
        upper = line.upper()
        if upper.startswith("S ") or upper in ("SAT", "SATISFIABLE", "UNSAT", "UNSATISFIABLE"):
            body = upper[2:] if upper.startswith("S ") else upper
            if "UNSAT" in body:
                status = "unsat"
            elif "SAT" in body:
                status = "sat"
            elif "UNKNOWN" in body:
                status = "unknown"
            else:
                raise CnfError(f"line {lineno}: unrecognized status {line!r}")
            continue
        if line.startswith(("v", "V")):
            for tok in line[1:].split():
                try:
                    lit = int(tok)
                except ValueError:
                    raise CnfError(f"line {lineno}: bad model literal {tok!r}") from None
                if lit != 0:
                    model[abs(lit)] = 1 if lit > 0 else 0
            continue
        raise CnfError(f"line {lineno}: unrecognized model line {line!r}")
    return status, model


# -- model check -------------------------------------------------------------


def model_satisfies(cnf: CnfFormula, model: Mapping[int, int]) -> bool:
    """True iff the assignment (absent variables read as 0) satisfies every
    clause."""
    true_lits = {
        v if model.get(v, 0) == 1 else -v for v in range(1, cnf.var_count + 1)
    }
    return not any(map(true_lits.isdisjoint, cnf.clauses))
