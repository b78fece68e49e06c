"""Tseitin encoding of netlists to CNF, plus DIMACS import/export and a
bit-parallel brute-force oracle for small formulas.

Literals are signed 1-based variable indices (DIMACS convention). Each
encoded circuit copy gets one variable per net — PIs first in port order,
then gate outputs in gate order — with auxiliary variables for n-ary
XOR/XNOR chains appended after the net variables.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping

from .errors import CnfError, StructuralError
from .netlist import GateKind, Netlist

VarMap = dict  # net name -> variable index, one circuit copy


@dataclass
class CnfFormula:
    var_count: int = 0
    clauses: list[list[int]] = field(default_factory=list)

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

    @property
    def has_empty_clause(self) -> bool:
        """An empty clause is representable but means immediate unsat."""
        return any(not c for c in self.clauses)


def encode_gate(cnf: CnfFormula, kind: GateKind, y: int, ins: list[int]) -> None:
    if kind is GateKind.AND or kind is GateKind.NAND:
        out = y if kind is GateKind.AND else -y
        for a in ins:
            cnf.add(-out, a)
        cnf.add(out, *[-a for a in ins])
    elif kind is GateKind.OR or kind is GateKind.NOR:
        out = y if kind is GateKind.OR else -y
        for a in ins:
            cnf.add(out, -a)
        cnf.add(-out, *ins)
    elif kind is GateKind.NOT:
        cnf.add(y, ins[0])
        cnf.add(-y, -ins[0])
    elif kind is GateKind.BUFF:
        cnf.add(y, -ins[0])
        cnf.add(-y, ins[0])
    elif kind is GateKind.XOR or kind is GateKind.XNOR:
        prev = ins[0]
        for a in ins[1:-1]:
            aux = cnf.new_var()
            _xor2(cnf, aux, prev, a)
            prev = aux
        last = ins[-1]
        if kind is GateKind.XOR:
            _xor2(cnf, y, prev, last)
        else:
            _xor2(cnf, -y, prev, last)
    elif kind is GateKind.MUX:
        s, a, b = ins
        cnf.add(-y, s, a)
        cnf.add(-y, -s, b)
        cnf.add(y, s, -a)
        cnf.add(y, -s, -b)
    else:  # pragma: no cover
        raise AssertionError(kind)


def _xor2(cnf: CnfFormula, y: int, a: int, b: int) -> None:
    cnf.add(-y, a, b)
    cnf.add(-y, -a, -b)
    cnf.add(y, -a, b)
    cnf.add(y, a, -b)


def encode_into(
    cnf: CnfFormula, netlist: Netlist, shared: Mapping[str, int] | None = None
) -> VarMap:
    """Append a Tseitin copy of ``netlist`` to ``cnf``.

    Nets listed in ``shared`` reuse the given variables instead of fresh
    ones (used to tie PI or key variables across circuit copies). Returns
    the net -> variable map of this copy.
    """
    shared = shared or {}
    varmap: VarMap = {}
    for pi in netlist.primary_inputs:
        varmap[pi] = shared.get(pi) or cnf.new_var()
    for gate in netlist.gates:
        varmap[gate.output] = shared.get(gate.output) or cnf.new_var()
    for gate in netlist.gates:
        encode_gate(
            cnf, gate.kind, varmap[gate.output], [varmap[i] for i in gate.inputs]
        )
    return varmap


def tseitin(netlist: Netlist) -> tuple[CnfFormula, VarMap]:
    """Encode a valid netlist: one variable per net plus XOR-chain auxiliaries."""
    diags = netlist.validate()
    if diags:
        raise StructuralError(diags)
    cnf = CnfFormula()
    varmap = encode_into(cnf, netlist)
    return cnf, varmap


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


# -- small-formula oracle ------------------------------------------------------


def model_satisfies(cnf: CnfFormula, model: Mapping[int, int]) -> bool:
    """True iff the assignment (absent variables read as 0) satisfies every
    clause."""
    true_lits = {
        v if model.get(v, 0) == 1 else -v for v in range(1, cnf.var_count + 1)
    }
    return not any(map(true_lits.isdisjoint, cnf.clauses))


def brute_force_status(cnf: CnfFormula, max_vars: int = 24) -> str:
    """Exhaustive SAT check by bit-parallel enumeration of all assignments.

    Independent of the CDCL solver; usable as a test oracle up to
    ``max_vars`` variables.
    """
    n = cnf.var_count
    if n > max_vars:
        raise CnfError(f"{n} variables exceeds brute-force limit {max_vars}")
    width = 1 << n
    ones = (1 << width) - 1
    pos: dict[int, int] = {}

    def pattern(v: int) -> int:
        if v not in pos:
            half = 1 << (v - 1)
            chunk = ((1 << half) - 1) << half
            pos[v] = chunk * (ones // ((1 << (half << 1)) - 1))
        return pos[v]

    live = ones
    for clause in cnf.clauses:
        mask = 0
        for lit in clause:
            p = pattern(abs(lit))
            mask |= p if lit > 0 else p ^ ones
        live &= mask
        if live == 0:
            return "unsat"
    return "sat"
