import pytest

from benchlock.circuits import random_netlist
from benchlock.cnf import (
    CnfFormula,
    emit_dimacs,
    encode_into,
    model_satisfies,
    parse_dimacs,
    parse_dimacs_model,
    tseitin,
)
from benchlock.errors import CnfError
from benchlock.netlist import Gate, GateKind, Netlist, vector_assignment
from benchlock.solver import solve
from structure import brute_force_status, has_empty_clause


def test_and_gate_block():
    n = Netlist("t", ["a", "b"], ["y"], [Gate("y", GateKind.AND, ("a", "b"))])
    cnf, varmap = tseitin(n)
    assert cnf.var_count == 3
    assert len(cnf.clauses) == 3
    assert set(varmap) == {"a", "b", "y"}


def test_not_gate_block():
    n = Netlist("t", ["a"], ["y"], [Gate("y", GateKind.NOT, ("a",))])
    cnf, _ = tseitin(n)
    assert cnf.var_count == 2
    assert len(cnf.clauses) == 2


def test_nary_xor_uses_aux_chain():
    n = Netlist("t", ["a", "b", "c"], ["y"], [Gate("y", GateKind.XOR, ("a", "b", "c"))])
    cnf, varmap = tseitin(n)
    assert cnf.var_count == 5  # 4 nets + 1 auxiliary
    assert len(cnf.clauses) == 8


@pytest.mark.parametrize("seed", range(25))
def test_models_match_simulation(seed):
    n = random_netlist(4, 6, seed=seed, with_mux=(seed % 3 == 0))
    cnf, varmap = tseitin(n)
    pis = n.primary_inputs
    for j in range(1 << len(pis)):
        x = vector_assignment(pis, j)
        assumptions = [
            varmap[pi] if bit else -varmap[pi] for pi, bit in x.items()
        ]
        outcome = solve(cnf, assumptions=assumptions)
        assert outcome.status == "sat"
        vals = n.net_values(x)
        for net, var in varmap.items():
            assert outcome.model[var] == vals[net], (net, j)


def test_identical_gates_and_buff_chains_share_variables():
    # g3 and w read the same variables as g1 and z but are other kinds
    n = Netlist("t", ["a", "b", "c"], ["y", "z", "w"], [
        Gate("g1", GateKind.AND, ("a", "b")),
        Gate("g2", GateKind.AND, ("a", "b")),
        Gate("g3", GateKind.NAND, ("a", "b")),
        Gate("b1", GateKind.BUFF, ("g2",)),
        Gate("b2", GateKind.BUFF, ("b1",)),
        Gate("y", GateKind.XOR, ("g1", "g3")),
        Gate("z", GateKind.NOR, ("b2", "c")),
        Gate("w", GateKind.OR, ("g1", "c")),
    ])
    cnf, varmap = tseitin(n)
    assert varmap["g1"] == varmap["g2"] == varmap["b1"] == varmap["b2"]
    assert [varmap[net] for net in ("a", "b", "c")] == [1, 2, 3]
    assert cnf.var_count == 8  # a, b, c, the one AND, g3, y, z, w
    assert len(cnf.clauses) == 3 + 3 + 4 + 3 + 3  # AND NAND XOR NOR OR, once each
    for j in range(1 << 3):
        x = vector_assignment(n.primary_inputs, j)
        assumptions = [varmap[pi] if bit else -varmap[pi] for pi, bit in x.items()]
        outcome = solve(cnf, assumptions=assumptions)
        assert outcome.status == "sat"
        vals = n.net_values(x)
        for net, var in varmap.items():
            assert outcome.model[var] == vals[net], (net, j)


@pytest.mark.parametrize("bad", [0, 4, -4])
def test_encode_into_refuses_an_input_variable_out_of_range(bad):
    # var_count is 3; the bad variable is read only by the second gate, so
    # a check made clause by clause would append the first gate's clauses
    cnf = CnfFormula()
    inputs = {"a": cnf.new_var(), "b": cnf.new_var(), "c": cnf.new_var()}
    inputs["d"] = bad
    cnf.clauses.append([1, 2, 3])
    gates = [Gate("g", GateKind.AND, ("a", "b")), Gate("y", GateKind.OR, ("g", "d"))]
    with pytest.raises(CnfError, match=f"variable {bad} out of range"):
        encode_into(cnf, gates, inputs)
    assert cnf.var_count == 3 and cnf.clauses == [[1, 2, 3]]


def test_cnf_satisfiable_for_every_pi_assignment():
    n = random_netlist(3, 5, seed=77)
    cnf, varmap = tseitin(n)
    assert brute_force_status(cnf) == "sat"


def test_emit_dimacs_single_clause():
    cnf = CnfFormula(var_count=1)
    cnf.add(1)
    assert emit_dimacs(cnf) == "p cnf 1 1\n1 0\n"


def test_dimacs_round_trip_preserves_clause_multiset():
    n = random_netlist(3, 6, seed=1)
    cnf, _ = tseitin(n)
    again = parse_dimacs(emit_dimacs(cnf))
    assert again.var_count == cnf.var_count
    assert sorted(map(sorted, again.clauses)) == sorted(map(sorted, cnf.clauses))


def test_parse_dimacs_rejects_garbage():
    with pytest.raises(CnfError):
        parse_dimacs("p cnf x y\n")
    with pytest.raises(CnfError):
        parse_dimacs("1 2 0\n")  # clause before header
    with pytest.raises(CnfError):
        parse_dimacs("p cnf 2 1\n1 2\n")  # missing terminator


def test_parse_model_lines():
    status, model = parse_dimacs_model("s SATISFIABLE\nv 1 -2 0\n")
    assert status == "sat"
    assert model == {1: 1, 2: 0}
    status, model = parse_dimacs_model("UNSAT\n")
    assert status == "unsat" and model == {}


def test_model_satisfies():
    cnf = CnfFormula(var_count=2)
    cnf.add(1, 2)
    cnf.add(-1, 2)
    assert model_satisfies(cnf, {1: 0, 2: 1})
    assert not model_satisfies(cnf, {1: 1, 2: 0})


def test_empty_clause_is_flagged():
    cnf = CnfFormula(var_count=1)
    cnf.add_clause([])
    assert has_empty_clause(cnf)
    assert brute_force_status(cnf) == "unsat"
