import random
import sys
import textwrap

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from benchlock.cnf import CnfFormula, model_satisfies
from benchlock.errors import CnfError, SolverTimeout
from benchlock.solver import Solver, solve, solve_with_external
from structure import brute_force_status


def formula(n_vars, clauses):
    cnf = CnfFormula(var_count=n_vars)
    for c in clauses:
        cnf.add_clause(c)
    return cnf


def test_contradiction_is_unsat():
    assert solve(formula(1, [[1], [-1]])).status == "unsat"


def test_assumption_forces_model():
    out = solve(formula(2, [[1, 2]]), assumptions=[-1])
    assert out.status == "sat"
    assert out.model[1] == 0 and out.model[2] == 1


def test_empty_formula_sat():
    out = solve(formula(0, []))
    assert out.status == "sat" and out.model == {}


def test_empty_clause_unsat():
    assert solve(formula(1, [[]])).status == "unsat"


def test_model_covers_unconstrained_variables():
    out = solve(formula(5, [[1]]))
    assert set(out.model) == {1, 2, 3, 4, 5}


def test_assumption_out_of_range():
    with pytest.raises(CnfError):
        solve(formula(1, [[1]]), assumptions=[4])


def random_3cnf(n_vars, n_clauses, seed):
    rng = random.Random(seed)
    cnf = CnfFormula(var_count=n_vars)
    for _ in range(n_clauses):
        vs = rng.sample(range(1, n_vars + 1), 3)
        cnf.add_clause([v if rng.random() < 0.5 else -v for v in vs])
    return cnf


@pytest.mark.parametrize("seed", range(40))
def test_agrees_with_brute_force_small(seed):
    n = 8 + seed % 5
    cnf = random_3cnf(n, int(n * 4.3), seed)
    out = solve(cnf)
    assert out.status == brute_force_status(cnf)
    if out.status == "sat":
        assert model_satisfies(cnf, out.model)


@pytest.mark.parametrize("seed", [101, 102, 103])
def test_agrees_with_brute_force_20_vars(seed):
    cnf = random_3cnf(20, 60, seed)
    out = solve(cnf)
    assert out.status == brute_force_status(cnf)


def test_luby_sequence():
    from benchlock.solver import _luby

    want = [1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, 1]
    assert [_luby(i) for i in range(1, 17)] == want


def test_restarts_do_not_hang():
    # needs several restart budgets of conflicts: PHP(7,6)
    def var(p, h):
        return p * 6 + h + 1

    clauses = [[var(p, h) for h in range(6)] for p in range(7)]
    for h in range(6):
        for p1 in range(7):
            for p2 in range(p1 + 1, 7):
                clauses.append([-var(p1, h), -var(p2, h)])
    out = solve(formula(42, clauses), timeout_ms=60_000)
    assert out.status == "unsat"
    assert out.stats.restarts >= 2


def test_learns_through_hard_instance():
    # pigeonhole PHP(4,3): 4 pigeons, 3 holes, provably unsat
    def var(p, h):
        return p * 3 + h + 1

    clauses = [[var(p, h) for h in range(3)] for p in range(4)]
    for h in range(3):
        for p1 in range(4):
            for p2 in range(p1 + 1, 4):
                clauses.append([-var(p1, h), -var(p2, h)])
    out = solve(formula(12, clauses))
    assert out.status == "unsat"
    assert out.stats.conflicts > 0


def test_timeout_raises_distinctly():
    # PHP(8,7) is big enough that a microscopic budget trips first
    def var(p, h):
        return p * 7 + h + 1

    clauses = [[var(p, h) for h in range(7)] for p in range(8)]
    for h in range(7):
        for p1 in range(8):
            for p2 in range(p1 + 1, 8):
                clauses.append([-var(p1, h), -var(p2, h)])
    with pytest.raises(SolverTimeout):
        solve(formula(56, clauses), timeout_ms=0.001)


def test_deterministic_outcomes():
    cnf = random_3cnf(15, 60, seed=9)
    a = solve(cnf)
    b = solve(cnf)
    assert a.status == b.status
    assert a.model == b.model
    assert a.stats.as_dict() == b.stats.as_dict()


# -- incremental solving -------------------------------------------------------------


@st.composite
def incremental_scripts(draw):
    """A random 3-CNF cut into chunks, each followed by assumption sets;
    every chunk's sets assume both polarities of one pivot variable.
    Clauses may repeat a variable, so duplicate literals and tautologies
    occur too."""
    n = draw(st.integers(8, 16))
    literal = st.integers(1, 2 * n).map(lambda x: x if x <= n else n - x)
    steps = []
    for _ in range(draw(st.integers(3, 4))):
        lits = draw(st.lists(literal, min_size=3 * (n // 2), max_size=6 * n))
        chunk = [lits[i:i + 3] for i in range(0, len(lits) - 2, 3)]
        pivot = draw(literal)
        extra = draw(st.lists(literal, max_size=3, unique_by=abs).filter(
            lambda xs, p=pivot: all(abs(x) != abs(p) for x in xs)))
        others = draw(st.lists(st.lists(literal, max_size=5, unique_by=abs),
                               max_size=2))
        steps.append((chunk, [[pivot, *extra], [-pivot, *extra], [], *others]))
    return n, steps


@settings(derandomize=True, deadline=None, max_examples=60, database=None)
@given(incremental_scripts())
def test_incremental_agrees_with_brute_force(script):
    n, steps = script
    cnf = CnfFormula(var_count=n)
    solver = Solver()
    unsat_for_good = False
    for chunk, assumption_sets in steps:
        for clause in chunk:
            cnf.add_clause(clause)
        for assumptions in assumption_sets:
            out = solve(cnf, assumptions, solver=solver)
            with_units = CnfFormula(var_count=n)
            with_units.clauses = cnf.clauses + [[lit] for lit in assumptions]
            assert out.status == brute_force_status(with_units)
            if out.status == "sat":
                assert model_satisfies(cnf, out.model)
                assert all(out.model[abs(lit)] == (lit > 0) for lit in assumptions)
            elif not assumptions:
                unsat_for_good = True
            if unsat_for_good:
                assert out.status == "unsat"


def test_incremental_falsified_assumption_is_not_permanent():
    cnf = formula(3, [[1, 2], [-1, 3]])
    solver = Solver()
    assert solve(cnf, [1, -3], solver=solver).status == "unsat"
    out = solve(cnf, [1], solver=solver)
    assert out.status == "sat" and out.model[3] == 1
    cnf.add_clause([-3])
    assert solve(cnf, [1], solver=solver).status == "unsat"
    assert solve(cnf, solver=solver).status == "sat"
    cnf.add_clause([-2])
    assert solve(cnf, solver=solver).status == "unsat"
    assert not solver.ok


def test_incremental_loads_only_new_clauses():
    cnf = formula(2, [[1, 2]])
    solver = Solver()
    solve(cnf, solver=solver)
    assert solver.loaded == 1
    cnf.var_count = 3
    cnf.add_clause([-1, 3])
    cnf.add_clause([-2, 3])
    out = solve(cnf, [-3], solver=solver)
    assert solver.loaded == 3 and out.status == "unsat"


def test_incremental_load_cut_short_by_timeout_resumes():
    # positive units only: a unit the solver never took leaves its variable
    # free, decided false, and the model check against the formula fails
    cnf = formula(5000, [[1]])
    solver = Solver()
    solve(cnf, solver=solver)
    for v in range(2, 5001):
        cnf.add_clause([v])
    with pytest.raises(SolverTimeout):
        solve(cnf, solver=solver, timeout_ms=0)
    assert 1 < solver.loaded < len(cnf.clauses)
    out = solve(cnf, solver=solver)
    assert out.status == "sat" and solver.loaded == len(cnf.clauses)


def test_every_literal_is_range_checked_whatever_its_position():
    # a literal already true at level 0 must not end the range check of its
    # clause: [1, 99] is refused as [99, 1] is
    solver = Solver()
    solver.grow(2)
    solver.add_clauses([[1]])
    for clause in ([1, 99], [99, 1], [1, -3], [1, 0], [2, 1, 99]):
        with pytest.raises(CnfError, match="out of range"):
            solver.add_clauses([clause])
    assert solver.loaded == 1


def test_search_that_loses_a_decision_variable_raises(monkeypatch):
    # a free variable missing from the decision heap leaves no decision to
    # make: the search must raise rather than spin (the budget keeps a
    # spinning search from hanging the test)
    solver = Solver()
    monkeypatch.setattr(solver, "_fill_heap", lambda: solver.heap.clear())
    with pytest.raises(AssertionError, match="decision heap"):
        solve(formula(3, [[1, 2, 3]]), timeout_ms=2000, solver=solver)


def test_activity_rescale_keeps_the_decision_order():
    # conflict analysis bumps 3 first, over the limit, so every activity
    # and heap key is scaled by 1e-100; 2 and 1, bumped after the rescale,
    # must outrank 3, and 4's entry, pushed before it, must not outrank any
    solver = Solver()
    solver.grow(4)
    solver.add_clauses([[1, 2, 3], [1, 2, -3]])
    solver.activity[1:] = [1e99, 3e99, 0.0, 2e99]
    solver._fill_heap()
    for v in (1, 2):  # decide -1, then -2: 3 is implied, then a conflict
        solver.trail_lim.append(len(solver.trail))
        solver._enqueue(2 * v + 1, None)
        confl = solver._propagate()
    assert [code >> 1 for code in confl] == [3, 2, 1]
    solver.var_inc = 2e100
    solver._analyze(confl)
    scale = 1e-100
    inc = 2e100 * scale
    assert solver.var_inc == inc
    assert solver.activity[1:] == [
        1e99 * scale + inc, 3e99 * scale + inc, inc, 2e99 * scale
    ]
    solver._backtrack(0)
    for _ in range(4):
        solver._decide()
    assert [code >> 1 for code in solver.trail] == [2, 1, 3, 4]


def test_reusable_solver_refuses_external_command():
    with pytest.raises(ValueError):
        solve(formula(1, [[1]]), solver=Solver(), external_command=["true"])


# -- external solver path ---------------------------------------------------------

_STUB = textwrap.dedent(
    """
    import itertools, sys
    clauses, nvars = [], 0
    for line in open(sys.argv[-1]):
        line = line.strip()
        if not line or line[0] in "c%":
            continue
        if line.startswith("p"):
            nvars = int(line.split()[2])
            continue
        clauses.append([int(t) for t in line.split() if t != "0"])
    for bits in itertools.product((False, True), repeat=nvars):
        if all(any(bits[abs(l) - 1] ^ (l < 0) for l in c) for c in clauses):
            model = [i + 1 if bits[i] else -(i + 1) for i in range(nvars)]
            {sat_action}
            sys.exit(10)
    {unsat_action}
    sys.exit(20)
    """
)


def _stub_solver(tmp_path, verbose=True):
    sat = (
        'print("s SATISFIABLE"); print("v " + " ".join(map(str, model)) + " 0")'
        if verbose
        else "pass"
    )
    unsat = 'print("s UNSATISFIABLE")' if verbose else "pass"
    script = tmp_path / "stub_solver.py"
    script.write_text(_STUB.format(sat_action=sat, unsat_action=unsat))
    return [sys.executable, str(script)]


def test_external_solver_sat_and_unsat(tmp_path):
    cmd = _stub_solver(tmp_path)
    sat = formula(3, [[1, 2], [-1, 3]])
    out = solve_with_external(sat, cmd)
    assert out.status == "sat"
    assert model_satisfies(sat, out.model)
    assert set(out.model) == {1, 2, 3}
    assert solve_with_external(formula(1, [[1], [-1]]), cmd).status == "unsat"


def test_external_solver_exit_code_only(tmp_path):
    # some solvers only signal via exit status 10/20; a missing model is
    # tolerated only when the zero-filled completion still satisfies
    cmd = _stub_solver(tmp_path, verbose=False)
    out = solve_with_external(formula(2, [[-1], [-2]]), cmd)
    assert out.status == "sat"
    assert out.model == {1: 0, 2: 0}
    assert solve_with_external(formula(1, [[1], [-1]]), cmd).status == "unsat"
    with pytest.raises(CnfError, match="usable model"):
        solve_with_external(formula(2, [[1], [2]]), cmd)


def test_solve_routes_through_external_command(tmp_path):
    cmd = _stub_solver(tmp_path)
    cnf = formula(2, [[1, 2]])
    out = solve(cnf, assumptions=[-1], external_command=cmd)
    assert out.status == "sat"
    assert out.model[1] == 0 and out.model[2] == 1
