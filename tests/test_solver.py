"""Solver backends, the command-template escape hatch, and result checking."""

import pytest

from tollgate.formulations import build_single
from tollgate.model_ir import ModelIR
from tollgate.solver import (
    CommandBackend,
    ScipyBackend,
    SolveResult,
    SolverError,
    get_backend,
    solve,
)


def knapsack_model():
    # max 5a + 4b + 3c with weights 4, 3, 2 and capacity 6: take a and c.
    m = ModelIR("knapsack")
    for name in ("a", "b", "c"):
        m.add_variable(name, 0, 1, binary=True)
    m.add_constraint("w", [(4, "a"), (3, "b"), (2, "c")], "<=", 6)
    m.add_objective_term(5, "a")
    m.add_objective_term(4, "b")
    m.add_objective_term(3, "c")
    return m


def fig_model(fig, fig_enum, fig_bigm):
    return build_single(fig, "STD", fig_bigm, [fig_enum]).ir


def test_scipy_backend_solves_knapsack():
    res = ScipyBackend().solve(knapsack_model(), budget=30)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(8.0)
    assert res.assignment["a"] == pytest.approx(1.0)
    assert res.assignment["b"] == pytest.approx(0.0)
    assert res.best_bound == pytest.approx(8.0)
    assert res.wall_time > 0


def test_scipy_backend_reports_infeasible():
    m = ModelIR()
    m.add_variable("x", 0, 1)
    m.add_constraint("lo", [(1, "x")], ">=", 2)
    m.add_objective_term(1, "x")
    res = ScipyBackend().solve(m, budget=30)
    assert res.status == "infeasible"


def test_solve_retains_backend_result(fig, fig_enum, fig_bigm):
    res = solve(fig_model(fig, fig_enum, fig_bigm), budget=60)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(7.0)
    assert res.assignment["T[0]"] + res.assignment["T[1]"] + res.assignment[
        "T[2]"
    ] == pytest.approx(7.0)


def test_solve_empty_model_short_circuits():
    res = solve(ModelIR("nothing"))
    assert res.status == "optimal"
    assert res.objective == 0.0
    assert res.backend == "empty"


class LyingBackend:
    name = "liar"

    def solve(self, model, budget):
        claim = {v.name: 10.0 for v in model.variables}
        return SolveResult("optimal", 10.0, 10.0, claim, backend=self.name)


def test_solve_rejects_infeasible_claims():
    with pytest.raises(SolverError, match="infeasible point"):
        solve(knapsack_model(), backend=LyingBackend())


def test_gap_property():
    assert SolveResult("optimal", 5.0, 6.0).gap == 0.0
    assert SolveResult("feasible", None, None).gap is None
    near = SolveResult("feasible", 9.0, 10.0)
    assert near.gap == pytest.approx(0.1)


def test_get_backend_precedence(monkeypatch):
    monkeypatch.delenv("TOLLGATE_SOLVER_CMD", raising=False)
    assert get_backend().name == "scipy-highs"
    monkeypatch.setenv("TOLLGATE_SOLVER_CMD", "envtool {lp} {sol}")
    assert get_backend().template == "envtool {lp} {sol}"


def test_command_template_validation():
    with pytest.raises(SolverError, match="template"):
        CommandBackend("solver-without-placeholders")


def test_command_backend_round_trip(toy_solver_cmd, fig, fig_enum, fig_bigm):
    backend = CommandBackend(toy_solver_cmd)
    res = solve(fig_model(fig, fig_enum, fig_bigm), budget=60, backend=backend)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(7.0)
    assert res.backend == "command"


def test_command_backend_requires_solution_file():
    backend = CommandBackend("true {lp} {sol}")
    with pytest.raises(SolverError, match="no solution file"):
        backend.solve(knapsack_model(), budget=10)


def test_command_backend_sniffs_infeasible():
    backend = CommandBackend("echo infeasible > {sol}; cat {lp} > /dev/null")
    res = backend.solve(knapsack_model(), budget=10)
    assert res.status == "infeasible"


def test_command_backend_rejects_empty_output():
    backend = CommandBackend("cat {lp} > /dev/null; echo 'nothing to see here' > {sol}")
    with pytest.raises(SolverError, match="no variable values"):
        backend.solve(knapsack_model(), budget=10)

