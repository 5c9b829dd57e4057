"""Solver backends, the command-template escape hatch, and result checking."""

import importlib.machinery
import importlib.util
import json
import logging
import math
import os
import re
import subprocess
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from scipy.optimize import Bounds, LinearConstraint, milp

import tollgate
from conftest import _qualifying_instance, fixture_model, perturbed
from tollgate import solver
from tollgate.experiments import run_sweep
from tollgate.formulations import FORMULATIONS, build_single
from tollgate.model_ir import ModelIR
from tollgate.network import Network, ProblemInstance
from tollgate.solver import (
    CommandBackend,
    ScipyBackend,
    SolveResult,
    SolverError,
    _fd1_silenced,
    _highs,
    _highs_lp,
    _load_highs,
    _model_arrays,
    solve,
)


def knapsack_model(binary=True):
    # max 5a + 4b + 3c with weights 4, 3, 2 and capacity 6: take a and c.
    m = ModelIR("knapsack")
    for name in ("a", "b", "c"):
        m.add_variable(name, 0, 1, binary=binary)
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


def test_scipy_backend_bounds_an_lp_by_its_objective():
    # The relaxation takes c, b and a quarter of a: 3 + 4 + 1.25.  HiGHS
    # reports a MIP dual bound of 0 on an LP, which must not be read.
    res = ScipyBackend().solve(knapsack_model(binary=False), budget=30)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(8.25)
    assert res.best_bound == res.objective
    assert res.assignment["a"] == pytest.approx(0.25)
    assert res.mip_nodes == 0


def test_scipy_backend_keeps_free_and_negative_bounds():
    # max -x - y with x free but x >= -3 by a row, and y in [-2, 5].
    m = ModelIR("signs")
    m.add_variable("x", lower=None)
    m.add_variable("y", lower=-2, upper=5)
    m.add_constraint("floor", [(1, "x")], ">=", -3)
    m.add_objective_term(-1, "x")
    m.add_objective_term(-1, "y")
    res = ScipyBackend().solve(m, budget=30)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(5.0)
    assert res.assignment == pytest.approx({"x": -3.0, "y": -2.0})


def test_scipy_backend_zero_budget_returns_no_point():
    res = ScipyBackend().solve(knapsack_model(), budget=0)
    assert res.status == "budget-exhausted"
    assert res.objective is None
    assert res.best_bound is None
    assert res.assignment == {}


class _TimedOutHighs:
    """A HiGHS stand-in whose solves stop at the time limit with no incumbent
    and a finite dual bound."""

    def __init__(self, dual_bound):
        self.dual_bound = dual_bound
        self.lp = None

    def setOptionValue(self, key, value):
        return _highs.HighsStatus.kOk

    def passModel(self, lp):
        self.lp = lp
        return _highs.HighsStatus.kOk

    def getNumNz(self):
        return len(self.lp.a_matrix_.value_)

    def run(self):
        return _highs.HighsStatus.kWarning

    def getModelStatus(self):
        return _highs.HighsModelStatus.kTimeLimit

    def getInfo(self):
        return SimpleNamespace(
            objective_function_value=math.inf,
            mip_dual_bound=self.dual_bound,
            mip_node_count=0,
        )

    def clearModel(self):
        self.lp = None


def test_scipy_backend_keeps_the_dual_bound_without_an_incumbent(monkeypatch):
    # The solve hands its HiGHS instance back to the thread: restore the
    # thread's own one afterwards.
    monkeypatch.setattr(solver._per_thread, "highs", None, raising=False)
    monkeypatch.setattr(solver, "_take_highs", lambda: _TimedOutHighs(9.5))
    res = ScipyBackend().solve(knapsack_model(), budget=30)
    assert res.status == "budget-exhausted"
    assert res.objective is None
    assert res.assignment == {}
    assert res.best_bound == 9.5
    assert res.gap is None


def branching_model():
    """grid3x4-k3-s21 of the gate suite as PCS2: 19 columns, 7 binaries.

    Its LP relaxation is fractional, so HiGHS branches on it.
    """
    entry = _qualifying_instance(21)
    return build_single(entry["instance"], "PCS2", entry["bigm"], entry["enums"]).ir


def test_scipy_backend_counts_branch_and_bound_nodes():
    res = ScipyBackend().solve(branching_model(), budget=30)
    assert res.status == "optimal"
    assert res.mip_nodes >= 1


def milp_objective(model):
    """The optimum of ``model`` through ``scipy.optimize.milp``, dense arrays."""
    col = {v.name: j for j, v in enumerate(model.variables)}
    cost = np.zeros(len(col))
    for coef, name in model.objective:
        cost[col[name]] -= float(coef)
    matrix = np.zeros((len(model.constraints), len(col)))
    lo = np.full(len(model.constraints), -np.inf)
    hi = np.full(len(model.constraints), np.inf)
    for i, con in enumerate(model.constraints):
        for coef, name in con.terms:
            matrix[i, col[name]] += float(coef)
        if con.sense != ">=":
            hi[i] = float(con.rhs)
        if con.sense != "<=":
            lo[i] = float(con.rhs)
    bounds = Bounds(
        [-np.inf if v.lower is None else float(v.lower) for v in model.variables],
        [np.inf if v.upper is None else float(v.upper) for v in model.variables],
    )
    res = milp(
        cost,
        constraints=LinearConstraint(matrix, lo, hi),
        bounds=bounds,
        integrality=[int(v.binary) for v in model.variables],
        options={"mip_rel_gap": 0.0},
    )
    assert res.status == 0, res.message
    return -res.fun


def edge_model(label):
    """A model with columns no row uses, or with no rows at all, by label."""
    m = ModelIR(label)
    if label == "no-rows":
        m.add_variable("x", 0, 1)
        m.add_objective_term(1, "x")
        return m
    for name in ("a", "spare", "b", "tail"):
        m.add_variable(name, 0, 1)
    m.add_constraint("w", [(2, "b"), (3, "a")], "<=", 4)
    m.add_constraint("v", [(1, "a")], ">=", 0)
    m.add_objective_term(1, "a")
    return m


ARRAY_MODELS = [k.label for k in FORMULATIONS] + ["unused-columns", "no-rows"]


def array_model(fig, kind):
    """The perturbed fixture built as ``kind``, or an edge model by label."""
    if kind in ("unused-columns", "no-rows"):
        return edge_model(kind)
    return fixture_model(perturbed(fig), kind)


def scipy_matrix(model, layout):
    """The model's constraint matrix as a scipy ``csr_matrix`` or ``csc_matrix``.

    It is built from the model's row records, by name, not from the flat
    arrays :func:`_model_arrays` reads.
    """
    col = {v.name: j for j, v in enumerate(model.variables)}
    rows, cols, vals = [], [], []
    for i, con in enumerate(model.constraints):
        for coef, name in con.terms:
            rows.append(i)
            cols.append(col[name])
            vals.append(float(coef))
    return layout((vals, (rows, cols)), shape=(len(model.constraints), len(col)))


@pytest.mark.parametrize("kind", ARRAY_MODELS)
def test_model_arrays_match_scipy_csc(fig, kind):
    # The matrix goes to HiGHS row-wise, so the reference is scipy's CSR.
    from scipy.sparse import csr_matrix

    model = array_model(fig, kind)
    expected = scipy_matrix(model, csr_matrix)
    names, c, matrix, lo, hi, lb, ub, binary = _model_arrays(model)
    indptr, indices, data = matrix
    assert indptr == expected.indptr.tolist()
    # A row lists its columns in the order the model added them, which HiGHS
    # accepts; scipy sorts them.  A repeated column would survive the sort
    # here but be summed in the reference.
    got = csr_matrix((data, indices, indptr), shape=expected.shape)
    got.sort_indices()
    assert got.indices.tolist() == expected.indices.tolist()
    assert got.data.tolist() == expected.data.tolist()
    # Every other array is float() of the model's exact values, so HiGHS
    # receives the same doubles whatever container carries them.
    objective = {name: coef for coef, name in model.objective}
    assert c == [float(objective.get(v.name, 0)) for v in model.variables]
    cons, variables = model.constraints, model.variables
    assert lo == [-math.inf if r.sense == "<=" else float(r.rhs) for r in cons]
    assert hi == [math.inf if r.sense == ">=" else float(r.rhs) for r in cons]
    assert lb == [-math.inf if v.lower is None else float(v.lower) for v in variables]
    assert ub == [math.inf if v.upper is None else float(v.upper) for v in variables]
    assert names == [v.name for v in variables]
    assert binary == [v.binary for v in variables]


def test_model_arrays_are_float_of_every_exact_value_on_suite25(suite25):
    # The coefficients and right-hand sides are converted as numerator /
    # denominator; each float must still be float() of its exact value, on
    # models with perturbed, 59-bit denominators.
    inf = math.inf
    for entry in suite25:
        for kind in FORMULATIONS:
            model = build_single(
                entry["instance"], kind, entry["bigm"], entry["enums"],
                allow_vfcs=True,
            ).ir
            names, c, matrix, lo, hi, lb, ub, binary = _model_arrays(model)
            case = (entry["instance"].label, kind.label)
            assert matrix[2] == [float(v) for v in model.coefs], case
            rhs = [float(v) for v in model.rhs]
            assert lo == [-inf if s == "<=" else v for s, v in zip(model.senses, rhs)], case
            assert hi == [inf if s == ">=" else v for s, v in zip(model.senses, rhs)], case


@pytest.mark.parametrize("kind", ARRAY_MODELS)
def test_highs_holds_the_models_matrix_column_wise(fig, kind):
    # HiGHS transposes the row-wise hand-off itself; the columns it then
    # holds must be scipy's CSC of the model, entry for entry.
    from scipy.sparse import csc_matrix

    model = array_model(fig, kind)
    expected = scipy_matrix(model, csc_matrix)
    names, c, matrix, lo, hi, lb, ub, binary = _model_arrays(model)
    highs = _highs._Highs()
    highs.setOptionValue("output_flag", False)
    assert highs.passModel(_highs_lp(c, matrix, lo, hi, lb, ub, binary)) == (
        _highs.HighsStatus.kOk
    )
    highs.ensureColwise()
    held = highs.getLp().a_matrix_
    assert held.format_ == _highs.MatrixFormat.kColwise
    assert (held.num_row_, held.num_col_) == expected.shape
    assert list(held.start_) == expected.indptr.tolist()
    assert list(held.index_) == expected.indices.tolist()
    assert list(held.value_) == expected.data.tolist()


def test_scipy_backend_warns_when_highs_drops_a_coefficient(caplog, monkeypatch):
    # max x + y with x + 5e-10 y <= 1: HiGHS drops the 5e-10, which is below
    # its small_matrix_value, and solve() still re-checks the point against
    # the exact row, which x = y = 1 meets within the tolerance.
    m = ModelIR("tiny-coefficient")
    m.add_variable("x", 0, 1, binary=True)
    m.add_variable("y", 0, 1, binary=True)
    m.add_constraint("cap", [(1, "x"), (Fraction(1, 2 * 10**9), "y")], "<=", 1)
    m.add_objective_term(1, "x")
    m.add_objective_term(1, "y")
    checked = []
    violations = ModelIR.violations

    def spy(self, *args, **kwargs):
        checked.append(self)
        return violations(self, *args, **kwargs)

    monkeypatch.setattr(ModelIR, "violations", spy)
    with caplog.at_level(logging.WARNING, logger="tollgate.solver"):
        res = solve(m, budget=30)
    assert [r.levelname for r in caplog.records] == ["WARNING"]
    assert "dropped 1 of 2 nonzeros" in caplog.records[0].getMessage()
    assert "tiny-coefficient" in caplog.records[0].getMessage()
    assert checked == [m]
    assert res.status == "optimal"
    assert res.assignment == pytest.approx({"x": 1.0, "y": 1.0})


def run_probe(script):
    """Run ``script`` in a fresh interpreter; the JSON of its last line."""
    src = str(Path(tollgate.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", script],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.splitlines()[-1])


# Run in a fresh interpreter: which of numpy and the heavy scipy modules
# ``import tollgate`` loads, and whether scipy's own HiGHS entry points then
# share tollgate's binding, by import and by attribute.
_IMPORT_PROBE = """
import json, sys
{first}
import tollgate
loaded = [m for m in ("numpy", "scipy.optimize", "scipy.sparse", "scipy.spatial")
          if m in sys.modules]
import numpy as np
import scipy.optimize
from scipy.optimize import Bounds, LinearConstraint, milp
from scipy.optimize._highspy import _core
try:
    chain = scipy.optimize._highspy._core is tollgate.solver._highs
except AttributeError:
    chain = False
res = milp(-np.array([5.0, 4.0, 3.0]),
           constraints=LinearConstraint([[4.0, 3.0, 2.0]], -np.inf, 6.0),
           bounds=Bounds(0, 1), integrality=np.ones(3))
print(json.dumps({{
    "loaded": loaded,
    "shared": _core is tollgate.solver._highs
              and sys.modules["scipy.optimize._highspy._core"] is _core,
    "chain": chain,
    "milp": -res.fun,
}}))
"""


@pytest.mark.parametrize(
    "first", ["", "import scipy.optimize"], ids=["tollgate-first", "scipy-first"]
)
def test_import_loads_highs_without_scipy_optimize(first):
    probe = run_probe(_IMPORT_PROBE.format(first=first))
    if not first:
        assert probe["loaded"] == []
    assert probe["shared"] is True
    assert probe["chain"] is True
    assert probe["milp"] == pytest.approx(8.0)


def test_import_loads_no_subprocess_or_thread_pool():
    # Only CommandBackend.solve needs subprocess, and only a threaded sweep
    # needs concurrent.futures; each imports it where it is used.
    probe = run_probe(
        "import json, sys\n"
        "import tollgate\n"
        "print(json.dumps([m for m in ('subprocess', 'concurrent.futures')"
        " if m in sys.modules]))"
    )
    assert probe == []


# Run in a fresh interpreter: the pre-solve command line (generate, then
# build) leaves numpy and the HiGHS binding unloaded; the first solve loads
# both.  The binding is never registered in sys.modules under its own name
# (see solver._load_highs), but loading it registers its submodules there.
_BUILD_PROBE = """
import json, sys
from tollgate.cli import main
from tollgate.model_ir import ModelIR
from tollgate.solver import ScipyBackend
def highs_loaded():
    core = "scipy.optimize._highspy._core"
    return any(m == core or m.startswith(core + ".") for m in sys.modules)
npp, lp = {npp!r}, {lp!r}
assert main(["generate", "--topology", "grid:3x4", "--commodities", "3",
             "--seed", "1", "--out", npp]) == 0
assert main(["build", "--instance", npp, "--main", "PCS2", "--breakpoint", "8",
             "--out", lp]) == 0
after_build = "numpy" in sys.modules
highs_after_build = highs_loaded()
m = ModelIR("knapsack")
for name in ("a", "b", "c"):
    m.add_variable(name, 0, 1, binary=True)
m.add_constraint("w", [(4, "a"), (3, "b"), (2, "c")], "<=", 6)
for coef, name in ((5, "a"), (4, "b"), (3, "c")):
    m.add_objective_term(coef, name)
res = ScipyBackend().solve(m, 30)
print(json.dumps({{
    "after_build": after_build,
    "after_solve": "numpy" in sys.modules,
    "highs_after_build": highs_after_build,
    "highs_after_solve": highs_loaded(),
    "status": res.status,
    "objective": res.objective,
}}))
"""


def test_build_command_runs_without_numpy(tmp_path):
    lp = tmp_path / "g1.lp"
    probe = run_probe(_BUILD_PROBE.format(npp=str(tmp_path / "g1.npp"), lp=str(lp)))
    assert "Maximize" in lp.read_text()
    assert probe["after_build"] is False
    assert probe["after_solve"] is True
    assert probe["highs_after_build"] is False
    assert probe["highs_after_solve"] is True
    assert probe["status"] == "optimal"
    assert probe["objective"] == pytest.approx(8.0)


# Run in a fresh interpreter: two threads make the process's first solves at
# once.  The loader is slowed down, so that both would load the binding if
# nothing kept the second one out.
_FIRST_SOLVES_PROBE = """
import json, threading, time
from tollgate import solver
from tollgate.model_ir import ModelIR
loads = []
load = solver._load_highs
def slow_load():
    time.sleep(0.2)
    loads.append(load())
    return loads[-1]
solver._load_highs = slow_load
def knapsack():
    m = ModelIR("knapsack")
    for name in ("a", "b", "c"):
        m.add_variable(name, 0, 1, binary=True)
    m.add_constraint("w", [(4, "a"), (3, "b"), (2, "c")], "<=", 6)
    for coef, name in ((5, "a"), (4, "b"), (3, "c")):
        m.add_objective_term(coef, name)
    return m
barrier = threading.Barrier(2)
seen = {}
def run(i):
    model = knapsack()
    barrier.wait(timeout=60)
    res = solver.ScipyBackend().solve(model, 30)
    seen[i] = (res.status, res.objective, id(solver._highs))
threads = [threading.Thread(target=run, args=(i,)) for i in range(2)]
for t in threads:
    t.start()
for t in threads:
    t.join(timeout=60)
print(json.dumps({
    "finished": not any(t.is_alive() for t in threads),
    "loads": len(loads),
    "runs": [list(seen[i]) for i in range(2)],
    "same": all(m is solver._highs for m in loads),
}))
"""


def test_first_solves_in_two_threads_load_one_binding():
    probe = run_probe(_FIRST_SOLVES_PROBE)
    assert probe["finished"] is True
    assert probe["loads"] == 1
    assert probe["same"] is True
    (status_a, objective_a, module_a), (status_b, objective_b, module_b) = probe["runs"]
    assert status_a == status_b == "optimal"
    assert objective_a == pytest.approx(8.0)
    assert objective_b == pytest.approx(8.0)
    assert module_a == module_b


def test_missing_highs_binding_names_the_folder_searched(tmp_path, monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.optimize._highspy._core")
    spec = importlib.machinery.ModuleSpec("scipy", None, is_package=True)
    spec.submodule_search_locations = [str(tmp_path)]
    monkeypatch.setattr(importlib.util, "find_spec", lambda name: spec)
    folder = tmp_path / "optimize" / "_highspy"
    with pytest.raises(ImportError, match=re.escape(str(folder))):
        _load_highs()


@pytest.mark.parametrize("perturb", [False, True], ids=["exact", "perturbed"])
@pytest.mark.parametrize("kind", [k.label for k in FORMULATIONS])
def test_scipy_backend_matches_milp(fig, kind, perturb, caplog):
    model = fixture_model(perturbed(fig) if perturb else fig, kind)
    with caplog.at_level(logging.DEBUG, logger="tollgate.solver"):
        res = ScipyBackend().solve(model, budget=30)
    # HiGHS keeps every nonzero of the fixture models, so nothing is logged.
    assert caplog.records == []
    assert res.status == "optimal"
    assert res.objective == pytest.approx(milp_objective(model), rel=1e-9)
    assert res.best_bound == pytest.approx(res.objective, rel=1e-9)
    c = _model_arrays(model)[1]
    values = [res.assignment[name] for name in model.names]
    assert res.objective == math.fsum(cj * xj for cj, xj in zip(c, values))


class _RunLog:
    """A HiGHS instance that logs, for each of its runs, whether the model
    passed has integer columns and which presolve setting it runs under."""

    def __init__(self, highs):
        self.highs = highs
        self.runs = []
        self.integer = None

    def __getattr__(self, name):
        return getattr(self.highs, name)

    def passModel(self, lp):
        kinteger = _highs.HighsVarType.kInteger
        self.integer = any(t == kinteger for t in lp.integrality_)
        return self.highs.passModel(lp)

    def run(self):
        self.runs.append((self.integer, self.highs.getOptionValue("presolve")[1]))
        return self.highs.run()


def _logged_solve(monkeypatch, model):
    """``ScipyBackend().solve(model)`` on a new instance; its result and runs."""
    # The solve hands its HiGHS instance back to the thread: restore the
    # thread's own one afterwards.
    monkeypatch.setattr(solver._per_thread, "highs", None, raising=False)
    take = solver._take_highs
    logs = []

    def take_logged():
        logs.append(_RunLog(take()))
        return logs[-1]

    monkeypatch.setattr(solver, "_take_highs", take_logged)
    res = ScipyBackend().solve(model, budget=30)
    assert len(logs) == 1
    return res, logs[0].runs


@pytest.mark.parametrize("perturb", [False, True], ids=["exact", "perturbed"])
@pytest.mark.parametrize("kind", [k.label for k in FORMULATIONS])
def test_an_integral_relaxation_ends_the_solve(fig, kind, perturb, monkeypatch):
    # Every fixture model's LP relaxation has an integral optimum: HiGHS runs
    # once, as an LP without presolve, and that optimum is the MIP's.
    model = fixture_model(perturbed(fig) if perturb else fig, kind)
    res, runs = _logged_solve(monkeypatch, model)
    assert runs == [(False, "off")]
    assert res.status == "optimal"
    assert res.mip_nodes == 0
    assert res.objective == pytest.approx(milp_objective(model), rel=1e-9)
    assert res.best_bound == res.objective


def test_a_fractional_relaxation_goes_on_to_the_mip(monkeypatch):
    # The knapsack's relaxation takes a quarter of a for 8.25; the MIP then
    # runs under HiGHS's default presolve and ends at 8.  (HiGHS's MIP
    # presolve solves this knapsack without a branch-and-bound node.)
    res, runs = _logged_solve(monkeypatch, knapsack_model())
    assert runs == [(False, "off"), (True, "choose")]
    assert res.status == "optimal"
    assert res.objective == pytest.approx(8.0)
    assert res.best_bound == pytest.approx(8.0)
    assert res.assignment == pytest.approx({"a": 1.0, "b": 0.0, "c": 1.0})


class _ScriptedHighs:
    """A HiGHS stand-in that ends the knapsack's relaxation optimal at
    ``relaxed`` and its MIP optimal at a = c = 1 after three nodes.

    Each run logs whether the model has integer columns and the time limit
    it runs under; the relaxation's run advances ``clock`` by ``spend``.
    """

    def __init__(self, relaxed, clock=None, spend=0.0):
        self.relaxed = relaxed
        self.clock = clock
        self.spend = spend
        self.options = {}
        self.runs = []
        self.lp = None

    def setOptionValue(self, key, value):
        self.options[key] = value
        return _highs.HighsStatus.kOk

    def passModel(self, lp):
        self.lp = lp
        return _highs.HighsStatus.kOk

    def _integer(self):
        return any(t == _highs.HighsVarType.kInteger for t in self.lp.integrality_)

    def getNumNz(self):
        return len(self.lp.a_matrix_.value_)

    def run(self):
        self.runs.append((self._integer(), self.options["time_limit"]))
        if not self._integer() and self.clock is not None:
            self.clock.now += self.spend
        return _highs.HighsStatus.kOk

    def getModelStatus(self):
        return _highs.HighsModelStatus.kOptimal

    def getSolution(self):
        values = [1.0, 0.0, 1.0] if self._integer() else self.relaxed
        return SimpleNamespace(col_value=values)

    def getInfo(self):
        return SimpleNamespace(
            objective_function_value=8.0,
            mip_dual_bound=8.0 if self._integer() else 0.0,
            mip_node_count=3 if self._integer() else -1,
        )

    def clearModel(self):
        self.lp = None


@pytest.mark.parametrize(
    "b, searched", [(1e-5, True), (1e-7, False), (1 - 1e-7, False), (1 - 1e-5, True)]
)
def test_a_binary_off_by_more_than_the_tolerance_goes_on_to_the_mip(
    monkeypatch, b, searched
):
    # A binary within CHECK_TOLERANCE (1e-6) of 0 or 1 counts as integral.
    monkeypatch.setattr(solver._per_thread, "highs", None, raising=False)
    fake = _ScriptedHighs([1.0, b, 1.0])
    monkeypatch.setattr(solver, "_take_highs", lambda: fake)
    res = ScipyBackend().solve(knapsack_model(), budget=30)
    assert [integer for integer, _ in fake.runs] == [False, True][: 1 + searched]
    assert res.status == "optimal"
    assert res.mip_nodes == (3 if searched else 0)
    assert res.assignment["b"] == (0.0 if searched else b)


def test_the_mip_gets_the_budget_less_the_relaxations_time(monkeypatch):
    clock = SimpleNamespace(now=1000.0)
    monkeypatch.setattr(solver, "time", SimpleNamespace(perf_counter=lambda: clock.now))
    monkeypatch.setattr(solver._per_thread, "highs", None, raising=False)
    fake = _ScriptedHighs([0.25, 1.0, 1.0], clock=clock, spend=12.5)
    monkeypatch.setattr(solver, "_take_highs", lambda: fake)
    res = ScipyBackend().solve(knapsack_model(), budget=30)
    assert fake.runs == [(False, 30.0), (True, 17.5)]
    assert res.wall_time == 12.5
    assert res.objective == 8.0


def test_presolve_is_back_at_highs_default_after_each_solve(fig):
    # The relaxation runs without presolve.  After a solve that ended there
    # (the fixture's STD) and after one that went on to the MIP (the
    # knapsack), the thread's instance holds HiGHS's default again.
    default = _highs._Highs().getOptionValue("presolve")

    def in_turn():
        read = []
        for model in (fixture_model(fig, "STD"), knapsack_model()):
            res = ScipyBackend().solve(model, budget=30)
            read.append((res.status, _thread_instance().getOptionValue("presolve")))
        return read

    assert _on_a_new_thread(in_turn) == [("optimal", default)] * 2


def _same_file(a, b):
    return (a.st_dev, a.st_ino) == (b.st_dev, b.st_ino)


def test_fd1_silencing_is_restored_under_threads():
    # Threads that each saved and restored fd 1 on their own would leave it
    # on the null device once any but the first thread in leaves last; the
    # shared count must restore it whatever the order.
    before = os.fstat(1)
    null = os.stat(os.devnull)
    workers = 6
    together = threading.Barrier(workers, timeout=30)
    errors = []

    def worker():
        try:
            for _ in range(20):
                together.wait()
                with _fd1_silenced():
                    together.wait()  # every thread is inside at once
                    if not _same_file(os.fstat(1), null):
                        errors.append("fd 1 is not the null device inside")
        except Exception as exc:  # noqa: BLE001 - reported below
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=worker) for _ in range(workers)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert _same_file(os.fstat(1), before)


def _solved(result):
    """Everything a solve determines in its result, all but its wall time."""
    return (
        result.status, result.objective, result.best_bound,
        result.assignment, result.mip_nodes,
    )


def _on_a_new_thread(fn):
    """``fn()`` on a thread of its own, which makes its own HiGHS instance."""
    with ThreadPoolExecutor(max_workers=1) as pool:
        return pool.submit(fn).result(timeout=120)


def _thread_instance():
    return getattr(solver._per_thread, "highs", None)


def test_thread_instance_solves_each_model_as_a_fresh_one(fig):
    # One thread's instance solves A, then B stopped by a zero budget, then
    # A again: neither B's model nor its time limit may carry over into A.
    a = branching_model()
    b = fixture_model(fig, "STD")
    fresh = _on_a_new_thread(lambda: ScipyBackend().solve(a, budget=30))

    def in_turn():
        results, held = [], []
        for model, budget in ((a, 30), (b, 0), (a, 30)):
            results.append(ScipyBackend().solve(model, budget))
            held.append(_thread_instance())
        return results, held

    (first, stopped, again), held = _on_a_new_thread(in_turn)
    assert fresh.status == "optimal" and fresh.mip_nodes >= 1
    assert stopped.status == "budget-exhausted"
    assert _solved(first) == _solved(fresh)
    assert _solved(again) == _solved(fresh)
    # One instance served all three solves, and it holds no model between them.
    assert held[0] is not None and held.count(held[0]) == 3
    assert (held[0].getNumCol(), held[0].getNumRow()) == (0, 0)


def test_a_rejected_model_leaves_the_next_solve_correct(fig):
    # HiGHS rejects a coefficient of 1e16 (its large_matrix_value is 1e15).
    # The instance that raised is dropped, and the thread's next solve makes
    # a new one that solves as a fresh instance does.
    a = fixture_model(perturbed(fig), "PCS2")
    huge = ModelIR("huge")
    huge.add_variable("x", 0, 1, binary=True)
    huge.add_constraint("c", [(10**16, "x")], "<=", 1)
    huge.add_objective_term(1, "x")
    fresh = _on_a_new_thread(lambda: ScipyBackend().solve(a, budget=30))

    def in_turn():
        backend = ScipyBackend()
        backend.solve(a, 30)
        before = _thread_instance()
        with pytest.raises(SolverError, match="rejected model 'huge'"):
            backend.solve(huge, 30)
        dropped = _thread_instance() is None
        return before, dropped, backend.solve(a, 30), _thread_instance()

    before, dropped, after, now = _on_a_new_thread(in_turn)
    assert dropped
    assert now is not None and now is not before
    assert _solved(after) == _solved(fresh)


def test_thread_instance_holds_every_option_of_the_table():
    # Read back from HiGHS after a solve, each option has the table's value
    # and type: an option that HiGHS renames, or re-types so that it takes
    # the table's value as another one, fails here.
    def solve_and_read():
        ScipyBackend().solve(knapsack_model(), budget=30)
        highs = _thread_instance()
        return {key: highs.getOptionValue(key) for key in solver._HIGHS_OPTIONS}

    read = _on_a_new_thread(solve_and_read)
    ok = _highs.HighsStatus.kOk
    for key, value in solver._HIGHS_OPTIONS.items():
        status, held = read[key]
        assert status == ok, key
        assert (type(held), held) == (type(value), value), key


def test_an_unknown_option_in_the_table_names_it(monkeypatch):
    monkeypatch.setitem(solver._HIGHS_OPTIONS, "tollgate_no_such_option", 1)
    with pytest.raises(SolverError, match="rejected option tollgate_no_such_option=1"):
        _on_a_new_thread(lambda: ScipyBackend().solve(knapsack_model(), budget=30))


@pytest.mark.parametrize(
    "table, named",
    [
        ({"output_flag": "yes"}, "output_flag='yes'"),
        ({"tollgate_no_such_option": 1, "output_flag": False}, "tollgate_no_such_option=1"),
    ],
)
def test_a_rejected_option_writes_nothing_to_stdout(monkeypatch, capfd, table, named):
    # Until output_flag is off, HiGHS reports a rejected option on file
    # descriptor 1, where a sweep writes its CSV: the error must reach the
    # caller only as SolverError.
    rest = {k: v for k, v in solver._HIGHS_OPTIONS.items() if k not in table}
    monkeypatch.setattr(solver, "_HIGHS_OPTIONS", {**table, **rest})
    with pytest.raises(SolverError, match=f"rejected option {named}"):
        _on_a_new_thread(lambda: ScipyBackend().solve(knapsack_model(), budget=30))
    assert capfd.readouterr().out == ""


def test_threaded_sweep_equals_the_serial_one(suite25):
    # Each worker thread solves on its own HiGHS instance; the records must
    # be the serial sweep's, all but the timings.  Each sweep gets copies,
    # which share no preparation with the other sweep or with other tests.
    def copy(instance):
        net = instance.network
        return ProblemInstance(
            Network(net.num_nodes, net.arcs), instance.commodities, instance.label
        )

    def outcome(records):
        return [
            (r.instance, r.kind, r.breakpoint, r.status, r.objective, r.gap_pct, r.error)
            for r in records
        ]

    instances = [entry["instance"] for entry in suite25[:3]]
    kinds = [k.label for k in FORMULATIONS]
    serial = run_sweep([copy(i) for i in instances], kinds, [8, 4000], budget=60)
    threaded = run_sweep(
        [copy(i) for i in instances], kinds, [8, 4000], budget=60, jobs=2
    )
    assert len(serial) == 3 * 12 * 2
    assert all(r.status == "optimal" for r in serial)
    assert outcome(threaded) == outcome(serial)


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


def test_command_template_validation():
    with pytest.raises(SolverError, match="template"):
        CommandBackend("solver-without-placeholders")


def test_command_backend_round_trip(toy_solver_cmd, fig, fig_enum, fig_bigm):
    backend = CommandBackend(toy_solver_cmd)
    res = solve(fig_model(fig, fig_enum, fig_bigm), budget=60, backend=backend)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(7.0)
    assert res.best_bound == pytest.approx(7.0)
    assert res.backend == "command"
    assert res.mip_nodes == 0


# Writes the knapsack's optimum a = c = 1, b = 0 as "identifier value" lines.
KNAPSACK_VALUES = "printf 'a 1\\nb 0\\nc 1\\n'"


def test_command_backend_without_a_status_reports_a_feasible_point():
    # Values alone prove nothing: the point is feasible, with no bound.
    backend = CommandBackend(f"{KNAPSACK_VALUES} > {{sol}}; cat {{lp}} > /dev/null")
    res = solve(knapsack_model(), budget=10, backend=backend)
    assert res.status == "feasible"
    assert res.best_bound is None
    assert res.objective == pytest.approx(8.0)
    assert res.assignment == {"a": 1.0, "b": 0.0, "c": 1.0}
    assert res.gap is None


STATUS_LINES = [
    ("Model status: Optimal", True),
    ("Optimal - objective value 8.00000000", True),
    ("SCIP Status : problem is solved [optimal solution found]", True),
    ("Model status: Time limit reached", False),
    ("Status: INTEGER NON-OPTIMAL", False),
    ("Result - Stopped on time, suboptimal", False),
    ("solution is not optimal", False),
]


@pytest.mark.parametrize(
    "line, optimal, where",
    [
        pytest.param(line, optimal, where, id=f"{line}-{optimal}-{where}")
        for line, optimal in STATUS_LINES
        for where in ("solution-file", "stdout")
    ]
    + [
        # glpsol's log of a search stopped at its time limit: the root LP's
        # status comes first.
        pytest.param(
            "OPTIMAL LP SOLUTION FOUND\nTIME LIMIT EXCEEDED; SEARCH TERMINATED",
            False,
            "stdout",
            id="glpsol time limit-stdout",
        ),
    ],
)
def test_command_backend_reads_the_solvers_status(line, optimal, where):
    # Only the solution file states a status: standard output is a log.
    if where == "solution-file":
        template = f"(echo '{line}'; {KNAPSACK_VALUES}) > {{sol}}; cat {{lp}} > /dev/null"
    else:
        template = f"{KNAPSACK_VALUES} > {{sol}}; cat {{lp}} > /dev/null; echo '{line}'"
    proven = optimal and where == "solution-file"
    res = CommandBackend(template).solve(knapsack_model(), budget=10)
    assert res.status == ("optimal" if proven else "feasible")
    assert res.objective == pytest.approx(8.0)
    assert res.best_bound == (pytest.approx(8.0) if proven else None)


# HiGHS's own solution file for the knapsack's LP relaxation, as its
# writer (`highs --solution_file`) lays it out: the primal values come
# first, then dual values and basis codes under the same names.
HIGHS_LP_SOLUTION = """\
Model status
Optimal

# Primal solution values
Feasible
Objective 8.25
# Columns 3
a 0.25
b 1
c 1
# Rows 1
c0 6

# Dual solution values
Feasible
# Columns 3
a 0
b 0.25
c 0.5
# Rows 1
c0 1.25

# Basis
HiGHS_basis_file v2
Valid
# Columns 3
a 1
b 2
c 2
# Rows 1
c0 2
"""


def test_command_backend_reads_the_primal_section_of_a_highs_solution(tmp_path):
    (tmp_path / "highs.sol").write_text(HIGHS_LP_SOLUTION)
    backend = CommandBackend(f"cat {tmp_path / 'highs.sol'} > {{sol}}; cat {{lp}} > /dev/null")
    res = solve(knapsack_model(binary=False), budget=10, backend=backend)
    assert res.status == "optimal"
    assert res.assignment == {"a": 0.25, "b": 1.0, "c": 1.0}
    assert res.objective == res.best_bound == pytest.approx(8.25)


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

