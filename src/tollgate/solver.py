"""MILP backends and the trust-but-verify solve entry point.

Two backends ship by default.  ``ScipyBackend`` drives the HiGHS solver
bundled with scipy in-process, through scipy's private binding
``scipy.optimize._highspy._core``, and needs no external setup.
``scipy.optimize.milp`` passes only a few options to HiGHS, so the backend
uses the binding directly.  :func:`_load_highs` loads that extension module
from scipy's directory without running ``scipy.optimize``'s package
``__init__``, which would import linprog, linalg, fft and more that this
package never uses.  Nor is the binding loaded at import: the first
``ScipyBackend`` solve loads it, once per process and under a lock
(:func:`_bind_highs`), as does the first read of ``_highs``,
``_HIGHS_STATUS`` or ``_HIGHS_LIMITS`` from outside the module.  So
``generate``, ``enumerate``, ``reduce`` and ``build`` never load it.  On
a 2-core machine, loading it takes about 8 ms, and moving the load from
import to the first solve took ``import tollgate``, with compiled bytecode
in place, from a median of 64 ms to 47 ms (40 alternating runs each).
The model reaches HiGHS as plain Python lists of floats
(:func:`_model_arrays`), so this package imports no numpy; the binding
loads it itself on the first solve.  The constraint matrix goes
row-wise, as :class:`ModelIR` stores it, and HiGHS builds the columns
itself: on the 301 models of a gate25 pass at seed 0 that gives the same
objective, node count and column values, bit for bit, as handing it
columns.

Every MIP solve runs under one fixed option table, :data:`_HIGHS_OPTIONS`.
The models are small: over those 301 solves the median has 11 binaries,
35 columns and 41 rows, and the largest 47 binaries.  HiGHS's defaults
suit larger MIPs.  Besides silence and a zero gap, each entry of the table
switches down something that cost these models more time than it saved,
measured on a 2-core machine with the same optima:

- The sub-MIP heuristics (RINS, RENS, root reduced cost and feasibility
  jump) are off.  They took most of HiGHS's time on the gate suite;
  switching them off took its solves from 25-26 s to 6-7 s of HiGHS time.
- MIP presolve runs at the root node only (``mip_root_presolve_only``).
  Over the 301 models HiGHS's run time fell from a median of 1.27 s to
  0.92 s (9 interleaved repeats), with the same optimum up to 1.3e-15
  relative.
- The root is not restarted (``mip_allow_restart``) and reliability
  branching does no strong-branching warm-up (``mip_pscost_minreliable``
  0).  HiGHS restarts the root once presolve can fix enough of the
  integer columns, and strong-branches each column until its pseudocosts
  are reliable; on these models both cost more than they save.  Timed
  alone on the 301 models (best of 3 per model), ``run`` took 735 ms in
  total, 11.7 ms for the 11th slowest model and 14.2 ms for the slowest
  before; with no restart 717, 9.3 and 12.8 ms; with no warm-up 721,
  11.4 and 13.6 ms; with both 674, 9.0 and 11.5 ms.  The node count rose
  from 287 to 777, and every model kept its status and optimum, up to
  2.8e-15 relative.  On 6x6 grids with 8 commodities (seeds 0-5, all
  twelve kinds, breakpoint 4000), where several kinds branch, the 72
  runs of ``run_one`` took 3.7-3.8 s instead of 5.5 s, and the slowest
  solve 0.23 s instead of 0.64-0.67 s.

Presolve itself stays on for the MIP.  Switched off on top of the table,
it made the median of the 301 models faster (0.79 to 0.59 ms) but the
slowest slower (11.5 to 22.9 ms).  Switched off instead of the two options
above, it left the 6x6 grids at 5.3-6.2 s.

Relaxation first.  A model with binaries is first solved as its LP
relaxation: passed with its integrality cleared and run with presolve off,
under the whole budget.  When HiGHS proves that LP optimal and every
binary lies within :data:`CHECK_TOLERANCE` (1e-6, HiGHS's own
``mip_feasibility_tolerance``) of 0 or 1, the point is the MIP's optimum
too, and it is returned with its objective as its bound and no
branch-and-bound node.  Otherwise the model is passed again with its
integrality and solved as a MIP, under HiGHS's default presolve and what
is left of the budget.  The twelve kinds differ mostly in how tight their
relaxations are, and on the gate suite most are exact: at seeds 0 and 7,
204 of the 301 models of a gate25 pass have a relaxation whose binaries
lie within 1e-15 of 0 or 1.  On such a model the MIP solver's set-up
costs more than the solve: timed alone on a 2-core machine (best of 3),
``run`` took a median of 0.68 ms on these 204 as a MIP, against 0.20 ms
for the same model's relaxation with presolve off.  Presolve is off for
the relaxation because on LPs this small it costs more than it saves:
with HiGHS's default the 301 relaxations took a median of 0.52 ms, not
0.23 ms.  A fractional relaxation is a wasted run, a median of 0.37 ms
and at most 1.2 ms on gate25, which made the gate's slowest cells 5-9%
slower.  At sweep scale, on grid5x12 and delaunay60 with 40 commodities
at breakpoints 8 and 64, every relaxation was fractional and took 35-380
ms, and that time is charged to the budget.

HiGHS drops coefficients below its ``small_matrix_value`` (1e-9); the
backend logs a warning with their count when it does.  HiGHS writes some
debug lines to file descriptor 1 whatever ``output_flag`` says, and
reports an option it rejects there until ``output_flag`` is off, so fd 1
points at the null device while a solve sets options and while HiGHS
runs; otherwise those lines land inside the CSV that ``tollgate sweep``
writes to stdout.  A rejected option still raises :class:`SolverError`,
which names it.  The null device is opened
once, and its descriptor kept open for the process.

Each thread solves on one HiGHS instance of its own, made on the thread's
first solve and given the fixed options then.  A solve sets only its time
limit, and presolve off for a relaxation and back to HiGHS's default
after it.  It passes the model with HiGHS's maximize sense (the costs as
they are, and the dual bound read in the model's own sense), reads the
results and clears the model (``clearModel``), so the instance keeps its
options and no model outlives its solve.  An instance whose solve raises is dropped,
and the thread's next solve makes a new one.  On the 300 cells of a gate25
pass at seeds 0 and 7, this gives the same status, objective, bound, node
count and column values, bit for bit, as a new instance per solve.

``CommandBackend`` shells out to any solver that can read an LP file and
print ``name value`` lines, configured through a command template.  Callers
pick one by passing it as ``backend=`` (the command line's ``--solver-cmd``
builds a ``CommandBackend``); without one, ``ScipyBackend`` solves.  Every
solve is re-checked against the model's own constraint list before the
result is returned, so a backend that lies about feasibility is caught here
rather than in downstream math.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import logging
import math
import os
import re
import sys
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Protocol

from .model_ir import ModelIR
from .lp_format import lp_name_map, write_lp

_HIGHS_MODULE = "scipy.optimize._highspy._core"


def _load_highs():
    """scipy's HiGHS binding, without importing ``scipy.optimize``.

    The extension is loaded from scipy's directory, which
    ``importlib.util.find_spec`` finds without running scipy's ``__init__``.
    It is not registered in ``sys.modules``: a later ``import
    scipy.optimize`` then loads it itself, gets this same module object
    back from the interpreter's extension cache, and sets it as an
    attribute of ``scipy.optimize._highspy``.  Registered here, before its
    parent packages exist, it would be found in ``sys.modules`` and never
    set as that attribute.  Loading it does register its submodules there,
    such as ``scipy.optimize._highspy._core.cb``.
    """
    loaded = sys.modules.get(_HIGHS_MODULE)
    if loaded is not None:
        return loaded
    scipy_spec = importlib.util.find_spec("scipy")
    if scipy_spec is None or not scipy_spec.submodule_search_locations:
        raise ImportError("scipy is not installed", name=_HIGHS_MODULE)
    folder = Path(scipy_spec.submodule_search_locations[0], "optimize", "_highspy")
    for suffix in importlib.machinery.EXTENSION_SUFFIXES:
        path = folder / f"_core{suffix}"
        if path.is_file():
            break
    else:
        raise ImportError(
            f"scipy's HiGHS binding {_HIGHS_MODULE} is not in {folder}",
            name=_HIGHS_MODULE,
            path=str(folder),
        )
    spec = importlib.util.spec_from_file_location(_HIGHS_MODULE, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


log = logging.getLogger(__name__)

#: Default wall-clock budget per solve, in seconds.
DEFAULT_BUDGET = 300.0

#: Absolute tolerance used when re-checking a claimed solution.
CHECK_TOLERANCE = 1e-6

STATUS_OPTIMAL = "optimal"
STATUS_FEASIBLE = "feasible"
STATUS_BUDGET = "budget-exhausted"
STATUS_INFEASIBLE = "infeasible"
STATUS_UNBOUNDED = "unbounded"
STATUS_ERROR = "error"


class SolverError(RuntimeError):
    pass


@dataclass
class SolveResult:
    status: str
    objective: Optional[float]
    best_bound: Optional[float]
    assignment: dict[str, float] = field(default_factory=dict)
    wall_time: float = 0.0
    backend: str = ""
    cut_rounds: int = 0
    #: Branch-and-bound nodes, summed over cut rounds; 0 for an LP, for a
    #: MIP whose LP relaxation ended the solve, or when the backend does not
    #: report them.
    mip_nodes: int = 0

    @property
    def gap(self) -> Optional[float]:
        """Relative optimality gap, 0 when proven optimal, None when unknown."""
        if self.status == STATUS_OPTIMAL:
            return 0.0
        if self.objective is None or self.best_bound is None:
            return None
        return (self.best_bound - self.objective) / max(1e-10, abs(self.best_bound))


class Backend(Protocol):
    name: str

    def solve(self, model: ModelIR, budget: float) -> SolveResult: ...


def _model_arrays(model: ModelIR):
    """The model as float lists: ``names, c, matrix, lo, hi, lb, ub, binary``.

    ``matrix`` is the constraint matrix row-wise, as the model stores it:
    row starts, column indices and values; ``lo`` and ``hi`` bound the rows,
    ``lb`` and ``ub`` the columns.  Every float is ``float()`` of the model's
    exact value; the coefficients and right-hand sides are the model's
    float view (:meth:`~tollgate.model_ir.ModelIR.float_rows`), which the
    solution check reads too.
    HiGHS turns the rows into columns itself, which leaves each column's
    rows ascending, the matrix a column-wise hand-off would pass.
    """
    c = [0.0] * len(model.names)
    for coef, name in model.objective:
        c[model.column[name]] = float(coef)
    coefs, rhs = model.float_rows()
    matrix = model.starts, model.cols, coefs
    inf = math.inf
    lo = [-inf if sense == "<=" else v for sense, v in zip(model.senses, rhs)]
    hi = [inf if sense == ">=" else v for sense, v in zip(model.senses, rhs)]
    lb = [-inf if v is None else float(v) for v in model.lower]
    ub = [inf if v is None else float(v) for v in model.upper]
    return model.names, c, matrix, lo, hi, lb, ub, model.binary


# HiGHS options of every solve besides its time limit: silent, a MIP solved
# to a zero gap, and HiGHS's machinery for large MIPs switched down, since
# on models this small it costs more time than it saves: the sub-MIP
# heuristics off, MIP presolve at the root node only, no root restart and
# no strong-branching warm-up.  The module docstring gives the measurement
# behind each entry, and why presolve stays on.
_HIGHS_OPTIONS = {
    "output_flag": False,
    "mip_rel_gap": 0.0,
    "mip_heuristic_run_rins": False,
    "mip_heuristic_run_rens": False,
    "mip_heuristic_run_root_reduced_cost": False,
    "mip_heuristic_run_feasibility_jump": False,
    "mip_root_presolve_only": True,
    "mip_allow_restart": False,
    "mip_pscost_minreliable": 0,
}

_binding_lock = threading.Lock()


def _bind_highs() -> None:
    """Load the binding and its status tables, once per process.

    Sets the module globals ``_highs`` (the binding :func:`_load_highs`
    returns), ``_HIGHS_LIMITS`` (the statuses under which HiGHS may hold a
    MIP incumbent without a proof) and ``_HIGHS_STATUS`` (HiGHS's model
    statuses mapped to this module's).  ``_highs`` is set last, so a thread
    that finds it set finds the tables set too; the lock keeps two threads'
    first solves from loading the binding twice.
    """
    global _highs, _HIGHS_LIMITS, _HIGHS_STATUS
    if "_highs" in globals():
        return
    with _binding_lock:
        if "_highs" in globals():
            return
        highs = _load_highs()
        status = highs.HighsModelStatus
        _HIGHS_LIMITS = (
            status.kTimeLimit,
            status.kIterationLimit,
            status.kSolutionLimit,
        )
        _HIGHS_STATUS = {
            status.kOptimal: STATUS_OPTIMAL,
            status.kInfeasible: STATUS_INFEASIBLE,
            status.kUnbounded: STATUS_UNBOUNDED,
            **{limit: STATUS_BUDGET for limit in _HIGHS_LIMITS},
        }
        _highs = highs


def __getattr__(name: str):
    # Reading the binding or a status table from outside loads it first.
    if name in ("_highs", "_HIGHS_LIMITS", "_HIGHS_STATUS"):
        _bind_highs()
        return globals()[name]
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def _highs_lp(c, matrix, lo, hi, lb, ub, binary) -> "_highs.HighsLp":
    """The model as a row-wise ``HighsLp`` that maximizes ``c``.

    ``matrix`` is the constraint matrix's row starts, column indices and
    values, as :func:`_model_arrays` returns them.
    """
    lp = _highs.HighsLp()
    lp.num_col_, lp.num_row_ = len(c), len(lo)
    lp.sense_ = _highs.ObjSense.kMaximize
    lp.col_cost_ = c
    lp.col_lower_, lp.col_upper_ = lb, ub
    lp.row_lower_, lp.row_upper_ = lo, hi
    a = lp.a_matrix_
    a.format_ = _highs.MatrixFormat.kRowwise
    a.num_col_, a.num_row_ = lp.num_col_, lp.num_row_
    a.start_, a.index_, a.value_ = matrix
    integer = _highs.HighsVarType.kInteger
    continuous = _highs.HighsVarType.kContinuous
    lp.integrality_ = [integer if b else continuous for b in binary]
    return lp


_fd1_lock = threading.Lock()
_fd1_users = 0
_fd1_saved = -1
_fd1_null = -1


@contextmanager
def _fd1_silenced():
    """Point file descriptor 1 at the null device for the block's duration.

    Threads share fd 1, so the first thread in saves it and the last one out
    restores it; each saving and restoring on its own can leave fd 1 on the
    null device for good.  The null device is opened on first use and kept
    open for the process.  Python-level writes to ``sys.stdout`` made by
    other threads meanwhile are lost too, so callers print after their
    solves.
    """
    global _fd1_users, _fd1_saved, _fd1_null
    with _fd1_lock:
        if _fd1_users == 0:
            if _fd1_null < 0:
                _fd1_null = os.open(os.devnull, os.O_WRONLY)
            sys.stdout.flush()
            _fd1_saved = os.dup(1)
            os.dup2(_fd1_null, 1)
        _fd1_users += 1
    try:
        yield
    finally:
        with _fd1_lock:
            _fd1_users -= 1
            if _fd1_users == 0:
                os.dup2(_fd1_saved, 1)
                os.close(_fd1_saved)


# Each thread's HiGHS instance, between its solves (see _take_highs).
_per_thread = threading.local()


def _set_option(highs, key: str, value) -> None:
    if highs.setOptionValue(key, value) != _highs.HighsStatus.kOk:
        raise SolverError(f"HiGHS rejected option {key}={value!r}")


def _take_highs():
    """The calling thread's HiGHS instance, taken from the thread for a solve.

    The thread's first solve makes the instance and gives it
    :data:`_HIGHS_OPTIONS`.  A solve sets only its time limit and, around
    a relaxation, presolve; it hands the instance back once its results
    are read and its model cleared, so an instance whose solve raises is
    dropped and the next solve makes a new one.  Call it under
    :func:`_fd1_silenced`: HiGHS reports a rejected option on fd 1.
    """
    highs = getattr(_per_thread, "highs", None)
    _per_thread.highs = None
    if highs is None:
        highs = _highs._Highs()
        for key, value in _HIGHS_OPTIONS.items():
            _set_option(highs, key, value)
    return highs


def _pass_model(highs, lp, model: ModelIR) -> None:
    if highs.passModel(lp) == _highs.HighsStatus.kError:
        raise SolverError(f"HiGHS rejected model {model.label!r}")


def _relaxation_is_integral(highs, binary) -> bool:
    """Run the passed model, its integrality cleared, as an LP without presolve.

    True when HiGHS proves an optimum whose binaries all lie within
    :data:`CHECK_TOLERANCE` of 0 or 1: that point is then the MIP's optimum
    too.  Presolve is HiGHS's default (``choose``) again afterwards.
    """
    _set_option(highs, "presolve", "off")
    highs.run()
    _set_option(highs, "presolve", "choose")
    if _HIGHS_STATUS.get(highs.getModelStatus()) != STATUS_OPTIMAL:
        return False
    values = highs.getSolution().col_value
    return all(
        min(abs(v), abs(1.0 - v)) <= CHECK_TOLERANCE
        for v, b in zip(values, binary)
        if b
    )


class ScipyBackend:
    """HiGHS in-process, through the binding bundled with scipy.

    The model goes to HiGHS as one ``HighsLp`` that maximizes the model's
    objective.  A model with binaries is solved as its LP relaxation first
    (:func:`_relaxation_is_integral`), under the whole budget; when that
    optimum is not integral, the MIP is solved under the fixed options of
    :data:`_HIGHS_OPTIONS` (sub-MIP heuristics, root restarts and the
    strong-branching warm-up off, presolve at the root node only) and the
    rest of the budget as HiGHS's time limit.  Each thread solves on its
    own HiGHS instance (:func:`_take_highs`), which keeps its options
    between solves and holds no model between them.
    """

    name = "scipy-highs"

    def solve(self, model: ModelIR, budget: float = DEFAULT_BUDGET) -> SolveResult:
        _bind_highs()
        names, c, matrix, lo, hi, lb, ub, binary = _model_arrays(model)
        is_mip = any(binary)
        budget = max(0.0, float(budget))
        start = time.perf_counter()
        lp = _highs_lp(c, matrix, lo, hi, lb, ub, binary)
        if is_mip:
            integrality, lp.integrality_ = lp.integrality_, []
        # HiGHS writes to fd 1 when it rejects an option, and while it runs.
        with _fd1_silenced():
            highs = _take_highs()
            _set_option(highs, "time_limit", budget)
            _pass_model(highs, lp, model)
            dropped = len(matrix[2]) - highs.getNumNz()
            relaxed = is_mip and _relaxation_is_integral(highs, binary)
            # Whether HiGHS ends with a branch and bound's results, or an LP's.
            searched = is_mip and not relaxed
            if searched:
                # The MIP gets what is left of the budget.
                lp.integrality_ = integrality
                spent = time.perf_counter() - start
                _set_option(highs, "time_limit", max(0.0, budget - spent))
                _pass_model(highs, lp, model)
            if not relaxed:
                highs.run()
        elapsed = time.perf_counter() - start
        # HiGHS drops coefficients below its small_matrix_value (1e-9) and
        # says so only through a warning status; solve()'s re-check still
        # holds the point to the exact rows.
        if dropped:
            log.warning(
                "HiGHS dropped %d of %d nonzeros of model %r as below its "
                "small_matrix_value",
                dropped, len(matrix[2]), model.label,
            )
        model_status = highs.getModelStatus()
        info = highs.getInfo()
        status = _HIGHS_STATUS.get(model_status)
        if status is None:
            raise SolverError(
                f"HiGHS ended model {model.label!r} with model status "
                f"{highs.modelStatusToString(model_status)} ({model_status.name})"
            )
        # An LP stopped early holds no feasible point; a MIP may hold one.
        has_point = model_status == _highs.HighsModelStatus.kOptimal or (
            searched
            and model_status in _HIGHS_LIMITS
            and math.isfinite(info.objective_function_value)
        )
        assignment: dict[str, float] = {}
        objective = None
        bound = None
        # A MIP ended optimal or at a limit keeps HiGHS's dual bound, with or
        # without an incumbent.
        ended = status in (STATUS_OPTIMAL, STATUS_BUDGET)
        if searched and ended and math.isfinite(info.mip_dual_bound):
            bound = float(info.mip_dual_bound)
        if has_point:
            values = highs.getSolution().col_value
            assignment = dict(zip(names, values))
            objective = math.fsum(cj * xj for cj, xj in zip(c, values))
            if status == STATUS_BUDGET:
                status = STATUS_FEASIBLE  # incumbent in hand, optimality unproven
            if bound is None and status == STATUS_OPTIMAL:
                bound = objective
        mip_nodes = max(0, int(info.mip_node_count)) if searched else 0
        highs.clearModel()
        _per_thread.highs = highs
        return SolveResult(
            status=status,
            objective=objective,
            best_bound=bound,
            assignment=assignment,
            wall_time=elapsed,
            backend=self.name,
            mip_nodes=mip_nodes,
        )


#: How a solver states a proven optimum: the word "optimal", not negated.
#: It matches HiGHS's "Model status: Optimal", CBC's "Optimal - objective
#: value 7", SCIP's "[optimal solution found]" and glpsol's "INTEGER
#: OPTIMAL", but not "suboptimal", "non-optimal" or "not optimal".
_OPTIMAL_WORD = re.compile(r"(?<![\w-])(?<!not )optimal\b", re.IGNORECASE)


class CommandBackend:
    """Run an external solver through a shell command template.

    The template must contain ``{lp}`` and ``{sol}`` placeholders, e.g.::

        highs {lp} --solution_file {sol}
        scip -c "read {lp} optimize write solution {sol} quit"

    The solution file is scanned for ``name value`` pairs, one per line;
    lines that do not parse that way are skipped, which tolerates the
    headers and footers most solvers add.  The first value given for a
    name is kept: HiGHS lists the primal values first, then dual values and
    basis codes under the same names.  The result is ``optimal`` only
    when the solution file says so (see :data:`_OPTIMAL_WORD`); otherwise
    the values are a ``feasible`` point with no bound.  HiGHS, CBC, SCIP
    and glpsol's ``-o`` file all state the status there.  Standard output
    is a log, not a status: glpsol prints ``OPTIMAL LP SOLUTION FOUND`` for
    the root relaxation of a run that then stops at its time limit.
    """

    name = "command"

    def __init__(self, template: str):
        if "{lp}" not in template or "{sol}" not in template:
            raise SolverError("solver command template needs {lp} and {sol}")
        self.template = template

    def solve(self, model: ModelIR, budget: float = DEFAULT_BUDGET) -> SolveResult:
        # Imported here, the one place that needs them, so that a run
        # without an external solver does not load them.
        import shlex
        import subprocess
        import tempfile

        with tempfile.TemporaryDirectory(prefix="tollgate-") as tmp:
            lp_path = Path(tmp) / "model.lp"
            sol_path = Path(tmp) / "model.sol"
            lp_path.write_text(write_lp(model))
            decode = lp_name_map(model)
            command = self.template.format(lp=shlex.quote(str(lp_path)), sol=shlex.quote(str(sol_path)))
            start = time.perf_counter()
            try:
                proc = subprocess.run(
                    command,
                    shell=True,
                    capture_output=True,
                    text=True,
                    timeout=budget * 1.5 + 30,
                )
            except subprocess.TimeoutExpired:
                return SolveResult(
                    status=STATUS_BUDGET,
                    objective=None,
                    best_bound=None,
                    wall_time=time.perf_counter() - start,
                    backend=self.name,
                )
            elapsed = time.perf_counter() - start
            if not sol_path.exists():
                raise SolverError(
                    f"solver command produced no solution file (exit {proc.returncode}):\n"
                    f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
                )
            text = sol_path.read_text()
        lowered = text.lower()
        if "infeasible" in lowered:
            return SolveResult(
                status=STATUS_INFEASIBLE,
                objective=None,
                best_bound=None,
                wall_time=elapsed,
                backend=self.name,
            )
        assignment: dict[str, float] = {}
        # Lines other than variable values: where a solver states its status.
        remarks = []
        for line in text.splitlines():
            parts = line.split()
            if len(parts) != 2 or parts[0] not in decode:
                remarks.append(line)
                continue
            name = decode[parts[0]]
            if name in assignment:
                continue
            try:
                assignment[name] = float(parts[1])
            except ValueError:
                continue
        if not assignment:
            raise SolverError("no variable values found in solver output")
        for name in model.names:
            assignment.setdefault(name, 0.0)
        objective = model.objective_value(assignment)
        proven = any(_OPTIMAL_WORD.search(line) for line in remarks)
        return SolveResult(
            status=STATUS_OPTIMAL if proven else STATUS_FEASIBLE,
            objective=objective,
            best_bound=objective if proven else None,
            assignment=assignment,
            wall_time=elapsed,
            backend=self.name,
        )


def solve(
    model: ModelIR,
    budget: float = DEFAULT_BUDGET,
    backend: Optional[Backend] = None,
) -> SolveResult:
    """Solve ``model`` and re-check any claimed solution against the model.

    A result whose assignment violates a constraint or bound by more than
    ``CHECK_TOLERANCE`` raises :class:`SolverError` instead of being passed
    along.
    """
    if not model.names:
        return SolveResult(
            status=STATUS_OPTIMAL,
            objective=0.0,
            best_bound=0.0,
            backend="empty",
        )
    chosen = backend if backend is not None else ScipyBackend()
    result = chosen.solve(model, budget)
    if result.assignment:
        bad = model.violations(result.assignment, tolerance=CHECK_TOLERANCE)
        if bad:
            preview = "; ".join(bad[:5])
            raise SolverError(
                f"backend {chosen.name} returned an infeasible point: {preview}"
            )
    return result
