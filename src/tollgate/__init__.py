"""Toolkit for the network toll pricing problem.

The pipeline: enumerate each commodity's bilevel feasible paths, shrink the
graph to those paths, compute exact big-M constants, build any of twelve
single-level MILP reformulations (or a per-commodity hybrid), and solve
with verification.  A brute-force oracle certifies small instances, and a
generator plus sweep driver cover batch experiments.
"""

from .bigm import BigMParams, compute_bigm
from .cuts import solve_with_vfcs_cuts, vfcs_feasibility_cut
from .enumeration import (
    BilevelFeasibleSet,
    ConsistencyError,
    EnumerationResult,
    dominance_filter,
    enumerate_paths,
    is_bilevel_feasible,
    perturb_costs,
)
from .formulations import (
    FORMULATIONS,
    BuildError,
    CommodityAssignment,
    FormulationKind,
    HybridModel,
    assemble_hybrid,
    build_single,
    get_kind,
)
from .generator import GenConfig, GenError, generate, parse_topology
from .lp_format import write_lp
from .model_ir import Constraint, ModelIR, Variable
from .network import (
    Arc,
    Commodity,
    InstanceError,
    Network,
    Path,
    ProblemInstance,
    load_instance,
    parse_instance,
    serialize_instance,
    validate_instance,
)
from .oracle import OracleError, OracleResult, oracle_solve
from .preprocess import ReducedGraph, path_based_reduce, spgm_transform
from .shortest_path import distances_to, shortest_path
from .solver import (
    DEFAULT_BUDGET,
    SolveResult,
    SolverError,
    solve,
)
from .experiments import RunRecord, run_sweep, summarize, write_csv

__version__ = "0.1.0"

__all__ = [
    "Arc",
    "BigMParams",
    "BilevelFeasibleSet",
    "BuildError",
    "Commodity",
    "CommodityAssignment",
    "ConsistencyError",
    "Constraint",
    "DEFAULT_BUDGET",
    "EnumerationResult",
    "FORMULATIONS",
    "FormulationKind",
    "GenConfig",
    "GenError",
    "HybridModel",
    "InstanceError",
    "ModelIR",
    "Network",
    "OracleError",
    "OracleResult",
    "Path",
    "ProblemInstance",
    "ReducedGraph",
    "RunRecord",
    "SolveResult",
    "SolverError",
    "Variable",
    "assemble_hybrid",
    "build_single",
    "compute_bigm",
    "dominance_filter",
    "distances_to",
    "enumerate_paths",
    "generate",
    "get_kind",
    "is_bilevel_feasible",
    "load_instance",
    "oracle_solve",
    "parse_instance",
    "parse_topology",
    "path_based_reduce",
    "perturb_costs",
    "run_sweep",
    "serialize_instance",
    "shortest_path",
    "solve",
    "solve_with_vfcs_cuts",
    "spgm_transform",
    "summarize",
    "validate_instance",
    "vfcs_feasibility_cut",
    "write_csv",
    "write_lp",
]
