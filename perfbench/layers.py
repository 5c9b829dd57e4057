"""Which program calls the traced run wraps, and the per-layer metrics.

Layers are tollgate's modules.  Every span is named ``<layer>.<call>``; the
benchmark's own root span per cell is ``cell``.  Cell spans carry the cell
id; spans recorded while the inputs are generated carry ``setup``.
"""

from __future__ import annotations

from collections import defaultdict
from importlib import import_module

import scipy.optimize

from tracing import Tracer

# By module path: the package re-exports a function named shortest_path.
bigm = import_module("tollgate.bigm")
cuts = import_module("tollgate.cuts")
enumeration = import_module("tollgate.enumeration")
exactlp = import_module("tollgate.exactlp")
experiments = import_module("tollgate.experiments")
formulations = import_module("tollgate.formulations")
generator = import_module("tollgate.generator")
lp_format = import_module("tollgate.lp_format")
model_ir = import_module("tollgate.model_ir")
network = import_module("tollgate.network")
oracle = import_module("tollgate.oracle")
preprocess = import_module("tollgate.preprocess")
shortest_path = import_module("tollgate.shortest_path")
solver = import_module("tollgate.solver")

SETUP = "setup"

# Layers whose self times add up to the traced cell wall time.
CELL_LAYERS = (
    "cell",
    "probe",
    "experiments",
    "network",
    "enumeration",
    "shortest_path",
    "bigm",
    "preprocess",
    "formulations",
    "model_ir",
    "lp_format",
    "cuts",
    "solver",
)


def _assembled(hybrid):
    # Rows at assembly time; the cut loop appends to the same list later.
    return hybrid.ir, len(hybrid.ir.constraints)


def install(tracer: Tracer) -> None:
    fn = tracer.wrap_function
    fn(generator, "generate", "generator.generate")
    fn(enumeration, "perturb_costs", "enumeration.perturb_costs")
    fn(oracle, "oracle_solve", "oracle.oracle_solve")
    fn(exactlp, "solve_lp", "exactlp.solve_lp")
    fn(experiments, "run_one", "experiments.run_one")
    fn(network, "parse_instance", "network.parse_instance")
    fn(enumeration, "enumerate_paths", "enumeration.enumerate_paths",
       keep=lambda r: len(r.paths))
    fn(enumeration, "dominance_filter", "enumeration.dominance_filter", keep=len)
    fn(shortest_path, "shortest_path", "shortest_path.shortest_path")
    fn(shortest_path, "distances_to", "shortest_path.distances_to")
    fn(bigm, "compute_bigm", "bigm.compute_bigm")
    fn(formulations, "assemble_hybrid", "formulations.assemble_hybrid",
       keep=_assembled)
    fn(preprocess, "path_based_reduce", "preprocess.path_based_reduce")
    fn(preprocess, "spgm_transform", "preprocess.spgm_transform")
    tracer.wrap_method(preprocess.ReducedGraph, "map_feasible_set",
                       "preprocess.map_feasible_set")
    fn(lp_format, "write_lp", "lp_format.write_lp", keep=len)
    fn(cuts, "solve_with_vfcs_cuts", "cuts.solve_with_vfcs_cuts")
    fn(cuts, "vfcs_feasibility_cut", "cuts.vfcs_feasibility_cut",
       keep=lambda tag: tag is not None)
    fn(solver, "solve", "solver.solve")
    tracer.wrap_method(solver.ScipyBackend, "solve", "solver.ScipyBackend.solve")
    fn(scipy.optimize, "milp", "solver.milp",
       keep=lambda res: int(getattr(res, "mip_node_count", 0) or 0))
    tracer.wrap_method(model_ir.ModelIR, "violations", "model_ir.violations")


def relaxed_bound(ir, rows: int) -> float:
    """LP relaxation of ``ir``'s first ``rows`` rows, built through ModelIR."""
    relaxed = model_ir.ModelIR(f"{ir.label}:relaxed")
    for var in ir.variables:
        relaxed.add_variable(var.name, var.lower, var.upper, binary=False)
    for con in ir.constraints[:rows]:
        relaxed.add_constraint(con.tag, con.terms, con.sense, con.rhs)
    for coef, name in ir.objective:
        relaxed.add_objective_term(coef, name)
    result = solver.ScipyBackend().solve(relaxed, budget=600.0)
    if result.status != solver.STATUS_OPTIMAL or result.objective is None:
        raise RuntimeError(f"{ir.label}: root relaxation ended {result.status}")
    return result.objective


def model_shape(ir, rows: int) -> dict[str, int]:
    constraints = ir.constraints[:rows]
    return {
        "vars": len(ir.variables),
        "rows": len(constraints),
        "binaries": len(ir.binary_names()),
        "nnz": sum(len(c.terms) for c in constraints),
    }


def metrics(tracer: Tracer, cell_kinds: dict[str, str], kind_labels, root_bound):
    """Per-layer metrics of one traced pass plus its traced setup."""
    spans = tracer.spans
    self_time = tracer.self_times()
    dur = defaultdict(float)
    selfs = defaultdict(float)
    calls = defaultdict(int)
    setup_dur = defaultdict(float)
    setup_calls = defaultdict(int)
    layer_self = defaultdict(float)
    kept = defaultdict(list)
    kind_s = defaultdict(float)
    milp_by_cell = defaultdict(list)
    for s, own in zip(spans, self_time):
        if s.cell == SETUP:
            setup_dur[s.name] += s.duration
            setup_calls[s.name] += 1
            continue
        dur[s.name] += s.duration
        selfs[s.name] += own
        calls[s.name] += 1
        layer_self[s.name.split(".", 1)[0]] += own
        if s.result is not None:
            kept[s.name].append(s.result)
        if s.name == "cell":
            kind_s[cell_kinds[s.cell]] += s.duration
        if s.name == "probe.speed":
            kind_s[cell_kinds[s.cell]] -= s.duration
        if s.name == "solver.milp":
            milp_by_cell[s.cell].append(s)

    emitted = sum(kept["enumeration.enumerate_paths"])
    kept_paths = sum(kept["enumeration.dominance_filter"])
    shapes = [model_shape(ir, rows) for ir, rows in kept["formulations.assemble_hybrid"]]
    resolve = sum(
        s.duration
        for cell_spans in milp_by_cell.values()
        for s in sorted(cell_spans, key=lambda s: s.start)[1:]
    )
    out = {
        "enumeration.enumerate_s": (dur["enumeration.enumerate_paths"], "s"),
        "enumeration.us_per_path": (
            1e6 * dur["enumeration.enumerate_paths"] / emitted if emitted else 0.0,
            "us",
        ),
        "enumeration.paths_emitted": (emitted, "count"),
        "enumeration.paths_kept": (kept_paths, "count"),
        "enumeration.kept_ratio": (kept_paths / emitted if emitted else 0.0, "ratio"),
        "enumeration.dominance_s": (dur["enumeration.dominance_filter"], "s"),
        "enumeration.perturb_s": (setup_dur["enumeration.perturb_costs"], "s"),
        "shortest_path.calls": (
            calls["shortest_path.shortest_path"] + calls["shortest_path.distances_to"],
            "count",
        ),
        "shortest_path.s": (
            dur["shortest_path.shortest_path"] + dur["shortest_path.distances_to"],
            "s",
        ),
        "bigm.compute_s": (dur["bigm.compute_bigm"], "s"),
        "preprocess.reduce_s": (
            sum(v for k, v in dur.items() if k.startswith("preprocess.")),
            "s",
        ),
        "formulations.assemble_s": (selfs["formulations.assemble_hybrid"], "s"),
        "model_ir.vars": (sum(x["vars"] for x in shapes), "count"),
        "model_ir.rows": (sum(x["rows"] for x in shapes), "count"),
        "model_ir.binaries": (sum(x["binaries"] for x in shapes), "count"),
        "model_ir.nnz": (sum(x["nnz"] for x in shapes), "count"),
        "lp_format.write_s": (dur["lp_format.write_lp"], "s"),
        "lp_format.bytes": (sum(kept["lp_format.write_lp"]), "bytes"),
        "solver.solve_calls": (calls["solver.milp"], "count"),
        "solver.milp_s": (dur["solver.milp"], "s"),
        "solver.mip_nodes": (sum(kept["solver.milp"]), "count"),
        "solver.arrays_s": (selfs["solver.ScipyBackend.solve"], "s"),
        "solver.check_s": (selfs["solver.solve"] + dur["model_ir.violations"], "s"),
        "formulations.root_bound": (root_bound, "revenue"),
        "cuts.rounds": (sum(kept["cuts.vfcs_feasibility_cut"]), "count"),
        "cuts.cut_s": (dur["cuts.vfcs_feasibility_cut"], "s"),
        "cuts.resolve_milp_s": (resolve, "s"),
        "oracle.solve_s": (setup_dur["oracle.oracle_solve"], "s"),
        "exactlp.calls": (setup_calls["exactlp.solve_lp"], "count"),
        "generator.generate_s": (setup_dur["generator.generate"], "s"),
    }
    for label in kind_labels:
        out[f"formulations.kind_s.{label}"] = (kind_s[label], "s")
    for layer in CELL_LAYERS:
        out[f"{layer}.self_s"] = (layer_self[layer], "s")
    out["trace.cell_wall_s"] = (dur["cell"], "s")
    out["trace.self_sum_s"] = (sum(layer_self[layer] for layer in CELL_LAYERS), "s")
    counts = {
        "paths_emitted": emitted,
        "paths_kept": kept_paths,
        "model_vars": out["model_ir.vars"][0],
        "model_rows": out["model_ir.rows"][0],
        "model_binaries": out["model_ir.binaries"][0],
        "model_nnz": out["model_ir.nnz"][0],
        "milp_calls": calls["solver.milp"],
        "cut_rounds": out["cuts.rounds"][0],
        "mip_nodes": out["solver.mip_nodes"][0],
    }
    return out, counts


def assembled_models(tracer: Tracer) -> list:
    """(model, rows at assembly) for every model a traced cell assembled."""
    return [
        s.result
        for s in tracer.spans
        if s.cell != SETUP and s.name == "formulations.assemble_hybrid"
    ]
