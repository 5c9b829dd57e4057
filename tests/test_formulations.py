"""Model assembly: the twelve kinds, their row algebra, and hybrid roles.

Row counts below were derived by hand for the path-reduced five-node
fixture (4 nodes, 5 arcs of which 3 tolled, feasible set of 3 paths):
flow balance contributes one row per node, arc duals one row per arc,
path duals one row per feasible path, the strong-duality tie one row,
direct linearization two rows per tolled arc (plus a third under
complementary slackness), and slackness rows one per arc or path.  Those
are the counts of the paper's form; the default form adds one
strong-duality inequality to each slackness block with direct
linearization.
"""

import sys
import threading
import warnings
import weakref
from concurrent.futures import ThreadPoolExecutor
from fractions import Fraction

import pytest

from tollgate import formulations
from tollgate.bigm import compute_bigm
from tollgate.enumeration import enumerate_paths
from tollgate.formulations import (
    FORMULATIONS,
    BuildError,
    CommodityAssignment,
    FormulationKind,
    assemble_hybrid,
    build_single,
    get_kind,
    plan_hybrid,
    var_L,
    var_T,
    var_t,
    var_tau,
    var_x,
    var_y,
    var_z,
)
from tollgate.generator import GenConfig, generate, parse_topology
from tollgate.lp_format import write_lp
from tollgate.model_ir import ModelIR
from tollgate.network import Arc, Commodity, Network, ProblemInstance
from tollgate.oracle import oracle_solve
from tollgate.solver import ScipyBackend

from bruteforce import model_by_terms
from conftest import fixture_model, five_node_instance, perturbed, three_role_instance

ROW_COUNTS = {
    "STD": 16,
    "VF": 14,
    "PASTD": 13,
    "PVF": 11,
    "CS1": 23,
    "CS2": 15,
    "VFCS1": 19,
    "VFCS2": 11,
    "PACS1": 20,
    "PACS2": 12,
    "PCS1": 16,
    "PCS2": 8,
}

# The kinds whose default form carries the strong-duality inequality.
TIGHTENED = ("CS1", "PACS1", "PCS1", "VFCS1")


def build(fig, fig_enum, fig_bigm, kind, preprocess="paths", paper_exact=False):
    return build_single(
        fig,
        kind,
        fig_bigm,
        [fig_enum],
        preprocess=preprocess,
        allow_vfcs=True,
        paper_exact=paper_exact,
    )


def test_twelve_kinds_with_unique_labels():
    assert len(FORMULATIONS) == 12
    assert len({k.label for k in FORMULATIONS}) == 12


def test_kind_properties():
    std = get_kind("STD")
    assert std.is_arc_arc and not std.needs_paths and not std.needs_cut_loop
    pvf = get_kind("pvf")
    assert pvf.needs_paths and not pvf.is_arc_arc
    cut_kinds = {k.label for k in FORMULATIONS if k.needs_cut_loop}
    assert cut_kinds == {"VFCS1", "VFCS2"}
    for kind in FORMULATIONS:
        if kind.opt_cond == "strong-duality":
            assert kind.linearization == "direct"


def test_kind_validation_rejects_nonsense():
    with pytest.raises(BuildError):
        get_kind("NOPE")
    with pytest.raises(ValueError):
        FormulationKind("BAD", "arc", "arc", "strong-duality", "substitution")


def test_get_kind_passthrough():
    std = get_kind("STD")
    assert get_kind(std) is std


@pytest.mark.parametrize("kind", sorted(ROW_COUNTS))
def test_row_counts_on_reduced_fixture(fig, fig_enum, fig_bigm, kind):
    built = build(fig, fig_enum, fig_bigm, kind, paper_exact=True)
    assert len(built.ir.constraints) == ROW_COUNTS[kind]


@pytest.mark.parametrize("kind", sorted(ROW_COUNTS))
def test_default_form_adds_one_inequality_to_direct_slackness(
    fig, fig_enum, fig_bigm, kind
):
    counts = build(fig, fig_enum, fig_bigm, kind).ir.tag_counts()
    extra = {tag: n for tag, n in counts.items() if tag.startswith("vi-sd-")}
    if kind in TIGHTENED:
        assert sum(counts.values()) == ROW_COUNTS[kind] + 1
        assert list(extra.values()) == [1]
    else:
        assert sum(counts.values()) == ROW_COUNTS[kind]
        assert not extra


def test_strong_duality_inequality_row_shape(fig, fig_enum, fig_bigm):
    ir = build(fig, fig_enum, fig_bigm, "PCS1").ir
    row = next(c for c in ir.constraints if c.tag == "vi-sd-pp[0]")
    assert row.sense == "<=" and row.rhs == 0
    coefs = {n: c for c, n in row.terms}
    assert coefs[var_L(0)] == -1
    assert coefs[var_z(0, 0)] == 3  # the spine's base cost
    assert all(coefs[var_t(0, a)] == 1 for a in (0, 1, 2))


def _lp_relaxation(ir: ModelIR) -> ModelIR:
    relaxed = ModelIR(ir.label)
    for var in ir.variables:
        relaxed.add_variable(var.name, var.lower, var.upper)
    for con in ir.constraints:
        relaxed.add_constraint(con.tag, con.terms, con.sense, con.rhs)
    for coef, name in ir.objective:
        relaxed.add_objective_term(coef, name)
    return relaxed


@pytest.mark.parametrize("perturb", [False, True], ids=["exact", "perturbed"])
@pytest.mark.parametrize("kind", TIGHTENED)
def test_inequality_closes_the_root_gap(fig, kind, perturb):
    # The fixture's optimum is 7 (a hair below under perturbation); the
    # paper's form relaxes to 14.7-17.5, the default form to the optimum.
    instance = perturbed(fig) if perturb else fig
    default = fixture_model(instance, kind)
    optimum = ScipyBackend().solve(default).objective
    assert optimum == pytest.approx(7.0, abs=1e-6)
    root = ScipyBackend().solve(_lp_relaxation(default)).objective
    assert root == pytest.approx(optimum, abs=1e-6)
    paper = fixture_model(instance, kind, paper_exact=True)
    assert ScipyBackend().solve(_lp_relaxation(paper)).objective > 8.0


def test_std_row_families(fig, fig_enum, fig_bigm):
    counts = build(fig, fig_enum, fig_bigm, "STD").ir.tag_counts()
    assert counts == {
        "pa": 4,
        "da1": 3,
        "da2": 2,
        "lin-sd-aa": 1,
        "directa1": 3,
        "directa2": 3,
    }


def test_cs1_adds_lower_direct_rows(fig, fig_enum, fig_bigm):
    counts = build(fig, fig_enum, fig_bigm, "CS1").ir.tag_counts()
    assert counts["directa2lo"] == 3
    assert counts["lin-cs-aa1"] == 3
    assert counts["lin-cs-aa2"] == 2


def test_pcs2_slack_rows_use_path_bounds(fig, fig_enum, fig_bigm):
    built = build(fig, fig_enum, fig_bigm, "PCS2")
    rows = {c.tag: c for c in built.ir.constraints}
    # L - T0 - T1 - T2 - 21 z0 >= 3 - 21 for the three-toll spine.
    spine = rows["lin-cs-pp[0,0]"]
    assert spine.sense == ">="
    assert spine.rhs == Fraction(3) - Fraction(21)
    coefs = dict((n, c) for c, n in spine.terms)
    assert coefs[var_z(0, 0)] == -21
    assert coefs[var_L(0)] == 1
    assert coefs[var_T(0)] == -1
    free = rows["lin-cs-pp[0,2]"]
    assert free.rhs == Fraction(10) - Fraction(7)


def test_binary_markings(fig, fig_enum, fig_bigm):
    std = build(fig, fig_enum, fig_bigm, "STD").ir
    assert len(std.binary_names()) == 3  # tolled flows only
    assert all(name.startswith("x[0,") for name in std.binary_names())
    cs1 = build(fig, fig_enum, fig_bigm, "CS1").ir
    assert len(cs1.binary_names()) == 5  # every flow becomes an indicator
    pvf = build(fig, fig_enum, fig_bigm, "PVF").ir
    assert set(pvf.binary_names()) == {var_z(0, p) for p in range(3)}


def test_variable_bounds(fig, fig_enum, fig_bigm):
    ir = build(fig, fig_enum, fig_bigm, "STD").ir
    by_name = {v.name: v for v in ir.variables}
    for a in (0, 1, 2):
        toll = by_name[var_T(a)]
        assert toll.lower == 0 and toll.upper == 7
    lam = next(v for v in ir.variables if v.name.startswith("lambda["))
    assert lam.lower is None and lam.upper is None
    by_name = {v.name: v for v in build(fig, fig_enum, fig_bigm, "PCS2").ir.variables}
    tau = by_name[var_tau(0)]
    assert tau.lower == 0 and tau.upper is None
    bound = by_name[var_L(0)]
    assert bound.lower is None


def test_objective_weights_by_demand(fig, fig_enum, fig_bigm):
    heavy = ProblemInstance(
        fig.network, (Commodity(0, 4, Fraction(5)),), "heavy"
    )
    enum = enumerate_paths(heavy.network, heavy.commodities[0])
    built = build_single(heavy, "STD", fig_bigm, [enum])
    weights = {name: coef for coef, name in built.ir.objective}
    assert weights == {var_t(0, a): Fraction(5) for a in (0, 1, 2)}


def test_strong_duality_row_shape(fig, fig_enum, fig_bigm):
    ir = build(fig, fig_enum, fig_bigm, "STD").ir
    row = next(c for c in ir.constraints if c.tag.startswith("lin-sd-aa"))
    assert row.sense == "=" and row.rhs == 0
    names = {n for _, n in row.terms}
    assert var_t(0, 0) in names
    assert any(n.startswith("lambda[") for n in names)


def test_vfcs_needs_explicit_opt_in(fig, fig_enum, fig_bigm):
    with pytest.raises(BuildError, match="allow_vfcs"):
        build_single(fig, "VFCS1", fig_bigm, [fig_enum])


def test_spgm_restricted_to_arc_arc(fig, fig_enum, fig_bigm):
    with pytest.raises(BuildError, match="arc-arc"):
        build(fig, fig_enum, fig_bigm, "PVF", preprocess="spgm")
    built = build(fig, fig_enum, fig_bigm, "STD", preprocess="spgm")
    assert built.ir.constraints


@pytest.fixture(scope="module")
def grid_spgm_case():
    """grid:4x4 with 3 commodities, costs perturbed at seed 0, plus its optimum."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        raw = generate(GenConfig(("grid", (4, 4)), 3, seed=0))
    inst = perturbed(raw)
    enums = [
        enumerate_paths(inst.network, com, commodity_index=k)
        for k, com in enumerate(inst.commodities)
    ]
    bfsets = {k: e.feasible_set() for k, e in enumerate(enums)}
    bigm = compute_bigm(inst.network, inst.commodities, bfsets)
    return inst, enums, bigm, oracle_solve(inst, enums).revenue


@pytest.mark.parametrize("kind", ["STD", "CS1", "CS2"])
def test_spgm_builds_where_feasible_paths_do_not_fit(grid_spgm_case, kind):
    # The shortest-path graph drops non-shortest splices, so some feasible
    # paths have no image there; arc-arc blocks never read the set.
    inst, enums, bigm, optimum = grid_spgm_case
    hybrid = build_single(inst, kind, bigm, enums, preprocess="spgm")
    assert all(a.bfset is None for a in hybrid.assignments)
    result = ScipyBackend().solve(hybrid.ir)
    assert result.objective == pytest.approx(float(optimum), rel=1e-6)


def test_paths_preprocess_requires_enumeration(fig, fig_bigm):
    with pytest.raises(BuildError, match="enumeration"):
        build_single(fig, "STD", fig_bigm, None, preprocess="paths")


def test_unknown_preprocess_rejected(fig, fig_enum, fig_bigm):
    with pytest.raises(BuildError, match="preprocess"):
        build_single(fig, "STD", fig_bigm, [fig_enum], preprocess="magic")


def test_unbounded_dual_slack_is_a_build_error(fig):
    # A dead-end arc 1->5: node 5 cannot reach the destination, so on the
    # unreduced graph the arc's dual slack has no finite bound.
    arcs = list(fig.network.arcs) + [Arc(7, 1, 5, Fraction(1), False)]
    widened = ProblemInstance(Network(6, arcs), fig.commodities, "dead-end")
    message = (
        "commodity 0: arc 1->5 has no finite dual slack bound "
        "(an endpoint cannot reach the destination)"
    )
    with pytest.raises(BuildError) as caught:
        fixture_model(widened, "CS1", preprocess="none")
    assert str(caught.value) == message


def test_hybrid_roles_split_by_breakpoint(fig, fig_bigm):
    inst, enums = three_role_instance(fig)
    bigm = compute_bigm(
        inst.network,
        inst.commodities,
        {k: e.feasible_set() for k, e in enumerate(enums)},
    )
    hybrid = assemble_hybrid(inst, 2, "PCS2", "STD", bigm, enums)
    roles = {p.commodity: p.role for p in hybrid.assignments}
    assert roles == {0: "fallback", 1: "main", 2: "dropped"}
    # Dropped commodities leave no block variables behind (T[2] is an arc
    # toll, not a commodity-2 variable).
    block_prefixes = tuple(f"{stem}[2," for stem in ("x", "y", "z", "t", "lambda"))
    assert not any(
        v.name.startswith(block_prefixes) or v.name in ("tau[2]", "L[2]")
        for v in hybrid.ir.variables
    )
    # The fallback block works arc-wise on the full graph.
    assert var_x(0, 0) in hybrid.ir.column
    assert var_y(0, 3) in hybrid.ir.column
    # The main block got path variables for its two feasible paths.
    assert var_z(1, 0) in hybrid.ir.column
    assert var_z(1, 1) in hybrid.ir.column
    assert var_z(1, 2) not in hybrid.ir.column


def test_hybrid_unlimited_breakpoint_uses_main_everywhere(fig, fig_bigm):
    inst, enums = three_role_instance(fig)
    bigm = compute_bigm(
        inst.network,
        inst.commodities,
        {k: e.feasible_set() for k, e in enumerate(enums)},
    )
    hybrid = assemble_hybrid(inst, None, "PVF", "STD", bigm, enums)
    roles = {p.commodity: p.role for p in hybrid.assignments}
    assert roles == {0: "main", 1: "main", 2: "dropped"}


def test_hybrid_truncated_enumeration_falls_back(fig, fig_bigm):
    com = fig.commodities[0]
    truncated = enumerate_paths(fig.network, com, cap=2)
    hybrid = assemble_hybrid(fig, None, "PVF", "STD", fig_bigm, [truncated])
    assert hybrid.assignments[0].role == "fallback"


def test_hybrid_refuses_path_fallback(fig, fig_enum, fig_bigm):
    with pytest.raises(BuildError, match="arc-arc"):
        assemble_hybrid(fig, 1, "STD", "PVF", fig_bigm, [fig_enum])


def test_hybrid_refuses_bad_breakpoint(fig, fig_enum, fig_bigm):
    with pytest.raises(BuildError, match="breakpoint"):
        assemble_hybrid(fig, 0, "STD", "STD", fig_bigm, [fig_enum])


def test_hybrid_counts_cut_blocks(fig, fig_enum, fig_bigm):
    plain = assemble_hybrid(fig, None, "PCS2", "STD", fig_bigm, [fig_enum])
    assert not plain.needs_cuts
    cutty = assemble_hybrid(
        fig, None, "VFCS1", "STD", fig_bigm, [fig_enum], allow_vfcs=True
    )
    assert cutty.needs_cuts
    assert cutty.cut_paths == {} and cutty.cut_cycles == {}
    # With every role present, exactly the main commodities are cut blocks.
    inst, enums = three_role_instance(fig)
    bigm = compute_bigm(
        inst.network, inst.commodities, {k: e.feasible_set() for k, e in enumerate(enums)}
    )
    mixed = assemble_hybrid(inst, 2, "VFCS1", "STD", bigm, enums, allow_vfcs=True)
    assert {a.role for a in mixed.assignments} == {"main", "fallback", "dropped"}
    main = [a.commodity for a in mixed.assignments if a.role == "main"]
    assert [b.k for b in mixed.cut_blocks] == main
    # Their rows are in the model; the blocks keep no copy of them.
    assert not any(hasattr(b, "rows") for b in mixed.cut_blocks)


def test_isolated_node_balance_rows_are_skipped(fig_bigm):
    arcs = [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 0, 1, Fraction(4), False),
    ]
    net = Network(3, arcs)  # node 2 exists but touches nothing
    inst = ProblemInstance(net, (Commodity(0, 1, Fraction(1)),), "isolated")
    enum = enumerate_paths(net, inst.commodities[0])
    bigm = compute_bigm(net, inst.commodities, {0: enum.feasible_set()})
    built = build_single(inst, "STD", bigm, [enum], preprocess="none")
    assert built.ir.tag_counts()["pa"] == 2


# -- stamped blocks against the term-by-term reference --------------------------


def _reference_case(name):
    """An instance, its uncapped enumerations and big-M constants, and a breakpoint
    that gives it main, fallback and dropped commodities."""
    if name == "fixture":
        inst, enums = three_role_instance(five_node_instance())
        breakpoint = 2
    else:
        topology, commodities, breakpoint = {
            "grid:4x4": ("grid:4x4", 3, 4),
            "delaunay:10": ("delaunay:10", 4, 5),
            "delaunay:30": ("delaunay:30", 20, 8),
        }[name]
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            inst = perturbed(generate(GenConfig(parse_topology(topology), commodities, seed=0)))
        enums = [
            enumerate_paths(inst.network, com, commodity_index=k)
            for k, com in enumerate(inst.commodities)
        ]
    bfsets = {k: e.feasible_set() for k, e in enumerate(enums)}
    return inst, enums, compute_bigm(inst.network, inst.commodities, bfsets), breakpoint


def _model_lists(ir):
    return (
        ir.label, ir.column, ir.names, ir.lower, ir.upper, ir.binary,
        ir.tags, ir.senses, ir.rhs, ir.starts, ir.cols, ir.coefs, ir.objective,
        list(map(type, ir.coefs)), list(map(type, ir.rhs)),
    )


@pytest.mark.parametrize(
    "kind, case",
    [(k.label, case) for k in FORMULATIONS for case in ("fixture", "grid:4x4", "delaunay:10")]
    # Sweep scale: most blocks are copies of the original graph's patterns.
    + [("STD", "delaunay:30"), ("PCS2", "delaunay:30")],
)
def test_models_match_the_term_by_term_reference(case, kind):
    inst, enums, bigm, breakpoint = _reference_case(case)
    preprocesses = ("paths", "none") + (("spgm",) if get_kind(kind).is_arc_arc else ())
    for paper_exact in (False, True):
        built = [
            build_single(
                inst, kind, bigm, enums, preprocess=preprocess, allow_vfcs=True,
                paper_exact=paper_exact,
            )
            for preprocess in preprocesses
        ]
        for fallback in ("STD", "CS1", "CS2"):
            hybrid = assemble_hybrid(
                inst, breakpoint, kind, fallback, bigm, enums, allow_vfcs=True,
                paper_exact=paper_exact,
            )
            assert {a.role for a in hybrid.assignments} == {"main", "fallback", "dropped"}
            built.append(hybrid)
        for hybrid in built:
            reference = model_by_terms(hybrid, paper_exact)
            assert _model_lists(hybrid.ir) == _model_lists(reference), hybrid.ir.label
            assert write_lp(hybrid.ir) == write_lp(reference)


# -- per-graph row patterns: sharing and lifetime -------------------------------


def test_fallback_blocks_share_one_pattern(monkeypatch):
    inst, enums, bigm, breakpoint = _reference_case("delaunay:10")
    built = []
    make = formulations._GraphPattern

    def spy(graph):
        built.append(graph)
        return make(graph)

    monkeypatch.setattr(formulations, "_GraphPattern", spy)
    hybrid = assemble_hybrid(inst, 1, "PCS2", "CS1", bigm, enums)
    fallback = [a.graph for a in hybrid.assignments if a.role == "fallback"]
    assert len(fallback) >= 2 and all(g is fallback[0] for g in fallback)
    assert sum(g is fallback[0] for g in built) == 1
    # A plan shared across kinds shares its graphs' patterns as well, the
    # main blocks' reduced graphs included.
    plan = plan_hybrid(inst, breakpoint, enums)
    before = len(built)
    for kind in ("STD", "CS2", "PACS1"):
        assemble_hybrid(inst, breakpoint, kind, "STD", bigm, enums, plan=plan)
    graphs = {id(a.graph) for a in plan if a.role != "dropped"}
    assert len(graphs) >= 2 and len(built) - before == len(graphs)


def test_a_pattern_dies_with_its_graph():
    inst, enums, bigm, _ = _reference_case("grid:4x4")
    hybrid = assemble_hybrid(inst, 4, "PACS2", "STD", bigm, enums)
    graph = next(a.graph for a in hybrid.assignments if a.role == "fallback")
    pattern = weakref.ref(formulations._graph_pattern(graph))
    assert pattern() is formulations._graph_pattern(graph)
    del hybrid, graph
    # No reference cycle holds it: freeing the graph frees the pattern.
    assert pattern() is None


def test_threads_assembling_from_one_plan_build_identical_models():
    # More threads than cores and a short switch interval, so that threads
    # race to build the plan's patterns; each may build them, and every
    # model must still match the serial one.
    inst, enums, bigm, breakpoint = _reference_case("delaunay:10")
    serial = assemble_hybrid(inst, breakpoint, "PACS1", "CS1", bigm, enums).ir
    plan = plan_hybrid(inst, breakpoint, enums)
    threads = 4
    start = threading.Barrier(threads)

    def build(_):
        start.wait(timeout=30)
        return assemble_hybrid(inst, breakpoint, "PACS1", "CS1", bigm, enums, plan=plan).ir

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            futures = [pool.submit(build, i) for i in range(threads)]
            models = [future.result(timeout=60) for future in futures]
    finally:
        sys.setswitchinterval(interval)
    assert all(_model_lists(m) == _model_lists(serial) for m in models)
