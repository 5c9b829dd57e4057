"""The feasibility cut loop for value-function slackness blocks.

In the paper's form of VFCS1 on the unreduced five-node fixture the cut
loop has exactly one path to discover: the solver can route the flow over
the dominated detour through node 3, which no slackness row covers until a
cut adds it.  The default form's strong-duality inequality already makes
the detour unattractive, as does the substitution variant, so those solve
clean.
"""

import random
import re
import warnings
from fractions import Fraction

import pytest

from bruteforce import decompose_flow
from tollgate.bigm import compute_bigm
from tollgate.cuts import _first_cycle_or_path, solve_with_vfcs_cuts, vfcs_feasibility_cut
from tollgate.enumeration import enumerate_all, enumerate_paths
from tollgate.formulations import _flow_name, build_single
from tollgate.generator import GenConfig, generate
from tollgate.network import Arc, Commodity, ProblemInstance
from tollgate.solver import ScipyBackend, SolveResult, SolverError, solve


def identity_model(fig, fig_enum, fig_bigm, kind, paper_exact=False):
    return build_single(
        fig,
        kind,
        fig_bigm,
        [fig_enum],
        preprocess="none",
        allow_vfcs=True,
        paper_exact=paper_exact,
    )


def cuts_added(context):
    return sum(map(len, context.cut_paths.values())) + sum(
        map(len, context.cut_cycles.values())
    )


def test_cut_loop_converges_after_one_cut(fig, fig_enum, fig_bigm):
    context = identity_model(fig, fig_enum, fig_bigm, "VFCS1", paper_exact=True)
    res = solve_with_vfcs_cuts(context, budget=120)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(7.0)
    assert res.cut_rounds == 1
    assert cuts_added(context) == 1
    assert context.cut_paths[0] == {(0, 1, 3, 4)}
    tags = {c.tag for c in context.ir.constraints}
    assert "lin-cs-ap[0,cut0]" in tags


class NodeLog:
    """Solves with scipy and records each call's node count."""

    name = "node-log"

    def __init__(self):
        self.nodes = []

    def solve(self, model, budget):
        result = ScipyBackend().solve(model, budget)
        self.nodes.append(result.mip_nodes)
        return result


def test_cut_loop_sums_nodes_over_rounds(fig, fig_enum, fig_bigm):
    context = identity_model(fig, fig_enum, fig_bigm, "VFCS1", paper_exact=True)
    log = NodeLog()
    res = solve_with_vfcs_cuts(context, backend=log, budget=120)
    assert res.cut_rounds == 1
    assert len(log.nodes) == 2
    assert min(log.nodes) >= 1
    assert res.mip_nodes == sum(log.nodes)


def test_default_form_solves_through_the_cut_loop(fig, fig_enum, fig_bigm):
    context = identity_model(fig, fig_enum, fig_bigm, "VFCS1")
    res = solve_with_vfcs_cuts(context, budget=120)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(7.0)
    assert res.cut_rounds == cuts_added(context)


def test_substitution_variant_needs_no_cut(fig, fig_enum, fig_bigm):
    context = identity_model(fig, fig_enum, fig_bigm, "VFCS2")
    res = solve_with_vfcs_cuts(context, budget=120)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(7.0)
    assert res.cut_rounds == 0


def test_reduced_graph_leaves_nothing_to_cut(fig, fig_enum, fig_bigm):
    context = build_single(
        fig, "VFCS1", fig_bigm, [fig_enum], preprocess="paths", allow_vfcs=True
    )
    res = solve_with_vfcs_cuts(context, budget=120)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(7.0)
    assert res.cut_rounds == 0


def test_plain_models_pass_through(fig, fig_enum, fig_bigm):
    context = build_single(fig, "STD", fig_bigm, [fig_enum])
    res = solve_with_vfcs_cuts(context, budget=120)
    assert res.status == "optimal"
    assert res.objective == pytest.approx(7.0)
    assert res.cut_rounds == 0


def test_zero_budget_reports_exhaustion(fig, fig_enum, fig_bigm):
    context = identity_model(fig, fig_enum, fig_bigm, "VFCS1")
    res = solve_with_vfcs_cuts(context, budget=0.0)
    assert res.status == "budget-exhausted"


class StopsInsideTheRound:
    """Solves with scipy, then reports the point as an unproven incumbent,
    as HiGHS does when the budget runs out during a solve."""

    name = "stops-inside"

    def solve(self, model, budget):
        result = ScipyBackend().solve(model, budget)
        result.status = "feasible"
        result.best_bound = None
        return result


def test_budget_stop_inside_a_round_reports_exhaustion(fig, fig_enum, fig_bigm):
    context = identity_model(fig, fig_enum, fig_bigm, "VFCS1", paper_exact=True)
    res = solve_with_vfcs_cuts(context, backend=StopsInsideTheRound(), budget=120)
    assert res.status == "budget-exhausted"
    assert res.cut_rounds == 0
    # The point routes over the dominated detour, which no row covers yet.
    assert vfcs_feasibility_cut(context, res) == "lin-cs-ap[0,cut0]"
    # A model without cut-needing blocks keeps the backend's status.
    plain = build_single(fig, "STD", fig_bigm, [fig_enum])
    assert solve_with_vfcs_cuts(plain, backend=StopsInsideTheRound()).status == "feasible"


def test_round_limit_guards_against_runaway(fig, fig_enum, fig_bigm):
    context = identity_model(fig, fig_enum, fig_bigm, "VFCS1", paper_exact=True)
    with pytest.raises(SolverError, match="round"):
        solve_with_vfcs_cuts(context, budget=120, max_rounds=0)


def test_manual_cut_application(fig, fig_enum, fig_bigm):
    context = identity_model(fig, fig_enum, fig_bigm, "VFCS1")
    first = solve(context.ir, budget=60)
    rows_before = len(context.ir.constraints)
    tag = vfcs_feasibility_cut(context, first)
    if tag is None:
        # The relaxation already routed over a covered path; nothing to add.
        assert len(context.ir.constraints) == rows_before
    else:
        assert tag == "lin-cs-ap[0,cut0]"
        assert len(context.ir.constraints) == rows_before + 1


def test_one_round_cuts_every_offending_commodity(fig):
    # Commodity 0 routed over the dominated detour 0-1-2-3-4, commodity 1
    # over 1-2-3-4: neither path is in its feasible set, so one round adds
    # a slackness row for each of them.
    inst = ProblemInstance(
        fig.network,
        (fig.commodities[0], Commodity(1, 4, Fraction(2))),
        "five-node-two",
    )
    enums = [
        enumerate_paths(inst.network, com, commodity_index=k)
        for k, com in enumerate(inst.commodities)
    ]
    bigm = compute_bigm(
        inst.network, inst.commodities, {k: e.feasible_set() for k, e in enumerate(enums)}
    )
    context = build_single(
        inst, "VFCS1", bigm, enums, preprocess="none", allow_vfcs=True
    )
    routed = {0: (0, 1, 3, 4), 1: (1, 3, 4)}
    assignment = {
        _flow_name(k, inst.network.arc(a)): 1.0
        for k, arcs in routed.items()
        for a in arcs
    }
    result = SolveResult("optimal", 0.0, 0.0, assignment)
    rows_before = len(context.ir.constraints)
    assert vfcs_feasibility_cut(context, result) == "lin-cs-ap[0,cut0]"
    added = [c.tag for c in context.ir.constraints[rows_before:]]
    assert added == ["lin-cs-ap[0,cut0]", "lin-cs-ap[1,cut0]"]
    assert context.cut_paths == {0: {routed[0]}, 1: {routed[1]}}
    # Both paths are covered now, so the same solution is certified.
    assert vfcs_feasibility_cut(context, result) is None
    assert len(context.ir.constraints) == rows_before + 2


def test_walk_returns_the_first_cycle_of_the_full_decomposition():
    # Random balanced lit sets: a route from origin to destination plus
    # cycles, which may share nodes with it and with each other, lit in a
    # random arc order.  The walk returns the decomposition's first cycle,
    # or its routed path when it has no cycle.
    rng = random.Random(0)
    outcomes = set()
    for _ in range(2000):
        n = rng.randint(2, 8)
        origin, dest = rng.sample(range(n), 2)
        inner = [v for v in range(n) if v not in (origin, dest)]
        route = [origin, *rng.sample(inner, rng.randint(0, len(inner))), dest]
        pairs = list(zip(route, route[1:]))
        for _ in range(rng.choice((0, 0, 1, 2, 3))):
            loop = rng.sample(range(n), rng.randint(2, n))
            pairs += zip(loop, loop[1:] + loop[:1])
        rng.shuffle(pairs)
        lit = [Arc(i, t, h, Fraction(1), False) for i, (t, h) in enumerate(pairs)]
        routed, cycles = decompose_flow(lit, origin, dest, 0)
        expected = (cycles[0], None) if cycles else (None, routed)
        assert _first_cycle_or_path(lit, origin, dest, 0) == expected
        outcomes.add(bool(cycles))
    assert outcomes == {True, False}


def _arc_of(name, k):
    """The arc of commodity ``k``'s flow variable ``name``, else None."""
    found = re.fullmatch(rf"[xy]\[{k},(\d+)\]", name)
    return None if found is None else int(found[1])


def _walk(arcs, start, stop):
    """The arc ids from ``start`` to ``stop`` over ``arcs``, one out-arc per node."""
    by_tail = {arc.tail: arc for arc in arcs}
    assert len(by_tail) == len(arcs)
    walk, node = [], start
    for _ in arcs:
        arc = by_tail[node]
        walk.append(arc.index)
        node = arc.head
        if node == stop:
            return walk
    raise AssertionError(f"no walk from {start} to {stop}")


def test_cut_rows_name_the_variables_of_the_offending_route():
    # grid4x4-k3-s0 in the paper's form on the unreduced graph: the loop
    # does not converge there, and its first rounds add both row families.
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = generate(GenConfig(("grid", (4, 4)), 3, seed=0))
    net = inst.network
    enums = enumerate_all(inst)
    sets = [e.feasible_set() for e in enums]
    bigm = compute_bigm(net, inst.commodities, dict(enumerate(sets)))
    context = build_single(
        inst, "VFCS1", bigm, enums, preprocess="none", allow_vfcs=True, paper_exact=True
    )
    with pytest.raises(SolverError, match="round"):
        solve_with_vfcs_cuts(context, max_rounds=10)
    families = set()
    for row in context.ir.constraints:
        found = re.fullmatch(r"cut-cycle\[(\d+),\d+\]|lin-cs-ap\[(\d+),cut\d+\]", row.tag)
        if found is None:
            continue
        k = int(found[1] or found[2])
        terms = {name: coef for coef, name in row.terms}
        flows = {a: c for n, c in terms.items() if (a := _arc_of(n, k)) is not None}
        arcs = [net.arc(a) for a in flows]
        if found[1] is not None:
            # Only flows of commodity k, on the arcs of one directed cycle.
            families.add("cut-cycle")
            assert len(flows) == len(terms) and set(flows.values()) == {1}
            assert len(_walk(arcs, arcs[0].tail, arcs[0].tail)) == len(arcs)
            assert (row.sense, row.rhs) == ("<=", len(arcs) - 1)
            continue
        # L[k], the T of the path's tolled arcs and the flows of an
        # origin-to-destination path outside commodity k's feasible set.
        families.add("lin-cs-ap")
        com = inst.commodities[k]
        path = net.path(_walk(arcs, com.origin, com.destination))
        assert len(path) == len(arcs)
        assert tuple(sorted(path.arcs)) not in {tuple(sorted(p.arcs)) for p in sets[k].paths}
        tolls = {f"T[{a}]" for a in path.tolled_set}
        assert {n for n in terms if _arc_of(n, k) is None} == {f"L[{k}]", *tolls}
        assert terms[f"L[{k}]"] == 1 and all(terms[t] == -1 for t in tolls)
        s_val = bigm.s_value(k, path)
        assert s_val > 0 and set(flows.values()) == {-s_val}
        assert (row.sense, row.rhs) == (">=", path.cost - s_val * len(path))
    assert families == {"cut-cycle", "lin-cs-ap"}
