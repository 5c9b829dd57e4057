"""The integer cost core, checked against Fraction references.

Searches, enumeration and big-M run on integers over ``Network.scale``.  On
perturbed generated instances that scale is about 2^59, so these tests pit
the integer code against slow references written on ``Fraction`` from the
definitions: brute-force path lists, Bellman-Ford distances, and the big-M
formulas of :mod:`tollgate.bigm`'s docstring.
"""

from __future__ import annotations

import warnings
from dataclasses import replace
from fractions import Fraction

import pytest

from tollgate.bigm import BigMParams, BuildError, compute_bigm
from tollgate.enumeration import enumerate_paths, perturb_costs
from tollgate.generator import GenConfig, generate, parse_topology
from tollgate.network import Arc, Network, ProblemInstance
from tollgate.preprocess import ReducedGraph

from bruteforce import all_simple_paths, fraction_distances, path_cost, tolled_part
from conftest import scaled_bigm

TOPOLOGIES = ("grid:4x4", "delaunay:10")


@pytest.fixture(scope="module", params=TOPOLOGIES)
def perturbed(request) -> ProblemInstance:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        raw = generate(GenConfig(parse_topology(request.param), 3, seed=0))
    net = perturb_costs(raw.network, seed=0)
    return ProblemInstance(net, raw.commodities, raw.label)


def reference_bigm(network: Network, commodities, bfsets):
    """The big-M families from their definitions, on Fractions throughout.

    Returns the families keyed as :func:`as_fractions` keys them and, apart
    from them, the dual slack bound of every (commodity, arc) pair whose
    endpoint distances are finite.
    """
    zero = [
        fraction_distances(network, com.destination, lambda a: a.cost)
        for com in commodities
    ]
    free = [
        fraction_distances(
            network, com.destination, lambda a: None if a.tolled else a.cost
        )
        for com in commodities
    ]
    L_lo = {k: zero[k][com.origin] for k, com in enumerate(commodities)}
    pi_cost = {k: free[k][com.origin] for k, com in enumerate(commodities)}
    gaps = {k: max(Fraction(0), pi_cost[k] - L_lo[k]) for k in L_lo}
    cap = max(gaps.values())
    M = {k: min(cap, gaps[k]) for k in gaps}
    capped = [
        fraction_distances(
            network, com.destination, lambda a: a.cost + cap if a.tolled else a.cost
        )
        for com in commodities
    ]
    lam_lo, lam_hi, R = {}, {}, {}
    for k in range(len(commodities)):
        for node in range(network.num_nodes):
            if zero[k][node] is not None:
                lam_lo[(k, node)] = zero[k][node]
            if capped[k][node] is not None:
                lam_hi[(k, node)] = capped[k][node]
        for arc in network.arcs:
            lo, hi = zero[k][arc.tail], capped[k][arc.head]
            if lo is not None and hi is not None:
                R[(k, arc.index)] = arc.cost - lo + hi + (cap if arc.tolled else 0)
    S = {
        (k, pos): path.cost + cap * len(path.tolled_set) - L_lo[k]
        for k, bfset in bfsets.items()
        for pos, path in enumerate(bfset.paths)
    }
    families = dict(
        N=cap, M=M, S=S, lam_lo=lam_lo, lam_hi=lam_hi, L_lo=L_lo, pi_cost=pi_cost
    )
    return families, R


def as_fractions(params: BigMParams) -> dict:
    """Every family of ``params`` as exact Fractions, keyed by commodity and
    node or feasible-set position; unreachable nodes are left out."""

    def exact(value: int) -> Fraction:
        return Fraction(value, params.scale)

    def rows(table):
        return {
            (k, node): exact(value)
            for k, row in enumerate(table)
            for node, value in enumerate(row)
            if value is not None
        }

    return dict(
        N=params.toll_cap,
        M={k: params.m_value(k) for k in range(len(params.M))},
        S={key: exact(value) for key, value in params.S.items()},
        lam_lo=rows(params.lam_lo),
        lam_hi=rows(params.lam_hi),
        L_lo=dict(enumerate(params.L_lo)),
        pi_cost=dict(enumerate(params.pi_cost)),
    )


def test_scale_is_the_common_denominator():
    arcs = [
        Arc(0, 0, 1, Fraction(1, 2), True),
        Arc(1, 1, 2, Fraction(2, 3), False),
        Arc(2, 0, 2, Fraction(5), False),
    ]
    net = Network(3, arcs)
    assert net.scale == 6
    assert net.int_costs == (3, 4, 30)
    assert net.out_adj[0] == ((1, 0), (2, 2))
    assert net.in_adj[2] == ((1, 1), (0, 2))
    assert net.path([0, 1]).cost == Fraction(7, 6)


def test_perturbed_instances_need_a_wide_scale(perturbed):
    assert perturbed.network.scale.bit_length() > 50
    for arc, cost in zip(perturbed.network.arcs, perturbed.network.int_costs):
        assert Fraction(cost, perturbed.network.scale) == arc.cost


def test_enumeration_follows_the_brute_force_cost_order(perturbed):
    net = perturbed.network
    for k, com in enumerate(perturbed.commodities):
        ranked = sorted(
            all_simple_paths(net, com.origin, com.destination),
            key=lambda arcs: (path_cost(net, arcs), arcs),
        )
        stop = next(i for i, arcs in enumerate(ranked) if not tolled_part(net, arcs))
        ranked = ranked[: stop + 1]
        result = enumerate_paths(net, com, commodity_index=k)
        assert result.feasible_set().exhaustive
        emitted = [p.arcs for p in result.paths]
        # The emitted paths appear in the ranked list, in its order, and end
        # at the cheapest toll-free path.
        positions = [ranked.index(arcs) for arcs in emitted]
        assert positions == sorted(positions)
        assert emitted[-1] == ranked[-1]
        assert [p.cost for p in result.paths] == [path_cost(net, a) for a in emitted]
        # A skipped path keeps the tolled arcs of a cheaper emitted one.
        for arcs in ranked:
            if arcs not in emitted:
                tolled = tolled_part(net, arcs)
                cost = path_cost(net, arcs)
                assert any(
                    p.tolled_set <= tolled and p.cost < cost for p in result.paths
                )


def test_capped_search_matches_brute_force(perturbed):
    # The capped and toll-free sweeps of the big-M constants against the
    # cheapest simple path priced the same way.
    net, commodities = perturbed.network, perturbed.commodities
    params = compute_bigm(net, commodities)
    cap = params.toll_cap
    for k, com in enumerate(commodities):
        ranked = all_simple_paths(net, com.origin, com.destination)
        capped = min(path_cost(net, a) + cap * len(tolled_part(net, a)) for a in ranked)
        free = min(path_cost(net, a) for a in ranked if not tolled_part(net, a))
        assert Fraction(params.lam_hi[k][com.origin], params.scale) == capped
        assert params.pi_cost[k] == free


def test_compute_bigm_matches_a_fraction_reference(perturbed):
    net, commodities = perturbed.network, perturbed.commodities
    bfsets = {
        k: enumerate_paths(net, com, commodity_index=k).feasible_set()
        for k, com in enumerate(commodities)
    }
    params = compute_bigm(net, commodities, bfsets)
    reference, R = reference_bigm(net, commodities, bfsets)
    assert as_fractions(params) == reference
    for k, bfset in bfsets.items():
        for pos, path in enumerate(bfset.paths):
            expected = reference["S"][(k, pos)]
            assert params.s_value(k, path) == params.s_value(k, path, pos) == expected
    graph = ReducedGraph.identity(net)
    for k in range(len(commodities)):
        unbounded = [arc for arc in net.arcs if (k, arc.index) not in R]
        if not unbounded:
            expected = [R[(k, arc.index)] for arc in net.arcs]
            assert params.arc_slack_bounds(k, graph) == expected
        else:
            first = unbounded[0]
            with pytest.raises(BuildError, match=f"arc {first.tail}->{first.head} "):
                params.arc_slack_bounds(k, graph)


def test_arc_slack_bound_cap_follows_scaled(fig, fig_bigm):
    tripled = scaled_bigm(fig_bigm, 3)
    # Arc 0 as it is (tolled), and the same network with arc 0 toll-free.
    graph = ReducedGraph.identity(fig.network)
    free = Network(
        5, [replace(a, tolled=False) if a.index == 0 else a for a in fig.network.arcs]
    )
    base = fig_bigm.arc_slack_bounds(0, ReducedGraph.identity(free))[0]
    assert fig_bigm.arc_slack_bounds(0, graph)[0] == base + 7
    assert tripled.arc_slack_bounds(0, graph)[0] == base + 21
