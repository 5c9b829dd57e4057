"""Regime-aware shortest paths, checked against hand-computed distances."""

import math
import random
from fractions import Fraction

import pytest

from conftest import sweep_instance
from tollgate.bigm import compute_bigm
from tollgate.enumeration import enumerate_paths
from tollgate.generator import grid_edges
from tollgate.network import Arc, Network
from tollgate.shortest_path import (
    INFINITY,
    NO_EXCLUSIONS,
    ExclusionSet,
    _distances,
    _search,
    distances_to,
    shortest_path,
    zero_distances,
)

from bruteforce import all_simple_paths

# Hand-derived distance tables for the five-node fixture (all to node 4).
# Zero regime: tolled arcs at base cost.  Infinite regime: tolled arcs
# unusable.  Capped regime with cap 7 everywhere: tolled arcs at cost + 7.
ZERO_DIST = {0: 3, 1: 2, 2: 1, 3: 2, 4: 0}
FREE_DIST = {0: 10, 1: 3, 2: 4, 3: 2, 4: 0}
CAPPED_DIST = {0: 10, 1: 3, 2: 4, 3: 2, 4: 0}


def test_zero_regime_distances(fig):
    assert distances_to(fig.network, 4, "zero") == ZERO_DIST


def test_infinite_regime_distances(fig):
    assert distances_to(fig.network, 4, "infinite") == FREE_DIST


def test_capped_regime_distances(fig):
    caps = {a: Fraction(7) for a in fig.network.tolled_ids}
    assert distances_to(fig.network, 4, "capped", caps=caps) == CAPPED_DIST


def test_capped_regime_requires_caps(fig):
    with pytest.raises(ValueError):
        distances_to(fig.network, 4, "capped")


def test_unknown_regime_rejected(fig):
    with pytest.raises(ValueError):
        distances_to(fig.network, 4, "half")


def test_shortest_path_returns_base_costs(fig):
    p = shortest_path(fig.network, 0, 4, "infinite")
    assert p.arcs == (6,)
    assert p.cost == 10
    q = shortest_path(fig.network, 0, 4, "zero")
    assert q.arcs == (0, 1, 2)
    assert q.cost == 3


def test_shortest_path_tie_breaks_lexicographically():
    arcs = [
        Arc(0, 0, 1, Fraction(1), False),
        Arc(1, 0, 1, Fraction(1), False),
        Arc(2, 1, 2, Fraction(1), False),
    ]
    net = Network(3, arcs)
    assert shortest_path(net, 0, 2).arcs == (0, 2)


def test_exclusions_reroute(fig):
    p = shortest_path(fig.network, 0, 4, excluded=ExclusionSet(arcs=frozenset({2})))
    assert p.arcs == (0, 5)
    assert p.cost == 4


def test_node_exclusion(fig):
    p = shortest_path(
        fig.network, 0, 4, excluded=ExclusionSet(nodes=frozenset({1}))
    )
    assert p.arcs == (6,)


def test_unreachable_returns_none():
    net = Network(3, [Arc(0, 0, 1, Fraction(1), False)])
    assert shortest_path(net, 0, 2) is None
    dist = distances_to(net, 2)
    assert dist[0] == INFINITY and math.isinf(dist[0])


def test_commodity_tag_propagates(fig):
    p = shortest_path(fig.network, 0, 4, commodity=3)
    assert p.commodity == 3


def unit_grid(rows, cols):
    """A bidirected grid with every arc at cost 1, so equal-cost paths abound."""
    num_nodes, edges = grid_edges(rows, cols)
    arcs = []
    for pos, (u, v) in enumerate(edges):
        tolled = pos % 3 == 0
        arcs.append(Arc(2 * pos, u, v, Fraction(1), tolled))
        arcs.append(Arc(2 * pos + 1, v, u, Fraction(1), tolled))
    return Network(num_nodes, arcs)


def random_exclusions(rng, net, source, target):
    arcs = rng.sample(range(net.num_arcs), rng.randrange(net.num_arcs // 4))
    nodes = [n for n in rng.sample(range(net.num_nodes), 5) if n not in (source, target)]
    return ExclusionSet(frozenset(arcs), frozenset(nodes))


def test_goal_directed_search_matches_the_zero_potential_search():
    # Enumeration's spur searches use the unexcluded distances to the target
    # as their potential; ties must still break as without one.
    net = unit_grid(6, 6)
    target = net.num_nodes - 1
    potential = _distances(net, target, net.int_costs, NO_EXCLUSIONS)
    zero = [0] * net.num_nodes
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        source = rng.randrange(target)
        excluded = random_exclusions(rng, net, source, target)
        goal = _search(net, source, target, net.int_costs, excluded, potential)
        assert goal == _search(net, source, target, net.int_costs, excluded, zero)
        found += goal is not None
    assert found > 150


def test_search_picks_the_least_cost_then_least_arc_sequence():
    net = unit_grid(4, 4)
    target = net.num_nodes - 1
    potential = _distances(net, target, net.int_costs, NO_EXCLUSIONS)
    rng = random.Random(5)
    for _ in range(60):
        source = rng.randrange(target)
        excluded = random_exclusions(rng, net, source, target)
        allowed = [
            arcs
            for arcs in all_simple_paths(net, source, target)
            if not excluded.arcs & set(arcs)
            and not excluded.nodes & {net.arc(a).head for a in arcs}
        ]
        expected = min(((len(arcs), arcs) for arcs in allowed), default=None)
        assert _search(net, source, target, net.int_costs, excluded, potential) == expected


@pytest.mark.parametrize("topology", ["grid:5x12", "delaunay:60"])
def test_cached_distances_equal_a_fresh_sweep(topology):
    net = sweep_instance(topology).network
    for target in range(net.num_nodes):
        cached = zero_distances(net, target)
        assert type(cached) is tuple
        assert list(cached) == _distances(net, target, net.int_costs, NO_EXCLUSIONS)
        assert zero_distances(net, target) is cached


@pytest.mark.parametrize("topology", ["grid:5x12", "delaunay:60"])
def test_enumeration_and_bigm_share_one_sweep_per_destination(topology):
    instance = sweep_instance(topology)
    net = instance.network
    destinations = {com.destination for com in instance.commodities}
    assert len(destinations) < len(instance.commodities)
    for k, com in enumerate(instance.commodities):
        enumerate_paths(net, com, cap=9, commodity_index=k)
    swept = dict(net._zero_distances)
    assert set(swept) == destinations
    params = compute_bigm(net, instance.commodities)
    assert net._zero_distances == swept
    assert all(net._zero_distances[d] is swept[d] for d in destinations)
    # Every per-commodity table equals the commodity's own sweep.
    caps = {aid: params.N[aid] for aid in net.tolled_ids}
    for k, com in enumerate(instance.commodities):
        dest = com.destination
        zero = distances_to(net, dest, "zero")
        capped = distances_to(net, dest, "capped", caps=caps)
        for node in range(net.num_nodes):
            assert params.lam_lo.get((k, node), INFINITY) == zero[node]
            assert params.lam_hi.get((k, node), INFINITY) == capped[node]
        assert params.L_lo[k] == zero[com.origin]
        assert params.pi_cost[k] == distances_to(net, dest, "infinite")[com.origin]
