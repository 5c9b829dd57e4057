"""Zero-toll shortest paths, checked against hand-computed distances.

The toll-free and capped distances that only the big-M constants need are
checked here too, through :func:`~tollgate.bigm.compute_bigm`.
"""

import math
import random
from fractions import Fraction

import pytest

from conftest import sweep_instance
from tollgate.bigm import compute_bigm
from tollgate.enumeration import enumerate_paths
from tollgate.generator import grid_edges
from tollgate.network import Arc, Commodity, Network
from tollgate.shortest_path import (
    INFINITY,
    ExclusionSet,
    _search,
    distances_to,
    shortest_path,
)

from bruteforce import all_simple_paths, fraction_distances

# Hand-derived distance tables for the five-node fixture (all to node 4):
# tolls at zero, tolled arcs unusable, and tolled arcs at cost + the cap 7.
ZERO_DIST = {0: 3, 1: 2, 2: 1, 3: 2, 4: 0}
FREE_DIST = {0: 10, 1: 3, 2: 4, 3: 2, 4: 0}
CAPPED_DIST = {0: 10, 1: 3, 2: 4, 3: 2, 4: 0}


def test_zero_regime_distances(fig):
    assert distances_to(fig.network, 4) == ZERO_DIST


def test_infinite_regime_distances(fig):
    net = fig.network
    assert distances_to(net, 4, ExclusionSet(arcs=frozenset(net.tolled_ids))) == FREE_DIST
    # The big-M constants sweep the same distances with tolled arcs priced out.
    origins = range(4)
    params = compute_bigm(net, tuple(Commodity(n, 4, Fraction(1)) for n in origins))
    assert params.pi_cost == tuple(FREE_DIST[n] for n in origins)


def test_capped_regime_distances(fig):
    params = compute_bigm(fig.network, fig.commodities)
    assert params.toll_cap == 7
    assert dict(enumerate(params.lam_hi[0])) == CAPPED_DIST


def test_shortest_path_returns_base_costs(fig):
    net = fig.network
    p = shortest_path(net, 0, 4, excluded=ExclusionSet(arcs=frozenset(net.tolled_ids)))
    assert p.arcs == (6,)
    assert p.cost == 10
    q = shortest_path(net, 0, 4)
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
    p = shortest_path(fig.network, 0, 4)


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
    potential = net.sweep(target, net.int_costs)
    zero = [0] * net.num_nodes
    rng = random.Random(11)
    found = 0
    for _ in range(300):
        source = rng.randrange(target)
        excluded = random_exclusions(rng, net, source, target)
        goal = _search(net, source, target, excluded, potential)
        assert goal == _search(net, source, target, excluded, zero)
        found += goal is not None
    assert found > 150


def test_search_picks_the_least_cost_then_least_arc_sequence():
    net = unit_grid(4, 4)
    target = net.num_nodes - 1
    potential = net.sweep(target, net.int_costs)
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
        assert _search(net, source, target, excluded, potential) == expected


def test_distances_to_avoids_excluded_nodes():
    # Against every simple path: no node of a path, its ends included, may
    # be excluded, so an excluded source or target reaches nothing.
    net = unit_grid(3, 4)
    rng = random.Random(7)
    for trial in range(40):
        target = rng.randrange(net.num_nodes)
        nodes = set(rng.sample(range(net.num_nodes), rng.randrange(1, 4)))
        if trial % 4 == 0:
            nodes.add(target)
        arcs = set(rng.sample(range(net.num_arcs), rng.randrange(net.num_arcs // 4)))
        expected = {}
        for source in range(net.num_nodes):
            lengths = [
                len(path)
                for path in all_simple_paths(net, source, target)
                if not arcs & set(path)
                and not nodes & {source, *(net.arc(a).head for a in path)}
            ]
            expected[source] = min(lengths, default=INFINITY)
        excluded = ExclusionSet(frozenset(arcs), frozenset(nodes))
        assert distances_to(net, target, excluded) == expected


@pytest.mark.parametrize("topology", ["grid:5x12", "delaunay:60"])
def test_cached_distances_equal_a_fresh_sweep(topology):
    net = sweep_instance(topology).network
    free_prices = [None if a.tolled else p for a, p in zip(net.arcs, net.int_costs)]
    for target in range(net.num_nodes):
        cached = net.zero_toll_row(target)
        assert type(cached) is tuple
        assert cached == net.sweep(target, net.int_costs)
        assert net.zero_toll_row(target) is cached
        free = net.toll_free_row(target)
        assert type(free) is tuple
        assert free == net.sweep(target, free_prices)
        assert net.toll_free_row(target) is free


@pytest.mark.parametrize("topology", ["grid:5x12", "delaunay:60"])
def test_enumeration_and_bigm_share_one_sweep_per_destination(topology, monkeypatch):
    instance = sweep_instance(topology)
    net = instance.network
    destinations = {com.destination for com in instance.commodities}
    assert len(destinations) < len(instance.commodities)
    # The targets of the zero-toll sweeps, in call order.
    zero_swept = []
    sweep = Network.sweep

    def spy(self, target, prices):
        if prices is self.int_costs:
            zero_swept.append(target)
        return sweep(self, target, prices)

    monkeypatch.setattr(Network, "sweep", spy)
    for k, com in enumerate(instance.commodities):
        enumerate_paths(net, com, cap=9, commodity_index=k)
    assert sorted(zero_swept) == sorted(destinations)
    swept = {d: net.zero_toll_row(d) for d in destinations}
    params = compute_bigm(net, instance.commodities)
    assert sorted(zero_swept) == sorted(destinations)
    assert all(net.zero_toll_row(d) is swept[d] for d in destinations)
    # Every commodity's rows are its destination's sweeps, checked against
    # Fraction sweeps with tolled arcs at cost + cap and unusable.
    cap = params.toll_cap
    rows = {}
    for dest in destinations:
        capped = fraction_distances(
            net, dest, lambda a: a.cost + cap if a.tolled else a.cost
        )
        free = fraction_distances(net, dest, lambda a: None if a.tolled else a.cost)
        rows[dest] = (capped, free)
    for k, com in enumerate(instance.commodities):
        dest = com.destination
        capped, free = rows[dest]
        assert params.lam_lo[k] is swept[dest]
        hi = [None if v is None else Fraction(v, net.scale) for v in params.lam_hi[k]]
        assert dict(enumerate(hi)) == capped
        assert params.L_lo[k] == distances_to(net, dest)[com.origin]
        assert params.pi_cost[k] == free[com.origin]
