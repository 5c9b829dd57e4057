"""Ascending-cost path emission, dominance, and the feasibility witness.

The five-node fixture has exactly four simple routes, so every expected
value below was worked out by hand: costs 3, 4, 6, 10, with the cost-6
route dominated because it pays tolls on a superset of the cost-4 route's
arcs at higher cost.
"""

import warnings
from fractions import Fraction

import pytest

from tollgate import enumeration
from tollgate.enumeration import (
    ConsistencyError,
    dominance_filter,
    enumerate_paths,
    is_bilevel_feasible,
    perturb_costs,
    perturbed,
)
from tollgate.generator import GenConfig, generate, parse_topology
from tollgate.network import Arc, Commodity, Network

from bruteforce import all_simple_paths, naive_feasible_paths


def test_emission_order_and_costs(fig_enum):
    assert [p.cost for p in fig_enum.paths] == [3, 4, 6, 10]
    assert [p.arcs for p in fig_enum.paths] == [
        (0, 1, 2),
        (0, 5),
        (0, 1, 3, 4),
        (6,),
    ]
    assert fig_enum.feasible_set().exhaustive


def test_feasible_set_drops_dominated(fig_enum):
    bf = fig_enum.feasible_set()
    assert [p.cost for p in bf.paths] == [3, 4, 10]
    assert bf.exhaustive
    assert len(bf) == 3
    assert bf.arc_union == frozenset({0, 1, 2, 5, 6})


def test_emission_matches_exhaustive_search(fig):
    emitted = {p.arcs for p in enumerate_paths(fig.network, fig.commodities[0]).paths}
    assert emitted == set(all_simple_paths(fig.network, 0, 4))


def test_feasible_set_matches_naive_filter(fig, fig_bfset):
    naive = naive_feasible_paths(fig.network, 0, 4)
    assert [p.arcs for p in fig_bfset.paths] == naive


def test_cap_truncates(fig):
    res = enumerate_paths(fig.network, fig.commodities[0], cap=2)
    assert len(res.paths) == 2
    assert not res.feasible_set().exhaustive


@pytest.mark.parametrize("cap", [1, 2])
def test_cap_stops_before_spawning_children(fig, monkeypatch, cap):
    # The first search finds the cheapest path, and each emitted path but the
    # cap-th spawns one search per tolled arc (all of them, for the first).
    full = enumerate_paths(fig.network, fig.commodities[0])
    calls = []
    search = enumeration._search
    monkeypatch.setattr(
        enumeration, "_search", lambda *args: calls.append(args) or search(*args)
    )
    res = enumerate_paths(fig.network, fig.commodities[0], cap=cap)
    assert res.paths == full.paths[:cap]
    assert not res.feasible_set().exhaustive
    assert len(calls) == 1 + (cap - 1) * len(full.paths[0].tolled_set)


def _generated(topology, seed):
    """``topology`` with 10 commodities at ``seed``, raw and perturbed."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        raw = generate(GenConfig(parse_topology(topology), 10, seed=seed))
    return raw, perturbed(raw, seed=0)


@pytest.mark.parametrize("topology", ["grid:4x5", "delaunay:20"])
def test_capped_run_is_a_prefix_and_stops_once_truncated(topology, monkeypatch):
    # Raw generated costs are integers, so tolled candidates can tie with
    # the toll-free path; perturbed costs break those ties.
    calls = []
    search = enumeration._search
    monkeypatch.setattr(
        enumeration, "_search", lambda *args: calls.append(args) or search(*args)
    )

    def run(net, com, cap):
        calls.clear()
        result = enumerate_paths(net, com, cap=cap)
        return result, len(calls)

    stopped_early = 0
    for seed in range(3):
        for instance in _generated(topology, seed):
            net = instance.network
            for com in instance.commodities:
                full = enumerate_paths(net, com).paths
                toll_free_at = next(i for i, p in enumerate(full) if p.is_toll_free())
                for cap in range(1, len(full) + 1):
                    result, searches = run(net, com, cap)
                    assert result.feasible_set().exhaustive == (toll_free_at < cap)
                    assert len(result.paths) <= cap
                    assert result.paths == full[: len(result.paths)]
                    if len(result.paths) < cap:
                        # The same run with every candidate priced at or
                        # above the toll-free cost cannot stop early.  Its
                        # searches drop that cost as their bound.
                        with monkeypatch.context() as hidden:
                            hidden.setattr(
                                Network,
                                "toll_free_row",
                                lambda network, target: (0,) * network.num_nodes,
                            )
                            hidden.setattr(
                                enumeration,
                                "_search",
                                lambda *args: calls.append(args) or search(*args[:5]),
                            )
                            plain, plain_searches = run(net, com, cap)
                        assert len(plain.paths) == cap
                        assert searches <= plain_searches
                        stopped_early += searches < plain_searches
    assert stopped_early > 0


def test_capped_run_without_a_toll_free_path_stops_early():
    # Two tolled hops in series, two parallel arcs each: four routes, none
    # toll-free.  After the first route, its two children fill a cap of 3.
    net = Network(3, [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 0, 1, Fraction(2), True),
        Arc(2, 1, 2, Fraction(1), True),
        Arc(3, 1, 2, Fraction(2), True),
    ])
    com = Commodity(0, 2, Fraction(1))
    full = enumerate_paths(net, com).paths
    assert len(full) == 4
    result = enumerate_paths(net, com, cap=3)
    assert result.paths == full[:2]
    assert not result.feasible_set().exhaustive


def test_cap_validation(fig):
    with pytest.raises(ValueError):
        enumerate_paths(fig.network, fig.commodities[0], cap=0)


def test_no_route_is_an_error():
    net = Network(3, [Arc(0, 0, 1, Fraction(1), False)])
    with pytest.raises(ConsistencyError):
        enumerate_paths(net, Commodity(0, 2, Fraction(1)))


def test_dominance_filter_rejects_decreasing_costs(fig):
    spine, bypass = fig.network.path([0, 1, 2]), fig.network.path([0, 5])
    with pytest.raises(ValueError, match="nondecreasing base cost"):
        dominance_filter([bypass, spine])


def _tied_network() -> Network:
    # 0->1 tolled, then on to 3 over a tolled arc, a toll-free arc, or a
    # toll-free two-arc chain, each of cost 1; a toll-free arc 0->3 of cost 5.
    half = Fraction(1, 2)
    return Network(4, [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 1, 3, Fraction(1), True),
        Arc(2, 1, 3, Fraction(1), False),
        Arc(3, 1, 2, half, False),
        Arc(4, 2, 3, half, False),
        Arc(5, 0, 3, Fraction(5), False),
    ])


def test_dominance_filter_keeps_an_equal_cost_subset():
    net = _tied_network()
    result = enumerate_paths(net, Commodity(0, 3, Fraction(1)))
    # Ties go to the smaller arc sequence: the tolled superset comes first.
    # The chain 3, 4 differs from arc 2 in no tolled arc, so no deviation
    # reaches it.
    assert [p.arcs for p in result.paths] == [(0, 1), (0, 2), (5,)]
    bf = result.feasible_set()
    assert [p.arcs for p in bf.paths] == [(0, 2), (5,)]
    assert bf.exhaustive


def test_dominance_filter_keeps_the_first_of_equal_tolled_sets():
    net = _tied_network()
    direct, chain, free = net.path([0, 2]), net.path([0, 3, 4]), net.path([5])
    assert dominance_filter([direct, chain, free]).paths == (direct, free)
    assert dominance_filter([chain, direct, free]).paths == (chain, free)


def test_toll_free_path_ends_a_tied_exhaustive_set():
    # A tolled path emitted before the toll-free one at the same cost.
    net = Network(3, [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 1, 2, Fraction(1), False),
        Arc(2, 0, 2, Fraction(2), False),
    ])
    result = enumerate_paths(net, Commodity(0, 2, Fraction(1)))
    assert [p.cost for p in result.paths] == [2, 2]
    bf = result.feasible_set()
    assert [p.arcs for p in bf.paths] == [(2,)]
    assert bf.exhaustive


def test_dominance_filter_infers_exhaustive(fig):
    spine = fig.network.path([0, 1, 2])
    free = fig.network.path([6])
    assert dominance_filter([spine, free]).exhaustive
    assert not dominance_filter([spine]).exhaustive


def test_witness_accepts_survivors_rejects_dominated(fig, fig_bfset):
    com = fig.commodities[0]
    for p in fig_bfset.paths:
        assert is_bilevel_feasible(fig.network, p, com)
    dominated = fig.network.path([0, 1, 3, 4])
    assert not is_bilevel_feasible(fig.network, dominated, com)


def test_witness_checks_endpoints(fig):
    com = Commodity(1, 4, Fraction(1))
    wrong = fig.network.path([0, 1, 2])
    with pytest.raises(ValueError):
        is_bilevel_feasible(fig.network, wrong, com)


def test_perturb_is_deterministic_and_tiny(fig):
    a = perturb_costs(fig.network, seed=11)
    b = perturb_costs(fig.network, seed=11)
    assert [x.cost for x in a.arcs] == [x.cost for x in b.arcs]
    bound = min(x.cost for x in fig.network.arcs) / 10**9
    for before, after in zip(fig.network.arcs, a.arcs):
        delta = after.cost - before.cost
        assert 0 < delta <= bound


def test_perturb_keeps_twin_symmetry():
    arcs = [
        Arc(0, 0, 1, Fraction(5), True),
        Arc(1, 1, 0, Fraction(5), True),
        Arc(2, 0, 1, Fraction(9), False),
        Arc(3, 1, 0, Fraction(9), False),
    ]
    net = perturb_costs(Network(2, arcs), seed=3)
    assert net.arc(0).cost == net.arc(1).cost
    assert net.arc(2).cost == net.arc(3).cost
    assert net.arc(0).cost != net.arc(2).cost - 4


def test_perturb_breaks_parallel_ties():
    arcs = [
        Arc(0, 0, 1, Fraction(4), True),
        Arc(1, 0, 1, Fraction(4), False),
    ]
    net = perturb_costs(Network(2, arcs), seed=0)
    assert net.arc(0).cost != net.arc(1).cost
