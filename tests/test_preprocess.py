"""Graph reductions and the maps back to original arc ids."""

import warnings
from fractions import Fraction

import pytest

from tollgate.enumeration import ConsistencyError, enumerate_paths
from tollgate.generator import GenConfig, GenError, generate
from tollgate.network import Arc, Commodity, Network
from tollgate.preprocess import (
    ReducedGraph,
    path_based_reduce,
    spgm_transform,
)

from bruteforce import path_reduce_by_merges, random_digraph_instance, spgm_by_rescans
from conftest import perturbed, sweep_instance


def arc_shapes(reduced):
    """Comparable view of a reduced network in original-node terms."""
    net = reduced.network
    return sorted(
        (
            reduced.node_origin[a.tail],
            reduced.node_origin[a.head],
            a.cost,
            a.tolled,
        )
        for a in net.arcs
    )


def lift(reduced, reduced_arcs):
    """A reduced arc sequence expanded to the original arcs it stands for."""
    return tuple(a for r in reduced_arcs for a in reduced.arc_origin[r])


def test_identity_reduction(fig):
    ident = ReducedGraph.identity(fig.network)
    assert ident.stats() == {"nodes": 5, "arcs": 7, "tolled": 3}
    assert lift(ident, [0, 1, 2]) == (0, 1, 2)
    assert ident.reduced_node(3) == 3


def test_path_reduce_drops_unused_detour(fig, fig_bfset):
    red = path_based_reduce(fig.network, fig_bfset)
    # The dominated route through node 3 is gone along with the node.
    assert red.stats() == {"nodes": 4, "arcs": 5, "tolled": 3}
    assert arc_shapes(red) == [
        (0, 1, Fraction(1), True),
        (0, 4, Fraction(10), False),
        (1, 2, Fraction(1), True),
        (1, 4, Fraction(3), False),
        (2, 4, Fraction(1), True),
    ]


def test_path_reduce_requires_exhaustive(fig):
    truncated = enumerate_paths(
        fig.network, fig.commodities[0], cap=2
    ).feasible_set()
    with pytest.raises(ValueError, match="exhaustive"):
        path_based_reduce(fig.network, truncated)


def test_map_path_and_lift_round_trip(fig, fig_bfset):
    red = path_based_reduce(fig.network, fig_bfset)
    for p in fig_bfset.paths:
        mapped = red.map_path(p)
        assert lift(red, mapped.arcs) == p.arcs
        assert mapped.cost == p.cost
        assert len(mapped.tolled_set) == len(p.tolled_set)


def test_map_path_rejects_deleted_arcs(fig, fig_bfset):
    red = path_based_reduce(fig.network, fig_bfset)
    dominated = fig.network.path([0, 1, 3, 4])
    with pytest.raises(ConsistencyError):
        red.map_path(dominated)


def test_map_feasible_set_preserves_order_and_flag(fig, fig_bfset):
    red = path_based_reduce(fig.network, fig_bfset)
    mapped = red.map_feasible_set(fig_bfset)
    assert mapped.exhaustive
    assert [p.cost for p in mapped.paths] == [p.cost for p in fig_bfset.paths]


def chain_network():
    # Tolled arc into a two-arc toll-free tail, plus a direct toll-free arc.
    arcs = [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 1, 2, Fraction(1), False),
        Arc(2, 2, 3, Fraction(1), False),
        Arc(3, 0, 3, Fraction(10), False),
    ]
    return Network(4, arcs), Commodity(0, 3, Fraction(1))


def test_path_reduce_contracts_toll_free_chains():
    net, com = chain_network()
    bf = enumerate_paths(net, com).feasible_set()
    red = path_based_reduce(net, bf)
    assert red.stats() == {"nodes": 3, "arcs": 3, "tolled": 1}
    assert arc_shapes(red) == [
        (0, 1, Fraction(1), True),
        (0, 3, Fraction(10), False),
        (1, 3, Fraction(2), False),
    ]
    spine = net.path([0, 1, 2])
    mapped = red.map_path(spine)
    assert lift(red, mapped.arcs) == (0, 1, 2)


def test_chain_cost_mismatch_is_rejected():
    net, _ = chain_network()
    ident = ReducedGraph.identity(net)
    cheat = net.with_costs({0: Fraction(2)})
    with pytest.raises(ConsistencyError):
        ReducedGraph(
            cheat, net, ident.node_origin, ident.arc_origin
        )


def test_spgm_splices_out_untolled_nodes(fig):
    red = spgm_transform(fig.network, fig.commodities[0])
    # Node 3 touches no tolled arc: its two arcs merge into one shortcut.
    assert red.stats() == {"nodes": 4, "arcs": 6, "tolled": 3}
    assert (2, 4, Fraction(4), False) in arc_shapes(red)


def test_spgm_never_keeps_more_tolled_than_path_reduce(fig, fig_bfset):
    by_paths = path_based_reduce(fig.network, fig_bfset)
    by_spgm = spgm_transform(fig.network, fig.commodities[0])
    assert by_paths.stats()["tolled"] <= by_spgm.stats()["tolled"]


def test_spgm_keeps_parallel_cheapest():
    # Two toll-free splice candidates between the same endpoints: keep one.
    arcs = [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 1, 4, Fraction(9), False),
        Arc(2, 1, 2, Fraction(1), False),
        Arc(3, 2, 4, Fraction(1), False),
        Arc(4, 1, 3, Fraction(2), False),
        Arc(5, 3, 4, Fraction(2), False),
        Arc(6, 0, 4, Fraction(8), False),
    ]
    net = Network(5, arcs)
    red = spgm_transform(net, Commodity(0, 4, Fraction(1)))
    shapes = arc_shapes(red)
    free_1_to_4 = [s for s in shapes if s[0] == 1 and s[1] == 4 and not s[3]]
    assert free_1_to_4 == [(1, 4, Fraction(2), False)]


def test_spgm_breaks_cost_ties_by_the_smallest_chain():
    # Nodes 2 and 3 are bypassed in that order; the shortcut through node 3
    # arrives second but its chain (0, 1) is smaller than (2, 3).
    arcs = [
        Arc(0, 0, 3, Fraction(1), False),
        Arc(1, 3, 1, Fraction(1), False),
        Arc(2, 0, 2, Fraction(1), False),
        Arc(3, 2, 1, Fraction(1), False),
        Arc(4, 0, 1, Fraction(5), True),
    ]
    red = spgm_transform(Network(4, arcs), Commodity(0, 1, Fraction(1)))
    assert red.arc_origin == ((0, 1), (4,))
    assert arc_shapes(red) == [(0, 1, Fraction(2), False), (0, 1, Fraction(5), True)]


def test_original_tolled_id(fig, fig_bfset):
    red = path_based_reduce(fig.network, fig_bfset)
    for a in red.network.arcs:
        if a.tolled:
            orig = red.original_tolled_id(a.index)
            assert fig.network.arc(orig).tolled


# -- the bypass routine against the one-merge-at-a-time references ----------


def reduction_record(reduced):
    """Everything a reduction decides: kept nodes, chains, and each arc."""
    arcs = [(a.tail, a.head, a.cost, a.tolled) for a in reduced.network.arcs]
    return reduced.node_origin, reduced.arc_origin, arcs


def compare_with_references(instance, caps=(None,)):
    """Reduce every commodity both ways; returns the path-based count.

    SPGM runs on every commodity, and path-based reduction on each
    exhaustive feasible set at each of ``caps``.
    """
    net = instance.network
    compared = 0
    for com in instance.commodities:
        assert reduction_record(spgm_transform(net, com)) == reduction_record(
            spgm_by_rescans(net, com)
        )
        for cap in caps:
            bfset = enumerate_paths(net, com, cap=cap).feasible_set()
            if bfset.exhaustive:
                assert reduction_record(path_based_reduce(net, bfset)) == reduction_record(
                    path_reduce_by_merges(net, bfset)
                )
                compared += 1
    return compared


def test_reductions_match_references_on_generated_grids():
    compared = 0
    for seed in range(9):
        shape = ((3, 4), (4, 4), (5, 5))[seed % 3]
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                raw = generate(GenConfig(("grid", shape), 3, seed=seed))
        except GenError:
            continue
        # The raw costs are small integers with many ties between bypass
        # chains, which only SPGM can take; enumeration needs perturbed costs.
        compare_with_references(raw, caps=())
        compared += compare_with_references(perturbed(raw), caps=(4000,))
    assert compared >= 20


@pytest.mark.parametrize("topology", ["grid:5x12", "delaunay:60"])
def test_reductions_match_references_at_sweep_scale(topology):
    assert compare_with_references(sweep_instance(topology), caps=(9, 65)) > 20


def test_reductions_match_references_on_random_digraphs():
    compared = 0
    for seed in range(120):
        instance = random_digraph_instance(seed)
        if instance is not None:
            compared += compare_with_references(instance)
            compared += compare_with_references(perturbed(instance))
    assert compared > 300
