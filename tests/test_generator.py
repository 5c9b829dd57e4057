"""Random instance generation: shapes, determinism, and the tolling rules."""

from fractions import Fraction

import pytest

from tollgate.generator import (
    GenConfig,
    GenError,
    generate,
    grid_edges,
    parse_topology,
)
from tollgate.network import serialize_instance, validate_instance


def test_parse_topology_forms():
    assert parse_topology("grid:5x12") == ("grid", (5, 12))
    assert parse_topology("delaunay:40") == ("delaunay", 40)
    assert parse_topology("voronoi:25") == ("voronoi", 25)
    with pytest.raises(GenError):
        parse_topology("torus:9")
    with pytest.raises(GenError):
        parse_topology("grid:5")


def test_config_validation():
    with pytest.raises(GenError):
        GenConfig(("grid", (1, 3)), 1)
    with pytest.raises(GenError):
        GenConfig(("delaunay", 2), 1)
    with pytest.raises(GenError):
        GenConfig(("grid", (3, 3)), 1, toll_ratio=0.0)
    with pytest.raises(GenError):
        GenConfig(("grid", (3, 3)), 1, cost_low=10, cost_high=5)
    with pytest.raises(GenError, match=r"high_cost_fraction .*, got 2"):
        GenConfig(("grid", (3, 3)), 1, high_cost_fraction=2)
    with pytest.raises(GenError):
        GenConfig(("grid", (3, 3)), 0)


def test_grid_edge_count():
    # rows*(cols-1) horizontal plus (rows-1)*cols vertical undirected edges.
    n, edges = grid_edges(5, 12)
    assert n == 60
    assert len(edges) == 5 * 11 + 4 * 12


def test_grid_instance_shape():
    inst = generate(GenConfig(("grid", (5, 12)), 40, seed=1))
    net = inst.network
    assert net.num_nodes == 60
    assert net.num_arcs == 206  # both directions of every grid edge
    assert len(inst.commodities) == 40
    assert inst.label == "grid5x12-k40-s1"
    validate_instance(inst)


def test_generation_is_deterministic():
    cfg = GenConfig(("grid", (4, 6)), 10, seed=7)
    assert serialize_instance(generate(cfg)) == serialize_instance(generate(cfg))


def test_different_seeds_differ():
    a = generate(GenConfig(("grid", (4, 6)), 10, seed=0))
    b = generate(GenConfig(("grid", (4, 6)), 10, seed=1))
    assert serialize_instance(a) != serialize_instance(b)


def test_twin_arcs_mirror_each_other():
    inst = generate(GenConfig(("grid", (4, 4)), 5, seed=3))
    net = inst.network
    for pos in range(net.num_arcs // 2):
        fwd, bwd = net.arc(2 * pos), net.arc(2 * pos + 1)
        assert (fwd.tail, fwd.head) == (bwd.head, bwd.tail)
        assert fwd.cost == bwd.cost
        assert fwd.tolled == bwd.tolled


def test_tolled_fraction_near_target():
    inst = generate(GenConfig(("grid", (5, 12)), 40, seed=2))
    net = inst.network
    fraction = len(net.tolled_ids) / net.num_arcs
    assert abs(fraction - 0.20) <= 0.02


def test_costs_in_range_and_halved_on_tolled():
    cfg = GenConfig(("grid", (5, 8)), 20, seed=4)
    inst = generate(cfg)
    for arc in inst.network.arcs:
        if arc.tolled:
            assert Fraction(cfg.cost_low, 2) <= arc.cost <= Fraction(cfg.cost_high, 2)
        else:
            assert cfg.cost_low <= arc.cost <= cfg.cost_high


def test_high_cost_fraction_forces_ceiling_values():
    cfg = GenConfig(("grid", (5, 8)), 10, seed=5, high_cost_fraction=0.5)
    inst = generate(cfg)
    doubled = [
        arc.cost * 2 if arc.tolled else arc.cost
        for arc in inst.network.arcs
    ]
    at_ceiling = sum(1 for c in doubled if c == cfg.cost_high)
    assert at_ceiling >= len(doubled) // 2


def test_commodities_at_least_two_hops_apart():
    inst = generate(GenConfig(("grid", (4, 6)), 12, seed=6))
    neighbors = {
        (arc.tail, arc.head) for arc in inst.network.arcs
    }
    for com in inst.commodities:
        assert com.origin != com.destination
        assert (com.origin, com.destination) not in neighbors
        assert 1 <= com.demand <= 100


def test_demand_for_too_many_commodities_fails():
    with pytest.raises(GenError, match="cannot place"):
        generate(GenConfig(("grid", (2, 2)), 50))


def test_shortfall_warns_and_marks_label():
    # A tiny path graph cannot toll much without cutting someone off.
    cfg = GenConfig(("grid", (1, 5)), 2, seed=0, toll_ratio=0.9)
    with pytest.warns(UserWarning, match="tolled"):
        inst = generate(cfg)
    assert "-short" in inst.label
    validate_instance(inst)


def test_delaunay_instance_is_valid():
    inst = generate(GenConfig(("delaunay", 25), 8, seed=1))
    assert inst.network.num_nodes == 25
    assert inst.network.num_arcs % 2 == 0
    assert len(inst.commodities) == 8
    validate_instance(inst)


def test_voronoi_instance_is_valid():
    inst = generate(GenConfig(("voronoi", 25), 6, seed=1))
    # Voronoi vertices outnumber the seed points in general position.
    assert inst.network.num_nodes >= 25
    assert len(inst.commodities) == 6
    validate_instance(inst)


def test_voronoi_is_deterministic():
    cfg = GenConfig(("voronoi", 18), 4, seed=9)
    assert serialize_instance(generate(cfg)) == serialize_instance(generate(cfg))
