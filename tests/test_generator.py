"""Random instance generation: shapes, determinism, and the tolling rules."""

import hashlib
import random
import warnings
from fractions import Fraction

import pytest

from bruteforce import pairs_reach_avoiding
from tollgate import generator
from tollgate.generator import (
    GenConfig,
    GenError,
    _toll_free_connects,
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


# Each config's label and the sha256 of its serialized instance, recorded
# before toll conversions were decided by component labeling instead of a
# search per commodity, and eligible pairs by labeling instead of a
# breadth-first search per node.
_PINNED = [
    (GenConfig(("grid", (3, 4)), 3), "grid3x4-k3-s0",
     "21799a09fae7aff44e13b58c08b24cda028116bfc19cc9a3a562d3faed29bcf3"),
    (GenConfig(("grid", (5, 12)), 40, seed=0), "grid5x12-k40-s0",
     "5a570d081fa468aaeeefe8523d234ce20dc52a2843c9098af4b88a9253eae51b"),
    (GenConfig(("grid", (5, 12)), 40, seed=1), "grid5x12-k40-s1",
     "ecdf0f425dddb22f29aeb41c8213c33c4208bbb983a1b3adc43ea4080314ba36"),
    (GenConfig(("delaunay", 60), 40), "delaunay60-k40-s0",
     "11544b1ed903ef58bc82d554c88e82a2fbadd667a92d909cad91e948496e051a"),
    (GenConfig(("voronoi", 30), 10), "voronoi30-k10-s0",
     "0e04cd80674273983bf01b9fc88ea4fc03cb0e73b741e7fdac7a4729372f69b8"),
    (GenConfig(("grid", (1, 5)), 2, toll_ratio=0.9), "grid1x5-k2-s0-short4",
     "e84c0f91c410df5361bfb1ed3fffd8e6017077cadd08a67a3255311b05431317"),
]


@pytest.mark.parametrize(
    "cfg, label, digest", _PINNED, ids=[label for _, label, _ in _PINNED]
)
def test_generated_bytes_are_pinned(cfg, label, digest):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        inst = generate(cfg)
    assert inst.label == label
    assert hashlib.sha256(serialize_instance(inst).encode()).hexdigest() == digest


@pytest.mark.parametrize(
    "cfg",
    [
        GenConfig(("grid", (3, 4)), 3),
        GenConfig(("grid", (5, 12)), 40),
        GenConfig(("delaunay", 60), 40),
        GenConfig(("voronoi", 30), 10),
    ],
    ids=["grid3x4", "grid5x12", "delaunay60", "voronoi30"],
)
def test_toll_free_connects_matches_a_search_per_commodity(cfg):
    inst = generate(cfg)
    net = inst.network
    edges = [(net.arcs[2 * pos].tail, net.arcs[2 * pos].head)
             for pos in range(net.num_arcs // 2)]
    commodities = [(com.origin, com.destination) for com in inst.commodities]
    rng = random.Random(cfg.seed)
    outcomes = []
    for trial in range(60):
        tolled = set(rng.sample(range(len(edges)), rng.randint(0, len(edges))))
        # Any node pairs too, isolated and repeated nodes included.
        pairs = commodities if trial % 2 else [
            (rng.randrange(net.num_nodes), rng.randrange(net.num_nodes))
            for _ in range(rng.randint(1, 5))
        ]
        expected = pairs_reach_avoiding(net, tolled, pairs)
        assert _toll_free_connects(net.num_nodes, edges, tolled, pairs) is expected
        outcomes.append(expected)
    # Both answers occur: some toll sets cut a pair off and some do not.
    assert set(outcomes) == {False, True}
    all_edges = set(range(len(edges)))
    assert _toll_free_connects(net.num_nodes, edges, all_edges, commodities) is False
    assert _toll_free_connects(net.num_nodes, edges, set(), commodities) is True


@pytest.mark.parametrize(
    "cfg, path",
    [
        (GenConfig(("grid", (3, 4)), 3), False),
        (GenConfig(("grid", (1, 5)), 2, toll_ratio=0.9), True),
        (GenConfig(("grid", (5, 12)), 40, seed=3), False),
        (GenConfig(("delaunay", 60), 40, seed=5), False),
        (GenConfig(("voronoi", 30), 10, seed=2), False),
        (GenConfig(("voronoi", 60), 20, seed=4, toll_ratio=0.6), False),
    ],
    ids=["grid3x4", "grid1x5", "grid5x12", "delaunay60", "voronoi30", "voronoi60"],
)
def test_a_search_per_candidate_tolls_what_a_labeling_per_candidate_does(
    cfg, path, monkeypatch
):
    # Only a bridge of the toll-free graph is decided by a labeling; with the
    # search switched off every candidate is, and the instance is the same.
    # On a path graph every edge is a bridge.
    labeled = []
    connects = generator._toll_free_connects

    def counted(*args):
        labeled.append(args[2])
        return connects(*args)

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        monkeypatch.setattr(generator, "_toll_free_connects", counted)
        searched = serialize_instance(generate(cfg))
        bridges = len(labeled)
        monkeypatch.setattr(generator, "_reaches", lambda adjacency, u, v: False)
        assert serialize_instance(generate(cfg)) == searched
    candidates = len(labeled) - bridges
    assert (bridges == candidates) is path
