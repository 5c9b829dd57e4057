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
    _bridge_spares,
    _reach,
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
    # qhull cannot start a triangulation from 3 points, and the Voronoi
    # graph of 4 points has no pair two hops apart.
    for shape, size, least in (("delaunay", 3, 4), ("voronoi", 3, 5), ("voronoi", 4, 5)):
        with pytest.raises(GenError, match=f"{shape} needs at least {least} points, got {size}"):
            GenConfig((shape, size), 1)
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


# Each config's label and the sha256 of its serialized instance.  The first
# six were recorded before toll conversions were decided by component
# labeling instead of a search per commodity, and eligible pairs by labeling
# instead of a breadth-first search per node; the other five before one
# breadth-first search replaced the labeling for both.  voronoi60 and
# grid1x40 have many bridges among their toll candidates.
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
    (GenConfig(("grid", (5, 12)), 40, seed=3), "grid5x12-k40-s3",
     "cebbc3aaf66ce5561ee9d2c884573d187d8b6d2e303ec38a0b542ccaf0e7343a"),
    (GenConfig(("delaunay", 60), 40, seed=5), "delaunay60-k40-s5",
     "61ff7d7016312ba7ad735c0d0039ba2f216fc465b6d24fdc19cc8de701bf6733"),
    (GenConfig(("voronoi", 30), 10, seed=2), "voronoi30-k10-s2",
     "dbcdad919d26043b2efd719654d05ae10ef9db329cadd8a51af6fbcdb800d8c0"),
    (GenConfig(("voronoi", 60), 20, seed=4, toll_ratio=0.6),
     "voronoi60-k20-s4-short19",
     "8d06969f8fd7097ad49822f975ea2f09615616e813f23c0037c371430bc6bd06"),
    (GenConfig(("grid", (1, 40)), 5, toll_ratio=0.9), "grid1x40-k5-s0-short20",
     "fc4a313415d47fcca4f9d991a472e0b58681133cd0e097ab956fc2bd56e66189"),
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
    # The bridge rule: once an edge whose ends no longer reach each other is
    # taken out, the pairs stay connected exactly when none has one end on
    # each side.  It assumes every pair was connected before.
    net = generate(cfg).network
    edges = [(net.arcs[2 * pos].tail, net.arcs[2 * pos].head)
             for pos in range(net.num_arcs // 2)]
    rng = random.Random(cfg.seed)
    outcomes = []
    for _ in range(60):
        tolled = set(rng.sample(range(len(edges)), rng.randint(0, len(edges) - 1)))
        adjacency: list[list[int]] = [[] for _ in range(net.num_nodes)]
        for pos, (u, v) in enumerate(edges):
            if pos not in tolled:
                adjacency[u].append(v)
                adjacency[v].append(u)
        # Pairs connected in this toll-free graph, with repeated nodes and an
        # origin that is its own destination.
        pairs = []
        for _ in range(rng.randint(1, 5)):
            origin = rng.randrange(net.num_nodes)
            pairs.append((origin, rng.choice(sorted(_reach(adjacency, origin)))))
        pairs += [pairs[0], (pairs[0][1], pairs[0][1])]
        assert pairs_reach_avoiding(net, tolled, pairs)
        pos = rng.choice([pos for pos in range(len(edges)) if pos not in tolled])
        u, v = edges[pos]
        adjacency[u].remove(v)
        adjacency[v].remove(u)
        expected = pairs_reach_avoiding(net, tolled | {pos}, pairs)
        side = _reach(adjacency, u, v)
        if side is None:
            assert expected
        else:
            assert _bridge_spares(side, pairs) is expected
            outcomes.append(expected)
    # Both answers occur: some bridges cut a pair off and some do not.
    assert set(outcomes) == {False, True}


@pytest.mark.parametrize(
    "cfg, bridge",
    [
        (GenConfig(("grid", (1, 40)), 5, toll_ratio=0.9), True),
        (GenConfig(("delaunay", 60), 40), False),
    ],
    ids=["grid1x40", "delaunay60"],
)
def test_every_or_no_toll_candidate_is_a_bridge(cfg, bridge, monkeypatch):
    # On a path graph every edge is a bridge, so each candidate goes to the
    # bridge rule; on delaunay60 none does.
    reach = generator._reach
    bridges = []

    def counted(adjacency, source, target=-1):
        side = reach(adjacency, source, target)
        if target >= 0:
            bridges.append(side is not None)
        return side

    monkeypatch.setattr(generator, "_reach", counted)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        generate(cfg)
    assert bridges and set(bridges) == {bridge}
