"""Big-M families, checked against values worked out by hand.

On the five-node fixture the toll-free fallback costs 10 and the cheapest
zero-toll route costs 3, so every toll cap is 7.  The dual bounds come from
two shortest-path sweeps: zero-toll distances to the destination give the
lower potentials, cap-inflated distances the upper ones.
"""

from dataclasses import replace
from fractions import Fraction

import pytest

from conftest import scaled_bigm
from tollgate.bigm import BuildError, compute_bigm
from tollgate.network import Arc, Commodity, InstanceError, Network
from tollgate.preprocess import ReducedGraph

LAM_LO = {0: 3, 1: 2, 2: 1, 3: 2, 4: 0}
LAM_HI = {0: 10, 1: 3, 2: 4, 3: 2, 4: 0}
R_BY_ARC = {0: 8, 1: 10, 2: 7, 3: 3, 4: 0, 5: 1, 6: 7}


def test_toll_caps(fig_bigm):
    assert fig_bigm.scale == 1
    assert fig_bigm.toll_cap == Fraction(7)
    assert fig_bigm.m_value(0) == Fraction(7)
    assert fig_bigm.L_lo == (Fraction(3),)
    assert fig_bigm.pi_cost == (Fraction(10),)


def test_potential_bounds(fig_bigm):
    assert dict(enumerate(fig_bigm.lam_lo[0])) == LAM_LO
    assert dict(enumerate(fig_bigm.lam_hi[0])) == LAM_HI


def test_dual_slack_bounds(fig, fig_bigm):
    graph = ReducedGraph.identity(fig.network)
    assert dict(enumerate(fig_bigm.arc_slack_bounds(0, graph))) == R_BY_ARC


def test_arc_slack_bounds_on_a_contracted_graph(fig, fig_bigm):
    # Bypass node 3: the toll-free chain 2->3->4 becomes one arc of cost 4
    # between reduced nodes 2 and 3 (original 4), bounded at the chain's
    # original endpoints: 4 - lam_lo[2] + lam_hi[4] = 3.
    kept = (0, 1, 2, 5, 6)
    node_origin = (0, 1, 2, 4)
    reduced = {orig: red for red, orig in enumerate(node_origin)}
    arcs = [
        Arc(pos, reduced[a.tail], reduced[a.head], a.cost, a.tolled)
        for pos, a in enumerate(fig.network.arc(aid) for aid in kept)
    ]
    arcs.append(Arc(len(arcs), 2, 3, Fraction(4), False))
    arc_origin = tuple((aid,) for aid in kept) + ((3, 4),)
    contracted = ReducedGraph(Network(4, arcs), fig.network, node_origin, arc_origin)
    expected = [R_BY_ARC[aid] for aid in kept] + [3]
    assert fig_bigm.arc_slack_bounds(0, contracted) == expected


def test_arc_slack_bounds_unreachable_endpoint_raises(fig, fig_bigm):
    # Mark node 1 unreachable: the first arc that touches it is 0->1.
    row = list(fig_bigm.lam_hi[0])
    row[1] = None
    cut = replace(fig_bigm, lam_hi=(tuple(row),))
    message = r"^commodity 0: arc 0->1 has no finite dual slack bound"
    with pytest.raises(BuildError, match=message):
        cut.arc_slack_bounds(0, ReducedGraph.identity(fig.network))


def test_path_slack_bounds(fig_bigm):
    assert fig_bigm.S == {(0, 0): 21, (0, 1): 8, (0, 2): 7}


def test_s_value_agrees_with_table_and_extends(fig, fig_bigm, fig_bfset):
    for pos, p in enumerate(fig_bfset.paths):
        assert fig_bigm.s_value(0, p) == fig_bigm.s_value(0, p, pos) == fig_bigm.S[(0, pos)]
    dominated = fig.network.path([0, 1, 3, 4])
    assert fig_bigm.s_value(0, dominated) == 17


def test_dead_arcs_carry_no_r_bound(fig):
    net = fig.network
    arcs = list(net.arcs) + [Arc(7, 1, 5, Fraction(1), False)]
    widened = Network(6, arcs)
    params = compute_bigm(widened, fig.commodities)
    with pytest.raises(BuildError, match=r"^commodity 0: arc 1->5 has no finite"):
        params.arc_slack_bounds(0, ReducedGraph.identity(widened))
    assert params.lam_lo[0][5] is None


def test_multi_commodity_caps_take_the_max(fig):
    both = (fig.commodities[0], Commodity(1, 4, Fraction(2)))
    params = compute_bigm(fig.network, both)
    # Second commodity: toll-free cost 3, zero-toll cost 2, so its gap is 1.
    assert params.toll_cap == 7
    assert params.M == (7, 1)
    assert params.m_value(1) == 1
    # One destination: both commodities share its distance rows, and the
    # zero-toll row is the network's cached sweep.
    assert params.lam_lo[0] is params.lam_lo[1] is fig.network.zero_toll_row(4)
    assert params.lam_hi[0] is params.lam_hi[1]


def test_no_toll_free_route_is_an_error():
    arcs = [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 1, 0, Fraction(1), False),
    ]
    net = Network(2, arcs)
    with pytest.raises(InstanceError, match="toll-free"):
        compute_bigm(net, (Commodity(0, 1, Fraction(1)),))


def test_scaled_multiplies_only_big_ms(fig, fig_bigm, fig_bfset):
    doubled = scaled_bigm(fig_bigm, 2)
    assert doubled.toll_cap == 14
    assert doubled.m_value(0) == 14
    # The dual slack bound grows only through the toll cap it contains.
    bounds = doubled.arc_slack_bounds(0, ReducedGraph.identity(fig.network))
    for aid, expected in ((0, 8 + 7), (3, 3)):
        assert bounds[aid] == expected
    assert doubled.s_value(0, fig_bfset.paths[1], 1) == 16
    assert doubled.lam_lo == fig_bigm.lam_lo
    assert doubled.L_lo == fig_bigm.L_lo
    with pytest.raises(ValueError):
        scaled_bigm(fig_bigm, 0)
