"""The exhaustive bilevel reference solver on hand-checkable cases."""

from fractions import Fraction

import pytest

from tollgate import exactlp, oracle
from tollgate.enumeration import enumerate_all, enumerate_paths, perturbed
from tollgate.network import Arc, Commodity, Network, ProblemInstance
from tollgate.oracle import OracleError, oracle_solve

from bruteforce import rational_solve_lp


def test_five_node_optimum(fig):
    res = oracle_solve(fig)
    # The spine can be priced up to the cost-10 fallback, but the cost-4
    # bypass after the first arc caps arcs 1 and 2; everything lands on T0.
    assert res.revenue == 7
    assert res.tolls == {0: Fraction(7), 1: Fraction(0), 2: Fraction(0)}
    assert res.assignment == (0,)
    assert len(res.bfsets) == 1


def test_revenue_zero_when_nothing_tolled():
    arcs = [
        Arc(0, 0, 1, Fraction(2), False),
        Arc(1, 0, 1, Fraction(3), False),
    ]
    inst = ProblemInstance(Network(2, arcs), (Commodity(0, 1, Fraction(4)),))
    res = oracle_solve(inst)
    assert res.revenue == 0
    assert res.tolls == {}
    assert res.assignment == (0,)


def test_single_tolled_bridge_prices_the_gap():
    # One tolled shortcut of base cost 1 against a toll-free detour of 6:
    # the whole gap of 5 is collectable, scaled by demand 3.
    arcs = [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 0, 1, Fraction(6), False),
    ]
    inst = ProblemInstance(Network(2, arcs), (Commodity(0, 1, Fraction(3)),))
    res = oracle_solve(inst)
    assert res.revenue == 15
    assert res.tolls == {0: Fraction(5)}


def test_two_commodities_share_one_toll():
    # Two commodities cross the same tolled arc, with gaps 5 and 2 to their
    # toll-free alternatives.  Pricing at 2 keeps both on board for revenue
    # 2 * (1 + 4) = 10; pricing at 5 keeps only the small commodity for 5.
    arcs = [
        Arc(0, 0, 1, Fraction(1), True),
        Arc(1, 0, 1, Fraction(6), False),
        Arc(2, 2, 0, Fraction(1), False),
        Arc(3, 2, 1, Fraction(4), False),
    ]
    net = Network(3, arcs)
    coms = (Commodity(0, 1, Fraction(1)), Commodity(2, 1, Fraction(4)))
    inst = ProblemInstance(net, coms, "shared-toll")
    res = oracle_solve(inst)
    # Commodity 2->1: tolled route costs 1+1+T, free route 4, so its gap is
    # 2.  At T=2 both pay: 2*1 + 2*4 = 10.  At T=5 only the first: 5.
    assert res.revenue == 10
    assert res.tolls == {0: Fraction(2)}


def test_canonical_tolls_respect_caps(fig):
    res = oracle_solve(fig)
    from tollgate.bigm import compute_bigm

    bigm = compute_bigm(fig.network, fig.commodities)
    for aid, value in res.tolls.items():
        assert 0 <= value <= bigm.toll_cap


def test_canonical_tolls_minimize_the_sum(fig):
    res = oracle_solve(fig)
    assert sum(res.tolls.values()) == res.revenue  # demand 1, no slack tolls


def test_assignment_cap_refusal(fig):
    with pytest.raises(OracleError, match="assignment"):
        oracle_solve(fig, assignment_cap=2)


def test_truncated_enumeration_refused(fig):
    truncated = [enumerate_paths(fig.network, fig.commodities[0], cap=2)]
    with pytest.raises(OracleError, match="exhaustive"):
        oracle_solve(fig, truncated)


def test_oracle_accepts_precomputed_enumeration(fig, fig_enum):
    assert oracle_solve(fig, [fig_enum]).revenue == 7


def test_enumeration_of_other_costs_refused(fig):
    # Paths enumerated at perturbed costs are off the integer grid of the
    # instance's own costs, on which the pricing rows are written.
    with pytest.raises(OracleError, match="Network.scale"):
        oracle_solve(fig, enumerate_all(perturbed(fig, seed=0)))


def test_integer_tableau_matches_the_rational_reference_on_suite25(
    suite25, monkeypatch
):
    # Every priced assignment and the canonical tolls, once with the package's
    # integer tableau (the fixture's results) and once with the Fraction
    # tableau, must give the same optimum, tolls and assignment.
    calls = []

    def reference(objective, rows, maximize=True):
        calls.append(maximize)
        return rational_solve_lp(objective, rows, maximize)

    monkeypatch.setattr(exactlp, "solve_lp", reference)
    for entry in suite25:
        expected = entry["oracle"]
        got = oracle_solve(entry["instance"], entry["enums"])
        assert got.revenue == expected.revenue, entry["instance"].label
        assert got.tolls == expected.tolls, entry["instance"].label
        assert got.assignment == expected.assignment, entry["instance"].label
    assert len(calls) > 25


@pytest.mark.parametrize("suite", ["suite25", "raw_suite25"])
def test_presolved_revenue_lps_match_the_full_lps(suite, request, monkeypatch):
    # Every revenue LP the oracle solves leaves out the rows against rivals
    # with a tolled arc on no assigned path, and keeps one row per set of
    # terms.  The full LP, every row kept and solved by the Fraction tableau,
    # must end with the same status and optimum.  The raw suite has tied
    # path costs.
    pricing_rows = oracle._pricing_rows
    solve_lp = exactlp.solve_lp
    visited = []
    checked = dropped = 0

    def recording_rows(bfsets, costs, positions, presolve):
        visited.append((bfsets, costs, positions, presolve))
        return pricing_rows(bfsets, costs, positions, presolve)

    def checking_solve(objective, rows, maximize=True):
        nonlocal checked, dropped
        got = solve_lp(objective, rows, maximize)
        if not maximize:
            return got
        bfsets, costs, positions, presolve = visited[-1]
        assert presolve
        terms = [tuple(row[0]) for row in rows]
        assert len(set(terms)) == len(terms), positions
        full = pricing_rows(bfsets, costs, positions, presolve=False)
        expected = rational_solve_lp(objective, full, maximize=True)
        assert got.status == expected.status, positions
        assert got.objective == expected.objective, positions
        checked += 1
        dropped += len(full) > len(rows)
        return got

    monkeypatch.setattr(oracle, "_pricing_rows", recording_rows)
    monkeypatch.setattr(exactlp, "solve_lp", checking_solve)
    for entry in request.getfixturevalue(suite):
        got = oracle_solve(entry["instance"], entry["enums"])
        assert got.revenue == entry["oracle"].revenue
    assert checked > 25
    assert dropped > checked // 4
