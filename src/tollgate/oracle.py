"""Exact reference solver, independent of the MILP stack.

Enumerates every way to assign one feasible path per commodity, prices each
assignment with an exact rational LP (the best tolls that keep every
commodity on its assigned path), and keeps the best.  Exponential in the
number of commodities, so it refuses instances past ``assignment_cap``;
its purpose is to certify the formulations on small instances, not to
compete with them.

The pricing LPs are on integers.  Tolls are counted in units of
``1 / Network.scale``, the network's common cost denominator, so each
row's right-hand side, a gap between two path costs times the scale, is an
integer.  Multiplying every right-hand side by the scale multiplies the
optimum and the vertex by it, and they are divided back exactly.

The revenue LP is presolved in two ways, neither of which can change its
status or optimum.  It leaves out every row against a rival path that
holds a tolled arc on no assigned path.  Such a toll has objective weight
0 and, in every row it enters, coefficient -1 in a ``<=`` row (it is on no
chosen path), so raising it keeps every other row as it is and satisfies
all of its own.  And of the rows with the same terms (rivals of different
commodities with the same tolled-set difference), it keeps only the one
with the least right-hand side, which implies the others.  The
canonical-toll LP (least toll sum at that revenue) keeps every row: it
prices the rival arcs too, and its rows stay as the tableau has always
seen them, so a tie between toll vectors is broken as before.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from . import exactlp
from .enumeration import BilevelFeasibleSet, EnumerationResult, enumerate_all
from .network import ArcId, ProblemInstance


class OracleError(ValueError):
    pass


@dataclass(frozen=True)
class OracleResult:
    """Certified optimum: revenue, canonical tolls, and who drives where.

    ``tolls`` covers every tolled arc (zero where the optimum leaves an arc
    unpriced) and is canonical: among all toll vectors achieving the
    revenue on the chosen assignment, the one minimizing the toll sum.
    ``assignment[k]`` is the position of commodity ``k``'s path in its
    feasible set.
    """

    revenue: Fraction
    tolls: dict[ArcId, Fraction]
    assignment: tuple[int, ...]
    bfsets: tuple[BilevelFeasibleSet, ...]


def _toll_var(aid: ArcId) -> str:
    return f"T[{aid}]"


def _scaled_costs(bfset: BilevelFeasibleSet, scale: int) -> list[int]:
    """Each path's cost times ``scale``, the network's cost denominator."""
    costs = [path.cost * scale for path in bfset.paths]
    if any(cost.denominator != 1 for cost in costs):
        raise OracleError("a path cost is not a multiple of 1 / Network.scale")
    return [cost.numerator for cost in costs]


def _pricing_rows(
    bfsets: Sequence[BilevelFeasibleSet],
    costs: Sequence[Sequence[int]],
    positions: Sequence[int],
    presolve: bool,
) -> list[exactlp.Row]:
    """Rows keeping each commodity's assigned path weakly cheapest.

    The rows are on integers: tolls are in units of ``1 / Network.scale``
    and each right-hand side is a gap of the scaled path ``costs``.  With
    ``presolve``, rows against a rival that holds a tolled arc on no
    assigned path are left out, and of the rows with the same terms only
    the tightest is kept (see the module docstring).
    """
    priced = frozenset().union(
        *(bfset.paths[pos].tolled_set for bfset, pos in zip(bfsets, positions))
    )
    rows: list[exactlp.Row] = []
    # With presolve: each row's terms, to the position of its row in rows.
    held: dict[tuple, int] = {}
    for bfset, scaled, pos in zip(bfsets, costs, positions):
        chosen = bfset.paths[pos]
        mine = chosen.tolled_set
        for rival, cost in zip(bfset.paths, scaled):
            if rival is chosen or (presolve and not rival.tolled_set <= priced):
                continue
            # +1 on the chosen path's own tolled arcs, -1 on the rival's.
            packed = tuple(
                (1 if aid in mine else -1, _toll_var(aid))
                for aid in sorted(mine ^ rival.tolled_set)
            )
            if not packed:
                continue
            rhs = cost - scaled[pos]
            if presolve:
                at = held.setdefault(packed, len(rows))
                if at < len(rows):
                    if rhs < rows[at][2]:
                        rows[at] = (packed, "<=", rhs)
                    continue
            rows.append((packed, "<=", rhs))
    return rows


def _revenue_terms(
    instance: ProblemInstance,
    bfsets: Sequence[BilevelFeasibleSet],
    positions: Sequence[int],
) -> list[tuple[Fraction, str]]:
    weight: dict[ArcId, Fraction] = {}
    for com, bfset, pos in zip(instance.commodities, bfsets, positions):
        for aid in bfset.paths[pos].tolled_set:
            weight[aid] = weight.get(aid, Fraction(0)) + com.demand
    return [(coef, _toll_var(aid)) for aid, coef in sorted(weight.items())]


def oracle_solve(
    instance: ProblemInstance,
    enum_results: Optional[Sequence[EnumerationResult]] = None,
    assignment_cap: int = 1_000_000,
) -> OracleResult:
    """Brute-force the instance exactly.

    Assignments are visited in decreasing order of a revenue upper bound
    (each commodity pays at most its gap to the toll-free alternative), so
    the scan stops as soon as the bound drops to the incumbent.
    """
    if enum_results is None:
        enum_results = enumerate_all(instance)
    if len(enum_results) != len(instance.commodities):
        raise OracleError(
            f"{len(enum_results)} enumeration results for "
            f"{len(instance.commodities)} commodities"
        )
    bfsets = tuple(r.feasible_set() for r in enum_results)
    for k, bfset in enumerate(bfsets):
        if not bfset.exhaustive:
            raise OracleError(
                f"commodity {k}: the oracle needs an exhaustive feasible set"
            )
    total = 1
    for bfset in bfsets:
        total *= len(bfset)
    if total > assignment_cap:
        raise OracleError(
            f"{total} path assignments exceed the cap of {assignment_cap}; "
            "this instance is too large to certify by brute force"
        )

    # Path costs times the network's cost denominator: the pricing LPs run
    # on integers, in tolls of 1 / scale, and their optima are revenue * scale.
    scale = instance.network.scale
    costs = [_scaled_costs(bfset, scale) for bfset in bfsets]
    # Each commodity's revenue bound per path position, demand times its gap
    # to the toll-free alternative, in the same units and made integers over
    # one common multiplier; a sum of these bounds an assignment's revenue.
    gaps = [
        [com.demand * (scaled[-1] - cost) for cost in scaled]
        for com, scaled in zip(instance.commodities, costs)
    ]
    multiplier = math.lcm(*(g.denominator for per in gaps for g in per))
    gains = [[int(g * multiplier) for g in per] for per in gaps]
    ordered = sorted(
        (-sum(gain[pos] for gain, pos in zip(gains, positions)), positions)
        for positions in itertools.product(*(range(len(b)) for b in bfsets))
    )

    # The best revenue so far, times scale.
    best = Fraction(-1)
    best_positions: Optional[tuple[int, ...]] = None
    best_objective: list[tuple[Fraction, str]] = []
    for neg_bound, positions in ordered:
        if -neg_bound <= best * multiplier:
            break
        objective = _revenue_terms(instance, bfsets, positions)
        if not objective:
            # No tolled arc anywhere on the assigned paths: revenue is zero.
            if best < 0:
                best = Fraction(0)
                best_positions = tuple(positions)
                best_objective = []
            continue
        rows = _pricing_rows(bfsets, costs, positions, presolve=True)
        outcome = exactlp.solve_lp(objective, rows, maximize=True)
        if outcome.status == "infeasible":
            continue
        if outcome.status != "optimal" or outcome.objective is None:
            raise OracleError(f"pricing LP ended {outcome.status} for {positions}")
        if outcome.objective > best:
            best = outcome.objective
            best_positions = tuple(positions)
            best_objective = objective
    if best_positions is None:
        raise OracleError("no feasible path assignment found")
    if best < 0:
        best = Fraction(0)

    tolls = {aid: Fraction(0) for aid in instance.network.tolled_ids}
    if best_objective:
        # Canonical tolls: cheapest toll vector achieving the revenue, over
        # every row, since it prices the rival arcs the presolve set aside.
        pinned = _pricing_rows(bfsets, costs, best_positions, presolve=False)
        pinned.append((best_objective, "=", best))
        names = sorted(
            {name for terms, _, _ in pinned for _, name in terms}
        )
        minimal = exactlp.solve_lp(
            [(1, name) for name in names], pinned, maximize=False
        )
        if minimal.status != "optimal":
            raise OracleError(f"toll canonicalization ended {minimal.status}")
        for name, value in minimal.solution.items():
            aid = int(name[2:-1])
            tolls[aid] = value / scale
    return OracleResult(best / scale, tolls, best_positions, bfsets)
