"""Exact reference solver, independent of the MILP stack.

Enumerates every way to assign one feasible path per commodity, prices each
assignment with an exact rational LP (the best tolls that keep every
commodity on its assigned path), and keeps the best.  Exponential in the
number of commodities, so it refuses instances past ``assignment_cap``;
its purpose is to certify the formulations on small instances, not to
compete with them.
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


def _pricing_rows(
    bfsets: Sequence[BilevelFeasibleSet], positions: Sequence[int]
) -> list[exactlp.Row]:
    """Rows keeping each commodity's assigned path weakly cheapest."""
    rows: list[exactlp.Row] = []
    for bfset, pos in zip(bfsets, positions):
        chosen = bfset.paths[pos]
        mine = chosen.tolled_set
        for rival in bfset.paths:
            if rival is chosen:
                continue
            # +1 on the chosen path's own tolled arcs, -1 on the rival's.
            packed = [
                (1 if aid in mine else -1, _toll_var(aid))
                for aid in sorted(mine ^ rival.tolled_set)
            ]
            if not packed:
                continue
            rows.append((packed, "<=", rival.cost - chosen.cost))
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

    # Each commodity's revenue bound per path position, demand times its gap
    # to the toll-free alternative, as integers over one common scale; a sum
    # of these bounds an assignment's revenue.
    gaps = [
        [com.demand * (bfset.paths[-1].cost - path.cost) for path in bfset.paths]
        for com, bfset in zip(instance.commodities, bfsets)
    ]
    scale = math.lcm(*(g.denominator for per in gaps for g in per))
    gains = [[int(g * scale) for g in per] for per in gaps]
    ordered = sorted(
        (-sum(gain[pos] for gain, pos in zip(gains, positions)), positions)
        for positions in itertools.product(*(range(len(b)) for b in bfsets))
    )

    best_rev = Fraction(-1)
    best_positions: Optional[tuple[int, ...]] = None
    best_rows: list[exactlp.Row] = []
    best_objective: list[tuple[Fraction, str]] = []
    for neg_bound, positions in ordered:
        if -neg_bound <= best_rev * scale:
            break
        rows = _pricing_rows(bfsets, positions)
        objective = _revenue_terms(instance, bfsets, positions)
        if not objective:
            # No tolled arc anywhere on the assigned paths: revenue is zero.
            if best_rev < 0:
                best_rev = Fraction(0)
                best_positions = tuple(positions)
                best_rows = rows
                best_objective = []
            continue
        outcome = exactlp.solve_lp(objective, rows, maximize=True)
        if outcome.status == "infeasible":
            continue
        if outcome.status != "optimal" or outcome.objective is None:
            raise OracleError(f"pricing LP ended {outcome.status} for {positions}")
        if outcome.objective > best_rev:
            best_rev = outcome.objective
            best_positions = tuple(positions)
            best_rows = rows
            best_objective = objective
    if best_positions is None:
        raise OracleError("no feasible path assignment found")
    if best_rev < 0:
        best_rev = Fraction(0)

    tolls = {aid: Fraction(0) for aid in instance.network.tolled_ids}
    if best_objective:
        # Canonical tolls: cheapest toll vector achieving the revenue.
        pinned = list(best_rows)
        pinned.append((best_objective, "=", best_rev))
        names = sorted(
            {name for terms, _, _ in pinned for _, name in terms}
        )
        minimal = exactlp.solve_lp(
            [(Fraction(1), name) for name in names], pinned, maximize=False
        )
        if minimal.status != "optimal":
            raise OracleError(f"toll canonicalization ended {minimal.status}")
        for name, value in minimal.solution.items():
            aid = int(name[2:-1])
            tolls[aid] = value
    return OracleResult(best_rev, tolls, best_positions, bfsets)
