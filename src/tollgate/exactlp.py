"""Small exact LP solver: two-phase primal simplex on a fraction-free tableau.

Built for the reference (brute-force) pricing solver, which needs exact
arithmetic and must not share code or failure modes with the numeric MILP
backends.  Scope is deliberately narrow: dense tableau, nonnegative
variables, Bland's rule (so cycling is impossible), no presolve.  Fine for
dozens of rows and columns, not for thousands.

The tableau holds Python integers only (integer-preserving elimination:
Bareiss, Math. Comp. 22, 1968; Edmonds, J. Res. NBS 71B, 1967).  A row
given on ints, as the oracle writes its pricing rows, enters as it is, with
no ``Fraction`` on the way; any other row is first multiplied by the least
common multiple of its own denominators.  Slack, surplus and artificial
coefficients stay at +-1, which rescales those columns by a positive factor
and nothing else.  The tableau is then a
pair ``(M, d)`` with ``d = 1`` at the start, and the rational tableau it
stands for is ``M / d``.  A pivot on ``(r, s)`` with ``p = M[r][s]`` keeps
row ``r``, sets ``M[i][j] = (M[i][j] * p - M[i][s] * M[r][j]) / d`` for
every other row and then ``d = p``.  By Sylvester's identity every entry is
then a minor of the starting matrix and ``d`` is plus or minus the basis
determinant, so each division is exact; row deletions keep this, because a
deleted row's artificial column is a unit column of the starting matrix.
The objective row is carried along as one more row of the same kind,
holding ``d`` times the reduced costs.

Signs and ratios are read off ``M`` and the sign of ``d`` (a pivot on a
negative entry, as the phase-1 clean-up may make, turns ``d`` negative),
and ratios are compared by cross-multiplication.  Positive column scales
change neither the sign of a reduced cost nor the order of the ratios in a
column, and each phase's costs are scaled to match, so every entering and
leaving choice, hence the pivot sequence and the returned vertex, is the
one the rational tableau would make.  Values become ``Fraction`` only in
the returned ``objective`` and ``solution``.  For the same reason,
multiplying every right-hand side by a positive integer keeps every pivot
(the ratios in a column scale together, the reduced costs not at all) and
multiplies the vertex and the optimum by that integer, which lets the
oracle price tolls in integer units.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence, Union

from .network import as_exact

Value = Union[int, Fraction]
Row = tuple[Sequence[tuple[Value, str]], str, Value]


@dataclass(frozen=True)
class LPResult:
    status: str  # "optimal" | "infeasible" | "unbounded"
    objective: Optional[Fraction]
    solution: dict[str, Fraction]


def _scaled(values: Sequence[Value]) -> tuple[list[int], int]:
    """``values`` times the LCM of their denominators, and that multiplier."""
    if all(type(v) is int for v in values):
        return list(values), 1
    scale = math.lcm(*(v.denominator for v in values))
    return [v.numerator * (scale // v.denominator) for v in values], scale


class _Tableau:
    """Integer rows ``rows`` over the common divisor ``d``, with their basis."""

    __slots__ = ("rows", "basis", "d")

    def __init__(self, rows: list[list[int]], basis: list[int]) -> None:
        self.rows = rows
        self.basis = basis
        self.d = 1

    def pivot(self, row: int, col: int, objective: Optional[list[int]] = None) -> None:
        """Pivot on ``(row, col)``; also update ``objective`` when given."""
        rows = self.rows
        pivot_row = rows[row]
        p = pivot_row[col]
        if p == 0:
            raise ZeroDivisionError("pivot on a zero entry")
        d = self.d
        for i, line in enumerate(rows):
            if i == row:
                continue
            f = line[col]
            if f:
                rows[i] = [(a * p - f * b) // d for a, b in zip(line, pivot_row)]
            elif p != d:
                rows[i] = [a * p // d for a in line]
        if objective is not None:
            f = objective[col]
            objective[:] = [
                (a * p - f * b) // d for a, b in zip(objective, pivot_row)
            ]
        self.basis[row] = col
        self.d = p

    def optimize(self, costs: list[int], allowed: list[bool]) -> str:
        """Maximize ``costs`` over the current basic feasible solution (Bland)."""
        rows, basis = self.rows, self.basis
        # d times the reduced costs, over the columns (the zip stops there).
        objective = [c * self.d for c in costs]
        for i, b in enumerate(basis):
            cb = costs[b]
            if cb:
                objective = [z - cb * a for z, a in zip(objective, rows[i])]
        while True:
            positive = self.d > 0
            entering = -1
            for j, z in enumerate(objective):
                # Basic columns carry exactly zero; the first improving
                # column is the smallest index: Bland's rule.
                if z and (z > 0) == positive and allowed[j]:
                    entering = j
                    break
            if entering < 0:
                return "optimal"
            leaving = -1
            best_rhs = best_coef = 0
            for i, line in enumerate(rows):
                coef = line[entering]
                if coef and (coef > 0) == positive:
                    rhs = line[-1]
                    # rhs / coef against best_rhs / best_coef; both
                    # coefficients carry the sign of d, so their product is
                    # positive.
                    if leaving < 0:
                        better = True
                    else:
                        lhs, rhs_side = rhs * best_coef, best_rhs * coef
                        better = lhs < rhs_side or (
                            lhs == rhs_side and basis[i] < basis[leaving]
                        )
                    if better:
                        best_rhs, best_coef = rhs, coef
                        leaving = i
            if leaving < 0:
                return "unbounded"
            self.pivot(leaving, entering, objective)


def solve_lp(
    objective: Sequence[tuple[Union[int, Fraction], str]],
    rows: Sequence[Row],
    maximize: bool = True,
) -> LPResult:
    """Solve ``max/min objective`` subject to ``rows`` with all variables >= 0.

    Each row is ``(terms, sense, rhs)`` with sense one of ``<=``, ``=``,
    ``>=``.  Variables are identified by name and ordered by first
    appearance, which makes the returned vertex deterministic.
    """
    names: list[str] = []
    index: dict[str, int] = {}

    def col_of(name: str) -> int:
        if name not in index:
            index[name] = len(names)
            names.append(name)
        return index[name]

    obj: dict[int, Value] = {}
    for coef, name in objective:
        j = col_of(name)
        obj[j] = obj.get(j, 0) + as_exact(coef)
    parsed: list[tuple[dict[int, Value], str, Value]] = []
    for terms, sense, rhs in rows:
        if sense not in ("<=", "=", ">="):
            raise ValueError(f"bad row sense {sense!r}")
        acc: dict[int, Value] = {}
        for coef, name in terms:
            j = col_of(name)
            acc[j] = acc.get(j, 0) + as_exact(coef)
        parsed.append((acc, sense, as_exact(rhs)))

    n = len(names)
    sign = 1 if maximize else -1

    # Normalize to nonnegative right-hand sides, then append slack/surplus and
    # artificial columns.  Column layout: structural | slack+surplus | artificial.
    slack_cols = 0
    normalized: list[tuple[dict[int, Value], str, Value]] = []
    for acc, sense, rhs in parsed:
        if rhs < 0:
            acc = {j: -c for j, c in acc.items()}
            rhs = -rhs
            sense = {"<=": ">=", ">=": "<=", "=": "="}[sense]
        normalized.append((acc, sense, rhs))
        if sense in ("<=", ">="):
            slack_cols += 1

    total = n + slack_cols + sum(1 for _, s, _ in normalized if s != "<=")
    lines: list[list[int]] = []
    basis: list[int] = []
    # Each artificial column with its row's scale.  Its phase-1 cost, -1 on
    # the rational tableau, is -1/scale on this one, since the row is
    # multiplied by scale and the artificial coefficient is kept at 1.
    art_costs: list[tuple[int, int]] = []
    slack_at = n
    art_at = n + slack_cols
    for acc, sense, rhs in normalized:
        ints, scale = _scaled([*acc.values(), rhs])
        line = [0] * (total + 1)
        for j, c in zip(acc, ints):
            line[j] = c
        line[-1] = ints[-1]
        if sense == "<=":
            line[slack_at] = 1
            basis.append(slack_at)
            slack_at += 1
        elif sense == ">=":
            line[slack_at] = -1
            slack_at += 1
            line[art_at] = 1
            basis.append(art_at)
            art_costs.append((art_at, scale))
            art_at += 1
        else:
            line[art_at] = 1
            basis.append(art_at)
            art_costs.append((art_at, scale))
            art_at += 1
        lines.append(line)
    tableau = _Tableau(lines, basis)

    first_art = n + slack_cols
    allowed = [True] * total

    if first_art < total:
        common = math.lcm(*(scale for _, scale in art_costs))
        phase1 = [0] * total
        for j, scale in art_costs:
            phase1[j] = -(common // scale)
        status = tableau.optimize(phase1, allowed)
        if status != "optimal":
            raise RuntimeError(
                f"phase 1 ended {status}: its objective, minus the sum of "
                "the artificials, is bounded above by zero"
            )
        # Basic values are nonnegative, so any nonzero artificial is positive.
        if any(
            line[-1]
            for line, b in zip(tableau.rows, tableau.basis)
            if b >= first_art
        ):
            return LPResult("infeasible", None, {})
        # Pivot leftover artificials out; rows that cannot pivot are redundant.
        for i in range(len(tableau.rows) - 1, -1, -1):
            if tableau.basis[i] < first_art:
                continue
            line = tableau.rows[i]
            pivot_col = next((j for j in range(first_art) if line[j] != 0), None)
            if pivot_col is None:
                del tableau.rows[i]
                del tableau.basis[i]
            else:
                tableau.pivot(i, pivot_col)
        for j in range(first_art, total):
            allowed[j] = False

    costs, _ = _scaled([sign * obj.get(j, 0) for j in range(n)])
    status = tableau.optimize(costs + [0] * (total - n), allowed)
    if status == "unbounded":
        return LPResult("unbounded", None, {})

    values: dict[str, Fraction] = {name: Fraction(0) for name in names}
    for line, b in zip(tableau.rows, tableau.basis):
        if b < n:
            values[names[b]] = Fraction(line[-1], tableau.d)
    objective_value = sum(
        (c * values[names[j]] for j, c in obj.items()), Fraction(0)
    )
    return LPResult("optimal", objective_value, values)
