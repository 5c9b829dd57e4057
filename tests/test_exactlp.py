"""Exact simplex on problems small enough to solve on paper, and against
the ``Fraction`` tableau in ``bruteforce.py`` on random ones."""

import math
import random
from collections import Counter
from fractions import Fraction

import pytest

from tollgate import exactlp
from tollgate.exactlp import solve_lp

from bruteforce import rational_solve_lp


def test_maximize_two_variables():
    # max 3x + 2y s.t. x + y <= 4, x <= 3: optimum at (3, 1).
    res = solve_lp(
        [(3, "x"), (2, "y")],
        [
            ([(1, "x"), (1, "y")], "<=", 4),
            ([(1, "x")], "<=", 3),
        ],
    )
    assert res.status == "optimal"
    assert res.objective == Fraction(11)
    assert res.solution == {"x": Fraction(3), "y": Fraction(1)}


def test_minimize():
    # min x + y s.t. x + 2y >= 4, 3x + y >= 3: optimum at (2/5, 9/5).
    res = solve_lp(
        [(1, "x"), (1, "y")],
        [
            ([(1, "x"), (2, "y")], ">=", 4),
            ([(3, "x"), (1, "y")], ">=", 3),
        ],
        maximize=False,
    )
    assert res.status == "optimal"
    assert res.objective == Fraction(11, 5)
    assert res.solution == {"x": Fraction(2, 5), "y": Fraction(9, 5)}


def test_equality_rows():
    res = solve_lp(
        [(1, "x")],
        [
            ([(1, "x"), (1, "y")], "=", 5),
            ([(1, "y")], ">=", 2),
        ],
    )
    assert res.status == "optimal"
    assert res.objective == Fraction(3)


def test_fractional_answer_is_exact():
    # max x s.t. 3x <= 1 has the optimum exactly 1/3.
    res = solve_lp([(1, "x")], [([(3, "x")], "<=", 1)])
    assert res.objective == Fraction(1, 3)


def test_infeasible():
    res = solve_lp(
        [(1, "x")],
        [
            ([(1, "x")], "<=", 1),
            ([(1, "x")], ">=", 2),
        ],
    )
    assert res.status == "infeasible"
    assert res.objective is None


def test_unbounded():
    res = solve_lp([(1, "x")], [([(1, "y")], "<=", 1)])
    assert res.status == "unbounded"


def test_zero_solution_values_are_filled():
    res = solve_lp([(1, "x")], [([(1, "x"), (1, "y")], "<=", 2)])
    assert res.solution["y"] == 0


def test_degenerate_problem_terminates():
    # Redundant rows meeting at the same vertex must not cycle.
    res = solve_lp(
        [(1, "x"), (1, "y")],
        [
            ([(1, "x"), (1, "y")], "<=", 2),
            ([(2, "x"), (2, "y")], "<=", 4),
            ([(1, "x")], "<=", 2),
            ([(1, "y")], "<=", 2),
        ],
    )
    assert res.status == "optimal"
    assert res.objective == Fraction(2)


def test_agrees_with_float_solver_on_random_lps():
    import random

    from scipy.optimize import linprog

    rng = random.Random(7)
    for trial in range(30):
        n = rng.randint(2, 5)
        names = [f"v{i}" for i in range(n)]
        obj = [(rng.randint(-4, 6), names[i]) for i in range(n)]
        rows = []
        for _ in range(rng.randint(1, 5)):
            terms = [(rng.randint(0, 4), names[i]) for i in range(n)]
            terms = [t for t in terms if t[0]]
            if not terms:
                continue
            rows.append((terms, "<=", rng.randint(1, 12)))
        if not rows:
            continue
        mine = solve_lp(obj, rows)
        c = [-next((co for co, nm in obj if nm == name), 0) for name in names]
        a_ub = [
            [next((co for co, nm in terms if nm == name), 0) for name in names]
            for terms, _, _ in rows
        ]
        b_ub = [rhs for _, _, rhs in rows]
        ref = linprog(c, A_ub=a_ub, b_ub=b_ub, bounds=[(0, None)] * n)
        if mine.status == "optimal":
            assert ref.status == 0
            assert float(mine.objective) == pytest.approx(-ref.fun, abs=1e-7)
        elif mine.status == "unbounded":
            assert ref.status == 3


def test_beales_cycling_example_terminates():
    # Beale (1955): from the slack basis the largest-coefficient rule cycles
    # through six degenerate bases here; Bland's rule reaches the optimum
    # 5/4 at x4 = x6 = 1.
    objective = [(Fraction(3, 4), "x4"), (-20, "x5"), (Fraction(1, 2), "x6"),
                 (-6, "x7")]
    rows = [
        ([(Fraction(1, 4), "x4"), (-8, "x5"), (-1, "x6"), (9, "x7")], "<=", 0),
        ([(Fraction(1, 2), "x4"), (-12, "x5"), (Fraction(-1, 2), "x6"),
          (3, "x7")], "<=", 0),
        ([(1, "x6")], "<=", 1),
    ]
    res = solve_lp(objective, rows)
    assert res.status == "optimal"
    assert res.objective == Fraction(5, 4)
    assert res.solution == {"x4": 1, "x5": 0, "x6": 1, "x7": 0}
    assert res == rational_solve_lp(objective, rows)


def _coefficient(rng: random.Random):
    value = rng.randint(-4, 5)
    if rng.random() < 0.3:
        return Fraction(value, rng.randint(2, 6))
    return value


def _random_lp(rng: random.Random):
    names = [f"x{i}" for i in range(rng.randint(1, 5))]
    # Most LPs take their right-hand sides from a point that satisfies them,
    # often with zero coordinates (degenerate vertices); the rest are drawn
    # blind and are often infeasible.
    point = None
    if rng.random() < 0.7:
        point = {name: rng.choice((0, 0, 1, 2, Fraction(1, 2))) for name in names}
    rows = []
    for _ in range(rng.randint(1, 5)):
        terms = [(_coefficient(rng), name) for name in names if rng.random() < 0.7]
        if not terms:
            continue
        sense = rng.choice(("<=", "=", ">="))
        if point is None:
            rhs = _coefficient(rng) + rng.randint(-2, 6)
        else:
            rhs = sum(c * point[name] for c, name in terms)
            rhs += {"<=": 1, "=": 0, ">=": -1}[sense] * rng.choice((0, 1, 2))
        rows.append((terms, sense, rhs))
    equalities = [row for row in rows if row[1] == "="]
    if equalities and rng.random() < 0.5:
        # A multiple of an equality row: redundant, so phase 1 must end with
        # an artificial it cannot pivot out.
        terms, _, rhs = rng.choice(equalities)
        factor = Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3))
        rows.insert(
            rng.randint(0, len(rows)),
            ([(c * factor, name) for c, name in terms], "=", rhs * factor),
        )
    objective = [(_coefficient(rng), name) for name in names if rng.random() < 0.8]
    return objective, rows, rng.random() < 0.5


def test_matches_the_rational_tableau_on_random_lps(monkeypatch):
    # Same outcome, and the same pivots in the same order: scaling rows and
    # columns by positive integers must not change a single Bland choice.
    pivots: list = []
    pivot = exactlp._Tableau.pivot

    def recording_pivot(self, row, col, objective=None):
        pivots.append((row, col))
        pivot(self, row, col, objective)

    monkeypatch.setattr(exactlp._Tableau, "pivot", recording_pivot)
    rng = random.Random(2024)
    statuses: Counter = Counter()
    events: Counter = Counter()
    for _ in range(400):
        objective, rows, maximize = _random_lp(rng)
        expected_pivots: list = []
        expected = rational_solve_lp(
            objective, rows, maximize, events=events, pivots=expected_pivots
        )
        pivots.clear()
        got = solve_lp(objective, rows, maximize)
        case = (objective, rows, maximize)
        assert got.status == expected.status, case
        assert got.objective == expected.objective, case
        assert got.solution == expected.solution, case
        assert pivots == expected_pivots, case
        statuses[expected.status] += 1
    # The draw reaches every outcome and both clean-up paths of phase 1.
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) >= 40
    assert events["deleted_row"] >= 40
    assert events["negative_pivot"] >= 20


def _on_integers(objective, rows):
    """The same LP with each row, and the objective, multiplied into ints."""

    def multiplied(values):
        scale = math.lcm(*(Fraction(v).denominator for v in values))
        return [int(v * scale) for v in values]

    int_rows = []
    for terms, sense, rhs in rows:
        *coefs, rhs = multiplied([c for c, _ in terms] + [rhs])
        int_rows.append((list(zip(coefs, (name for _, name in terms))), sense, rhs))
    coefs = multiplied([c for c, _ in objective])
    return list(zip(coefs, (name for _, name in objective))), int_rows


def _as_fractions(objective, rows):
    """The same LP with every number written as a ``Fraction``."""
    return (
        [(Fraction(c), name) for c, name in objective],
        [([(Fraction(c), name) for c, name in terms], sense, Fraction(rhs))
         for terms, sense, rhs in rows],
    )


def test_integer_input_matches_the_same_lp_in_fractions():
    # An all-int LP skips the Fraction parsing and the per-row LCM; it must
    # reach the same status, vertex and objective as its Fraction twin.
    rng = random.Random(77)
    statuses: Counter = Counter()
    for _ in range(400):
        objective, rows, maximize = _random_lp(rng)
        objective, rows = _on_integers(objective, rows)
        assert all(
            type(v) is int
            for terms, _, rhs in rows
            for v in [rhs, *(c for c, _ in terms)]
        )
        got = solve_lp(objective, rows, maximize)
        expected = solve_lp(*_as_fractions(objective, rows), maximize)
        case = (objective, rows, maximize)
        assert got.status == expected.status, case
        assert got.objective == expected.objective, case
        assert got.solution == expected.solution, case
        statuses[got.status] += 1
    assert min(statuses[s] for s in ("optimal", "infeasible", "unbounded")) >= 40


@pytest.mark.parametrize("factor", [2, 3, 10**9 * 2**30 + 1])
def test_scaling_every_rhs_scales_the_vertex_and_the_optimum(factor):
    # The oracle prices tolls in units of 1 / Network.scale by multiplying
    # every right-hand side by the scale; the vertex and the optimum must
    # come out multiplied by exactly that factor, the status unchanged.
    rng = random.Random(31)
    moved = 0
    for _ in range(400):
        objective, rows, maximize = _random_lp(rng)
        objective, rows = _on_integers(objective, rows)
        scaled = [(terms, sense, rhs * factor) for terms, sense, rhs in rows]
        base = solve_lp(objective, rows, maximize)
        got = solve_lp(objective, scaled, maximize)
        case = (objective, rows, maximize)
        assert got.status == base.status, case
        if base.status != "optimal":
            continue
        assert got.objective == base.objective * factor, case
        assert got.solution == {
            name: value * factor for name, value in base.solution.items()
        }, case
        moved += any(base.solution.values())
    assert moved >= 40
