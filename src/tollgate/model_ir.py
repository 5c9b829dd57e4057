"""Solver-agnostic MILP representation.

A model is a list of variables (with bounds and an optional binary mark), a
list of tagged linear constraints, and a linear objective that is always
maximized.  Tags are unique and follow the row-family naming used by the
builders (``pa[k,i]``, ``da1[k,a]``, ``lin-cs-pp[k,p]``, ...), which makes
the assembled models auditable constraint by constraint.

Coefficients, right-hand sides and bounds are exact: each is a Python
``int`` or a ``fractions.Fraction``, kept as given (an ``int`` stays an
``int``; the two compare and hash alike).  Any other input goes through
:func:`~tollgate.network.as_fraction`, which parses literal strings and
rejects floats and bools.  Conversion to floats happens only in the
backends and in the LP writer.

Building and writing a model allocates hundreds of thousands of small
objects that live until the model is dropped and form no reference cycles,
so a collection pass over them finds nothing to free.  Model assembly and
the LP writer therefore run with the cyclic garbage collector paused
(:func:`_gc_paused`).  Reference counting still frees acyclic garbage
meanwhile; only cycles wait for the collector to be back on.
"""

from __future__ import annotations

import gc
import threading
from contextlib import contextmanager
from fractions import Fraction
from typing import Iterable, Mapping, Optional, Union

from .network import as_fraction

Coef = Union[int, Fraction]
Term = tuple[Coef, str]

SENSES = ("<=", "=", ">=")

_gc_lock = threading.Lock()
_gc_users = 0
_gc_was_enabled = False


@contextmanager
def _gc_paused():
    """Pause the cyclic garbage collector for the block's duration.

    The collector's switch is process-wide, so the first thread in records
    whether it was on and turns it off, and the last one out turns it back
    on only if it was on; each thread saving and restoring on its own could
    leave it off for good.  Nested blocks count as users too.  A caller that
    had the collector off keeps it off.
    """
    global _gc_users, _gc_was_enabled
    with _gc_lock:
        if _gc_users == 0:
            _gc_was_enabled = gc.isenabled()
            gc.disable()
        _gc_users += 1
    try:
        yield
    finally:
        with _gc_lock:
            _gc_users -= 1
            if _gc_users == 0 and _gc_was_enabled:
                gc.enable()


class Variable:
    """A decision variable.  ``None`` bounds mean unbounded on that side.

    A plain slotted record: models hold tens of thousands of them, and a
    frozen dataclass would pay ``object.__setattr__`` per field.  Treat it
    as read-only.  Two variables are equal when all four fields are.
    """

    __slots__ = ("name", "lower", "upper", "binary")

    def __init__(
        self,
        name: str,
        lower: Optional[Coef] = 0,
        upper: Optional[Coef] = None,
        binary: bool = False,
    ) -> None:
        if binary and (lower != 0 or upper != 1):
            raise ValueError(f"binary variable {name} must have bounds [0, 1]")
        if lower is not None and upper is not None and lower > upper:
            raise ValueError(f"variable {name} has crossing bounds")
        self.name = name
        self.lower = lower
        self.upper = upper
        self.binary = binary

    def _key(self) -> tuple:
        return (self.name, self.lower, self.upper, self.binary)

    def __eq__(self, other: object) -> bool:
        if type(other) is not Variable:
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        return (
            f"Variable(name={self.name!r}, lower={self.lower!r}, "
            f"upper={self.upper!r}, binary={self.binary!r})"
        )


class Constraint:
    """One linear row: ``sum(coef * var) sense rhs``.

    A plain slotted record, like :class:`Variable`; treat it as read-only.
    """

    __slots__ = ("tag", "terms", "sense", "rhs")

    def __init__(self, tag: str, terms: tuple[Term, ...], sense: str, rhs: Coef) -> None:
        if sense not in SENSES:
            raise ValueError(f"constraint {tag}: bad sense {sense!r}")
        if not terms:
            raise ValueError(f"constraint {tag}: no terms")
        self.tag = tag
        self.terms = terms
        self.sense = sense
        self.rhs = rhs

    def __repr__(self) -> str:
        return (
            f"Constraint(tag={self.tag!r}, terms={self.terms!r}, "
            f"sense={self.sense!r}, rhs={self.rhs!r})"
        )


def _exact(value) -> Coef:
    """``value`` itself if it is an int or a Fraction, else :func:`as_fraction` of it."""
    kind = type(value)
    return value if kind is int or kind is Fraction else as_fraction(value)


def _merge_terms(terms: Iterable[tuple[Coef, str]]) -> tuple[Term, ...]:
    """Make coefficients exact, sum duplicate variables, drop zeros.

    Variables keep the order of their first appearance.
    """
    merged: dict[str, Coef] = {}
    for coef, name in terms:
        coef = _exact(coef)
        merged[name] = merged[name] + coef if name in merged else coef
    return tuple((coef, name) for name, coef in merged.items() if coef)


class ModelIR:
    """A mutable MILP under construction.  Objective sense is maximize."""

    def __init__(self, label: str = "model"):
        self.label = label
        self._variables: dict[str, Variable] = {}
        self.constraints: list[Constraint] = []
        self._tags: set[str] = set()
        self._objective: dict[str, Coef] = {}

    # -- variables ---------------------------------------------------------

    def add_variable(
        self,
        name: str,
        lower: Optional[Coef] = 0,
        upper: Optional[Coef] = None,
        binary: bool = False,
    ) -> str:
        """Declare a variable.  Re-declaring with identical shape is a no-op."""
        var = Variable(
            name,
            None if lower is None else _exact(lower),
            None if upper is None else _exact(upper),
            binary,
        )
        existing = self._variables.get(name)
        if existing is not None:
            if existing != var:
                raise ValueError(f"variable {name} re-declared with a different shape")
            return name
        self._variables[name] = var
        return name

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(self._variables.values())

    def variable(self, name: str) -> Variable:
        return self._variables[name]

    def has_variable(self, name: str) -> bool:
        return name in self._variables

    def binary_names(self) -> tuple[str, ...]:
        return tuple(v.name for v in self._variables.values() if v.binary)

    # -- constraints and objective ------------------------------------------

    def add_constraint(
        self,
        tag: str,
        terms: Iterable[tuple[Coef, str]],
        sense: str,
        rhs: Coef,
    ) -> Constraint:
        """Add one row.  Duplicate variables are summed and zero terms dropped."""
        if tag in self._tags:
            raise ValueError(f"duplicate constraint tag {tag}")
        row = tuple(terms)
        variables = self._variables
        names: set[str] = set()
        # Rows of distinct variables with nonzero int or Fraction coefficients
        # are stored as given; only the others go through _merge_terms.
        plain = True
        for coef, name in row:
            if name not in variables:
                raise ValueError(f"constraint {tag} references undeclared variable {name}")
            kind = type(coef)
            if (kind is not int and kind is not Fraction) or not coef:
                plain = False
            names.add(name)
        if not plain or len(names) < len(row):
            row = _merge_terms(row)
        con = Constraint(tag, row, sense, _exact(rhs))
        self.constraints.append(con)
        self._tags.add(tag)
        return con

    def add_objective_term(self, coef: Coef, name: str) -> None:
        if name not in self._variables:
            raise ValueError(f"objective references undeclared variable {name}")
        self._objective[name] = self._objective.get(name, 0) + _exact(coef)

    @property
    def objective(self) -> tuple[Term, ...]:
        return tuple((c, n) for n, c in self._objective.items() if c != 0)

    # -- evaluation ----------------------------------------------------------

    def objective_value(self, assignment: Mapping[str, float]) -> float:
        return sum(float(c) * assignment.get(n, 0.0) for c, n in self.objective)

    def violations(
        self, assignment: Mapping[str, float], tolerance: float = 1e-6
    ) -> list[str]:
        """Every bound, integrality, and row violation beyond ``tolerance``."""
        issues: list[str] = []
        for var in self._variables.values():
            value = assignment.get(var.name, 0.0)
            if var.lower is not None and value < float(var.lower) - tolerance:
                issues.append(f"{var.name} = {value} below lower bound {var.lower}")
            if var.upper is not None and value > float(var.upper) + tolerance:
                issues.append(f"{var.name} = {value} above upper bound {var.upper}")
            if var.binary and min(abs(value), abs(value - 1.0)) > tolerance:
                issues.append(f"{var.name} = {value} is not near 0 or 1")
        for row in self.constraints:
            lhs = sum(float(c) * assignment.get(n, 0.0) for c, n in row.terms)
            rhs = float(row.rhs)
            if row.sense == "<=" and lhs > rhs + tolerance:
                issues.append(f"{row.tag}: {lhs} > {rhs}")
            elif row.sense == ">=" and lhs < rhs - tolerance:
                issues.append(f"{row.tag}: {lhs} < {rhs}")
            elif row.sense == "=" and abs(lhs - rhs) > tolerance:
                issues.append(f"{row.tag}: {lhs} != {rhs}")
        return issues

    # -- auditing -------------------------------------------------------------

    def tag_counts(self) -> dict[str, int]:
        """Row counts grouped by the tag family (text before ``[``)."""
        counts: dict[str, int] = {}
        for row in self.constraints:
            family = row.tag.split("[", 1)[0]
            counts[family] = counts.get(family, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelIR({self.label!r}: {len(self._variables)} vars, "
            f"{len(self.constraints)} rows, {len(self.binary_names())} binary)"
        )
