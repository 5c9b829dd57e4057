"""Solver-agnostic MILP representation.

A model is a set of variables (with bounds and an optional binary mark), a
list of tagged linear constraints, and a linear objective that is always
maximized.  Tags are unique and follow the row-family naming used by the
builders (``pa[k,i]``, ``da1[k,a]``, ``lin-cs-pp[k,p]``, ...), which makes
the assembled models auditable constraint by constraint.

The model is stored as columns and flat rows.  :meth:`ModelIR.add_variables`
declares a block of variables that share their bounds: it checks the bounds
once, gives the names the next column ids (``column[name]``) in one
dictionary update, and extends the parallel lists ``names``, ``lower``,
``upper`` and ``binary``.  :meth:`ModelIR.add_variable` is the same call
for one name, so there is one validation path.  Rows are
compressed: row ``i`` has the column ids ``cols[starts[i]:starts[i + 1]]``
with the coefficients at the same positions of ``coefs``, and ``tags``,
``senses`` and ``rhs`` hold one entry per row.  :meth:`ModelIR.add_rows`
adds a block of rows given by column id and checks the block as a whole;
:meth:`ModelIR.add_constraint` looks one row's names up, merges repeated
variables, and passes the row on to it, so rows too have one validation
path.  The HiGHS backend, the solution check and the LP writer read these
lists; ``variables``, ``constraints`` and ``objective`` build record views
on request (the rows one at a time, as they are read).

Coefficients, right-hand sides and bounds are exact: each is a Python
``int`` or a ``fractions.Fraction``, kept as given (an ``int`` stays an
``int``; the two compare and hash alike).  Any other input goes through
:func:`~tollgate.network.as_fraction`, which parses literal strings and
rejects floats and bools.  Floats are made only by the backend, the
solution check (:meth:`ModelIR.violations`) and the LP writer.  The backend
and the check read one float view of the coefficients and right-hand sides
(:meth:`ModelIR.float_rows`), converted as numerator / denominator
(:func:`_floats`) on first read and extended by the rows appended since on
each later read, so a cut loop's re-solves convert only their new rows.
The view relies on the row lists being append-only: rows are only ever
added, by :meth:`ModelIR.add_rows`, and no entry of ``coefs`` or ``rhs``
is changed in place.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, repeat
from operator import add, attrgetter, mul, truediv
from typing import Iterable, Mapping, NamedTuple, Optional, Union

from .network import as_exact

Coef = Union[int, Fraction]
Term = tuple[Coef, str]

SENSES = ("<=", "=", ">=")
_SENSE_SET = frozenset(SENSES)
_EXACT = frozenset((int, Fraction))
_NUMERATOR = attrgetter("numerator")
_DENOMINATOR = attrgetter("denominator")


class Variable(NamedTuple):
    """A view of one column.  ``None`` bounds mean unbounded on that side."""

    name: str
    lower: Optional[Coef] = 0
    upper: Optional[Coef] = None
    binary: bool = False


class Constraint(NamedTuple):
    """A view of one row: ``sum(coef * var) sense rhs``."""

    tag: str
    terms: tuple[Term, ...]
    sense: str
    rhs: Coef


def _floats(values: Sequence[Coef]) -> list[float]:
    """``float()`` of every value.

    Each is converted as numerator / denominator, the correctly rounded
    quotient of two ints that ``float()`` of an int or a Fraction also is,
    but without a call to ``Fraction``'s Python-level ``__float__``.
    """
    return list(map(truediv, map(_NUMERATOR, values), map(_DENOMINATOR, values)))


def _first(values: Sequence, test) -> int:
    """The position of the first of ``values`` that passes ``test``."""
    return next(at for at, value in enumerate(values) if test(value))


def _row_tag(tags: Sequence[str], lengths: Sequence[int], term: int) -> str:
    """The tag of the row that holds term number ``term`` of a block."""
    return tags[bisect_right(list(accumulate(lengths)), term)]


def _merge_terms(cols: list[int], coefs: list) -> tuple[list[int], list[Coef]]:
    """Make coefficients exact, sum duplicate columns, drop zeros.

    Columns keep the order of their first appearance.
    """
    merged: dict[int, Coef] = {}
    for j, coef in zip(cols, coefs):
        coef = as_exact(coef)
        merged[j] = merged[j] + coef if j in merged else coef
    kept = [j for j, coef in merged.items() if coef]
    return kept, [merged[j] for j in kept]


class _Rows(Sequence):
    """A model's rows as :class:`Constraint` records, each built when read."""

    __slots__ = ("_model",)

    def __init__(self, model: ModelIR) -> None:
        self._model = model

    def __len__(self) -> int:
        return len(self._model.tags)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        m = self._model
        i = range(len(m.tags))[index]
        a, b = m.starts[i], m.starts[i + 1]
        terms = tuple(zip(m.coefs[a:b], map(m.names.__getitem__, m.cols[a:b])))
        return Constraint(m.tags[i], terms, m.senses[i], m.rhs[i])


class ModelIR:
    """A mutable MILP under construction.  Objective sense is maximize."""

    def __init__(self, label: str = "model"):
        self.label = label
        self.column: dict[str, int] = {}
        self.names: list[str] = []
        self.lower: list[Optional[Coef]] = []
        self.upper: list[Optional[Coef]] = []
        self.binary: list[bool] = []
        self.tags: list[str] = []
        self.senses: list[str] = []
        self.rhs: list[Coef] = []
        self.starts: list[int] = [0]
        self.cols: list[int] = []
        self.coefs: list[Coef] = []
        self._float_coefs: list[float] = []
        self._float_rhs: list[float] = []
        self._tag_set: set[str] = set()
        self._objective: dict[str, Coef] = {}

    # -- variables ---------------------------------------------------------

    def add_variable(
        self,
        name: str,
        lower: Optional[Coef] = 0,
        upper: Optional[Coef] = None,
        binary: bool = False,
    ) -> None:
        """Declare a variable.  Re-declaring a name is an error."""
        self.add_variables((name,), lower, upper, binary)

    def add_variables(
        self,
        names: Sequence[str],
        lower: Optional[Coef] = 0,
        upper: Optional[Coef] = None,
        binary: Union[bool, Sequence[bool]] = False,
    ) -> None:
        """Declare a block of variables that share their bounds.

        ``binary`` is one flag for the whole block or one per name.  The
        bounds are checked once for the block, and the names take the next
        column ids in order, as one :meth:`add_variable` call per name would
        give them.  A name already declared, or given twice in one call, is
        an error that names the variable.  A call that raises leaves the
        model unchanged.
        """
        count = len(names)
        flags = list(map(bool, binary)) if isinstance(binary, Sequence) else [bool(binary)] * count
        if len(flags) != count:
            raise ValueError(f"{count} variables but {len(flags)} binary flags")
        if not count:
            return
        lower = None if lower is None else as_exact(lower)
        upper = None if upper is None else as_exact(upper)
        if (lower != 0 or upper != 1) and any(flags):
            raise ValueError(
                f"binary variable {names[flags.index(True)]} must have bounds [0, 1]"
            )
        if lower is not None and upper is not None and lower > upper:
            raise ValueError(f"variable {names[0]} has crossing bounds")
        column = self.column
        start = len(self.names)
        column.update(zip(names, range(start, start + count)))
        if len(column) != start + count:
            # A name was declared before or repeats in this call.  The update
            # overwrote ids: rebuild the map from the names, then name it.
            column.clear()
            column.update(zip(self.names, range(start)))
            seen: set[str] = set()
            for name in names:
                if name in column:
                    raise ValueError(f"variable {name} re-declared")
                if name in seen:
                    raise ValueError(f"variable {name} given twice in one declaration")
                seen.add(name)
        self.names += names
        self.lower += [lower] * count
        self.upper += [upper] * count
        self.binary += flags

    @property
    def variables(self) -> tuple[Variable, ...]:
        return tuple(map(Variable, self.names, self.lower, self.upper, self.binary))

    def binary_names(self) -> tuple[str, ...]:
        return tuple(compress(self.names, self.binary))

    # -- constraints and objective ------------------------------------------

    def add_constraint(
        self,
        tag: str,
        terms: Iterable[tuple[Coef, str]],
        sense: str,
        rhs: Coef,
    ) -> None:
        """Add one row.  Duplicate variables are summed and zero terms dropped."""
        terms = list(terms)
        try:
            cols = [self.column[name] for _, name in terms]
        except KeyError as missing:
            raise ValueError(
                f"constraint {tag} references undeclared variable {missing.args[0]}"
            ) from None
        cols, coefs = _merge_terms(cols, [coef for coef, _ in terms])
        self.add_rows((tag,), (sense,), (as_exact(rhs),), (len(cols),), cols, coefs)

    def add_rows(
        self,
        tags: Sequence[str],
        senses: Sequence[str],
        rhs: Sequence[Coef],
        lengths: Sequence[int],
        cols: Sequence[int],
        coefs: Sequence[Coef],
    ) -> None:
        """Add a block of rows given by column id.

        Row ``i`` takes the next ``lengths[i]`` entries of ``cols`` and
        ``coefs``.  The block is checked as a whole: tags are new and unique,
        senses valid, every row has a term, column ids are declared, no
        column repeats within a row, coefficients are nonzero ints or
        Fractions and right-hand sides ints or Fractions.  A call that
        raises leaves the model unchanged.
        """
        count = len(tags)
        if not len(senses) == len(rhs) == len(lengths) == count:
            raise ValueError(
                f"{count} tags but {len(senses)} senses, {len(rhs)} right-hand "
                f"sides and {len(lengths)} row lengths"
            )
        if not count:
            return
        total = len(cols)
        if sum(lengths) != total or len(coefs) != total:
            raise ValueError(
                f"row lengths sum to {sum(lengths)} for {total} columns "
                f"and {len(coefs)} coefficients"
            )
        if min(lengths) < 1:
            raise ValueError(f"constraint {tags[_first(lengths, lambda n: n < 1)]}: no terms")
        if not _SENSE_SET.issuperset(senses):
            at = _first(senses, lambda s: s not in _SENSE_SET)
            raise ValueError(f"constraint {tags[at]}: bad sense {senses[at]!r}")
        if not _EXACT.issuperset(map(type, rhs)):
            at = _first(rhs, lambda v: type(v) not in _EXACT)
            raise ValueError(f"constraint {tags[at]}: right-hand side {rhs[at]!r} is not exact")
        width = len(self.names)
        if set(map(type, cols)) != {int} or min(cols) < 0 or max(cols) >= width:
            at = _first(cols, lambda j: type(j) is not int or not 0 <= j < width)
            raise ValueError(
                f"constraint {_row_tag(tags, lengths, at)}: column {cols[at]!r} is not declared"
            )
        if not _EXACT.issuperset(map(type, coefs)) or not all(coefs):
            at = _first(coefs, lambda c: type(c) not in _EXACT or not c)
            raise ValueError(
                f"constraint {_row_tag(tags, lengths, at)}: coefficient {coefs[at]!r} "
                "is not a nonzero int or Fraction"
            )
        # Column j of row i as the int i * width + j, distinct for distinct pairs.
        rows = chain.from_iterable(map(repeat, range(0, count * width, width), lengths))
        if len(set(map(add, rows, cols))) != total:
            starts = list(accumulate(lengths, initial=0))
            for tag, a, b in zip(tags, starts, starts[1:]):
                if len(set(cols[a:b])) < b - a:
                    raise ValueError(f"constraint {tag} repeats a column")
        # Tags last, as their set is updated in place: a tag given twice or
        # already held leaves it short, and it is then rebuilt.
        tag_set = self._tag_set
        held = len(tag_set)
        tag_set.update(tags)
        if len(tag_set) != held + count:
            self._tag_set = set(self.tags)
            seen = set(self.tags)
            for tag in tags:
                if tag in seen:
                    raise ValueError(f"duplicate constraint tag {tag}")
                seen.add(tag)
        self.cols += cols
        self.coefs += coefs
        self.starts += islice(accumulate(lengths, initial=self.starts[-1]), 1, None)
        self.tags += tags
        self.senses += senses
        self.rhs += rhs

    @property
    def constraints(self) -> _Rows:
        return _Rows(self)

    def float_rows(self) -> tuple[list[float], list[float]]:
        """Floats of ``coefs`` and of ``rhs``, by :func:`_floats`.

        Each value is converted once: the lists are kept, and a later call
        converts only the rows appended since.  They are shared, not copied,
        so callers must not change them.
        """
        coefs, rhs = self._float_coefs, self._float_rhs
        if len(coefs) < len(self.coefs):
            coefs += _floats(self.coefs[len(coefs):])
        if len(rhs) < len(self.rhs):
            rhs += _floats(self.rhs[len(rhs):])
        return coefs, rhs

    def add_objective_term(self, coef: Coef, name: str) -> None:
        if name not in self.column:
            raise ValueError(f"objective references undeclared variable {name}")
        coef = as_exact(coef)
        held = self._objective.get(name)
        self._objective[name] = coef if held is None else held + coef

    @property
    def objective(self) -> tuple[Term, ...]:
        return tuple((c, n) for n, c in self._objective.items() if c != 0)

    # -- evaluation ----------------------------------------------------------

    def objective_value(self, assignment: Mapping[str, float]) -> float:
        return sum(float(c) * assignment.get(n, 0.0) for c, n in self.objective)

    def violations(
        self, assignment: Mapping[str, float], tolerance: float = 1e-6
    ) -> list[str]:
        """Every bound, integrality, and row violation beyond ``tolerance``.

        Every row's activity is recomputed term by term from the model's
        own rows (:meth:`float_rows`) and ``assignment``, not from anything
        the backend computed, so the check stays independent of it.
        """
        issues: list[str] = []
        values = [assignment.get(name, 0.0) for name in self.names]
        for name, value, lower, upper, binary in zip(
            self.names, values, self.lower, self.upper, self.binary
        ):
            if lower is not None and value < float(lower) - tolerance:
                issues.append(f"{name} = {value} below lower bound {lower}")
            if upper is not None and value > float(upper) + tolerance:
                issues.append(f"{name} = {value} above upper bound {upper}")
            if binary and min(abs(value), abs(value - 1.0)) > tolerance:
                issues.append(f"{name} = {value} is not near 0 or 1")
        starts = self.starts
        coefs, rhs_floats = self.float_rows()
        terms = list(map(mul, coefs, map(values.__getitem__, self.cols)))
        sums = map(sum, map(terms.__getitem__, map(slice, starts, starts[1:])))
        for tag, sense, rhs, lhs in zip(self.tags, self.senses, rhs_floats, sums):
            if sense == "<=" and lhs > rhs + tolerance:
                issues.append(f"{tag}: {lhs} > {rhs}")
            elif sense == ">=" and lhs < rhs - tolerance:
                issues.append(f"{tag}: {lhs} < {rhs}")
            elif sense == "=" and abs(lhs - rhs) > tolerance:
                issues.append(f"{tag}: {lhs} != {rhs}")
        return issues

    # -- auditing -------------------------------------------------------------

    def tag_counts(self) -> dict[str, int]:
        """Row counts grouped by the tag family (text before ``[``)."""
        counts: dict[str, int] = {}
        for tag in self.tags:
            family = tag.split("[", 1)[0]
            counts[family] = counts.get(family, 0) + 1
        return counts

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"ModelIR({self.label!r}: {len(self.names)} vars, "
            f"{len(self.tags)} rows, {sum(self.binary)} binary)"
        )
