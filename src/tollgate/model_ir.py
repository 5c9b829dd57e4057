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
for one name, so there is one validation path.  Rows are compressed: row
``i`` has the column ids ``cols[starts[i]:starts[i + 1]]`` with the
coefficients at the same positions of ``coefs``, and ``tags``, ``senses``
and ``rhs`` hold one entry per row.  The HiGHS backend, the solution check
and the LP writer read these lists; ``variables``, ``constraints`` and
``objective`` build record views on request (the rows one at a time, as
they are read).

Every row goes in through :meth:`ModelIR.add_block`, which adds the rows
that a :class:`RowBlock` gathered in order: rows given by column id, and
copies (stamps) of a :class:`RowPattern`.  :meth:`ModelIR.add_constraint`
looks one row's names up, merges repeated variables, and adds the row as
a block of one.  Most rows of a large model are copies of a few families:
the same rows for every commodity block on one graph, over that block's
own columns and with its own constants.  Such a family is a pattern of
rows, each a tag template, slots and coefficient positions.  A stamp
passes a column table, which maps slots to columns, and a coefficient
table, which maps positions to coefficients.  The model checks a
pattern once, when it is made: every row has a term, no slot repeats
within a row, every slot and position is a nonnegative int, and the
templates are distinct.  Rows given by column id get every check term by
term.  A stamp checks only what changes from copy to copy: the columns
at the slots the pattern uses, declared and distinct, so that no row can
repeat a column; the coefficients at the positions it uses, nonzero and
exact; and the right-hand sides, exact.  Its rows then go into the
model's lists straight from the pattern.  A stamp that misses one of
these checks (a zero in its coefficient table, say, whose terms drop out)
is expanded into its rows, which get every check term by term.  Every tag
is checked in one update of the tag set.  So no row reaches a model
unchecked, and a call that raises leaves the model unchanged.

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
added, by :meth:`ModelIR.add_block`, and no entry of ``coefs`` or ``rhs``
is changed in place.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Sequence
from fractions import Fraction
from itertools import accumulate, chain, compress, islice, pairwise, repeat
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


def _nonzero_exact(values: Sequence) -> bool:
    """Whether every one of ``values`` is a nonzero int or Fraction."""
    return _EXACT.issuperset(map(type, values)) and all(values)


def _in_range(ids: Sequence, width: float) -> bool:
    """Whether ``ids`` is not empty and each of them is an int in ``range(width)``."""
    return set(map(type, ids)) == {int} and min(ids) >= 0 and max(ids) < width


def _check_terms(
    what: str, tags: Sequence[str], lengths: Sequence[int], cols: Sequence[int], width: float
) -> None:
    """Check rows' columns; an error names the first row at fault as ``what`` and its tag.

    Every row has a term, and every column is an int in ``range(width)``
    and none repeats within its row.
    """
    if min(lengths) < 1:
        raise ValueError(f"{what} {tags[_first(lengths, lambda n: n < 1)]}: no terms")
    if not _in_range(cols, width):
        at = _first(cols, lambda j: type(j) is not int or not 0 <= j < width)
        raise ValueError(
            f"{what} {_row_tag(tags, lengths, at)}: column {cols[at]!r} is not declared"
        )
    # Column j of row i as the int i * step + j, distinct for distinct pairs.
    step = max(cols) + 1
    rows = chain.from_iterable(map(repeat, range(0, len(lengths) * step, step), lengths))
    if len(set(map(add, rows, cols))) != len(cols):
        starts = list(accumulate(lengths, initial=0))
        for tag, a, b in zip(tags, starts, starts[1:]):
            if len(set(cols[a:b])) < b - a:
                raise ValueError(f"{what} {tag} repeats a column")


def _without_zeros(
    lengths: Sequence[int], cols: list[int], coefs: list[Coef]
) -> tuple[list[int], list[int], list[Coef]]:
    """Rows in the form of a :class:`RowBlock` run, less their zero terms."""
    keep = list(map(bool, coefs))
    kept = [sum(keep[a:b]) for a, b in pairwise(accumulate(lengths, initial=0))]
    return kept, list(compress(cols, keep)), list(compress(coefs, keep))


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


class RowPattern:
    """One family of rows for any block of columns, checked once, when made.

    ``rows`` holds one ``(template, slots, positions)`` per row.  A template
    is a pair of strings, which ``key.join`` makes into one copy's tag.
    Slots stand for columns and positions for coefficients: each copy maps
    them through its own column table and coefficient table
    (:meth:`RowBlock.stamp`), and a row's ``j``-th term is the coefficient
    at ``positions[j]`` times the column at ``slots[j]``.

    Making one checks it: the templates are distinct, every row has a term
    and as many positions as slots, slots and positions are nonnegative
    ints, and no slot repeats within a row.  An error names the row by its
    template with ``k`` for the key, and a slot as its column.  The rows
    are kept flat: ``tags``, ``lengths`` (terms per row), and ``slots`` and
    ``positions`` (per term).  ``used_slots`` and ``used_positions`` hold
    the distinct ones in increasing order: they are what a copy still
    checks.  A pattern is read, never changed, once made.
    """

    __slots__ = ("tags", "lengths", "slots", "positions", "used_slots", "used_positions")

    def __init__(
        self, rows: Sequence[tuple[tuple[str, str], Sequence[int], Sequence[int]]]
    ) -> None:
        tags = [row[0] for row in rows]
        lengths = [len(row[1]) for row in rows]
        slots = list(chain.from_iterable(row[1] for row in rows))
        positions = list(chain.from_iterable(row[2] for row in rows))
        if rows:
            names = ["k".join(tag) for tag in tags]
            if [len(row[2]) for row in rows] != lengths:
                at = _first(rows, lambda row: len(row[1]) != len(row[2]))
                raise ValueError(
                    f"row pattern {names[at]}: {lengths[at]} slots but "
                    f"{len(rows[at][2])} coefficient positions"
                )
            if len(set(tags)) != len(tags):
                at = next(at for at in range(len(tags)) if tags[at] in tags[:at])
                raise ValueError(f"row pattern {names[at]} given twice")
            _check_terms("row pattern", names, lengths, slots, math.inf)
            if not _in_range(positions, math.inf):
                at = _first(positions, lambda j: type(j) is not int or j < 0)
                raise ValueError(
                    f"row pattern {_row_tag(names, lengths, at)}: coefficient position "
                    f"{positions[at]!r} is not a nonnegative int"
                )
        self.tags, self.lengths, self.slots, self.positions = tags, lengths, slots, positions
        self.used_slots = sorted(set(slots))
        self.used_positions = sorted(set(positions))


class _Stamp(NamedTuple):
    """One copy of a pattern in a :class:`RowBlock`, as :meth:`RowBlock.stamp` takes it."""

    pattern: RowPattern
    key: str
    table: Sequence[int]
    sense: str
    rhs: Sequence[Coef]
    values: Sequence[Coef]


class RowBlock:
    """Rows gathered for one :meth:`ModelIR.add_block` call, in order.

    :meth:`add` takes one row by column id and :meth:`stamp` one copy of a
    :class:`RowPattern`.  Nothing is checked, or copied from a pattern,
    until the model adds the block.
    """

    __slots__ = ("parts", "tags", "senses", "rhs", "lengths", "cols", "coefs")

    def __init__(self) -> None:
        # Runs of rows added one at a time, as parallel lists, and stamps.
        self.parts: list[Union[tuple, _Stamp]] = []
        self._open()

    def _open(self) -> None:
        self.tags: list[str] = []
        self.senses: list[str] = []
        self.rhs: list[Coef] = []
        self.lengths: list[int] = []
        self.cols: list[int] = []
        self.coefs: list[Coef] = []

    def add(self, tag: str, cols: list[int], coefs: list, sense: str, rhs: Coef) -> None:
        """Add one row: ``coefs`` times the columns ``cols``, ``sense`` ``rhs``."""
        self.tags.append(tag)
        self.senses.append(sense)
        self.rhs.append(rhs)
        self.lengths.append(len(cols))
        self.cols += cols
        self.coefs += coefs

    def stamp(
        self,
        pattern: RowPattern,
        key: str,
        table: Sequence[int],
        sense: str,
        rhs: Sequence[Coef],
        values: Sequence[Coef],
    ) -> None:
        """Add a copy of ``pattern``'s rows, all of ``sense``.

        The copy's tags are ``key.join`` of the templates, its columns
        ``table[slot]`` and its coefficients ``values[position]``.  ``rhs``
        holds one right-hand side per row.  A zero in ``values`` drops its
        terms, as it would drop out of a sum.
        """
        self.close()
        self.parts.append(_Stamp(pattern, key, table, sense, rhs, values))

    def close(self) -> None:
        """End the current run of rows added one at a time."""
        if self.tags:
            self.parts.append((self.tags, self.senses, self.rhs, self.lengths, self.cols, self.coefs))
            self._open()


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
    ) -> list[int]:
        """Declare a block of variables that share their bounds; return their column ids.

        ``binary`` is one flag for the whole block or one per name.  The
        bounds are checked once for the block, and the names take the next
        column ids in order, as one :meth:`add_variable` call per name would
        give them.  The ids returned are the int objects ``column`` holds.
        A name already declared, or given twice in one call, is an error
        that names the variable.  A call that raises leaves the model
        unchanged.
        """
        count = len(names)
        flags = list(map(bool, binary)) if isinstance(binary, Sequence) else [bool(binary)] * count
        if len(flags) != count:
            raise ValueError(f"{count} variables but {len(flags)} binary flags")
        if not count:
            return []
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
        ids = list(range(start, start + count))
        column.update(zip(names, ids))
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
        return ids

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
        rows = RowBlock()
        rows.add(tag, cols, coefs, sense, as_exact(rhs))
        self.add_block(rows)

    def add_block(self, block: RowBlock) -> None:
        """Add the rows ``block`` gathered, in the order it gathered them.

        The block is checked as a whole, and a call that raises leaves the
        model unchanged.  Rows given by column id (:meth:`RowBlock.add`)
        get every check term by term: senses valid, right-hand sides ints or
        Fractions, every row with a term, column ids declared and none
        repeated within a row, and coefficients nonzero ints or Fractions.
        A stamp's pattern was checked when it was made (:class:`RowPattern`),
        so a stamp checks only what changes from copy to copy: its sense and
        right-hand sides, the column table's entries at the slots the
        pattern uses (declared and distinct, so no row can repeat a column)
        and the coefficient table's entries at the positions it uses
        (nonzero ints or Fractions).  Its rows then go into the model's
        lists straight from the pattern.  A stamp that misses any of these,
        a coefficient table holding a zero say, is expanded into its rows
        less their zero terms, and those get every check term by term,
        which names the row at fault.
        Tags are checked last, for the whole block at once: each is new and
        given once.
        """
        block.close()
        self._add_parts([
            self._stamped(*part) if type(part) is _Stamp else self._checked(*part)
            for part in block.parts
        ])

    def _checked(
        self,
        tags: Sequence[str],
        senses: Sequence[str],
        rhs: Sequence[Coef],
        lengths: Sequence[int],
        cols: Sequence[int],
        coefs: Sequence[Coef],
    ) -> tuple:
        """The rows, once every term-by-term check of :meth:`add_block` has passed."""
        count = len(tags)
        if not len(senses) == len(rhs) == len(lengths) == count:
            raise ValueError(
                f"{count} tags but {len(senses)} senses, {len(rhs)} right-hand "
                f"sides and {len(lengths)} row lengths"
            )
        if not count:
            return tags, senses, rhs, lengths, cols, coefs
        total = len(cols)
        if sum(lengths) != total or len(coefs) != total:
            raise ValueError(
                f"row lengths sum to {sum(lengths)} for {total} columns "
                f"and {len(coefs)} coefficients"
            )
        if not _SENSE_SET.issuperset(senses):
            at = _first(senses, lambda s: s not in _SENSE_SET)
            raise ValueError(f"constraint {tags[at]}: bad sense {senses[at]!r}")
        if not _EXACT.issuperset(map(type, rhs)):
            at = _first(rhs, lambda v: type(v) not in _EXACT)
            raise ValueError(f"constraint {tags[at]}: right-hand side {rhs[at]!r} is not exact")
        _check_terms("constraint", tags, lengths, cols, len(self.names))
        if not _nonzero_exact(coefs):
            at = _first(coefs, lambda c: type(c) not in _EXACT or not c)
            raise ValueError(
                f"constraint {_row_tag(tags, lengths, at)}: coefficient {coefs[at]!r} "
                "is not a nonzero int or Fraction"
            )
        return tags, senses, rhs, lengths, cols, coefs

    def _stamped(
        self,
        pattern: RowPattern,
        key: str,
        table: Sequence[int],
        sense: str,
        rhs: Sequence[Coef],
        values: Sequence[Coef],
    ) -> tuple:
        """One copy of ``pattern``'s rows, checked (see :meth:`add_block`)."""
        tags = list(map(key.join, pattern.tags))
        count = len(tags)
        if not count:
            return self._checked(tags, (), rhs, (), (), ())
        lengths, slots, positions = pattern.lengths, pattern.slots, pattern.positions
        used, read = pattern.used_slots, pattern.used_positions
        if len(table) <= used[-1]:
            raise ValueError(
                f"constraint {_row_tag(tags, lengths, slots.index(used[-1]))}: "
                f"slot {used[-1]} is beyond the column table"
            )
        if len(values) <= read[-1]:
            raise ValueError(
                f"constraint {_row_tag(tags, lengths, positions.index(read[-1]))}: "
                f"position {read[-1]} is beyond the coefficient table"
            )
        cols = list(map(table.__getitem__, used))
        if (
            len(rhs) == count
            and sense in _SENSE_SET
            and _EXACT.issuperset(map(type, rhs))
            and _in_range(cols, len(self.names))
            and len(set(cols)) == len(cols)
            and _nonzero_exact(list(map(values.__getitem__, read)))
        ):
            return (
                tags, repeat(sense, count), rhs, lengths,
                map(table.__getitem__, slots), map(values.__getitem__, positions),
            )
        lengths, cols, coefs = _without_zeros(
            lengths, list(map(table.__getitem__, slots)), list(map(values.__getitem__, positions))
        )
        return self._checked(tags, [sense] * count, rhs, lengths, cols, coefs)

    def _add_parts(self, parts: list[tuple]) -> None:
        """Append checked row parts, once their tags are found new and unique.

        The tag set is updated in place: a tag given twice or already held
        leaves it short, and it is then rebuilt and the tag named.
        """
        tag_set = self._tag_set
        held = len(tag_set)
        tag_set.update(*[part[0] for part in parts])
        if len(tag_set) != held + sum(len(part[0]) for part in parts):
            self._tag_set = set(self.tags)
            seen = set(self.tags)
            for tag in chain.from_iterable(part[0] for part in parts):
                if tag in seen:
                    raise ValueError(f"duplicate constraint tag {tag}")
                seen.add(tag)
        for tags, senses, rhs, lengths, cols, coefs in parts:
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
