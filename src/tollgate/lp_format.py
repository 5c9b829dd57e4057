"""Serialize a model to CPLEX LP text.

The writer targets the common dialect accepted by HiGHS, CBC, SCIP, Gurobi
and CPLEX: ``Maximize`` / ``Subject To`` / ``Bounds`` / ``Binaries`` / ``End``
sections, one constraint per line.  Identifiers are the model's variable
names with the brackets and commas the format forbids rewritten;
:func:`lp_name_map` maps them back, so a command-line solver's output can be
read against the model it was given.

Rows are rendered :data:`CHUNK_ROWS` at a time.  Each chunk adds the
coefficient and right-hand-side objects it has not met yet to one table of
texts keyed by ``id``, so each distinct object is formatted once per model
however many terms share it (a block's big-M, an arc's cost).  Keying by
value would hash every ``Fraction`` instead; ids are safe because every
object in the table stays alive in the model's lists while it is written.
The terms are then put together by ``map`` and ``str.join``: only each
row's first term and its ``sense rhs`` tail take a step of Python per row.
The objective goes through the same renderer.  The whole model's terms
are never held as text at once: rendered in one piece, delaunay:60's STD
model at N=8 (16k rows) raised the writer's peak memory by 9.4 MB, against
4.5 MB in chunks.
"""

from __future__ import annotations

from itertools import chain
from typing import Iterable, Sequence

from .model_ir import Coef, ModelIR

#: Rows rendered at a time.
CHUNK_ROWS = 2048


def _fmt(value: Coef) -> str:
    if type(value) is not int:
        if value.denominator != 1:
            # The quotient of two ints is correctly rounded, as float() is.
            return f"{value.numerator / value.denominator:.12g}"
        value = value.numerator
    return str(value)


def _encode(name: str) -> str:
    """LP format forbids brackets in identifiers; swap them for markers."""
    return name.replace("[", "__").replace("]", "").replace(",", "_")


class _Texts:
    """LP texts of coefficient and right-hand-side objects, by ``id``.

    For each object: ``number``, the number alone; ``body``, the text before
    a term's identifier inside a sum (`` + 3 `` for 3, `` - `` for -1); and
    ``head``, the same at a sum's start, where the "+" goes and a number's
    sign is glued to it (``3 ``, ``-3 ``), except that a coefficient of -1
    keeps its spaced ``- ``.  Ids are unique only among live objects, so
    the table may only hold objects that outlive it: the writer adds the
    lists of the model it renders.
    """

    def __init__(self) -> None:
        self.number: dict[int, str] = {}
        self.body: dict[int, str] = {}
        self.head: dict[int, str] = {}

    def add(self, values: Sequence[Coef]) -> None:
        """Make the texts of every object in ``values`` not yet held."""
        distinct = dict(zip(map(id, values), values))
        number, body, head = self.number, self.body, self.head
        for key in distinct.keys() - number.keys():
            value = distinct[key]
            text = number[key] = _fmt(value)
            if text[0] == "-":
                if text == "-1" and value == -1:
                    body[key], head[key] = " - ", "- "
                else:
                    body[key], head[key] = f" - {text[1:]} ", text + " "
            elif text == "1" and value == 1:
                body[key], head[key] = " + ", ""
            else:
                body[key], head[key] = f" + {text} ", text + " "


def _sums(
    coefs: Sequence[Coef],
    idents: Iterable[str],
    heads: Iterable[int],
    seams: Sequence[str],
    texts: _Texts,
) -> str:
    """Sums of terms as LP text, one identifier per coefficient.

    Row ``i`` starts at position ``heads[i]`` of ``coefs`` and ``idents``
    and runs to the next row's start or the end; every row has a term.
    ``seams[i]`` is the text before row ``i``, ``seams[-1]`` the text after
    the last row.  ``texts`` holds every coefficient.
    """
    ids = list(map(id, coefs))
    head = texts.head
    # Each term is two pieces: the text before its identifier, then the identifier.
    pieces = list(chain.from_iterable(zip(map(texts.body.__getitem__, ids), idents)))
    for at, seam in zip(heads, seams):
        pieces[2 * at] = seam + head[ids[at]]
    pieces.append(seams[-1])
    return "".join(pieces)


def _rows_text(
    model: ModelIR, idents: Sequence[str], texts: _Texts, first: int, end: int
) -> str:
    """Rows ``first`` to ``end`` (exclusive) of the Subject To section."""
    starts = model.starts
    a, b = starts[first], starts[end]
    coefs = model.coefs[a:b]
    rhs = model.rhs[first:end]
    texts.add(coefs)
    texts.add(rhs)
    rhs_text = list(map(texts.number.__getitem__, map(id, rhs)))
    senses = model.senses
    # A seam ends one row and names the next.
    seams = [f" c{first}: "]
    seams += map(" {} {}\n c{}: ".format, senses[first:end], rhs_text, range(first + 1, end))
    seams.append(f" {senses[end - 1]} {rhs_text[-1]}\n")
    return _sums(
        coefs,
        map(idents.__getitem__, model.cols[a:b]),
        map((-a).__add__, starts[first:end]),
        seams,
        texts,
    )


def lp_name_map(model: ModelIR) -> dict[str, str]:
    """Map LP-file identifiers back to the model's variable names."""
    decode: dict[str, str] = {}
    for name in model.names:
        if len(name) > 255:
            raise ValueError(f"variable name too long for the LP format: {name[:40]}...")
        ident = _encode(name)
        if ident in decode:
            raise ValueError(f"variable names collide after encoding: {ident}")
        decode[ident] = name
    return decode


def write_lp(model: ModelIR) -> str:
    """Render ``model`` as LP text.  Deterministic: same model, same bytes."""
    # Names are distinct, so the map holds one identifier per column, in order.
    idents = list(lp_name_map(model))
    out = [f"\\ {model.label}\n", "Maximize\n"]
    texts = _Texts()
    obj = model.objective
    if obj:
        coefs = [coef for coef, _ in obj]
        texts.add(coefs)
        names = [idents[model.column[name]] for _, name in obj]
        out.append(_sums(coefs, names, [0], [" obj: ", "\n"], texts))
    else:
        out.append(f" obj: {'0 ' + idents[0] if idents else '0'}\n")
    out.append("Subject To\n")
    rows = len(model.tags)
    for first in range(0, rows, CHUNK_ROWS):
        out.append(_rows_text(model, idents, texts, first, min(first + CHUNK_ROWS, rows)))
    out.append("Bounds\n")
    binaries: list[str] = []
    for name, lo, hi, binary in zip(idents, model.lower, model.upper, model.binary):
        if binary:
            binaries.append(f" {name}\n")
            continue
        if lo is None and hi is None:
            out.append(f" {name} free\n")
        elif hi is None:
            if lo != 0:
                out.append(f" {_fmt(lo)} <= {name}\n")
            # lower bound 0, no upper: the LP-format default, nothing to write
        elif lo is None:
            out.append(f" -inf <= {name} <= {_fmt(hi)}\n")
        else:
            out.append(f" {_fmt(lo)} <= {name} <= {_fmt(hi)}\n")
    if binaries:
        out.append("Binaries\n")
        out += binaries
    out.append("End\n")
    return "".join(out)
