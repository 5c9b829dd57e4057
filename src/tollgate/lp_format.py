"""Serialize a model to CPLEX LP text.

The writer targets the common dialect accepted by HiGHS, CBC, SCIP, Gurobi
and CPLEX: ``Maximize`` / ``Subject To`` / ``Bounds`` / ``Binaries`` / ``End``
sections, one constraint per line.  Identifiers are the model's variable
names with the brackets and commas the format forbids rewritten;
:func:`lp_name_map` maps them back, so a command-line solver's output can be
read against the model it was given.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

from .model_ir import Coef, ModelIR, Term, _gc_paused


def _float_text(value: Fraction) -> str:
    # The quotient of two ints is correctly rounded, as float() is.
    return f"{value.numerator / value.denominator:.12g}"


def _fmt(value: Coef) -> str:
    if type(value) is not int:
        if value.denominator != 1:
            return _float_text(value)
        value = value.numerator
    return str(value)


def _encode(name: str) -> str:
    """LP format forbids brackets in identifiers; swap them for markers."""
    return name.replace("[", "__").replace("]", "").replace(",", "_")


def _terms_text(terms: Sequence[Term], ident: Mapping[str, str]) -> str:
    """``terms`` (at least one) as LP text; ``ident`` maps names to identifiers."""
    parts: list[str] = []
    for coef, name in terms:
        text = ident[name]
        if type(coef) is not int:
            if coef.denominator != 1:
                number = _float_text(coef)
                if number[0] == "-":
                    parts.append(f"- {number[1:]} {text}")
                else:
                    parts.append(f"+ {number} {text}")
                continue
            coef = coef.numerator
        if coef == 1:
            parts.append("+ " + text)
        elif coef == -1:
            parts.append("- " + text)
        elif coef > 0:
            parts.append(f"+ {coef} {text}")
        else:
            parts.append(f"- {-coef} {text}")
    # The first term carries no "+", and a number's sign is glued to it.
    head = parts[0]
    if head[0] == "+":
        parts[0] = head[2:]
    elif terms[0][0] != -1:
        parts[0] = "-" + head[2:]
    return " ".join(parts)


def lp_name_map(model: ModelIR) -> dict[str, str]:
    """Map LP-file identifiers back to the model's variable names."""
    decode: dict[str, str] = {}
    for var in model.variables:
        if len(var.name) > 255:
            raise ValueError(f"variable name too long for the LP format: {var.name[:40]}...")
        ident = _encode(var.name)
        if ident in decode and decode[ident] != var.name:
            raise ValueError(f"variable names collide after encoding: {ident}")
        decode[ident] = var.name
    return decode


@_gc_paused()
def write_lp(model: ModelIR) -> str:
    """Render ``model`` as LP text.  Deterministic: same model, same bytes.

    The cyclic garbage collector is paused while the text is built and
    restored afterwards (see :mod:`tollgate.model_ir`).
    """
    ident = {name: text for text, name in lp_name_map(model).items()}
    out = [f"\\ {model.label}\n", "Maximize\n"]
    obj = model.objective
    fallback = "0 " + ident[model.variables[0].name] if model.variables else "0"
    out.append(" obj: " + (_terms_text(obj, ident) if obj else fallback) + "\n")
    out.append("Subject To\n")
    for idx, con in enumerate(model.constraints):
        out.append(f" c{idx}: {_terms_text(con.terms, ident)} {con.sense} {_fmt(con.rhs)}\n")
    out.append("Bounds\n")
    binaries: list[str] = []
    for var in model.variables:
        name = ident[var.name]
        if var.binary:
            binaries.append(f" {name}\n")
            continue
        lo = var.lower
        hi = var.upper
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

