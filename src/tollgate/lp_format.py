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
from typing import Sequence

from .model_ir import Coef, ModelIR


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


def _terms_text(coefs: Sequence[Coef], idents: Sequence[str]) -> str:
    """A sum of terms (at least one) as LP text, one identifier per coefficient."""
    parts: list[str] = []
    for coef, text in zip(coefs, idents):
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
    elif coefs[0] != -1:
        parts[0] = "-" + head[2:]
    return " ".join(parts)


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
    obj = model.objective
    if obj:
        terms = _terms_text(
            [coef for coef, _ in obj], [idents[model.column[name]] for _, name in obj]
        )
    else:
        terms = "0 " + idents[0] if idents else "0"
    out.append(f" obj: {terms}\n")
    out.append("Subject To\n")
    coefs = model.coefs
    row_idents = list(map(idents.__getitem__, model.cols))
    a = 0
    for idx, (sense, rhs, b) in enumerate(zip(model.senses, model.rhs, model.starts[1:])):
        terms = _terms_text(coefs[a:b], row_idents[a:b])
        out.append(f" c{idx}: {terms} {sense} {_fmt(rhs)}\n")
        a = b
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
