"""Serialize a model to CPLEX LP text and read such text back.

The writer targets the common dialect accepted by HiGHS, CBC, SCIP, Gurobi
and CPLEX: ``Maximize`` / ``Subject To`` / ``Bounds`` / ``Binaries`` / ``End``
sections, one constraint per line, names kept verbatim.  The parser handles
exactly what the writer emits plus harmless whitespace variation; it exists
so tests can round-trip models and so command-line solver output can be
checked against the model it was given.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .model_ir import Coef, ModelIR, Term


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


def write_lp(model: ModelIR) -> str:
    """Render ``model`` as LP text.  Deterministic: same model, same bytes."""
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


_SECTION_RE = re.compile(
    r"^(maximize|maximise|minimize|minimise|subject to|st|s\.t\.|bounds|binaries|binary|general|generals|end)$",
    re.IGNORECASE,
)


def _tokenize_expr(text: str) -> list[tuple[Fraction, str]]:
    terms: list[tuple[Fraction, str]] = []
    tokens = re.findall(r"[A-Za-z_][A-Za-z0-9_.]*|[-+]?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?|[-+]", text)
    sign = Fraction(1)
    coef: Union[Fraction, None] = None
    for tok in tokens:
        if tok == "+":
            continue
        if tok == "-":
            sign = -sign
            continue
        if re.match(r"^[A-Za-z_]", tok):
            value = sign * (coef if coef is not None else Fraction(1))
            terms.append((value, tok))
            sign = Fraction(1)
            coef = None
        else:
            coef = Fraction(tok) if coef is None else coef * Fraction(tok)
            if tok.startswith("-"):
                sign = sign  # sign already folded into the literal
    return terms


def parse_lp(text: str) -> ModelIR:
    """Parse LP text produced by :func:`write_lp` into a fresh model."""
    model = ModelIR(label="parsed")
    section = ""
    sense = 1
    pending = ""
    declared: dict[str, dict] = {}
    constraints: list[tuple[str, list[tuple[Fraction, str]], str, Fraction]] = []
    objective: list[tuple[Fraction, str]] = []

    def flush(line: str) -> None:
        nonlocal objective
        if not line.strip():
            return
        if section in ("maximize", "minimize"):
            body = line.split(":", 1)[-1]
            objective = objective + _tokenize_expr(body)
            return
        if section == "subject to":
            label, _, body = line.partition(":")
            tag = label.strip() or f"row{len(constraints)}"
            match = re.search(r"(<=|>=|=)", body)
            if not match:
                raise ValueError(f"constraint without comparator: {line!r}")
            op = match.group(1)
            lhs, rhs = body.split(op, 1)
            constraints.append((tag, _tokenize_expr(lhs), op, Fraction(rhs.strip())))
            return
        if section == "bounds":
            free = re.match(r"^\s*([A-Za-z_][A-Za-z0-9_.]*)\s+free\s*$", line, re.IGNORECASE)
            if free:
                declared.setdefault(free.group(1), {})["lower"] = None
                declared[free.group(1)]["upper"] = None
                return
            pieces = re.split(r"(<=|>=|=)", line)
            pieces = [p.strip() for p in pieces if p.strip()]
            if len(pieces) == 5 and pieces[1] == "<=" and pieces[3] == "<=":
                lo = None if pieces[0].lstrip("-").lower() == "inf" else Fraction(pieces[0])
                declared.setdefault(pieces[2], {})["lower"] = lo
                declared[pieces[2]]["upper"] = Fraction(pieces[4])
            elif len(pieces) == 3 and pieces[1] == "<=":
                if re.match(r"^[A-Za-z_]", pieces[0]):
                    declared.setdefault(pieces[0], {})["upper"] = Fraction(pieces[2])
                else:
                    declared.setdefault(pieces[2], {})["lower"] = Fraction(pieces[0])
            elif len(pieces) == 3 and pieces[1] == "=":
                declared.setdefault(pieces[0], {})["lower"] = Fraction(pieces[2])
                declared[pieces[0]]["upper"] = Fraction(pieces[2])
            else:
                raise ValueError(f"unsupported bounds line: {line!r}")
            return
        if section in ("binaries", "binary"):
            for name in line.split():
                declared.setdefault(name, {})["binary"] = True

    for raw in text.splitlines():
        line = raw.split("\\", 1)[0].rstrip()
        if not line.strip():
            continue
        header = _SECTION_RE.match(line.strip())
        if header:
            if pending:
                flush(pending)
                pending = ""
            word = header.group(1).lower()
            if word in ("maximize", "maximise"):
                section, sense = "maximize", 1
            elif word in ("minimize", "minimise"):
                section, sense = "minimize", -1
            elif word in ("subject to", "st", "s.t."):
                section = "subject to"
            elif word == "bounds":
                section = "bounds"
            elif word in ("binaries", "binary"):
                section = "binaries"
            elif word in ("general", "generals"):
                section = "generals"
            else:
                section = "end"
            continue
        if section in ("maximize", "minimize", "subject to"):
            # Continuation lines have no comparator/colon start; accumulate the
            # objective, flush constraints per line.
            if section == "subject to":
                flush(line)
            else:
                pending += " " + line
        else:
            flush(line)
    if pending:
        flush(pending)

    seen: set[str] = set()
    for _, terms, _, _ in constraints:
        for _, name in terms:
            seen.add(name)
    for _, name in objective:
        seen.add(name)
    for name in sorted(seen):
        spec = declared.get(name, {})
        if spec.get("binary"):
            model.add_variable(name, upper=1, binary=True)
        else:
            model.add_variable(
                name,
                lower=spec.get("lower", Fraction(0)),
                upper=spec.get("upper"),
            )
    for coef, name in objective:
        model.add_objective_term(sense * coef, name)
    for tag, terms, op, rhs in constraints:
        model.add_constraint(tag, terms, op, rhs)
    return model
