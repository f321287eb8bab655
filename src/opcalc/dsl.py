"""The operator expression language.

Grammar (composition by juxtaposition binds tighter than sum; '^' applies
to the nearest atom; a leading '-' negates the first term):

    expr   := '-'? term (('+'|'-') term)*
    term   := factor factor*
    factor := rational '*' factor | atom ('^' uint)? | '(' expr ')' ('^' uint)?
    atom   := 'D' | 'X' | 'I' | 'J' | 'Delta' | 'E' '(' rational ')'
            | 'Eval0' | 'sub' '(' poly ')' | 'series' '(' tpoly ')'
            | 'poly' '(' poly ')'
    poly   := ('+'|'-')? pterm (('+'|'-') pterm)*
    pterm  := rational ('*'? 'x' ('^' uint)?)? | 'x' ('^' uint)?

``tpoly`` is ``poly`` with the variable 't'.  ``sub`` substitutes a
polynomial in x, ``poly`` multiplies by one, and ``series`` is a
polynomial in t read as an exact series in D.  Whitespace may separate
any two tokens.  One `opcalc.poly.Scanner` reads the whole expression,
atom bodies included, so error positions count from its start.
Rendering an expression produces text that reparses to an operator with
the same action.
"""

from __future__ import annotations

from .errors import ParseError
from .operators import (
    Add,
    Compose,
    D,
    Delta,
    Eval0,
    Identity,
    J,
    OpExpr,
    PolyInX,
    Scale,
    SeriesInD,
    Shift,
    Substitute,
    X,
)
from .poly import Rat, Scanner, render_poly
from .series import SSeries

_ATOM_NAMES = ("D", "X", "I", "J", "Delta", "E", "Eval0", "sub", "series", "poly")


def parse_operator(text: str) -> OpExpr:
    if not text.strip():
        raise ParseError("empty operator expression", position=0, expected=("expr",))
    sc = Scanner(text)
    expr = _parse_expr(sc)
    sc.end()
    return expr


def _parse_expr(sc: Scanner) -> OpExpr:
    negate = False
    if sc.peek() == "-":
        sc.pos += 1
        negate = True
    term = _parse_term(sc)
    if negate:
        term = Scale(Rat(-1), term)
    terms = [term]
    while True:
        c = sc.peek()
        if c == "+":
            sc.pos += 1
            terms.append(_parse_term(sc))
        elif c == "-":
            sc.pos += 1
            terms.append(Scale(Rat(-1), _parse_term(sc)))
        else:
            break
    return terms[0] if len(terms) == 1 else Add(tuple(terms))


def _starts_factor(sc: Scanner) -> bool:
    c = sc.peek()
    return c.isdigit() or c == "(" or c.isalpha()


def _parse_term(sc: Scanner) -> OpExpr:
    factor = _parse_factor(sc)
    while _starts_factor(sc):
        factor = Compose(factor, _parse_factor(sc))
    return factor


def _parse_factor(sc: Scanner) -> OpExpr:
    c = sc.peek()
    if c.isdigit():
        coef = sc.rational()
        sc.take("*")
        return Scale(coef, _parse_factor(sc))
    if c == "(":
        sc.pos += 1
        base = _parse_expr(sc)
        sc.take(")")
    elif c.isalpha():
        base = _parse_atom(sc)
    else:
        raise sc.error(("operator atom", "rational", "("))
    if sc.peek() == "^":
        sc.pos += 1
        return base ** sc.uint()
    return base


def _parse_atom(sc: Scanner) -> OpExpr:
    pos = sc.pos
    name = sc.ident()
    if name == "D":
        return D()
    if name == "X":
        return X()
    if name == "I":
        return Identity()
    if name == "J":
        return J()
    if name == "Delta":
        return Delta()
    if name == "Eval0":
        return Eval0()
    if name == "E":
        sc.take("(")
        a = sc.rational(signed=True)
        sc.take(")")
        return Shift(a)
    if name in ("sub", "poly", "series"):
        sc.take("(")
        sc.skip_ws()
        body = sc.pos
        q = sc.poly("t" if name == "series" else "x")
        sc.take(")")
        if name == "sub":
            if q.is_zero():
                sc.pos = body
                raise sc.error(("nonzero polynomial",))
            return Substitute(q)
        if name == "poly":
            return PolyInX(q)
        trunc = 0 if q.is_zero() else int(q.degree)
        return SeriesInD(SSeries.from_poly(q, trunc), exact=True)
    sc.pos = pos
    raise sc.error(_ATOM_NAMES)


def render_operator(op: OpExpr) -> str:
    """Canonical text; reparsing yields an operator with the same action."""
    return _render(op, top=True)


def _render(op: OpExpr, top: bool = False) -> str:
    if isinstance(op, D):
        return "D"
    if isinstance(op, X):
        return "X"
    if isinstance(op, Identity):
        return "I"
    if isinstance(op, J):
        return "J"
    if isinstance(op, Delta):
        return "Delta"
    if isinstance(op, Eval0):
        return "Eval0"
    if isinstance(op, Shift):
        return f"E({op.a})"
    if isinstance(op, Substitute):
        return f"sub({render_poly(op.q)})"
    if isinstance(op, PolyInX):
        return f"poly({render_poly(op.p)})"
    if isinstance(op, SeriesInD):
        return f"series({render_poly(op.f.poly, var='t')})"
    if isinstance(op, Compose):
        return f"{_render_tight(op.left)} {_render_tight(op.right)}"
    if isinstance(op, Scale):
        if op.c < 0:
            body = f"{-op.c} * {_render_tight(op.inner)}" if op.c != -1 else _render_tight(op.inner)
            return f"-{body}" if top else f"(-{body})"
        return f"{op.c} * {_render_tight(op.inner)}"
    if isinstance(op, Add):
        parts = []
        for i, term in enumerate(op.terms):
            if isinstance(term, Scale) and term.c < 0:
                inner = (
                    _render_tight(term.inner)
                    if term.c == -1
                    else f"{-term.c} * {_render_tight(term.inner)}"
                )
                parts.append(f"- {inner}" if i else f"-{inner}")
            else:
                body = _render(term)
                parts.append(f"+ {body}" if i else body)
        return " ".join(parts)
    raise TypeError(f"cannot render {op!r}")


def _render_tight(op: OpExpr) -> str:
    """Render as a factor: parenthesize sums and scales."""
    if isinstance(op, (Add, Scale)):
        return f"({_render(op)})"
    if isinstance(op, Compose):
        return f"({_render(op)})"
    return _render(op)
