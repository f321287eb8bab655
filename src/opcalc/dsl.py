"""The operator expression language.

Grammar (composition by juxtaposition binds tighter than sum; '^' applies
to the nearest atom; a leading '-' negates the first term):

    expr   := '-'? term (('+'|'-') term)*
    term   := factor factor*
    factor := rational '*' factor | atom ('^' uint)? | '(' expr ')'
    atom   := 'D' | 'X' | 'I' | 'J' | 'Delta' | 'E' '(' rational ')'
            | 'Eval0' | 'sub' '(' poly ')' | 'series' '(' tpoly ')'
            | 'poly' '(' poly ')'

``sub`` substitutes a polynomial in x, ``poly`` multiplies by one, and
``series`` is a polynomial in t read as an exact series in D.  Rendering
an expression produces text that reparses to an operator with the same
action.
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
from .poly import Rat, parse_poly, render_poly
from .series import SSeries

_ATOM_NAMES = ("D", "X", "I", "J", "Delta", "E", "Eval0", "sub", "series", "poly")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self) -> str:
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def error(self, expected) -> ParseError:
        return ParseError(
            f"at position {self.pos}: expected one of {', '.join(expected)}",
            position=self.pos,
            expected=expected,
        )

    def take(self, ch: str):
        if self.peek() != ch:
            raise self.error((ch,))
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and (
            self.text[self.pos].isalpha()
            or (self.pos > start and self.text[self.pos].isdigit())
        ):
            self.pos += 1
        return self.text[start : self.pos]

    def uint(self) -> int:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if self.pos == start:
            raise self.error(("integer",))
        return int(self.text[start : self.pos])

    def rational(self, signed: bool = False) -> Rat:
        self.skip_ws()
        sign = 1
        if signed and self.peek() == "-":
            self.pos += 1
            sign = -1
        num = self.uint()
        if self.peek() == "/":
            self.pos += 1
            den = self.uint()
            return Rat(sign * num, den)
        return Rat(sign * num)

    def balanced(self) -> str:
        """Consume up to the matching ')' (exclusive), tracking nesting."""
        self.skip_ws()
        start = self.pos
        depth = 0
        while self.pos < len(self.text):
            c = self.text[self.pos]
            if c == "(":
                depth += 1
            elif c == ")":
                if depth == 0:
                    return self.text[start : self.pos]
                depth -= 1
            self.pos += 1
        raise self.error((")",))


def parse_operator(text: str) -> OpExpr:
    if not text.strip():
        raise ParseError("empty operator expression", position=0, expected=("expr",))
    sc = _Scanner(text)
    expr = _parse_expr(sc)
    sc.skip_ws()
    if sc.pos != len(sc.text):
        raise sc.error(("end of input", "+", "-"))
    return expr


def _parse_expr(sc: _Scanner) -> OpExpr:
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


def _starts_factor(sc: _Scanner) -> bool:
    c = sc.peek()
    return c.isdigit() or c == "(" or c.isalpha()


def _parse_term(sc: _Scanner) -> OpExpr:
    factor = _parse_factor(sc)
    while _starts_factor(sc):
        factor = Compose(factor, _parse_factor(sc))
    return factor


def _parse_factor(sc: _Scanner) -> OpExpr:
    c = sc.peek()
    if c.isdigit():
        coef = sc.rational()
        sc.skip_ws()
        if sc.peek() != "*":
            raise sc.error(("*",))
        sc.pos += 1
        return Scale(coef, _parse_factor(sc))
    if c == "(":
        sc.pos += 1
        inner = _parse_expr(sc)
        sc.take(")")
        if sc.peek() == "^":
            sc.pos += 1
            return inner ** sc.uint()
        return inner
    if c.isalpha():
        atom = _parse_atom(sc)
        sc.skip_ws()
        if sc.peek() == "^":
            sc.pos += 1
            return atom ** sc.uint()
        return atom
    raise sc.error(("operator atom", "rational", "("))


def _parse_atom(sc: _Scanner) -> OpExpr:
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
    if name == "sub":
        sc.take("(")
        body = sc.balanced()
        sc.take(")")
        return Substitute(parse_poly(body, var="x"))
    if name == "poly":
        sc.take("(")
        body = sc.balanced()
        sc.take(")")
        return PolyInX(parse_poly(body, var="x"))
    if name == "series":
        sc.take("(")
        body = sc.balanced()
        sc.take(")")
        tpoly = parse_poly(body, var="t")
        trunc = max(int(tpoly.degree), 0) if not tpoly.is_zero() else 0
        return SeriesInD(SSeries.from_poly(tpoly, trunc), exact=True)
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
