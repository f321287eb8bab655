"""Operator expression trees and their exact action on polynomials.

Every operator here is a linear map of the polynomial ring to itself.
``Compose(left, right)`` applies ``right`` first, so it denotes the usual
left∘right.  The ``*`` operator on expressions is composition; ``+`` is
operator sum; multiplying by a rational scales.

``OpTable`` is the row engine: row n is Q x^n, cached, and the t-th
diagonal reads the coefficient of x^(n+t) across rows.  Every expansion
and check that needs Q x^n reads it there.  Shift invariance is decided
exactly, as commuting with D on x^0..x^N.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable

from .errors import TruncationError
from .poly import NEG_INF, Poly, Rat, rat
from .series import SSeries


class OpExpr:
    """Base class for operator expressions."""

    __slots__ = ()

    def apply(self, p: Poly) -> Poly:
        raise NotImplementedError

    def __add__(self, other: "OpExpr") -> "OpExpr":
        if not isinstance(other, OpExpr):
            return NotImplemented
        return Add((self, other))

    def __sub__(self, other: "OpExpr") -> "OpExpr":
        if not isinstance(other, OpExpr):
            return NotImplemented
        return Add((self, Scale(Rat(-1), other)))

    def __neg__(self) -> "OpExpr":
        return Scale(Rat(-1), self)

    def __mul__(self, other) -> "OpExpr":
        if isinstance(other, OpExpr):
            return Compose(self, other)
        if isinstance(other, (int, Fraction)):
            return Scale(rat(other), self)
        return NotImplemented

    def __rmul__(self, other) -> "OpExpr":
        if isinstance(other, (int, Fraction)):
            return Scale(rat(other), self)
        return NotImplemented

    def __pow__(self, n: int) -> "OpExpr":
        if not isinstance(n, int) or n < 0:
            raise ValueError("operator power must be a nonnegative integer")
        out: OpExpr = Identity()
        for _ in range(n):
            out = self if isinstance(out, Identity) else Compose(out, self)
        return out


@dataclass(frozen=True)
class D(OpExpr):
    """Differentiation."""

    __slots__ = ()

    def apply(self, p: Poly) -> Poly:
        return p.derivative()


@dataclass(frozen=True)
class X(OpExpr):
    """Multiplication by x."""

    __slots__ = ()

    def apply(self, p: Poly) -> Poly:
        return Poly.monomial(1) * p


@dataclass(frozen=True)
class Identity(OpExpr):
    __slots__ = ()

    def apply(self, p: Poly) -> Poly:
        return p


@dataclass(frozen=True)
class J(OpExpr):
    """Definite integral from 0: (Jp)(x) is the integral of p over [0, x]."""

    __slots__ = ()

    def apply(self, p: Poly) -> Poly:
        return p.integral()


@dataclass(frozen=True)
class Delta(OpExpr):
    """Forward difference: p(x+1) - p(x)."""

    __slots__ = ()

    def apply(self, p: Poly) -> Poly:
        return p.shift(1) - p


@dataclass(frozen=True)
class Shift(OpExpr):
    """Translation by a: p(x) -> p(x + a)."""

    a: Rat

    def __post_init__(self):
        object.__setattr__(self, "a", rat(self.a))

    def apply(self, p: Poly) -> Poly:
        return p.shift(self.a)


@dataclass(frozen=True)
class Eval0(OpExpr):
    """Evaluation at zero, as the constant polynomial p(0)."""

    __slots__ = ()

    def apply(self, p: Poly) -> Poly:
        return Poly.const(p.eval(0))


@dataclass(frozen=True)
class Substitute(OpExpr):
    """Ring endomorphism p(x) -> p(q(x))."""

    q: Poly

    def __post_init__(self):
        if self.q.is_zero():
            raise ValueError("Substitute requires a nonzero polynomial")

    def apply(self, p: Poly) -> Poly:
        return p.compose(self.q)


@dataclass(frozen=True)
class PolyInX(OpExpr):
    """Multiplication by a fixed polynomial."""

    p: Poly

    def apply(self, p: Poly) -> Poly:
        return self.p * p


@dataclass(frozen=True)
class SeriesInD(OpExpr):
    """f(D) for a truncated series f.

    When ``exact`` is false the tail beyond the truncation is unknown and
    applying to a polynomial of higher degree raises TruncationError;
    when true the tail is genuinely zero (f came from a polynomial in t).
    """

    f: SSeries
    exact: bool = False

    def apply(self, p: Poly) -> Poly:
        deg = p.degree
        if deg is NEG_INF:
            return Poly()
        if not self.exact and self.f.trunc_order < deg:
            raise TruncationError(
                f"series in D truncated at {self.f.trunc_order} cannot act exactly "
                f"on degree {deg}"
            )
        out = Poly()
        dk = p
        for k in range(min(self.f.trunc_order, int(deg)) + 1):
            c = self.f.coeff(k)
            if c != 0:
                out = out + dk.scale(c)
            dk = dk.derivative()
        return out


@dataclass(frozen=True)
class Compose(OpExpr):
    """left∘right: apply right first."""

    left: OpExpr
    right: OpExpr

    def apply(self, p: Poly) -> Poly:
        return self.left.apply(self.right.apply(p))


@dataclass(frozen=True)
class Add(OpExpr):
    terms: tuple

    def __post_init__(self):
        object.__setattr__(self, "terms", tuple(self.terms))

    def apply(self, p: Poly) -> Poly:
        out = Poly()
        for q in self.terms:
            out = out + q.apply(p)
        return out


@dataclass(frozen=True)
class Scale(OpExpr):
    c: Rat
    inner: OpExpr

    def __post_init__(self):
        object.__setattr__(self, "c", rat(self.c))

    def apply(self, p: Poly) -> Poly:
        return self.inner.apply(p).scale(self.c)


class OpTable:
    """Memoized matrix view of an operator: row n is Q x^n.

    The source is either an expression tree or an oracle n -> Q x^n, so
    operators with no finite description are injectable; the constructor
    turns a tree into its row function once.  Row insertion is
    idempotent; concurrent duplicate computation is harmless.
    """

    def __init__(self, source: OpExpr | Callable[[int], Poly]):
        if isinstance(source, OpExpr):
            source = lambda n, Q=source: Q.apply(Poly.monomial(n))
        self._source = source
        self._rows: dict[int, Poly] = {}

    def row(self, n: int) -> Poly:
        if n < 0:
            raise ValueError("row index must be nonnegative")
        hit = self._rows.get(n)
        if hit is not None:
            return hit
        value = self._rows[n] = self._source(n)
        return value

    def diagonal(self, t: int, n_max: int) -> list:
        """q_t(0..n_max): entry n is the coefficient of x^(n+t) in row n."""
        if n_max < 0:
            raise ValueError("n_max must be nonnegative")
        out = []
        for n in range(n_max + 1):
            k = n + t
            out.append(self.row(n).coeff(k) if k >= 0 else Rat(0))
        return out


def op_equal_upto(Q: OpExpr, R: OpExpr, N: int) -> bool:
    """True iff Q and R agree on the monomials x^0..x^N."""
    left, right = OpTable(Q).row, OpTable(R).row
    return all(left(n) == right(n) for n in range(N + 1))


def shift_invariance_check(Q: OpExpr | Callable[[int], Poly], N: int) -> bool:
    """True iff Q commutes with translations on polynomials of degree <= N.

    Q is an operator or, as for OpTable, an oracle n -> Q x^n.

    On polynomials, commuting with every translation is commuting with D
    (E^a = exp(aD), and for any a != 0, D = log(E^a)/a is a finite sum of
    powers of E^a - I), so the check is (Q 1)' = 0 and
    (Q x^n)' = n Q x^(n-1) for 1 <= n <= N.
    Acceptance is exact on degrees <= N.
    """
    table = OpTable(Q)
    for n in range(N + 1):
        lower = table.row(n - 1).scale(n) if n else Poly()
        if table.row(n).derivative() != lower:
            return False
    return True


def d_expand(Q: OpExpr | Callable[[int], Poly], N: int) -> SSeries:
    """Classical expansion in the derivative: a_k = (Q x^k / k!) at x = 0.

    Q is an operator or, as for OpTable, an oracle n -> Q x^n.

    For shift-invariant Q the reconstruction sum_k a_k D^k agrees with Q
    on polynomials of degree <= N; wrapping the result in SeriesInD gives
    that reconstruction directly.
    """
    table = OpTable(Q)
    return SSeries([table.row(k).eval(0) / factorial(k) for k in range(N + 1)], N)
