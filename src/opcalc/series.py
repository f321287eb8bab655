"""Truncated formal power series in t, exact in every stored coefficient.

Truncation lives only in the t-direction.  An ``SSeries`` is a ``Poly``
in t, its prefix through t^N, plus the truncation order N; every
coefficient past N is unknown, not zero.  Its arithmetic is the
integer-content ``Poly`` kernel followed by a truncation, so a product
is one Kronecker multiply.  ``coeffs`` is a read-only view of the prefix
as N + 1 `Fraction`s, padded with zeros, built on first access.

``invert`` and ``reverse`` are Newton iterations that double the number
of correct coefficients at each step: h <- h (2 - f h) for 1/f, and
r <- r - (f(r) - t) / f'(r) for the compositional inverse, with f'(r)
read off (f(r))' = f'(r) r' so that each step composes once.
``compose`` is Horner's rule, truncated after every product.

``SSeries`` is the truncated-series type.  A ``PSeries`` (exact
polynomials in x as the coefficients of t^0..t^N) serves only the
generating functions in x and t: exp(-xt) and b(x,t) for the XD and XB
expansions, exp(x g(t)) (``exp_x``) for the umbral families.  It keeps
a tuple of ``Poly`` and just the product, the inverse and ``pseries_exp``:
a packed bivariate product measured mostly slower, and one class generic
over both coefficient types would branch on the type in every method.
Mixed truncation orders give the shorter order.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable

from .errors import InvertError, ReverseError, TruncationError
from .poly import Poly, Rat, RatLike, rat, render_poly

# Order of a series whose stored prefix is identically zero.
POS_INF = float("inf")

_TWO = Poly.const(2)
_T = Poly.monomial(1)


def _series(p: Poly, trunc: int) -> "SSeries":
    """The series whose prefix through t^trunc is that of p."""
    f = object.__new__(SSeries)
    object.__setattr__(f, "poly", p.truncate(trunc))
    object.__setattr__(f, "trunc_order", trunc)
    object.__setattr__(f, "_coeffs", None)
    return f


def _newton_orders(n: int, known: int) -> list:
    """Orders at which to run a Newton iteration from ``known`` up to ``n``.

    A step that starts correct through t^m ends correct through t^(2m+1),
    so each order is at most twice the previous plus one; smallest first.
    """
    orders = []
    while n > known:
        orders.append(n)
        n //= 2
    return orders[::-1]


class SSeries:
    """Power series with rational coefficients, truncated after t^N."""

    __slots__ = ("poly", "trunc_order", "_coeffs")

    def __init__(self, coeffs: Iterable[RatLike], trunc_order: int | None = None):
        cs = [rat(c) for c in coeffs]
        if trunc_order is None:
            trunc_order = len(cs) - 1
        if trunc_order < 0:
            raise ValueError("truncation order must be nonnegative")
        object.__setattr__(self, "poly", Poly(cs[: trunc_order + 1]))
        object.__setattr__(self, "trunc_order", trunc_order)
        object.__setattr__(self, "_coeffs", None)

    def __setattr__(self, name, value):
        raise AttributeError("SSeries is immutable")

    @property
    def coeffs(self) -> tuple:
        """The coefficients of t^0..t^N as Fractions, zeros included."""
        cs = self._coeffs
        if cs is None:
            cs = self.poly.coeffs
            cs += (Rat(0),) * (self.trunc_order + 1 - len(cs))
            object.__setattr__(self, "_coeffs", cs)
        return cs

    # -- construction --------------------------------------------------

    @classmethod
    def zero(cls, trunc: int) -> "SSeries":
        return cls((), trunc)

    @classmethod
    def one(cls, trunc: int) -> "SSeries":
        return cls((1,), trunc)

    @classmethod
    def t(cls, trunc: int) -> "SSeries":
        """The identity series t."""
        return cls((0, 1), trunc)

    @classmethod
    def exp_t(cls, trunc: int) -> "SSeries":
        """e^t truncated: coefficients 1/n!."""
        return cls(tuple(Rat(1, factorial(n)) for n in range(trunc + 1)), trunc)

    @classmethod
    def from_poly(cls, p: Poly, trunc: int) -> "SSeries":
        """Read a polynomial in t as a series (tail genuinely zero)."""
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        return _series(p, trunc)

    # -- structure ------------------------------------------------------

    def coeff(self, k: int) -> Rat:
        if 0 <= k <= self.trunc_order:
            return self.coeffs[k]
        return Rat(0)

    def order(self):
        """Smallest index with a nonzero coefficient, or POS_INF."""
        for k, n in enumerate(self.poly.nums):
            if n:
                return k
        return POS_INF

    def is_zero_prefix(self) -> bool:
        return self.poly.is_zero()

    def truncate(self, trunc: int) -> "SSeries":
        if trunc > self.trunc_order:
            raise TruncationError(
                f"cannot extend truncation {self.trunc_order} to {trunc}"
            )
        if trunc < 0:
            raise ValueError("truncation order must be nonnegative")
        return _series(self.poly, trunc)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "SSeries") -> "SSeries":
        if not isinstance(other, SSeries):
            return NotImplemented
        return _series(self.poly + other.poly, min(self.trunc_order, other.trunc_order))

    def __sub__(self, other: "SSeries") -> "SSeries":
        if not isinstance(other, SSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "SSeries":
        return _series(-self.poly, self.trunc_order)

    def __mul__(self, other) -> "SSeries":
        if isinstance(other, SSeries):
            n = min(self.trunc_order, other.trunc_order)
            return _series(self.poly.truncate(n) * other.poly.truncate(n), n)
        return NotImplemented

    def scale(self, c: RatLike) -> "SSeries":
        return _series(self.poly.scale(c), self.trunc_order)

    def derivative(self) -> "SSeries":
        """Formal derivative; the result is one order shorter."""
        if self.trunc_order < 1:
            raise TruncationError("cannot differentiate a series truncated at order 0")
        return _series(self.poly.derivative(), self.trunc_order - 1)

    def invert(self) -> "SSeries":
        """Multiplicative inverse; requires a nonzero constant term.

        Newton iteration h <- h (2 - f h) from h = 1/f(0).
        """
        f = self.poly
        if f.coeff(0) == 0:
            raise InvertError("series with zero constant term has no inverse")
        h = Poly.const(1 / f.coeff(0))
        for m in _newton_orders(self.trunc_order, 0):
            fh = (f.truncate(m) * h).truncate(m)
            h = (h * (_TWO - fh)).truncate(m)
        return _series(h, self.trunc_order)

    def compose(self, inner: "SSeries") -> "SSeries":
        """self(inner(t)); requires ord(inner) >= 1 within truncation."""
        if inner.poly.coeff(0) != 0:
            raise ValueError("composition requires inner series of order >= 1")
        n = min(self.trunc_order, inner.trunc_order)
        g = inner.poly.truncate(n)
        acc = Poly()
        for c in reversed(self.poly.truncate(n).coeffs):
            acc = (acc * g).truncate(n)
            if c:
                acc = acc + Poly.const(c)
        return _series(acc, n)

    def reverse(self) -> "SSeries":
        """Compositional inverse r with r(self(t)) = t up to truncation.

        Requires order exactly 1.  Newton iteration on composition,
        r <- r - (f(r) - t) / f'(r) from r = t / f'(0).
        """
        f = self.poly
        if f.coeff(0) != 0 or f.coeff(1) == 0:
            raise ReverseError("compositional inverse requires order exactly 1")
        r = _series(_T.scale(1 / f.coeff(1)), 1)
        for m in _newton_orders(self.trunc_order, 1):
            r = _series(r.poly, m)
            fr = self.truncate(m).compose(r)
            # 1/f'(r) = r' / (f(r))', known below t^m.  f(r) - t has no
            # constant term, so its product with that is exact through t^m.
            inv = r.derivative() * fr.derivative().invert()
            r = _series(r.poly - (fr.poly - _T) * inv.poly, m)
        return r

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SSeries)
            and self.trunc_order == other.trunc_order
            and self.poly == other.poly
        )

    def __hash__(self) -> int:
        return hash((self.poly, self.trunc_order))

    def __str__(self) -> str:
        return render_poly(self.poly, var="t") + f" + O(t^{self.trunc_order + 1})"

    def __repr__(self) -> str:
        return f"SSeries({str(self)!r})"


class PSeries:
    """Power series in t whose coefficients are exact polynomials in x."""

    __slots__ = ("coeffs", "trunc_order")

    def __init__(self, coeffs: Iterable[Poly], trunc_order: int | None = None):
        cs = tuple(coeffs)
        for c in cs:
            if not isinstance(c, Poly):
                raise TypeError("PSeries coefficients must be Poly")
        if trunc_order is None:
            trunc_order = len(cs) - 1
        if trunc_order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(cs) < trunc_order + 1:
            cs = cs + (Poly(),) * (trunc_order + 1 - len(cs))
        elif len(cs) > trunc_order + 1:
            cs = cs[: trunc_order + 1]
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "trunc_order", trunc_order)

    def __setattr__(self, name, value):
        raise AttributeError("PSeries is immutable")

    def coeff(self, k: int) -> Poly:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Poly()

    def __mul__(self, other) -> "PSeries":
        if not isinstance(other, PSeries):
            return NotImplemented
        n = min(self.trunc_order, other.trunc_order)
        out = [Poly() for _ in range(n + 1)]
        for i in range(n + 1):
            a = self.coeffs[i]
            if a.is_zero():
                continue
            for j in range(n + 1 - i):
                out[i + j] = out[i + j] + a * other.coeffs[j]
        return PSeries(out, n)

    def invert(self) -> "PSeries":
        """Multiplicative inverse; the constant coefficient must be 1."""
        if self.coeff(0) != Poly.one():
            raise InvertError("PSeries inverse requires constant coefficient 1")
        n = self.trunc_order
        out = [Poly() for _ in range(n + 1)]
        out[0] = Poly.one()
        for k in range(1, n + 1):
            acc = Poly()
            for j in range(1, k + 1):
                acc = acc + self.coeff(j) * out[k - j]
            out[k] = -acc
        return PSeries(out, n)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, PSeries)
            and self.trunc_order == other.trunc_order
            and self.coeffs == other.coeffs
        )

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"PSeries([{inner}], N={self.trunc_order})"


def _exp_neg_xt(trunc: int) -> PSeries:
    """exp(-xt) truncated: coefficient of t^n is (-x)^n/n!."""
    return PSeries(
        tuple(Poly.monomial(n, Rat((-1) ** n, factorial(n))) for n in range(trunc + 1)), trunc
    )


def pseries_exp(u: PSeries) -> PSeries:
    """exp of a polynomial-coefficient series with zero constant coefficient.

    E = exp(u) solves E' = u' E, so n E_n = sum_{1 <= k <= n} k u_k E_(n-k):
    O(N^2) polynomial products, exact through the truncation order.
    """
    if not u.coeff(0).is_zero():
        raise ValueError("series exponential requires zero constant coefficient")
    n = u.trunc_order
    ku = [u.coeff(k).scale(k) for k in range(n + 1)]
    out = [Poly.one()]
    for m in range(1, n + 1):
        acc = Poly()
        for k in range(1, m + 1):
            if not ku[k].is_zero():
                acc = acc + ku[k] * out[m - k]
        out.append(acc.scale(Rat(1, m)))
    return PSeries(out, n)


def exp_x(g: SSeries, N: int) -> tuple:
    """The t^0..t^N coefficients of exp(x g(t)), for g of order at least 1."""
    xg = PSeries(tuple(Poly.monomial(1, g.coeff(j)) for j in range(N + 1)), N)
    return pseries_exp(xg).coeffs
