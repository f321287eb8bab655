"""Truncated formal power series in t, exact in every stored coefficient.

Truncation lives only in the t-direction: an ``SSeries`` holds rational
coefficients for t^0..t^N, a ``PSeries`` holds polynomial coefficients
(exact, unbounded degree in x) for t^0..t^N.  Operations on series of
different truncation order return the shorter order.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import Iterable

from .errors import InvertError, ReverseError, TruncationError
from .poly import Poly, Rat, RatLike, rat

# Order of a series whose stored prefix is identically zero.
POS_INF = float("inf")


class SSeries:
    """Power series with rational coefficients, truncated after t^N."""

    __slots__ = ("coeffs", "trunc_order")

    def __init__(self, coeffs: Iterable[RatLike], trunc_order: int | None = None):
        cs = tuple(rat(c) for c in coeffs)
        if trunc_order is None:
            trunc_order = len(cs) - 1
        if trunc_order < 0:
            raise ValueError("truncation order must be nonnegative")
        if len(cs) < trunc_order + 1:
            cs = cs + (Rat(0),) * (trunc_order + 1 - len(cs))
        elif len(cs) > trunc_order + 1:
            cs = cs[: trunc_order + 1]
        object.__setattr__(self, "coeffs", cs)
        object.__setattr__(self, "trunc_order", trunc_order)

    def __setattr__(self, name, value):
        raise AttributeError("SSeries is immutable")

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
        return cls(p.coeffs, trunc)

    # -- structure ------------------------------------------------------

    def coeff(self, k: int) -> Rat:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Rat(0)

    def order(self):
        """Smallest index with a nonzero coefficient, or POS_INF."""
        for k, c in enumerate(self.coeffs):
            if c != 0:
                return k
        return POS_INF

    def is_zero_prefix(self) -> bool:
        return all(c == 0 for c in self.coeffs)

    def truncate(self, trunc: int) -> "SSeries":
        if trunc > self.trunc_order:
            raise TruncationError(
                f"cannot extend truncation {self.trunc_order} to {trunc}"
            )
        return SSeries(self.coeffs[: trunc + 1], trunc)

    # -- arithmetic -------------------------------------------------------

    def __add__(self, other: "SSeries") -> "SSeries":
        if not isinstance(other, SSeries):
            return NotImplemented
        n = min(self.trunc_order, other.trunc_order)
        return SSeries(tuple(self.coeff(k) + other.coeff(k) for k in range(n + 1)), n)

    def __sub__(self, other: "SSeries") -> "SSeries":
        if not isinstance(other, SSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "SSeries":
        return SSeries(tuple(-c for c in self.coeffs), self.trunc_order)

    def __mul__(self, other) -> "SSeries":
        if isinstance(other, SSeries):
            n = min(self.trunc_order, other.trunc_order)
            out = [Rat(0)] * (n + 1)
            for i in range(min(len(self.coeffs), n + 1)):
                a = self.coeffs[i]
                if a == 0:
                    continue
                for j in range(min(len(other.coeffs), n + 1 - i)):
                    out[i + j] += a * other.coeffs[j]
            return SSeries(out, n)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def __rmul__(self, other) -> "SSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: RatLike) -> "SSeries":
        c = rat(c)
        return SSeries(tuple(a * c for a in self.coeffs), self.trunc_order)

    def __pow__(self, n: int) -> "SSeries":
        if not isinstance(n, int) or n < 0:
            raise ValueError("series power must be a nonnegative integer")
        out = SSeries.one(self.trunc_order)
        for _ in range(n):
            out = out * self
        return out

    def derivative(self) -> "SSeries":
        """Formal derivative; the result is one order shorter."""
        if self.trunc_order < 1:
            raise TruncationError("cannot differentiate a series truncated at order 0")
        return SSeries(
            tuple(k * self.coeffs[k] for k in range(1, len(self.coeffs))),
            self.trunc_order - 1,
        )

    def invert(self) -> "SSeries":
        """Multiplicative inverse; requires a nonzero constant term."""
        if self.coeff(0) == 0:
            raise InvertError("series with zero constant term has no inverse")
        n = self.trunc_order
        c0 = self.coeff(0)
        out = [Rat(0)] * (n + 1)
        out[0] = 1 / c0
        for k in range(1, n + 1):
            acc = Rat(0)
            for j in range(1, k + 1):
                acc += self.coeff(j) * out[k - j]
            out[k] = -acc / c0
        return SSeries(out, n)

    def compose(self, inner: "SSeries") -> "SSeries":
        """self(inner(t)); requires ord(inner) >= 1 within truncation."""
        if inner.coeff(0) != 0:
            raise ValueError("composition requires inner series of order >= 1")
        n = min(self.trunc_order, inner.trunc_order)
        g = inner.truncate(n) if inner.trunc_order > n else inner
        acc = SSeries.zero(n)
        for c in reversed(self.coeffs[: n + 1]):
            acc = acc * g + SSeries((c,), n)
        return acc

    def reverse(self) -> "SSeries":
        """Compositional inverse r with r(self(t)) = t up to truncation.

        Requires order exactly 1.  Solved coefficient by coefficient: with
        r known below t^n, the t^n coefficient of self(r) is linear in the
        unknown with slope equal to self's linear coefficient.
        """
        if self.coeff(0) != 0 or self.coeff(1) == 0:
            raise ReverseError("compositional inverse requires order exactly 1")
        n = self.trunc_order
        c1 = self.coeff(1)
        d = [Rat(0)] * (n + 1)
        if n >= 1:
            d[1] = 1 / c1
        for m in range(2, n + 1):
            partial = SSeries(d[: m + 1], m)
            got = self.truncate(m).compose(partial).coeff(m)
            d[m] = -got / c1
        return SSeries(d, n)

    # -- comparison ------------------------------------------------------

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SSeries)
            and self.trunc_order == other.trunc_order
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.coeffs, self.trunc_order))

    def agrees_with(self, other: "SSeries") -> bool:
        """Equality of the common prefix, ignoring truncation mismatch."""
        n = min(self.trunc_order, other.trunc_order)
        return all(self.coeff(k) == other.coeff(k) for k in range(n + 1))

    def __str__(self) -> str:
        from .poly import render_poly

        return render_poly(Poly(self.coeffs), var="t") + f" + O(t^{self.trunc_order + 1})"

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

    @classmethod
    def zero(cls, trunc: int) -> "PSeries":
        return cls((), trunc)

    @classmethod
    def one(cls, trunc: int) -> "PSeries":
        return cls((Poly.one(),), trunc)

    @classmethod
    def from_scalar(cls, f: SSeries) -> "PSeries":
        return cls(tuple(Poly.const(c) for c in f.coeffs), f.trunc_order)

    def coeff(self, k: int) -> Poly:
        if 0 <= k < len(self.coeffs):
            return self.coeffs[k]
        return Poly()

    def __add__(self, other: "PSeries") -> "PSeries":
        if not isinstance(other, PSeries):
            return NotImplemented
        n = min(self.trunc_order, other.trunc_order)
        return PSeries(tuple(self.coeff(k) + other.coeff(k) for k in range(n + 1)), n)

    def __sub__(self, other: "PSeries") -> "PSeries":
        if not isinstance(other, PSeries):
            return NotImplemented
        return self + (-other)

    def __neg__(self) -> "PSeries":
        return PSeries(tuple(-c for c in self.coeffs), self.trunc_order)

    def __mul__(self, other) -> "PSeries":
        if isinstance(other, PSeries):
            n = min(self.trunc_order, other.trunc_order)
            out = [Poly() for _ in range(n + 1)]
            for i in range(min(len(self.coeffs), n + 1)):
                a = self.coeffs[i]
                if a.is_zero():
                    continue
                for j in range(min(len(other.coeffs), n + 1 - i)):
                    out[i + j] = out[i + j] + a * other.coeffs[j]
            return PSeries(out, n)
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Poly):
            return self.scale_by_poly(other)
        return NotImplemented

    def __rmul__(self, other) -> "PSeries":
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        if isinstance(other, Poly):
            return self.scale_by_poly(other)
        return NotImplemented

    def scale(self, c: RatLike) -> "PSeries":
        c = rat(c)
        return PSeries(tuple(a.scale(c) for a in self.coeffs), self.trunc_order)

    def scale_by_poly(self, p: Poly) -> "PSeries":
        return PSeries(tuple(a * p for a in self.coeffs), self.trunc_order)

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

    def __hash__(self) -> int:
        return hash((self.coeffs, self.trunc_order))

    def agrees_with(self, other: "PSeries") -> bool:
        n = min(self.trunc_order, other.trunc_order)
        return all(self.coeff(k) == other.coeff(k) for k in range(n + 1))

    def __repr__(self) -> str:
        inner = ", ".join(str(c) for c in self.coeffs)
        return f"PSeries([{inner}], N={self.trunc_order})"


def exp_xt(trunc: int) -> PSeries:
    """exp(xt) truncated: coefficient of t^n is x^n/n!."""
    return PSeries(
        tuple(Poly.monomial(n, Rat(1, factorial(n))) for n in range(trunc + 1)), trunc
    )


def _exp_neg_xt(trunc: int) -> PSeries:
    """exp(-xt) truncated: coefficient of t^n is (-x)^n/n!."""
    return PSeries(
        tuple(Poly.monomial(n, Rat((-1) ** n, factorial(n))) for n in range(trunc + 1)), trunc
    )


def pseries_exp(u: PSeries) -> PSeries:
    """exp of a polynomial-coefficient series with zero constant coefficient.

    Since ord_t(u) >= 1, u^k contributes nothing below t^k and the sum
    over k <= trunc_order is exact.
    """
    if not u.coeff(0).is_zero():
        raise ValueError("series exponential requires zero constant coefficient")
    n = u.trunc_order
    out = PSeries.one(n)
    power = PSeries.one(n)
    for k in range(1, n + 1):
        power = power * u
        out = out + power.scale(Rat(1, factorial(k)))
    return out
