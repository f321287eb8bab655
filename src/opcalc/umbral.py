"""Delta operators and their umbral companions.

A delta operator is a shift-invariant degree reducer, always f(D) with a
series symbol of order exactly 1.  Attached to it are three polynomial
families: the divided powers b_n (P b_n = b_(n-1), b_n(0) = delta_n0),
the basic family n! b_n, and the conjugate family.  Both generating
functions are exponentials: sum b_n t^n = exp(x q(t)) with q the
compositional inverse of f, and the conjugates come from exp(x f(t)).

The umbral operator sends the basic family to the monomials, which on
the monomial side is the linear extension of x^k -> conjugate_k.  The
umbral shift sends divided powers up one index with weight n+1; it is
X composed with the inverse Pincherle derivative (Rodrigues' form), and
commuting the X across gives its two-term DX form, so X never appears
with exponent above one.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from math import factorial
from operator import getitem
from typing import Callable

from .dx import ConvergenceCertificate, DXExpansion, dx_convergence_check
from .errors import NotDelta, NotDXEligible, TruncationError
from .expansions import XDExpansion
from .operators import Compose, D, OpExpr, OpTable, SeriesInD, X
from .poly import NEG_INF, Poly, Rat, combine, coordinates
from .series import SSeries, exp_x


@dataclass(frozen=True)
class DeltaOp:
    """A delta operator carried as its (truncated) series symbol in D."""

    f: SSeries

    @property
    def trunc_order(self) -> int:
        return self.f.trunc_order

    @property
    def slope(self) -> Rat:
        """f'(0), which is the constant polynomial P x."""
        return self.f.coeff(1)

    def as_op(self) -> OpExpr:
        return SeriesInD(self.f)

    def apply(self, p: Poly) -> Poly:
        return self.as_op().apply(p)


@dataclass(frozen=True)
class PolySequence:
    kind: str  # "divided_power" | "basic" | "conjugate"
    polys: tuple
    source: DeltaOp

    def poly(self, n: int) -> Poly:
        return self.polys[n]


def delta_from_series(f: SSeries) -> DeltaOp:
    """Wrap a series symbol, insisting on order exactly 1 within truncation."""
    if f.trunc_order < 1:
        raise TruncationError(
            f"symbol truncated at {f.trunc_order} cannot certify order exactly 1"
        )
    if f.coeff(0) != 0 or f.coeff(1) == 0:
        raise NotDelta("delta operator requires a symbol of order exactly 1")
    return DeltaOp(f)


def _divided_powers(P: DeltaOp, N: int) -> tuple:
    """b_0..b_N, the coefficients of exp(x q(t)) with q the inverse symbol."""
    if P.trunc_order < N + 1:
        raise TruncationError(
            f"symbol truncated at {P.trunc_order} cannot certify divided powers "
            f"to index {N}"
        )
    return exp_x(P.f.truncate(N + 1).reverse(), N)


def conjugate_polys(P: DeltaOp, N: int) -> tuple:
    """Conjugate family: coefficients of exp(x f(t)) scaled by k!."""
    if P.trunc_order < N:
        raise TruncationError(
            f"symbol truncated at {P.trunc_order} cannot produce conjugates to {N}"
        )
    return tuple(c.scale(factorial(k)) for k, c in enumerate(exp_x(P.f, N)))


def sequences(P: DeltaOp, N: int) -> tuple:
    """The divided power and conjugate sequences of P, up to index N."""
    divided = PolySequence("divided_power", _divided_powers(P, N), P)
    conjugate = PolySequence("conjugate", conjugate_polys(P, N), P)
    return divided, conjugate


def basic_sequence(P: DeltaOp, N: int) -> PolySequence:
    """The basic family n! b_n(x)."""
    divided = _divided_powers(P, N)
    return PolySequence(
        "basic", tuple(b.scale(factorial(n)) for n, b in enumerate(divided)), P
    )


def _family_table(family: Callable, last: int, row: Callable) -> OpTable:
    """Rows Q x^n = row(family(m), n) of an operator read off one family.

    family(m) builds what rows 0..m need, at the first read past the built
    m, to max(n, 2m) capped at ``last``: rows 0..n read in order build it
    O(log n) times, never past 2n.  Past ``last``, family(n) raises.
    """
    built = [-1, ()]

    def read(n: int) -> Poly:
        if n > built[0]:
            m = n if n > last else min(max(n, 2 * built[0]), last)
            built[:] = m, family(m)
        return row(built[1], n)

    return OpTable(read)


def umbral_op_apply(P: DeltaOp, p: Poly) -> Poly:
    """The umbral operator of P: the linear extension of x^k -> conjugate_k."""
    deg = p.degree
    if deg is NEG_INF:
        return Poly()
    return combine(p.coeffs, conjugate_polys(P, int(deg)).__getitem__)


def umbral_op_xd(P: DeltaOp, N: int) -> XDExpansion:
    """XD form of the umbral operator: sum_k X^k (P - D)^k / k!.

    Collecting by D-power this is exactly the coefficient family of
    exp(x (f(t) - t)), which is how it is computed.
    """
    if P.trunc_order < N:
        raise TruncationError(
            f"symbol truncated at {P.trunc_order} cannot expand to order {N}"
        )
    return XDExpansion(exp_x(P.f - SSeries.t(P.f.trunc_order), N), N, D(), "D")


def umbral_op_dx(P: DeltaOp, K: int) -> DXExpansion:
    """DX form of the umbral operator: sum_k q'(D) (t - q)(D)^k X^k / k!,
    with q the compositional inverse of P's symbol.

    Exists exactly when P x = 1; then ord(q'(t-q)^k) = 2k makes the
    margins grow linearly and the sum converges.  Any other slope is
    refused: the operator's central diagonal is then slope^n, not
    polynomial.  Using the inverse symbol (rather than the symbol itself)
    is what makes the expansion match the conjugate-sequence action; the
    same coefficients built from the symbol directly give the inverse
    umbral operator instead.
    """
    if P.slope != 1:
        raise NotDXEligible(
            f"umbral operator with P x = {P.slope} != 1 has no DX-expansion"
        )
    q = P.f.reverse()
    qp = q.derivative()
    r = SSeries.t(q.trunc_order) - q
    terms = []
    rk = SSeries.one(q.trunc_order)
    for k in range(K + 1):
        terms.append((qp * rk).scale(Rat(1, factorial(k))))
        if k < K:
            rk = rk * r
    verdict = dx_convergence_check([(k, f.order()) for k, f in enumerate(terms)])
    if not verdict.certified:
        raise AssertionError("umbral DX margins failed to certify (internal error)")
    return DXExpansion(
        terms=tuple(terms),
        complete=False,
        certificate=verdict.certificate,
        source=_family_table(partial(conjugate_polys, P), P.trunc_order, getitem),
    )


def pincherle_derivative(f: SSeries) -> SSeries:
    """Symbol of P X - X P for P = f(D): the formal derivative f'."""
    return f.derivative()


def umbral_shift_apply(P: DeltaOp, p: Poly) -> Poly:
    """Defining action of the umbral shift: b_n -> (n+1) b_(n+1), extended linearly."""
    deg = p.degree
    if deg is NEG_INF:
        return Poly()
    return _raise_index(p, _divided_powers(P, int(deg) + 1))


def _raise_index(p: Poly, b: tuple) -> Poly:
    """The umbral shift of p, given divided powers b through index deg(p) + 1."""
    coords = coordinates(p, b.__getitem__)
    return combine([c * (n + 1) for n, c in enumerate(coords)], lambda n: b[n + 1])


def rodrigues_xd(P: DeltaOp, N: int) -> XDExpansion:
    """Umbral shift as X times the inverse Pincherle derivative.

    The single X power sits outside a pure series in D, so every term of
    the XD form is x times a scalar.
    """
    if P.trunc_order < N + 1:
        raise TruncationError(
            f"symbol truncated at {P.trunc_order} cannot expand the shift to {N}"
        )
    g = P.f.derivative().invert()
    terms = tuple(Poly.monomial(1, g.coeff(j)) for j in range(N + 1))
    return XDExpansion(terms, N, D(), "D")


def umbral_shift_as_op(P: DeltaOp) -> OpExpr:
    """Operator view X ∘ (1/P')(D) of the umbral shift."""
    return Compose(X(), SeriesInD(P.f.derivative().invert()))


def umbral_shift_dx(P: DeltaOp, N: int) -> DXExpansion:
    """Two-term DX form of the umbral shift: (1/P') X + P''/(P')^2.

    X appears with exponent at most one, so the expansion is complete and
    finite.
    """
    if P.trunc_order < N + 2:
        raise TruncationError(
            f"symbol truncated at {P.trunc_order} cannot certify the shift to {N}"
        )
    fp = P.f.derivative()
    f1 = fp.invert()
    f0 = fp.derivative() * f1 * f1
    return DXExpansion(
        terms=(f0, f1),
        complete=True,
        certificate=ConvergenceCertificate(
            "finite", tuple((k, f.order()) for k, f in enumerate((f0, f1)))
        ),
        source=_family_table(lambda n: _divided_powers(P, n + 1), P.trunc_order - 2,
                             lambda b, n: _raise_index(Poly.monomial(n), b)),
    )


def delta_inverse(P: DeltaOp) -> DeltaOp:
    """The delta operator whose symbol is the compositional inverse of P's."""
    return DeltaOp(P.f.reverse())


def endomorphism_xd(q: Poly, N: int) -> XDExpansion:
    """XD form of p -> p(q(x)): the Taylor-like sum_k (q(X) - X)^k D^k / k!."""
    diff = q - Poly.monomial(1)
    terms = []
    power = Poly.one()
    for n in range(N + 1):
        terms.append(power.scale(Rat(1, factorial(n))))
        if n < N:
            power = power * diff
    return XDExpansion(tuple(terms), N, D(), "D")
