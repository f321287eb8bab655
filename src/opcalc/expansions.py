"""Expansion of arbitrary linear operators with multiplication on the left.

Every linear operator Q on polynomials has a unique expansion
``Q = sum_n a_n(X) B^n`` for any degree-reducing B; for B = D the
coefficient polynomials come from multiplying the transformed exponential
kernel by its inverse, and for general B from dividing by the divided-power
generating function.  Applied to a polynomial, only finitely many terms of
the sum act nonzero, so reconstruction is exact.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial
from typing import Sequence

from .errors import NotDegreeReducing, TruncationError
from .operators import D, Delta, OpExpr, OpTable
from .poly import NEG_INF, Poly, Rat, RatLike, combine, coordinates
from .series import PSeries, _exp_neg_xt


@dataclass(frozen=True)
class DividedPowerBasis:
    """The unique b_0..b_N with B b_n = b_(n-1), b_n(0) = delta_n0, b_0 = 1."""

    operator: OpExpr
    polys: tuple
    tag: str = "B"

    @property
    def trunc_order(self) -> int:
        return len(self.polys) - 1

    def poly(self, n: int) -> Poly:
        return self.polys[n]


@dataclass(frozen=True)
class XDExpansion:
    """Truncated expansion sum_n a_n(X) B^n, correct on degree <= trunc_order."""

    terms: tuple
    trunc_order: int
    basis: OpExpr
    basis_tag: str = "D"

    def term(self, n: int) -> Poly:
        return self.terms[n] if 0 <= n < len(self.terms) else Poly()

    def __sub__(self, other: "XDExpansion") -> "XDExpansion":
        n = min(self.trunc_order, other.trunc_order)
        return XDExpansion(
            tuple(self.term(k) - other.term(k) for k in range(n + 1)),
            n,
            self.basis,
            self.basis_tag,
        )

    def is_zero(self) -> bool:
        return all(t.is_zero() for t in self.terms)


def _degree_reducing_images(B: OpExpr, M: int) -> list:
    """B x^1..B x^M, or NotDegreeReducing unless B kills constants and
    drops the degree of each of these monomials by exactly one."""
    row = OpTable(B).row
    if not row(0).is_zero():
        raise NotDegreeReducing("operator does not annihilate constants", degree=0)
    images = []
    for n in range(1, M + 1):
        img = row(n)
        if img.degree != n - 1:
            raise NotDegreeReducing(
                f"deg(B x^{n}) = {img.degree}, expected {n - 1}", degree=n
            )
        images.append(img)
    return images


def degree_reducing_check(B: OpExpr, N: int) -> bool:
    """True iff B drops degree by exactly one on x^1..x^N and kills constants."""
    try:
        _degree_reducing_images(B, N)
    except NotDegreeReducing:
        return False
    return True


def divided_power_basis(B: OpExpr, N: int, tag: str | None = None) -> DividedPowerBasis:
    """Construct the divided power sequence of B up to index N.

    Checks that B is degree-reducing through degree N+1, then solves
    B b_n = b_(n-1) with b_n(0) = 0 as the coordinates of b_(n-1) in the
    images B x^1, B x^2, ...; B x^j having degree exactly j-1 makes that
    basis triangular, so the solution is exact and unique.
    """
    images = _degree_reducing_images(B, N + 1)
    polys = [Poly.one()]
    for _ in range(N):
        polys.append(Poly([0, *coordinates(polys[-1], images.__getitem__)]))
    if tag is None:
        tag = {D(): "D", Delta(): "Delta"}.get(B, "B")
    return DividedPowerBasis(B, tuple(polys), tag)


def _xd_terms(row, N: int) -> tuple:
    """a_0..a_N of sum_n a_n(x) D^n for the operator with rows Q x^j = row(j):
    the t^n coefficients of (sum_j row(j) t^j / j!) exp(-xt)."""
    rows = PSeries(tuple(row(j).scale(Rat(1, factorial(j))) for j in range(N + 1)), N)
    return (rows * _exp_neg_xt(N)).coeffs


def xd_expand(Q: OpExpr, N: int) -> XDExpansion:
    """Expansion of Q in X and D: a_n(x) from Q exp(xt) times exp(-xt)."""
    return XDExpansion(_xd_terms(OpTable(Q).row, N), N, D(), "D")


def xb_expand(Q: OpExpr, basis: DividedPowerBasis, N: int) -> XDExpansion:
    """Expansion of Q in X and the basis operator B: divide Q b(x,t) by b(x,t)."""
    if N > basis.trunc_order:
        raise TruncationError(
            f"basis truncated at {basis.trunc_order} cannot support order {N}"
        )
    qb = PSeries(tuple(Q.apply(basis.poly(n)) for n in range(N + 1)), N)
    product = qb * PSeries(basis.polys[: N + 1], N).invert()
    return XDExpansion(product.coeffs, N, basis.operator, basis.tag)


def xd_apply(expansion: XDExpansion, p: Poly, strict: bool = False) -> Poly:
    """Evaluate sum_n a_n(x) (B^n p); the sum is finite and exact.

    With strict=True, refuse polynomials whose degree exceeds the
    truncation order (the expansion would not reproduce its source there).
    """
    deg = p.degree
    if strict and deg is not NEG_INF and deg > expansion.trunc_order:
        raise TruncationError(
            f"expansion of order {expansion.trunc_order} is not certified on "
            f"degree {deg}"
        )
    out = Poly()
    bk = p
    for n in range(expansion.trunc_order + 1):
        a = expansion.term(n)
        if not a.is_zero() and not bk.is_zero():
            out = out + a * bk
        if bk.is_zero():
            break
        bk = expansion.basis.apply(bk)
    return out


def basis_change(p_or_coeffs, basis: DividedPowerBasis, direction: str):
    """Triangular change of basis between monomials and divided powers.

    ``to_basis`` takes a Poly and returns rational coordinates c with
    p = sum c_n b_n; ``to_monomial`` inverts, taking the coordinate
    sequence back to a Poly.  Round-trips are exact.
    """
    if direction == "to_basis":
        p = p_or_coeffs
        if not isinstance(p, Poly):
            raise TypeError("to_basis expects a Poly")
        if p.degree > basis.trunc_order:
            raise TruncationError(
                f"basis truncated at {basis.trunc_order} cannot express degree {p.degree}"
            )
        return coordinates(p, basis.poly)
    if direction == "to_monomial":
        coeffs: Sequence[RatLike] = p_or_coeffs
        if len(coeffs) > basis.trunc_order + 1:
            raise TruncationError(
                f"basis truncated at {basis.trunc_order} has no index "
                f"{len(coeffs) - 1}"
            )
        return combine(coeffs, basis.poly)
    raise ValueError(f"unknown direction {direction!r}")


def render_expansion(expansion: XDExpansion) -> str:
    """Text form 'a_0(x) + a_1(x)*B + a_2(x)*B^2 + ...' in canonical Poly text."""
    tag = expansion.basis_tag
    if not tag.isalnum():
        tag = f"({tag})"
    parts = []
    for n, a in enumerate(expansion.terms):
        if a.is_zero():
            continue
        body = str(a)
        if " " in body or (n > 0 and ("+" in body or "-" in body)):
            body = f"({body})"
        if n == 0:
            parts.append(body)
            continue
        power = tag if n == 1 else f"{tag}^{n}"
        parts.append(power if body == "1" else f"{body}*{power}")
    return " + ".join(parts) if parts else "0"
