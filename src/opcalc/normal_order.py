"""Normal ordering of words in D and X.

The commutator DX - XD is the identity, which yields closed rewriting
rules between the two orderings of a word:

    D^j X^i = sum_k (i)_k (j)_k X^(i-k) D^(j-k) / k!
    X^i D^j = sum_k (-1)^k (i)_k (j)_k D^(j-k) X^(i-k) / k!

with (m)_k the falling factorial.  Both sums stop at k = min(i, j).
The same rules extend linearly to f(D) p(X) products.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import factorial

from .errors import TruncationError
from .operators import Add, Compose, Identity, OpExpr, PolyInX, Scale, SeriesInD
from .poly import NEG_INF, Poly, Rat, falling_factorial_at
from .series import SSeries


def normal_order_DjXi(j: int, i: int) -> list:
    """XD-normal form of the word D^j X^i as (coef, x_pow, d_pow) triples."""
    if j < 0 or i < 0:
        raise ValueError("word exponents must be nonnegative")
    out = []
    for k in range(min(i, j) + 1):
        coef = falling_factorial_at(i, k) * falling_factorial_at(j, k) / factorial(k)
        out.append((coef, i - k, j - k))
    return out


def normal_order_XiDj(i: int, j: int) -> list:
    """DX-normal form of the word X^i D^j as (coef, d_pow, x_pow) triples.

    The rule of D^j X^i with the letters swapped and the k-th term signed
    (-1)^k, where k = i - x_pow.
    """
    return [
        (c if (i - xp) % 2 == 0 else -c, dp, xp) for c, xp, dp in normal_order_DjXi(j, i)
    ]


def word_apply(d_pow: int, x_pow: int, p: Poly, d_on_left: bool) -> Poly:
    """Apply a single word to p directly: D^d X^x p when d_on_left, else X^x D^d p."""
    if d_on_left:
        q = Poly.monomial(x_pow) * p
        for _ in range(d_pow):
            q = q.derivative()
        return q
    q = p
    for _ in range(d_pow):
        q = q.derivative()
    return Poly.monomial(x_pow) * q


@dataclass(frozen=True)
class MixedForm:
    """An ordered operator sum: XD pairs (poly, series) mean sum a(X) g(D),
    DX pairs (series, poly) mean sum g(D) a(X)."""

    direction: str  # "XD" or "DX"
    pairs: tuple

    def as_op(self, exact: bool = False) -> OpExpr:
        terms = []
        for first, second in self.pairs:
            if self.direction == "XD":
                poly, series = first, second
                terms.append(Compose(PolyInX(poly), SeriesInD(series, exact=exact)))
            else:
                series, poly = first, second
                terms.append(Compose(SeriesInD(series, exact=exact), PolyInX(poly)))
        if not terms:
            return Scale(Rat(0), Identity())
        return Add(tuple(terms)) if len(terms) > 1 else terms[0]


def reorder_product(f: SSeries, p: Poly, direction: str) -> MixedForm:
    """Reorder f(D)p(X) into XD form, or p(X)f(D) into DX form.

    The sum runs over k <= deg(p) because higher derivatives of p vanish:

        f(D)p(X) = sum_k p^(k)(X) f^(k)(D) / k!
        p(X)f(D) = sum_k (-1)^k f^(k)(D) p^(k)(X) / k!
    """
    if direction not in ("fD_pX_to_XD", "pX_fD_to_DX"):
        raise ValueError(f"unknown direction {direction!r}")
    deg = p.degree
    kmax = 0 if deg is NEG_INF else int(deg)
    if f.trunc_order < kmax:
        raise TruncationError(
            f"series truncated at {f.trunc_order} is too short to reorder against "
            f"degree {deg}"
        )
    pairs = []
    pk = p
    fk = f
    for k in range(kmax + 1):
        if not pk.is_zero():
            if direction == "fD_pX_to_XD":
                pairs.append((pk.scale(Rat(1, factorial(k))), fk))
            else:
                pairs.append((fk.scale(Rat((-1) ** k, factorial(k))), pk))
        if k < kmax:
            pk = pk.derivative()
            fk = fk.derivative()
    return MixedForm("XD" if direction == "fD_pX_to_XD" else "DX", tuple(pairs))
