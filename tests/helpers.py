"""Shared generators for randomized identity tests.

Everything is seeded, so failures reproduce; coefficients are small
rationals to keep exact arithmetic fast.
"""

import random
from fractions import Fraction

from opcalc import (
    D,
    Delta,
    DiagonalFit,
    Eval0,
    Identity,
    J,
    Poly,
    PolyInX,
    SeriesInD,
    Shift,
    SSeries,
    Substitute,
    X,
    binomial_poly,
    rat,
)
from opcalc.poly import combine

COEFFS = [Fraction(n, d) for n in range(-3, 4) for d in (1, 2, 3)]
NONZERO = [c for c in COEFFS if c != 0]


def random_poly(rng: random.Random, max_deg: int, nonzero: bool = False) -> Poly:
    deg = rng.randint(0, max_deg)
    coeffs = [rng.choice(COEFFS) for _ in range(deg + 1)]
    p = Poly(coeffs)
    if nonzero and p.is_zero():
        return Poly.monomial(deg, rng.choice(NONZERO))
    return p


def random_atom(rng: random.Random):
    kind = rng.randrange(8)
    if kind == 0:
        return D()
    if kind == 1:
        return X()
    if kind == 2:
        return J()
    if kind == 3:
        return Delta()
    if kind == 4:
        return Shift(rng.choice(NONZERO))
    if kind == 5:
        return PolyInX(random_poly(rng, 2))
    if kind == 6:
        return Substitute(random_poly(rng, 2, nonzero=True))
    tpoly = random_poly(rng, 3)
    trunc = max(int(tpoly.degree), 0) if not tpoly.is_zero() else 0
    return SeriesInD(SSeries.from_poly(tpoly, trunc), exact=True)


def random_wide_atom(rng: random.Random):
    """random_atom, or Eval0, I, or a series in D that is not exact."""
    kind = rng.randrange(11)
    if kind == 8:
        return Eval0()
    if kind == 9:
        return Identity()
    if kind == 10:
        trunc = rng.randint(1, 6)
        return SeriesInD(SSeries([rng.choice(COEFFS) for _ in range(trunc + 1)], trunc))
    return random_atom(rng)


def random_operator(rng: random.Random, depth: int = 2, atom=random_atom):
    """Random expression tree over ``atom``; with random_atom, exact at any degree."""
    if depth == 0 or rng.random() < 0.4:
        return atom(rng)
    kind = rng.randrange(3)
    if kind == 0:
        return random_operator(rng, depth - 1, atom) + random_operator(rng, depth - 1, atom)
    if kind == 1:
        return random_operator(rng, depth - 1, atom) * random_operator(rng, depth - 1, atom)
    return rng.choice(NONZERO) * random_operator(rng, depth - 1, atom)


def sampled_shift_invariance(Q, N: int, samples=(1, -1, 2, Fraction(1, 2))) -> bool:
    """Reference check: Q E^a x^n == E^a Q x^n for each sampled shift a and n <= N.

    Commuting with one translation E^a, a != 0, on x^0..x^n is commuting
    with D there (E^a - I is a delta operator), so any nonzero samples give
    the verdict of the exact row test, at 4(N + 1) more applications of Q.
    """
    for n in range(N + 1):
        xn = Poly.monomial(n)
        qxn = Q.apply(xn)
        for a in samples:
            if Q.apply(xn.shift(a)) != qxn.shift(a):
                return False
    return True


def random_dx_atom(rng: random.Random):
    """Atoms whose diagonals are polynomial: DX-operators by construction."""
    kind = rng.randrange(5)
    if kind == 0:
        return D()
    if kind == 1:
        return X()
    if kind == 2:
        return Shift(rng.choice([Fraction(1), Fraction(-1), Fraction(2), Fraction(1, 2)]))
    if kind == 3:
        return PolyInX(random_poly(rng, 2, nonzero=True))
    tpoly = random_poly(rng, 3, nonzero=True)
    trunc = max(int(tpoly.degree), 0)
    return SeriesInD(SSeries.from_poly(tpoly, trunc), exact=True)


def random_dx_operator(rng: random.Random):
    """A DX-operator: an atom, a sum, a scalar multiple, or one composition."""
    kind = rng.randrange(4)
    if kind == 0:
        return random_dx_atom(rng)
    if kind == 1:
        return random_dx_atom(rng) + random_dx_atom(rng)
    if kind == 2:
        return rng.choice(NONZERO) * random_dx_atom(rng)
    return random_dx_atom(rng) * random_dx_atom(rng)


def reference_fit_diagonal(t: int, samples, n_max: int, slack: int) -> DiagonalFit:
    """Reference fit: build every difference level up to n_max - slack, then scan.

    The first all-zero level is the fitted degree plus one; its heads give
    the Newton form.  Slower than ``fit_diagonal`` on windows that vanish
    early, and independent of its early stop.
    """
    samples = tuple(rat(s) for s in samples)
    levels = [list(samples)]
    for _ in range(n_max - slack):
        prev = levels[-1]
        levels.append([prev[i + 1] - prev[i] for i in range(len(prev) - 1)])
    for m, level in enumerate(levels):
        if all(v == 0 for v in level):
            break
    else:
        return DiagonalFit(t, samples, "not_polynomial", None, n_max, slack)
    if m == 0:
        return DiagonalFit(t, samples, "identically_zero", Poly(), n_max, slack)
    poly = combine([level[0] for level in levels[:m]], binomial_poly)
    return DiagonalFit(t, samples, "polynomial", poly, n_max, slack)
