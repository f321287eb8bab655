"""Differential tests of the truncated series layer against sympy.

Every ``SSeries`` operation is recomputed with ``sympy.polys.ring_series``
over ``QQ``, which shares no code with opcalc: products with ``rs_mul``,
inverses with ``rs_series_inversion``, compositional inverses with
``rs_series_reversion`` and compositions with ``rs_series_from_list``.
Every result is also checked for its layout: a ``Poly`` prefix of degree
at most the truncation order, and ``coeffs`` as that prefix padded with
zeros to ``trunc_order + 1`` Fractions.  The ``PSeries`` operations
(product, inverse and ``pseries_exp``) are recomputed the same way in
``QQ[x, t]``, with ``rs_exp`` for the exponential.  Hypothesis runs
derandomized, so the examples are the same on every run.
"""

import random
from fractions import Fraction
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from sympy.polys.domains import QQ
from sympy.polys.ring_series import (
    rs_exp,
    rs_mul,
    rs_series_from_list,
    rs_series_inversion,
    rs_series_reversion,
)
from sympy.polys.rings import ring

from opcalc import POS_INF, Poly, SSeries, pseries_exp
from opcalc.errors import InvertError, ReverseError, TruncationError
from opcalc.series import PSeries, exp_x

R, T = ring("t", QQ)

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)

small = st.fractions(min_value=-40, max_value=40, max_denominator=12)
# Numerators and denominators beyond 2^64 force Kronecker digits wider
# than a machine word.
big = st.builds(Fraction, st.integers(-(2**90), 2**90), st.integers(1, 2**70))
coeff = st.one_of(small, small, big, st.just(Fraction(0)))
nonzero = st.one_of(small, big).filter(bool)


@st.composite
def series(draw, max_trunc=12, head=()):
    """A series truncated at 0..max_trunc; ``head`` strategies fix its first terms.

    The coefficient list may be shorter than the truncation order (an
    implicit zero tail) or longer (cut off by the constructor).
    """
    n = draw(st.integers(max(len(head) - 1, 0), max_trunc))
    cs = draw(st.lists(coeff, max_size=n + 3))
    cs[: len(head)] = [draw(s) for s in head]
    return SSeries(cs, n)


units = series(head=(nonzero,))
order_one = series(head=(st.just(Fraction(0)), nonzero))
inner = series(head=(st.just(Fraction(0)),))


def to_ring(f: SSeries):
    return R.from_dict(
        {(k,): QQ(c.numerator, c.denominator) for k, c in enumerate(f.coeffs) if c}
    )


def from_ring(p, trunc: int) -> SSeries:
    cs = [Fraction(0)] * (trunc + 1)
    for (k,), c in p.terms():
        if k <= trunc:
            cs[k] = Fraction(int(c.numerator), int(c.denominator))
    return SSeries(cs, trunc)


def assert_layout(f: SSeries) -> None:
    assert isinstance(f.poly, Poly)
    assert f.poly.degree <= f.trunc_order
    assert len(f.coeffs) == f.trunc_order + 1
    assert all(type(c) is Fraction for c in f.coeffs)
    assert f.coeffs == tuple(f.poly.coeff(k) for k in range(f.trunc_order + 1))


def check(result: SSeries, expected, trunc: int) -> None:
    assert_layout(result)
    assert result.trunc_order == trunc
    assert result == from_ring(expected, trunc)


@SETTINGS
@given(series(), series())
def test_mul_matches_rs_mul(f, g):
    n = min(f.trunc_order, g.trunc_order)
    check(f * g, rs_mul(to_ring(f), to_ring(g), T, n + 1), n)


@SETTINGS
@given(series(), series())
def test_add_sub_neg_match_ring(f, g):
    n = min(f.trunc_order, g.trunc_order)
    check(f + g, to_ring(f) + to_ring(g), n)
    check(f - g, to_ring(f) - to_ring(g), n)
    check(-f, -to_ring(f), f.trunc_order)


@SETTINGS
@given(units)
def test_invert_matches_rs_series_inversion(f):
    n = f.trunc_order
    check(f.invert(), rs_series_inversion(to_ring(f), T, n + 1), n)


@SETTINGS
@given(order_one)
def test_reverse_matches_rs_series_reversion(f):
    n = f.trunc_order
    check(f.reverse(), rs_series_reversion(to_ring(f), T, n + 1, T), n)


@SETTINGS
@given(series(), inner)
def test_compose_matches_rs_series_from_list(f, g):
    n = min(f.trunc_order, g.trunc_order)
    outer = [QQ(c.numerator, c.denominator) for c in f.coeffs[: n + 1]]
    check(f.compose(g), rs_series_from_list(to_ring(g), outer, T, n + 1), n)


@SETTINGS
@given(series())
def test_derivative_matches_ring(f):
    if f.trunc_order == 0:
        with pytest.raises(TruncationError):
            f.derivative()
        return
    check(f.derivative(), to_ring(f).diff(T), f.trunc_order - 1)


@SETTINGS
@given(series(), st.integers(0, 12))
def test_eq_and_hash_agree_across_construction_paths(f, m):
    n = f.trunc_order
    m = min(m, n)
    built = SSeries(f.coeffs[: m + 1], m)
    for other in (f.truncate(m), SSeries.from_poly(f.poly, m), built):
        assert_layout(other)
        assert other == built
        assert hash(other) == hash(built)
    assert SSeries.from_poly(f.poly, n) == f
    assert hash(SSeries.from_poly(f.poly, n)) == hash(f)


@pytest.mark.parametrize("n", [0, 1])
def test_low_truncation_orders(n):
    f = SSeries((3, 5, 7), n)
    assert f.coeffs == (Fraction(3), Fraction(5))[: n + 1]
    assert f.invert() == SSeries((Fraction(1, 3), Fraction(-5, 9))[: n + 1], n)
    assert (f * f).coeffs == (Fraction(9), Fraction(30))[: n + 1]
    assert f.compose(SSeries.t(n)) == f
    if n == 0:
        with pytest.raises(ReverseError):
            SSeries((0, 5), 0).reverse()
    else:
        assert SSeries((0, 5), 1).reverse() == SSeries((0, Fraction(1, 5)), 1)


def test_all_zero_prefix():
    zero = SSeries.zero(6)
    g = SSeries((2, -1, 0, 4), 6)
    assert zero.coeffs == (Fraction(0),) * 7
    assert zero.is_zero_prefix() and zero.order() == POS_INF
    assert zero == SSeries((0, 0, 0), 6) == SSeries.from_poly(Poly(), 6)
    assert zero * g == zero and zero + g == g
    assert zero.compose(SSeries.t(6)) == zero
    assert g.compose(zero) == SSeries((2,), 6)
    with pytest.raises(InvertError):
        zero.invert()
    with pytest.raises(ReverseError):
        zero.reverse()


def test_mixed_truncation_orders_take_the_shorter():
    f = SSeries((1, 2, 3, 4, 5, 6), 5)
    g = SSeries((1, 1), 2)
    for h in (f * g, g * f, f + g, f - g, f.compose(SSeries((0, 1, 1), 2))):
        assert h.trunc_order == 2
        assert len(h.coeffs) == 3
    assert (f * g).coeffs == (Fraction(1), Fraction(3), Fraction(5))


def scaled_exp_symbol(n: int) -> SSeries:
    """2 (e^(t/2) - 1), whose coefficients have factorial denominators."""
    return SSeries([0] + [Fraction(2, 2**k * factorial(k)) for k in range(1, n + 1)], n)


def cubic_symbol(n: int) -> SSeries:
    """t + t^2/3 - 2 t^3 + c t^4 with c past 2^64, read as a series."""
    return SSeries.from_poly(Poly((0, 1, Fraction(1, 3), -2, Fraction(2**70 + 1, 3**45))), n)


@pytest.mark.parametrize("n", [16, 32, 64])
@pytest.mark.parametrize("symbol", [scaled_exp_symbol, cubic_symbol])
def test_compose_with_reverse_is_identity(n, symbol):
    f = symbol(n)
    r = f.reverse()
    assert r.trunc_order == n
    assert f.compose(r) == SSeries.t(n)
    assert r.compose(f) == SSeries.t(n)


# -- PSeries: polynomial coefficients in x --------------------------------

R2, X2, T2 = ring("x,t", QQ)

x_poly = st.lists(coeff, max_size=4).map(Poly)


@st.composite
def pseries(draw, max_trunc=8, head=()):
    """A PSeries truncated at 0..max_trunc, with x-degree at most 3 per term."""
    n = draw(st.integers(max(len(head) - 1, 0), max_trunc))
    cs = draw(st.lists(x_poly, max_size=n + 3))
    cs[: len(head)] = [draw(s) for s in head]
    return PSeries(cs, n)


def to_ring2(f: PSeries):
    return R2.from_dict(
        {
            (i, k): QQ(c.numerator, c.denominator)
            for k, p in enumerate(f.coeffs)
            for i, c in enumerate(p.coeffs)
            if c
        }
    )


def from_ring2(p, trunc: int) -> PSeries:
    rows = [[Fraction(0)] * (max(p.degree(X2), 0) + 1) for _ in range(trunc + 1)]
    for (i, k), c in p.terms():
        if k <= trunc:
            rows[k][i] = Fraction(int(c.numerator), int(c.denominator))
    return PSeries(tuple(Poly(r) for r in rows), trunc)


def check_p(result: PSeries, expected, trunc: int) -> None:
    assert result.trunc_order == trunc
    assert len(result.coeffs) == trunc + 1
    assert all(isinstance(c, Poly) for c in result.coeffs)
    assert result == from_ring2(expected, trunc)


@SETTINGS
@given(pseries(), pseries())
def test_pseries_mul_matches_rs_mul(f, g):
    n = min(f.trunc_order, g.trunc_order)
    check_p(f * g, rs_mul(to_ring2(f), to_ring2(g), T2, n + 1), n)


@SETTINGS
@given(pseries(head=(st.just(Poly.one()),)))
def test_pseries_invert_matches_rs_series_inversion(f):
    n = f.trunc_order
    check_p(f.invert(), rs_series_inversion(to_ring2(f), T2, n + 1), n)


@SETTINGS
@given(pseries(head=(st.just(Poly()),)))
def test_pseries_exp_matches_rs_exp(f):
    n = f.trunc_order
    check_p(pseries_exp(f), rs_exp(to_ring2(f), T2, n + 1), n)


def dense_pseries(n: int, head: Poly, seed: int) -> PSeries:
    """``head`` then n quadratics in x with every coefficient nonzero."""
    rng = random.Random(seed)

    def pick():
        return Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))

    return PSeries((head, *(Poly([pick(), pick(), pick()]) for _ in range(n))), n)


@pytest.mark.parametrize("n", [7, 12])
def test_pseries_dense_operands_match_ring(n):
    # Every index pair of the O(N^2) loops meets nonzero terms, which the
    # mostly sparse Hypothesis draws above rarely reach.
    f = dense_pseries(n, Poly.const(3), seed=n)
    g = dense_pseries(n, Poly(), seed=n + 100)
    unit = dense_pseries(n, Poly.one(), seed=n + 200)
    check_p(f * g, rs_mul(to_ring2(f), to_ring2(g), T2, n + 1), n)
    check_p(unit.invert(), rs_series_inversion(to_ring2(unit), T2, n + 1), n)
    check_p(pseries_exp(g), rs_exp(to_ring2(g), T2, n + 1), n)


@pytest.mark.parametrize("n", [0, 1, 16])
@pytest.mark.parametrize("sign", [1, -1])
def test_exp_x_kernel_matches_exp_of_plus_minus_xt(n, sign):
    g = SSeries.t(n).scale(sign)
    got = exp_x(g, n)
    want = tuple(Poly.monomial(k, Fraction(sign**k, factorial(k))) for k in range(n + 1))
    assert got == want
    assert PSeries(got, n) == from_ring2(rs_exp(sign * X2 * T2, T2, n + 1), n)
