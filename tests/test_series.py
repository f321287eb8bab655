import random
from fractions import Fraction
from math import factorial

import pytest

from opcalc import (
    InvertError,
    POS_INF,
    Poly,
    ReverseError,
    SSeries,
    pseries_exp,
    rat,
)
from opcalc.series import PSeries, exp_x

from helpers import COEFFS, NONZERO, random_poly


def random_sseries(rng, trunc, unit=False, order_one=False):
    coeffs = [rng.choice(COEFFS) for _ in range(trunc + 1)]
    if unit:
        coeffs[0] = rng.choice(NONZERO)
    if order_one:
        coeffs[0] = Fraction(0)
        coeffs[1] = rng.choice(NONZERO)
    return SSeries(coeffs, trunc)


def test_invert_geometric():
    assert SSeries((1, -1), 3).invert() == SSeries((1, 1, 1, 1), 3)


def test_reverse_identity():
    assert SSeries.t(5).reverse() == SSeries.t(5)


def test_reverse_exp_minus_one_is_log():
    # coefficients of log(1+t), checked by composing back to t
    f = SSeries.exp_t(4) - SSeries.one(4)
    r = f.reverse()
    assert r == SSeries((0, 1, rat("-1/2"), rat("1/3"), rat("-1/4")), 4)
    assert f.compose(r) == SSeries.t(4)
    assert r.compose(f) == SSeries.t(4)


def test_invert_requires_unit():
    with pytest.raises(InvertError):
        SSeries((0, 1), 3).invert()


def test_reverse_requires_order_one():
    with pytest.raises(ReverseError):
        SSeries((1, 1), 3).reverse()
    with pytest.raises(ReverseError):
        SSeries((0, 0, 1), 3).reverse()


def test_order():
    assert SSeries((0, 0, 5), 4).order() == 2
    assert SSeries.zero(3).order() == POS_INF


def test_series_invert_property():
    rng = random.Random(11)
    for _ in range(40):
        f = random_sseries(rng, rng.randint(1, 8), unit=True)
        assert f * f.invert() == SSeries.one(f.trunc_order)


def test_series_reverse_involution():
    rng = random.Random(13)
    for _ in range(30):
        f = random_sseries(rng, rng.randint(2, 8), order_one=True)
        assert f.reverse().reverse() == f


def test_min_trunc_rule():
    a = SSeries((1, 1, 1), 2)
    b = SSeries((1, 2, 3, 4, 5), 4)
    assert (a + b).trunc_order == 2
    assert (a * b).trunc_order == 2


def test_derivative():
    f = SSeries((1, 1, rat("1/2"), rat("1/6")), 3)
    assert f.derivative() == SSeries((1, 1, rat("1/2")), 2)


def exp_xt(trunc):
    """exp(xt) through the exp(x g(t)) kernel, with g = t."""
    return PSeries(exp_x(SSeries.t(trunc), trunc), trunc)


def test_exp_xt():
    assert exp_x(SSeries.t(0), 0) == (Poly.one(),)
    assert exp_x(SSeries.t(2), 2) == (Poly.one(), Poly.monomial(1), Poly.monomial(2, rat("1/2")))
    assert exp_x(SSeries.t(4), 4)[4] == Poly.monomial(4, Fraction(1, 24))


def test_pseries_invert_exp():
    inv = exp_xt(2).invert()
    assert inv.coeffs == (Poly.one(), Poly.parse("-x"), Poly.parse("1/2*x^2"))


def test_pseries_exp_inverse_pair():
    n = 4
    neg = PSeries(
        tuple(Poly.monomial(k, Fraction((-1) ** k, factorial(k))) for k in range(n + 1)),
        n,
    )
    assert exp_xt(n) * neg == PSeries((Poly.one(),), n)


def test_pseries_invert_binomial_series():
    # (1+t)^x has coefficients C(x, n); its inverse is the series of (1+t)^(-x),
    # whose t^2 coefficient is C(-x, 2) = (x^2 + x)/2
    n = 2
    binom = PSeries(
        (Poly.one(), Poly.monomial(1), Poly.parse("1/2*x^2 - 1/2*x")), n
    )
    inv = binom.invert()
    assert inv.coeff(1) == Poly.parse("-x")
    assert inv.coeff(2) == Poly.parse("1/2*x^2 + 1/2*x")
    assert binom * inv == PSeries((Poly.one(),), n)


def test_pseries_invert_requires_unit_constant():
    with pytest.raises(InvertError):
        PSeries((Poly.parse("2"), Poly.one()), 1).invert()


def test_pseries_mul_assoc_comm():
    rng = random.Random(17)
    for _ in range(15):
        n = rng.randint(1, 4)
        a = PSeries(tuple(random_poly(rng, 2) for _ in range(n + 1)), n)
        b = PSeries(tuple(random_poly(rng, 2) for _ in range(n + 1)), n)
        c = PSeries(tuple(random_poly(rng, 2) for _ in range(n + 1)), n)
        assert a * b == b * a
        assert (a * b) * c == a * (b * c)


def test_pseries_exp_of_xt():
    # exp applied to the series x*t reproduces exp(xt)
    n = 5
    u = PSeries((Poly(), Poly.monomial(1)), n)
    want = tuple(Poly.monomial(k, Fraction(1, factorial(k))) for k in range(n + 1))
    assert pseries_exp(u).coeffs == want


def test_pseries_exp_rejects_constant_term():
    with pytest.raises(ValueError):
        pseries_exp(PSeries((Poly.one(),), 2))
