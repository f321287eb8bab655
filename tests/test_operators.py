import random
from math import factorial

import pytest

from opcalc import (
    D,
    Delta,
    Eval0,
    Identity,
    J,
    OpTable,
    Poly,
    PolyInX,
    SeriesInD,
    Shift,
    SSeries,
    Substitute,
    TruncationError,
    X,
    d_expand,
    op_equal_upto,
    rat,
    shift_invariance_check,
)

from helpers import random_operator, random_poly, random_wide_atom, sampled_shift_invariance


def test_apply_examples():
    assert J().apply(Poly.monomial(2)) == Poly.parse("1/3*x^3")
    assert Delta().apply(Poly.monomial(2)) == Poly.parse("2*x + 1")
    assert Eval0().apply(Poly.parse("x^2 - 1/2")) == Poly.parse("-1/2")
    assert Substitute(Poly.parse("x^2")).apply(Poly.parse("x + 1")) == Poly.parse("x^2 + 1")


def test_shift_integral_commutator():
    # E^1 J - J E^1 sends p to the constant integral of p over [0, 1];
    # on p = x both compositions evaluate by hand to x^2/2 + x + 1/2 and
    # x^2/2 + x, leaving 1/2.
    Q = Shift(1) * J() - J() * Shift(1)
    assert Q.apply(Poly.monomial(1)) == Poly.parse("1/2")
    assert (Shift(1) * J()).apply(Poly.monomial(1)) == Poly.parse("1/2*x^2 + x + 1/2")
    assert (J() * Shift(1)).apply(Poly.monomial(1)) == Poly.parse("1/2*x^2 + x")


def test_linearity_random():
    rng = random.Random(23)
    for _ in range(30):
        Q = random_operator(rng)
        a, b = rat(rng.randint(-3, 3)), rat(f"{rng.randint(1, 5)}/2")
        p, r = random_poly(rng, 5), random_poly(rng, 5)
        lhs = Q.apply(p.scale(a) + r.scale(b))
        rhs = Q.apply(p).scale(a) + Q.apply(r).scale(b)
        assert lhs == rhs


def test_table_rows_and_cache():
    T = OpTable(Delta())
    assert T.row(3) == Poly.parse("3*x^2 + 3*x + 1")
    assert T.row(3) == Poly.parse("3*x^2 + 3*x + 1")  # served from cache
    cold = OpTable(Delta())
    for n in (5, 0, 5, 2):
        assert cold.row(n) == Delta().apply(Poly.monomial(n))
    assert OpTable(J()).row(0) == Poly.parse("x")
    assert OpTable(Substitute(Poly.parse("x^2"))).row(2) == Poly.monomial(4)


def test_table_oracle_injection():
    T = OpTable(lambda n: Poly.monomial(n).scale(n + 1))
    assert T.row(4) == Poly.monomial(4, 5)
    assert T.diagonal(0, 3) == [1, 2, 3, 4]


def test_diagonals():
    assert OpTable(J()).diagonal(1, 3) == [rat(1), rat("1/2"), rat("1/3"), rat("1/4")]
    assert OpTable(Identity()).diagonal(0, 2) == [1, 1, 1]
    # coefficient of x^(n-1) in (x+1)^n is C(n, 1)
    assert OpTable(Shift(1)).diagonal(-1, 3) == [0, 1, 2, 3]
    # negative column indices read as zero
    assert OpTable(D()).diagonal(-2, 2) == [0, 0, 0]


def test_diagonal_matches_row_coefficients():
    T = OpTable(Delta() * J())
    for t in range(-3, 4):
        diag = T.diagonal(t, 6)
        for n in range(7):
            assert diag[n] == T.row(n).coeff(n + t)


def test_equal_upto():
    assert op_equal_upto(D() * X() - X() * D(), Identity(), 10)
    assert op_equal_upto(J(), J(), 5)
    assert op_equal_upto(Delta(), Shift(1) - Identity(), 8)
    assert not op_equal_upto(D(), Delta(), 3)


def test_shift_invariance():
    assert shift_invariance_check(Delta(), 8)
    assert not shift_invariance_check(X(), 3)
    assert not shift_invariance_check(J(), 4)
    assert shift_invariance_check(Shift(rat("1/2")), 6)
    assert shift_invariance_check(D() * J(), 6)  # differentiate after integrating
    assert not shift_invariance_check(J() * D(), 6)


def _outcome(check, Q, N):
    try:
        return check(Q, N)
    except TruncationError as exc:
        return type(exc)


def test_shift_invariance_matches_sampled_reference():
    # Depth-3 trees over every atom, with N from 0 to 9: the row test and
    # the sampled reference give the same bool or raise the same type.
    rng = random.Random(9)
    seen = set()
    for _ in range(1000):
        Q = random_operator(rng, 3, random_wide_atom)
        N = rng.randrange(10)
        want = _outcome(sampled_shift_invariance, Q, N)
        assert _outcome(shift_invariance_check, Q, N) == want, (Q, N)
        seen.add(want)
    assert seen == {True, False, TruncationError}


def test_d_expand_examples():
    assert d_expand(D(), 3) == SSeries((0, 1, 0, 0), 3)
    # Taylor: a_k of E^a is a^k/k!
    for a in (rat(1), rat("-1/2"), rat(3)):
        series = d_expand(Shift(a), 6)
        for k in range(7):
            assert series.coeff(k) == a**k / factorial(k)
    # forward difference: a_k = (1^k - 0^k)/k! via the operator itself
    series = d_expand(Delta(), 4)
    assert series == SSeries((0, 1, rat("1/2"), rat("1/6"), rat("1/24")), 4)
    for k in range(5):
        oracle = Delta().apply(Poly.monomial(k)).eval(0) / factorial(k)
        assert series.coeff(k) == oracle


def test_d_expansion_reconstruction():
    N = 10
    family = [
        Delta(),
        Shift(rat("1/2")),
        Delta() * Delta(),
        D() * J(),
        SeriesInD(SSeries((0, 1, 1), 12), exact=True),
    ]
    for Q in family:
        assert shift_invariance_check(Q, N)
        rec = SeriesInD(d_expand(Q, N))
        for n in range(N + 1):
            p = Poly.monomial(n)
            assert rec.apply(p) == Q.apply(p)


def test_series_in_d_truncation_guard():
    f = SeriesInD(SSeries((0, 1), 1))
    with pytest.raises(TruncationError):
        f.apply(Poly.monomial(3))
    # exact series never raise
    g = SeriesInD(SSeries((0, 1), 1), exact=True)
    assert g.apply(Poly.monomial(3)) == Poly.parse("3*x^2")


def test_operator_sugar():
    two_d = 2 * D()
    assert two_d.apply(Poly.monomial(2)) == Poly.parse("4*x")
    assert op_equal_upto((D() + X()) ** 2, D() * D() + D() * X() + X() * D() + X() * X(), 6)
    assert op_equal_upto(-J(), rat(-1) * J(), 5)
    assert op_equal_upto(D() ** 0, Identity(), 5)


def test_polyinx():
    assert PolyInX(Poly.parse("x^2 - 1")).apply(Poly.parse("x")) == Poly.parse("x^3 - x")
