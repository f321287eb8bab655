import random
from fractions import Fraction
from math import factorial

import pytest
import sympy

from opcalc import (
    D,
    Delta,
    Identity,
    J,
    NotDegreeReducing,
    Poly,
    PolyInX,
    SeriesInD,
    SSeries,
    Substitute,
    TruncationError,
    X,
    XDExpansion,
    basis_change,
    degree_reducing_check,
    divided_power_basis,
    rat,
    render_expansion,
    xb_expand,
    xd_apply,
    xd_expand,
)
from opcalc.series import PSeries

from helpers import random_operator, random_poly


# ----------------------------------------------------------------------
# divided power bases


def test_divided_powers_of_D():
    basis = divided_power_basis(D(), 3)
    assert basis.polys == (
        Poly.one(),
        Poly.monomial(1),
        Poly.monomial(2, rat("1/2")),
        Poly.monomial(3, rat("1/6")),
    )


def test_divided_powers_of_Delta_are_binomials():
    basis = divided_power_basis(Delta(), 3)
    assert basis.poly(2) == Poly.parse("1/2*x^2 - 1/2*x")
    assert basis.poly(3) == (
        Poly.monomial(1) * Poly.parse("x - 1") * Poly.parse("x - 2")
    ).scale(rat("1/6"))


def test_divided_powers_of_2D():
    # solve 2D b_n = b_(n-1) with b_n(0) = 0 by hand: b_1 = x/2, b_2 = x^2/8
    basis = divided_power_basis(2 * D(), 2)
    assert basis.polys == (Poly.one(), Poly.parse("1/2*x"), Poly.parse("1/8*x^2"))


def test_divided_power_defining_equations():
    from opcalc import Shift

    for B in (D(), Delta(), 2 * D(), Delta() * Shift(rat("1/2"))):
        basis = divided_power_basis(B, 6)
        for n, b in enumerate(basis.polys):
            assert b.degree == n
            assert b.eval(0) == (1 if n == 0 else 0)
            if n >= 1:
                assert B.apply(b) == basis.poly(n - 1)


SX = sympy.Symbol("x")
SERIES_BASIS = (Fraction(1), Fraction(-1, 2), Fraction(1, 3))  # t - t^2/2 + t^3/3


def sympy_rat(c: Fraction) -> sympy.Rational:
    return sympy.Rational(c.numerator, c.denominator)


def sympy_divided_powers(apply_B, N: int) -> list:
    """b_0..b_N solved with sympy from B b_n = b_(n-1), b_n(0) = 0, b_0 = 1."""
    out = [sympy.Integer(1)]
    for n in range(1, N + 1):
        cs = sympy.symbols(f"c1:{n + 1}")
        b = sum(c * SX**j for j, c in enumerate(cs, 1))
        eqs = sympy.Poly(apply_B(b) - out[-1], SX).all_coeffs()
        (sol,) = sympy.linsolve(eqs, cs)
        out.append(sympy.expand(b.subs(dict(zip(cs, sol)))))
    return out


@pytest.mark.parametrize(
    "B, apply_B",
    [
        (D(), lambda p: sympy.diff(p, SX)),
        (Delta(), lambda p: sympy.expand(p.subs(SX, SX + 1) - p)),
        (2 * D(), lambda p: 2 * sympy.diff(p, SX)),
        (
            SeriesInD(SSeries.from_poly(Poly([0, *SERIES_BASIS]), 3), exact=True),
            lambda p: sum(
                sympy_rat(c) * sympy.diff(p, SX, k) for k, c in enumerate(SERIES_BASIS, 1)
            ),
        ),
    ],
    ids=["D", "Delta", "2D", "series"],
)
def test_divided_powers_match_sympy(B, apply_B):
    N = 7
    basis = divided_power_basis(B, N)
    for b, want in zip(basis.polys, sympy_divided_powers(apply_B, N), strict=True):
        got = sum(sympy_rat(c) * SX**k for k, c in enumerate(b.coeffs))
        assert sympy.expand(got - want) == 0


def test_degree_reducing_check():
    assert degree_reducing_check(D(), 10)
    assert not degree_reducing_check(X(), 5)
    # J D D kills degree-1 polynomials: J(D(D(x))) = 0
    assert (J() * D() * D()).apply(Poly.monomial(1)) == Poly()
    assert not degree_reducing_check(J() * D() * D(), 6)


def test_not_degree_reducing_error_carries_degree():
    with pytest.raises(NotDegreeReducing) as exc:
        divided_power_basis(X(), 3)
    assert exc.value.degree is not None


# ----------------------------------------------------------------------
# XD expansion


def test_xd_expand_integration_closed_form():
    expansion = xd_expand(J(), 4)
    for n in range(5):
        assert expansion.term(n) == Poly.monomial(n + 1, Fraction((-1) ** n, factorial(n + 1)))


def test_xd_expand_multiplication_operator():
    expansion = xd_expand(PolyInX(Poly.parse("x^2")), 2)
    assert expansion.terms == (Poly.parse("x^2"), Poly(), Poly())


def test_xd_expand_substitution_closed_form():
    # a_n(x) = (q(x) - x)^n / n!, cross-checked against the kernel convolution
    for q in (Poly.parse("x^2"), Poly.parse("2*x + 1"), Poly.parse("x^3 - x")):
        expansion = xd_expand(Substitute(q), 4)
        diff = q - Poly.monomial(1)
        for n in range(5):
            assert expansion.term(n) == (diff ** n).scale(Fraction(1, factorial(n)))


def test_xd_reconstruction_random():
    rng = random.Random(31)
    N = 6
    for _ in range(40):
        Q = random_operator(rng)
        expansion = xd_expand(Q, N)
        p = random_poly(rng, N)
        assert xd_apply(expansion, p) == Q.apply(p)


def test_xd_uniqueness_properties():
    N = 5
    zero = xd_expand(0 * Identity(), N)
    assert zero.is_zero()
    rng = random.Random(37)
    for _ in range(10):
        Q, R = random_operator(rng), random_operator(rng)
        lhs = xd_expand(Q, N) - xd_expand(R, N)
        rhs = xd_expand(Q - R, N)
        assert lhs.terms == rhs.terms


# ----------------------------------------------------------------------
# XB expansion


def test_xb_expand_J_in_Delta_basis():
    # Unique coefficients forced by J b_n = sum_k a_k b_(n-k); the degree-3
    # term is -(x^2/6 + x^3/6 + x^4/24).
    basis = divided_power_basis(Delta(), 8)
    expansion = xb_expand(J(), basis, 3)
    assert expansion.term(0) == Poly.parse("x")
    assert expansion.term(1) == Poly.parse("-1/2*x^2")
    assert expansion.term(2) == Poly.parse("1/6*x^3 + 1/4*x^2")
    assert expansion.term(3) == Poly.parse("-1/24*x^4 - 1/6*x^3 - 1/6*x^2")


def test_xb_coefficients_solve_triangular_oracle():
    # independent oracle: applying the expansion to b_n is triangular, so
    # a_n = J b_n - sum_(k<n) a_k b_(n-k)
    basis = divided_power_basis(Delta(), 8)
    expansion = xb_expand(J(), basis, 5)
    acc = []
    for n in range(6):
        expected = J().apply(basis.poly(n))
        for k, a in enumerate(acc):
            expected = expected - a * basis.poly(n - k)
        acc.append(expected)
        assert expansion.term(n) == expected


def test_xb_of_basis_operator_itself():
    basis = divided_power_basis(Delta(), 5)
    expansion = xb_expand(Delta(), basis, 2)
    assert expansion.terms == (Poly(), Poly.one(), Poly())
    ident = xb_expand(Identity(), basis, 2)
    assert ident.terms == (Poly.one(), Poly(), Poly())


def test_xb_reconstruction_random():
    rng = random.Random(41)
    N = 6
    bases = [divided_power_basis(D(), N), divided_power_basis(Delta(), N)]
    for _ in range(25):
        Q = random_operator(rng)
        p = random_poly(rng, N)
        for basis in bases:
            expansion = xb_expand(Q, basis, N)
            assert xd_apply(expansion, p) == Q.apply(p)


def test_xb_genfun_consistency():
    # multiplying the coefficient series back by b(x,t) recovers Q b(x,t)
    N = 6
    basis = divided_power_basis(Delta(), N)
    for Q in (J(), D(), Substitute(Poly.parse("x^2"))):
        expansion = xb_expand(Q, basis, N)
        coeff_series = PSeries(expansion.terms, N)
        qb = PSeries(tuple(Q.apply(basis.poly(n)) for n in range(N + 1)), N)
        assert coeff_series * PSeries(basis.polys, N) == qb


def test_xb_requires_basis_depth():
    basis = divided_power_basis(Delta(), 3)
    with pytest.raises(TruncationError):
        xb_expand(J(), basis, 5)


# ----------------------------------------------------------------------
# applying expansions


def test_xd_apply_examples():
    expansion = xd_expand(J(), 4)
    assert xd_apply(expansion, Poly.monomial(3)) == J().apply(Poly.monomial(3))
    empty = XDExpansion((Poly(),), 0, D(), "D")
    assert xd_apply(empty, Poly.parse("x^5 + 2")) == Poly()
    ident = xd_expand(Identity(), 5)
    assert xd_apply(ident, Poly.monomial(5)) == Poly.monomial(5)


def test_xd_apply_strict_guard():
    expansion = xd_expand(J(), 2)
    with pytest.raises(TruncationError):
        xd_apply(expansion, Poly.monomial(5), strict=True)
    # non-strict evaluates the truncated sum
    xd_apply(expansion, Poly.monomial(5))


# ----------------------------------------------------------------------
# basis change


def test_basis_change_examples():
    basis = divided_power_basis(Delta(), 6)
    assert basis_change(Poly.parse("x^2"), basis, "to_basis") == [0, 1, 2]
    d_basis = divided_power_basis(D(), 6)
    assert basis_change([1, 1], d_basis, "to_monomial") == Poly.parse("x + 1")
    assert basis_change(basis.poly(3), basis, "to_basis") == [0, 0, 0, 1]


def test_basis_change_roundtrip_random():
    rng = random.Random(43)
    basis = divided_power_basis(Delta(), 8)
    for _ in range(30):
        p = random_poly(rng, 8)
        if p.is_zero():
            continue
        coords = basis_change(p, basis, "to_basis")
        assert basis_change(coords, basis, "to_monomial") == p


def test_basis_change_truncation_guard():
    basis = divided_power_basis(D(), 3)
    with pytest.raises(TruncationError):
        basis_change(Poly.monomial(5), basis, "to_basis")
    with pytest.raises(TruncationError):
        basis_change([0, 0, 0, 0, 0, 1], basis, "to_monomial")


def test_render_expansion():
    text = render_expansion(xd_expand(J(), 2))
    assert text == "x + (-1/2*x^2)*D + 1/6*x^3*D^2"
