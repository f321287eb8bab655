from fractions import Fraction
from math import factorial

import pytest

from opcalc import (
    Delta,
    NotDelta,
    NotDXEligible,
    OpTable,
    Poly,
    Shift,
    SSeries,
    TruncationError,
    X,
    all_polynomial,
    basic_sequence,
    delta_from_series,
    delta_inverse,
    divided_power_basis,
    dx_apply,
    dx_check,
    endomorphism_xd,
    gf_consistency_check,
    op_apply,
    op_equal_upto,
    pincherle_derivative,
    rat,
    rodrigues_xd,
    sequences,
    umbral_op_apply,
    umbral_op_dx,
    umbral_op_xd,
    umbral_shift_apply,
    umbral_shift_as_op,
    umbral_shift_dx,
    xd_apply,
)

BUDGET = 24


def delta_D():
    return delta_from_series(SSeries.t(BUDGET))


def delta_Delta():
    return delta_from_series(SSeries.exp_t(BUDGET) - SSeries.one(BUDGET))


def delta_2D():
    return delta_from_series(SSeries.t(BUDGET).scale(2))


def delta_geometric():
    # t/(1-t) = t + t^2 + t^3 + ...
    return delta_from_series(
        SSeries(tuple(0 if k == 0 else 1 for k in range(BUDGET + 1)), BUDGET)
    )


def delta_exp2t():
    # (e^(2t) - 1)/2 = sum_(k >= 1) 2^(k-1) t^k / k!
    return delta_from_series(
        SSeries(tuple(Fraction(2**k, 2 * factorial(k)) if k else 0 for k in range(BUDGET + 1)))
    )


def test_delta_gate():
    assert delta_D().slope == 1
    with pytest.raises(NotDelta):
        delta_from_series(SSeries((0, 0, 1, 1), 5))
    with pytest.raises(NotDelta):
        delta_from_series(SSeries((1, 1), 5))


def test_delta_symbol_for_forward_difference():
    P = delta_Delta()
    assert op_equal_upto(P.as_op(), Delta(), BUDGET - 1)


def test_sequences_of_D():
    divided, conjugate = sequences(delta_D(), 3)
    assert divided.polys == (
        Poly.one(),
        Poly.monomial(1),
        Poly.monomial(2, rat("1/2")),
        Poly.monomial(3, rat("1/6")),
    )
    assert conjugate.polys == tuple(Poly.monomial(n) for n in range(4))


def test_sequences_of_Delta():
    divided, conjugate = sequences(delta_Delta(), 2)
    assert divided.poly(2) == Poly.parse("1/2*x^2 - 1/2*x")
    # exp(x(e^t - 1)) coefficient of t^2 is (x^2 + x)/2, times 2!
    assert conjugate.poly(2) == Poly.parse("x^2 + x")


def test_sequences_of_2D():
    divided, conjugate = sequences(delta_2D(), 2)
    assert divided.polys == (Poly.one(), Poly.parse("1/2*x"), Poly.parse("1/8*x^2"))
    assert conjugate.poly(1) == Poly.parse("2*x")


@pytest.mark.parametrize(
    "P",
    [
        delta_Delta(),
        delta_exp2t(),
        delta_from_series(SSeries((0, 1, Fraction(1, 2), Fraction(1, 3)), BUDGET)),
    ],
    ids=["Delta", "exp2t", "cubic"],
)
def test_divided_family_matches_the_generic_solver(P):
    N = 10
    reference = divided_power_basis(P.as_op(), N).polys
    assert sequences(P, N)[0].polys == reference
    basic = tuple(b.scale(factorial(n)) for n, b in enumerate(reference))
    assert basic_sequence(P, N).polys == basic


def test_umbral_operator_of_D_is_identity():
    P = delta_D()
    for p in (Poly.parse("x^5 - 3*x + 2"), Poly.parse("1/2*x^2")):
        assert umbral_op_apply(P, p) == p


def test_umbral_operator_duality():
    # one linear map sends basic polynomials to monomials and monomials to
    # conjugates, both directions read off the same operator
    for P in (delta_D(), delta_Delta(), delta_2D(), delta_geometric()):
        basic = basic_sequence(P, 8)
        _, conjugate = sequences(P, 8)
        for n in range(9):
            assert umbral_op_apply(P, basic.poly(n)) == Poly.monomial(n)
            assert umbral_op_apply(P, Poly.monomial(n)) == conjugate.poly(n)


def test_umbral_delta_example():
    P = delta_Delta()
    assert umbral_op_apply(P, Poly.monomial(2)) == Poly.parse("x^2 + x")
    # basic polynomial x(x-1) maps to the monomial x^2
    assert umbral_op_apply(P, Poly.parse("x^2 - x")) == Poly.monomial(2)


def test_umbral_op_xd_matches_action():
    for P in (delta_D(), delta_Delta(), delta_2D()):
        expansion = umbral_op_xd(P, 8)
        for n in range(9):
            p = Poly.monomial(n)
            assert xd_apply(expansion, p) == umbral_op_apply(P, p)


def test_umbral_op_xd_of_D_is_identity_expansion():
    expansion = umbral_op_xd(delta_D(), 3)
    assert expansion.terms == (Poly.one(), Poly(), Poly(), Poly())


def test_umbral_op_xd_2D_on_x():
    # conjugate of 2D at degree 1 is 2x
    assert xd_apply(umbral_op_xd(delta_2D(), 1), Poly.monomial(1)) == Poly.parse("2*x")


def test_umbral_op_dx_gate():
    with pytest.raises(NotDXEligible):
        umbral_op_dx(delta_2D(), 4)
    half = delta_from_series(SSeries.t(BUDGET).scale(rat("1/2")))
    with pytest.raises(NotDXEligible):
        umbral_op_dx(half, 4)


def test_umbral_op_dx_identity():
    E = umbral_op_dx(delta_D(), 3)
    assert E.term(0).coeff(0) == 1
    assert dx_apply(E, Poly.parse("x^4 - x")) == Poly.parse("x^4 - x")


def test_umbral_op_dx_matches_action():
    for P in (delta_D(), delta_Delta(), delta_geometric()):
        E = umbral_op_dx(P, 8)
        assert E.certificate is not None
        for n in range(8):
            p = Poly.monomial(n)
            assert dx_apply(E, p) == umbral_op_apply(P, p), (P.f.coeffs[:3], n)


def test_umbral_dx_margins_grow_linearly():
    E = umbral_op_dx(delta_Delta(), 6)
    for k, f in enumerate(E.terms):
        assert f.order() == 2 * k


def test_prop_gate_family_against_diagonals():
    # slope 1 accepted, slopes 2 and 1/2 rejected with q_0(n) = slope^n
    for slope in (rat(2), rat("1/2")):
        P = delta_from_series(SSeries.t(BUDGET).scale(slope))
        table = OpTable(lambda n, P=P: umbral_op_apply(P, Poly.monomial(n)))
        fits = dx_check(table, 0, 0, 12, 3)
        assert fits[0].verdict == "not_polynomial"
        assert fits[0].samples[:3] == (1, slope, slope**2)
    table = OpTable(lambda n: umbral_op_apply(delta_Delta(), Poly.monomial(n)))
    assert all_polynomial(dx_check(table, -4, 4, 14, 3))


def test_pincherle():
    assert pincherle_derivative(SSeries.t(6)) == SSeries.one(5)
    assert pincherle_derivative(SSeries((0, 0, 1), 4)) == SSeries((0, 2), 3)
    # Delta' = E^1, verified as operators
    P = delta_Delta()
    fprime = pincherle_derivative(P.f)
    from opcalc import SeriesInD

    assert op_equal_upto(P.as_op() * X() - X() * P.as_op(), Shift(1), 12)
    assert op_equal_upto(SeriesInD(fprime), Shift(1), 12)


def test_umbral_shift_defining_action():
    P = delta_D()
    # sigma_D multiplies by x on the divided powers x^n/n!
    for n in range(6):
        b = Poly.monomial(n, Fraction(1, factorial(n)))
        assert umbral_shift_apply(P, b) == Poly.monomial(n + 1, Fraction(1, factorial(n)))
    PD = delta_Delta()
    basis = divided_power_basis(Delta(), 10)
    assert umbral_shift_apply(PD, basis.poly(2)) == basis.poly(3).scale(3)
    assert umbral_shift_apply(PD, Poly.monomial(1)) == Poly.parse("x^2 - x")


def test_rodrigues_examples():
    R = rodrigues_xd(delta_D(), 5)
    assert R.terms[0] == Poly.monomial(1)
    assert all(t.is_zero() for t in R.terms[1:])
    # sigma_Delta = X E^(-1)
    R = rodrigues_xd(delta_Delta(), 8)
    for j in range(9):
        assert R.terms[j] == Poly.monomial(1, Fraction((-1) ** j, factorial(j)))
    R = rodrigues_xd(delta_2D(), 4)
    assert R.terms[0] == Poly.parse("1/2*x")
    assert all(t.is_zero() for t in R.terms[1:])


def test_rodrigues_on_binomials():
    # X E^(-1) C(x,n) = (n+1) C(x,n+1)
    basis = divided_power_basis(Delta(), 10)
    R = rodrigues_xd(delta_Delta(), 9)
    for n in range(9):
        assert xd_apply(R, basis.poly(n)) == basis.poly(n + 1).scale(n + 1)


def test_shift_dx_equals_rodrigues_and_action():
    for P in (delta_D(), delta_Delta(), delta_2D(), delta_geometric()):
        Edx = umbral_shift_dx(P, 8)
        Rxd = rodrigues_xd(P, 10)
        for n in range(9):
            p = Poly.monomial(n)
            assert dx_apply(Edx, p) == xd_apply(Rxd, p) == umbral_shift_apply(P, p)
        # X appears with exponent at most one
        assert Edx.trunc_k == 1


def test_shift_dx_delta_slots():
    # for Delta both slots are the shift by -1: f' = f'' = e^t
    E = umbral_shift_dx(delta_Delta(), 8)
    for j in range(8):
        want = Fraction((-1) ** j, factorial(j))
        assert E.term(0).coeff(j) == want
        assert E.term(1).coeff(j) == want


def test_shift_dx_corruption_detected():
    E = umbral_shift_dx(delta_Delta(), 8)
    coeffs = list(E.term(0).coeffs)
    coeffs[2] += 1
    bad = E.with_terms([SSeries(coeffs, E.term(0).trunc_order), E.term(1)])
    from opcalc import SeriesInD, Compose, Add

    good_op = umbral_shift_as_op(delta_Delta())
    bad_op = Add(
        (
            Compose(SeriesInD(bad.term(1)), X()),
            SeriesInD(bad.term(0)),
        )
    )
    assert not op_equal_upto(bad_op, good_op, 8)
    assert not gf_consistency_check(bad, 6)


def test_sigma_dx_on_divided_powers():
    basis = divided_power_basis(Delta(), 10)
    E = umbral_shift_dx(delta_Delta(), 8)
    assert dx_apply(E, basis.poly(2)) == basis.poly(3).scale(3)


def test_sigma_gf_consistency():
    assert gf_consistency_check(umbral_shift_dx(delta_Delta(), 8), 8)


def test_sigma_accepted_by_dx_check():
    fits = dx_check(OpTable(umbral_shift_as_op(delta_Delta())), -5, 5, 12, 3)
    assert all_polynomial(fits)


def test_delta_inverse_examples():
    assert delta_inverse(delta_D()).f.agrees_with(SSeries.t(BUDGET))
    R = delta_inverse(delta_Delta())
    for k in range(1, 9):
        assert R.f.coeff(k) == Fraction((-1) ** (k - 1), k)
    R = delta_inverse(delta_geometric())
    for k in range(1, 9):
        assert R.f.coeff(k) == Fraction((-1) ** (k - 1))
    # r(p(t)) = t by direct composition
    P = delta_geometric()
    assert R.f.compose(P.f).agrees_with(SSeries.t(BUDGET))


def test_inverse_umbral_operators_cancel():
    for P in (delta_Delta(), delta_geometric()):
        R = delta_inverse(P)
        for n in range(9):
            p = Poly.monomial(n)
            assert umbral_op_apply(R, umbral_op_apply(P, p)) == p


def test_sigma_is_conjugated_X():
    # sigma_P = U_R X U_P for the slope-1 family
    for P in (delta_D(), delta_Delta(), delta_geometric()):
        R = delta_inverse(P)
        for n in range(9):
            p = Poly.monomial(n)
            route = umbral_op_apply(R, Poly.monomial(1) * umbral_op_apply(P, p))
            assert route == umbral_shift_apply(P, p)


def test_endomorphism_expansions():
    # translations: q = x + a gives the Taylor coefficients a^k/k!
    for a in (rat(1), rat("-1/2"), rat(3)):
        expansion = endomorphism_xd(Poly((a, 1)), 6)
        for k in range(7):
            assert expansion.term(k) == Poly.const(a**k / factorial(k))
        for n in range(7):
            p = Poly.monomial(n)
            assert xd_apply(expansion, p) == p.shift(a)
    assert xd_apply(endomorphism_xd(Poly.monomial(1), 3), Poly.parse("x^3 - x")) == Poly.parse("x^3 - x")
    # q = x^2 on x^2: k=0 gives x^2... full sum collapses to x^4
    expansion = endomorphism_xd(Poly.monomial(2), 4)
    assert xd_apply(expansion, Poly.monomial(2)) == Poly.monomial(4)
    from opcalc import Substitute

    for q in (Poly.monomial(2), Poly.parse("2*x + 1"), Poly.parse("x^2 - x")):
        expansion = endomorphism_xd(q, 6)
        for n in range(7):
            p = Poly.monomial(n)
            assert xd_apply(expansion, p) == op_apply(Substitute(q), p)


def test_translation_endomorphisms_only_dx():
    # translations accepted; dilations, squaring, evaluation rejected
    from opcalc import Substitute, Eval0

    for a in (rat(1), rat(-2)):
        fits = dx_check(OpTable(Substitute(Poly((a, 1)))), -6, 1, 12, 3)
        assert all_polynomial(fits)
    for q in (Poly.parse("2*x"), Poly.monomial(2)):
        fits = dx_check(OpTable(Substitute(q)), 0, 3, 12, 3)
        assert not all_polynomial(fits)
    fits = dx_check(OpTable(Eval0()), 0, 1, 12, 3)
    assert not all_polynomial(fits)


def test_budget_guards():
    short = delta_from_series(SSeries.t(3))
    with pytest.raises(TruncationError):
        sequences(short, 5)
    with pytest.raises(TruncationError):
        rodrigues_xd(short, 5)
    with pytest.raises(TruncationError):
        umbral_shift_dx(short, 5)
