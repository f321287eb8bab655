"""Acceptance suite: every criterion asserts exact equality (zero tolerance)
and prints one PASS/FAIL line.  Run with `pytest -s tests/test_acceptance.py`
to see the lines.
"""

import random
from contextlib import contextmanager
from fractions import Fraction
from math import factorial

from opcalc import (
    D,
    Delta,
    Eval0,
    J,
    NotDXEligible,
    OpTable,
    Poly,
    PolyInX,
    SeriesInD,
    Shift,
    SSeries,
    Substitute,
    X,
    all_polynomial,
    compose_via_diagonals,
    counterexample_S,
    d_expand,
    delta_from_series,
    divided_power_basis,
    dx_apply,
    dx_check,
    dx_construct,
    fit_diagonal,
    gf_consistency_check,
    observed_tail_bound,
    polynomial_diagonals,
    rat,
    rodrigues_xd,
    sequences,
    shift_invariance_check,
    umbral_op_apply,
    umbral_op_dx,
    umbral_op_xd,
    umbral_shift_apply,
    umbral_shift_as_op,
    umbral_shift_dx,
    xb_expand,
    xd_apply,
    xd_expand,
)

from helpers import random_dx_operator, random_operator, random_poly

BUDGET = 24


def _delta(symbol: str):
    if symbol == "D":
        return delta_from_series(SSeries.t(BUDGET))
    if symbol == "Delta":
        return delta_from_series(SSeries.exp_t(BUDGET) - SSeries.one(BUDGET))
    if symbol == "2D":
        return delta_from_series(SSeries.t(BUDGET).scale(2))
    raise ValueError(symbol)


@contextmanager
def criterion(number: int, description: str):
    try:
        yield
    except Exception:
        print(f"FAIL criterion {number}: {description}")
        raise
    print(f"PASS criterion {number}: {description}")


def test_criterion_01_integration_xd_closed_form():
    with criterion(1, "XD-expansion of integration: a_n = (-1)^n x^(n+1)/(n+1)!"):
        expansion = xd_expand(J(), 6)
        for n in range(7):
            want = Poly.monomial(n + 1, Fraction((-1) ** n, factorial(n + 1)))
            assert expansion.term(n) == want


def test_criterion_02_integration_in_difference_basis():
    with criterion(2, "XB-expansion of integration over the Delta basis, 4 terms"):
        basis = divided_power_basis(Delta(), 8)
        expansion = xb_expand(J(), basis, 3)
        # independent oracle: coefficients are forced triangularly by
        # J b_n = sum_k a_k b_(n-k)
        forced = []
        for n in range(4):
            expected = J().apply(basis.poly(n))
            for k, a in enumerate(forced):
                expected = expected - a * basis.poly(n - k)
            forced.append(expected)
        assert tuple(forced) == expansion.terms
        assert expansion.term(0) == Poly.parse("x")
        assert expansion.term(1) == Poly.parse("-1/2*x^2")
        assert expansion.term(2) == Poly.parse("1/6*x^3 + 1/4*x^2")
        # The published display carries a sign slip on the x^4/24 piece of
        # the degree-3 term; the generating function and the triangular
        # oracle both force all three pieces negative.
        assert expansion.term(3) == Poly.parse("-1/24*x^4 - 1/6*x^3 - 1/6*x^2")


def test_criterion_03_roundtrip_property():
    with criterion(3, ">=200 random (operator, polynomial) XD/XB round-trips"):
        rng = random.Random(101)
        N = 8
        bases = (divided_power_basis(D(), N), divided_power_basis(Delta(), N))
        pairs = 0
        for _ in range(70):
            Q = random_operator(rng)
            xd = xd_expand(Q, N)
            xbs = [xb_expand(Q, basis, N) for basis in bases]
            for _ in range(3):
                p = random_poly(rng, N)
                want = Q.apply(p)
                assert xd_apply(xd, p) == want
                for xb in xbs:
                    assert xd_apply(xb, p) == want
                pairs += 1
        assert pairs >= 200


def test_criterion_04_normal_ordering_oracle():
    with criterion(4, "normal-ordering rules match direct words; mutually inverse"):
        from opcalc import normal_order_DjXi, normal_order_XiDj, word_apply

        for i in range(7):
            for j in range(7):
                for m in range(13):
                    xm = Poly.monomial(m)
                    direct = word_apply(j, i, xm, d_on_left=True)
                    via = Poly()
                    for coef, xp, dp in normal_order_DjXi(j, i):
                        via = via + word_apply(dp, xp, xm, d_on_left=False).scale(coef)
                    assert via == direct
                    direct = word_apply(j, i, xm, d_on_left=False)
                    via = Poly()
                    for coef, dp, xp in normal_order_XiDj(i, j):
                        via = via + word_apply(dp, xp, xm, d_on_left=True).scale(coef)
                    assert via == direct
                # Toeplitz-inverse identity: substituting one rule into the
                # other returns the single original word
                collected = {}
                for coef, xp, dp in normal_order_DjXi(j, i):
                    for c2, dp2, xp2 in normal_order_XiDj(xp, dp):
                        key = (dp2, xp2)
                        collected[key] = collected.get(key, Fraction(0)) + coef * c2
                assert {k: v for k, v in collected.items() if v != 0} == {(j, i): Fraction(1)}


def test_criterion_05_dx_gate_verdicts():
    with criterion(5, "DX gate rejects J, Eval0, dilations, squaring, U_2D; accepts the rest"):
        rejected = [
            (OpTable(J()), (-1, 2, 12, 3)),
            (OpTable(Eval0()), (0, 2, 12, 3)),
            (OpTable(Substitute(Poly.parse("2*x"))), (0, 1, 12, 3)),
            (OpTable(Substitute(Poly.parse("x^2"))), (0, 4, 12, 3)),
            (
                OpTable(lambda n: umbral_op_apply(_delta("2D"), Poly.monomial(n))),
                (0, 1, 12, 3),
            ),
        ]
        for table, (t_min, t_max, n_max, slack) in rejected:
            fits = dx_check(table, t_min, t_max, n_max, slack)
            assert not all_polynomial(fits)
        accepted = [
            (OpTable(Shift(1)), (-6, 2, 12, 3)),
            (OpTable(Shift(-1)), (-6, 2, 12, 3)),
            (OpTable(Shift(rat("1/2"))), (-6, 2, 12, 3)),
            (OpTable(X()), (-3, 3, 12, 3)),
            (OpTable(D()), (-3, 3, 12, 3)),
            (OpTable(PolyInX(Poly.parse("x^2 - 1/2*x + 3"))), (0, 4, 12, 3)),
            (
                OpTable(SeriesInD(SSeries((0, -1, 0, rat("1/3")), 3), exact=True)),
                (-4, 1, 12, 3),
            ),
            (OpTable(umbral_shift_as_op(_delta("Delta"))), (-5, 5, 12, 3)),
            (
                OpTable(lambda n: umbral_op_apply(_delta("Delta"), Poly.monomial(n))),
                (-4, 4, 14, 3),
            ),
        ]
        for table, (t_min, t_max, n_max, slack) in accepted:
            fits = dx_check(table, t_min, t_max, n_max, slack)
            assert all_polynomial(fits)


def test_criterion_06_constructive_dx_of_translation():
    with criterion(6, "constructed DX of E^1 is sum D^m/m!, reproducing (x+1)^n"):
        expansion = dx_construct(OpTable(Shift(1)), -10, 0, 14, 3)
        assert expansion.trunc_k == 0
        f0 = expansion.term(0)
        assert f0.trunc_order == 10
        for m in range(11):
            assert f0.coeff(m) == Fraction(1, factorial(m))
        for n in range(11):
            assert dx_apply(expansion, Poly.monomial(n)) == Poly.parse("x + 1") ** n


def test_criterion_07_closure_under_composition():
    with criterion(7, "20 random DX pairs: diagonal convolution matches composition"):
        rng = random.Random(103)
        t_lo, t_hi = -10, 10
        n_fit, slack = 16, 3
        checked = 0
        while checked < 20:
            P = random_dx_operator(rng)
            R = random_dx_operator(rng)
            p_fits = dx_check(OpTable(P), t_lo, t_hi, n_fit, slack)
            r_fits = dx_check(OpTable(R), t_lo, t_hi, n_fit, slack)
            if not (all_polynomial(p_fits) and all_polynomial(r_fits)):
                continue  # window too shallow for this draw; redraw
            p_diags = polynomial_diagonals(p_fits)
            r_diags = polynomial_diagonals(r_fits)
            T = observed_tail_bound(p_fits)
            S = observed_tail_bound(r_fits)
            assert T is not None and S is not None
            composed = OpTable(R * P)  # apply P first
            for u in range(-8, 9):
                q_u = compose_via_diagonals(p_diags, r_diags, u, S, T)
                samples = composed.diagonal(u, 15)
                assert [q_u.eval(n) for n in range(16)] == samples, (P, R, u)
                if u > S + T:
                    assert q_u.is_zero()
                    assert all(s == 0 for s in samples)
            # the composition's own diagonals fit again
            refits = dx_check(composed, -5, 5, n_fit, slack)
            assert all_polynomial(refits)
            checked += 1


def test_criterion_08_counterexample_growth():
    with criterion(8, "S(n) >= (n!)^2 with S(0..2) = 1, 3, 31; never annihilated"):
        def oracle(n):
            total = 0
            for k in range(n + 1):
                total += (factorial(n) // factorial(n - k)) * (
                    factorial(n + k) // factorial(n)
                )
            return total

        for n in range(11):
            s = counterexample_S(n)
            assert s == oracle(n)
            assert s >= factorial(n) ** 2
        assert [counterexample_S(n) for n in range(3)] == [1, 3, 31]
        fit = fit_diagonal(0, [counterexample_S(n) for n in range(11)], 10, 3)
        assert fit.verdict == "not_polynomial"
        assert fit.evidence_order == 7


def test_criterion_09_umbral_identities():
    with criterion(9, "umbral shift and operator identities across D, Delta, 2D"):
        for name in ("D", "Delta", "2D"):
            P = _delta(name)
            basis = divided_power_basis(P.as_op(), 11)
            shift_xd = rodrigues_xd(P, 12)
            shift_dx = umbral_shift_dx(P, 12)
            for n in range(11):
                b = basis.poly(n)
                want = umbral_shift_apply(P, b)
                assert xd_apply(shift_xd, b) == want
                assert dx_apply(shift_dx, b) == want
            op_xd = umbral_op_xd(P, 8)
            _, conjugate = sequences(P, 8)
            for n in range(9):
                xn = Poly.monomial(n)
                assert umbral_op_apply(P, xn) == conjugate.poly(n)
                assert xd_apply(op_xd, xn) == conjugate.poly(n)
            if P.slope == 1:
                op_dx = umbral_op_dx(P, 10)
                for n in range(9):
                    xn = Poly.monomial(n)
                    assert dx_apply(op_dx, xn) == conjugate.poly(n)
            else:
                try:
                    umbral_op_dx(P, 8)
                    assert False, "slope != 1 must be refused"
                except NotDXEligible:
                    pass
        # the named exact identities
        PDelta = _delta("Delta")
        assert umbral_op_apply(PDelta, Poly.monomial(2)) == Poly.parse("x^2 + x")
        PD = _delta("D")
        sigma_d = rodrigues_xd(PD, 8)
        assert sigma_d.terms[0] == Poly.monomial(1)
        assert all(t.is_zero() for t in sigma_d.terms[1:])
        for n in range(9):
            p = Poly.monomial(n)
            assert umbral_shift_apply(PD, p) == X().apply(p)
            assert umbral_op_apply(PD, p) == p


def test_criterion_10_generating_function_consistency():
    with criterion(10, "GF consistency at N=8 for E^1, X, sigma_Delta; corruption fails"):
        e_shift = dx_construct(OpTable(Shift(1)), -10, 0, 14, 3)
        assert gf_consistency_check(e_shift, 8)
        e_x = dx_construct(OpTable(X()), -9, 9, 12, 3)
        assert gf_consistency_check(e_x, 8)
        e_sigma = umbral_shift_dx(_delta("Delta"), 8)
        assert gf_consistency_check(e_sigma, 8)
        coeffs = list(e_shift.term(0).coeffs)
        coeffs[4] += 1
        corrupted = e_shift.with_terms([SSeries(coeffs, e_shift.term(0).trunc_order)])
        assert not gf_consistency_check(corrupted, 8)


def test_criterion_11_d_expansion_reconstruction():
    with criterion(11, "D-expansion reproduces shift-invariant operators at N=10"):
        N = 10
        family = [
            Delta(),
            Shift(rat("1/2")),
            Delta() * Delta(),
            D() * J(),  # integrate, then differentiate: the identity
        ]
        for Q in family:
            assert shift_invariance_check(Q, N)
            reconstruction = SeriesInD(d_expand(Q, N))
            for n in range(N + 1):
                p = Poly.monomial(n)
                assert reconstruction.apply(p) == Q.apply(p)
        assert not shift_invariance_check(X(), N)
