import random
from fractions import Fraction
from math import comb, factorial

import pytest

from opcalc import (
    D,
    Eval0,
    J,
    MissingVanishingCertificate,
    NegativePowerViolation,
    NoCertificate,
    NotDX,
    OpTable,
    Poly,
    PolyInX,
    POS_INF,
    SeriesInD,
    Shift,
    SSeries,
    Substitute,
    TruncationError,
    WindowTooSmall,
    X,
    all_polynomial,
    binomial_poly,
    compose_via_diagonals,
    counterexample_S,
    dx_apply,
    dx_check,
    dx_construct,
    dx_convergence_check,
    dx_transpose,
    fit_diagonal,
    gf_consistency_check,
    observed_tail_bound,
    rat,
)

from helpers import COEFFS, NONZERO, random_dx_operator, reference_fit_diagonal


# ----------------------------------------------------------------------
# convergence


def test_convergence_certifies_growing_margins():
    verdict = dx_convergence_check([(k, 2 * k) for k in range(8)])
    assert verdict.certified
    assert verdict.certificate.margin_at(3) == 3
    assert verdict.certificate.final_margin() == 7


def test_convergence_rejects_decreasing_margins():
    verdict = dx_convergence_check([(k, 0) for k in range(6)])
    assert not verdict.certified and verdict.violated_at == 1


def test_convergence_constant_margin_fails_strict():
    # ord(f_k) = k, margin constantly zero: the sum sum D^k X^k / k!
    # pours into every coefficient without bound
    verdict = dx_convergence_check([(k, k) for k in range(6)])
    assert not verdict.certified and verdict.violated_at == 5
    relaxed = dx_convergence_check([(k, k) for k in range(6)], strict=False)
    assert relaxed.certified


def test_convergence_zero_terms_are_vacuous():
    verdict = dx_convergence_check([(0, 0), (1, POS_INF), (2, 4)])
    assert verdict.certified


def test_convergence_requires_consecutive_ks():
    with pytest.raises(ValueError):
        dx_convergence_check([(0, 0), (2, 2)])


# ----------------------------------------------------------------------
# diagonal fitting


def test_fit_newton_reproduces_samples():
    samples = [Poly.parse("1/2*x^2 + x").eval(n) for n in range(13)]
    fit = fit_diagonal(0, samples, 12, 3)
    assert fit.verdict == "polynomial"
    assert fit.poly == Poly.parse("1/2*x^2 + x")


def test_fit_zero_and_nonpolynomial():
    assert fit_diagonal(2, [0] * 13, 12, 3).verdict == "identically_zero"
    geom = [Fraction(2) ** n for n in range(13)]
    fit = fit_diagonal(0, geom, 12, 3)
    assert fit.verdict == "not_polynomial"
    assert fit.evidence_order == 9


def _fit_windows(rng, n_max, slack):
    """Windows that sit on each side of every decision in the fit."""
    ns = range(n_max + 1)
    edge = {0, n_max, n_max - slack - 1, n_max - slack, n_max - slack + 1,
            rng.randint(0, n_max)}
    degrees = sorted(d for d in edge if 0 <= d <= n_max)
    for d in degrees:
        coeffs = [rng.choice(COEFFS) for _ in range(d)] + [rng.choice(NONZERO)]
        yield [Poly(coeffs).eval(n) for n in ns]
        yield [rng.choice(NONZERO) * comb(n, d) for n in ns]
    yield [0] * (n_max + 1)
    j = rng.randint(0, n_max)
    yield [rng.choice(NONZERO) if n == j else 0 for n in ns]
    yield [rng.choice(COEFFS) for _ in ns]


def test_fit_matches_all_levels_reference():
    # the early stop must not change a verdict or a fitted polynomial,
    # also at slack = n_max + 1, where level 0 is still tested
    rng = random.Random(20)
    for n_max in range(25):
        for slack in range(n_max + 2):
            for samples in _fit_windows(rng, n_max, slack):
                t = rng.randint(-3, 3)
                got = fit_diagonal(t, samples, n_max, slack)
                assert got == reference_fit_diagonal(t, samples, n_max, slack), (
                    n_max, slack, samples)


def test_window_too_small():
    with pytest.raises(WindowTooSmall):
        dx_check(OpTable(D()), -1, 1, 4, 3)


def test_verdicts_match_the_theory():
    # J: q_1(n) = 1/(n+1) is not a polynomial
    fits = {f.t: f for f in dx_check(OpTable(J()), -1, 2, 12, 3)}
    assert fits[1].verdict == "not_polynomial"
    assert fits[1].samples[:4] == (1, rat("1/2"), rat("1/3"), rat("1/4"))
    assert fits[0].verdict == "identically_zero"
    # evaluation at zero: q_0 = 1, 0, 0, ... is not a polynomial
    fits = dx_check(OpTable(Eval0()), 0, 2, 12, 3)
    assert fits[0].verdict == "not_polynomial"
    # dilation: q_0(n) = 2^n
    fits = dx_check(OpTable(Substitute(Poly.parse("2*x"))), 0, 1, 12, 3)
    assert fits[0].verdict == "not_polynomial"
    # squaring: spike diagonals
    fits = dx_check(OpTable(Substitute(Poly.parse("x^2"))), 0, 4, 12, 3)
    assert any(f.verdict == "not_polynomial" for f in fits)


def test_accepted_operators():
    for Q, window in [
        (X(), (-3, 3)),
        (D(), (-3, 3)),
        (Shift(1), (-6, 2)),
        (Shift(rat("1/2")), (-6, 2)),
        (PolyInX(Poly.parse("x^2 - 1/2*x")), (0, 4)),
        (SeriesInD(SSeries((0, 1, 0, rat("1/3")), 3), exact=True), (-4, 1)),
    ]:
        fits = dx_check(OpTable(Q), window[0], window[1], 12, 3)
        assert all_polynomial(fits), Q


def test_diagonal_fit_json_shape():
    fits = dx_check(OpTable(J()), -1, 1, 12, 3)
    docs = [f.to_json_dict() for f in fits]
    for doc in docs:
        assert set(doc) == {"t", "verdict", "poly", "evidence", "window"}
        assert doc["window"] == {"n_max": 12, "slack": 3}
    verdicts = {d["t"]: d["verdict"] for d in docs}
    assert verdicts[1] == "not_polynomial"
    assert verdicts[0] == "zero"


def test_observed_tail_bound():
    fits = dx_check(OpTable(D()), -3, 3, 12, 3)
    assert observed_tail_bound(fits) == -1
    fits = dx_check(OpTable(PolyInX(Poly.parse("x^3"))), -3, 5, 12, 3)
    assert observed_tail_bound(fits) == 3


# ----------------------------------------------------------------------
# construction


def test_construct_X_and_D():
    E = dx_construct(OpTable(X()), -5, 5, 12, 3)
    assert E.trunc_k == 1
    assert E.term(1).coeff(0) == 1 and E.term(0).is_zero_prefix()
    E = dx_construct(OpTable(D()), -5, 5, 12, 3)
    assert E.trunc_k == 0
    assert [E.term(0).coeff(j) for j in range(3)] == [0, 1, 0]


def test_construct_shift_is_exponential():
    E = dx_construct(OpTable(Shift(1)), -10, 0, 14, 3)
    assert E.trunc_k == 0
    assert E.term(0).trunc_order == 10
    for m in range(11):
        assert E.term(0).coeff(m) == Fraction(1, factorial(m))
    assert E.validated_degree == 10
    for n in range(11):
        assert dx_apply(E, Poly.monomial(n)) == Poly.parse("x + 1") ** n


def test_construct_rejects_non_dx():
    with pytest.raises(NotDX):
        dx_construct(OpTable(J()), -2, 2, 12, 3)


def test_construct_window_must_contain_zero():
    with pytest.raises(ValueError):
        dx_construct(OpTable(D()), 1, 3, 12, 3)


def test_negative_power_violation_guard():
    class LyingTable:
        source = None

        def diagonal(self, t, n_max):
            # claims q_(-2)(n) = 1 identically, impossible for a real matrix
            if t == -2:
                return [Fraction(1)] * (n_max + 1)
            return [Fraction(0)] * (n_max + 1)

        def row(self, n):
            return Poly()

    with pytest.raises(NegativePowerViolation):
        dx_construct(LyingTable(), -3, 0, 12, 3)


def test_construct_roundtrip_random():
    rng = random.Random(47)
    for _ in range(10):
        Q = random_dx_operator(rng)
        table = OpTable(Q)
        E = dx_construct(table, -8, 8, 14, 3)
        for n in range(E.validated_degree + 1):
            assert dx_apply(E, Poly.monomial(n)) == table.row(n)


# ----------------------------------------------------------------------
# applying and transposing


def test_dx_apply_zero_expansion():
    from opcalc import DXExpansion, ConvergenceCertificate

    E = DXExpansion(
        terms=(SSeries.zero(6),),
        complete=True,
        certificate=ConvergenceCertificate("finite", ((0, POS_INF),)),
    )
    assert dx_apply(E, Poly.parse("x^3 - 1")) == Poly()


def test_dx_apply_guards():
    from opcalc import DXExpansion

    # truncation of an infinite sum without a certificate
    E = DXExpansion(
        terms=(SSeries((1,), 2),),
        complete=False,
        certificate=None,
    )
    with pytest.raises(NoCertificate):
        dx_apply(E, Poly.monomial(1))
    assert dx_apply(E, Poly.monomial(1), allow_window=True) == Poly.monomial(1)
    # term whose truncation hides contributing coefficients
    E2 = DXExpansion(
        terms=(SSeries((1, 1), 1),),
        complete=True,
        certificate=None,
    )
    with pytest.raises(TruncationError):
        dx_apply(E2, Poly.monomial(3))


def test_transpose_shift():
    E = dx_construct(OpTable(Shift(1)), -10, 0, 14, 3)
    pairs = dx_transpose(E)
    assert pairs == [(j, Poly.const(Fraction(1, factorial(j)))) for j in range(11)]


def test_transpose_simple_shapes():
    from opcalc import DXExpansion, ConvergenceCertificate

    cert = ConvergenceCertificate("finite", ((0, 0),))
    single = DXExpansion(
        terms=(SSeries((1, 0, 0), 2),),
        complete=True,
        certificate=cert,
    )
    assert dx_transpose(single) == [(0, Poly.one())]
    # the word D^2 X: f_1 = t^2
    word = DXExpansion(
        terms=(SSeries.zero(3), SSeries((0, 0, 1, 0), 3)),
        complete=True,
        certificate=cert,
    )
    assert dx_transpose(word) == [(2, Poly.monomial(1))]


def test_transpose_agrees_on_monomials():
    # both forms are evaluations of the same operator
    E = dx_construct(OpTable(Shift(1) + X()), -8, 2, 14, 3)
    pairs = dx_transpose(E)
    for n in range(9):
        p = Poly.monomial(n)
        direct = dx_apply(E, p)
        via_transpose = Poly()
        for j, a in pairs:
            q = a * p
            for _ in range(j):
                q = q.derivative()
            via_transpose = via_transpose + q
        assert via_transpose == direct, n


# ----------------------------------------------------------------------
# composition on diagonals


def test_compose_single_term():
    # P = X (p_1 = 1, T = 1), R = D (r_(-1)(n) = n, S = -1)
    q0 = compose_via_diagonals(
        {1: Poly.one()}, {-1: Poly.parse("x")}, 0, -1, 1
    )
    assert q0 == Poly.parse("x + 1")
    table = OpTable(D() * X())
    assert [q0.eval(n) for n in range(8)] == table.diagonal(0, 7)


def test_compose_with_identity():
    r_diags = {0: Poly.one()}
    p_diags = {t: binomial_poly(-t) for t in range(-6, 1)}
    for u in range(-4, 1):
        assert compose_via_diagonals(r_diags, p_diags, u, 0, 0) == p_diags.get(u, Poly())


def test_compose_two_shifts():
    p_diags = {-m: binomial_poly(m) for m in range(0, 9)}
    q = compose_via_diagonals(p_diags, p_diags, -1, 0, 0)
    assert q == Poly.parse("2*x")
    table = OpTable(Shift(2))
    for u in range(-6, 1):
        qu = compose_via_diagonals(p_diags, p_diags, u, 0, 0)
        diag = table.diagonal(u, 7)
        assert [qu.eval(n) for n in range(8)] == diag, u


def test_compose_missing_certificate():
    with pytest.raises(MissingVanishingCertificate):
        compose_via_diagonals({2: Poly.one()}, {0: Poly.one()}, 0, 0, 1)
    with pytest.raises(MissingVanishingCertificate):
        compose_via_diagonals({0: Poly.one()}, {2: Poly.one()}, 0, 1, 0)


# ----------------------------------------------------------------------
# generating-function consistency


def test_gf_consistency_constructed():
    E = dx_construct(OpTable(Shift(1)), -10, 0, 14, 3)
    assert gf_consistency_check(E, 6)
    EX = dx_construct(OpTable(X()), -9, 9, 12, 3)
    assert gf_consistency_check(EX, 4)


def test_gf_consistency_oracle_table():
    # An oracle n -> Q x^n is read through the table's rows, like an expression.
    oracle = OpTable(lambda n: Poly.monomial(n).shift(1))
    E = dx_construct(oracle, -10, 0, 14, 3)
    assert gf_consistency_check(E, 6)
    assert E.source is oracle


def test_gf_consistency_detects_corruption():
    E = dx_construct(OpTable(Shift(1)), -10, 0, 14, 3)
    coeffs = list(E.term(0).coeffs)
    coeffs[3] = Fraction(1)
    bad = E.with_terms([SSeries(coeffs, E.term(0).trunc_order)])
    assert not gf_consistency_check(bad, 6)


def test_gf_consistency_needs_source():
    from opcalc import DXExpansion, ConvergenceCertificate

    E = DXExpansion(
        terms=(SSeries((1,) + (0,) * 10, 10),),
        complete=True,
        certificate=ConvergenceCertificate("finite", ((0, 0),)),
        source=None,
    )
    with pytest.raises(ValueError):
        gf_consistency_check(E, 4)


# ----------------------------------------------------------------------
# the counterexample sum


def test_counterexample_small_values():
    # direct summation: S(1) = 1 + (1)_1 (2)_1, S(2) = 1 + (2)_1(3)_1 + (2)_2(4)_2
    assert counterexample_S(0) == 1
    assert counterexample_S(1) == 1 + 1 * 2
    assert counterexample_S(2) == 1 + 2 * 3 + 2 * 1 * 4 * 3
    assert counterexample_S(2) == 31


def test_counterexample_growth_bound():
    for n in range(11):
        assert counterexample_S(n) >= factorial(n) ** 2


def test_counterexample_not_polynomial():
    samples = [counterexample_S(n) for n in range(11)]
    fit = fit_diagonal(0, samples, 10, 3)
    assert fit.verdict == "not_polynomial"
    assert fit.evidence_order == 7
