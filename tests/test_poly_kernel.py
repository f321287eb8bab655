"""Differential tests of the integer-content Poly kernel against sympy.

Every operation is recomputed with ``sympy.Poly(..., domain=QQ)``, which
shares no code with opcalc, and every result is checked for the canonical
form: a positive denominator, ``gcd(den, *nums) == 1``, no trailing zero,
and zero stored as ``((), 1)``.  Hypothesis runs derandomized, so the
examples are the same on every run.
"""

from fractions import Fraction
from math import gcd

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from opcalc import ParseError, Poly, PolyInX, parse_operator
from opcalc.poly import combine, coordinates, parse_poly, render_poly

X = sympy.Symbol("x")

SETTINGS = settings(derandomize=True, max_examples=30, deadline=None)

small = st.fractions(min_value=-40, max_value=40, max_denominator=12)
# Numerators and denominators beyond 2^64 force Kronecker digits wider
# than a machine word.
big = st.builds(
    Fraction,
    st.integers(-(2**90), 2**90),
    st.integers(1, 2**70),
)
coeff = st.one_of(small, small, big, st.just(Fraction(0)))
polys = st.lists(coeff, max_size=10).map(Poly)
scalars = st.one_of(small, big)


def to_sympy(p: Poly) -> sympy.Poly:
    cs = [sympy.Rational(c.numerator, c.denominator) for c in reversed(p.coeffs)]
    return sympy.Poly(cs or [0], X, domain=sympy.QQ)


def from_sympy(f: sympy.Poly) -> Poly:
    return Poly(Fraction(int(c.p), int(c.q)) for c in reversed(f.all_coeffs()))


def to_rational(c: Fraction) -> sympy.Rational:
    return sympy.Rational(c.numerator, c.denominator)


def assert_canonical(p: Poly) -> None:
    assert isinstance(p.nums, tuple)
    assert all(type(n) is int for n in p.nums)
    assert type(p.den) is int and p.den > 0
    if p.nums:
        assert p.nums[-1] != 0
        assert gcd(p.den, *p.nums) == 1
    else:
        assert (p.nums, p.den) == ((), 1)
    assert p.coeffs == tuple(Fraction(n, p.den) for n in p.nums)


def check(result: Poly, expected: sympy.Poly) -> None:
    assert_canonical(result)
    assert result == from_sympy(expected)
    assert to_sympy(result) == expected


@SETTINGS
@given(polys, polys)
def test_mul_matches_sympy(p, q):
    check(p * q, to_sympy(p) * to_sympy(q))


@SETTINGS
@given(polys, polys)
def test_add_sub_neg_match_sympy(p, q):
    check(p + q, to_sympy(p) + to_sympy(q))
    check(p - q, to_sympy(p) - to_sympy(q))
    check(-p, -to_sympy(p))


@SETTINGS
@given(polys, scalars)
def test_scale_matches_sympy(p, c):
    check(p.scale(c), to_sympy(p) * to_rational(c))
    check(c * p, to_sympy(p) * to_rational(c))


@SETTINGS
@given(polys)
def test_derivative_and_integral_match_sympy(p):
    check(p.derivative(), to_sympy(p).diff(X))
    check(p.integral(), to_sympy(p).integrate(X))


@SETTINGS
@given(polys, scalars)
def test_eval_matches_sympy(p, a):
    got = p.eval(a)
    assert isinstance(got, Fraction)
    assert to_rational(got) == to_sympy(p).eval(to_rational(a))


@SETTINGS
@given(st.lists(small, max_size=6).map(Poly), st.lists(small, max_size=4).map(Poly))
def test_compose_matches_sympy(p, q):
    check(p.compose(q), to_sympy(p).compose(to_sympy(q)))


@SETTINGS
@given(polys, scalars)
def test_shift_matches_sympy(p, a):
    check(p.shift(a), to_sympy(p).shift(to_rational(a)))


# The shifts the synthetic division treats alike or apart: none, an
# integer of either sign, a proper fraction, and one whose numerator and
# denominator pass a machine word.
SHIFTS = (Fraction(0), Fraction(1), Fraction(-1), Fraction(-2, 3), Fraction(-(2**90) - 1, 3**45))


@st.composite
def wide_polys(draw):
    """Polynomials of degree exactly 16..64."""
    d = draw(st.integers(16, 64))
    return Poly([*draw(st.lists(coeff, min_size=d, max_size=d)), draw(scalars.filter(bool))])


@SETTINGS
@given(wide_polys(), st.one_of(st.sampled_from(SHIFTS), big))
def test_shift_matches_sympy_at_degrees_16_to_64(p, a):
    assert 16 <= p.degree <= 64
    check(p.shift(a), to_sympy(p).shift(to_rational(a)))


@pytest.mark.parametrize("a", SHIFTS)
@pytest.mark.parametrize(
    "p",
    [
        Poly(),
        Poly.const(5),
        Poly.const(Fraction(-7, 2**70)),
        Poly.monomial(16, Fraction(-2, 3)),
        Poly.monomial(64),
        Poly([Fraction((-1) ** k * (k + 1), 1 + k % 5) for k in range(65)]),
    ],
    ids=["zero", "const", "big-const", "x^16", "x^64", "dense-64"],
)
def test_shift_of_zero_constants_and_monomials_matches_sympy(p, a):
    check(p.shift(a), to_sympy(p).shift(to_rational(a)))
    check(p.shift(a).shift(-a), to_sympy(p))


@SETTINGS
@given(polys, polys, polys)
def test_equal_polys_from_different_paths_hash_alike(p, q, r):
    left, right = (p + q) * r, p * r + q * r
    assert left == right and hash(left) == hash(right)
    assert Poly(p.coeffs) == p and hash(Poly(p.coeffs)) == hash(p)
    assert Poly.parse(str(p)) == p
    assert Poly.parse(render_poly(p, var="t"), var="t") == p
    assert parse_operator(f"poly({p})") == PolyInX(p)
    assert parse_operator(f"series({render_poly(p, var='t')})").f.poly == p
    zero = p - p
    assert zero == Poly() and hash(zero) == hash(Poly())
    assert (zero.nums, zero.den) == ((), 1)


# One grammar: a text is a polynomial on its own exactly when it is one as
# the body of the poly(...) atom.
BOTH_ACCEPT = ["3x", "x^2+x", "x + x", "x ^ 2", "-1/2*x"]
BOTH_REFUSE = ["", "x^", "1/ x", "y + 1", "--x", "x x", "2**x", "1/0"]


@pytest.mark.parametrize("text", BOTH_ACCEPT)
def test_poly_text_and_poly_atom_accept_alike(text):
    assert parse_operator(f"poly({text})") == PolyInX(parse_poly(text))


@pytest.mark.parametrize("text", BOTH_REFUSE)
def test_poly_text_and_poly_atom_refuse_alike(text):
    with pytest.raises(ParseError):
        parse_poly(text)
    with pytest.raises(ParseError):
        parse_operator(f"poly({text})")


def test_constructor_is_canonical():
    p = Poly([Fraction(2, 4), Fraction(-3, 6), 0, 0])
    assert (p.nums, p.den) == ((1, -1), 2)
    assert (Poly([6, 4, 0]).nums, Poly([6, 4, 0]).den) == ((6, 4), 1)
    q = Poly([Fraction(4, 6), Fraction(2, 9)])
    assert (q.nums, q.den) == ((6, 2), 9)
    for z in (Poly(), Poly([0, 0]), Poly.monomial(3, 0), Poly([1]).scale(0)):
        assert (z.nums, z.den) == ((), 1)


def test_cancellation_is_normalised():
    # Products and sums whose common factor only appears in the result.
    a = Poly([Fraction(1, 3), Fraction(2, 3)])
    b = Poly([3, 6])
    assert_canonical(a * b)
    assert a * b == Poly([1, 4, 4])
    c = Poly([Fraction(1, 2), Fraction(1, 2)]) + Poly([Fraction(1, 2), Fraction(-1, 2)])
    assert (c.nums, c.den) == ((1,), 1)
    assert_canonical(Poly([Fraction(1, 2), 0, Fraction(1, 2)]).derivative())
    assert_canonical(Poly([0, 2, 3]).integral())


def test_coeffs_view_is_read_only():
    p = Poly([Fraction(1, 2), 3])
    assert p.coeffs == (Fraction(1, 2), Fraction(3))
    assert p.coeffs is p.coeffs
    with pytest.raises(AttributeError):
        p.nums = (1,)
    with pytest.raises(AttributeError):
        p.coeffs = ()
    assert p.coeff(0) == Fraction(1, 2) and p.coeff(5) == 0 and p.lead == 3


# Kronecker edge cases: every digit width from one byte to several words,
# with the extreme product coefficient min(la, lb) * max|a| * max|b|.

EDGE_CASES = [
    ([-1, -2, -3], [-4, 5, -6]),
    ([1, 0, 0, 2], [0, 3, 0, -1]),
    ([0, 0, 5], [1, -1, 1, -1, 1]),
    ([7], [1, -2, 0, 3]),
    ([0, 0, 0, -7], [1, -2, 0, 3]),
    ([1, 1], [1, -1]),
    ([2**64 + 1, -(2**65), 3], [-(2**80), 1, 2**64]),
    ([-(2**100), 0, 2**100 - 1], [2**64 - 1, 2**63, -(2**63)]),
]


@pytest.mark.parametrize("a, b", EDGE_CASES)
def test_kronecker_edge_cases(a, b):
    p, q = Poly(a), Poly(b)
    check(p * q, to_sympy(p) * to_sympy(q))
    check(q * p, to_sympy(p) * to_sympy(q))


@pytest.mark.parametrize("bits", [1, 3, 4, 7, 8, 12, 15, 16, 24, 31, 32, 48, 63, 64, 65, 100, 257])
@pytest.mark.parametrize("n", [2, 5, 17])
def test_kronecker_extreme_coefficients(bits, n):
    top = 2**bits - 1
    dense = Poly([top] * n)
    alternating = Poly([top * (-1) ** i for i in range(n)])
    negative = Poly([-top] * n)
    for p, q in [(dense, negative), (dense, dense), (alternating, dense), (negative, negative)]:
        check(p * q, to_sympy(p) * to_sympy(q))
    # The middle coefficient reaches the digit bound exactly.
    assert (dense * negative).nums[n - 1] == -n * top * top


def test_kronecker_rational_operands():
    p = Poly([Fraction(-1, 3), 0, Fraction(5, 7), Fraction(2**70, 3)])
    q = Poly([Fraction(3, 2**66), Fraction(-9, 4)])
    check(p * q, to_sympy(p) * to_sympy(q))


# ----------------------------------------------------------------------
# Change of basis against a triangular basis: coordinates and combine.

nonzero = st.one_of(small, big).filter(bool)


@st.composite
def triangular(draw, max_size=8):
    """(basis list, coordinates): basis[k] of degree exactly k with a
    non-monic pivot, and coordinates of which about a third are zero."""
    n = draw(st.integers(1, max_size))
    basis = [
        Poly([*draw(st.lists(coeff, min_size=k, max_size=k)), draw(nonzero)]) for k in range(n)
    ]
    coords = draw(st.lists(st.one_of(st.just(Fraction(0)), small, big), min_size=n, max_size=n))
    return basis, coords


@SETTINGS
@given(triangular())
def test_coordinates_and_combine_round_trip(case):
    basis, coords = case
    p = combine(coords, basis.__getitem__)
    check(p, sum((to_rational(c) * to_sympy(b) for c, b in zip(coords, basis)), to_sympy(Poly())))
    got = coordinates(p, basis.__getitem__)
    assert len(got) == len(p.nums)
    assert got + [0] * (len(coords) - len(got)) == coords


@SETTINGS
@given(triangular())
def test_coordinates_of_a_basis_element_is_a_unit_vector(case):
    basis, _ = case
    for k, b in enumerate(basis):
        assert coordinates(b, basis.__getitem__) == [0] * k + [1]


@SETTINGS
@given(triangular())
def test_basis_is_called_only_at_nonzero_coefficients(case):
    basis, coords = case
    for solve, arg in ((combine, coords), (coordinates, combine(coords, basis.__getitem__))):
        calls = []
        solve(arg, lambda k: calls.append(k) or basis[k])
        assert sorted(calls) == [k for k, c in enumerate(coords) if c != 0]


def test_coordinates_of_zero_is_empty():
    assert coordinates(Poly(), lambda k: 1 / 0) == []
    assert combine([0, 0], lambda k: 1 / 0) == Poly()


def test_coordinates_refuses_a_basis_that_is_not_triangular():
    # basis(k) = x^k + x^(k+1) has degree k + 1: each elimination adds a
    # term above x^k that no later step removes.
    with pytest.raises(ValueError, match="not a triangular basis"):
        coordinates(Poly.parse("x^2 + x"), lambda k: Poly.monomial(k) + Poly.monomial(k + 1))
