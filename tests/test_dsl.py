import random

import pytest

from opcalc import (
    Compose,
    D,
    Delta,
    Eval0,
    Identity,
    J,
    ParseError,
    Poly,
    PolyInX,
    Scale,
    SeriesInD,
    Shift,
    Substitute,
    X,
    op_equal_upto,
    parse_operator,
    rat,
    render_operator,
)

from helpers import random_operator


def test_commutator_parses_to_identity():
    assert op_equal_upto(parse_operator("D X - X D"), Identity(), 10)


def test_atoms():
    assert parse_operator("E(1/2)") == Shift(rat("1/2"))
    assert parse_operator("E(-2)") == Shift(rat(-2))
    assert parse_operator("Eval0") == Eval0()
    assert parse_operator("sub(x^2 - x)") == Substitute(Poly.parse("x^2 - x"))
    assert parse_operator("poly(1/2*x)") == PolyInX(Poly.parse("1/2*x"))
    s = parse_operator("series(t^2 - 1/3*t^3)")
    assert isinstance(s, SeriesInD) and s.exact
    assert s.f.order() == 2


def test_juxtaposition_is_composition():
    Q = parse_operator("E(1) J")
    # apply J first, then shift
    assert Q.apply(Poly.monomial(1)) == Poly.parse("1/2*x^2 + x + 1/2")


def test_scalar_and_power():
    assert op_equal_upto(parse_operator("2 * D X"), Scale(rat(2), Compose(D(), X())), 8)
    assert op_equal_upto(parse_operator("Delta^2"), Delta() * Delta(), 8)
    assert op_equal_upto(parse_operator("(D + X)^2"), (D() + X()) ** 2, 6)
    assert op_equal_upto(parse_operator("-J"), Scale(rat(-1), J()), 6)
    assert op_equal_upto(parse_operator("3/2 * I"), Scale(rat("3/2"), Identity()), 4)


def test_sum_binds_looser_than_composition():
    Q = parse_operator("D X - X D")
    assert isinstance(Q, type(D() + D()))  # an Add node
    R = parse_operator("J Delta + 3 * E(-2)")
    assert op_equal_upto(R, J() * Delta() + 3 * Shift(-2), 8)


def test_roundtrip_corpus_of_fifty():
    hand = [
        "D", "X", "I", "J", "Delta", "Eval0", "E(1)", "E(-1)", "E(1/2)",
        "D X - X D", "Delta^2", "X^3 D^2", "2 * D X", "-J", "- D + X",
        "sub(x^2 - x)", "sub(x + 1)", "poly(1/2*x)", "poly(x^2 - 1/2*x + 3)",
        "series(t - 1/2*t^2)", "series(t^2 - 1/3*t^3)",
        "J Delta + 3 * E(-2)", "(D + X)^2", "1/2 * (D - X) J",
        "E(2) J Delta", "sub(x + 1) - E(1)", "Delta J - J Delta",
        "X X D D", "(J + D)^3", "5 * I - Eval0",
    ]
    rng = random.Random(53)
    generated = [render_operator(random_operator(rng)) for _ in range(20)]
    corpus = hand + generated
    assert len(corpus) == 50
    for text in corpus:
        op = parse_operator(text)
        rendered = render_operator(op)
        reparsed = parse_operator(rendered)
        assert op_equal_upto(op, reparsed, 8), (text, rendered)


def test_parse_errors_carry_position_and_expectation():
    with pytest.raises(ParseError) as exc:
        parse_operator("D + ")
    assert exc.value.position is not None
    assert exc.value.expected
    with pytest.raises(ParseError) as exc:
        parse_operator("Q")
    assert "D" in exc.value.expected
    with pytest.raises(ParseError):
        parse_operator("E(x)")
    with pytest.raises(ParseError):
        parse_operator("(J")
    with pytest.raises(ParseError):
        parse_operator("2 D")  # scalar needs '*'
    with pytest.raises(ParseError):
        parse_operator("")
    with pytest.raises(ParseError):
        parse_operator("D X)")
    # Errors inside an atom body count from the start of the expression.
    with pytest.raises(ParseError) as exc:
        parse_operator("sub(x^)")
    assert exc.value.position == 6 and exc.value.expected == ("integer",)
    with pytest.raises(ParseError) as exc:
        parse_operator("D poly(x + )")
    assert exc.value.position == 11 and "x" in exc.value.expected


def test_series_budget_is_exact():
    # series literals act exactly on any degree
    Q = parse_operator("series(t)")
    assert Q.apply(Poly.monomial(9)) == Poly.parse("9*x^8")
