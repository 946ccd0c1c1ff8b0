"""Polynomial arithmetic, parsing, printing, evaluation, differentials."""

from __future__ import annotations

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ciforge import (
    NOT_HOMOGENEOUS,
    QQ,
    ZERO_POLYNOMIAL,
    NotHomogeneousError,
    ParseError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    ProjectivePoint,
    RingMismatchError,
    differential_at,
    evaluate,
    homogeneous_degree,
    is_homogeneous,
    parse_polynomial,
)


@pytest.fixture
def p2():
    return PolynomialRing(QQ, ("x", "y", "z"))


class TestRing:
    def test_needs_two_vars(self):
        with pytest.raises(ValueError):
            PolynomialRing(QQ, ("x",))

    def test_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PolynomialRing(QQ, ("x", "x"))

    def test_rejects_bad_names(self):
        with pytest.raises(ValueError):
            PolynomialRing(QQ, ("x", "2y"))

    def test_constructors(self, p2):
        assert p2.zero().is_zero()
        assert str(p2.one()) == "1"
        assert str(p2.variable(1)) == "y"
        assert str(p2.monomial((1, 2, 0), 3)) == "3*x*y^2"


class TestArithmetic:
    def test_add_cancels(self, p2):
        f = parse_polynomial("x*y + z^2", p2)
        g = parse_polynomial("-x*y + z^2", p2)
        assert str(f + g) == "2*z^2"

    def test_product(self, p2):
        f = parse_polynomial("x + y", p2)
        assert str(f * f) == "x^2 + 2*x*y + y^2"

    def test_scalar_ops(self, p2):
        f = parse_polynomial("2*x - 4*y", p2)
        assert str(f / 2) == "x - 2*y"
        assert str(f * Fraction(1, 2)) == "x - 2*y"
        assert (f - f).is_zero()

    def test_pow(self, p2):
        f = parse_polynomial("x - y", p2)
        assert f**0 == p2.one()
        assert str(f**2) == "x^2 - 2*x*y + y^2"
        with pytest.raises(ValueError):
            f**-1

    def test_ring_mismatch(self, p2, p3):
        with pytest.raises(RingMismatchError):
            p2.variable(0) + p3.variable(0)

    def test_zero_terms_dropped(self, p2):
        f = Polynomial(p2, {(1, 0, 0): QQ.scalar(0), (0, 1, 0): QQ.scalar(2)})
        assert f == p2.variable(1) * 2


class TestParsing:
    def test_terms_from_expression(self, p3):
        f = parse_polynomial("T0*T2 - T1^2", p3)
        assert f.terms == {
            (1, 0, 1, 0): Fraction(1),
            (0, 2, 0, 0): Fraction(-1),
        }

    def test_parentheses_and_unary_minus(self, p2):
        f = parse_polynomial("-(x - y)*(x + y)", p2)
        assert str(f) == "-x^2 + y^2"

    def test_rational_coefficients(self, p2):
        f = parse_polynomial("1/2*x + 3/4*y", p2)
        assert f.terms[(1, 0, 0)] == Fraction(1, 2)

    def test_unknown_variable(self, p2):
        with pytest.raises(ParseError, match="unknown variable"):
            parse_polynomial("x + w", p2)

    def test_division_rejected(self, p2):
        with pytest.raises(ParseError, match="division"):
            parse_polynomial("x/y", p2)

    def test_error_position(self, p2):
        with pytest.raises(ParseError) as info:
            parse_polynomial("x + ?", p2)
        assert info.value.position == 4

    def test_zero_denominator_position(self, p2):
        with pytest.raises(ParseError, match="bad rational literal") as info:
            parse_polynomial("x + 1/0*y", p2)
        assert info.value.position == 4

    def test_trailing_garbage(self, p2):
        with pytest.raises(ParseError):
            parse_polynomial("x y", p2)

    def test_exponent_must_be_integer(self, p2):
        with pytest.raises(ParseError, match="exponent"):
            parse_polynomial("x^(2)", p2)

    def test_rational_literal_needs_q(self):
        ring = PolynomialRing(PrimeField(7), ("x", "y"))
        with pytest.raises(ParseError, match="rational literals") as caught:
            parse_polynomial("1/2*x", ring)
        assert caught.value.position == 0
        with pytest.raises(ParseError, match="rational literals") as caught:
            parse_polynomial("x + 3/4*y", ring)
        assert caught.value.position == 4
        f = parse_polynomial("9*x + 3*y", ring)
        assert str(f) == "2*x + 3*y"

    def test_empty_input(self, p2):
        with pytest.raises(ParseError):
            parse_polynomial("", p2)


@st.composite
def rational_polys(draw):
    ring = PolynomialRing(QQ, ("x", "y", "z"))
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(3))
        num = draw(st.integers(-9, 9))
        den = draw(st.integers(1, 9))
        terms[exps] = Fraction(num, den)
    return Polynomial(ring, terms)


@given(rational_polys())
def test_print_parse_fixed_point(f):
    assert parse_polynomial(str(f), f.ring) == f


def test_print_is_grevlex_descending(p3):
    f = parse_polynomial("T3^2 + T0*T3 + T1*T2 + T0^2 + T2 + 1", p3)
    assert str(f) == "T0^2 + T1*T2 + T0*T3 + T3^2 + T2 + 1"


class TestDegrees:
    def test_zero_marker(self, p2):
        assert homogeneous_degree(p2.zero()) is ZERO_POLYNOMIAL
        assert is_homogeneous(p2.zero())

    def test_mixed_marker(self, p2):
        f = parse_polynomial("x + y^2", p2)
        assert homogeneous_degree(f) is NOT_HOMOGENEOUS
        assert not is_homogeneous(f)

    def test_plain_degree(self, p2):
        assert homogeneous_degree(parse_polynomial("x*y - z^2", p2)) == 2


class TestPoint:
    def test_needs_nonzero(self):
        with pytest.raises(ValueError):
            ProjectivePoint((QQ.scalar(0), QQ.scalar(0)))

    def test_pivot(self):
        x = ProjectivePoint((QQ.scalar(0), QQ.scalar(2), QQ.scalar(1)))
        assert x.pivot == 1

    def test_str(self):
        x = ProjectivePoint((QQ.scalar(1), QQ.scalar(-1)))
        assert str(x) == "(1:-1)"


class TestEvaluate:
    def test_value(self, p2):
        f = parse_polynomial("x^2*z - y^3", p2)
        x = ProjectivePoint((QQ.scalar(2), QQ.scalar(1), QQ.scalar(3)))
        assert evaluate(f, x) == Fraction(11)

    def test_dimension_mismatch(self, p2):
        x = ProjectivePoint((QQ.scalar(1), QQ.scalar(1)))
        with pytest.raises(RingMismatchError):
            evaluate(p2.one(), x)


class TestDifferential:
    def test_hand_values(self, p3):
        f = parse_polynomial("T0*T2 - T1^2", p3)
        x = ProjectivePoint(tuple(QQ.scalar(1) for _ in range(4)))
        assert differential_at(f, x) == (
            Fraction(1),
            Fraction(-2),
            Fraction(1),
            Fraction(0),
        )

    def test_zero_polynomial_gives_zero_vector(self, p2):
        x = ProjectivePoint((QQ.scalar(1), QQ.scalar(0), QQ.scalar(0)))
        assert differential_at(p2.zero(), x) == (QQ.zero,) * 3

    def test_requires_homogeneous(self, p2):
        x = ProjectivePoint((QQ.scalar(1), QQ.scalar(1), QQ.scalar(1)))
        with pytest.raises(NotHomogeneousError):
            differential_at(parse_polynomial("x + y^2", p2), x)

    def test_char_p_kills_pth_powers(self):
        ring = PolynomialRing(PrimeField(7), ("x", "y"))
        f = parse_polynomial("x^7 + y^7", ring)
        x = ProjectivePoint((ring.field.scalar(1), ring.field.scalar(2)))
        assert differential_at(f, x) == (ring.field.zero, ring.field.zero)

    def test_euler_identity_sample(self):
        rng = random.Random(7)
        ring = PolynomialRing(QQ, ("x", "y", "z", "w"))
        for _ in range(25):
            d = rng.randint(1, 4)
            terms = {}
            for _ in range(rng.randint(1, 5)):
                exps = [0, 0, 0, 0]
                for _ in range(d):
                    exps[rng.randrange(4)] += 1
                terms[tuple(exps)] = Fraction(rng.randint(-5, 5), rng.randint(1, 3))
            f = Polynomial(ring, terms)
            if f.is_zero():
                continue
            x = ProjectivePoint(tuple(QQ.scalar(rng.randint(-3, 3)) for _ in range(3)) + (QQ.scalar(1),))
            grad = differential_at(f, x)
            total = sum((c * g for c, g in zip(x.coords, grad)), QQ.zero)
            assert total == d * evaluate(f, x)
