"""Polynomial arithmetic, parsing, printing, evaluation, differentials."""

from __future__ import annotations

import random
import re
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ciforge import (
    QQ,
    NotHomogeneousError,
    ParseError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    ProjectivePoint,
    RingMismatchError,
    differential_at,
    evaluate,
    parse_polynomial,
    reduced_groebner,
)

from oracles import reference_parse

FIELDS = (QQ, PrimeField(7), PrimeField(32003))


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

    def test_int_coefficients_reduced_over_fp(self):
        ring = PolynomialRing(PrimeField(7), ("x", "y"))
        f = Polynomial(ring, {(1, 0): 7, (0, 1): 3})
        assert f.terms == {(0, 1): 3}
        assert str(f) == "3*y"
        assert str(f + f) == "6*y"
        assert (f * 7).is_zero() and (f * 3).terms == {(0, 1): 2}
        assert Polynomial(ring, {(1, 0): -1, (0, 1): 10}).terms == {(1, 0): 6, (0, 1): 3}
        assert Polynomial(ring, {(1, 0): 14}).is_zero()
        assert reduced_groebner([f]).elements == (ring.variable(1),)

    def test_int_coefficients_become_fractions_over_q(self, p2):
        half = Fraction(1, 2)
        f = Polynomial(p2, {(1, 0, 0): 3, (0, 1, 0): half})
        assert type(f.terms[(1, 0, 0)]) is Fraction
        assert f.terms[(0, 1, 0)] is half
        assert str(f / 2) == "3/2*x + 1/4*y"


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

    @pytest.mark.parametrize(
        "text, position",
        [
            ("y + 10^2150*x*10^2151", 4),  # a product of numbers
            ("y - (10^2200*x + y)^2", 4),  # a product of sums
            ("9*10^4299*x + 10^4299*x", 14),  # a sum of coefficients
            ("y + 1/10^4300*x", 4),  # a denominator
        ],
        ids=["numbers", "sums", "sum", "denominator"],
    )
    def test_coefficient_too_long_to_print(self, p2, text, position):
        # Every coefficient over Q must stay printable (4300 digits by
        # default); the error names the term that first passes the limit.
        with pytest.raises(ParseError, match="too many digits") as info:
            parse_polynomial(text, p2)
        assert info.value.position == position
        fits = parse_polynomial("10^4299*x - 1/10^4299*y", p2)
        assert str(fits).startswith("1" + "0" * 4299 + "*x")


@st.composite
def field_polys(draw):
    """A polynomial in x, y, z over Q, F_7 or F_32003 with up to six terms."""
    ring = PolynomialRing(draw(st.sampled_from(FIELDS)), ("x", "y", "z"))
    rational = ring.field is QQ
    n_terms = draw(st.integers(0, 6))
    terms = {}
    for _ in range(n_terms):
        exps = tuple(draw(st.integers(0, 4)) for _ in range(3))
        num = draw(st.integers(-9, 9) if rational else st.integers(-40000, 40000))
        den = draw(st.integers(1, 9)) if rational else 1
        terms[exps] = ring.field.div(ring.field.scalar(num), ring.field.scalar(den))
    return Polynomial(ring, terms)


@given(field_polys())
def test_print_parse_fixed_point(f):
    assert parse_polynomial(str(f), f.ring) == f


# -- the parser against the reference parser ----------------------------------


@st.composite
def expression_texts(draw, rational: bool, depth: int = 2) -> str:
    """An expression in x, y, z: signed terms, each a ``*`` chain of integer
    or (over Q) rational literals, variables and parenthesised expressions,
    each optionally raised to ``^0``..``^4``, with a term that cancels
    another now and then."""
    pieces = []
    for i in range(draw(st.integers(1, 3 if depth else 4))):
        signs = ["", "-", "+"] if i == 0 else [" + ", " - ", "-", "+"]
        pieces.append(draw(st.sampled_from(signs)) + draw(term_texts(rational, depth)))
    if draw(st.booleans()):
        cancelled = draw(term_texts(rational, depth))
        pieces.insert(draw(st.integers(1, len(pieces))), f" + {cancelled} - {cancelled}")
    return "".join(pieces)


@st.composite
def term_texts(draw, rational: bool, depth: int) -> str:
    factors = []
    for _ in range(draw(st.integers(1, 4))):
        kinds = ["integer", "variable", "variable"]
        if rational:
            kinds.append("rational")
        if depth:
            kinds.append("sum")
        kind = draw(st.sampled_from(kinds))
        if kind == "integer":
            factor = str(draw(st.integers(0, 40)))
        elif kind == "rational":
            factor = f"{draw(st.integers(0, 40))}/{draw(st.integers(1, 12))}"
        elif kind == "variable":
            factor = draw(st.sampled_from(["x", "y", "z"]))
        else:
            factor = "(" + draw(expression_texts(rational, depth - 1)) + ")"
        if draw(st.integers(0, 2)) == 0:
            factor += f"^{draw(st.integers(0, 4))}"
        factors.append(factor)
    return "*".join(factors)


@st.composite
def field_expressions(draw):
    ring = PolynomialRing(draw(st.sampled_from(FIELDS)), ("x", "y", "z"))
    return ring, draw(expression_texts(ring.field is QQ))


def parse_outcome(parse, text, ring):
    """The terms in the order they were made, with their types, or the
    error's message and position."""
    try:
        f = parse(text, ring)
    except ParseError as exc:
        return "error", str(exc), exc.position
    return "parsed", [(e, c, type(c)) for e, c in f.terms.items()]


@settings(deadline=None, max_examples=150)
@given(field_expressions())
def test_parser_agrees_with_reference_parser(ring_and_text):
    ring, text = ring_and_text
    outcome = parse_outcome(parse_polynomial, text, ring)
    assert outcome[0] == "parsed"
    assert outcome == parse_outcome(reference_parse, text, ring)


@settings(deadline=None, max_examples=150)
@given(field_expressions(), st.data())
def test_parser_agrees_with_reference_parser_on_damaged_text(ring_and_text, data):
    ring, text = ring_and_text
    i = data.draw(st.integers(0, len(text) - 1))
    replacement = data.draw(st.sampled_from(["", *"0379/xyzw+-*^() ?."]))
    damaged = text[:i] + replacement + text[i + 1 :]
    # Damage may join digits into a large exponent on a sum; keep it cheap.
    assume(all(int(e) <= 6 for e in re.findall(r"\^\s*(\d+)", damaged)))
    assert parse_outcome(parse_polynomial, damaged, ring) == parse_outcome(
        reference_parse, damaged, ring
    )


def test_print_is_grevlex_descending(p3):
    f = parse_polynomial("T3^2 + T0*T3 + T1*T2 + T0^2 + T2 + 1", p3)
    assert str(f) == "T0^2 + T1*T2 + T0*T3 + T3^2 + T2 + 1"


class TestDegrees:
    def test_zero_degree_is_none(self, p2):
        assert p2.zero().degree is None

    def test_mixed_degrees_raise(self, p2):
        f = parse_polynomial("x + y^2", p2)
        with pytest.raises(NotHomogeneousError, match="degrees 1 to 2"):
            f.degree

    def test_plain_degree(self, p2):
        assert parse_polynomial("x*y - z^2", p2).degree == 2


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

    def test_point_from_another_field(self, p2):
        ring = PolynomialRing(PrimeField(7), ("x", "y"))
        f = parse_polynomial("x - 4*y", ring)
        for coords in [
            (Fraction(1, 2), Fraction(0)),  # rationals
            (1, 9),  # an int outside [0, 7)
        ]:
            x = ProjectivePoint(coords)
            with pytest.raises(RingMismatchError, match="outside fp:7"):
                evaluate(f, x)
        with pytest.raises(RingMismatchError, match="outside q"):
            evaluate(p2.variable(0), ProjectivePoint((1, 2, 3)))
        assert evaluate(f, ProjectivePoint((4, 1))) == 0


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

    def test_point_from_another_field(self):
        ring = PolynomialRing(PrimeField(7), ("x", "y"))
        x = ProjectivePoint((Fraction(1, 2), Fraction(1)))
        with pytest.raises(RingMismatchError, match="outside fp:7"):
            differential_at(parse_polynomial("x*y", ring), x)

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
