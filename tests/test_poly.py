"""Polynomial arithmetic, parsing, printing, evaluation, differentials."""

from __future__ import annotations

import math
import random
import re
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from ciforge import (
    QQ,
    BuchbergerTimeout,
    NotHomogeneousError,
    ParseError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    ProjectivePoint,
    RingMismatchError,
    basis_time_limit,
    differential_at,
    evaluate,
    parse_polynomial,
    reduced_groebner,
)
from ciforge import errors, poly
from ciforge.poly import (
    grevlex_key,
    monomial_divides,
    monomial_layout,
    monomial_mul,
)

from oracles import (
    reference_differential_at,
    reference_evaluate,
    reference_format_polynomial,
    reference_parse,
)

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

    @pytest.mark.parametrize("phase", ["multiplication", "parsing"])
    def test_product_stops_within_one_row_of_the_time_limit(self, monkeypatch, phase):
        ring = PolynomialRing(QQ, tuple(f"T{i}" for i in range(4)))
        total = sum((ring.variable(i) for i in range(4)), ring.zero())
        a, b = total**4, total**3  # 35 and 20 terms

        def multiply():
            if phase == "multiplication":
                return (a * b).terms
            return poly.mul_terms(QQ, a.terms, b.terms, phase)

        calls, expiry = 0, math.inf

        def monotonic():
            nonlocal calls
            calls += 1
            return 0.0 if calls < expiry else math.inf

        monkeypatch.setattr(errors.time, "monotonic", monotonic)
        with basis_time_limit(3600.0):
            product = multiply()
        # One clock read to set the limit, then one per row of the product.
        assert calls == 1 + len(a.terms)
        assert product == (a * b).terms
        calls, expiry = 0, 11
        with basis_time_limit(3600.0):
            with pytest.raises(BuchbergerTimeout, match=f"{phase} exceeded"):
                multiply()
        # The limit passed before the tenth row, which stopped the product.
        assert calls == expiry

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


@st.composite
def printable_polys(draw):
    """A polynomial in x, y, z over Q, F_7 or F_32003: up to six terms, a
    constant among them at times, with coefficients of either sign around
    one or with up to 20-digit numerators and 12-digit denominators."""
    ring = PolynomialRing(draw(st.sampled_from(FIELDS)), ("x", "y", "z"))
    field = ring.field
    small = st.integers(-2, 2)
    numerators = st.one_of(small, st.integers(-(10**20), 10**20))
    denominators = st.one_of(st.integers(1, 2), st.integers(1, 10**12))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        exps = tuple(draw(st.integers(0, 3)) for _ in range(3))
        value = field.scalar(draw(numerators))
        if field is QQ:
            value = field.div(value, field.scalar(draw(denominators)))
        terms[exps] = value
    return Polynomial(ring, terms)


@settings(max_examples=300)
@given(printable_polys())
def test_print_form_matches_the_reference_printer(f):
    # The printed form is hashed into every certificate's input fingerprint,
    # so it must not change by a byte.
    assert str(f) == reference_format_polynomial(f)


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


# Tops on both sides of each step in the width of a layout's fields.
LAYOUT_TOPS = (0, 1, 3, 4, 7, 8, 15, 16)


def monomials_up_to(num_vars, top):
    """Exponent tuples of total degree at most ``top``: each exponent is cut
    to what the ones before it leave."""

    def cut(exponents):
        left, out = top, []
        for e in exponents:
            out.append(min(e, left))
            left -= out[-1]
        return tuple(out)

    return st.lists(st.integers(0, top), min_size=num_vars, max_size=num_vars).map(cut)


class TestMonomialLayout:
    """One integer per monomial carries grevlex order, products and
    divisibility for every monomial of degree at most the layout's top."""

    @settings(max_examples=300)
    @given(data=st.data())
    def test_packing_keeps_order_products_and_divisibility(self, data):
        n = data.draw(st.integers(2, 12), label="variables")
        top = data.draw(st.sampled_from(LAYOUT_TOPS), label="top")
        layout = monomial_layout(n, top)
        a = data.draw(monomials_up_to(n, top), label="a")
        b = data.draw(monomials_up_to(n, top), label="b")
        pa, pb = layout.pack(a), layout.pack(b)
        assert layout.unpack(pa) == a
        assert (pa > pb) == (grevlex_key(a) < grevlex_key(b))
        assert (pa == pb) == (a == b)
        assert (not (pb - pa) & layout.guard) == monomial_divides(a, b)
        assert (not (pa - pb) & layout.guard) == monomial_divides(b, a)
        c = data.draw(monomials_up_to(n, top - sum(a)), label="c")
        ac = monomial_mul(a, c)
        assert pa + layout.pack(c) == layout.pack(ac)
        assert layout.unpack(pa + layout.pack(c)) == ac
        more = data.draw(st.lists(monomials_up_to(n, top), max_size=40), label="more")
        assert sorted(more, key=layout.pack, reverse=True) == sorted(more, key=grevlex_key)

    def test_packed_order_is_grevlex_on_every_small_monomial(self):
        for n in (2, 3, 4):
            for top in LAYOUT_TOPS:
                layout = monomial_layout(n, top)
                every = [e for e in product(range(top + 1), repeat=n) if sum(e) <= top]
                assert sorted(every, key=layout.pack, reverse=True) == sorted(
                    every, key=grevlex_key
                ), (n, top)

    def test_unpacked_monomials_kept_are_bounded(self, monkeypatch):
        monkeypatch.setattr(poly, "_UNPACKED_LIMIT", 3)
        layout = poly.MonomialLayout(2, 3)
        for e in [(0, 1), (1, 0), (2, 1), (1, 1), (0, 1)]:
            assert layout.unpack(layout.pack(e)) == e
            assert len(layout._unpacked) <= 3

    def test_one_layout_per_width(self):
        assert monomial_layout(4, 4) is monomial_layout(4, 7)
        assert monomial_layout(4, 7) is not monomial_layout(4, 8)


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


@st.composite
def at_points(draw, zero_coordinates: str):
    """(homogeneous polynomial, point) over Q, F_7 or F_32003 in 2-5 variables.

    The point has no zero coordinate, one, or all but one, as
    ``zero_coordinates`` says.  A term puts its whole degree on one variable
    or spreads it at random, so zero coordinates carry exponents 1 and above;
    degree 7 over F_7 makes 7th powers, whose differentials vanish.
    """
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 5))
    ring = PolynomialRing(field, tuple(f"x{i}" for i in range(n)))
    zeros = {"none": 0, "one": 1, "all but one": n - 1}[zero_coordinates]
    order = draw(st.permutations(range(n)))
    if field is QQ:
        nonzero = st.builds(Fraction, st.integers(-(10**6), 10**6).filter(bool), st.integers(1, 50))
    else:
        nonzero = st.integers(1, field.p - 1)
    coords = [field.zero] * n
    for i in order[zeros:]:
        coords[i] = draw(nonzero)
    degree = draw(st.sampled_from((1, 2, 3, 7)))
    terms = {}
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.booleans()):
            exps = [0] * n
            exps[draw(st.integers(0, n - 1))] = degree
        else:
            picks = draw(st.lists(st.integers(0, n - 1), min_size=degree, max_size=degree))
            exps = [picks.count(i) for i in range(n)]
        terms[tuple(exps)] = draw(nonzero)
    return Polynomial(ring, terms), ProjectivePoint(tuple(coords))


@pytest.mark.parametrize("zero_coordinates", ["none", "one", "all but one"])
@settings(max_examples=60)
@given(data=st.data())
def test_point_kernel_agrees_with_the_reference_loops(zero_coordinates, data):
    f, x = data.draw(at_points(zero_coordinates))
    field = f.ring.field
    value = evaluate(f, x)
    assert value == reference_evaluate(f, x) and value in field
    gradient = differential_at(f, x)
    assert gradient == reference_differential_at(f, x)
    assert all(c in field for c in gradient)
