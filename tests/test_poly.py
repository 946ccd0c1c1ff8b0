"""Polynomial arithmetic, parsing, printing, evaluation, differentials."""

from __future__ import annotations

import json
import math
import random
import re
from contextlib import contextmanager
from fractions import Fraction
from itertools import product
from pathlib import Path

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
from ciforge import errors, parse, poly
from ciforge.certificates import parse_certificate
from ciforge.poly import (
    grevlex_key,
    monomial_divides,
    monomial_layout,
    monomial_mul,
)

from corpus import CORPUS
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
            ("9" * 4300 + "*x + " + "9" * 4300 + "*x", 4305),  # a sum of plain terms
        ],
        ids=["numbers", "sums", "sum", "denominator", "plain-sum"],
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

# Names that share a prefix, as the benchmark's files have them.
GRAMMAR_VARS = ("T0", "T1", "T10", "x")


def spaced(draw, op: str) -> str:
    """``op`` with or without a space on either side."""
    return draw(st.sampled_from(["", " "])) + op + draw(st.sampled_from(["", " "]))


@st.composite
def expression_texts(draw, rational: bool, depth: int = 2) -> str:
    """An expression in `GRAMMAR_VARS`: signed terms, each a ``*`` chain of
    integer or (over Q) rational literals, variables and parenthesised
    expressions, each optionally raised to ``^0``..``^4``, now and then led by
    an explicit ``1*`` or ``0*``, with a term that cancels another now and
    then, and spaces or none around every operator."""
    pieces = []
    for i in range(draw(st.integers(1, 3 if depth else 4))):
        sign = draw(st.sampled_from(["", "-", "+"] if i == 0 else ["-", "+"]))
        if sign and (i or draw(st.booleans())):
            sign = spaced(draw, sign)
        pieces.append(sign + draw(term_texts(rational, depth)))
    if draw(st.booleans()):
        cancelled = draw(term_texts(rational, depth))
        pieces.insert(
            draw(st.integers(1, len(pieces))),
            f"{spaced(draw, '+')}{cancelled}{spaced(draw, '-')}{cancelled}",
        )
    return "".join(pieces)


@st.composite
def term_texts(draw, rational: bool, depth: int) -> str:
    factors = []
    lead = draw(st.sampled_from(["", "", "1", "0"]))
    if lead:
        factors.append(lead)
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
            factor = draw(st.sampled_from(GRAMMAR_VARS))
        else:
            factor = "(" + draw(expression_texts(rational, depth - 1)) + ")"
        if draw(st.integers(0, 2)) == 0:
            factor += spaced(draw, "^") + str(draw(st.integers(0, 4)))
        factors.append(factor)
    text = factors[0]
    for factor in factors[1:]:
        text += spaced(draw, "*") + factor
    return text


@st.composite
def field_expressions(draw):
    ring = PolynomialRing(draw(st.sampled_from(FIELDS)), GRAMMAR_VARS)
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
    replacement = data.draw(st.sampled_from(["", *"01379/Txw+-*^() ?."]))
    damaged = text[:i] + replacement + text[i + 1 :]
    # Damage may join digits into a large exponent on a sum; keep it cheap.
    assume(all(int(e) <= 6 for e in re.findall(r"\^\s*(\d+)", damaged)))
    assert parse_outcome(parse_polynomial, damaged, ring) == parse_outcome(
        reference_parse, damaged, ring
    )


@contextmanager
def token_loop_counted(raises: bool = False):
    """Count the terms the parser reads token by token, or fail on the first."""
    calls = []
    term = parse._Parser.term

    def counted(self, negative):
        calls.append(self.pos)
        if raises:
            raise AssertionError(f"token loop at {self.pos} in {self.text!r}")
        return term(self, negative)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(parse._Parser, "term", counted)
        yield calls


# Texts that look like plain terms but are not: the token loop reads each,
# and parses it or raises the reference parser's error.
FALLBACKS = [
    ("T0*U9*T1", FIELDS, ("unknown variable 'U9'", 3)),
    ("T1 + 1/0*T0", (QQ,), ("bad rational literal '1/0'", 5)),
    ("2/3*T0", FIELDS[1:], ("rational literals are only accepted over the rationals", 0)),
    ("T0^" + "9" * 4301, FIELDS, ("exponent has too many digits", 3)),
    ("T0 + " + "9" * 4301 + "*T1", (QQ,), (f"bad rational literal '{'9' * 4301}'", 5)),
    ("T0^", FIELDS, ("exponent must be a nonnegative integer", 3)),
    ("2*3*T0", FIELDS, None),
    ("T0^2^3", FIELDS, ("unexpected '^'", 4)),
    ("T0 2", FIELDS, ("unexpected '2'", 3)),
    ("2T0", FIELDS, ("unexpected 'T0'", 1)),
    ("T0*-T1", FIELDS, ("expected a number, variable, or parenthesized expression", 3)),
    ("--T0", FIELDS, ("expected a number, variable, or parenthesized expression", 1)),
    ("T0 +", FIELDS, ("expected a number, variable, or parenthesized expression", 4)),
    ("T0 + 2^3*T1 - 1*T10", FIELDS, None),
    ("-T1*(T0 - T10)", FIELDS, None),
]


@pytest.mark.parametrize(
    "text, field, error",
    [
        pytest.param(text, field, error, id=f"{text[:12]}-{field}")
        for text, fields, error in FALLBACKS
        for field in fields
    ],
)
def test_the_token_loop_reads_what_is_not_a_plain_term(text, field, error):
    ring = PolynomialRing(field, GRAMMAR_VARS)
    with token_loop_counted() as calls:
        outcome = parse_outcome(parse_polynomial, text, ring)
    assert calls
    if error is None:
        assert outcome[0] == "parsed"
    else:
        message, position = error
        assert outcome == ("error", f"{message} (at position {position})", position)
    assert outcome == parse_outcome(reference_parse, text, ring)


@pytest.mark.parametrize(
    "text, message, position",
    [
        ("U9*T0 + ?", "unexpected character '?'", 8),
        ("1/0*T0 - 3 / 4*T1", "division is not supported outside rational literals", 11),
        ("T0^100000000 - ?", "unexpected character '?'", 15),
        ("(T0 + T1)^100000 + T1/T0", "division is not supported outside rational literals", 21),
    ],
)
def test_a_character_outside_the_grammar_is_reported_before_anything_else(
    text, message, position
):
    # The whole text is scanned before any term is read, so no term's error,
    # exponent charge or product comes first.
    ring = PolynomialRing(QQ, GRAMMAR_VARS)
    with token_loop_counted() as calls, basis_time_limit(2.0):
        outcome = parse_outcome(parse_polynomial, text, ring)
    assert outcome == ("error", f"{message} (at position {position})", position)
    assert calls == []
    if "^" not in text:
        assert outcome == parse_outcome(reference_parse, text, ring)


def test_every_golden_and_corpus_polynomial_is_read_as_plain_terms():
    # The printed form must never reach the token loop: every corpus
    # generator's, over every field, and every polynomial in the golden
    # certificates parse with the token loop made to fail.
    golden = json.loads((Path(__file__).parent / "golden_certificates.json").read_text())
    gens = [g for entry in CORPUS for field in FIELDS for g in entry.over(field).gens]
    with token_loop_counted(raises=True) as calls:
        assert [parse_polynomial(str(g), g.ring) for g in gens] == gens
        for text in golden.values():
            assert parse_certificate(text)
    assert calls == []


@settings(max_examples=100)
@given(printable_polys())
def test_the_printed_form_is_read_as_plain_terms(f):
    with token_loop_counted(raises=True):
        assert parse_polynomial(str(f), f.ring) == f


class TestExpansionLimit:
    """A product or power of parenthesised sums that could pass
    `parse.MAX_TERMS` terms is refused before it is built; a sum is not."""

    SUM20 = "(" + " + ".join(f"T{i}" for i in range(20)) + ")"
    RING20 = PolynomialRing(QQ, tuple(f"T{i}" for i in range(20)))

    def test_a_dense_power_is_refused_before_any_product(self, monkeypatch):
        monkeypatch.setattr(parse, "MAX_TERMS", 100)

        def no_product(*args):
            raise AssertionError("a product was built")

        monkeypatch.setattr(parse, "mul_terms", no_product)
        with pytest.raises(ParseError) as info:
            parse_polynomial(f"T1 - {self.SUM20}^9 - T0^9", self.RING20)
        assert str(info.value) == "expansion could exceed the limit of 100 terms (at position 5)"
        assert info.value.position == 5

    def test_a_power_within_the_limit_parses(self, monkeypatch):
        monkeypatch.setattr(parse, "MAX_TERMS", 100)
        f = parse_polynomial("(T0 + T1)^50", self.RING20)
        assert len(f.terms) == 51
        assert f == reference_parse("(T0 + T1)^50", self.RING20)
        # C(19 + 1, 1) = 20 terms, then C(19 + 2, 2) = 210.
        assert len(parse_polynomial(f"{self.SUM20}^1", self.RING20).terms) == 20
        with pytest.raises(ParseError, match="limit of 100 terms"):
            parse_polynomial(f"{self.SUM20}^2", self.RING20)

    def test_a_product_past_the_limit_is_refused(self, monkeypatch, p2):
        # Two 6-term sums multiplied: at most 36 terms.
        text = "x + (x + y + z)^2*(x + y + z)^2"
        monkeypatch.setattr(parse, "MAX_TERMS", 35)
        with pytest.raises(ParseError, match="limit of 35 terms") as info:
            parse_polynomial(text, p2)
        assert info.value.position == 4
        monkeypatch.setattr(parse, "MAX_TERMS", 36)
        assert parse_polynomial(text, p2) == reference_parse(text, p2)

    @pytest.mark.parametrize("order", ["product first", "product last", "token-loop monomial"])
    def test_a_sum_longer_than_the_limit_parses_in_any_order(self, monkeypatch, p2, order):
        monkeypatch.setattr(parse, "MAX_TERMS", 100)
        plain = " + ".join(f"x^{k}" for k in range(10, 160))
        text = {
            "product first": f"(x + y + z)^3*(x - y) + {plain}",
            "product last": f"{plain} + (x + y + z)^3*(x - y)",
            "token-loop monomial": f"{plain} + 2*3*x",
        }[order]
        f = parse_polynomial(text, p2)
        assert len(f.terms) > 100
        assert f == reference_parse(text, p2)


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
