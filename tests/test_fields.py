"""Field arithmetic: each operation of Q and F_p against Fraction arithmetic."""

from __future__ import annotations

import math
import time
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ciforge import QQ, ParseError, PrimeField, basis_time_limit

PRIME_FIELDS = [PrimeField(7), PrimeField(32003)]


def reduced(value: Fraction, p: int) -> int:
    """The residue of a rational with denominator prime to p."""
    return value.numerator * pow(value.denominator, -1, p) % p


@pytest.mark.parametrize("field", PRIME_FIELDS, ids=str)
class TestPrimeField:
    @given(data=st.data())
    def test_operations_match_fractions_mod_p(self, field, data):
        p = field.p
        a = data.draw(st.integers(0, p - 1))
        b = data.draw(st.integers(0, p - 1))
        e = data.draw(st.integers(0, 2 * p))
        fa, fb = Fraction(a), Fraction(b)
        assert field.add(a, b) == reduced(fa + fb, p)
        assert field.sub(a, b) == reduced(fa - fb, p)
        assert field.mul(a, b) == reduced(fa * fb, p)
        assert field.neg(a) == reduced(-fa, p)
        assert field.pow(a, e) == reduced(fa**e, p)
        if b:
            assert field.div(a, b) == reduced(fa / fb, p)
            assert field.pow(b, -e) == reduced(fb**-e, p)
        results = [field.add(a, b), field.sub(a, b), field.mul(a, b), field.neg(a)]
        assert all(type(r) is int and r in field for r in results)

    @given(data=st.data())
    def test_working_form_matches_fractions_mod_p(self, field, data):
        p = field.p
        v, f, c = (data.draw(st.integers(0, p - 1)) for _ in range(3))
        a = data.draw(st.integers(1, p - 1))
        assert field.to_work({0: v}) == {0: v}
        assert field.from_work(field.to_work({0: v})) == {0: v}
        assert field.integral({0: a, 1: c}) == ({0: a, 1: c}, 1)
        assert field.ratio(v, field.divisor_form(a)) == reduced(Fraction(v, a), p)
        result = field.sub_mul(v, f, c)
        assert result == reduced(Fraction(v - f * c), p) and result in field
        assert field.sub_mul(f * c % p, f, c) == field.work_zero

    @given(
        ints=st.lists(st.integers(-(10**20), 10**20), max_size=5),
        more=st.dictionaries(st.integers(0, 9), st.integers(-(10**20), 10**20), max_size=5),
        scale=st.integers(-(10**12), 10**12),
    )
    def test_integer_form_matches_fractions_mod_p(self, field, ints, more, scale):
        p = field.p
        assert field.integral_vector([v % p for v in ints]) == ([v % p for v in ints], 1)
        small, smaller = field.primitive(ints, more)
        assert small == [v % p for v in ints]
        assert smaller == {k: v % p for k, v in more.items() if v % p}
        if scale % p:
            back = field.from_integral(more, scale)
            assert back == {k: r for k, v in more.items() if (r := reduced(Fraction(v, scale), p))}
            assert all(x in field for x in back.values())

    @given(n=st.integers(-10**6, 10**6), d=st.integers(-10**6, 10**6))
    def test_scalar_is_n_over_d(self, field, n, d):
        p = field.p
        if d % p == 0:
            with pytest.raises(ZeroDivisionError):
                field.div(field.scalar(n), field.scalar(d))
        else:
            quotient = field.div(field.scalar(n), field.scalar(d))
            assert quotient == n * pow(d, -1, p) % p
            assert quotient == reduced(Fraction(n, d), p)
        assert field.scalar(n) == n % p

    def test_division_by_zero(self, field):
        with pytest.raises(ZeroDivisionError):
            field.div(field.one, field.zero)
        with pytest.raises(ZeroDivisionError):
            field.pow(field.zero, -1)
        with pytest.raises(ZeroDivisionError):
            field.div(field.scalar(1), field.scalar(field.p))

    def test_scalars_are_ints_in_range(self, field):
        assert field.zero == 0 and field.one == 1
        assert 0 in field and field.p - 1 in field
        assert field.p not in field and -1 not in field
        assert Fraction(1) not in field and True not in field
        with pytest.raises(TypeError):
            field.scalar(Fraction(1, 2))


class TestRationalField:
    fractions = st.fractions(max_denominator=50).filter(lambda q: abs(q) < 1000)

    @given(a=fractions, b=fractions, e=st.integers(-4, 4))
    def test_operations_are_fraction_arithmetic(self, a, b, e):
        assert QQ.add(a, b) == a + b
        assert QQ.sub(a, b) == a - b
        assert QQ.mul(a, b) == a * b
        assert QQ.neg(a) == -a
        if b:
            assert QQ.div(a, b) == a / b
            assert QQ.pow(b, e) == b**e

    @given(
        v=fractions,
        f=fractions.filter(bool),
        c=st.integers(-(10**20), 10**20),
        terms=st.lists(fractions.filter(bool), min_size=1, max_size=5),
    )
    def test_working_form_is_fraction_arithmetic(self, v, f, c, terms):
        def value(w):
            n, d = w
            assert d > 0 and math.gcd(n, d) == 1  # lowest terms
            return Fraction(n, d)

        (wv,), (wf,) = QQ.to_work({0: v}).values(), QQ.to_work({0: f}).values()
        assert value(QQ.sub_mul(wv, wf, c)) == v - f * c
        assert value(QQ.sub_mul(QQ.work_zero, wf, c)) == -f * c
        assert QQ.sub_mul(wf, wf, 1) == QQ.work_zero
        if c:
            assert value(QQ.ratio(wv, QQ.divisor_form(c))) == v / c
        ints, scale = QQ.integral(dict(enumerate(terms)))
        assert scale > 0 and all(type(n) is int for n in ints.values())
        assert [Fraction(n, scale) for n in ints.values()] == terms
        back = QQ.from_work({0: wv, 1: wf}, scale)
        assert back == {0: v * scale, 1: f * scale}
        assert all(type(x) is Fraction for x in back.values())

    @given(
        values=st.lists(fractions, max_size=5),
        more=st.dictionaries(st.integers(0, 9), st.integers(-(10**20), 10**20), max_size=5),
        factor=st.integers(1, 10**6),
        scale=st.integers(-(10**12), 10**12).filter(bool),
    )
    def test_integer_form_is_fraction_arithmetic(self, values, more, factor, scale):
        ints, common = QQ.integral_vector(values)
        assert common > 0 and all(type(n) is int for n in ints)
        assert [Fraction(n, common) for n in ints] == values
        back = QQ.from_integral(more, scale)
        assert back == {k: Fraction(v, scale) for k, v in more.items() if v}
        assert all(type(x) is Fraction for x in back.values())
        # primitive divides out the common factor of both, and no more.
        scaled = {k: v * factor for k, v in more.items()}
        if any(ints) or any(more.values()):
            small, smaller = QQ.primitive([n * factor for n in ints], scaled)
            assert math.gcd(*small, *smaller.values()) == 1
            g = math.gcd(*ints, *more.values())
            assert small == [n // g for n in ints]
            assert smaller == {k: v // g for k, v in more.items() if v}

    def test_scalar(self):
        half = Fraction(1, 2)
        assert QQ.scalar(half) is half
        assert QQ.div(QQ.scalar(3), QQ.scalar(6)) == half and type(QQ.scalar(3)) is Fraction
        assert QQ.zero == 0 and QQ.one == 1
        assert half in QQ and 1 not in QQ
        # (half, 3): scalar takes no denominator; n/d is field.div.
        for args in [(0.5,), ("3",), (half, 3)]:
            with pytest.raises(TypeError):
                QQ.scalar(*args)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            QQ.div(QQ.one, QQ.zero)
        with pytest.raises(ZeroDivisionError):
            QQ.pow(QQ.zero, -1)
        with pytest.raises(ZeroDivisionError):
            QQ.div(QQ.scalar(1), QQ.scalar(0))


# Both fields read ``[+-]?\d+``, over Q optionally ``/\d+``, what a scalar
# prints as; None marks a literal both refuse.
LITERALS = [
    ("3", Fraction(3)),
    ("+4", Fraction(4)),
    ("-3/2", Fraction(-3, 2)),
    (" 7 ", Fraction(7)),
    ("1.5", None),
    ("1e3", None),
    ("1_000", None),
    ("3 / 2", None),
    ("nan", None),
    ("1e30000000", None),
]


@pytest.mark.parametrize("field", [QQ, *PRIME_FIELDS], ids=str)
@pytest.mark.parametrize("text, value", LITERALS)
def test_both_fields_read_one_literal_grammar(field, text, value):
    over_q = field is QQ
    with basis_time_limit(1.0):
        start = time.perf_counter()
        if value is not None and (over_q or value.denominator == 1):
            assert field.scalar_from_str(text) == (value if over_q else reduced(value, field.p))
        else:
            # Refused as written, nothing computed: 10^30000000 would take
            # far longer than the limit.
            message = "bad rational literal" if over_q else "(bad integer|rational) literal"
            with pytest.raises(ParseError, match=message):
                field.scalar_from_str(text)
        assert time.perf_counter() - start < 1.0
