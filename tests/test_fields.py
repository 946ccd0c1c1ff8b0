"""Field arithmetic: each operation of Q and F_p against Fraction arithmetic."""

from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from ciforge import QQ, PrimeField

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
