"""Exact coefficient fields: the rationals and prime fields F_p.

A scalar over the rationals is a stdlib ``fractions.Fraction``, always in
lowest terms with a positive denominator.  A scalar over F_p is a plain
``int`` in [0, p).  Scalars carry no field of their own, so the field object
owns the arithmetic: ``add``, ``sub``, ``mul``, ``neg``, ``div`` and ``pow``,
the coercion ``scalar`` and the constants ``zero`` and ``one``.  Code outside
this module does scalar arithmetic only through these, binding them to locals
in hot loops.  Over Q they are the ``operator`` builtins, so they cost no
Python frame.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .errors import ParseError

MAX_PRIME = 2**31

Scalar = Fraction | int


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for d in range(3, isqrt(n) + 1, 2):
        if n % d == 0:
            return False
    return True


@dataclass(frozen=True, slots=True)
class RationalField:
    """The field of rational numbers; its scalars are ``Fraction`` values."""

    characteristic = 0
    tag = "q"
    zero = Fraction(0)
    one = Fraction(1)

    add = staticmethod(operator.add)
    sub = staticmethod(operator.sub)
    mul = staticmethod(operator.mul)
    neg = staticmethod(operator.neg)
    div = staticmethod(operator.truediv)
    pow = staticmethod(operator.pow)

    def scalar(self, value: Scalar, denominator: int = 1) -> Fraction:
        """A Fraction as it is, or ``value / denominator`` for two integers."""
        if type(value) is Fraction and denominator == 1:
            return value
        return Fraction(operator.index(value), operator.index(denominator))

    def __contains__(self, value: object) -> bool:
        return type(value) is Fraction

    def scalar_from_str(self, text: str) -> Fraction:
        literal = text.strip()
        try:
            # An integer literal skips Fraction's string parser.
            return Fraction(int(literal)) if literal.isdecimal() else Fraction(literal)
        except (ValueError, ZeroDivisionError) as exc:
            raise ParseError(f"bad rational literal {text!r}") from exc

    def __str__(self) -> str:
        return self.tag


@dataclass(frozen=True, slots=True)
class PrimeField:
    """F_p, p an odd prime below 2^31; its scalars are ints in [0, p)."""

    p: int

    zero = 0
    one = 1

    def __post_init__(self) -> None:
        if not (2 < self.p < MAX_PRIME) or not _is_prime(self.p):
            raise ValueError(f"modulus must be an odd prime below 2^31, got {self.p}")

    @property
    def characteristic(self) -> int:
        return self.p

    @property
    def tag(self) -> str:
        return f"fp:{self.p}"

    def add(self, a: int, b: int) -> int:
        return (a + b) % self.p

    def sub(self, a: int, b: int) -> int:
        return (a - b) % self.p

    def mul(self, a: int, b: int) -> int:
        return a * b % self.p

    def neg(self, a: int) -> int:
        return -a % self.p

    def div(self, a: int, b: int) -> int:
        if not b:
            raise ZeroDivisionError("division by zero in a prime field")
        return a * pow(b, -1, self.p) % self.p

    def pow(self, a: int, exponent: int) -> int:
        if exponent < 0 and not a:
            raise ZeroDivisionError("zero to a negative power in a prime field")
        return pow(a, exponent, self.p)

    def scalar(self, value: int, denominator: int = 1) -> int:
        """``value / denominator`` reduced into [0, p); both must be integers."""
        value = operator.index(value) % self.p
        if denominator != 1:
            value = self.div(value, operator.index(denominator) % self.p)
        return value

    def __contains__(self, value: object) -> bool:
        return type(value) is int and 0 <= value < self.p

    def scalar_from_str(self, text: str) -> int:
        text = text.strip()
        if "/" in text:
            raise ParseError("rational literals are only accepted over the rationals")
        try:
            return self.scalar(int(text))
        except ValueError as exc:
            raise ParseError(f"bad integer literal {text!r}") from exc

    def __str__(self) -> str:
        return self.tag


Field = RationalField | PrimeField

QQ = RationalField()


def field_from_tag(tag: str) -> Field:
    """Parse a field descriptor string: ``q`` or ``fp:<p>`` (``fp <p>`` also accepted)."""
    text = tag.strip().lower()
    if text == "q":
        return QQ
    for sep in (":", " "):
        head, _, rest = text.partition(sep)
        if head == "fp" and rest:
            try:
                p = int(rest.strip())
            except ValueError as exc:
                raise ParseError(f"bad field descriptor {tag!r}") from exc
            try:
                return PrimeField(p)
            except ValueError as exc:
                raise ParseError(str(exc)) from exc
    raise ParseError(f"bad field descriptor {tag!r} (expected 'q' or 'fp:<p>')")
