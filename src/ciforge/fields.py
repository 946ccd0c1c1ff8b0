"""Exact coefficient fields: the rationals and prime fields F_p.

A scalar over the rationals is a stdlib ``fractions.Fraction``, always in
lowest terms with a positive denominator.  A scalar over F_p is a plain
``int`` in [0, p).  Scalars carry no field of their own, so the field object
owns the arithmetic: ``add``, ``sub``, ``mul``, ``neg``, ``div`` and ``pow``,
the coercion ``scalar`` and the constants ``zero`` and ``one``.  Code outside
this module does scalar arithmetic only through these, binding them to locals
in hot loops.  Over Q they are the ``operator`` builtins, so they cost no
Python frame.

Division (``groebner._divide``) works on coefficients in each field's
*working form*: over Q a ``(numerator, denominator)`` int pair in lowest
terms with a positive denominator, over F_p the int itself; ``work_zero`` and
``work_one`` are zero and one in it.  ``to_work`` converts a whole term map
at the start of a division, ``from_work`` each result its caller keeps.
``integral`` scales a divisor's coefficients to integers, ``ratio`` divides
a working value by such an integer given in ``divisor_form`` (over F_p its
inverse, so a divisor is inverted once, not at every step), and the fused
step ``sub_mul(v, f, c)`` gives v - f*c for working v and f and an integer c.
Over Q a step is integer arithmetic and one ``math.gcd``, not a `Fraction`
per operation; over F_p it is one call where ``add`` and ``mul`` are two.

Fraction-free elimination (``linalg.ColumnElimination``) and the lifted
combination of a rewrite step (``decide.subst_step``) run on integers
instead.  ``integral_vector`` is ``integral`` for a sequence,
``from_integral`` is its inverse (integers over a nonzero scale back to
scalars, zeros dropped), and ``primitive`` keeps a vector's integers small
without changing the line it spans: over Q it divides by their gcd, over
F_p it reduces them mod p.
"""

from __future__ import annotations

import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt, lcm
from typing import Collection, Mapping, TypeVar

from .errors import ParseError

MAX_PRIME = 2**31

Scalar = Fraction | int
Key = TypeVar("Key")

# The one scalar literal both fields read, as ``str`` prints a scalar and the
# polynomial grammar reads a number: an integer, over Q optionally ``/`` another.
_LITERAL_RE = re.compile(r"\s*([+-]?\d+)(?:/(\d+))?\s*")


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

    def scalar(self, value: Scalar) -> Fraction:
        """A Fraction as it is, an integer as a Fraction."""
        return value if type(value) is Fraction else Fraction(operator.index(value))

    # Division's working form: (numerator, denominator) in lowest terms.
    work_zero = (0, 1)
    work_one = (1, 1)

    @staticmethod
    def to_work(terms: Mapping[Key, Fraction]) -> dict[Key, tuple[int, int]]:
        return {k: (c.numerator, c.denominator) for k, c in terms.items()}

    @staticmethod
    def from_work(terms: Mapping[Key, tuple[int, int]], scale: int = 1) -> dict[Key, Fraction]:
        """Each working value times the integer ``scale``, as a Fraction."""
        return {k: Fraction(n * scale, d) for k, (n, d) in terms.items()}

    @staticmethod
    def integral_vector(values: Collection[Fraction]) -> tuple[list[int], int]:
        """Integers and a positive scale with values[i] == ints[i] / scale."""
        scale = lcm(*(c.denominator for c in values))
        return [c.numerator * (scale // c.denominator) for c in values], scale

    @classmethod
    def integral(cls, terms: Mapping[Key, Fraction]) -> tuple[dict[Key, int], int]:
        """Integers and a positive scale with terms[k] == ints[k] / scale."""
        ints, scale = cls.integral_vector(terms.values())
        return dict(zip(terms, ints)), scale

    @staticmethod
    def from_integral(terms: Mapping[Key, int], scale: int) -> dict[Key, Fraction]:
        """Each nonzero integer over the nonzero integer ``scale``."""
        return {k: Fraction(v, scale) for k, v in terms.items() if v}

    @staticmethod
    def primitive(
        ints: list[int], more: Mapping[Key, int]
    ) -> tuple[list[int], dict[Key, int]]:
        """Both divided by the gcd of all their entries, zeros of ``more``
        dropped; one entry must be nonzero."""
        g = gcd(*ints, *more.values())
        if g == 1:
            return ints, {k: v for k, v in more.items() if v}
        return [v // g for v in ints], {k: v // g for k, v in more.items() if v}

    @staticmethod
    def divisor_form(a: int) -> int:
        """What `ratio` takes to divide by the nonzero integer a: a itself."""
        return a

    @staticmethod
    def ratio(w: tuple[int, int], a: int) -> tuple[int, int]:
        """w / a for a nonzero integer a (`divisor_form`)."""
        n, d = w
        g = gcd(n, a)  # n and d are coprime, so n/g and d*a/g are
        n, a = n // g, a // g
        return (n, d * a) if a > 0 else (-n, -d * a)

    @staticmethod
    def sub_mul(v: tuple[int, int], f: tuple[int, int], c: int) -> tuple[int, int]:
        """v - f*c for an integer c."""
        vn, vd = v
        fn, fd = f
        n = vn * fd - fn * c * vd
        d = vd * fd
        g = gcd(n, d)
        return n // g, d // g

    def __contains__(self, value: object) -> bool:
        return type(value) is Fraction

    def scalar_from_str(self, text: str) -> Fraction:
        """The scalar of an integer or ``a/b`` literal (`_LITERAL_RE`)."""
        m = _LITERAL_RE.fullmatch(text)
        if m is not None:
            n, d = m.groups()
            try:
                return Fraction(int(n), int(d)) if d else Fraction(int(n))
            except (ValueError, ZeroDivisionError):  # too many digits, or over 0
                pass
        raise ParseError(f"bad rational literal {text!r}")

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

    def scalar(self, value: int) -> int:
        """The integer ``value`` reduced into [0, p)."""
        return operator.index(value) % self.p

    # Division's working form: the scalar itself.
    work_zero = 0
    work_one = 1

    @staticmethod
    def to_work(terms: Mapping[Key, int]) -> dict[Key, int]:
        return dict(terms)

    @staticmethod
    def from_work(terms: dict[Key, int], scale: int = 1) -> dict[Key, int]:
        """The working map itself; ``integral``'s scale is always 1 here."""
        return terms

    @staticmethod
    def integral(terms: Mapping[Key, int]) -> tuple[Mapping[Key, int], int]:
        """The scalars are integers already: the map itself, at scale 1."""
        return terms, 1

    @staticmethod
    def integral_vector(values: Collection[int]) -> tuple[list[int], int]:
        """The scalars are integers already: them, at scale 1."""
        return list(values), 1

    def from_integral(self, terms: Mapping[Key, int], scale: int) -> dict[Key, int]:
        """Each integer over ``scale`` (nonzero mod p) in [0, p), zeros dropped."""
        p = self.p
        inv = pow(scale, -1, p)
        return {k: r for k, v in terms.items() if (r := v * inv % p)}

    def primitive(
        self, ints: list[int], more: Mapping[Key, int]
    ) -> tuple[list[int], dict[Key, int]]:
        """Both reduced mod p, zeros of ``more`` dropped."""
        p = self.p
        return [v % p for v in ints], {k: r for k, v in more.items() if (r := v % p)}

    def divisor_form(self, a: int) -> int:
        """What `ratio` takes to divide by a, nonzero mod p: its inverse, so
        that dividing many values by one divisor inverts it once."""
        return pow(a, -1, self.p)

    def ratio(self, w: int, inverse: int) -> int:
        """w / a, given ``divisor_form(a)``."""
        return w * inverse % self.p

    def sub_mul(self, v: int, f: int, c: int) -> int:
        """v - f*c."""
        return (v - f * c) % self.p

    def __contains__(self, value: object) -> bool:
        return type(value) is int and 0 <= value < self.p

    def scalar_from_str(self, text: str) -> int:
        """The scalar of an integer literal (`_LITERAL_RE`)."""
        text = text.strip()
        if "/" in text:
            raise ParseError("rational literals are only accepted over the rationals")
        if _LITERAL_RE.fullmatch(text):
            try:
                return self.scalar(int(text))
            except ValueError:  # more digits than int() converts
                pass
        raise ParseError(f"bad integer literal {text!r}")

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
