"""Expression parser for polynomials.

Accepted syntax: integer literals, rational literals such as ``3/2`` (over the
rationals only), declared variable names, ``+ - * ^``, and parentheses.  A
``/`` is part of a literal only when squeezed between digits; anywhere else it
is rejected, so there is no polynomial division.  ``^`` takes a nonnegative
integer exponent.  Multiplication must be written out: ``2*T0``, not ``2T0``.

The parser builds term maps (exponent tuple -> scalar) with the field's own
operations and makes one `Polynomial` at the end.  A product of numbers and
variable powers such as ``-3*T1^2*T4`` accumulates into one exponent list and
one coefficient; only a parenthesised sum that is multiplied or raised to a
power is multiplied out, term by term.

A rational coefficient with more decimal digits than Python converts to a
string (`sys.get_int_max_str_digits`) is a parse error at the term that makes
it, since it could not be printed; so is an exponent written with that many.
A number's power is one `Field.pow`, refused first if no coefficient could
bring it back under that limit, so ``2^100000000`` over Q is refused at once.

Parsing honours `basis_time_limit`, through `errors.check_deadline`, so the
parser does not depend on the basis computation.  It checks the limit once
per unit of a variable's or a sum's ``^`` exponent, before every product of
parenthesised sums and once per row inside one (`poly.mul_terms`), so inputs
such as ``(T0 + T1)^100000``, ``(T0 + ... + T19)^9`` or ``T0^100000000``
stop with `BuchbergerTimeout` naming ``parsing``.
"""

from __future__ import annotations

import functools
import math
import re
import sys
from typing import Iterable

from .errors import ParseError, check_deadline
from .fields import Scalar
from .poly import (
    Exponents,
    Polynomial,
    PolynomialRing,
    add_terms_into,
    monomial_mul,
    mul_terms,
)

_TOKEN_RE = re.compile(
    r"""
    \s*
    (?:
        (?P<number>\d+(?:/\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
      | (?P<op>[-+*^()])
      | (?P<slash>/)
      | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)

# A token is (kind, text, pos), kind one of "number", "name", "op" or "end".
# Only an op token's text is one of ``+ - * ^ ( )``, so the parser tests the
# text alone.
Token = tuple[str, str, int]
TermMap = dict[Exponents, Scalar]


@functools.cache
def _digit_bound(limit: int) -> int:
    """The least integer with more than ``limit`` decimal digits."""
    return 10**limit


def _tokenize(text: str) -> list[Token]:
    tokens = [
        (m.lastgroup, m[m.lastindex], m.start(m.lastindex))
        for m in _TOKEN_RE.finditer(text)
    ]
    for kind, token, pos in tokens:
        if kind == "bad":
            raise ParseError(f"unexpected character {token!r}", pos)
        if kind == "slash":
            raise ParseError("division is not supported outside rational literals", pos)
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: PolynomialRing):
        self.tokens = _tokenize(text)
        self.index = 0
        self.field = ring.field
        self.num_vars = ring.num_vars
        self.var_index = {name: i for i, name in enumerate(ring.var_names)}
        # Only a rational scalar can grow; an F_p scalar is below p.  Python
        # before 3.10.7 has neither the limit nor the function.
        limit = getattr(sys, "get_int_max_str_digits", int)()
        rational = not self.field.characteristic
        self.digit_bound = _digit_bound(limit) if limit and rational else None
        self.power_bits = 2 * self.digit_bound.bit_length() if self.digit_bound else math.inf

    def parse(self) -> TermMap:
        result = self.expression()
        kind, text, pos = self.tokens[self.index]
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return result

    def expression(self) -> TermMap:
        """Signed terms added into one map."""
        tokens = self.tokens
        out: TermMap = {}
        negative = False
        sign = tokens[self.index][1]
        if sign == "+" or sign == "-":
            self.index += 1
            negative = sign == "-"
        while True:
            pos = tokens[self.index][2]
            size = len(out)
            terms = self.term(negative)
            add_terms_into(self.field, out, terms)
            if len(out) != size + len(terms):
                # Coefficients were added, and a sum can outgrow its terms.
                self.check_digits([out[e] for e in terms if e in out], pos)
            sign = tokens[self.index][1]
            if sign != "+" and sign != "-":
                return out
            self.index += 1
            negative = sign == "-"

    def check_digits(self, coefficients: Iterable[Scalar], pos: int) -> None:
        """Reject a coefficient, made by the term at ``pos``, with too many
        digits to print."""
        bound = self.digit_bound
        if bound is not None:
            for c in coefficients:
                if abs(c.numerator) >= bound or c.denominator >= bound:
                    raise ParseError("coefficient has too many digits to print", pos)

    def term(self, negative: bool) -> TermMap:
        """A ``*`` chain: its sign, numbers and variable powers fold into one
        coefficient and one exponent list; parenthesised sums are multiplied
        out left to right, and the monomial then scales their product."""
        tokens = self.tokens
        start = tokens[self.index][2]
        field = self.field
        mul, one = field.mul, field.one
        coeff = one
        exps = [0] * self.num_vars
        sums: list[TermMap] = []
        while True:
            kind, text, pos = tokens[self.index]
            self.index += 1
            if kind == "number":
                try:
                    base = field.scalar_from_str(text)
                except ParseError as exc:
                    raise ParseError(str(exc), pos) from exc
                k, power = self.exponent(), base
                if k != 1 and coeff:  # a zero coefficient stays zero
                    # Refused uncomputed: a coefficient below the digit bound
                    # cannot cancel twice the bound's bits.
                    size = max(abs(base.numerator), base.denominator).bit_length() - 1
                    if k * size >= self.power_bits:
                        raise ParseError("coefficient has too many digits to print", start)
                    power = field.pow(base, k)
                # A coefficient that is one (always, at first) is not multiplied.
                coeff = power if coeff is one else mul(coeff, power)
                if coeff is not base:  # a power or a product, which can outgrow its factors
                    self.check_digits((coeff,), start)
            elif kind == "name":
                index = self.var_index.get(text)
                if index is None:
                    raise ParseError(f"unknown variable {text!r}", pos)
                k = self.exponent()
                for _ in range(k):
                    check_deadline("parsing")
                exps[index] += k
            elif text == "(":
                inner = self.expression()
                _, close, close_pos = tokens[self.index]
                if close != ")":
                    raise ParseError("expected ')'", close_pos)
                self.index += 1
                k = self.exponent()
                if k != 1:
                    power = {(0,) * self.num_vars: one}
                    for _ in range(k):
                        check_deadline("parsing")
                        power = mul_terms(field, power, inner, "parsing")
                    inner = power
                sums.append(inner)
            else:
                raise ParseError(
                    "expected a number, variable, or parenthesized expression", pos
                )
            if tokens[self.index][1] != "*":
                break
            self.index += 1
        if negative:
            coeff = field.neg(coeff)
        if not coeff:
            return {}
        if not sums:
            return {tuple(exps): coeff}
        result = sums[0]
        for factor in sums[1:]:
            check_deadline("parsing")
            result = mul_terms(field, result, factor, "parsing")
        if coeff != one or any(exps):
            result = {monomial_mul(e, exps): mul(c, coeff) for e, c in result.items()}
        self.check_digits(result.values(), start)
        return result

    def exponent(self) -> int:
        """The exponent after a ``^`` at the current token; 1 without one."""
        if self.tokens[self.index][1] != "^":
            return 1
        kind, text, pos = self.tokens[self.index + 1]
        if kind != "number" or "/" in text:
            raise ParseError("exponent must be a nonnegative integer", pos)
        self.index += 2
        try:
            return int(text)
        except ValueError:  # more digits than int() converts
            raise ParseError("exponent has too many digits", pos) from None


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    """Parse ``text`` into a polynomial of ``ring``.

    Raises ParseError with a character position for malformed input, and
    without one for parentheses nested deeper than the interpreter's stack.
    """
    try:
        terms = _Parser(text, ring).parse()
    except RecursionError:
        raise ParseError("parentheses are nested too deeply") from None
    return Polynomial._trusted(ring, terms)
