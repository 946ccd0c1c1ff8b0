"""Expression parser for polynomials.

Accepted syntax: integer literals, rational literals such as ``3/2`` (over the
rationals only), declared variable names, ``+ - * ^``, and parentheses.  A
``/`` is part of a literal only when squeezed between digits; anywhere else it
is rejected, so there is no polynomial division.  ``^`` takes a nonnegative
integer exponent.  Multiplication must be written out: ``2*T0``, not ``2T0``.

After one scan that rejects any character outside this grammar, the parser
reads the text one term at a time into a term map (exponent tuple -> scalar)
and makes one `Polynomial` at the end.  A plain term, as `format_polynomial`
prints it (``-3*T1^2*T4``, ``+ T2``, ``5``), is one match of `_TERM_RE`: a
sign, an optional integer or ``a/b`` coefficient and a ``*`` chain of
``name^k``, whose exponents fold into one list and whose signed literal
becomes its coefficient in one call.  Any other term (a parenthesis, a
number's ``^``, a number after ``*``, an unknown name or a literal the field
refuses) is read from its start one token at a time, which gives every error
its message and position.  There, a product of numbers and variable powers
still folds into one coefficient and one exponent list; only a parenthesised
sum that is multiplied or raised to a power is multiplied out, term by term,
after a bound on the result's terms from its factors' sizes is checked
against `MAX_TERMS`.

A rational coefficient with more decimal digits than Python converts to a
string (`sys.get_int_max_str_digits`) is a parse error at the term that makes
it, since it could not be printed; so is an exponent written with that many.
A number's power is one `Field.pow`, refused first if no coefficient could
bring it back under that limit, so ``2^100000000`` over Q is refused at once.

Parsing honours `basis_time_limit`, through `errors.check_deadline`, so the
parser does not depend on the basis computation.  It checks the limit once
per unit of a variable's or a sum's ``^`` exponent, before every product of
parenthesised sums and once per row inside one (`poly.mul_terms`), so inputs
such as ``(T0 + T1)^100000`` or ``T0^100000000`` stop with
`BuchbergerTimeout` naming ``parsing``.
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
    monomial_mul,
    mul_terms,
)

#: The most terms a product or power of parenthesised sums may have: a larger
#: bound on them is a parse error before they are built.  The bound comes from
#: the factors' sizes, not from the monomials they can make, so it can refuse
#: a small result: ``(1 + T0 + ... + T0^999)^2`` has 1999 terms, but a bound
#: of C(1001, 2) = 500500.  ``(T0 + T1)^100000``, with 100001 terms, passes,
#: and meets the time limit instead.
MAX_TERMS = 200_000

# The grammar's tokens and spaces, matched as `_TOKEN_RE` reads them: the
# match ends at the first character no token starts, or a ``/`` outside one.
_LEXEMES_RE = re.compile(
    r"[-+*^()\s]*(?:(?:\d+(?:/\d+)?|[A-Za-z_][A-Za-z0-9_]*)[-+*^()\s]*)*"
)
_TOKEN_RE = re.compile(
    r"\s*(?:(?P<number>\d+(?:/\d+)?)|(?P<name>[A-Za-z_][A-Za-z0-9_]*)"
    r"|(?P<op>[-+*^()])|(?P<end>\Z))"
)
_FACTOR = r"[A-Za-z_][A-Za-z0-9_]*(?:\s*\^\s*\d+)?"
_CHAIN = rf"{_FACTOR}(?:\s*\*\s*{_FACTOR})*"
# A plain term.  Groups: the sign, the literal, and the chain after it or
# alone.  A match ends before a sign, a ``)`` or the end, so it spans whole
# tokens.
_TERM_RE = re.compile(
    rf"\s*([-+]?)\s*(?:(\d+(?:/\d+)?)(?:\s*\*\s*({_CHAIN}))?|({_CHAIN}))\s*(?=[-+)]|\Z)"
)

# A token is (kind, text, start, end), kind one of "number", "name", "op" or
# "end".  Only an op token's text is one of ``+ - * ^ ( )``, so the parser
# tests the text alone.
Token = tuple[str, str, int, int]
TermMap = dict[Exponents, Scalar]


@functools.cache
def _digit_bound(limit: int) -> int:
    """The least integer with more than ``limit`` decimal digits."""
    return 10**limit


def _power_size(n: int, k: int) -> int:
    """C(n - 1 + k, k), which bounds the terms of a sum of n terms to the k,
    counted until it passes `MAX_TERMS` (each step at least doubles it)."""
    size, small, large = 1, min(n - 1, k), max(n - 1, k)
    for j in range(1, small + 1):
        size = size * (large + j) // j
        if size > MAX_TERMS:
            break
    return size


class _Parser:
    def __init__(self, text: str, ring: PolynomialRing):
        end = _LEXEMES_RE.match(text).end()
        if end < len(text):
            if text[end] == "/":
                raise ParseError("division is not supported outside rational literals", end)
            raise ParseError(f"unexpected character {text[end]!r}", end)
        self.text = text
        self.pos = 0
        self.field = ring.field
        self.num_vars = ring.num_vars
        self.var_index = {name: i for i, name in enumerate(ring.var_names)}
        # Only a rational scalar can grow; an F_p scalar is below p.  Python
        # before 3.10.7 has neither the limit nor the function.
        limit = getattr(sys, "get_int_max_str_digits", int)()
        rational = not self.field.characteristic
        self.digit_bound = _digit_bound(limit) if limit and rational else None
        self.power_bits = 2 * self.digit_bound.bit_length() if self.digit_bound else math.inf

    def peek(self) -> Token:
        """The next token, not taken; ``self.pos = token[3]`` takes it."""
        m = _TOKEN_RE.match(self.text, self.pos)
        kind = m.lastgroup
        return kind, m[kind], m.start(kind), m.end()

    def take(self) -> Token:
        token = self.peek()
        self.pos = token[3]
        return token

    def parse(self) -> TermMap:
        result = self.expression()
        kind, text, pos, _ = self.peek()
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return result

    def expression(self) -> TermMap:
        """Signed terms added into one map; the first one's sign is optional."""
        out: TermMap = {}
        text, add = self.text, self.field.add
        while True:
            m = _TERM_RE.match(text, self.pos)
            term = self.plain(m) if m else None
            if term is None:
                _, sign, _, end = self.peek()
                if sign == "+" or sign == "-":
                    self.pos = end
                pos = self.peek()[2]
                terms = self.term(sign == "-").items()
                sign = self.peek()[1]
            else:
                pos = m.start(2) if m[2] else m.start(4)
                terms = (term,)
                self.pos = m.end()
                sign = text[self.pos : self.pos + 1]
            for exps, coeff in terms:
                old = out.get(exps)
                if old is None:
                    if coeff:
                        out[exps] = coeff
                elif new := add(old, coeff):
                    out[exps] = new
                    # A sum can outgrow its terms.
                    self.check_digits((new,), pos)
                else:
                    del out[exps]
            if sign != "+" and sign != "-":
                return out

    def plain(self, m: re.Match) -> tuple[Exponents, Scalar] | None:
        """The monomial and coefficient of the plain term `_TERM_RE` matched,
        or None if the token loop must read it: a name is unknown, an
        exponent has too many digits or the field refuses the literal."""
        exps = [0] * self.num_vars
        units = 0
        chain = m[3] or m[4]
        for factor in chain.split("*") if chain else ():
            name, _, k = factor.partition("^")
            index = self.var_index.get(name.strip())
            if index is None:
                return None
            try:
                k = int(k) if k else 1  # int() skips the spaces around k
            except ValueError:  # more digits than int() converts
                return None
            exps[index] += k
            units += k
        signed = m[1] + (m[2] or "1")
        field = self.field
        try:
            if "/" in signed:
                coeff = field.scalar_from_str(signed)
            else:
                coeff = field.scalar(int(signed))
        except (ParseError, ValueError):  # a literal the field refuses
            return None
        for _ in range(units):
            check_deadline("parsing")
        return tuple(exps), coeff

    def check_digits(self, coefficients: Iterable[Scalar], pos: int) -> None:
        """Reject a coefficient, made by the term at ``pos``, with too many
        digits to print."""
        bound = self.digit_bound
        if bound is not None:
            for c in coefficients:
                if abs(c.numerator) >= bound or c.denominator >= bound:
                    raise ParseError("coefficient has too many digits to print", pos)

    @staticmethod
    def check_size(bound: int, pos: int) -> None:
        """Reject an expansion, made by the term at ``pos``, that could have
        more than `MAX_TERMS` terms."""
        if bound > MAX_TERMS:
            raise ParseError(f"expansion could exceed the limit of {MAX_TERMS} terms", pos)

    def term(self, negative: bool) -> TermMap:
        """A ``*`` chain, read token by token: its sign, numbers and variable
        powers fold into one coefficient and one exponent list; parenthesised
        sums are multiplied out left to right, and the monomial then scales
        their product."""
        start = self.peek()[2]
        field = self.field
        mul, one = field.mul, field.one
        coeff = one
        exps = [0] * self.num_vars
        sums: list[TermMap] = []
        while True:
            kind, text, pos, _ = self.take()
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
                coeff = mul(coeff, power)
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
                _, close, close_pos, _ = self.take()
                if close != ")":
                    raise ParseError("expected ')'", close_pos)
                k = self.exponent()
                if k != 1:
                    self.check_size(_power_size(len(inner), k), start)
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
            _, star, _, end = self.peek()
            if star != "*":
                break
            self.pos = end
        if negative:
            coeff = field.neg(coeff)
        if not coeff:
            return {}
        if not sums:
            return {tuple(exps): coeff}
        result = sums[0]
        for factor in sums[1:]:
            check_deadline("parsing")
            self.check_size(len(result) * len(factor), start)
            result = mul_terms(field, result, factor, "parsing")
        if coeff != one or any(exps):
            result = {monomial_mul(e, exps): mul(c, coeff) for e, c in result.items()}
        self.check_digits(result.values(), start)
        return result

    def exponent(self) -> int:
        """The exponent after a ``^`` at the current token; 1 without one."""
        _, caret, _, end = self.peek()
        if caret != "^":
            return 1
        self.pos = end
        kind, text, pos, _ = self.take()
        if kind != "number" or "/" in text:
            raise ParseError("exponent must be a nonnegative integer", pos)
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
