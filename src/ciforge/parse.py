"""Expression parser for polynomials.

Accepted syntax: integer literals, rational literals such as ``3/2`` (over the
rationals only), declared variable names, ``+ - * ^``, and parentheses.  A
``/`` is part of a literal only when squeezed between digits; anywhere else it
is rejected, so there is no polynomial division.  ``^`` takes a nonnegative
integer exponent.  Multiplication must be written out: ``2*T0``, not ``2T0``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .poly import Polynomial, PolynomialRing

_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*^()])
  | (?P<slash>/)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "number" | "name" | "op" | "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "slash":
            raise ParseError("division is not supported outside rational literals", pos)
        if kind != "ws":
            tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, ring: PolynomialRing):
        self.ring = ring
        self.tokens = _tokenize(text)
        self.index = 0
        self.var_index = {name: i for i, name in enumerate(ring.var_names)}

    @property
    def current(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        token = self.tokens[self.index]
        self.index += 1
        return token

    def expect_op(self, op: str) -> None:
        token = self.current
        if token.kind != "op" or token.text != op:
            raise ParseError(f"expected {op!r}", token.pos)
        self.advance()

    def parse(self) -> Polynomial:
        result = self.expression()
        token = self.current
        if token.kind != "end":
            raise ParseError(f"unexpected {token.text!r}", token.pos)
        return result

    def expression(self) -> Polynomial:
        sign = 1
        if self.current.kind == "op" and self.current.text in "+-":
            sign = -1 if self.advance().text == "-" else 1
        result = self.term() * sign
        while self.current.kind == "op" and self.current.text in "+-":
            op = self.advance().text
            rhs = self.term()
            result = result - rhs if op == "-" else result + rhs
        return result

    def term(self) -> Polynomial:
        result = self.power()
        while self.current.kind == "op" and self.current.text == "*":
            self.advance()
            result = result * self.power()
        return result

    def power(self) -> Polynomial:
        base = self.atom()
        if self.current.kind == "op" and self.current.text == "^":
            self.advance()
            token = self.current
            if token.kind != "number" or "/" in token.text:
                raise ParseError("exponent must be a nonnegative integer", token.pos)
            self.advance()
            return base ** int(token.text)
        return base

    def atom(self) -> Polynomial:
        token = self.current
        if token.kind == "number":
            self.advance()
            try:
                value = self.ring.field.scalar_from_str(token.text)
            except ParseError as exc:
                raise ParseError(str(exc), token.pos) from exc
            return self.ring.constant(value)
        if token.kind == "name":
            self.advance()
            index = self.var_index.get(token.text)
            if index is None:
                raise ParseError(f"unknown variable {token.text!r}", token.pos)
            return self.ring.variable(index)
        if token.kind == "op" and token.text == "(":
            self.advance()
            inner = self.expression()
            self.expect_op(")")
            return inner
        raise ParseError(
            "expected a number, variable, or parenthesized expression", token.pos
        )


def parse_polynomial(text: str, ring: PolynomialRing) -> Polynomial:
    """Parse ``text`` into a polynomial of ``ring``.

    Raises ParseError with a character position for malformed input.
    """
    return _Parser(text, ring).parse()
