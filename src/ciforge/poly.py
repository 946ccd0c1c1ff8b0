"""Sparse multivariate polynomials over an exact field.

A polynomial is a mapping from exponent tuples to nonzero scalars; the zero
polynomial has an empty term map.  All values here are immutable after
construction and every operation is a pure function, so concurrent use on
shared inputs is safe.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cached_property
from operator import add, le, neg, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NotHomogeneousError, RingMismatchError
from .fields import Field, Fraction, PrimeFieldElement, Scalar

Exponents = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


class _DegreeMarker:
    """Distinguished non-integer outcome of a degree query."""

    __slots__ = ("_label",)

    def __init__(self, label: str):
        self._label = label

    def __repr__(self) -> str:
        return self._label


#: Degree outcome for the zero polynomial.
ZERO_POLYNOMIAL = _DegreeMarker("zero-polynomial")
#: Degree outcome for a polynomial whose terms have mixed total degrees.
NOT_HOMOGENEOUS = _DegreeMarker("not-homogeneous")


def monomial_degree(exponents: Exponents) -> int:
    return sum(exponents)


def monomial_mul(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(add, a, b))


def monomial_divides(a: Exponents, b: Exponents) -> bool:
    """True iff the monomial with exponents ``a`` divides the one with ``b``."""
    return all(map(le, a, b))


def monomial_div(a: Exponents, b: Exponents) -> Exponents:
    """Exponents of a/b; caller must ensure b divides a."""
    return tuple(map(sub, a, b))


def monomial_lcm(a: Exponents, b: Exponents) -> Exponents:
    return tuple(map(max, a, b))


# The one monomial order: graded reverse-lexicographic, T_0 > T_1 > ... > T_N.
# It orders printed terms, leading monomials and division.
def grevlex_key(exponents: Exponents) -> tuple:
    return (sum(exponents), tuple(map(neg, reversed(exponents))))


def leading_monomial(p: "Polynomial") -> Exponents:
    """The grevlex-greatest monomial of ``p``; `Polynomial.lead` keeps it."""
    if p.is_zero():
        raise ValueError("zero polynomial has no leading monomial")
    return max(p.terms, key=grevlex_key)


@dataclass(frozen=True)
class PolynomialRing:
    """A polynomial ring k[T_0, ..., T_N] given by a field and variable names."""

    field: Field
    var_names: tuple[str, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "var_names", tuple(self.var_names))
        if len(self.var_names) < 2:
            raise ValueError("need at least two variables")
        if len(set(self.var_names)) != len(self.var_names):
            raise ValueError("variable names must be distinct")
        for name in self.var_names:
            if not _NAME_RE.match(name):
                raise ValueError(f"bad variable name {name!r}")

    @property
    def num_vars(self) -> int:
        return len(self.var_names)

    def zero(self) -> "Polynomial":
        return Polynomial(self, {})

    def one(self) -> "Polynomial":
        return self.constant(self.field.one)

    def constant(self, value: Scalar | int) -> "Polynomial":
        if isinstance(value, int):
            value = self.field.scalar(value)
        return Polynomial(self, {(0,) * self.num_vars: value})

    def variable(self, index: int) -> "Polynomial":
        exps = [0] * self.num_vars
        exps[index] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def monomial(self, exponents: Iterable[int], coefficient: Scalar | int = 1) -> "Polynomial":
        if isinstance(coefficient, int):
            coefficient = self.field.scalar(coefficient)
        return Polynomial(self, {tuple(exponents): coefficient})


@dataclass(frozen=True)
class Polynomial:
    """A sparse polynomial; ``terms`` maps exponent tuples to nonzero scalars."""

    ring: PolynomialRing
    terms: Mapping[Exponents, Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.ring.num_vars
        cleaned: dict[Exponents, Scalar] = {}
        for exps, coeff in self.terms.items():
            exps = tuple(exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {n} variables")
            if coeff:
                cleaned[exps] = coeff
        object.__setattr__(self, "terms", cleaned)

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def lead(self) -> Exponents:
        """The leading monomial, computed on first use and then kept.

        It is the key object stored in ``terms``, so ``terms[p.lead]`` is the
        leading coefficient.  Division asks each divisor for it many times.
        """
        return leading_monomial(self)

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in canonical (grevlex descending) order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]), reverse=True)

    def __iter__(self) -> Iterator[tuple[Exponents, Scalar]]:
        return iter(self.sorted_terms())

    # -- arithmetic ------------------------------------------------------

    def _require_same_ring(self, other: "Polynomial") -> None:
        if self.ring != other.ring:
            raise RingMismatchError("polynomials belong to different rings")

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        self._require_same_ring(other)
        out = dict(self.terms)
        for exps, coeff in other.terms.items():
            new = out.get(exps)
            new = coeff if new is None else new + coeff
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
        return Polynomial(self.ring, out)

    def __neg__(self) -> "Polynomial":
        return Polynomial(self.ring, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial | Scalar | int") -> "Polynomial":
        if isinstance(other, Polynomial):
            self._require_same_ring(other)
            out: dict[Exponents, Scalar] = {}
            for e1, c1 in self.terms.items():
                for e2, c2 in other.terms.items():
                    exps = monomial_mul(e1, e2)
                    prod = c1 * c2
                    new = out.get(exps)
                    new = prod if new is None else new + prod
                    if new:
                        out[exps] = new
                    else:
                        out.pop(exps, None)
            return Polynomial(self.ring, out)
        if isinstance(other, (int, Fraction, PrimeFieldElement)):
            if isinstance(other, int):
                other = self.ring.field.scalar(other)
            return Polynomial(self.ring, {e: c * other for e, c in self.terms.items()})
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar | int) -> "Polynomial":
        if isinstance(scalar, int):
            scalar = self.ring.field.scalar(scalar)
        return self * (self.ring.field.one / scalar)

    def __pow__(self, exponent: int) -> "Polynomial":
        if exponent < 0:
            raise ValueError("negative polynomial power")
        result = self.ring.one()
        for _ in range(exponent):
            result = result * self
        return result

    # -- printing --------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"Polynomial({format_polynomial(self)!r})"


def homogeneous_degree(p: Polynomial) -> int | _DegreeMarker:
    """Common total degree of all terms, or a marker for zero / mixed degrees."""
    if p.is_zero():
        return ZERO_POLYNOMIAL
    degrees = {monomial_degree(e) for e in p.terms}
    if len(degrees) > 1:
        return NOT_HOMOGENEOUS
    return degrees.pop()


def is_homogeneous(p: Polynomial) -> bool:
    """True for the zero polynomial and for single-degree polynomials."""
    return homogeneous_degree(p) is not NOT_HOMOGENEOUS


def distinct_nonzero(polys: Sequence[Polynomial]) -> Iterator[tuple[int, Polynomial]]:
    """(position, polynomial) for each nonzero entry, skipping exact repeats."""
    seen: set[frozenset] = set()
    for i, p in enumerate(polys):
        if p.is_zero():
            continue
        fingerprint = frozenset(p.terms.items())
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        yield i, p


@dataclass(frozen=True)
class ProjectivePoint:
    """Homogeneous coordinates, used exactly as supplied (no normalization)."""

    coords: tuple[Scalar, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "coords", tuple(self.coords))
        if not any(self.coords):
            raise ValueError("projective point needs a nonzero coordinate")

    @property
    def pivot(self) -> int:
        """Smallest index with a nonzero coordinate."""
        for i, c in enumerate(self.coords):
            if c:
                return i
        raise AssertionError("unreachable: point has a nonzero coordinate")

    def __len__(self) -> int:
        return len(self.coords)

    def __str__(self) -> str:
        return "(" + ":".join(str(c) for c in self.coords) + ")"


def evaluate(p: Polynomial, x: ProjectivePoint) -> Scalar:
    """Exact value of ``p`` at the supplied homogeneous coordinates."""
    if len(x) != p.ring.num_vars:
        raise RingMismatchError(
            f"point has {len(x)} coordinates, ring has {p.ring.num_vars} variables"
        )
    total = p.ring.field.zero
    for exps, coeff in p.terms.items():
        value = coeff
        for c, e in zip(x.coords, exps):
            if e:
                value = value * c**e
        total = total + value
    return total


def differential_at(p: Polynomial, x: ProjectivePoint) -> tuple[Scalar, ...]:
    """All partial derivatives of a homogeneous ``p`` evaluated at ``x``.

    The result depends on the chosen homogeneous coordinates of ``x``; callers
    must only rely on scale-invariant facts (vanishing, span membership).
    """
    if homogeneous_degree(p) is NOT_HOMOGENEOUS:
        raise NotHomogeneousError("differential requires a homogeneous polynomial")
    if len(x) != p.ring.num_vars:
        raise RingMismatchError(
            f"point has {len(x)} coordinates, ring has {p.ring.num_vars} variables"
        )
    ring_field = p.ring.field
    out = [ring_field.zero] * p.ring.num_vars
    for exps, coeff in p.terms.items():
        for i, e in enumerate(exps):
            if e == 0:
                continue
            value = coeff * e
            for j, (c, ej) in enumerate(zip(x.coords, exps)):
                power = ej - 1 if j == i else ej
                if power:
                    value = value * c**power
            out[i] = out[i] + value
    return tuple(out)


def format_polynomial(p: Polynomial) -> str:
    """Canonical print form: grevlex-descending terms, ``^`` powers, ``*`` products.

    Printing then re-parsing is a fixed point.
    """
    if p.is_zero():
        return "0"
    one = p.ring.field.one
    pieces: list[str] = []
    for exps, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(p.ring.var_names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        negative = isinstance(coeff, Fraction) and coeff < 0
        magnitude = -coeff if negative else coeff
        if not factors:
            body = str(magnitude)
        elif magnitude == one:
            body = "*".join(factors)
        else:
            body = str(magnitude) + "*" + "*".join(factors)
        if not pieces:
            pieces.append("-" + body if negative else body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)
