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
from operator import add, le, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NotHomogeneousError, RingMismatchError
from .fields import Field, Scalar

Exponents = tuple[int, ...]

_NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")


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


def add_terms_into(
    field: Field, out: dict[Exponents, Scalar], terms: Mapping[Exponents, Scalar]
) -> None:
    """Add the term map ``terms`` into ``out`` by the field's own operations;
    a coefficient that reaches zero drops its monomial."""
    add = field.add
    for exps, coeff in terms.items():
        new = out.get(exps)
        new = coeff if new is None else add(new, coeff)
        if new:
            out[exps] = new
        else:
            out.pop(exps, None)


def mul_terms(
    field: Field, a: Mapping[Exponents, Scalar], b: Mapping[Exponents, Scalar]
) -> dict[Exponents, Scalar]:
    """The term map of the product of two term maps, by the field's own
    operations; a coefficient that reaches zero drops its monomial."""
    add, mul = field.add, field.mul
    out: dict[Exponents, Scalar] = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            exps = monomial_mul(e1, e2)
            prod = mul(c1, c2)
            new = out.get(exps)
            new = prod if new is None else add(new, prod)
            if new:
                out[exps] = new
            else:
                out.pop(exps, None)
    return out


# The one monomial order: graded reverse-lexicographic, T_0 > T_1 > ... > T_N.
# It orders printed terms, leading monomials and division.  Ascending order
# in this key is descending grevlex: the greatest monomial sorts first.
def grevlex_key(exponents: Exponents) -> tuple:
    return (-sum(exponents), exponents[::-1])


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

    def constant(self, value: Scalar) -> "Polynomial":
        return Polynomial(self, {(0,) * self.num_vars: value})

    def variable(self, index: int) -> "Polynomial":
        exps = [0] * self.num_vars
        exps[index] = 1
        return Polynomial(self, {tuple(exps): self.field.one})

    def monomial(self, exponents: Iterable[int], coefficient: Scalar = 1) -> "Polynomial":
        return Polynomial(self, {tuple(exponents): coefficient})


@dataclass(frozen=True)
class Polynomial:
    """A sparse polynomial; ``terms`` maps exponent tuples to nonzero scalars.

    The constructor checks every exponent tuple and passes every coefficient
    through the field's coercion ``scalar``, so an int coefficient is reduced
    mod p over F_p and becomes a Fraction over Q.  Arithmetic results are
    built by the field's own operations and skip both (`_trusted`).
    """

    ring: PolynomialRing
    terms: Mapping[Exponents, Scalar] = field(default_factory=dict)

    def __post_init__(self) -> None:
        n = self.ring.num_vars
        scalar = self.ring.field.scalar
        cleaned: dict[Exponents, Scalar] = {}
        for exps, coeff in self.terms.items():
            exps = tuple(exps)
            if len(exps) != n or any(e < 0 for e in exps):
                raise ValueError(f"bad exponent tuple {exps} for {n} variables")
            coeff = scalar(coeff)
            if coeff:
                cleaned[exps] = coeff
        object.__setattr__(self, "terms", cleaned)

    @classmethod
    def _trusted(cls, ring: PolynomialRing, terms: dict[Exponents, Scalar]) -> "Polynomial":
        """A polynomial over a term map that the field's own operations built:
        exponent tuples of the ring's length and nonzero scalars of its field.
        The map is kept as it is, without checks or coercion."""
        p = object.__new__(cls)
        object.__setattr__(p, "ring", ring)
        object.__setattr__(p, "terms", terms)
        return p

    # -- queries ---------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    @cached_property
    def lead(self) -> Exponents:
        """The grevlex-greatest monomial, computed on first use and then kept.

        It is the key object stored in ``terms``, so ``terms[p.lead]`` is the
        leading coefficient.  Division asks each divisor for it many times.
        The zero polynomial has none (`ValueError`).
        """
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=grevlex_key)

    @cached_property
    def degree(self) -> int | None:
        """The common total degree of the terms, computed on first use and
        then kept; None for the zero polynomial.  Terms of mixed degrees
        raise `NotHomogeneousError`."""
        degrees = set(map(sum, self.terms))
        if len(degrees) > 1:
            raise NotHomogeneousError(
                f"polynomial is not homogeneous: it has terms of degrees "
                f"{min(degrees)} to {max(degrees)}"
            )
        return degrees.pop() if degrees else None

    def sorted_terms(self) -> list[tuple[Exponents, Scalar]]:
        """Terms in canonical (grevlex descending) order."""
        return sorted(self.terms.items(), key=lambda t: grevlex_key(t[0]))

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
        add_terms_into(self.ring.field, out, other.terms)
        return Polynomial._trusted(self.ring, out)

    def __neg__(self) -> "Polynomial":
        neg = self.ring.field.neg
        return Polynomial._trusted(self.ring, {e: neg(c) for e, c in self.terms.items()})

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other: "Polynomial | Scalar") -> "Polynomial":
        """Product with a polynomial of the same ring, or with anything the
        field's ``scalar`` accepts."""
        ring_field = self.ring.field
        mul = ring_field.mul
        if not isinstance(other, Polynomial):
            c = ring_field.scalar(other)
            terms = {e: mul(a, c) for e, a in self.terms.items()} if c else {}
            return Polynomial._trusted(self.ring, terms)
        self._require_same_ring(other)
        return Polynomial._trusted(self.ring, mul_terms(ring_field, self.terms, other.terms))

    __rmul__ = __mul__

    def __truediv__(self, scalar: Scalar) -> "Polynomial":
        ring_field = self.ring.field
        return self * ring_field.div(ring_field.one, ring_field.scalar(scalar))

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


def distinct_nonzero(polys: Sequence[Polynomial]) -> Iterator[Polynomial]:
    """Each nonzero entry, in order, skipping exact repeats."""
    seen: set[frozenset] = set()
    for p in polys:
        if p.is_zero():
            continue
        fingerprint = frozenset(p.terms.items())
        if fingerprint in seen:
            continue
        seen.add(fingerprint)
        yield p


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


def _require_point_of(ring: PolynomialRing, x: ProjectivePoint) -> None:
    if len(x) != ring.num_vars:
        raise RingMismatchError(
            f"point has {len(x)} coordinates, ring has {ring.num_vars} variables"
        )
    if any(c not in ring.field for c in x.coords):
        raise RingMismatchError(f"point {x} has a coordinate outside {ring.field}")


def evaluate(p: Polynomial, x: ProjectivePoint) -> Scalar:
    """Exact value of ``p`` at the supplied homogeneous coordinates."""
    _require_point_of(p.ring, x)
    ring_field = p.ring.field
    add, mul, power = ring_field.add, ring_field.mul, ring_field.pow
    total = ring_field.zero
    for exps, coeff in p.terms.items():
        value = coeff
        for c, e in zip(x.coords, exps):
            if e:
                value = mul(value, power(c, e))
        total = add(total, value)
    return total


def differential_at(p: Polynomial, x: ProjectivePoint) -> tuple[Scalar, ...]:
    """All partial derivatives of a homogeneous ``p`` evaluated at ``x``.

    The result depends on the chosen homogeneous coordinates of ``x``; callers
    must only rely on scale-invariant facts (vanishing, span membership).
    """
    p.degree  # raises NotHomogeneousError
    _require_point_of(p.ring, x)
    ring_field = p.ring.field
    add, mul, power = ring_field.add, ring_field.mul, ring_field.pow
    out = [ring_field.zero] * p.ring.num_vars
    for exps, coeff in p.terms.items():
        for i, e in enumerate(exps):
            if e == 0:
                continue
            value = mul(coeff, e)
            for j, (c, ej) in enumerate(zip(x.coords, exps)):
                k = ej - 1 if j == i else ej
                if k:
                    value = mul(value, power(c, k))
            out[i] = add(out[i], value)
    return tuple(out)


def format_polynomial(p: Polynomial) -> str:
    """Canonical print form: grevlex-descending terms, ``^`` powers, ``*`` products.

    Printing then re-parsing is a fixed point.
    """
    if p.is_zero():
        return "0"
    ring_field = p.ring.field
    pieces: list[str] = []
    for exps, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(p.ring.var_names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        negative = coeff < 0  # only a rational can be
        magnitude = ring_field.neg(coeff) if negative else coeff
        if not factors:
            body = str(magnitude)
        elif magnitude == ring_field.one:
            body = "*".join(factors)
        else:
            body = str(magnitude) + "*" + "*".join(factors)
        if not pieces:
            pieces.append("-" + body if negative else body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)
