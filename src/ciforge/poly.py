"""Sparse multivariate polynomials over an exact field.

A polynomial is a mapping from exponent tuples to nonzero scalars; the zero
polynomial has an empty term map.  A term map never changes once built, and
every operation is a pure function of its inputs.  Polynomials fill their
caches (``lead``, ``degree``, ``integral_terms``, the packed divisor forms)
on first use, and `MonomialLayout.unpack` keeps a memo that it clears when
full; each cached value depends only on the terms or the packed monomial, so
two threads that race on one compute the same value.  A dividend's packed
form belongs to the division that consumes it and is not kept.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from functools import cache, cached_property
from operator import add, le, mul, sub
from typing import Iterable, Iterator, Mapping, Sequence

from .errors import NotHomogeneousError, RingMismatchError, check_deadline
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
    field: Field, a: Mapping[Exponents, Scalar], b: Mapping[Exponents, Scalar], phase: str
) -> dict[Exponents, Scalar]:
    """The term map of the product of two term maps, by the field's own
    operations; a coefficient that reaches zero drops its monomial.  The time
    limit is checked once per term of ``a``, naming ``phase``."""
    add, mul = field.add, field.mul
    out: dict[Exponents, Scalar] = {}
    for e1, c1 in a.items():
        check_deadline(phase)
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


# The most unpacked monomials a layout keeps: a run meets a few hundred per
# layout, and a long-running process must not grow without bound.
_UNPACKED_LIMIT = 1 << 14


class MonomialLayout:
    """Monomials of degree at most ``top`` in ``num_vars`` variables, each
    packed into one integer (Bachmann and Schönemann, ISSAC 1998).

    With b = ``top.bit_length()``, the low part holds one field of b + 1 bits
    per variable, T_0 lowest: the exponent, with the field's top bit a guard
    that a packed monomial leaves clear.  Above it sit the grevlex fields, b
    bits each: the partial sums e_0, e_0 + e_1, ..., the total degree highest.
    Packing is linear, ``pack(e) == sum(e_k * weights[k])``, so for monomials
    of degree at most ``top``:

    - a product is the sum of the packed forms;
    - packed a > packed b exactly when a is grevlex-greater, since the total
      degree decides first and then a larger partial sum means a smaller
      exponent further right;
    - b divides a exactly when ``(a - b) & guard == 0``: where an exponent of
      a is smaller, the lowest such field borrows and sets its guard bit.

    Use `monomial_layout`, which makes one layout per width.
    """

    __slots__ = ("weights", "guard", "_shifts", "_mask", "_unpacked")

    def __init__(self, num_vars: int, width: int) -> None:
        low = width + 1
        base = num_vars * low  # where the grevlex fields start
        self.weights = tuple(
            (1 << k * low) + sum(1 << base + j * width for j in range(k, num_vars))
            for k in range(num_vars)
        )
        self.guard = sum(1 << k * low + width for k in range(num_vars))
        self._shifts = tuple(k * low for k in range(num_vars))
        self._mask = (1 << width) - 1
        self._unpacked: dict[int, Exponents] = {}

    def pack(self, exponents: Exponents) -> int:
        return sum(map(mul, exponents, self.weights))

    def unpack(self, packed: int) -> Exponents:
        """The exponent tuple of a packed monomial, kept once computed."""
        memo = self._unpacked
        exponents = memo.get(packed)
        if exponents is None:
            if len(memo) >= _UNPACKED_LIMIT:
                memo.clear()
            mask = self._mask
            exponents = memo[packed] = tuple(packed >> shift & mask for shift in self._shifts)
        return exponents


@cache
def _layout(num_vars: int, width: int) -> MonomialLayout:
    return MonomialLayout(num_vars, width)


def monomial_layout(num_vars: int, top: int) -> MonomialLayout:
    """The layout for monomials of degree at most ``top``; tops of one bit
    length share it."""
    return _layout(num_vars, top.bit_length())


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
    def integral_terms(self) -> tuple[int, list[tuple[Exponents, int]], int]:
        """(leading coefficient, other terms, scale) with the coefficients
        times ``scale`` made integers by the field (`Field.integral`),
        computed on first use and then kept.  Division asks each divisor for
        it.  The zero polynomial has none (`ValueError`)."""
        lead = self.lead
        ints, scale = self.ring.field.integral(self.terms)
        return ints[lead], [(e, c) for e, c in ints.items() if e is not lead], scale

    @cached_property
    def _packed(self) -> dict[MonomialLayout, tuple]:
        return {}

    def packed_divisor(self, layout: MonomialLayout) -> tuple[int, int, list, int]:
        """(leading monomial, leading coefficient, other terms, scale) in
        ``layout``, from `integral_terms`, computed once per layout.  The
        monomials are packed and the leading coefficient is in the form
        `Field.ratio` divides by (`Field.divisor_form`)."""
        form = self._packed.get(layout)
        if form is None:
            lead_coefficient, rest, scale = self.integral_terms
            pack = layout.pack
            form = self._packed[layout] = (
                pack(self.lead),
                self.ring.field.divisor_form(lead_coefficient),
                [(pack(e), c) for e, c in rest],
                scale,
            )
        return form

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
        terms = mul_terms(ring_field, self.terms, other.terms, "multiplication")
        return Polynomial._trusted(self.ring, terms)

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
    """Exact value of ``p`` at the supplied homogeneous coordinates.

    A term with a positive exponent on a zero coordinate is skipped, and each
    coordinate power above the first is computed once per call.
    """
    _require_point_of(p.ring, x)
    ring_field = p.ring.field
    add, mul, power = ring_field.add, ring_field.mul, ring_field.pow
    coords = x.coords
    powers: dict[tuple[int, int], Scalar] = {}
    total = ring_field.zero
    for exps, coeff in p.terms.items():
        value = coeff
        for j, e in enumerate(exps):
            if e:
                c = coords[j]
                if not c:
                    break
                if e > 1:
                    c = powers.get((j, e))
                    if c is None:
                        c = powers[j, e] = power(coords[j], e)
                value = mul(value, c)
        else:
            total = add(total, value)
    return total


def differential_at(p: Polynomial, x: ProjectivePoint) -> tuple[Scalar, ...]:
    """All partial derivatives of a homogeneous ``p`` evaluated at ``x``.

    The result depends on the chosen homogeneous coordinates of ``x``; callers
    must only rely on scale-invariant facts (vanishing, span membership).

    A term with no variable at a zero coordinate feeds every partial of a
    variable it contains.  One whose only such variable is T_j, to the first
    power, feeds the partial by T_j alone; any other term feeds none.  Each
    coordinate power above the first is computed once per call.
    """
    p.degree  # raises NotHomogeneousError
    _require_point_of(p.ring, x)
    ring_field = p.ring.field
    add, mul, power = ring_field.add, ring_field.mul, ring_field.pow
    coords = x.coords
    every = range(len(coords))
    powers: dict[tuple[int, int], Scalar] = {}
    out = [ring_field.zero] * len(coords)
    for exps, coeff in p.terms.items():
        at_zero = None
        for j, e in enumerate(exps):
            if e and not coords[j]:
                if e > 1 or at_zero is not None:
                    break
                at_zero = j
        else:
            for i in every if at_zero is None else (at_zero,):
                ei = exps[i]
                if not ei:
                    continue
                value = coeff if ei == 1 else mul(coeff, ei)
                for j, ej in enumerate(exps):
                    k = ej - 1 if j == i else ej
                    if k == 1:
                        value = mul(value, coords[j])
                    elif k:
                        c = powers.get((j, k))
                        if c is None:
                            c = powers[j, k] = power(coords[j], k)
                        value = mul(value, c)
                out[i] = add(out[i], value)
    return tuple(out)


def format_polynomial(p: Polynomial) -> str:
    """Canonical print form: grevlex-descending terms, ``^`` powers, ``*`` products.

    Printing then re-parsing is a fixed point.
    """
    if p.is_zero():
        return "0"
    names = p.ring.var_names
    pieces: list[str] = []
    for exps, coeff in p.sorted_terms():
        factors = []
        for name, e in zip(names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        # Reading the sign and |coeff| off the printed scalar ("n" or "n/d";
        # only a rational can be negative) costs no Fraction arithmetic.
        text = str(coeff)
        negative = text[0] == "-"
        magnitude = text[1:] if negative else text
        if not factors:
            body = magnitude
        elif magnitude == "1":
            body = "*".join(factors)
        else:
            body = magnitude + "*" + "*".join(factors)
        if not pieces:
            pieces.append("-" + body if negative else body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)
