"""Division with quotient tracking, and Buchberger's algorithm, in grevlex.

The basis computation records how it made each polynomial, so membership can
compose explicit cofactors over the original generators on demand, without
solving anything afresh.  Cofactors are valid but not canonical; only the
reduced basis itself is a canonical object.

`ideal_member`, `ideal_equal`, `truncated_generators` and
`projective_dimension` have no caller inside the package; they stay because
the benchmark's tracer (``perfbench/tracer.py``) binds them by name.
"""

from __future__ import annotations

import heapq
import time
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator, Mapping, Sequence

from .errors import (
    BuchbergerTimeout,
    ImproperIdealError,
    RingMismatchError,
)
from .fields import Field, Scalar
from .poly import (
    Exponents,
    Polynomial,
    PolynomialRing,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
)


# ---------------------------------------------------------------------------
# Cooperative time limit for every long-running phase.

_deadline: ContextVar[float | None] = ContextVar("basis_deadline", default=None)


@contextmanager
def basis_time_limit(seconds: float) -> Iterator[None]:
    """Bound the wall-clock time of basis computations, divisions, row
    reductions and rewrite loops started in this context."""
    token = _deadline.set(time.monotonic() + seconds)
    try:
        yield
    finally:
        _deadline.reset(token)


def check_deadline(phase: str) -> None:
    """Raise `BuchbergerTimeout`, naming ``phase``, once the limit has passed."""
    deadline = _deadline.get()
    if deadline is not None and time.monotonic() > deadline:
        raise BuchbergerTimeout(f"{phase} exceeded its time limit")


# ---------------------------------------------------------------------------
# Division.


@dataclass(frozen=True)
class QuotientRecord:
    """Result of multivariate division: dividend = sum(q_i * divisor_i) + remainder."""

    quotients: tuple[Polynomial, ...]
    remainder: Polynomial


#: Leading-term steps between two deadline checks inside one division.
_STEPS_PER_DEADLINE_CHECK = 1024


def _divide_terms(
    field: Field,
    dividend: Mapping[Exponents, Scalar],
    divisors: Sequence[tuple[Exponents, Scalar, Mapping[Exponents, Scalar]]],
) -> tuple[list[dict[Exponents, Scalar]], dict[Exponents, Scalar]]:
    """Core division loop on raw term maps over ``field``.

    Each divisor is given as (leading monomial, leading coefficient, terms),
    where the leading monomial is the key object stored in terms.  At every
    step the current leading monomial of the work polynomial is either
    cancelled by the first divisor whose leading monomial divides it or moved
    to the remainder, so the loop strictly descends in grevlex.

    The work polynomial's monomials sit in a min-heap under `grevlex_key`,
    written out inline, which pops the grevlex-greatest first.  A
    monomial is pushed when it enters the work polynomial; one that has left
    it since is skipped when popped.  Nothing at or above a processed
    monomial is ever added again, so each monomial is processed once.
    """
    work = dict(dividend)
    heap = [(-sum(e), e[::-1], e) for e in work]  # (*grevlex_key(e), e)
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    add, mul, neg, div = field.add, field.mul, field.neg, field.div
    remainder: dict[Exponents, Scalar] = {}
    quotients: list[dict[Exponents, Scalar]] = [{} for _ in divisors]
    steps = 0
    while heap:
        lm = pop(heap)[2]
        lc = work.pop(lm, None)
        if lc is None:
            continue
        steps += 1
        if steps % _STEPS_PER_DEADLINE_CHECK == 0:
            check_deadline("division")
        for q, (glm, glc, gterms) in zip(quotients, divisors):
            if monomial_divides(glm, lm):
                shift = monomial_div(lm, glm)
                factor = div(lc, glc)
                q[shift] = factor  # lm is processed once, so shift is new
                minus = neg(factor)
                # The divisor's leading term cancels lm, which already left
                # the work polynomial.
                for ge, gc in gterms.items():
                    if ge is glm:
                        continue
                    e = monomial_mul(shift, ge)
                    value = work.get(e)
                    if value is None:
                        work[e] = mul(minus, gc)
                        push(heap, (-sum(e), e[::-1], e))
                    else:
                        value = add(value, mul(minus, gc))
                        if value:
                            work[e] = value
                        else:
                            del work[e]
                break
        else:
            remainder[lm] = lc
    return quotients, remainder


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> QuotientRecord:
    """Divide ``f`` by ``basis`` in grevlex.

    Deterministic: the leading reducible monomial is always cancelled by the
    first basis element whose leading monomial divides it.  The remainder has
    no monomial divisible by any basis leading monomial.  A long division
    honours `basis_time_limit`.
    """
    ring = f.ring
    divisors = []
    for g in basis:
        if g.ring != ring:
            raise RingMismatchError("divisor in a different ring")
        if g.is_zero():
            raise ValueError("zero divisor in basis")
        lm = g.lead
        divisors.append((lm, g.terms[lm], g.terms))
    quotients, remainder = _divide_terms(ring.field, f.terms, divisors)
    zero = ring.zero()
    return QuotientRecord(
        tuple(Polynomial._trusted(ring, q) if q else zero for q in quotients),
        Polynomial._trusted(ring, remainder),
    )


# ---------------------------------------------------------------------------
# Buchberger.


@dataclass(frozen=True)
class GroebnerBasis:
    """A reduced Groebner basis: monic, interreduced, sorted by leading monomial.

    ``derivation`` has one row per polynomial the computation made: the
    remainder of a generator that the basis before it reduced but did not
    cancel, an S-pair remainder, or a monic, tail-reduced element.  A
    generator that reduced to zero on entry was dropped and appears in no
    row; one left untouched entered as its own node.  Nodes ``0 ..
    len(source_gens) - 1`` are the source generators and node
    ``len(source_gens) + r`` is what row ``r`` made: its first multiplier (a
    polynomial or a scalar) times that node, minus each further multiplier
    times its node.  The last ``len(elements)`` rows make the elements.
    """

    ring: PolynomialRing
    elements: tuple[Polynomial, ...]
    source_gens: tuple[Polynomial, ...]
    derivation: tuple[tuple[tuple[Polynomial | Scalar, int], ...], ...]

    def leading_monomials(self) -> list[Exponents]:
        return [g.lead for g in self.elements]

    def cofactors(self, quotients: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
        """Cofactors over ``source_gens`` of sum(quotients[k] * elements[k]).

        Back-substitutes from the highest node down.  A node's parents are
        earlier nodes, so its weight is complete when the walk reaches it,
        including what the walk itself passed down to it.
        """
        sources, zero = len(self.source_gens), self.ring.zero()
        top = sources + len(self.derivation)
        weights = dict(zip(range(top - len(self.elements), top), quotients))
        for node in range(top - 1, sources - 1, -1):
            weight = weights.pop(node, zero)
            if weight.is_zero():
                continue
            (multiplier, parent), *subtracted = self.derivation[node - sources]
            weights[parent] = weights.get(parent, zero) + weight * multiplier
            for multiplier, parent in subtracted:
                weights[parent] = weights.get(parent, zero) - weight * multiplier
        return tuple(weights.get(i, zero) for i in range(sources))


def _nonzero_terms(quotients: Sequence[Polynomial], divisor_nodes: Sequence[int]) -> tuple:
    """(quotient, divisor node) for each nonzero division quotient."""
    return tuple((q, n) for q, n in zip(quotients, divisor_nodes) if not q.is_zero())


def reduced_groebner(
    gens: Sequence[Polynomial],
    *,
    ring: PolynomialRing | None = None,
) -> GroebnerBasis:
    """Reduced grevlex Groebner basis of the ideal generated by ``gens``.

    Buchberger's algorithm with the coprime and chain criteria and normal pair
    selection (lowest lcm degree first, ties by pair creation order).  Every
    generator must be homogeneous (`NotHomogeneousError`); zero generators
    are dropped.  The others enter one at a time in (degree, position) order,
    each just before the pairs of its degree (the incremental form of Gebauer
    and Möller), after division by the basis built so far.  A zero remainder
    means the generator already lies in the ideal of that basis, so it is
    dropped: it forms no pairs and adds no row (duplicates and scalar
    multiples go this way).  A generator the division leaves untouched enters
    as its own source node; any other enters as its remainder, made by one
    row ``((1, position), (quotient, node)...)``.  The result is the unique
    reduced basis of the ideal, independent of generator order.  Each
    polynomial it makes appends a derivation row.
    """
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring of an empty generator list")
        ring = gens[0].ring
    source = tuple(gens)
    if any(g.ring != ring for g in source):
        raise RingMismatchError("generators belong to different rings")

    basis: list[Polynomial] = []
    lms: list[Exponents] = []
    lcs: list[Scalar] = []
    nodes: list[int] = []  # derivation node of each basis entry
    derivation: list[tuple] = []
    div, one = ring.field.div, ring.field.one

    pending: set[frozenset[int]] = set()
    # (lcm degree, j, i) for the pair i < j: lowest degree first, then the
    # order `enter` creates pairs in.
    queue: list[tuple[int, int, int]] = []

    def enter(element: Polynomial, node: int) -> None:
        """Add ``element`` to the basis and queue its pairs with the others."""
        new, new_lm = len(basis), element.lead
        for k, lm in enumerate(lms):
            heapq.heappush(queue, (sum(monomial_lcm(lm, new_lm)), new, k))
            pending.add(frozenset((k, new)))
        basis.append(element)
        lms.append(new_lm)
        lcs.append(element.terms[new_lm])
        nodes.append(node)

    def made(row: tuple) -> int:
        """Append a derivation row; the node of the polynomial it makes."""
        derivation.append(row)
        return len(source) + len(derivation) - 1

    # (degree, position) of each nonzero generator, the next to enter last;
    # g.degree raises NotHomogeneousError.
    waiting = sorted(
        ((g.degree, p) for p, g in enumerate(source) if not g.is_zero()),
        reverse=True,
    )

    while waiting or queue:
        check_deadline("basis computation")
        if waiting and (not queue or queue[0][0] >= waiting[-1][0]):
            position = waiting.pop()[1]
            g = source[position]
            record = normal_form(g, basis)
            if record.remainder.is_zero():
                continue
            row = _nonzero_terms(record.quotients, nodes)
            if row:
                enter(record.remainder, made(((one, position),) + row))
            else:
                enter(g, position)
            continue

        _, j, i = heapq.heappop(queue)
        pending.discard(frozenset((i, j)))
        lcm = monomial_lcm(lms[i], lms[j])
        # Coprime criterion: disjoint leading supports never yield new elements.
        if lcm == monomial_mul(lms[i], lms[j]):
            continue
        # Chain criterion: a third element dividing the lcm whose pairs with
        # both ends are already settled makes this pair redundant.
        redundant = False
        for k in range(len(basis)):
            if k in (i, j):
                continue
            if (
                monomial_divides(lms[k], lcm)
                and frozenset((i, k)) not in pending
                and frozenset((j, k)) not in pending
            ):
                redundant = True
                break
        if redundant:
            continue

        shift_i = monomial_div(lcm, lms[i])
        shift_j = monomial_div(lcm, lms[j])
        mono_i = ring.monomial(shift_i, div(one, lcs[i]))
        mono_j = ring.monomial(shift_j, div(one, lcs[j]))
        s_poly = basis[i] * mono_i - basis[j] * mono_j
        record = normal_form(s_poly, basis)
        if record.remainder.is_zero():
            continue
        head = ((mono_i, nodes[i]), (mono_j, nodes[j]))
        enter(record.remainder, made(head + _nonzero_terms(record.quotients, nodes)))

    # Minimalize: drop elements whose leading monomial another one divides.
    keep: list[int] = []
    for i in range(len(basis)):
        if any(
            k != i
            and monomial_divides(lms[k], lms[i])
            and (lms[k] != lms[i] or k < i)
            for k in range(len(basis))
        ):
            continue
        keep.append(i)

    # Make each survivor monic and tail-reduce it.  Leading monomials are
    # pairwise non-divisible at this point, so reduction only rewrites tails,
    # whose monomials lie below the survivor's own leading monomial: only the
    # survivors before it in ascending order can divide them.  One pass,
    # dividing each by the reduced ones before it, yields the reduced form.
    keep.sort(key=lambda i: grevlex_key(lms[i]), reverse=True)
    final: list[Polynomial] = []
    final_nodes: list[int] = []
    for i in keep:
        inv = div(one, lcs[i])
        record = normal_form(basis[i] * inv, final)
        head = ((inv, nodes[i]),)
        final.append(record.remainder)
        final_nodes.append(made(head + _nonzero_terms(record.quotients, final_nodes)))

    return GroebnerBasis(ring, tuple(final), source, tuple(derivation))


class Ideal:
    """The ideal generated by ``gens``, with its reduced basis computed once.

    Membership, the below-degree part and the dimension are all read off that
    one basis.  The reduced basis of each below-degree part is kept by degree:
    it depends only on the ideal and the degree, so every containment test in
    one degree shares one computation.
    """

    def __init__(
        self,
        gens: Sequence[Polynomial],
        *,
        ring: PolynomialRing | None = None,
    ) -> None:
        self.basis = reduced_groebner(gens, ring=ring)
        self._below: dict[int, Ideal] = {}

    @property
    def ring(self) -> PolynomialRing:
        return self.basis.ring

    @property
    def gens(self) -> tuple[Polynomial, ...]:
        return self.basis.source_gens

    def __contains__(self, f: Polynomial) -> bool:
        """Whether ``f`` is a member; composes no cofactors."""
        return normal_form(f, self.basis.elements).remainder.is_zero()

    def member(self, f: Polynomial) -> tuple[bool, QuotientRecord]:
        """Membership of ``f``, with cofactors over the generators.

        Returns (member, record) where the record expresses f over ``gens``:
        f = sum(cofactor_i * gens_i) + remainder, remainder zero exactly when
        f is a member.  Cofactors come from composing the division quotients
        with the basis derivation.
        """
        f.degree  # raises NotHomogeneousError
        record = normal_form(f, self.basis.elements)
        cofactors = self.basis.cofactors(record.quotients)
        return record.remainder.is_zero(), QuotientRecord(cofactors, record.remainder)

    def truncated(self, m: int) -> tuple[Polynomial, ...]:
        """Generators of the ideal spanned by all members of degree below ``m``.

        These are the reduced grevlex basis elements of degree < m.  Why this
        is enough: grevlex refines total degree, so dividing a homogeneous
        member of degree d by the reduced basis only ever invokes basis
        elements whose degrees are at most d.  Hence every member of degree
        < m is a combination of basis elements of degree < m, and conversely
        each such element is itself a member of degree < m.
        """
        return tuple(g for g in self.basis.elements if g.degree < m)

    def truncated_ideal(self, m: int) -> "Ideal":
        """The ideal generated by ``truncated(m)``, computed once per ``m``."""
        below = self._below.get(m)
        if below is None:
            below = self._below[m] = Ideal(self.truncated(m), ring=self.ring)
        return below

    def dimension(self) -> int:
        """Dimension of the projective vanishing locus.

        Computed as (Krull dimension of the affine cone) − 1, the cone
        dimension being the number of variables minus the fewest variables
        that meet the support of every leading monomial of the reduced basis.
        That minimum hitting set is searched by branching on an uncovered
        support with the fewest variables, pruned at the best size so far;
        the problem is NP-hard in general, so every node checks the time
        limit.  Returns −1 for the empty projective locus.
        """
        if any(g.degree == 0 for g in self.basis.elements):
            raise ImproperIdealError("ideal contains a nonzero constant")
        supports = {
            sum(1 << i for i, e in enumerate(lm) if e)
            for lm in self.basis.leading_monomials()
        }
        # Every support is nonempty, so all the variables meet each one.
        best = self.ring.num_vars
        stack = [(list(supports), 0)]
        while stack:
            check_deadline("dimension")
            uncovered, size = stack.pop()
            if not uncovered:
                best = min(best, size)
            elif size + 1 < best:
                branch = min(uncovered, key=int.bit_count)
                while branch:
                    bit = branch & -branch
                    branch ^= bit
                    stack.append(([m for m in uncovered if not m & bit], size + 1))
        return self.ring.num_vars - best - 1


def ideal_member(
    f: Polynomial, gens: Sequence[Polynomial]
) -> tuple[bool, QuotientRecord]:
    """Membership of ``f`` in the ideal generated by ``gens``; see `Ideal.member`."""
    return Ideal(gens, ring=f.ring).member(f)


def ideal_equal(
    a: Sequence[Polynomial],
    b: Sequence[Polynomial],
    *,
    ring: PolynomialRing | None = None,
) -> bool:
    """True iff the two generator lists generate the same ideal."""
    if ring is None:
        candidates = [g.ring for g in (*a, *b)]
        if not candidates:
            return True
        ring = candidates[0]
    basis_a = reduced_groebner(a, ring=ring)
    basis_b = reduced_groebner(b, ring=ring)
    return basis_a.elements == basis_b.elements


def truncated_generators(gens: Sequence[Polynomial], m: int) -> list[Polynomial]:
    """The basis elements of degree below ``m``; see `Ideal.truncated`."""
    if m < 1:
        raise ValueError("degree cut must be at least 1")
    if not gens:
        return []
    return list(Ideal(gens).truncated(m))


def projective_dimension(gens: Sequence[Polynomial]) -> int:
    """Dimension of the projective zero locus of ``gens``; see `Ideal.dimension`."""
    if not gens:
        raise ValueError("need at least one generator")
    return Ideal(gens, ring=gens[0].ring).dimension()
