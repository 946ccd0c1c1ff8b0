"""Division with quotient tracking, and Buchberger's algorithm, in grevlex.

An `Ideal` is the one object for an ideal and its reduced basis: the basis
computation (`reduced_groebner`) builds it, recording how it made each
polynomial, so membership can compose explicit cofactors over the original
generators on demand, without solving anything afresh.  Cofactors are valid
but not canonical; only the reduced basis itself is a canonical object.

The four wrappers at the end of this module serve only the benchmark's tracer.
"""

from __future__ import annotations

import functools
import heapq
from dataclasses import dataclass
from typing import Sequence

from .errors import (
    ImproperIdealError,
    NotHomogeneousError,
    RingMismatchError,
    check_deadline,
)
from .fields import Field, Scalar
from .poly import (
    Exponents,
    MonomialLayout,
    Polynomial,
    PolynomialRing,
    grevlex_key,
    monomial_div,
    monomial_divides,
    monomial_layout,
    monomial_lcm,
    monomial_mul,
)


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
    layout: MonomialLayout,
    work: dict[int, object],
    divisors: Sequence[tuple[int, int, Sequence[tuple[int, int]], int]],
) -> tuple[list[dict[int, object]], dict[int, object]]:
    """Core division loop on packed monomials; returns the quotients and the
    remainder as packed maps in the field's working form.

    ``work`` is the dividend's packed working map, which the loop
    consumes.  Each divisor is its `Polynomial.packed_divisor` form in
    ``layout``: (leading monomial, leading coefficient, other terms, scale),
    its coefficients times ``scale`` made integers by `Field.integral`.  At
    every step the current leading monomial of the work polynomial is either
    cancelled by the first divisor whose leading monomial divides it or
    moved to the remainder, so the loop strictly descends in grevlex.
    Coefficients stay in the field's working form, so a step costs one
    ``ratio`` and one fused ``sub_mul`` per divisor term.  A quotient map
    times its divisor's scale is the quotient; nothing is unpacked here, so
    a caller converts only what it keeps (`_polynomial`).

    A packed monomial is one integer (`MonomialLayout`): a product is ``+``,
    a greater integer is a grevlex-greater monomial, and the divisor's
    leading monomial divides ``lm`` exactly when ``(lm - glm) & guard`` is
    zero.  The work polynomial's monomials sit in a min-heap of their
    negations, which pops the grevlex-greatest first.  A monomial is pushed
    when it enters the work polynomial; one that has left it since is
    skipped when popped.  Nothing at or above a processed monomial is ever
    added again, so each monomial is processed once.
    """
    heap = [-m for m in work]
    heapq.heapify(heap)
    pop, push = heapq.heappop, heapq.heappush
    ratio, sub_mul, zero = field.ratio, field.sub_mul, field.work_zero
    guard = layout.guard
    remainder: dict[int, object] = {}
    quotients: list[dict[int, object]] = [{} for _ in divisors]
    steps = 0
    while heap:
        lm = -pop(heap)
        lc = work.pop(lm, None)
        if lc is None:
            continue
        steps += 1
        if steps % _STEPS_PER_DEADLINE_CHECK == 0:
            check_deadline("division")
        for q, (glm, glc, gtail, _) in zip(quotients, divisors):
            shift = lm - glm
            if not shift & guard:
                # lc / glc times the scale, which `from_work` applies at the end.
                factor = ratio(lc, glc)
                q[shift] = factor  # lm is processed once, so shift is new
                # The divisor's leading term cancels lm, which already left
                # the work polynomial.
                for ge, gc in gtail:
                    e = shift + ge
                    value = work.get(e)
                    if value is None:
                        work[e] = sub_mul(zero, factor, gc)
                        push(heap, -e)
                    else:
                        value = sub_mul(value, factor, gc)
                        if value == zero:
                            del work[e]
                        else:
                            work[e] = value
                break
        else:
            remainder[lm] = lc
    return quotients, remainder


def _polynomial(
    ring: PolynomialRing, layout: MonomialLayout, terms: dict[int, object], scale: int = 1
) -> Polynomial:
    """The polynomial of a packed map in the field's working form, each
    coefficient times ``scale``."""
    unpack = layout.unpack
    return Polynomial._trusted(
        ring, {unpack(e): c for e, c in ring.field.from_work(terms, scale).items()}
    )


@dataclass(slots=True)
class _Division:
    """A division's layout, packed divisors, and packed quotients and remainder."""

    layout: MonomialLayout
    divisors: list[tuple]
    quotients: list[dict[int, object]]
    remainder: dict[int, object]


def _divide(
    f: Polynomial | dict, basis: Sequence[Polynomial], layout: MonomialLayout | None = None
) -> _Division:
    """Divide ``f`` by ``basis`` on packed monomials, as every division here does.

    Without ``layout``, ``f`` is a `Polynomial`, packed afresh in the layout
    for the highest degree among its terms and the divisors' leading
    monomials, which bounds every monomial the division meets.  With it,
    ``f`` is an S-pair's packed working map, which the division consumes,
    and ``basis`` is Buchberger's own, so it is not checked.
    """
    if layout is not None:
        field, work = basis[0].ring.field, f
    else:
        ring = f.ring
        try:
            top = f.degree or 0
        except NotHomogeneousError:
            top = max(map(sum, f.terms))
        for g in basis:
            if g.ring is not ring and g.ring != ring:
                raise RingMismatchError("divisor in a different ring")
            if g.is_zero():
                raise ValueError("zero divisor in basis")
            top = max(top, sum(g.lead))
        layout = monomial_layout(ring.num_vars, top)
        pack, field = layout.pack, ring.field
        work = {pack(e): c for e, c in field.to_work(f.terms).items()}
    divisors = [g.packed_divisor(layout) for g in basis]
    return _Division(layout, divisors, *_divide_terms(field, layout, work, divisors))


def normal_form(f: Polynomial, basis: Sequence[Polynomial]) -> QuotientRecord:
    """Divide ``f`` by ``basis`` in grevlex.

    Deterministic: the leading reducible monomial is always cancelled by the
    first basis element whose leading monomial divides it.  The remainder has
    no monomial divisible by any basis leading monomial.  A long division
    honours `basis_time_limit`.

    It runs on packed monomials (`_divide`), each divisor packed once per
    layout however many divisions it takes part in, and converts every
    quotient and the remainder.
    """
    ring, division = f.ring, _divide(f, basis)
    layout, divisors = division.layout, division.divisors
    return QuotientRecord(
        tuple(_polynomial(ring, layout, q, d[3]) for q, d in zip(division.quotients, divisors)),
        _polynomial(ring, layout, division.remainder),
    )


def _s_polynomial(layout: MonomialLayout, g: Polynomial, h: Polynomial, lcm: int) -> dict:
    """The packed working map of g * m_g / lc(g) - h * m_h / lc(h), where m_g
    and m_h lift both leading monomials to the packed ``lcm``.

    It is built on the parents' packed divisor forms in ``layout``, with no
    `Polynomial` product, and goes to `_divide` as it is.  The
    leading terms cancel, and g's other terms stay distinct after the shift,
    so only h's can meet one already there.
    """
    field = g.ring.field
    ratio, sub_mul, zero, one = field.ratio, field.sub_mul, field.work_zero, field.work_one
    g_lead, g_lc, g_rest, _ = g.packed_divisor(layout)
    h_lead, h_lc, h_rest, _ = h.packed_divisor(layout)
    # Over the integral forms, g / lc(g) has the coefficients c / g_lc.
    shift, factor = lcm - g_lead, ratio(one, g_lc)
    work = {shift + e: sub_mul(zero, factor, -c) for e, c in g_rest}
    shift, factor = lcm - h_lead, ratio(one, h_lc)
    for e, c in h_rest:
        e += shift
        value = sub_mul(work.get(e, zero), factor, c)
        if value == zero:
            del work[e]  # only a term already there can cancel
        else:
            work[e] = value
    return work


# ---------------------------------------------------------------------------
# Buchberger.


def reduced_groebner(
    gens: Sequence[Polynomial],
    *,
    ring: PolynomialRing | None = None,
    through: int | None = None,
    within: "Ideal | None" = None,
) -> "Ideal":
    """The `Ideal` generated by ``gens``, with its reduced grevlex Groebner basis.

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
    polynomial it makes appends a row to the ideal's ``derivation``.

    Generators and pairs leave one queue lowest degree first, and a pair's
    remainder has the pair's degree, so elements enter in non-decreasing
    degree: at a pair of degree e, every element has degree at most e.  Each
    is irreducible by those before it, and a later leading monomial, of no
    lower degree, divides an earlier one only if equal to it.  So the basis
    comes out minimal; reducing it makes each element monic and tail-reduced.

    ``through=d`` stops at degree d, giving a d-Groebner basis (Becker and
    Weispfenning, *Groebner Bases*, 1993, §10.2): no generator or pair of
    degree above d is queued.  The chain criterion for a pair asks only
    about pairs that divide its lcm, of no greater degree, so it sees what a
    full run would.  The elements of degree at most d, and their derivation,
    are then those of a full run; the rest are missing, so the ideal records
    the bound and refuses what needs a full basis.

    ``within=W``, an `Ideal` with a full basis, skips work that W's basis
    settles (Traverso's Hilbert-driven pair skipping, 1996).  If the
    generators lie in W, the basis B built so far generates a subideal of W,
    so once every leading monomial of W's basis of degree at most e is
    divisible by one of B, B agrees with W through degree e and a pair of
    degree e reduces to zero: it is skipped, making no row.  Membership of
    the generators is one cached call, ``inside``, made at the first such
    pair: one division per generator, up to the first outside W, after which
    nothing is skipped.  So the result equals the unbounded one for any
    generators.
    """
    if ring is None:
        if not gens:
            raise ValueError("cannot infer the ring of an empty generator list")
        ring = gens[0].ring
    source = tuple(gens)
    if any(g.ring != ring for g in source):
        raise RingMismatchError("generators belong to different rings")
    if within is not None:
        if within.ring != ring:
            raise RingMismatchError("the bounding ideal belongs to a different ring")
        if within.through is not None:
            raise ValueError("the bounding ideal needs a full basis")

    basis: list[Polynomial] = []
    lms: list[Exponents] = []
    nodes: list[int] = []  # derivation node of each basis entry
    derivation: list[tuple] = []
    div, one = ring.field.div, ring.field.one

    # Generators and pairs wait in one heap, lowest degree first.  A generator
    # is (degree, 0, position) and the pair i < j is (lcm degree, 1, j, i), so
    # a generator enters just before the pairs of its degree and pairs keep
    # the order `enter` creates them in.  g.degree raises NotHomogeneousError.
    queue = [(g.degree, 0, p) for p, g in enumerate(source) if not g.is_zero()]
    if through is not None:
        queue = [event for event in queue if event[0] <= through]
    heapq.heapify(queue)
    pending: set[frozenset[int]] = set()  # the queued pairs

    def enter(element: Polynomial, node: int) -> None:
        """Add ``element`` to the basis and queue its pairs with the others."""
        new, new_lm = len(basis), element.lead
        for k, lm in enumerate(lms):
            degree = sum(monomial_lcm(lm, new_lm))
            if through is None or degree <= through:
                heapq.heappush(queue, (degree, 1, new, k))
                pending.add(frozenset((k, new)))
        basis.append(element)
        lms.append(new_lm)
        nodes.append(node)

    def keep(division: _Division, head: tuple, divisor_nodes: list[int]) -> tuple:
        """Append the row that makes a division's remainder, ``head`` then
        (quotient, divisor node) per nonzero quotient; the remainder and its node."""
        layout = division.layout
        entries = zip(division.quotients, division.divisors, divisor_nodes)
        derivation.append(
            head + tuple((_polynomial(ring, layout, q, d[3]), n) for q, d, n in entries if q)
        )
        return _polynomial(ring, layout, division.remainder), len(source) + len(derivation) - 1

    # (degree, leading monomial) of W's basis elements that no leading
    # monomial in ``lms`` is known to divide, the lowest degree last.
    uncovered = [(g.degree, g.lead) for g in reversed(within.elements)] if within else []
    # Skipping is sound only for generators in W: one division each, once.
    inside = functools.cache(lambda: all(g in within for g in source))

    def settled(degree: int) -> bool:
        """Whether W's basis shows that a pair of ``degree`` reduces to zero."""
        while uncovered and uncovered[-1][0] <= degree:
            if not any(monomial_divides(lm, uncovered[-1][1]) for lm in lms):
                return False
            uncovered.pop()
        return inside()

    while queue:
        check_deadline("basis computation")
        event = heapq.heappop(queue)
        if not event[1]:
            position = event[2]
            g = source[position]
            division = _divide(g, basis)
            if not division.remainder:
                continue
            if any(division.quotients):
                enter(*keep(division, ((one, position),), nodes))
            else:
                enter(g, position)
            continue

        degree, _, j, i = event
        pending.discard(frozenset((i, j)))
        lcm = monomial_lcm(lms[i], lms[j])
        # Coprime criterion: disjoint leading supports never yield new elements.
        if lcm == monomial_mul(lms[i], lms[j]):
            continue
        # Chain criterion: a third element dividing the lcm whose pairs with
        # both ends are already settled makes this pair redundant.
        if any(
            k not in (i, j)
            and monomial_divides(lms[k], lcm)
            and frozenset((i, k)) not in pending
            and frozenset((j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        if within is not None and settled(degree):
            continue

        # `_divide` would pick this layout too: no element has a higher degree.
        layout = monomial_layout(ring.num_vars, degree)
        work = _s_polynomial(layout, basis[i], basis[j], layout.pack(lcm))
        division = _divide(work, basis, layout)
        if not division.remainder:
            continue
        mono_i = ring.monomial(monomial_div(lcm, lms[i]), div(one, basis[i].terms[lms[i]]))
        mono_j = ring.monomial(monomial_div(lcm, lms[j]), div(one, basis[j].terms[lms[j]]))
        head = ((mono_i, nodes[i]), (mono_j, nodes[j]))
        enter(*keep(division, head, nodes))

    # The basis is minimal, and a tail lies below its element's leading
    # monomial: one ascending pass, dividing each element made monic by the
    # reduced ones before it, yields the reduced basis.
    final: list[Polynomial] = []
    final_nodes: list[int] = []
    for i in sorted(range(len(basis)), key=lambda i: grevlex_key(lms[i]), reverse=True):
        inv = div(one, basis[i].terms[lms[i]])
        element, node = keep(_divide(basis[i] * inv, final), ((inv, nodes[i]),), final_nodes)
        final.append(element)
        final_nodes.append(node)

    ideal = object.__new__(Ideal)
    ideal.ring, ideal.gens, ideal.elements = ring, source, tuple(final)
    ideal.derivation, ideal.through, ideal._below = tuple(derivation), through, {}
    return ideal


class Ideal:
    """The ideal generated by ``gens`` and its reduced grevlex Groebner basis,
    computed once.

    ``Ideal(gens, ring=..., through=..., within=...)`` is one call of
    `reduced_groebner`, which builds the ideal.  ``elements`` is the basis:
    monic, interreduced and sorted by leading monomial.  Membership, the
    below-degree part and the dimension are all read off it.  The reduced
    basis of each below-degree part is kept by degree: it depends only on the
    ideal and the degree, so every containment test in one degree shares one
    computation.

    ``derivation`` has one row per polynomial the computation made: the
    remainder of a generator that the basis before it reduced but did not
    cancel, an S-pair remainder, or a monic, tail-reduced element.  A
    generator that reduced to zero on entry was dropped and appears in no
    row; one left untouched entered as its own node.  Nodes ``0 ..
    len(gens) - 1`` are the generators and node ``len(gens) + r`` is what
    row ``r`` made: its first multiplier (a polynomial or a scalar) times
    that node, minus each further multiplier times its node.  The last
    ``len(elements)`` rows make the elements.

    ``through`` is None for a full basis.  An ideal computed ``through=d``
    holds only the reduced basis's elements of degree at most d, answers
    membership only up to degree d and refuses `dimension`, which needs the
    whole basis (`ValueError`).
    """

    ring: PolynomialRing
    gens: tuple[Polynomial, ...]
    elements: tuple[Polynomial, ...]
    derivation: tuple[tuple[tuple[Polynomial | Scalar, int], ...], ...]
    through: int | None
    _below: dict[int, Ideal]  # `truncated_ideal` by degree

    def __new__(
        cls,
        gens: Sequence[Polynomial],
        *,
        ring: PolynomialRing | None = None,
        through: int | None = None,
        within: "Ideal | None" = None,
    ) -> "Ideal":
        # The module-level name, so that a wrapper bound there sees every basis.
        return reduced_groebner(gens, ring=ring, through=through, within=within)

    def cofactors(self, quotients: Sequence[Polynomial]) -> tuple[Polynomial, ...]:
        """Cofactors over ``gens`` of sum(quotients[k] * elements[k]).

        Back-substitutes from the highest node down.  A node's parents are
        earlier nodes, so its weight is complete when the walk reaches it,
        including what the walk itself passed down to it.
        """
        sources, zero = len(self.gens), self.ring.zero()
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

    def _require_within_bound(self, f: Polynomial) -> None:
        through = self.through
        if through is not None and not f.is_zero() and f.degree > through:
            raise ValueError(
                f"membership in degree {f.degree}, but the basis stops at degree {through}"
            )

    def __contains__(self, f: Polynomial) -> bool:
        """Whether ``f`` is a member; composes and converts nothing."""
        self._require_within_bound(f)
        return not _divide(f, self.elements).remainder

    def member(self, f: Polynomial) -> tuple[bool, QuotientRecord]:
        """Membership of ``f``, with cofactors over the generators.

        Returns (member, record) where the record expresses f over ``gens``:
        f = sum(cofactor_i * gens_i) + remainder, remainder zero exactly when
        f is a member.  Cofactors come from composing the division quotients
        with the ``derivation``.
        """
        f.degree  # raises NotHomogeneousError
        self._require_within_bound(f)
        record = normal_form(f, self.elements)
        cofactors = self.cofactors(record.quotients)
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
        return tuple(g for g in self.elements if g.degree < m)

    def truncated_ideal(self, m: int) -> "Ideal":
        """The ideal generated by ``truncated(m)``, its basis computed through
        degree ``m`` and once per ``m``.

        It answers membership of degree ``m`` exactly.  Its generators are
        this ideal's basis in degrees below ``m``, which they generate, so
        every pair below ``m`` reduces to zero and is skipped (``within``).
        """
        below = self._below.get(m)
        if below is None:
            below = self._below[m] = Ideal(
                self.truncated(m), ring=self.ring, through=m, within=self
            )
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
        if self.through is not None:
            raise ValueError("the dimension needs a full basis")
        if any(g.degree == 0 for g in self.elements):
            raise ImproperIdealError("ideal contains a nonzero constant")
        supports = {sum(1 << i for i, e in enumerate(g.lead) if e) for g in self.elements}
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
