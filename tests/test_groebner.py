"""Division, Buchberger, membership, truncation, dimension."""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from ciforge import decide, errors, groebner
from ciforge import (
    BuchbergerTimeout,
    CICertificate,
    Ideal,
    ImproperIdealError,
    NotHomogeneousError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    QQ,
    QuotientRecord,
    RingMismatchError,
    basis_time_limit,
    normal_form,
    parse_polynomial,
    reduce_to_ci,
    reduced_groebner,
    verify_certificate,
)
from ciforge.groebner import (
    ideal_equal,
    ideal_member,
    projective_dimension,
    truncated_generators,
)
from ciforge.poly import grevlex_key, monomial_div, monomial_layout, monomial_lcm

from corpus import PLANTED_IN_P5, PLANTED_QUADRICS, RATIONAL_NORMAL_QUARTIC
from helpers import expand, leading_coefficient
from oracles import (
    reference_cofactors,
    reference_dimension,
    reference_division,
    reference_truncated_basis,
)


def strs(polys):
    return [str(p) for p in polys]


class TestOrders:
    def test_grevlex_degree_first(self, p3):
        f = parse_polynomial("T3^3 + T0*T1", p3)
        assert f.lead == (0, 0, 0, 3)

    def test_grevlex_quadric_chain(self, p3):
        # classical grevlex layout of the degree-2 monomials in four variables
        monos = [
            "T0^2", "T0*T1", "T1^2", "T0*T2", "T1*T2", "T2^2",
            "T0*T3", "T1*T3", "T2*T3", "T3^2",
        ]
        keys = [grevlex_key(parse_polynomial(m, p3).lead) for m in monos]
        assert keys == sorted(keys)


class TestNormalForm:
    def test_exact_multiple(self, p3):
        f1 = parse_polynomial("T0*T2 - T1^2", p3)
        record = normal_form(p3.variable(0) * f1, [f1])
        assert record.remainder.is_zero()
        assert strs(record.quotients) == ["T0"]

    def test_single_step(self, p3, twisted_cubic):
        basis = reduced_groebner(list(twisted_cubic)).elements
        record = normal_form(parse_polynomial("T1^2", p3), list(basis))
        assert str(record.remainder) == "T0*T2"

    def test_empty_divisors(self, p3):
        f = parse_polynomial("T0 + T1", p3)
        record = normal_form(f, [])
        assert record.quotients == ()
        assert record.remainder == f

    def test_expand_identity(self, p3, twisted_cubic):
        f = parse_polynomial("T0^2*T3 - T1^3 + T2^3", p3)
        record = normal_form(f, list(twisted_cubic))
        assert expand(record, list(twisted_cubic)) == f

    def test_remainder_irreducible(self, p3, twisted_cubic):
        f = parse_polynomial("T0*T1*T2*T3", p3)
        record = normal_form(f, list(twisted_cubic))
        lms = [g.lead for g in twisted_cubic]
        for exps in record.remainder.terms:
            assert not any(all(a <= b for a, b in zip(lm, exps)) for lm in lms)

    def test_homogeneous_quotient_degrees(self, p3, twisted_cubic):
        f = parse_polynomial("T0^2*T2 - T0*T1^2", p3)
        record = normal_form(f, list(twisted_cubic))
        for q in record.quotients:
            if not q.is_zero():
                assert q.degree == 1

    def test_zero_divisor_rejected(self, p3):
        with pytest.raises(ValueError):
            normal_form(p3.one(), [p3.zero()])

    def test_ring_mismatch(self, p3):
        other = PolynomialRing(QQ, ("x", "y"))
        with pytest.raises(RingMismatchError):
            normal_form(p3.variable(0), [other.variable(0)])

    def test_long_division_honours_the_time_limit(self, monkeypatch):
        # Every monomial of degree 8 in six variables: more leading-term steps
        # than one deadline check apart, and no basis computation around them.
        ring = PolynomialRing(QQ, tuple(f"T{i}" for i in range(6)))
        f = Polynomial(
            ring,
            {
                tuple(c.count(i) for i in range(6)): QQ.one
                for c in combinations_with_replacement(range(6), 8)
            },
        )
        divisor = ring.variable(0) - ring.variable(1)
        with basis_time_limit(3600.0):
            monkeypatch.setattr(errors.time, "monotonic", lambda: math.inf)
            with pytest.raises(BuchbergerTimeout, match="division"):
                normal_form(f, [divisor])


FIELDS = (QQ, PrimeField(7), PrimeField(32003))
SMALL_MONOMIALS = [e for e in product(range(4), repeat=3) if sum(e) <= 3]


SMALL_NUMERATORS = st.integers(1, 6)
SMALL_DENOMINATORS = st.integers(1, 3)


@st.composite
def polynomials(
    draw,
    ring,
    support=SMALL_MONOMIALS,
    min_terms=0,
    numerators=SMALL_NUMERATORS,
    denominators=SMALL_DENOMINATORS,
    max_terms=6,
):
    monomials = draw(
        st.lists(st.sampled_from(support), min_size=min_terms, max_size=max_terms, unique=True)
    )
    terms = {}
    for e in monomials:
        numerator = draw(numerators) * draw(st.sampled_from((1, -1)))
        denominator = ring.field.scalar(draw(denominators))
        terms[e] = ring.field.div(ring.field.scalar(numerator), denominator)
    return Polynomial(ring, terms)


@st.composite
def divisions(
    draw, fields=FIELDS, numerators=SMALL_NUMERATORS, denominators=SMALL_DENOMINATORS
):
    """(dividend, divisors, multiple) in three variables over one of
    ``fields``, coefficients ±n/d with n and d drawn from ``numerators`` and
    ``denominators``.

    The divisor list may be empty and may hold two divisors with one leading
    monomial.  With ``multiple`` set the dividend is a multiple of a lone
    divisor, so it cancels completely.
    """
    ring = PolynomialRing(draw(st.sampled_from(fields)), ("T0", "T1", "T2"))

    def polys(**kwargs):
        return polynomials(ring, numerators=numerators, denominators=denominators, **kwargs)

    divisors = draw(st.lists(polys(min_terms=1), max_size=3))
    if divisors and draw(st.booleans()):
        first = divisors[0]
        below = [e for e in SMALL_MONOMIALS if grevlex_key(e) > grevlex_key(first.lead)]
        shared = first * ring.field.scalar(draw(st.integers(2, 5)))
        shared = shared + draw(polys(support=below or [first.lead]))
        if not shared.is_zero():
            divisors.insert(draw(st.integers(0, len(divisors))), shared)
    if divisors and draw(st.booleans()):
        divisors = divisors[:1]
        return draw(polys()) * divisors[0], divisors, True
    return draw(polys()), divisors, False


@st.composite
def sparse_monomials(draw, num_vars):
    """An exponent tuple with at most three nonzero exponents, each up to 9."""
    exponents = [0] * num_vars
    for k in draw(st.lists(st.integers(0, num_vars - 1), max_size=3, unique=True)):
        exponents[k] = draw(st.integers(1, 9))
    return tuple(exponents)


@st.composite
def wide_divisions(draw):
    """(dividend, divisors, multiple) in 2 to 12 variables over one of
    FIELDS, with exponents up to 9, so that the highest degree, which picks
    the packed layout, lands on either side of its width steps.

    The dividend need not be homogeneous, and a divisor may have a higher
    degree than the dividend.  Multiples of some divisors are added to the
    dividend, so divisions take steps; with ``multiple`` set the dividend is
    a multiple of a lone divisor.
    """
    n = draw(st.integers(2, 12))
    ring = PolynomialRing(draw(st.sampled_from(FIELDS)), tuple(f"T{i}" for i in range(n)))
    support = draw(st.lists(sparse_monomials(n), min_size=1, max_size=8, unique=True))

    def polys(min_terms=0, max_terms=4):
        return polynomials(ring, support=support, min_terms=min_terms, max_terms=max_terms)

    divisors = draw(st.lists(polys(min_terms=1), max_size=3))
    if divisors and draw(st.booleans()):
        divisors = divisors[:1]
        return draw(polys(max_terms=3)) * divisors[0], divisors, True
    f = draw(polys())
    for g in divisors:
        if draw(st.booleans()):
            f = f + draw(polys(max_terms=2)) * g
    return f, divisors, False


def assert_matches_the_reference_division(case):
    f, divisors, multiple = case
    record = normal_form(f, divisors)
    field = f.ring.field
    quotients, remainder = reference_division(
        dict(f.terms), [dict(g.terms) for g in divisors], field
    )
    assert [q.terms for q in record.quotients] == quotients
    assert record.remainder.terms == remainder
    # Fraction(2) == 2, so the equalities above do not show the scalar type.
    for p in (*record.quotients, record.remainder):
        assert all(c in field for c in p.terms.values())
    if multiple:
        assert record.remainder.is_zero()
        assert record.quotients[0] * divisors[0] == f


class TestDivisionKernel:
    """`normal_form` performs the textbook division step for step."""

    @given(divisions())
    def test_matches_the_reference_division(self, case):
        assert_matches_the_reference_division(case)

    @given(
        divisions(
            fields=(QQ,),
            numerators=st.integers(1, 10**20),
            denominators=st.integers(1, 10**12),
        )
    )
    def test_matches_the_reference_division_on_large_rationals(self, case):
        assert_matches_the_reference_division(case)

    @settings(deadline=None)
    @given(wide_divisions())
    def test_matches_the_reference_division_across_layouts(self, case):
        assert_matches_the_reference_division(case)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_multiple_cancels_completely(self, field):
        ring = PolynomialRing(field, ("T0", "T1", "T2"))
        g = parse_polynomial("2*T0*T1 - T2^2 + 3*T0*T2", ring)
        q = parse_polynomial("T0^2 - 5*T1*T2 + T2^2", ring)
        record = normal_form(q * g, [g])
        assert record.remainder.is_zero()
        assert record.quotients == (q,)

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_first_divisor_wins_a_shared_leading_monomial(self, field):
        ring = PolynomialRing(field, ("T0", "T1", "T2"))
        first = parse_polynomial("T0^2 - T1*T2", ring)
        second = parse_polynomial("3*T0^2 + T2^2", ring)
        f = parse_polynomial("T0^3 + T0*T2^2", ring)
        record = normal_form(f, [first, second])
        assert str(record.quotients[0]) == "T0"
        assert record.quotients[1].is_zero()
        quotients, remainder = reference_division(
            dict(f.terms), [dict(first.terms), dict(second.terms)], field
        )
        assert [q.terms for q in record.quotients] == quotients
        assert record.remainder.terms == remainder


def packed(p, layout):
    """``p``'s terms as the packed working map a division of ``p`` starts
    from."""
    return {layout.pack(e): c for e, c in p.ring.field.to_work(p.terms).items()}


@dataclass(frozen=True)
class Division:
    """One call of the division kernel: its layout, the packed dividend as
    it came in, the packed remainder, and how many quotients are nonzero."""

    layout: object
    dividend: dict
    remainder: dict
    nonzero_quotients: int

    @property
    def degree(self):
        """The dividend's degree, None for a zero one; taken from one term,
        since every dividend here is homogeneous."""
        return sum(self.layout.unpack(next(iter(self.dividend)))) if self.dividend else None

    def dividend_is_one_of(self, polys):
        """Whether the dividend is one of ``polys``."""
        return any(self.dividend == packed(p, self.layout) for p in polys)


def watch_divisions(patch):
    """The list that each later call of `groebner._divide_terms`, the kernel
    every division passes through, appends its `Division` to."""
    calls = []
    original = groebner._divide_terms

    def observing(field, layout, work, divisors):
        dividend = dict(work)  # the kernel consumes ``work``
        quotients, remainder = original(field, layout, work, divisors)
        calls.append(Division(layout, dividend, remainder, sum(map(bool, quotients))))
        return quotients, remainder

    patch.setattr(groebner, "_divide_terms", observing)
    return calls


def mark_divisions_inside(patch, calls, owners):
    """The set that receives the index in ``calls`` of each division made
    inside a call of the functions ``owners`` names, as (owner, name)."""
    inside = set()

    def marking(original):
        def wrapper(*args):
            start = len(calls)
            try:
                return original(*args)
            finally:
                inside.update(range(start, len(calls)))

        return wrapper

    for owner, name in owners:
        patch.setattr(owner, name, marking(getattr(owner, name)))
    return inside


def finishing_pass(calls, basis):
    """The indices in ``calls`` of the finishing pass that made ``basis``:
    one division per element, the last ones the computation makes."""
    return set(range(len(calls) - len(basis.elements), len(calls)))


class TestDivisionWork:
    """A polynomial's leading monomial is computed once, however many
    divisions it takes part in."""

    @pytest.fixture
    def computed(self, monkeypatch):
        computed = []
        original = Polynomial.lead.func

        def counting(p):
            computed.append(p)  # keeps p alive, so ids stay distinct
            return original(p)

        lead = cached_property(counting)
        lead.__set_name__(Polynomial, "lead")
        monkeypatch.setattr(Polynomial, "lead", lead)
        return computed

    @pytest.mark.parametrize(
        "entry", [PLANTED_QUADRICS, RATIONAL_NORMAL_QUARTIC], ids=lambda e: e.name
    )
    def test_reduced_groebner(self, monkeypatch, computed, entry):
        divisions = watch_divisions(monkeypatch)
        gens = entry.gens
        basis = reduced_groebner(list(gens))
        remainders = [d.remainder for d in divisions]
        # Nonzero remainders are the S-polynomial reductions that enlarge the
        # basis and the tail-reduced final elements; each final element also
        # has a monic copy.
        entered = sum(map(bool, remainders)) + len(basis.elements)
        assert len(remainders) > len(basis.elements)
        assert len({id(p) for p in computed}) == len(computed)
        assert len(computed) <= len(gens) + entered

    def test_membership_reuses_the_basis_leading_monomials(self, computed):
        gens = PLANTED_QUADRICS.gens
        ideal = Ideal(list(gens))
        ideal.member(gens[0])
        before = len(computed)
        for g in gens:
            assert ideal.member(g * g)[0]
        assert len(computed) == before


def count_conversions(patch, calls):
    """The list that receives, for each packed map that `groebner` turns
    into a `Polynomial` from now on, how many divisions ``calls`` held then."""
    made = []
    original = groebner._polynomial

    def counting(*args):
        made.append(len(calls))
        return original(*args)

    patch.setattr(groebner, "_polynomial", counting)
    return made


class TestConversion:
    """Division hands back packed maps, and its callers turn into a
    `Polynomial` only what they keep: membership converts nothing, and a
    basis computation nothing of an entry or S-pair division with a zero
    remainder, nor the remainder of a generator that enters untouched."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_membership_converts_nothing(self, monkeypatch, field):
        ring = PolynomialRing(field, ("T0", "T1", "T2", "T3"))
        f1, f2, f3 = (
            parse_polynomial(text, ring)
            for text in ("T0*T2 - T1^2", "T1*T3 - T2^2", "T0*T3 - T1*T2")
        )
        ideal = Ideal([f1, f2, f3])
        calls = watch_divisions(monkeypatch)
        made = count_conversions(monkeypatch, calls)
        T0, T1, _, T3 = (ring.variable(i) for i in range(4))
        assert f1 * T0 - f3 * T1 in ideal and f1 + f2 * 2 in ideal
        assert f1 + T3 * T3 not in ideal and T0 * T1 * T3 not in ideal
        assert len(calls) == 4
        assert made == []

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_basis_converts_only_what_it_keeps(self, field):
        ring = PolynomialRing(field, tuple(f"T{i}" for i in range(5)))
        T = [ring.variable(i) for i in range(5)]
        independent = [T[i] - T[4] * (i + 2) for i in range(4)]
        cubic = [T[0] * T[2] - T[1] ** 2, T[1] * T[3] - T[2] ** 2, T[0] * T[3] - T[1] * T[2]]
        inputs = [
            # Untouched generators, and redundant ones that reduce to zero.
            independent + [independent[0] + independent[1], independent[2] * 3],
            # S-pairs that reduce to zero, and redundant generators.
            cubic + [cubic[0] + cubic[1] * 2, cubic[2] * T[4]],
            # A generator reduced to a new element, and a nonzero S-pair.
            [T[0] - T[1], T[0] + T[1], T[0] * T[2] - T[3] ** 2, T[1] * T[2] - T[4] ** 2],
        ]
        seen_zero = seen_kept = 0
        for gens in inputs:
            with pytest.MonkeyPatch.context() as patch:
                calls = watch_divisions(patch)
                made = count_conversions(patch, calls)
                basis = reduced_groebner(gens)
            finishing = finishing_pass(calls, basis)
            for k, d in enumerate(calls):
                if k in finishing:
                    continue
                untouched = not d.nonzero_quotients and d.dividend_is_one_of(basis.gens)
                kept = 0 if not d.remainder or untouched else 1 + d.nonzero_quotients
                # Conversions made after division k and before the next one.
                assert made.count(k + 1) == kept
                seen_zero += not d.remainder
                seen_kept += kept > 0
        assert seen_zero and seen_kept


class TestEntry:
    """Generators enter one at a time, each divided by the basis built so far:
    one that already lies in the ideal of those before it costs that division
    and nothing else."""

    @pytest.mark.parametrize("field", FIELDS, ids=str)
    def test_redundant_generators_cost_one_division_each(self, monkeypatch, field):
        ring = PolynomialRing(field, tuple(f"T{i}" for i in range(5)))
        T = [ring.variable(i) for i in range(5)]
        # Leading monomials T0..T3, tails in T4: each enters untouched.
        independent = [T[i] - T[4] * (i + 2) for i in range(4)]
        L0, L1, L2, L3 = independent
        redundant = [L0 + L1, L1 * 2 - L3, L0 + L1 + L2 + L3, L2 * 3, L3 - L0]
        gens = independent + redundant
        divisions = watch_divisions(monkeypatch)
        basis = reduced_groebner(gens)
        k, m = len(independent), len(redundant)
        assert len(basis.elements) == k
        # One entry division per generator, in position order, then one
        # tail reduction per element: no S-pair is ever reduced.
        assert len(divisions) == k + m + k
        assert all(d.dividend == packed(g, d.layout) for d, g in zip(divisions, gens))
        # The independent forms are their own nodes; the final elements make
        # the only rows, and no row reads a dropped generator.
        assert len(basis.derivation) == k
        dropped = set(range(k, k + m))
        assert not any(node in dropped for row in basis.derivation for _, node in row)

    def test_reduced_generator_enters_with_one_row(self, p3):
        first = parse_polynomial("T0 - T1", p3)
        second = parse_polynomial("T0 + T1", p3)
        basis = reduced_groebner([first, second])
        assert strs(basis.elements) == ["T1", "T0"]
        # Node 2 is 1 * second - 1 * first = 2*T1; the elements follow.
        entry, *final = basis.derivation
        assert entry == ((QQ.one, 1), (p3.one(), 0))
        assert len(final) == 2
        for k, element in enumerate(basis.elements):
            unit = [p3.zero()] * 2
            unit[k] = p3.one()
            record = QuotientRecord(basis.cofactors(unit), p3.zero())
            assert expand(record, basis.gens) == element

    @settings(deadline=None, max_examples=60)
    @given(data=st.data())
    def test_basis_does_not_depend_on_entry_order(self, data):
        ring = PolynomialRing(data.draw(st.sampled_from(FIELDS)), ("T0", "T1", "T2"))
        degrees = data.draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
        gens = [g for g in (data.draw(forms(ring, d)) for d in degrees) if not g.is_zero()]
        assume(gens)
        duplicate = data.draw(st.sampled_from(gens))
        multiple = data.draw(st.sampled_from(gens)) * data.draw(st.sampled_from((-1, 2, 3, 5)))
        shuffled = data.draw(st.permutations(gens + [duplicate, multiple]))
        elements = reduced_groebner(shuffled).elements
        top = max(g.degree for g in (*gens, *elements))
        assert list(elements) == reference_truncated_basis(gens, top + 1)
        # Every S-pair reduces to zero by the textbook division, so no
        # element is missing above the degrees compared.
        field = ring.field
        for a, b in combinations(elements, 2):
            lcm = tuple(map(max, a.lead, b.lead))
            s_poly = (
                a * ring.monomial(tuple(x - y for x, y in zip(lcm, a.lead)), field.one)
                - b * ring.monomial(tuple(x - y for x, y in zip(lcm, b.lead)), field.one)
            )
            _, remainder = reference_division(
                dict(s_poly.terms), [dict(g.terms) for g in elements], field
            )
            assert not remainder


class TestReducedBasis:
    def test_twisted_cubic(self, twisted_cubic):
        basis = reduced_groebner(list(twisted_cubic))
        assert strs(basis.elements) == [
            "T2^2 - T1*T3",
            "T1*T2 - T0*T3",
            "T1^2 - T0*T2",
        ]

    def test_chain_criterion_reads_the_pending_pairs(self):
        # The chain criterion may drop a pair only for a third element whose
        # pairs with both ends are no longer pending; taking every pair as
        # settled drops pairs that z^4 comes from.
        ring = PolynomialRing(QQ, ("x", "y", "z"))
        gens = [
            parse_polynomial(text, ring)
            for text in ("x*y + z^2", "x*z + 2*y^2", "y*z + 3*x^2")
        ]
        elements = reduced_groebner(gens).elements
        assert "z^4" in strs(elements)
        assert list(elements) == reference_truncated_basis(gens, 5)

    def test_tail_reduction(self, p3):
        gens = [
            parse_polynomial("T0 - T1", p3),
            parse_polynomial("T0*T3 - T1*T2", p3),
        ]
        basis = reduced_groebner(gens)
        assert strs(basis.elements) == ["T0 - T1", "T1*T2 - T1*T3"]

    def test_single_generator_made_monic(self, p3):
        basis = reduced_groebner([parse_polynomial("3*T0*T2 - 6*T1^2", p3)])
        assert strs(basis.elements) == ["T1^2 - 1/2*T0*T2"]

    def test_zero_and_duplicate_generators_dropped(self, p3):
        f = parse_polynomial("T0 - T1", p3)
        basis = reduced_groebner([p3.zero(), f, f])
        assert strs(basis.elements) == ["T0 - T1"]

    def test_permutation_invariance(self, twisted_cubic):
        reference = reduced_groebner(list(twisted_cubic)).elements
        rng = random.Random(3)
        gens = list(twisted_cubic)
        for _ in range(5):
            rng.shuffle(gens)
            assert reduced_groebner(gens).elements == reference

    def test_cofactors_reproduce_elements(self):
        # A twisted cubic in general coordinates over F_32003 (the benchmark's
        # nonci-curves-fp-0 at seed 1): its elements derive from S-pair
        # remainders that derive from other S-pair remainders.
        curve = PolynomialRing(PrimeField(32003), ("T0", "T1", "T2", "T3"))
        general_cubic = [
            parse_polynomial(s, curve)
            for s in (
                "2120*T0^2 + 9869*T0*T1 + T0*T2 - T1^2",
                "2237*T0^2 + 24665*T0*T1 + 20289*T0*T2 + T0*T3 + 29014*T1^2 - T1*T2",
                "19172*T0^2 + 31431*T0*T1 + 7653*T0*T2 + 28563*T0*T3 + 4794*T1^2"
                " + 10871*T1*T2 + T1*T3 - T2^2",
            )
        ]
        entries = (PLANTED_QUADRICS, RATIONAL_NORMAL_QUARTIC, PLANTED_IN_P5)
        for gens in [list(e.gens) for e in entries] + [general_cubic]:
            ring = gens[0].ring
            basis = reduced_groebner(gens)
            for k, element in enumerate(basis.elements):
                unit = [ring.zero()] * len(basis.elements)
                unit[k] = ring.one()
                record = QuotientRecord(basis.cofactors(unit), ring.zero())
                assert expand(record, basis.gens) == element

    def test_non_homogeneous_rejected(self, p3):
        with pytest.raises(NotHomogeneousError):
            reduced_groebner([parse_polynomial("T0 + T1^2", p3)])

    def test_empty_input_needs_ring(self, p3):
        with pytest.raises(ValueError):
            reduced_groebner([])
        assert reduced_groebner([], ring=p3).elements == ()

    def test_timeout(self, twisted_cubic):
        with basis_time_limit(-1.0):
            with pytest.raises(BuchbergerTimeout):
                reduced_groebner(list(twisted_cubic))


class TestMembership:
    def test_member_with_composed_quotients(self, p3, twisted_cubic):
        f1, f2, f3 = twisted_cubic
        member, record = ideal_member(f1 + f2 - f3, list(twisted_cubic))
        assert member
        assert record.remainder.is_zero()
        assert strs(record.quotients) == ["1", "1", "-1"]

    def test_reexpansion(self, p3, twisted_cubic):
        f = parse_polynomial("T2*(T0*T2 - T1^2) - T0*(T1*T3 - T2^2)", p3)
        member, record = ideal_member(f, list(twisted_cubic))
        assert member
        assert expand(record, list(twisted_cubic)) == f

    def test_non_member(self, p3, twisted_cubic):
        member, record = ideal_member(p3.variable(0), list(twisted_cubic))
        assert not member
        assert str(record.remainder) == "T0"

    def test_zero_always_member(self, p3, twisted_cubic):
        member, record = ideal_member(p3.zero(), list(twisted_cubic))
        assert member
        assert all(q.is_zero() for q in record.quotients)

    def test_requires_homogeneous(self, p3, twisted_cubic):
        with pytest.raises(NotHomogeneousError):
            ideal_member(parse_polynomial("T0 + T1^2", p3), list(twisted_cubic))

    def test_contains(self, p3, twisted_cubic):
        ideal = Ideal(list(twisted_cubic))
        f1, f2, f3 = twisted_cubic
        assert f1 * p3.variable(0) - f3 * p3.variable(1) in ideal
        assert f1 + f2 * 2 in ideal
        assert f1 + p3.variable(2) ** 2 not in ideal


def forms(ring, degree):
    """A homogeneous polynomial of ``degree`` in three variables, maybe zero."""
    support = [e for e in product(range(degree + 1), repeat=3) if sum(e) == degree]
    return polynomials(ring, support=support)


@st.composite
def memberships(draw):
    """(f, gens) over Q, F_7 or F_32003 in three variables: one to three
    homogeneous generators of degree 1-3 and a combination of them, which a
    further form of the same degree may push out of the ideal."""
    ring = PolynomialRing(draw(st.sampled_from(FIELDS)), ("T0", "T1", "T2"))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    gens = [g for g in (draw(forms(ring, d)) for d in degrees) if not g.is_zero()]
    assume(gens)
    top = max(degrees) + draw(st.integers(0, 1))
    f = ring.zero()
    for g in gens:
        f = f + draw(forms(ring, top - g.degree)) * g
    if draw(st.booleans()):
        f = f + draw(forms(ring, top))
    return f, gens


class TestCofactors:
    """`Ideal.member` composes cofactors from the basis derivation on demand;
    they equal, polynomial for polynomial, those of the eager transcript in
    `tests/oracles.py`, which enters generators in the same order."""

    @settings(deadline=None, max_examples=60)
    @given(memberships())
    def test_match_the_eager_transcript(self, case):
        f, gens = case
        member, record = Ideal(gens, ring=f.ring).member(f)
        assert record == reference_cofactors(f, gens)
        assert member == record.remainder.is_zero()
        assert expand(record, gens) == f

    def test_generator_enters_before_the_pairs_of_its_degree(self):
        # The quadrics' S-pair has degree 3 and its remainder spans the cubic:
        # run before the cubic entered, it would make the cubic redundant.
        ring = PolynomialRing(QQ, ("T0", "T1", "T2"))
        gens = [
            parse_polynomial(s, ring)
            for s in ("T0*T2", "T0*T1 + T1^2 + 2*T0*T2", "T1^2*T2 - 3*T0*T2^2")
        ]
        member, record = Ideal(gens).member(gens[2])
        assert member
        assert strs(record.quotients) == ["0", "0", "1"]
        assert record == reference_cofactors(gens[2], gens)

    def test_deep_derivation(self):
        # The truncated ideal that decide's containment tests read: its basis
        # elements derive from earlier ones over several levels.
        ring = PLANTED_IN_P5.ring
        ideal = Ideal(PLANTED_IN_P5.gens).truncated_ideal(3)
        gens = ideal.gens
        f = gens[0] * ring.variable(5) + gens[1] * (ring.variable(0) - ring.variable(3))
        member, record = ideal.member(f)
        assert member
        assert record == reference_cofactors(f, gens)


class TestIdealEqual:
    def test_permutation(self, twisted_cubic):
        gens = list(twisted_cubic)
        assert ideal_equal(gens, gens[::-1])

    def test_multiple_shift(self, p3):
        l = parse_polynomial("T0 - T1", p3)
        q = parse_polynomial("T0*T3 - T1*T2", p3)
        shifted = q + p3.variable(1) * l
        assert ideal_equal([l, q], [l, shifted])

    def test_strict_containment(self, twisted_cubic):
        f1, f2, _ = twisted_cubic
        assert not ideal_equal([f1], [f1, f2])


class TestTruncated:
    def test_no_low_degree_part(self, twisted_cubic):
        assert truncated_generators(list(twisted_cubic), 2) == []

    def test_linear_survives(self, p3):
        gens = [
            parse_polynomial("T0 - T1", p3),
            parse_polynomial("T0*T3 - T1*T2", p3),
        ]
        assert strs(truncated_generators(gens, 2)) == ["T0 - T1"]
        assert strs(truncated_generators(gens, 3)) == ["T0 - T1", "T1*T2 - T1*T3"]

    def test_products_stay_inside(self, p3):
        # degree-(m-1-d) monomial times a degree-d truncated generator stays
        # in the truncated ideal (sampled with m = 3)
        gens = [
            parse_polynomial("T0 - T1", p3),
            parse_polynomial("T0*T3 - T1*T2", p3),
        ]
        truncated = truncated_generators(gens, 3)
        for g in truncated:
            for i in range(4):
                member, _ = ideal_member(p3.variable(i) * g, truncated)
                assert member

    def test_bad_cut(self, p3):
        with pytest.raises(ValueError):
            truncated_generators([p3.variable(0)], 0)


class TestIdeal:
    def test_truncated_ideal_computed_once_per_degree(self, p3):
        ideal = Ideal(
            [parse_polynomial("T0 - T1", p3), parse_polynomial("T0*T3 - T1*T2", p3)]
        )
        below = ideal.truncated_ideal(3)
        assert ideal.truncated_ideal(3) is below
        assert ideal.truncated_ideal(2) is not below
        assert strs(below.gens) == ["T0 - T1", "T1*T2 - T1*T3"]


@st.composite
def bounded_inputs(draw):
    """(gens, W) over Q, F_7 or F_32003 in three variables: W is generated
    by one to three forms of degree 1-3.  ``gens`` start, at times, with
    another presentation of W's generators (each plus multiples of those
    before it), so that their basis is W's; then come up to three forms of
    degree 1-4, all combinations of W's generators or only some of them, so
    that the generators may lie outside W."""
    ring = PolynomialRing(draw(st.sampled_from(FIELDS)), ("T0", "T1", "T2"))
    degrees = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
    w_gens = [g for g in (draw(forms(ring, d)) for d in degrees) if not g.is_zero()]
    assume(w_gens)

    def combination(degree, of):
        g = ring.zero()
        for w in of:
            if degree >= w.degree:
                g = g + draw(forms(ring, degree - w.degree)) * w
        return g

    gens = []
    if draw(st.booleans()):
        for k, w in enumerate(w_gens):
            unit = draw(st.sampled_from((1, 2, -3)))
            gens.append(w * unit + combination(w.degree, w_gens[:k]))
    every_one_inside = draw(st.booleans())
    for d in draw(st.lists(st.integers(1, 4), max_size=3)):
        if every_one_inside or draw(st.booleans()):
            gens.append(combination(d, w_gens))
        else:
            gens.append(draw(forms(ring, d)))
    assume(gens)
    return gens, Ideal(w_gens)


def recorded(ideal):
    """Everything a basis computation records, to compare two of them."""
    return ideal.ring, ideal.gens, ideal.elements, ideal.derivation, ideal.through


class TestBounds:
    """``through`` keeps a full run's elements up to its degree; ``within``
    changes nothing in the result, whatever the generators."""

    @settings(deadline=None, max_examples=150)
    @given(case=bounded_inputs(), through=st.integers(0, 5))
    def test_bounds_keep_the_unbounded_result(self, case, through):
        gens, w = case
        ring = w.ring
        unbounded = reduced_groebner(gens, ring=ring)
        # Skipped pairs would have reduced to zero, which makes no row, so
        # the derivation is the same too.
        assert recorded(reduced_groebner(gens, ring=ring, within=w)) == recorded(unbounded)
        low = tuple(g for g in unbounded.elements if g.degree <= through)
        for bounding in (None, w):
            bounded = reduced_groebner(gens, ring=ring, through=through, within=bounding)
            assert bounded.elements == low
            assert bounded.through == through

    def test_generators_outside_the_bounding_ideal_skip_nothing(self):
        # No generator lies in W = (2x + 4z), yet 6x covers W's one leading
        # monomial, so without the membership proof the quadrics' pairs
        # would be skipped and z^3 lost.
        ring = PolynomialRing(PrimeField(7), ("x", "y", "z"))
        w = Ideal([parse_polynomial("2*x + 4*z", ring)])
        gens = [
            parse_polynomial(text, ring)
            for text in ("6*x", "4*x*z + 6*y*z + 3*z^2", "4*y^2 + 5*z^2")
        ]
        basis = reduced_groebner(gens, within=w)
        assert recorded(basis) == recorded(reduced_groebner(gens))
        assert "z^3" in strs(basis.elements)

    def test_bounding_ideal_needs_a_full_basis_of_the_same_ring(self, p3):
        gens = [parse_polynomial("T0*T1", p3), parse_polynomial("T2^2", p3)]
        with pytest.raises(ValueError, match="full basis"):
            reduced_groebner(gens, within=Ideal(gens, through=2))
        other = PolynomialRing(QQ, ("x", "y", "z", "w"))
        with pytest.raises(RingMismatchError):
            reduced_groebner(gens, within=Ideal([other.variable(0)]))

    def test_bounded_ideal_refuses_what_needs_the_whole_basis(self):
        below = Ideal(PLANTED_QUADRICS.gens).truncated_ideal(3)
        assert below.through == 3
        with pytest.raises(ValueError, match="full basis"):
            below.dimension()
        ring = below.ring
        cubic = below.gens[0] * ring.variable(0)
        assert cubic in below and below.member(cubic)[0]
        with pytest.raises(ValueError, match="stops at degree 3"):
            cubic * ring.variable(1) in below
        with pytest.raises(ValueError, match="stops at degree 3"):
            below.member(cubic * ring.variable(1))


class TestOneCallPerBasis:
    """Every basis is one call of the module-level `reduced_groebner`, the
    name the benchmark's tracer wraps: it builds each `Ideal`, the input's
    and each truncated one's alike."""

    @pytest.fixture
    def calls(self, monkeypatch):
        calls = []
        compute = groebner.reduced_groebner

        def counting(gens, **kwargs):
            calls.append(tuple(gens))
            return compute(gens, **kwargs)

        monkeypatch.setattr(groebner, "reduced_groebner", counting)
        return calls

    def test_an_ideal_is_one_basis_computation(self, calls):
        gens = tuple(PLANTED_QUADRICS.gens)
        ideal = Ideal(gens)
        assert calls == [gens]
        below = ideal.truncated_ideal(3)
        assert calls == [gens, below.gens]
        assert ideal.truncated_ideal(3) is below
        assert len(calls) == 2
        ideal.truncated_ideal(4)
        assert len(calls) == 3

    def test_reduced_groebner_returns_the_ideal(self, calls):
        basis = reduced_groebner(PLANTED_QUADRICS.gens)  # the unwrapped function
        assert type(basis) is Ideal and calls == []
        assert basis.elements == Ideal(PLANTED_QUADRICS.gens).elements


class TestBoundedWork:
    """What the bounds save, counted in divisions: a truncated ideal reduces
    only the S-pairs of the degree it is asked about, and the CI verifier's
    second basis no S-pair that the input's basis shows to reduce to zero."""

    @pytest.fixture
    def divisions(self, monkeypatch):
        """Every `Division` from now on."""
        return watch_divisions(monkeypatch)

    @staticmethod
    def s_pairs(divisions, basis):
        """The S-pair divisions of one basis computation, which made every
        division in ``divisions``: the others tail-reduce each element, last,
        or divide a generator (on entry, or to prove it a member of the
        bounding ideal)."""
        building = divisions[: len(divisions) - len(basis.elements)]
        return [d for d in building if not d.dividend_is_one_of(basis.gens)]

    @pytest.mark.parametrize("entry", [PLANTED_QUADRICS, PLANTED_IN_P5], ids=lambda e: e.name)
    @pytest.mark.parametrize("degree", [3, 4])
    def test_truncated_ideal_reduces_only_pairs_of_its_degree(
        self, divisions, entry, degree
    ):
        ideal = Ideal(entry.gens)
        divisions.clear()
        below = ideal.truncated_ideal(degree)
        assert all(d.degree == degree for d in self.s_pairs(divisions, below))
        divisions.clear()
        unbounded = reduced_groebner(below.gens)
        assert any(d.degree != degree for d in self.s_pairs(divisions, unbounded))
        low = tuple(g for g in unbounded.elements if g.degree <= degree)
        assert below.elements == low

    @pytest.mark.parametrize("entry", [PLANTED_QUADRICS, PLANTED_IN_P5], ids=lambda e: e.name)
    def test_ci_verifier_reduces_no_pair_to_zero(self, monkeypatch, divisions, entry):
        system, x = entry.system, entry.point
        cert = reduce_to_ci(system, x)
        assert isinstance(cert, CICertificate)
        second = []

        def final_basis(gens, **kwargs):
            divisions.clear()
            basis = reduced_groebner(gens, **kwargs)
            second.append((basis, list(divisions)))
            return basis

        monkeypatch.setattr(decide, "reduced_groebner", final_basis)
        assert verify_certificate(cert, system, x)
        [(basis, calls)] = second
        pairs = self.s_pairs(calls, basis)
        assert pairs and all(d.remainder for d in pairs)
        # One division per final generator proves it a member of the input.
        assert len(calls) == 2 * len(cert.final_gens) + len(pairs) + len(basis.elements)

    @pytest.fixture
    def proofs(self, monkeypatch):
        """The (ideal, polynomial) of every `Ideal.__contains__` call from now on."""
        calls = []
        original = Ideal.__contains__

        def recording(ideal, f):
            calls.append((ideal, f))
            return original(ideal, f)

        monkeypatch.setattr(Ideal, "__contains__", recording)
        return calls

    def test_no_membership_proof_where_no_pair_is_settled(self, proofs, p3):
        # The planted quadrics' one pair makes W's cubic element, so W's basis
        # settles no pair; the linear forms' leading monomials are coprime.
        Ideal(PLANTED_QUADRICS.gens).truncated_ideal(3)
        linear = [parse_polynomial(t, p3) for t in ("T0 + T3", "T1 - 2*T3", "T2 + T3")]
        reduced_groebner(linear, within=Ideal(linear))
        assert proofs == []

    def test_the_membership_proof_divides_each_generator_once(self, proofs):
        ideal = Ideal(PLANTED_QUADRICS.gens)
        below = ideal.truncated_ideal(4)
        assert len(below.gens) == 3
        assert proofs == [(ideal, g) for g in below.gens]

    def test_the_membership_proof_stops_at_the_first_generator_outside(self, proofs):
        # The inputs of test_generators_outside_the_bounding_ideal_skip_nothing.
        ring = PolynomialRing(PrimeField(7), ("x", "y", "z"))
        w = Ideal([parse_polynomial("2*x + 4*z", ring)])
        gens = [
            parse_polynomial(text, ring)
            for text in ("6*x", "4*x*z + 6*y*z + 3*z^2", "4*y^2 + 5*z^2")
        ]
        reduced_groebner(gens, within=w)
        assert proofs == [(w, gens[0])]


class TestDegreeOrder:
    """Generators and pairs leave one queue lowest degree first, so elements
    enter the basis in non-decreasing degree; that is why it comes out
    minimal with no minimalization pass."""

    @settings(deadline=None, max_examples=150)
    @given(
        case=bounded_inputs(),
        through=st.none() | st.integers(0, 5),
        bounded=st.booleans(),
    )
    def test_divisions_by_the_growing_basis_rise_in_degree(self, case, through, bounded):
        gens, w = case
        with pytest.MonkeyPatch.context() as patch:
            calls = watch_divisions(patch)
            proofs = mark_divisions_inside(patch, calls, [(Ideal, "__contains__")])
            basis = reduced_groebner(
                gens, ring=w.ring, through=through, within=w if bounded else None
            )
        others = proofs | finishing_pass(calls, basis)
        # The entry and S-pair divisions: membership proofs for ``within``
        # divide by W's basis, and the finishing pass by the list of reduced
        # elements.  Each queued generator is divided on entry.
        building = [d for k, d in enumerate(calls) if k not in others]
        queued = [
            g for g in gens if not g.is_zero() and (through is None or g.degree <= through)
        ]
        assert len(building) >= len(queued)
        assert bool(building) == bool(queued)
        degrees = [d.degree for d in building if d.dividend]
        assert degrees == sorted(degrees)
        assert through is None or all(d <= through for d in degrees)


class TestDimension:
    def test_twisted_cubic_is_a_curve(self, twisted_cubic):
        assert projective_dimension(list(twisted_cubic)) == 1

    def test_quadric_surface(self, p3):
        assert projective_dimension([parse_polynomial("T0*T3 - T1*T2", p3)]) == 2

    def test_irrelevant_ideal(self, p3):
        assert projective_dimension([p3.variable(i) for i in range(4)]) == -1

    def test_improper(self, p3):
        with pytest.raises(ImproperIdealError):
            projective_dimension([p3.one() * 5])

    def test_invariant_under_redundancy(self, p3, twisted_cubic):
        gens = list(twisted_cubic)
        padded = gens + [p3.variable(3) * gens[0]]
        assert projective_dimension(padded) == projective_dimension(gens)

    def test_zero_ideal_not_accepted(self):
        with pytest.raises(ValueError):
            projective_dimension([])

    @settings(deadline=None)
    @given(data=st.data())
    def test_matches_the_subset_scan(self, data):
        # A monomial ideal's leading monomials are its minimal generators, and
        # the dimension reads only their supports.
        n = data.draw(st.integers(2, 10))
        ring = PolynomialRing(QQ, tuple(f"T{i}" for i in range(n)))
        exponents = st.lists(st.integers(0, 2), min_size=n, max_size=n)
        monomials = data.draw(
            st.lists(exponents.filter(any).map(tuple), min_size=1, max_size=8)
        )
        ideal = Ideal([ring.monomial(e, QQ.one) for e in monomials], ring=ring)
        assert ideal.dimension() == reference_dimension(monomials, n)

    def test_search_honours_the_time_limit(self, monkeypatch):
        ring = PolynomialRing(QQ, tuple(f"T{i}" for i in range(30)))
        ideal = Ideal([ring.variable(i) ** 2 for i in range(30)], ring=ring)
        calls = 0

        def monotonic():
            # The limit passes after ten nodes of the cover search.
            nonlocal calls
            calls += 1
            return 0.0 if calls <= 10 else math.inf

        with basis_time_limit(3600.0):
            monkeypatch.setattr(errors.time, "monotonic", monotonic)
            with pytest.raises(BuchbergerTimeout, match="dimension"):
                ideal.dimension()
        assert calls == 11


class TestSPolynomials:
    def test_all_reduce_to_zero(self, twisted_cubic):
        basis = reduced_groebner(list(twisted_cubic))
        elements = list(basis.elements)
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                gi, gj = elements[i], elements[j]
                lcm = monomial_lcm(gi.lead, gj.lead)
                ring = gi.ring
                si = ring.monomial(
                    monomial_div(lcm, gi.lead),
                    QQ.one / leading_coefficient(gi),
                )
                sj = ring.monomial(
                    monomial_div(lcm, gj.lead),
                    QQ.one / leading_coefficient(gj),
                )
                s = gi * si - gj * sj
                assert normal_form(s, elements).remainder.is_zero()

    @given(data=st.data())
    def test_packed_s_polynomial_is_the_polynomial_one(self, data):
        field = data.draw(st.sampled_from(FIELDS))
        ring = PolynomialRing(field, ("T0", "T1", "T2"))
        g = data.draw(forms(ring, data.draw(st.integers(1, 3))))
        assume(not g.is_zero())
        if data.draw(st.booleans()):
            # A multiple of g by a monomial: the S-polynomial cancels to zero.
            h = g * ring.variable(data.draw(st.integers(0, 2)))
        else:
            h = data.draw(forms(ring, data.draw(st.integers(1, 3))))
            assume(not h.is_zero())
        lcm = monomial_lcm(g.lead, h.lead)
        degree = sum(lcm)
        # Buchberger packs in the layout for the basis's highest degree,
        # which may lie above this pair's.
        layout = monomial_layout(3, degree + data.draw(st.integers(0, 9)))
        s = groebner._s_polynomial(layout, g, h, layout.pack(lcm))

        def lifted(p):
            return p * ring.monomial(
                monomial_div(lcm, p.lead), field.div(field.one, p.terms[p.lead])
            )

        expected = lifted(g) - lifted(h)
        terms = {layout.unpack(e): c for e, c in field.from_work(s).items()}
        assert terms == expected.terms
        assert all(c in field for c in terms.values())
        assert Polynomial(ring, terms).degree == expected.degree
        # The packed working map is the one a division of the polynomial
        # would start from.
        assert s == packed(expected, layout)
