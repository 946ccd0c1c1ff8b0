"""Division, Buchberger, membership, truncation, dimension."""

from __future__ import annotations

import math
import random
from functools import cached_property
from itertools import combinations, combinations_with_replacement, product

import pytest
from hypothesis import assume, given, settings, strategies as st

from ciforge import groebner
from ciforge import (
    BuchbergerTimeout,
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
    ideal_equal,
    ideal_member,
    normal_form,
    parse_polynomial,
    projective_dimension,
    reduced_groebner,
    truncated_generators,
)
from ciforge.poly import grevlex_key

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
            monkeypatch.setattr(groebner.time, "monotonic", lambda: math.inf)
            with pytest.raises(BuchbergerTimeout, match="division"):
                normal_form(f, [divisor])


FIELDS = (QQ, PrimeField(7), PrimeField(32003))
SMALL_MONOMIALS = [e for e in product(range(4), repeat=3) if sum(e) <= 3]


@st.composite
def polynomials(draw, ring, support=SMALL_MONOMIALS, min_terms=0):
    monomials = draw(
        st.lists(st.sampled_from(support), min_size=min_terms, max_size=6, unique=True)
    )
    terms = {}
    for e in monomials:
        numerator = draw(st.integers(1, 6)) * draw(st.sampled_from((1, -1)))
        denominator = ring.field.scalar(draw(st.integers(1, 3)))
        terms[e] = ring.field.div(ring.field.scalar(numerator), denominator)
    return Polynomial(ring, terms)


@st.composite
def divisions(draw):
    """(dividend, divisors, multiple) in three variables over Q, F_7 or
    F_32003.

    The divisor list may be empty and may hold two divisors with one leading
    monomial.  With ``multiple`` set the dividend is a multiple of a lone
    divisor, so it cancels completely.
    """
    ring = PolynomialRing(draw(st.sampled_from(FIELDS)), ("T0", "T1", "T2"))
    divisors = draw(st.lists(polynomials(ring, min_terms=1), max_size=3))
    if divisors and draw(st.booleans()):
        first = divisors[0]
        below = [e for e in SMALL_MONOMIALS if grevlex_key(e) > grevlex_key(first.lead)]
        shared = first * ring.field.scalar(draw(st.integers(2, 5)))
        shared = shared + draw(polynomials(ring, support=below or [first.lead]))
        if not shared.is_zero():
            divisors.insert(draw(st.integers(0, len(divisors))), shared)
    if divisors and draw(st.booleans()):
        divisors = divisors[:1]
        return draw(polynomials(ring)) * divisors[0], divisors, True
    return draw(polynomials(ring)), divisors, False


class TestDivisionKernel:
    """`normal_form` performs the textbook division step for step."""

    @given(divisions())
    def test_matches_the_reference_division(self, case):
        f, divisors, multiple = case
        record = normal_form(f, divisors)
        quotients, remainder = reference_division(
            dict(f.terms), [dict(g.terms) for g in divisors], f.ring.field
        )
        assert [q.terms for q in record.quotients] == quotients
        assert record.remainder.terms == remainder
        if multiple:
            assert record.remainder.is_zero()
            assert record.quotients[0] * divisors[0] == f

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
        remainders = []
        original = groebner.normal_form

        def observing(f, basis):
            record = original(f, basis)
            remainders.append(record.remainder)
            return record

        monkeypatch.setattr(groebner, "normal_form", observing)
        gens = entry.gens
        basis = reduced_groebner(list(gens))
        # Nonzero remainders are the S-polynomial reductions that enlarge the
        # basis and the tail-reduced final elements; each final element also
        # has a monic copy.
        entered = sum(not r.is_zero() for r in remainders) + len(basis.elements)
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
        dividends = []
        original = groebner.normal_form

        def observing(f, basis):
            dividends.append(f)
            return original(f, basis)

        monkeypatch.setattr(groebner, "normal_form", observing)
        basis = reduced_groebner(gens)
        k, m = len(independent), len(redundant)
        assert len(basis.elements) == k
        # One entry division per generator, in position order, then one
        # tail reduction per element: no S-pair is ever reduced.
        assert len(dividends) == k + m + k
        assert all(f is g for f, g in zip(dividends, gens))
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
            assert expand(record, basis.source_gens) == element

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
                assert expand(record, basis.source_gens) == element

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
            monkeypatch.setattr(groebner.time, "monotonic", monotonic)
            with pytest.raises(BuchbergerTimeout, match="dimension"):
                ideal.dimension()
        assert calls == 11


class TestSPolynomials:
    def test_all_reduce_to_zero(self, twisted_cubic):
        from ciforge.poly import monomial_div, monomial_lcm

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
