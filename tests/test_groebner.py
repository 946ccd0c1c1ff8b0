"""Division, Buchberger, membership, truncation, dimension."""

from __future__ import annotations

import random

import pytest

from ciforge import (
    BuchbergerTimeout,
    GREVLEX,
    Ideal,
    ImproperIdealError,
    LEX,
    NotHomogeneousError,
    PolynomialRing,
    QQ,
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
from ciforge.groebner import leading_coefficient, leading_monomial


def strs(polys):
    return [str(p) for p in polys]


class TestOrders:
    def test_grevlex_degree_first(self, p3):
        f = parse_polynomial("T3^3 + T0*T1", p3)
        assert leading_monomial(f, GREVLEX) == (0, 0, 0, 3)

    def test_grevlex_quadric_chain(self, p3):
        # classical grevlex layout of the degree-2 monomials in four variables
        monos = [
            "T0^2", "T0*T1", "T1^2", "T0*T2", "T1*T2", "T2^2",
            "T0*T3", "T1*T3", "T2*T3", "T3^2",
        ]
        keys = [
            GREVLEX.key(leading_monomial(parse_polynomial(m, p3))) for m in monos
        ]
        assert keys == sorted(keys, reverse=True)

    def test_lex_ignores_degree(self, p3):
        f = parse_polynomial("T0 + T3^3", p3)
        assert leading_monomial(f, LEX) == (1, 0, 0, 0)

    def test_unknown_kind_rejected(self):
        from ciforge import MonomialOrder

        with pytest.raises(ValueError):
            MonomialOrder("weight")


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
        assert record.expand(list(twisted_cubic)) == f

    def test_remainder_irreducible(self, p3, twisted_cubic):
        f = parse_polynomial("T0*T1*T2*T3", p3)
        record = normal_form(f, list(twisted_cubic))
        lms = [leading_monomial(g) for g in twisted_cubic]
        for exps in record.remainder.terms:
            assert not any(all(a <= b for a, b in zip(lm, exps)) for lm in lms)

    def test_homogeneous_quotient_degrees(self, p3, twisted_cubic):
        f = parse_polynomial("T0^2*T2 - T0*T1^2", p3)
        record = normal_form(f, list(twisted_cubic))
        from ciforge import homogeneous_degree

        for q in record.quotients:
            if not q.is_zero():
                assert homogeneous_degree(q) == 1

    def test_zero_divisor_rejected(self, p3):
        with pytest.raises(ValueError):
            normal_form(p3.one(), [p3.zero()])

    def test_ring_mismatch(self, p3):
        other = PolynomialRing(QQ, ("x", "y"))
        with pytest.raises(RingMismatchError):
            normal_form(p3.variable(0), [other.variable(0)])


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

    def test_representations_reproduce_elements(self, p3, twisted_cubic):
        basis = reduced_groebner(list(twisted_cubic))
        for element, rep in zip(basis.elements, basis.representations):
            total = p3.zero()
            for cof, g in zip(rep, basis.source_gens):
                total = total + cof * g
            assert total == element

    def test_non_homogeneous_rejected(self, p3):
        with pytest.raises(NotHomogeneousError):
            reduced_groebner([parse_polynomial("T0 + T1^2", p3)])

    def test_empty_input_needs_ring(self, p3):
        with pytest.raises(ValueError):
            reduced_groebner([])
        assert reduced_groebner([], ring=p3).elements == ()

    def test_lex_basis(self, p3):
        gens = [
            parse_polynomial("T0 - T1", p3),
            parse_polynomial("T0*T3 - T1*T2", p3),
        ]
        basis = reduced_groebner(gens, LEX)
        assert strs(basis.elements) == ["T1*T2 - T1*T3", "T0 - T1"]

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
        assert record.expand(list(twisted_cubic)) == f

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

    def test_truncation_needs_a_graded_order(self, twisted_cubic):
        with pytest.raises(ValueError):
            Ideal(list(twisted_cubic), LEX).truncated(3)


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


class TestSPolynomials:
    def test_all_reduce_to_zero(self, twisted_cubic):
        from ciforge.poly import monomial_div, monomial_lcm

        basis = reduced_groebner(list(twisted_cubic))
        elements = list(basis.elements)
        for i in range(len(elements)):
            for j in range(i + 1, len(elements)):
                gi, gj = elements[i], elements[j]
                lcm = monomial_lcm(leading_monomial(gi), leading_monomial(gj))
                ring = gi.ring
                si = ring.monomial(
                    monomial_div(lcm, leading_monomial(gi)),
                    QQ.one / leading_coefficient(gi),
                )
                sj = ring.monomial(
                    monomial_div(lcm, leading_monomial(gj)),
                    QQ.one / leading_coefficient(gj),
                )
                s = gi * si - gj * sj
                assert normal_form(s, elements).remainder.is_zero()
