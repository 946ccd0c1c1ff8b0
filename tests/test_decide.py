"""The decision procedure: smoothness, rewrites, the loop, verification."""

from __future__ import annotations

import math
from dataclasses import replace
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from ciforge import decide, errors, groebner, linalg
from ciforge import (
    BuchbergerTimeout,
    CICertificate,
    GeneratorSystem,
    Ideal,
    NonCICertificate,
    NotHomogeneousError,
    NotInIdealError,
    NotSmoothError,
    PointNotOnVarietyError,
    Polynomial,
    PolynomialRing,
    PrimeField,
    ProjectivePoint,
    QQ,
    Removed,
    Replaced,
    RingMismatchError,
    CertificateMismatchError,
    basis_time_limit,
    check_condition_iv,
    degree_sequence,
    differential_at,
    evaluate,
    parse_polynomial,
    reduce_to_ci,
    smoothness_check,
    subst_step,
    trivially_contains,
    verify_certificate,
)
from ciforge.certificates import input_fingerprint
from ciforge.cli import run_command
from ciforge.groebner import ideal_equal

from corpus import (
    CUBIC_IN_HYPERPLANE,
    LINE_QUADRIC_REDUNDANT,
    PLANTED_QUADRICS,
    TWISTED_CUBIC,
)
from helpers import differentials, expand
from oracles import (
    minimal_generator_total,
    reference_condition_iv,
    reference_differential_at,
    reference_subst_step,
    row_reduce_rank,
)


def ideal_of(system):
    return Ideal(system.gens, ring=system.ring)


@pytest.fixture
def lqr_system(p3):
    return GeneratorSystem.from_polynomials(
        [
            parse_polynomial("T0 - T1", p3),
            parse_polynomial("T0*T3 - T1*T2", p3),
            parse_polynomial("T0*T2 + T0*T3 - 2*T1*T2", p3),
        ],
        p3,
    )


@pytest.fixture
def linear_combinations():
    """Three independent linear forms in T1..T4 plus five Q-combinations of
    them, at (1:0:0:0:0): a complete intersection decided by five Removed
    steps."""
    ring = PolynomialRing(QQ, ("T0", "T1", "T2", "T3", "T4"))
    f1, f2, f3 = (
        parse_polynomial(s, ring)
        for s in ("T1 + 2*T2 - T3 + T4", "T1 - T2 + 3*T3 + 2*T4", "2*T1 + T2 + T3 - T4")
    )
    combinations = (f1 + f2, f1 - f3 * 2, f2 * 3 + f3, f1 + f2 + f3, f1 * 3 - f2 + f3 * 2)
    point = ProjectivePoint((QQ.one,) + (QQ.zero,) * 4)
    return GeneratorSystem(ring, (f1, f2, f3) + combinations), point


@pytest.fixture
def nodal():
    ring = PolynomialRing(QQ, ("T0", "T1", "T2"))
    cubic = parse_polynomial("T1^2*T2 - T0^2*(T0 + T2)", ring)
    node = ProjectivePoint((QQ.scalar(0), QQ.scalar(0), QQ.scalar(1)))
    return GeneratorSystem.from_polynomials([cubic], ring), node


class TestGeneratorSystem:
    def test_rejects_zero(self, p3):
        with pytest.raises(ValueError):
            GeneratorSystem(p3, (p3.zero(),))

    def test_rejects_duplicates(self, p3):
        f = parse_polynomial("T0 - T1", p3)
        with pytest.raises(ValueError, match="duplicate generator"):
            GeneratorSystem(p3, (f, f))

    def test_rejects_inhomogeneous(self, p3):
        with pytest.raises(NotHomogeneousError):
            GeneratorSystem(p3, (parse_polynomial("T0 + T1^2", p3),))

    def test_from_polynomials_normalizes(self, p3):
        f = parse_polynomial("T0 - T1", p3)
        system = GeneratorSystem.from_polynomials([p3.zero(), f, f], p3)
        assert system.gens == (f,)

    def test_from_polynomials_scans_for_duplicates_once(self, monkeypatch, p3):
        scans = []
        original = decide.distinct_nonzero

        def counting(polys):
            scans.append(polys)
            return original(polys)

        monkeypatch.setattr(decide, "distinct_nonzero", counting)
        f = parse_polynomial("T0 - T1", p3)
        system = GeneratorSystem.from_polynomials([f, p3.zero(), p3.variable(2), f], p3)
        assert system.gens == (f, p3.variable(2))
        assert len(scans) == 1

    def test_from_polynomials_keeps_the_other_checks(self, p3):
        with pytest.raises(NotHomogeneousError):
            GeneratorSystem.from_polynomials([parse_polynomial("T0 + T1^2", p3)], p3)
        with pytest.raises(ValueError, match="nonempty"):
            GeneratorSystem.from_polynomials([p3.zero()], p3)
        other = PolynomialRing(QQ, ("x", "y"))
        with pytest.raises(ValueError, match="outside the declared ring"):
            GeneratorSystem.from_polynomials([other.variable(0)], p3)

    def test_degree_sequence(self, lqr_system):
        assert degree_sequence(lqr_system).counts == (1, 2)

    def test_without(self, lqr_system):
        g0, g1, g2 = lqr_system.gens
        assert lqr_system.without(1) == GeneratorSystem(lqr_system.ring, (g0, g2))
        with pytest.raises(ValueError):
            lqr_system.without(0).without(0).without(0)


class TestSmoothness:
    def test_twisted_cubic_smooth_point(self, twisted_cubic_system, ones):
        report = smoothness_check(ideal_of(twisted_cubic_system), ones)
        assert report.codim == 2
        assert report.dimension == 1
        assert report.jacobian_rank == 2
        assert report.smooth

    def test_node_is_singular(self, nodal):
        system, node = nodal
        report = smoothness_check(ideal_of(system), node)
        assert report.codim == 1
        assert not report.smooth
        assert report.jacobian_rank == 0


class TestTriviallyContains:
    def test_factored_quadric(self, p3):
        system = GeneratorSystem.from_polynomials(
            [
                parse_polynomial("T0 - T1", p3),
                parse_polynomial("T0*T3 - T1*T2", p3),
            ],
            p3,
        )
        f = parse_polynomial("(T0 - T2)*(T0 - T1)", p3)
        result = trivially_contains(ideal_of(system), f)
        assert result.trivial
        assert [str(m) for m in result.members] == ["T0 - T1"]
        assert [str(c) for c in result.cofactors] == ["T0 - T2"]
        # representation identity
        total = p3.zero()
        for m, c in zip(result.members, result.cofactors):
            total = total + c * m
        assert total == f

    def test_minimal_degree_member_never_trivial(self, twisted_cubic_system):
        f = twisted_cubic_system.gens[0]
        result = trivially_contains(ideal_of(twisted_cubic_system), f)
        assert not result.trivial
        assert result.truncated_basis == ()
        assert result.remainder == f

    def test_non_member_rejected(self, twisted_cubic_system, p3):
        with pytest.raises(NotInIdealError):
            trivially_contains(
                ideal_of(twisted_cubic_system), parse_polynomial("T0^2", p3)
            )

    def test_zero_rejected(self, twisted_cubic_system, p3):
        with pytest.raises(ValueError):
            trivially_contains(ideal_of(twisted_cubic_system), p3.zero())


class TestSubstStep:
    def test_twisted_cubic_replacement(self, twisted_cubic_system, ones):
        system = twisted_cubic_system
        outcome = subst_step(system, ones, differentials(system, ones))
        assert isinstance(outcome, Replaced)
        assert outcome.index == 2
        assert outcome.relation == (Fraction(-1), Fraction(-1), Fraction(1))
        f1, f2, f3 = twisted_cubic_system.gens
        assert outcome.new_poly == -f1 - f2 + f3
        assert differential_at(outcome.new_poly, ones) == (Fraction(0),) * 4

    def test_degree_raising_cofactor(self, lqr_system, ones):
        outcome = subst_step(lqr_system, ones, differentials(lqr_system, ones))
        assert isinstance(outcome, Replaced)
        assert outcome.index == 2
        assert outcome.relation == (Fraction(-1), Fraction(-1), Fraction(1))
        assert [str(c) for c in outcome.cofactors] == ["-T0", "-1", "1"]
        assert str(outcome.new_poly) == "-T0^2 + T0*T1 + T0*T2 - T1*T2"
        assert differential_at(outcome.new_poly, ones) == (Fraction(0),) * 4

    def test_proportional_generators_removed(self, p3, ones):
        f = parse_polynomial("T0*T3 - T1*T2", p3)
        system = GeneratorSystem(p3, (f, f * 2))
        outcome = subst_step(system, ones, differentials(system, ones))
        assert isinstance(outcome, Removed)
        assert outcome.index == 1
        # the representation says 2F = 2 * F
        assert [str(q) for q in outcome.representation.quotients] == ["2"]
        assert expand(outcome.representation, [f]) == f * 2

    def test_independent_when_no_relation(self, p3):
        system = GeneratorSystem.from_polynomials(
            [parse_polynomial("T0*T3 - T1*T2", p3)], p3
        )
        x = ProjectivePoint(
            (QQ.scalar(1), QQ.scalar(0), QQ.scalar(0), QQ.scalar(0))
        )
        assert subst_step(system, x, differentials(system, x)) is None

    def test_differentials_must_match_the_generators(self, lqr_system, ones):
        with pytest.raises(ValueError):
            subst_step(lqr_system, ones, [differential_at(lqr_system.gens[0], ones)])

    def test_replacement_preserves_ideal(self, lqr_system, ones):
        outcome = subst_step(lqr_system, ones, differentials(lqr_system, ones))
        gens = list(lqr_system.gens)
        gens[outcome.index] = outcome.new_poly
        assert ideal_equal(gens, list(lqr_system.gens))

    def test_carried_elimination_must_stop_before_a_dependent_column(self, p3, ones):
        f = parse_polynomial("T0*T3 - T1*T2", p3)
        system = GeneratorSystem(p3, (f, f * 2))
        columns = differentials(system, ones)
        elimination = linalg.ColumnElimination(QQ)
        assert isinstance(subst_step(system, ones, columns, elimination), Removed)
        with pytest.raises(ValueError):
            subst_step(system, ones, columns, elimination)


FIELDS = [QQ, PrimeField(7), PrimeField(32003)]


@st.composite
def vanishing_systems(draw):
    """A generator system over Q, F_7 or F_32003 in 2-4 variables that
    vanishes at the drawn point.  Besides fresh generators of degree 1-3 it
    draws scalar multiples, same-degree combinations and variable multiples
    of earlier ones, so relations among the differentials, top-degree blocks
    dependent as polynomials and lifts that cancel all occur.  Point
    coordinates (the pivot among them) and coefficients are small integers
    or fractions n/d, so over Q the lift's common denominator is exercised."""
    field = draw(st.sampled_from(FIELDS))
    n = draw(st.integers(2, 4))
    ring = PolynomialRing(field, tuple(f"T{i}" for i in range(n)))

    def small_or_fraction(bound):
        return st.one_of(
            st.integers(-bound, bound).map(field.scalar),
            st.builds(
                lambda a, b: field.div(field.scalar(a), field.scalar(b)),
                st.integers(-3, 3),
                st.integers(2, 4),
            ),
        )

    coords = draw(st.lists(small_or_fraction(2), min_size=n, max_size=n).filter(any))
    x = ProjectivePoint(tuple(coords))
    k = x.pivot
    small = small_or_fraction(3)
    gens: list[Polynomial] = []
    for _ in range(draw(st.integers(1, n + 3))):
        kind = draw(st.sampled_from(["fresh", "multiple", "combination", "shift"]))
        if kind == "fresh" or not gens:
            d = draw(st.integers(1, 3))
            g = ring.zero()
            for _ in range(draw(st.integers(1, 4))):
                factors = draw(st.lists(st.integers(0, n - 1), min_size=d, max_size=d))
                exps = [factors.count(i) for i in range(n)]
                g = g + ring.monomial(exps, draw(small))
            value = evaluate(g, x)
            if value:
                g = g - ring.monomial(
                    tuple(d if j == k else 0 for j in range(n)),
                    field.div(value, field.pow(x.coords[k], d)),
                )
        elif kind == "multiple":
            g = draw(st.sampled_from(gens)) * draw(small)
        elif kind == "combination":
            d = draw(st.sampled_from(gens)).degree
            g = ring.zero()
            for h in gens:
                if h.degree == d:
                    g = g + h * draw(small)
        else:
            g = draw(st.sampled_from(gens)) * ring.variable(draw(st.integers(0, n - 1)))
        if not g.is_zero():
            gens.append(g)
    assume(gens)
    return GeneratorSystem.from_polynomials(gens, ring), x


class TestSmoothnessAgainstTheOracle:
    @settings(deadline=None)
    @given(vanishing_systems())
    def test_rank_matches_the_oracle(self, case):
        system, x = case
        assume(all(g.degree <= 3 for g in system.gens))
        report = smoothness_check(ideal_of(system), x)
        rows = [reference_differential_at(g, x) for g in system.gens]
        assert report.jacobian_rank == row_reduce_rank(rows, system.ring.field)


class TestAgainstReferenceStep:
    """The step reads Removed off the Jacobian relation alone; the step as
    first written also searched the top block for a relation as polynomials.
    Both must give the same outcome."""

    @given(vanishing_systems())
    def test_equals_the_reference(self, case):
        system, x = case
        outcome = subst_step(system, x, differentials(system, x))
        assert outcome == reference_subst_step(system, x)

    def test_zero_lift_across_two_degrees(self):
        ring = PolynomialRing(QQ, ("T0", "T1", "T2"))
        x = ProjectivePoint((QQ.one, QQ.zero, QQ.zero))
        t1 = parse_polynomial("T1", ring)
        system = GeneratorSystem(ring, (t1, parse_polynomial("T0*T1", ring)))
        outcome = subst_step(system, x, differentials(system, x))
        assert outcome == reference_subst_step(system, x)
        assert isinstance(outcome, Removed)
        assert outcome.index == 1
        assert [str(q) for q in outcome.representation.quotients] == ["T0"]

    def test_dependent_top_block_removed(self, p3, ones):
        f, g = (parse_polynomial(s, p3) for s in ("T0*T3 - T1*T2", "T0*T2 - T1^2"))
        system = GeneratorSystem(p3, (f, g, f * 2 - g * 3))
        outcome = subst_step(system, ones, differentials(system, ones))
        assert outcome == reference_subst_step(system, ones)
        assert isinstance(outcome, Removed)
        assert outcome.index == 2
        assert [str(q) for q in outcome.representation.quotients] == ["2", "-3"]

    def test_independent_top_block_replaced(self, twisted_cubic_system, ones):
        system = twisted_cubic_system
        outcome = subst_step(system, ones, differentials(system, ones))
        assert outcome == reference_subst_step(system, ones)
        assert isinstance(outcome, Replaced)


class TestAgreesWithTheOracle:
    """On small ideals with a planted smooth point, the decision is CI exactly
    when a minimal generating set has codimension size, and its certificate
    verifies."""

    @settings(max_examples=200, deadline=None)
    @given(vanishing_systems())
    def test_decision_matches_minimal_generator_count(self, case):
        system, x = case
        assume(all(g.degree <= 3 for g in system.gens))
        report = smoothness_check(ideal_of(system), x)
        assume(report.smooth)
        cert = reduce_to_ci(system, x)
        total = minimal_generator_total(system.gens, system.ring.num_vars)
        assert isinstance(cert, CICertificate) == (total == report.codim)
        assert verify_certificate(cert, system, x)


class TestReduceToCI:
    def test_twisted_cubic_refuted(self, twisted_cubic_system, ones):
        cert = reduce_to_ci(twisted_cubic_system, ones)
        assert isinstance(cert, NonCICertificate)
        assert cert.codim == 2
        assert str(cert.witness) == (
            "T1^2 - T0*T2 - T1*T2 + T2^2 + T0*T3 - T1*T3"
        )
        # witness is singular at the point but not trivially contained
        assert differential_at(cert.witness, ones) == (Fraction(0),) * 4
        assert not trivially_contains(ideal_of(twisted_cubic_system), cert.witness).trivial

    def test_redundant_presentation_collapses(self, lqr_system, ones):
        cert = reduce_to_ci(lqr_system, ones)
        assert isinstance(cert, CICertificate)
        assert cert.codim == 2
        assert [str(g) for g in cert.final_gens] == ["T0 - T1", "-T1*T2 + T0*T3"]
        assert ideal_equal(list(cert.final_gens), list(lqr_system.gens))

    def test_hypersurface_immediate(self, p3):
        f = parse_polynomial("T0*T3 - T1*T2", p3)
        x = ProjectivePoint(
            (QQ.scalar(1), QQ.scalar(0), QQ.scalar(0), QQ.scalar(0))
        )
        steps = []
        cert = reduce_to_ci(
            GeneratorSystem.from_polynomials([f], p3),
            x,
            on_iteration=lambda *step: steps.append(step),
        )
        assert isinstance(cert, CICertificate)
        assert steps == []
        assert cert.final_gens == (f,)

    def test_point_off_variety(self, twisted_cubic_system):
        x = ProjectivePoint(
            (QQ.scalar(1), QQ.scalar(1), QQ.scalar(0), QQ.scalar(0))
        )
        with pytest.raises(PointNotOnVarietyError):
            reduce_to_ci(twisted_cubic_system, x)

    def test_singular_point_refused(self, nodal):
        system, node = nodal
        with pytest.raises(NotSmoothError):
            reduce_to_ci(system, node)

    @pytest.mark.parametrize("tag", ["q", "fp 32003"])
    def test_singular_point_refused_after_the_removed_steps(self, tag, tmp_path, capsys):
        # T0 and 2*T0 share a differential and T1^2 has none: rank 1, while
        # (T0, T1^2) has codimension 2.  The loop drops 2*T0 on the Jacobian
        # relation alone; the Replaced step after it builds the basis.
        field = QQ if tag == "q" else PrimeField(32003)
        ring = PolynomialRing(field, ("T0", "T1", "T2"))
        system = GeneratorSystem.from_polynomials(
            [parse_polynomial(s, ring) for s in ("T0", "2*T0", "T1^2")], ring
        )
        x = ProjectivePoint((field.zero, field.zero, field.one))
        message = "point (0:0:1) is not a smooth point: Jacobian rank 1, codimension 2"
        outcomes = []
        with pytest.raises(NotSmoothError) as raised:
            reduce_to_ci(
                system, x, on_iteration=lambda before, outcome, after: outcomes.append(outcome)
            )
        assert str(raised.value) == message
        assert len(outcomes) == 1 and isinstance(outcomes[0], Removed)

        path = tmp_path / "singular.ideal"
        path.write_text(f"field: {tag}\nvars: T0 T1 T2\npoint: 0 0 1\ngens:\nT0\n2*T0\nT1^2\n")
        assert run_command(["decide", str(path)]) == 2
        captured = capsys.readouterr()
        warning = (
            "warning: over F_32003 the smooth-point precondition means exactly "
            "'Jacobian rank equals codimension'\n"
        )
        assert captured.out == ""
        assert captured.err == (warning if field.characteristic else "") + f"error: {message}\n"

    def test_point_from_another_field_refused(self):
        c = LINE_QUADRIC_REDUNDANT.over(PrimeField(7))
        rational = ProjectivePoint(tuple(QQ.scalar(v) for v in c.point_coords))
        with pytest.raises(RingMismatchError, match="outside fp:7"):
            reduce_to_ci(c.system, rational)
        with pytest.raises(RingMismatchError, match="outside fp:7"):
            half = Fraction(1, 2)
            reduce_to_ci(c.system, ProjectivePoint((half, half, Fraction(0), Fraction(0))))

    def test_observer_sees_each_rewrite(self, lqr_system, ones):
        seen = []
        reduce_to_ci(
            lqr_system,
            ones,
            on_iteration=lambda before, outcome, after: seen.append(
                (len(before), type(outcome).__name__, len(after))
            ),
        )
        assert seen == [(3, "Replaced", 2)]

    def test_rewrite_loop_honours_the_time_limit(self, monkeypatch, linear_combinations):
        # A Removed-only loop computes no basis, so only the loop itself can
        # notice that the limit has passed.
        system, x = linear_combinations
        steps = []

        def observe(before, outcome, after):
            steps.append(outcome)
            monkeypatch.setattr(errors.time, "monotonic", lambda: math.inf)

        with basis_time_limit(3600.0):
            with pytest.raises(BuchbergerTimeout, match="rewrite loop"):
                reduce_to_ci(system, x, on_iteration=observe)
        assert len(steps) == 1


class TestConditionIV:
    def test_singular_witness_empty_family(self, twisted_cubic_system, ones):
        cert = reduce_to_ci(twisted_cubic_system, ones)
        assert check_condition_iv(cert.witness, [], ones, ideal_of(twisted_cubic_system))

    def test_smooth_member_empty_family(self, twisted_cubic_system, ones):
        f = twisted_cubic_system.gens[0]
        assert not check_condition_iv(f, [], ones, ideal_of(twisted_cubic_system))

    def test_differential_outside_span(self, p3, ones):
        l = parse_polynomial("T0 - T1", p3)
        q = parse_polynomial("T0*T3 - T1*T2", p3)
        ideal = Ideal([l, q], ring=p3)
        f = q + p3.variable(1) * l
        assert not check_condition_iv(f, [l], ones, ideal)

    def test_empty_family_matches_singularity_test(self, p3, ones):
        l = parse_polynomial("T0 - T1", p3)
        q = parse_polynomial("T0*T3 - T1*T2", p3)
        ideal = Ideal([l, q], ring=p3)
        for f in (q, q + p3.variable(1) * l, l * l):
            expected = not any(differential_at(f, ones))
            assert check_condition_iv(f, [], ones, ideal) == expected

    def test_point_off_the_variety_refused(self, twisted_cubic_system, p3):
        x = ProjectivePoint(tuple(QQ.scalar(c) for c in (1, 2, 5, 7)))
        witness = parse_polynomial("T1^2 - T0*T2 - T1*T2 + T2^2 + T0*T3 - T1*T3", p3)
        with pytest.raises(PointNotOnVarietyError, match="generator 0 does not vanish"):
            check_condition_iv(witness, [], x, ideal_of(twisted_cubic_system))

    def test_degree_constraint(self, p3, ones):
        l = parse_polynomial("T0 - T1", p3)
        q = parse_polynomial("T0*T3 - T1*T2", p3)
        ideal = Ideal([l, q], ring=p3)
        with pytest.raises(ValueError):
            check_condition_iv(l, [q], ones, ideal)

    def test_family_membership_enforced(self, p3, ones):
        l = parse_polynomial("T0 - T1", p3)
        q = parse_polynomial("T0*T3 - T1*T2", p3)
        ideal = Ideal([l, q], ring=p3)
        with pytest.raises(NotInIdealError):
            check_condition_iv(q, [parse_polynomial("T2", p3)], ones, ideal)


@st.composite
def condition_iv_cases(draw):
    """(f, family, x, ideal): a vanishing system's ideal, a combination f of
    its generators one degree above the highest, and up to three members of
    lower degree (leading generators, scalar and variable multiples of
    them).  Each cofactor of f may be made to vanish at x, so d_x(f) = 0
    occurs too."""
    system, x = draw(vanishing_systems())
    ring, field = system.ring, system.ring.field
    n = ring.num_vars
    top = max(g.degree for g in system.gens) + 1
    small = st.integers(-3, 3).map(field.scalar)
    f = ring.zero()
    for g in system.gens:
        d = g.degree
        cofactor = ring.zero()
        for _ in range(draw(st.integers(1, 2))):
            factors = draw(
                st.lists(st.integers(0, n - 1), min_size=top - d, max_size=top - d)
            )
            exps = [factors.count(i) for i in range(n)]
            cofactor = cofactor + ring.monomial(exps, draw(small))
        value = evaluate(cofactor, x)
        if value and draw(st.integers(0, 3)) == 0:
            k = x.pivot
            cofactor = cofactor - ring.monomial(
                tuple(top - d if j == k else 0 for j in range(n)),
                field.div(value, field.pow(x.coords[k], top - d)),
            )
        f = f + cofactor * g
    assume(not f.is_zero())
    # Members drawn from the first generators only, so that d_x(f) may lie
    # outside their span.
    split = draw(st.integers(1, len(system)))
    low = [(g, g.degree) for g in system.gens[:split]]
    members = [g for g, _ in low] + [
        g * ring.variable(i) for g, d in low if d + 1 < top for i in range(n)
    ]
    family = []
    for member in draw(st.lists(st.sampled_from(members), max_size=3)):
        scale = draw(small)
        if scale:
            family.append(member * scale)
    return f, family, x, Ideal(system.gens, ring=ring)


class TestConditionIVAgainstReference:
    """One elimination of the family's differentials answers condition (iv) as
    the two ranks first compared did."""

    @settings(deadline=None)
    @given(condition_iv_cases())
    def test_equals_the_rank_comparison(self, case):
        f, family, x, ideal = case
        expected = reference_condition_iv(f, family, x)
        assert check_condition_iv(f, family, x, ideal) == expected


class TestVerify:
    def test_accepts_honest_certificates(self, twisted_cubic_system, lqr_system, ones):
        for system in (twisted_cubic_system, lqr_system):
            cert = reduce_to_ci(system, ones)
            assert verify_certificate(cert, system, ones)

    def test_rejects_truncated_generator_list(self, lqr_system, ones):
        cert = reduce_to_ci(lqr_system, ones)
        assert isinstance(cert, CICertificate)
        tampered = CICertificate(
            input_hash=cert.input_hash,
            field_tag=cert.field_tag,
            var_names=cert.var_names,
            codim=cert.codim,
            final_gens=cert.final_gens[:1],
        )
        assert not verify_certificate(tampered, lqr_system, ones)

    def test_rejects_smooth_witness(self, twisted_cubic_system, ones):
        cert = reduce_to_ci(twisted_cubic_system, ones)
        tampered = NonCICertificate(
            input_hash=cert.input_hash,
            field_tag=cert.field_tag,
            var_names=cert.var_names,
            codim=cert.codim,
            witness=twisted_cubic_system.gens[0],  # smooth at the point
            point=cert.point,
            truncated_basis=cert.truncated_basis,
            remainder=cert.remainder,
        )
        assert not verify_certificate(tampered, twisted_cubic_system, ones)

    def test_hash_mismatch_is_an_error(self, twisted_cubic_system, lqr_system, ones):
        cert = reduce_to_ci(lqr_system, ones)
        with pytest.raises(CertificateMismatchError):
            verify_certificate(cert, twisted_cubic_system, ones)

    def test_rejects_non_ci_claim_at_singular_point(self, p3):
        # (T0^2) is principal, hence a CI; (0:1:0:0) is a singular point of it,
        # so the non-CI argument does not apply there.
        square = parse_polynomial("T0^2", p3)
        system = GeneratorSystem(p3, (square,))
        x = ProjectivePoint(tuple(QQ.scalar(c) for c in (0, 1, 0, 0)))
        forged = NonCICertificate(
            input_hash=input_fingerprint(p3, system.gens, x),
            field_tag=p3.field.tag,
            var_names=p3.var_names,
            codim=1,
            witness=square,
            point=x,
            truncated_basis=(),
            remainder=square,
        )
        assert not verify_certificate(forged, system, x)

    def test_rejects_other_point_or_record(self, twisted_cubic_system, ones):
        cert = reduce_to_ci(twisted_cubic_system, ones)
        assert isinstance(cert, NonCICertificate)
        twos = ProjectivePoint(tuple(QQ.scalar(2) for _ in range(4)))
        w = cert.witness
        for tampered in (
            replace(cert, point=twos),
            replace(cert, truncated_basis=(w,)),
            replace(cert, remainder=w + w),
        ):
            assert not verify_certificate(tampered, twisted_cubic_system, ones)


def _count_bases(monkeypatch) -> list[tuple[Polynomial, ...]]:
    """Record the generator list of every Groebner basis computed from now on."""
    calls: list[tuple[Polynomial, ...]] = []
    compute = groebner.reduced_groebner

    def counting(gens, *args, **kwargs):
        calls.append(tuple(gens))
        return compute(gens, *args, **kwargs)

    for module in (groebner, decide):
        monkeypatch.setattr(module, "reduced_groebner", counting)
    return calls


class TestBasisWork:
    """The ideal's basis is computed once per decide and per verify; decide
    builds it from the system at its first Replaced step, or from the final
    system when every step is Removed."""

    @pytest.mark.parametrize(
        "entry", [LINE_QUADRIC_REDUNDANT, PLANTED_QUADRICS], ids=lambda e: e.name
    )
    def test_decide_one_basis_plus_one_per_truncation_degree(self, monkeypatch, entry):
        system, x = entry.system, entry.point
        degrees = set()

        def observe(before, outcome, after):
            if isinstance(outcome, Replaced):
                degrees.add(outcome.new_poly.degree)

        calls = _count_bases(monkeypatch)
        reduce_to_ci(system, x, on_iteration=observe)
        assert degrees, "the instance must exercise Replaced steps"
        assert calls[0] == system.gens
        assert len(calls) <= 1 + len(degrees)

    def test_decide_removed_steps_alone_build_the_final_systems_basis(
        self, monkeypatch, linear_combinations
    ):
        system, x = linear_combinations
        outcomes = []
        calls = _count_bases(monkeypatch)
        cert = reduce_to_ci(
            system, x, on_iteration=lambda before, outcome, after: outcomes.append(outcome)
        )
        assert isinstance(cert, CICertificate)
        assert len(outcomes) == 5
        assert all(isinstance(o, Removed) for o in outcomes)
        assert calls == [cert.final_gens]

    def test_decide_builds_the_basis_at_the_first_replaced_step(self, monkeypatch):
        # A same-degree combination of the two quadrics, right after them, is
        # the first dependent column and drops out before any Replaced step.
        gens = PLANTED_QUADRICS.gens
        ring = PLANTED_QUADRICS.ring
        system = GeneratorSystem(ring, gens[:2] + (gens[0] + gens[1] * 2,) + gens[2:])
        x = PLANTED_QUADRICS.point
        outcomes, degrees, first_replaced = [], set(), []

        def observe(before, outcome, after):
            outcomes.append(outcome)
            if isinstance(outcome, Replaced):
                degrees.add(outcome.new_poly.degree)
                if not first_replaced:
                    first_replaced.append(before.gens)

        calls = _count_bases(monkeypatch)
        assert isinstance(reduce_to_ci(system, x, on_iteration=observe), CICertificate)
        assert isinstance(outcomes[0], Removed) and outcomes[0].index == 2
        assert first_replaced, "the instance must exercise Replaced steps"
        assert calls[0] == first_replaced[0] == PLANTED_QUADRICS.system.gens
        assert len(calls) <= 1 + len(degrees)

    def test_decide_divides_no_trivial_replacement_by_the_input_basis(self, monkeypatch):
        # A member of a truncated ideal is a member of the input ideal, so a
        # trivially contained replacement needs no `in` query on the latter.
        system, x = PLANTED_QUADRICS.system, PLANTED_QUADRICS.point
        asked = []
        contains = groebner.Ideal.__contains__

        def counting(ideal, f):
            if ideal.through is None:
                asked.append(f)
            return contains(ideal, f)

        monkeypatch.setattr(groebner.Ideal, "__contains__", counting)
        replacements = []

        def observe(before, outcome, after):
            if isinstance(outcome, Replaced):
                replacements.append(outcome.new_poly)

        assert isinstance(reduce_to_ci(system, x, on_iteration=observe), CICertificate)
        assert replacements, "the instance must exercise Replaced steps"
        assert [f for f in asked if any(f is r for r in replacements)] == []

    def test_verify_ci_two_bases(self, monkeypatch):
        system, x = PLANTED_QUADRICS.system, PLANTED_QUADRICS.point
        cert = reduce_to_ci(system, x)
        calls = _count_bases(monkeypatch)
        assert verify_certificate(cert, system, x)
        assert calls == [system.gens, cert.final_gens]

    @pytest.mark.parametrize("change", ["dropped", "constant"])
    def test_verify_unfit_final_generators_compute_no_basis(self, monkeypatch, change):
        system, x = PLANTED_QUADRICS.system, PLANTED_QUADRICS.point
        cert = reduce_to_ci(system, x)
        assert isinstance(cert, CICertificate)
        final = cert.final_gens
        unfit = final[1:] if change == "dropped" else (system.ring.one(),) + final[1:]
        calls = _count_bases(monkeypatch)
        assert not verify_certificate(replace(cert, final_gens=unfit), system, x)
        assert calls == []

    @pytest.mark.parametrize(
        "entry", [TWISTED_CUBIC, CUBIC_IN_HYPERPLANE], ids=lambda e: e.name
    )
    def test_verify_non_ci_one_basis_plus_truncated(self, monkeypatch, entry):
        system, x = entry.system, entry.point
        cert = reduce_to_ci(system, x)
        assert isinstance(cert, NonCICertificate)
        calls = _count_bases(monkeypatch)
        assert verify_certificate(cert, system, x)
        expected = [system.gens]
        if cert.truncated_basis:
            expected.append(cert.truncated_basis)
        assert calls == expected


class TestCofactorWork:
    """Cofactors are composed only where something reads them: the
    containment test of a Replaced step, on a truncated ideal."""

    @pytest.fixture
    def composed(self, monkeypatch):
        calls = []
        original = groebner.Ideal.cofactors

        def counting(basis, quotients):
            calls.append(basis)
            return original(basis, quotients)

        monkeypatch.setattr(groebner.Ideal, "cofactors", counting)
        return calls

    def test_removed_steps_compose_none(self, composed, linear_combinations):
        system, x = linear_combinations
        assert isinstance(reduce_to_ci(system, x), CICertificate)
        assert composed == []

    def test_replaced_steps_compose_at_most_once_each(self, composed):
        system, x = PLANTED_QUADRICS.system, PLANTED_QUADRICS.point
        replaced = 0

        def observe(before, outcome, after):
            nonlocal replaced
            replaced += isinstance(outcome, Replaced)

        reduce_to_ci(system, x, on_iteration=observe)
        assert replaced, "the instance must exercise Replaced steps"
        assert 0 < len(composed) <= replaced

    def test_ci_verify_composes_none(self, composed):
        system, x = PLANTED_QUADRICS.system, PLANTED_QUADRICS.point
        cert = reduce_to_ci(system, x)
        composed.clear()
        assert verify_certificate(cert, system, x)
        assert composed == []


class TestStepWork:
    """A rewrite step costs only what changed: each input generator is
    evaluated and differentiated at the point a bounded number of times per
    decide, however many steps run."""

    @pytest.fixture
    def counts(self, monkeypatch):
        counts = {"evaluate": 0, "differential_at": 0}
        for name in counts:

            def counting(*args, _name=name, _original=getattr(decide, name)):
                counts[_name] += 1
                return _original(*args)

            monkeypatch.setattr(decide, name, counting)
        return counts

    def test_removed_steps(self, counts, linear_combinations):
        system, x = linear_combinations
        outcomes = []
        cert = reduce_to_ci(
            system, x, on_iteration=lambda before, outcome, after: outcomes.append(outcome)
        )
        assert isinstance(cert, CICertificate)
        assert len(outcomes) >= 5
        assert all(isinstance(o, Removed) for o in outcomes)
        assert counts["evaluate"] <= len(system)
        assert counts["differential_at"] <= len(system)

    def test_removed_steps_resume_the_elimination(self, monkeypatch, linear_combinations):
        # Each independent column stays in the kept prefix and each dependent
        # one is the generator removed, so each column is eliminated once.
        system, x = linear_combinations
        columns = 0
        in_step = False
        check, step = linalg.check_deadline, decide.subst_step

        def counting_check(phase):
            nonlocal columns
            columns += in_step and phase == "row reduction"
            check(phase)

        def counting_step(*args):
            nonlocal in_step
            in_step = True
            try:
                return step(*args)
            finally:
                in_step = False

        monkeypatch.setattr(linalg, "check_deadline", counting_check)
        monkeypatch.setattr(decide, "subst_step", counting_step)
        outcomes = []
        reduce_to_ci(
            system, x, on_iteration=lambda before, outcome, after: outcomes.append(outcome)
        )
        assert len(outcomes) >= 5
        assert all(isinstance(o, Removed) for o in outcomes)
        assert 0 < columns <= len(system)

    def test_verify_checks_the_point_once(self, counts, linear_combinations):
        system, x = linear_combinations
        cert = reduce_to_ci(system, x)
        counts["evaluate"] = 0
        assert verify_certificate(cert, system, x)
        assert counts["evaluate"] <= len(system)

    def test_ci_verify_differentiates_nothing(self, counts):
        # Only a non-CI claim rests on smoothness at the point.
        system, x = PLANTED_QUADRICS.system, PLANTED_QUADRICS.point
        cert = reduce_to_ci(system, x)
        counts["differential_at"] = 0
        assert verify_certificate(cert, system, x)
        assert counts["differential_at"] == 0

    def test_removed_steps_do_not_revalidate(self, monkeypatch, linear_combinations):
        system, x = linear_combinations
        validated = []
        original = GeneratorSystem.__post_init__

        def counting(self):
            validated.append(self)
            original(self)

        monkeypatch.setattr(GeneratorSystem, "__post_init__", counting)
        outcomes = []
        reduce_to_ci(
            system, x, on_iteration=lambda before, outcome, after: outcomes.append(outcome)
        )
        assert len(outcomes) >= 5
        assert all(isinstance(o, Removed) for o in outcomes)
        assert validated == []

    def test_replaced_steps(self, counts):
        system, x = PLANTED_QUADRICS.system, PLANTED_QUADRICS.point
        spliced = replaced = 0

        def observe(before, outcome, after):
            nonlocal spliced, replaced
            if isinstance(outcome, Replaced):
                replaced += 1
                spliced += sum(
                    all(g is not h for h in before.gens) for g in after.gens
                )

        reduce_to_ci(system, x, on_iteration=observe)
        assert replaced, "the instance must exercise Replaced steps"
        assert counts["evaluate"] <= len(system)
        assert counts["differential_at"] <= len(system) + spliced + replaced
