"""Acceptance gate: every criterion prints one pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute; without ``-s`` they appear in the captured-output section
of any failure.
"""

from __future__ import annotations

import random
import time
from contextlib import contextmanager
from fractions import Fraction

from ciforge import (
    CICertificate,
    GeneratorSystem,
    Polynomial,
    PolynomialRing,
    PrimeField,
    ProjectivePoint,
    QQ,
    Removed,
    Replaced,
    differential_at,
    degree_sequence,
    evaluate,
    normal_form,
    parse_certificate,
    reduce_to_ci,
    reduced_groebner,
    seq_succ,
    serialize_certificate,
    subst_step,
    verify_certificate,
)
from ciforge.groebner import ideal_equal
from ciforge.poly import monomial_div, monomial_divides, monomial_lcm

from corpus import CORPUS
from helpers import differentials, expand, leading_coefficient
from oracles import degree_monomials, ideal_slice_dim, minimal_generator_total


@contextmanager
def reported(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"criterion {number} ({name}): FAIL")
        raise
    print(f"criterion {number} ({name}): PASS")


def test_criterion_1_corpus_decisions():
    """The corpus as written over Q, and re-parsed over F_7 and F_32003."""
    with reported(1, "corpus decisions vs Macaulay oracle"):
        for field in (QQ, PrimeField(7), PrimeField(32003)):
            for c in (entry.over(field) for entry in CORPUS):
                name = f"{c.name} over {field}"
                cert = reduce_to_ci(c.system, c.point)
                got_ci = isinstance(cert, CICertificate)
                mu = minimal_generator_total(c.gens, c.ring.num_vars)
                oracle_ci = mu == c.codim
                assert got_ci == oracle_ci, f"{name}: decision disagrees with oracle"
                assert got_ci == c.expect_ci, f"{name}: unexpected decision"
                assert cert.codim == c.codim, f"{name}: codimension drifted"
                assert verify_certificate(cert, c.system, c.point), name
                if c.expect_final_count is not None:
                    assert len(cert.final_gens) == c.expect_final_count, name


def test_criterion_2_loop_variant():
    with reported(2, "strictly decreasing degree-sequence traces"):
        for c in CORPUS:
            sequences = [degree_sequence(c.system)]
            started = time.monotonic()
            reduce_to_ci(
                c.system,
                c.point,
                on_iteration=lambda before, outcome, after: sequences.append(
                    degree_sequence(after)
                ),
            )
            elapsed = time.monotonic() - started
            assert elapsed < 5.0, f"{c.name}: run took {elapsed:.1f}s"
            for prev, now in zip(sequences, sequences[1:]):
                assert seq_succ(prev, now), f"{c.name}: {prev} !> {now}"


def test_criterion_3_ideal_invariance():
    with reported(3, "intermediate systems keep the reduced basis"):
        for c in CORPUS:
            reference = reduced_groebner(list(c.gens), ring=c.ring).elements
            intermediates: list[GeneratorSystem] = []
            reduce_to_ci(
                c.system,
                c.point,
                on_iteration=lambda before, outcome, after: intermediates.append(after),
            )
            for system in intermediates:
                basis = reduced_groebner(list(system.gens), ring=c.ring).elements
                assert basis == reference, f"{c.name}: basis drifted"
                assert [str(g) for g in basis] == [str(g) for g in reference]


def _package_slice_dim(gens, ring, degree: int) -> int:
    lms = [g.lead for g in reduced_groebner(list(gens), ring=ring).elements]
    return sum(
        1
        for m in degree_monomials(ring.num_vars, degree)
        if any(monomial_divides(lm, m) for lm in lms)
    )


def test_criterion_4_groebner_soundness():
    with reported(4, "basis soundness, permutation invariance, slice dims"):
        rng = random.Random(41)
        for c in CORPUS:
            basis = reduced_groebner(list(c.gens), ring=c.ring)
            elements = list(basis.elements)
            ring = c.ring
            for i in range(len(elements)):
                for j in range(i + 1, len(elements)):
                    lcm = monomial_lcm(elements[i].lead, elements[j].lead)
                    si = ring.monomial(
                        monomial_div(lcm, elements[i].lead),
                        QQ.one / leading_coefficient(elements[i]),
                    )
                    sj = ring.monomial(
                        monomial_div(lcm, elements[j].lead),
                        QQ.one / leading_coefficient(elements[j]),
                    )
                    s_poly = elements[i] * si - elements[j] * sj
                    assert normal_form(s_poly, elements).remainder.is_zero(), c.name
            shuffled = list(c.gens)
            for _ in range(20):
                rng.shuffle(shuffled)
                assert (
                    reduced_groebner(shuffled, ring=ring).elements == basis.elements
                ), f"{c.name}: permutation changed the basis"
            for d in range(1, 5):
                assert _package_slice_dim(c.gens, ring, d) == ideal_slice_dim(
                    c.gens, ring.num_vars, d
                ), f"{c.name}: slice dimension mismatch at degree {d}"


def _random_vanishing_system(rng: random.Random):
    """A generator system with a forced common zero and more generators than
    variables, so the differentials at the point are always dependent."""
    while True:
        n = rng.randint(3, 5)
        ring = PolynomialRing(QQ, tuple(f"T{i}" for i in range(n)))
        coords = tuple(QQ.scalar(rng.randint(-2, 2)) for _ in range(n))
        if not any(coords):
            continue
        x = ProjectivePoint(coords)
        k = x.pivot
        gens = []
        for _ in range(n + 2):
            d = rng.randint(1, 2)
            terms: dict = {}
            for _ in range(rng.randint(1, 4)):
                exps = [0] * n
                for _ in range(d):
                    exps[rng.randrange(n)] += 1
                key = tuple(exps)
                terms[key] = terms.get(key, QQ.zero) + QQ.scalar(rng.randint(-3, 3))
            g = Polynomial(ring, terms)
            if g.is_zero():
                continue
            value = evaluate(g, x)
            if value:
                g = g - ring.monomial(
                    tuple(d if j == k else 0 for j in range(n)),
                    value / coords[k] ** d,
                )
            if not g.is_zero():
                gens.append(g)
        if rng.random() < 0.3 and gens:
            gens.append(gens[0] * rng.randint(2, 3))
        if len({str(g) for g in gens}) <= n:
            continue
        system = GeneratorSystem.from_polynomials(gens, ring)
        if len(system) > n:
            return system, x


def test_criterion_5_substitution_postconditions():
    with reported(5, "200 randomized substitution steps"):
        rng = random.Random(20260824)
        for _ in range(200):
            system, x = _random_vanishing_system(rng)
            before = list(system.gens)
            outcome = subst_step(system, x, differentials(system, x))
            if isinstance(outcome, Removed):
                remaining = [g for i, g in enumerate(before) if i != outcome.index]
                record = outcome.representation
                assert record.remainder.is_zero()
                assert expand(record, remaining) == before[outcome.index]
                assert ideal_equal(remaining, before, ring=system.ring)
            else:
                assert isinstance(outcome, Replaced), "differentials must be dependent"
                new = outcome.new_poly
                assert differential_at(new, x) == (QQ.zero,) * len(x)
                assert new.degree == before[outcome.index].degree
                swapped = list(before)
                swapped[outcome.index] = new
                assert ideal_equal(swapped, before, ring=system.ring)


def test_criterion_6_euler_identity():
    with reported(6, "Euler identity on 1000 random polynomials"):
        rng = random.Random(1729)
        checked = 0
        while checked < 1000:
            n = rng.randint(3, 5)
            ring = PolynomialRing(QQ, tuple(f"T{i}" for i in range(n)))
            d = rng.randint(1, 4)
            terms: dict = {}
            for _ in range(rng.randint(1, 6)):
                exps = [0] * n
                for _ in range(d):
                    exps[rng.randrange(n)] += 1
                key = tuple(exps)
                coeff = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                terms[key] = terms.get(key, QQ.zero) + coeff
            f = Polynomial(ring, terms)
            if f.is_zero():
                continue
            coords = tuple(QQ.scalar(rng.randint(-4, 4)) for _ in range(n))
            if not any(coords):
                continue
            x = ProjectivePoint(coords)
            gradient = differential_at(f, x)
            weighted = sum((c * g for c, g in zip(coords, gradient)), QQ.zero)
            assert weighted == d * evaluate(f, x)
            checked += 1


def _random_sequence(rng: random.Random) -> tuple[int, ...]:
    return tuple(rng.randint(0, 10) for _ in range(rng.randint(0, 6)))


def test_criterion_7_order_properties():
    with reported(7, "order trichotomy, transitivity, chain termination"):
        rng = random.Random(9)
        from ciforge import DegreeSequence

        for _ in range(1000):
            a = DegreeSequence(_random_sequence(rng))
            b = DegreeSequence(_random_sequence(rng))
            c = DegreeSequence(_random_sequence(rng))
            assert [a == b, seq_succ(a, b), seq_succ(b, a)].count(True) == 1
            if seq_succ(a, b) and seq_succ(b, c):
                assert seq_succ(a, c)
        # chains: entries <= 10, support <= 6, so there are at most 11^6
        # sequences in the universe and every strict descent must stop
        bound = 11**6
        for _ in range(100):
            current = DegreeSequence(_random_sequence(rng))
            steps = 0
            while current.counts:
                counts = list(current.counts)
                positive = [i for i, v in enumerate(counts) if v]
                i = rng.choice(positive)
                counts[i] -= rng.randint(1, counts[i])
                for lower in range(i):
                    counts[lower] = rng.randint(0, 10)
                succ = DegreeSequence(tuple(counts))
                assert seq_succ(current, succ)
                current = succ
                steps += 1
                assert steps < bound, "descending chain exceeded the universe size"


def test_criterion_8_certificate_round_trip():
    with reported(8, "certificate round-trips, byte-identical reruns"):
        for c in CORPUS:
            cert = reduce_to_ci(c.system, c.point)
            blob = serialize_certificate(cert)
            parsed = parse_certificate(blob)
            assert parsed == cert, c.name
            assert serialize_certificate(parsed) == blob, c.name
            assert verify_certificate(parsed, c.system, c.point), c.name
            rerun = serialize_certificate(reduce_to_ci(c.system, c.point))
            assert rerun == blob, f"{c.name}: rerun not byte-identical"
