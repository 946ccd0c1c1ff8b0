"""The complete-intersection decision procedure.

Given homogeneous generators and a smooth point of their common zero locus,
the reduction loop repeatedly exploits a linear relation among the
differentials at the point: either a generator is redundant outright, or it
can be traded for a combination whose differential vanishes at the point.
Such a combination must be expressible over ideal members of strictly lower
degree; when it is, the system shrinks in the well-founded degree-sequence
order, and when it is not, the combination itself certifies that no
codimension-sized generating set exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Sequence

from .certificates import (
    Certificate,
    CICertificate,
    NonCICertificate,
    input_fingerprint,
)
from .degrees import DegreeSequence, seq_succ
from .errors import (
    CertificateMismatchError,
    NotHomogeneousError,
    NotInIdealError,
    NotSmoothError,
    PointNotOnVarietyError,
)
from .fields import Scalar
from .groebner import Ideal, QuotientRecord, check_deadline, reduced_groebner
from .linalg import ColumnElimination, ExactMatrix, rank
from .poly import (
    Polynomial,
    PolynomialRing,
    ProjectivePoint,
    differential_at,
    distinct_nonzero,
    evaluate,
)


@dataclass(frozen=True)
class GeneratorSystem:
    """A nonempty list of nonzero homogeneous generators, no exact duplicates."""

    ring: PolynomialRing
    gens: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gens", tuple(self.gens))
        if not self.gens:
            raise ValueError("generator system must be nonempty")
        for g in self.gens:
            if g.ring != self.ring:
                raise ValueError("generator outside the declared ring")
            if g.degree is None:
                raise ValueError("zero generator")
        if len(list(distinct_nonzero(self.gens))) != len(self.gens):
            raise ValueError("duplicate generator")

    @classmethod
    def from_polynomials(
        cls, polys: Sequence[Polynomial], ring: PolynomialRing
    ) -> "GeneratorSystem":
        """Build a system, silently dropping zeros and exact duplicates."""
        return cls(ring, tuple(distinct_nonzero(polys)))

    def without(self, index: int) -> "GeneratorSystem":
        """The system minus generator ``index``.

        What remains of a valid system is valid, so its generators are not
        checked again.
        """
        gens = self.gens[:index] + self.gens[index + 1 :]
        if not gens:
            raise ValueError("generator system must be nonempty")
        smaller = object.__new__(GeneratorSystem)
        object.__setattr__(smaller, "ring", self.ring)
        object.__setattr__(smaller, "gens", gens)
        return smaller

    def __len__(self) -> int:
        return len(self.gens)


def degree_sequence(system: GeneratorSystem) -> DegreeSequence:
    """Per-degree generator counts of the system."""
    return DegreeSequence.from_degrees(g.degree for g in system.gens)


def _require_on_variety(system: GeneratorSystem, x: ProjectivePoint) -> None:
    for i, g in enumerate(system.gens):
        if evaluate(g, x):
            raise PointNotOnVarietyError(
                f"generator {i} does not vanish at {x}: {g}"
            )


@dataclass(frozen=True)
class SmoothnessReport:
    """``jacobian`` holds the generators' differentials at the point, one
    row per generator in order."""

    codim: int
    smooth: bool
    dimension: int
    jacobian_rank: int
    jacobian: tuple[tuple[Scalar, ...], ...] = field(repr=False, compare=False)


def smoothness_check(ideal: Ideal, x: ProjectivePoint) -> SmoothnessReport:
    """Codimension of the zero locus and the Jacobian-rank smoothness verdict at ``x``.

    Smooth means: the differentials of the generators at ``x`` span a space of
    dimension exactly the codimension.  The span over the generators equals
    the span over the whole ideal because d_x(G*F) = G(x) * d_x(F) whenever F
    vanishes at x.  The caller checks that ``x`` lies on the variety.
    """
    dimension = ideal.dimension()
    codim = (ideal.ring.num_vars - 1) - dimension
    rows = tuple(differential_at(g, x) for g in ideal.gens)
    jac_rank = rank(ExactMatrix.from_rows(ideal.ring.field, rows))
    return SmoothnessReport(codim, jac_rank == codim, dimension, jac_rank, rows)


@dataclass(frozen=True)
class TrivialContainment:
    """Outcome of testing F = sum(G_i * Psi_i) with every deg Psi_i < deg F.

    ``members``/``cofactors`` carry the successful representation (aligned,
    nonzero cofactors only).  ``truncated_basis`` generates the below-degree
    part of the ideal; on failure ``remainder`` is the nonzero normal form of
    F against it.
    """

    trivial: bool
    members: tuple[Polynomial, ...]
    cofactors: tuple[Polynomial, ...]
    truncated_basis: tuple[Polynomial, ...]
    remainder: Polynomial


def _member_degree(ideal: Ideal, f: Polynomial, what: str) -> int:
    """The degree of ``f``, which must be a nonzero homogeneous member of ``ideal``."""
    d = f.degree
    if d is None:
        raise ValueError(f"{what} must be nonzero")
    if f not in ideal:
        raise NotInIdealError(f"{what} {f} is not in the ideal")
    return d


def trivially_contains(ideal: Ideal, f: Polynomial) -> TrivialContainment:
    """Whether ``f`` is a combination of ideal members of strictly lower degree.

    ``f`` must be a nonzero homogeneous member of the ideal (checked).
    """
    d = _member_degree(ideal, f, "polynomial")
    truncated = ideal.truncated(d)
    if not truncated:
        return TrivialContainment(False, (), (), truncated, f)
    member, record = ideal.truncated_ideal(d).member(f)
    if not member:
        return TrivialContainment(False, (), (), truncated, record.remainder)
    # f is nonzero, so at least one cofactor is.
    members, cofactors = zip(
        *((psi, c) for psi, c in zip(truncated, record.quotients) if not c.is_zero())
    )
    return TrivialContainment(True, members, cofactors, truncated, record.remainder)


@dataclass(frozen=True)
class Removed:
    """One generator is a combination of the others (kept order, minus it)."""

    index: int
    representation: QuotientRecord


@dataclass(frozen=True)
class Replaced:
    """Generator ``index`` traded for ``new_poly``, whose differential at the
    point vanishes.  ``relation`` holds the kernel coefficients and
    ``cofactors`` the degree-raising multipliers, both aligned with the full
    generator list (zero off the support)."""

    index: int
    new_poly: Polynomial
    relation: tuple[Scalar, ...]
    cofactors: tuple[Polynomial, ...]


RewriteOutcome = Removed | Replaced


def subst_step(
    system: GeneratorSystem,
    x: ProjectivePoint,
    differentials: Sequence[Sequence[Scalar]],
    elimination: ColumnElimination | None = None,
) -> RewriteOutcome | None:
    """One rewrite step from a linear relation among differentials at ``x``.

    ``differentials`` are the generators' differentials at ``x``, in order;
    the caller has checked that ``x`` lies on the variety.  ``elimination``,
    when given, holds the elimination of a prefix of these columns, all
    independent, as a previous step left it; it is extended in place up to
    the first dependent column.

    Takes the first canonical kernel vector of the differential matrix and
    lifts it to a polynomial combination with vanishing differential: lower
    degrees are raised to the top degree of the support by powers of the
    pivot coordinate, scaled so the multiplier still takes the kernel value
    at ``x``.  A zero combination removes the last generator of the support
    (Removed); a nonzero one replaces the highest-index top-degree generator
    (Replaced).  None means the differentials are independent.

    The columns before the relation's last one are independent, so the
    top-degree generators of the support are linearly dependent as
    polynomials only when they are the whole support and the relation's
    combination of them is zero: that case is the zero combination.
    """
    if len(differentials) != len(system.gens):
        raise ValueError("need one differential per generator")
    ring = system.ring
    if elimination is None:
        elimination = ColumnElimination(ring.field)
    elif not len(elimination.reduced) == elimination.width <= len(differentials):
        raise ValueError("a carried elimination must cover independent leading columns")
    relation = elimination.first_relation(differentials)
    if relation is None:
        return None
    support = [i for i, c in enumerate(relation) if c]
    degrees = [g.degree for g in system.gens]
    top_degree = max(degrees[i] for i in support)

    field = ring.field
    k = x.pivot
    inv_xk = field.div(field.one, x.coords[k])
    zero = ring.zero()
    cofactors = [zero] * len(relation)
    combined = zero
    for i in support:
        lift = top_degree - degrees[i]
        scale = field.mul(relation[i], field.pow(inv_xk, lift))
        cofactors[i] = ring.monomial(
            tuple(lift if j == k else 0 for j in range(ring.num_vars)), scale
        )
        combined = combined + cofactors[i] * system.gens[i]

    j = max(i for i in support if degrees[i] == top_degree)
    if combined.is_zero():
        # The lifted combination collapses; the relation already expresses
        # generator j (top block, constant multiplier) over the others.
        scale = field.div(field.one, field.neg(relation[j]))
        others = (c * scale for i, c in enumerate(cofactors) if i != j)
        return Removed(j, QuotientRecord(tuple(others), zero))

    assert not any(differential_at(combined, x)), "replacement differential is nonzero"
    return Replaced(j, combined, relation, tuple(cofactors))


def _carried_differentials(
    before: GeneratorSystem,
    columns: list[tuple[Scalar, ...]],
    after: GeneratorSystem,
    x: ProjectivePoint,
) -> list[tuple[Scalar, ...]]:
    """The differentials of ``after``'s generators at ``x``: a generator that
    survives from ``before`` (the same object) keeps its column, and only a
    spliced-in member is differentiated."""
    known = {id(g): column for g, column in zip(before.gens, columns)}
    return [
        known[id(g)] if id(g) in known else differential_at(g, x) for g in after.gens
    ]


IterationObserver = Callable[[GeneratorSystem, RewriteOutcome, GeneratorSystem], None]


def reduce_to_ci(
    system: GeneratorSystem,
    x: ProjectivePoint,
    *,
    on_iteration: IterationObserver | None = None,
) -> Certificate:
    """Decide whether the ideal is generated by codimension-many elements.

    Requires ``x`` to be a smooth point of the zero locus (enforced).  Runs
    the rewrite loop until the system has codimension size (CI certificate)
    or a replacement resists trivial containment (NonCI certificate with that
    witness).  The degree sequence strictly decreases at every shrinking
    step, which bounds the loop.

    ``on_iteration`` observes (before, outcome, after) triples.

    Every rewrite keeps the ideal, so its basis is computed once, here, and
    serves the smoothness check and every containment test.  Likewise each
    input generator's differential at ``x`` is computed once, as a row of the
    smoothness check's Jacobian, and carried to the systems it survives
    into, and so is the elimination of the differentials up to the first
    position a step changes.  Every generator a step adds is an ideal
    member, so it vanishes at ``x`` and the point needs no re-check.
    """
    _require_on_variety(system, x)
    ideal = Ideal(system.gens, ring=system.ring)
    report = smoothness_check(ideal, x)
    if not report.smooth:
        raise NotSmoothError(
            f"point {x} is not a smooth point: Jacobian rank "
            f"{report.jacobian_rank}, codimension {report.codim}"
        )
    codim = report.codim
    ring = system.ring
    fingerprint = input_fingerprint(ring, system.gens, x)

    trace: list[DegreeSequence] = []
    current = system
    if len(current) > codim:
        trace.append(degree_sequence(current))

    columns = list(report.jacobian)
    elimination = ColumnElimination(ring.field)
    while len(current) > codim:
        check_deadline("rewrite loop")
        outcome = subst_step(current, x, columns, elimination)
        if outcome is None:
            raise AssertionError(
                "differentials independent although the system exceeds the codimension"
            )
        if isinstance(outcome, Removed):
            new_system = current.without(outcome.index)
        else:
            containment = trivially_contains(ideal, outcome.new_poly)
            if not containment.trivial:
                return NonCICertificate(
                    input_hash=fingerprint,
                    field_tag=ring.field.tag,
                    var_names=ring.var_names,
                    codim=codim,
                    witness=outcome.new_poly,
                    point=x,
                    truncated_basis=containment.truncated_basis,
                    remainder=containment.remainder,
                    trace=tuple(trace),
                )
            spliced = (
                current.gens[: outcome.index]
                + containment.members
                + current.gens[outcome.index + 1 :]
            )
            new_system = GeneratorSystem.from_polynomials(spliced, ring)

        previous = trace[-1]
        now = degree_sequence(new_system)
        if not seq_succ(previous, now):
            raise AssertionError(
                f"degree sequence failed to decrease: {previous} to {now}"
            )
        trace.append(now)
        if on_iteration is not None:
            on_iteration(current, outcome, new_system)
        columns = _carried_differentials(current, columns, new_system, x)
        # Generators before outcome.index are kept in place, so the
        # elimination of their columns still holds.
        elimination.truncate(outcome.index)
        current = new_system

    assert len(current) == codim, "system shrank below the codimension"
    return CICertificate(
        input_hash=fingerprint,
        field_tag=ring.field.tag,
        var_names=ring.var_names,
        codim=codim,
        final_gens=current.gens,
        trace=tuple(trace),
    )


def check_condition_iv(
    f: Polynomial,
    family: Sequence[Polynomial],
    x: ProjectivePoint,
    ideal: Ideal,
) -> bool:
    """Whether the tangent space of Z(f) at ``x`` contains the intersection
    of the tangent spaces of the Z(family member)s.

    Computed linearly: d_x(f) must lie in the span of the family's
    differentials, that is, one elimination fed those and then d_x(f) must
    find this last column dependent; an empty family spans nothing, so then
    the answer is "d_x(f) = 0".  All polynomials must be ideal members, each
    family member of degree strictly below deg f.  A ``True`` answer on a
    non-trivially contained ``f`` at a smooth point refutes the tangent-space
    criterion.
    """
    deg_f = _member_degree(ideal, f, "polynomial")
    elimination = ColumnElimination(ideal.ring.field)
    for b in family:
        deg_b = _member_degree(ideal, b, "family member")
        if deg_b >= deg_f:
            raise ValueError(
                f"family member degree {deg_b} not below the polynomial degree {deg_f}"
            )
        elimination.add(differential_at(b, x))
    return elimination.add(differential_at(f, x)) is not None


def _trace_fits(cert: Certificate, system: GeneratorSystem) -> bool:
    """Whether the trace could be the one a run on ``system`` records.

    It is empty exactly when the input already has codimension size, and
    otherwise starts at the input's degree sequence and strictly decreases.
    A CI certificate's final generators must be nonzero, homogeneous and of
    degree at least 1 whatever the trace, and a nonempty CI trace ends at
    their degree sequence.
    """
    trace = cert.trace
    if isinstance(cert, CICertificate):
        try:
            degrees = [g.degree for g in cert.final_gens]
        except NotHomogeneousError:
            return False
        if not all(degrees):  # None for a zero generator, 0 for a constant
            return False
        if trace and trace[-1] != DegreeSequence.from_degrees(degrees):
            return False
    if not trace:
        return len(system) == cert.codim
    return (
        len(system) != cert.codim
        and trace[0] == degree_sequence(system)
        and all(seq_succ(a, b) for a, b in zip(trace, trace[1:]))
    )


def verify_certificate(
    cert: Certificate, system: GeneratorSystem, x: ProjectivePoint
) -> bool:
    """Re-check a certificate from scratch against the claimed input.

    The input hash must match (error if not); every other property is
    recomputed without trusting the producer, and the verdict is returned.
    The input ideal's basis is computed once and serves every check.  Only
    a non-CI claim rests on smoothness, so only it differentiates at ``x``.
    """
    ring = system.ring
    fingerprint = input_fingerprint(ring, system.gens, x)
    if fingerprint != cert.input_hash:
        raise CertificateMismatchError(
            "certificate was produced for a different input"
        )
    if cert.field_tag != ring.field.tag or cert.var_names != ring.var_names:
        return False
    _require_on_variety(system, x)
    if not _trace_fits(cert, system):
        return False
    ideal = Ideal(system.gens, ring=ring)
    if isinstance(cert, CICertificate):
        codim = (ring.num_vars - 1) - ideal.dimension()
        if cert.codim != codim or len(cert.final_gens) != codim:
            return False
        final = reduced_groebner(cert.final_gens, ring=ring)
        return final.elements == ideal.basis.elements
    report = smoothness_check(ideal, x)
    if cert.codim != report.codim or not report.smooth or cert.point != x:
        return False
    try:
        if any(differential_at(cert.witness, x)):
            return False
        containment = trivially_contains(ideal, cert.witness)
    except ValueError:  # the witness is zero, not homogeneous or not a member
        return False
    return (
        not containment.trivial
        and containment.truncated_basis == cert.truncated_basis
        and containment.remainder == cert.remainder
    )
