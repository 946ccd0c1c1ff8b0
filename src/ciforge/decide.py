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

from dataclasses import dataclass
from functools import cached_property
from math import lcm
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
    check_deadline,
)
from .fields import IntegralVector, Scalar
from .groebner import Ideal, QuotientRecord, reduced_groebner
from .linalg import ColumnElimination, ExactMatrix, integral_rank, rank, scalar_relation
from .poly import (
    Polynomial,
    PolynomialRing,
    ProjectivePoint,
    differential_at,
    distinct_nonzero,
    evaluate,
    integral_differential,
)


@dataclass(frozen=True)
class GeneratorSystem:
    """A nonempty list of nonzero homogeneous generators, no exact duplicates."""

    ring: PolynomialRing
    gens: tuple[Polynomial, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "gens", tuple(self.gens))
        self._check_generators()
        if len(list(distinct_nonzero(self.gens))) != len(self.gens):
            raise ValueError("duplicate generator")

    def _check_generators(self) -> None:
        if not self.gens:
            raise ValueError("generator system must be nonempty")
        for g in self.gens:
            if g.ring != self.ring:
                raise ValueError("generator outside the declared ring")
            if g.degree is None:
                raise ValueError("zero generator")

    @classmethod
    def from_polynomials(
        cls, polys: Sequence[Polynomial], ring: PolynomialRing
    ) -> "GeneratorSystem":
        """Build a system, silently dropping zeros and exact duplicates.

        The one scan that drops them leaves none, so it is not repeated.
        """
        system = object.__new__(cls)
        object.__setattr__(system, "ring", ring)
        object.__setattr__(system, "gens", tuple(distinct_nonzero(polys)))
        system._check_generators()
        return system

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

    @cached_property
    def degree_sequence(self) -> DegreeSequence:
        """Per-degree generator counts, computed on first use and then kept."""
        return DegreeSequence.from_degrees(g.degree for g in self.gens)


def degree_sequence(system: GeneratorSystem) -> DegreeSequence:
    """Per-degree generator counts of the system.  The system keeps them, so
    the rewrite loop and an observer that both ask scan it once."""
    return system.degree_sequence


def _require_on_variety(gens: Sequence[Polynomial], x: ProjectivePoint) -> None:
    for i, g in enumerate(gens):
        if evaluate(g, x):
            raise PointNotOnVarietyError(
                f"generator {i} does not vanish at {x}: {g}"
            )


@dataclass(frozen=True)
class SmoothnessReport:
    codim: int
    smooth: bool
    dimension: int
    jacobian_rank: int


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
    return SmoothnessReport(codim, jac_rank == codim, dimension, jac_rank)


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

    ``f`` must be a nonzero homogeneous member of the ideal (checked).  A
    member of the truncated ideal is a member of the ideal, so only a
    non-trivial answer divides ``f`` by the ideal's own basis.
    """
    d = f.degree
    if d is None:
        raise ValueError("polynomial must be nonzero")
    elements = ideal.elements
    truncated, remainder = (), f
    if elements and elements[0].degree < d:  # the elements ascend in degree
        below = ideal.truncated_ideal(d)
        truncated = below.gens
        member, record = below.member(f)
        remainder = record.remainder
        if member:
            # f is nonzero, so at least one cofactor is.
            members, cofactors = zip(
                *((psi, c) for psi, c in zip(truncated, record.quotients) if not c.is_zero())
            )
            return TrivialContainment(True, members, cofactors, truncated, remainder)
    _member_degree(ideal, f, "polynomial")
    return TrivialContainment(False, (), (), truncated, remainder)


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
    differentials: Sequence[IntegralVector],
    elimination: ColumnElimination | None = None,
) -> RewriteOutcome | None:
    """One rewrite step from a linear relation among differentials at ``x``.

    ``differentials`` are the generators' differentials at ``x``, in order,
    each as integers over a scale (`integral_differential`); the caller has
    checked that ``x`` lies on the variety.  ``elimination``, when given,
    holds the elimination of a prefix of these columns, all independent, as
    a previous step left it; it is extended in place up to the first
    dependent column.

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

    The lift runs on integers.  The relation is the elimination's integer
    combination c over its last entry c_last, the inverse of the pivot
    coordinate x_k is num/den (`Field.integral_vector` of the point), and
    generator i, of lift l_i below the top lift L, is its integral form over
    its scale s_i.  Every multiplier then goes over c_last * den^L, and the
    sum over c_last * den^L * lcm(s).  Scalars are made only for what the
    step hands out: a `Removed` step's multipliers, or a `Replaced` step's
    relation, cofactors and new generator.
    """
    if len(differentials) != len(system.gens):
        raise ValueError("need one differential per generator")
    ring = system.ring
    field = ring.field
    if elimination is None:
        elimination = ColumnElimination(field)
    elif not len(elimination.reduced) == elimination.width <= len(differentials):
        raise ValueError("a carried elimination must cover independent leading columns")
    combination = elimination.first_dependent(differentials)
    if combination is None:
        return None
    gens = system.gens
    support = sorted(combination)
    degrees = {i: gens[i].degree for i in support}
    top_degree = max(degrees.values())
    lifts = {i: top_degree - d for i, d in degrees.items()}
    top_lift = max(lifts.values())

    k = x.pivot
    coords, num = field.integral_vector(x.coords)
    den = coords[k]
    # Generator i's multiplier relation_i * (num/den)^(l_i) is numerators[i]
    # over c_last * den^L.
    numerators = {
        i: combination[i] * num ** lifts[i] * den ** (top_lift - lifts[i]) for i in support
    }
    below = den**top_lift
    denominator = combination[support[-1]] * below
    # Sum the lift once, on integers: generator i is its integral form over
    # its own scale (``integral_terms`` is lead coefficient, other terms,
    # scale), and every weight goes over one common denominator.
    common = lcm(*(gens[i].integral_terms[2] for i in support))
    total: dict[tuple[int, ...], int] = {}
    get = total.get
    for i in support:
        lead_coefficient, rest, scale = gens[i].integral_terms
        weight, lift = numerators[i] * (common // scale), lifts[i]
        for e, c in ((gens[i].lead, lead_coefficient), *rest):
            if lift:
                e = e[:k] + (e[k] + lift,) + e[k + 1 :]
            total[e] = get(e, 0) + weight * c
    combined = field.from_integral(total, denominator * common)

    def lifted(i: int, scale: Scalar) -> Polynomial:
        exponents = [0] * ring.num_vars
        exponents[k] = lifts[i]
        return Polynomial._trusted(ring, {tuple(exponents): scale})

    j = max(i for i in support if not lifts[i])
    zero = ring.zero()
    multipliers = [zero] * len(gens)
    if not combined:
        # The lifted combination collapses; the relation already expresses
        # generator j (top block, constant multiplier) over the others, each
        # multiplier over minus generator j's.
        scales = field.from_integral(
            {i: -n for i, n in numerators.items() if i != j}, combination[j] * below
        )
        for i, scale in scales.items():
            multipliers[i] = lifted(i, scale)
        del multipliers[j]
        return Removed(j, QuotientRecord(tuple(multipliers), zero))

    new_poly = Polynomial._trusted(ring, combined)
    ints, _ = integral_differential(new_poly, x)
    assert not any(ints), "replacement differential is nonzero"
    scales = field.from_integral(numerators, denominator)
    for i, scale in scales.items():
        multipliers[i] = lifted(i, scale)
    relation = scalar_relation(field, combination, len(gens))
    return Replaced(j, new_poly, relation, tuple(multipliers))


def _carried_differentials(
    before: GeneratorSystem,
    columns: list[IntegralVector],
    after: GeneratorSystem,
    x: ProjectivePoint,
) -> list[IntegralVector]:
    """The differentials of ``after``'s generators at ``x``: a generator that
    survives from ``before`` (the same object) keeps its column, and only a
    spliced-in member is differentiated."""
    known = {id(g): column for g, column in zip(before.gens, columns)}
    return [
        known[id(g)] if id(g) in known else integral_differential(g, x) for g in after.gens
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

    Each input generator's differential at ``x`` is computed once, before
    the loop, as integers over a scale (`integral_differential`), and
    carried as a column to the systems it survives into, and
    so is the elimination of the columns up to the first position a step
    changes.  Every generator a step adds is an ideal member, so it vanishes
    at ``x`` and the point needs no re-check.  The loop runs while the
    system exceeds r, the rank of the input's columns: a smooth point has
    codimension r.  A `Removed` step drops a column in the span of the
    others, so it keeps r and needs only the columns.  Every rewrite keeps
    the ideal, so its basis is built once, from the system at the first
    `Replaced` step or, when there is none, from the final one, and serves
    the smoothness check (its codimension must be r) and every containment
    test.  A non-smooth point cannot end the loop unchecked, and so runs its
    `Removed` steps before `NotSmoothError`.
    """
    _require_on_variety(system.gens, x)
    ring = system.ring
    columns = [integral_differential(g, x) for g in system.gens]
    # The codimension if x is smooth; checked where the basis is built.
    codim = integral_rank(ring.field, [ints for ints, _ in columns])

    def smooth_ideal(gens: tuple[Polynomial, ...]) -> Ideal:
        built = Ideal(gens, ring=ring)
        actual = (ring.num_vars - 1) - built.dimension()
        if actual != codim:
            raise NotSmoothError(
                f"point {x} is not a smooth point: Jacobian rank "
                f"{codim}, codimension {actual}"
            )
        return built

    ideal: Ideal | None = None
    fingerprint = input_fingerprint(ring, system.gens, x)
    current = system
    previous = degree_sequence(current)
    elimination = ColumnElimination(ring.field)
    while len(current) > codim:
        check_deadline("rewrite loop")
        outcome = subst_step(current, x, columns, elimination)
        if outcome is None:
            raise AssertionError(
                "differentials independent although the system exceeds their rank"
            )
        if isinstance(outcome, Removed):
            new_system = current.without(outcome.index)
        else:
            if ideal is None:
                ideal = smooth_ideal(current.gens)
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
                )
            spliced = (
                current.gens[: outcome.index]
                + containment.members
                + current.gens[outcome.index + 1 :]
            )
            new_system = GeneratorSystem.from_polynomials(spliced, ring)

        now = degree_sequence(new_system)
        if not seq_succ(previous, now):
            raise AssertionError(
                f"degree sequence failed to decrease: {previous} to {now}"
            )
        previous = now
        if on_iteration is not None:
            on_iteration(current, outcome, new_system)
        columns = _carried_differentials(current, columns, new_system, x)
        # Generators before outcome.index are kept in place, so the
        # elimination of their columns still holds.
        elimination.truncate(outcome.index)
        current = new_system

    assert len(current) == codim, "system shrank below the Jacobian rank"
    if ideal is None:
        smooth_ideal(current.gens)
    return CICertificate(
        input_hash=fingerprint,
        field_tag=ring.field.tag,
        var_names=ring.var_names,
        codim=codim,
        final_gens=current.gens,
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
    the answer is "d_x(f) = 0".  ``x`` must lie on the variety
    (`PointNotOnVarietyError`), and all polynomials must be ideal members,
    each family member of degree strictly below deg f.  A ``True`` answer on
    a non-trivially contained ``f`` at a smooth point refutes the
    tangent-space criterion.
    """
    _require_on_variety(ideal.gens, x)
    deg_f = _member_degree(ideal, f, "polynomial")
    elimination = ColumnElimination(ideal.ring.field)
    for b in family:
        deg_b = _member_degree(ideal, b, "family member")
        if deg_b >= deg_f:
            raise ValueError(
                f"family member degree {deg_b} not below the polynomial degree {deg_f}"
            )
        elimination.add(integral_differential(b, x))
    return elimination.add(integral_differential(f, x)) is not None


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
    _require_on_variety(system.gens, x)
    if isinstance(cert, CICertificate):
        # First what needs no basis: codimension-many final generators, each
        # nonzero, homogeneous and of degree at least 1.
        try:
            degrees = [g.degree for g in cert.final_gens]
        except NotHomogeneousError:
            return False
        if len(degrees) != cert.codim or not all(degrees):  # None: zero; 0: constant
            return False
        ideal = Ideal(system.gens, ring=ring)
        if cert.codim != (ring.num_vars - 1) - ideal.dimension():
            return False
        # The input's basis settles every pair once the final generators'
        # basis covers its leading monomials, so the rest are skipped.
        final = reduced_groebner(cert.final_gens, ring=ring, within=ideal)
        return final.elements == ideal.elements
    ideal = Ideal(system.gens, ring=ring)
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
