"""Shared corpus of ideals used across the test suite.

Codimensions are frozen by hand (classical values), so the oracle comparison
in the acceptance tests does not lean on the package's own dimension code.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from ciforge import (
    QQ,
    GeneratorSystem,
    PolynomialRing,
    ProjectivePoint,
    parse_polynomial,
)

P3 = PolynomialRing(QQ, ("T0", "T1", "T2", "T3"))
P4 = PolynomialRing(QQ, ("T0", "T1", "T2", "T3", "T4"))
P5 = PolynomialRing(QQ, ("T0", "T1", "T2", "T3", "T4", "T5"))


@dataclass(frozen=True)
class CorpusIdeal:
    name: str
    ring: PolynomialRing
    gen_exprs: tuple[str, ...]
    point_coords: tuple[int, ...]
    codim: int  # frozen by hand, not computed
    expect_ci: bool
    expect_final_count: int | None  # only meaningful for CI entries

    @property
    def gens(self):
        return tuple(parse_polynomial(s, self.ring) for s in self.gen_exprs)

    @property
    def system(self) -> GeneratorSystem:
        return GeneratorSystem.from_polynomials(self.gens, self.ring)

    @property
    def point(self) -> ProjectivePoint:
        field = self.ring.field
        return ProjectivePoint(tuple(field.scalar(c) for c in self.point_coords))

    def over(self, field) -> "CorpusIdeal":
        """The same entry with its generators and point read over ``field``."""
        return replace(self, ring=PolynomialRing(field, self.ring.var_names))


TWISTED_CUBIC = CorpusIdeal(
    name="twisted_cubic",
    ring=P3,
    gen_exprs=("T0*T2 - T1^2", "T1*T3 - T2^2", "T0*T3 - T1*T2"),
    point_coords=(1, 1, 1, 1),
    codim=2,
    expect_ci=False,
    expect_final_count=None,
)

# 2x2 minors of [[T0 T1 T2 T3], [T1 T2 T3 T4]] -- the degree-4 rational
# normal curve in P^4.
RATIONAL_NORMAL_QUARTIC = CorpusIdeal(
    name="rational_normal_quartic",
    ring=P4,
    gen_exprs=(
        "T0*T2 - T1^2",
        "T0*T3 - T1*T2",
        "T0*T4 - T1*T3",
        "T1*T3 - T2^2",
        "T1*T4 - T2*T3",
        "T2*T4 - T3^2",
    ),
    point_coords=(1, 1, 1, 1, 1),
    codim=3,
    expect_ci=False,
    expect_final_count=None,
)

# A redundant presentation of the ideal (T0 - T1, T0*T3 - T1*T2): the third
# generator is T2*(T0 - T1) + the second.
LINE_QUADRIC_REDUNDANT = CorpusIdeal(
    name="line_quadric_redundant",
    ring=P3,
    gen_exprs=("T0 - T1", "T0*T3 - T1*T2", "T0*T2 + T0*T3 - 2*T1*T2"),
    point_coords=(1, 1, 1, 1),
    codim=2,
    expect_ci=True,
    expect_final_count=2,
)

QUADRIC_HYPERSURFACE = CorpusIdeal(
    name="quadric_hypersurface",
    ring=P3,
    gen_exprs=("T0*T3 - T1*T2",),
    point_coords=(1, 0, 0, 0),
    codim=1,
    expect_ci=True,
    expect_final_count=1,
)

FERMAT_CUBIC = CorpusIdeal(
    name="fermat_cubic",
    ring=P3,
    gen_exprs=("T0^3 + T1^3 + T2^3 + T3^3",),
    point_coords=(1, -1, 0, 0),
    codim=1,
    expect_ci=True,
    expect_final_count=1,
)

# Codimension-3 coordinate subspace of P^4 padded with three redundant
# combinations of the coordinate forms.
COORDINATE_SUBSPACE = CorpusIdeal(
    name="coordinate_subspace",
    ring=P4,
    gen_exprs=("T2", "T3", "T4", "T2 + T3", "T2 + T4", "T3 + T4"),
    point_coords=(1, 1, 0, 0, 0),
    codim=3,
    expect_ci=True,
    expect_final_count=3,
)

# The twisted cubic cone inside the hyperplane T4 = 0 of P^4: a non-CI whose
# failed containment test runs against a nonempty truncated basis, (T4).
CUBIC_IN_HYPERPLANE = CorpusIdeal(
    name="cubic_in_hyperplane",
    ring=P4,
    gen_exprs=("T4", "T0*T2 - T1^2", "T1*T3 - T2^2", "T0*T3 - T1*T2"),
    point_coords=(1, 1, 1, 1, 0),
    codim=3,
    expect_ci=False,
    expect_final_count=None,
)

# Two quadrics through (1:0:0:0) padded with three combinations of them, in
# degrees 3, 3 and 4: the loop makes four Replaced steps, three in degree 3.
PLANTED_QUADRICS = CorpusIdeal(
    name="planted_quadrics",
    ring=P3,
    gen_exprs=(
        "T0*T1 + T2^2",
        "T0*T2 + T3^2",
        "T1*(T0*T1 + T2^2) + T3*(T0*T2 + T3^2)",
        "T2*(T0*T1 + T2^2) - T1*(T0*T2 + T3^2)",
        "T2^2*(T0*T1 + T2^2) + T3^2*(T0*T2 + T3^2)",
    ),
    point_coords=(1, 0, 0, 0),
    codim=2,
    expect_ci=True,
    expect_final_count=2,
)

# Two quadrics through (1:0:0:0:0:0) of P^5 padded with a cubic and a quartic
# combination of them (the benchmark's ci-descent-q-4 at seed 1).  Its
# containment tests compose cofactors through basis elements that were made
# from S-pair remainders, so a cofactor walk that skips the parents it adds
# on the way splices other members in.
PLANTED_IN_P5 = CorpusIdeal(
    name="planted_in_p5",
    ring=P5,
    gen_exprs=(
        "2*T0*T1 + 3*T1^2 - 2*T1*T2 + 3*T2^2 - 2*T1*T3 - 3*T2*T3 - 2*T3^2 + 3*T1*T4"
        " + T2*T4 - T3*T4 + T4^2 + 3*T1*T5 - T2*T5 - 3*T3*T5 + 2*T4*T5 - T5^2",
        "3*T1^2 - 3*T0*T2 + 2*T1*T2 + T2^2 - 2*T1*T3 + T2*T3 - 2*T3^2 - 2*T1*T4"
        " + 2*T2*T4 + 3*T3*T4 + 3*T4^2 - T1*T5 - 2*T2*T5 - 2*T3*T5 - 3*T4*T5 + T5^2",
        "3*T0*T1^2 - 3*T0^2*T2 - 2*T0*T1*T2 - 6*T1^2*T2 + T0*T2^2 + 4*T1*T2^2"
        " - 6*T2^3 - 2*T0*T1*T3 + T0*T2*T3 + 4*T1*T2*T3 + 6*T2^2*T3 - 2*T0*T3^2"
        " + 4*T2*T3^2 - 2*T0*T1*T4 + 2*T0*T2*T4 - 6*T1*T2*T4 - 2*T2^2*T4 + 3*T0*T3*T4"
        " + 2*T2*T3*T4 + 3*T0*T4^2 - 2*T2*T4^2 - 3*T0*T1*T5 - 12*T1^2*T5 + 7*T0*T2*T5"
        " - 10*T1*T2*T5 - 4*T2^2*T5 - 2*T0*T3*T5 + 8*T1*T3*T5 + 6*T2*T3*T5"
        " + 8*T3^2*T5 - 3*T0*T4*T5 + 3*T1*T4*T5 - 11*T2*T4*T5 - 8*T3*T4*T5"
        " - 10*T4^2*T5 + T0*T5^2 + 9*T2*T5^2 + 9*T3*T5^2 + 7*T4*T5^2 - 2*T5^3",
        "6*T0*T1^3 + 9*T1^4 - 6*T1^3*T2 + 9*T1^2*T2^2 - 6*T1^3*T3 - 9*T1^2*T2*T3"
        " - 6*T1^2*T3^2 + 4*T0^2*T1*T4 + 6*T0*T1^2*T4 + 9*T1^3*T4 - 4*T0*T1*T2*T4"
        " + 3*T1^2*T2*T4 + 6*T0*T2^2*T4 - 4*T0*T1*T3*T4 - 3*T1^2*T3*T4"
        " - 6*T0*T2*T3*T4 - 4*T0*T3^2*T4 + 6*T0*T1*T4^2 + 5*T0*T2*T4^2 - 2*T1*T2*T4^2"
        " - T2^2*T4^2 - 2*T0*T3*T4^2 + 2*T1*T3*T4^2 - T2*T3*T4^2 + 2*T3^2*T4^2"
        " + 2*T0*T4^3 + 2*T1*T4^3 - 2*T2*T4^3 - 3*T3*T4^3 - 3*T4^4 + 12*T1^3*T5"
        " - 3*T0*T1*T2*T5 - T1^2*T2*T5 + T1*T2^2*T5 - 11*T1^2*T3*T5 + T1*T2*T3*T5"
        " - 2*T1*T3^2*T5 + 6*T0*T1*T4*T5 + 4*T1^2*T4*T5 - 2*T0*T2*T4*T5"
        " + 2*T1*T2*T4*T5 - 6*T0*T3*T4*T5 + 3*T1*T3*T4*T5 + 4*T0*T4^2*T5"
        " + 4*T1*T4^2*T5 + 2*T2*T4^2*T5 + 2*T3*T4^2*T5 + 3*T4^3*T5 - 4*T1^2*T5^2"
        " - 2*T1*T2*T5^2 - 2*T1*T3*T5^2 - 2*T0*T4*T5^2 - 3*T1*T4*T5^2 - T4^2*T5^2"
        " + T1*T5^3",
    ),
    point_coords=(1, 0, 0, 0, 0, 0),
    codim=2,
    expect_ci=True,
    expect_final_count=2,
)

CORPUS: tuple[CorpusIdeal, ...] = (
    TWISTED_CUBIC,
    RATIONAL_NORMAL_QUARTIC,
    LINE_QUADRIC_REDUNDANT,
    QUADRIC_HYPERSURFACE,
    FERMAT_CUBIC,
    COORDINATE_SUBSPACE,
    CUBIC_IN_HYPERPLANE,
    PLANTED_QUADRICS,
)
