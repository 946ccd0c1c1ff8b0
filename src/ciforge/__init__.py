"""Complete-intersection decisions for homogeneous ideals, with certificates.

Typical use: build a ring and generator system, pick a smooth point of the
zero locus, and call :func:`reduce_to_ci`; the returned certificate can be
serialized, shipped, and re-checked with :func:`verify_certificate`.
"""

from .certificates import (
    Certificate,
    CICertificate,
    NonCICertificate,
    input_fingerprint,
    parse_certificate,
    serialize_certificate,
)
from .decide import (
    GeneratorSystem,
    Independent,
    Removed,
    Replaced,
    RewriteOutcome,
    SmoothnessReport,
    TrivialContainment,
    check_condition_iv,
    degree_sequence,
    reduce_to_ci,
    smoothness_check,
    subst_step,
    trivially_contains,
    verify_certificate,
)
from .degrees import DegreeSequence, seq_succ
from .errors import (
    BuchbergerTimeout,
    CertificateMismatchError,
    ImproperIdealError,
    NotHomogeneousError,
    NotInIdealError,
    NotSmoothError,
    ParseError,
    PointNotOnVarietyError,
    RingMismatchError,
)
from .fields import QQ, Field, PrimeField, RationalField, Scalar, field_from_tag
from .groebner import (
    GroebnerBasis,
    Ideal,
    QuotientRecord,
    basis_time_limit,
    ideal_equal,
    ideal_member,
    normal_form,
    projective_dimension,
    reduced_groebner,
    truncated_generators,
)
from .ideal_file import IdealFile, parse_ideal_file
from .linalg import (
    ExactMatrix,
    kernel_basis,
    linear_relation_polys,
    rank,
)
from .parse import parse_polynomial
from .poly import (
    Polynomial,
    PolynomialRing,
    ProjectivePoint,
    differential_at,
    evaluate,
)

__version__ = "0.1.0"

__all__ = [
    "BuchbergerTimeout",
    "Certificate",
    "CertificateMismatchError",
    "CICertificate",
    "DegreeSequence",
    "ExactMatrix",
    "Field",
    "GeneratorSystem",
    "GroebnerBasis",
    "Ideal",
    "IdealFile",
    "ImproperIdealError",
    "Independent",
    "NonCICertificate",
    "NotHomogeneousError",
    "NotInIdealError",
    "NotSmoothError",
    "ParseError",
    "PointNotOnVarietyError",
    "Polynomial",
    "PolynomialRing",
    "PrimeField",
    "ProjectivePoint",
    "QQ",
    "QuotientRecord",
    "RationalField",
    "Removed",
    "Replaced",
    "RewriteOutcome",
    "RingMismatchError",
    "Scalar",
    "SmoothnessReport",
    "TrivialContainment",
    "basis_time_limit",
    "check_condition_iv",
    "degree_sequence",
    "differential_at",
    "evaluate",
    "field_from_tag",
    "ideal_equal",
    "ideal_member",
    "input_fingerprint",
    "kernel_basis",
    "linear_relation_polys",
    "normal_form",
    "parse_certificate",
    "parse_ideal_file",
    "parse_polynomial",
    "projective_dimension",
    "rank",
    "reduce_to_ci",
    "reduced_groebner",
    "seq_succ",
    "serialize_certificate",
    "smoothness_check",
    "subst_step",
    "trivially_contains",
    "truncated_generators",
    "verify_certificate",
]
