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
    "basis_time_limit",
    "BuchbergerTimeout",
    "Certificate",
    "CertificateMismatchError",
    "check_condition_iv",
    "CICertificate",
    "degree_sequence",
    "DegreeSequence",
    "differential_at",
    "evaluate",
    "ExactMatrix",
    "Field",
    "field_from_tag",
    "GeneratorSystem",
    "GroebnerBasis",
    "Ideal",
    "ideal_equal",
    "ideal_member",
    "IdealFile",
    "ImproperIdealError",
    "input_fingerprint",
    "kernel_basis",
    "linear_relation_polys",
    "NonCICertificate",
    "normal_form",
    "NotHomogeneousError",
    "NotInIdealError",
    "NotSmoothError",
    "parse_certificate",
    "parse_ideal_file",
    "parse_polynomial",
    "ParseError",
    "PointNotOnVarietyError",
    "Polynomial",
    "PolynomialRing",
    "PrimeField",
    "projective_dimension",
    "ProjectivePoint",
    "QQ",
    "QuotientRecord",
    "rank",
    "RationalField",
    "reduce_to_ci",
    "reduced_groebner",
    "Removed",
    "Replaced",
    "RewriteOutcome",
    "RingMismatchError",
    "Scalar",
    "seq_succ",
    "serialize_certificate",
    "smoothness_check",
    "SmoothnessReport",
    "subst_step",
    "TrivialContainment",
    "trivially_contains",
    "truncated_generators",
    "verify_certificate",
]
