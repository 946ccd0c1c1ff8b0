"""Complete-intersection decisions for homogeneous ideals, with certificates.

Typical use: build a ring and generator system, pick a smooth point of the
zero locus, and call :func:`reduce_to_ci`; the returned certificate can be
serialized, shipped, and re-checked with :func:`verify_certificate`.
"""

from .certificates import (
    Certificate,
    CICertificate,
    NonCICertificate,
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
    basis_time_limit,
)
from .fields import QQ, Field, PrimeField, RationalField, Scalar, field_from_tag
from .groebner import Ideal, QuotientRecord, normal_form, reduced_groebner
from .ideal_file import IdealFile, parse_ideal_file
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
    "Field",
    "field_from_tag",
    "GeneratorSystem",
    "Ideal",
    "IdealFile",
    "ImproperIdealError",
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
    "ProjectivePoint",
    "QQ",
    "QuotientRecord",
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
    "verify_certificate",
]
