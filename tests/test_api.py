"""The public API: what ``ciforge.__all__`` names, and which modules sit
below the basis computation."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import ciforge
from ciforge import errors, linalg, parse

PUBLIC = [
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


def test_all_names_resolve_once_in_case_insensitive_order():
    names = ciforge.__all__
    missing = [name for name in names if not hasattr(ciforge, name)]
    assert missing == []
    assert len(set(names)) == len(names)
    assert names == sorted(names, key=str.lower)


def test_all_is_exactly_the_public_list():
    assert ciforge.__all__ == PUBLIC


@pytest.mark.parametrize("module", [errors, linalg, parse], ids=lambda m: m.__name__)
def test_module_does_not_import_the_basis_computation(module):
    # Importing any submodule loads the whole package, so only the source
    # shows what a module itself depends on.
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
            if node.module is None:
                imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
    assert [name for name in imported if name.split(".")[-1] == "groebner"] == []
