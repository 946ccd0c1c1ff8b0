"""Certificate serialization: determinism, round-trips, format guards."""

from __future__ import annotations

import json

import pytest

from ciforge import (
    GeneratorSystem,
    ParseError,
    ProjectivePoint,
    QQ,
    parse_certificate,
    parse_polynomial,
    reduce_to_ci,
    serialize_certificate,
)
from ciforge.certificates import input_fingerprint


@pytest.fixture
def ci_cert(p3, ones):
    system = GeneratorSystem.from_polynomials(
        [
            parse_polynomial("T0 - T1", p3),
            parse_polynomial("T0*T3 - T1*T2", p3),
            parse_polynomial("T0*T2 + T0*T3 - 2*T1*T2", p3),
        ],
        p3,
    )
    return reduce_to_ci(system, ones)


@pytest.fixture
def nonci_cert(twisted_cubic_system, ones):
    return reduce_to_ci(twisted_cubic_system, ones)


def test_round_trip_is_identity(ci_cert, nonci_cert):
    for cert in (ci_cert, nonci_cert):
        blob = serialize_certificate(cert)
        again = parse_certificate(blob)
        assert again == cert
        assert serialize_certificate(again) == blob


def test_serialization_is_deterministic(twisted_cubic_system, ones):
    a = serialize_certificate(reduce_to_ci(twisted_cubic_system, ones))
    b = serialize_certificate(reduce_to_ci(twisted_cubic_system, ones))
    assert a == b


def test_payload_shape(nonci_cert):
    data = json.loads(serialize_certificate(nonci_cert))
    assert data["format_version"] == 2
    assert data["kind"] == "non-ci"
    assert data["field"] == "q"
    assert data["point"] == ["1", "1", "1", "1"]
    assert "trace" not in data
    assert "witness" in data


def test_unknown_version_rejected(nonci_cert):
    data = json.loads(serialize_certificate(nonci_cert))
    data["format_version"] = 99
    with pytest.raises(ParseError, match="format version"):
        parse_certificate(json.dumps(data))


def test_bad_json_rejected():
    with pytest.raises(ParseError):
        parse_certificate("{not json")
    with pytest.raises(ParseError):
        parse_certificate('"a string"')


def test_missing_field_rejected(ci_cert):
    data = json.loads(serialize_certificate(ci_cert))
    del data["final_gens"]
    with pytest.raises(ParseError, match="final_gens"):
        parse_certificate(json.dumps(data))


def test_unknown_kind_rejected(ci_cert):
    data = json.loads(serialize_certificate(ci_cert))
    data["kind"] = "maybe"
    with pytest.raises(ParseError, match="kind"):
        parse_certificate(json.dumps(data))


class TestFingerprint:
    def test_binds_the_point(self, p3, twisted_cubic):
        ones = ProjectivePoint(tuple(QQ.scalar(1) for _ in range(4)))
        other = ProjectivePoint(
            (QQ.scalar(2), QQ.scalar(1), QQ.scalar(1), QQ.scalar(1))
        )
        gens = list(twisted_cubic)
        assert input_fingerprint(p3, gens, ones) != input_fingerprint(p3, gens, other)

    def test_binds_generator_order(self, p3, twisted_cubic, ones):
        gens = list(twisted_cubic)
        assert input_fingerprint(p3, gens, ones) != input_fingerprint(
            p3, gens[::-1], ones
        )

    def test_stable_across_calls(self, p3, twisted_cubic, ones):
        gens = list(twisted_cubic)
        assert input_fingerprint(p3, gens, ones) == input_fingerprint(p3, gens, ones)
