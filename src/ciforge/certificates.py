"""Decision certificates and their bit-exact JSON serialization.

A certificate is self-contained evidence for a decision: either a
codimension-sized generating set for the input ideal, or a nonzero ideal
member that is singular at the supplied point and not trivially contained.
Polynomials are stored in their canonical printed form and scalars as exact
strings, so identical inputs serialize to identical bytes.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Sequence

from .errors import ParseError
from .fields import field_from_tag
from .parse import parse_polynomial
from .poly import Polynomial, PolynomialRing, ProjectivePoint

FORMAT_VERSION = 2


def input_fingerprint(
    ring: PolynomialRing, gens: Sequence[Polynomial], point: ProjectivePoint
) -> str:
    """Hash binding a certificate to its exact input: field, variables,
    generator list (in order), and the supplied homogeneous coordinates."""
    payload = {
        "field": ring.field.tag,
        "vars": list(ring.var_names),
        "gens": [str(g) for g in gens],
        "point": [str(c) for c in point.coords],
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass(frozen=True)
class CICertificate:
    """The input ideal is generated by exactly ``codim`` elements."""

    input_hash: str
    field_tag: str
    var_names: tuple[str, ...]
    codim: int
    final_gens: tuple[Polynomial, ...]


@dataclass(frozen=True)
class NonCICertificate:
    """A witness refutes the reduction: it lies in the ideal, has vanishing
    differential at ``point``, and is not trivially contained.

    ``truncated_basis`` and ``remainder`` document the failed containment
    test: the witness leaves that nonzero remainder against the generators of
    the below-degree part of the ideal.
    """

    input_hash: str
    field_tag: str
    var_names: tuple[str, ...]
    codim: int
    witness: Polynomial
    point: ProjectivePoint
    truncated_basis: tuple[Polynomial, ...]
    remainder: Polynomial


Certificate = CICertificate | NonCICertificate


def serialize_certificate(cert: Certificate) -> str:
    data: dict = {
        "format_version": FORMAT_VERSION,
        "input_hash": cert.input_hash,
        "field": cert.field_tag,
        "vars": list(cert.var_names),
        "codim": cert.codim,
    }
    if isinstance(cert, CICertificate):
        data["kind"] = "ci"
        data["final_gens"] = [str(g) for g in cert.final_gens]
    else:
        data["kind"] = "non-ci"
        data["witness"] = str(cert.witness)
        data["point"] = [str(c) for c in cert.point.coords]
        data["truncated_basis"] = [str(g) for g in cert.truncated_basis]
        data["remainder"] = str(cert.remainder)
    return json.dumps(data, sort_keys=True, separators=(",", ":"))


def _checked(value: object, name: str, kind: type):
    """``value`` if it is a JSON ``kind`` (a bool is no int), else ParseError."""
    if not isinstance(value, kind) or isinstance(value, bool):
        raise ParseError(
            f"certificate field {name!r}: expected {kind.__name__}, "
            f"got {type(value).__name__}"
        )
    return value


def _items(value: object, name: str, kind: type) -> list:
    return [_checked(v, name, kind) for v in _checked(value, name, list)]


def parse_certificate(text: str) -> Certificate:
    try:
        data = json.loads(text)
    except (ValueError, RecursionError) as exc:
        # Besides malformed JSON: an integer with more digits than Python
        # converts, or nesting deeper than the interpreter's stack.
        raise ParseError(f"certificate is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ParseError("certificate must be a JSON object")
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise ParseError(f"unsupported certificate format version {version!r}")

    def string(name: str) -> str:
        return _checked(data[name], name, str)

    def strings(name: str) -> list[str]:
        return _items(data[name], name, str)

    try:
        field = field_from_tag(string("field"))
        ring = PolynomialRing(field, tuple(strings("vars")))
        common = {
            "input_hash": string("input_hash"),
            "field_tag": field.tag,
            "var_names": ring.var_names,
            "codim": _checked(data["codim"], "codim", int),
        }
        if data["kind"] == "ci":
            return CICertificate(
                final_gens=tuple(parse_polynomial(s, ring) for s in strings("final_gens")),
                **common,
            )
        if data["kind"] == "non-ci":
            return NonCICertificate(
                witness=parse_polynomial(string("witness"), ring),
                point=ProjectivePoint(
                    tuple(field.scalar_from_str(c) for c in strings("point"))
                ),
                truncated_basis=tuple(
                    parse_polynomial(s, ring) for s in strings("truncated_basis")
                ),
                remainder=parse_polynomial(string("remainder"), ring),
                **common,
            )
        raise ParseError(f"unknown certificate kind {data['kind']!r}")
    except KeyError as exc:
        raise ParseError(f"certificate is missing field {exc.args[0]!r}") from exc
    except ParseError:
        raise
    except ValueError as exc:
        # A well-typed field whose value is out of range: repeated variable
        # names or an all-zero point.
        raise ParseError(f"malformed certificate: {exc}") from exc
