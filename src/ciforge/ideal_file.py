"""The line-oriented ``.ideal`` input format.

    # K3-ish example
    field: q
    vars: T0 T1 T2 T3
    point: 1 1 1 1
    gens:
    T0*T2 - T1^2
    T1*T3 - T2^2

Sections appear in that fixed order; ``point:`` is optional; ``#`` starts a
comment; at least one generator is required.  The field line also accepts
``fp 7919`` / ``fp:7919`` for prime fields.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .errors import ParseError
from .fields import field_from_tag
from .parse import parse_polynomial
from .poly import Polynomial, PolynomialRing, ProjectivePoint


@dataclass(frozen=True)
class IdealFile:
    ring: PolynomialRing
    point: ProjectivePoint | None
    gens: tuple[Polynomial, ...]


def parse_ideal_file(
    text: str,
    *,
    field_override: str | None = None,
    point_override: str | None = None,
) -> IdealFile:
    """Parse ``.ideal`` content; overrides replace the file's field / point."""
    lines = [s for s in (line.split("#", 1)[0].strip() for line in text.splitlines()) if s]
    # Each section present takes the next line, so len(sections) lines are read.
    sections: dict[str, str] = {}
    for keyword in ("field", "vars", "point", "gens"):
        line = lines[len(sections)] if len(sections) < len(lines) else ""
        if line.startswith(keyword + ":"):
            sections[keyword] = line[len(keyword) + 1 :].strip()
    if "field" not in sections:
        raise ParseError("expected a 'field:' line first")
    if "vars" not in sections:
        raise ParseError("expected a 'vars:' line after 'field:'")
    if "gens" not in sections:
        raise ParseError("expected a 'gens:' line introducing the generators")
    gen_lines = lines[len(sections) :]
    if not gen_lines:
        raise ParseError("need at least one generator expression after 'gens:'")

    field = field_from_tag(sections["field"] if field_override is None else field_override)
    try:
        ring = PolynomialRing(field, tuple(sections["vars"].split()))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc

    if point_override is not None:
        point_words = [w for w in re.split(r"[,\s]+", point_override.strip()) if w]
    else:
        point_words = sections["point"].split() if "point" in sections else None
    point = None
    if point_words is not None:
        if len(point_words) != ring.num_vars:
            raise ParseError(
                f"point has {len(point_words)} coordinates, expected {ring.num_vars}"
            )
        coords = tuple(field.scalar_from_str(w) for w in point_words)
        try:
            point = ProjectivePoint(coords)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc

    return IdealFile(ring, point, tuple(parse_polynomial(g, ring) for g in gen_lines))
