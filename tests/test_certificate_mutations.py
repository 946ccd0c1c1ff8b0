"""Every single-field change to a corpus certificate is caught.

The certificate of each golden case (CI and non-CI, over Q and F_32003),
and of two inputs that already have codimension size and so take no
rewrite step, is mutated one field at a time: the witness, each
truncated-basis element, the remainder, the codimension and each final
generator.  `verify` must answer `verified: no` (exit 3) or refuse the file
as a parse error (exit 1), with nothing else on stdout; it never fails a
precondition (exit 2) or raises.  A mutant that is still a valid
certificate, such as a rescaled final generator, must verify; which ones
those are is decided by `oracles.reference_certificate_valid`, from slices
alone.
"""

from __future__ import annotations

import json

import pytest

from ciforge import ParseError, field_from_tag, parse_polynomial
from ciforge.cli import run_command

from corpus import FERMAT_CUBIC, QUADRIC_HYPERSURFACE
from oracles import reference_certificate_valid
from test_golden_certificates import CASES as GOLDEN_CASES, ideal_text

# name -> (corpus entry, field override or None)
CASES = {
    **GOLDEN_CASES,
    "hypersurface-q": (QUADRIC_HYPERSURFACE, None),
    "fermat-fp": (FERMAT_CUBIC, "fp:32003"),
}


def _raised(p, ring, power):
    """``p`` times T0^power."""
    return p * ring.monomial((power,) + (0,) * (ring.num_vars - 1))


def _polynomial_variants(p, ring, others):
    """(label, text) for each change to the polynomial ``p``; ``others`` are
    the polynomials a combination may draw on."""
    d = p.degree
    yield "scaled", str(p * 2)
    yield "zero", "0"
    yield "constant", "1"
    yield "non-homogeneous", str(p + _raised(ring.one(), ring, d + 1))
    yield "plus-T0^d", str(p + _raised(ring.one(), ring, d))
    yield "times-T0", str(_raised(p, ring, 1))
    for k, q in enumerate(others):
        lift = d - q.degree
        if lift >= 0:
            yield f"plus-{k}", str(p + _raised(q, ring, lift))
        else:
            yield f"plus-{k}", str(_raised(p, ring, -lift) + q)


def mutants(data: dict, ring, gens):
    """(label, certificate data) for each single-field change to ``data``."""
    for step in (1, -1):
        yield f"codim{step:+d}", {**data, "codim": data["codim"] + step}

    def listed(key):
        texts = data[key]
        polys = [parse_polynomial(s, ring) for s in texts]
        for i, p in enumerate(polys):
            others = polys[:i] + polys[i + 1 :]
            for label, text in _polynomial_variants(p, ring, others):
                changed = texts[:i] + [text] + texts[i + 1 :]
                yield f"{key}[{i}]-{label}", {**data, key: changed}
            yield f"{key}[{i}]-dropped", {**data, key: texts[:i] + texts[i + 1 :]}

    if data["kind"] == "ci":
        yield from listed("final_gens")
        return
    yield from listed("truncated_basis")
    yield "truncated_basis-extended", {
        **data,
        "truncated_basis": data["truncated_basis"] + ["T0"],
    }
    for key in ("witness", "remainder"):
        p = parse_polynomial(data[key], ring)
        for label, text in _polynomial_variants(p, ring, gens[:1]):
            yield f"{key}-{label}", {**data, key: text}


@pytest.mark.parametrize("name", sorted(CASES))
def test_every_mutant_is_refuted_unless_still_valid(tmp_path, capsys, name):
    entry, field_tag = CASES[name]
    entry = entry.over(field_from_tag(field_tag or "q"))
    gens, point = entry.system.gens, entry.point
    ideal = tmp_path / f"{name}.ideal"
    ideal.write_text(ideal_text(entry), encoding="utf-8")
    cert = tmp_path / f"{name}.cert.json"
    override = [] if field_tag is None else ["--field", field_tag]
    assert run_command(["decide", str(ideal), "--out", str(cert), *override]) in (0, 3)
    capsys.readouterr()
    data = json.loads(cert.read_text(encoding="utf-8"))
    assert reference_certificate_valid(data, gens, point, entry.codim)

    argv = ["verify", str(ideal), "--cert", str(cert), *override]
    wrong = []
    for label, mutant in mutants(data, entry.ring, gens):
        assert mutant != data, label
        cert.write_text(json.dumps(mutant), encoding="utf-8")
        code = run_command(argv)
        out = capsys.readouterr().out
        try:
            valid = reference_certificate_valid(mutant, gens, point, entry.codim)
        except ParseError:
            valid = False
        allowed = [(0, "verified: yes\n")] if valid else [(3, "verified: no\n"), (1, "")]
        if (code, out) not in allowed:
            wrong.append((label, code, out, valid))
    assert not wrong
