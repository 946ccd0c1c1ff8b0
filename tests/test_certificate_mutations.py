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

The same single-field changes are made to the certificates of planted
determinantal ideals: twisted cubics, the 2x2 minors of a Hankel matrix of
random linear forms, some in a hyperplane of P^4.  Those are never complete
intersections, so they test the non-CI side on drawn inputs.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import Phase, assume, given, settings, strategies as st

from ciforge import (
    QQ,
    GeneratorSystem,
    Ideal,
    NonCICertificate,
    ParseError,
    PolynomialRing,
    PrimeField,
    ProjectivePoint,
    field_from_tag,
    parse_certificate,
    parse_polynomial,
    reduce_to_ci,
    serialize_certificate,
    smoothness_check,
    verify_certificate,
)
from ciforge.cli import run_command
from ciforge.linalg import ExactMatrix

from corpus import FERMAT_CUBIC, QUADRIC_HYPERSURFACE
from oracles import (
    minimal_generator_total,
    reference_certificate_valid,
    reference_kernel_basis,
)
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


def mutants(data: dict, ring, combined):
    """(label, certificate data) for each single-field change to ``data``;
    a witness or remainder may be combined with each of ``combined``."""
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
        for label, text in _polynomial_variants(p, ring, combined):
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
    for label, mutant in mutants(data, entry.ring, gens[:1]):
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


@st.composite
def planted_twisted_cubics(draw):
    """The 2x2 minors of [[l0, l1, l2], [l1, l2, l3]] for independent linear
    forms l_i over Q, F_7 or F_32003, at the preimage of (s^3, s^2 t, s t^2,
    t^3).  In P^4 a fifth form l4 is a generator too, and each minor gets a
    drawn multiple of l4 added, so the truncated basis is not empty and the
    remainder differs from the witness.  Scalar multiples, combinations and
    variable multiples of the generators may be added, in a drawn order, so
    that the loop removes some before it meets the witness."""
    field = draw(st.sampled_from([QQ, PrimeField(7), PrimeField(32003)]))
    n = draw(st.sampled_from([4, 5]))
    ring = PolynomialRing(field, tuple(f"T{i}" for i in range(n)))
    small = st.integers(-2, 2).map(field.scalar)
    row = st.lists(small, min_size=n, max_size=n)
    matrix = draw(st.lists(row, min_size=n, max_size=n))
    forms = [
        sum((ring.variable(j) * a for j, a in enumerate(row)), ring.zero()) for row in matrix
    ]
    l0, l1, l2, l3 = forms[:4]
    gens = [l0 * l2 - l1 * l1, l0 * l3 - l1 * l2, l1 * l3 - l2 * l2]
    if n == 5:
        l4 = forms[4]
        gens = [q + l4 * ring.variable(draw(st.integers(0, 4))) * draw(small) for q in gens]
        gens.append(l4)
    for _ in range(draw(st.integers(0, 2))):
        kind = draw(st.sampled_from(["multiple", "combination", "shift"]))
        g = draw(st.sampled_from(gens))
        if kind == "multiple":
            g = g * draw(small)
        elif kind == "combination":
            g = sum((h * draw(small) for h in gens if h.degree == g.degree), ring.zero())
        else:
            g = g * ring.variable(draw(st.integers(0, n - 1)))
        gens.append(g)
    gens = draw(st.permutations(gens))

    pairs = [(s, t) for s in range(-3, 4) for t in range(-3, 4) if s or t]
    s, t = map(field.scalar, draw(st.sampled_from(pairs)))
    mul = field.mul
    image = [mul(mul(s, s), s), mul(mul(s, s), t), mul(mul(s, t), t), mul(mul(t, t), t)]
    image += [field.zero] * (n - 4)
    # The forms are independent exactly when the only kernel vector of
    # [matrix | image] is the one of its last column, and that vector holds
    # minus the preimage.
    kernel = reference_kernel_basis(
        ExactMatrix(field, tuple(row + [v] for row, v in zip(matrix, image)), n + 1)
    )
    assume(len(kernel) == 1 and kernel[0][n] == field.one)
    x = ProjectivePoint(tuple(field.neg(c) for c in kernel[0][:n]))
    return GeneratorSystem.from_polynomials(gens, ring), x


class TestPlantedDeterminantal:
    """A planted twisted cubic is decided non-CI, which the minimal-generator
    count confirms, and its certificate verifies; every change to it is
    refuted unless still valid, a witness or remainder combined with any
    input generator."""

    # Each draw checks about 25 certificates twice, so shrinking a failing
    # draw would take minutes; the first failing draw is reported as found,
    # with the labels of the mutants judged wrongly.
    @settings(
        max_examples=20,
        deadline=None,
        phases=(Phase.explicit, Phase.reuse, Phase.generate, Phase.target),
    )
    @given(planted_twisted_cubics())
    def test_non_ci_certificate_and_its_mutants(self, case):
        system, x = case
        ring, gens = system.ring, system.gens
        codim = ring.num_vars - 2  # a curve
        report = smoothness_check(Ideal(gens, ring=ring), x)
        assert report.codim == codim
        assume(report.smooth)
        cert = reduce_to_ci(system, x)
        assert isinstance(cert, NonCICertificate)
        assert minimal_generator_total(gens, ring.num_vars) > codim
        assert verify_certificate(cert, system, x)
        data = json.loads(serialize_certificate(cert))
        assert reference_certificate_valid(data, gens, x, codim)

        wrong = []
        for label, mutant in mutants(data, ring, gens):
            assert mutant != data, label
            try:
                valid = reference_certificate_valid(mutant, gens, x, codim)
            except ParseError:
                valid = False
            try:
                verified = verify_certificate(parse_certificate(json.dumps(mutant)), system, x)
            except ParseError:
                verified = False
            if verified != valid:
                wrong.append((label, verified))
        assert not wrong
