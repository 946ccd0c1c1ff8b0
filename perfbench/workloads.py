"""Seeded generators for the benchmark's three instance families.

Each family builds `.ideal` texts from a seed alone, with plain integer
arithmetic on exponent maps, so the program under test sees only the files.
Every instance carries what its construction guarantees: the codimension,
whether the ideal is a complete intersection, and the planted smooth point.

Shapes are fixed per family and only coefficients come from the seed, so two
seeds give instances of the same size and the run-to-run spread stays small.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

Exponents = tuple[int, ...]
Poly = dict[Exponents, int]

PRIME = 32003


@dataclass(frozen=True)
class Instance:
    name: str
    field: str  # "q" or "fp:<p>"
    num_vars: int
    point: tuple[int, ...]
    gens: tuple[Poly, ...]
    codim: int
    expect_ci: bool

    def text(self) -> str:
        names = var_names(self.num_vars)
        lines = [
            f"# {self.name}",
            f"field: {self.field}",
            "vars: " + " ".join(names),
            "point: " + " ".join(str(c) for c in self.point),
            "gens:",
        ]
        lines.extend(format_poly(g, names) for g in self.gens)
        return "\n".join(lines) + "\n"


def var_names(n: int) -> tuple[str, ...]:
    return tuple(f"T{i}" for i in range(n))


def format_poly(p: Poly, names: tuple[str, ...]) -> str:
    pieces = []
    for exps in sorted(p, reverse=True):
        coeff = p[exps]
        factors = [n if e == 1 else f"{n}^{e}" for n, e in zip(names, exps) if e]
        body = "*".join([str(abs(coeff))] + factors)
        if pieces:
            pieces.append(("- " if coeff < 0 else "+ ") + body)
        else:
            pieces.append(("-" if coeff < 0 else "") + body)
    return " ".join(pieces)


def monomials(num_vars: int, degree: int) -> list[Exponents]:
    """Exponent tuples of one total degree, in a fixed order."""
    if num_vars == 1:
        return [(degree,)]
    out = []
    for first in range(degree, -1, -1):
        out.extend((first,) + rest for rest in monomials(num_vars - 1, degree - first))
    return out


def add_into(acc: Poly, p: Poly, scale: int = 1, modulus: int | None = None) -> None:
    for e, c in p.items():
        value = acc.get(e, 0) + scale * c
        if modulus is not None:
            value %= modulus
        if value:
            acc[e] = value
        else:
            acc.pop(e, None)


def mul(a: Poly, b: Poly, modulus: int | None = None) -> Poly:
    out: Poly = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            add_into(out, {tuple(x + y for x, y in zip(ea, eb)): ca * cb}, 1, modulus)
    return out


def _nonzero(rng: random.Random, bound: int) -> int:
    return rng.choice([c for c in range(-bound, bound + 1) if c])


def _sparse_form(rng: random.Random, support: list[Exponents], count: int) -> Poly:
    return {e: _nonzero(rng, 3) for e in rng.sample(support, min(count, len(support)))}


def _dense_form(rng: random.Random, support: list[Exponents]) -> Poly:
    return {e: _nonzero(rng, 3) for e in support}


def _instance_rng(seed: int, family: str, index: int) -> random.Random:
    return random.Random(f"{family}/{seed}/{index}")


# ---------------------------------------------------------------------------
# ci-descent-q: planted complete intersections over Q.

# (variables, degrees of the planted forms, degrees of the redundant combinations);
# the shape listed three times costs the middle of the mix, so the per-call
# medians fall inside one size.
CI_DESCENT_SHAPES = (
    (5, (2, 2, 2), (3, 3)),
    (6, (2, 2), (3, 3)),
    (7, (2, 2), (3, 3)),
    (7, (2, 2), (3, 3)),
    (6, (2, 2), (3, 4)),
    (5, (2, 2), (3, 3)),
    (7, (2, 2), (3, 4)),
    (6, (2, 3), (3, 3)),
    (7, (2, 2), (3, 3)),
)


def ci_descent_q(seed: int) -> list[Instance]:
    """f_i = a*T0^(d-1)*T_i + tail(T0-degree <= d-2), plus combinations sum r_i*f_i.

    At P = (1:0:...:0) every f_i vanishes and its differential is a*e_i, so
    the Jacobian has rank c there; random forms of this kind meet properly,
    so the ideal is a complete intersection of codimension c.  The tails use
    every allowed monomial: sparse tails give bases whose size swings by
    orders of magnitude between seeds, dense ones give one generic shape.
    """
    out = []
    for index, (n, degrees, combo_degrees) in enumerate(CI_DESCENT_SHAPES):
        rng = _instance_rng(seed, "ci-descent-q", index)
        forms = []
        for i, d in enumerate(degrees, start=1):
            lead = tuple(d - 1 if j == 0 else (1 if j == i else 0) for j in range(n))
            tail_support = [e for e in monomials(n, d) if e[0] <= d - 2]
            form = _dense_form(rng, tail_support)
            form[lead] = _nonzero(rng, 3)
            forms.append(form)
        combos = []
        for D in combo_degrees:
            combo: Poly = {}
            while not combo or combo in forms or combo in combos:
                combo = {}
                for f, d in zip(forms, degrees):
                    r = _sparse_form(rng, monomials(n, D - d), 2)
                    add_into(combo, mul(r, f))
            combos.append(combo)
        gens = forms + combos
        rng.shuffle(gens)
        out.append(
            Instance(
                name=f"ci-descent-q-{index}",
                field="q",
                num_vars=n,
                point=(1,) + (0,) * (n - 1),
                gens=tuple(gens),
                codim=len(degrees),
                expect_ci=True,
            )
        )
    return out


# ---------------------------------------------------------------------------
# nonci-curves-fp: rational normal curves over F_p in random coordinates.

# The repeated middle degree puts the per-call medians inside one size.
NONCI_DEGREES = (3, 4, 4, 4, 4, 4, 5, 5)


def _unit_lower_triangular(rng: random.Random, size: int) -> list[list[int]]:
    """Entries below the diagonal are nonzero mod p, so the coordinates are
    generic: every seed gives bases of the same shape and the same work."""
    return [
        [1 if i == j else (rng.randrange(1, PRIME) if j < i else 0) for j in range(size)]
        for i in range(size)
    ]


def nonci_curves_fp(seed: int) -> list[Instance]:
    """2x2 minors of [[T0..T_{r-1}], [T1..T_r]] after T = L*T', L unit lower triangular.

    The curve point (1:2:...:2^r) is moved to L^-1 * (1, 2, ..., 2^r).  The
    ideal has codimension r-1 and r(r-1)/2 minimal quadrics, so for r >= 3 it
    is not a complete intersection.
    """
    out = []
    for index, r in enumerate(NONCI_DEGREES):
        rng = _instance_rng(seed, "nonci-curves-fp", index)
        size = r + 1
        lower = _unit_lower_triangular(rng, size)
        # T_i in the new coordinates is the linear form sum_j L[i][j] * T'_j.
        linear = [
            {tuple(1 if k == j else 0 for k in range(size)): lower[i][j] % PRIME
             for j in range(size) if lower[i][j] % PRIME}
            for i in range(size)
        ]
        gens = []
        for a in range(r):
            for b in range(a + 1, r):
                # T_a*T_{b+1} - T_{a+1}*T_b
                minor = mul(linear[a], linear[b + 1], PRIME)
                add_into(minor, mul(linear[a + 1], linear[b], PRIME), -1, PRIME)
                gens.append(minor)
        # The minors stay in their natural order: with generic coordinates the
        # computation then takes the same path for every seed.
        curve_point = [2**i for i in range(size)]
        # Forward substitution solves L * y = x exactly over the integers.
        point = []
        for i in range(size):
            point.append(curve_point[i] - sum(lower[i][j] * point[j] for j in range(i)))
        out.append(
            Instance(
                name=f"nonci-curves-fp-{index}",
                field=f"fp:{PRIME}",
                num_vars=size,
                point=tuple(c % PRIME for c in point),
                gens=tuple(gens),
                codim=r - 1,
                expect_ci=False,
            )
        )
    return out


# ---------------------------------------------------------------------------
# redundant-linear-q: linear forms plus many combinations of them.

# (variables, codimension, redundant combinations); the repeated middle shape
# puts the per-call medians inside one size.
REDUNDANT_LINEAR_SHAPES = (
    (9, 3, 25),
    (10, 5, 30),
    (10, 5, 30),
    (10, 5, 30),
    (10, 5, 30),
    (10, 5, 30),
    (12, 7, 40),
)


def redundant_linear_q(seed: int) -> list[Instance]:
    """c random linear forms in T1..Tn plus random Q-combinations of them.

    Every form uses every variable and every combination uses every planted
    form, so the amount of elimination work does not depend on the seed.  All
    forms vanish at (1:0:...:0) and the c planted ones are independent
    (checked), so the ideal is a complete intersection of codimension c whose
    decision removes every combination.
    """
    out = []
    for index, (n, c, extra) in enumerate(REDUNDANT_LINEAR_SHAPES):
        rng = _instance_rng(seed, "redundant-linear-q", index)
        units = [tuple(1 if k == j else 0 for k in range(n)) for j in range(1, n)]
        while True:
            forms = [_dense_form(rng, units) for _ in range(c)]
            if _rank([[f.get(u, 0) for u in units] for f in forms]) == c:
                break
        gens = list(forms)
        while len(gens) < c + extra:
            combo: Poly = {}
            for f in forms:
                add_into(combo, f, _nonzero(rng, 4))
            if combo and combo not in gens:
                gens.append(combo)
        rng.shuffle(gens)
        out.append(
            Instance(
                name=f"redundant-linear-q-{index}",
                field="q",
                num_vars=n,
                point=(1,) + (0,) * (n - 1),
                gens=tuple(gens),
                codim=c,
                expect_ci=True,
            )
        )
    return out


def _rank(rows: list[list[int]]) -> int:
    """Rank over Q by fraction-free elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col]:
                a, b = rows[rank][col], rows[i][col]
                rows[i] = [a * y - b * x for x, y in zip(rows[rank], rows[i])]
        rank += 1
    return rank


FAMILIES = {
    "ci-descent-q": ci_descent_q,
    "nonci-curves-fp": nonci_curves_fp,
    "redundant-linear-q": redundant_linear_q,
}
