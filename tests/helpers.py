"""Small checking helpers the tests share; the package itself has no use for them."""

from __future__ import annotations

from ciforge.poly import integral_differential


def leading_coefficient(p):
    """Coefficient of the grevlex leading monomial of a nonzero polynomial."""
    return p.terms[p.lead]


def expand(record, divisors):
    """Reassemble a division's dividend: sum(q_i * divisor_i) + remainder."""
    total = record.remainder
    for q, d in zip(record.quotients, divisors):
        total = total + q * d
    return total


def multiply_vector(matrix, v):
    """The product of an `ExactMatrix` with a column vector."""
    field = matrix.field
    out = []
    for row in matrix.rows:
        total = field.zero
        for a, b in zip(row, v):
            total = field.add(total, field.mul(a, b))
        out.append(total)
    return tuple(out)


def differentials(system, x):
    """The columns `subst_step` reads: each generator's differential at
    ``x``, as integers over a scale."""
    return [integral_differential(g, x) for g in system.gens]
