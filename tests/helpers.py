"""Small checking helpers the tests share; the package itself has no use for them."""

from __future__ import annotations


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
    zero = matrix.field.zero
    return tuple(sum((a * b for a, b in zip(row, v)), zero) for row in matrix.rows)
