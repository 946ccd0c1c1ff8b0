"""Independent brute-force oracles built on degree-by-degree linear algebra.

Nothing here touches the package's Groebner or elimination code: ranks come
from a local row reduction, kernels from a local reduced row-echelon form, and
ideal slices are spanned the naive way, by multiplying generators with every
monomial of the complementary degree.  Division is the textbook loop that
rescans for the leading monomial.
"""

from __future__ import annotations

from itertools import product


def degree_monomials(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, deterministic order."""
    return [
        exps
        for exps in product(range(degree + 1), repeat=num_vars)
        if sum(exps) == degree
    ]


def row_reduce_rank(rows: list[list]) -> int:
    """Rank by plain Gaussian elimination, first nonzero pivot."""
    rows = [list(r) for r in rows]
    rank = 0
    cols = len(rows[0]) if rows else 0
    for col in range(cols):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        lead = rows[rank][col]
        for r in range(rank + 1, len(rows)):
            if rows[r][col]:
                factor = rows[r][col] / lead
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_kernel_basis(matrix) -> list[tuple]:
    """Canonical right null space basis of an `ExactMatrix`, by Gauss-Jordan.

    One vector per free column of the reduced row-echelon form, ascending:
    1 in the free column, minus the free column's entry of each pivot row
    at that row's pivot column, zeros elsewhere.
    """
    field = matrix.field
    rows = [list(r) for r in matrix.rows]
    pivots: list[int] = []
    for col in range(matrix.cols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        inv = field.one / rows[top][col]
        rows[top] = [v * inv for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    basis = []
    for free in range(matrix.cols):
        if free in pivots:
            continue
        v = [field.zero] * matrix.cols
        v[free] = field.one
        for i, p in enumerate(pivots):
            if rows[i][free]:
                v[p] = -rows[i][free]
        basis.append(tuple(v))
    return basis


def _slice_rows(gens, num_vars: int, degree: int, *, min_cofactor_degree: int):
    """Row vectors spanning the chosen degree slice.

    Each generator of degree dg contributes one row per monomial cofactor of
    degree ``degree - dg`` (at least ``min_cofactor_degree``).
    """
    columns = {m: i for i, m in enumerate(degree_monomials(num_vars, degree))}
    rows = []
    for g in gens:
        degrees = {sum(e) for e in g.terms}
        assert len(degrees) == 1, "oracle expects nonzero homogeneous generators"
        shift_degree = degree - degrees.pop()
        if shift_degree < min_cofactor_degree:
            continue
        for shift in degree_monomials(num_vars, shift_degree):
            row = [0] * len(columns)
            for exps, coeff in g.terms.items():
                product_exps = tuple(a + b for a, b in zip(shift, exps))
                row[columns[product_exps]] = coeff
            rows.append(row)
    return rows


def ideal_slice_dim(gens, num_vars: int, degree: int) -> int:
    """Dimension of the degree-``degree`` piece of the ideal the gens span."""
    return row_reduce_rank(_slice_rows(gens, num_vars, degree, min_cofactor_degree=0))


def minimal_generator_count_at(gens, num_vars: int, degree: int) -> int:
    """Number of degree-``degree`` elements in a minimal generating set.

    dim I_d minus the dimension of the span of (positive-degree monomial) x
    (lower-degree generator pieces), i.e. of S_1 * I_{d-1}.
    """
    full = ideal_slice_dim(gens, num_vars, degree)
    shifted = row_reduce_rank(
        _slice_rows(gens, num_vars, degree, min_cofactor_degree=1)
    )
    return full - shifted


def minimal_generator_total(gens, num_vars: int) -> int:
    """Total size of a minimal homogeneous generating set.

    The ideal is generated in degrees up to its largest generator degree, so
    higher degrees contribute nothing.
    """
    top = max(max(sum(e) for e in g.terms) for g in gens)
    return sum(
        minimal_generator_count_at(gens, num_vars, d) for d in range(1, top + 1)
    )


def _grevlex_greatest(monomials):
    """Greatest exponent tuple in grevlex with T_0 > T_1 > ... > T_N."""
    return max(monomials, key=lambda e: (sum(e), tuple(-x for x in reversed(e))))


def reference_division(dividend: dict, divisors: list[dict]):
    """Multivariate division on term maps: (quotient maps, remainder map).

    Each step rescans the work polynomial for its grevlex-greatest monomial
    and cancels it with the first divisor whose leading monomial divides it,
    or moves it to the remainder.
    """
    leads = [_grevlex_greatest(g) for g in divisors]
    work = dict(dividend)
    quotients = [{} for _ in divisors]
    remainder = {}
    while work:
        lm = _grevlex_greatest(work)
        lc = work[lm]
        for g, glm, q in zip(divisors, leads, quotients):
            if all(a <= b for a, b in zip(glm, lm)):
                shift = tuple(a - b for a, b in zip(lm, glm))
                factor = lc / g[glm]
                q[shift] = factor if shift not in q else q[shift] + factor
                for e, c in g.items():
                    m = tuple(a + b for a, b in zip(shift, e))
                    value = -factor * c if m not in work else work[m] - factor * c
                    if value:
                        work[m] = value
                    else:
                        del work[m]
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return quotients, remainder
