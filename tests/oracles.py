"""Independent brute-force oracles built on degree-by-degree linear algebra.

Nothing here touches the package's Groebner or elimination code: ranks come
from a local row reduction, kernels from a local reduced row-echelon form, and
ideal slices are spanned the naive way, by multiplying generators with every
monomial of the complementary degree.  Division is the textbook loop that
rescans for the leading monomial.  The rewrite step is the one first written,
which also searched the top-degree block for a linear relation among the
generators as polynomials.  Membership cofactors come from Buchberger's
algorithm with the eager transcript first written, on that textbook division.

Scalar arithmetic uses the field's own operations (``field.add``, ``mul``,
``div`` ...), which `tests/test_fields.py` checks against ``Fraction``
arithmetic; they call no division, elimination or rewrite code.
"""

from __future__ import annotations

import heapq
from itertools import product

from ciforge import (
    ExactMatrix,
    Independent,
    PointNotOnVarietyError,
    Polynomial,
    QuotientRecord,
    Removed,
    Replaced,
    differential_at,
    evaluate,
    homogeneous_degree,
)
from ciforge.poly import distinct_nonzero


def degree_monomials(num_vars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, deterministic order."""
    return [
        exps
        for exps in product(range(degree + 1), repeat=num_vars)
        if sum(exps) == degree
    ]


def row_reduce_rank(rows: list[list], field) -> int:
    """Rank by plain Gaussian elimination over ``field``, first nonzero pivot."""
    sub, mul, div = field.sub, field.mul, field.div
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
                factor = div(rows[r][col], lead)
                rows[r] = [sub(a, mul(factor, b)) for a, b in zip(rows[r], rows[rank])]
        rank += 1
    return rank


def reference_kernel_basis(matrix) -> list[tuple]:
    """Canonical right null space basis of an `ExactMatrix`, by Gauss-Jordan.

    One vector per free column of the reduced row-echelon form, ascending:
    1 in the free column, minus the free column's entry of each pivot row
    at that row's pivot column, zeros elsewhere.
    """
    field = matrix.field
    sub, mul = field.sub, field.mul
    rows = [list(r) for r in matrix.rows]
    pivots: list[int] = []
    for col in range(matrix.cols):
        top = len(pivots)
        pivot = next((r for r in range(top, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[top], rows[pivot] = rows[pivot], rows[top]
        inv = field.div(field.one, rows[top][col])
        rows[top] = [mul(v, inv) for v in rows[top]]
        for r in range(len(rows)):
            if r != top and rows[r][col]:
                factor = rows[r][col]
                rows[r] = [sub(a, mul(factor, b)) for a, b in zip(rows[r], rows[top])]
        pivots.append(col)
    basis = []
    for free in range(matrix.cols):
        if free in pivots:
            continue
        v = [field.zero] * matrix.cols
        v[free] = field.one
        for i, p in enumerate(pivots):
            if rows[i][free]:
                v[p] = field.neg(rows[i][free])
        basis.append(tuple(v))
    return basis


def _slice_rows(gens, field, num_vars: int, degree: int, *, min_cofactor_degree: int):
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
            row = [field.zero] * len(columns)
            for exps, coeff in g.terms.items():
                product_exps = tuple(a + b for a, b in zip(shift, exps))
                row[columns[product_exps]] = coeff
            rows.append(row)
    return rows


def ideal_slice_dim(gens, num_vars: int, degree: int) -> int:
    """Dimension of the degree-``degree`` piece of the ideal the gens span."""
    field = gens[0].ring.field
    rows = _slice_rows(gens, field, num_vars, degree, min_cofactor_degree=0)
    return row_reduce_rank(rows, field)


def minimal_generator_count_at(gens, num_vars: int, degree: int) -> int:
    """Number of degree-``degree`` elements in a minimal generating set.

    dim I_d minus the dimension of the span of (positive-degree monomial) x
    (lower-degree generator pieces), i.e. of S_1 * I_{d-1}.
    """
    field = gens[0].ring.field
    full = ideal_slice_dim(gens, num_vars, degree)
    shifted = row_reduce_rank(
        _slice_rows(gens, field, num_vars, degree, min_cofactor_degree=1), field
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


def reference_division(dividend: dict, divisors: list[dict], field):
    """Multivariate division on term maps over ``field``: (quotient maps,
    remainder map).

    Each step rescans the work polynomial for its grevlex-greatest monomial
    and cancels it with the first divisor whose leading monomial divides it,
    or moves it to the remainder.
    """
    add, sub, mul = field.add, field.sub, field.mul
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
                factor = field.div(lc, g[glm])
                q[shift] = factor if shift not in q else add(q[shift], factor)
                for e, c in g.items():
                    m = tuple(a + b for a, b in zip(shift, e))
                    value = sub(work.get(m, field.zero), mul(factor, c))
                    if value:
                        work[m] = value
                    else:
                        del work[m]
                break
        else:
            remainder[lm] = lc
            del work[lm]
    return quotients, remainder


def _divide(f, divisors):
    """`reference_division` on polynomials: (quotients, remainder)."""
    ring = f.ring
    quotients, remainder = reference_division(
        dict(f.terms), [dict(g.terms) for g in divisors], ring.field
    )
    return [Polynomial(ring, q) for q in quotients], Polynomial(ring, remainder)


def _divides(a, b):
    return all(x <= y for x, y in zip(a, b))


def reference_cofactors(f, gens):
    """Membership of ``f`` in the ideal of ``gens`` as first written: a
    `QuotientRecord` whose quotients are cofactors over ``gens``.

    Buchberger's algorithm runs the pairs in the package's order, with its
    coprime and chain criteria, and keeps an eager transcript: every basis
    entry carries its full list of cofactors over ``gens``, updated at each
    S-pair remainder, made monic and tail-reduced with its element.  The
    quotients of ``f`` against the reduced basis are then expanded through
    those lists.
    """
    ring = f.ring
    field = ring.field
    zero = ring.zero()
    basis, reps = [], []
    for position, g in distinct_nonzero(gens):
        rep = [zero] * len(gens)
        rep[position] = ring.one()
        basis.append(g)
        reps.append(rep)
    lms = [_grevlex_greatest(g.terms) for g in basis]

    def lcm(i, j):
        return tuple(max(a, b) for a, b in zip(lms[i], lms[j]))

    queue = [(sum(lcm(i, j)), (j, i), i, j) for j in range(len(basis)) for i in range(j)]
    heapq.heapify(queue)
    pending = {frozenset((i, j)) for _, _, i, j in queue}
    while queue:
        _, _, i, j = heapq.heappop(queue)
        pending.discard(frozenset((i, j)))
        m = lcm(i, j)
        if m == tuple(a + b for a, b in zip(lms[i], lms[j])):
            continue
        if any(
            k not in (i, j)
            and _divides(lms[k], m)
            and frozenset((i, k)) not in pending
            and frozenset((j, k)) not in pending
            for k in range(len(basis))
        ):
            continue
        mono_i, mono_j = (
            ring.monomial(
                tuple(a - b for a, b in zip(m, lms[k])),
                field.div(field.one, basis[k].terms[lms[k]]),
            )
            for k in (i, j)
        )
        quotients, remainder = _divide(basis[i] * mono_i - basis[j] * mono_j, basis)
        if remainder.is_zero():
            continue
        rep = [mono_i * a - mono_j * b for a, b in zip(reps[i], reps[j])]
        for q, other in zip(quotients, reps):
            rep = [r - q * o for r, o in zip(rep, other)]
        new = len(basis)
        basis.append(remainder)
        reps.append(rep)
        lms.append(_grevlex_greatest(remainder.terms))
        for k in range(new):
            heapq.heappush(queue, (sum(lcm(k, new)), (new, k), k, new))
            pending.add(frozenset((k, new)))

    keep = [
        i
        for i in range(len(basis))
        if not any(
            k != i and _divides(lms[k], lms[i]) and (lms[k] != lms[i] or k < i)
            for k in range(len(basis))
        )
    ]
    keep.sort(key=lambda i: (sum(lms[i]), tuple(-e for e in reversed(lms[i]))))
    final, final_reps = [], []
    for i in keep:
        inv = field.div(field.one, basis[i].terms[lms[i]])
        final.append(basis[i] * inv)
        final_reps.append([r * inv for r in reps[i]])
    for pos in range(len(final)):
        others = final[:pos] + final[pos + 1 :]
        quotients, final[pos] = _divide(final[pos], others)
        for q, other in zip(quotients, final_reps[:pos] + final_reps[pos + 1 :]):
            final_reps[pos] = [r - q * o for r, o in zip(final_reps[pos], other)]

    quotients, remainder = _divide(f, final)
    cofactors = [zero] * len(gens)
    for q, rep in zip(quotients, final_reps):
        cofactors = [c + q * r for c, r in zip(cofactors, rep)]
    return QuotientRecord(tuple(cofactors), remainder)


def _first_kernel_vector(matrix):
    basis = reference_kernel_basis(matrix)
    return basis[0] if basis else None


def _removed_record(system, index, combination):
    zero = system.ring.zero()
    quotients = tuple(
        combination.get(i, zero) for i in range(len(system.gens)) if i != index
    )
    return QuotientRecord(quotients, zero)


def reference_subst_step(system, x):
    """One rewrite step as first written, on a `GeneratorSystem`.

    Takes the first canonical kernel vector of the differentials at ``x``.
    If the top-degree generators of its support are linearly dependent as
    polynomials, the last one that relation touches is removed.  Otherwise
    the relation is lifted to the top degree by powers of the pivot
    coordinate; a zero lift removes the highest-index top-degree generator,
    a nonzero one replaces it.
    """
    for i, g in enumerate(system.gens):
        if evaluate(g, x):
            raise PointNotOnVarietyError(f"generator {i} does not vanish at {x}")
    ring = system.ring
    field = ring.field
    differentials = [differential_at(g, x) for g in system.gens]
    jacobian = ExactMatrix(field, tuple(zip(*differentials)), len(differentials))
    relation = _first_kernel_vector(jacobian)
    if relation is None:
        return Independent()
    support = [i for i, c in enumerate(relation) if c]
    degrees = [homogeneous_degree(g) for g in system.gens]
    top_degree = max(degrees[i] for i in support)
    top = [i for i in support if degrees[i] == top_degree]

    monomials = sorted({e for i in top for e in system.gens[i].terms})
    block = ExactMatrix(
        field,
        tuple(
            tuple(system.gens[i].terms.get(m, field.zero) for i in top)
            for m in monomials
        ),
        len(top),
    )
    block_relation = _first_kernel_vector(block)
    if block_relation is not None:
        last = max(i for i, c in zip(top, block_relation) if c)
        pivot_coeff = block_relation[top.index(last)]
        combination = {
            i: ring.constant(field.neg(field.div(c, pivot_coeff)))
            for i, c in zip(top, block_relation)
            if c and i != last
        }
        return Removed(last, _removed_record(system, last, combination))

    k = x.pivot
    inv_xk = field.div(field.one, x.coords[k])
    cofactors = {}
    for i in support:
        lift = top_degree - degrees[i]
        cofactors[i] = ring.monomial(
            tuple(lift if j == k else 0 for j in range(ring.num_vars)),
            field.mul(relation[i], field.pow(inv_xk, lift)),
        )
    combined = ring.zero()
    for i in support:
        combined = combined + cofactors[i] * system.gens[i]
    assert not any(differential_at(combined, x))

    j = max(top)
    if combined.is_zero():
        scale = field.div(field.one, field.neg(relation[j]))
        others = {i: cofactors[i] * scale for i in support if i != j}
        return Removed(j, _removed_record(system, j, others))
    full_relation = tuple(
        relation[i] if i in support else field.zero for i in range(len(system.gens))
    )
    full_cofactors = tuple(cofactors.get(i, ring.zero()) for i in range(len(system.gens)))
    return Replaced(j, combined, full_relation, full_cofactors)
