"""Independent brute-force oracles built on degree-by-degree linear algebra.

Nothing here touches the package's Groebner or elimination code: ranks come
from a local row reduction, kernels from a local reduced row-echelon form, and
ideal slices are spanned the naive way, by multiplying generators with every
monomial of the complementary degree.  Division is the textbook loop that
rescans for the leading monomial.  The rewrite step is the one first written,
which also searched the top-degree block for a linear relation among the
generators as polynomials.  Membership cofactors come from Buchberger's
algorithm with an eager transcript, on that textbook division.
A polynomial's value and differential at a point come from the loops first
written, which multiply out every coordinate power of every term.
The expression parser is the one first written, which makes every number,
variable, power and product its own `Polynomial`; the printer is the one
first written, which compares each coefficient with zero and one and negates
it by the field's own operations.  The degree-sequence order
walks the degrees from the top, condition (iv) compares two ranks, and the
dimension scans every variable subset, each as first written.  The
certificate rules are checked on degree slices alone: a normal form is what
the slice's row-echelon form leaves of a polynomial, and the reduced basis
below a degree is read off the echelon rows whose pivots no lower pivot
divides.

Scalar arithmetic uses the field's own operations (``field.add``, ``mul``,
``div`` ...), which `tests/test_fields.py` checks against ``Fraction``
arithmetic; they call no division, elimination or rewrite code.
"""

from __future__ import annotations

import heapq
import re
from itertools import product

from ciforge import (
    ParseError,
    PointNotOnVarietyError,
    Polynomial,
    QuotientRecord,
    Removed,
    Replaced,
)
from ciforge.linalg import ExactMatrix


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


def _grevlex_ascending_key(exps):
    """Sorts exponent tuples in ascending grevlex with T_0 > T_1 > ... > T_N."""
    return (sum(exps), tuple(-x for x in reversed(exps)))


def _grevlex_greatest(monomials):
    """Greatest exponent tuple in grevlex."""
    return max(monomials, key=_grevlex_ascending_key)


def reference_evaluate(p, x):
    """Value of ``p`` at the coordinates of ``x``: every term's coefficient
    times every power of a coordinate, summed."""
    field = p.ring.field
    total = field.zero
    for exps, coeff in p.terms.items():
        value = coeff
        for c, e in zip(x.coords, exps):
            if e:
                value = field.mul(value, field.pow(c, e))
        total = field.add(total, value)
    return total


def reference_differential_at(p, x):
    """Every partial derivative of ``p`` at ``x``, each term differentiated
    by each variable it contains and multiplied out in full."""
    field = p.ring.field
    out = [field.zero] * p.ring.num_vars
    for exps, coeff in p.terms.items():
        for i, e in enumerate(exps):
            if e == 0:
                continue
            value = field.mul(coeff, e)
            for j, (c, ej) in enumerate(zip(x.coords, exps)):
                k = ej - 1 if j == i else ej
                if k:
                    value = field.mul(value, field.pow(c, k))
            out[i] = field.add(out[i], value)
    return tuple(out)


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
    """Membership of ``f`` in the ideal of ``gens`` with an eager transcript:
    a `QuotientRecord` whose quotients are cofactors over ``gens``.

    Buchberger's algorithm enters the generators and runs the pairs in the
    package's order, with its coprime and chain criteria, and every basis
    entry carries its full list of cofactors over ``gens``.  A nonzero
    generator enters in (degree, position) order, before the pairs of its
    degree, as its remainder on division by the basis so far, whose list is
    the unit row minus the quotients times the divisors' lists; a zero
    remainder enters nothing.  Each S-pair remainder gets its list the same
    way, and the lists are made monic and tail-reduced with their elements.
    The quotients of ``f`` against the reduced basis are then expanded
    through those lists.
    """
    ring = f.ring
    field = ring.field
    zero = ring.zero()
    basis, reps, lms = [], [], []
    queue, pending = [], set()

    def lcm(i, j):
        return tuple(max(a, b) for a, b in zip(lms[i], lms[j]))

    def enter(quotients, remainder, rep):
        for q, other in zip(quotients, reps):
            rep = [r - q * o for r, o in zip(rep, other)]
        new = len(basis)
        basis.append(remainder)
        reps.append(rep)
        lms.append(_grevlex_greatest(remainder.terms))
        for k in range(new):
            heapq.heappush(queue, (sum(lcm(k, new)), (new, k), k, new))
            pending.add(frozenset((k, new)))

    waiting = sorted(
        (sum(next(iter(g.terms))), position)
        for position, g in enumerate(gens)
        if not g.is_zero()
    )
    while waiting or queue:
        if waiting and (not queue or queue[0][0] >= waiting[0][0]):
            _, position = waiting.pop(0)
            quotients, remainder = _divide(gens[position], basis)
            if not remainder.is_zero():
                unit = [zero] * len(gens)
                unit[position] = ring.one()
                enter(quotients, remainder, unit)
            continue
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
        if not remainder.is_zero():
            rep = [mono_i * a - mono_j * b for a, b in zip(reps[i], reps[j])]
            enter(quotients, remainder, rep)

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
        if reference_evaluate(g, x):
            raise PointNotOnVarietyError(f"generator {i} does not vanish at {x}")
    ring = system.ring
    field = ring.field
    differentials = [reference_differential_at(g, x) for g in system.gens]
    jacobian = ExactMatrix(field, tuple(zip(*differentials)), len(differentials))
    relation = _first_kernel_vector(jacobian)
    if relation is None:
        return None
    support = [i for i, c in enumerate(relation) if c]
    degrees = [sum(next(iter(g.terms))) for g in system.gens]
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
    assert not any(reference_differential_at(combined, x))

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


def reference_seq_succ(delta, eta) -> bool:
    """The top-dominant order as first written, on raw count tuples: walk the
    degrees from the top, a missing entry reading as zero."""

    def entry(counts, degree):
        return counts[degree - 1] if degree <= len(counts) else 0

    for degree in range(max(len(delta), len(eta)), 0, -1):
        a, b = entry(delta, degree), entry(eta, degree)
        if a != b:
            return a > b
    return False


def reference_condition_iv(f, family, x) -> bool:
    """Condition (iv) as first written: d_x(f) lies in the span of the
    family's differentials exactly when appending it keeps the rank; an empty
    family spans nothing."""
    field = f.ring.field
    target = list(reference_differential_at(f, x))
    rows = [list(reference_differential_at(b, x)) for b in family]
    if not rows:
        return not any(target)
    return row_reduce_rank(rows + [target], field) == row_reduce_rank(rows, field)


def reference_dimension(leading_monomials, num_vars: int) -> int:
    """Projective dimension of a locus whose ideal has these leading monomials,
    as first written: the largest variable subset that contains no leading
    monomial's support, found by scanning all 2^n subsets, minus one."""
    masks = [sum(1 << i for i, e in enumerate(lm) if e) for lm in leading_monomials]
    best = 0
    for subset in range(1 << num_vars):
        size = subset.bit_count()
        if size > best and all(mask & ~subset for mask in masks):
            best = size
    return best - 1


_REFERENCE_TOKEN_RE = re.compile(
    r"""
    (?P<ws>\s+)
  | (?P<number>\d+(?:/\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z0-9_]*)
  | (?P<op>[-+*^()])
  | (?P<slash>/)
    """,
    re.VERBOSE,
)


def _reference_tokenize(text: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", pos)
        kind = m.lastgroup
        if kind == "slash":
            raise ParseError("division is not supported outside rational literals", pos)
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _ReferenceParser:
    """Recursive descent in which every node is a `Polynomial`: a power is
    repeated multiplication and a product a `Polynomial` product."""

    def __init__(self, text: str, ring):
        self.ring = ring
        self.tokens = _reference_tokenize(text)
        self.index = 0
        self.var_index = {name: i for i, name in enumerate(ring.var_names)}

    @property
    def current(self):
        return self.tokens[self.index]

    def advance(self):
        token = self.tokens[self.index]
        self.index += 1
        return token

    def is_op(self, ops: str) -> bool:
        kind, text, _ = self.current
        return kind == "op" and text in ops

    def parse(self) -> Polynomial:
        result = self.expression()
        kind, text, pos = self.current
        if kind != "end":
            raise ParseError(f"unexpected {text!r}", pos)
        return result

    def expression(self) -> Polynomial:
        negative = False
        if self.is_op("+-"):
            negative = self.advance()[1] == "-"
        result = self.term()
        if negative:
            result = -result
        while self.is_op("+-"):
            op = self.advance()[1]
            rhs = self.term()
            result = result - rhs if op == "-" else result + rhs
        return result

    def term(self) -> Polynomial:
        result = self.power()
        while self.is_op("*"):
            self.advance()
            result = result * self.power()
        return result

    def power(self) -> Polynomial:
        base = self.atom()
        if self.is_op("^"):
            self.advance()
            kind, text, pos = self.current
            if kind != "number" or "/" in text:
                raise ParseError("exponent must be a nonnegative integer", pos)
            self.advance()
            try:
                k = int(text)
            except ValueError:  # more digits than int() converts
                raise ParseError("exponent has too many digits", pos) from None
            result = self.ring.one()
            for _ in range(k):
                result = result * base
            return result
        return base

    def atom(self) -> Polynomial:
        kind, text, pos = self.current
        if kind == "number":
            self.advance()
            try:
                value = self.ring.field.scalar_from_str(text)
            except ParseError as exc:
                raise ParseError(str(exc), pos) from exc
            return self.ring.constant(value)
        if kind == "name":
            self.advance()
            index = self.var_index.get(text)
            if index is None:
                raise ParseError(f"unknown variable {text!r}", pos)
            return self.ring.variable(index)
        if self.is_op("("):
            self.advance()
            inner = self.expression()
            if not self.is_op(")"):
                raise ParseError("expected ')'", self.current[2])
            self.advance()
            return inner
        raise ParseError("expected a number, variable, or parenthesized expression", pos)


def reference_parse(text: str, ring) -> Polynomial:
    """``text`` parsed node by node, each node a `Polynomial`; raises
    `ParseError` with the same messages and positions as `parse_polynomial`."""
    return _ReferenceParser(text, ring).parse()


def reference_format_polynomial(p) -> str:
    """The canonical print form of ``p``, term by term in descending grevlex,
    each coefficient's sign and unit test taken by scalar comparisons."""
    if p.is_zero():
        return "0"
    field = p.ring.field
    pieces = []
    for exps in sorted(p.terms, key=_grevlex_ascending_key, reverse=True):
        coeff = p.terms[exps]
        factors = []
        for name, e in zip(p.ring.var_names, exps):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append(f"{name}^{e}")
        negative = coeff < 0  # only a rational can be
        magnitude = field.neg(coeff) if negative else coeff
        if not factors:
            body = str(magnitude)
        elif magnitude == field.one:
            body = "*".join(factors)
        else:
            body = str(magnitude) + "*" + "*".join(factors)
        if not pieces:
            pieces.append("-" + body if negative else body)
        else:
            pieces.append(("- " if negative else "+ ") + body)
    return " ".join(pieces)


def _degrees(p) -> set[int]:
    return {sum(e) for e in p.terms}


def _subtract_multiple(row: dict, factor, other: dict, field) -> dict:
    """row - factor * other on term maps."""
    row = dict(row)
    for m, c in other.items():
        value = field.sub(row.get(m, field.zero), field.mul(factor, c))
        if value:
            row[m] = value
        else:
            row.pop(m, None)
    return row


def _reduce_by(row: dict, echelon: dict, field) -> dict:
    """``row`` with every pivot of the fully reduced ``echelon`` cleared."""
    for pivot, other in echelon.items():
        if pivot in row:
            row = _subtract_multiple(row, row[pivot], other, field)
    return row


def _slice_echelon(gens, ring, degree: int, *, min_cofactor_degree: int) -> dict:
    """The reduced row-echelon form of a degree slice (see `_slice_rows`) as
    {pivot monomial: monic term map}, pivots taken grevlex-greatest first, so
    each row's pivot is its leading monomial and no row has another's pivot."""
    field = ring.field
    monomials = degree_monomials(ring.num_vars, degree)
    echelon: dict = {}
    for values in _slice_rows(
        gens, field, ring.num_vars, degree, min_cofactor_degree=min_cofactor_degree
    ):
        row = _reduce_by({m: c for m, c in zip(monomials, values) if c}, echelon, field)
        if not row:
            continue
        pivot = _grevlex_greatest(row)
        inv = field.div(field.one, row[pivot])
        row = {m: field.mul(c, inv) for m, c in row.items()}
        for p, other in echelon.items():
            if pivot in other:
                echelon[p] = _subtract_multiple(other, other[pivot], row, field)
        echelon[pivot] = row
    return echelon


def reference_normal_form(f, gens, *, below: bool = False):
    """The normal form of a homogeneous ``f`` modulo the ideal of ``gens``,
    or with ``below`` modulo the ideal's members of degree below deg f: what
    is left of f once the slice's row-echelon form has cleared every
    leading monomial of the slice.  It is unique, so it is the remainder of
    division by any Groebner basis of that ideal."""
    ring = f.ring
    if f.is_zero():
        return f
    (degree,) = _degrees(f)
    echelon = _slice_echelon(
        gens, ring, degree, min_cofactor_degree=1 if below else 0
    )
    return Polynomial(ring, _reduce_by(dict(f.terms), echelon, ring.field))


def reference_truncated_basis(gens, degree: int) -> list:
    """The reduced grevlex basis elements of degree below ``degree`` of the
    ideal of ``gens``, ascending by leading monomial, from slices alone: in
    each degree the echelon row of every leading monomial that no leading
    monomial one degree lower divides."""
    ring = gens[0].ring
    elements, lower = [], {}
    for d in range(degree):
        echelon = _slice_echelon(gens, ring, d, min_cofactor_degree=0)
        elements += [
            Polynomial(ring, row)
            for pivot, row in echelon.items()
            if not any(_divides(q, pivot) for q in lower)
        ]
        lower = echelon
    elements.sort(key=lambda g: _grevlex_ascending_key(_grevlex_greatest(g.terms)))
    return elements


def reference_certificate_valid(data: dict, gens, point, codim: int) -> bool:
    """Whether the certificate JSON object ``data`` holds for the input
    ``gens`` (nonzero, homogeneous, distinct) at ``point``, whose zero locus
    is known to have codimension ``codim``.

    The rules are the ones README states, each checked on slices: the field,
    variables and codimension match.  A CI claim lists ``codim`` nonzero
    homogeneous generators of positive degree that generate the input's
    ideal.  A non-CI claim is made at the input's point, which must be
    smooth, for a nonzero homogeneous member singular there whose normal
    form modulo the lower-degree members is nonzero and is the claimed
    remainder; the claimed truncated basis is the reduced basis below the
    witness's degree.
    A polynomial that does not parse raises `ParseError`.
    """
    ring = gens[0].ring
    field = ring.field
    if data["field"] != field.tag or data["vars"] != list(ring.var_names):
        return False
    if data["codim"] != codim:
        return False

    def members(polys, of):
        return all(reference_normal_form(p, of).is_zero() for p in polys)

    if data["kind"] == "ci":
        final = [reference_parse(s, ring) for s in data["final_gens"]]
        degrees = [_degrees(g) for g in final]
        if len(final) != codim or any(len(d) != 1 or d == {0} for d in degrees):
            return False
        return members(final, gens) and members(gens, final)

    coords = tuple(field.scalar_from_str(c) for c in data["point"])
    jacobian = [list(reference_differential_at(g, point)) for g in gens]
    if coords != point.coords or row_reduce_rank(jacobian, field) != codim:
        return False
    witness = reference_parse(data["witness"], ring)
    if len(_degrees(witness)) != 1 or any(reference_differential_at(witness, point)):
        return False
    if not members([witness], gens):
        return False
    (degree,) = _degrees(witness)
    remainder = reference_normal_form(witness, gens, below=True)
    return (
        not remainder.is_zero()
        and remainder == reference_parse(data["remainder"], ring)
        and reference_truncated_basis(gens, degree)
        == [reference_parse(s, ring) for s in data["truncated_basis"]]
    )
