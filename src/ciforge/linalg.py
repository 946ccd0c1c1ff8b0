"""Exact dense linear algebra over the coefficient field.

Rank, kernel bases and linear relations among polynomials all read one
column-by-column elimination, `ColumnElimination`, which the rewrite loop
also carries from step to step.  The relation it finds for each dependent
column is unique, so every answer is deterministic and equals the one read
off the reduced row-echelon form.

`kernel_basis` and `linear_relation_polys` have no caller inside the
package; they stay because the benchmark's tracer (``perfbench/tracer.py``)
binds them by name.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import NotHomogeneousError, RingMismatchError
from .fields import Field, Scalar
from .groebner import check_deadline
from .poly import Polynomial, grevlex_key

Vector = tuple[Scalar, ...]


@dataclass(frozen=True)
class ExactMatrix:
    """A dense matrix of exact scalars, row-major."""

    field: Field
    rows: tuple[Vector, ...]
    cols: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "rows", tuple(tuple(r) for r in self.rows))
        for row in self.rows:
            if len(row) != self.cols:
                raise ValueError(f"row of length {len(row)}, expected {self.cols}")

    @classmethod
    def from_rows(
        cls, field: Field, rows: Sequence[Sequence[Scalar]], cols: int | None = None
    ) -> "ExactMatrix":
        """Each entry passes through ``field.scalar``."""
        scalar = field.scalar
        converted = tuple(tuple(scalar(v) for v in row) for row in rows)
        if cols is None:
            if not converted:
                raise ValueError("cannot infer column count of an empty matrix")
            cols = len(converted[0])
        return cls(field, converted, cols)

    @property
    def num_rows(self) -> int:
        return len(self.rows)


class ColumnElimination:
    """A column-by-column elimination that can be resumed.

    Columns are fed in order; each is reduced against the independent columns
    before it.  An independent column is kept as (pivot row, column scaled to
    1 there, combination of the original columns ``0..j`` that gives it).  A
    dependent column is not kept; `add` returns its relation instead.

    A reduced column and its combination depend only on the columns before
    it, so after `truncate(index)` the kept part is exactly the elimination
    of the first ``index`` columns, and feeding different columns from there
    gives what a fresh elimination of the new matrix would.
    """

    def __init__(self, field: Field) -> None:
        self.field = field
        self.reduced: list[tuple[int, list[Scalar], list[Scalar]]] = []
        self.width = 0  # columns fed so far, dependent ones included

    def add(self, column: Sequence[Scalar]) -> Vector | None:
        """Feed column ``j = width``.  None if it is independent of the
        columns before it, else the relation that makes it dependent.

        That relation is the vector over columns ``0..j`` with 1 at ``j`` and
        zeros at every earlier dependent column that the matrix sends to
        zero.  The independent columns before it are a basis of their span,
        so it is unique: it is the canonical kernel vector of the reduced
        row-echelon form.
        """
        check_deadline("row reduction")
        field = self.field
        sub, mul = field.sub, field.mul
        j = self.width
        self.width += 1
        combination = [field.zero] * j + [field.one]
        for pivot, basis_column, basis_combination in self.reduced:
            factor = column[pivot]
            if not factor:
                continue
            column = [sub(a, mul(factor, b)) if b else a for a, b in zip(column, basis_column)]
            for k, c in enumerate(basis_combination):
                if c:
                    combination[k] = sub(combination[k], mul(factor, c))
        pivot = next((i for i, v in enumerate(column) if v), None)
        if pivot is None:
            return tuple(combination)
        inv = field.div(field.one, column[pivot])
        self.reduced.append(
            (pivot, [mul(v, inv) for v in column], [mul(c, inv) for c in combination])
        )
        return None

    def first_relation(self, columns: Sequence[Sequence[Scalar]]) -> Vector | None:
        """Feed ``columns[width:]`` up to the first dependent one and return
        its relation padded with zeros to ``len(columns)``; None if every
        column is independent.  The first ``width`` columns must be the ones
        already fed."""
        for column in columns[self.width :]:
            relation = self.add(column)
            if relation is not None:
                return relation + (self.field.zero,) * (len(columns) - len(relation))
        return None

    def truncate(self, index: int) -> None:
        """Forget columns ``index`` onwards."""
        if index < self.width:
            self.reduced = [r for r in self.reduced if len(r[2]) <= index]
            self.width = index


def _column_relations(matrix: ExactMatrix) -> Iterator[Vector | None]:
    """`ColumnElimination.add` for each column of ``matrix`` in turn, each
    relation padded with zeros to the full width."""
    elimination = ColumnElimination(matrix.field)
    for j in range(matrix.cols):
        relation = elimination.add([row[j] for row in matrix.rows])
        if relation is not None:
            relation += (matrix.field.zero,) * (matrix.cols - j - 1)
        yield relation


def rank(matrix: ExactMatrix) -> int:
    return sum(relation is None for relation in _column_relations(matrix))


def kernel_basis(matrix: ExactMatrix) -> list[Vector]:
    """Canonical basis of the right null space.

    One vector per dependent column, ordered by that column index ascending.
    Each vector has 1 in its column and zeros in every later coordinate, so
    the last nonzero coordinate is always 1.
    """
    return [v for v in _column_relations(matrix) if v is not None]


def linear_relation_polys(polys: Sequence[Polynomial]) -> Vector | None:
    """A nonzero vector c with sum(c_i * polys_i) = 0, or None if independent.

    Requires all inputs homogeneous of one common degree in one ring.  The
    choice is deterministic: the first canonical kernel vector of the
    coefficient matrix, monomial rows in descending grevlex order.
    """
    if not polys:
        return None
    ring = polys[0].ring
    if any(p.ring != ring for p in polys):
        raise RingMismatchError("relation search requires a single ring")
    if len({p.degree for p in polys} - {None}) > 1:
        raise NotHomogeneousError("relation search requires one common degree")
    monomials = sorted({e for p in polys for e in p.terms}, key=grevlex_key)
    field = ring.field
    columns = [tuple(p.terms.get(mono, field.zero) for mono in monomials) for p in polys]
    return ColumnElimination(field).first_relation(columns)
