"""Exact linear algebra over the coefficient field, by fraction-free
elimination on integers.

Rank, kernel bases and linear relations among polynomials all read one
column-by-column elimination, `ColumnElimination`.  It scales each column to
integers and reduces it with integer steps, one gcd per step over Q and one
reduction mod p over F_p, so it builds no `Fraction` per operation.  The
rewrite loop carries one from step to step.  The relation it finds for each
dependent column is unique, so every answer is deterministic and equals the
one read off the reduced row-echelon form; it is returned as scalars.

`kernel_basis` and `linear_relation_polys` serve only the benchmark's tracer.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import NotHomogeneousError, RingMismatchError, check_deadline
from .fields import Field, Scalar
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
    before it.  The reduction is fraction-free: a column is scaled to
    integers (`Field.integral_vector`), and reducing it by a kept column
    ``v`` with pivot entry ``a``, where it has entry ``b``, gives
    ``a*c - b*v``, made small again by `Field.primitive` (over Q the gcd of
    its entries is divided out, over F_p they are reduced mod p).  An
    independent column is kept as (its index, pivot row, reduced integer
    column, combination): the combination maps the indices of the original
    columns that give the reduced one, at most rank + 1 of them, to integer
    coefficients.  A dependent column is not kept; `add` returns its
    relation instead.

    A reduced column and its combination depend only on the columns before
    it, so after `truncate(index)` the kept part is exactly the elimination
    of the first ``index`` columns, and feeding different columns from there
    gives what a fresh elimination of the new matrix would.
    """

    def __init__(self, field: Field) -> None:
        self.field = field
        self.reduced: list[tuple[int, int, list[int], dict[int, int]]] = []
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
        primitive = field.primitive
        j = self.width
        self.width += 1
        column, scale = field.integral_vector(column)
        combination = {j: scale}
        for _, pivot, basis_column, basis_combination in self.reduced:
            b = column[pivot]
            if not b:
                continue
            a = basis_column[pivot]
            column = [a * u - b * v for u, v in zip(column, basis_column)]
            combination = {k: a * c for k, c in combination.items()}
            for k, c in basis_combination.items():
                combination[k] = combination.get(k, 0) - b * c
            column, combination = primitive(column, combination)
        pivot = next((i for i, v in enumerate(column) if v), None)
        if pivot is not None:
            self.reduced.append((j, pivot, column, combination))
            return None
        relation = [field.zero] * (j + 1)
        for k, c in field.from_integral(combination, combination[j]).items():
            relation[k] = c
        return tuple(relation)

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
            self.reduced = [r for r in self.reduced if r[0] < index]
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
