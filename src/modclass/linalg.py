"""Exact dense linear algebra over the rationals.

Everything here is deterministic: pivots are always the first nonzero
entry in scan order, complements are picked by a greedy left-to-right
scan, and no magnitude heuristics are used anywhere.  Identical inputs
therefore give identical outputs, which the rest of the library relies
on for reproducible basis choices.

Scalars are `fractions.Fraction` throughout; there is no floating point
and no rank tolerance.

Two invariants keep the exact kernels lean.  Every entry a `Matrix`
holds is a `Fraction`: the public constructor coerces each entry once
(a `float` is a TypeError), and operations whose entries are already
`Fraction`s (products, sums, negation, scaling, slicing, transposition,
`rref`) build results with the non-coercing `Matrix._trusted`.  Products
and eliminations clear denominators first: `_cleared` writes a row or
column as integers over the `lcm` of its denominators, so a product
entry is one integer dot product normalised once, and every elimination
here is the one fraction-free `_eliminate` of integer rows.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm, prod
from operator import add, mul

Rational = Fraction

_RATIONAL_RE = re.compile(r"^[+-]?\d+(?:/\d+)?$")


def parse_rational(text: str) -> Fraction:
    """Parse a rational from its "p" or "p/q" decimal string form.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    """
    if not isinstance(text, str) or not _RATIONAL_RE.match(text.strip()):
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
    num, _, den = text.strip().partition("/")
    if den:
        if int(den) == 0:
            raise ValueError(f"malformed rational {text!r}: zero denominator")
        return Fraction(int(num), int(den))
    return Fraction(int(num))


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "p" or "p/q" with positive denominator."""
    return str(Fraction(value))


def _exact(x) -> Fraction:
    if isinstance(x, float):
        raise TypeError("matrix entries must be exact rationals")
    return Fraction(x)


class Matrix:
    """Immutable dense matrix of rationals.

    Zero-width and zero-height matrices are fully supported; they show
    up constantly as empty blocks of decompositions.

    >>> Matrix([[1, 2], [3, 4]]) * Matrix.identity(2)
    Matrix([[1, 2], [3, 4]])
    """

    __slots__ = ("rows", "cols", "_rows")

    def __init__(self, rows, cols: int | None = None):
        data = tuple(tuple(map(_exact, row)) for row in rows)
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
        else:
            width = 0 if cols is None else cols
        object.__setattr__(self, "rows", len(data))
        object.__setattr__(self, "cols", width)
        object.__setattr__(self, "_rows", data)

    @classmethod
    def _trusted(cls, rows: tuple, cols: int) -> "Matrix":
        # Rows already a tuple of equal-length tuples of Fractions, each
        # ``cols`` wide; nothing is checked or coerced.
        m = object.__new__(cls)
        object.__setattr__(m, "rows", len(rows))
        object.__setattr__(m, "cols", cols)
        object.__setattr__(m, "_rows", rows)
        return m

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        return cls([[Fraction(int(i == j)) for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls([[Fraction(0)] * cols for _ in range(rows)], cols=cols)

    @classmethod
    def hstack(cls, *parts: "Matrix") -> "Matrix":
        parts = tuple(p for p in parts)
        if not parts:
            raise ValueError("nothing to stack")
        height = parts[0].rows
        if any(p.rows != height for p in parts):
            raise ValueError("row counts differ")
        return cls._trusted(
            tuple(sum((p._rows[i] for p in parts), ()) for i in range(height)),
            sum(p.cols for p in parts),
        )

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return self._rows[i][j]

    def row(self, i: int) -> tuple[Fraction, ...]:
        return self._rows[i]

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(r[j] for r in self._rows)

    def take_columns(self, indices) -> "Matrix":
        idx = list(indices)
        return Matrix._trusted(tuple(tuple(r[j] for j in idx) for r in self._rows), len(idx))

    def submatrix(self, row_start, row_stop, col_start, col_stop) -> "Matrix":
        return Matrix._trusted(
            tuple(r[col_start:col_stop] for r in self._rows[row_start:row_stop]),
            col_stop - col_start,
        )

    def transpose(self) -> "Matrix":
        return Matrix._trusted(tuple(zip(*self._rows)) or ((),) * self.cols, self.rows)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(r) for r in self._rows]

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return all(x == 0 for r in self._rows for x in r)

    def is_identity(self) -> bool:
        return self.is_square and self == Matrix.identity(self.rows)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            right = [_cleared(other.column(j)) for j in range(other.cols)]
            return Matrix._trusted(
                tuple(
                    tuple(Fraction(sum(map(mul, a, b)), da * db) for b, db in right)
                    for a, da in map(_cleared, self._rows)
                ),
                other.cols,
            )
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "Matrix":
        if isinstance(scalar, float):
            raise TypeError("matrix scalars must be exact rationals")
        c = Fraction(scalar)
        return Matrix._trusted(tuple(tuple(c * x for x in r) for r in self._rows), self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError("shape mismatch in addition")
        return Matrix._trusted(
            tuple(tuple(map(add, r1, r2)) for r1, r2 in zip(self._rows, other._rows)),
            self.cols,
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self + (-other)

    def __neg__(self) -> "Matrix":
        return Matrix._trusted(tuple(tuple(-x for x in r) for r in self._rows), self.cols)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._rows == other._rows
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._rows))

    def __repr__(self) -> str:
        body = ", ".join(
            "[" + ", ".join(str(x) for x in r) + "]" for r in self._rows
        )
        if self.rows == 0 or self.cols == 0:
            return f"Matrix.zeros({self.rows}, {self.cols})"
        return f"Matrix([{body}])"


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns, the first nonzero in scan order.

    >>> rref(Matrix([[1, 2], [2, 4]]))
    (Matrix([[1, 2], [0, 0]]), [0])
    """
    reduced, pivots, _ = _eliminate(m._rows, m.cols)
    return Matrix._trusted(reduced, m.cols), pivots


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def _kernel(reduced: Matrix, pivots: list[int]) -> Matrix:
    """:func:`kernel_basis` read off a reduced row echelon form and its pivots."""
    free = [j for j in range(reduced.cols) if j not in pivots]
    columns = []
    for j in free:
        v = [Fraction(0)] * reduced.cols
        v[j] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i, j]
        columns.append(tuple(v))
    return Matrix._trusted(tuple(columns), reduced.cols).transpose()


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the null space of ``m``.

    Free coordinates are set to 1 one at a time, in column order, so the
    basis is canonical given the pivoting convention.
    """
    return _kernel(*rref(m))


def _cleared(v) -> tuple[list[int], int]:
    """Fractions ``v`` as integers over one denominator: ``v[i] == ints[i] / d``."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def _eliminate(rows, width: int, reduce: bool = True) -> tuple[tuple | None, list[int], Fraction]:
    """Fraction-free elimination of rational ``rows`` in their first ``width`` columns.

    Each row is cleared to integers (`_cleared`).  Each pivot, the first
    nonzero candidate in scan order, replaces every other row ``x`` it
    acts on by ``(piv * x - f * y) // prev``: ``y`` is the pivot row, ``f``
    the entry of ``x`` under the pivot and ``prev`` the last pivot, and
    the division is exact by Sylvester's identity (Bareiss 1968).  With
    ``reduce`` it acts on all rows (Gauss-Jordan), so every pivot ends
    equal to the last one ``p`` and the rows over ``p`` are the reduced
    row echelon form; without, on the rows below only.  Returns ``(rows
    over p or None, pivots, sign * p / product of the denominators)``; the
    last is the determinant when the pivots are ``range(len(rows))``.
    """
    cleared = [_cleared(r) for r in rows]
    a = [ints for ints, _ in cleared]
    pivots: list[int] = []
    sign = prev = 1
    for col in range(width):
        r = len(pivots)
        if r == len(a):
            break
        k = r if a[r][col] else next((i for i in range(r + 1, len(a)) if a[i][col]), None)
        if k is None:
            continue
        if k != r:
            a[r], a[k] = a[k], a[r]
            sign = -sign
        y, piv = a[r], a[r][col]
        for i in range(0 if reduce else r + 1, len(a)):
            if i != r:
                f = a[i][col]
                a[i] = [(piv * x - f * z) // prev for x, z in zip(a[i], y)]
        pivots.append(col)
        prev = piv
    reduced = tuple(tuple(Fraction(x, prev) for x in r) for r in a) if reduce else None
    return reduced, pivots, Fraction(sign * prev, prod(d for _, d in cleared))


def det(m: Matrix) -> Fraction:
    """Exact determinant, by forward fraction-free elimination."""
    if not m.is_square:
        raise ValueError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    _, pivots, d = _eliminate(m._rows, m.cols, reduce=False)
    return d if len(pivots) == m.rows else Fraction(0)


def det_and_inverse(m: Matrix) -> tuple[Fraction, Matrix | None]:
    """Determinant and, when it exists, the inverse: ``[m | I]`` reduces to ``[I | m^-1]``."""
    if not m.is_square:
        raise ValueError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    n = m.rows
    reduced, pivots, d = _eliminate(Matrix.hstack(m, Matrix.identity(n))._rows, n)
    if len(pivots) < n:
        return Fraction(0), None
    return d, Matrix._trusted(tuple(row[n:] for row in reduced), n)


def extend_to_basis(independent: Matrix, within: Matrix) -> Matrix:
    """Extend independent columns to a basis of ``within``'s column span.

    Candidate columns are drawn from ``within`` by a greedy scan in
    column order, so the completion is canonical: they are the pivot
    columns of ``[independent | within]`` past the first ones.  Raises
    ValueError if ``independent`` is not independent or leaves the span.
    """
    if independent.rows != within.rows:
        raise ValueError("ambient dimensions differ")
    k = independent.cols
    pivots = rref(Matrix.hstack(independent, within))[1]
    if pivots[:k] != list(range(k)):
        raise ValueError("columns of `independent` are linearly dependent")
    if k and len(pivots) > rank(within):
        raise ValueError("`independent` does not lie in the span of `within`")
    return Matrix.hstack(independent, within.take_columns(p - k for p in pivots[k:]))
