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
and determinants clear denominators first: `_cleared` writes a row or
column as integers over the `lcm` of its denominators, so a product
entry is one integer dot product normalised once, and a determinant is
a fraction-free Bareiss elimination of integer rows.
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


def rref(m: Matrix) -> tuple[Matrix, list[int], Matrix]:
    """Reduced row echelon form with the recording transform.

    Returns ``(reduced, pivots, transform)`` with ``transform * m ==
    reduced`` and ``transform`` invertible.  The pivot in each column is
    the first nonzero candidate in scan order.
    """
    red = [list(r) for r in m._rows]
    tr = [[Fraction(int(i == j)) for j in range(m.rows)] for i in range(m.rows)]
    pivots: list[int] = []
    pr = 0
    for col in range(m.cols):
        pivot_row = next((i for i in range(pr, m.rows) if red[i][col] != 0), None)
        if pivot_row is None:
            continue
        red[pr], red[pivot_row] = red[pivot_row], red[pr]
        tr[pr], tr[pivot_row] = tr[pivot_row], tr[pr]
        inv = 1 / red[pr][col]
        red[pr] = [x * inv for x in red[pr]]
        tr[pr] = [x * inv for x in tr[pr]]
        for i in range(m.rows):
            if i != pr and red[i][col] != 0:
                f = red[i][col]
                red[i] = [a - f * b for a, b in zip(red[i], red[pr])]
                tr[i] = [a - f * b for a, b in zip(tr[i], tr[pr])]
        pivots.append(col)
        pr += 1
        if pr == m.rows:
            break
    return (
        Matrix._trusted(tuple(map(tuple, red)), m.cols),
        pivots,
        Matrix._trusted(tuple(map(tuple, tr)), m.rows),
    )


def rank(m: Matrix) -> int:
    return len(rref(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the null space of ``m``.

    Free coordinates are set to 1 one at a time, in column order, so the
    basis is canonical given the pivoting convention.
    """
    reduced, pivots, _ = rref(m)
    pivot_set = set(pivots)
    free = [j for j in range(m.cols) if j not in pivot_set]
    columns = []
    for j in free:
        v = [Fraction(0)] * m.cols
        v[j] = Fraction(1)
        for i, pc in enumerate(pivots):
            v[pc] = -reduced[i, j]
        columns.append(tuple(v))
    return Matrix._trusted(tuple(columns), m.cols).transpose()


def _cleared(v) -> tuple[list[int], int]:
    """Fractions ``v`` as integers over one denominator: ``v[i] == ints[i] / d``."""
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def _integer_det(rows: list[list[int]]) -> int:
    # Bareiss fraction-free elimination; all intermediate divisions are exact.
    n = len(rows)
    if n == 0:
        return 1
    a = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
            a[i][k] = 0
        prev = a[k][k]
    return sign * a[n - 1][n - 1]


def det(m: Matrix) -> Fraction:
    """Exact determinant (fraction-free after clearing row denominators)."""
    if not m.is_square:
        raise ValueError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    cleared = [_cleared(r) for r in m._rows]
    return Fraction(_integer_det([ints for ints, _ in cleared]), prod(d for _, d in cleared))


def det_and_inverse(m: Matrix) -> tuple[Fraction, Matrix | None]:
    """Determinant together with the inverse when it exists.

    An invertible ``m`` reduces to the identity, so the transform that
    ``rref`` records is its inverse.
    """
    d = det(m)
    if d == 0:
        return d, None
    return d, rref(m)[2]


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
