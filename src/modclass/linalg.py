"""Exact dense linear algebra over the rationals.

Everything here is deterministic: pivots are always the first nonzero
entry in scan order, complements are picked by a greedy left-to-right
scan, and no magnitude heuristics are used anywhere.  Identical inputs
therefore give identical outputs, which the rest of the library relies
on for reproducible basis choices.

Scalars are `fractions.Fraction` throughout; there is no floating point
and no rank tolerance.

Two invariants keep the exact kernels lean.  A `Matrix` stores each row
as integers over one positive denominator, in lowest terms: row ``i`` is
``_num[i] / _den[i]`` with ``gcd(_den[i], *_num[i]) == 1``, so a zero row
is over 1 and equal matrices store equal tuples.  The public constructor
coerces each entry once (a `float` is a TypeError) and clears each row
over the `lcm` of its denominators (`_cleared`); the string reader
`Matrix._parse` takes "p/q" strings straight to those integer rows.
Every other operation stays in integers and makes `Fraction`s only
where entries leave the matrix (`__getitem__`, `row`, `column`,
`to_lists`, `repr`); `to_strings` writes the rows straight back to
"p/q" strings, and `block_equals` compares blocks as stored.  A product
writes its right operand over one `lcm`, so each entry is an integer
dot product and each row is normalised with one `gcd`, and every
elimination here is the one fraction-free `_eliminate` of those
integer rows.  A rational string is ASCII digits after at most one
sign, with at most one "/": the published pattern.

`_split_degree` splits one degree of a complex for
`modclass.complexes.decompose`: from the rref of the outgoing
differential and the boundary columns it reads the basis ``[B | H |
L]``, its inverse and its determinant, by one elimination of the
boundary's free rows.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import gcd, lcm, prod
from operator import add, mul, sub

# the published ``rational`` pattern: ASCII digits only, nothing around them
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")


def _rational_parts(text) -> tuple[int, int]:
    """``(p, q)``, ``q > 0``, for the "p" or "p/q" string ``text``; ValueError if it is none.

    ``p / q`` need not be in lowest terms: ``"4/6"`` gives ``(4, 6)``.
    """
    if isinstance(text, str):
        # plain ASCII digits after at most one "-"
        digits = text[1:] if text[:1] == "-" else text
        if digits.isascii() and digits.isdigit():
            return int(text), 1
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
    num, _, den = text.partition("/")
    if not den:
        return int(num), 1
    q = int(den)
    if q == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    return int(num), q


def parse_rational(text: str) -> Fraction:
    """Parse a rational from its "p" or "p/q" decimal string form.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    """
    return Fraction(*_rational_parts(text))


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "p" or "p/q" with positive denominator."""
    return str(Fraction(value))


def _exact(x) -> Fraction:
    if type(x) is Fraction:
        return x
    if isinstance(x, float):
        raise TypeError("matrix entries must be exact rationals")
    return Fraction(x)


def _cleared(v) -> tuple[tuple[int, ...], int]:
    """Fractions ``v`` as integers over one denominator: ``v[i] == ints[i] / d``.

    ``d`` is the ``lcm`` of the denominators, so the result is in lowest
    terms: a prime dividing ``d`` divides some denominator to its full
    power there, and that entry's numerator is prime to it.
    """
    d = lcm(*(x.denominator for x in v))
    return tuple(x.numerator * (d // x.denominator) for x in v), d


class Matrix:
    """Immutable dense matrix of rationals.

    Zero-width and zero-height matrices are fully supported; they show
    up constantly as empty blocks of decompositions.

    >>> Matrix([[1, 2], [3, 4]]) * Matrix.identity(2)
    Matrix([[1, 2], [3, 4]])
    """

    __slots__ = ("rows", "cols", "_num", "_den")

    def __init__(self, rows, cols: int | None = None):
        data = [tuple(map(_exact, row)) for row in rows]
        if data:
            width = len(data[0])
            if any(len(row) != width for row in data):
                raise ValueError("ragged rows")
            if cols is not None and cols != width:
                raise ValueError("cols does not match row width")
        else:
            width = 0 if cols is None else cols
        cleared = [_cleared(row) for row in data]
        _set_rows(self, len(data))
        _set_cols(self, width)
        _set_num(self, tuple(ints for ints, _ in cleared))
        _set_den(self, tuple(d for _, d in cleared))

    @classmethod
    def _from_ints(cls, num: tuple, den: tuple, cols: int) -> "Matrix":
        # ``num`` a tuple of ``cols``-wide tuples of ints and ``den`` one
        # positive int per row, already in lowest terms; nothing is checked.
        m = object.__new__(cls)
        _set_rows(m, len(num))
        _set_cols(m, cols)
        _set_num(m, num)
        _set_den(m, den)
        return m

    @classmethod
    def _parse(cls, rows, cols: int) -> tuple["Matrix", list[str]]:
        """The matrix of "p" or "p/q" strings ``rows``, each ``cols`` wide, and
        the message of each bad entry, in entry order; a bad entry reads as 1.

        Each row goes straight to integers over the ``lcm`` of its
        denominators, so the result equals ``Matrix`` of the entries read
        one by one with :func:`parse_rational`: both are in lowest terms.
        """
        num, den, problems = [], [], []
        for row in rows:
            ps, qs = [], []
            for x in row:
                try:
                    p, q = _rational_parts(x)
                except ValueError as exc:
                    problems.append(str(exc))
                    p, q = 1, 1
                ps.append(p)
                qs.append(q)
            d = lcm(*qs)
            num.append(ps if d == 1 else [p * (d // q) for p, q in zip(ps, qs)])
            den.append(d)
        return cls._lowest(num, den, cols), problems

    @classmethod
    def _lowest(cls, num: list, den: list, cols: int) -> "Matrix":
        # Integer rows ``num`` over positive ``den``, each row divided by
        # its one ``gcd`` with its denominator; both lists are reduced in place.
        for i, d in enumerate(den):
            if d != 1:
                g = gcd(d, *num[i])
                if g != 1:
                    num[i], den[i] = [x // g for x in num[i]], d // g
        return cls._from_ints(tuple(map(tuple, num)), tuple(den), cols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        zero = (0,) * n
        rows = tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(n))
        return cls._from_ints(rows, (1,) * n, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        return cls._from_ints(((0,) * cols,) * rows, (1,) * rows, cols)

    @classmethod
    def hstack(cls, *parts: "Matrix") -> "Matrix":
        if not parts:
            raise ValueError("nothing to stack")
        height = parts[0].rows
        if any(p.rows != height for p in parts):
            raise ValueError("row counts differ")
        # Each part's row is in lowest terms, so their join over the lcm
        # of the denominators is too, as for `_cleared`.
        num, den = [], []
        for i in range(height):
            dens = [p._den[i] for p in parts]
            d = lcm(*dens)
            row = []
            for p, e in zip(parts, dens):
                row.extend(p._num[i] if e == d else [x * (d // e) for x in p._num[i]])
            num.append(tuple(row))
            den.append(d)
        return cls._from_ints(tuple(num), tuple(den), sum(p.cols for p in parts))

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self._num[i][j], self._den[i])

    def row(self, i: int) -> tuple[Fraction, ...]:
        d = self._den[i]
        return tuple(Fraction(x, d) for x in self._num[i])

    def column(self, j: int) -> tuple[Fraction, ...]:
        return tuple(Fraction(r[j], d) for r, d in zip(self._num, self._den))

    def take_columns(self, indices) -> "Matrix":
        idx = list(indices)
        return Matrix._lowest([[r[j] for j in idx] for r in self._num], list(self._den), len(idx))

    def submatrix(self, row_start, row_stop, col_start, col_stop) -> "Matrix":
        num, den = self._num[row_start:row_stop], self._den[row_start:row_stop]
        if (col_start, col_stop) == (0, self.cols):
            return Matrix._from_ints(num, den, self.cols)
        return Matrix._lowest(
            [r[col_start:col_stop] for r in num], list(den), col_stop - col_start
        )

    def transpose(self) -> "Matrix":
        d = lcm(*self._den)
        columns = zip(*_over(self._num, self._den, d))
        return Matrix._lowest(
            list(columns) or [()] * self.cols, [d] * self.cols, self.rows
        )

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def to_strings(self) -> list[list[str]]:
        """The entries as "p" or "p/q" strings, as :func:`format_rational` writes them."""
        out = []
        for r, d in zip(self._num, self._den):
            if d == 1:
                out.append([str(x) for x in r])
                continue
            row = []
            for x in r:
                g = gcd(x, d)
                row.append(str(x // g) if g == d else f"{x // g}/{d // g}")
            out.append(row)
        return out

    @property
    def is_square(self) -> bool:
        return self.rows == self.cols

    def is_zero(self) -> bool:
        return not any(map(any, self._num))

    def is_identity(self) -> bool:
        n = self.cols
        return self.rows == n and all(
            d == 1 and r[i] == 1 and r.count(0) == n - 1
            for i, (r, d) in enumerate(zip(self._num, self._den))
        )

    def block_equals(
        self, r0: int, r1: int, c0: int, c1: int, other: "Matrix | None" = None
    ) -> bool:
        """Whether the block ``self[r0:r1, c0:c1]`` is zero or, given ``other``,
        equals ``other``'s top-left block of its shape; none is built."""
        rows = self._num[r0:r1]
        if other is None:
            return not any(any(r[c0:c1]) for r in rows)
        for a, d, b, e in zip(rows, self._den[r0:r1], other._num, other._den):
            a, b = a[c0:c1], b[: c1 - c0]
            if a != b if d == e else any(x * e != y * d for x, y in zip(a, b)):
                return False
        return True

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            if not (self.rows and self.cols and other.cols):
                return Matrix.zeros(self.rows, other.cols)
            # the right operand once over one denominator, read by columns
            d = lcm(*other._den)
            if d == 1:
                right = list(zip(*other._num))
                den = list(self._den)
            else:
                right = list(zip(*_over(other._num, other._den, d)))
                den = [e * d for e in self._den]
            num = [[sum(map(mul, a, b)) for b in right] for a in self._num]
            return Matrix._lowest(num, den, other.cols)
        return self.scale(other)

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "Matrix":
        if isinstance(scalar, float):
            raise TypeError("matrix scalars must be exact rationals")
        c = Fraction(scalar)
        p, q = c.numerator, c.denominator
        return Matrix._lowest(
            [[p * x for x in r] for r in self._num], [q * d for d in self._den], self.cols
        )

    def _combine(self, other: "Matrix", op) -> "Matrix":
        # ``op`` (add or sub) applied row by row over the lcm of the two denominators
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {'addition' if op is add else 'subtraction'}")
        num, den = [], []
        for a, da, b, db in zip(self._num, self._den, other._num, other._den):
            if da == db:
                num.append(list(map(op, a, b)))
                den.append(da)
            else:
                d = lcm(da, db)
                fa, fb = d // da, d // db
                num.append([op(x * fa, y * fb) for x, y in zip(a, b)])
                den.append(d)
        return Matrix._lowest(num, den, self.cols)

    def __add__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, add)

    def __sub__(self, other: "Matrix") -> "Matrix":
        return self._combine(other, sub)

    def __neg__(self) -> "Matrix":
        return Matrix._from_ints(
            tuple(tuple(-x for x in r) for r in self._num), self._den, self.cols
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and self._den == other._den
            and self._num == other._num
        )

    def __hash__(self) -> int:
        return hash((self.rows, self.cols, self._num, self._den))

    def __repr__(self) -> str:
        if self.rows == 0 or self.cols == 0:
            return f"Matrix.zeros({self.rows}, {self.cols})"
        body = ", ".join(
            "[" + ", ".join(str(x) for x in self.row(i)) + "]" for i in range(self.rows)
        )
        return f"Matrix([{body}])"


_set_rows, _set_cols, _set_num, _set_den = (
    Matrix.__dict__[name].__set__ for name in Matrix.__slots__
)


def _over(num, den, d: int):
    """Integer rows ``num[i] / den[i]`` rewritten over the common multiple ``d``."""
    return (r if e == d else tuple(x * (d // e) for x in r) for r, e in zip(num, den))


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns, the first nonzero in scan order.

    >>> rref(Matrix([[1, 2], [2, 4]]))
    (Matrix([[1, 2], [0, 0]]), [0])
    """
    if m.is_zero():
        return m, []
    reduced, p, pivots, _ = _eliminate(m, m.cols)
    return Matrix._lowest(reduced, [p] * m.rows, m.cols), pivots


def _eliminate(m: Matrix, width: int, reduce: bool = True) -> tuple[list, int, list[int], Fraction]:
    """Fraction-free elimination of the integer rows of ``m`` in their first ``width`` columns.

    Row ``i`` of ``m`` is ``m._num[i] / m._den[i]``; the integer rows are
    eliminated as they are stored.  Each pivot, the first nonzero
    candidate in scan order, replaces every other row ``x`` it acts on by
    ``(piv * x - f * y) // prev``: ``y`` is the pivot row, ``f`` the entry
    of ``x`` under the pivot and ``prev`` the last pivot, and the
    division is exact by Sylvester's identity (Bareiss 1968).  With
    ``reduce`` it acts on all rows (Gauss-Jordan), so every pivot ends
    equal to the last one ``p`` and the rows over ``p`` are the reduced
    row echelon form; without, on the rows below only.  Returns ``(rows,
    |p|, pivots, sign * p / product of the denominators)``, the rows signed
    to go over ``|p|``; the last is the determinant when the pivots are
    ``range(m.rows)``.
    """
    a = list(m._num)
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
    d = Fraction(sign * prev, prod(m._den))
    if prev < 0:  # the same rows over a positive denominator
        a, prev = [[-x for x in r] for r in a], -prev
    return a, prev, pivots, d


def det(m: Matrix) -> Fraction:
    """Exact determinant, by forward fraction-free elimination."""
    if not m.is_square:
        raise ValueError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    _, _, pivots, d = _eliminate(m, m.cols, reduce=False)
    return d if len(pivots) == m.rows else Fraction(0)


def _split_degree(
    boundary: Matrix, reduced: Matrix, pivots: list[int]
) -> tuple[Matrix, Matrix, Fraction] | None:
    """A degree's basis ``[B | H | L]``, its inverse and determinant, by one elimination.

    ``reduced`` and ``pivots`` are the rref of the outgoing differential,
    whose kernel has the canonical basis ``K``: row ``j`` of ``K`` is a
    unit row on the free coordinates when ``j`` is free, and minus the
    free entries of ``reduced``'s row at ``j`` when ``j`` is a pivot.
    ``boundary`` is ``B``, independent columns as tall as ``reduced`` is
    wide.  None when ``B`` leaves that kernel, that is when the top rows
    of ``reduced`` do not annihilate it.  ``K`` is the identity on the
    free rows ``F``, so ``[B | K] = K [B_F | I]`` and one elimination of
    ``[B_F | I]`` does all the work.  Its pivots past ``B`` pick the
    columns ``S`` of ``K`` that make ``H``, the greedy left-to-right
    completion of ``B`` to a basis of the kernel.  It reduces to ``[* |
    C^-1]`` for ``C = [B_F | E_S]``, the free rows of ``[B | H]``, and its
    last pivot gives ``det C``; with ``B`` empty, ``C = I`` and nothing
    is eliminated.  ``L`` is the unit columns at the pivots, so the
    inverse is ``C^-1`` on the free columns over the top rows of
    ``reduced``, and putting the rows in the order ``F`` then ``pivots``
    makes the basis block lower-triangular: its determinant is ``det C``,
    signed by that reordering.
    """
    n, b, height = reduced.cols, boundary.cols, len(pivots)
    top, top_den = reduced._num[:height], reduced._den[:height]
    bnum, bden = boundary._num, boundary._den
    columns = list(zip(*_over(bnum, bden, lcm(*bden))))
    if any(sum(map(mul, r, c)) for r in top for c in columns):
        return None
    pivot_row = dict(zip(pivots, range(height)))
    free = [j for j in range(n) if j not in pivot_row]
    f = len(free)
    unit = (0,) * f
    c_num = tuple(bnum[j] + unit[:k] + (bden[j],) + unit[k + 1:] for k, j in enumerate(free))
    if b:
        c_den = tuple(bden[j] for j in free)
        eliminated, p, chosen, det_c = _eliminate(Matrix._from_ints(c_num, c_den, b + f), b + f)
        harmonic = [free[q - b] for q in chosen[b:]]
    else:  # C = I: every kernel column is harmonic
        eliminated, p, harmonic, det_c = c_num, 1, free, Fraction(1)
    inv_num = []
    for row in eliminated:
        r = [0] * n
        for k, j in enumerate(free):
            r[j] = row[b + k]
        inv_num.append(r)
    inverse = Matrix._lowest(inv_num + list(top), [p] * f + list(top_den), n)
    zeros = (0,) * height
    basis_num, basis_den = [], []
    for j in range(n):
        r, e = pivot_row.get(j), bden[j]
        if r is None:  # a free row: B, then a unit entry where H is K's column j
            basis_num.append(bnum[j] + tuple(e if h == j else 0 for h in harmonic) + zeros)
            basis_den.append(e)
        else:  # a pivot row: B, then minus reduced's row at H, then a unit entry at L
            row, g = top[r], top_den[r]
            m = lcm(e, g)
            u, v = m // e, m // g
            basis_num.append(
                tuple(x * u for x in bnum[j]) + tuple(-row[h] * v for h in harmonic)
                + zeros[:r] + (m,) + zeros[r + 1:]
            )
            basis_den.append(m)
    basis = Matrix._lowest(basis_num, basis_den, n)
    swaps = sum(j - k for k, j in enumerate(free))  # pairs of a pivot before a free column
    return basis, inverse, -det_c if swaps % 2 else det_c
