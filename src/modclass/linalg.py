"""Exact dense linear algebra over the rationals.

Everything here is deterministic: pivots are always the first nonzero
entry in scan order, complements are picked by a greedy left-to-right
scan, and no magnitude heuristics are used anywhere.  Identical inputs
therefore give identical outputs, which the rest of the library relies
on for reproducible basis choices.

Scalars are `fractions.Fraction` throughout; there is no floating point
and no rank tolerance.

Two invariants keep the exact kernels lean.  A `Matrix` stores its rows
as integers over one positive denominator, in lowest terms: entry ``(i,
j)`` is ``_num[i][j] / _den`` with ``gcd(_den, *every entry) == 1``, so a
zero or empty matrix is over 1 and equal matrices store equal tuples.
The public constructor coerces each entry once (a `float` or a `str` is
a TypeError) and clears them all over the `lcm` of their denominators
(`_cleared`); the string reader `Matrix._parse` takes "p/q" strings
straight to those integer rows, with one check of a matrix's joined
text when every entry is well formed.  Every other operation stays in
integers and makes `Fraction`s only where entries leave the matrix
(`__getitem__`, `row`, `column`, `to_lists`, `repr`); `to_strings`
writes the rows straight back to "p/q" strings, and `block_equals`
compares blocks as stored.  A product multiplies the stored integer rows
over the product of the two denominators, so each entry is an integer
dot product and the result is normalised with one `gcd`;
`product_equals` compares those dot products with a given matrix by
cross-multiplication, without normalising or building one.  Every
elimination here is the one fraction-free `_eliminate` of those integer
rows.  A rational string is ASCII digits after at most one sign, with at
most one "/": the published pattern.

`split_degree` splits one degree of a complex for
`modclass.complexes.decompose`: from the rref of the outgoing
differential and the boundary columns it reads the factors of the basis
``[B | H | L]`` (a `Split`), its determinant, and the coordinates along
each block, by one elimination of ``b`` rows.  The basis is kept by
columns and its inverse by rows, each as the indices and integers of its
nonzero entries, and no dense ``n x n`` matrix is built.
`change_of_basis` reads ``basis_inv_T t basis_S`` off two splits, each
column of ``t basis_S`` a combination of columns of ``t`` and each row of
the result one of rows, and `replacement` maps a change of basis whose
boundary and lift diagonal blocks are set to identities back the same
way.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import compress
from math import gcd, lcm
from operator import add, mul, sub
from typing import NamedTuple

_ONE = Fraction(1)
# the published ``rational`` pattern: ASCII digits only, nothing around them
_RATIONAL_RE = re.compile(r"[+-]?[0-9]+(?:/[0-9]+)?")
# the only characters of a matrix that `_plain_parts` reads in bulk
_PLAIN_TEXT = re.compile(r"[0-9+/-]*")


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


def _plain_parts(rows) -> tuple[list, list]:
    """``(num, dens)`` for the rational strings ``rows``: the numerators
    and the denominators, row by row (no rows of denominators when no
    entry has a "/").  ValueError or TypeError unless every entry is
    well formed.

    One check of the joined text: only ``[0-9+/-]``, so ``int`` meets no
    space, ``_`` or non-ASCII digit; ``int`` then refuses a misplaced
    sign, and a denominator must be digits and nonzero.  The integers
    equal :func:`_rational_parts`'s of each entry.
    """
    text = "".join(map("".join, rows))  # TypeError on an entry that is no string
    if not _PLAIN_TEXT.fullmatch(text):
        raise ValueError("not plain")
    if "/" not in text:
        return [list(map(int, row)) for row in rows], []
    num, dens = [], []
    for row in rows:
        ps, qs = [], []
        for x in row:
            p, slash, q = x.partition("/")
            ps.append(int(p))
            if not slash:
                qs.append(1)
            elif q.isdigit() and (q := int(q)):
                qs.append(q)
            else:
                raise ValueError("bad denominator")
        num.append(ps)
        dens.append(qs)
    return num, dens


def _entry_parts(rows) -> tuple[list[list[int]], list[list[int]], list[str]]:
    """:func:`_plain_parts` entry by entry, with the message of each bad
    entry in entry order; a bad entry reads as 1."""
    num, dens, problems = [], [], []
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
        num.append(ps)
        dens.append(qs)
    return num, dens, problems


def parse_rational(text: str) -> Fraction:
    """Parse a rational from its "p" or "p/q" decimal string form.

    >>> parse_rational("-3/6")
    Fraction(-1, 2)
    """
    return Fraction(*_rational_parts(text))


def format_rational(value: Fraction | int) -> str:
    """Render a rational as "p" or "p/q" with positive denominator."""
    return str(value if isinstance(value, Fraction) else Fraction(value))


def _exact(x, name: str = "matrix entries") -> Fraction:
    """``x`` as a Fraction; a float or a string is a TypeError naming ``name``.

    A string is refused, not read: :func:`parse_rational` reads the
    published pattern, and ``Fraction`` would also take "1e-3" or " 3/4 ".
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        raise TypeError(f"{name} must be exact rationals: read the string {x!r} with parse_rational")
    if isinstance(x, float):
        raise TypeError(f"{name} must be exact rationals")
    return Fraction(x)


def _cleared(rows) -> tuple[tuple[tuple[int, ...], ...], int]:
    """Rows of fractions as integer rows over one denominator: ``rows[i][j] == ints[i][j] / d``.

    ``d`` is the ``lcm`` of all the denominators, so the result is in
    lowest terms: a prime dividing ``d`` divides some denominator to its
    full power there, and that entry's numerator is prime to it.
    """
    d = lcm(*(x.denominator for r in rows for x in r))
    return tuple(tuple(x.numerator * (d // x.denominator) for x in r) for r in rows), d


class Matrix:
    """Immutable dense matrix of rationals, stored as integer rows over one denominator.

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
        num, den = _cleared(data)
        _set_rows(self, len(data))
        _set_cols(self, width)
        _set_num(self, num)
        _set_den(self, den)

    @classmethod
    def _from_ints(cls, num: tuple, den: int, cols: int) -> "Matrix":
        # ``num`` a tuple of ``cols``-wide tuples of ints over the positive
        # int ``den``, already in lowest terms; nothing is checked.
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

        The entries go straight to integers over the ``lcm`` of their
        denominators, so the result equals ``Matrix`` of the entries read
        one by one with :func:`parse_rational`: both are in lowest terms.
        A matrix of well-formed entries is read in bulk (:func:`_plain_parts`);
        any other is read entry by entry, which words each problem.
        """
        try:
            num, dens = _plain_parts(rows)
            problems = []
        except (TypeError, ValueError):
            num, dens, problems = _entry_parts(rows)
        d = 1
        for qs in dens:
            d = lcm(d, *qs)  # per row: one lcm over a generator of every entry raised peak RSS
        if d != 1:
            num = [[p * (d // q) for p, q in zip(ps, qs)] for ps, qs in zip(num, dens)]
        return cls._lowest(num, d, cols), problems

    @classmethod
    def _lowest(cls, num: list, den: int, cols: int) -> "Matrix":
        # Integer rows ``num`` over the positive ``den``, divided by their
        # one ``gcd`` with it.
        g = den
        for r in num:
            if g == 1:
                break
            g = gcd(g, *r)
        if g != 1:
            num, den = [[x // g for x in r] for r in num], den // g
        return cls._from_ints(tuple(map(tuple, num)), den, cols)

    def __setattr__(self, name, value):
        raise AttributeError("Matrix is immutable")

    @classmethod
    def identity(cls, n: int) -> "Matrix":
        zero = (0,) * n
        rows = tuple(zero[:i] + (1,) + zero[i + 1:] for i in range(n))
        return cls._from_ints(rows, 1, n)

    @classmethod
    def zeros(cls, rows: int, cols: int) -> "Matrix":
        # with no rows, no row of ``cols`` zeros is built
        return cls._from_ints(((0,) * cols,) * rows if rows else (), 1, cols)

    def __getitem__(self, key) -> Fraction:
        i, j = key
        return Fraction(self._num[i][j], self._den)

    def row(self, i: int) -> tuple[Fraction, ...]:
        d = self._den
        return tuple(Fraction(x, d) for x in self._num[i])

    def column(self, j: int) -> tuple[Fraction, ...]:
        d = self._den
        return tuple(Fraction(r[j], d) for r in self._num)

    def take_columns(self, indices) -> "Matrix":
        idx = list(indices)
        return Matrix._lowest([[r[j] for j in idx] for r in self._num], self._den, len(idx))

    def submatrix(self, row_start, row_stop, col_start, col_stop) -> "Matrix":
        # a slice can drop the only entries prime to the denominator
        return Matrix._lowest(
            [r[col_start:col_stop] for r in self._num[row_start:row_stop]],
            self._den,
            col_stop - col_start,
        )

    def transpose(self) -> "Matrix":
        num = tuple(zip(*self._num)) or ((),) * self.cols
        return Matrix._from_ints(num, self._den, self.rows)

    def to_lists(self) -> list[list[Fraction]]:
        return [list(self.row(i)) for i in range(self.rows)]

    def to_strings(self) -> list[list[str]]:
        """The entries as "p" or "p/q" strings, as :func:`format_rational` writes them."""
        d = self._den
        out = []
        for r in self._num:
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
        return (
            self.rows == n
            and self._den == 1
            and all(r[i] == 1 and r.count(0) == n - 1 for i, r in enumerate(self._num))
        )

    def block_equals(
        self, r0: int, r1: int, c0: int, c1: int, other: "Matrix | None" = None
    ) -> bool:
        """Whether the block ``self[r0:r1, c0:c1]`` is zero or, given ``other``,
        equals ``other``'s top-left block of its shape; none is built."""
        rows = self._num[r0:r1]
        if other is None:
            return not any(any(r[c0:c1]) for r in rows)
        d, e, w = self._den, other._den, c1 - c0
        return all(
            x * e == y * d for a, b in zip(rows, other._num) for x, y in zip(a[c0:c1], b[:w])
        )

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.cols != other.rows:
                raise ValueError(
                    f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
                )
            if not (self.rows and self.cols and other.cols):
                return Matrix.zeros(self.rows, other.cols)
            right = list(zip(*other._num))
            num = [[sum(map(mul, a, b)) for b in right] for a in self._num]
            return Matrix._lowest(num, self._den * other._den, other.cols)
        return self.scale(other)

    def product_equals(self, other: "Matrix", target: "Matrix") -> bool:
        """Whether ``self * other == target``; the product is not built.

        Each integer dot product of the stored rows is cross-multiplied
        with ``target``'s entry over the two denominators, so no row is
        normalised and no ``Matrix`` is made.
        """
        if self.cols != other.rows:
            raise ValueError(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        if (target.rows, target.cols) != (self.rows, other.cols):
            return False
        if not self.cols:  # the product is zero
            return target.is_zero()
        d, e = self._den * other._den, target._den
        right = list(zip(*other._num))
        return all(
            sum(map(mul, a, b)) * e == y * d
            for a, row in zip(self._num, target._num)
            for b, y in zip(right, row)
        )

    def __rmul__(self, other):
        return self.scale(other)

    def scale(self, scalar) -> "Matrix":
        c = _exact(scalar, "matrix scalars")
        p, q = c.numerator, c.denominator
        return Matrix._lowest([[p * x for x in r] for r in self._num], q * self._den, self.cols)

    def _combine(self, other: "Matrix", op) -> "Matrix":
        # ``op`` (add or sub) applied entrywise over the lcm of the two denominators
        if (self.rows, self.cols) != (other.rows, other.cols):
            raise ValueError(f"shape mismatch in {'addition' if op is add else 'subtraction'}")
        d = lcm(self._den, other._den)
        fa, fb = d // self._den, d // other._den
        num = [[op(x * fa, y * fb) for x, y in zip(a, b)] for a, b in zip(self._num, other._num)]
        return Matrix._lowest(num, d, self.cols)

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


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns, the first nonzero in scan order.

    >>> rref(Matrix([[1, 2], [2, 4]]))
    (Matrix([[1, 2], [0, 0]]), [0])
    """
    if m.is_zero():
        return m, []
    reduced, p, pivots, _ = _eliminate(m, m.cols)
    return Matrix._lowest(reduced, p, m.cols), pivots


def _eliminate(m: Matrix, width: int, reduce: bool = True) -> tuple[list, int, list[int], Fraction]:
    """Fraction-free elimination of the integer rows of ``m`` in their first ``width`` columns.

    ``m`` is ``m._num / m._den``, one denominator scaling every row, so
    the integer rows have the echelon form of ``m`` and are eliminated as
    they are stored.  Each pivot, the first nonzero candidate in scan order, replaces every
    other row ``x`` it acts on by ``(piv * x - f * y) // prev``: ``y`` is
    the pivot row, ``f`` the entry of ``x`` under the pivot and ``prev``
    the last pivot, and the division is exact by Sylvester's identity
    (Bareiss 1968).  With ``reduce`` it acts on all rows (Gauss-Jordan),
    so every pivot ends equal to the last one ``p`` and the rows over
    ``p`` are the reduced row echelon form; without, on the rows below
    only.  Returns ``(rows, |p|, pivots, sign * p / m._den ** m.rows)``,
    the rows signed to go over ``|p|``; the last is the determinant when
    the pivots are ``range(m.rows)``.
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
    d = Fraction(sign * prev, m._den ** m.rows)
    if prev < 0:  # the same rows over a positive denominator
        a, prev = [[-x for x in r] for r in a], -prev
    return a, prev, pivots, d


def det(m: Matrix) -> Fraction:
    """Exact determinant, by forward fraction-free elimination."""
    if not m.is_square:
        raise ValueError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    _, _, pivots, d = _eliminate(m, m.cols, reduce=False)
    return d if len(pivots) == m.rows else Fraction(0)


class Split(NamedTuple):
    """One degree of a complex split as ``[B | H | L]``, kept as factors (:func:`split_degree`).

    ``widths`` is ``(b, h, l)``, ``harmonic`` the free coordinates ``S``
    whose kernel columns make ``H``, and ``det`` the basis determinant.
    ``columns`` holds the basis by columns and ``rows`` its inverse by
    rows, each an ``(indices, integers)`` pair of its nonzero entries,
    over ``column_den`` and ``row_den``: no factor is a dense ``n x n``
    matrix.  Only this module reads the pairs.
    """

    widths: tuple[int, int, int]
    harmonic: list[int]
    det: Fraction
    columns: list
    column_den: int
    rows: list
    row_den: int


def _sparse(v, scale: int) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """The nonzero entries of ``v``: their indices, and the entries times ``scale``."""
    return tuple(compress(range(len(v)), v)), tuple(map(scale.__mul__, filter(None, v)))


def _combination(vectors, term):
    """``sum_j c_j vectors[i_j]`` for the ``(indices, integers)`` pair ``term``;
    a term with the one coefficient 1 is that vector itself, and builds nothing."""
    idx, coef = term
    if len(idx) == 1:
        v, c = vectors[idx[0]], coef[0]
        return v if c == 1 else [c * x for x in v]
    return [sum(map(mul, coef, col)) for col in zip(*map(vectors.__getitem__, idx))]


def split_degree(boundary: Matrix, reduced: Matrix, pivots: list[int]) -> Split | None:
    """A degree's basis ``[B | H | L]`` as factors, by one elimination of ``b`` rows.

    ``reduced`` and ``pivots`` are the rref of the outgoing differential
    (``l`` pivots ``P``, top rows ``R``), whose kernel has the canonical
    basis ``K``: the identity on the free coordinates ``F``, and ``-R`` on
    ``P``.  ``boundary`` is ``B``, ``b`` independent columns as tall as
    ``reduced`` is wide; None when ``R B != 0``, that is when ``B`` leaves
    the kernel.  ``H`` is ``K``'s columns at ``S``, the greedy completion
    of ``B`` to a kernel basis, and ``L`` the unit columns at ``P``.  A
    free coordinate is passed over by the greedy scan exactly when some
    vector of span(``B_F``) has its last nonzero there, so the rref of
    ``B_F``'s transpose with ``F`` reversed finds those ``b`` coordinates
    ``Q``; its ``[* | I]`` part reduces to the transpose of ``B_Q^-1`` and
    its last pivot gives ``det B_Q``.  ``S`` is the rest of ``F``.  A
    vector ``v`` then has coordinates ``B_Q^-1 v_Q`` along ``B``, ``v_S -
    B_S B_Q^-1 v_Q`` along ``H`` and ``R v`` along ``L``.  In the row
    order ``Q, S, P`` the basis is block lower-triangular with diagonal
    ``(B_Q, I, I)``, so its determinant is ``det B_Q``, signed by that
    reordering.
    """
    n, b, l = reduced.cols, boundary.cols, len(pivots)
    top, rd = reduced._num[:l], reduced._den
    bnum, bd = boundary._num, boundary._den
    bcols = list(zip(*bnum))
    if any(sum(map(mul, r, c)) for r in top for c in bcols):
        return None
    pivot_set = set(pivots)
    free = [j for j in range(n) if j not in pivot_set]
    f = len(free)
    swaps = sum(free) - f * (f - 1) // 2  # pairs of a pivot before a free coordinate
    corner, inv, p, det_q = [], [], 1, _ONE
    if b:
        rev, unit = free[::-1], (0,) * b
        x = tuple(
            tuple(c[j] for j in rev) + unit[:k] + (bd,) + unit[k + 1:] for k, c in enumerate(bcols)
        )
        eliminated, p, chosen, det_q = _eliminate(Matrix._from_ints(x, bd, f + b), f)
        corner = [rev[c] for c in chosen]
        swaps += b * (f - 1) - sum(chosen)  # Q before S, Q listed last coordinate first
        inv = list(zip(*(r[f:] for r in eliminated)))  # B_Q^-1 over p, its columns in Q's order
    taken = set(corner)
    harmonic = [j for j in free if j not in taken]
    cd = lcm(bd, rd)
    u, v = cd // bd, cd // rd
    cols = [_sparse(c, u) for c in bcols]
    cols += [((s, *pivots), (cd, *(-r[s] * v for r in top))) for s in harmonic]
    cols += [((j,), (cd,)) for j in pivots]
    rden = lcm(bd * p, rd)
    u, v, w = rden // p, rden // (bd * p), rden // rd
    inv_cols = list(zip(*inv))
    rows = [(tuple(corner), tuple(map(u.__mul__, r))) for r in inv]
    rows += [
        ((s, *corner), (rden, *(-sum(map(mul, bnum[s], c)) * v for c in inv_cols)))
        for s in harmonic
    ]
    rows += [_sparse(r, w) for r in top]
    det_basis = -det_q if swaps % 2 else det_q
    return Split((b, len(harmonic), l), harmonic, det_basis, cols, cd, rows, rden)


def change_of_basis(t: Matrix, source: Split | None, target: Split | None) -> Matrix:
    """``basis_inv_T t basis_S``, read off the splits of ``t``'s two ends.

    None is a degree with no differential in or out, whose basis is the
    identity: with both ends None this is ``t`` itself, and no product.
    """
    rows, den = t._num, t._den
    if source is not None:  # each column of t basis_S combines columns of t
        columns = list(zip(*rows))
        rows = list(zip(*[_combination(columns, c) for c in source.columns]))
        den *= source.column_den
    if target is not None:  # each row of basis_inv_T Y combines rows of Y
        rows, den = [_combination(rows, r) for r in target.rows], den * target.row_den
    return t if source is target is None else Matrix._lowest(rows, den, t.cols)


def replacement(t: Matrix, m: Matrix, source: Split | None, target: Split | None) -> Matrix:
    """``t + B_T (I - m_BB) coordB_S + L_T (I - m_LL) R_S`` for ``m`` the change of basis of ``t``.

    That is ``t`` with the boundary and lift diagonal blocks of ``m`` set
    to identities, mapped back.  The two splits have equal widths; with
    no boundary or lift block (None) it is ``t``.
    """
    if source is None:
        return t
    b, _, l = source.widths
    n, mnum, md = t.cols, m._num, m._den
    e = md * source.row_den * target.column_den
    d = lcm(t._den, e)
    u, v = d // t._den, d // e
    g = [[x * u for x in r] for r in t._num]
    for block in (range(b), range(n - l, n)):
        for k in block:
            row = [0] * n  # row k of (I - m) on the block, in the source's coordinates
            for j in block:
                x = md * (j == k) - mnum[k][j]
                for q, c in zip(*source.rows[j]):
                    row[q] += x * c
            for r, c in zip(*target.columns[k]):
                c *= v
                g[r] = [y + c * z for y, z in zip(g[r], row)]
    return Matrix._lowest(g, d, n)
