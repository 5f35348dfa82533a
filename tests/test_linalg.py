import random
import tracemalloc
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from modclass import (
    Matrix,
    det,
    format_rational,
    parse_rational,
    rref,
)
from oracle import (
    det_and_inverse,
    extend_to_basis,
    hstack,
    kernel_basis,
    rank,
    rref as gauss_jordan_rref,
    solve,
)

rationals = st.builds(Fraction, st.integers(-4, 4), st.integers(1, 3))


@st.composite
def matrices(draw, max_dim=4, rows=None, cols=None, square=False):
    r = draw(st.integers(0, max_dim)) if rows is None else rows
    c = r if square else (draw(st.integers(0, max_dim)) if cols is None else cols)
    entries = draw(
        st.lists(
            st.lists(rationals, min_size=c, max_size=c), min_size=r, max_size=r
        )
    )
    return Matrix(entries, cols=c)


def naive_det(m: Matrix) -> Fraction:
    """Cofactor expansion along the first row; independent of elimination."""
    n = m.rows
    if n == 0:
        return Fraction(1)
    if n == 1:
        return m[0, 0]
    total = Fraction(0)
    for j in range(n):
        minor = Matrix(
            [
                [m[i, k] for k in range(n) if k != j]
                for i in range(1, n)
            ],
            cols=n - 1,
        )
        total += (-1) ** j * m[0, j] * naive_det(minor)
    return total


class TestRationalStrings:
    def test_round_trip(self):
        for text in ["0", "7", "-3", "1/2", "-5/10"]:
            assert format_rational(parse_rational(text)) == str(Fraction(text))

    def test_zero_denominator(self):
        with pytest.raises(ValueError, match="zero denominator"):
            parse_rational("1/0")

    @pytest.mark.parametrize("bad", ["1.5", "a/b", "2/-3", "", "1/2/3", "1e3"])
    def test_malformed(self, bad):
        with pytest.raises(ValueError):
            parse_rational(bad)


def test_matrix_rejects_float_entries():
    with pytest.raises(TypeError, match="exact rationals"):
        Matrix([[0.1]])


@pytest.mark.parametrize("text", ["1", "1/2", "\uff11", " 3 ", "1e3", "1.5"])
def test_matrix_refuses_string_entries(text):
    # strings are read by parse_rational, which holds to the published pattern
    with pytest.raises(TypeError, match="parse_rational"):
        Matrix([[text]])
    with pytest.raises(TypeError, match="parse_rational"):
        Matrix([[1, text]], cols=2)


def test_matrix_scale_rejects_floats():
    with pytest.raises(TypeError, match="exact rationals"):
        Matrix([[1]]).scale(0.1)


def test_float_times_matrix_is_refused():
    with pytest.raises(TypeError, match="exact rationals"):
        0.1 * Matrix([[1]])


def test_matrix_times_float_is_refused():
    with pytest.raises(TypeError, match="exact rationals"):
        Matrix([[1]]) * 0.1


class TestRref:
    def test_zero_matrix(self):
        reduced, pivots = rref(Matrix([[0]]))
        assert pivots == []
        assert reduced == Matrix([[0]])

    def test_identity(self):
        reduced, pivots = rref(Matrix.identity(3))
        assert pivots == [0, 1, 2]
        assert reduced == Matrix.identity(3)

    def test_rank_one(self):
        # hand row-reduction: r2 <- r2 - 2 r1 leaves [[1, 2], [0, 0]]
        reduced, pivots = rref(Matrix([[1, 2], [2, 4]]))
        assert pivots == [0]
        assert reduced == Matrix([[1, 2], [0, 0]])

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_matches_the_oracle_and_rank(self, m):
        reduced, pivots = rref(m)
        assert (reduced, pivots) == gauss_jordan_rref(m)
        assert rank(m) == len(pivots)


class TestKernel:
    def test_identity_has_trivial_kernel(self):
        k = kernel_basis(Matrix.identity(4))
        assert k.cols == 0 and k.rows == 4

    def test_zero_matrix(self):
        k = kernel_basis(Matrix.zeros(2, 3))
        assert k == Matrix.identity(3)

    def test_line(self):
        k = kernel_basis(Matrix([[1, 1]]))
        assert k.cols == 1
        # the single column solves x + y = 0
        assert Matrix([[1, 1]]) * k == Matrix.zeros(1, 1)
        assert k.column(0) == (Fraction(-1), Fraction(1))

    @settings(max_examples=60, deadline=None)
    @given(matrices())
    def test_rank_nullity(self, m):
        k = kernel_basis(m)
        assert rank(m) + k.cols == m.cols
        if k.cols:
            assert (m * k).is_zero()
            assert rank(k) == k.cols


class TestSolve:
    def test_identity_system(self):
        b = Matrix([[3], [4]])
        assert solve(Matrix.identity(2), b) == b

    def test_underdetermined(self):
        x = solve(Matrix([[1, 1]]), Matrix([[2]]))
        assert x is not None
        # substitution: the found vector really sums to 2
        assert x[0, 0] + x[1, 0] == 2

    def test_inconsistent(self):
        assert solve(Matrix([[0]]), Matrix([[1]])) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            solve(Matrix.identity(2), Matrix([[1]]))

    @settings(max_examples=60, deadline=None)
    @given(matrices(), st.data())
    def test_solution_iff_rank_equality(self, a, data):
        b = data.draw(matrices(rows=a.rows, cols=1))
        x = solve(a, b)
        augmented_rank = rank(hstack(a, b))
        if x is None:
            assert rank(a) < augmented_rank
        else:
            assert a * x == b
            assert rank(a) == augmented_rank


def test_identity_entries_are_fractions():
    m = Matrix.identity(3)
    assert (m.rows, m.cols) == (3, 3)
    assert m == Matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert all(type(x) is Fraction for row in m.to_lists() for x in row)
    assert (Matrix.identity(0).rows, Matrix.identity(0).cols) == (0, 0)


def test_a_matrix_with_no_rows_builds_no_row():
    # one row of a million zeros is about 8 MB
    tracemalloc.start()
    try:
        m = Matrix.zeros(0, 10**6)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (m.rows, m.cols, m.to_lists()) == (0, 10**6, [])
    assert m == Matrix([], cols=10**6) and m.is_zero()
    assert peak < 100_000


class TestDet:
    def test_identity(self):
        d, inv = det_and_inverse(Matrix.identity(3))
        assert d == 1 and inv == Matrix.identity(3)

    def test_diagonal(self):
        m = Matrix([[2, 0], [0, 3]])
        assert naive_det(m) == 6
        d, inv = det_and_inverse(m)
        assert d == 6
        assert m * inv == Matrix.identity(2)

    def test_singular(self):
        m = Matrix([[1, 2], [2, 4]])
        assert naive_det(m) == 0
        d, inv = det_and_inverse(m)
        assert d == 0 and inv is None

    def test_non_square(self):
        with pytest.raises(ValueError):
            det(Matrix.zeros(2, 3))

    def test_empty(self):
        assert det(Matrix.zeros(0, 0)) == 1

    @settings(max_examples=60, deadline=None)
    @given(matrices(max_dim=4, square=True))
    def test_matches_cofactor_expansion(self, m):
        assert det(m) == naive_det(m)

    @settings(max_examples=40, deadline=None)
    @given(st.data())
    def test_multiplicative(self, data):
        n = data.draw(st.integers(0, 3))
        a = data.draw(matrices(rows=n, cols=n))
        b = data.draw(matrices(rows=n, cols=n))
        assert det(a * b) == det(a) * det(b)


class TestExtendToBasis:
    def test_already_full(self):
        basis = Matrix([[1, 0], [1, 1]])
        assert extend_to_basis(basis, Matrix.identity(2)) == basis

    def test_from_empty(self):
        out = extend_to_basis(Matrix.zeros(2, 0), Matrix.identity(2))
        assert out == Matrix.identity(2)

    def test_completes_greedily(self):
        # (1,1) is completed by the first standard vector outside its span
        out = extend_to_basis(Matrix([[1], [1]]), Matrix.identity(2))
        assert out == Matrix([[1, 1], [1, 0]])

    def test_rejects_dependent_columns(self):
        with pytest.raises(ValueError):
            extend_to_basis(Matrix([[1, 2], [1, 2]]), Matrix.identity(2))

    def test_rejects_outside_span(self):
        with pytest.raises(ValueError):
            extend_to_basis(Matrix([[0], [1]]), Matrix([[1], [0]]))


def test_deterministic_outputs():
    rng = random.Random(3)
    for _ in range(10):
        m = Matrix(
            [
                [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(3)]
                for _ in range(3)
            ]
        )
        first = rref(m)
        second = rref(m)
        assert first == second
        assert repr(first[0]) == repr(second[0])
        assert det_and_inverse(m) == det_and_inverse(m)
