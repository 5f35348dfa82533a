import random
from fractions import Fraction

import pytest

from modclass import (
    ChainMap,
    ComplexFiber,
    GradedDimensionMismatch,
    Matrix,
    NotHomotopyEquivalence,
    berezinian,
    berezinian_class,
    decompose,
    det,
    harmonic_blocks,
    invertible_replacement,
    verify_chain_map,
    verify_complex,
)
from modclass import complexes as complexes_module, linalg as linalg_module
from oracle import (
    Homotopy,
    conjugate_replacement,
    contraction_homotopy,
    global_null_homotopy,
    homotopy_between,
    permuted_decomposition,
    rank,
)
from randgen import (
    conjugated_complex,
    rand_chain_map,
    rand_complex,
    rand_homotopy,
    rand_invertible_endo,
    rand_matrix,
)


def acyc() -> ComplexFiber:
    return ComplexFiber(0, 1, {0: 1, 1: 1}, {0: Matrix([[1]])})


def one_term(value=None) -> ComplexFiber:
    return ComplexFiber(0, 0, {0: 1}, {})


def two_one() -> ComplexFiber:
    return ComplexFiber(0, 1, {0: 2, 1: 1}, {0: Matrix([[1, 0]])})


class TestVerifyComplex:
    def test_two_term_valid(self):
        assert verify_complex(acyc()).ok

    def test_nonzero_square(self):
        c = ComplexFiber(
            0, 2, {0: 1, 1: 1, 2: 1}, {0: Matrix([[1]]), 1: Matrix([[1]])}
        )
        report = verify_complex(c)
        assert not report.ok
        assert any("degree 0" in p for p in report.problems)

    def test_zero_differentials(self):
        assert verify_complex(ComplexFiber(0, 2, {0: 2, 1: 3, 2: 1}, {})).ok

    def test_shape_mismatch_reported(self):
        # construction checks the shape, so verify_complex never meets it
        error = "^differential at degree 0 has shape 1x1, expected 1x2$"
        with pytest.raises(ValueError, match=error):
            ComplexFiber(0, 1, {0: 2, 1: 1}, {0: Matrix([[1]])})


class TestVerifyChainMap:
    def test_identity(self):
        assert verify_chain_map(ChainMap.identity(acyc())).ok

    def test_zero(self):
        assert verify_chain_map(ChainMap.zero(acyc(), acyc())).ok

    def test_noncommuting(self):
        t = ChainMap(acyc(), acyc(), {0: Matrix([[1]]), 1: Matrix([[2]])})
        report = verify_chain_map(t)
        assert not report.ok
        assert any("degree 0" in p for p in report.problems)


class TestDecompose:
    def test_acyclic_two_term(self):
        # rank of the differential is 1, so no harmonic part anywhere
        dec = decompose(acyc())
        assert dec.widths(0) == (0, 0, 1)
        assert dec.widths(1) == (1, 0, 0)

    def test_one_term_all_harmonic(self):
        dec = decompose(one_term())
        assert dec.widths(0) == (0, 1, 0)

    def test_two_one(self):
        # kernel/image oracle: ker d0 = span(e1), im d0 = everything in degree 1
        dec = decompose(two_one())
        assert dec.widths(0) == (0, 1, 1)
        assert dec.widths(1) == (1, 0, 0)

    def test_blocks_characterize_splitting(self):
        rng = random.Random(5)
        for _ in range(15):
            c = rand_complex(rng)
            dec = decompose(c)
            for i in c.degrees():
                e = dec.edges(i)
                boundary, harmonic, lift = (
                    dec.basis_at(i).take_columns(range(e[k], e[k + 1])) for k in range(3)
                )
                d = c.differential(i)
                if harmonic.cols:
                    assert (d * harmonic).is_zero()
                if boundary.cols:
                    assert (d * boundary).is_zero()
                image = d * lift
                assert rank(image) == lift.cols == dec.boundary_dims.get(i + 1, 0)
                assert det(dec.basis_at(i)) != 0
                # in the bases d is a partial identity: lift onto the next
                # boundary block by the identity, zero elsewhere
                in_bases = dec.basis_inv_at(i + 1) * d * dec.basis_at(i)
                partial = [
                    [int(r == q - e[2] and q >= e[2]) for q in range(c.dim(i))]
                    for r in range(c.dim(i + 1))
                ]
                assert in_bases == Matrix(partial, cols=c.dim(i))

    def test_permuted_convention_still_splits(self):
        rng = random.Random(6)
        c = rand_complex(rng)
        perm = {i: rng.sample(range(c.dim(i)), c.dim(i)) for i in c.degrees()}
        dec = permuted_decomposition(c, perm)
        for i in c.degrees():
            assert det(dec.basis_at(i)) != 0
            assert dec.widths(i) == decompose(c).widths(i)

    def test_eliminates_each_differential_once(self, monkeypatch):
        # pivots and kernel come from one rref; nothing else decompose
        # eliminates equals d0 or d1
        d0 = Matrix([[1], [2], [3]])
        d1 = Matrix([[2, -1, 0], [3, 0, -1]])
        c = ComplexFiber(0, 2, {0: 1, 1: 3, 2: 2}, {0: d0, 1: d1})
        eliminated = []
        original = linalg_module.rref

        def counted(m):
            eliminated.append(m)
            return original(m)

        monkeypatch.setattr(linalg_module, "rref", counted)
        monkeypatch.setattr(complexes_module, "rref", counted)
        decompose(c)
        assert (eliminated.count(d0), eliminated.count(d1)) == (1, 1)

    def test_splits_each_degree_in_one_elimination_beyond_its_rref(self, monkeypatch):
        # the harmonic choice, the basis inverse and its determinant all
        # come from at most one elimination per degree, on top of one rref
        # per nonzero differential: d^-1 and d^2 are zero and need none,
        # and degree 0, with no boundary, splits with no elimination
        d0, d1 = Matrix([[1], [2], [3]]), Matrix([[2, -1, 0], [3, 0, -1]])
        c = ComplexFiber(0, 2, {0: 1, 1: 3, 2: 2}, {0: d0, 1: d1})
        per_call = [0]  # eliminations before the first split, then in each
        eliminate, split = linalg_module._eliminate, complexes_module.split_degree

        def counted_eliminate(*args, **kwargs):
            per_call[-1] += 1
            return eliminate(*args, **kwargs)

        def counted_split(*args):
            per_call.append(0)
            return split(*args)

        monkeypatch.setattr(linalg_module, "_eliminate", counted_eliminate)
        monkeypatch.setattr(complexes_module, "split_degree", counted_split)
        decompose(c)
        assert per_call == [2, 0, 1, 1]

    def test_refuses_a_differential_whose_width_is_not_the_dimension(self):
        # the split sizes each basis by the differentials; construction
        # makes them agree with dims before decompose sees them
        error = "^differential at degree -1 has shape 3x0, expected 2x0$"
        with pytest.raises(ValueError, match=error):
            ComplexFiber(0, 0, {0: 2}, {-1: Matrix.zeros(3, 0), 0: Matrix.zeros(0, 3)})

    def test_bases_build_no_identity_for_a_degree_they_hold(self, monkeypatch):
        # each degree keeps its factors: no identity, product or transpose
        # is made, and the bases are built only on request; degrees 2 and 3
        # have no differential in or out and store nothing
        c = ComplexFiber(0, 3, {0: 2, 1: 3, 2: 1, 3: 4}, {0: Matrix([[1, 2], [0, 1], [3, 6]])})
        built = []
        for name in ("identity", "__mul__", "transpose"):
            original = getattr(Matrix, name)
            monkeypatch.setattr(
                Matrix, name, lambda *args, name=name, f=original: built.append(name) or f(*args)
            )
        dec = decompose(c)
        assert built == [] and list(dec.splits) == [0, 1]
        assert dec.basis_at(3) == dec.basis_inv_at(3) == Matrix.identity(4)
        assert built == ["identity", "identity", "identity"]
        # outside its degrees a fiber is zero, and so is its basis
        assert dec.basis_at(c.d_max + 1) == dec.basis_inv_at(c.d_min - 1) == Matrix.zeros(0, 0)


class TestCohomologyDims:
    def test_acyclic(self):
        assert decompose(acyc()).harmonic_dims == {0: 0, 1: 0}

    def test_zero_differentials(self):
        c = ComplexFiber(0, 2, {0: 2, 1: 3, 2: 1}, {})
        assert decompose(c).harmonic_dims == {0: 2, 1: 3, 2: 1}

    def test_two_one(self):
        assert decompose(two_one()).harmonic_dims == {0: 1, 1: 0}


def null_homotopic(t: ChainMap) -> bool:
    """The library's criterion: ``t`` is a chain map whose harmonic blocks vanish."""
    blocks = harmonic_blocks(t, decompose(t.source), decompose(t.target))
    return verify_chain_map(t).ok and all(h.is_zero() for h in blocks.values())


class TestNullHomotopy:
    # the harmonic-block criterion against the global linear system, with
    # the contraction as the witness
    def test_identity_on_acyclic(self):
        # hand solve: 1 = w * 1 and 1 = 1 * w force the single entry w = 1
        t = ChainMap.identity(acyc())
        assert null_homotopic(t)
        h = global_null_homotopy(t)
        assert h is not None
        assert h.component(1) == Matrix([[1]])
        assert contraction_homotopy(t, decompose(acyc()), decompose(acyc())) == h

    def test_identity_on_one_term(self):
        t = ChainMap.identity(one_term())
        assert not null_homotopic(t)
        assert global_null_homotopy(t) is None

    def test_construct_then_solve(self):
        rng = random.Random(9)
        for _ in range(10):
            c = rand_complex(rng)
            phi = rand_homotopy(rng, c, c)
            t = phi.boundary_conjugate()
            assert null_homotopic(t)
            found = contraction_homotopy(t, decompose(c), decompose(c))
            assert found.boundary_conjugate() == t


class TestAreHomotopic:
    def test_equal_maps(self):
        f = ChainMap.identity(acyc())
        h = homotopy_between(f, f)
        assert h is not None
        assert h.boundary_conjugate() == f - f

    def test_identity_vs_zero_on_acyclic(self):
        assert homotopy_between(ChainMap.identity(acyc()), ChainMap.zero(acyc(), acyc()))

    def test_distinct_scalars_on_one_term(self):
        c = one_term()
        f = ChainMap(c, c, {0: Matrix([[1]])})
        g = ChainMap(c, c, {0: Matrix([[2]])})
        assert homotopy_between(f, g) is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            homotopy_between(ChainMap.identity(acyc()), ChainMap.identity(one_term()))


class TestIsHomotopyEquivalence:
    # a homotopy equivalence is a chain map whose harmonic blocks are
    # invertible: berezinian_class and invertible_replacement decide it
    def test_identity(self):
        f = ChainMap.identity(two_one())
        assert berezinian_class(f) == 1
        assert invertible_replacement(f) == f

    def test_zero_between_acyclics(self):
        assert berezinian_class(ChainMap.zero(acyc(), acyc())) == 1

    def test_zero_on_one_term(self):
        f = ChainMap.zero(one_term(), one_term())
        c = decompose(one_term())
        assert harmonic_blocks(f, c, c)[0] == Matrix.zeros(1, 1)
        for decide in (berezinian_class, invertible_replacement):
            with pytest.raises(NotHomotopyEquivalence, match="harmonic block at degree 0"):
                decide(f)


class TestInvertibleReplacement:
    def test_identity_passes_through(self):
        f = ChainMap.identity(acyc())
        g = invertible_replacement(f)
        assert g == f
        assert homotopy_between(g, f) == Homotopy.zero(acyc(), acyc())

    def test_zero_between_acyclics(self):
        g = invertible_replacement(ChainMap.zero(acyc(), acyc()))
        assert g.is_invertible()
        # no harmonic part, so the graded determinant collapses to 1
        assert berezinian(g) == 1

    def test_invertible_one_term(self):
        c = one_term()
        f = ChainMap(c, c, {0: Matrix([[5]])})
        assert invertible_replacement(f) == f

    def test_rejects_dimension_mismatch(self):
        with pytest.raises(GradedDimensionMismatch):
            invertible_replacement(ChainMap.zero(acyc(), one_term()))

    def test_rejects_non_equivalence(self):
        with pytest.raises(NotHomotopyEquivalence):
            invertible_replacement(ChainMap.zero(one_term(), one_term()))

    def test_random_replacements_are_certified(self):
        rng = random.Random(21)
        for _ in range(15):
            c = rand_complex(rng)
            f = rand_invertible_endo(rng, c)
            f = f + rand_homotopy(rng, c, c).boundary_conjugate()
            g = invertible_replacement(f)
            assert g == conjugate_replacement(f)
            assert g.is_invertible()
            assert verify_chain_map(g).ok
            homotopy = homotopy_between(g, f)
            assert homotopy is not None
            assert homotopy.boundary_conjugate() == g - f


class TestBerezinian:
    def test_two_term_quotient(self):
        t = ChainMap(acyc(), acyc(), {0: Matrix([[2]]), 1: Matrix([[3]])})
        assert berezinian(t) == Fraction(2, 3)

    def test_identity_with_matching_scales(self):
        assert berezinian(ChainMap.identity(acyc()), 7, 7) == 1

    def test_even_concentration_is_determinant(self):
        c = ComplexFiber(0, 0, {0: 2}, {})
        t = ChainMap(c, c, {0: Matrix([[2, 0], [0, 3]])})
        assert berezinian(t) == 6

    def test_scale_ratio(self):
        t = ChainMap.identity(acyc())
        assert berezinian(t, 3, 5) == Fraction(3, 5)

    def test_rejects_singular_component(self):
        with pytest.raises(ValueError):
            berezinian(ChainMap.zero(acyc(), acyc()))

    def test_multiplicative(self):
        rng = random.Random(12)
        for _ in range(10):
            c = rand_complex(rng)
            f = rand_invertible_endo(rng, c)
            g = rand_invertible_endo(rng, c)
            assert berezinian(f.compose(g)) == berezinian(f) * berezinian(g)

    def test_homotopy_invariance(self):
        rng = random.Random(13)
        hits = 0
        while hits < 10:
            c = rand_complex(rng)
            f = rand_invertible_endo(rng, c)
            twisted = f + rand_homotopy(rng, c, c).boundary_conjugate()
            if twisted.is_invertible():
                assert berezinian(twisted) == berezinian(f)
                hits += 1


class TestBerezinianClass:
    def test_exact_between_zero_complexes_with_disjoint_ranges(self):
        # degree 1 lies outside both fibers, so neither decomposition has a basis there
        t = ChainMap.zero(ComplexFiber(0, 0, {0: 0}, {}), ComplexFiber(2, 2, {2: 0}, {}))
        value = berezinian_class(t)
        assert (type(value), value) == (Fraction, 1)

    def test_homotopic_to_identity_gives_one(self):
        rng = random.Random(14)
        for _ in range(8):
            c = rand_complex(rng)
            f = ChainMap.identity(c) + rand_homotopy(rng, c, c).boundary_conjugate()
            assert berezinian_class(f) == 1

    def test_zero_between_acyclics(self):
        assert berezinian_class(ChainMap.zero(acyc(), acyc())) == 1

    def test_agrees_on_invertible_maps(self):
        rng = random.Random(15)
        for _ in range(8):
            c = rand_complex(rng)
            f = rand_invertible_endo(rng, c)
            assert berezinian_class(f) == berezinian(f)

    def test_acyclic_automorphisms_have_class_one(self):
        # alternating product over boundary blocks telescopes away
        rng = random.Random(16)
        for _ in range(8):
            base = ComplexFiber(
                0,
                1,
                {0: 2, 1: 2},
                {0: Matrix([[1, 0], [0, 1]])},
            )
            c, _ = conjugated_complex(rng, base)
            assert all(v == 0 for v in decompose(c).harmonic_dims.values())
            f = rand_invertible_endo(rng, c)
            assert berezinian_class(f) == 1

    def test_permutation_convention_independence(self):
        rng = random.Random(17)
        for _ in range(8):
            c = rand_complex(rng)
            f = rand_invertible_endo(rng, c)
            f = f + rand_homotopy(rng, c, c).boundary_conjugate()
            perm_src = {i: rng.sample(range(c.dim(i)), c.dim(i)) for i in c.degrees()}
            perm_tgt = {i: rng.sample(range(c.dim(i)), c.dim(i)) for i in c.degrees()}
            value = berezinian_class(f)
            ends = permuted_decomposition(c, perm_src), permuted_decomposition(c, perm_tgt)
            alt = complexes_module._class_berezinian(harmonic_blocks(f, *ends), *ends, 1, 1)
            assert value == alt

    def test_cross_complex_maps(self):
        rng = random.Random(18)
        for _ in range(6):
            c = rand_complex(rng)
            other, q = conjugated_complex(rng, c)
            f = q.compose(rand_invertible_endo(rng, c))
            degenerate = f + rand_homotopy(rng, c, other).boundary_conjugate()
            assert berezinian_class(degenerate) == berezinian(f)


def test_negative_degree_ranges_supported():
    # dims (1, 1) across degrees (-1, 0); the odd slot is now degree -1
    c = ComplexFiber(-1, 0, {-1: 1, 0: 1}, {-1: Matrix([[1]])})
    assert verify_complex(c).ok
    dec = decompose(c)
    assert dec.widths(-1) == (0, 0, 1)
    assert dec.widths(0) == (1, 0, 0)
    t = ChainMap(c, c, {-1: Matrix([[3]]), 0: Matrix([[3]])})
    assert verify_chain_map(t).ok
    # degree -1 is odd, degree 0 even: quotient is det0 / det(-1) = 1
    assert berezinian(t) == 1
    assert berezinian_class(ChainMap.zero(c, c)) == 1
    odd = ComplexFiber(-3, -3, {-3: 1}, {})
    f = ChainMap(odd, odd, {-3: Matrix([[2]])})
    assert berezinian(f) == Fraction(1, 2)


def test_harmonic_blocks_are_square_of_harmonic_size():
    rng = random.Random(19)
    for _ in range(10):
        c = rand_complex(rng)
        t = rand_chain_map(rng, c, c)
        dec = decompose(c)
        blocks = harmonic_blocks(t, dec, dec)
        for i in c.degrees():
            block = blocks.get(i, Matrix.zeros(0, 0))
            assert (block.rows, block.cols) == (dec.harmonic_dims.get(i, 0),) * 2


def test_berezinian_class_rejects_float_scales():
    c = ComplexFiber(0, 0, {0: 1}, {})
    with pytest.raises(TypeError, match="exact rationals"):
        berezinian_class(ChainMap.identity(c), 0.1, 1)


def test_chain_map_scale_rejects_floats():
    c = ComplexFiber(0, 0, {0: 1}, {})
    with pytest.raises(TypeError, match="exact rationals"):
        ChainMap.identity(c).scale(0.1)


@pytest.mark.parametrize("dim", [2.9, True, Fraction(2), "2", None])
def test_complex_fiber_refuses_a_dimension_that_is_not_an_int(dim):
    with pytest.raises(TypeError, match="not an int"):
        ComplexFiber(0, 1, {0: 2, 1: dim}, {})


@pytest.mark.parametrize(
    ("dims", "error"),
    [
        ({0: -1}, "dimension -1 of degree 0 is negative"),
        ({0: 1, 1: 1, 5: 3}, r"dimension 3 of degree 5 is outside \[0, 1\]"),
        ({-1: 2, 0: 1}, r"dimension 2 of degree -1 is outside \[0, 1\]"),
    ],
    ids=["negative", "above-the-range", "below-the-range"],
)
def test_complex_fiber_refuses_a_dimension_it_cannot_hold(dims, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        ComplexFiber(0, 1, dims, {})


def test_complex_fiber_stores_its_nonzero_degrees():
    # a 0 is accepted for any degree, inside the range or not, and dropped
    c = ComplexFiber(0, 4, {3: 1, 9: 0, 1: 2, 0: 0, -2: 0}, {})
    same = ComplexFiber(0, 4, {1: 2, 3: 1}, {})
    assert list(c.dims.items()) == [(1, 2), (3, 1)]
    assert [c.dim(i) for i in range(-1, 6)] == [0, 0, 2, 0, 1, 0, 0]
    assert (c.degrees(), c.total_dim()) == (range(0, 5), 3)
    assert c == same and hash(c) == hash(same)
    assert decompose(c).harmonic_dims == {1: 2, 3: 1}


def test_stored_data_at_a_zero_degree_is_still_checked():
    # degree 0 of c is zero, so a component there must be 0x0 and
    # d^0 must be 0x1; construction refuses anything else, and drops the
    # empty entry it accepts
    c = ComplexFiber(0, 1, {1: 1}, {})
    with pytest.raises(ValueError, match="^component at degree 0 has shape 1x1, expected 0x0$"):
        ChainMap(c, c, {0: Matrix([[1]]), 1: Matrix([[1]])})
    empty_there = ChainMap(c, c, {0: Matrix.zeros(0, 0), 1: Matrix([[1]])})
    assert empty_there.is_identity() and empty_there == ChainMap.identity(c)
    assert list(empty_there.components) == [1]
    with pytest.raises(ValueError, match="^differential at degree 0 has shape 1x1, expected 0x1$"):
        ComplexFiber(0, 2, {0: 1, 2: 1}, {0: Matrix([[1]])})
    assert ComplexFiber(0, 2, {0: 1, 2: 1}, {0: Matrix.zeros(0, 1)}).differentials == {}


def gap() -> ComplexFiber:
    return ComplexFiber(0, 1, {1: 1}, {})


def one_two() -> ComplexFiber:
    return ComplexFiber(0, 1, {0: 1, 1: 2}, {})


@pytest.mark.parametrize(
    ("build", "error"),
    [
        # a differential past the range once passed every check
        (lambda: ComplexFiber(0, 0, {0: 1}, {5: Matrix([[1]])}),
         "differential at degree 5 has shape 1x1, expected 0x0"),
        (lambda: ComplexFiber(0, 0, {0: 1}, {-1: Matrix([[1]])}),
         "differential at degree -1 has shape 1x1, expected 1x0"),
        (lambda: ChainMap(gap(), gap(), {0: Matrix([[1]])}),
         "component at degree 0 has shape 1x1, expected 0x0"),
        # component 1 of a homotopy goes to target degree 0: 1x2, not 2x2
        (lambda: Homotopy(one_two(), one_two(), {1: Matrix.identity(2)}),
         "component at degree 1 has shape 2x2, expected 1x2"),
    ],
    ids=["differential-past-the-range", "differential-below-the-range",
         "component-at-a-zero-degree", "homotopy-component"],
)
def test_construction_refuses_a_misshapen_entry(build, error):
    with pytest.raises(ValueError, match=f"^{error}$"):
        build()


def with_zeros(rng: random.Random, entries: dict, shape, lo: int, hi: int) -> dict:
    """``entries`` with zero or empty matrices of shape ``shape(i)`` given
    at random degrees from ``lo`` to ``hi`` where none is."""
    padded = dict(entries)
    for i in range(lo, hi + 1):
        if i not in padded and rng.random() < 0.6:
            padded[i] = Matrix.zeros(*shape(i))
        elif i in padded and rng.random() < 0.2:
            padded[i] = padded[i].scale(0)
    return dict(rng.sample(sorted(padded.items()), len(padded)))


@pytest.mark.parametrize("seed", range(40))
def test_zero_and_empty_entries_are_not_stored(seed):
    # fibers and maps given zero or empty entries, in any order and past
    # the range, store what the same ones built from the nonzero entries store
    rng = random.Random(seed)
    src, tgt = rand_complex(rng, -2, 2), rand_complex(rng, -1, 3)
    lo, hi = min(src.d_min, tgt.d_min) - 2, max(src.d_max, tgt.d_max) + 2
    for c in (src, tgt):
        given = with_zeros(rng, c.differentials, lambda i: (c.dim(i + 1), c.dim(i)), lo, hi)
        nonzero = {i: m for i, m in given.items() if not m.is_zero()}
        built, bare = (ComplexFiber(c.d_min, c.d_max, c.dims, d) for d in (given, nonzero))
        assert built.differentials == bare.differentials == nonzero
        assert list(built.differentials) == sorted(nonzero)
        assert built == bare and hash(built) == hash(bare)
    maps = (
        (ChainMap, 0, rand_chain_map(rng, src, tgt)),
        (Homotopy, -1, rand_homotopy(rng, src, tgt)),
    )
    for kind, shift, t in maps:
        given = with_zeros(rng, t.components, lambda i: (tgt.dim(i + shift), src.dim(i)), lo, hi)
        nonzero = {i: m for i, m in given.items() if not m.is_zero()}
        built, bare = kind(src, tgt, given), kind(src, tgt, nonzero)
        assert built.components == bare.components == nonzero
        assert list(built.components) == sorted(nonzero)
        assert built == bare
        if kind is ChainMap:
            assert hash(built) == hash(bare)


def test_non_chain_maps_are_refused_as_such():
    rng = random.Random(23)
    refused = 0
    for _ in range(40):
        c = rand_complex(rng, max_dim=3)
        t = ChainMap(c, c, {i: rand_matrix(rng, c.dim(i), c.dim(i)) for i in c.degrees()})
        if verify_chain_map(t).ok:
            continue
        refused += 1
        for entry in (berezinian_class, invertible_replacement):
            with pytest.raises(ValueError, match="^not a chain map: "):
                entry(t)
    assert refused >= 10


@pytest.mark.parametrize("seed", range(40))
@pytest.mark.parametrize(
    ("kind", "shift"), [(ChainMap, 0), (Homotopy, -1)], ids=["chain-map", "homotopy"]
)
def test_graded_maps_share_defaults_equality_and_repr(kind, shift, seed):
    # component i goes from source degree i to target degree i + shift
    rng = random.Random(seed)
    src, tgt = rand_complex(rng, -2, 2), rand_complex(rng, -1, 3)
    lo, hi = min(src.d_min, tgt.d_min), max(src.d_max, tgt.d_max)
    zero = kind.zero(src, tgt)
    # the degrees of the span where the source or the target is nonzero
    assert zero.degrees() == [
        i for i in range(lo, hi + 1 - shift) if src.dim(i) or tgt.dim(i + shift)
    ]
    for i in range(lo - 2, hi + 3):
        c = zero.component(i)
        assert (c.rows, c.cols) == (tgt.dim(i + shift), src.dim(i)) and c.is_zero()
    shapes = {i: (tgt.dim(i + shift), src.dim(i)) for i in zero.degrees()}
    given = {i: rand_matrix(rng, *shape) for i, shape in shapes.items() if rng.random() < 0.5}
    padded = {i: given.get(i, Matrix.zeros(*shape)) for i, shape in shapes.items()}
    assert kind(src, tgt, given) == kind(src, tgt, padded)
    assert (kind(src, tgt, given) == zero) == all(m.is_zero() for m in given.values())
    name = "ChainMap" if shift == 0 else "Homotopy"
    assert repr(zero) == f"{name}({src!r} -> {tgt!r})"
    # a chain map never equals a homotopy, whichever side asks
    assert ChainMap.zero(src, tgt) != Homotopy.zero(src, tgt)
    assert Homotopy.zero(src, tgt) != ChainMap.zero(src, tgt)
    assert not ChainMap.zero(src, tgt) == Homotopy.zero(src, tgt)
    assert hash(ChainMap.zero(src, tgt)) == hash((src, tgt))
    with pytest.raises(TypeError, match="unhashable"):
        hash(Homotopy.zero(src, tgt))
