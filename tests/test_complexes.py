import random
from fractions import Fraction

import pytest

from modclass import (
    ChainMap,
    ComplexFiber,
    GradedDimensionMismatch,
    Homotopy,
    Matrix,
    NotHomotopyEquivalence,
    are_homotopic,
    berezinian,
    berezinian_class,
    cohomology_dims,
    decompose,
    det,
    harmonic_blocks,
    invertible_replacement,
    is_homotopy_equivalence,
    null_homotopy,
    rank,
    verify_chain_map,
    verify_complex,
)
from modclass import complexes as complexes_module, linalg as linalg_module
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
        c = ComplexFiber(0, 1, {0: 2, 1: 1}, {0: Matrix([[1]])})
        assert not verify_complex(c).ok


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
                boundary, harmonic, lift = dec.blocks(i)
                d = c.differential(i)
                if harmonic.cols:
                    assert (d * harmonic).is_zero()
                if boundary.cols:
                    assert (d * boundary).is_zero()
                image = d * lift
                assert rank(image) == lift.cols == dec.boundary_dims.get(i + 1, 0)
                assert det(dec.basis[i]) != 0

    def test_permuted_convention_still_splits(self):
        rng = random.Random(6)
        c = rand_complex(rng)
        perm = {i: rng.sample(range(c.dim(i)), c.dim(i)) for i in c.degrees()}
        dec = decompose(c, perm)
        for i in c.degrees():
            assert det(dec.basis[i]) != 0
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


class TestCohomologyDims:
    def test_acyclic(self):
        assert cohomology_dims(acyc()) == {0: 0, 1: 0}

    def test_zero_differentials(self):
        c = ComplexFiber(0, 2, {0: 2, 1: 3, 2: 1}, {})
        assert cohomology_dims(c) == {0: 2, 1: 3, 2: 1}

    def test_two_one(self):
        assert cohomology_dims(two_one()) == {0: 1, 1: 0}


class TestNullHomotopy:
    def test_identity_on_acyclic(self):
        # hand solve: 1 = w * 1 and 1 = 1 * w force the single entry w = 1
        h = null_homotopy(ChainMap.identity(acyc()))
        assert h is not None
        assert h.component(1) == Matrix([[1]])

    def test_identity_on_one_term(self):
        assert null_homotopy(ChainMap.identity(one_term())) is None

    def test_construct_then_solve(self):
        rng = random.Random(9)
        for _ in range(10):
            c = rand_complex(rng)
            phi = rand_homotopy(rng, c, c)
            t = phi.boundary_conjugate()
            found = null_homotopy(t)
            assert found is not None
            assert found.boundary_conjugate() == t


class TestAreHomotopic:
    def test_equal_maps(self):
        f = ChainMap.identity(acyc())
        h = are_homotopic(f, f)
        assert h is not None
        assert h.boundary_conjugate() == f - f

    def test_identity_vs_zero_on_acyclic(self):
        assert are_homotopic(ChainMap.identity(acyc()), ChainMap.zero(acyc(), acyc()))

    def test_distinct_scalars_on_one_term(self):
        c = one_term()
        f = ChainMap(c, c, {0: Matrix([[1]])})
        g = ChainMap(c, c, {0: Matrix([[2]])})
        assert are_homotopic(f, g) is None

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            are_homotopic(ChainMap.identity(acyc()), ChainMap.identity(one_term()))


class TestIsHomotopyEquivalence:
    def test_identity(self):
        assert bool(is_homotopy_equivalence(ChainMap.identity(two_one())))

    def test_zero_between_acyclics(self):
        assert bool(is_homotopy_equivalence(ChainMap.zero(acyc(), acyc())))

    def test_zero_on_one_term(self):
        check = is_homotopy_equivalence(ChainMap.zero(one_term(), one_term()))
        assert not check
        assert check.cohomology_maps[0] == Matrix.zeros(1, 1)


class TestInvertibleReplacement:
    def test_identity_passes_through(self):
        g, h = invertible_replacement(ChainMap.identity(acyc()))
        assert g == ChainMap.identity(acyc())
        assert h == Homotopy.zero(acyc(), acyc())

    def test_zero_between_acyclics(self):
        g, h = invertible_replacement(ChainMap.zero(acyc(), acyc()))
        assert g.is_invertible()
        # no harmonic part, so the graded determinant collapses to 1
        assert berezinian(g) == 1

    def test_invertible_one_term(self):
        c = one_term()
        f = ChainMap(c, c, {0: Matrix([[5]])})
        g, h = invertible_replacement(f)
        assert g == f

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
            g, homotopy = invertible_replacement(f)
            assert g.is_invertible()
            assert verify_chain_map(g).ok
            assert g - f == homotopy.boundary_conjugate()
            assert null_homotopy(g - f) is not None


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
            assert all(v == 0 for v in cohomology_dims(c).values())
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
            alt = berezinian_class(
                f, 1, 1, decompose(c, perm_src), decompose(c, perm_tgt)
            )
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
            assert (blocks[i].rows, blocks[i].cols) == (dec.harmonic_dims[i],) * 2


def test_berezinian_class_rejects_float_scales():
    c = ComplexFiber(0, 0, {0: 1}, {})
    with pytest.raises(TypeError, match="exact rationals"):
        berezinian_class(ChainMap.identity(c), 0.1, 1)


def test_chain_map_scale_rejects_floats():
    c = ComplexFiber(0, 0, {0: 1}, {})
    with pytest.raises(TypeError, match="exact rationals"):
        ChainMap.identity(c).scale(0.1)


def test_non_chain_maps_are_refused_as_such():
    rng = random.Random(23)
    refused = 0
    for _ in range(40):
        c = rand_complex(rng, max_dim=3)
        t = ChainMap(c, c, {i: rand_matrix(rng, c.dim(i), c.dim(i)) for i in c.degrees()})
        if verify_chain_map(t).ok:
            continue
        refused += 1
        for entry in (berezinian_class, invertible_replacement, is_homotopy_equivalence):
            with pytest.raises(ValueError, match="^not a chain map: "):
                entry(t)
    assert refused >= 10
