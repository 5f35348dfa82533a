"""Differential tests: the factored split against the dense one.

``decompose`` keeps each degree as factors (``linalg.Split``) and reads
the change of basis and the replacement off them.  The reference is
``oracle.dense_decompose``, built on ``oracle.dense_split_degree``, the
split that built the dense basis ``[B | H | L]`` and its inverse by one
elimination of ``[B_F | I]``.  Complexes come from
``randgen.rand_complex``, half of them conjugated by
``randgen.conjugated_complex`` and some with differentials dropped, so
the cases reach degrees with no boundary (b = 0), with no lift (l = 0)
and with no differential in or out (which store nothing).
"""

import random
import tracemalloc

from hypothesis import given, settings, strategies as st

from modclass import (
    ChainMap,
    ComplexFiber,
    Matrix,
    NotHomotopyEquivalence,
    decompose,
    invertible_replacement,
)
from modclass.complexes import _in_bases
from oracle import conjugate_replacement, dense_decompose
from randgen import (
    conjugated_complex,
    rand_chain_map,
    rand_complex,
    rand_homotopy_equivalence,
    rand_matrix,
)


def split_case(seed: int) -> tuple[random.Random, ComplexFiber]:
    """A random complex: conjugated for odd seeds, with each differential
    dropped with probability 1/2 for seeds divisible by 3."""
    rng = random.Random(seed)
    c = rand_complex(rng, -1, 3, 5)
    if seed % 2:
        c = conjugated_complex(rng, c)[0]
    if seed % 3 == 0:
        kept = {i: d for i, d in c.differentials.items() if rng.random() < 0.5}
        c = ComplexFiber(c.d_min, c.d_max, c.dims, kept)
    return rng, c


def check_split(c: ComplexFiber) -> None:
    dec = decompose(c)
    ref, harmonic = dense_decompose(c)
    assert dec.tau == ref.tau
    for i in range(c.d_min - 1, c.d_max + 2):
        assert dec.widths(i) == ref.widths(i)
        split = dec.splits.get(i)
        assert (list(range(c.dim(i))) if split is None else split.harmonic) == harmonic.get(i, [])
        assert dec.basis_at(i) == ref.basis_at(i)
        assert dec.basis_inv_at(i) == ref.basis_inv_at(i)


@settings(max_examples=150, deadline=None)
@given(st.integers(0, 10**6))
def test_the_factors_give_the_dense_split(seed):
    check_split(split_case(seed)[1])


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_the_change_of_basis_is_the_dense_product(seed):
    rng, src = split_case(seed)
    tgt = src if seed % 4 == 0 else split_case(seed + 1)[1]
    ends = decompose(src), decompose(tgt)
    refs = dense_decompose(src)[0], dense_decompose(tgt)[0]
    raw = ChainMap(src, tgt, {i: rand_matrix(rng, tgt.dim(i), src.dim(i)) for i in src.dims})
    for t in (rand_chain_map(rng, src, tgt), raw):
        _, ms = _in_bases(t, *ends)
        for i, m in ms.items():
            assert m == refs[1].basis_inv_at(i) * t.component(i) * refs[0].basis_at(i)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 10**6))
def test_the_replacement_is_the_conjugate_one(seed):
    rng, c = split_case(seed)
    other, q = conjugated_complex(rng, c)
    for f in (rand_homotopy_equivalence(rng, c, other, q), rand_chain_map(rng, c, c)):
        try:
            g = invertible_replacement(f)
        except NotHomotopyEquivalence:
            continue
        assert g == conjugate_replacement(f)


def test_the_split_cases_reach_every_kind_of_degree():
    seen = set()
    for seed in range(60):
        c = split_case(seed)[1]
        dec = decompose(c)
        for i in c.dims:
            b, _, l = dec.widths(i)
            seen.add("no boundary" if b == 0 else "boundary")
            seen.add("no lift" if l == 0 else "lift")
            if i not in dec.splits:
                seen.add("no factor")
    assert seen == {"no boundary", "boundary", "no lift", "lift", "no factor"}


def test_a_degree_with_no_differential_costs_nothing():
    # one degree of dimension 2,048: no factor, no basis, and its change of
    # basis is the map itself
    c = ComplexFiber(0, 0, {0: 2048}, {})
    tracemalloc.start()
    try:
        dec = decompose(c)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024
    assert dec.splits == {} and dec.widths(0) == (0, 2048, 0) and dec.tau == 1
    t = ChainMap(c, c, {0: Matrix([[2] + [0] * 2047] + [[0] * 2048] * 2047)})
    _, ms = _in_bases(t, dec, dec)
    assert ms[0] is t.component(0)
