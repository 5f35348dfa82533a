"""Differential tests: the decomposition's closed forms against slow references.

A chain map is null-homotopic exactly when it is a chain map whose
harmonic blocks vanish, and ``verify_ruth`` decides homotopies that way;
the reference is the global linear system in ``oracle.py``, and the
contraction in ``oracle.py`` witnesses each homotopy found.
``berezinian_class`` reads the Berezinian off harmonic-block and basis
determinants; the reference is the Berezinian of an explicit invertible
replacement, and its closed form is held to the per-degree ``Fraction``
product it replaced.  The Berezinian representation and the harmonic
blocks kept by a ``verify_ruth`` report are checked against
``berezinian_class`` per arrow and against the per-arrow and per-degree
constructions in ``oracle.py``.
"""

import random
import re

import pytest

from modclass import (
    ChainMap,
    ComplexFiber,
    Matrix,
    NotHomotopyEquivalence,
    berezinian,
    berezinian_class,
    decompose,
    harmonic_blocks,
    invertible_replacement,
    verify_chain_map,
    verify_ruth,
)
from modclass.complexes import _class_berezinian
from oracle import (
    class_berezinian_by_degree,
    contraction_homotopy,
    global_null_homotopy,
    homotopy_between,
    per_arrow_ber_rep,
    per_degree_cohomology_rep,
    permuted_decomposition,
    regular_factorization_check,
)
from randgen import (
    conjugated_complex,
    rand_chain_map,
    rand_complex,
    rand_homotopy,
    rand_invertible_endo,
    rand_matrix,
    rand_ruth,
    rand_rational,
    rand_trivialization,
    standard_fixtures,
)

SEEDS = range(200)


def _complex(rng):
    return rand_complex(rng, d_min=rng.randint(-1, 0), d_max=2, max_dim=3)


def _check_against_oracle(t: ChainMap) -> bool:
    # null-homotopic exactly when a chain map with zero harmonic blocks
    ends = decompose(t.source), decompose(t.target)
    blocks = harmonic_blocks(t, *ends).values()
    found = verify_chain_map(t).ok and all(h.is_zero() for h in blocks)
    assert found == (global_null_homotopy(t) is not None)
    if found:
        assert contraction_homotopy(t, *ends).boundary_conjugate() == t
    return found


def _permutation(rng, c):
    return {i: rng.sample(range(c.dim(i)), c.dim(i)) for i in c.degrees()}


def _harmonic_case(seed):
    """Complexes and decompositions for one seed's harmonic-block case.

    The map is an endomorphism or goes between two complexes whose
    degree ranges differ, over canonical or permuted decompositions.
    """
    rng = random.Random(seed)
    src = rand_complex(rng, d_min=-1, d_max=2, max_dim=3)
    tgt = src if seed % 3 == 0 else rand_complex(rng, d_min=-1, d_max=2, max_dim=3)
    source_dec = permuted_decomposition(src, _permutation(rng, src)) if seed % 2 else decompose(src)
    target_dec = (
        permuted_decomposition(tgt, _permutation(rng, tgt)) if seed % 4 == 1 else decompose(tgt)
    )
    return rng, src, tgt, source_dec, target_dec


def _harmonic_block_oracle(t, source_dec, target_dec, i):
    m = target_dec.basis_inv_at(i) * t.component(i) * source_dec.basis_at(i)
    (_, rb, rh, _), (_, cb, ch, _) = target_dec.edges(i), source_dec.edges(i)
    return m.submatrix(rb, rh, cb, ch)


@pytest.mark.parametrize("seed", SEEDS)
def test_harmonic_blocks_match_the_full_change_of_basis(seed):
    rng, src, tgt, source_dec, target_dec = _harmonic_case(seed)
    f = rand_chain_map(rng, src, tgt)
    raw = ChainMap(
        src, tgt, {i: rand_matrix(rng, tgt.dim(i), src.dim(i)) for i in f.degrees()}
    )
    for t in (f, raw):
        blocks = harmonic_blocks(t, source_dec, target_dec)
        assert list(blocks) == list(t.degrees())
        for i in t.degrees():
            assert blocks[i] == _harmonic_block_oracle(t, source_dec, target_dec, i)
    # homotopic chain maps induce the same map on cohomology
    twisted = f + rand_homotopy(rng, src, tgt).boundary_conjugate()
    assert harmonic_blocks(twisted, source_dec, target_dec) == harmonic_blocks(
        f, source_dec, target_dec
    )


def bases(dec, c) -> list[Matrix]:
    """``dec``'s basis in each degree of ``c``'s range."""
    return [dec.basis_at(i) for i in c.degrees()]


def test_harmonic_cases_cover_every_kind():
    kinds = set()
    for seed in SEEDS:
        _, src, tgt, source_dec, target_dec = _harmonic_case(seed)
        kinds.add("endomorphism" if src is tgt else "between complexes")
        if bases(source_dec, src) + bases(target_dec, tgt) != bases(
            decompose(src), src
        ) + bases(decompose(tgt), tgt):
            kinds.add("permuted")
        hull = range(min(src.d_min, tgt.d_min), max(src.d_max, tgt.d_max) + 1)
        if any(not (c.d_min <= i <= c.d_max) for c in (src, tgt) for i in hull):
            kinds.add("outside a fiber's range")
    assert kinds == {"endomorphism", "between complexes", "permuted", "outside a fiber's range"}


@pytest.mark.parametrize("seed", SEEDS)
def test_null_homotopy_matches_global_system(seed):
    rng = random.Random(seed)
    src, tgt = _complex(rng), _complex(rng)
    f = rand_chain_map(rng, src, tgt)
    twisted = f + rand_homotopy(rng, src, tgt).boundary_conjugate()
    assert _check_against_oracle(twisted - f)
    _check_against_oracle(rand_chain_map(rng, src, tgt) - f)
    # not a chain map unless the differentials happen to allow it
    raw = ChainMap(
        src, tgt, {i: rand_matrix(rng, tgt.dim(i), src.dim(i)) for i in f.degrees()}
    )
    _check_against_oracle(raw)


def test_random_pairs_include_both_decisions():
    rng = random.Random(0)
    decisions = set()
    for _ in range(40):
        c = _complex(rng)
        decisions.add(
            _check_against_oracle(rand_chain_map(rng, c, c) - rand_chain_map(rng, c, c))
        )
    assert decisions == {True, False}


def _ruth_case(seed):
    """One seed's homotopy representation, and the generator that made it."""
    rng = random.Random(seed)
    z2, z3, pair2, s3_action = standard_fixtures()
    # the S3 action groupoid has 108 composable pairs; visit it now and then
    fx = s3_action if seed % 25 == 0 else (z2, z3, pair2)[seed % 3]
    rep = rand_ruth(rng, fx)
    gpd = fx.gpd
    if seed % 2:
        # swap one non-unit action for a random chain map: some pairs fail
        units = {gpd.unit(x) for x in gpd.objects}
        a = rng.choice([b for b in gpd.arrow_ids() if b not in units])
        rep.action[a] = rand_chain_map(rng, rep(a).source, rep(a).target)
    return rng, rep


@pytest.mark.parametrize("seed", SEEDS)
def test_verify_ruth_decisions_and_certificates(seed):
    rng, rep = _ruth_case(seed)
    gpd = rep.groupoid
    report = verify_ruth(rep)
    failed = set()
    for g, h in gpd.composable_pairs():
        difference = rep(g).compose(rep(h)) - rep(gpd.compose(g, h))
        if global_null_homotopy(difference) is None:
            failed.add((g, h))
            assert (g, h) not in report.certificates
        else:
            assert (g, h) in report.certificates
            homotopy = homotopy_between(rep(g).compose(rep(h)), rep(gpd.compose(g, h)))
            assert homotopy.boundary_conjugate() == difference
    assert report.ok == (not failed)
    assert len(report.problems) == len(failed)


@pytest.mark.parametrize("seed", range(50))
def test_certificates_from_shared_contractions_match_fresh_ones(seed):
    # hold each homotopy the contraction gives on decompositions made
    # afresh for that pair to the contraction on the report's
    # decompositions
    _, rep = _ruth_case(seed)
    gpd, report = rep.groupoid, verify_ruth(rep)
    for g, h in sorted(gpd.composable_pairs(), reverse=True):
        composed, composite = rep(g).compose(rep(h)), rep(gpd.compose(g, h))
        fresh = homotopy_between(composed, composite)
        assert ((g, h) in report.certificates) == (fresh is not None)
        if fresh is not None:
            ends = report.decompositions[gpd.src(h)], report.decompositions[gpd.tgt(g)]
            assert contraction_homotopy(composed - composite, *ends) == fresh


# Seeds whose harmonic blocks fail H(g) H(h) = H(gh) while their
# Berezinians still multiply: the per-arrow oracle returns a line
# representation there, the report's reads raise.
DETERMINANTS_ONLY = {27}


@pytest.mark.parametrize("seed", SEEDS)
def test_report_reads_match_the_per_arrow_oracles(seed):
    rng, rep = _ruth_case(seed)
    gpd = rep.groupoid
    sigma = rand_trivialization(rng, gpd)
    report = verify_ruth(rep)
    try:
        expected = per_arrow_ber_rep(rep, sigma)
    except ValueError:
        expected = None
    # Where the oracle raises, the report fails.  The converse can fail:
    # the oracle re-checks only the determinants of the harmonic blocks.
    assert (report.ok or expected is None) == (seed not in DETERMINANTS_ONLY)
    assert expected is not None or not report.ok
    if not report.ok:
        for read in (
            lambda: report.berezinian_rep(sigma),
            lambda: regular_factorization_check(rep, sigma),
        ):
            with pytest.raises(ValueError, match=re.escape(report.problems[0])):
                read()
        return
    line = report.berezinian_rep(sigma)
    assert line.action == expected.action
    variants = {x: permuted_decomposition(c, _permutation(rng, c)) for x, c in rep.complexes.items()}
    for a in gpd.arrow_ids():
        x, y = gpd.src(a), gpd.tgt(a)
        assert line(a) == berezinian_class(rep(a), sigma(x), sigma(y))
        variant = variants[x], variants[y]
        blocks = harmonic_blocks(rep(a), *variant)
        assert line(a) == _class_berezinian(blocks, *variant, sigma(x), sigma(y))
    fibers = rep.complexes.values()
    # one degree past either end, where every fiber is zero
    for i in range(min(c.d_min for c in fibers) - 1, max(c.d_max for c in fibers) + 2):
        oracle = per_degree_cohomology_rep(rep, i)
        dims = {x: dec.harmonic_dims.get(i, 0) for x, dec in report.decompositions.items()}
        action = {a: b.get(i, Matrix.zeros(0, 0)) for a, b in report.blocks.items()}
        assert (dims, action) == (oracle.dims, oracle.action)
    assert regular_factorization_check(rep, sigma)


def test_ruth_cases_cover_both_outcomes():
    outcomes = {(seed % 2, verify_ruth(_ruth_case(seed)[1]).ok) for seed in SEEDS}
    assert outcomes == {(0, True), (1, True), (1, False)}


@pytest.mark.parametrize("seed", SEEDS)
def test_berezinian_class_matches_replacement(seed):
    rng = random.Random(seed)
    c = _complex(rng)
    other, q = conjugated_complex(rng, c)
    f = q.compose(rand_invertible_endo(rng, c))
    f = f + rand_homotopy(rng, c, other).boundary_conjugate()
    sigma = rand_rational(rng, nonzero=True), rand_rational(rng, nonzero=True)
    value = berezinian(invertible_replacement(f), *sigma)
    assert berezinian_class(f, *sigma) == value
    variant = (
        permuted_decomposition(c, _permutation(rng, c)),
        permuted_decomposition(other, _permutation(rng, other)),
    )
    assert _class_berezinian(harmonic_blocks(f, *variant), *variant, *sigma) == value


@pytest.mark.parametrize("seed", SEEDS)
def test_berezinian_class_raises_like_replacement(seed):
    rng = random.Random(seed)
    src, tgt = _complex(rng), _complex(rng)
    for f in (
        rand_chain_map(rng, src, src),
        rand_chain_map(rng, src, tgt),
        ChainMap(src, src, {i: rand_matrix(rng, src.dim(i), src.dim(i)) for i in src.degrees()}),
    ):
        outcomes = []
        for attempt in (
            lambda: berezinian(invertible_replacement(f)),
            lambda: berezinian_class(f),
        ):
            try:
                outcomes.append(("value", attempt()))
            except ValueError as exc:
                outcomes.append((type(exc), str(exc)))
        assert outcomes[0] == outcomes[1]


def test_scales_are_checked_after_the_equivalence():
    c = ComplexFiber(0, 0, {0: 1}, {})
    with pytest.raises(NotHomotopyEquivalence):
        berezinian_class(ChainMap.zero(c, c), 0, 1)
    with pytest.raises(ValueError, match="trivialization scales must be nonzero"):
        berezinian_class(ChainMap.identity(c), 0, 1)


def _scale(rng):
    """Mostly a nonzero rational; now and then zero, or a float."""
    roll = rng.random()
    return 0 if roll < 0.1 else 0.5 if roll < 0.2 else rand_rational(rng, nonzero=True)


def _outcome(fn, *args):
    try:
        return ("value", fn(*args))
    except (TypeError, ValueError) as exc:
        return (type(exc), str(exc))


def _class_berezinian_case(seed):
    """Blocks in every degree of two random fibers, their decompositions, and two scales.

    A block is square and random (singular now and then: rand_rational
    draws zeros), its first row zeroed, or one column short.
    """
    rng = random.Random(seed)
    src, tgt = _complex(rng), _complex(rng)
    blocks = {}
    for i in range(min(src.d_min, tgt.d_min), max(src.d_max, tgt.d_max) + 1):
        n, kind = rng.randint(0, 3), rng.random()
        m = rand_matrix(rng, n, n - 1 if kind < 0.1 and n else n)
        if 0.1 <= kind < 0.2 and n:
            m = Matrix([[0] * n] + m.to_lists()[1:], cols=n)
        blocks[i] = m
    return blocks, decompose(src), decompose(tgt), _scale(rng), _scale(rng)


@pytest.mark.parametrize("seed", SEEDS)
def test_class_berezinian_matches_the_per_degree_product(seed):
    case = _class_berezinian_case(seed)
    assert _outcome(_class_berezinian, *case) == _outcome(class_berezinian_by_degree, *case)


def test_class_berezinian_cases_reach_every_outcome():
    outcomes = {_outcome(_class_berezinian, *_class_berezinian_case(seed))[0] for seed in SEEDS}
    assert outcomes == {"value", NotHomotopyEquivalence, TypeError, ValueError}


@pytest.mark.parametrize("seed", SEEDS)
def test_berezinian_rep_matches_the_per_degree_product(seed):
    rng, rep = _ruth_case(seed)
    gpd = rep.groupoid
    sigma = rand_trivialization(rng, gpd)
    report = verify_ruth(rep)
    if not report.ok:
        return
    line, decs = report.berezinian_rep(sigma), report.decompositions
    for a in gpd.arrow_ids():
        x, y = gpd.src(a), gpd.tgt(a)
        # the arrow's blocks afresh, units included
        blocks = harmonic_blocks(rep(a), decs[x], decs[y])
        assert line(a) == class_berezinian_by_degree(blocks, decs[x], decs[y], sigma(x), sigma(y))
