"""Differential tests: the lean kernels against the constructions they replace.

``Matrix.__mul__`` clears denominators and ``det`` reuses that clearing;
the references are the textbook Fraction formulas.  The groupoid scans
read composable arrows off the by-target index; the references test
every arrow for every pair, as the scans did before.  Outputs must agree
exactly, order included.
"""

import random
from fractions import Fraction

import pytest

from modclass import (
    Cochain,
    FiniteGroupoid,
    GroupTable,
    Matrix,
    action_groupoid,
    coboundary_solve_1,
    composable_tuples,
    connected_groupoid,
    det,
    disjoint_union,
    validate,
)
from oracle import (
    leibniz_det,
    naive_matmul,
    scan_coboundary_solve_1,
    scan_composable_pairs,
    scan_composable_tuples,
    scan_validate,
)
from randgen import rand_groupoid, rand_potential

SEEDS = range(200)


def big_rational(rng: random.Random) -> Fraction:
    bits = rng.choice((2, 8, 64, 200))
    if rng.random() < 0.2:
        return Fraction(0)
    return Fraction(rng.randint(-(2**bits), 2**bits), rng.randint(1, 2**bits))


def big_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix([[big_rational(rng) for _ in range(cols)] for _ in range(rows)], cols=cols)


def entries_are_fractions(m: Matrix) -> bool:
    return all(type(x) is Fraction for r in m.to_lists() for x in r)


@pytest.mark.parametrize("seed", SEEDS)
def test_matmul_matches_sum_of_products(seed):
    rng = random.Random(seed)
    # shapes with 0 rows, 0 columns and 0 inner dimension come up often
    n, k, m = (rng.randint(0, 4) for _ in range(3))
    a, b = big_matrix(rng, n, k), big_matrix(rng, k, m)
    product = a * b
    assert (product.rows, product.cols) == (n, m)
    assert product.to_lists() == naive_matmul(a, b)
    assert entries_are_fractions(product)


@pytest.mark.parametrize("seed", SEEDS)
def test_det_matches_leibniz(seed):
    rng = random.Random(seed)
    m = big_matrix(rng, *[rng.randint(0, 4)] * 2)
    assert det(m) == leibniz_det(m)


@pytest.mark.parametrize("seed", range(50))
def test_trusted_results_equal_the_checked_constructor(seed):
    rng = random.Random(seed)
    n, k = rng.randint(0, 4), rng.randint(0, 4)
    a, b = big_matrix(rng, n, k), big_matrix(rng, n, k)
    c = big_rational(rng)
    rows, cols = a.to_lists(), b.to_lists()
    expected = {
        "add": Matrix([[x + y for x, y in zip(r, s)] for r, s in zip(rows, cols)], cols=k),
        "neg": Matrix([[-x for x in r] for r in rows], cols=k),
        "scale": Matrix([[c * x for x in r] for r in rows], cols=k),
        "transpose": Matrix([[rows[i][j] for i in range(n)] for j in range(k)], cols=n),
        "hstack": Matrix([r + s for r, s in zip(rows, cols)], cols=2 * k),
        "take_columns": Matrix([r[::-1] for r in rows], cols=k),
        "submatrix": Matrix([r[1:] for r in rows[1:]], cols=max(k - 1, 0)),
    }
    got = {
        "add": a + b,
        "neg": -a,
        "scale": a.scale(c),
        "transpose": a.transpose(),
        "hstack": Matrix.hstack(a, b),
        "take_columns": a.take_columns(reversed(range(k))),
        "submatrix": a.submatrix(min(1, n), n, min(1, k), k),
    }
    for name, m in got.items():
        assert (m.rows, m.cols, m) == (expected[name].rows, expected[name].cols, expected[name]), name
        assert entries_are_fractions(m), name


def builder_groupoid(rng: random.Random) -> FiniteGroupoid:
    kind = rng.randrange(4)
    if kind == 0:
        return rand_groupoid(rng, max_arrows=24)
    if kind == 1:
        group = rng.choice((GroupTable.cyclic(1), GroupTable.cyclic(2), GroupTable.cyclic(3)))
        return connected_groupoid([f"o{i}" for i in range(rng.randint(1, 3))], group)
    if kind == 2:
        return action_groupoid([(0, 1, 2), (1, 2, 0), (2, 0, 1)], 3)
    return disjoint_union(
        connected_groupoid(["u", "v"], GroupTable.symmetric_3()), rand_groupoid(rng, max_arrows=8)
    )


def mutated(gpd: FiniteGroupoid, rng: random.Random, kind: str) -> FiniteGroupoid:
    """A copy of ``gpd`` with one table entry changed."""
    arrows = list(gpd.arrows)
    identity = dict(gpd.identity)
    composition = dict(gpd.composition)
    keys = sorted(composition)
    ends = {a: (s, t) for a, s, t in arrows}
    if kind == "swapped composite":
        # prefer two composites with the same endpoints, which reach the
        # associativity check
        k1 = rng.choice(keys)
        same = [k for k in keys if ends[composition[k]] == ends[composition[k1]]
                and composition[k] != composition[k1]]
        k2 = rng.choice(same or keys)
        composition[k1], composition[k2] = composition[k2], composition[k1]
    elif kind == "dropped pair":
        del composition[rng.choice(keys)]
    elif kind == "extra pair":
        apart = [(g, h) for g, (sg, _) in ends.items() for h, (_, th) in ends.items() if sg != th]
        extra = rng.choice(apart or [(arrows[0][0], "zz")])
        composition[extra] = extra[0]
    elif kind == "bad unit":
        x = rng.choice(gpd.objects)
        loops = [a for a, (s, t) in ends.items() if s == t == x and a != identity[x]]
        identity[x] = rng.choice(loops or [a for a, _, _ in arrows])
    elif kind == "moved arrow":
        i = rng.randrange(len(arrows))
        a, s, _ = arrows[i]
        arrows[i] = (a, s, rng.choice(gpd.objects))
    return FiniteGroupoid(gpd.objects, arrows, identity, gpd.inverse, composition)


MUTATIONS = [None, "swapped composite", "dropped pair", "extra pair", "bad unit", "moved arrow"]


@pytest.mark.parametrize("seed", SEEDS)
def test_groupoid_scans_match_the_all_arrow_scans(seed):
    rng = random.Random(seed)
    base = builder_groupoid(rng)
    for kind in MUTATIONS:
        gpd = base if kind is None else mutated(base, rng, kind)
        assert gpd.composable_pairs() == scan_composable_pairs(gpd), kind
        for k in range(4):
            assert composable_tuples(gpd, k) == scan_composable_tuples(gpd, k), (kind, k)
        assert validate(gpd).problems == scan_validate(gpd), kind


def test_mutations_reach_every_stage_of_validate():
    # the differential test above is only as strong as the problems it sees
    problems = []
    for seed in SEEDS:
        rng = random.Random(seed)
        base = builder_groupoid(rng)
        for kind in MUTATIONS[1:]:
            problems.extend(scan_validate(mutated(base, rng, kind)))
    stages = [
        "composition table defines non-composable pair",
        "missing from composition table",
        "has wrong endpoints",
        "unit law fails",
        "associativity fails",
    ]
    assert all(any(stage in p for p in problems) for stage in stages)


@pytest.mark.parametrize("seed", SEEDS)
def test_coboundary_solve_1_matches_the_all_arrow_bfs(seed):
    rng = random.Random(seed)
    pieces = [
        connected_groupoid([f"o{i}" for i in range(rng.randint(1, 4))], GroupTable.cyclic(rng.choice((1, 2))))
        for _ in range(rng.randint(1, 3))
    ]
    gpd = disjoint_union(*pieces)
    # a sign character on the isotropy of some pieces, times a coboundary
    signs = [rng.choice((1, -1)) for _ in pieces]
    f = rand_potential(rng, gpd)
    phi = Cochain(1, {
        (a,): (signs[int(a[1:a.index(".")])] if ".r1:" in a else 1) * f[s] / f[t]
        for a, s, t in gpd.arrows
    })
    report = coboundary_solve_1(gpd, phi)
    potential, obstructions = scan_coboundary_solve_1(gpd, phi)
    assert report.obstructions == obstructions
    if report.is_coboundary:
        assert list(report.witness.values.items()) == list(potential.items())
    else:
        assert -1 in signs
