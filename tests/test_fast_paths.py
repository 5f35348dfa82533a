"""Differential tests: the lean kernels against the constructions they replace.

``Matrix.__mul__`` clears denominators and ``det`` reuses that clearing;
the references are the textbook Fraction formulas.  ``rref``,
``kernel_basis``, ``det`` and ``det_and_inverse`` share one fraction-free
integer elimination; the references are the Fraction Gauss-Jordan and
the Leibniz formula.  The groupoid scans read composable arrows off the
by-target index; the references test every arrow for every pair, as the
scans did before.  Functoriality is decided through the isotropy model;
the references multiply out every composable pair.  Outputs must agree
exactly, order included.
"""

import random
from fractions import Fraction

import pytest

from modclass import (
    ChainMap,
    Cochain,
    FiniteGroupoid,
    GroupTable,
    LineRep,
    Matrix,
    RepUpToWeakHomotopy,
    VectorRep,
    action_groupoid,
    coboundary_solve_1,
    composable_tuples,
    connected_groupoid,
    det,
    det_and_inverse,
    disjoint_union,
    is_cocycle_1,
    kernel_basis,
    rref,
    validate,
    verify_line_rep,
    verify_ruth,
    verify_vector_rep,
)
from modclass import groupoid as groupoid_module, reps as reps_module
from modclass.groupoid import _is_functorial, _isotropy_model
from oracle import (
    leibniz_det,
    naive_matmul,
    pair_scan_is_cocycle_1,
    pair_scan_line_rep,
    pair_scan_ruth,
    pair_scan_vector_rep,
    rref as gauss_jordan_rref,
    scan_coboundary_solve_1,
    scan_composable_pairs,
    scan_composable_tuples,
    scan_validate,
)
from randgen import GroupoidFixture, rand_groupoid, rand_potential, rand_rational, rand_ruth

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


def elimination_case(seed: int) -> Matrix:
    """Square or not, full rank or a rank-deficient product, by ``seed % 4``.

    Shapes run from 0 to 5 rows and 0 to 6 columns; ``seed % 4 == 0``
    gives a singular square matrix with at least one row.
    """
    rng = random.Random(seed)
    square, deficient = seed % 2 == 0, seed % 4 in (0, 3)
    rows = rng.randint(1 if square and deficient else 0, 5)
    cols = rows if square else rng.randint(0, 6)
    if not deficient:
        return big_matrix(rng, rows, cols)
    inner = rng.randint(0, max(min(rows, cols) - 1, 0))
    return big_matrix(rng, rows, inner) * big_matrix(rng, inner, cols)


@pytest.mark.parametrize("seed", SEEDS)
def test_elimination_matches_the_fraction_gauss_jordan(seed):
    m = elimination_case(seed)
    reduced, pivots = gauss_jordan_rref(m)
    assert rref(m) == (reduced, pivots)
    # the canonical kernel: annihilated by m, the identity on free coordinates
    free = [j for j in range(m.cols) if j not in pivots]
    k = kernel_basis(m)
    assert (k.rows, k.cols) == (m.cols, len(free))
    assert (m * k).is_zero()
    assert k.transpose().take_columns(free) == Matrix.identity(len(free))
    if m.is_square:
        d, inv = det_and_inverse(m)
        assert det(m) == d == leibniz_det(m)
        if seed % 4 == 0:
            assert (d, inv) == (0, None)
        if d:
            assert inv * m == Matrix.identity(m.rows)
        else:
            assert inv is None


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


# ---------------------------------------------------------------------------
# Functoriality through the isotropy model


def regular_values(rng: random.Random, gpd: FiniteGroupoid) -> tuple[dict, dict]:
    """Dimensions and matrices of a regular representation in random frames.

    ``V_x`` has a basis of the arrows ``h: b -> x`` from the first object
    ``b`` of ``x``'s component, and ``a: x -> y`` sends ``h`` to ``a h``:
    functorial by associativity, with the isotropy groups acting by
    their regular representations.  Random diagonal frames rescale it.
    """
    order = {x: i for i, x in enumerate(gpd.objects)}
    base: dict[str, str] = {}
    for _, s, t in gpd.arrows:
        if t not in base or order[s] < order[base[t]]:
            base[t] = s
    basis = {x: [a for a, s, t in gpd.arrows if t == x and s == base[x]] for x in gpd.objects}
    frame = {x: [rand_rational(rng, nonzero=True) for _ in basis[x]] for x in gpd.objects}
    values = {}
    for a, s, t in gpd.arrows:
        row_of = {h: i for i, h in enumerate(basis[t])}
        rows = [[Fraction(0)] * len(basis[s]) for _ in basis[t]]
        for j, h in enumerate(basis[s]):
            i = row_of[gpd.compose(a, h)]
            rows[i][j] = frame[t][i] / frame[s][j]
        values[a] = Matrix(rows, cols=len(basis[s]))
    return {x: len(b) for x, b in basis.items()}, values


KINDS = ["line", "vector", "cocycle", "ruth"]
REP_MUTATIONS = [None, "perturbed", "singular tree", "non-square", "swapped"]


def functorial_values(rng: random.Random, gpd: FiniteGroupoid, kind: str) -> tuple:
    """``(values, extra)``: arrow values of a functorial rep, and its dims or complexes."""
    dims, matrices = regular_values(rng, gpd)
    if kind == "vector":
        return matrices, dims
    scalars = {a: det(m) for a, m in matrices.items()}
    if kind != "ruth":
        return scalars, None
    trivial = {a: Fraction(1) for a in scalars}
    rep = rand_ruth(rng, GroupoidFixture("regular", gpd, [trivial, scalars]))
    return dict(rep.action), rep.complexes


def mutated_values(rng, gpd, kind, values, extra, mutation):
    """A copy of ``(values, extra)`` with one change, or None where it does not apply."""
    values, arrows = dict(values), gpd.arrow_ids()
    if mutation == "perturbed":
        a = rng.choice(arrows)
        values[a] = values[a].scale(2) if kind in ("vector", "ruth") else values[a] * 2
    elif mutation == "singular tree":
        if kind == "cocycle":  # a cochain cannot hold 0
            return None
        a = rng.choice(list(_isotropy_model(gpd)[0].values()))
        v = values[a]
        if kind == "line":
            values[a] = Fraction(0)
        elif kind == "vector":
            values[a] = Matrix([[0] * v.cols] + v.to_lists()[1:], cols=v.cols)
        else:
            values[a] = ChainMap.zero(v.source, v.target)
    elif mutation == "non-square":
        if kind != "vector":
            return None
        x = rng.choice(gpd.objects)
        extra = {**extra, x: extra[x] + 1}
        for a in arrows:
            rows = values[a].to_lists()
            if gpd.src(a) == x:
                rows = [r + [0] for r in rows]
            if gpd.tgt(a) == x:
                rows.append([0] * (extra[gpd.src(a)]))
            values[a] = Matrix(rows, cols=extra[gpd.src(a)])
    elif mutation == "swapped":
        a = rng.choice(arrows)
        ends = (gpd.src(a), gpd.tgt(a))
        twins = [b for b in arrows if (gpd.src(b), gpd.tgt(b)) == ends and values[b] != values[a]]
        b = rng.choice(twins or arrows)
        values[a], values[b] = values[b], values[a]
    return values, extra


def caller_and_scan(gpd, kind, values, extra):
    """The caller's outcome and the pair scan's, exceptions by type."""
    def outcome(fn, *args):
        try:
            return fn(*args)
        except Exception as exc:  # the scans raise on broken tables; so must the callers
            return type(exc)

    if kind == "line":
        rep = LineRep(gpd, values)
        return outcome(lambda: verify_line_rep(rep).problems), outcome(pair_scan_line_rep, rep)
    if kind == "vector":
        rep = VectorRep(gpd, extra, values)
        return outcome(lambda: verify_vector_rep(rep).problems), outcome(pair_scan_vector_rep, rep)
    if kind == "cocycle":
        phi = Cochain(1, {(a,): v for a, v in values.items()})
        return outcome(is_cocycle_1, gpd, phi), outcome(pair_scan_is_cocycle_1, gpd, phi)
    rep = RepUpToWeakHomotopy(gpd, extra, values)

    def report():
        r = verify_ruth(rep)
        return r.problems, r.certificates

    return outcome(report), outcome(pair_scan_ruth, rep)


def scan_accepts(kind, scanned) -> bool:
    """Whether the scan found every composable pair functorial."""
    if kind == "cocycle":
        return scanned is True
    if isinstance(scanned, type):
        return False
    problems = scanned[0] if kind == "ruth" else scanned
    return not any("functoriality fails" in p or "no homotopy" in p for p in problems)


def is_unit_value(v) -> bool:
    return v.is_identity() if isinstance(v, Matrix) else v == 1


@pytest.fixture
def verdicts(monkeypatch):
    """The checker's answers, as the four callers receive them."""
    seen = []

    def spy(gpd, phi):
        seen.append(_is_functorial(gpd, phi))
        return seen[-1]

    monkeypatch.setattr(groupoid_module, "_is_functorial", spy)
    monkeypatch.setattr(reps_module, "_is_functorial", spy)
    return seen


def functoriality_cases(seed):
    """``(groupoid, lawful, kind, mutation, values, extra)`` for one seed.

    Every rep kind on the lawful table, as built and with one of the
    rep mutations; and as built on one of the five table mutations.  The
    mutations take turns by seed.
    """
    rng = random.Random(seed)
    base = builder_groupoid(rng)
    for k, kind in enumerate(KINDS):
        values, extra = functorial_values(rng, base, kind)
        yield base, True, kind, None, values, extra
        mutation = REP_MUTATIONS[1 + (seed + k) % 4]
        changed = mutated_values(rng, base, kind, values, extra, mutation)
        if changed is not None:
            yield base, True, kind, mutation, *changed
        table = MUTATIONS[1 + (seed + k) % 5]
        gpd = mutated(base, rng, table)
        yield gpd, not validate(gpd).problems, kind, table, values, extra


def direct_verdicts(gpd, kind, values, scanned) -> tuple[bool, bool]:
    """The checker on the raw values, and whether every pair multiplies out.

    The callers' per-arrow checks may stop before the pairs; this does not.
    """
    accepted = _is_functorial(gpd, values.__getitem__)
    if kind == "vector" and isinstance(scanned, list) and all(
        "functoriality fails" in p or "unit of" in p for p in scanned
    ):
        return accepted, scan_accepts(kind, scanned)  # the scan reached every pair
    try:
        pairs_hold = all(
            values[g] * values[h] == values[gpd.compose(g, h)]
            for g, h in gpd.composable_pairs()
        )
    except (KeyError, ValueError):
        pairs_hold = False
    return accepted, pairs_hold


@pytest.mark.parametrize("seed", SEEDS)
def test_functoriality_checker_agrees_with_the_pair_scans(seed, verdicts):
    for gpd, lawful, kind, mutation, values, extra in functoriality_cases(seed):
        verdicts.clear()
        got, scanned = caller_and_scan(gpd, kind, values, extra)
        assert got == scanned, (kind, mutation)
        for verdict in verdicts:
            # never accepts what the scan rejects
            assert not verdict or scan_accepts(kind, scanned), (kind, mutation)
        if lawful and verdicts and scan_accepts(kind, scanned):
            # accepts every functorial input on a lawful table
            assert verdicts == [True], (kind, mutation)
        if kind != "ruth":
            accepted, pairs_hold = direct_verdicts(gpd, kind, values, scanned)
            assert not accepted or pairs_hold, (kind, mutation)
            if lawful and pairs_hold and all(is_unit_value(values[gpd.unit(x)]) for x in gpd.objects):
                assert accepted, (kind, mutation)


def test_functoriality_cases_reach_both_verdicts():
    # the agreement above is only as strong as the failures it sees
    seen = set()
    for seed in range(20):
        for gpd, lawful, kind, mutation, values, extra in functoriality_cases(seed):
            _, scanned = caller_and_scan(gpd, kind, values, extra)
            seen.add((kind, mutation, scan_accepts(kind, scanned)))
            if kind != "ruth":
                seen.add((kind, mutation) + direct_verdicts(gpd, kind, values, scanned))
    for kind in KINDS:
        assert (kind, None, True) in seen, kind
        assert (kind, "perturbed", False) in seen, kind
        assert (kind, "swapped", False) in seen, kind
    assert ("ruth", "singular tree", False) in seen
    for kind in ("line", "vector"):
        # a singular tree arrow breaks the pairs, and the checker refuses it
        assert (kind, "singular tree", False, False) in seen, kind
    # zero-padding one fiber keeps every pair but not the units: the tree
    # value there is not square, and the checker refuses it
    assert ("vector", "non-square", False, True) in seen


def test_vector_check_costs_arrows_not_pairs(monkeypatch):
    group = GroupTable.symmetric_3()
    gpd = connected_groupoid([f"o{i}" for i in range(5)], group)
    dims, values = regular_values(random.Random(0), gpd)
    rep = VectorRep(gpd, dims, values)
    products = []
    original = Matrix.__mul__

    def counted(self, other):
        products.append(other)
        return original(self, other)

    monkeypatch.setattr(Matrix, "__mul__", counted)
    assert verify_vector_rep(rep).ok
    n, g, arrows = len(gpd.objects), len(group.elements), len(gpd.arrows)
    assert (arrows, len(gpd.composable_pairs())) == (150, 4500)
    assert 0 < len(products) <= arrows + g * g + n * g
