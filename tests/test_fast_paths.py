"""Differential tests: the lean kernels against the constructions they replace.

``Matrix`` stores integer rows over one denominator, in lowest terms,
so ``__mul__`` and ``det`` work in integers; the references are the
textbook Fraction formulas, and every result is checked for that
canonical form.  ``rref`` and ``det`` share one fraction-free integer
elimination; the references are the Fraction Gauss-Jordan and the
Leibniz formula, and the oracle's ``kernel_basis`` and
``det_and_inverse``, built on ``rref``, are checked against them too.  ``decompose`` splits each degree in closed form,
reading the basis inverse and determinant off the differential's rref;
the reference chooses the harmonics and inverts the basis by general
eliminations.  The groupoid scans read composable arrows off the
by-target index; the references test every arrow for every pair, as the
scans did before.  Associativity and functoriality are decided through
the isotropy model; the references compose every composable triple and
multiply out every composable pair.  The isotropy model gathers each
arrow's ends, coordinate and isotropy row before its pass over the
table, and the schema stores a lawful compose entry on a shortcut; the
references look each entry's arrows up afresh and type-check every
entry first.  ``verify_ruth`` skips the work on a
unit that acts by the identity; a unit twisted by a homotopy, so not
the identity, must take the reference's path.  The degree-1 class path
(the characteristic cocycle, the Berezinian action and the coboundary
solve) multiplies integer numerators and denominators; the references
multiply ``Fraction``s arrow by arrow.  The vector check takes each
arrow's determinant from the functoriality check's certificate, which
reads it off the isotropy model, and the functoriality check
compares a matrix product without building it; the references take one
determinant per arrow and build every product.  Outputs must agree
exactly, order included.
"""

import json
import pathlib
import random
from fractions import Fraction
from math import gcd, lcm
from itertools import product, zip_longest

import pytest

from modclass import (
    ChainMap,
    ClassReport,
    Cochain,
    ComplexFiber,
    FiniteGroupoid,
    GroupTable,
    InputDocument,
    LineRep,
    Matrix,
    RepUpToWeakHomotopy,
    Trivialization,
    VectorRep,
    action_groupoid,
    characteristic_function,
    coboundary_solve_1,
    connected_groupoid,
    cyclic_groupoid,
    decide_modular_class,
    decompose,
    det,
    disjoint_union,
    is_cocycle_1,
    rref,
    serialize,
    validate,
    verify_line_rep,
    verify_ruth,
    verify_vector_rep,
)
from modclass import (
    groupoid as groupoid_module,
    linalg as linalg_module,
    reps as reps_module,
    schema as schema_module,
)
from modclass.cli import _class_fields
from modclass.groupoid import _is_functorial, _isotropy_model
from oracle import (
    decompose_by_inverse,
    det_and_inverse,
    hstack,
    kernel_basis,
    leibniz_det,
    naive_matmul,
    pair_scan_is_cocycle_1,
    pair_scan_line_rep,
    pair_scan_ruth,
    pair_scan_vector_rep,
    per_arrow_ber_rep,
    per_arrow_vector_rep,
    rref as gauss_jordan_rref,
    scan_coboundary_solve_1,
    scan_composable_pairs,
    scan_compose_table,
    scan_coordinates,
    scan_isotropy_model,
    scan_validate,
)
from randgen import (
    GroupoidFixture,
    nonassociative_loop,
    rand_complex,
    rand_groupoid,
    rand_homotopy,
    rand_matrix,
    rand_potential,
    rand_rational,
    rand_ruth,
    standard_fixtures,
)

SEEDS = range(200)
FIXTURES = pathlib.Path(schema_module.__file__).parent / "fixtures"
DATA = pathlib.Path(__file__).parent / "data"


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
        "take_columns": Matrix([r[::-1] for r in rows], cols=k),
        "submatrix": Matrix([r[1:] for r in rows[1:]], cols=max(k - 1, 0)),
    }
    got = {
        "add": a + b,
        "neg": -a,
        "scale": a.scale(c),
        "transpose": a.transpose(),
        "take_columns": a.take_columns(reversed(range(k))),
        "submatrix": a.submatrix(min(1, n), n, min(1, k), k),
    }
    for name, m in got.items():
        assert (m.rows, m.cols, m) == (expected[name].rows, expected[name].cols, expected[name]), name
        assert entries_are_fractions(m), name


@pytest.mark.parametrize("seed", SEEDS)
def test_product_equals_matches_the_built_product(seed):
    rng = random.Random(seed)
    n, k, m = (rng.randint(0, 4) for _ in range(3))
    a, b = big_matrix(rng, n, k), big_matrix(rng, k, m)
    built = a * b
    # the product itself, the same value over another scale, a nearby
    # matrix, a matrix of another shape, and a nonzero one for an empty product
    targets = [built, built.scale(Fraction(3, 2)), built.transpose(), big_matrix(rng, n, m)]
    if n and m:
        entries = built.to_lists()
        entries[rng.randrange(n)][rng.randrange(m)] += Fraction(1, 7)
        targets.append(Matrix(entries, cols=m))
    for target in targets:
        assert a.product_equals(b, target) is (built == target)
    with pytest.raises(ValueError, match="cannot multiply"):
        a.product_equals(big_matrix(rng, k + 1, m), built)


EMPTY_SHAPES = [shape for shape in product(range(3), repeat=3) if 0 in shape]


@pytest.mark.parametrize("n, k, m", EMPTY_SHAPES)
def test_a_product_with_an_empty_dimension_is_the_zero_matrix(n, k, m):
    rng = random.Random(9 * n + 3 * k + m)
    a, b = big_matrix(rng, n, k), big_matrix(rng, k, m)
    result = a * b
    zeros = Matrix.zeros(n, m)
    assert (result.rows, result.cols) == (n, m)
    assert result == zeros and hash(result) == hash(zeros)
    assert a.product_equals(b, zeros)
    if n and m:  # nothing but the zero matrix of that shape is the product
        assert not a.product_equals(b, Matrix.identity(n) if n == m else Matrix([[1] * m] * n))
    assert is_canonical(result)


@pytest.mark.parametrize("seed", range(50))
def test_trusted_products_hash_as_the_checked_constructor(seed):
    # an integer right operand skips the denominator product, a rational one does not
    rng = random.Random(seed)
    n, k, m = (rng.randint(1, 4) for _ in range(3))
    a = big_matrix(rng, n, k)
    integer = Matrix([[rng.randint(-5, 5) for _ in range(m)] for _ in range(k)], cols=m)
    for b in (integer, big_matrix(rng, k, m)):
        got, expected = a * b, Matrix(naive_matmul(a, b), cols=m)
        assert (got.rows, got.cols) == (expected.rows, expected.cols)
        assert got == expected and hash(got) == hash(expected)
        assert is_canonical(got)
    rows = a.to_lists()
    for got, expected in [
        (Matrix.identity(k), Matrix([[int(i == j) for j in range(k)] for i in range(k)])),
        (Matrix.zeros(n, k), Matrix([[0] * k for _ in range(n)])),
        (a.take_columns([k - 1, 0]), Matrix([[r[-1], r[0]] for r in rows])),
    ]:
        assert got == expected and hash(got) == hash(expected)


def test_matrix_stays_immutable():
    for m in (Matrix([[1, 2]]), Matrix([[1]]) * Matrix([[Fraction(1, 2), 3]]), Matrix.zeros(2, 0)):
        before = (m.rows, m.cols, m.to_lists())
        for name in ("rows", "cols", "_num", "_den", "extra"):
            with pytest.raises(AttributeError):
                setattr(m, name, 0)
        assert (m.rows, m.cols, m.to_lists()) == before


def split_outcome(construction, c: ComplexFiber):
    """The fields of ``construction(c)`` in each degree of ``c``'s range, a
    degree they do not hold read as empty, or the text of the ValueError
    it raised."""
    try:
        dec = construction(c)
    except ValueError as exc:
        return str(exc)
    return [
        (dec.basis_at(i), dec.basis_inv_at(i), dec.basis_det.get(i, 1), dec.widths(i))
        for i in c.degrees()
    ]


@pytest.mark.parametrize("seed", range(300))
def test_closed_form_split_matches_the_general_inverse(seed):
    # rational entries, empty degrees, and every third complex with some
    # differentials dropped to zero
    rng = random.Random(seed)
    c = rand_complex(rng, -1, 4, 6)
    if seed % 3 == 0:
        kept = {i: d for i, d in c.differentials.items() if rng.random() < 0.5}
        c = ComplexFiber(c.d_min, c.d_max, c.dims, kept)
    assert split_outcome(decompose, c) == split_outcome(decompose_by_inverse, c)


def test_closed_form_split_refuses_what_the_general_inverse_refuses():
    refused = 0
    for seed in range(300):
        rng = random.Random(seed)
        lo = rng.randint(-1, 2)
        hi = rng.randint(lo, 3)
        dims = {i: rng.randint(0, 4) for i in range(lo, hi + 1)}
        diffs = {
            i: rand_matrix(rng, dims.get(i + 1, 0), dims[i])
            for i in range(lo, hi + 1)
            if rng.random() < 0.8
        }
        c = ComplexFiber(lo, hi, dims, diffs)
        outcome = split_outcome(decompose, c)
        assert outcome == split_outcome(decompose_by_inverse, c), seed
        refused += isinstance(outcome, str)
    # both outcomes are well represented
    assert 20 < refused < 280


def is_canonical(m: Matrix) -> bool:
    """Integer rows over one positive denominator, in lowest terms."""
    d = m._den
    return (
        len(m._num) == m.rows
        and all(len(r) == m.cols and all(type(x) is int for x in r) for r in m._num)
        and type(d) is int
        and d > 0
        and gcd(d, *(x for r in m._num for x in r)) == 1
    )


def canonical_case(seed: int) -> tuple[Matrix, Matrix, Matrix, Fraction]:
    """Two ``n x k`` matrices and a ``k x k`` one with big entries and zero rows, and a scalar."""
    rng = random.Random(seed)
    n, k = rng.randint(0, 4), rng.randint(0, 4)
    mats = []
    for rows in (n, n, k):
        lists = big_matrix(rng, rows, k).to_lists()
        for r in lists:
            if rng.random() < 0.3:
                r[:] = [Fraction(0)] * k
        mats.append(Matrix(lists, cols=k))
    return (*mats, big_rational(rng))


def public_results(a: Matrix, b: Matrix, s: Matrix, c: Fraction) -> dict[str, Matrix]:
    """Every ``Matrix`` the public API makes from ``a``, ``b`` (same shape) and square ``s``."""
    n, k = a.rows, a.cols
    results = {
        "a": a,
        "b": b,
        "product": a * s,
        "product by identity": a * Matrix.identity(k),
        "sum": a + b,
        "difference": a - b,
        "difference back": (a + b) - b,
        "negation": -a,
        "scale": a.scale(c),
        "scale back": a.scale(c).scale(1 / c) if c else a.scale(2).scale(Fraction(1, 2)),
        "rmul": c * a,
        "take_columns": a.take_columns(reversed(range(k))),
        "submatrix": a.submatrix(min(1, n), n, min(1, k), k),
        "row slice": a.submatrix(min(1, n), n, 0, k),
        "transpose": a.transpose(),
        "transpose twice": a.transpose().transpose(),
        "rref": rref(a)[0],
        "kernel": kernel_basis(a),
        "rebuilt": Matrix(a.to_lists(), cols=k),
        "identity": Matrix.identity(k),
        "zeros": Matrix.zeros(n, k),
    }
    inverse = det_and_inverse(s)[1]
    if inverse is not None:
        results["inverse"] = inverse
        results["inverse twice"] = det_and_inverse(inverse)[1]
        results["s"] = s
    return results


# equal matrices reached by different paths
SAME_VALUE = [
    ("a", "product by identity"),
    ("a", "scale back"),
    ("a", "transpose twice"),
    ("a", "difference back"),
    ("a", "rebuilt"),
    ("s", "inverse twice"),
]


@pytest.mark.parametrize("seed", SEEDS)
def test_results_are_canonical_and_compare_by_value(seed):
    results = public_results(*canonical_case(seed))
    for name, m in results.items():
        assert is_canonical(m), name
    for p, q in SAME_VALUE:
        if q in results:
            assert results[p] == results[q], q
            assert hash(results[p]) == hash(results[q]), q
    for (p, x), (q, y) in product(results.items(), repeat=2):
        same_value = (x.rows, x.cols, x.to_lists()) == (y.rows, y.cols, y.to_lists())
        assert (x == y) == same_value, (p, q)
        if same_value:
            assert hash(x) == hash(y), (p, q)


def test_canonical_cases_invert_and_reach_zero_rows():
    cases = [canonical_case(seed) for seed in SEEDS]
    assert sum(det_and_inverse(s)[1] is not None and s.rows > 1 for _, _, s, _ in cases) > 20
    assert sum(any(not any(a.row(i)) for i in range(a.rows)) for a, _, _, _ in cases) > 50


def row_denominators(m: Matrix) -> set[int]:
    """The least common denominator of each row's entries."""
    return {lcm(*(x.denominator for x in m.row(i))) for i in range(m.rows)}


def test_canonical_cases_reach_what_one_denominator_must_normalise():
    # rows over different denominators share one; a slice that drops the
    # entries prime to it is renormalised; sums, differences and block
    # comparisons meet operands over different denominators
    cases = [canonical_case(seed) for seed in SEEDS]
    assert sum(len(row_denominators(a)) > 1 for a, _, _, _ in cases) > 50
    renormalised = widened = 0
    for a, b, _, _ in cases:
        n, k = a.rows, a.cols
        slices = (a.submatrix(min(1, n), n, 0, k), a.take_columns(range(1, k)))
        renormalised += any(m._den < a._den for m in slices)
        # a's block beside b's columns: the same block over another denominator
        wider = hstack(a, b)
        assert a.block_equals(0, n, 0, k, wider)
        assert a.block_equals(0, n, 0, k, b) == (a == b)
        widened += wider._den != a._den
    assert renormalised > 50
    assert widened > 50
    assert sum(a._den != b._den for a, b, _, _ in cases) > 50


@pytest.mark.parametrize("seed", range(50))
def test_products_and_eliminations_make_no_fraction_rows(seed, monkeypatch):
    a, b, s, _ = canonical_case(seed)
    calls = []
    original = linalg_module._cleared

    def counted(v):
        calls.append(v)
        return original(v)

    monkeypatch.setattr(linalg_module, "_cleared", counted)
    a * s, a.transpose() * b, rref(a), rref(b), det(s), a.to_strings(), s.is_identity()
    a.block_equals(0, a.rows, 0, a.cols, b)
    assert calls == []
    Matrix(a.to_lists(), cols=a.cols)
    assert len(calls) == 1


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
    """A copy of ``gpd`` with one table entry changed, a few composites
    swapped, or one arrow twinned."""
    arrows = list(gpd.arrows)
    identity = dict(gpd.identity)
    inverse = dict(gpd.inverse)
    composition = dict(gpd.composition)
    keys = sorted(composition)
    ends = {a: (s, t) for a, s, t in arrows}
    if kind in ("swapped composite", "swapped composites"):
        # prefer two composites with the same endpoints, which reach the
        # associativity check; several swaps may undo each other's damage
        for _ in range(1 if kind == "swapped composite" else rng.randint(2, 4)):
            k1 = rng.choice(keys)
            same = [k for k in keys if ends[composition[k]] == ends[composition[k1]]
                    and composition[k] != composition[k1]]
            k2 = rng.choice(same or keys)
            composition[k1], composition[k2] = composition[k2], composition[k1]
    elif kind == "dropped pair":
        del composition[rng.choice(keys)]
    elif kind in ("extra pair", "swapped key"):
        apart = [(g, h) for g, (sg, _) in ends.items() for h, (_, th) in ends.items() if sg != th]
        extra = rng.choice(apart or [(arrows[0][0], "zz")])
        if kind == "swapped key":
            # one pair missing and one key extra: as many keys as pairs
            del composition[rng.choice(keys)]
        composition[extra] = extra[0]
    elif kind == "bad unit":
        x = rng.choice(gpd.objects)
        loops = [a for a, (s, t) in ends.items() if s == t == x and a != identity[x]]
        identity[x] = rng.choice(loops or [a for a, _, _ in arrows])
    elif kind == "moved arrow":
        i = rng.randrange(len(arrows))
        a, s, _ = arrows[i]
        arrows[i] = (a, s, rng.choice(gpd.objects))
    elif kind == "twin arrow":
        # a twin of ``a`` composes as ``a`` does and is the composite beside
        # a unit: every law but associativity holds, and the isotropy
        # coordinates cannot tell the twins apart
        units = set(identity.values())
        a = rng.choice([b for b, _, _ in arrows if b not in units] or [arrows[0][0]])
        twin = a + "'"
        arrows.append((twin, *ends[a]))
        inverse[twin] = inverse[a]
        for (g, h), gh in gpd.composition.items():
            for pair in product((g, twin) if g == a else (g,), (h, twin) if h == a else (h,)):
                if twin in pair:
                    composition[pair] = twin if gh == a and units & {g, h} else gh
    return FiniteGroupoid(gpd.objects, arrows, identity, inverse, composition)


MUTATIONS = [
    None, "swapped composite", "dropped pair", "extra pair", "bad unit", "moved arrow",
    "swapped composites", "twin arrow", "swapped key",
]


def law_cases(seed):
    """``(kind, table)``: a builder table, each of its mutations, and the
    non-associative loop alone and beside the builder table."""
    rng = random.Random(seed)
    base = builder_groupoid(rng)
    for kind in MUTATIONS:
        yield kind, base if kind is None else mutated(base, rng, kind)
    yield "loop", nonassociative_loop()
    yield "loop beside a lawful table", disjoint_union(nonassociative_loop(), base)


@pytest.fixture
def certified(monkeypatch):
    """The associativity certificate's verdicts, and the triple scans run."""
    seen = {"verdicts": [], "scans": 0}
    is_associative, scan = groupoid_module._is_associative, groupoid_module._scan_associativity

    def verdict(*args):
        seen["verdicts"].append(is_associative(*args))
        return seen["verdicts"][-1]

    def counted_scan(*args):
        seen["scans"] += 1
        return scan(*args)

    monkeypatch.setattr(groupoid_module, "_is_associative", verdict)
    monkeypatch.setattr(groupoid_module, "_scan_associativity", counted_scan)
    return seen


@pytest.mark.parametrize("seed", SEEDS)
def test_groupoid_scans_match_the_all_arrow_scans(seed, certified):
    for kind, gpd in law_cases(seed):
        assert gpd.composable_pairs() == scan_composable_pairs(gpd), kind
        certified.update(verdicts=[], scans=0)
        expected = scan_validate(gpd)
        assert validate(gpd).problems == expected, kind
        if True in certified["verdicts"]:
            # never accepts what the scan rejects
            assert not any("associativity fails" in p for p in expected), kind
        if not expected:
            # accepts every lawful table without a triple scan
            assert certified == {"verdicts": [True], "scans": 0}, kind


@pytest.mark.parametrize("seed", SEEDS)
def test_a_swapped_key_is_worded_and_leaves_no_model(seed):
    # the table has as many keys as composable pairs, so the count alone
    # would pass it: each key's own test has to catch the swap
    rng = random.Random(seed)
    base = builder_groupoid(rng)
    gpd = mutated(base, rng, "swapped key")
    (dropped,) = set(base.composition) - set(gpd.composition)
    (extra,) = set(gpd.composition) - set(base.composition)
    assert len(gpd.composition) == len(gpd.composable_pairs())
    assert validate(gpd).problems == [
        f"composition table defines non-composable pair ('{extra[0]}', '{extra[1]}')",
        f"composable pair ('{dropped[0]}', '{dropped[1]}') missing from composition table",
    ]
    assert _isotropy_model(gpd) is None


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


def test_law_cases_reach_every_certificate_outcome(certified):
    # the agreement above is only as strong as the tables it sees
    outcomes = set()
    for seed in SEEDS:
        for kind, gpd in law_cases(seed):
            certified.update(verdicts=[], scans=0)
            validate(gpd)
            if not certified["verdicts"]:
                continue  # validate stopped before associativity
            model, ids = _isotropy_model(gpd), gpd.arrow_ids()
            if model is None:
                outcomes.add("no model")
            elif len({(gpd.tgt(a), model[1][a], gpd.src(a)) for a in ids}) < len(ids):
                outcomes.add("coordinates not injective")
            else:
                outcomes.add("certified" if certified["verdicts"] == [True] else "isotropy fails")
    assert outcomes == {"no model", "coordinates not injective", "isotropy fails", "certified"}


@pytest.mark.parametrize("seed", SEEDS)
def test_isotropy_model_matches_the_entry_by_entry_scan(seed):
    for kind, gpd in law_cases(seed):
        assert _isotropy_model(gpd) == scan_isotropy_model(gpd), kind


# The model compares most rows with the first row of their class as one
# tuple; what it gives must not depend on how the table's entries are laid out.
TABLE_LAYOUTS = ("pairs", "sorted", "rows shuffled", "interleaved")


def laid_out(gpd: FiniteGroupoid, rng: random.Random, layout: str) -> FiniteGroupoid:
    """``gpd`` with its table's entries in ``composable_pairs()`` order (keys
    that are no pair last), in ``serialize``'s sorted order, by rows in
    shuffled order with each row's entries shuffled, or interleaved: one
    entry of each row in turn, the rows shuffled."""
    entries = list(gpd.composition.items())
    if layout == "pairs":
        rank = {pair: i for i, pair in enumerate(gpd.composable_pairs())}
        entries.sort(key=lambda e: rank.get(e[0], len(rank)))
    elif layout == "sorted":
        entries.sort()
    else:
        rows = [[((g, h), gh) for h, gh in row.items()] for g, row in gpd._rows.items()]
        rng.shuffle(rows)
        if layout == "rows shuffled":
            for row in rows:
                rng.shuffle(row)
            entries = [e for row in rows for e in row]
        else:
            entries = [e for turn in zip_longest(*rows) for e in turn if e is not None]
    return FiniteGroupoid(gpd.objects, gpd.arrows, gpd.identity, gpd.inverse, dict(entries))


def layout_cases(seed):
    """``(kind, layout, table)`` for every law case and table layout."""
    rng = random.Random(-1 - seed)
    for kind, gpd in law_cases(seed):
        for layout in TABLE_LAYOUTS:
            yield kind, layout, laid_out(gpd, rng, layout)


@pytest.mark.parametrize("seed", SEEDS)
def test_isotropy_model_matches_the_scan_in_every_table_layout(seed):
    for kind, layout, gpd in layout_cases(seed):
        assert _isotropy_model(gpd) == scan_isotropy_model(gpd), (kind, layout)


class ReadRow(dict):
    """A row of the table that records in ``reads`` each pass over its values or items."""

    def __init__(self, g, row, reads):
        super().__init__(row)
        self.g, self.reads = g, reads

    def values(self):
        self.reads.append((self.g, "values"))
        return super().values()

    def items(self):
        self.reads.append((self.g, "items"))
        return super().items()


def entries_pass(gpd: FiniteGroupoid, k: dict, g: str) -> bool:
    # the model's entry check on g's row, with the coordinates k
    src, tgt, rows = gpd._src, gpd._tgt, gpd._rows
    try:
        return all(
            src[g] == tgt[h] and src[gh] == src[h] and tgt[gh] == tgt[g]
            and k[gh] == rows[k[g]][k[h]]
            for h, gh in dict.items(rows[g])
        )
    except KeyError:
        return False


def certificate_outcomes(gpd: FiniteGroupoid) -> set[str]:
    """What ``_isotropy_model`` does with the rows of ``gpd`` that it reads,
    seen from which rows it compares as a tuple and which it checks entry
    by entry; each outcome is checked against the class it implies."""
    reads = []
    gpd._rows = {g: ReadRow(g, row, reads) for g, row in gpd._rows.items()}
    model = _isotropy_model(gpd)
    if not reads:
        return set()
    _, k, _ = scan_coordinates(gpd)
    src, tgt, rows = gpd._src, gpd._tgt, gpd._rows
    compared = [g for g, what in reads if what == "values"]
    checked = {g for g, what in reads if what == "items"}
    outcomes, first = set(), {}
    for g in compared:
        kept = first.setdefault((tgt[g], k[g], tuple((src[h], k[h]) for h in rows[g])), g)
        if kept == g:
            assert g in checked  # the first row of its class
        elif g not in checked:
            assert list(dict.values(rows[g])) == list(dict.values(rows[kept]))
            outcomes.add("accepted by its class")
        elif entries_pass(gpd, k, g):
            outcomes.add("compared, then passed entry by entry")
        else:
            assert model is None and reads[-1] == (g, "items")
            outcomes.add("compared, then failed entry by entry")
    for g in checked:
        if len({tgt[h] for h in rows[g]}) > 1:
            assert g not in compared
            outcomes.add("keys with two targets")
    return outcomes


def test_a_row_of_the_same_sources_but_other_coordinates_is_not_in_the_class():
    # Two rows into z with k = e hold the same composites in order, and
    # their keys have the same sources in order; but the second row lists
    # its two loops at x in the other order, with its composites swapped to
    # match, so the coordinates of its keys differ and it fails the check.
    gpd = connected_groupoid(["x", "y", "z"], GroupTable.cyclic(2))
    g, swapped, (h1, h2) = "e:y>z", "e:x>z", ("e:x>x", "r1:x>x")
    table = {(g, h): gh for h, gh in gpd._rows[g].items()}
    table[swapped, h2], table[swapped, h1] = gpd.compose(swapped, h1), gpd.compose(swapped, h2)
    table.update((pair, gh) for pair, gh in gpd.composition.items() if pair not in table)
    broken = FiniteGroupoid(gpd.objects, gpd.arrows, gpd.identity, gpd.inverse, table)
    ends = {a: (s, t) for a, s, t in gpd.arrows}
    assert list(broken._rows)[:2] == [g, swapped]
    assert list(broken._rows[g].values()) == list(broken._rows[swapped].values())
    assert [ends[h][0] for h in broken._rows[g]] == [ends[h][0] for h in broken._rows[swapped]]
    assert scan_isotropy_model(broken) is None
    assert _isotropy_model(broken) is None


def test_table_layouts_reach_every_class_outcome():
    # the agreement above is only as strong as the rows it sees
    reached = set()
    for seed in SEEDS:
        for _, _, gpd in layout_cases(seed):
            reached |= certificate_outcomes(gpd)
    assert reached == {
        "accepted by its class",
        "compared, then passed entry by entry",
        "compared, then failed entry by entry",
        "keys with two targets",
    }


# Entries spliced into a compose table: each is worded by the full checks.
SPLICES = [
    "not a list", "short", "long", "None member", "int member", "bool member",
    "list member", "dict member", "unknown id", "repeated pair",
]


def splice(rng: random.Random, compose: list, kind: str, after: list | None = None) -> list:
    """An entry of ``kind`` made from a random entry of ``compose``, or from
    ``after``: then a member splice keeps its first member."""
    g, h, gh = after or rng.choice(compose)
    if kind == "not a list":
        return rng.choice(["e,t", {"g": g, "h": h, "gh": gh}, None, 3])
    if kind == "short":
        return [g, h]
    if kind == "long":
        return [g, h, gh, gh]
    if kind == "repeated pair":
        return [g, h, rng.choice(compose)[2]]
    member = {
        "None member": None, "int member": 1, "bool member": True,
        "list member": [g], "dict member": {g: h}, "unknown id": g + "?",
    }[kind]
    entry = [g, h, gh]
    entry[rng.randrange(3) if after is None else 1 + rng.randrange(2)] = member
    return entry


def compose_case(seed: int) -> tuple[dict, list[str]]:
    """A builder table as a document, in shuffled order, with up to three
    entries spliced in, and the kinds spliced."""
    rng = random.Random(seed)
    gpd = builder_groupoid(rng)
    data = json.loads(json.dumps(serialize(InputDocument(gpd, None, None, None))))
    compose = data["groupoid"]["compose"]
    rng.shuffle(compose)
    lawful = list(compose)
    kinds = [rng.choice(SPLICES) for _ in range(rng.choice((0, 1, 1, 2, 3)))]
    for kind in kinds:
        compose.insert(rng.randrange(len(compose) + 1), splice(rng, lawful, kind))
    return data, kinds


def row_splice_case(seed: int) -> tuple[dict, list[str]]:
    """A builder table as a document in ``serialize``'s order, each row's
    entries contiguous, with splices each put right after an entry of
    their own first arrow: one of ``SPLICES[seed % len(SPLICES)]``, now
    and then others too, and the kinds spliced."""
    rng = random.Random(seed)
    gpd = builder_groupoid(rng)
    data = json.loads(json.dumps(serialize(InputDocument(gpd, None, None, None))))
    compose = data["groupoid"]["compose"]
    lawful = list(compose)
    kinds = [SPLICES[seed % len(SPLICES)], *rng.sample(SPLICES, rng.choice((0, 1, 2)))]
    # from the last position back, so each position still holds a lawful entry
    positions = sorted(rng.sample(range(len(compose)), min(len(kinds), len(compose))), reverse=True)
    for at, kind in zip(positions, kinds):
        compose.insert(at + 1, splice(rng, lawful, kind, after=compose[at]))
    return data, kinds[: len(positions)]


def assert_reads_as_the_type_checked_scan(data: dict) -> None:
    raw = data["groupoid"]
    own = {a["id"]: a["id"] for a in raw["arrows"]}
    composition, problems = scan_compose_table(raw["compose"], own)
    col = schema_module._Collector()
    gpd = schema_module._parse_groupoid(raw, col)
    assert col.problems == problems
    assert list(gpd.composition.items()) == list(composition.items())
    for (g, h), gh in gpd.composition.items():
        # an arrow's id is stored as the arrow's own string
        assert all(v is own[v] for v in (g, h, gh) if v in own)
    if problems:
        with pytest.raises(schema_module.SchemaError) as refused:
            schema_module.parse_data(data)
        assert refused.value.problems == problems
    else:
        assert schema_module.parse_data(data).groupoid.composition == composition


@pytest.mark.parametrize("seed", SEEDS)
def test_compose_table_reads_as_the_type_checked_scan(seed):
    assert_reads_as_the_type_checked_scan(compose_case(seed)[0])


@pytest.mark.parametrize("seed", SEEDS)
def test_a_row_contiguous_table_reads_as_the_type_checked_scan(seed):
    # a splice right after an entry of its own row meets the reader's in-row branch
    assert_reads_as_the_type_checked_scan(row_splice_case(seed)[0])


def test_compose_cases_reach_every_splice_and_a_lawful_table():
    # the agreement above is only as strong as the entries it sees
    spliced = [compose_case(seed)[1] for seed in SEEDS]
    assert set().union(*spliced) == set(SPLICES)
    assert [] in spliced
    assert {row_splice_case(seed)[1][0] for seed in SEEDS} == set(SPLICES)


# The table is stored as rows keyed by the first arrow; ``composition``
# must still read as the flat dict the table's entries fill in order.


class FlatTable:
    """A groupoid's tables with its composition as one flat dict, as it
    was stored before rows: what the oracle's scans read."""

    def __init__(self, gpd: FiniteGroupoid, flat: dict):
        self.objects, self.arrows = gpd.objects, gpd.arrows
        self.identity, self.inverse, self.composition = gpd.identity, gpd.inverse, flat
        self._src = {a: s for a, s, _ in gpd.arrows}
        self._tgt = {a: t for a, _, t in gpd.arrows}

    def arrow_ids(self):
        return [a for a, _, _ in self.arrows]

    def src(self, a):
        return self._src[a]

    def tgt(self, a):
        return self._tgt[a]

    def unit(self, x):
        return self.identity[x]

    def inv(self, a):
        return self.inverse[a]

    def compose(self, g, h):
        return self.composition[g, h]


ORDER_LAYOUTS = ("rows", "shuffled", "interleaved")


def table_order_case(seed: int) -> tuple[FiniteGroupoid, list, str]:
    """A builder table's entries laid out by rows (sorted, as
    ``serialize`` writes them), shuffled, or by rows with one entry moved
    out of its row; now and then with repeated pairs (the same composite
    or another) and entries naming unknown ids."""
    rng = random.Random(seed)
    gpd = builder_groupoid(rng)
    entries = [[g, h, gh] for (g, h), gh in sorted(gpd.composition.items())]
    layout = ORDER_LAYOUTS[seed % 3]
    if layout == "shuffled":
        rng.shuffle(entries)
    elif layout == "interleaved":
        # the first row's first entry, moved to the end of the table
        entries.append(entries.pop(0))
    ids = gpd.arrow_ids()
    for _ in range(rng.choice((0, 1, 2))):
        g, h, _ = rng.choice(entries)
        entries.insert(rng.randrange(len(entries) + 1), [g, h, rng.choice(ids)])
    for _ in range(rng.choice((0, 0, 1, 2))):
        entry = list(rng.choice(entries))
        entry[rng.randrange(3)] = rng.choice(ids) + "?"
        entries.insert(rng.randrange(len(entries) + 1), entry)
    return gpd, entries, layout


def flat_table(entries: list) -> dict:
    # the old rule: a dict filled entry by entry
    flat = {}
    for g, h, gh in entries:
        flat[g, h] = gh
    return flat


@pytest.mark.parametrize("seed", SEEDS)
def test_composition_reads_in_table_order_from_rows(seed):
    base, entries, _ = table_order_case(seed)
    flat = flat_table(entries)
    tables = base.objects, base.arrows, base.identity, base.inverse
    built = FiniteGroupoid(*tables, flat)
    data = json.loads(json.dumps(serialize(InputDocument(base, None, None, None))))
    data["groupoid"]["compose"] = entries
    read = schema_module._parse_groupoid(data["groupoid"], schema_module._Collector())
    oracle = scan_validate(FlatTable(base, flat))
    for gpd in (built, read):
        # the flat view iterates as the flat dict did, and compose agrees
        assert list(gpd.composition.items()) == list(flat.items())
        for (g, h), gh in flat.items():
            assert gpd.compose(g, h) == gh
        with pytest.raises(KeyError):
            gpd.compose(base.arrow_ids()[0], "no such arrow")
        assert validate(gpd).problems == oracle
    # equality ignores the table's order
    assert built == read
    assert built == FiniteGroupoid(*tables, dict(reversed(flat.items())))
    assert built == FiniteGroupoid(*tables, dict(sorted(flat.items())))
    changed = dict(flat)
    changed[next(iter(flat))] = "no such arrow"
    assert built != FiniteGroupoid(*tables, changed)


def test_table_order_cases_reach_every_layout():
    # the agreement above is only as strong as the tables it sees
    reached = set()
    for seed in SEEDS:
        base, entries, layout = table_order_case(seed)
        pairs = [(g, h) for g, h, _ in entries]
        repeated = len(set(pairs)) < len(pairs)
        unknown = any(v not in base.arrow_ids() for e in entries for v in e)
        gpd = FiniteGroupoid(base.objects, base.arrows, base.identity, base.inverse, flat_table(entries))
        # a table whose rows are contiguous keeps no order of its own
        kept = gpd._order is not None
        reached.add((layout, repeated, unknown, kept))
        if layout == "rows" and not repeated and not unknown:
            assert not kept
    assert {layout for layout, *_ in reached} == set(ORDER_LAYOUTS)
    assert {(repeated, unknown) for _, repeated, unknown, _ in reached} == {
        (False, False), (False, True), (True, False), (True, True)
    }
    assert ("interleaved", False, False, True) in reached
    assert ("shuffled", False, False, True) in reached


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


def twisted_unit(rng, gpd, values, fibers):
    """A copy of the ruth ``values`` with one unit acting by ``id + dH + Hd``.

    That chain map is homotopic to the identity, and is not it; None
    when every random homotopy gives ``dH + Hd = 0``.
    """
    for x in rng.sample(gpd.objects, len(gpd.objects)):
        fiber = fibers[x]
        twist = rand_homotopy(rng, fiber, fiber).boundary_conjugate()
        if any(not twist.component(i).is_zero() for i in twist.degrees()):
            return {**values, gpd.unit(x): ChainMap.identity(fiber) + twist}
    return None


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


def stopped_at_an_action(kind, scanned) -> bool:
    """Whether the vector scan refused an action, and so multiplied no pair.

    verify_vector_rep asks the checker before it takes the determinants,
    so a singular action can meet the checker, which may refuse it."""
    return kind == "vector" and isinstance(scanned, list) and any(
        "has no action" in p or "has shape" in p or "is singular" in p for p in scanned
    )


def is_unit_value(v) -> bool:
    return v.is_identity() if isinstance(v, Matrix) else v == 1


def pairs_multiply_out(gpd, phi) -> bool:
    """Whether ``phi(g) phi(h) == phi(gh)`` on every composable pair."""
    try:
        return all(phi(g) * phi(h) == phi(gpd.compose(g, h)) for g, h in gpd.composable_pairs())
    except (KeyError, ValueError):
        return False


@pytest.fixture
def verdicts(monkeypatch):
    """The checker's answers, as the four callers receive them, each with
    whether the values it was asked about multiply out on every pair (only
    worked out for an acceptance)."""
    seen = []

    def spy(gpd, phi, *rest):
        verdict = _is_functorial(gpd, phi, *rest)
        seen.append((verdict, verdict and pairs_multiply_out(gpd, phi)))
        return verdict

    # verify_vector_rep asks it from reps, the others through _failing_pairs
    for module in (groupoid_module, reps_module):
        monkeypatch.setattr(module, "_is_functorial", spy)
    return seen


def functoriality_cases(seed):
    """``(groupoid, lawful, kind, mutation, values, extra)`` for one seed.

    Every rep kind on the lawful table, as built and with one of the
    rep mutations; and as built on one of the five table mutations.  The
    mutations take turns by seed.  Last, the ruth values with a twisted
    unit, drawn from a generator of its own so that the cases before
    stay as they were.
    """
    rng = random.Random(seed)
    base = builder_groupoid(rng)
    for k, kind in enumerate(KINDS):
        values, extra = functorial_values(rng, base, kind)
        if kind == "ruth":
            ruth = values, extra
        yield base, True, kind, None, values, extra
        mutation = REP_MUTATIONS[1 + (seed + k) % 4]
        changed = mutated_values(rng, base, kind, values, extra, mutation)
        if changed is not None:
            yield base, True, kind, mutation, *changed
        table = MUTATIONS[1 + (seed + k) % 5]
        gpd = mutated(base, rng, table)
        yield gpd, not validate(gpd).problems, kind, table, values, extra
    values, fibers = ruth
    twisted = twisted_unit(random.Random(f"twisted unit {seed}"), base, values, fibers)
    if twisted is not None:
        yield base, True, "ruth", "twisted unit", twisted, fibers


def harmonic_degrees(fibers) -> set[int]:
    """The degrees where some fiber has cohomology: where its unit's harmonic block is nonempty."""
    return {i for c in fibers.values() for i, h in decompose(c).harmonic_dims.items() if h}


def direct_verdicts(gpd, kind, values, scanned) -> tuple[bool, bool]:
    """The checker on the raw values, and whether every pair multiplies out.

    The callers' per-arrow checks may stop before the pairs; this does not.
    """
    accepted = _is_functorial(gpd, values.__getitem__)
    if kind == "vector" and isinstance(scanned, list) and all(
        "functoriality fails" in p or "unit of" in p for p in scanned
    ):
        return accepted, scan_accepts(kind, scanned)  # the scan reached every pair
    return accepted, pairs_multiply_out(gpd, values.__getitem__)


@pytest.mark.parametrize("seed", SEEDS)
def test_functoriality_checker_agrees_with_the_pair_scans(seed, verdicts):
    for gpd, lawful, kind, mutation, values, extra in functoriality_cases(seed):
        verdicts.clear()
        got, scanned = caller_and_scan(gpd, kind, values, extra)
        assert got == scanned, (kind, mutation)
        if mutation is None:
            assert verdicts, kind  # every caller is seen
        for verdict, holds in verdicts:
            # never accepts values whose pairs do not multiply out; a question
            # about a line, vector or cocycle action stands for the whole scan,
            # one about a homotopy rep for one degree of it
            assert not verdict or holds, (kind, mutation)
            assert not verdict or kind == "ruth" or scan_accepts(kind, scanned), (kind, mutation)
        reached = not stopped_at_an_action(kind, scanned)
        if lawful and verdicts and reached and scan_accepts(kind, scanned):
            # accepts every functorial input on a lawful table; a homotopy
            # rep is asked once per degree with harmonic content
            asked = len(harmonic_degrees(extra)) if kind == "ruth" else 1
            assert verdicts == [(True, True)] * asked, (kind, mutation)
        if kind != "ruth":
            accepted, pairs_hold = direct_verdicts(gpd, kind, values, scanned)
            assert not accepted or pairs_hold, (kind, mutation)
            if lawful and pairs_hold and all(is_unit_value(values[gpd.unit(x)]) for x in gpd.objects):
                assert accepted, (kind, mutation)


def test_functoriality_cases_reach_both_verdicts():
    # the agreement above is only as strong as the failures it sees
    seen, twisted = set(), []
    for seed in range(20):
        for gpd, lawful, kind, mutation, values, extra in functoriality_cases(seed):
            _, scanned = caller_and_scan(gpd, kind, values, extra)
            seen.add((kind, mutation, scan_accepts(kind, scanned)))
            if mutation == "twisted unit":
                twisted.append(scanned[0])
            if kind != "ruth":
                seen.add((kind, mutation) + direct_verdicts(gpd, kind, values, scanned))
    for kind in KINDS:
        assert (kind, None, True) in seen, kind
        assert (kind, "perturbed", False) in seen, kind
        assert (kind, "swapped", False) in seen, kind
    assert ("ruth", "singular tree", False) in seen
    # a unit homotopic to the identity, and not it, fails the unit law
    assert twisted and all(
        any("does not act by the identity" in p for p in problems) for problems in twisted
    )
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


# ---------------------------------------------------------------------------
# Vector determinants read off the isotropy model


def vector_outcome(rep: VectorRep, check) -> tuple | type:
    """``check``'s problems and determinants, in arrow order, or the type it raised."""
    try:
        problems, dets = check(rep)
    except Exception as exc:  # the oracle raises on broken tables; so must the check
        return type(exc)
    assert all(type(v) is Fraction for v in dets.values())
    return problems, list(dets.items())


def checked(rep: VectorRep) -> tuple[list[str], dict]:
    report = verify_vector_rep(rep)
    return report.problems, report.dets


def assert_matches_the_per_arrow_check(rep: VectorRep) -> None:
    assert vector_outcome(rep, checked) == vector_outcome(rep, per_arrow_vector_rep)


def vector_rep_cases(rng: random.Random, gpd: FiniteGroupoid):
    """The regular representation of ``gpd`` in random frames, each of
    its rep mutations, and the same actions on each table mutation."""
    values, dims = functorial_values(rng, gpd, "vector")
    yield VectorRep(gpd, dims, values)
    for mutation in REP_MUTATIONS[1:]:
        changed, changed_dims = mutated_values(rng, gpd, "vector", values, dims, mutation)
        yield VectorRep(gpd, changed_dims, changed)
    for table in MUTATIONS[1:]:
        yield VectorRep(mutated(gpd, rng, table), dims, values)


@pytest.mark.parametrize("seed", SEEDS)
def test_vector_determinants_match_the_per_arrow_check(seed):
    rng = random.Random(f"vector determinants {seed}")
    for rep in vector_rep_cases(rng, builder_groupoid(rng)):
        assert_matches_the_per_arrow_check(rep)


DOCUMENTS = sorted(FIXTURES.glob("*.json")) + sorted(DATA.glob("*.json"))


@pytest.mark.parametrize("path", DOCUMENTS, ids=lambda p: p.name)
def test_vector_determinants_match_on_the_documents(path):
    # a document's own vector rep, and vector reps on its groupoid
    try:
        doc = schema_module.parse(path)
    except schema_module.SchemaError:
        return  # refused before any check: no groupoid to act on
    if isinstance(doc.rep, VectorRep):
        assert_matches_the_per_arrow_check(doc.rep)
    try:
        cases = list(vector_rep_cases(random.Random(path.name), doc.groupoid))
    except KeyError:  # no regular representation on a table with a missing composite
        cases = []
    for rep in cases:
        assert_matches_the_per_arrow_check(rep)


VECTOR_PROBLEMS = (
    "has no action", "has shape", "is singular", "not act by the identity", "functoriality fails"
)


def test_vector_cases_reach_both_paths(monkeypatch):
    # determinants handed back by the checker, with and without a unit
    # problem, and the per-arrow check on every kind of problem
    certified = []

    def spy(gpd, phi, dets=None):
        verdict = _is_functorial(gpd, phi, dets)
        if verdict and dets:
            certified.append(dict(dets))
        return verdict

    monkeypatch.setattr(reps_module, "_is_functorial", spy)
    outcomes = set()
    for seed in range(40):
        rng = random.Random(f"vector determinants {seed}")
        for rep in vector_rep_cases(rng, builder_groupoid(rng)):
            certified.clear()
            try:
                problems = verify_vector_rep(rep).problems
            except (KeyError, ValueError):
                continue
            kinds = {kind for kind in VECTOR_PROBLEMS for p in problems if kind in p}
            outcomes.update((bool(certified), kind) for kind in kinds or {"ok"})
    assert {(True, "ok"), (True, "not act by the identity")} <= outcomes
    assert {(False, kind) for kind in VECTOR_PROBLEMS} <= outcomes


@pytest.mark.parametrize("seed", SEEDS)
def test_handed_back_determinants_are_the_actions(seed):
    # a certificate writes det of every action, in arrow order; a refusal writes none
    for gpd, lawful, kind, mutation, values, _ in functoriality_cases(seed):
        if kind != "vector":
            continue
        dets = {}
        if _is_functorial(gpd, values.__getitem__, dets):
            assert list(dets.items()) == [(a, det(values[a])) for a in gpd.arrow_ids()]
            assert all(type(d) is Fraction for d in dets.values())
        else:
            assert dets == {}
            assert not (lawful and mutation is None), seed  # the regular rep is certified


def test_a_mix_of_scalars_and_matrices_is_not_certified():
    # one arithmetic serves all the values: a mix decides nothing, even
    # where every pair multiplies out, and the answer is the pair scan's
    gpd = disjoint_union(cyclic_groupoid(2), cyclic_groupoid(2))
    e0, r0, e1, r1 = gpd.arrow_ids()
    lawful = {e0: Fraction(1), r0: Fraction(-1), e1: Matrix.identity(1), r1: Matrix([[-1]])}
    swapped = {**lawful, e0: Matrix.identity(1), r0: Matrix([[-1]]), e1: Fraction(1)}
    for values, failing in ((lawful, []), (swapped, [(r1, r1)])):
        phi, dets = values.__getitem__, {}
        assert not _is_functorial(gpd, phi, dets)
        assert dets == {}
        assert groupoid_module._failing_pairs(gpd, phi) == groupoid_module._scan_pairs(gpd, phi)
        assert groupoid_module._failing_pairs(gpd, phi) == failing
    # the line and cocycle checks take no matrix at all
    with pytest.raises(TypeError):
        LineRep(gpd, lawful)
    with pytest.raises(TypeError):
        Cochain(1, {(a,): v for a, v in lawful.items()})


def idempotent_loop() -> FiniteGroupoid:
    """One object with ``e`` and ``p``, ``p p = p``: no group, yet with an isotropy model."""
    return FiniteGroupoid(
        objects=["*"],
        arrows=[("e", "*", "*"), ("p", "*", "*")],
        identity={"*": "e"},
        inverse={"e": "e", "p": "p"},
        composition={("e", "e"): "e", ("e", "p"): "p", ("p", "e"): "p", ("p", "p"): "p"},
    )


def test_a_singular_loop_the_model_certifies_is_still_refused():
    # the checker does not prove that the loops form a group: it certifies
    # this idempotent action, and its determinant 0 sends the check back
    # to the per-arrow path, which words it
    gpd = idempotent_loop()
    values = {"e": Matrix.identity(2), "p": Matrix([[1, 0], [0, 0]])}
    rep = VectorRep(gpd, {"*": 2}, values)
    assert _is_functorial(gpd, values.__getitem__)
    # asked for the determinants, it refuses the loop's 0 and writes none
    dets = {}
    assert not _is_functorial(gpd, values.__getitem__, dets)
    assert dets == {}
    report = verify_vector_rep(rep)
    assert report.problems == ["action of arrow 'p' is singular"]
    assert (report.problems, report.dets) == per_arrow_vector_rep(rep)
    assert list(report.dets.items()) == [("e", 1), ("p", 0)]


def test_a_unit_off_the_identity_the_model_certifies_is_still_refused():
    # the "bad unit" table of seed 27 gives object 'c1.v' a unit that is
    # not the identity; the checker certifies the actions all the same
    gpd, values, dims = next(
        (gpd, values, dims)
        for gpd, _, kind, mutation, values, dims in functoriality_cases(27)
        if (kind, mutation) == ("vector", "bad unit")
    )
    assert _is_functorial(gpd, values.__getitem__)
    rep = VectorRep(gpd, dims, values)
    report = verify_vector_rep(rep)
    assert report.problems == ["unit of object 'c1.v' does not act by the identity"]
    assert (report.problems, report.dets) == per_arrow_vector_rep(rep)


def test_a_lawful_vector_check_takes_a_determinant_per_loop_and_tree_arrow(monkeypatch):
    group = GroupTable.symmetric_3()
    gpd = connected_groupoid([f"o{i}" for i in range(5)], group)
    dims, values = regular_values(random.Random(0), gpd)
    rep = VectorRep(gpd, dims, values)
    taken = []
    for module in (groupoid_module, reps_module):
        monkeypatch.setattr(module, "det", lambda m: taken.append(m) or det(m))
    report = verify_vector_rep(rep)
    monkeypatch.undo()
    assert report.ok
    assert (report.problems, report.dets) == per_arrow_vector_rep(rep)
    n, g = len(gpd.objects), len(group.elements)
    # one per loop at the base and one per tree arrow off it, where the
    # per-arrow check takes one per arrow, 150 here, and four more for the tree
    assert len(taken) == g + n - 1 <= g + 2 * (n - 1) == 14


# ---------------------------------------------------------------------------
# The degree-1 class path on integer numerators and denominators


def nonzero_big_rational(rng: random.Random) -> Fraction:
    """A nonzero rational of either sign, its parts up to 200 bits."""
    value = big_rational(rng)
    return value or Fraction(-(2**70) - 1, 3)


def element_sign(arrow: str) -> int:
    """The sign character on an arrow's group part: ``r1`` in Z/2, odd permutations in S3."""
    element = arrow.split(":")[0].split(".")[-1]
    if element.startswith("s"):
        digits = element[1:]
        inversions = sum(digits[i] > digits[j] for i in range(3) for j in range(i + 1, 3))
        return -1 if inversions % 2 else 1
    return -1 if element == "r1" else 1


def partial_sigma(rng: random.Random, gpd: FiniteGroupoid) -> Trivialization:
    """Scales at a random subset of the objects: now and then none, or all."""
    share = rng.choice((0.0, 0.5, 1.0))
    return Trivialization({x: nonzero_big_rational(rng) for x in gpd.objects if rng.random() < share})


def class_path_case(seed: int) -> tuple[LineRep, Trivialization | None]:
    """A line representation over one to three components, and maybe a trivialization.

    Each component is the pair groupoid on one to four objects times Z/1,
    Z/2 or S3.  On about half of them the action is the sign character,
    which makes the class nontrivial when the group has odd elements; it
    is twisted everywhere by the coboundary of a potential of large
    rationals of either sign.
    """
    rng = random.Random(seed)
    # Z/2 twice as often as the others; S3 on at most two objects keeps the scan small
    groups = (GroupTable.cyclic(1), GroupTable.cyclic(2), GroupTable.cyclic(2), GroupTable.symmetric_3())
    pieces = []
    for _ in range(rng.randint(1, 3)):
        group = rng.choice(groups)
        n = rng.randint(1, 2 if len(group.elements) == 6 else 4)
        pieces.append(connected_groupoid([f"o{i}" for i in range(n)], group))
    gpd = disjoint_union(*pieces)
    signed = {i for i in range(len(pieces)) if rng.random() < 0.5}
    f = {x: nonzero_big_rational(rng) for x in gpd.objects}
    action = {
        a: (element_sign(a) if int(a[1 : a.index(".")]) in signed else 1) * f[s] / f[t]
        for a, s, t in gpd.arrows
    }
    sigma = partial_sigma(rng, gpd) if seed % 4 else None
    return LineRep(gpd, action), sigma


def scaled_by_fractions(r: LineRep, sigma: Trivialization | None) -> Cochain:
    """``r(a) * sigma(src a) / sigma(tgt a)`` on every arrow, one Fraction product at a time."""
    sigma = sigma or Trivialization.ones()
    gpd = r.groupoid
    return Cochain(1, {(a,): r(a) * sigma(gpd.src(a)) / sigma(gpd.tgt(a)) for a in gpd.arrow_ids()})


def scanned_class(gpd: FiniteGroupoid, phi: Cochain) -> ClassReport:
    """The class of ``phi`` as the all-arrow scan decides it."""
    potential, obstructions = scan_coboundary_solve_1(gpd, phi)
    if obstructions:
        return ClassReport(phi, False, None, obstructions)
    return ClassReport(phi, True, Cochain(0, potential), [])


def assert_same_class(report: ClassReport, reference: ClassReport) -> None:
    assert list(report.cocycle.values.items()) == list(reference.cocycle.values.items())
    assert report.is_coboundary == reference.is_coboundary
    assert report.obstructions == reference.obstructions
    if reference.witness is not None:
        assert list(report.witness.values.items()) == list(reference.witness.values.items())
    assert _class_fields(report) == _class_fields(reference)
    values = [*report.cocycle.values.values(), *(v for _, v in report.obstructions)]
    if report.witness is not None:
        values += report.witness.values.values()
    assert all(type(v) is Fraction for v in values)


@pytest.mark.parametrize("seed", SEEDS)
def test_characteristic_function_matches_the_fraction_products(seed):
    r, sigma = class_path_case(seed)
    phi = characteristic_function(r, sigma)
    reference = scaled_by_fractions(r, sigma)
    assert list(phi.values.items()) == list(reference.values.items())
    assert all(type(v) is Fraction for v in phi.values.values())
    # integer actions are read as the same rationals
    if all(v.denominator == 1 for v in r.action.values()):
        ints = LineRep(r.groupoid, {a: int(v) for a, v in r.action.items()})
        assert list(characteristic_function(ints, sigma).values.items()) == list(phi.values.items())


@pytest.mark.parametrize("seed", SEEDS)
def test_class_decision_matches_the_fraction_scan(seed):
    r, sigma = class_path_case(seed)
    gpd = r.groupoid
    reference = scanned_class(gpd, scaled_by_fractions(r, sigma))
    assert_same_class(coboundary_solve_1(gpd, reference.cocycle), reference)
    check = verify_line_rep(r)
    assert check.ok
    line, report = decide_modular_class(r, check, sigma)
    assert line is r
    assert_same_class(report, reference)


def test_class_path_cases_reach_both_classes_partial_scales_and_large_parts():
    cases = [class_path_case(seed) for seed in SEEDS]
    verdicts = {coboundary_solve_1(r.groupoid, characteristic_function(r, s)).is_coboundary for r, s in cases}
    assert verdicts == {True, False}
    assert any(s is None for _, s in cases)
    assert any(0 < len(s.scales) < len(r.groupoid.objects) for r, s in cases if s is not None)
    assert any(len({a[: a.index(".")] for a in r.action}) > 1 for r, _ in cases)
    assert any(abs(v.numerator) > 2**64 and v < 0 for r, _ in cases for v in r.action.values())


def union_fixture() -> GroupoidFixture:
    """Z/2 beside the pair groupoid on two objects: three objects, two components."""
    gpd = disjoint_union(cyclic_groupoid(2), connected_groupoid(["x", "y"], GroupTable.cyclic(1)))
    sign = {a: Fraction(element_sign(a)) for a in gpd.arrow_ids()}
    return GroupoidFixture("Z2+PAIR2", gpd, [{a: Fraction(1) for a in sign}, sign])


@pytest.mark.parametrize("seed", range(60))
def test_berezinian_rep_matches_the_per_arrow_fraction_product(seed):
    rng = random.Random(seed)
    fx = union_fixture() if seed % 3 == 0 else standard_fixtures()[seed % 4]
    rep = rand_ruth(rng, fx)
    gpd = rep.groupoid
    sigma = partial_sigma(rng, gpd) if seed % 5 else None
    check = verify_ruth(rep)
    assert check.ok
    line, report = decide_modular_class(rep, check, sigma)
    reference = per_arrow_ber_rep(rep, sigma)
    assert list(line.action.items()) == list(reference.action.items())
    assert all(type(v) is Fraction for v in line.action.values())
    assert_same_class(report, scanned_class(gpd, characteristic_function(reference)))


def test_a_float_action_is_still_refused():
    # refused as the rep is built, so before any cocycle is read off it
    gpd = cyclic_groupoid(2)
    for sigma in (None, Trivialization(), Trivialization({"*": Fraction(-3, 7)})):
        with pytest.raises(TypeError, match="exact rationals"):
            characteristic_function(LineRep(gpd, {"e:*>*": Fraction(1), "r1:*>*": 0.5}), sigma)


def test_a_decision_reads_no_line_or_cocycle_value_again(monkeypatch):
    # The schema's line actions and cochains, a vector rep's determinant
    # line, a homotopy rep's Berezinian line, and each decision's cocycle
    # and witness are Fractions the library made: none goes through _exact
    # again.
    reads, decided = [], set()

    def counted(x, name="matrix entries"):
        if name == "cochain values":
            reads.append(x)
        return linalg_module._exact(x, name)

    for module in (groupoid_module, reps_module):
        monkeypatch.setattr(module, "_exact", counted)
    for path in DOCUMENTS:
        try:
            doc = schema_module.parse(str(path))
        except schema_module.SchemaError:
            continue
        if not validate(doc.groupoid).ok:
            continue
        if doc.cochain is not None:
            decided.add("cochain")
            assert all(type(v) is Fraction for v in doc.cochain.values.values())
        if doc.rep is None or not (check := reps_module.verify_rep(doc.rep)).ok:
            continue
        line, report = decide_modular_class(doc.rep, check, doc.sigma)
        decided.add(doc.rep_kind)
        assert all(type(v) is Fraction for v in line.action.values())
        assert all(type(v) is Fraction for v in report.cocycle.values.values())
    assert decided == {"line", "vector", "homotopy", "cochain"}
    assert reads == []


@pytest.mark.parametrize("signed", [False, True])
def test_class_decision_multiplies_fractions_only_along_the_tree(signed, monkeypatch):
    group = GroupTable.symmetric_3()
    gpd = connected_groupoid([f"o{i}" for i in range(5)], group)
    rng = random.Random(5)
    f = {x: nonzero_big_rational(rng) for x in gpd.objects}
    r = LineRep(gpd, {a: (element_sign(a) if signed else 1) * f[s] / f[t] for a, s, t in gpd.arrows})
    sigma = Trivialization({x: nonzero_big_rational(rng) for x in gpd.objects[1:]})
    check = verify_line_rep(r)
    assert check.ok
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        original = getattr(Fraction, name)

        def counted(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    _, report = decide_modular_class(r, check, sigma)
    monkeypatch.undo()
    components = 1
    assert len(gpd.arrows) == 150
    assert report.is_coboundary is not signed
    # one product or quotient per tree arrow, for the potential
    assert 0 < len(calls) <= len(gpd.objects) - components


@pytest.mark.parametrize("signed", [False, True])
def test_lawful_scalar_checks_multiply_no_fraction(signed, monkeypatch):
    # a cochain or line action is certified on integer numerators and denominators
    group = GroupTable.symmetric_3()
    gpd = connected_groupoid([f"o{i}" for i in range(5)], group)
    rng = random.Random(7)
    f = {x: nonzero_big_rational(rng) for x in gpd.objects}
    action = {a: (element_sign(a) if signed else 1) * f[s] / f[t] for a, s, t in gpd.arrows}
    r, phi = LineRep(gpd, action), Cochain(1, {(a,): v for a, v in action.items()})
    calls = []
    for name in ("__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        original = getattr(Fraction, name)

        def counted(self, other, original=original, name=name):
            calls.append(name)
            return original(self, other)

        monkeypatch.setattr(Fraction, name, counted)
    lawful = verify_line_rep(r).ok, is_cocycle_1(gpd, phi)
    monkeypatch.undo()
    assert len(gpd.arrows) == 150
    assert lawful == (True, True)
    assert calls == []
