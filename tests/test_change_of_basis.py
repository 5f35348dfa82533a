"""Differential tests: homotopy decisions read off one change of basis.

Every homotopy decision reads an arrow's map ``t`` once in the bases of
the two decompositions, ``M^i = basis_inv_T^i t^i basis_S^i``
(``complexes._in_bases``): its chain-map verdict, its harmonic blocks
and the replacement's boundary blocks.  The references compute them
directly: ``verify_chain_map`` multiplies ``d t`` and ``t d``,
``harmonic_blocks`` multiplies ``pi_T t iota_S``, ``verify_complex``
multiplies ``d d``, and ``pair_scan_ruth`` is ``verify_ruth`` on those.
The equivalence functions must raise what they raised when they
checked the map first and decomposed after.  Fibers differ in degree
range and dimension at the two ends.  The ``Matrix`` reads the path
needs (``block_equals``, ``is_identity``, ``to_strings``) are checked
against the blocks, identities and ``format_rational`` strings they
stand for.
"""

import pathlib
import random
from fractions import Fraction

import pytest

import modclass
import modclass.complexes as complexes_module
from modclass import (
    ChainMap,
    ComplexFiber,
    GradedDimensionMismatch,
    Matrix,
    NotHomotopyEquivalence,
    RepUpToWeakHomotopy,
    berezinian,
    berezinian_class,
    decompose,
    det,
    disjoint_union,
    format_rational,
    harmonic_blocks,
    invertible_replacement,
    pair_groupoid,
    parse,
    verify_chain_map,
    verify_complex,
    verify_ruth,
)
from modclass.complexes import _harmonic_part, _in_bases
from oracle import (
    class_berezinian_by_degree,
    conjugate_replacement,
    homotopy_between,
    hstack,
    kernel_basis,
    pair_scan_ruth,
)
from randgen import (
    conjugated_complex,
    pair2_fixture,
    rand_chain_map,
    rand_complex,
    rand_homotopy,
    rand_homotopy_equivalence,
    rand_matrix,
    rand_rational,
    rand_ruth,
    standard_fixtures,
)

SEEDS = range(300)


def perturbed(rng: random.Random, t: ChainMap) -> ChainMap | None:
    """``t`` with one entry of one nonempty component moved by a nonzero rational."""
    degrees = [i for i in t.degrees() if t.target.dim(i) and t.source.dim(i)]
    if not degrees:
        return None
    i = rng.choice(degrees)
    rows = t.component(i).to_lists()
    r, c = rng.randrange(len(rows)), rng.randrange(len(rows[0]))
    rows[r][c] += rand_rational(rng, nonzero=True)
    return ChainMap(t.source, t.target, {**t.components, i: Matrix(rows, cols=len(rows[0]))})


def misshapen(rng: random.Random, t: ChainMap) -> int:
    """Give ``t`` one component in the span of its two ranges, empty ones
    included, with one row too many; check that construction refuses it,
    naming the degree and both shapes, and return the degree."""
    src, tgt = t.source, t.target
    i = rng.choice(range(min(src.d_min, tgt.d_min), max(src.d_max, tgt.d_max) + 1))
    m = t.component(i)
    bad = rand_matrix(rng, m.rows + 1, m.cols)
    shapes = f"shape {bad.rows}x{bad.cols}, expected {m.rows}x{m.cols}"
    with pytest.raises(ValueError, match=f"^component at degree {i} has {shapes}$"):
        ChainMap(src, tgt, {**t.components, i: bad})
    return i


def map_cases(seed: int):
    """Two random complexes, ranges and dimensions drawn apart, maps between
    them, and the degree of a misshapen component construction refused."""
    rng = random.Random(seed)
    src, tgt = rand_complex(rng, -1, 3, 4), rand_complex(rng, -1, 3, 4)
    t = rand_chain_map(rng, src, tgt)
    maps = [("chain map", t), ("perturbed", perturbed(rng, t))]
    return src, tgt, [(kind, m) for kind, m in maps if m is not None], misshapen(rng, t)


def first_problem(t: ChainMap) -> str | None:
    problems = verify_chain_map(t).problems
    return problems[0] if problems else None


@pytest.mark.parametrize("seed", SEEDS)
def test_the_coordinate_verdict_is_verify_chain_maps(seed):
    src, tgt, maps, _ = map_cases(seed)
    ends = decompose(src), decompose(tgt)
    for kind, t in maps:
        problem, ms = _in_bases(t, *ends)
        assert problem == first_problem(t), kind
        # chain map or not, the blocks read off M are pi_T t iota_S
        assert _harmonic_part(ms, *ends) == harmonic_blocks(t, *ends), kind


def test_the_map_cases_reach_every_verdict():
    # the agreement above is only as strong as the failures it sees
    seen, offsets = set(), set()
    for seed in SEEDS:
        src, tgt, maps, i = map_cases(seed)
        for kind, t in maps:
            problem = first_problem(t)
            seen.add((kind, problem is None))
            if kind == "perturbed" and problem is not None:
                offsets.add(int(problem.split()[-1]) - max(src.d_min, tgt.d_min))
        # refused where the component is empty and where it is not
        seen.add(("misshapen", bool(src.dim(i) and tgt.dim(i))))
    assert seen == {
        ("chain map", True), ("perturbed", False), ("perturbed", True),
        ("misshapen", False), ("misshapen", True),
    }
    # the first failing degree is not always the lowest shared one
    assert len(offsets) >= 3


def fiber_with(rng: random.Random, dims: dict[int, int], lo: int, hi: int, valid: bool) -> ComplexFiber:
    """A fiber with ``dims`` over ``[lo, hi]``: a complex, or random differentials."""
    diffs, prev = {}, None
    for i in range(min(dims), max(dims)):
        if valid and prev is not None and prev.cols:
            # rows that annihilate the image of the previous differential
            k = kernel_basis(prev.transpose())
            d = rand_matrix(rng, dims[i + 1], k.cols) * k.transpose()
        else:
            d = rand_matrix(rng, dims[i + 1], dims[i])
        diffs[i] = prev = d
    return ComplexFiber(lo, hi, dims, diffs)


def outcome(fn, *args):
    """``fn(*args)``, or the type and message of the ValueError it raised."""
    try:
        return fn(*args)
    except ValueError as exc:
        return type(exc), str(exc)


def checked_first(f: ChainMap):
    """``berezinian_class(f)`` as it was: dimensions, then ``verify_chain_map``,
    then ``decompose`` of both ends, then the harmonic blocks."""
    for i in f.degrees():
        if f.source.dim(i) != f.target.dim(i):
            return GradedDimensionMismatch, (
                f"source has dimension {f.source.dim(i)} and target {f.target.dim(i)} in degree {i}"
            )
    problem = first_problem(f)
    if problem is not None:
        return ValueError, f"not a chain map: {problem}"
    try:
        ends = decompose(f.source), decompose(f.target)
    except ValueError as exc:
        return ValueError, str(exc)
    try:
        return class_berezinian_by_degree(harmonic_blocks(f, *ends), *ends, 1, 1)
    except NotHomotopyEquivalence as exc:
        return NotHomotopyEquivalence, str(exc)


def equivalence_cases(seed: int):
    """Maps between fibers of equal dimensions whose ranges may differ by
    empty degrees; either end may be no complex, in one or several degrees."""
    rng = random.Random(seed)
    lo, hi = rng.randint(-1, 1), rng.randint(1, 3)
    dims = {i: rng.randint(0, 3) for i in range(lo, hi + 1)}
    valid = seed % 3 != 0
    src = fiber_with(rng, dims, lo - rng.randint(0, 1), hi, valid)
    tgt = fiber_with(rng, dims, lo, hi + rng.randint(0, 1), valid or rng.random() < 0.5)
    maps = [ChainMap.zero(src, tgt)]
    comps = {i: rand_matrix(rng, n, n) for i, n in dims.items()}
    maps.append(ChainMap(src, tgt, comps))
    if verify_complex(src).ok and verify_complex(tgt).ok:
        t = rand_chain_map(rng, src, tgt)
        maps += [t, perturbed(rng, t) or t]
        if src == tgt:
            maps.append(ChainMap.identity(src))
    if rng.random() < 0.2:
        wider = {**dims, hi: dims[hi] + 1}
        maps.append(ChainMap.zero(src, ComplexFiber(lo, hi, wider, {})))
    return maps


@pytest.mark.parametrize("seed", SEEDS)
def test_equivalence_functions_raise_what_checking_first_raised(seed):
    for f in equivalence_cases(seed):
        expected = checked_first(f)
        assert outcome(berezinian_class, f) == expected
        replaced = outcome(invertible_replacement, f)
        if isinstance(expected, Fraction):
            assert replaced == conjugate_replacement(f)
            assert berezinian(replaced) == expected
            assert homotopy_between(replaced, f).boundary_conjugate() == replaced - f
        else:
            assert replaced == expected


@pytest.mark.parametrize("seed", SEEDS)
def test_builders_equal_their_standard_coordinate_references(seed):
    # the replacement is read off M; the reference multiplies f + dH + Hd
    # out in standard coordinates
    rng = random.Random(seed)
    c = rand_complex(rng, -1, 3, 4)
    other, q = conjugated_complex(rng, c)
    twisted = q + rand_homotopy(rng, c, other).boundary_conjugate()
    for f in (twisted, rand_chain_map(rng, c, other), rand_chain_map(rng, c, c)):
        blocks = harmonic_blocks(f, decompose(f.source), decompose(f.target))
        if all(h.is_square and det(h) != 0 for h in blocks.values()):
            g = invertible_replacement(f)
            assert g == conjugate_replacement(f)
            assert g.is_invertible()
            homotopy = homotopy_between(g, f)
            assert homotopy is not None
            assert homotopy.boundary_conjugate() == g - f
        else:
            # g is invertible exactly when every harmonic block is
            with pytest.raises(NotHomotopyEquivalence):
                invertible_replacement(f)
            with pytest.raises(ValueError, match="failed to be invertible"):
                conjugate_replacement(f)


def test_the_equivalence_cases_reach_every_outcome():
    seen = set()
    for seed in SEEDS:
        for f in equivalence_cases(seed):
            expected = checked_first(f)
            if isinstance(expected, Fraction):
                seen.add("value")
                continue
            words = ("dimension", "not a chain map", "does not split", "not invertible")
            seen.update(word for word in words if word in expected[1])
    assert seen == {"value", "dimension", "not a chain map", "does not split", "not invertible"}


def padded(c: ComplexFiber, below: int, above: int) -> ComplexFiber:
    """``c`` with empty degrees added below and above its range."""
    return ComplexFiber(c.d_min - below, c.d_max + above, c.dims, c.differentials)


def ruth_cases(seed: int):
    """Two-object representations whose fibers differ in range, as built
    and with one arrow perturbed or one fiber made no complex; one arrow
    given a misshapen component is refused by construction."""
    rng = random.Random(seed)
    fx = pair2_fixture()
    gpd = fx.gpd
    built = rand_ruth(rng, fx, twist=seed % 2 == 0)
    x, y = gpd.objects
    fibers = {x: padded(built.complexes[x], rng.randint(0, 1), 0), y: padded(built.complexes[y], 0, rng.randint(0, 1))}
    action = {
        a: ChainMap(fibers[gpd.src(a)], fibers[gpd.tgt(a)], built(a).components) for a in gpd.arrow_ids()
    }
    yield "built", RepUpToWeakHomotopy(gpd, fibers, action)
    moved = [a for a in gpd.arrow_ids() if a not in {gpd.unit(o) for o in gpd.objects}]
    a = rng.choice(moved)
    changed = perturbed(rng, action[a])
    if changed is not None:
        yield "perturbed", RepUpToWeakHomotopy(gpd, fibers, {**action, a: changed})
    misshapen(rng, action[a])
    c = fibers[y]
    broken = ComplexFiber(c.d_min, c.d_max, c.dims, {
        i: rand_matrix(rng, c.dim(i + 1), c.dim(i)) for i in c.degrees()
    })
    if not verify_complex(broken).ok:
        yield "no complex", RepUpToWeakHomotopy(gpd, {**fibers, y: broken}, action)


@pytest.mark.parametrize("seed", range(100))
def test_verify_ruth_reports_what_the_pair_scan_reports(seed):
    for kind, rep in ruth_cases(seed):
        report = verify_ruth(rep)
        assert (report.problems, report.certificates) == pair_scan_ruth(rep), kind
        for x, c in rep.complexes.items():
            assert report.complex_checks[x].problems == verify_complex(c).problems, kind


def test_the_ruth_cases_reach_every_verdict():
    seen = set()
    for seed in range(100):
        for kind, rep in ruth_cases(seed):
            problems = verify_ruth(rep).problems
            seen.add((kind, problems[0].split(":")[0].split("'")[0] if problems else "ok"))
    assert {
        ("built", "ok"), ("perturbed", "action of arrow "), ("no complex", "complex of "),
    } <= seen


def component_cases(seed: int) -> RepUpToWeakHomotopy:
    """A random representation over a disjoint union of two standard
    groupoids, each piece with its own fiber, so the arrows of different
    components have harmonic blocks in different degrees; odd seeds swap
    one action for a random chain map."""
    rng = random.Random(seed)
    pieces = [rng.choice(standard_fixtures()) for _ in range(2)]
    gpd = disjoint_union(*(fx.gpd for fx in pieces))
    complexes, action = {}, {}
    for k, fx in enumerate(pieces):
        built = rand_ruth(rng, fx)
        complexes.update({f"c{k}.{x}": c for x, c in built.complexes.items()})
        action.update({f"c{k}.{a}": t for a, t in built.action.items()})
    if seed % 2:
        a = rng.choice([b for b in gpd.arrow_ids() if b not in gpd.identity.values()])
        action[a] = rand_chain_map(rng, action[a].source, action[a].target)
    return RepUpToWeakHomotopy(gpd, complexes, action)


@pytest.mark.parametrize("seed", range(40))
def test_components_of_different_supports_are_decided_apart(seed):
    rep = component_cases(seed)
    report = verify_ruth(rep)
    assert (report.problems, report.certificates) == pair_scan_ruth(rep)


def test_the_component_cases_reach_different_supports_and_both_verdicts():
    seen = set()
    for seed in range(40):
        rep = component_cases(seed)
        supports = {tuple(c.dims) for c in rep.complexes.values()}
        seen.add((len(supports) > 1, verify_ruth(rep).ok))
    assert {(True, True), (True, False)} <= seen


def test_a_fiber_failing_in_several_degrees_is_worded_in_full():
    # decompose refuses at the first degree; verify_complex lists every one
    ones = {i: Matrix([[1]]) for i in range(3)}
    c = ComplexFiber(0, 3, {i: 1 for i in range(4)}, ones)
    rep = RepUpToWeakHomotopy(
        pair_groupoid(["x"]), {"x": c}, {"e:x>x": ChainMap.identity(c)}
    )
    report = verify_ruth(rep)
    assert report.complex_checks["x"].problems == verify_complex(c).problems == [
        "d o d is nonzero starting at degree 0",
        "d o d is nonzero starting at degree 1",
    ]
    assert report.problems == ["complex of 'x' is invalid: d o d is nonzero starting at degree 0"]


def test_a_differential_outside_the_range_is_refused():
    # d^-1 maps a zero space, so it has no columns; a matrix there would
    # make a boundary out of nothing, and construction refuses it
    with pytest.raises(ValueError, match="^differential at degree -1 has shape 1x1, expected 1x0$"):
        ComplexFiber(0, 0, {0: 1}, {-1: Matrix([[1]])})
    c = ComplexFiber(0, 0, {0: 1}, {-1: Matrix.zeros(1, 0)})
    assert c.differentials == {} and c == ComplexFiber(0, 0, {0: 1}, {})
    rep = RepUpToWeakHomotopy(pair_groupoid(["x"]), {"x": c}, {"e:x>x": ChainMap.identity(c)})
    assert verify_ruth(rep).ok


def big_entries(rng: random.Random, rows: int, cols: int) -> Matrix:
    """Zero rows and entries, negative ones, integers past 2**64 and rationals."""
    def entry():
        kind = rng.randrange(5)
        if kind == 0:
            return Fraction(0)
        bits = rng.choice((3, 70, 200))
        p = rng.randint(-(2**bits), 2**bits)
        return Fraction(p) if kind == 1 else Fraction(p, rng.randint(1, 2**bits))

    lists = [[entry() for _ in range(cols)] for _ in range(rows)]
    for row in lists:
        if rng.random() < 0.2:
            row[:] = [Fraction(0)] * cols
    return Matrix(lists, cols=cols)


@pytest.mark.parametrize("seed", range(200))
def test_to_strings_is_format_rational_of_each_entry(seed):
    rng = random.Random(seed)
    m = big_entries(rng, rng.randint(0, 4), rng.randint(0, 4))
    assert m.to_strings() == [[format_rational(x) for x in row] for row in m.to_lists()]
    assert Matrix._parse(m.to_strings(), m.cols)[0] == m


@pytest.mark.parametrize("seed", range(200))
def test_block_equals_compares_the_blocks(seed):
    rng = random.Random(seed)
    a = big_entries(rng, rng.randint(0, 4), rng.randint(0, 4))
    c = big_entries(rng, a.rows + 1, a.cols + 1)
    r0, c0 = rng.randint(0, a.rows), rng.randint(0, a.cols)
    r1, c1 = rng.randint(r0, a.rows), rng.randint(c0, a.cols)
    block = a.submatrix(r0, r1, c0, c1)
    assert a.block_equals(r0, r1, c0, c1) == block.is_zero()
    # b holds the block beside a column of its own, so its rows have
    # other denominators but the same block at (0, 0)
    b = hstack(block, big_entries(rng, block.rows, 1))
    assert a.block_equals(r0, r1, c0, c1, b)
    other = c.submatrix(0, r1 - r0, 0, c1 - c0)
    assert a.block_equals(r0, r1, c0, c1, c) == (block == other)
    assert a.block_equals(0, a.rows, 0, a.cols, a.scale(3)) == a.is_zero()


@pytest.mark.parametrize("n", range(5))
def test_is_identity_is_equality_with_the_identity(n):
    rng = random.Random(n)
    cases = [
        Matrix.identity(n),
        Matrix.identity(n).scale(Fraction(1, 2)),
        Matrix.zeros(n, n),
        Matrix.zeros(n, n + 1),
        Matrix.identity(n + 1).submatrix(0, n, 0, n + 1),
        Matrix.identity(n).take_columns(reversed(range(n))),
        *(big_entries(rng, n, n) for _ in range(5)),
    ]
    if n:
        rows = Matrix.identity(n).to_lists()
        rows[-1][0] += 1
        cases.append(Matrix(rows, cols=n))
    for m in cases:
        assert m.is_identity() == (m == Matrix.identity(m.rows))
    c = ComplexFiber(0, 1, {0: n, 1: 1}, {})
    twisted = ChainMap(c, c, {0: Matrix.identity(n), 1: Matrix([[2]])})
    for t in (ChainMap.identity(c), twisted, ChainMap.zero(c, c)):
        assert t.is_identity() == (t == ChainMap.identity(c))
    with pytest.raises(ValueError, match=f"^component at degree 0 has shape {n + 1}x{n + 1}, "):
        ChainMap(c, c, {0: Matrix.identity(n + 1), 1: Matrix.identity(1)})


# ---------------------------------------------------------------------------
# Work counts: the replacement is read off the factors


FIXTURES = pathlib.Path(modclass.__file__).parent / "fixtures"


def work_count_maps() -> list[ChainMap]:
    """The non-unit actions of the homotopy fixtures, then 50 seeded homotopy equivalences."""
    maps = []
    for name in ("z2_sign_odd", "acyclic_two_term"):
        doc = parse(FIXTURES / f"{name}.json")
        units = set(doc.groupoid.identity.values())
        maps += [t for a, t in doc.rep.action.items() if a not in units]
    for seed in range(50):
        rng = random.Random(seed)
        c = rand_complex(rng, -1, 3, 4)
        other, q = conjugated_complex(rng, c)
        maps.append(rand_homotopy_equivalence(rng, c, other, q))
    return maps


def test_each_construction_is_one_conjugation(monkeypatch):
    # the change of basis and its way back are read off each degree's
    # factors: no dense product, one change of basis per stored component
    # (a degree with none reads the zero matrix) and one replacement per degree
    maps = work_count_maps()
    counts = {"product": 0, "change": 0, "replacement": 0}
    originals = Matrix.__mul__, complexes_module.change_of_basis, complexes_module.replacement

    def counted(key, original):
        def call(*args):
            counts[key] += 1
            return original(*args)
        return call

    monkeypatch.setattr(Matrix, "__mul__", counted("product", originals[0]))
    monkeypatch.setattr(complexes_module, "change_of_basis", counted("change", originals[1]))
    monkeypatch.setattr(complexes_module, "replacement", counted("replacement", originals[2]))
    for f in maps:
        counts.update(product=0, change=0, replacement=0)
        invertible_replacement(f)
        assert counts == {
            "product": 0, "change": len(f.components), "replacement": len(f.degrees())
        }
    # the fixtures' actions and every random map are counted
    assert len(maps) > 50
