"""Slow reference constructions that the fast paths are tested against.

``global_null_homotopy`` decides null-homotopy the general way: every
entry of every homotopy component is an unknown, all degrees together
form one linear system ``d^{i-1} H^i + H^{i+1} d^i = T^i``, and it is
solved exactly.  It needs no decomposition, so it is independent of the
boundary/harmonic/lift machinery it checks.

``solve`` is the exact Gauss-Jordan solver that system is handed to,
and ``rref`` the ``Fraction`` Gauss-Jordan elimination it runs, as
``linalg`` computed it before its eliminations went fraction free.

``naive_matmul`` and ``leibniz_det`` are the textbook formulas in
``Fraction`` arithmetic, with no denominator clearing.  The ``scan_*``
functions are the groupoid scans before arrows were indexed by target:
every candidate pair or triple is found by testing all arrows.  The
``pair_scan_*`` functions are the functoriality checks before the
isotropy model: every composable pair is multiplied out.

``per_arrow_ber_rep`` and ``per_degree_cohomology_rep`` are the
Berezinian and cohomology representations built without a
``verify_ruth`` report: they decompose every fiber afresh, take each
arrow's Berezinian with ``berezinian_class`` and re-check the result's
functoriality, or take each arrow's harmonic blocks again.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import permutations

from modclass import (
    ChainMap,
    Cochain,
    FiniteGroupoid,
    GradedDimensionMismatch,
    Homotopy,
    LineRep,
    Matrix,
    RepUpToWeakHomotopy,
    Trivialization,
    ValidationReport,
    VectorRep,
    berezinian_class,
    decompose,
    det,
    harmonic_blocks,
    verify_chain_map,
    verify_complex,
    verify_line_rep,
)


def rref(m: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form and its pivot columns, by ``Fraction`` Gauss-Jordan.

    The pivot in each column is the first nonzero candidate in scan order.
    """
    red = m.to_lists()
    pivots: list[int] = []
    for col in range(m.cols):
        pr = len(pivots)
        pivot_row = next((i for i in range(pr, m.rows) if red[i][col] != 0), None)
        if pivot_row is None:
            continue
        red[pr], red[pivot_row] = red[pivot_row], red[pr]
        inv = 1 / red[pr][col]
        red[pr] = [x * inv for x in red[pr]]
        for i in range(m.rows):
            if i != pr and red[i][col] != 0:
                f = red[i][col]
                red[i] = [a - f * b for a, b in zip(red[i], red[pr])]
        pivots.append(col)
    return Matrix(red, cols=m.cols), pivots


def solve(a: Matrix, b: Matrix) -> Matrix | None:
    """An exact solution ``x`` of ``a * x = b``, or None.

    ``b`` may have several columns; a solution must work for all of
    them.  Inconsistency is certified by a pivot landing in the
    augmented block, equivalently rank([a]) < rank([a|b]).  Free
    variables are set to zero.
    """
    if a.rows != b.rows:
        raise ValueError(f"rows(a)={a.rows} != rows(b)={b.rows}")
    reduced, pivots = rref(Matrix.hstack(a, b))
    if any(p >= a.cols for p in pivots):
        return None
    x = [[Fraction(0)] * b.cols for _ in range(a.cols)]
    for i, pc in enumerate(pivots):
        for k in range(b.cols):
            x[pc][k] = reduced[i, a.cols + k]
    return Matrix(x, cols=b.cols)


def global_null_homotopy(t: ChainMap) -> Homotopy | None:
    """A homotopy ``H`` with ``T = dH + Hd``, or None when the system is inconsistent."""
    src, tgt = t.source, t.target
    lo = min(src.d_min, tgt.d_min)
    hi = max(src.d_max, tgt.d_max)

    # Unknown blocks H^i, with their offsets into the global vector.
    shapes: dict[int, tuple[int, int]] = {}
    offsets: dict[int, int] = {}
    total = 0
    for i in range(lo, hi + 2):
        r, c = tgt.dim(i - 1), src.dim(i)
        if r and c:
            shapes[i] = (r, c)
            offsets[i] = total
            total += r * c

    rows: list[list[Fraction]] = []
    rhs: list[list[Fraction]] = []
    for i in range(lo, hi + 1):
        m, n = tgt.dim(i), src.dim(i)
        if m == 0 or n == 0:
            if not t.component(i).is_zero():
                return None
            continue
        d_out = tgt.differential(i - 1)
        d_in = src.differential(i)
        comp = t.component(i)
        for r in range(m):
            for c in range(n):
                coeff = [Fraction(0)] * total
                if i in shapes:
                    h_rows, h_cols = shapes[i]
                    for k in range(h_rows):
                        if d_out[r, k] != 0:
                            coeff[offsets[i] + k * h_cols + c] += d_out[r, k]
                if i + 1 in shapes:
                    h_rows, h_cols = shapes[i + 1]
                    for k in range(h_cols):
                        if d_in[k, c] != 0:
                            coeff[offsets[i + 1] + r * h_cols + k] += d_in[k, c]
                rows.append(coeff)
                rhs.append([comp[r, c]])

    if not rows:
        return Homotopy.zero(src, tgt)
    x = solve(Matrix(rows, cols=total), Matrix(rhs, cols=1))
    if x is None:
        return None
    comps = {}
    for i, (r, c) in shapes.items():
        off = offsets[i]
        comps[i] = Matrix(
            [[x[off + a * c + b, 0] for b in range(c)] for a in range(r)], cols=c
        )
    return Homotopy(src, tgt, comps)


def naive_matmul(a: Matrix, b: Matrix) -> list[list[Fraction]]:
    """Entries of ``a * b``, one Fraction multiply and add per term."""
    return [
        [sum((a[i, k] * b[k, j] for k in range(a.cols)), Fraction(0)) for j in range(b.cols)]
        for i in range(a.rows)
    ]


def leibniz_det(m: Matrix) -> Fraction:
    """Sum over permutations of signed products of entries."""
    total = Fraction(0)
    for perm in permutations(range(m.rows)):
        inversions = sum(perm[i] > perm[j] for i in range(m.rows) for j in range(i + 1, m.rows))
        term = Fraction((-1) ** inversions)
        for i, j in enumerate(perm):
            term *= m[i, j]
        total += term
    return total


def scan_composable_pairs(gpd: FiniteGroupoid) -> list[tuple[str, str]]:
    ids = gpd.arrow_ids()
    return [(g, h) for g in ids for h in ids if gpd.src(g) == gpd.tgt(h)]


def scan_composable_tuples(gpd: FiniteGroupoid, k: int) -> list:
    if k == 0:
        return list(gpd.objects)
    tuples = [(a,) for a in gpd.arrow_ids()]
    for _ in range(k - 1):
        tuples = [
            t + (a,) for t in tuples for a in gpd.arrow_ids() if gpd.src(t[-1]) == gpd.tgt(a)
        ]
    return tuples


def scan_coboundary_solve_1(gpd: FiniteGroupoid, phi) -> tuple[dict, list]:
    """Spanning-forest potential and obstructions, scanning all arrows per node."""
    f: dict[str, Fraction] = {}
    for root in gpd.objects:
        if root in f:
            continue
        f[root] = Fraction(1)
        frontier = [root]
        while frontier:
            u = frontier.pop(0)
            for a, s, t in gpd.arrows:
                if t == u and s not in f:
                    f[s] = phi((a,)) * f[u]
                    frontier.append(s)
                elif s == u and t not in f:
                    f[t] = f[u] / phi((a,))
                    frontier.append(t)
    obstructions = []
    for a in gpd.arrow_ids():
        defect = phi((a,)) * f[gpd.tgt(a)] / f[gpd.src(a)]
        if defect != 1:
            obstructions.append((a, defect))
    return f, obstructions


def scan_validate(gpd: FiniteGroupoid) -> list[str]:
    """Problems of the groupoid laws, found by scanning all arrows per pair."""
    problems: list[str] = []
    ids = gpd.arrow_ids()
    id_set = set(ids)
    if len(id_set) != len(ids):
        return ["duplicate arrow identifiers"]
    obj_set = set(gpd.objects)
    for a, s, t in gpd.arrows:
        if s not in obj_set or t not in obj_set:
            problems.append(f"arrow '{a}' has unknown endpoint")
    for x in gpd.objects:
        u = gpd.identity.get(x)
        if u is None or u not in id_set:
            problems.append(f"object '{x}' has no unit arrow")
        elif not (gpd.src(u) == x and gpd.tgt(u) == x):
            problems.append(f"unit '{u}' of object '{x}' is not an endomorphism of it")
    for a in ids:
        if gpd.inverse.get(a) not in id_set:
            problems.append(f"arrow '{a}' has no inverse")
    if problems:
        return problems

    pairs = set(scan_composable_pairs(gpd))
    table = set(gpd.composition)
    for g, h in table - pairs:
        problems.append(f"composition table defines non-composable pair ('{g}', '{h}')")
    for g, h in pairs - table:
        problems.append(f"composable pair ('{g}', '{h}') missing from composition table")
    if problems:
        return problems

    for g, h in sorted(pairs):
        gh = gpd.compose(g, h)
        if gh not in id_set:
            problems.append(f"composite of ('{g}', '{h}') is an unknown arrow")
        elif gpd.src(gh) != gpd.src(h) or gpd.tgt(gh) != gpd.tgt(g):
            problems.append(f"composite '{gh}' of ('{g}', '{h}') has wrong endpoints")
    if problems:
        return problems

    for a in ids:
        if gpd.compose(gpd.unit(gpd.tgt(a)), a) != a:
            problems.append(f"left unit law fails for arrow '{a}'")
        if gpd.compose(a, gpd.unit(gpd.src(a))) != a:
            problems.append(f"right unit law fails for arrow '{a}'")
        b = gpd.inv(a)
        if gpd.src(b) != gpd.tgt(a) or gpd.tgt(b) != gpd.src(a):
            problems.append(f"inverse of '{a}' has wrong endpoints")
        else:
            if gpd.compose(a, b) != gpd.unit(gpd.tgt(a)):
                problems.append(f"inverse law fails: '{a}' * '{b}' is not a unit")
            if gpd.compose(b, a) != gpd.unit(gpd.src(a)):
                problems.append(f"inverse law fails: '{b}' * '{a}' is not a unit")

    for g in ids:
        for h in ids:
            if gpd.src(g) != gpd.tgt(h):
                continue
            gh = gpd.compose(g, h)
            for k in ids:
                if gpd.src(h) != gpd.tgt(k):
                    continue
                if gpd.compose(gh, k) != gpd.compose(g, gpd.compose(h, k)):
                    problems.append(f"associativity fails on ('{g}', '{h}', '{k}')")
    return problems


def pair_scan_is_cocycle_1(gpd: FiniteGroupoid, phi: Cochain) -> bool:
    return all(
        phi(g) * phi(h) == phi(gpd.compose(g, h))
        for g, h in gpd.composable_pairs()
    )


def pair_scan_line_rep(r: LineRep) -> list[str]:
    report = ValidationReport()
    gpd = r.groupoid
    for a in gpd.arrow_ids():
        value = r.action.get(a)
        if value is None:
            report.add(f"arrow '{a}' has no action")
        elif value == 0:
            report.add(f"action of arrow '{a}' is zero")
    if not report.ok:
        return report.problems
    for x in gpd.objects:
        if r(gpd.unit(x)) != 1:
            report.add(f"unit of object '{x}' does not act by 1")
    for g, h in gpd.composable_pairs():
        if r(g) * r(h) != r(gpd.compose(g, h)):
            report.add(f"functoriality fails on ('{g}', '{h}')")
    return report.problems


def pair_scan_vector_rep(r: VectorRep) -> list[str]:
    report = ValidationReport()
    gpd = r.groupoid
    for a in gpd.arrow_ids():
        m = r.action.get(a)
        if m is None:
            report.add(f"arrow '{a}' has no action")
            continue
        expected = (r.dims[gpd.tgt(a)], r.dims[gpd.src(a)])
        if (m.rows, m.cols) != expected:
            report.add(
                f"action of arrow '{a}' has shape {m.rows}x{m.cols},"
                f" expected {expected[0]}x{expected[1]}"
            )
        elif m.is_square and det(m) == 0:
            report.add(f"action of arrow '{a}' is singular")
    if not report.ok:
        return report.problems
    for x in gpd.objects:
        if not r(gpd.unit(x)).is_identity():
            report.add(f"unit of object '{x}' does not act by the identity")
    for g, h in gpd.composable_pairs():
        if r(g) * r(h) != r(gpd.compose(g, h)):
            report.add(f"functoriality fails on ('{g}', '{h}')")
    return report.problems


def pair_scan_ruth(r: RepUpToWeakHomotopy) -> tuple[list[str], set]:
    """Problems and certified pairs, each pair's harmonic blocks multiplied out."""
    report = ValidationReport()
    gpd = r.groupoid
    for x in gpd.objects:
        check = verify_complex(r.complexes[x])
        if not check.ok:
            report.add(f"complex of '{x}' is invalid: {check.problems[0]}")
    if not report.ok:
        return report.problems, set()
    for a in gpd.arrow_ids():
        t = r.action.get(a)
        if t is None:
            report.add(f"arrow '{a}' has no action")
            continue
        if t.source != r.complexes[gpd.src(a)] or t.target != r.complexes[gpd.tgt(a)]:
            report.add(f"action of arrow '{a}' joins the wrong fibers")
            continue
        check = verify_chain_map(t)
        mismatch = next(
            (
                f"arrow '{a}' joins fibers of different dimension"
                f" in degree {i} ({t.source.dim(i)} vs {t.target.dim(i)})"
                for i in t.degrees()
                if t.source.dim(i) != t.target.dim(i)
            ),
            None,
        )
        if not check.ok:
            report.add(f"action of arrow '{a}' is not a chain map: {check.problems[0]}")
        elif mismatch is not None:
            report.add(mismatch)
    if not report.ok:
        return report.problems, set()
    for x in gpd.objects:
        if r(gpd.unit(x)) != ChainMap.identity(r.complexes[x]):
            report.add(f"unit of object '{x}' does not act by the identity")
    if not report.ok:
        return report.problems, set()
    decs = {x: decompose(r.complexes[x]) for x in gpd.objects}
    blocks = {
        a: harmonic_blocks(r(a), decs[gpd.src(a)], decs[gpd.tgt(a)])
        for a in gpd.arrow_ids()
    }
    certified = set()
    for g, h in gpd.composable_pairs():
        g_blocks, h_blocks, gh_blocks = blocks[g], blocks[h], blocks[gpd.compose(g, h)]
        degrees = g_blocks.keys() & h_blocks.keys() & gh_blocks.keys()
        if all(g_blocks[i] * h_blocks[i] == gh_blocks[i] for i in degrees):
            certified.add((g, h))
        else:
            report.add(
                f"no homotopy between the composed actions of ('{g}', '{h}')"
                f" and the action of their composite"
            )
    return report.problems, certified


def per_arrow_ber_rep(r: RepUpToWeakHomotopy, sigma: Trivialization | None = None) -> LineRep:
    """Each arrow's ``berezinian_class`` on fresh decompositions, re-checked for functoriality."""
    sigma = sigma or Trivialization.ones()
    gpd = r.groupoid
    decs = {x: decompose(r.complexes[x]) for x in gpd.objects}
    action = {}
    for a in gpd.arrow_ids():
        t = r(a)
        s_obj, t_obj = gpd.src(a), gpd.tgt(a)
        for i in t.degrees():
            if t.source.dim(i) != t.target.dim(i):
                raise GradedDimensionMismatch(
                    f"arrow '{a}' joins fibers of different dimension"
                    f" in degree {i} ({t.source.dim(i)} vs {t.target.dim(i)})"
                )
        action[a] = berezinian_class(
            t, sigma(s_obj), sigma(t_obj), decs[s_obj], decs[t_obj]
        )
    rep = LineRep(gpd, action)
    check = verify_line_rep(rep)
    if not check.ok:
        raise ValueError(
            "induced Berezinian action is not functorial, so the input does"
            f" not satisfy the weak homotopy laws: {check.problems[0]}"
        )
    return rep


def per_degree_cohomology_rep(r: RepUpToWeakHomotopy, degree: int) -> VectorRep:
    """Each arrow's harmonic block in one degree, on fresh decompositions."""
    gpd = r.groupoid
    decs = {x: decompose(r.complexes[x]) for x in gpd.objects}
    dims = {x: decs[x].harmonic_dims.get(degree, 0) for x in gpd.objects}
    action = {}
    for a in gpd.arrow_ids():
        blocks = harmonic_blocks(r(a), decs[gpd.src(a)], decs[gpd.tgt(a)])
        h = blocks.get(degree, Matrix.zeros(0, 0))
        if (h.rows, h.cols) != (dims[gpd.tgt(a)], dims[gpd.src(a)]):
            raise ValueError(
                f"cohomology dimension jumps along arrow '{a}' in degree {degree}"
            )
        action[a] = h
    return VectorRep(gpd, dims, action)
