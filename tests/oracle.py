"""Slow reference constructions that the fast paths are tested against.

``Homotopy`` is a degree -1 map of complexes, component ``i`` from
source degree ``i`` to target degree ``i-1``, and
``Homotopy.boundary_conjugate`` the chain map ``d H + H d`` it
induces.  The library decides homotopies from harmonic blocks and
builds none, so only the random generators and the references below
build them.

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
``per_arrow_vector_rep`` is the vector check before its determinants
were read off that model: one ``det`` per square action.
``scan_isotropy_model`` builds the isotropy model as it was before each
arrow's ends, coordinate and isotropy row were gathered ahead of the
pass over the table: every entry looks up its arrows' ends and
coordinates and then the table at a new key.  ``scan_compose_table``
reads a document's compose table as ``schema`` did before lawful
entries took a shortcut: every entry passes the full type checks first.

``decompose_by_inverse`` is ``decompose`` as it was before each degree
was split in closed form: the harmonic block is chosen by eliminating
``[boundary | kernel basis]``, and the basis is inverted, and its
determinant taken, by eliminating ``[basis | I]``.

``dense_split_degree`` is the closed split as it was before
``decompose`` kept each degree's factors: it builds the basis ``[B | H |
L]`` and its inverse as dense ``n x n`` matrices by one elimination of
``[B_F | I]``, in every nonzero degree, and ``dense_decompose`` is
``decompose`` on it.  ``DenseDecomposition`` is the one constructor of a
decomposition from dense bases, their inverses and determinants; it
keeps no factors, so only what reads the bases (``harmonic_blocks``,
``tau`` and the references here) takes it.  ``dense_decompose``,
``decompose_by_inverse`` and ``permuted_decomposition`` return one.

``hstack`` sets matrices side by side through the public constructor,
for the constructions below; no command needs it.

``regex_rational_parts`` reads a "p" or "p/q" string by the regular
expression alone, as ``linalg`` did before plain integers took a
shortcut.

``rank``, ``kernel_basis``, ``det_and_inverse`` and ``extend_to_basis``
are the general constructions ``linalg`` offered before each degree was
split in closed form, rebuilt here on the public ``rref``: no command
needs them, and the tests and the random generators still do.

``permuted_decomposition`` is a decomposition that makes other
choices than ``decompose``: the canonical one of a complex whose
coordinates were relabelled, pulled back to the original coordinates.

``class_berezinian_by_degree`` is the closed form of
``berezinian_class`` as ``complexes`` computed it before each fiber's
``tau`` was kept: a ``Fraction`` product, degree by degree, of each
harmonic determinant and the quotient of the two basis determinants.

``contraction_homotopy`` is the contraction ``h_T t + p_T t h_S``
multiplied out in standard coordinates from each decomposition's
contraction ``h`` and harmonic projector ``p``; for a chain map ``t``
it is a null homotopy exactly when ``t``'s harmonic blocks vanish.
``homotopy_between`` builds on it the homotopy between two chain maps,
and keeps it only when ``d H + H d`` is their difference.
``conjugate_replacement`` is ``invertible_replacement``'s builder as it
was before it was read off one change of basis: the replacement ``f + d
H + H d`` through ``Homotopy.boundary_conjugate``, with its
invertibility checked by a determinant per degree.

``loop_characters`` is the cocycle on loops by the Lefschetz trace
formula: traces of the given chain maps, with no decomposition and no
elimination.

``per_arrow_ber_rep`` and ``per_degree_cohomology_rep`` are the
Berezinian and cohomology representations built without a
``verify_ruth`` report: they decompose every fiber afresh, take each
arrow's Berezinian from its harmonic blocks by
``class_berezinian_by_degree`` and re-check the result's functoriality,
or take each arrow's harmonic blocks again.

``scan_coboundary`` is the multiplicative coboundary in every degree,
over the tuples of ``scan_composable_tuples``; the library keeps degree
0 alone.  ``class_equal`` decides whether two degree-1 cocycles differ
by a coboundary, ``tensor`` multiplies two line representations, and
``regular_factorization_check`` compares the Berezinian cocycle with
the alternating product of the cohomology representations' determinant
cocycles: claims of the paper that no command states.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations
from math import lcm
from operator import mul
from typing import Mapping, Sequence

from modclass import (
    ChainMap,
    Cochain,
    ComplexFiber,
    Decomposition,
    FiniteGroupoid,
    GradedDimensionMismatch,
    LineRep,
    Matrix,
    NotACocycle,
    NotHomotopyEquivalence,
    RepUpToWeakHomotopy,
    Trivialization,
    ValidationReport,
    VectorRep,
    characteristic_function,
    coboundary,
    decompose,
    det,
    harmonic_blocks,
    is_cocycle_1,
    verify_chain_map,
    verify_complex,
    verify_line_rep,
    verify_ruth,
)
from modclass.complexes import _nonzero_entries
from modclass.groupoid import _components, _pair_count, _solve_1
from modclass.linalg import _RATIONAL_RE, _eliminate, rref as linalg_rref


class Homotopy:
    """A degree -1 map: component ``i`` goes from source degree ``i`` to
    target degree ``i-1``, of shape ``target.dim(i-1) x source.dim(i)``; a
    missing component is zero.

    Construction refuses a component of another shape and drops a zero
    or empty one, as ``ChainMap``'s does.  Two homotopies are equal when
    they have the same ends and stored components; a homotopy never
    equals a chain map, and it is unhashable.
    """

    __slots__ = ("source", "target", "components")

    def __init__(self, source: ComplexFiber, target: ComplexFiber, components: Mapping[int, Matrix]):
        self.source = source
        self.target = target
        self.components = _nonzero_entries("component", components, target, source, -1)

    @classmethod
    def zero(cls, source: ComplexFiber, target: ComplexFiber) -> "Homotopy":
        return cls(source, target, {})

    def component(self, i: int) -> Matrix:
        c = self.components.get(i)
        return Matrix.zeros(self.target.dim(i - 1), self.source.dim(i)) if c is None else c

    def degrees(self) -> list[int]:
        """The degrees ``i`` where component ``i`` has a nonzero end, in order."""
        return sorted(self.source.dims.keys() | {i + 1 for i in self.target.dims})

    def __eq__(self, other) -> bool:
        if type(other) is not Homotopy:
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __repr__(self) -> str:
        return f"Homotopy({self.source!r} -> {self.target!r})"

    def boundary_conjugate(self) -> ChainMap:
        """The chain map ``d o H + H o d`` induced by this homotopy."""
        src, tgt = self.source, self.target
        return ChainMap(
            src,
            tgt,
            {
                i: tgt.differential(i - 1) * self.component(i)
                + self.component(i + 1) * src.differential(i)
                for i in src.dims
                if tgt.dim(i)
            },
        )


def hstack(*parts: Matrix) -> Matrix:
    """The matrices side by side, which must have equal heights."""
    if not parts:
        raise ValueError("nothing to stack")
    height = parts[0].rows
    if any(p.rows != height for p in parts):
        raise ValueError("row counts differ")
    rows = [[x for p in parts for x in p.row(i)] for i in range(height)]
    return Matrix(rows, cols=sum(p.cols for p in parts))


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
    reduced, pivots = rref(hstack(a, b))
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


def regex_rational_parts(text) -> tuple[int, int]:
    """``(p, q)`` for the "p" or "p/q" string ``text``, read by ``_RATIONAL_RE``; else ValueError."""
    if not isinstance(text, str) or not _RATIONAL_RE.fullmatch(text):
        raise ValueError(f"malformed rational {text!r}: expected 'p' or 'p/q'")
    num, _, den = text.partition("/")
    if not den:
        return int(num), 1
    q = int(den)
    if q == 0:
        raise ValueError(f"malformed rational {text!r}: zero denominator")
    return int(num), q


def rank(m: Matrix) -> int:
    return len(linalg_rref(m)[1])


def kernel_basis(m: Matrix) -> Matrix:
    """Columns form a basis of the null space of ``m``.

    Free coordinates are set to 1 one at a time, in column order, so the
    basis is canonical given the pivoting convention: row ``j`` is a unit
    row for a free coordinate ``j``, and minus the free entries of the
    pivot row when ``j`` is a pivot column.
    """
    reduced, pivots = linalg_rref(m)
    free = [j for j in range(m.cols) if j not in pivots]
    pivot_row = {j: i for i, j in enumerate(pivots)}
    rows = [
        [int(j == k) for k in free] if j not in pivot_row
        else [-reduced[pivot_row[j], k] for k in free]
        for j in range(m.cols)
    ]
    return Matrix(rows, cols=len(free))


def det_and_inverse(m: Matrix) -> tuple[Fraction, Matrix | None]:
    """Determinant and, when it exists, the inverse: ``[m | I]`` reduces to ``[I | m^-1]``."""
    if not m.is_square:
        raise ValueError(f"determinant of non-square {m.rows}x{m.cols} matrix")
    n = m.rows
    reduced, pivots = linalg_rref(hstack(m, Matrix.identity(n)))
    if pivots[:n] != list(range(n)):
        return Fraction(0), None
    return det(m), reduced.submatrix(0, n, n, 2 * n)


def extend_to_basis(independent: Matrix, within: Matrix) -> Matrix:
    """Extend independent columns to a basis of ``within``'s column span.

    Candidate columns are drawn from ``within`` by a greedy scan in
    column order, so the completion is canonical: they are the pivot
    columns of ``[independent | within]`` past the first ones.  Raises
    ValueError if ``independent`` is not independent or leaves the span.
    """
    if independent.rows != within.rows:
        raise ValueError("ambient dimensions differ")
    k = independent.cols
    pivots = linalg_rref(hstack(independent, within))[1]
    if pivots[:k] != list(range(k)):
        raise ValueError("columns of `independent` are linearly dependent")
    if k and len(pivots) > rank(within):
        raise ValueError("`independent` does not lie in the span of `within`")
    return hstack(independent, within.take_columns(p - k for p in pivots[k:]))


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


def scan_coboundary(gpd: FiniteGroupoid, f: Cochain) -> Cochain:
    """Multiplicative coboundary, one degree up, in any degree.

    Degree 0 is the library's ``coboundary``.  In degree k >= 1 the value
    on ``(g_1, ..., g_{k+1})`` is the alternating product of ``f`` over the
    front face, the k merged-composite faces, and the back face.
    """
    k = f.degree
    if k == 0:
        return coboundary(gpd, f)
    values = {}
    for chain in scan_composable_tuples(gpd, k + 1):
        v = f(chain[1:])
        for i in range(1, k + 1):
            merged = chain[: i - 1] + (gpd.compose(chain[i - 1], chain[i]),) + chain[i + 1 :]
            v = v / f(merged) if i % 2 else v * f(merged)
        v = v * f(chain[:k]) if (k + 1) % 2 == 0 else v / f(chain[:k])
        values[chain] = v
    return Cochain(k + 1, values)


def class_equal(gpd: FiniteGroupoid, phi1: Cochain, phi2: Cochain) -> bool:
    """Whether two degree-1 cocycles differ by a coboundary; each is checked once."""
    for phi in (phi1, phi2):
        if not is_cocycle_1(gpd, phi):
            raise NotACocycle("input cochain is not a cocycle")
    return _solve_1(gpd, phi1 / phi2).is_coboundary  # a quotient of cocycles is one


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

    ordered_pairs = scan_composable_pairs(gpd)
    pairs = set(ordered_pairs)
    table = gpd.composition
    # table order, then pair order: neither depends on string hashes
    for g, h in table:
        if (g, h) not in pairs:
            problems.append(f"composition table defines non-composable pair ('{g}', '{h}')")
    for g, h in ordered_pairs:
        if (g, h) not in table:
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


def scan_isotropy_model(gpd: FiniteGroupoid):
    """``(tree, k, isotropy)``, or None, as ``groupoid._isotropy_model`` gives."""
    coordinates = scan_coordinates(gpd)
    if coordinates is None:
        return None
    _, k, _ = coordinates
    try:
        src, tgt, compose = gpd._src, gpd._tgt, gpd.composition
        if len(compose) != _pair_count(gpd):
            return None
        for (g, h), gh in compose.items():
            if (
                src[g] != tgt[h]
                or src[gh] != src[h]
                or tgt[gh] != tgt[g]
                or k[gh] != compose[k[g], k[h]]
            ):
                return None
    except KeyError:
        return None
    return coordinates


def scan_coordinates(gpd: FiniteGroupoid):
    """The trees, coordinates and isotropy loops of :func:`scan_isotropy_model`,
    before any check of the table: None when some ``k(a)`` cannot be read
    or is no loop at its base."""
    try:
        tree: dict[str, str] = {}
        base: dict[str, str] = {}
        for component in _components(gpd):
            b = component[0]
            base.update((x, b) for x in component)
            tree[b] = gpd.unit(b)
        for a, s, t in gpd.arrows:
            if s == base[s] and t not in tree:
                tree[t] = a
        k = {
            a: gpd.compose(gpd.compose(gpd.inv(tree[t]), a), tree[s])
            for a, s, t in gpd.arrows
        }
        isotropy: dict[str, list[str]] = {b: [] for b in tree if base[b] == b}
        for a, s, t in gpd.arrows:
            b = base[s]
            if gpd.src(k[a]) != b or gpd.tgt(k[a]) != b:
                return None
            if s == t == b:
                isotropy[b].append(a)
    except KeyError:
        return None
    return tree, k, isotropy


def scan_compose_table(compose: list, arrow_ids: Mapping[str, str]) -> tuple[dict, list[str]]:
    """The composition and the problems ``schema`` reads off a compose table.

    ``arrow_ids`` maps each arrow id to the arrow's own string.
    """
    problems: list[str] = []
    composition, malformed = {}, 0
    canonical = arrow_ids.get
    for entry in compose:
        if not (
            isinstance(entry, list)
            and len(entry) == 3
            and isinstance(entry[0], str)
            and isinstance(entry[1], str)
            and isinstance(entry[2], str)
        ):
            problems.append(f"compose table: entry {entry!r} is not a [g, h, gh] triple")
            malformed += 1
            continue
        g, h, gh = entry
        cg, ch, cgh = canonical(g), canonical(h), canonical(gh)
        if cg is None or ch is None or cgh is None:
            for side in (g, h, gh):
                if side not in arrow_ids:
                    problems.append(f"compose table: unknown arrow '{side}'")
        composition[cg or g, ch or h] = cgh or gh
    if len(composition) < len(compose) - malformed:
        listed = Counter(
            (e[0], e[1])
            for e in compose
            if isinstance(e, list) and len(e) == 3 and all(isinstance(v, str) for v in e)
        )
        for (g, h), count in listed.items():
            if count > 1:
                problems.append(f"compose table: pair ('{g}', '{h}') is listed more than once")
    return composition, problems


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
    return per_arrow_vector_rep(r)[0]


def per_arrow_vector_rep(r: VectorRep) -> tuple[list[str], dict[str, Fraction]]:
    """Problems, and the determinant of each square action in arrow order."""
    report = ValidationReport()
    dets = {}
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
        elif m.is_square:
            dets[a] = det(m)
            if dets[a] == 0:
                report.add(f"action of arrow '{a}' is singular")
    if not report.ok:
        return report.problems, dets
    for x in gpd.objects:
        if not r(gpd.unit(x)).is_identity():
            report.add(f"unit of object '{x}' does not act by the identity")
    for g, h in gpd.composable_pairs():
        if r(g) * r(h) != r(gpd.compose(g, h)):
            report.add(f"functoriality fails on ('{g}', '{h}')")
    return report.problems, dets


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


def class_berezinian_by_degree(
    blocks: Mapping[int, Matrix], source_dec: Decomposition, target_dec: Decomposition,
    sigma_source, sigma_target,
) -> Fraction:
    """``prod_i (det(H^i) basis_det_y^i / basis_det_x^i)^(-1)^i * sigma_x / sigma_y``.

    ``blocks`` has every degree of both fibers.  Raises
    NotHomotopyEquivalence for the first block that is not invertible,
    then TypeError for a float scale and ValueError for a zero one.
    """
    dets = {i: det(h) if h.is_square else 0 for i, h in blocks.items()}
    for i, d in dets.items():
        if d == 0:
            raise NotHomotopyEquivalence(f"harmonic block at degree {i} is not invertible")
    if isinstance(sigma_source, float) or isinstance(sigma_target, float):
        raise TypeError("trivialization scales must be exact rationals")
    sigma_source, sigma_target = Fraction(sigma_source), Fraction(sigma_target)
    if sigma_source == 0 or sigma_target == 0:
        raise ValueError("trivialization scales must be nonzero")
    value = Fraction(1)
    for i, d in dets.items():
        tau = Fraction(target_dec.basis_det.get(i, 1)) / source_dec.basis_det.get(i, 1)
        factor = d * tau
        value = value * factor if i % 2 == 0 else value / factor
    return value * sigma_source / sigma_target


def per_arrow_ber_rep(r: RepUpToWeakHomotopy, sigma: Trivialization | None = None) -> LineRep:
    """Each arrow's Berezinian class on fresh decompositions, re-checked for functoriality."""
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
        ends = decs[s_obj], decs[t_obj]
        action[a] = class_berezinian_by_degree(
            harmonic_blocks(t, *ends), *ends, sigma(s_obj), sigma(t_obj)
        )
    rep = LineRep(gpd, action)
    check = verify_line_rep(rep)
    if not check.ok:
        raise ValueError(
            "induced Berezinian action is not functorial, so the input does"
            f" not satisfy the weak homotopy laws: {check.problems[0]}"
        )
    return rep


def tensor(r1: LineRep, r2: LineRep) -> LineRep:
    """Tensor product of line representations: actions multiply."""
    if r1.groupoid != r2.groupoid:
        raise ValueError("tensor factors live over different groupoids")
    return LineRep(r1.groupoid, {a: r1(a) * r2(a) for a in r1.groupoid.arrow_ids()})


def regular_factorization_check(
    r: RepUpToWeakHomotopy, sigma: Trivialization | None = None
) -> bool:
    """Compare the modular cocycle with its cohomology factorization.

    The Berezinian cocycle of the whole representation should be
    cohomologous to the alternating product, over degrees, of the
    determinant cocycles of the induced cohomology representations, each
    arrow acting in degree ``i`` by its harmonic block.  Both are read off
    one ``verify_ruth`` report, so an invalid ``r`` raises as
    ``RuthReport.berezinian_rep`` does.
    """
    gpd = r.groupoid
    report = verify_ruth(r)
    total = characteristic_function(report.berezinian_rep(sigma))
    product = Cochain.constant(1, [(a,) for a in gpd.arrow_ids()])
    for i in sorted({i for blocks in report.blocks.values() for i in blocks}):
        dets = {a: det(b[i]) if i in b else 1 for a, b in report.blocks.items()}
        phi_i = characteristic_function(LineRep(gpd, dets))
        product = product * phi_i if i % 2 == 0 else product / phi_i
    return class_equal(gpd, total, product)


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


@dataclass(frozen=True)
class DenseDecomposition(Decomposition):
    """A decomposition given by its dense bases and their inverses.

    It keeps no factors (``splits`` is None), so only what reads the
    bases takes it: ``harmonic_blocks``, ``tau`` and the references here.
    """

    basis: Mapping[int, Matrix]
    basis_inv: Mapping[int, Matrix]

    def basis_at(self, i: int) -> Matrix:
        m = self.basis.get(i)
        return Matrix.identity(self.fiber.dim(i)) if m is None else m

    def basis_inv_at(self, i: int) -> Matrix:
        m = self.basis_inv.get(i)
        return Matrix.identity(self.fiber.dim(i)) if m is None else m


def dense_split_degree(
    boundary: Matrix, reduced: Matrix, pivots: list[int]
) -> tuple[Matrix, Matrix, Fraction, list[int]] | None:
    """A degree's basis ``[B | H | L]``, its inverse, determinant and harmonic
    coordinates, by one elimination of ``[B_F | I]``.

    ``reduced`` and ``pivots`` are the rref of the outgoing differential,
    whose kernel has the canonical basis ``K``: row ``j`` of ``K`` is a
    unit row on the free coordinates when ``j`` is free, and minus the
    free entries of ``reduced``'s row at ``j`` when ``j`` is a pivot.
    ``boundary`` is ``B``, independent columns as tall as ``reduced`` is
    wide.  None when ``B`` leaves that kernel, that is when the top rows
    of ``reduced`` do not annihilate it.  ``K`` is the identity on the
    free rows ``F``, so ``[B | K] = K [B_F | I]`` and one elimination of
    ``[B_F | I]``, over ``B``'s denominator, does all the work.  Its
    pivots past ``B`` pick the columns ``S`` of ``K`` that make ``H``, the
    greedy left-to-right completion of ``B`` to a basis of the kernel.  It
    reduces to ``[* | C^-1]`` for ``C = [B_F | E_S]``, the free rows of
    ``[B | H]``, and its last pivot gives ``det C``; with ``B`` empty,
    ``C = I`` and nothing is eliminated.  ``L`` is the unit columns at the
    pivots, so the inverse is ``C^-1`` on the free columns over the top
    rows of ``reduced``, and putting the rows in the order ``F`` then
    ``pivots`` makes the basis block lower-triangular: its determinant is
    ``det C``, signed by that reordering.  This is the dense split that
    ``decompose`` made before it kept the factors of each degree.
    """
    n, b, height = reduced.cols, boundary.cols, len(pivots)
    top, top_den = reduced._num[:height], reduced._den
    bnum, bden = boundary._num, boundary._den
    if any(sum(map(mul, r, c)) for r in top for c in zip(*bnum)):
        return None
    pivot_row = dict(zip(pivots, range(height)))
    free = [j for j in range(n) if j not in pivot_row]
    f = len(free)
    unit = (0,) * f
    c_num = tuple(bnum[j] + unit[:k] + (bden,) + unit[k + 1:] for k, j in enumerate(free))
    if b:  # [B_F | I] need not be in lowest terms: only `_eliminate` reads it
        eliminated, p, chosen, det_c = _eliminate(Matrix._from_ints(c_num, bden, b + f), b + f)
        harmonic = [free[q - b] for q in chosen[b:]]
    else:  # C = I: every kernel column is harmonic
        eliminated, p, harmonic, det_c = c_num, 1, free, Fraction(1)
    d = lcm(p, top_den)
    u, v = d // p, d // top_den
    inv_num = []
    for row in eliminated:
        r = [0] * n
        for k, j in enumerate(free):
            r[j] = row[b + k] * u
        inv_num.append(r)
    inv_num.extend([x * v for x in row] for row in top)
    inverse = Matrix._lowest(inv_num, d, n)
    d = lcm(bden, top_den)
    u, v = d // bden, d // top_den
    zeros = (0,) * height
    basis_num = []
    for j in range(n):
        r = pivot_row.get(j)
        if r is None:  # a free row: B, then a unit entry where H is K's column j
            tail = tuple(d if h == j else 0 for h in harmonic) + zeros
        else:  # a pivot row: B, then minus reduced's row at H, then a unit entry at L
            row = top[r]
            tail = tuple(-row[h] * v for h in harmonic) + zeros[:r] + (d,) + zeros[r + 1:]
        basis_num.append(tuple(x * u for x in bnum[j]) + tail)
    basis = Matrix._lowest(basis_num, d, n)
    swaps = sum(j - k for k, j in enumerate(free))  # pairs of a pivot before a free column
    return basis, inverse, -det_c if swaps % 2 else det_c, list(harmonic)


def dense_decompose(c: ComplexFiber) -> tuple[DenseDecomposition, dict[int, list[int]]]:
    """``decompose`` by :func:`dense_split_degree` in every nonzero degree, and
    the harmonic coordinates of each; ValueError as ``decompose`` raises it."""
    reduced = {i: linalg_rref(c.differential(i)) for i in c.dims}
    basis, basis_inv, boundary_dims, harmonic_dims, basis_det, harmonic = {}, {}, {}, {}, {}, {}
    for i, (outgoing, pivots) in reduced.items():
        incoming = reduced[i - 1][1] if i - 1 in reduced else ()
        boundary = c.differential(i - 1).take_columns(incoming)
        split = dense_split_degree(boundary, outgoing, pivots)
        if split is None:
            raise ValueError(f"degree {i} does not split; complex is invalid")
        basis[i], basis_inv[i], basis_det[i], harmonic[i] = split
        boundary_dims[i] = boundary.cols
        harmonic_dims[i] = len(harmonic[i])
    dec = DenseDecomposition(c, None, boundary_dims, harmonic_dims, basis_det, basis, basis_inv)
    return dec, harmonic


def permuted_decomposition(
    c: ComplexFiber, perms: Mapping[int, Sequence[int]]
) -> DenseDecomposition:
    """A valid decomposition of ``c`` that makes other greedy choices.

    ``perms[i]`` relabels degree ``i``: ``P_i`` has a 1 at ``(perms[i][j], j)``
    (the identity where ``perms`` has no entry).  The relabelled complex
    ``P_{i+1}^T d^i P_i`` is decomposed canonically, and each basis is
    pulled back as ``P_i B'_i``.
    """

    def relabelling(i: int) -> Matrix:
        n = c.dim(i)
        perm = list(perms.get(i, range(n)))
        if sorted(perm) != list(range(n)):
            raise ValueError(f"not a permutation of degree {i} coordinates")
        return Matrix([[int(perm[j] == r) for j in range(n)] for r in range(n)], cols=n)

    p = {i: relabelling(i) for i in range(c.d_min, c.d_max + 2)}
    relabelled = ComplexFiber(
        c.d_min,
        c.d_max,
        c.dims,
        {i: p[i + 1].transpose() * c.differential(i) * p[i] for i in c.degrees()},
    )
    dec = decompose(relabelled)
    basis = {i: p[i] * dec.basis_at(i) for i in c.degrees()}
    basis_det, basis_inv = {}, {}
    for i, b in basis.items():
        basis_det[i], basis_inv[i] = det_and_inverse(b)
    return DenseDecomposition(
        c, None, dec.boundary_dims, dec.harmonic_dims, basis_det, basis, basis_inv
    )


def decompose_by_inverse(c: ComplexFiber) -> DenseDecomposition:
    """``decompose`` by a general elimination per degree for each of its steps.

    The harmonic columns are the pivot columns of ``[B | K]`` past ``B``
    (``K`` the canonical kernel basis, ``B`` the pivot columns of the
    incoming differential); the lift is the unit columns at the pivots of
    the outgoing one; and ``[B | H | L]`` is inverted through ``[basis | I]``.
    Pivots come from this module's ``Fraction`` ``rref``.
    """
    diffs = {i: c.differential(i) for i in range(c.d_min - 1, c.d_max + 1)}
    pivot_cols = {i: rref(d)[1] for i, d in diffs.items()}
    basis, basis_inv, boundary_dims, harmonic_dims, basis_det = {}, {}, {}, {}, {}
    for i in c.degrees():
        n = c.dim(i)
        boundary = diffs[i - 1].take_columns(pivot_cols[i - 1])
        kernel = kernel_basis(diffs[i])
        if boundary.rows != kernel.rows:
            raise ValueError("ambient dimensions differ")
        b = boundary.cols
        chosen = rref(hstack(boundary, kernel))[1]
        if chosen[:b] != list(range(b)):
            raise ValueError("columns of `independent` are linearly dependent")
        kernel_full = hstack(boundary, kernel.take_columns(q - b for q in chosen[b:]))
        full = hstack(kernel_full, Matrix.identity(n).take_columns(pivot_cols[i]))
        if full.cols != n:
            raise ValueError(f"degree {i} does not split; complex is invalid")
        d, inv = det_and_inverse(full)
        if inv is None:
            raise ValueError(f"degree {i} basis is singular; complex is invalid")
        basis[i], basis_inv[i], basis_det[i] = full, inv, d
        boundary_dims[i] = b
        harmonic_dims[i] = kernel_full.cols - b
    boundary_dims[c.d_max + 1] = len(pivot_cols[c.d_max])
    return DenseDecomposition(
        c, None, boundary_dims, harmonic_dims, basis_det, basis, basis_inv
    )


def _columns(dec: Decomposition, i: int, k: int) -> Matrix:
    """Column group ``k`` (0 boundary, 1 harmonic, 2 lift) of ``dec``'s basis in degree ``i``."""
    lo, hi = dec.edges(i)[k : k + 2]
    return dec.basis_at(i).take_columns(range(lo, hi))


def _rows(dec: Decomposition, i: int, k: int) -> Matrix:
    """Row group ``k`` of ``dec``'s basis inverse in degree ``i``: the coordinates along it."""
    lo, hi = dec.edges(i)[k : k + 2]
    return dec.basis_inv_at(i).submatrix(lo, hi, 0, dec.fiber.dim(i))


def contraction(dec: Decomposition, i: int) -> Matrix:
    """``h^i`` from degree ``i`` to ``i-1``: boundary block onto lift block by the identity."""
    return _columns(dec, i - 1, 2) * _rows(dec, i, 0)


def harmonic_projector(dec: Decomposition, i: int) -> Matrix:
    """Projection of degree ``i`` onto its harmonic block along the other two."""
    return _columns(dec, i, 1) * _rows(dec, i, 1)


def contraction_homotopy(
    t: ChainMap, source_dec: Decomposition, target_dec: Decomposition
) -> Homotopy:
    """``H^i = h_T^i t^i + p_T^{i-1} t^{i-1} h_S^i``, in standard coordinates."""
    src, tgt = t.source, t.target
    comps = {}
    for i in t.degrees():
        if tgt.dim(i - 1) and src.dim(i):
            along_target = contraction(target_dec, i) * t.component(i)
            projected = harmonic_projector(target_dec, i - 1) * t.component(i - 1)
            comps[i] = along_target + projected * contraction(source_dec, i)
    return Homotopy(src, tgt, comps)


def homotopy_between(f: ChainMap, g: ChainMap) -> Homotopy | None:
    """A homotopy ``H`` with ``f - g = d H + H d``, or None.

    ``H`` is the contraction of ``f - g`` on the canonical decompositions
    of its ends, kept only when it witnesses the difference: it does
    exactly when ``f - g`` is a chain map with zero harmonic blocks.
    ``f`` and ``g`` must share source and target, and these must be
    complexes.
    """
    t = f - g
    h = contraction_homotopy(t, decompose(t.source), decompose(t.target))
    return h if h.boundary_conjugate() == t else None


def conjugate_replacement(f: ChainMap) -> ChainMap:
    """``f + d H + H d`` with ``H^i = L_T^{i-1} (I - B^i) coordB_S^i``.

    ``B^i = coordB_T^i f^i B_S^i`` is ``f``'s boundary block.  ``f`` must
    be a homotopy equivalence between complexes of equal graded
    dimension; a replacement with a singular component raises ValueError.
    """
    source_dec, target_dec = decompose(f.source), decompose(f.target)
    comps = {}
    for i in f.degrees():
        boundary = _rows(target_dec, i, 0) * f.component(i) * _columns(source_dec, i, 0)
        if boundary.rows:
            phi = Matrix.identity(boundary.rows) - boundary
            comps[i] = _columns(target_dec, i - 1, 2) * phi * _rows(source_dec, i, 0)
    homotopy = Homotopy(f.source, f.target, comps)
    g = f + homotopy.boundary_conjugate()
    if not g.is_invertible():
        raise ValueError("replacement failed to be invertible")
    return g


def _trace(m: Matrix) -> Fraction:
    return sum((m[i, i] for i in range(m.rows)), Fraction(0))


def loop_characters(rep: RepUpToWeakHomotopy | VectorRep) -> dict[str, int]:
    """``chi(l)``, +1 or -1, for each loop ``l`` (an arrow from an object to
    itself) of a lawful homotopy or vector representation, in arrow order.

    On a loop the bases' and trivializations' factors of the Berezinian
    cancel, so the cocycle is ``chi(l) = prod_i det H^i(l)^((-1)^i)``, and a
    rational matrix of finite order has determinant ``(-1)^(multiplicity of
    the eigenvalue -1)``.  By the Hopf trace formula the Lefschetz number
    ``L(t) = sum_i (-1)^i tr t^i`` equals ``sum_i (-1)^i tr H^i(t)``, and as
    ``H(t_{l^k}) = H(t_l)^k``, ``k -> L(t_{l^k})`` is the character of the
    virtual representation ``sum_i (-1)^i H^i`` of the cyclic group ``<l>``
    of order ``m``.  So ``chi(l) = 1`` for odd ``m``, and for even ``m``
    ``chi(l) = (-1)^n`` with ``n = (1/m) sum_k (-1)^k L(t_{l^k})``, the
    multiplicity of the sign character, an integer.  A vector
    representation is its own complex in degree 0.
    """
    gpd = rep.groupoid

    def lefschetz(a: str) -> Fraction:
        t = rep(a)
        if isinstance(t, Matrix):
            return _trace(t)
        traces = {i: _trace(t.component(i)) for i in t.source.dims}
        return sum((-x if i % 2 else x for i, x in traces.items()), Fraction(0))

    characters = {}
    for a, s, t in gpd.arrows:
        if s != t:
            continue
        unit, powers = gpd.unit(s), [gpd.unit(s)]
        while (power := gpd.compose(a, powers[-1])) != unit:
            powers.append(power)
        m = len(powers)
        if m % 2:  # -1 is no eigenvalue of a matrix of odd order
            characters[a] = 1
            continue
        n = sum(lefschetz(p) * (-1 if k % 2 else 1) for k, p in enumerate(powers)) / m
        if n.denominator != 1:
            raise ValueError(f"loop '{a}': the multiplicity {n} is no integer")
        characters[a] = -1 if n % 2 else 1
    return characters
