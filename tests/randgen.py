"""Seeded random generators shared by the unit and acceptance tests.

Everything takes an explicit ``random.Random`` so test runs are
reproducible.  Groupoid fixtures carry their multiplicative characters
so that line representations with nontrivial classes can be built
without poking at arrow-name internals elsewhere.

``run_modclass_cli`` is the one way the tests start the command-line
front end as a child process.
"""

from __future__ import annotations

import os
import pathlib
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

import modclass
from modclass import (
    ChainMap,
    ComplexFiber,
    FiniteGroupoid,
    LineRep,
    Matrix,
    RepUpToWeakHomotopy,
    Trivialization,
    VectorRep,
    action_groupoid,
    connected_groupoid,
    cyclic_groupoid,
    disjoint_union,
    pair_groupoid,
    GroupTable,
)
from oracle import Homotopy, det_and_inverse, kernel_basis, scan_composable_tuples


def rand_rational(rng: random.Random, nonzero: bool = False) -> Fraction:
    while True:
        v = Fraction(rng.randint(-3, 3), rng.choice((1, 1, 2)))
        if v != 0 or not nonzero:
            return v


def rand_matrix(rng: random.Random, rows: int, cols: int) -> Matrix:
    return Matrix(
        [[rand_rational(rng) for _ in range(cols)] for _ in range(rows)], cols=cols
    )


def rand_invertible_matrix(rng: random.Random, n: int) -> Matrix:
    while True:
        m = rand_matrix(rng, n, n)
        if det_and_inverse(m)[0] != 0:
            return m


# ---------------------------------------------------------------------------
# Complexes and chain maps


def rand_complex(
    rng: random.Random, d_min: int = 0, d_max: int = 3, max_dim: int = 4
) -> ComplexFiber:
    """A random valid bounded complex; differentials built to square to zero."""
    hi = rng.randint(d_min, d_max)
    lo = rng.randint(d_min, hi)
    dims = {i: rng.randint(0, max_dim) for i in range(lo, hi + 1)}
    diffs: dict[int, Matrix] = {}
    prev: Matrix | None = None
    for i in range(lo, hi):
        rows, cols = dims.get(i + 1, 0), dims.get(i, 0)
        if prev is None or prev.cols == 0:
            d = rand_matrix(rng, rows, cols)
        else:
            # each row must annihilate the image of the previous differential
            k = kernel_basis(prev.transpose())
            d = rand_matrix(rng, rows, k.cols) * k.transpose()
        diffs[i] = d
        prev = d
    return ComplexFiber(lo, hi, dims, diffs)


def conjugated_complex(
    rng: random.Random, c: ComplexFiber
) -> tuple[ComplexFiber, ChainMap]:
    """A change-of-basis copy of ``c`` plus the invertible chain map onto it."""
    q = {i: rand_invertible_matrix(rng, c.dim(i)) for i in c.degrees()}
    q_inv = {i: det_and_inverse(q[i])[1] for i in c.degrees()}
    diffs = {
        i: q[i + 1] * c.differential(i) * q_inv[i]
        for i in range(c.d_min, c.d_max)
    }
    other = ComplexFiber(c.d_min, c.d_max, dict(c.dims), diffs)
    return other, ChainMap(c, other, q)


def _chain_map_space(src: ComplexFiber, tgt: ComplexFiber):
    lo = min(src.d_min, tgt.d_min)
    hi = max(src.d_max, tgt.d_max)
    shapes: dict[int, tuple[int, int]] = {}
    offsets: dict[int, int] = {}
    total = 0
    for i in range(lo, hi + 1):
        r, c = tgt.dim(i), src.dim(i)
        if r and c:
            shapes[i] = (r, c)
            offsets[i] = total
            total += r * c
    rows = []
    for i in range(lo, hi + 1):
        m, n = tgt.dim(i + 1), src.dim(i)
        if m == 0 or n == 0:
            continue
        dt = tgt.differential(i)
        ds = src.differential(i)
        for r in range(m):
            for c in range(n):
                coeff = [Fraction(0)] * total
                if i in shapes:
                    hr, hc = shapes[i]
                    for k in range(hr):
                        if dt[r, k]:
                            coeff[offsets[i] + k * hc + c] += dt[r, k]
                if i + 1 in shapes:
                    hr, hc = shapes[i + 1]
                    for k in range(hc):
                        if ds[k, c]:
                            coeff[offsets[i + 1] + r * hc + k] -= ds[k, c]
                rows.append(coeff)
    a = Matrix(rows, cols=total) if rows else Matrix.zeros(0, total)
    return shapes, offsets, total, kernel_basis(a)


def rand_chain_map(rng: random.Random, src: ComplexFiber, tgt: ComplexFiber) -> ChainMap:
    """A uniform-ish random element of the space of chain maps."""
    shapes, offsets, total, basis = _chain_map_space(src, tgt)
    coeff = rand_matrix(rng, basis.cols, 1)
    vec = basis * coeff if basis.cols else Matrix.zeros(total, 1)
    comps = {}
    for i, (r, c) in shapes.items():
        off = offsets[i]
        comps[i] = Matrix(
            [[vec[off + a * c + b, 0] for b in range(c)] for a in range(r)], cols=c
        )
    return ChainMap(src, tgt, comps)


def rand_invertible_endo(rng: random.Random, c: ComplexFiber) -> ChainMap:
    for _ in range(80):
        f = rand_chain_map(rng, c, c)
        if f.is_invertible():
            return f
    return ChainMap.identity(c)


def rand_homotopy(rng: random.Random, src: ComplexFiber, tgt: ComplexFiber) -> Homotopy:
    comps = {}
    for i in range(min(src.d_min, tgt.d_min), max(src.d_max, tgt.d_max) + 2):
        r, c = tgt.dim(i - 1), src.dim(i)
        if r and c:
            comps[i] = rand_matrix(rng, r, c)
    return Homotopy(src, tgt, comps)


def rand_homotopy_equivalence(
    rng: random.Random, src: ComplexFiber, tgt: ComplexFiber, base: ChainMap
) -> ChainMap:
    """An invertible base twisted by a random homotopy; possibly degenerate."""
    return base + rand_homotopy(rng, src, tgt).boundary_conjugate()


# ---------------------------------------------------------------------------
# Groupoids, line reps, vector reps


@dataclass
class GroupoidFixture:
    name: str
    gpd: FiniteGroupoid
    characters: list[dict[str, Fraction]]  # always contains the trivial one


def _trivial_character(gpd: FiniteGroupoid) -> dict[str, Fraction]:
    return {a: Fraction(1) for a in gpd.arrow_ids()}


def z2_fixture() -> GroupoidFixture:
    gpd = cyclic_groupoid(2)
    sign = {a: Fraction(-1 if a.startswith("r1") else 1) for a in gpd.arrow_ids()}
    return GroupoidFixture("Z2", gpd, [_trivial_character(gpd), sign])


def z3_fixture() -> GroupoidFixture:
    gpd = cyclic_groupoid(3)
    return GroupoidFixture("Z3", gpd, [_trivial_character(gpd)])


def pair2_fixture() -> GroupoidFixture:
    gpd = pair_groupoid(["x", "y"])
    return GroupoidFixture("PAIR2", gpd, [_trivial_character(gpd)])


def _perm_parity(p: tuple[int, ...]) -> int:
    swaps = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return -1 if swaps % 2 else 1


def s3_action_fixture() -> GroupoidFixture:
    gpd = action_groupoid(permutations(range(3)), 3)
    sign = {}
    for a in gpd.arrow_ids():
        digits = a[1 : a.index("@")]
        sign[a] = Fraction(_perm_parity(tuple(int(d) for d in digits)))
    return GroupoidFixture("S3action", gpd, [_trivial_character(gpd), sign])


def standard_fixtures() -> list[GroupoidFixture]:
    return [z2_fixture(), z3_fixture(), pair2_fixture(), s3_action_fixture()]


def rand_groupoid(rng: random.Random, max_arrows: int = 20) -> FiniteGroupoid:
    """A disjoint union of connected pieces with at most ``max_arrows`` arrows."""
    pieces = []
    arrows = 0
    menu = [
        lambda: cyclic_groupoid(1),
        lambda: cyclic_groupoid(2),
        lambda: cyclic_groupoid(3),
        lambda: pair_groupoid(["a", "b"]),
        lambda: pair_groupoid(["a", "b", "c"]),
        lambda: connected_groupoid(["u", "v"], GroupTable.cyclic(2)),
    ]
    while True:
        piece = rng.choice(menu)()
        if arrows + len(piece.arrows) > max_arrows:
            break
        pieces.append(piece)
        arrows += len(piece.arrows)
        if not pieces or rng.random() < 0.4:
            continue
        break
    if not pieces:
        pieces = [cyclic_groupoid(1)]
    return disjoint_union(*pieces) if len(pieces) > 1 else pieces[0]


def nonassociative_loop() -> FiniteGroupoid:
    """A one-object table of order 5 that passes every law but associativity.

    Arrow ``"0"`` is the unit and every arrow is its own inverse, which no
    group of order 5 allows: ``(1 * 2) * 2 = 4`` but ``1 * (2 * 2) = 1``.
    """
    rows = ["01234", "10342", "24013", "32401", "43120"]
    ids = [str(i) for i in range(5)]
    return FiniteGroupoid(
        objects=["*"],
        arrows=[(a, "*", "*") for a in ids],
        identity={"*": "0"},
        inverse={a: a for a in ids},
        composition={(g, h): rows[int(g)][int(h)] for g in ids for h in ids},
    )


def rand_potential(rng: random.Random, gpd: FiniteGroupoid) -> dict[str, Fraction]:
    return {x: rand_rational(rng, nonzero=True) for x in gpd.objects}


def rand_cochain(rng: random.Random, gpd: FiniteGroupoid, degree: int):
    from modclass import Cochain

    keys = scan_composable_tuples(gpd, degree)
    return Cochain(degree, {k: rand_rational(rng, nonzero=True) for k in keys})


def rand_cocycle(rng: random.Random, fx: GroupoidFixture) -> dict[str, Fraction]:
    """A character twisted by a coboundary; covers every class of the fixture."""
    char = rng.choice(fx.characters)
    f = rand_potential(rng, fx.gpd)
    gpd = fx.gpd
    return {
        a: char[a] * f[gpd.src(a)] / f[gpd.tgt(a)] for a in gpd.arrow_ids()
    }


def rand_line_rep(rng: random.Random, fx: GroupoidFixture) -> LineRep:
    return LineRep(fx.gpd, rand_cocycle(rng, fx))


def rand_trivialization(rng: random.Random, gpd: FiniteGroupoid) -> Trivialization:
    return Trivialization(rand_potential(rng, gpd))


def rand_vector_rep(rng: random.Random, fx: GroupoidFixture, dim: int = 2) -> VectorRep:
    """Conjugation-and-character strict representation of constant rank."""
    gpd = fx.gpd
    char = rng.choice(fx.characters)
    frames = {x: rand_invertible_matrix(rng, dim) for x in gpd.objects}
    frames_inv = {x: det_and_inverse(frames[x])[1] for x in gpd.objects}
    action = {
        a: frames[gpd.tgt(a)].scale(char[a]) * frames_inv[gpd.src(a)]
        for a in gpd.arrow_ids()
    }
    return VectorRep(gpd, {x: dim for x in gpd.objects}, action)


# ---------------------------------------------------------------------------
# Representations up to weak homotopy
#
# The base fiber is the same complex at every object: a "cohomology part"
# with zero differentials (dims h_i per degree) plus acyclic two-term pads,
# one coordinate each, glued by an identity differential.  Degree-d
# coordinates are ordered [harmonic | pad starts at d | pad ends at d].
# A base action is strict: per-degree conjugation reps on the harmonic
# part and one scalar per pad (shared by its two legs; arbitrary values,
# zero included, stay valid because a multiple of the identity on an
# acyclic pad is null-homotopic).  Random per-arrow homotopy twists then
# produce genuinely non-strict representations.


@dataclass
class RuthSpec:
    harmonic_dims: dict[int, int]
    pads: list[int]  # pad p occupies degrees (pads[p], pads[p] + 1)

    def degree_range(self) -> tuple[int, int]:
        degrees = set(self.harmonic_dims) | {d for p in self.pads for d in (p, p + 1)}
        return min(degrees), max(degrees)

    def layout(self, d: int) -> tuple[int, list[int], list[int]]:
        """(harmonic dim, pads starting at d, pads ending at d)."""
        starts = [p for p, pd in enumerate(self.pads) if pd == d]
        ends = [p for p, pd in enumerate(self.pads) if pd + 1 == d]
        return self.harmonic_dims.get(d, 0), starts, ends

    def dim(self, d: int) -> int:
        h, starts, ends = self.layout(d)
        return h + len(starts) + len(ends)

    def fiber(self) -> ComplexFiber:
        lo, hi = self.degree_range()
        dims = {d: self.dim(d) for d in range(lo, hi + 1)}
        diffs = {}
        for d in range(lo, hi):
            m = [[Fraction(0)] * self.dim(d) for _ in range(self.dim(d + 1))]
            h, starts, _ = self.layout(d)
            h_next, starts_next, ends_next = self.layout(d + 1)
            for col_idx, pad in enumerate(starts):
                row_idx = h_next + len(starts_next) + ends_next.index(pad)
                m[row_idx][h + col_idx] = Fraction(1)
            diffs[d] = Matrix(m, cols=self.dim(d))
        return ComplexFiber(lo, hi, dims, diffs)


def rand_ruth_spec(rng: random.Random, max_degree: int = 3) -> RuthSpec:
    hi = rng.randint(0, max_degree - 1)
    harmonic = {d: rng.randint(0, 2) for d in range(0, hi + 1)}
    if not any(harmonic.values()):
        harmonic[rng.randint(0, hi)] = 1
    pads = [rng.randint(0, hi) for _ in range(rng.randint(0, 2))]
    return RuthSpec(harmonic, pads)


def _assemble_component(
    spec: RuthSpec, d: int, harmonic_block: Matrix, pad_scalars: list[Fraction]
) -> Matrix:
    h, starts, ends = spec.layout(d)
    n = spec.dim(d)
    m = [[Fraction(0)] * n for _ in range(n)]
    for r in range(h):
        for c in range(h):
            m[r][c] = harmonic_block[r, c]
    for offset, pad in enumerate(starts):
        m[h + offset][h + offset] = pad_scalars[pad]
    base = h + len(starts)
    for offset, pad in enumerate(ends):
        m[base + offset][base + offset] = pad_scalars[pad]
    return Matrix(m, cols=n)


def rand_ruth(
    rng: random.Random,
    fx: GroupoidFixture,
    spec: RuthSpec | None = None,
    twist: bool = True,
    degenerate_pads: bool = True,
    unimodular: bool = False,
) -> RepUpToWeakHomotopy:
    """A valid-by-construction representation up to weak homotopy.

    With ``unimodular`` the harmonic actions are coboundary scalars and
    pad scalars stay nonzero, so the modular class is trivial.
    """
    gpd = fx.gpd
    spec = spec or rand_ruth_spec(rng)
    fiber = spec.fiber()
    fibers = {x: fiber for x in gpd.objects}
    lo, hi = spec.degree_range()

    # per-degree strict actions on the harmonic part
    harmonic_actions: dict[int, dict[str, Matrix]] = {}
    for d in range(lo, hi + 1):
        h = spec.harmonic_dims.get(d, 0)
        if unimodular:
            f = rand_potential(rng, gpd)
            blocks = {
                a: Matrix.identity(h).scale(f[gpd.src(a)] / f[gpd.tgt(a)])
                for a in gpd.arrow_ids()
            }
        else:
            char = rng.choice(fx.characters)
            frames = {x: rand_invertible_matrix(rng, h) for x in gpd.objects}
            frames_inv = {x: det_and_inverse(frames[x])[1] for x in gpd.objects}
            blocks = {
                a: frames[gpd.tgt(a)].scale(char[a]) * frames_inv[gpd.src(a)]
                for a in gpd.arrow_ids()
            }
        harmonic_actions[d] = blocks

    units = {gpd.unit(x) for x in gpd.objects}
    pad_scalars: dict[str, list[Fraction]] = {}
    for a in gpd.arrow_ids():
        if a in units:
            pad_scalars[a] = [Fraction(1)] * len(spec.pads)
        elif degenerate_pads and not unimodular:
            pad_scalars[a] = [
                rng.choice((Fraction(0), rand_rational(rng, nonzero=True)))
                for _ in spec.pads
            ]
        else:
            pad_scalars[a] = [rand_rational(rng, nonzero=True) for _ in spec.pads]

    action = {}
    for a in gpd.arrow_ids():
        comps = {
            d: _assemble_component(spec, d, harmonic_actions[d][a], pad_scalars[a])
            for d in range(lo, hi + 1)
        }
        action[a] = ChainMap(fibers[gpd.src(a)], fibers[gpd.tgt(a)], comps)

    if twist:
        for a in gpd.arrow_ids():
            if a in units:
                continue
            noise = rand_homotopy(rng, fiber, fiber)
            action[a] = action[a] + noise.boundary_conjugate()
    return RepUpToWeakHomotopy(gpd, fibers, action)


def scalar_twist(rep: RepUpToWeakHomotopy, cocycle: dict[str, Fraction]) -> RepUpToWeakHomotopy:
    """Rescale every arrow action by a scalar cocycle."""
    action = {a: rep(a).scale(cocycle[a]) for a in rep.groupoid.arrow_ids()}
    return RepUpToWeakHomotopy(rep.groupoid, rep.complexes, action)


# ---------------------------------------------------------------------------
# Command-line child processes


def run_modclass_cli(*args: str, cwd: os.PathLike | str) -> subprocess.CompletedProcess:
    """Run ``python -m modclass.cli ARGS`` in ``cwd``; capture text output.

    The source root of the ``modclass`` this process imported goes first
    on the child's ``PYTHONPATH``, ahead of any entries the caller set, so
    the child runs the code under test whatever its working directory and
    whether or not the package is installed.
    """
    src_root = str(pathlib.Path(modclass.__file__).resolve().parents[1])
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([src_root, inherited]) if inherited else src_root
    return subprocess.run(
        [sys.executable, "-m", "modclass.cli", *args],
        capture_output=True,
        text=True,
        cwd=cwd,
        env=env,
    )
