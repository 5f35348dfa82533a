"""Bounded cochain complexes of rational coordinate spaces.

A complex here is a finite family of coordinate spaces ``C^i`` for
degrees in a bounded interval, with differentials ``d^i : C^i ->
C^{i+1}`` squaring to zero.  On top of that this module provides chain
maps, chain homotopies, the boundary/harmonic/lift decomposition of
each degree, and the Berezinian (graded determinant).  The
decomposition is a strong deformation retract onto the harmonic blocks,
and :func:`harmonic_blocks` (``pi_T t iota_S`` per degree, the map on
cohomology) is the one view of a homotopy class: a chain map is
null-homotopic exactly when they vanish (the contraction then gives the
homotopy), and the Berezinian of a homotopy equivalence's class is the
alternating product of their determinants, corrected by those of the
bases.  Only invertible replacement changes basis in full.

Fibers are coordinate spaces, so the graded determinant line always has
a standard trivializing element (the one determined by the standard
bases); a normalization is therefore just a nonzero scale per fiber,
and the functions below take it as a plain scalar.

Everything is exact and deterministic.  The decomposition of a degree
is canonical given the pivoting convention of :mod:`modclass.linalg`:
the boundary block is spanned by the pivot columns of the incoming
differential, the harmonic block completes it inside the kernel by a
greedy scan over the canonical kernel basis, and the lift block is the
set of standard basis vectors sitting at the pivot columns of the
outgoing differential.  With these choices the differential carries the
lift block of degree ``i`` to the boundary basis of degree ``i+1`` by
the identity matrix, which makes the contraction and the replacement
construction exact rather than merely up to isomorphism.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable, Mapping

from .linalg import (
    Matrix,
    _kernel,
    det,
    det_and_inverse,
    extend_to_basis,
    rref,
)


class GradedDimensionMismatch(ValueError):
    """Source and target complexes do not have equal dimension in every degree."""


class NotHomotopyEquivalence(ValueError):
    """The chain map does not induce isomorphisms on cohomology."""


@dataclass
class ValidationReport:
    """Outcome of a structural law check; falsy iff something failed."""

    problems: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.problems

    def __bool__(self) -> bool:
        return self.ok

    def add(self, message: str) -> None:
        self.problems.append(message)


class ComplexFiber:
    """A bounded cochain complex of coordinate spaces.

    ``dims`` maps a degree to the dimension of that coordinate space and
    ``differentials`` maps degree ``i`` to the matrix of ``d^i``, of
    shape ``dims(i+1) x dims(i)``.  Outside ``[d_min, d_max]`` all
    dimensions are zero.  Construction does not enforce ``d o d = 0``;
    use :func:`verify_complex` to check it.
    """

    __slots__ = ("d_min", "d_max", "dims", "differentials")

    def __init__(
        self,
        d_min: int,
        d_max: int,
        dims: Mapping[int, int],
        differentials: Mapping[int, Matrix],
    ):
        if d_min > d_max:
            raise ValueError("empty degree range")
        self.d_min = d_min
        self.d_max = d_max
        self.dims = {i: int(dims.get(i, 0)) for i in range(d_min, d_max + 1)}
        self.differentials = dict(differentials)

    def dim(self, i: int) -> int:
        return self.dims.get(i, 0)

    def differential(self, i: int) -> Matrix:
        d = self.differentials.get(i)
        if d is None:
            return Matrix.zeros(self.dim(i + 1), self.dim(i))
        return d

    def degrees(self) -> range:
        return range(self.d_min, self.d_max + 1)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other) -> bool:
        if not isinstance(other, ComplexFiber):
            return NotImplemented
        return (
            self.d_min == other.d_min
            and self.d_max == other.d_max
            and self.dims == other.dims
            and all(
                self.differential(i) == other.differential(i) for i in self.degrees()
            )
        )

    def __hash__(self):
        return hash((self.d_min, self.d_max, tuple(sorted(self.dims.items()))))

    def __repr__(self) -> str:
        return f"ComplexFiber(degrees=[{self.d_min},{self.d_max}], dims={self.dims})"


class ChainMap:
    """A degree-preserving map of complexes commuting with differentials."""

    __slots__ = ("source", "target", "components")

    def __init__(
        self,
        source: ComplexFiber,
        target: ComplexFiber,
        components: Mapping[int, Matrix],
    ):
        self.source = source
        self.target = target
        self.components = dict(components)

    def component(self, i: int) -> Matrix:
        c = self.components.get(i)
        if c is None:
            return Matrix.zeros(self.target.dim(i), self.source.dim(i))
        return c

    @classmethod
    def identity(cls, fiber: ComplexFiber) -> "ChainMap":
        return cls(
            fiber,
            fiber,
            {i: Matrix.identity(fiber.dim(i)) for i in fiber.degrees()},
        )

    @classmethod
    def zero(cls, source: ComplexFiber, target: ComplexFiber) -> "ChainMap":
        return cls(source, target, {})

    def degrees(self) -> range:
        lo = min(self.source.d_min, self.target.d_min)
        hi = max(self.source.d_max, self.target.d_max)
        return range(lo, hi + 1)

    def compose(self, other: "ChainMap") -> "ChainMap":
        """``self`` after ``other``."""
        if other.target != self.source:
            raise ValueError("chain maps are not composable")
        return ChainMap(
            other.source,
            self.target,
            {
                i: self.component(i) * other.component(i)
                for i in self.degrees()
                if self.target.dim(i) and other.source.dim(i)
            },
        )

    def __add__(self, other: "ChainMap") -> "ChainMap":
        self._require_parallel(other)
        return ChainMap(
            self.source,
            self.target,
            {i: self.component(i) + other.component(i) for i in self.degrees()},
        )

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        self._require_parallel(other)
        return ChainMap(
            self.source,
            self.target,
            {i: self.component(i) - other.component(i) for i in self.degrees()},
        )

    def scale(self, scalar) -> "ChainMap":
        return ChainMap(
            self.source,
            self.target,
            {i: self.component(i).scale(scalar) for i in self.degrees()},
        )

    def _require_parallel(self, other: "ChainMap") -> None:
        if self.source != other.source or self.target != other.target:
            raise ValueError("chain maps do not share source and target")

    def is_invertible(self) -> bool:
        return all(
            self.source.dim(i) == self.target.dim(i)
            and det(self.component(i)) != 0
            for i in self.degrees()
        )

    def __eq__(self, other) -> bool:
        if not isinstance(other, ChainMap):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and all(self.component(i) == other.component(i) for i in self.degrees())
        )

    def __hash__(self):
        return hash((self.source, self.target))

    def __repr__(self) -> str:
        return f"ChainMap({self.source!r} -> {self.target!r})"


class Homotopy:
    """A degree -1 map: component ``i`` goes from source degree ``i`` to
    target degree ``i-1``."""

    __slots__ = ("source", "target", "components")

    def __init__(
        self,
        source: ComplexFiber,
        target: ComplexFiber,
        components: Mapping[int, Matrix],
    ):
        self.source = source
        self.target = target
        self.components = dict(components)

    def component(self, i: int) -> Matrix:
        c = self.components.get(i)
        if c is None:
            return Matrix.zeros(self.target.dim(i - 1), self.source.dim(i))
        return c

    @classmethod
    def zero(cls, source: ComplexFiber, target: ComplexFiber) -> "Homotopy":
        return cls(source, target, {})

    def boundary_conjugate(self) -> ChainMap:
        """The chain map ``d o H + H o d`` induced by this homotopy."""
        src, tgt = self.source, self.target
        comps = {}
        lo = min(src.d_min, tgt.d_min)
        hi = max(src.d_max, tgt.d_max)
        for i in range(lo, hi + 1):
            if tgt.dim(i) == 0 or src.dim(i) == 0:
                continue
            comps[i] = tgt.differential(i - 1) * self.component(i) + self.component(
                i + 1
            ) * src.differential(i)
        return ChainMap(src, tgt, comps)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Homotopy):
            return NotImplemented
        degrees = range(
            min(self.source.d_min, self.target.d_min),
            max(self.source.d_max, self.target.d_max) + 2,
        )
        return (
            self.source == other.source
            and self.target == other.target
            and all(self.component(i) == other.component(i) for i in degrees)
        )

    def __repr__(self) -> str:
        return f"Homotopy({self.source!r} -> {self.target!r})"


def verify_complex(c: ComplexFiber) -> ValidationReport:
    """Check shapes and ``d^{i+1} o d^i = 0`` in every degree."""
    report = ValidationReport()
    for i in c.degrees():
        d = c.differential(i)
        if (d.rows, d.cols) != (c.dim(i + 1), c.dim(i)):
            report.add(
                f"differential at degree {i} has shape {d.rows}x{d.cols},"
                f" expected {c.dim(i + 1)}x{c.dim(i)}"
            )
    if report.ok:
        for i in c.degrees():
            if not (c.differential(i + 1) * c.differential(i)).is_zero():
                report.add(f"d o d is nonzero starting at degree {i}")
    for i in c.dims:
        if c.dims[i] < 0:
            report.add(f"negative dimension at degree {i}")
    return report


def verify_chain_map(t: ChainMap) -> ValidationReport:
    """Check shapes and ``d o T = T o d`` in every degree."""
    report = ValidationReport()
    for i in t.degrees():
        comp = t.component(i)
        if (comp.rows, comp.cols) != (t.target.dim(i), t.source.dim(i)):
            report.add(
                f"component at degree {i} has shape {comp.rows}x{comp.cols},"
                f" expected {t.target.dim(i)}x{t.source.dim(i)}"
            )
    if report.ok:
        for i in t.degrees():
            lhs = t.target.differential(i) * t.component(i)
            rhs = t.component(i + 1) * t.source.differential(i)
            if lhs != rhs:
                report.add(f"does not commute with the differential at degree {i}")
    return report


@dataclass(frozen=True)
class Decomposition:
    """Per-degree splitting into boundaries, harmonics, and a lift.

    ``basis[i]`` is invertible with columns grouped as ``[B | H | L]``:
    the boundary block B spans the image of the incoming differential,
    the harmonic block H completes it to a basis of the kernel of the
    outgoing differential, and the lift block L is a complement of that
    kernel which the differential carries isomorphically onto the
    boundary block of the next degree (by the identity matrix, in these
    bases).  ``basis_det[i]`` is the determinant of ``basis[i]``.

    The splitting is a strong deformation retract onto the harmonic
    blocks: with the contraction ``h^i`` (:meth:`contraction`) and the
    harmonic projector ``p^i`` (:meth:`harmonic_projector`), ``d h + h d
    = 1 - p`` in every degree.
    """

    fiber: ComplexFiber
    basis: dict[int, Matrix]
    basis_inv: dict[int, Matrix]
    boundary_dims: dict[int, int]
    harmonic_dims: dict[int, int]
    basis_det: dict[int, Fraction]

    def widths(self, i: int) -> tuple[int, int, int]:
        return (
            self.boundary_dims.get(i, 0),
            self.harmonic_dims.get(i, 0),
            self.boundary_dims.get(i + 1, 0),
        )

    def basis_at(self, i: int) -> Matrix:
        return self.basis.get(i, Matrix.identity(self.fiber.dim(i)))

    def basis_inv_at(self, i: int) -> Matrix:
        return self.basis_inv.get(i, Matrix.identity(self.fiber.dim(i)))

    def edges(self, i: int) -> tuple[int, int, int, int]:
        """Offsets where the three blocks of degree ``i`` start and end."""
        b, h, l = self.widths(i)
        return (0, b, b + h, b + h + l)

    def blocks(self, i: int) -> tuple[Matrix, ...]:
        """The (boundary, harmonic, lift) column groups of ``basis_at(i)``."""
        e, m = self.edges(i), self.basis_at(i)
        return tuple(m.take_columns(range(e[k], e[k + 1])) for k in range(3))

    def coordinates(self, i: int) -> tuple[Matrix, ...]:
        """The (boundary, harmonic, lift) row groups of ``basis_inv_at(i)``."""
        e, m = self.edges(i), self.basis_inv_at(i)
        return tuple(m.submatrix(e[k], e[k + 1], 0, m.cols) for k in range(3))

    def contraction(self, i: int) -> Matrix:
        """``h^i`` from degree ``i`` to ``i-1``: boundary block onto lift block by the identity."""
        return self.blocks(i - 1)[2] * self.coordinates(i)[0]

    def harmonic_projector(self, i: int) -> Matrix:
        """Projection of degree ``i`` onto its harmonic block along the other two."""
        return self.blocks(i)[1] * self.coordinates(i)[1]


def decompose(c: ComplexFiber, permutations: Mapping[int, Iterable[int]] | None = None) -> Decomposition:
    """Split every degree as boundaries + harmonics + lift of boundaries.

    ``permutations`` optionally relabels the coordinates of each degree
    before the greedy choices are made, giving a different (equally
    valid) decomposition; downstream quantities that are claimed to be
    choice independent can be re-run against such a variant.
    """
    # Coordinate j of degree i in the working coordinates is perm(i)[j].
    perms = {i: list(p) for i, p in (permutations or {}).items()}
    for i, p in perms.items():
        if sorted(p) != list(range(c.dim(i))):
            raise ValueError(f"not a permutation of degree {i} coordinates")

    def perm(i: int) -> list[int]:
        return perms.get(i) or list(range(c.dim(i)))

    def permuted(i: int) -> Matrix:
        d = c.differential(i)
        return Matrix([d.row(r) for r in perm(i + 1)], cols=d.cols).take_columns(perm(i))

    # Work in permuted coordinates, then pull the bases back.
    diffs = {i: permuted(i) for i in range(c.d_min - 1, c.d_max + 1)}
    reduced = {i: rref(d) for i, d in diffs.items()}
    pivot_cols = {i: pivots for i, (_, pivots) in reduced.items()}

    basis: dict[int, Matrix] = {}
    basis_inv: dict[int, Matrix] = {}
    boundary_dims: dict[int, int] = {}
    harmonic_dims: dict[int, int] = {}
    basis_det: dict[int, Fraction] = {}
    for i in c.degrees():
        n = c.dim(i)
        boundary = diffs[i - 1].take_columns(pivot_cols[i - 1])
        kernel_full = extend_to_basis(boundary, _kernel(*reduced[i]))
        lift = Matrix.identity(n).take_columns(pivot_cols[i])
        full = Matrix.hstack(kernel_full, lift)
        if full.cols != n:
            raise ValueError(f"degree {i} does not split; complex is invalid")
        back = sorted(range(n), key=perm(i).__getitem__)  # row perm(i)[j] is row j
        full = Matrix([full.row(j) for j in back], cols=n)
        d, inv = det_and_inverse(full)
        if inv is None:
            raise ValueError(f"degree {i} basis is singular; complex is invalid")
        basis[i] = full
        basis_inv[i] = inv
        basis_det[i] = d
        boundary_dims[i] = boundary.cols
        harmonic_dims[i] = kernel_full.cols - boundary.cols
    boundary_dims[c.d_max + 1] = len(pivot_cols[c.d_max])
    return Decomposition(c, basis, basis_inv, boundary_dims, harmonic_dims, basis_det)


def cohomology_dims(c: ComplexFiber) -> dict[int, int]:
    """Dimension of kernel mod image in each degree."""
    dec = decompose(c)
    return {i: dec.harmonic_dims[i] for i in c.degrees()}


def harmonic_blocks(
    t: ChainMap, source_dec: Decomposition, target_dec: Decomposition
) -> dict[int, Matrix]:
    """The map ``t`` induces on cohomology, degree by degree.

    Entry ``i`` is ``pi_T^i t^i iota_S^i``: the harmonic coordinate rows
    of the target, times ``t``, times the harmonic columns of the
    source, of shape ``harmonic_dims`` of the target by that of the
    source (empty in a degree outside a fiber's range).  For a chain map
    this is the harmonic diagonal block of ``t`` in decomposition
    coordinates, and homotopic chain maps have equal harmonic blocks.
    """
    return {
        i: target_dec.coordinates(i)[1] * t.component(i) * source_dec.blocks(i)[1]
        for i in t.degrees()
    }


def _end_decompositions(
    t: ChainMap,
    source_dec: Decomposition | None = None,
    target_dec: Decomposition | None = None,
) -> tuple[Decomposition, Decomposition]:
    """Decompositions of both ends of ``t``, shared for an endomorphism."""
    source_dec = source_dec or decompose(t.source)
    if target_dec is None:
        target_dec = source_dec if t.target == t.source else decompose(t.target)
    return source_dec, target_dec


def _require_chain_map(t: ChainMap) -> None:
    check = verify_chain_map(t)
    if not check.ok:
        raise ValueError(f"not a chain map: {check.problems[0]}")


def _contracting_homotopy(
    t: ChainMap, source_dec: Decomposition, target_dec: Decomposition
) -> Homotopy:
    """``H^i = h_T^i t^i + p_T^{i-1} t^{i-1} h_S^i`` from the two contractions.

    For a chain map ``t`` this gives ``d H + H d = t - p_T t p_S``, so it
    is a null homotopy exactly when every harmonic block of ``t`` is zero.
    """
    src, tgt = t.source, t.target
    comps = {}
    for i in t.degrees():
        if tgt.dim(i - 1) and src.dim(i):
            along_target = target_dec.contraction(i) * t.component(i)
            projected = target_dec.harmonic_projector(i - 1) * t.component(i - 1)
            comps[i] = along_target + projected * source_dec.contraction(i)
    return Homotopy(src, tgt, comps)


def null_homotopy(t: ChainMap) -> Homotopy | None:
    """A homotopy ``H`` with ``T^i = d^{i-1} H^i + H^{i+1} d^i``, or None.

    Over a field a chain map is null-homotopic exactly when it induces
    zero on cohomology, that is when all of its harmonic blocks vanish;
    the homotopy is then read off the contractions of the two
    decompositions in closed form.
    """
    if not verify_chain_map(t).ok:
        return None
    source_dec, target_dec = _end_decompositions(t)
    if any(not h.is_zero() for h in harmonic_blocks(t, source_dec, target_dec).values()):
        return None
    return _contracting_homotopy(t, source_dec, target_dec)


def are_homotopic(f: ChainMap, g: ChainMap) -> Homotopy | None:
    """A homotopy from ``g`` to ``f`` (witnessing ``f - g = dH + Hd``), or None."""
    if f.source != g.source or f.target != g.target:
        raise ValueError("chain maps do not share source and target")
    return null_homotopy(f - g)


@dataclass(frozen=True)
class HomotopyEquivalenceCheck:
    """Truthy iff the map induces isomorphisms on cohomology.

    ``cohomology_maps`` holds the induced matrix in every degree, in the
    harmonic bases of the two decompositions.
    """

    ok: bool
    cohomology_maps: dict[int, Matrix]

    def __bool__(self) -> bool:
        return self.ok


def is_homotopy_equivalence(f: ChainMap) -> HomotopyEquivalenceCheck:
    """Decide homotopy equivalence via invertibility of the harmonic blocks.

    Raises ValueError for a map that is not a chain map.
    """
    _require_chain_map(f)
    maps = harmonic_blocks(f, *_end_decompositions(f))
    ok = all(h.is_square and det(h) != 0 for h in maps.values())
    return HomotopyEquivalenceCheck(ok, maps)


def _equivalence_decompositions(
    f: ChainMap,
    source_dec: Decomposition | None = None,
    target_dec: Decomposition | None = None,
) -> tuple[Decomposition, Decomposition]:
    """Decompositions of both ends, once graded dimensions agree and ``f`` is a chain map."""
    src, tgt = f.source, f.target
    for i in f.degrees():
        if src.dim(i) != tgt.dim(i):
            raise GradedDimensionMismatch(
                f"source has dimension {src.dim(i)} and target {tgt.dim(i)} in degree {i}"
            )
    _require_chain_map(f)
    return _end_decompositions(f, source_dec, target_dec)


def _harmonic_dets(blocks: Mapping[int, Matrix]) -> dict[int, Fraction]:
    """The determinant of every harmonic block, which must be invertible."""
    dets = {i: det(h) if h.is_square else 0 for i, h in blocks.items()}
    for i, d in dets.items():
        if d == 0:
            raise NotHomotopyEquivalence(f"harmonic block at degree {i} is not invertible")
    return dets


def invertible_replacement(f: ChainMap) -> tuple[ChainMap, Homotopy]:
    """Replace a homotopy equivalence by a homotopic chain isomorphism.

    Requires equal dimensions in every degree.  In decomposition
    coordinates a chain map is block upper-triangular with diagonal
    blocks (boundary, harmonic, lift); adding ``d o H + H o d`` for a
    homotopy concentrated in the (lift row, boundary column) corner
    shifts the boundary and lift diagonal blocks without touching the
    harmonic ones.  Choosing the corner map ``identity - boundary
    block`` in each degree turns every non-harmonic diagonal block into
    the identity, hence the output is invertible degreewise.  Returns
    the replacement ``g`` together with the homotopy ``H`` satisfying
    ``g = f + d o H + H o d`` exactly.

    Maps that are already invertible still go through the same
    canonicalization, so the output may differ from the input (but is
    homotopic to it).  Raises GradedDimensionMismatch, ValueError for a
    map that is not a chain map, or NotHomotopyEquivalence, in that
    order of checking.
    """
    src_dec, tgt_dec = _equivalence_decompositions(f)
    boundaries, harmonics = {}, {}
    for i in f.degrees():
        # one change of basis gives both diagonal blocks of degree i
        m = tgt_dec.basis_inv_at(i) * f.component(i) * src_dec.basis_at(i)
        (_, rb, rh, _), (_, cb, ch, _) = tgt_dec.edges(i), src_dec.edges(i)
        boundaries[i] = m.submatrix(0, rb, 0, cb)
        harmonics[i] = m.submatrix(rb, rh, cb, ch)
    _harmonic_dets(harmonics)
    homotopy_comps: dict[int, Matrix] = {}
    for i, boundary in boundaries.items():
        if boundary.rows:
            # corner I - (boundary block), from the boundary coordinates of
            # source degree i to the lift vectors of target degree i-1
            phi = Matrix.identity(boundary.rows) - boundary
            homotopy_comps[i] = tgt_dec.blocks(i - 1)[2] * phi * src_dec.coordinates(i)[0]
    homotopy = Homotopy(f.source, f.target, homotopy_comps)
    g = f + homotopy.boundary_conjugate()
    if not g.is_invertible():
        raise ValueError("replacement failed to be invertible")
    return g, homotopy


def _scale_ratio(sigma_source: Fraction | int, sigma_target: Fraction | int) -> Fraction:
    if isinstance(sigma_source, float) or isinstance(sigma_target, float):
        raise TypeError("trivialization scales must be exact rationals")
    sigma_source, sigma_target = Fraction(sigma_source), Fraction(sigma_target)
    if sigma_source == 0 or sigma_target == 0:
        raise ValueError("trivialization scales must be nonzero")
    return sigma_source / sigma_target


def berezinian(
    t: ChainMap,
    sigma_source: Fraction | int = 1,
    sigma_target: Fraction | int = 1,
) -> Fraction:
    """Graded determinant of a degreewise invertible chain map.

    Degrees are reduced mod 2: the result is the product of the even
    component determinants divided by the odd ones, rescaled by
    ``sigma_source / sigma_target`` to account for the chosen
    normalizations of the two graded determinant lines.  The empty
    complex has Berezinian 1.
    """
    ratio = _scale_ratio(sigma_source, sigma_target)
    value = Fraction(1)
    for i in t.degrees():
        if t.source.dim(i) != t.target.dim(i):
            raise ValueError(f"component at degree {i} is not square")
        d = det(t.component(i))
        if d == 0:
            raise ValueError(f"component at degree {i} is not invertible")
        value = value * d if i % 2 == 0 else value / d
    return value * ratio


def berezinian_class(
    t: ChainMap,
    sigma_source: Fraction | int = 1,
    sigma_target: Fraction | int = 1,
    source_dec: Decomposition | None = None,
    target_dec: Decomposition | None = None,
) -> Fraction:
    """Berezinian of the homotopy class of a homotopy equivalence.

    In decomposition coordinates an invertible replacement of ``t`` has
    diagonal blocks (identity, harmonic block, identity), so its
    Berezinian is ``prod_i det(H^i)^(-1)^i * tau(target) / tau(source)``
    with ``tau(x) = prod_i det(basis_x^i)^(-1)^i``, times the scale
    ratio.  Homotopic maps share their harmonic blocks, so the value
    depends only on the homotopy class; it agrees with
    :func:`berezinian` on maps that are already invertible and raises
    what :func:`invertible_replacement` raises.
    """
    source_dec, target_dec = _equivalence_decompositions(t, source_dec, target_dec)
    blocks = harmonic_blocks(t, source_dec, target_dec)
    return _class_berezinian(blocks, source_dec, target_dec, sigma_source, sigma_target)


def _class_berezinian(
    blocks: Mapping[int, Matrix], source_dec: Decomposition, target_dec: Decomposition,
    sigma_source: Fraction | int, sigma_target: Fraction | int,
) -> Fraction:
    """The closed form of :func:`berezinian_class`, from a map's harmonic blocks."""
    dets = _harmonic_dets(blocks)
    ratio = _scale_ratio(sigma_source, sigma_target)
    value = Fraction(1)
    for i, d in dets.items():
        # exact even in a degree outside both fibers, where neither side has a basis
        tau = Fraction(target_dec.basis_det.get(i, 1)) / source_dec.basis_det.get(i, 1)
        factor = d * tau
        value = value * factor if i % 2 == 0 else value / factor
    return value * ratio
