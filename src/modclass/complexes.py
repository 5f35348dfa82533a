"""Bounded cochain complexes of rational coordinate spaces.

A complex here is a finite family of coordinate spaces ``C^i`` for
degrees in a bounded interval, with differentials ``d^i : C^i ->
C^{i+1}`` squaring to zero.  A fiber stores only its nonzero degrees,
its *support*, and every per-degree computation below walks supports,
never the declared interval: a zero-dimensional degree has empty
blocks, adds a factor 1 to every Berezinian and nothing to any law, so
the width of the interval costs nothing.  The constructors own the
shape rule: the graded dimensions fix the shape of every differential
and component, a misshapen one is a ValueError, and a zero or empty
one is dropped, so fibers and maps store only nonzero entries on the
support and no check after construction looks at shapes.  On top of
that this module provides chain maps, the boundary/harmonic/lift
decomposition of each degree, and the Berezinian (graded determinant).
The decomposition is a strong deformation retract onto the harmonic
blocks, and the harmonic blocks (``pi_T t iota_S`` per degree, the map
on cohomology) are the one view of a homotopy class: a chain map is
null-homotopic exactly when they vanish, so a homotopy need only exist
and none is built, and the Berezinian of a homotopy equivalence's
class is the alternating product of their determinants, corrected by
those of the bases.

In the decomposition bases each differential is a fixed partial
identity: it carries the lift block of degree ``i`` onto the boundary
block of degree ``i+1`` by the identity and kills the other two.  So
every homotopy decision and construction reads one change of basis per
arrow and degree, ``M^i = basis_inv_T^i t^i basis_S^i`` (``_in_bases``):
the chain-map verdict, the harmonic blocks ``M^i[H_T, H_S]`` and the
invertible replacement.  Both the change of basis and the replacement,
``M`` with its boundary and lift diagonal blocks set to identities and
mapped back, are read off each degree's factors
(:func:`modclass.linalg.change_of_basis`, :func:`modclass.linalg.replacement`),
with no dense basis.
:func:`verify_chain_map`, :func:`harmonic_blocks` and
:func:`verify_complex` multiply the maps out directly, as references and
to word the problems of fibers that are no complexes.

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

A degree is split only when a differential goes in or out, by one
elimination of ``b`` rows beyond the rref of its outgoing differential
(:func:`modclass.linalg.split_degree`): the kernel basis is the identity
on the free coordinates, so the harmonic choice, the coordinates along
each block and the basis determinant (the factor ``tau`` of the
Berezinian) are read off that rref, the boundary columns and ``B_Q^-1``
for the ``b`` free rows ``Q`` where the boundary has its last nonzeros.
The decomposition keeps those factors and no dense matrix; a degree
with no differential in or out keeps nothing, as its basis is the
identity.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from operator import add, sub
from typing import Mapping

from .linalg import Matrix, Split, _exact, change_of_basis, det, replacement, rref, split_degree


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
    shape ``dim(i+1) x dim(i)``.  Outside ``[d_min, d_max]`` all
    dimensions are zero.  The stored ``dims`` is the support: the
    nonzero dimensions in increasing degree, fixed at construction.  A
    0 may be given for any degree and is dropped; a negative dimension,
    or a nonzero one outside ``[d_min, d_max]``, is a ValueError.  So is
    a differential of another shape, at any degree; a zero or empty one
    is dropped, so ``differentials`` holds the nonzero ones, in degree
    order.  Construction does not enforce ``d o d = 0``; use
    :func:`verify_complex` to check it.
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
        for i, n in dims.items():
            if type(n) is not int:
                raise TypeError(f"dimension {n!r} of degree {i} is not an int")
            if n < 0:
                raise ValueError(f"dimension {n} of degree {i} is negative")
            if n and not d_min <= i <= d_max:
                raise ValueError(f"dimension {n} of degree {i} is outside [{d_min}, {d_max}]")
        self.dims = {i: n for i, n in sorted(dims.items()) if n}
        self.differentials = _nonzero_entries("differential", differentials, self, self, 1)

    def dim(self, i: int) -> int:
        return self.dims.get(i, 0)

    def differential(self, i: int) -> Matrix:
        d = self.differentials.get(i)
        if d is None:
            return Matrix.zeros(self.dim(i + 1), self.dim(i))
        return d

    def degrees(self) -> range:
        """The declared range ``[d_min, d_max]``, zero-dimensional degrees included."""
        return range(self.d_min, self.d_max + 1)

    def total_dim(self) -> int:
        return sum(self.dims.values())

    def __eq__(self, other) -> bool:
        if self is other:
            return True
        if not isinstance(other, ComplexFiber):
            return NotImplemented
        return (
            self.d_min == other.d_min
            and self.d_max == other.d_max
            and self.dims == other.dims
            and self.differentials == other.differentials
        )

    def __hash__(self):
        return hash((self.d_min, self.d_max, tuple(self.dims.items())))

    def __repr__(self) -> str:
        return f"ComplexFiber(degrees=[{self.d_min},{self.d_max}], dims={self.dims})"


def _nonzero_entries(
    what: str, matrices: Mapping[int, Matrix], rows: ComplexFiber, cols: ComplexFiber, shift: int
) -> dict[int, Matrix]:
    """The nonzero matrices of ``matrices``, in degree order, once each
    entry ``i`` is checked to be ``rows.dim(i + shift) x cols.dim(i)``;
    the first in degree order that is not is a ValueError naming the
    degree and both shapes."""
    stored = {}
    for i, m in sorted(matrices.items()):
        r, c = rows.dim(i + shift), cols.dim(i)
        if m.rows != r or m.cols != c:
            raise ValueError(f"{what} at degree {i} has shape {m.rows}x{m.cols}, expected {r}x{c}")
        if not m.is_zero():
            stored[i] = m
    return stored


class ChainMap:
    """A degree-preserving map of complexes commuting with differentials.

    Component ``i`` goes from source degree ``i`` to target degree ``i``,
    of shape ``target.dim(i) x source.dim(i)``; a missing component is
    zero.  Construction refuses a component of another shape with a
    ValueError and drops a zero or empty one, so ``components`` holds the
    nonzero ones, in degree order.  Two chain maps are equal when they
    have the same ends and stored components.  Construction does not
    enforce commutation; use :func:`verify_chain_map` to check it.
    """

    __slots__ = ("source", "target", "components")

    def __init__(
        self,
        source: ComplexFiber,
        target: ComplexFiber,
        components: Mapping[int, Matrix],
    ):
        self.source = source
        self.target = target
        self.components = _nonzero_entries("component", components, target, source, 0)

    def component(self, i: int) -> Matrix:
        c = self.components.get(i)
        if c is None:
            return Matrix.zeros(self.target.dim(i), self.source.dim(i))
        return c

    @classmethod
    def zero(cls, source: ComplexFiber, target: ComplexFiber) -> "ChainMap":
        return cls(source, target, {})

    @classmethod
    def identity(cls, fiber: ComplexFiber) -> "ChainMap":
        return cls(fiber, fiber, {i: Matrix.identity(n) for i, n in fiber.dims.items()})

    def degrees(self) -> list[int]:
        """The degrees where a component has a nonzero end, in order: the
        union of the two fibers' supports.  Every other component is empty."""
        return sorted(self.source.dims.keys() | self.target.dims.keys())

    def compose(self, other: "ChainMap") -> "ChainMap":
        """``self`` after ``other``: a product in each degree where both store a component."""
        if other.target != self.source:
            raise ValueError("chain maps are not composable")
        theirs = other.components
        comps = {i: m * theirs[i] for i, m in self.components.items() if i in theirs}
        return ChainMap(other.source, self.target, comps)

    def __add__(self, other: "ChainMap") -> "ChainMap":
        return self._combine(other, add)

    def __sub__(self, other: "ChainMap") -> "ChainMap":
        return self._combine(other, sub)

    def _combine(self, other: "ChainMap", op) -> "ChainMap":
        # ``op`` (add or sub) wherever either map stores a component; elsewhere both are zero
        if self.source != other.source or self.target != other.target:
            raise ValueError("chain maps do not share source and target")
        stored = self.components.keys() | other.components.keys()
        comps = {i: op(self.component(i), other.component(i)) for i in stored}
        return ChainMap(self.source, self.target, comps)

    def scale(self, scalar) -> "ChainMap":
        comps = {i: m.scale(scalar) for i, m in self.components.items()}
        return ChainMap(self.source, self.target, comps)

    def is_identity(self) -> bool:
        """Whether this is ``ChainMap.identity(self.source)``; no identity is built."""
        return self.target == self.source and all(
            self.component(i).is_identity() for i in self.source.dims
        )

    def is_invertible(self) -> bool:
        return all(
            self.source.dim(i) == self.target.dim(i)
            and det(self.component(i)) != 0
            for i in self.degrees()
        )

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return (
            self.source == other.source
            and self.target == other.target
            and self.components == other.components
        )

    def __hash__(self):
        return hash((self.source, self.target))

    def __repr__(self) -> str:
        return f"ChainMap({self.source!r} -> {self.target!r})"


def verify_complex(c: ComplexFiber) -> ValidationReport:
    """Check ``d^{i+1} o d^i = 0`` in every nonzero degree ``i`` (elsewhere
    it maps a zero space); construction already fixed every shape."""
    report = ValidationReport()
    for i in c.dims:
        if not (c.differential(i + 1) * c.differential(i)).is_zero():
            report.add(f"d o d is nonzero starting at degree {i}")
    return report


def verify_chain_map(t: ChainMap) -> ValidationReport:
    """Check ``d o T = T o d`` in every degree (as :func:`_in_bases` does);
    construction already fixed every shape."""
    report = ValidationReport()
    for i in t.degrees():
        lhs = t.target.differential(i) * t.component(i)
        rhs = t.component(i + 1) * t.source.differential(i)
        if lhs != rhs:
            report.add(f"does not commute with the differential at degree {i}")
    return report


@dataclass(frozen=True)
class Decomposition:
    """Per-degree splitting into boundaries, harmonics, and a lift.

    The basis of degree ``i`` is invertible with columns grouped as ``[B
    | H | L]``: the boundary block B spans the image of the incoming
    differential, the harmonic block H completes it to a basis of the
    kernel of the outgoing differential, and the lift block L is a
    complement of that kernel which the differential carries
    isomorphically onto the boundary block of the next degree (by the
    identity matrix, in these bases).  ``splits[i]`` keeps that basis
    as the factors it is read off (:class:`modclass.linalg.Split`), in
    each degree with a differential in or out; in every other nonzero
    degree the basis is the identity and nothing is stored.
    ``basis_det[i]`` is the determinant of the basis where it is
    stored.  The width dicts hold the fiber's nonzero degrees;
    ``basis_at``, ``widths`` and ``tau`` read a zero degree as empty.
    ``basis_at`` and ``basis_inv_at`` build the dense matrices on
    request; the change of basis and the replacement read the factors.

    The splitting is a strong deformation retract onto the harmonic
    blocks: the contraction ``h^i = L^{i-1} coordB^i`` (boundary block
    onto lift block by the identity) and the harmonic projector ``p^i =
    H^i coordH^i`` satisfy ``d h + h d = 1 - p`` in every degree.  The
    decomposition is plain data; only :attr:`tau` is kept once computed.
    """

    fiber: ComplexFiber
    splits: dict[int, Split]
    boundary_dims: dict[int, int]
    harmonic_dims: dict[int, int]
    basis_det: dict[int, Fraction]

    def widths(self, i: int) -> tuple[int, int, int]:
        _, b, bh, n = self.edges(i)
        return b, bh - b, n - bh

    def basis_at(self, i: int) -> Matrix:
        return change_of_basis(Matrix.identity(self.fiber.dim(i)), self.splits.get(i), None)

    def basis_inv_at(self, i: int) -> Matrix:
        return change_of_basis(Matrix.identity(self.fiber.dim(i)), None, self.splits.get(i))

    def edges(self, i: int) -> tuple[int, int, int, int]:
        """Offsets where the three blocks of degree ``i`` start and end."""
        return self._edges.get(i, (0, 0, 0, 0))

    @cached_property
    def _edges(self) -> dict[int, tuple[int, int, int, int]]:
        # every change of basis reads them, so they are worked out once
        bd, hd = self.boundary_dims, self.harmonic_dims
        return {i: (0, bd[i], bd[i] + hd[i], bd[i] + hd[i] + bd.get(i + 1, 0)) for i in hd}

    @cached_property
    def tau(self) -> Fraction:
        """``prod_i det(basis^i)^(-1)^i``, the Berezinian of the bases."""
        return Fraction(*_alternating(self.basis_det))


def decompose(c: ComplexFiber) -> Decomposition:
    """Split every nonzero degree as boundaries + harmonics + lift of boundaries.

    The choices are the canonical ones of the module docstring.  The
    quantities claimed not to depend on them are tested against
    decompositions made in relabelled coordinates.  Raises ValueError
    exactly when ``c`` is no complex, ``d^i d^{i-1} != 0`` in some degree
    ``i``; construction already fixed every shape.  Only the stored
    differentials are eliminated, and a degree with none in or out
    stores nothing.
    """
    reduced = {i: rref(d) for i, d in c.differentials.items()}
    splits, boundary_dims, harmonic_dims = {}, {}, {}
    for i, n in c.dims.items():
        outgoing, pivots = reduced[i] if i in reduced else (Matrix.zeros(0, n), ())
        incoming = reduced[i - 1][1] if i - 1 in reduced else ()
        boundary_dims[i] = len(incoming)
        harmonic_dims[i] = n - len(incoming) - len(pivots)
        if incoming or pivots:
            boundary = c.differential(i - 1).take_columns(incoming)
            splits[i] = split_degree(boundary, outgoing, pivots)
            if splits[i] is None:
                raise ValueError(f"degree {i} does not split; complex is invalid")
    basis_det = {i: s.det for i, s in splits.items()}
    return Decomposition(c, splits, boundary_dims, harmonic_dims, basis_det)


def harmonic_blocks(
    t: ChainMap, source_dec: Decomposition, target_dec: Decomposition
) -> dict[int, Matrix]:
    """The map ``t`` induces on cohomology, degree by degree.

    Entry ``i`` is ``pi_T^i t^i iota_S^i``: the harmonic coordinate rows
    of the target, times ``t``, times the harmonic columns of the
    source, of shape ``harmonic_dims`` of the target by that of the
    source, for each degree of ``t.degrees()`` (empty where a fiber is
    zero; absent where both are).  For a chain map
    this is the harmonic diagonal block of ``t`` in decomposition
    coordinates, and homotopic chain maps have equal harmonic blocks.
    """
    blocks = {}
    for i in t.degrees():
        # ``edges(i)[1:3]`` bounds the harmonic block
        rows = target_dec.basis_inv_at(i).submatrix(*target_dec.edges(i)[1:3], 0, t.target.dim(i))
        cols = source_dec.basis_at(i).submatrix(0, t.source.dim(i), *source_dec.edges(i)[1:3])
        blocks[i] = rows * t.component(i) * cols
    return blocks


def _in_bases(
    t: ChainMap, source_dec: Decomposition, target_dec: Decomposition
) -> tuple[str | None, dict[int, Matrix]]:
    """The first problem :func:`verify_chain_map` finds (None for a chain map),
    and ``M^i = basis_inv_T^i t^i basis_S^i`` per degree, grouped ``[B | H | L]``
    and read off the two ends' factors: the zero matrix, with no product,
    where ``t`` stores no component, and ``t^i`` itself where neither end
    has a differential in or out of degree ``i``.

    As ``d`` is a partial identity in these bases, ``d t^i = t^{i+1} d``
    exactly when ``M^i[L_T, B_S | H_S] = 0``, ``M^i[L_T, L_S] =
    M^{i+1}[B_T, B_S]`` and ``M^{i+1}[H_T | L_T, B_S] = 0``.
    """
    stored, sources, targets = t.components, source_dec.splits, target_dec.splits
    ms = {
        i: change_of_basis(stored[i], sources.get(i), targets.get(i))
        if i in stored
        else Matrix.zeros(t.target.dim(i), t.source.dim(i))
        for i in t.degrees()
    }
    empty = Matrix.zeros(0, 0)
    for i, m in ms.items():
        after = ms.get(i + 1, empty)
        _, _, rh, rn = target_dec.edges(i)
        _, _, ch, cn = source_dec.edges(i)
        rb, cb = target_dec.edges(i + 1)[1], source_dec.edges(i + 1)[1]
        if not (
            m.block_equals(rh, rn, 0, ch)
            and m.block_equals(rh, rn, ch, cn, after)
            and after.block_equals(rb, after.rows, 0, cb)
        ):
            return f"does not commute with the differential at degree {i}", ms
    return None, ms


def _harmonic_part(
    ms: Mapping[int, Matrix], source_dec: Decomposition, target_dec: Decomposition
) -> dict[int, Matrix]:
    """The harmonic blocks ``M^i[H_T, H_S]`` of a map in decomposition bases."""
    return {
        i: m.submatrix(*target_dec.edges(i)[1:3], *source_dec.edges(i)[1:3])
        for i, m in ms.items()
    }


def _equivalence_coordinates(f: ChainMap) -> tuple[tuple[Decomposition, ...], dict[int, Matrix]]:
    """The decompositions of ``f``'s ends (shared for an endomorphism) and
    ``f``'s change of basis ``M^i`` (:func:`_in_bases`), once ``f`` is
    checked to be a chain map between complexes of equal graded dimension.

    Raises GradedDimensionMismatch first, then ValueError for a map that
    is no chain map.  When an end is no complex, "not a chain map" wins:
    :func:`verify_chain_map` words it, and only for a chain map is the
    refusal to split raised.
    """
    src, tgt = f.source, f.target
    for i in f.degrees():
        if src.dim(i) != tgt.dim(i):
            raise GradedDimensionMismatch(
                f"source has dimension {src.dim(i)} and target {tgt.dim(i)} in degree {i}"
            )
    try:
        source_dec = decompose(src)
        ends = source_dec, source_dec if tgt == src else decompose(tgt)
    except ValueError:
        check = verify_chain_map(f)
        if check.ok:
            raise
        problem = check.problems[0]
    else:
        problem, ms = _in_bases(f, *ends)
    if problem is not None:
        raise ValueError(f"not a chain map: {problem}")
    return ends, ms


def _harmonic_dets(blocks: Mapping[int, Matrix]) -> dict[int, Fraction]:
    """The determinant of every harmonic block, which must be invertible."""
    dets = {i: det(h) if h.is_square else 0 for i, h in blocks.items()}
    for i, d in dets.items():
        if d == 0:
            raise NotHomotopyEquivalence(f"harmonic block at degree {i} is not invertible")
    return dets


def invertible_replacement(f: ChainMap) -> ChainMap:
    """Replace a homotopy equivalence by a homotopic chain isomorphism.

    Requires equal dimensions in every degree.  In decomposition
    coordinates a chain map ``M^i`` (:func:`_in_bases`) is block
    upper-triangular with diagonal blocks (boundary, harmonic, lift).
    As ``d`` carries lift onto boundary by the identity, the homotopy
    ``H^i = L_T^{i-1} phi^i coordB_S^i`` with ``phi^i = identity -
    M^i[B_T, B_S]`` adds ``phi^i`` to the boundary diagonal block and
    ``phi^{i+1}`` to the lift one, and the chain-map law ``M^i[L_T, L_S]
    = M^{i+1}[B_T, B_S]`` makes both sums the identity.  So ``g = f + d
    o H + H o d`` is ``g^i = basis_T^i N^i basis_inv_S^i``, with ``N^i``
    the matrix ``M^i`` whose boundary and lift diagonal blocks are
    overwritten by identities: still block upper-triangular, with
    diagonal (identity, harmonic block, identity), it is invertible
    exactly when every harmonic block is, which is checked first.  Once
    they are, both ends have equal block widths, and ``g^i - f^i = B_T
    (I - M_BB) coordB_S + L_T (I - M_LL) R_S`` is read off the two splits
    (:func:`modclass.linalg.replacement`), so ``N`` is never built.
    Nor is ``H``: ``g - f = d H + H d`` has zero harmonic blocks, so
    ``g`` and ``f`` are homotopic.

    Maps that are already invertible still go through the same
    canonicalization, so the output may differ from the input (but is
    homotopic to it).  Raises GradedDimensionMismatch, ValueError for a
    map that is not a chain map, or NotHomotopyEquivalence, in that
    order of checking.
    """
    (src_dec, tgt_dec), ms = _equivalence_coordinates(f)
    _harmonic_dets(_harmonic_part(ms, src_dec, tgt_dec))
    comps = {
        i: replacement(f.component(i), m, src_dec.splits.get(i), tgt_dec.splits.get(i))
        for i, m in ms.items()
    }
    return ChainMap(f.source, f.target, comps)


def _scale_parts(sigma_source: Fraction | int, sigma_target: Fraction | int) -> tuple[int, int]:
    """Integers ``(p, q)``, ``q`` nonzero, with ``p / q = sigma_source / sigma_target``."""
    sigma_source = _exact(sigma_source, "trivialization scales")
    sigma_target = _exact(sigma_target, "trivialization scales")
    if not sigma_source or not sigma_target:
        raise ValueError("trivialization scales must be nonzero")
    return (
        sigma_source.numerator * sigma_target.denominator,
        sigma_source.denominator * sigma_target.numerator,
    )


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
    ratio = Fraction(*_scale_parts(sigma_source, sigma_target))
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
    ends, ms = _equivalence_coordinates(t)
    return _class_berezinian(_harmonic_part(ms, *ends), *ends, sigma_source, sigma_target)


def _class_berezinian(
    blocks: Mapping[int, Matrix], source_dec: Decomposition, target_dec: Decomposition,
    sigma_source: Fraction | int, sigma_target: Fraction | int,
) -> Fraction:
    """The closed form of :func:`berezinian_class`, from a map's harmonic blocks.

    ``prod_i det(H^i)^(-1)^i * tau(target) / tau(source)`` times the scale
    ratio, for ``blocks`` in every nonzero degree of both fibers (as
    :func:`harmonic_blocks` gives them): the determinants' integer parts
    are multiplied out, and one ``Fraction`` is made at the end.
    """
    num, den = _alternating(_harmonic_dets(blocks))
    p, q = _scale_parts(sigma_source, sigma_target)
    tau_s, tau_t = source_dec.tau, target_dec.tau
    return Fraction(
        num * p * tau_t.numerator * tau_s.denominator,
        den * q * tau_t.denominator * tau_s.numerator,
    )


def _alternating(values: Mapping[int, Fraction]) -> tuple[int, int]:
    """Integers ``(p, q)`` with ``p / q = prod_i values[i]^(-1)^i``, ``q`` nonzero."""
    num = den = 1
    for i, v in values.items():
        if i % 2:
            num, den = num * v.denominator, den * v.numerator
        else:
            num, den = num * v.numerator, den * v.denominator
    return num, den
