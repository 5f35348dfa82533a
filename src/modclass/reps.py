"""Representations of finite groupoids and their modular classes.

Three levels of structure live here.  A line representation assigns an
invertible scalar to every arrow, functorially.  A vector
representation assigns an invertible matrix; its top exterior power is
a line representation whose characteristic class is the modular class.
A representation up to weak homotopy assigns a chain map of per-object
complexes to every arrow, unital, with composition respected only up to
existence of a chain homotopy.  Homotopy questions are answered on the
per-object boundary/harmonic/lift decompositions: functoriality up to
homotopy is strict functoriality of the harmonic blocks in every
degree, the action on each cohomology group, decided here degree by
degree with no homotopy built, since one need only exist.  The Berezinian of
the homotopy class of each chain map, read off its harmonic blocks, is
again a strictly functorial line representation whose class is the
modular class of the homotopy representation.  Both are read off the
one analysis, the report of :func:`verify_ruth`.

Every functoriality question ends in ``groupoid._is_functorial``: a
line action is handed over as scalars, a vector action and each degree
of the harmonic blocks as matrices.  A certificate of a vector action
hands back every arrow's determinant too, so this module never reads
the groupoid's isotropy model.

A trivialization fixes a nonzero scale per object (of the determinant
line for vector representations, of the Berezinian line for homotopy
representations).  Classes never depend on it; concrete cocycles do.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Mapping

from .complexes import (
    ChainMap,
    ComplexFiber,
    Decomposition,
    GradedDimensionMismatch,
    ValidationReport,
    _class_berezinian,
    _harmonic_part,
    _in_bases,
    decompose,
    verify_complex,
)
from .groupoid import (
    _ONE,
    ClassReport,
    Cochain,
    FiniteGroupoid,
    _failing_pairs,
    _is_functorial,
    _scan_pairs,
    _solve_1,
)
from .linalg import Matrix, _exact, det


@dataclass(frozen=True)
class LineRep:
    """An invertible scalar per arrow, functorial under composition.

    The action is read through ``_exact``, under the name of the
    cochain it defines: a float or a string is a TypeError.  A value of
    None is no action, as for an arrow the mapping lacks.
    """

    kind = "line"
    groupoid: FiniteGroupoid
    action: Mapping[str, Fraction]

    def __post_init__(self):
        action = {a: _exact(v, "cochain values") for a, v in self.action.items() if v is not None}
        object.__setattr__(self, "action", action)

    @classmethod
    def _from_fractions(cls, gpd: FiniteGroupoid, action: dict) -> "LineRep":
        """A line rep on ``action``, stored as given: ``Fraction``s the
        caller built, which are not read again."""
        line = cls.__new__(cls)
        object.__setattr__(line, "groupoid", gpd)
        object.__setattr__(line, "action", action)
        return line

    def __call__(self, arrow: str) -> Fraction:
        return self.action[arrow]


@dataclass(frozen=True)
class VectorRep:
    """An invertible matrix per arrow, functorial under composition."""

    kind = "vector"
    groupoid: FiniteGroupoid
    dims: Mapping[str, int]
    action: Mapping[str, Matrix]

    def __call__(self, arrow: str) -> Matrix:
        return self.action[arrow]


@dataclass(frozen=True)
class RepUpToWeakHomotopy:
    """A chain map per arrow, functorial up to chain homotopy."""

    kind = "homotopy"
    groupoid: FiniteGroupoid
    complexes: Mapping[str, ComplexFiber]
    action: Mapping[str, ChainMap]

    def __call__(self, arrow: str) -> ChainMap:
        return self.action[arrow]


class Trivialization:
    """A nonzero scale per object; defaults to 1 everywhere."""

    __slots__ = ("scales",)

    def __init__(self, scales: Mapping[str, Fraction] | None = None):
        scales = scales or {}
        self.scales = {k: _exact(v, "trivialization scales") for k, v in scales.items()}
        for obj, value in self.scales.items():
            if value == 0:
                raise ValueError(f"trivialization scale at '{obj}' is zero")

    def __call__(self, obj: str) -> Fraction:
        return self.scales.get(obj, _ONE)

    @classmethod
    def ones(cls) -> "Trivialization":
        return cls()

    def __eq__(self, other) -> bool:
        if not isinstance(other, Trivialization):
            return NotImplemented
        return self.scales == other.scales

    def __repr__(self) -> str:
        return f"Trivialization({self.scales!r})"

    def rescale(self, f: Cochain) -> "Trivialization":
        """Divide by a degree-0 cochain (defined on every scaled object)."""
        if f.degree != 0:
            raise ValueError("expected a degree-0 cochain")
        missed = next((x for x in self.scales if x not in f.values), None)
        if missed is not None:
            raise ValueError(f"cochain is not defined on scaled object '{missed}'")
        return Trivialization({x: self(x) / v for x, v in f.values.items()})


def verify_line_rep(r: LineRep) -> ValidationReport:
    """Functoriality, unitality, and invertibility.

    Functoriality is decided through the groupoid's isotropy model; the
    composable pairs are scanned, each failure reported, only when that
    check does not pass.
    """
    report = ValidationReport()
    gpd = r.groupoid
    for a in gpd.arrow_ids():
        value = r.action.get(a)
        if value is None:
            report.add(f"arrow '{a}' has no action")
        elif value == 0:
            report.add(f"action of arrow '{a}' is zero")
    if not report.ok:
        return report
    for x in gpd.objects:
        if r(gpd.unit(x)) != 1:
            report.add(f"unit of object '{x}' does not act by 1")
    for g, h in _failing_pairs(gpd, r):
        report.add(f"functoriality fails on ('{g}', '{h}')")
    return report


class VectorReport(ValidationReport):
    """Validation outcome for a vector representation.

    ``dets`` holds the determinant of each square action, in arrow
    order: handed back by the functoriality check when it certifies,
    else taken arrow by arrow for the singularity check.  Once the report
    passes (over a lawful groupoid) every action is square, invertible
    and in ``dets``: they are the action on determinant lines.
    """

    def __init__(self):
        super().__init__()
        self.dets: dict[str, Fraction] = {}


def verify_vector_rep(r: VectorRep) -> VectorReport:
    """Shapes, invertibility, unitality, and functoriality.

    Functoriality is decided as in :func:`verify_line_rep`.  When every
    action is square and of its ends' shape, ``groupoid._is_functorial``
    is asked for the determinants too: a certificate writes every
    arrow's into ``dets``, with ``det`` taken on the isotropy loops and
    the tree arrows alone, and a zero loop determinant is no
    certificate.  Any input it does not certify takes the arrow-by-arrow
    check, which alone words shape and singularity problems, and then
    the pair scan.  The unit check runs on both paths: the certificate
    does not prove that units act by the identity.
    """
    report = VectorReport()
    gpd = r.groupoid
    action, dims = r.action, r.dims
    certified = all(
        (m := action.get(a)) is not None and m.rows == m.cols == dims[t] == dims[s]
        for a, s, t in gpd.arrows
    ) and _is_functorial(gpd, r, report.dets)
    if not certified:
        for a in gpd.arrow_ids():
            m = action.get(a)
            if m is None:
                report.add(f"arrow '{a}' has no action")
                continue
            expected = (dims[gpd.tgt(a)], dims[gpd.src(a)])
            if (m.rows, m.cols) != expected:
                report.add(
                    f"action of arrow '{a}' has shape {m.rows}x{m.cols},"
                    f" expected {expected[0]}x{expected[1]}"
                )
            elif m.is_square:
                d = report.dets[a] = det(m)
                if d == 0:
                    report.add(f"action of arrow '{a}' is singular")
        if not report.ok:
            return report
    for x in gpd.objects:
        if not r(gpd.unit(x)).is_identity():
            report.add(f"unit of object '{x}' does not act by the identity")
    # the model has refused the actions or was not asked: scan every pair
    for g, h in [] if certified else _scan_pairs(gpd, r):
        report.add(f"functoriality fails on ('{g}', '{h}')")
    return report


def characteristic_function(
    r: LineRep, sigma: Trivialization | None = None
) -> Cochain:
    """The cocycle measuring how the action moves the chosen sections.

    With sections scaled by ``sigma``, the arrow ``g`` contributes
    ``action(g) * sigma(src g) / sigma(tgt g)``.  An arrow with no scale
    at either end keeps its action value; any other is multiplied out on
    integer numerators and denominators into one ``Fraction``.  A zero
    action is a ValueError, as for any cochain.
    """
    phi = _cocycle(r, sigma)
    zero = next((key for key, v in phi.values.items() if not v), None)
    if zero is not None:
        raise ValueError(f"cochain value at {zero!r} is zero")
    return phi


def _cocycle(r: LineRep, sigma: Trivialization | None) -> Cochain:
    """:func:`characteristic_function` of a line with no zero action: its
    values are ``Fraction``s already, so the cochain reads none of them
    again."""
    scales = sigma.scales if sigma is not None else {}
    values = {}
    for a, s, t in r.groupoid.arrows:
        value = r(a)
        if s in scales or t in scales:
            above, below = scales.get(s, _ONE), scales.get(t, _ONE)
            value = Fraction(
                value.numerator * above.numerator * below.denominator,
                value.denominator * above.denominator * below.numerator,
            )
        values[(a,)] = value
    return Cochain._from_fractions(1, values)


def strict_as_homotopy(r: VectorRep, degree: int = 0) -> RepUpToWeakHomotopy:
    """View a strict representation as concentrated in one degree."""
    gpd = r.groupoid
    fibers = {
        x: ComplexFiber(degree, degree, {degree: r.dims[x]}, {}) for x in gpd.objects
    }
    action = {
        a: ChainMap(
            fibers[gpd.src(a)], fibers[gpd.tgt(a)], {degree: r(a)}
        )
        for a in gpd.arrow_ids()
    }
    return RepUpToWeakHomotopy(gpd, fibers, action)


class RuthReport(ValidationReport):
    """Validation outcome for a representation up to weak homotopy.

    ``complex_checks`` holds each object's complex check: an empty report
    when ``decompose`` splits its fiber, else :func:`verify_complex`'s,
    which then names every degree where ``d o d`` is nonzero (the fiber's
    construction already fixed every shape);
    once the complexes, chain maps and units pass, ``decompositions``
    holds each object's decomposition and ``blocks`` each arrow's
    harmonic blocks.  ``certificates`` holds each composable pair
    ``(g, h)`` whose composed action is certified homotopic to the
    action of the composite; it is derived from the failing pairs when
    it is read, so a caller that only decides lists no pair, and it is
    empty when the check stopped before the pairs.  The certificate is
    the decision alone: no homotopy is built.
    ``identities`` holds each unit arrow whose action is the identity
    chain map of its fiber: it is a chain map with identity harmonic
    blocks and Berezinian 1, so none of that is computed for it.
    """

    def __init__(self, rep: RepUpToWeakHomotopy):
        super().__init__()
        self.rep = rep
        self.complex_checks: dict[str, ValidationReport] = {}
        self.decompositions: dict[str, Decomposition] = {}
        self.blocks: dict[str, dict[int, Matrix]] = {}
        self.identities: set[str] = set()
        self._failing: list[tuple[str, str]] | None = None  # once the pairs are decided

    @property
    def certificates(self) -> set[tuple[str, str]]:
        if self._failing is None:
            return set()
        return set(self.rep.groupoid.composable_pairs()).difference(self._failing)

    def _require_ok(self) -> None:
        # GradedDimensionMismatch for unequal graded dimensions, else the first problem
        if self.ok:
            return
        mismatches = [m for a, t in self.rep.action.items() if (m := _dimension_mismatch(a, t))]
        if mismatches:
            raise GradedDimensionMismatch(mismatches[0])
        raise ValueError(f"not a representation up to weak homotopy: {self.problems[0]}")

    def berezinian_rep(self, sigma: Trivialization | None = None) -> LineRep:
        """The action on Berezinian lines, read off the harmonic blocks.

        ``a: x -> y`` acts by ``prod_i det(H^i(a))^(-1)^i`` times
        ``tau(y) / tau(x) * sigma(x) / sigma(y)`` (see
        :func:`berezinian_class`).  It needs no check: for ``h: x -> y``,
        ``g: y -> z`` the report certified ``H^i(g) H^i(h) = H^i(gh)``, so
        determinants multiply, and the ratios telescope, ``tau(z)/tau(y) *
        tau(y)/tau(x) = tau(z)/tau(x)``, likewise for sigma.  ``H(1) = I``
        makes units act by 1 and, as ``H(g) H(g^-1) = I``, every block
        invertible.
        """
        self._require_ok()
        sigma = sigma or Trivialization.ones()
        gpd, decs = self.rep.groupoid, self.decompositions
        action = {}
        for a, blocks in self.blocks.items():
            if a in self.identities:
                action[a] = _ONE
                continue
            x, y = gpd.src(a), gpd.tgt(a)
            action[a] = _class_berezinian(blocks, decs[x], decs[y], sigma(x), sigma(y))
        return LineRep._from_fractions(gpd, action)


def _dimension_mismatch(a: str, t: ChainMap) -> str | None:
    # The Berezinian of an arrow needs equal graded dimensions at its ends.
    for i in t.degrees():
        if t.source.dim(i) != t.target.dim(i):
            return (
                f"arrow '{a}' joins fibers of different dimension"
                f" in degree {i} ({t.source.dim(i)} vs {t.target.dim(i)})"
            )
    return None


def verify_ruth(r: RepUpToWeakHomotopy) -> RuthReport:
    """Check complexes, chain maps, unitality, and homotopy functoriality.

    Every arrow must also join fibers of equal graded dimension, which
    the Berezinian needs.  Reports the first failing law per object,
    arrow, or pair.  ``decompose`` refuses exactly the fibers that are no
    complex, and :func:`verify_complex` runs only to word a refusal; one
    change of basis per arrow and degree gives its chain-map verdict and
    harmonic blocks.  A pair ``(g, h)`` is homotopy functorial exactly
    when the harmonic blocks satisfy ``H^i(g) H^i(h) = H^i(gh)`` in every
    degree ``i``.  That is decided degree by degree, on the matrices
    ``{arrow: H^i(arrow)}`` of each degree where some block is nonempty
    (an arrow whose component lacks the degree acts there by a 0x0
    matrix): for all pairs at once through the groupoid's isotropy
    model, and pair by pair only when that check does not pass.  The
    failing pairs of all degrees are reported together, in
    ``composable_pairs()`` order.  Each step walks the fibers' supports,
    their nonzero degrees: a zero degree has empty blocks and takes part
    in no law.
    """
    report = RuthReport(r)
    gpd = r.groupoid
    decs = {}
    for x in gpd.objects:
        report.complex_checks[x] = ValidationReport()
        try:
            decs[x] = decompose(r.complexes[x])
        except ValueError:
            check = report.complex_checks[x] = verify_complex(r.complexes[x])
            report.add(f"complex of '{x}' is invalid: {check.problems[0]}")
    if not report.ok:
        return report
    blocks = {}
    for a in gpd.arrow_ids():
        t = r.action.get(a)
        if t is None:
            report.add(f"arrow '{a}' has no action")
            continue
        x, y = gpd.src(a), gpd.tgt(a)
        if t.source != r.complexes[x] or t.target != r.complexes[y]:
            report.add(f"action of arrow '{a}' joins the wrong fibers")
            continue
        if gpd.identity.get(x) == a and y == x and t.is_identity():
            report.identities.add(a)  # a chain map, joining equal fibers
            blocks[a] = {i: Matrix.identity(h) for i, h in decs[x].harmonic_dims.items()}
            continue
        problem, ms = _in_bases(t, decs[x], decs[y])
        mismatch = _dimension_mismatch(a, t)
        if problem is not None:
            report.add(f"action of arrow '{a}' is not a chain map: {problem}")
        elif mismatch is not None:
            report.add(mismatch)
        else:
            blocks[a] = _harmonic_part(ms, decs[x], decs[y])
    if not report.ok:
        return report
    for x in gpd.objects:
        u = gpd.unit(x)
        # the arrow loop found the identity units; any other is compared here
        found = u in report.identities and gpd.src(u) == x
        if not found and not (r(u).source == r.complexes[x] and r(u).is_identity()):
            report.add(f"unit of object '{x}' does not act by the identity")
    if not report.ok:
        return report
    report.decompositions, report.blocks = decs, blocks
    empty, failed = Matrix.zeros(0, 0), set()
    for i in sorted({i for b in blocks.values() for i, m in b.items() if m.rows and m.cols}):
        # an arrow whose component lacks degree i has an empty block there
        degree = {a: b.get(i, empty) for a, b in blocks.items()}
        failed.update(_failing_pairs(gpd, degree.__getitem__))
    failing = [pair for pair in gpd.composable_pairs() if pair in failed] if failed else []
    for g, h in failing:
        report.add(
            f"no homotopy between the composed actions of ('{g}', '{h}')"
            f" and the action of their composite"
        )
    report._failing = failing
    return report


def verify_rep(r: LineRep | VectorRep | RepUpToWeakHomotopy) -> ValidationReport:
    """The law check of ``r``'s kind, off which its class is read."""
    if isinstance(r, RepUpToWeakHomotopy):
        return verify_ruth(r)
    return verify_vector_rep(r) if isinstance(r, VectorRep) else verify_line_rep(r)


def decide_modular_class(
    r: LineRep | VectorRep | RepUpToWeakHomotopy,
    check: ValidationReport,
    sigma: Trivialization | None = None,
) -> tuple[LineRep, ClassReport]:
    """The line action of ``r`` and its class, read off ``r``'s law check.

    A homotopy rep acts on Berezinian lines with ``sigma`` folded in, a
    vector rep on determinant lines by the check's ``dets``, and a line rep
    is its own line; the check proved the action functorial and nonzero,
    so its cocycle needs no second check, and its values, ``Fraction``s
    already, are not read again.  A failed check raises ValueError with its first
    problem, or for a homotopy rep as :meth:`RuthReport.berezinian_rep`
    does: GradedDimensionMismatch for unequal graded dimensions, else
    ValueError with the first problem.
    """
    if isinstance(r, RepUpToWeakHomotopy):
        line, sigma = check.berezinian_rep(sigma), None
    elif not check.ok:
        raise ValueError(f"not a {r.kind} representation: {check.problems[0]}")
    elif isinstance(r, VectorRep):
        line = LineRep._from_fractions(r.groupoid, dict(check.dets))
    else:
        line = r
    return line, _solve_1(r.groupoid, _cocycle(line, sigma))


def modular_class(
    r: LineRep | VectorRep | RepUpToWeakHomotopy, sigma: Trivialization | None = None
) -> ClassReport:
    """The class of :func:`decide_modular_class`, after ``r``'s own law check."""
    return decide_modular_class(r, verify_rep(r), sigma)[1]
