"""Finite groupoids and their multiplicative cochain complex.

A finite groupoid is stored by its tables: objects, arrows with source
and target, the unit arrow of each object, the inverse of each arrow,
and the composition table (defined exactly on composable pairs; the
composite ``g * h`` requires ``src(g) == tgt(h)``, so ``h`` acts
first).  The composition table is kept as one row per first arrow,
``{g: {h: gh}}``, so that a lookup or a pass over the table makes no
pair.

Cochains take values in the multiplicative group of nonzero rationals:
a degree-k cochain assigns a nonzero scalar to every composable k-tuple
(to every object when k = 0), the coboundary of a degree-0 cochain
takes quotients, and "vanishing" means being identically 1.  Degree-1 classes
are handled concretely, as a cocycle plus a triviality decision with a
witness or an obstruction list; triviality is decided by propagating a
potential along a spanning forest of the object graph and checking the
leftover arrows, which over a single object reduces to checking that
the cocycle is identically 1 on the isotropy group.

The groupoid laws and functoriality (of a cocycle here, of line and
vector actions in ``reps``, and of a homotopy action's harmonic blocks,
one cohomology degree at a time) are decided through the isotropy
model: a connected groupoid is the pair groupoid on its objects twisted
by its isotropy group (Brandt 1927; Higgins, *Categories and Groupoids*,
1971).  So associativity follows from one injectivity check per arrow
and the isotropy group's own multiplication table, and ``phi(gh) =
phi(g) phi(h)`` on every pair from one check per arrow along a spanning
tree and that same table.  When a table has no such model, or a check
fails, the pair and triple scans decide and word every problem.  The
values of one functoriality check are all rational scalars or all
``Matrix``es, and its arithmetic is picked once for them; a certificate
of matrices can hand back every arrow's determinant, read off the
model.  No other module reads the model.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from fractions import Fraction
from numbers import Rational
from operator import eq, mul
from typing import Iterable, Mapping, Sequence

from .complexes import ValidationReport
from .linalg import Matrix, _exact, det

_ONE = Fraction(1)  # one shared 1: a Fraction is immutable
_NO_ROW = object()  # the first arrow before any row: equal to no arrow id


class FiniteGroupoid:
    """Objects, arrows, and the unit/inverse/composition tables.

    The composition table is stored as rows keyed by the first arrow:
    ``_rows[g][h]`` is ``g * h``, rows in the order their first arrows
    first appear in the table, and each row's entries in the order their
    second arrows first appear in it.  ``composition`` is the flat view
    ``{(g, h): gh}``, built when read, in table order: a repeated pair
    keeps its first position and its last value, as in a dict filled
    entry by entry.  When each row's entries are contiguous in the table
    (as in :func:`schema.serialize`'s output and in every builder's
    table) the rows give that order; only an interleaved table keeps it
    in ``_order``, its distinct pairs by first position.

    ``_into`` indexes the arrows by target, each list in arrow order, so
    that the arrows composable after a given one are read off directly.
    ``_model`` holds the isotropy model once :func:`_model_of` has built
    it, so that one request builds it once.  Both are derived from the
    tables as constructed.
    """

    __slots__ = ("objects", "arrows", "identity", "inverse", "_rows", "_order",
                 "_src", "_tgt", "_arrow_ids", "_into", "_model")

    def __init__(
        self,
        objects: Sequence[str],
        arrows: Sequence[tuple[str, str, str]],
        identity: Mapping[str, str],
        inverse: Mapping[str, str],
        composition: Mapping[tuple[str, str], str],
    ):
        rows: dict[str, dict[str, str]] = {}
        runs, last = 0, _NO_ROW
        for (g, h), gh in composition.items():
            if g != last:
                runs, last = runs + 1, g
            rows.setdefault(g, {})[h] = gh
        order = list(composition) if runs > len(rows) else None
        self._init(objects, arrows, identity, inverse, rows, order)

    @classmethod
    def _from_rows(cls, objects, arrows, identity, inverse, rows, order) -> "FiniteGroupoid":
        """A groupoid on rows built by the caller, as ``_rows`` and
        ``_order`` are described above; they are stored, not copied."""
        gpd = cls.__new__(cls)
        gpd._init(objects, arrows, identity, inverse, rows, order)
        return gpd

    def _init(self, objects, arrows, identity, inverse, rows, order) -> None:
        self.objects = list(objects)
        self.arrows = [(a, s, t) for a, s, t in arrows]
        self.identity = dict(identity)
        self.inverse = dict(inverse)
        self._rows = rows
        self._order = order
        self._src = {a: s for a, s, t in self.arrows}
        self._tgt = {a: t for a, s, t in self.arrows}
        self._arrow_ids = [a for a, _, _ in self.arrows]
        self._into: dict[str, list[str]] = {}
        for a in self._arrow_ids:
            self._into.setdefault(self._tgt[a], []).append(a)
        self._model = None  # (model,) once built: the model itself may be None

    def arrow_ids(self) -> list[str]:
        return list(self._arrow_ids)

    def src(self, arrow: str) -> str:
        return self._src[arrow]

    def tgt(self, arrow: str) -> str:
        return self._tgt[arrow]

    def unit(self, obj: str) -> str:
        return self.identity[obj]

    def inv(self, arrow: str) -> str:
        return self.inverse[arrow]

    def compose(self, g: str, h: str) -> str:
        """The composite ``g * h`` (h first); KeyError if not composable."""
        return self._rows[g][h]

    @property
    def composition(self) -> dict[tuple[str, str], str]:
        """The table as a new flat dict ``{(g, h): gh}``, in table order."""
        rows = self._rows
        if self._order is not None:
            return {(g, h): rows[g][h] for g, h in self._order}
        return {(g, h): gh for g, row in rows.items() for h, gh in row.items()}

    def composable_pairs(self) -> list[tuple[str, str]]:
        """Pairs ``(g, h)`` with ``src(g) == tgt(h)``, by ``g`` then ``h`` in arrow order."""
        return [(g, h) for g in self._arrow_ids for h in self._into.get(self._src[g], ())]

    def __eq__(self, other) -> bool:
        if not isinstance(other, FiniteGroupoid):
            return NotImplemented
        return (
            self.objects == other.objects
            and self.arrows == other.arrows
            and self.identity == other.identity
            and self.inverse == other.inverse
            and self._rows == other._rows  # as the flat tables: order aside
        )

    def __repr__(self) -> str:
        return (
            f"FiniteGroupoid({len(self.objects)} objects,"
            f" {len(self.arrows)} arrows)"
        )


@dataclass(frozen=True)
class Cochain:
    """A nonzero-rational valued function on composable tuples.

    Keys are object identifiers in degree 0 and k-tuples of arrow
    identifiers in degree k >= 1.
    """

    degree: int
    values: dict

    def __post_init__(self):
        coerced = {}
        for key, value in self.values.items():
            value = _exact(value, "cochain values")
            if not value:
                raise ValueError(f"cochain value at {key!r} is zero")
            coerced[key] = value
        object.__setattr__(self, "values", coerced)

    @classmethod
    def _from_fractions(cls, degree: int, values: dict) -> "Cochain":
        """A cochain on ``values``, stored as given: nonzero ``Fraction``s
        the caller built, which are not read again."""
        phi = cls.__new__(cls)
        object.__setattr__(phi, "degree", degree)
        object.__setattr__(phi, "values", values)
        return phi

    def __call__(self, *args) -> Fraction:
        if self.degree == 0:
            (obj,) = args
            return self.values[obj]
        if len(args) == 1 and isinstance(args[0], tuple):
            return self.values[args[0]]
        return self.values[tuple(args)]

    def pointwise(self, other: "Cochain", op) -> "Cochain":
        if self.degree != other.degree or set(self.values) != set(other.values):
            raise ValueError("cochains live on different domains")
        return Cochain(
            self.degree, {k: op(v, other.values[k]) for k, v in self.values.items()}
        )

    def __mul__(self, other: "Cochain") -> "Cochain":
        return self.pointwise(other, lambda a, b: a * b)

    def __truediv__(self, other: "Cochain") -> "Cochain":
        return self.pointwise(other, lambda a, b: a / b)

    def is_one(self) -> bool:
        return all(v == 1 for v in self.values.values())

    @classmethod
    def constant(cls, degree: int, keys: Iterable, value=1) -> "Cochain":
        v = _exact(value, "cochain values")
        if v == 0:
            raise ValueError("cochain values must be nonzero")
        return cls(degree, {k: v for k in keys})


class NotACocycle(ValueError):
    """A degree-1 cochain handed to the class solver is not a cocycle."""


@dataclass
class ClassReport:
    """A degree-1 cocycle together with its triviality decision.

    When ``is_coboundary`` holds, ``witness`` is a degree-0 cochain f
    with (delta f)(g) = f(src g)/f(tgt g) equal to the cocycle on every
    arrow.  Otherwise ``obstructions`` lists the arrows where the
    spanning-forest potential fails, with the defect ratio at each.
    """

    cocycle: Cochain
    is_coboundary: bool
    witness: Cochain | None = None
    obstructions: list[tuple[str, Fraction]] = field(default_factory=list)


def validate(gpd: FiniteGroupoid) -> ValidationReport:
    """Check the groupoid laws, reporting each violation.

    The identifiers, endpoints, units, inverses and the unit and inverse
    laws are checked arrow by arrow.  The isotropy model proves the
    composition table's domain and closure in one pass over the table,
    and :func:`_is_associative` certifies associativity through it.  A
    table without a model has its domain checked by :func:`_check_domain`
    and is scanned pair by pair for closure; one the certificate does not
    pass is scanned triple by triple for associativity.  Only these
    checks and scans word the domain, closure and associativity problems.
    """
    report = ValidationReport()
    ids = gpd.arrow_ids()
    id_set = set(ids)
    if len(id_set) != len(ids):
        report.add("duplicate arrow identifiers")
        return report
    obj_set = set(gpd.objects)
    for a, s, t in gpd.arrows:
        if s not in obj_set or t not in obj_set:
            report.add(f"arrow '{a}' has unknown endpoint")
    for x in gpd.objects:
        u = gpd.identity.get(x)
        if u is None or u not in id_set:
            report.add(f"object '{x}' has no unit arrow")
        elif not (gpd.src(u) == x and gpd.tgt(u) == x):
            report.add(f"unit '{u}' of object '{x}' is not an endomorphism of it")
    for a in ids:
        if gpd.inverse.get(a) not in id_set:
            report.add(f"arrow '{a}' has no inverse")
    if not report.ok:
        return report

    model = _model_of(gpd)  # a model proves the table's domain and closure
    if model is None:
        _check_domain(gpd, report)
        if not report.ok:
            return report
        _scan_closure(gpd, id_set, report)
        if not report.ok:
            return report

    rows, unit, inverse = gpd._rows, gpd.identity, gpd.inverse
    src, tgt = gpd._src, gpd._tgt
    for a in ids:
        s, t = src[a], tgt[a]
        row = rows[a]
        if rows[unit[t]][a] != a:
            report.add(f"left unit law fails for arrow '{a}'")
        if row[unit[s]] != a:
            report.add(f"right unit law fails for arrow '{a}'")
        b = inverse[a]
        if src[b] != t or tgt[b] != s:
            report.add(f"inverse of '{a}' has wrong endpoints")
        else:
            if row[b] != unit[t]:
                report.add(f"inverse law fails: '{a}' * '{b}' is not a unit")
            if rows[b][a] != unit[s]:
                report.add(f"inverse law fails: '{b}' * '{a}' is not a unit")

    if not _is_associative(gpd, model):
        _scan_associativity(gpd, report)
    return report


def _check_domain(gpd: FiniteGroupoid, report: ValidationReport) -> None:
    """Word each key of the table that is no composable pair, in table
    order, then each composable pair it misses, in pair order.

    The composable keys are distinct, so when they are as many as the
    composable pairs none is missing, and the pairs are never listed.
    """
    table, src, tgt = gpd.composition, gpd._src, gpd._tgt
    composable = len(table)
    for g, h in table:
        s = src.get(g)
        if s is None or s != tgt.get(h):
            report.add(f"composition table defines non-composable pair ('{g}', '{h}')")
            composable -= 1
    if composable != _pair_count(gpd):
        for g, h in gpd.composable_pairs():
            if (g, h) not in table:
                report.add(f"composable pair ('{g}', '{h}') missing from composition table")


def _pair_count(gpd: FiniteGroupoid) -> int:
    """``len(gpd.composable_pairs())``, without listing them."""
    into, src = gpd._into, gpd._src
    return sum(len(into.get(src[g], ())) for g in gpd._arrow_ids)


def _scan_closure(gpd: FiniteGroupoid, id_set: set, report: ValidationReport) -> None:
    # the table's keys, once its domain is known to be the composable pairs
    for g, h in sorted(gpd.composition):
        gh = gpd.compose(g, h)
        if gh not in id_set:
            report.add(f"composite of ('{g}', '{h}') is an unknown arrow")
        elif gpd.src(gh) != gpd.src(h) or gpd.tgt(gh) != gpd.tgt(g):
            report.add(f"composite '{gh}' of ('{g}', '{h}') has wrong endpoints")


def _scan_associativity(gpd: FiniteGroupoid, report: ValidationReport) -> None:
    for g, h in gpd.composable_pairs():
        gh = gpd.compose(g, h)
        for k in gpd._into[gpd.src(h)]:
            if gpd.compose(gh, k) != gpd.compose(g, gpd.compose(h, k)):
                report.add(f"associativity fails on ('{g}', '{h}', '{k}')")


def coboundary(gpd: FiniteGroupoid, f: Cochain) -> Cochain:
    """Multiplicative coboundary of a degree-0 cochain: (delta f)(g) = f(src g) / f(tgt g)."""
    if f.degree != 0:
        raise ValueError("expected a degree-0 cochain")
    return Cochain(1, {(a,): f(s) / f(t) for a, s, t in gpd.arrows})


def is_cocycle_1(gpd: FiniteGroupoid, phi: Cochain) -> bool:
    """True iff phi(g) * phi(h) = phi(g*h) for all composable g, h.

    Decided through the isotropy model (``_is_functorial``); a table
    without one, or a cochain it rejects, is scanned pair by pair.
    Raises ValueError naming the first arrow, in arrow order, where
    ``phi`` has no value.
    """
    if phi.degree != 1:
        raise ValueError("expected a degree-1 cochain")
    values = phi.values
    missing = next((a for a in gpd.arrow_ids() if (a,) not in values), None)
    if missing is not None:
        raise ValueError(f"cochain has no value on arrow '{missing}'")
    return not _failing_pairs(gpd, lambda a: values[(a,)])


def _components(gpd: FiniteGroupoid) -> list[list[str]]:
    # Connected components of the object graph, in order of their first
    # objects.  Each is listed breadth first over sorted neighbours from
    # that object, its base: callers rely on ``component[0]`` alone.
    neighbours: dict[str, set[str]] = {x: set() for x in gpd.objects}
    for a, s, t in gpd.arrows:
        neighbours[s].add(t)
        neighbours[t].add(s)
    seen: set[str] = set()
    components = []
    for root in gpd.objects:
        if root in seen:
            continue
        comp = []
        queue = deque([root])
        seen.add(root)
        while queue:
            x = queue.popleft()
            comp.append(x)
            for y in sorted(neighbours[x]):
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        components.append(comp)
    return components


def _isotropy_model(gpd: FiniteGroupoid):
    """Spanning trees and isotropy coordinates, or None when the table has none.

    Each component's first object is its base ``b``; the tree arrow
    ``t_x: b -> x`` is the first arrow from ``b`` to ``x`` (``t_b`` the
    unit of ``b``), and ``k(a) = (t_y^-1 a) t_x`` for ``a: x -> y``.  The
    model is returned as ``(tree, k, isotropy)``, ``isotropy`` listing
    the loops at each base, only when every ``k(a)`` is a loop at its
    base and the table is defined exactly on the composable pairs, each
    ``(g, h)`` with ``gh: src h -> tgt g`` and ``k(gh) = k(g) k(h)``:
    table lookups only, no arithmetic.  As many entries as composable
    pairs, each one composable, is that domain, so the pairs are never
    listed; the entries are counted by the rows' lengths.  What each
    arrow brings to an entry is gathered once, before the pass over the
    table: its ends, ``k(a)``, and the row of ``k(a)`` in its base's
    multiplication table.  The table is then read row by row, and an
    entry ``(h, gh)`` of ``g``'s row is checked by the ends and ``k`` of
    ``h`` and of ``gh``.

    Most rows are certified without an entry check.  When every key ``h``
    of ``g``'s row ends at ``src g``, the row's class is ``(tgt g, k(g))``
    and the ``(src h, k(h))`` list of its keys in row order.  Lemma: a row
    holding, in order, the composites of a row of its class that passes
    the entry check passes it too.  Proof: position by position the keys
    have the same source and ``k`` and the first arrows the same target
    and ``k``, so each entry asks the same of the same composite.  So the
    first row of each class is checked entry by entry, and each other row
    of it is compared with that row as one tuple of composites.  A row
    whose tuple differs (twin arrows with equal coordinates may still
    pass) and a row in no class fall through to the entry check.  The
    keys' one target and ``(src h, k(h))`` list are found once per
    distinct tuple of keys.
    """
    try:
        tree: dict[str, str] = {}
        base: dict[str, str] = {}
        for component in _components(gpd):
            b = component[0]
            base.update((x, b) for x in component)
            tree[b] = gpd.identity[b]
        for a, s, t in gpd.arrows:
            if s == base[s] and t not in tree:
                tree[t] = a
        rows, inverse, src, tgt = gpd._rows, gpd.inverse, gpd._src, gpd._tgt
        k = {a: rows[rows[inverse[tree[t]]][a]][tree[s]] for a, s, t in gpd.arrows}
        isotropy: dict[str, list[str]] = {b: [] for b in tree if base[b] == b}
        for a, s, t in gpd.arrows:
            b = base[s]
            if src[k[a]] != b or tgt[k[a]] != b:
                return None
            if s == t == b:
                isotropy[b].append(a)
        if sum(map(len, rows.values())) != _pair_count(gpd):
            return None
        times = {p: {q: rows[p][q] for q in loops} for loops in isotropy.values() for p in loops}
        ends = {a: (s, t, k[a], times[k[a]]) for a, s, t in gpd.arrows}
        keyed: dict[tuple, tuple] = {}  # a row's keys -> (their one target or None, list id)
        lists: dict[tuple, int] = {}  # a (src h, k(h)) list -> its id
        first: dict[tuple, tuple] = {}  # a class -> the composites of its first row
        for g, row in rows.items():
            s_g, t_g, k_g, k_g_times = ends[g]
            keys = tuple(row)
            known = keyed.get(keys)
            if known is None:
                targets = {tgt[h] for h in keys}
                listed = tuple([(src[h], k[h]) for h in keys])
                known = keyed[keys] = (
                    targets.pop() if len(targets) == 1 else None,
                    lists.setdefault(listed, len(lists)),
                )
            target, listed_id = known
            if target == s_g:
                composites = tuple(row.values())
                kept = first.setdefault((t_g, k_g, listed_id), composites)
                if kept is not composites and kept == composites:
                    continue
            for h, gh in row.items():
                s_h, t_h, k_h, _ = ends[h]
                s_gh, t_gh, k_gh, _ = ends[gh]
                if s_g != t_h or s_gh != s_h or t_gh != t_g or k_gh != k_g_times[k_h]:
                    return None
    except KeyError:
        return None
    return tree, k, isotropy


def _model_of(gpd: FiniteGroupoid):
    """``_isotropy_model(gpd)``, built on first use and kept on ``gpd``."""
    if gpd._model is None:
        gpd._model = (_isotropy_model(gpd),)
    return gpd._model[0]


def _is_associative(gpd: FiniteGroupoid, model) -> bool:
    """True only if ``(gh)l == g(hl)`` on every composable triple.

    ``model`` is ``_isotropy_model(gpd)`` of a table whose domain is the
    composable pairs; with its coordinates ``k`` and isotropy groups
    ``G_b``, the checks are

    (I) ``Phi: a -> (tgt a, k(a), src a)`` is injective;
    (G) ``(pq)r == p(qr)`` for all ``p, q, r`` in each ``G_b``.

    Proof that they suffice.  The model puts every composite ``gh`` on
    ``src h -> tgt g`` with ``k(gh) = k(g) k(h)`` in ``G_b``.  Take
    ``l: w -> x``, ``h: x -> y`` and ``g: y -> z``.  Then ``g(hl)`` and
    ``(gh)l`` both run ``w -> z``, with ``k(g(hl)) = k(g) (k(h) k(l))``
    and ``k((gh)l) = (k(g) k(h)) k(l)``, equal by (G).  So ``Phi`` takes
    the same value on both, and by (I) they are the same arrow.

    Costs one lookup per arrow and ``|G_b|^3`` per base.  A lawful table
    passes: ``a = t_y k(a) t_x^-1`` makes ``Phi`` injective.  False (no
    model, or a failed check) decides nothing: the caller then scans the
    triples.
    """
    if model is None:
        return False
    _, k, isotropy = model
    src, tgt, rows = gpd._src, gpd._tgt, gpd._rows
    if len({(tgt[a], k[a], src[a]) for a in gpd._arrow_ids}) != len(gpd._arrow_ids):
        return False
    for loops in isotropy.values():
        for p in loops:
            row_p = rows[p]
            for q in loops:
                row_pq, row_q = rows[row_p[q]], rows[q]
                for r in loops:
                    if row_pq[r] != row_p[row_q[r]]:
                        return False
    return True


def _mul_parts(u, v):
    # Scalars as (numerator, denominator): the product, not reduced.
    return u[0] * v[0], u[1] * v[1]


def _equal_parts(u, v) -> bool:
    return u[0] * v[1] == v[0] * u[1]


def _product_equals_parts(u, v, w) -> bool:
    # Scalars as (numerator, denominator): u v == w by cross-multiplication.
    return u[0] * v[0] * w[1] == w[0] * u[1] * v[1]


def _is_functorial(gpd: FiniteGroupoid, phi, dets: dict | None = None) -> bool:
    """True only if ``phi(g) phi(h) == phi(gh)`` on every composable pair.

    ``phi`` maps every arrow to a rational scalar, or every arrow to a
    ``Matrix`` (a homotopy action's harmonic blocks are checked one
    degree at a time, by ``reps.verify_ruth``); any other mix is not
    certified.  The values are read once and the arithmetic picked once:
    scalars are multiplied and compared as integer numerators and
    denominators, so no ``Fraction`` is made, and matrices through
    ``Matrix`` itself.  With the model of ``_isotropy_model`` (trees
    ``t_x``, with ``t_b = e_b`` the unit at each base ``b``, coordinates
    ``k`` and isotropy groups ``G_b``), the checks are

    (U) every ``phi(e_b)`` is the identity (1, or an identity matrix),
        and every loop in ``G_b`` takes a value of its shape;
    (T) every ``phi(t_x)`` off a base is invertible (nonzero, or square
        with a nonzero determinant);
    (A) ``phi(a) phi(t_x) == phi(t_y) phi(k(a))`` for every ``a: x -> y``,
        with no product by ``phi(t_b)``;
    (G) ``phi(p) phi(q) == phi(pq)`` for all ``p, q`` in each ``G_b``,
        read as ``pq == q`` when ``p = e_b`` and ``pq == p`` when ``q =
        e_b``, by table lookup.

    Proof that they suffice.  By (U) ``phi(t_b) = phi(e_b)`` is an
    identity ``I`` and every loop's value has its shape, so ``I`` leaves
    each product with a loop's value unchanged: the lookups of (G) stand
    for its products by ``I``.  The model puts each ``k(a)`` in ``G_b``,
    so (A) for ``t_x: b -> x`` makes the invertible ``phi(t_x)`` of
    ``I``'s size, and (A) for every other arrow gives its value that size
    too; so the products by ``I`` that (A) skips change nothing, and (T)
    holds at the bases.  By (T) and (A), ``phi(a) = phi(t_y) phi(k(a))
    phi(t_x)^-1`` for every arrow.
    Take ``h: x -> y`` and ``g: y -> z``.  Then ``phi(g) phi(h) = phi(t_z)
    phi(k(g)) phi(t_y)^-1 phi(t_y) phi(k(h)) phi(t_x)^-1 = phi(t_z)
    phi(k(g)) phi(k(h)) phi(t_x)^-1``.  The model puts ``k(g)`` and
    ``k(h)`` in ``G_b`` with ``k(g) k(h) = k(gh)``, so by (G) the middle
    is ``phi(k(gh))``; and ``gh: x -> z``, so (A) for ``gh`` makes the
    whole ``phi(gh)``.

    Given ``dets``, a certificate also writes there every arrow's
    determinant (a scalar's is itself), in arrow order: by (A), ``det
    phi(a) = det phi(t_y) det phi(k(a)) / det phi(t_x)``, multiplied out
    on integer parts into one ``Fraction``.  A loop's determinant 0
    (the model does not prove that the loops form a group) is no
    certificate.  Nothing is written unless the answer is True.

    Costs one determinant per tree arrow off the bases, one product per
    distinct ``(y, k(a))`` off the bases, one comparison per arrow, and
    ``(|G_b| - 1)^2`` comparisons of a product per base: over one object,
    the products of the non-unit loops alone.  (A) and (G) build no
    product: a matrix's is compared with ``Matrix.product_equals``, a
    scalar's by cross-multiplication.  ``dets`` adds one determinant per
    isotropy loop.  False (no model, a failed check, a missing value,
    mixed or mismatched values) decides nothing: the caller then scans
    the pairs.
    """
    model = _model_of(gpd)
    if model is None:
        return False
    tree, k, isotropy = model
    rows = gpd._rows
    try:
        values = {a: phi(a) for a in gpd._arrow_ids}
        if all(isinstance(v, Matrix) for v in values.values()):
            phi = values
            for b, loops in isotropy.items():
                e = phi[tree[b]]
                if not e.is_identity() or any(
                    (phi[p].rows, phi[p].cols) != (e.rows, e.cols) for p in loops
                ):
                    return False

            def det_parts(a):
                d = det(values[a])  # a ValueError when not square
                return d.numerator, d.denominator

            times, equal, product_equals = mul, eq, Matrix.product_equals
        elif all(isinstance(v, Rational) for v in values.values()):
            phi = {a: (v.numerator, v.denominator) for a, v in values.items()}
            if any(phi[tree[b]] != (1, 1) for b in isotropy):
                return False
            det_parts = phi.__getitem__  # a scalar is its own determinant
            times, equal, product_equals = _mul_parts, _equal_parts, _product_equals_parts
        else:
            return False
        # (T) on the tree off the bases
        parts = {a: det_parts(a) for x, a in tree.items() if x not in isotropy}
        if any(n == 0 for n, _ in parts.values()):
            return False
        at = {x: phi[a] for x, a in tree.items() if x not in isotropy}
        moved: dict[tuple[str, str], object] = {}  # phi(t_y) phi(k) by (y, k)
        for a, s, t in gpd.arrows:
            key = (t, k[a])
            if key not in moved:
                value = phi[k[a]]
                moved[key] = times(at[t], value) if t in at else value
            value, target = phi[a], moved[key]
            if not (product_equals(value, at[s], target) if s in at else equal(value, target)):
                return False
        for b, loops in isotropy.items():
            e = tree[b]
            for p in loops:
                row_p = rows[p]
                for q in loops:
                    if p == e or q == e:
                        if row_p[q] != (q if p == e else p):
                            return False
                    elif not product_equals(phi[p], phi[q], phi[row_p[q]]):
                        return False
        if dets is not None:
            parts.update((p, det_parts(p)) for loops in isotropy.values() for p in loops)
            if any(n == 0 for n, _ in parts.values()):
                return False
            at = {x: parts[a] for x, a in tree.items()}
            for a, s, t in gpd.arrows:
                (y_num, y_den), (k_num, k_den), (x_num, x_den) = at[t], parts[k[a]], at[s]
                dets[a] = Fraction(y_num * k_num * x_den, y_den * k_den * x_num)
    except (KeyError, ValueError):
        return False
    return True


def _failing_pairs(gpd: FiniteGroupoid, phi) -> list[tuple[str, str]]:
    """The composable pairs with ``phi(g) phi(h) != phi(gh)``, in pair order.

    ``[]`` at once when :func:`_is_functorial` certifies ``phi``;
    otherwise every pair is multiplied out, so each failure can be
    reported.  ``phi`` is as for :func:`_is_functorial`.
    """
    if _is_functorial(gpd, phi):
        return []
    return _scan_pairs(gpd, phi)


def _scan_pairs(gpd: FiniteGroupoid, phi) -> list[tuple[str, str]]:
    """:func:`_failing_pairs` with every pair multiplied out: for a caller
    that has already asked :func:`_is_functorial`."""
    return [
        (g, h)
        for g, h in gpd.composable_pairs()
        if phi(g) * phi(h) != phi(gpd.compose(g, h))
    ]


def coboundary_solve_1(gpd: FiniteGroupoid, phi: Cochain) -> ClassReport:
    """Decide whether a degree-1 cocycle is a coboundary.

    A potential f is propagated breadth-first along a spanning forest of
    the object graph (arrows usable in both directions, roots at the
    first object of each component, f = 1 there) using f(src g) =
    phi(g) f(tgt g); every arrow is then re-checked against the
    potential.  Arrows that fail are returned as obstructions together
    with the defect ratio phi(g) f(tgt g) / f(src g); the cocycle is a
    coboundary exactly when there are none.
    """
    if not is_cocycle_1(gpd, phi):
        raise NotACocycle("input cochain is not a cocycle")
    return _solve_1(gpd, phi)


def _solve_1(gpd: FiniteGroupoid, phi: Cochain) -> ClassReport:
    """:func:`coboundary_solve_1` for a phi already known to be a cocycle.

    Only the potential is multiplied in ``Fraction``s, once per tree arrow.
    Each arrow's defect is compared with 1 on integer numerators and
    denominators, and a ``Fraction`` is made only for an obstruction's.
    """
    values = phi.values
    # Arrows between distinct objects, listed at both ends in arrow order;
    # loops never extend the forest.
    incident: dict[str, list[tuple[str, str, str]]] = {x: [] for x in gpd.objects}
    for arrow in gpd.arrows:
        _, s, t = arrow
        if s != t:
            incident[s].append(arrow)
            incident[t].append(arrow)
    f: dict[str, Fraction] = {}
    for root in gpd.objects:
        if root in f:
            continue
        f[root] = _ONE
        frontier = deque([root])
        while frontier:
            u = frontier.popleft()
            for a, s, t in incident[u]:
                if t == u and s not in f:
                    f[s] = values[(a,)] * f[u]
                    frontier.append(s)
                elif s == u and t not in f:
                    f[t] = f[u] / values[(a,)]
                    frontier.append(t)
    parts = {x: (v.numerator, v.denominator) for x, v in f.items()}
    obstructions = []
    for a, s, t in gpd.arrows:
        # the defect phi(a) f(t) / f(s), as p / q
        v, (t_num, t_den), (s_num, s_den) = values[(a,)], parts[t], parts[s]
        p, q = v.numerator * t_num * s_den, v.denominator * t_den * s_num
        if p != q:
            obstructions.append((a, Fraction(p, q)))
    if obstructions:
        return ClassReport(phi, False, None, obstructions)
    return ClassReport(phi, True, Cochain._from_fractions(0, f), [])


# ---------------------------------------------------------------------------
# Builders.  A connected finite groupoid is a pair groupoid over its objects
# twisted by an isotropy group, so these cover everything up to isomorphism.


@dataclass(frozen=True)
class GroupTable:
    """A finite group given by explicit tables."""

    elements: tuple[str, ...]
    unit: str
    multiply: dict[tuple[str, str], str]
    invert: dict[str, str]

    @classmethod
    def cyclic(cls, n: int) -> "GroupTable":
        elements = tuple(f"r{k}" if k else "e" for k in range(n))
        mul = {
            (elements[a], elements[b]): elements[(a + b) % n]
            for a in range(n)
            for b in range(n)
        }
        inv = {elements[a]: elements[(-a) % n] for a in range(n)}
        return cls(elements, "e", mul, inv)

    @classmethod
    def symmetric_3(cls) -> "GroupTable":
        from itertools import permutations

        perms = sorted(permutations(range(3)))
        name = {p: "s" + "".join(str(v) for v in p) for p in perms}
        mul = {}
        inv = {}
        for p in perms:
            for q in perms:
                composite = tuple(p[q[i]] for i in range(3))
                mul[(name[p], name[q])] = name[composite]
            inv[name[p]] = name[tuple(sorted(range(3), key=lambda i: p[i]))]
        return cls(tuple(name[p] for p in perms), name[(0, 1, 2)], mul, inv)


def connected_groupoid(objects: Sequence[str], group: GroupTable) -> FiniteGroupoid:
    """The groupoid with the given objects and isotropy group.

    Arrows are ``(element, source, target)`` triples named
    ``"{element}:{source}>{target}"``; composition multiplies the group
    parts and chains the endpoints.
    """
    def name(k: str, s: str, t: str) -> str:
        return f"{k}:{s}>{t}"

    arrows = [
        (name(k, s, t), s, t) for s in objects for t in objects for k in group.elements
    ]
    identity = {x: name(group.unit, x, x) for x in objects}
    inverse = {
        name(k, s, t): name(group.invert[k], t, s)
        for s in objects
        for t in objects
        for k in group.elements
    }
    composition = {}
    for s in objects:
        for mid in objects:
            for t in objects:
                for k1 in group.elements:
                    for k2 in group.elements:
                        g = name(k2, mid, t)
                        h = name(k1, s, mid)
                        composition[(g, h)] = name(group.multiply[(k2, k1)], s, t)
    return FiniteGroupoid(list(objects), arrows, identity, inverse, composition)


def cyclic_groupoid(n: int, obj: str = "*") -> FiniteGroupoid:
    """The cyclic group of order n viewed as a one-object groupoid."""
    return connected_groupoid([obj], GroupTable.cyclic(n))


def pair_groupoid(objects: Sequence[str]) -> FiniteGroupoid:
    """Exactly one arrow between any two objects."""
    return connected_groupoid(objects, GroupTable.cyclic(1))


def action_groupoid(perms: Iterable[tuple[int, ...]], n_points: int) -> FiniteGroupoid:
    """The action groupoid of a permutation group on ``{0, ..., n-1}``.

    ``perms`` must be closed under composition and inverses.  The arrow
    for (p, x) goes from x to p(x) and is named ``"p{digits}@{x}"``.
    """
    perms = sorted(set(perms))
    objects = [str(x) for x in range(n_points)]

    def name(p: tuple[int, ...], x: int) -> str:
        return "p" + "".join(str(v) for v in p) + f"@{x}"

    arrows = [(name(p, x), str(x), str(p[x])) for p in perms for x in range(n_points)]
    unit = tuple(range(n_points))
    identity = {str(x): name(unit, x) for x in range(n_points)}
    inverse = {}
    composition = {}
    for p in perms:
        p_inv = tuple(sorted(range(n_points), key=lambda i: p[i]))
        for x in range(n_points):
            inverse[name(p, x)] = name(p_inv, p[x])
    for p in perms:
        for q in perms:
            pq = tuple(p[q[i]] for i in range(n_points))
            for x in range(n_points):
                # g = (p, q(x)) after h = (q, x)
                composition[(name(p, q[x]), name(q, x))] = name(pq, x)
    return FiniteGroupoid(objects, arrows, identity, inverse, composition)


def disjoint_union(*groupoids: FiniteGroupoid) -> FiniteGroupoid:
    """Disjoint union, with identifiers prefixed by the piece index."""
    objects: list[str] = []
    arrows: list[tuple[str, str, str]] = []
    identity: dict[str, str] = {}
    inverse: dict[str, str] = {}
    composition: dict[tuple[str, str], str] = {}
    for idx, gpd in enumerate(groupoids):
        tag = f"c{idx}."
        objects.extend(tag + x for x in gpd.objects)
        arrows.extend((tag + a, tag + s, tag + t) for a, s, t in gpd.arrows)
        identity.update({tag + x: tag + a for x, a in gpd.identity.items()})
        inverse.update({tag + a: tag + b for a, b in gpd.inverse.items()})
        composition.update(
            {(tag + g, tag + h): tag + k for (g, h), k in gpd.composition.items()}
        )
    return FiniteGroupoid(objects, arrows, identity, inverse, composition)
