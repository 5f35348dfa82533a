"""Input documents: parsing, validation, and canonical serialization.

One self-contained JSON file describes a groupoid, optionally a complex
per object, a representation (scalars, matrices, or per-degree
matrices), a trivialization, and a degree-1 cochain.  Rationals travel
as "p" or "p/q" strings.  Every error message names the offending
identifier.  The on-disk format is documented by the JSON Schema
shipped at ``modclass/fixtures/schema.json``.
"""

from __future__ import annotations

import json
import re
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .complexes import ChainMap, ComplexFiber
from .groupoid import _NO_ROW, Cochain, FiniteGroupoid
from .linalg import Matrix, format_rational, parse_rational
from .reps import LineRep, RepUpToWeakHomotopy, Trivialization, VectorRep


class SchemaError(ValueError):
    """Collected structural problems with an input document."""

    def __init__(self, problems: list[str]):
        self.problems = problems
        super().__init__("; ".join(problems))


@dataclass(frozen=True)
class InputDocument:
    groupoid: FiniteGroupoid
    rep: LineRep | VectorRep | RepUpToWeakHomotopy | None
    sigma: Trivialization | None
    cochain: Cochain | None

    @property
    def rep_kind(self) -> str | None:
        return None if self.rep is None else self.rep.kind


# A degree of dimension n can still cost n x n entries: the differentials
# and components a document writes out and their eliminations, the factors
# ``decompose`` keeps (B and R together hold at most n x n), and the
# identity harmonic block of a unit.  So a complex section whose dim^2
# summed over every object and degree is larger is refused (exit 2) before
# any fiber is built; 2^22 is one degree of dimension 2,048.
COMPLEX_MAX_DIM_SQUARES = 2**22

# a degree key: ASCII digits after at most one sign, as fixtures/schema.json has it
_DEGREE_KEY = re.compile(r"[+-]?[0-9]+")


def _degree(key) -> int | None:
    """The degree a key names, or None when it is no plain integer string
    or is longer than Python's digit limit for ``int``."""
    if isinstance(key, str) and _DEGREE_KEY.fullmatch(key):
        try:
            return int(key)
        except ValueError:
            return None
    return None


def _strings(values) -> bool:
    return all(isinstance(v, str) for v in values)


class _Collector:
    def __init__(self):
        self.problems: list[str] = []

    def add(self, message: str) -> None:
        self.problems.append(message)

    def rational(self, raw, where: str) -> Fraction:
        try:
            return parse_rational(raw)
        except ValueError as exc:
            self.add(f"{where}: {exc}")
            return Fraction(1)

    def nonzero_rational(self, raw, where: str) -> Fraction:
        value = self.rational(raw, where)
        if value == 0:
            self.add(f"{where}: value must be nonzero")
            return Fraction(1)
        return value

    def scalars(self, raw, section: str, kind: str, known) -> dict[str, Fraction]:
        """The nonzero rationals of ``section``, keyed by ids of ``kind`` in ``known``."""
        values = {}
        for key, value in self.mapping(raw, f"{section} section").items():
            if key not in known:
                self.add(f"{section} section: unknown {kind} '{key}'")
                continue
            values[key] = self.nonzero_rational(value, f"{section} at {kind} '{key}'")
        return values

    def mapping(self, raw, where: str, of_strings: bool = False) -> dict:
        """``raw`` if it is a JSON object (of strings), else ``{}`` and a problem."""
        if isinstance(raw, dict) and (not of_strings or _strings(raw.values())):
            return raw
        kind = "an object of strings" if of_strings else "an object"
        self.add(f"{where}: expected {kind}")
        return {}

    def matrix(self, raw, where: str) -> Matrix | None:
        """The matrix ``raw`` writes out, or None and one problem when it is
        no list of equal rows: such a matrix takes part in no later check."""
        if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
            self.add(f"{where}: expected a list of rows")
            return None
        widths = {len(r) for r in raw}
        if len(widths) > 1:
            self.add(f"{where}: ragged rows")
            return None
        m, problems = Matrix._parse(raw, widths.pop() if widths else 0)
        for message in problems:
            self.add(f"{where}: {message}")
        return m

    def per_degree(
        self, raw: dict, where: str, label: str, bad_key: str, degrees: range | None, shape
    ) -> dict[int, Matrix]:
        """Matrices keyed by degree: ``raw[str(i)]`` of shape ``shape(i)``, for ``i`` in ``degrees``.

        ``label`` names an entry and ``bad_key`` a key that is no plain
        integer (:func:`_degree`);
        a ``shape(i)`` of None, or no ``degrees``, skips that check.  Where
        ``shape(i)`` has no rows, ``[]`` reads as that shape: JSON has no
        other spelling of a 0xN matrix.  Each rejected key adds one
        problem; so does a key naming a degree an earlier key named (``"1"``
        and ``"01"``).  A matrix :meth:`matrix` cannot read is not kept.
        """
        matrices, named = {}, {}
        for key, rows in raw.items():
            i = _degree(key)
            if i is None:
                self.add(f"{where}: {bad_key} {key!r}")
                continue
            if not self.first_key(named, i, key, f"{where}: {label}"):
                continue
            m = self.matrix(rows, f"{where}, {label} {i}")
            expected = shape(i)
            if m is not None and expected is not None and (m.rows, m.cols) != expected:
                if rows == [] and expected[0] == 0:
                    m = Matrix.zeros(0, expected[1])
                else:
                    self.add(
                        f"{where}, {label} {i}: shape {m.rows}x{m.cols},"
                        f" expected {expected[0]}x{expected[1]}"
                    )
                    continue
            if degrees is not None and i not in degrees:
                self.add(
                    f"{where}: {label} {key!r} is outside degrees"
                    f" [{degrees.start}, {degrees.stop - 1}]"
                )
                continue
            if m is not None:
                matrices[i] = m
        return matrices

    def first_key(self, named: dict, i: int, key: str, what: str) -> bool:
        """Record ``key`` as naming degree ``i``; False and a problem if another key did."""
        first = named.setdefault(i, key)
        if first != key:
            self.add(f"{what} {key!r} names degree {i}, as {first!r} does")
            return False
        return True

    def finish(self) -> None:
        if self.problems:
            raise SchemaError(self.problems)


def _parse_groupoid(raw, col: _Collector) -> FiniteGroupoid:
    if not isinstance(raw, dict):
        raise SchemaError(["groupoid: expected an object"])
    objects = raw.get("objects")
    arrows_raw = raw.get("arrows")
    if not isinstance(objects, list) or not objects or not _strings(objects):
        col.add("groupoid: missing or empty 'objects' list of strings")
        objects = []
    for x, count in Counter(objects).items():
        if count > 1:
            col.add(f"groupoid: object '{x}' is listed more than once")
    if not isinstance(arrows_raw, list):
        col.add("groupoid: missing 'arrows' list")
        arrows_raw = []
    arrows = []
    for entry in arrows_raw:
        fields = entry if isinstance(entry, dict) else {}
        arrow = (fields.get("id"), fields.get("src"), fields.get("tgt"))
        if not _strings(arrow):
            col.add(f"groupoid: arrow entry {entry!r} needs string 'id', 'src', 'tgt'")
            continue
        arrows.append(arrow)
    # each id to the arrow's own string: a compose entry whose three members
    # it finds is stored with these, so every later lookup of the table's
    # entries meets identical strings.  An entry whose first member equals
    # the current row's first arrow, a known id, costs two lookups, of its
    # other members; any other entry costs one for each of its three.
    arrow_ids = {a: a for a, _, _ in arrows}
    canonical = arrow_ids.get
    object_set = set(objects)
    for a, s, t in arrows:
        if s not in object_set:
            col.add(f"arrow '{a}': unknown source object '{s}'")
        if t not in object_set:
            col.add(f"arrow '{a}': unknown target object '{t}'")
    identity = col.mapping(raw.get("identity", {}), "identity table", of_strings=True)
    inverse = col.mapping(raw.get("inverse", {}), "inverse table", of_strings=True)
    for x, a in identity.items():
        if x not in object_set:
            col.add(f"identity table: unknown object '{x}'")
        if a not in arrow_ids:
            col.add(f"identity of '{x}': unknown arrow '{a}'")
    for a, b in inverse.items():
        for side in (a, b):
            if side not in arrow_ids:
                col.add(f"inverse table: unknown arrow '{side}'")
    # the table goes straight into FiniteGroupoid's rows, {g: {h: gh}}
    rows: dict[str, dict[str, str]] = {}
    row, last, interleaved, malformed = None, None, False, 0
    current = _NO_ROW  # ``last`` while it is a known arrow id
    compose = raw.get("compose", [])
    if not isinstance(compose, list):
        col.add("compose table: expected a list")
        compose = []
    for entry in compose:
        # a lawful entry goes straight to its row; any other (no triple, an
        # unknown or unhashable member) is worded by the checks below
        # first, and stored if it is a triple of strings
        cg = None
        if type(entry) is list:
            try:
                g, h, gh = entry
                if g == current:
                    row[arrow_ids[h]] = arrow_ids[gh]
                    continue
                cg, ch, cgh = canonical(g), canonical(h), canonical(gh)
            except (ValueError, KeyError, TypeError):
                pass
        if cg is None or ch is None or cgh is None:
            if not (isinstance(entry, list) and len(entry) == 3 and _strings(entry)):
                col.add(f"compose table: entry {entry!r} is not a [g, h, gh] triple")
                malformed += 1
                continue
            g, h, gh = entry
            for side in entry:
                if side not in arrow_ids:
                    col.add(f"compose table: unknown arrow '{side}'")
            cg, ch, cgh = canonical(g) or g, canonical(h) or h, canonical(gh) or gh
        if cg is not last:
            # a new row; or back to an earlier one, and then the rows
            # alone no longer give the table's order
            last, seen = cg, rows.get(cg)
            current = cg if cg in arrow_ids else _NO_ROW
            if seen is None:
                row = rows[cg] = {}
            elif seen is not row:
                row, interleaved = seen, True
        row[ch] = cgh
    if interleaved or sum(map(len, rows.values())) < len(compose) - malformed:
        # the stored pairs, each by its first position in the table
        listed = Counter(
            (e[0], e[1]) for e in compose if isinstance(e, list) and len(e) == 3 and _strings(e)
        )
        # a pair listed more than once: name each such pair, in table order
        for (g, h), count in listed.items():
            if count > 1:
                col.add(f"compose table: pair ('{g}', '{h}') is listed more than once")
    order = None
    if interleaved:
        order = [(canonical(g) or g, canonical(h) or h) for g, h in listed]
    return FiniteGroupoid._from_rows(objects, arrows, identity, inverse, rows, order)


def _parse_complexes(raw, gpd: FiniteGroupoid, col: _Collector) -> dict[str, ComplexFiber]:
    specs, squares = {}, 0
    raw = col.mapping(raw, "complex section")
    known = set(gpd.objects)
    for obj in raw:
        if obj not in known:
            col.add(f"complex section: unknown object '{obj}'")
    for obj in gpd.objects:
        spec = raw.get(obj)
        if spec is None:
            col.add(f"complex section: object '{obj}' has no complex")
            continue
        seen = len(col.problems)
        spec = col.mapping(spec, f"complex of '{obj}'")
        degrees = spec.get("degrees")
        if not (isinstance(degrees, list) and len(degrees) == 2) or not all(
            type(d) is int for d in degrees
        ):
            col.add(f"complex of '{obj}': 'degrees' must be [min, max]")
            continue
        d_min, d_max = degrees
        dims, named = {}, {}
        raw_dims = col.mapping(spec.get("dims", {}), f"complex of '{obj}', dims")
        for key, value in raw_dims.items():
            # type, not isinstance: JSON true is a bool, and a bool is an int
            if type(value) is not int or value < 0:
                col.add(f"complex of '{obj}': dimension {key!r} must be a non-negative integer")
                continue
            i = _degree(key)
            if i is None:
                col.add(f"complex of '{obj}': bad dimension entry {key!r}")
                continue
            if not col.first_key(named, i, key, f"complex of '{obj}': dimension"):
                continue
            # an empty range is reported once, below
            if d_min <= d_max and not d_min <= i <= d_max:
                col.add(
                    f"complex of '{obj}': dimension {key!r} is outside degrees [{d_min}, {d_max}]"
                )
                continue
            dims[i] = value
        squares += sum(n * n for n in dims.values())
        if squares > COMPLEX_MAX_DIM_SQUARES:
            col.add(
                "complex section: the sum of squared dimensions over all objects"
                f" and degrees exceeds {COMPLEX_MAX_DIM_SQUARES}"
            )
            return {}
        # shapes checked against dims missing a rejected entry would add
        # a second, spurious problem
        dims_rejected = len(col.problems) > seen
        differentials = col.mapping(
            spec.get("differentials", {}), f"complex of '{obj}', differentials"
        )
        diffs = col.per_degree(
            differentials,
            f"complex of '{obj}'",
            "differential",
            "bad differential degree",
            range(d_min, d_max + 1) if d_min <= d_max else None,
            lambda i: None if dims_rejected else (dims.get(i + 1, 0), dims.get(i, 0)),
        )
        if d_min > d_max:
            col.add(f"complex of '{obj}': empty degree range")
        # the fiber of a spec with a problem would meet unchecked shapes
        if len(col.problems) == seen:
            specs[obj] = d_min, d_max, dims, diffs
    return {obj: ComplexFiber(*spec) for obj, spec in specs.items()}


def _parse_rep(raw, gpd, fibers, col: _Collector):
    raw = col.mapping(raw, "rep section")
    missing = [a for a in gpd.arrow_ids() if a not in raw]
    for a in missing:
        col.add(f"rep section: arrow '{a}' has no action")
    known = set(gpd.arrow_ids())
    for a in raw:
        if a not in known:
            col.add(f"rep section: unknown arrow '{a}'")
    if col.problems:
        return None
    kinds = {
        "scalar" if isinstance(v, str) else "chain" if isinstance(v, dict) else "matrix"
        for v in raw.values()
    }
    if len(kinds) != 1:
        col.add("rep section: mixed scalar/matrix/per-degree actions")
        return None
    kind = kinds.pop()

    if fibers is not None:
        if kind != "chain":
            col.add(
                "rep section: a document with a complex section needs"
                " per-degree matrices for every arrow"
            )
            return None
        action = {}
        for a in gpd.arrow_ids():
            src, tgt = fibers[gpd.src(a)], fibers[gpd.tgt(a)]
            comps = col.per_degree(
                raw[a],
                f"rep of arrow '{a}'",
                "degree",
                "bad degree",
                range(min(src.d_min, tgt.d_min), max(src.d_max, tgt.d_max) + 1),
                lambda i: (tgt.dim(i), src.dim(i)),
            )
            action[a] = ChainMap(src, tgt, comps)
        return RepUpToWeakHomotopy(gpd, fibers, action)

    if kind == "chain":
        col.add("rep section: per-degree matrices given but no complex section")
        return None
    if kind == "scalar":
        action = {
            a: col.nonzero_rational(raw[a], f"rep of arrow '{a}'")
            for a in gpd.arrow_ids()
        }
        return LineRep._from_fractions(gpd, action)

    matrices = {a: col.matrix(raw[a], f"rep of arrow '{a}'") for a in gpd.arrow_ids()}
    dims: dict[str, int] = {}
    for a in gpd.arrow_ids():
        m = matrices[a]
        if m is None:
            continue
        # a square loop's two ends are one check
        for obj, size in dict.fromkeys(((gpd.src(a), m.cols), (gpd.tgt(a), m.rows))):
            if obj in dims and dims[obj] != size:
                col.add(
                    f"rep of arrow '{a}': shape implies dimension {size} at"
                    f" object '{obj}' but {dims[obj]} was already implied"
                )
            else:
                dims[obj] = size
    for obj in gpd.objects:
        dims.setdefault(obj, 0)
    return VectorRep(gpd, dims, matrices)


def parse_data(data: dict) -> InputDocument:
    """Build a document from decoded JSON, or raise SchemaError."""
    col = _Collector()
    if not isinstance(data, dict):
        raise SchemaError(["top level must be a JSON object"])
    if "groupoid" not in data:
        raise SchemaError(["missing 'groupoid' section"])
    gpd = _parse_groupoid(data["groupoid"], col)
    col.finish()

    fibers = None
    if "complex" in data:
        fibers = _parse_complexes(data["complex"], gpd, col)
        col.finish()

    rep = None
    if "rep" in data:
        rep = _parse_rep(data["rep"], gpd, fibers, col)
    elif fibers is not None:
        col.add("complex section given but no rep section")

    sigma = None
    if "sigma" in data:
        scales = col.scalars(data["sigma"], "sigma", "object", set(gpd.objects))
        if not col.problems:
            sigma = Trivialization(scales)

    cochain = None
    if "cochain" in data:
        values = col.scalars(data["cochain"], "cochain", "arrow", set(gpd.arrow_ids()))
        for a in gpd.arrow_ids():
            if a not in values:
                col.add(f"cochain section: arrow '{a}' has no value")
        if not col.problems:
            cochain = Cochain._from_fractions(1, {(a,): v for a, v in values.items()})

    col.finish()
    return InputDocument(gpd, rep, sigma, cochain)


def _unique_keys(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object's pairs as a dict; ValueError if a key is repeated."""
    data = {}
    for key, value in pairs:
        if key in data:
            raise ValueError(f"repeated key {key!r}")
        data[key] = value
    return data


def parse(path: str) -> InputDocument:
    """Read and validate an input file; OSError when it cannot be opened."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle, object_pairs_hook=_unique_keys)
        except (ValueError, RecursionError) as exc:  # also bytes that are not UTF-8
            raise SchemaError([f"not valid JSON: {exc}"]) from exc
    return parse_data(data)


def serialize(doc: InputDocument) -> dict:
    """Canonical JSON-able form; parse(serialize(doc)) == doc."""
    gpd = doc.groupoid
    data: dict = {
        "groupoid": {
            "objects": list(gpd.objects),
            "arrows": [{"id": a, "src": s, "tgt": t} for a, s, t in gpd.arrows],
            "identity": dict(sorted(gpd.identity.items())),
            "inverse": dict(sorted(gpd.inverse.items())),
            "compose": [
                [g, h, k] for (g, h), k in sorted(gpd.composition.items())
            ],
        }
    }
    rep = doc.rep
    if isinstance(rep, RepUpToWeakHomotopy):
        data["complex"] = {
            obj: {
                "degrees": [fiber.d_min, fiber.d_max],
                "dims": {str(i): n for i, n in fiber.dims.items()},
                "differentials": {
                    str(i): d.to_strings() for i, d in fiber.differentials.items()
                },
            }
            for obj, fiber in sorted(rep.complexes.items())
        }
        # a component into a zero degree is 0xN and zero: it is left out,
        # as the parser reads a missing degree (or a [] there) as that zero
        data["rep"] = {
            a: {
                str(i): rep(a).component(i).to_strings()
                for i in rep(a).source.dims
                if rep(a).target.dim(i)
            }
            for a in gpd.arrow_ids()
        }
    elif isinstance(rep, VectorRep):
        data["rep"] = {a: rep(a).to_strings() for a in gpd.arrow_ids()}
    elif isinstance(rep, LineRep):
        data["rep"] = {a: format_rational(rep(a)) for a in gpd.arrow_ids()}
    if doc.sigma is not None:
        data["sigma"] = {
            obj: format_rational(v) for obj, v in sorted(doc.sigma.scales.items())
        }
    if doc.cochain is not None:
        data["cochain"] = {
            key[0]: format_rational(v) for key, v in sorted(doc.cochain.values.items())
        }
    return data
