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
from dataclasses import dataclass
from fractions import Fraction

from .complexes import ChainMap, ComplexFiber
from .groupoid import Cochain, FiniteGroupoid
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
        if isinstance(self.rep, RepUpToWeakHomotopy):
            return "homotopy"
        if isinstance(self.rep, VectorRep):
            return "vector"
        if isinstance(self.rep, LineRep):
            return "line"
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

    def mapping(self, raw, where: str, of_strings: bool = False) -> dict:
        """``raw`` if it is a JSON object (of strings), else ``{}`` and a problem."""
        if isinstance(raw, dict) and (not of_strings or _strings(raw.values())):
            return raw
        kind = "an object of strings" if of_strings else "an object"
        self.add(f"{where}: expected {kind}")
        return {}

    def matrix(self, raw, where: str) -> Matrix:
        if not isinstance(raw, list) or not all(isinstance(r, list) for r in raw):
            self.add(f"{where}: expected a list of rows")
            return Matrix.zeros(0, 0)
        widths = {len(r) for r in raw}
        if len(widths) > 1:
            self.add(f"{where}: ragged rows")
            return Matrix.zeros(0, 0)
        return Matrix(
            [[self.rational(x, where) for x in row] for row in raw],
            cols=widths.pop() if widths else 0,
        )

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
    arrow_ids = {a for a, _, _ in arrows}
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
    composition = {}
    compose = raw.get("compose", [])
    if not isinstance(compose, list):
        col.add("compose table: expected a list")
        compose = []
    for entry in compose:
        if not (isinstance(entry, list) and len(entry) == 3 and _strings(entry)):
            col.add(f"compose table: entry {entry!r} is not a [g, h, gh] triple")
            continue
        g, h, gh = entry
        for side in (g, h, gh):
            if side not in arrow_ids:
                col.add(f"compose table: unknown arrow '{side}'")
        composition[(g, h)] = gh
    return FiniteGroupoid(objects, arrows, identity, inverse, composition)


def _parse_complexes(raw, gpd: FiniteGroupoid, col: _Collector) -> dict[str, ComplexFiber]:
    fibers = {}
    raw = col.mapping(raw, "complex section")
    for obj in raw:
        if obj not in set(gpd.objects):
            col.add(f"complex section: unknown object '{obj}'")
    for obj in gpd.objects:
        spec = raw.get(obj)
        if spec is None:
            col.add(f"complex section: object '{obj}' has no complex")
            continue
        spec = col.mapping(spec, f"complex of '{obj}'")
        degrees = spec.get("degrees")
        if not (isinstance(degrees, list) and len(degrees) == 2) or not all(
            type(d) is int for d in degrees
        ):
            col.add(f"complex of '{obj}': 'degrees' must be [min, max]")
            continue
        d_min, d_max = degrees
        dims = {}
        raw_dims = col.mapping(spec.get("dims", {}), f"complex of '{obj}', dims")
        for key, value in raw_dims.items():
            # type, not isinstance: JSON true is a bool, and a bool is an int
            if type(value) is not int or value < 0:
                col.add(f"complex of '{obj}': dimension {key!r} must be a non-negative integer")
                continue
            try:
                dims[int(key)] = value
            except ValueError:
                col.add(f"complex of '{obj}': bad dimension entry {key!r}")
        diffs = {}
        differentials = col.mapping(
            spec.get("differentials", {}), f"complex of '{obj}', differentials"
        )
        for key, rows in differentials.items():
            try:
                i = int(key)
            except ValueError:
                col.add(f"complex of '{obj}': bad differential degree {key!r}")
                continue
            m = col.matrix(rows, f"complex of '{obj}', differential {i}")
            expected = (dims.get(i + 1, 0), dims.get(i, 0))
            if (m.rows, m.cols) != expected:
                col.add(
                    f"complex of '{obj}', differential {i}: shape"
                    f" {m.rows}x{m.cols}, expected {expected[0]}x{expected[1]}"
                )
                continue
            diffs[i] = m
        if d_min > d_max:
            col.add(f"complex of '{obj}': empty degree range")
            continue
        fibers[obj] = ComplexFiber(d_min, d_max, dims, diffs)
    return fibers


def _parse_rep(raw, gpd, fibers, col: _Collector):
    raw = col.mapping(raw, "rep section")
    missing = [a for a in gpd.arrow_ids() if a not in raw]
    for a in missing:
        col.add(f"rep section: arrow '{a}' has no action")
    for a in raw:
        if a not in set(gpd.arrow_ids()):
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
            src, tgt = fibers.get(gpd.src(a)), fibers.get(gpd.tgt(a))
            if src is None or tgt is None:
                return None
            comps = {}
            for key, rows in raw[a].items():
                try:
                    i = int(key)
                except ValueError:
                    col.add(f"rep of arrow '{a}': bad degree {key!r}")
                    continue
                m = col.matrix(rows, f"rep of arrow '{a}', degree {i}")
                expected = (tgt.dim(i), src.dim(i))
                if (m.rows, m.cols) != expected:
                    col.add(
                        f"rep of arrow '{a}', degree {i}: shape {m.rows}x{m.cols},"
                        f" expected {expected[0]}x{expected[1]}"
                    )
                    continue
                comps[i] = m
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
        return LineRep(gpd, action)

    matrices = {a: col.matrix(raw[a], f"rep of arrow '{a}'") for a in gpd.arrow_ids()}
    dims: dict[str, int] = {}
    for a in gpd.arrow_ids():
        m = matrices[a]
        for obj, size in ((gpd.src(a), m.cols), (gpd.tgt(a), m.rows)):
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
    if col.problems:
        col.finish()

    fibers = None
    if "complex" in data:
        fibers = _parse_complexes(data["complex"], gpd, col)
        if col.problems:
            col.finish()

    rep = None
    if "rep" in data:
        rep = _parse_rep(data["rep"], gpd, fibers, col)
    elif fibers is not None:
        col.add("complex section given but no rep section")

    sigma = None
    if "sigma" in data:
        scales = {}
        for obj, raw in col.mapping(data["sigma"], "sigma section").items():
            if obj not in set(gpd.objects):
                col.add(f"sigma section: unknown object '{obj}'")
                continue
            scales[obj] = col.nonzero_rational(raw, f"sigma at object '{obj}'")
        if not col.problems:
            sigma = Trivialization(scales)

    cochain = None
    if "cochain" in data:
        values = {}
        for a, raw in col.mapping(data["cochain"], "cochain section").items():
            if a not in set(gpd.arrow_ids()):
                col.add(f"cochain section: unknown arrow '{a}'")
                continue
            values[(a,)] = col.nonzero_rational(raw, f"cochain at arrow '{a}'")
        for a in gpd.arrow_ids():
            if (a,) not in values:
                col.add(f"cochain section: arrow '{a}' has no value")
        if not col.problems:
            cochain = Cochain(1, values)

    col.finish()
    return InputDocument(gpd, rep, sigma, cochain)


def parse(path: str) -> InputDocument:
    """Read and validate an input file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as exc:
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
                "dims": {str(i): fiber.dim(i) for i in fiber.degrees()},
                "differentials": {
                    str(i): _matrix_json(fiber.differential(i))
                    for i in fiber.degrees()
                    if not fiber.differential(i).is_zero()
                },
            }
            for obj, fiber in sorted(rep.complexes.items())
        }
        data["rep"] = {
            a: {
                str(i): _matrix_json(rep(a).component(i))
                for i in rep(a).source.degrees()
            }
            for a in gpd.arrow_ids()
        }
    elif isinstance(rep, VectorRep):
        data["rep"] = {a: _matrix_json(rep(a)) for a in gpd.arrow_ids()}
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


def _matrix_json(m: Matrix) -> list[list[str]]:
    return [[format_rational(x) for x in row] for row in m.to_lists()]
