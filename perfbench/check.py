"""Check a rendered report against what its document was built to give.

Expected values come from gen.py, never from modclass.  ``check`` returns
None for a correct report and a one-line reason otherwise.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from gen import Document, Request, det, from_json_matrix, mul

_RATIONAL = re.compile(r"^-?\d+(?:/\d+)?$")


def _class_problem(doc: Document, report: dict) -> str | None:
    cochain = {a: Fraction(v) for a, v in report["cochain"].items()}
    if cochain != doc.cochain:
        return "cocycle values differ from the constructed ones"
    if report["class"] != ("trivial" if doc.trivial else "nontrivial"):
        return f"class is {report['class']}"
    gpd = doc.gpd
    if doc.trivial:
        witness = {x: Fraction(v) for x, v in report["witness"].items()}
        if set(witness) != set(gpd.objects) or any(
            witness[s] / witness[t] != doc.cochain[a] for a, s, t in gpd.arrows
        ):
            return "witness does not recover the cocycle"
        return None
    obstructions = report["obstructions"]
    isotropy = 0
    for entry in obstructions:
        a, value = entry["arrow"], Fraction(entry["value"])
        if a not in gpd.index or value == 1:
            return f"bad obstruction {entry}"
        if gpd.src(a) == gpd.tgt(a):
            isotropy += 1
            if value != doc.cochain[a]:
                return f"obstruction at isotropy arrow {a} is not its cocycle value"
    if not isotropy:
        return "no isotropy arrow among the obstructions"
    return None


def _extra_fields(doc: Document, keys: set) -> str | None:
    expected = {"cochain", "class", "witness" if doc.trivial else "obstructions"}
    return None if keys == expected else f"unexpected fields {sorted(keys ^ expected)}"


def _replace_problem(doc: Document, arrow: str, components: dict) -> str | None:
    gpd = doc.gpd
    x, y = gpd.src(arrow), gpd.tgt(arrow)
    src, tgt = doc.fibers[x], doc.fibers[y]
    top = len(src["q"]) - 1
    if set(components) != {str(d) for d in range(top + 1)}:
        return "replacement has the wrong degrees"
    g = {d: from_json_matrix(components[str(d)]) for d in range(top + 1)}
    for d in range(top):
        if mul(tgt["diff"][d], g[d]) != mul(g[d + 1], src["diff"][d]):
            return f"replacement is not a chain map at degree {d}"
    ber = doc.sigma[x] / doc.sigma[y]
    for d in range(top + 1):
        value = det(g[d])
        if value == 0:
            return f"replacement is singular in degree {d}"
        ber = ber * value if d % 2 == 0 else ber / value
        # in the base coordinates the harmonic coordinates come first, and
        # the block they span is the map induced on cohomology
        h = doc.sizes["harmonic_dims"][d]
        base = mul(mul(tgt["q_inv"][d], g[d]), src["q"][d])
        if [row[:h] for row in base[:h]] != doc.harmonic[arrow][d]:
            return f"replacement is not homotopic to the action in degree {d}"
    if ber != doc.berezinian[arrow]:
        return "replacement has the wrong Berezinian"
    return None


def _problem(doc: Document, req: Request, report: dict) -> str | None:
    command = req.command
    if (report.get("command"), report.get("input"), report.get("ok")) != (
        command, doc.name + ".json", True,
    ):
        return "wrong command, input or ok field"
    keys = set(report) - {"command", "input", "ok"}
    if command == "modular-class":
        sections = {"groupoid": "ok", "rep": "ok"}
        if doc.kind == "homotopy":
            sections["complex"] = {x: "ok" for x in doc.gpd.objects}
        if report["sections"] != sections or report["rep_kind"] != doc.kind:
            return "wrong sections or rep_kind"
        ber = {a: Fraction(v) for a, v in report["berezinian"].items()}
        if ber != doc.berezinian:
            return "berezinian values differ from the constructed ones"
        return _class_problem(doc, report) or _extra_fields(
            doc, keys - {"sections", "rep_kind", "berezinian"}
        )
    if command == "cohomology":
        if report["is_cocycle"] is not True:
            return "cochain not recognised as a cocycle"
        return _class_problem(doc, report) or _extra_fields(doc, keys - {"is_cocycle"})
    if command == "berezinian":
        if keys != {"arrow", "value"} or report["arrow"] != req.arrow:
            return "wrong fields"
        if Fraction(report["value"]) != doc.berezinian[req.arrow]:
            return "wrong Berezinian"
        return None
    if command == "replace":
        if keys != {"arrow", "components"} or report["arrow"] != req.arrow:
            return "wrong fields"
        return _replace_problem(doc, req.arrow, report["components"])
    if command == "homotopy-check":
        if keys != {"pairs"}:
            return "wrong fields"
        pairs = report["pairs"]
        found = {(p["g"], p["h"], p["composite"]) for p in pairs}
        if len(pairs) != len(doc.gpd.compose) or found != {
            (g, h, k) for (g, h), k in doc.gpd.compose.items()
        }:
            return "pairs differ from the composable pairs"
        if any(p["certificate"] != "found" for p in pairs):
            return "a certificate is missing"
        return None
    return f"no check for command {command}"


def check(doc: Document, req: Request, code, text: str) -> str | None:
    """None if the report is right, otherwise why not."""
    if code != 0:
        return f"exit code {code}: {text[:200]}"
    try:
        report = json.loads(text)
        return _problem(doc, req, report)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"


def max_coeff_bits(text: str) -> int:
    """Largest numerator or denominator bit length among a report's rationals."""
    best = 0
    stack = [json.loads(text)]
    while stack:
        item = stack.pop()
        if isinstance(item, dict):
            stack.extend(item.values())
        elif isinstance(item, list):
            stack.extend(item)
        elif isinstance(item, str) and _RATIONAL.match(item):
            q = Fraction(item)
            best = max(best, q.numerator.bit_length(), q.denominator.bit_length())
    return best
