"""Command-line front end.

Commands: validate, cohomology, modular-class, berezinian, replace,
homotopy-check.  Exit codes: 0 success (a nontrivial class is a result,
not an error), 1 when a groupoid/complex/representation law fails, 2 on
usage or schema errors.  Reports go to stdout, either human-readable
text or canonical JSON (stable key order, so identical input and flags
give byte-identical output); elapsed time goes to stderr to keep stdout
reproducible.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass, field
from json.encoder import encode_basestring_ascii as _quote

from .complexes import ValidationReport, berezinian_class, invertible_replacement
from .groupoid import ClassReport, NotACocycle, coboundary_solve_1, validate as validate_groupoid
from .linalg import format_rational
from .reps import (
    RepUpToWeakHomotopy,
    Trivialization,
    VectorRep,
    decide_modular_class,
    strict_as_homotopy,
    verify_rep,
    verify_ruth,
)
from .schema import InputDocument, SchemaError, parse

# ``replace`` writes one component per degree of the arrow's source range,
# zero degrees included; a wider range is refused (exit 2) before any work.
REPLACE_MAX_DEGREES = 10_000


@dataclass
class ReportDocument:
    """Everything a command wants to say, ready for rendering."""

    command: str
    input: str
    ok: bool = True
    fields: dict = field(default_factory=dict)
    elapsed_ms: float = 0.0

    def to_json(self) -> str:
        payload = {"command": self.command, "input": self.input, "ok": self.ok}
        payload.update(self.fields)
        out: list[str] = []
        _write_json(payload, "\n", out)
        out.append("\n")
        return "".join(out)

    def to_text(self) -> str:
        lines = [f"command: {self.command}", f"input: {self.input}"]
        for key, value in self.fields.items():
            lines.extend(_text_lines(key, value))
        lines.append(f"status: {'ok' if self.ok else 'failed'}")
        return "\n".join(lines) + "\n"


def _write_json(value, newline: str, out: list[str]) -> None:
    """Append ``value`` to ``out`` as ``json.dumps(value, sort_keys=True, indent=2)``
    writes it, nested below ``newline`` (a newline and its indent).

    With ``indent`` set, ``json.dumps`` runs json's pure-Python encoder;
    this writer does its work in fewer calls.  Strings go through the
    function ``json.dumps`` itself uses, other scalars through
    ``json.dumps``, and a tuple is written as a list.  Keys must be
    strings: a report has no other.
    """
    if isinstance(value, str):
        out.append(_quote(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = newline + "  "
        separator = "{" + inner
        for key, item in sorted(value.items()):
            out.append(f"{separator}{_quote(key)}: ")
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = newline + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            _write_json(item, inner, out)
            separator = "," + inner
        out.append(newline + "]")
    else:
        out.append(json.dumps(value))


def _text_lines(key, value, indent: str = "") -> list[str]:
    if isinstance(value, dict):
        lines = [f"{indent}{key}:"]
        for k, v in value.items():
            lines.extend(_text_lines(k, v, indent + "  "))
        return lines
    if isinstance(value, list):
        lines = [f"{indent}{key}:"]
        for item in value:
            if isinstance(item, dict):
                rendered = ", ".join(f"{k}={v}" for k, v in item.items())
            elif isinstance(item, list):
                rendered = "[" + " ".join(str(x) for x in item) + "]"
            else:
                rendered = str(item)
            lines.append(f"{indent}  - {rendered}")
        return lines
    return [f"{indent}{key}: {value}"]


def _class_fields(report: ClassReport) -> dict:
    fields = {
        "cochain": {key[0]: format_rational(v) for key, v in sorted(report.cocycle.values.items())},
        "class": "trivial" if report.is_coboundary else "nontrivial",
    }
    if report.witness is not None:
        fields["witness"] = {
            obj: format_rational(v) for obj, v in sorted(report.witness.values.items())
        }
    else:
        fields["obstructions"] = [
            {"arrow": a, "value": format_rational(v)} for a, v in report.obstructions
        ]
    return fields


def _validate_document(doc: InputDocument, report: ReportDocument) -> ValidationReport:
    """Write the law checks' sections and status into ``report``.

    Returns the last check made: the rep's once the groupoid passes.
    """
    check = validate_groupoid(doc.groupoid)
    sections = report.fields["sections"] = {"groupoid": check.problems or "ok"}
    # the complex and rep laws read the unit and composition tables
    if check.ok and doc.rep is not None:
        check = verify_rep(doc.rep)
        complexes_ok = True
        if isinstance(doc.rep, RepUpToWeakHomotopy):
            complex_checks = sorted(check.complex_checks.items())
            sections["complex"] = {x: c.problems or "ok" for x, c in complex_checks}
            complexes_ok = all(c.ok for _, c in complex_checks)
        if complexes_ok:
            sections["rep"] = check.problems or "ok"
    report.ok = check.ok
    return check


def _cmd_validate(doc: InputDocument, args, report: ReportDocument) -> int:
    return 0 if _validate_document(doc, report).ok else 1


def _groupoid_fails(doc: InputDocument, report: ReportDocument) -> bool:
    """Report the groupoid's law failures, which the later checks cannot survive."""
    gpd_report = validate_groupoid(doc.groupoid)
    if not gpd_report.ok:
        report.fields["sections"] = {"groupoid": gpd_report.problems}
        report.ok = False
    return not gpd_report.ok


def _cmd_cohomology(doc: InputDocument, args, report: ReportDocument) -> int:
    if doc.cochain is None:
        raise SchemaError(["'cohomology' needs a cochain section"])
    if _groupoid_fails(doc, report):
        return 1
    try:
        solved = coboundary_solve_1(doc.groupoid, doc.cochain)
    except NotACocycle:
        report.fields["is_cocycle"] = False
        report.ok = False
        return 1
    report.fields["is_cocycle"] = True
    report.fields.update(_class_fields(solved))
    return 0


def _require_rep(doc: InputDocument):
    if doc.rep is None:
        raise SchemaError(["this command needs a rep section"])
    return doc.rep


def _cmd_modular_class(doc: InputDocument, args, report: ReportDocument) -> int:
    rep = _require_rep(doc)
    check = _validate_document(doc, report)
    if not check.ok:
        return 1
    report.fields["rep_kind"] = doc.rep_kind
    line, solved = decide_modular_class(rep, check, doc.sigma)
    report.fields["berezinian"] = {a: format_rational(v) for a, v in sorted(line.action.items())}
    report.fields.update(_class_fields(solved))
    return 0


def _homotopy_rep(doc: InputDocument, command: str) -> RepUpToWeakHomotopy:
    """The document's rep up to homotopy: a vector rep sits in degree 0."""
    rep = _require_rep(doc)
    if isinstance(rep, VectorRep):
        return strict_as_homotopy(rep)
    if not isinstance(rep, RepUpToWeakHomotopy):
        raise SchemaError([f"{command} needs matrix or per-degree actions"])
    return rep


def _arrow_chain_map(doc: InputDocument, arrow: str):
    _require_rep(doc)
    if arrow not in doc.groupoid.arrow_ids():
        raise SchemaError([f"unknown arrow '{arrow}'"])
    return _homotopy_rep(doc, "this command")(arrow)


def _cmd_berezinian(doc: InputDocument, args, report: ReportDocument) -> int:
    t = _arrow_chain_map(doc, args.arrow)
    sigma = doc.sigma or Trivialization.ones()
    gpd = doc.groupoid
    try:
        value = berezinian_class(t, sigma(gpd.src(args.arrow)), sigma(gpd.tgt(args.arrow)))
    except ValueError as exc:
        # covers dimension mismatches, non-equivalences, and non-chain-maps
        report.fields["error"] = str(exc)
        report.ok = False
        return 1
    report.fields["arrow"] = args.arrow
    report.fields["value"] = format_rational(value)
    return 0


def _cmd_replace(doc: InputDocument, args, report: ReportDocument) -> int:
    t = _arrow_chain_map(doc, args.arrow)
    lo, hi = t.source.d_min, t.source.d_max
    if hi - lo >= REPLACE_MAX_DEGREES:
        raise SchemaError([
            f"arrow '{args.arrow}' has source degrees {lo} to {hi}; replace writes"
            f" one component per degree, at most {REPLACE_MAX_DEGREES}"
        ])
    try:
        g = invertible_replacement(t)
    except ValueError as exc:
        report.fields["error"] = str(exc)
        report.ok = False
        return 1
    report.fields["arrow"] = args.arrow
    report.fields["components"] = {str(i): g.component(i).to_strings() for i in g.source.degrees()}
    return 0


def _cmd_homotopy_check(doc: InputDocument, args, report: ReportDocument) -> int:
    rep = _homotopy_rep(doc, "'homotopy-check'")
    if _groupoid_fails(doc, report):
        return 1
    check = verify_ruth(rep)
    certificates, pairs = check.certificates, []
    for g, h in rep.groupoid.composable_pairs():
        found = (g, h) in certificates
        pairs.append(
            {
                "g": g,
                "h": h,
                "composite": rep.groupoid.compose(g, h),
                "certificate": "found" if found else "missing",
            }
        )
    report.fields["pairs"] = pairs
    if not check.ok:
        report.fields["problems"] = check.problems
        report.ok = False
        return 1
    return 0


_COMMANDS = {
    "validate": (_cmd_validate, False),
    "cohomology": (_cmd_cohomology, False),
    "modular-class": (_cmd_modular_class, False),
    "berezinian": (_cmd_berezinian, True),
    "replace": (_cmd_replace, True),
    "homotopy-check": (_cmd_homotopy_check, False),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="modclass",
        description="Modular classes of finite groupoid representations,"
        " in exact rational arithmetic.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, needs_arrow) in _COMMANDS.items():
        cmd = sub.add_parser(name)
        cmd.add_argument("input", help="path to a JSON input document")
        cmd.add_argument(
            "--format", choices=("text", "json"), default="text", dest="fmt"
        )
        if needs_arrow:
            cmd.add_argument("--arrow", required=True, help="arrow identifier")
    return parser


def run(command: str, doc: InputDocument, args) -> tuple[ReportDocument, int]:
    """Dispatch a parsed document to a command implementation."""
    report = ReportDocument(command=command, input=args.input)
    handler = _COMMANDS[command][0]
    started = time.perf_counter()
    code = handler(doc, args, report)
    report.elapsed_ms = (time.perf_counter() - started) * 1000.0
    return report, code


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        report, code = run(args.command, parse(args.input), args)
    except FileNotFoundError:
        print(f"error: no such file: {args.input}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: cannot read {args.input}: {exc.strerror}", file=sys.stderr)
        return 2
    except SchemaError as exc:
        for problem in exc.problems:
            print(f"error: {problem}", file=sys.stderr)
        return 2
    except ValueError as exc:
        # the fields hold the report's rationals as strings; Python refuses
        # to write an integer longer than its limit
        if not str(exc).startswith("Exceeds the limit ("):
            raise
        limit = sys.get_int_max_str_digits()
        print(f"error: a result has more than {limit} digits", file=sys.stderr)
        return 2
    sys.stdout.write(report.to_json() if args.fmt == "json" else report.to_text())
    print(f"elapsed: {report.elapsed_ms:.1f} ms", file=sys.stderr)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
