"""The document boundary: matrices read in bulk, reports written without json's encoder.

``Matrix._parse`` reads a matrix of well-formed "p/q" strings with one
check of its joined text (``linalg._plain_parts``); any other matrix is
read entry by entry (``linalg._entry_parts``), the one path that words
a problem.  The reference reads each entry with ``parse_rational``.
``ReportDocument.to_json`` writes its payload with ``cli._write_json``;
the reference is ``json.dumps(payload, sort_keys=True, indent=2)``.
Outputs must agree exactly, order included.
"""

import argparse
import json
import json.encoder
import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import modclass
from modclass import InputDocument, Matrix, SchemaError, cli, parse, parse_data, serialize
from modclass import linalg as linalg_module
from modclass.cli import _write_json
from modclass.linalg import _entry_parts, _plain_parts, parse_rational
from randgen import rand_ruth, standard_fixtures

FIXTURES = pathlib.Path(modclass.__file__).parent / "fixtures"
DATA = pathlib.Path(__file__).parent / "data"
COMMANDS = ["validate", "cohomology", "modular-class", "berezinian", "replace", "homotopy-check"]

WELL_FORMED = ["+5", "-0", "007", "3/4", "0", "-12/18", "+0/7", "00/01", str(10**4299)]
MALFORMED = [
    "1/0", "5/", "/5", "1/+2", "1/-2", "1/00",
    " 5", "٣", "３", "1_000", "1,2", "", "-", "1/2/3", "+-1", "12a",
    "9" * 4301, "1/" + "9" * 4301,
    3, None, 1.5, ["1"],
]  # fmt: skip


def reference(rows, cols):
    """The matrix of each entry read by ``parse_rational`` (1 where it fails), and the messages."""
    values, problems = [], []
    for row in rows:
        read = []
        for x in row:
            try:
                read.append(parse_rational(x))
            except ValueError as exc:
                problems.append(str(exc))
                read.append(Fraction(1))
        values.append(read)
    return Matrix(values, cols=cols), problems


def random_rows(rng: random.Random, malformed: float) -> list[list]:
    rows, cols = rng.randint(0, 4), rng.randint(0, 4)
    entry = lambda: rng.choice(MALFORMED if rng.random() < malformed else WELL_FORMED + [
        f"{rng.choice(['', '+', '-'])}{rng.randint(0, 10**rng.choice((1, 3, 30)))}"
        + rng.choice(["", f"/{rng.randint(1, 10**rng.choice((1, 3, 30)))}"])
    ])  # fmt: skip
    return [[entry() for _ in range(cols)] for _ in range(rows)]


@pytest.mark.parametrize("seed", range(300))
def test_the_bulk_reader_reads_as_the_per_entry_path(seed):
    rng = random.Random(seed)
    rows = random_rows(rng, (0.0, 0.05, 0.3)[seed % 3])
    cols = len(rows[0]) if rows else 0
    m, problems = Matrix._parse(rows, cols)
    expected, expected_problems = reference(rows, cols)
    assert (m._num, m._den, m.rows, m.cols) == (expected._num, expected._den, expected.rows, expected.cols)
    assert problems == expected_problems
    # the bulk check takes exactly the matrices with no problem, and reads
    # each entry to the integers the per-entry path reads
    num, dens, entry_problems = _entry_parts(rows)
    assert entry_problems == expected_problems
    try:
        plain_num, plain_dens = _plain_parts(rows)
    except (TypeError, ValueError):
        assert problems
    else:
        assert not problems
        assert plain_num == num
        assert plain_dens == (dens if any("/" in x for r in rows for x in r) else [])


@pytest.mark.parametrize("entry", MALFORMED)
def test_each_malformed_entry_takes_the_per_entry_path(entry):
    for rows in ([[entry]], [["1/2", "3"], ["4", entry]], [["5", entry], ["7", "8"]]):
        with pytest.raises((TypeError, ValueError)):
            _plain_parts(rows)
        m, problems = Matrix._parse(rows, len(rows[0]))
        assert (m, problems) == reference(rows, len(rows[0]))
        assert len(problems) == 1


@pytest.mark.parametrize("entry", WELL_FORMED)
def test_each_well_formed_entry_is_read_in_bulk(entry):
    for rows in ([[entry]], [["1/2", "3"], ["4", entry]], [["5", entry], ["7", "8"]]):
        assert Matrix._parse(rows, len(rows[0])) == reference(rows, len(rows[0]))
        _plain_parts(rows)


def written(payload) -> str:
    out = []
    _write_json(payload, "\n", out)
    return "".join(out)


JSON_TEXT = st.text(
    st.characters(blacklist_categories=()) | st.sampled_from(["\x00", "\n", "\x1f", "\x7f", "\ud800", "\udfff", '"', "\\"])
)  # fmt: skip
SCALARS = (
    st.none()
    | st.booleans()
    | st.integers()
    | st.integers(-(2**200), 2**200)
    | st.floats(allow_nan=True, allow_infinity=True)
    | JSON_TEXT
)
PAYLOADS = st.recursive(
    SCALARS,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=3).map(tuple)
    | st.dictionaries(JSON_TEXT, inner, max_size=4),
    max_leaves=30,
)


@settings(max_examples=500, deadline=None)
@given(PAYLOADS)
def test_the_writer_writes_as_json_dumps(payload):
    assert written(payload) == json.dumps(payload, sort_keys=True, indent=2)


@pytest.mark.parametrize(
    "payload",
    [{}, [], (), {"a": {}}, {"a": [[], {}]}, {"b": 1, "a": (1, [2, {"z": None, "y": False}])},
     "é\ud800\x00", 2**100, -0.0, float("nan")],
)  # fmt: skip
def test_edge_payloads_are_written_as_json_dumps(payload):
    assert written(payload) == json.dumps(payload, sort_keys=True, indent=2)


def test_a_key_that_is_no_string_is_refused():
    for payload in ({1: "x"}, {"a": {None: 1}}):
        with pytest.raises(TypeError):
            written(payload)


def every_report():
    """``(request, report)`` for each command on each readable shipped document,
    each arrow for the commands that take one."""
    paths = sorted(p for p in FIXTURES.glob("*.json") if p.name != "schema.json")
    for path in paths + sorted(DATA.glob("*.json")):
        try:
            doc = parse(path)
        except SchemaError:
            continue
        for command in COMMANDS:
            arrows = doc.groupoid.arrow_ids() if command in ("berezinian", "replace") else [None]
            for arrow in arrows:
                args = argparse.Namespace(command=command, input=path.name, fmt="json", arrow=arrow)
                try:
                    report, _ = cli.run(command, doc, args)
                except SchemaError:
                    continue
                yield f"{path.name} {command} {arrow}", report


def test_every_shipped_report_is_written_as_json_dumps():
    commands = set()
    for request, report in every_report():
        payload = {"command": report.command, "input": report.input, "ok": report.ok, **report.fields}
        assert report.to_json() == json.dumps(payload, sort_keys=True, indent=2) + "\n", request
        commands.add(report.command)
    assert commands == set(COMMANDS)


def test_to_json_never_enters_json_s_encoder(monkeypatch):
    entered = []
    original = json.encoder._make_iterencode

    def spy(*args, **kwargs):
        entered.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(json.encoder, "_make_iterencode", spy)
    reports = [report for _, report in every_report()]
    texts = [report.to_json() for report in reports]
    assert entered == [] and len(texts) == len(reports) > 0
    # the spy sees json's own indented encoder
    json.dumps({"a": [1]}, indent=2)
    assert entered == [1]


def test_a_well_formed_document_is_read_without_the_per_entry_reader(monkeypatch):
    rng = random.Random(3)
    fx = standard_fixtures()[2]  # pair2: two objects
    rep = rand_ruth(rng, fx)
    data = json.loads(json.dumps(serialize(InputDocument(fx.gpd, rep, None, None))))
    text = json.dumps(data)
    assert "/" in text and "-" in text  # p/q entries, negative ones too
    calls = []
    original = linalg_module._rational_parts

    def counted(x):
        calls.append(x)
        return original(x)

    monkeypatch.setattr(linalg_module, "_rational_parts", counted)
    doc = parse_data(data)
    assert calls == []
    assert doc == InputDocument(fx.gpd, rep, None, None)
    # a malformed entry takes the per-entry path
    bad = json.loads(text)
    arrow = next(iter(bad["rep"]))
    degree = next(k for k, m in bad["rep"][arrow].items() if m and m[0])
    bad["rep"][arrow][degree][0][0] = "1/0"
    with pytest.raises(SchemaError, match="zero denominator"):
        parse_data(bad)
    assert calls
