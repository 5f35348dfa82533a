"""Property tests of the document readers.

The schema reads each matrix's "p/q" strings straight to integer rows;
the reference reads each entry with ``parse_rational`` and builds the
matrix from the `Fraction`s.  The fuzz test mutates the shipped fixtures
with small JSON values: every document must be read, or refused with a
``SchemaError``, and every command must then answer with exit code 0 or
1, or refuse it the same way.
"""

import argparse
import copy
import json
import pathlib
import sys
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

import modclass
from modclass import Matrix, SchemaError, cli, parse_data
from modclass.linalg import _RATIONAL_RE, _rational_parts, parse_rational
from modclass.schema import _Collector
from oracle import regex_rational_parts

FIXTURES = pathlib.Path(modclass.__file__).parent / "fixtures"
DATA = pathlib.Path(__file__).parent / "data"
FIXTURE_NAMES = ["z2_sign_odd", "pair2", "s3_action", "acyclic_two_term"]


def rational_text(parts) -> str:
    sign, zeros, p, q = parts
    return f"{sign}{'0' * zeros}{p}" + ("" if q is None else f"/{'0' * zeros}{q}")


VALID = st.one_of(
    st.tuples(
        st.sampled_from(["", "+", "-"]),
        st.integers(0, 2),
        st.integers(0, 2**60),
        st.none() | st.integers(1, 2**60),
    ).map(rational_text),
    st.sampled_from(["-0/5", "4/6", "0", "1", "-1"]),
)
# "３" is a full-width 3 and "٣" an Arabic-Indic 3: digits, but not ASCII ones
BAD = st.sampled_from(
    ["1/0", "1_0", "1.5", "", "1/-2", "３", "٣", "1/２", " 5 ", "5\n", "\t5", 1, 1.5, True, None, []]
)


def reference(entry):
    """``parse_rational``'s value, or 1 and its message."""
    try:
        return parse_rational(entry), None
    except ValueError as exc:
        return Fraction(1), str(exc)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(0, 4).flatmap(
        lambda width: st.lists(st.lists(VALID | BAD, min_size=width, max_size=width), max_size=4)
    )
)
def test_string_rows_read_as_parse_rational_reads_each_entry(rows):
    col = _Collector()
    m = col.matrix(rows, "here")
    read = [[reference(x) for x in row] for row in rows]
    values = [[value for value, _ in row] for row in read]
    expected = Matrix(values, cols=len(rows[0]) if rows else 0)
    assert m == expected and (m.rows, m.cols) == (expected.rows, expected.cols)
    assert m.to_lists() == expected.to_lists()
    assert col.problems == [f"here: {msg}" for row in read for _, msg in row if msg is not None]


def test_decimal_strings_are_what_the_pattern_reads_as_digits():
    # one character is a rational exactly when it is an ASCII digit: the
    # plain-integer shortcut and the pattern refuse every other decimal
    # digit ("３", "٣"), signed or not, as the published pattern does
    for c in map(chr, range(sys.maxunicode + 1)):
        digit = "0" <= c <= "9"
        assert digit == bool(_RATIONAL_RE.fullmatch(c)), hex(ord(c))
        if c.isnumeric() or c.isspace():  # what int() or strip() would take
            for text in (c, "-" + c):
                expected = (int(text), 1) if digit else f"malformed rational {text!r}: expected 'p' or 'p/q'"
                assert read(_rational_parts, text) == expected, hex(ord(c))


def read(parts, text):
    """``parts(text)``, or the message of its ValueError."""
    try:
        return parts(text)
    except ValueError as exc:
        return str(exc)


@settings(max_examples=300, deadline=None)
@given(
    VALID
    | BAD
    | st.integers(-(2**60), 2**60).map(str)
    | st.tuples(st.sampled_from(["", "-", "+", " ", "--"]), st.text("0123456789３²_ ", max_size=4))
    .map("".join)
)
@example("-0")
@example("+5")
@example(" 5 ")
@example("1/２")
@example("٣")
@example("5\n")
@example("1_0")
@example("３")
@example("²")
@example("-")
@example("")
@example(str(2**60))
@example(str(-(2**60)))
def test_rational_parts_read_as_the_pattern_reads(text):
    assert read(_rational_parts, text) == read(regex_rational_parts, text)


def test_a_degree_named_twice_is_refused():
    # "1" and "01" both name degree 1: the second key is refused, not kept over the first
    data = json.loads((DATA / "duplicate_degree.json").read_text())
    with pytest.raises(SchemaError) as refused:
        parse_data(data)
    assert refused.value.problems == ["rep of arrow 't': degree '01' names degree 1, as '1' does"]


@pytest.mark.parametrize(
    "section, entries, problem",
    [
        ("dims", {"0": 1, "+0": 1, "1": 1}, "complex of 'x': dimension '+0' names degree 0, as '0' does"),
        (
            "differentials",
            {"0": [["1"]], "00": [["2"]]},
            "complex of 'x': differential '00' names degree 0, as '0' does",
        ),
    ],
)
def test_a_complex_names_each_degree_once(section, entries, problem):
    data = json.loads((FIXTURES / "acyclic_two_term.json").read_text())
    data["complex"]["x"][section] = entries
    with pytest.raises(SchemaError) as refused:
        parse_data(data)
    assert refused.value.problems == [problem]


# Degree keys: ASCII digits after at most one sign.  Python's ``$`` also
# matches before a final newline, so jsonschema reads the pattern
# differently on "1\n"; no key here ends in one.
ACCEPTED_KEYS = ["1", "+1", "01", "+01", "001"]
REFUSED_KEYS = ["1_0", " 10 ", " 1", "1 ", "３", "²", "1.0", "1e0", "0x1", "", "+", "-", "+-1", "one"]


def keyed(key: str, section: str) -> dict:
    """``z2_sign_odd`` with degree 1 named ``key`` in ``section``, and
    as ``"1"`` elsewhere: ``dims``, ``differentials`` (a zero one into an
    added degree 2) or the per-degree ``rep`` maps."""
    data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
    fiber = data["complex"]["*"]
    if section == "dims":
        fiber["dims"] = {key: 1}
    elif section == "differentials":
        fiber.update(degrees=[1, 2], dims={"1": 1, "2": 1}, differentials={key: [["0"]]})
    else:
        data["rep"] = {a: {key: m["1"]} for a, m in data["rep"].items()}
    return data


def schema_accepts(data: dict) -> bool:
    jsonschema = pytest.importorskip("jsonschema")
    schema = json.loads((FIXTURES / "schema.json").read_text())
    return jsonschema.Draft202012Validator(schema).is_valid(data)


@pytest.mark.parametrize("section", ["dims", "differentials", "rep"])
@pytest.mark.parametrize("key", ACCEPTED_KEYS + REFUSED_KEYS)
def test_degree_keys_read_as_the_published_schema_reads(key, section):
    data = keyed(key, section)
    accepted = key in ACCEPTED_KEYS
    assert schema_accepts(data) == accepted
    if accepted:
        parse_data(data)
        return
    with pytest.raises(SchemaError) as refused:
        parse_data(data)
    bad = {
        "dims": f"complex of '*': bad dimension entry {key!r}",
        "differentials": f"complex of '*': bad differential degree {key!r}",
        "rep": f"rep of arrow 'e': bad degree {key!r}",
    }[section]
    assert refused.value.problems[0] == bad


def test_a_degree_key_ending_in_a_newline_is_refused():
    with pytest.raises(SchemaError) as refused:
        parse_data(keyed("1\n", "dims"))
    assert refused.value.problems == ["complex of '*': bad dimension entry '1\\n'"]


@pytest.mark.parametrize("key, degree", [("1_0", 10), (" 10 ", 10), ("３", 3)])
def test_an_int_spelling_is_no_degree_key(key, degree, tmp_path, capsys):
    # each key names a degree int() reads, and the document is whole with
    # that degree: refused with exit 2, not run
    data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
    data["complex"]["*"].update(degrees=[degree, degree], dims={key: 1})
    data["rep"] = {a: {key: m["1"]} for a, m in data["rep"].items()}
    path = tmp_path / "keyed.json"
    path.write_text(json.dumps(data))
    assert cli.main(["modular-class", str(path)]) == 2
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    # the rep section is read only over whole complexes
    assert errors == [f"error: complex of '*': bad dimension entry {key!r}"]
    data = json.loads(json.dumps(data).replace(json.dumps(key), f'"{degree}"'))
    path.write_text(json.dumps(data))
    assert cli.main(["modular-class", str(path)]) == 0


# Rationals follow the same rule: ASCII digits, at most one sign and one
# "/", nothing around them.  "1/0" matches the pattern but is refused for
# its zero denominator, and "5\n" is left out for the reason above.
ACCEPTED_RATIONALS = ["5", "+5", "-5", "05", "-3/05", "4/6", "+1/2"]
REFUSED_RATIONALS = [
    "３", "٣", " 5 ", " 5", "5 ", "\t5", "1/２", "²", "1_0", "1.5", "1/-2", "", "+", "-/2", "1/2/3"
]


@pytest.mark.parametrize("section", ["rep", "sigma"])
@pytest.mark.parametrize("text", ACCEPTED_RATIONALS + REFUSED_RATIONALS)
def test_rationals_read_as_the_published_schema_reads(text, section, tmp_path, capsys):
    data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
    if section == "rep":
        data["rep"]["t"]["1"] = [[text]]
        where = "rep of arrow 't', degree 1"
    else:
        data["sigma"] = {"*": text}
        where = "sigma at object '*'"
    accepted = text in ACCEPTED_RATIONALS
    assert schema_accepts(data) == accepted
    path = tmp_path / "doc.json"
    path.write_text(json.dumps(data))
    code = cli.main(["validate", str(path)])
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    if accepted:
        assert code in (0, 1) and errors == []
    else:
        message = f"{where}: malformed rational {text!r}: expected 'p' or 'p/q'"
        assert (code, errors) == (2, [f"error: {message}"])


ATOMS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 3),
    st.just(1.5),
    st.sampled_from(["", "0", "1", "-1", "1/2", "1/0", "x", "y", "*", "e", "t", "g", "1x", "ginv"]),
    st.text(max_size=3),
)
KEYS = st.sampled_from(["0", "1", "-1", "x", "*", "g", "e", "t"]) | st.text(max_size=2)
SMALL_JSON = st.recursive(
    ATOMS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(KEYS, inner, max_size=3),
    max_leaves=6,
)
COMMANDS = ("validate", "cohomology", "modular-class", "berezinian", "replace", "homotopy-check")


def places(node):
    """Every ``(container, key)`` in a decoded document, the root's children first."""
    found = []
    stack = [node]
    while stack:
        parent = stack.pop()
        if isinstance(parent, dict):
            keys = list(parent)
        else:
            keys = range(len(parent)) if isinstance(parent, list) else []
        for key in keys:
            found.append((parent, key))
            stack.append(parent[key])
    return found


@st.composite
def mutated_fixture(draw):
    """A fixture with one to three of its values changed, dropped or repeated.

    Most changes keep a value's kind, so that many documents still read
    and reach the commands: a string becomes a sibling string, a small
    rational or another string of the document, an integer a small
    integer, and a list entry a copy of a sibling.
    """
    doc = json.loads((FIXTURES / f"{draw(st.sampled_from(FIXTURE_NAMES))}.json").read_text())
    words = sorted({key for parent, key in places(doc) if isinstance(key, str)}
                   | {parent[key] for parent, key in places(doc) if isinstance(parent[key], str)})
    for _ in range(draw(st.integers(1, 3))):
        action = draw(st.sampled_from(["same kind"] * 3 + ["copy", "delete", "any"]))
        targets = places(doc)
        if action == "same kind":
            targets = [(parent, key) for parent, key in targets if type(parent[key]) in (str, int)]
        if not targets:
            break
        parent, key = draw(st.sampled_from(targets))
        if action == "same kind" and isinstance(parent[key], str):
            siblings = [v for v in (parent.values() if isinstance(parent, dict) else parent)
                        if isinstance(v, str)]
            parent[key] = draw(st.sampled_from(siblings + ["0", "1", "-1", "2", "1/2"])
                               | st.sampled_from(words) | st.text(max_size=3))
        elif action == "same kind":
            parent[key] = draw(st.integers(-3, 3))
        elif action == "copy" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(draw(st.sampled_from(parent))))
        elif action == "delete":
            del parent[key]
        else:
            parent[key] = draw(SMALL_JSON)
    return doc


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(mutated_fixture())
def test_mutated_documents_are_read_or_refused(data):
    try:
        doc = parse_data(data)
    except SchemaError:
        return
    arrows = doc.groupoid.arrow_ids()
    for command in COMMANDS:
        args = argparse.Namespace(
            command=command, input="doc.json", fmt="json", arrow=arrows[0] if arrows else "g"
        )
        try:
            report, code = cli.run(command, doc, args)
        except SchemaError:
            continue
        assert code in (0, 1), command
        report.to_json(), report.to_text()
