import argparse
import importlib.util
import json
import math
import pathlib
import random
import sys

import pytest

import modclass
from modclass import cli, complexes, schema
from modclass import (
    Cochain,
    ComplexFiber,
    InputDocument,
    Matrix,
    RepUpToWeakHomotopy,
    SchemaError,
    VectorRep,
    decompose,
    parse,
    parse_data,
    serialize,
)
from oracle import conjugate_replacement, homotopy_between
from randgen import (
    RuthSpec,
    rand_chain_map,
    rand_cocycle,
    rand_complex,
    rand_ruth,
    rand_trivialization,
    run_modclass_cli,
    standard_fixtures,
)

FIXTURES = pathlib.Path(modclass.__file__).parent / "fixtures"
DATA = pathlib.Path(__file__).parent / "data"
GOLDEN = pathlib.Path(__file__).parent / "golden"
FIXTURE_NAMES = ["z2_sign_odd", "pair2", "s3_action", "acyclic_two_term"]
# command -> whether it needs --arrow
COMMANDS = {
    "validate": False,
    "cohomology": False,
    "modular-class": False,
    "berezinian": True,
    "replace": True,
    "homotopy-check": False,
}


def run_cli(*args, cwd=FIXTURES):
    return run_modclass_cli(*args, cwd=cwd)


def ruth_document(seed: int, tmp_path) -> tuple:
    """A random homotopy representation over z2, z3 or pair2, serialized.

    Odd seeds swap one non-unit action for a random chain map, so that
    some pairs are not homotopy functorial.  Returns the groupoid, the
    representation and the document's path.
    """
    rng = random.Random(seed)
    fx = standard_fixtures()[seed % 3]
    gpd, rep = fx.gpd, rand_ruth(rng, fx)
    if seed % 2:
        units = {gpd.unit(x) for x in gpd.objects}
        a = rng.choice([b for b in gpd.arrow_ids() if b not in units])
        rep.action[a] = rand_chain_map(rng, rep(a).source, rep(a).target)
    path = tmp_path / f"ruth_{seed}.json"
    path.write_text(json.dumps(serialize(InputDocument(gpd, rep, None, None))))
    return gpd, rep, path


class TestParse:
    def test_pair2_shape(self):
        doc = parse(FIXTURES / "pair2.json")
        assert len(doc.groupoid.objects) == 2
        assert len(doc.groupoid.arrows) == 4
        assert isinstance(doc.rep, VectorRep)
        assert doc.sigma is not None and doc.cochain is not None

    def test_homotopy_detection(self):
        doc = parse(FIXTURES / "acyclic_two_term.json")
        assert isinstance(doc.rep, RepUpToWeakHomotopy)
        assert doc.rep_kind == "homotopy"

    def test_line_detection(self):
        doc = parse(FIXTURES / "s3_action.json")
        assert doc.rep_kind == "line"
        assert len(doc.groupoid.arrows) == 18

    def test_zero_denominator(self):
        with pytest.raises(SchemaError, match="zero denominator"):
            parse(DATA / "malformed.json")

    def test_wrong_matrix_shape_names_object_and_degree(self):
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        data["rep"]["t"]["1"] = [["1"], ["2"]]
        with pytest.raises(SchemaError) as err:
            parse_data(data)
        assert "arrow 't'" in str(err.value) and "degree 1" in str(err.value)

    def test_dangling_identifiers(self):
        data = json.loads((FIXTURES / "pair2.json").read_text())
        data["groupoid"]["identity"]["x"] = "nope"
        with pytest.raises(SchemaError, match="unknown arrow 'nope'"):
            parse_data(data)

    def test_missing_rep_entry_names_arrow(self):
        data = json.loads((FIXTURES / "pair2.json").read_text())
        del data["rep"]["ginv"]
        with pytest.raises(SchemaError, match="arrow 'ginv'"):
            parse_data(data)


class TestRoundTrip:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_parse_serialize_parse(self, name):
        doc = parse(FIXTURES / f"{name}.json")
        again = parse_data(json.loads(json.dumps(serialize(doc))))
        assert again == doc

    def test_serialize_writes_only_what_is_stored(self):
        # a 10^12-wide range with a 0 given: the dims and components of
        # degree 1 are all there is to write
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        data["complex"]["*"]["degrees"] = [0, 10**12]
        data["complex"]["*"]["dims"]["7"] = 0
        doc = parse_data(data)
        written = serialize(doc)
        assert written["complex"]["*"] == {"degrees": [0, 10**12], "dims": {"1": 1}, "differentials": {}}
        assert written["rep"] == data["rep"]
        assert parse_data(json.loads(json.dumps(written))) == doc

    def test_a_component_into_a_zero_degree_round_trips(self):
        # x -> y maps a line into a zero space: its component at degree 0
        # is 0x1, which was once written as [] and read back as 0x0
        gpd = modclass.pair_groupoid(["x", "y"])
        fibers = {"x": ComplexFiber(0, 0, {0: 1}, {}), "y": ComplexFiber(0, 0, {}, {})}
        action = {
            a: complexes.ChainMap.zero(fibers[gpd.src(a)], fibers[gpd.tgt(a)])
            for a in gpd.arrow_ids()
        }
        action["e:x>x"] = complexes.ChainMap.identity(fibers["x"])
        doc = InputDocument(gpd, RepUpToWeakHomotopy(gpd, fibers, action), None, None)
        written = serialize(doc)
        assert written["rep"] == {"e:x>x": {"0": [["1"]]}, "e:x>y": {}, "e:y>x": {}, "e:y>y": {}}
        assert parse_data(json.loads(json.dumps(written))) == doc

    @pytest.mark.parametrize("seed", range(24))
    def test_documents_built_with_zero_entries_round_trip(self, seed):
        # random library-built representations whose fibers and maps were
        # also given zero and empty entries, some past the range
        rng = random.Random(seed)
        fx = standard_fixtures()[seed % 4]
        gpd, built = fx.gpd, rand_ruth(rng, fx)
        if seed % 2:
            a = rng.choice([b for b in gpd.arrow_ids() if b not in gpd.identity.values()])
            built.action[a] = rand_chain_map(rng, built(a).source, built(a).target)
        fibers = {}
        for x, c in built.complexes.items():
            diffs = zero_entries(rng, c.d_min - 2, c.d_max + 2, lambda i: (c.dim(i + 1), c.dim(i)))
            fibers[x] = ComplexFiber(c.d_min, c.d_max, c.dims, {**diffs, **c.differentials})
        action = {}
        for a, t in built.action.items():
            src, tgt = fibers[gpd.src(a)], fibers[gpd.tgt(a)]
            lo, hi = min(src.d_min, tgt.d_min) - 2, max(src.d_max, tgt.d_max) + 2
            comps = zero_entries(rng, lo, hi, lambda i: (tgt.dim(i), src.dim(i)))
            action[a] = complexes.ChainMap(src, tgt, {**comps, **t.components})
        sigma = rand_trivialization(rng, gpd) if seed % 3 == 0 else None
        doc = InputDocument(gpd, RepUpToWeakHomotopy(gpd, fibers, action), sigma, None)
        assert fibers == built.complexes and action == built.action
        assert parse_data(json.loads(json.dumps(serialize(doc)))) == doc


class TestShippedSchema:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_fixtures_match_published_schema(self, name):
        jsonschema = pytest.importorskip("jsonschema")
        schema = json.loads((FIXTURES / "schema.json").read_text())
        document = json.loads((FIXTURES / f"{name}.json").read_text())
        jsonschema.Draft202012Validator(schema).validate(document)


class TestExitCodes:
    def test_valid_input(self):
        assert run_cli("validate", "pair2.json").returncode == 0

    def test_nontrivial_class_is_still_success(self):
        assert run_cli("modular-class", "z2_sign_odd.json").returncode == 0

    def test_law_violation(self):
        result = run_cli("validate", "broken_assoc.json", cwd=DATA)
        assert result.returncode == 1
        assert "associativity fails on ('t', 't', 't')" in result.stdout

    def test_table_domain_problems_in_table_then_pair_order(self):
        # non-composable keys in table order, then missing pairs in pair
        # order: neither depends on the hash seed
        result = run_cli("validate", "table_domain.json", "--format", "json", cwd=DATA)
        assert result.returncode == 1
        assert json.loads(result.stdout)["sections"]["groupoid"] == [
            "composition table defines non-composable pair ('g', 'g')",
            "composition table defines non-composable pair ('ginv', 'ginv')",
            "composition table defines non-composable pair ('1x', 'g')",
            "composition table defines non-composable pair ('1y', 'ginv')",
            "composable pair ('1x', '1x') missing from composition table",
            "composable pair ('1y', '1y') missing from composition table",
            "composable pair ('g', '1x') missing from composition table",
        ]

    def test_malformed_input(self):
        result = run_cli("validate", "malformed.json", cwd=DATA)
        assert result.returncode == 2
        assert "zero denominator" in result.stderr

    def test_missing_file(self):
        assert run_cli("validate", "no_such_file.json").returncode == 2

    @staticmethod
    def assert_refused(result, message):
        # one error line, no traceback
        assert result.returncode == 2
        assert result.stderr.startswith(f"error: {message}")
        assert result.stderr.count("\n") == 1

    def test_directory_is_refused(self, tmp_path):
        self.assert_refused(run_cli("validate", str(tmp_path)), f"cannot read {tmp_path}: ")

    def test_bytes_that_are_no_utf8_are_refused(self, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"groupoid": "\u00e9"}'.encode("latin-1"))
        self.assert_refused(run_cli("validate", str(path)), "not valid JSON: 'utf-8' codec")

    def test_deep_nesting_is_refused(self, tmp_path):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000 + "]" * 200_000)
        self.assert_refused(run_cli("validate", str(path)), "not valid JSON: ")

    @pytest.mark.parametrize(
        "breakage",
        [
            lambda d: d.update(groupoid=5),
            lambda d: d["groupoid"].update(identity=["e"]),
            lambda d: d["groupoid"]["arrows"][0].update(id=["e"]),
            lambda d: d["complex"]["*"].update(degrees=["x", 1]),
            lambda d: d["complex"]["*"].update(degrees=[True, 1]),
            lambda d: d["complex"]["*"].update(degrees=[0.0, 1]),
            lambda d: d["complex"]["*"]["dims"].update({"1": 1.5}),
            lambda d: d["complex"]["*"]["dims"].update({"1": "1"}),
            lambda d: d["complex"]["*"]["dims"].update({"1": True}),
            lambda d: d["complex"]["*"]["dims"].update({"1": -1}),
            lambda d: d.update(sigma=["a"]),
            lambda d: d["groupoid"]["compose"].append(["t", "t", "t"]),
            lambda d: d["complex"]["*"]["dims"].update({"5": 2}),
        ],
        ids=[
            "groupoid",
            "identity",
            "arrow-id",
            "degrees",
            "bool-degree",
            "float-degree",
            "float-dim",
            "string-dim",
            "bool-dim",
            "negative-dim",
            "sigma",
            "repeated-compose-pair",
            "dim-outside-degrees",
        ],
    )
    def test_mistyped_section_is_schema_error(self, breakage, tmp_path):
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        breakage(data)
        path = tmp_path / "mistyped.json"
        path.write_text(json.dumps(data))
        result = run_cli("modular-class", str(path))
        assert result.returncode == 2
        assert "error:" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize(
        ("dims", "error"),
        [
            ({"0": 1.5, "1": 1}, "dimension '0' must be a non-negative integer"),
            ({"zero": 1, "1": 1}, "bad dimension entry 'zero'"),
            ({"0": 1, "1": 1, "5": 2}, "dimension '5' is outside degrees [0, 1]"),
            ({"-1": 0, "0": 1, "1": 1}, "dimension '-1' is outside degrees [0, 1]"),
        ],
        ids=["float-dim", "bad-dim-key", "dim-above-degrees", "dim-below-degrees"],
    )
    def test_rejected_dimension_is_one_error(self, dims, error, tmp_path, capsys):
        # the differential's shape is not checked against the dims left over
        data = json.loads((FIXTURES / "acyclic_two_term.json").read_text())
        data["complex"]["x"]["dims"] = dims
        path = tmp_path / "bad_dims.json"
        path.write_text(json.dumps(data))
        assert cli.main(["validate", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: complex of 'x': {error}"]

    @pytest.mark.parametrize(
        ("breakage", "error"),
        [
            (
                lambda d: d["complex"]["*"]["differentials"].update({"5": []}),
                "complex of '*': differential '5' is outside degrees [1, 1]",
            ),
            (
                lambda d: d["complex"]["*"]["differentials"].update({"0": [[]]}),
                "complex of '*': differential '0' is outside degrees [1, 1]",
            ),
            (
                lambda d: d["rep"]["t"].update({"7": []}),
                "rep of arrow 't': degree '7' is outside degrees [1, 1]",
            ),
            (
                lambda d: d["rep"]["e"].update({"-3": []}),
                "rep of arrow 'e': degree '-3' is outside degrees [1, 1]",
            ),
            (
                lambda d: d["rep"]["t"].update({"7": [["1"]]}),
                "rep of arrow 't', degree 7: shape 1x1, expected 0x0",
            ),
        ],
        ids=["differential-above", "differential-below", "rep-above", "rep-below", "shape-first"],
    )
    def test_degree_key_outside_the_range_is_one_error(self, breakage, error, tmp_path, capsys):
        # an empty matrix there has the expected 0x0 shape, yet the
        # document declares it and nothing would read it
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        breakage(data)
        path = tmp_path / "outside.json"
        path.write_text(json.dumps(data))
        assert cli.main(["validate", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {error}"]

    @staticmethod
    def as_vector_rep(t):
        """z2_sign_odd with no complex and ``e`` acting by 1: ``t`` acts by the rows ``t``."""
        def breakage(d):
            del d["complex"]
            d["rep"] = {"e": [["1"]], "t": t}
        return breakage

    @pytest.mark.parametrize(
        ("breakage", "error"),
        [
            (
                lambda d: d["rep"]["t"].update({"1": [None]}),
                "rep of arrow 't', degree 1: expected a list of rows",
            ),
            (
                lambda d: d["complex"]["*"]["differentials"].update({"1": "x"}),
                "complex of '*', differential 1: expected a list of rows",
            ),
            (as_vector_rep([["1"], ["1", "2"]]), "rep of arrow 't': ragged rows"),
            (
                as_vector_rep([["1", "0"], ["0", "1"]]),
                "rep of arrow 't': shape implies dimension 2 at object '*' but 1 was already implied",
            ),
            (
                as_vector_rep([["1", "0"]]),
                "rep of arrow 't': shape implies dimension 2 at object '*' but 1 was already implied",
            ),
        ],
        ids=["null-row", "string-differential", "ragged-action", "square-loop", "non-square-loop"],
    )
    def test_an_unreadable_matrix_or_a_loop_conflict_is_one_error(
        self, breakage, error, tmp_path, capsys
    ):
        # a matrix that is no list of equal rows takes part in no shape or
        # dimension check, and a loop's one object is checked once
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        breakage(data)
        path = tmp_path / "unreadable.json"
        path.write_text(json.dumps(data))
        assert cli.main(["validate", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {error}"]

    @pytest.mark.parametrize(
        ("name", "section", "entry", "error"),
        [
            ("pair2", "rep", ("zz", [["1"]]), "rep section: unknown arrow 'zz'"),
            ("pair2", "cochain", ("zz", "1"), "cochain section: unknown arrow 'zz'"),
            ("pair2", "sigma", ("w", "1"), "sigma section: unknown object 'w'"),
            (
                "acyclic_two_term",
                "complex",
                ("w", {"degrees": [0, 0], "dims": {"0": 0}}),
                "complex section: unknown object 'w'",
            ),
        ],
        ids=["rep", "cochain", "sigma", "complex"],
    )
    def test_unknown_id_is_one_error(self, name, section, entry, error, tmp_path, capsys):
        data = json.loads((FIXTURES / f"{name}.json").read_text())
        data[section][entry[0]] = entry[1]
        path = tmp_path / "unknown.json"
        path.write_text(json.dumps(data))
        assert cli.main(["validate", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: {error}"]

    @pytest.mark.parametrize(
        ("extra", "error"),
        [
            ([["t", "t", "t"]] * 2, "pair ('t', 't') is listed more than once"),
            ([["t", "t", "e"]], "pair ('t', 't') is listed more than once"),
            ([["t", "t"]], "entry ['t', 't'] is not a [g, h, gh] triple"),
        ],
        ids=["disagreeing-twice", "agreeing", "malformed-is-no-repeat"],
    )
    def test_repeated_compose_pair_is_one_error(self, extra, error, tmp_path, capsys):
        # a second entry for ('t', 't') is rejected whether or not it agrees,
        # and however often it repeats
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        data["groupoid"]["compose"] += extra
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(data))
        assert cli.main(["validate", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: compose table: {error}"]

    @pytest.mark.parametrize("copies", [1, 2])
    @pytest.mark.parametrize("complex_of_x", [True, False], ids=["complex", "no-complex"])
    def test_repeated_object_is_one_error(self, copies, complex_of_x, tmp_path, capsys):
        # a repeated object was once accepted, and each later problem about
        # it was then worded once per copy; the published schema refuses it
        jsonschema = pytest.importorskip("jsonschema")
        data = json.loads((FIXTURES / "acyclic_two_term.json").read_text())
        x = data["groupoid"]["objects"][0]
        data["groupoid"]["objects"] += [x] * copies
        if not complex_of_x:
            del data["complex"][x]
        schema = json.loads((FIXTURES / "schema.json").read_text())
        assert not jsonschema.Draft202012Validator(schema).is_valid(data)
        with pytest.raises(SchemaError) as refused:
            parse_data(data)
        assert refused.value.problems == [f"groupoid: object '{x}' is listed more than once"]
        path = tmp_path / "repeated.json"
        path.write_text(json.dumps(data))
        assert cli.main(["validate", str(path)]) == 2
        errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
        assert errors == [f"error: groupoid: object '{x}' is listed more than once"]

    def test_a_fiber_with_rejected_dims_is_not_built(self, tmp_path, capsys):
        # the differential's shape is not checked against dims missing a
        # rejected entry, so no fiber may be built from them
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        data["complex"]["*"] = {
            "degrees": [0, 2], "dims": {"1": -1, "2": 1}, "differentials": {"1": [["1"], ["2"]]},
        }
        with pytest.raises(SchemaError) as refused:
            parse_data(data)
        assert refused.value.problems == [
            "complex of '*': dimension '1' must be a non-negative integer"
        ]
        path = tmp_path / "rejected.json"
        path.write_text(json.dumps(data))
        for fmt in ("text", "json"):
            assert cli.main(["validate", str(path), "--format", fmt]) == 2
            out, err = capsys.readouterr()
            assert out == "" and err.splitlines()
            assert all(line.startswith("error:") for line in err.splitlines())

    def test_each_repeated_object_is_named_once_in_list_order(self):
        data = json.loads((FIXTURES / "acyclic_two_term.json").read_text())
        x, y = data["groupoid"]["objects"]
        data["groupoid"]["objects"] = [y, x, x, y, y]
        with pytest.raises(SchemaError) as refused:
            parse_data(data)
        assert refused.value.problems == [
            f"groupoid: object '{y}' is listed more than once",
            f"groupoid: object '{x}' is listed more than once",
        ]

    @pytest.mark.parametrize(
        ("where", "key", "first"),
        [
            (("rep",), "t", {"1": [["5"]]}),
            (("rep", "t"), "1", [["5"]]),
            (("complex", "*", "dims"), "1", 2),
            (("complex",), "*", {"degrees": [0, 0], "dims": {"0": 1}}),
            (("sigma",), "*", "2"),
            (("cochain",), "t", "1"),
            (("groupoid", "identity"), "*", "t"),
            (("groupoid", "inverse"), "t", "e"),
            (("groupoid", "arrows", 1), "id", "e"),
            ((), "cochain", {"e": "1", "t": "1"}),
        ],
        ids=[
            "rep-arrow", "rep-degree", "dims-degree", "complex", "sigma",
            "cochain", "identity", "inverse", "arrow-id", "section",
        ],
    )
    def test_repeated_key_is_one_error(self, where, key, first, tmp_path, capsys):
        # a JSON object naming a key twice would keep its last value
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        data["sigma"] = {"*": "1"}
        owner = data
        for step in where:
            owner = owner[step]
        marker = "repeated-key-marker"
        owner[marker] = None
        text = json.dumps(data).replace(
            f'"{marker}": null', f"{json.dumps(key)}: {json.dumps(first)}"
        )
        path = tmp_path / "repeated.json"
        path.write_text(text)
        assert cli.main(["modular-class", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: not valid JSON: repeated key '{key}'\n"

    @pytest.mark.parametrize("fmt", ["text", "json"])
    def test_a_result_past_the_digit_limit_is_one_error(self, fmt, tmp_path, capsys):
        # f acts on a rank-2 fiber by 10^4000 I, so det f = 10^8000 has more
        # digits than Python writes, though every input literal is shorter
        big, units = "1" + "0" * 4000, [["1", "0"], ["0", "1"]]
        data = {
            "groupoid": {
                "objects": ["x", "y"],
                "arrows": [
                    {"id": a, "src": s, "tgt": t}
                    for a, s, t in [("1x", "x", "x"), ("1y", "y", "y"), ("f", "x", "y"), ("g", "y", "x")]
                ],
                "identity": {"x": "1x", "y": "1y"},
                "inverse": {"1x": "1x", "1y": "1y", "f": "g", "g": "f"},
                "compose": [
                    ["1x", "1x", "1x"], ["1y", "1y", "1y"], ["f", "1x", "f"], ["1y", "f", "f"],
                    ["g", "1y", "g"], ["1x", "g", "g"], ["f", "g", "1y"], ["g", "f", "1x"],
                ],
            },
            "rep": {
                "1x": units,
                "1y": units,
                "f": [[big, "0"], ["0", big]],
                "g": [[f"1/{big}", "0"], ["0", f"1/{big}"]],
            },
        }
        path = tmp_path / "big_det.json"
        path.write_text(json.dumps(data))
        assert cli.main(["modular-class", str(path), "--format", fmt]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: a result has more than {sys.get_int_max_str_digits()} digits\n"

    @pytest.mark.parametrize("section", ["dims", "differentials", "rep"])
    def test_a_degree_key_past_the_digit_limit_is_one_error(self, section, tmp_path, capsys):
        # int() refuses the key, so it names no degree
        key = "1" * (sys.get_int_max_str_digits() + 1)
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        if section == "rep":
            data["rep"]["t"][key] = [["1"]]
            error = f"rep of arrow 't': bad degree {key!r}"
        else:
            data["complex"]["*"][section][key] = 1 if section == "dims" else []
            kind = "dimension entry" if section == "dims" else "differential degree"
            error = f"complex of '*': bad {kind} {key!r}"
        path = tmp_path / "big_key.json"
        path.write_text(json.dumps(data))
        assert cli.main(["validate", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {error}\n"

    @pytest.mark.parametrize("command", ["validate", "modular-class"])
    def test_failed_groupoid_skips_the_rep_checks(self, command, tmp_path):
        data = json.loads((FIXTURES / "pair2.json").read_text())
        data["groupoid"]["identity"] = {}
        path = tmp_path / "no_units.json"
        path.write_text(json.dumps(data))
        result = run_cli(command, str(path), "--format", "json")
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert json.loads(result.stdout)["sections"] == {
            "groupoid": ["object 'x' has no unit arrow", "object 'y' has no unit arrow"]
        }

    @pytest.mark.parametrize("command", ["validate", "modular-class"])
    def test_unequal_graded_dimensions_are_a_rep_problem(self, command, tmp_path):
        # y becomes the zero complex, homotopy equivalent to the acyclic x
        data = json.loads((FIXTURES / "acyclic_two_term.json").read_text())
        data["complex"]["y"] = {"degrees": [0, 0], "dims": {"0": 0}}
        for arrow in ("1y", "g", "ginv"):
            data["rep"][arrow] = {}
        path = tmp_path / "zero_fiber.json"
        path.write_text(json.dumps(data))
        result = run_cli(command, str(path), "--format", "json")
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        assert json.loads(result.stdout)["sections"]["rep"] == [
            "arrow 'g' joins fibers of different dimension in degree 0 (1 vs 0)",
            "arrow 'ginv' joins fibers of different dimension in degree 0 (0 vs 1)",
        ]

    def test_fibers_with_disjoint_degree_ranges(self, tmp_path, capsys):
        # zero complexes in degrees 0 and 2: every Berezinian is exactly 1
        data = json.loads((FIXTURES / "acyclic_two_term.json").read_text())
        data["complex"] = {
            "x": {"degrees": [0, 0], "dims": {"0": 0}},
            "y": {"degrees": [2, 2], "dims": {"2": 0}},
        }
        data["rep"] = {arrow: {} for arrow in data["rep"]}
        path = tmp_path / "disjoint.json"
        path.write_text(json.dumps(data))
        code = cli.main(["modular-class", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert (code, payload["class"]) == (0, "trivial")
        assert set(payload["berezinian"].values()) == {"1"}

    def test_homotopy_check_reports_a_failed_groupoid(self, tmp_path):
        data = json.loads((FIXTURES / "pair2.json").read_text())
        data["groupoid"]["identity"] = {}
        path = tmp_path / "no_units.json"
        path.write_text(json.dumps(data))
        result = run_cli("homotopy-check", str(path), "--format", "json")
        assert result.returncode == 1
        assert "Traceback" not in result.stderr
        payload = json.loads(result.stdout)
        assert payload["sections"] == {
            "groupoid": ["object 'x' has no unit arrow", "object 'y' has no unit arrow"]
        }
        assert "pairs" not in payload

    @pytest.mark.parametrize("command", list(COMMANDS))
    @pytest.mark.parametrize(
        "breakage",
        [
            lambda g: g["identity"].pop(g["objects"][0]),
            lambda g: g["compose"].pop(0),
        ],
        ids=["drop-identity", "drop-compose"],
    )
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_broken_groupoid_table_gives_no_traceback(self, name, breakage, command, tmp_path):
        data = json.loads((FIXTURES / f"{name}.json").read_text())
        breakage(data["groupoid"])
        path = tmp_path / "broken.json"
        path.write_text(json.dumps(data))
        arrow = ["--arrow", data["groupoid"]["arrows"][-1]["id"]] if COMMANDS[command] else []
        result = run_cli(command, str(path), *arrow)
        assert result.returncode in (0, 1, 2)
        assert "Traceback" not in result.stderr

    def test_unknown_arrow_is_usage_error(self):
        result = run_cli("berezinian", "acyclic_two_term.json", "--arrow", "zz")
        assert result.returncode == 2
        assert "zz" in result.stderr


class TestGoldenReports:
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_byte_identical_across_runs_and_matches_golden(self, name):
        first = run_cli("modular-class", f"{name}.json", "--format", "json")
        second = run_cli("modular-class", f"{name}.json", "--format", "json")
        assert first.returncode == 0 and second.returncode == 0
        assert first.stdout == second.stdout
        golden = (GOLDEN / f"{name}.modular-class.json").read_text()
        assert first.stdout == golden

    @pytest.mark.parametrize("command", ["validate", "cohomology", "modular-class", "homotopy-check"])
    @pytest.mark.parametrize(
        "path",
        [FIXTURES / f"{name}.json" for name in FIXTURE_NAMES] + sorted(DATA.glob("*.json")),
        ids=lambda path: path.stem,
    )
    def test_byte_identical_under_hash_seeds(self, path, command, monkeypatch):
        # string hashes, and with them set order, change with the seed
        runs = []
        for seed in ("1", "12345"):
            monkeypatch.setenv("PYTHONHASHSEED", seed)
            result = run_cli(command, str(path), "--format", "json")
            runs.append((result.returncode, result.stdout))
        assert runs[0] == runs[1]


class TestCommands:
    def test_modular_class_pair2(self):
        result = run_cli("modular-class", "pair2.json", "--format", "json")
        payload = json.loads(result.stdout)
        assert payload["class"] == "trivial"
        assert payload["berezinian"]["g"] == "6"
        # sigma(x)=2 shifts the cochain off the raw determinant
        assert payload["cochain"]["g"] == "12"
        assert "witness" in payload

    def test_modular_class_z2_sign_odd(self):
        payload = json.loads(
            run_cli("modular-class", "z2_sign_odd.json", "--format", "json").stdout
        )
        assert payload["class"] == "nontrivial"
        assert payload["obstructions"] == [{"arrow": "t", "value": "-1"}]

    def test_berezinian_single_arrow(self):
        payload = json.loads(
            run_cli(
                "berezinian", "acyclic_two_term.json", "--arrow", "g", "--format", "json"
            ).stdout
        )
        assert payload["value"] == "1"

    def test_replace_emits_invertible_components(self):
        payload = json.loads(
            run_cli(
                "replace", "acyclic_two_term.json", "--arrow", "g", "--format", "json"
            ).stdout
        )
        assert payload["components"] == {"0": [["1"]], "1": [["1"]]}

    def test_homotopy_check_reports_pairs(self):
        payload = json.loads(
            run_cli("homotopy-check", "z2_sign_odd.json", "--format", "json").stdout
        )
        assert payload["ok"] is True
        assert len(payload["pairs"]) == 4
        assert all(p["certificate"] == "found" for p in payload["pairs"])

    def test_homotopy_check_finds_exactly_the_homotopic_pairs(self, tmp_path, capsys):
        outcomes = set()
        for seed in range(24):
            gpd, rep, path = ruth_document(seed, tmp_path)
            code = cli.main(["homotopy-check", str(path), "--format", "json"])
            pairs = json.loads(capsys.readouterr().out)["pairs"]
            found = {(p["g"], p["h"]) for p in pairs if p["certificate"] == "found"}
            homotopic = {
                (g, h)
                for g, h in gpd.composable_pairs()
                if homotopy_between(rep(g).compose(rep(h)), rep(gpd.compose(g, h))) is not None
            }
            assert found == homotopic, seed
            assert code == (0 if len(found) == len(pairs) else 1), seed
            outcomes.add(code)
        assert outcomes == {0, 1}

    def test_replace_prints_the_reference_replacement(self, tmp_path, capsys):
        # every non-unit arrow of random homotopy documents: the components
        # are those of f + dH + Hd multiplied out in standard coordinates
        outcomes = set()
        for seed in range(12):
            gpd, rep, path = ruth_document(seed, tmp_path)
            units = {gpd.unit(x) for x in gpd.objects}
            for a in (b for b in gpd.arrow_ids() if b not in units):
                try:
                    g = conjugate_replacement(rep(a))
                except ValueError:
                    g = None
                code = 1 if g is None else 0
                assert cli.main(["replace", str(path), "--arrow", a, "--format", "json"]) == code
                payload = json.loads(capsys.readouterr().out)
                assert cli.main(["replace", str(path), "--arrow", a]) == code
                text = capsys.readouterr().out
                outcomes.add(g is None)
                if g is None:
                    assert payload["ok"] is False and "error" in payload
                    continue
                components = {str(i): g.component(i).to_strings() for i in g.source.degrees()}
                assert payload == {
                    "command": "replace", "input": str(path), "ok": True, "arrow": a,
                    "components": components,
                }
                lines = ["command: replace", f"input: {path}", f"arrow: {a}", "components:"]
                for i, rows in components.items():
                    lines += [f"  {i}:"] + [f"    - [{' '.join(row)}]" for row in rows]
                assert text == "\n".join(lines + ["status: ok", ""]), (seed, a)
        assert outcomes == {False, True}

    def test_cohomology_solves_supplied_cochain(self):
        payload = json.loads(
            run_cli("cohomology", "pair2.json", "--format", "json").stdout
        )
        assert payload["is_cocycle"] is True
        assert payload["class"] == "trivial"
        assert payload["witness"] == {"x": "1", "y": "1/2"}

    def test_cohomology_rejects_non_cocycle(self, tmp_path):
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        data["cochain"]["t"] = "2"
        path = tmp_path / "noncocycle.json"
        path.write_text(json.dumps(data))
        result = run_cli("cohomology", str(path))
        assert result.returncode == 1
        assert "is_cocycle: False" in result.stdout

    @pytest.mark.parametrize("cochain_t", [None, "2"])
    def test_cohomology_checks_the_cocycle_once(self, cochain_t, monkeypatch, capsys, tmp_path):
        from modclass import groupoid

        original, calls = groupoid.is_cocycle_1, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(groupoid, "is_cocycle_1", counted)
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        if cochain_t is not None:
            data["cochain"]["t"] = cochain_t
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(data))
        code = cli.main(["cohomology", str(path), "--format", "json"])
        payload = json.loads(capsys.readouterr().out)
        assert (code, payload["is_cocycle"]) == ((0, True) if cochain_t is None else (1, False))
        assert len(calls) == 1

    def test_validate_reports_sections(self):
        payload = json.loads(
            run_cli("validate", "acyclic_two_term.json", "--format", "json").stdout
        )
        assert payload["sections"]["groupoid"] == "ok"
        assert payload["sections"]["rep"] == "ok"
        assert payload["sections"]["complex"] == {"x": "ok", "y": "ok"}

    def test_timing_kept_out_of_stdout(self):
        result = run_cli("modular-class", "pair2.json", "--format", "json")
        assert "elapsed" not in result.stdout
        assert "elapsed" in result.stderr


class TestHomotopyBuilds:
    """Deciding homotopies builds none: every command reads the report's
    decisions, and only ``replace`` maps a matrix in decomposition
    coordinates back (``linalg.replacement``)."""

    @pytest.fixture
    def builds(self, monkeypatch):
        original, calls = complexes.replacement, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(complexes, "replacement", counted)
        return calls

    @pytest.mark.parametrize("command", ["validate", "modular-class", "homotopy-check"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_decisions_build_none(self, name, command, builds, capsys):
        code = cli.main([command, str(FIXTURES / f"{name}.json"), "--format", "json"])
        # s3_action is a line representation: homotopy-check has no chain maps to check
        expected = 2 if (command, name) == ("homotopy-check", "s3_action") else 0
        assert (code, builds) == (expected, [])

    def test_homotopy_check_multiplies_each_contraction_once(self, builds, monkeypatch, capsys, tmp_path):
        # one object with a nonzero differential: every pair is found from
        # the harmonic blocks read off each arrow's change of basis, so the
        # object is decomposed once and nothing is built; the contraction
        # witnesses a found pair's homotopy
        z2 = standard_fixtures()[0]
        spec = RuthSpec({0: 1, 1: 1}, [0])
        rep = rand_ruth(random.Random(3), z2, spec)
        path = tmp_path / "one_object.json"
        path.write_text(json.dumps(serialize(InputDocument(z2.gpd, rep, None, None))))
        original, decomposed = complexes.decompose, []

        def counted(c):
            decomposed.append(c)
            return original(c)

        for name, module in list(sys.modules.items()):
            if name.startswith("modclass") and getattr(module, "decompose", None) is original:
                monkeypatch.setattr(module, "decompose", counted)
        assert cli.main(["homotopy-check", str(path), "--format", "json"]) == 0
        pairs = json.loads(capsys.readouterr().out)["pairs"]
        assert [p["certificate"] for p in pairs] == ["found"] * 4
        assert (decomposed, builds) == ([rep.complexes["*"]], [])
        g = h = next(a for a in z2.gpd.arrow_ids() if a != z2.gpd.unit("*"))
        assert homotopy_between(rep(g).compose(rep(h)), rep(z2.gpd.compose(g, h))) is not None
        # the spy sees the one construction a command makes
        assert cli.main(["replace", str(path), "--arrow", g, "--format", "json"]) == 0
        assert builds


class TestWorkCounts:
    """One request does each piece of analysis once."""

    # (module, function, what the budget is per): at most one call each
    BUDGET = [
        ("complexes", "decompose", "object"),
        ("complexes", "verify_complex", "object"),
        ("complexes", "harmonic_blocks", "arrow"),
        ("complexes", "verify_chain_map", "arrow"),
        ("groupoid", "_isotropy_model", "request"),
        # one law check and one class decision: nothing is checked twice
        ("reps", "verify_rep", "request"),
        ("reps", "verify_ruth", "request"),
        ("reps", "verify_vector_rep", "request"),
        ("reps", "verify_line_rep", "request"),
        ("reps", "decide_modular_class", "request"),
    ]

    @pytest.fixture
    def calls(self, monkeypatch):
        counts = dict.fromkeys((name for _, name, _ in self.BUDGET), 0)
        for layer, name, _ in self.BUDGET:
            original = getattr(sys.modules[f"modclass.{layer}"], name)

            def counted(*args, _original=original, _name=name, **kwargs):
                counts[_name] += 1
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.startswith("modclass") and getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        return counts

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_modular_class_stays_within_budget(self, name, calls, capsys):
        path = FIXTURES / f"{name}.json"
        groupoid = json.loads(path.read_text())["groupoid"]
        sizes = {"object": len(groupoid["objects"]), "arrow": len(groupoid["arrows"]), "request": 1}
        assert cli.main(["modular-class", str(path), "--format", "json"]) == 0
        over = {name: calls[name] for _, name, per in self.BUDGET if calls[name] > sizes[per]}
        assert over == {}
        # the counters see the work: every fiber of a homotopy document is decomposed
        homotopy = isinstance(parse(path).rep, RepUpToWeakHomotopy)
        assert calls["decompose"] == (sizes["object"] if homotopy else 0)

    @pytest.mark.parametrize("name", ["z2_sign_odd", "pair2", "acyclic_two_term"])
    def test_homotopy_check_stays_within_budget(self, name, calls, capsys):
        path = FIXTURES / f"{name}.json"
        groupoid = json.loads(path.read_text())["groupoid"]
        sizes = {"object": len(groupoid["objects"]), "arrow": len(groupoid["arrows"]), "request": 1}
        assert cli.main(["homotopy-check", str(path), "--format", "json"]) == 0
        over = {name: calls[name] for _, name, per in self.BUDGET if calls[name] > sizes[per]}
        assert over == {}
        # a vector document is checked as a homotopy one: every fiber is decomposed
        assert calls["decompose"] == sizes["object"]

    @pytest.mark.parametrize(
        ("command", "name"),
        [("validate", name) for name in FIXTURE_NAMES]
        + [("cohomology", "pair2"), ("cohomology", "z2_sign_odd")],
    )
    def test_law_checks_build_the_model_once(self, command, name, calls, capsys):
        assert cli.main([command, str(FIXTURES / f"{name}.json"), "--format", "json"]) == 0
        # groupoid validation builds it; the rep and cocycle checks reuse it
        assert calls["_isotropy_model"] == 1

    @pytest.mark.parametrize(
        ("command", "name", "action_as_cochain"),
        [
            ("validate", "pair2", False),
            ("validate", "s3_action", False),
            ("validate", "s3_action", True),
            ("cohomology", "pair2", False),
            ("cohomology", "s3_action", True),
            ("modular-class", "pair2", False),
            ("modular-class", "s3_action", False),
            ("modular-class", "s3_action", True),
        ],
    )
    def test_lawful_tables_list_no_pairs(
        self, command, name, action_as_cochain, calls, monkeypatch, tmp_path, capsys
    ):
        # vector (pair2), line (s3_action) and cochain documents: the model
        # decides the table's domain, and nothing lists the pairs
        data = json.loads((FIXTURES / f"{name}.json").read_text())
        if action_as_cochain:
            data["cochain"] = data["rep"]  # a line action is a cocycle
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        listed = []
        composable_pairs = modclass.FiniteGroupoid.composable_pairs

        def counted(gpd):
            listed.append(gpd)
            return composable_pairs(gpd)

        monkeypatch.setattr(modclass.FiniteGroupoid, "composable_pairs", counted)
        assert cli.main([command, str(path), "--format", "json"]) == 0
        assert listed == []
        assert calls["_isotropy_model"] == 1

    @pytest.mark.parametrize("name", ["z2_sign_odd", "acyclic_two_term"])
    def test_deciding_a_homotopy_document_lists_no_pairs(self, name, calls, monkeypatch, capsys):
        # the report's certificates are derived when read, and modular-class
        # reads none; homotopy-check, which reports them, lists the pairs
        listed = []
        composable_pairs = modclass.FiniteGroupoid.composable_pairs

        def counted(gpd):
            listed.append(gpd)
            return composable_pairs(gpd)

        monkeypatch.setattr(modclass.FiniteGroupoid, "composable_pairs", counted)
        assert cli.main(["modular-class", str(FIXTURES / f"{name}.json"), "--format", "json"]) == 0
        assert listed == []
        assert calls["verify_ruth"] == 1
        assert cli.main(["homotopy-check", str(FIXTURES / f"{name}.json"), "--format", "json"]) == 0
        assert listed != []

    @staticmethod
    def s3_documents(tmp_path) -> dict[str, pathlib.Path]:
        """A lawful 5 objects x S3 groupoid with its sign character as a
        vector, a line, and a line plus a cochain document."""
        gpd = modclass.connected_groupoid([f"o{i}" for i in range(5)], modclass.GroupTable.symmetric_3())

        def sign(arrow: str) -> int:
            digits = arrow[1:4]  # "s102:o0>o1"
            odd = sum(digits[i] > digits[j] for i in range(3) for j in range(i + 1, 3)) % 2
            return -1 if odd else 1

        signs = {a: sign(a) for a in gpd.arrow_ids()}
        line = modclass.LineRep(gpd, signs)
        vector = VectorRep(gpd, dict.fromkeys(gpd.objects, 1), {a: Matrix([[v]]) for a, v in signs.items()})
        cochain = Cochain(1, {(a,): v for a, v in signs.items()})
        docs = {
            "vector": InputDocument(gpd, vector, None, None),
            "line": InputDocument(gpd, line, None, None),
            "cochain": InputDocument(gpd, line, None, cochain),
        }
        paths = {}
        for kind, doc in docs.items():
            paths[kind] = tmp_path / f"{kind}.json"
            paths[kind].write_text(json.dumps(serialize(doc)))
        return paths

    def test_a_lawful_table_is_read_and_checked_on_its_rows(self, tmp_path, monkeypatch, capsys):
        # the flat view of the composition table is for the scans that
        # word problems; no step of a lawful request reads it
        paths = self.s3_documents(tmp_path)

        def flat_view(gpd):
            raise AssertionError("the flat composition table was read")

        monkeypatch.setattr(modclass.FiniteGroupoid, "composition", property(flat_view))
        for kind, path in paths.items():
            doc = parse(str(path))
            assert modclass.validate(doc.groupoid).ok
            assert cli.main(["validate", str(path), "--format", "json"]) == 0
            assert cli.main(["modular-class", str(path), "--format", "json"]) == 0, kind
        capsys.readouterr()
        assert cli.main(["cohomology", str(paths["cochain"]), "--format", "json"]) == 0
        # the sign character is no coboundary: the work was done, not skipped
        assert json.loads(capsys.readouterr().out)["class"] == "nontrivial"
        with pytest.raises(AssertionError, match="flat composition"):
            parse(str(paths["line"])).groupoid.composition


    def test_a_vector_document_takes_each_determinant_once(self, monkeypatch, capsys):
        # verify_vector_rep reads them off the isotropy model, and the
        # modular class reads them off its report
        taken = []
        original = modclass.linalg.det

        def counted(m):
            taken.append(m)
            return original(m)

        for module_name, module in list(sys.modules.items()):
            if module_name.startswith("modclass") and getattr(module, "det", None) is original:
                monkeypatch.setattr(module, "det", counted)
        assert cli.main(["modular-class", str(FIXTURES / "pair2.json"), "--format", "json"]) == 0
        groupoid = json.loads((FIXTURES / "pair2.json").read_text())["groupoid"]
        # one per isotropy loop at the base, the first object, and one per
        # tree arrow off it, which the functoriality check hands over
        base = groupoid["objects"][0]
        loops = [a for a in groupoid["arrows"] if a["src"] == a["tgt"] == base]
        assert len(taken) == len(loops) + len(groupoid["objects"]) - 1 < len(groupoid["arrows"])


def zero_entries(rng: random.Random, lo: int, hi: int, shape) -> dict[int, Matrix]:
    """Zero or empty matrices of shape ``shape(i)`` at random degrees from
    ``lo`` to ``hi``; one of shape 0xN is spelled ``[]`` in JSON."""
    entries = {}
    for i in range(lo, hi + 1):
        if rng.random() < 0.5:
            entries[i] = Matrix.zeros(*shape(i))
    return entries


def _z2_sign_odd_to_degree_2(data: dict) -> None:
    # degree 2 has dimension 0, so the differential out of degree 1 is 0x1
    data["complex"]["*"]["degrees"] = [1, 2]


def _acyclic_two_term_y_in_degree_0(data: dict) -> None:
    # y keeps degree 0 alone, so g: x -> y is 0x1 in degree 1
    data["complex"]["y"].update(dims={"0": 1}, differentials={})
    for arrow in ("1y", "g", "ginv"):
        data["rep"][arrow].pop("1")


@pytest.mark.parametrize(
    ("name", "reshape", "spell"),
    [
        ("z2_sign_odd", _z2_sign_odd_to_degree_2, lambda d: d["complex"]["*"]["differentials"].update({"1": []})),
        ("acyclic_two_term", _acyclic_two_term_y_in_degree_0, lambda d: d["rep"]["g"].update({"1": []})),
    ],
    ids=["differential", "component"],
)
def test_an_empty_list_reads_as_the_zero_entry_with_no_rows(name, reshape, spell, tmp_path, capsys):
    data = json.loads((FIXTURES / f"{name}.json").read_text())
    reshape(data)
    spelled = json.loads(json.dumps(data))
    spell(spelled)
    assert parse_data(spelled) == parse_data(data)
    path = tmp_path / "doc.json"

    def outcome(doc: dict, command: str, fmt: str):
        path.write_text(json.dumps(doc))
        code = cli.main([command, str(path), "--format", fmt])
        out, err = capsys.readouterr()
        return code, out, [line for line in err.splitlines() if line.startswith("error:")]

    codes = set()
    for command in ("validate", "cohomology", "modular-class", "homotopy-check"):
        for fmt in ("text", "json"):
            result = outcome(spelled, command, fmt)
            assert result == outcome(data, command, fmt)
            codes.add((command, result[0]))
    assert ("validate", 0 if name == "z2_sign_odd" else 1) in codes


def padded_ranges(data: dict, rng: random.Random, widths) -> tuple[dict, dict]:
    """A copy of ``data`` with each object's range widened below and above by
    widths drawn from ``widths``, zero differentials and components spelled
    out at some degrees where none is given, and the degrees each object
    gained."""
    padded, gained = json.loads(json.dumps(data)), {}
    for obj, spec in padded["complex"].items():
        lo, hi = spec["degrees"]
        below, above = rng.choice(widths), rng.choice(widths)
        spec["degrees"] = [lo - below, hi + above]
        if rng.random() < 0.5:  # a 0 given for a degree is as good as none
            spec["dims"][str(hi + above)] = 0
        gained[obj] = [*range(lo - below, lo), *range(hi + 1, hi + above + 1)]
    # spell out zeros over the old range and one degree past it each way
    spans = {obj: spec["degrees"] for obj, spec in data["complex"].items()}

    def dim(obj: str, i: int) -> int:
        return padded["complex"][obj]["dims"].get(str(i), 0)

    for obj, (lo, hi) in spans.items():
        given = padded["complex"][obj].setdefault("differentials", {})
        for i, m in zero_entries(rng, lo - 1, hi + 1, lambda i: (dim(obj, i + 1), dim(obj, i))).items():
            given.setdefault(str(i), m.to_strings())
    for a in padded["groupoid"]["arrows"]:
        x, y = a["src"], a["tgt"]
        lo, hi = min(spans[x][0], spans[y][0]), max(spans[x][1], spans[y][1])
        for i, m in zero_entries(rng, lo - 1, hi + 1, lambda i: (dim(y, i), dim(x, i))).items():
            padded["rep"][a["id"]].setdefault(str(i), m.to_strings())
    return padded, gained


class TestEmptyDegrees:
    """A zero-dimensional degree costs nothing and changes no report."""

    @pytest.mark.parametrize("seed", range(16))
    def test_padding_changes_no_report(self, seed, tmp_path, capsys):
        # random homotopy documents over the four standard groupoids, odd
        # seeds with one action swapped for a random chain map, with a
        # cocycle and on some seeds a trivialization; each range is widened
        # by up to 10^6 empty degrees, up to 50 for `replace`, and zero
        # differentials and components are spelled out
        rng = random.Random(seed)
        fx = standard_fixtures()[seed % 4]
        gpd, rep = fx.gpd, rand_ruth(rng, fx)
        arrow = rng.choice(gpd.arrow_ids())
        if seed % 2:
            units = {gpd.unit(x) for x in gpd.objects}
            arrow = rng.choice([b for b in gpd.arrow_ids() if b not in units])
            rep.action[arrow] = rand_chain_map(rng, rep(arrow).source, rep(arrow).target)
        cochain = Cochain(1, {(a,): v for a, v in rand_cocycle(rng, fx).items()})
        sigma = rand_trivialization(rng, gpd) if seed % 3 == 0 else None
        data = serialize(InputDocument(gpd, rep, sigma, cochain))
        path = tmp_path / "doc.json"

        def outcome(doc: dict, command: str, *options: str):
            path.write_text(json.dumps(doc))
            code = cli.main([command, str(path), *options])
            out, err = capsys.readouterr()
            return code, out, [line for line in err.splitlines() if line.startswith("error:")]

        for fmt in ("text", "json"):
            wide, _ = padded_ranges(data, rng, [1, 2, 17, 1000, 10**6])
            for command, *options in [
                ("validate",), ("cohomology",), ("modular-class",), ("homotopy-check",),
                ("berezinian", "--arrow", arrow),
            ]:
                options += ["--format", fmt]
                assert outcome(wide, command, *options) == outcome(data, command, *options)
            options = ["--arrow", arrow, "--format", fmt]
            code, out, errors = outcome(data, "replace", *options)
            padded, gained = padded_ranges(data, rng, range(1, 51))
            extra = gained[gpd.src(arrow)] if code == 0 else []
            wide_code, wide_out, wide_errors = outcome(padded, "replace", *options)
            assert (wide_code, wide_errors) == (code, errors)
            # `replace` lists every degree of the source's range, a gained one as []
            if fmt == "json":
                payload = json.loads(wide_out)
                assert [payload["components"].pop(str(i)) for i in extra] == [[]] * len(extra)
                assert json.dumps(payload, sort_keys=True, indent=2) + "\n" == out
            else:
                lines = wide_out.splitlines(keepends=True)
                kept = [line for line in lines if line not in {f"  {i}:\n" for i in extra}]
                assert (len(lines) - len(kept), "".join(kept)) == (len(extra), out)

    def test_decompose_splits_each_nonzero_degree_once(self, monkeypatch):
        # once for each nonzero degree with a differential in or out: any
        # other stores nothing, and the empty degrees of the range cost nothing
        rng = random.Random(4)
        split, calls, inner_zeros = complexes.split_degree, [], 0

        def counted(*args):
            calls.append(args)
            return split(*args)

        monkeypatch.setattr(complexes, "split_degree", counted)
        for _ in range(40):
            c = rand_complex(rng, -1, 4, 3)
            inner_zeros += len(c.dims) < len(c.degrees())
            below, above = rng.randint(0, 10**9), rng.randint(0, 10**9)
            wide = ComplexFiber(c.d_min - below, c.d_max + above, c.dims, c.differentials)
            moved = {i for d in c.differentials for i in (d, d + 1)}
            decs = []
            for fiber in (c, wide):
                calls.clear()
                decs.append(decompose(fiber))
                assert len(calls) == len(moved) == len(decs[-1].splits)
            fields = ("splits", "boundary_dims", "harmonic_dims", "basis_det")
            assert [getattr(decs[0], f) for f in fields] == [getattr(decs[1], f) for f in fields]
        assert inner_zeros > 10

    @pytest.mark.parametrize("command", ["validate", "modular-class", "homotopy-check", "berezinian"])
    def test_a_wide_range_does_the_work_of_its_support(self, command, monkeypatch):
        # the fiber's one degree has no differential, so it is split with
        # no factor and each change of basis is its map, with no product
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        narrow = parse_data(data)
        data["complex"]["*"]["degrees"] = [0, 10**12]
        wide = parse_data(data)
        counts = {"split": 0, "change": 0, "product": 0}
        originals = complexes.split_degree, complexes.change_of_basis, Matrix.__mul__

        def counted(key, original):
            def call(*args):
                counts[key] += 1
                return original(*args)
            return call

        monkeypatch.setattr(complexes, "split_degree", counted("split", originals[0]))
        monkeypatch.setattr(complexes, "change_of_basis", counted("change", originals[1]))
        monkeypatch.setattr(Matrix, "__mul__", counted("product", originals[2]))
        seen = []
        for doc in (narrow, wide):
            counts.update(split=0, change=0, product=0)
            args = argparse.Namespace(input="z2_sign_odd.json", fmt="json", arrow="t")
            report, code = cli.run(command, doc, args)
            seen.append((dict(counts), code, report.to_json()))
        assert seen[0] == seen[1]
        assert seen[0][0]["split"] == 0 and seen[0][0]["change"] > 0

    @staticmethod
    def z2_document(tmp_path, degrees) -> str:
        data = json.loads((FIXTURES / "z2_sign_odd.json").read_text())
        data["complex"]["*"]["degrees"] = degrees
        path = tmp_path / "z2.json"
        path.write_text(json.dumps(data))
        return str(path)

    @pytest.mark.parametrize("hi", [cli.REPLACE_MAX_DEGREES, 10**12])
    def test_replace_refuses_a_range_past_its_limit(self, hi, tmp_path, monkeypatch, capsys):
        # told by the refusal alone: no replacement is built, nothing is written
        monkeypatch.setattr(cli, "invertible_replacement", lambda t: pytest.fail("built"))
        path = self.z2_document(tmp_path, [0, hi])
        assert cli.main(["replace", path, "--arrow", "t", "--format", "json"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines() == [
            f"error: arrow 't' has source degrees 0 to {hi}; replace writes one"
            f" component per degree, at most {cli.REPLACE_MAX_DEGREES}"
        ]

    def test_replace_at_its_limit_writes_every_degree(self, tmp_path, capsys):
        limit = cli.REPLACE_MAX_DEGREES
        path = self.z2_document(tmp_path, [1, limit])
        assert cli.main(["replace", path, "--arrow", "t", "--format", "json"]) == 0
        components = json.loads(capsys.readouterr().out)["components"]
        assert list(components) == sorted(str(i) for i in range(1, limit + 1))
        assert components["1"] == [["-1"]]
        assert all(components[str(i)] == [] for i in range(2, limit + 1))


def units_document(tmp_path, dims: dict[str, dict[str, int]]) -> str:
    """The written path of a groupoid of units, one per object of ``dims``,
    each object's complex the ``dims`` given with no differential, and each
    unit acting by the zero chain map (``{}``)."""
    objects = list(dims)
    data = {
        "groupoid": {
            "objects": objects,
            "arrows": [{"id": f"1{x}", "src": x, "tgt": x} for x in objects],
            "identity": {x: f"1{x}" for x in objects},
            "inverse": {f"1{x}": f"1{x}" for x in objects},
            "compose": [[f"1{x}"] * 3 for x in objects],
        },
        "complex": {
            x: {"degrees": [0, len(spec)], "dims": {str(i): n for i, n in enumerate(spec.values())}}
            for x, spec in dims.items()
        },
        "rep": {f"1{x}": {} for x in objects},
    }
    path = tmp_path / "units.json"
    path.write_text(json.dumps(data))
    return str(path)


class TestDimensionLimit:
    """What a document's dimensions can make the analysis allocate is bounded.

    A nonzero degree of dimension n can still cost n x n entries (its
    matrices, their eliminations, its factors), so a document whose dim^2
    summed over objects and degrees passes ``schema.COMPLEX_MAX_DIM_SQUARES``
    is refused before any fiber is built; told by the refusal, never by
    letting such a document run.  A degree with no differential costs no
    dense matrix at all.
    """

    LIMIT_ERROR = (
        "error: complex section: the sum of squared dimensions over all objects"
        f" and degrees exceeds {schema.COMPLEX_MAX_DIM_SQUARES}"
    )

    @pytest.mark.parametrize(
        "dims",
        [
            {"*": {"0": 2049}},
            {"x": {"0": 1500}, "y": {"0": 1500}},
            {"*": {"0": 1500, "1": 1500}},
            {"*": {"0": 10**12}},
        ],
        ids=["one-degree", "two-objects", "two-degrees", "10^12"],
    )
    @pytest.mark.parametrize("command", ["validate", "modular-class", "replace"])
    def test_a_document_past_the_limit_is_one_error(self, dims, command, tmp_path, monkeypatch, capsys):
        monkeypatch.setattr(schema, "ComplexFiber", lambda *args: pytest.fail("a fiber was built"))
        path = units_document(tmp_path, dims)
        arrow = ["--arrow", f"1{next(iter(dims))}"] if command == "replace" else []
        assert cli.main([command, path, *arrow]) == 2
        out, err = capsys.readouterr()
        assert (out, err.splitlines()) == ("", [self.LIMIT_ERROR])

    def test_a_document_at_the_limit_is_read(self, tmp_path):
        side = math.isqrt(schema.COMPLEX_MAX_DIM_SQUARES)
        doc = schema.parse(units_document(tmp_path, {"*": {"0": side}}))
        assert doc.rep.complexes["*"].dims == {0: side}

    def test_a_zero_action_is_decided_with_no_product(self, tmp_path, monkeypatch, capsys):
        # the change of basis of a component t stores no entry of is zero, not a product
        monkeypatch.setattr(Matrix, "__mul__", lambda *args: pytest.fail("a product was made"))
        path = units_document(tmp_path, {"*": {"0": 1000}})
        assert cli.main(["modular-class", path]) == 1
        out, err = capsys.readouterr()
        assert "rep:\n    - unit of object '*' does not act by the identity\n" in out
        assert not [line for line in err.splitlines() if line.startswith("error:")]


def test_fixture_generator_reproduces_the_shipped_documents():
    spec = importlib.util.spec_from_file_location(
        "gen_fixtures", pathlib.Path(__file__).parents[1] / "tools" / "gen_fixtures.py"
    )
    gen = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gen)
    docs = gen.documents()
    assert sorted(docs) == sorted(f"{name}.json" for name in FIXTURE_NAMES)
    for name, doc in docs.items():
        assert gen.render(doc).encode("utf-8") == (FIXTURES / name).read_bytes(), name
