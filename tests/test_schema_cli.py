import importlib.util
import json
import pathlib
import sys

import pytest

import modclass
from modclass import cli, complexes
from modclass import (
    RepUpToWeakHomotopy,
    SchemaError,
    VectorRep,
    parse,
    parse_data,
    serialize,
)
from randgen import run_modclass_cli

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

    def test_malformed_input(self):
        result = run_cli("validate", "malformed.json", cwd=DATA)
        assert result.returncode == 2
        assert "zero denominator" in result.stderr

    def test_missing_file(self):
        assert run_cli("validate", "no_such_file.json").returncode == 2

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
    """Chain homotopies are built only for the pairs homotopy-check reports."""

    @pytest.fixture
    def builds(self, monkeypatch):
        original, calls = complexes._contracting_homotopy, []

        def counted(*args):
            calls.append(args)
            return original(*args)

        for name, module in list(sys.modules.items()):
            if name.startswith("modclass") and getattr(module, "_contracting_homotopy", None) is original:
                monkeypatch.setattr(module, "_contracting_homotopy", counted)
        return calls

    @pytest.mark.parametrize("command", ["validate", "modular-class"])
    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_decisions_build_none(self, name, command, builds, capsys):
        assert cli.main([command, str(FIXTURES / f"{name}.json"), "--format", "json"]) == 0
        assert builds == []

    @pytest.mark.parametrize("name", FIXTURE_NAMES)
    def test_homotopy_check_builds_one_per_found_pair(self, name, builds, capsys):
        code = cli.main(["homotopy-check", str(FIXTURES / f"{name}.json"), "--format", "json"])
        out = capsys.readouterr().out
        if name == "s3_action":  # a line representation: no chain maps to check
            assert (code, out, builds) == (2, "", [])
            return
        found = [p for p in json.loads(out)["pairs"] if p["certificate"] == "found"]
        assert code == 0
        assert len(builds) == len(found) > 0


class TestWorkCounts:
    """One modular-class request does each piece of analysis once."""

    # (module, function, what the budget is per): at most one call each
    BUDGET = [
        ("complexes", "decompose", "object"),
        ("complexes", "verify_complex", "object"),
        ("complexes", "harmonic_blocks", "arrow"),
        ("complexes", "verify_chain_map", "arrow"),
        ("groupoid", "_isotropy_model", "request"),
        ("reps", "det_representation", "request"),
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
