"""Each case of ``tools/write_boundary_golden.py`` prints what its golden line records.

Each document (the fixtures, ``tests/data`` and seeded mutations of the
fixtures) is replayed in-process through ``cli.main`` with all six
commands in text and JSON, and each case's exit code, ``error:`` lines
and stdout hash must equal its line in ``tests/golden/boundary.jsonl``,
or for a law document (a representation or complex that fails its laws)
in ``tests/golden/laws.jsonl``.
Regenerate the file with the tool only for a change that means to alter
what the boundary prints.
"""

import importlib.util
import json
import pathlib

import pytest

TOOL = pathlib.Path(__file__).resolve().parent.parent / "tools" / "write_boundary_golden.py"
_spec = importlib.util.spec_from_file_location("write_boundary_golden", TOOL)
golden = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(golden)

DOCUMENTS = golden.documents()
LAW_DOCUMENTS = golden.law_documents()


def _expected(path: pathlib.Path) -> dict[str, list[str]]:
    by_doc: dict[str, list[str]] = {}
    for line in path.read_text(encoding="ascii").splitlines():
        by_doc.setdefault(json.loads(line)["doc"], []).append(line)
    return by_doc


EXPECTED = _expected(golden.GOLDEN)
EXPECTED_LAWS = _expected(golden.LAWS)


def test_the_golden_file_holds_every_document_in_order():
    assert list(EXPECTED) == [name for name, _ in DOCUMENTS]


@pytest.mark.parametrize("name,text", DOCUMENTS, ids=[name for name, _ in DOCUMENTS])
def test_each_case_prints_its_golden_line(name, text, tmp_path):
    assert golden.replay(name, text, tmp_path) == EXPECTED[name]


def test_the_laws_file_holds_every_law_document_in_order():
    assert list(EXPECTED_LAWS) == [name for name, _ in LAW_DOCUMENTS]


@pytest.mark.parametrize("name,text", LAW_DOCUMENTS, ids=[name for name, _ in LAW_DOCUMENTS])
def test_each_law_case_prints_its_golden_line(name, text, tmp_path):
    assert golden.replay(name, text, tmp_path) == EXPECTED_LAWS[name]
