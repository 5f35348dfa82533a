#!/usr/bin/env python3
"""Write tests/golden/boundary.jsonl and laws.jsonl: what the CLI says about each case.

    python3 tools/write_boundary_golden.py

The boundary documents are the four shipped fixtures, the four
``tests/data`` documents of schema and groupoid problems and
``MUTATIONS`` seeded mutations of each fixture: one to three of its
values changed, dropped or repeated, by the edits that
``tests/test_schema_readers.py::mutated_fixture`` makes, drawn from
``random.Random(seed)``.  Each document is written as ``doc.json`` in a
scratch directory and run in-process through ``cli.main`` with all six
commands, in text and in JSON; ``berezinian`` and ``replace`` run once with
the document's first arrow that is no unit and once with an unknown id.
The law documents, the other ``tests/data`` documents, are replayed the
same way into ``laws.jsonl``: representations that fail functoriality on
some pairs (a homotopy one in different pairs in different degrees, and
over two components of different supports) and complexes with ``d o d``
nonzero, which no boundary case reaches.

Each case is one line: the document's name, the arguments, the exit code,
the stderr lines other than ``elapsed:`` (``SAME_ERRORS`` when they are
the previous case's), and the SHA-256 of stdout ("" when it is empty).
``tests/test_boundary_golden.py`` replays every case of both files and
compares, so a change that moves any byte the boundary prints fails there.
"""

from __future__ import annotations

import contextlib
import copy
import hashlib
import io
import json
import os
import random
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))

from modclass import cli  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "boundary.jsonl"
LAWS = ROOT / "tests" / "golden" / "laws.jsonl"
FIXTURES = ROOT / "src" / "modclass" / "fixtures"
DATA = ROOT / "tests" / "data"
FIXTURE_NAMES = ["z2_sign_odd", "pair2", "s3_action", "acyclic_two_term"]
DATA_NAMES = ["broken_assoc", "duplicate_degree", "malformed", "table_domain"]
LAW_NAMES = ["line_not_functorial", "vector_not_functorial", "ruth_failing_degrees",
             "ruth_two_supports", "ruth_unequal_cohomology", "ruth_dd_nonzero",
             "ruth_dd_not_chain_map"]  # fmt: skip
MUTATIONS = 12
COMMANDS = ["validate", "cohomology", "modular-class", "berezinian", "replace", "homotopy-check"]
UNKNOWN_ARROW = "no-such-arrow"
INPUT = "doc.json"
# a case's error lines when they equal the previous case's, of the same document
SAME_ERRORS = "as above"

# the atoms and keys of test_schema_readers.SMALL_JSON
ATOMS = [None, True, False, -3, -2, -1, 0, 1, 2, 3, 1.5,
         "", "0", "1", "-1", "1/2", "1/0", "x", "y", "*", "e", "t", "g", "1x", "ginv"]  # fmt: skip
KEYS = ["0", "1", "-1", "x", "*", "g", "e", "t"]
LETTERS = "ab1/-*٣３ \n"


def _text(rng: random.Random, size: int) -> str:
    return "".join(rng.choice(LETTERS) for _ in range(rng.randint(0, size)))


def _small_json(rng: random.Random, leaves: int = 6):
    """An atom, or a list or object of at most three small values."""
    if leaves > 1 and rng.random() < 0.3:
        items = [_small_json(rng, leaves // 3) for _ in range(rng.randint(0, 3))]
        if rng.random() < 0.5:
            return items
        return {rng.choice(KEYS) if rng.random() < 0.8 else _text(rng, 2): v for v in items}
    return rng.choice(ATOMS) if rng.random() < 0.8 else _text(rng, 3)


def _places(node) -> list:
    """Every ``(container, key)`` in a decoded document, the root's children first."""
    found, stack = [], [node]
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


def mutate(doc: dict, rng: random.Random) -> dict:
    """``doc`` with one to three edits of ``mutated_fixture``'s kinds."""
    places = _places(doc)
    words = sorted({key for parent, key in places if isinstance(key, str)}
                   | {parent[key] for parent, key in places if isinstance(parent[key], str)})  # fmt: skip
    for _ in range(rng.randint(1, 3)):
        action = rng.choice(["same kind"] * 3 + ["copy", "delete", "any"])
        targets = _places(doc)
        if action == "same kind":
            targets = [(parent, key) for parent, key in targets if type(parent[key]) in (str, int)]
        if not targets:
            break
        parent, key = rng.choice(targets)
        if action == "same kind" and isinstance(parent[key], str):
            siblings = [v for v in (parent.values() if isinstance(parent, dict) else parent)
                        if isinstance(v, str)]  # fmt: skip
            pick = rng.randrange(3)
            if pick == 0:
                parent[key] = rng.choice(siblings + ["0", "1", "-1", "2", "1/2"])
            else:
                parent[key] = rng.choice(words) if pick == 1 else _text(rng, 3)
        elif action == "same kind":
            parent[key] = rng.randint(-3, 3)
        elif action == "copy" and isinstance(parent, list):
            parent.insert(key, copy.deepcopy(rng.choice(parent)))
        elif action == "delete":
            del parent[key]
        else:
            parent[key] = _small_json(rng)
    return doc


def documents() -> list[tuple[str, str]]:
    """``(name, text)`` of every document, in the golden file's order."""
    docs = [(f"fixture:{n}", (FIXTURES / f"{n}.json").read_text(encoding="utf-8")) for n in FIXTURE_NAMES]
    docs += [(f"data:{n}", (DATA / f"{n}.json").read_text(encoding="utf-8")) for n in DATA_NAMES]
    for n in FIXTURE_NAMES:
        for seed in range(MUTATIONS):
            doc = mutate(json.loads((FIXTURES / f"{n}.json").read_text(encoding="utf-8")), random.Random(seed))
            docs.append((f"mutation:{n}:{seed}", json.dumps(doc)))
    return docs


def law_documents() -> list[tuple[str, str]]:
    """``(name, text)`` of every law document, in ``laws.jsonl``'s order."""
    return [(f"data:{n}", (DATA / f"{n}.json").read_text(encoding="utf-8")) for n in LAW_NAMES]


def _first_non_unit(text: str) -> str:
    """The first arrow id of the document that no identity entry names."""
    groupoid = json.loads(text).get("groupoid")
    if not isinstance(groupoid, dict):
        return UNKNOWN_ARROW
    identity = groupoid.get("identity")
    units = {a for a in identity.values() if isinstance(a, str)} if isinstance(identity, dict) else set()
    arrows = groupoid.get("arrows")
    for entry in arrows if isinstance(arrows, list) else []:
        arrow = entry.get("id") if isinstance(entry, dict) else None
        if isinstance(arrow, str) and arrow not in units:
            return arrow
    return UNKNOWN_ARROW


def _argvs(text: str) -> list[list[str]]:
    arrows = [_first_non_unit(text), UNKNOWN_ARROW]
    argvs = []
    for command in COMMANDS:
        for fmt in ("text", "json"):
            base = [command, INPUT, "--format", fmt]
            if command in ("berezinian", "replace"):
                argvs += [base + [f"--arrow={a}"] for a in arrows]
            else:
                argvs.append(base)
    return argvs


def _run(argv: list[str]) -> dict:
    out, err = io.StringIO(), io.StringIO()
    record: dict = {"argv": argv}
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        record["code"] = cli.main(argv)
    record["errors"] = [line for line in err.getvalue().splitlines() if not line.startswith("elapsed:")]
    stdout = out.getvalue()
    record["stdout"] = hashlib.sha256(stdout.encode("utf-8")).hexdigest() if stdout else ""
    return record


def replay(name: str, text: str, directory: Path) -> list[str]:
    """The golden lines of one document, run as ``doc.json`` in ``directory``."""
    (directory / INPUT).write_text(text, encoding="utf-8")
    cwd = os.getcwd()
    os.chdir(directory)
    try:
        records = [_run(argv) for argv in _argvs(text)]
    finally:
        os.chdir(cwd)
    lines, previous = [], []
    for record in records:
        errors = record["errors"]
        if errors and errors == previous:
            record["errors"] = SAME_ERRORS
        previous = errors
        lines.append(json.dumps({"doc": name, **record}, sort_keys=True))
    return lines


def main() -> None:
    for path, docs in ((GOLDEN, documents()), (LAWS, law_documents())):
        lines = []
        with tempfile.TemporaryDirectory() as scratch:
            for name, text in docs:
                lines += replay(name, text, Path(scratch))
        path.write_text("".join(line + "\n" for line in lines), encoding="ascii")
        print(f"wrote {len(lines)} cases to {path.relative_to(ROOT)}")


if __name__ == "__main__":
    main()
