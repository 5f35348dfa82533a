"""``tools/ab_passes.py`` compares two checkouts' reports before it times them."""

import importlib.util
import pathlib
from types import SimpleNamespace

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("ab_passes", ROOT / "tools" / "ab_passes.py")
ab_passes = importlib.util.module_from_spec(spec)
spec.loader.exec_module(ab_passes)


def test_a_checkout_against_itself_is_identical_and_timed(capsys):
    argv = [str(ROOT), str(ROOT), "--workload", "ruth-decide", "--seed", "1", "--rounds", "2"]
    assert ab_passes.main(argv) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "ruth-decide seed 1: 8 requests, identical on both sides"
    assert [line.split(" median")[0] for line in lines[1:3]] == ["PARENT", "CHANGE"]
    assert lines[3].startswith("median ratio CHANGE/PARENT over rounds: ")
    assert lines[4].startswith("CHANGE faster in ") and lines[4].endswith(" of 2 rounds")


def test_the_first_differing_request_is_named():
    requests = [
        SimpleNamespace(doc=0, command="homotopy-check", arrow=None),
        SimpleNamespace(doc=0, command="replace", arrow="g"),
        SimpleNamespace(doc=1, command="replace", arrow="h"),
    ]
    same = [(0, "a"), (0, "b"), (0, "c")]
    assert ab_passes.first_difference(requests, same, list(same)) is None
    other = [(0, "a"), (2, "b"), (0, "x")]
    assert ab_passes.first_difference(requests, same, other) == (
        "request 1 (replace g on document 0) differs"
    )
