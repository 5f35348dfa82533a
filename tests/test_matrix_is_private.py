"""The integer-row form of ``Matrix`` stays private to ``linalg``.

Only ``linalg.py`` may read a matrix's rows and denominators or build one
from them, so that the representation can change without touching the
rest of the package.
"""

import pathlib
import re

import modclass

PRIVATE = re.compile(r"\b(_num|_den|_from_ints|_lowest|_cleared|_eliminate)\b")
PACKAGE = pathlib.Path(modclass.__file__).parent


def mentions(path: pathlib.Path) -> dict[str, list[int]]:
    """Line numbers of each private name ``path`` mentions."""
    found: dict[str, list[int]] = {}
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for name in PRIVATE.findall(line):
            found.setdefault(name, []).append(n)
    return found


def test_only_linalg_reads_the_matrix_representation():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "linalg.py" and (found := mentions(path))
    }
    assert offenders == {}


def test_the_pattern_finds_the_representation_in_linalg():
    # a pattern that matched nothing would pass the test above vacuously
    assert set(mentions(PACKAGE / "linalg.py")) == {
        "_num", "_den", "_from_ints", "_lowest", "_cleared", "_eliminate"
    }
