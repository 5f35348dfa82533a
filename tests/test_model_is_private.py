"""The isotropy model stays private to ``groupoid``.

Only ``groupoid.py`` builds or reads the ``(tree, k, isotropy)`` model:
the laws and functoriality are certified there, and a caller that wants
a vector action's determinants asks ``_is_functorial`` to hand them
back, so that the model can change without touching the rest of the
package.
"""

import pathlib
import re

import modclass

PRIVATE = re.compile(r"\b(_model_of|_isotropy_model)\b")
PACKAGE = pathlib.Path(modclass.__file__).parent


def mentions(path: pathlib.Path) -> dict[str, list[int]]:
    """Line numbers of each private name ``path`` mentions."""
    found: dict[str, list[int]] = {}
    for n, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
        for name in PRIVATE.findall(line):
            found.setdefault(name, []).append(n)
    return found


def test_only_groupoid_reads_the_isotropy_model():
    offenders = {
        path.name: found
        for path in sorted(PACKAGE.glob("*.py"))
        if path.name != "groupoid.py" and (found := mentions(path))
    }
    assert offenders == {}


def test_the_pattern_finds_the_model_in_groupoid():
    # a pattern that matched nothing would pass the test above vacuously
    assert set(mentions(PACKAGE / "groupoid.py")) == {"_model_of", "_isotropy_model"}
