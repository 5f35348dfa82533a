"""Runtime checks in the package must survive ``python -O``."""

import ast
import pathlib

import modclass


def test_package_sources_have_no_assert_statements():
    offenders = []
    for path in sorted(pathlib.Path(modclass.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [
            f"{path.name}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.Assert)
        ]
    assert offenders == []
