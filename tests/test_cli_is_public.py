"""The command line renders what the library decides.

``cli.py`` imports only public names from ``modclass``, so every answer it
prints comes from an entry point that a library caller reaches as well.
"""

import ast
import pathlib

import modclass

CLI = pathlib.Path(modclass.__file__).parent / "cli.py"


def package_imports(path: pathlib.Path) -> list[tuple[str, str]]:
    """(module, name) for each name ``path`` imports from ``modclass``."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    return [
        (node.module or "", alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom)
        and (node.level > 0 or (node.module or "").split(".")[0] == "modclass")
        for alias in node.names
    ]


def test_cli_imports_no_private_name():
    assert [(m, n) for m, n in package_imports(CLI) if n.startswith("_")] == []


def test_the_scan_finds_the_cli_imports():
    # a scan that found nothing would pass the test above vacuously
    found = set(package_imports(CLI))
    assert {
        ("reps", "decide_modular_class"),
        ("reps", "verify_rep"),
        ("groupoid", "coboundary_solve_1"),
        ("schema", "parse"),
    } <= found
    # and leaves out what cli.py imports from outside the package
    assert ("dataclasses", "dataclass") not in found
