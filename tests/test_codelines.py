"""``tools/codelines.py`` counts the lines that are neither blank, comment nor docstring."""

import importlib.util
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("codelines", ROOT / "tools" / "codelines.py")
codelines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(codelines)

SOURCE = '''"""Module docstring
over two lines."""

import os  # a comment


class A:
    """Class docstring."""

    x = """a string
    that is no docstring"""

    def f(self):
        """Function docstring."""
        # a comment
        return (1,
                2)
'''


def test_only_code_lines_are_counted_per_module_and_in_total(tmp_path, capsys):
    # import, class, the two lines of x, def, and the two lines of return
    assert codelines.code_lines(SOURCE) == 7
    (tmp_path / "a.py").write_text(SOURCE)
    (tmp_path / "b.py").write_text("y = 1\n\n# done\n")
    assert codelines.main([str(tmp_path)]) == 0
    counts = [line.split()[0] for line in capsys.readouterr().out.splitlines()]
    assert counts == ["7", "1", "8"]
