"""The code-line counter, ``tools/code_lines.py``."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"

SOURCE = '''"""Module docstring,
over two lines."""

import os  # a trailing comment leaves the line code


# a comment-only line
def f(x):
    """Function docstring."""
    text = """a string
    that is no docstring"""
    return (x +
            1)


class C:
    """Class docstring."""

    value = 1
'''


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_neither_blank_comment_nor_docstring_lines():
    # import, def, both string lines, both return lines, class, value
    assert _tool().code_lines(SOURCE) == 8


def test_prints_each_file_and_the_total(tmp_path, capsys):
    first, second = tmp_path / "a.py", tmp_path / "b.py"
    first.write_text(SOURCE)
    second.write_text("x = 1\n\n# done\n")
    assert _tool().main([str(first), str(second)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        f"     8  {first}",
        f"     1  {second}",
        "     9  total",
    ]
