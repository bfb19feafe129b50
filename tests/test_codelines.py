"""The code-line counter ``tools/codelines.py``, on synthetic sources."""

import importlib.util
from pathlib import Path

import pytest

TOOL = Path(__file__).resolve().parent.parent / "tools" / "codelines.py"
spec = importlib.util.spec_from_file_location("codelines", TOOL)
codelines = importlib.util.module_from_spec(spec)
spec.loader.exec_module(codelines)

MODULE = '''"""A module docstring,
over two lines."""

import math  # a trailing comment: the line counts

# a comment line


class A:
    """A class docstring."""

    x = 1

    def f(self, a,
          b):
        """A function docstring
        over

        four lines."""
        s = """a string that is not a docstring,

        over three lines"""
        return (a +
                b)
'''


def test_a_module_counts_its_code_lines_only():
    # import, class, x, the def's two lines, the string's two non-blank
    # lines and the return's two
    assert codelines.code_lines(MODULE) == 1 + 1 + 1 + 2 + 2 + 2


@pytest.mark.parametrize("source, expected", [
    ('"""Only a docstring."""\n', 0),
    ("\n\n# a comment\n   \n", 0),
    ("x = [\n    1,\n\n    2,\n]\n", 4),                # a blank line inside brackets
    ("x = 1 \\\n    + 2\n", 2),                         # a backslash continuation
    ('def f():\n    """Doc."""\n    return 1\n', 2),
    ('def f():\n    "a" if f else "b"\n', 2),             # not a docstring: an expression
    ('class C:\n    x = 1\n    """Not first."""\n', 3),  # not a docstring: not first
    ('async def f():\n    """Doc."""\n', 1),
])
def test_docstrings_comments_and_blank_lines_do_not_count(source, expected):
    assert codelines.code_lines(source) == expected


def test_prints_each_module_and_the_total(tmp_path, capsys):
    package = tmp_path / "src" / "p2pcc"
    package.mkdir(parents=True)
    (package / "a.py").write_text('"""Doc."""\n\nx = 1\n', encoding="utf-8")
    (package / "b.py").write_text(MODULE, encoding="utf-8")
    assert codelines.main([str(tmp_path)]) == 0
    assert [line.split() for line in capsys.readouterr().out.splitlines()] == [
        ["a.py", "1"], ["b.py", "9"], ["total", "10"]]


def test_a_checkout_without_the_package_is_a_usage_error(tmp_path):
    with pytest.raises(SystemExit) as exc:
        codelines.main([str(tmp_path)])
    assert exc.value.code == 2
