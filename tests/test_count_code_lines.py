"""The code-line counter that CHANGES.md cites, pinned on a small fixture."""

import importlib.util
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "tools" / "count_code_lines.py"
spec = importlib.util.spec_from_file_location("count_code_lines", SCRIPT)
counter = importlib.util.module_from_spec(spec)
spec.loader.exec_module(counter)

FIXTURE = '''"""Module docstring,
over two lines."""

import math  # a trailing comment

# a comment line


def area(r):
    """Function docstring."""
    return math.pi * pow(
        r,
        2,
    )
'''


def test_counts_code_lines_only():
    # import, def, and the four lines of the return statement
    assert counter.count_code_lines(FIXTURE) == 6


def test_a_string_that_is_not_a_docstring_counts():
    assert counter.count_code_lines('x = 1\n"""not first,\nso code"""\n') == 3


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "b.py").write_text("x = 1\n")
    assert counter.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line.split()[0] for line in lines] == ["6", "1", "7"]
    assert lines[-1].split()[1] == "total"
