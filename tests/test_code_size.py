"""`scripts/code_size.py` on a small source and on the package."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
spec = importlib.util.spec_from_file_location("code_size", ROOT / "scripts" / "code_size.py")
code_size = importlib.util.module_from_spec(spec)
spec.loader.exec_module(code_size)

SOURCE = '''"""Module docstring,
two lines."""

# a comment
import math  # a trailing comment


class A:
    """Class docstring."""

    def f(self):
        """Function docstring,

        three lines."""
        text = """a string
        that is not a docstring"""
        return math.pi, text
'''


def test_counts_code_and_not_prose():
    # import, class, def, the two lines of the string, return
    assert code_size.code_lines(SOURCE) == 6
    assert code_size.code_lines("# only a comment\n\n") == 0


def test_sizes_every_module_of_the_package():
    counts = code_size.sizes(ROOT / "src" / "vps")
    assert {"__init__.py", "mesolver.py", "measures.py"} <= set(counts)
    assert all(count > 0 for count in counts.values())


def test_compares_two_directories(tmp_path, capsys):
    parent, change = tmp_path / "parent", tmp_path / "change"
    parent.mkdir()
    change.mkdir()
    (parent / "a.py").write_text(SOURCE)
    (parent / "gone.py").write_text("x = 1\ny = 2\n")
    (change / "a.py").write_text(SOURCE + "z = 3\n")
    (change / "new.py").write_text("x = 1\n")
    assert code_size.main([str(parent), str(change)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["parent", "change", "diff"],
                    ["a.py", "6", "7", "+1"],
                    ["gone.py", "2", "0", "-2"],
                    ["new.py", "0", "1", "+1"],
                    ["total", "8", "8", "+0"]]
