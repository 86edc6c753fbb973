"""tools/linecount.py: physical lines as wc -l counts them, and code lines
without blank lines, comments or docstrings."""

import subprocess
import sys
from pathlib import Path

_TOOL = Path(__file__).resolve().parents[1] / "tools" / "linecount.py"

_FIXTURE = '''"""A module docstring
over two lines."""

# a comment
x = (1 +
     2)  # a continued line


def f():
    """A function docstring."""
    return "not a docstring"
'''


def test_counts_a_fixture(tmp_path):
    (tmp_path / "mod.py").write_text(_FIXTURE)
    (tmp_path / "empty.py").write_text("")
    out = subprocess.run([sys.executable, str(_TOOL), str(tmp_path)], check=True,
                         capture_output=True, text=True).stdout
    # 11 lines; code: both lines of x, the def and the return
    assert [line.split() for line in out.splitlines()] == [
        ["module", "lines", "code"], ["empty.py", "0", "0"], ["mod.py", "11", "4"],
        ["total", "11", "4"]]
