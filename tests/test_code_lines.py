"""tools/code_lines.py on a small fixture file."""

import sys

from testkit import ROOT

sys.path.insert(0, str(ROOT / "tools"))

import code_lines  # noqa: E402

# each line that counts ends in "# code"
FIXTURE = '''"""A module docstring
over two lines."""

import os  # code

# a comment alone


def f(x):  # code
    """A docstring."""
    y = """a string  # code
    whose other lines
    hold nothing else"""
    return (x +  # code
            1,  # code
            "implicitly "  # a string alone
            "joined")  # code


NAMES = (  # code
    "a string and a comma",  # code
    "b",  # code
)  # code
'''


def test_fixture(tmp_path, capsys):
    want = sum(line.endswith("# code") for line in FIXTURE.splitlines())
    assert code_lines.code_lines(FIXTURE) == want == 10
    (tmp_path / "pkg").mkdir()
    (tmp_path / "pkg" / "m.py").write_text(FIXTURE)
    (tmp_path / "n.py").write_text("x = 1\n")
    code_lines.main([str(tmp_path)])
    assert capsys.readouterr().out.splitlines() == [
        "     1 n.py", "    10 pkg/m.py", "    11 total"]
