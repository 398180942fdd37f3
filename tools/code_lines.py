#!/usr/bin/env python3
"""Print the code lines of each Python file under a directory, and their total.

A code line holds a token other than a comment, a blank, an indent or a
string alone, as `tokenize` reads it.  So comments, blank lines, docstrings
and the lines of a string that hold nothing else do not count; a statement
spread over several lines counts each of its lines.

    python3 tools/code_lines.py [DIR]    # default: src/ of this checkout
"""

import argparse
import io
import tokenize
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
           tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(text):
    """The number of code lines in the Python source `text`."""
    kinds = {}  # line number -> the types of the tokens on it
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in _LAYOUT:
            for line in range(tok.start[0], tok.end[0] + 1):
                kinds.setdefault(line, set()).add(tok.type)
    return sum(1 for types in kinds.values() if types != {tokenize.STRING})


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("dir", nargs="?", type=Path, default=ROOT / "src")
    args = ap.parse_args(argv)
    total = 0
    for path in sorted(args.dir.rglob("*.py")):
        n = code_lines(path.read_text(encoding="utf-8"))
        total += n
        print(f"{n:6d} {path.relative_to(args.dir)}")
    print(f"{total:6d} total")


if __name__ == "__main__":
    main()
