#!/usr/bin/env python3
"""Regenerate docs/rules_catalog.txt from the default ruleset.

`tensorsel.rules` writes each rule's atoms in the spelling this catalog
prints, and `rules.read_atom` reads that spelling back, so a rule's
catalog lines are its source text under a header of its category,
target, name and doc.  The committed catalog makes rule changes visible
in review diffs; a test asserts it stays in sync.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from tensorsel import rules


def main():
    out = ROOT / "docs" / "rules_catalog.txt"
    out.parent.mkdir(exist_ok=True)
    out.write_text(rules.build_default_ruleset().catalog_text())
    print(f"wrote {out}")


if __name__ == "__main__":
    main()
