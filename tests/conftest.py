import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

CORPUS = ROOT / "corpus"

EXPECTED_FAIL = ("matmul_preloadB_standard",)


def corpus_program(name):
    from tensorsel import ir
    return ir.parse_program((CORPUS / f"{name}.sexp").read_text())


def corpus_names():
    return sorted(p.stem for p in CORPUS.glob("*.sexp"))


def target_for(name):
    return "amx" if name.startswith("matmul") else "wmma"


def matches(g, query):
    """`ematch`'s rows of `query` (a `Query` or a tuple of atoms) on `g`, as
    dicts from its variable names."""
    from tensorsel.egraph import Query, ematch
    query = query if isinstance(query, Query) else Query(query)
    return [dict(zip(query.names, row)) for row in ematch(g, query)]


@pytest.fixture(scope="session")
def default_ruleset():
    from tensorsel import rules
    return rules.build_default_ruleset()
