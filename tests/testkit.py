"""Helpers that the Tier-1 test modules import: the corpus and its names,
each kernel's target, and `ematch` rows as dicts.  They live here, not in
`conftest.py`, so that this suite and `perfbench/tests` can run in one
pytest session, where only one module can be named `conftest`."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

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
