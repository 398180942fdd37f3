"""Helpers that the Tier-1 test modules import: the corpus and its names,
each kernel's target, `ematch` rows as dicts, and the term-tree stand-in
for an e-graph that the codec tests encode through, with a rule's query
expanded as term trees.  They live here, not in `conftest.py`, so that
this suite and `perfbench/tests` can run in one pytest session, where
only one module can be named `conftest`."""

from pathlib import Path
from types import MappingProxyType

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


def _leaf(term, head):
    op = term[0]
    assert op[0] == head, op
    return op[1]


class TermTrees:
    """Stands in for an EGraph whose classes are term trees, as `extract_best`
    gives them: through it `rules.encode_expr` returns a term, and a
    compiled right-hand side builds terms, reads their leaves and records
    its unions."""

    _parent = property(lambda self: self)  # its own parent table: every term is a root
    __getitem__ = staticmethod(lambda term: term)
    _hashcons = MappingProxyType({})  # finds no node, so each one is added
    add = staticmethod(lambda op, children=(): (op, children))
    add_int = staticmethod(lambda v: (("int", int(v)), ()))
    assert_fact = staticmethod(lambda name, *args: None)
    class_name = staticmethod(lambda t: _leaf(t, "name"))
    class_type = staticmethod(lambda t: (_leaf(t, "type"), _leaf(t[1][0], "int")))
    # an int, else an i32 immediate, as `EGraph.class_int` reads one
    class_int = staticmethod(lambda t: int(t[0][2]) if t[0][:2] == ("imm", "i32")
                             else _leaf(t, "int"))

    def __init__(self):
        self.unions = []

    def union(self, a, b):
        self.unions.append((a, b))


def _encode_value(g, v):
    """The class in `g` of a match value, through the rules codec: an IR
    expression or statement, a `VecType`, a buffer name or an int."""
    from tensorsel import ir, rules
    if isinstance(v, ir.VecType):
        return rules.mk_type(g, v.kind, v.lanes)
    if isinstance(v, str):
        return rules.mk_name(g, v)
    if isinstance(v, int):
        return g.add_int(v)
    return rules.encode_expr(g, v)


def query_terms(rule, match):
    """`term(p)`, the term tree of `rule`'s query pattern `p` at `match`,
    through the codec: a variable a query `Bind` defines is its pattern's
    term, any other its value in `match` encoded into `TermTrees`."""
    from tensorsel.egraph import Bind, PVar
    binds = {a.var: a.pattern for a in rule.query if isinstance(a, Bind)}
    terms = {}

    def term(p):
        if isinstance(p, PVar):
            if p.name not in terms:
                terms[p.name] = (term(binds[p.name]) if p.name in binds
                                 else _encode_value(TermTrees, match[p.name]))
            return terms[p.name]
        return p.op, tuple(map(term, p.children))

    return term
