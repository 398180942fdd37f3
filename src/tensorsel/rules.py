"""The concrete rewrite-rule catalog, the IR <-> e-graph codec, and a
rule-soundness fuzzer.  The codec holds no node shapes of its own: each
node's head and fields come from `ir.TERMS`.

Categories:
  axiomatic    -- index/vector identities that undo simplifier damage
                  (nest/unnest ramps, push broadcasts through loads/casts).
                  Index rules end in a has-type atom that requires i32, so
                  no floating-point sum is ever reassociated.
  application  -- layout recognizers; they only assert tile facts
                  (amx-a-tile, wmma-b-tile, ...) and construct loader
                  terms, never unioning the matched expression.
  lowering     -- emit accelerator intrinsics and cancel data movement.
  supporting   -- type derivation (has-type facts); run to fixpoint
                  between iterations.

Each rule is written as one line of text per atom, in the spelling that
`docs/rules_catalog.txt` prints (`RuleSet.catalog_text`), such as
`?e = (bcast (bcast ?x ?l1) ?l2)`, and read back into atoms by
`read_atom`, the printer's inverse, with `ir`'s tokenizer and each head's
operator fields taken from `ir.TERMS`.  Python adds only the loops over
targets and mirrored operands, the sub-patterns rules share, and each
rule's generator.

MatMul rules are parameterized over registered (M, K, N) shape facts
rather than hard-coded lane counts, so small shapes fuzz against
brute-force oracles and both backends share one catalog.  A rule's guards
are `Calc` query atoms over the ints, immediates and names it matched,
such as `(== (% ?m ?n) 0)`; the engine compiles each into the rule's plan,
and the catalog prints it as written.  The MatMul lowerings match their
tile loads' size arguments as query variables and compare them there.

Each semantic rule's generator, `fuzz(rng)`, draws a match of the rule's
query and builds neither side.  A draw is a shared `Structure`: its
`match` maps each query variable that no query `Bind` defines to its
value (an IR expression, an int, a `VecType` or a buffer name, for a class
of terms, ints, types or names); its `params` are the buffers those values
load, as `ir.Param`s; it holds the shapes its facts name and, for a
statement rule, the program around the statement, None in its place.  The
structure depends only on the few ints a generator draws, so it is built
once and shared by every draw of those ints.  The match satisfies the
query, guards and premises included.  `check_rule_soundness` groups the
draws by structure, expands the left side from the rule's query straight
to IR and runs its compiled action on an IR stand-in for the e-graph
(`_IRBuilder`) for the right, with no term trees between, and checks each
group's draws with `interp.first_failure`, a row of `interp.random_inputs`
per draw's seed: the judge of `cli.run_difftest`.

Lane conventions, all derived from canonical index construction: the
standard-layout B re-load reads N contiguous lanes per logical row, the
interleave width is the logical row length N, and a reduction at shape
(M, K, N) yields M*N result lanes.  In the VNNI access pattern the three
inner ramps are, outermost first, j (stride 2), k/2 (stride = the VNNI
row stride), and k%2 (stride 1).
"""

from __future__ import annotations

import functools
import itertools
import math
import random
import sys
from dataclasses import dataclass, field, replace
from types import MappingProxyType, SimpleNamespace

from . import interp, ir
from .egraph import _CALC_OPS, _READS, Bind, Calc, EGraph, If, Let, PNode, PVar, Rel, RuleDef

EXPR_OPS = {head for cls, (head, _) in ir.TERMS.items() if issubclass(cls, ir.Expr)}

# ---------------------------------------------------------------------------
# IR <-> term encoding, by the node shapes of `ir.TERMS`


def _tag_on_add(g, op, cid):
    if op[0] in EXPR_OPS:
        g.assert_fact("is-expr", cid)
    if op[0] == "imm":
        g.assert_fact("has-type", cid, mk_type(g, op[1], 1))
    elif op[0] == "var":
        g.assert_fact("has-type", cid, mk_type(g, "i32", 1))


def new_graph():
    return EGraph(on_add=_tag_on_add)


def mk_type(g, kind, lanes):
    return g.add(("type", kind), (g.add_int(lanes),))


def mk_name(g, s):
    return g.add(("name", s))


def encode_expr(g, e):
    """The class of `e`, an expression, Store or Evaluate, added to `g`
    after its children, left to right."""
    head, fields = ir.TERMS[e.__class__]
    op, kids = [head], []
    for name, role in fields:
        v = getattr(e, name)
        if role == "op":
            op.append(v)
        elif role == "exprs":
            kids += [encode_expr(g, a) for a in v]
        else:
            kids.append(_ENCODE[role](g, v))
    if head == "imm" and e.kind != "i32":
        # 0.0 == -0.0, so the sign bit keeps the two zeros in separate classes
        op.append(math.copysign(1.0, e.value) < 0)
    return g.add(tuple(op), tuple(kids))


# a statement encodes as any node does; selection calls it by this name, one
# call per statement, which tracing times as the encoding layer
encode_stmt = encode_expr


def seed_facts(g, buffers, shapes):
    """Buffer locations and accelerator shapes as relations; `shapes` is
    `ir.program_shapes` of the statement's program."""
    for name, (kind, length, loc) in sorted(buffers.items()):
        g.assert_fact("buffer-loc", mk_name(g, name), g.add(("loc", loc)))
    for sh in shapes:
        g.assert_fact(f"{sh.target}-shape", g.add_int(sh.m), g.add_int(sh.k),
                      g.add_int(sh.n))


# per role of a child, the class its value has
_KID_CLASS = {"expr": ir.Expr, "exprs": ir.Expr, "int": int, "type": ir.VecType, "name": str}


def _builder(cls, fields):
    """(build, classes) of a `cls` node: `build(op, kids)` takes its `op`
    fields from the e-node's operator, after the head, and the rest from
    `kids`, its children's values, in field order, an `exprs` field taking
    every child left; `classes` are the classes of those values, in order."""
    roles = [role for _, role in fields]
    n = roles.count("op")
    classes = tuple(_KID_CLASS[role] for role in roles if role != "op")
    if roles[n:] == ["exprs"]:
        return (lambda op, kids: cls(*op[1:n + 1], tuple(kids))), itertools.repeat(ir.Expr)
    if "op" not in roles[n:]:
        return (lambda op, kids: cls(*op[1:n + 1], *kids)), classes
    assert roles[-n:] == ["op"] * n and "op" not in roles[:-n], cls  # a Shuffle
    return (lambda op, kids: cls(*kids, *op[1:n + 1])), classes


# per head, how a node of it builds its value over its children's values (an
# IR node, or the int, VecType or buffer name of a leaf term), and their classes
_BUILD = {head: _builder(cls, fields) for cls, (head, fields) in ir.TERMS.items()}
_BUILD.update({"int": ((lambda op, kids: op[1]), ()), "name": ((lambda op, kids: op[1]), ()),
               "type": ((lambda op, kids: ir.VecType(op[1], *kids)), (int,))})


def build_node(op, kids=()):
    """The IR value of the e-node `op` over `kids`, its children's values:
    one level of `decode_term`.  Raises TypeError on a head that builds no
    IR value, or on a child whose value its role cannot hold."""
    if op[0] not in _BUILD:
        raise TypeError(f"cannot decode {op!r}")
    build, classes = _BUILD[op[0]]
    if kids:
        for kid, cls in zip(kids, classes):
            if not isinstance(kid, cls):
                raise TypeError(f"cannot decode {op!r} over {kid!r}")
    return build(op, kids)


def decode_term(term):
    """The IR value of a term tree, as `extract_best` gives it."""
    op, kids = term
    return build_node(op, tuple(map(decode_term, kids)) if kids else ())


# per role of a child, its class from a value
_ENCODE = {"expr": encode_expr, "int": lambda g, v: g.add_int(v),
           "type": lambda g, t: mk_type(g, t.kind, t.lanes), "name": mk_name}


# ---------------------------------------------------------------------------
# rule set


@dataclass
class RuleSet:
    rules: list = field(default_factory=list)

    def add(self, rule):
        self.rules.append(rule)
        return rule

    def __iter__(self):
        return iter(self.rules)

    def named(self, name):
        for r in self.rules:
            if r.name == name:
                return r
        raise KeyError(name)

    def by_category(self, category):
        return [r for r in self.rules if r.category == category]

    def for_target(self, target):
        """The rules of `target` plus the target-neutral ones."""
        return [r for r in self.rules if not r.target or target in ("all", r.target)]

    def catalog_text(self):
        lines = []
        for r in self.rules:
            kind = "semantic" if r.semantic else "relational"
            tgt = f" target={r.target}" if r.target else ""
            lines.append(f"[{r.category}{tgt}] {r.name} ({kind})")
            if r.doc:
                lines.append(f"    {r.doc}")
            for atom in r.query:
                lines.append(f"    where {_render_atom(atom)}")
            for effect in r.rhs:
                lines.append(f"    => {_render_atom(effect)}")
        return "\n".join(lines) + "\n"


def _render_pattern(p):
    if isinstance(p, tuple):  # a literal of a Calc
        return f"({' '.join(map(_render_pattern, p))})"
    if isinstance(p, PVar):
        return f"?{p.name}"
    if isinstance(p, Calc):
        return f"({p.op} {' '.join(_render_pattern(a) for a in p.args)})"
    if isinstance(p, If):
        return f"(if {' '.join(_render_pattern(x) for x in (p.cond, p.then, p.other))})"
    if not isinstance(p, PNode):
        return str(p)
    computed = [x for x in p.op if isinstance(x, (Calc, PVar))]
    head = "/".join(str(x) for x in p.op if not isinstance(x, (tuple, Calc, PVar)))
    args = [_render_pattern(x) for x in computed + list(p.children)]
    if not args:
        return head if p.op[0] != "int" else str(p.op[1])
    return f"({head} {' '.join(args)})"


def _render_atom(atom):
    if isinstance(atom, Bind):
        return f"?{atom.var} = {_render_pattern(atom.pattern)}"
    if isinstance(atom, Let):
        return f"let ?{atom.var} = {_render_pattern(atom.template)}"
    if isinstance(atom, Rel):
        return f"({atom.name} {' '.join(_render_pattern(t) for t in atom.terms)})"
    return _render_pattern(atom)  # a guard


# per head, how many fields of its e-node's operator follow it: `ir.TERMS`'s
# `op` fields, and one for each leaf head
_OP_FIELDS = {head: [role for _, role in fields].count("op") for head, fields in ir.TERMS.values()}
_OP_FIELDS.update(type=1, int=1, name=1, loc=1)
_CALC_HEADS = (*_CALC_OPS, *_READS)


def read_atom(text):
    """The query atom or effect that `text` spells in the catalog's
    notation, the inverse of `_render_atom`: `?v = P` (a `Bind`),
    `let ?v = P` (a `Let`), or `(name P ...)`, a `Rel`, or a guard where
    `name` heads a `Calc`.  In a pattern P, `?x` is a variable and a bare
    int an `int` leaf; a head's `/`-separated parts are its operator's
    leading fields, and its first arguments, read as `Calc`s, the fields
    that follow, up to the count of `_OP_FIELDS`; the other arguments are
    its children, and `(if C P P)` is an `If`.  Malformed text raises
    TypeError at its line and column."""
    reader = ir._Reader(text)
    try:
        nodes = []
        while not reader.at_end():
            nodes.append(reader.read())
        if not nodes:
            raise ir.ParseError("expected an atom, got nothing", 1, 1)
        items, tok = nodes[0]
        if isinstance(items, list):
            head = ir._atom(items[0], "head")[0] if items else ir._fail(tok, "empty atom")
            atom, size = (_read_calc(nodes[0]) if head in _CALC_HEADS else
                          Rel(sys.intern(head), tuple(map(_read_pattern, items[1:])))), 1
        else:
            size = 3 + (tok.text == "let")
            var, is_, pattern = (nodes + [None] * 3)[size - 3:size]
            if pattern is None or is_[1].text != "=":
                ir._fail(nodes[-1][1], "expected '?v = pattern'")
            atom = (Let if size == 4 else Bind)(_read_var(var), _read_pattern(pattern))
        if len(nodes) > size:
            ir._fail(nodes[size][1], "expected the end of the atom")
        return atom
    except ir.ParseError as e:
        raise TypeError(str(e)) from None


def _read_var(node):
    name = ir._atom(node, "variable")[0]
    if name[:1] != "?" or len(name) < 2:
        ir._fail(node[1], f"expected a variable, got {name!r}")
    return name[1:]


_BOOLS = {"True": True, "False": False}


def _literal(text):
    """The int, float (with a point) or bool that `text` spells as Python
    prints it, else `text` interned.  A word read from a rule is interned,
    as a word in Python source is, so the e-graph's dicts, on the hot path
    of matching, find the ops and relation names it makes by identity."""
    digits = text.removeprefix("-")
    if digits.isdecimal():
        return int(text)
    if digits.replace(".", "", 1).isdecimal():
        return float(text)
    return _BOOLS.get(text, sys.intern(text))


def _read_calc(node):
    """A `Calc`, a matched variable, or a literal: an int, or a tuple."""
    items, tok = node
    if not isinstance(items, list):
        return PVar(_read_var(node)) if tok.text[:1] == "?" else _literal(tok.text)
    if items and isinstance(items[0][0], ir._Tok) and items[0][0].text in _CALC_HEADS:
        return Calc(items[0][0].text, tuple(map(_read_calc, items[1:])))
    return tuple(map(_read_calc, items))


def _read_pattern(node):
    items, tok = node
    if not isinstance(items, list):
        if tok.text[:1] == "?":
            return PVar(_read_var(node))
        value = _literal(tok.text)
        return PNode(("int", value)) if type(value) is int else _read_node(tok, [])
    head, htok = ir._atom(items[0], "head") if items else ir._fail(tok, "empty pattern")
    if head == "if":
        if len(items) != 4:
            ir._fail(htok, "if takes a guard and two templates")
        return If(_read_calc(items[1]), *map(_read_pattern, items[2:]))
    return _read_node(htok, items[1:])


def _read_node(tok, args):
    """The `PNode` headed `tok` over the argument nodes `args`."""
    word = sys.intern(tok.text.split("/")[0])
    if word not in _OP_FIELDS:
        ir._fail(tok, f"unknown head {word!r}")
    fields = tok.text.split("/", _OP_FIELDS[word])
    computed = _OP_FIELDS[word] + 1 - len(fields)
    if len(args) < computed:
        ir._fail(tok, f"{word} needs {_OP_FIELDS[word]} operator field(s)")
    return PNode((word, *map(_literal, fields[1:]), *map(_read_calc, args[:computed])),
                 tuple(map(_read_pattern, args[computed:])))


def build_default_ruleset():
    """A new RuleSet of the default rules.  The rules are built once per
    process; each set holds fresh copies of them that share their queries
    (plans included) and compiled right-hand sides, so changing one set's
    rules leaves the next set as built."""
    return RuleSet([replace(r) for r in _default_rules()])


@functools.cache
def _default_rules():
    rs = RuleSet()
    _axiomatic_rules(rs)
    _supporting_rules(rs)
    _application_rules(rs)
    _lowering_rules(rs)
    return tuple(rs)


def _atoms(rule, texts):
    """The atoms that `texts` spell (`read_atom`); a malformed one raises
    TypeError naming `rule`, as `RuleDef` does for a bad atom."""
    try:
        return tuple(map(read_atom, texts))
    except TypeError as e:
        raise TypeError(f"rule {rule!r}: {e}") from None


def _rule(rs, category, name, query, rhs, doc="", target="", fuzz=None):
    """Adds to `rs` the rule whose query and right-hand side are the atoms
    written in `query` and `rhs`, in the catalog's spelling."""
    rs.add(RuleDef(name, category, _atoms(name, query), rhs=_atoms(name, rhs), doc=doc,
                   target=target, fuzz=fuzz))


def _mirrored(a, b):
    """The sum of the patterns `a` and `b`, and the sum of `b` and `a`, each
    with the suffix of its rule's name."""
    return ("", f"(bop/+ {a} {b})"), ("-r", f"(bop/+ {b} {a})")


# -- axioms ------------------------------------------------------------------


def _axiomatic_rules(rs):
    axiom = functools.partial(_rule, rs, "axiomatic")
    i32 = "(has-type ?e (type/i32 ?w))"
    axiom("broadcast-flatten", ["?e = (bcast (bcast ?x ?l1) ?l2)"],
          ["?e = (bcast ?x (int (* ?l1 ?l2)))"], fuzz=_fz_bcast_flatten)
    axiom("broadcast-elim", ["?e = (bcast ?x 1)"], ["?e = ?x"], fuzz=_fz_one_vec)
    axiom("degenerate-broadcast", ["(is-expr ?x)"], ["?x = (bcast ?x 1)"],
          "recovers the general pattern from scalars", fuzz=_fz_one_vec)
    axiom("broadcast-of-load", ["?e = (bcast (load ?n ?t ?i) ?l)"],
          ["?e = (load ?n (type (kind ?t) (int (* (lanes ?t) ?l))) (bcast ?i ?l))"],
          fuzz=_fz_bcast_of_load)
    axiom("broadcast-of-cast", ["?e = (bcast (cast ?t ?x) ?l)"],
          ["?e = (cast (type (kind ?t) (int (* (lanes ?t) ?l))) (bcast ?x ?l))"],
          fuzz=_fz_bcast_of_cast)
    axiom("ramp-elim", ["?e = (ramp ?x ?s 1)", i32], ["?e = ?x"], fuzz=_fz_ramp_elim)
    axiom("degenerate-ramp-split",
          ["?e = (ramp ?x imm/i32/1 ?l)", "(and (<= 2 ?l) (== (% ?l 2) 0))",
           "(has-type ?x (type/i32 1))"],
          ["let ?two = 2",
           "?e = (ramp (ramp ?x imm/i32/1 ?two) (bcast imm/i32/2 ?two) (int (// ?l 2)))"],
          "recovers nesting from dense ramps", fuzz=_fz_ramp_split)
    for suffix, pat in _mirrored("(ramp ?b ?s ?n)", "(bcast ?x ?m)"):
        axiom(f"ramp-plus-broadcast{suffix}", [f"?e = {pat}", "(== (% ?m ?n) 0)", i32],
              ["?e = (ramp (bop/+ ?b (if (== ?m ?n) ?x (bcast ?x (int (// ?m ?n))))) ?s ?n)"],
              fuzz=_fz_ramp_plus_bcast)
    axiom("ramp-unnest", ["?e = (ramp (bop/+ ?x ?a) ?s ?l)", i32],
          ["?e = (bop/+ (ramp ?x ?s ?l) (bcast ?a ?l))"],
          "the un-nesting partner of ramp-plus-broadcast", fuzz=_fz_ramp_unnest)
    nest = ["(and (< ?l1 ?l2) (== (% ?l2 ?l1) 0))", i32]
    nested = "(bcast (bcast ?a (int (// ?l2 ?l1))) ?l1)"
    for suffix, pat in _mirrored("(ramp ?x ?s ?l1)", "(bcast ?a ?l2)"):
        axiom(f"sibling-nest-ramp-broadcast{suffix}", [f"?e = {pat}", *nest],
              [f"?e = (bop/+ {nested} (ramp ?x ?s ?l1))"],
              "re-nest a broadcast using its sibling ramp's count as the hint",
              fuzz=_fz_sibling(ramp=True))
    for suffix, pat in _mirrored("(bcast ?a ?l2)", "(bcast ?b ?l1)"):
        axiom(f"sibling-nest-broadcast-pair{suffix}", [f"?e = {pat}", *nest],
              [f"?e = (bop/+ {nested} (bcast ?b ?l1))"],
              "re-nest the wider of two sibling broadcasts to equal counts",
              fuzz=_fz_sibling(ramp=False))
    axiom("add-of-broadcasts", ["?e = (bop/+ (bcast ?a ?l) (bcast ?b ?l))", i32],
          ["?e = (bcast (bop/+ ?a ?b) ?l)"], fuzz=_fz_add_of_bcasts)
    for opname, sym in (("add", "+"), ("mul", "*")):
        axiom(f"{opname}-commute", [f"?e = (bop/{sym} ?x ?y)"], [f"?e = (bop/{sym} ?y ?x)"],
              fuzz=_fz_commute)
        in_i32 = " ".join(f"(<= {ir.I32_MIN} {x} {ir.I32_MAX})"
                          for x in ("?a", "?b", f"({sym} ?a ?b)"))
        axiom(f"int-{opname}-fold", [f"?e = (bop/{sym} ?a ?b)", f"(and {in_i32})"],
              [f"?e = (imm/i32 ({sym} ?a ?b))"], fuzz=_fz_int_fold)


# -- supporting --------------------------------------------------------------


def _supporting_rules(rs):
    def supp(name, query, rhs="(has-type ?e ?t)"):
        _rule(rs, "supporting", name, query, [rhs])

    scaled = "(has-type ?e (type (kind ?t) (int (* (lanes ?t) ?n))))"
    supp("type-of-load", ["?e = (load ?n ?t ?i)"])
    supp("type-of-cast", ["?e = (cast ?t ?x)"])
    for opname, sym in (("add", "+"), ("sub", "-"), ("mul", "*"), ("div", "/"), ("mod", "%")):
        supp(f"type-of-{opname}", [f"?e = (bop/{sym} ?a ?b)", "(has-type ?a ?t)"])
    supp("type-of-ramp", ["?e = (ramp ?b ?s ?n)", "(has-type ?b ?t)"], scaled)
    supp("type-of-broadcast", ["?e = (bcast ?x ?n)", "(has-type ?x ?t)"], scaled)
    supp("type-of-vector-reduce-add", ["?e = (vra ?rl ?x)", "(has-type ?x ?t)"],
         "(has-type ?e (type (kind ?t) ?rl))")
    for src, dst in (("mem", "amx"), ("amx", "mem"), ("mem", "wmma"), ("wmma", "mem")):
        supp(f"type-of-{src}2{dst}", [f"?e = (l2l/{src}/{dst} ?x)", "(has-type ?x ?t)"])
    supp("type-of-exprvar", ["?e = (exprvar ?x)", "(has-type ?x ?t)"])


# -- application -------------------------------------------------------------


def _application_rules(rs):
    app = functools.partial(_rule, rs, "application")
    a_index = "?idx = (ramp (bcast (ramp ?abase imm/i32/1 ?k) ?n) (bcast ?astride ?kn) ?m)"
    b_index = "?idx = (bcast (ramp (ramp ?bbase ?bstride ?k) (bcast imm/i32/1 ?k) ?n) ?m)"
    for target, kind, loader in (("amx", "bf16", "tile_load"), ("wmma", "f16", "wmma_load_a")):
        app(f"{target}-a-standard",
            [f"({target}-shape ?m ?k ?n)", f"?origa = (load ?an (type/{kind} ?lanes) ?idx)",
             a_index, "(and (== ?lanes (* ?m ?k ?n)) (== ?kn (* ?k ?n)))"],
            [f"({target}-a-tile ?origa (call/{loader} (var (name ?an)) ?abase ?astride "
             "(imm/i32 ?m) (imm/i32 ?k)))"],
            f"A matrix in row-major three-level nesting loads directly as the "
            f"{target.upper()} A tile", target)

    app("amx-b-standard",
        ["(amx-shape ?m ?k ?n)", "?origb = (load ?bn (type/bf16 ?lanes) ?idx)",
         "(and (== ?lanes (* ?m ?k ?n)) (== (% ?k 2) 0))", b_index, "(buffer-loc ?bn loc/mem)"],
        ["let ?rowmajor = (ramp (ramp ?bbase imm/i32/1 ?n) (bcast ?bstride ?n) ?k)",
         "let ?loadb = (load ?bn (type/bf16 (int (* ?k ?n))) ?rowmajor)",
         "(amx-b-tile ?origb (call/tile_load (exprvar (call/KWayInterleave imm/i32/2 (imm/i32 ?n)"
         " ?loadb)) imm/i32/0 (imm/i32 (* 2 ?n)) (imm/i32 (// ?k 2)) (imm/i32 (* 2 ?n))))"],
        "B in the standard layout: interleave row pairs (VNNI pack) into a "
        "temporary, then tile-load it; only for memory-resident sources", "amx")

    app("amx-b-vnni",
        ["(amx-shape ?m ?k ?n)", "?origb = (load ?bn (type/bf16 ?lanes) ?idx)",
         "?idx = (bcast (ramp (ramp (ramp ?bbase imm/i32/1 2) (bcast ?vstride 2) ?kh) "
         "(bcast imm/i32/2 ?k) ?n) ?m)",
         "(and (== ?lanes (* ?m ?k ?n)) (== (* ?kh 2) ?k))"],
        [_AMX_B_VNNI.format("?vstride")], "B already in the VNNI layout tile-loads verbatim",
        "amx")

    app("wmma-b-standard",
        ["(wmma-shape ?m ?k ?n)", "?origb = (load ?bn (type/f16 ?lanes) ?idx)",
         "(== ?lanes (* ?m ?k ?n))", b_index],
        ["(wmma-b-tile ?origb (call/wmma_load_b (var (name ?bn)) ?bbase ?bstride (imm/i32 ?k)"
         " (imm/i32 ?n)))"],
        "row-major f16 B loads directly as the WMMA b fragment", "wmma")

    conv_mul = ["(wmma-shape ?m ?k ?n)", "?mul = (bop/* (cast ?tf ?loadi) (cast ?tf ?loadk))",
                "?loadi = (load ?iname (type/f16 ?li) ?idxi)",
                "?loadk = (load ?kname (type/f16 ?li) ?idxk)"]

    def toeplitz(stride, matrix):
        """Tile facts of a signal load as the A fragment at row stride
        `stride` and a kernel load as the B fragment of the shuffled `matrix`."""
        return [f"(wmma-a-tile ?loadi (call/wmma_load_a (var (name ?iname)) ?basei "
                f"(imm/i32 {stride}) (imm/i32 ?m) (imm/i32 ?k)))",
                f"(wmma-b-tile ?loadk (call/wmma_load_b (exprvar {matrix}) imm/i32/0 "
                "(imm/i32 ?n) (imm/i32 ?k) (imm/i32 ?n)))"]

    app("conv-toeplitz",
        [*conv_mul, "?idxi = (ramp (ramp ?basei imm/i32/1 ?l) (bcast ?s ?l) ?x)",
         "(and (<= 1 ?s) (<= 1 ?l) (== ?x (* ?m ?n)) (== ?k (+ (* ?s ?n) ?l)) "
         "(== ?li (* ?x ?l)))",
         "?idxk = (bcast (ramp ?basek imm/i32/1 ?l) ?x)"],
        toeplitz("(* ?s ?n)", "(if (== ?s 1) (call/ConvolutionShuffle (var (name ?kname)) "
                 "?basek (imm/i32 ?k) (imm/i32 ?n)) (call/PolyphaseShuffle (var (name ?kname)) "
                 "?basek (imm/i32 ?l) (imm/i32 ?n) imm/i32/1 (imm/i32 ?s)))"),
        "an overlapped-window signal load times a broadcast kernel load is a "
        "MatMul against the (strided) Toeplitz matrix of the kernel", "wmma")

    app("upsample-polyphase",
        [*conv_mul, "?idxi = (ramp (ramp (bcast (ramp ?basei imm/i32/1 ?l) ?p) "
         "(bcast imm/i32/1 ?pl) ?kp) (bcast ?ws ?kpl) ?m)",
         "?idxk = (bcast (ramp (ramp ?basek ?sk ?l) (bcast imm/i32/1 ?l) ?p) ?mk)",
         "(and (<= 2 ?p) (<= 1 ?l) (== ?pl (* ?p ?l)) (== (* ?kp ?p) ?n) (== ?kpl (* ?kp ?pl)) "
         "(== ?ws ?kp) (== ?sk ?p) (== ?mk (* ?m ?kp)) (== ?k (+ ?kp ?l)) "
         "(== ?li (* ?m ?n ?l)))"],
        toeplitz("(// ?n ?p)", "(call/PolyphaseShuffle (var (name ?kname)) ?basek (imm/i32 ?l)"
                 " (imm/i32 ?n) (imm/i32 ?p) imm/i32/1)"),
        "a phase-interleaved window load times a phase-decomposed kernel load "
        "is a MatMul against the polyphase Toeplitz matrix", "wmma")


# the VNNI B tile load, its row stride the template in its braces
_AMX_B_VNNI = ("(amx-b-tile ?origb (call/tile_load (var (name ?bn)) ?bbase {} "
               "(imm/i32 (// ?k 2)) (imm/i32 (* 2 ?n))))")


# -- lowering ----------------------------------------------------------------


TILE_ARGS = ("buf", "base", "stride", "rows", "cols")  # a tile load's, `ir.INTRINSICS`

# +0.0 immediates: the float kinds' zeros with a clear sign bit
ZEROS = tuple((kind, 0.0, False) for kind in ir.SCALAR_KINDS if kind != "i32")


def _lowering_rules(rs):
    low = functools.partial(_rule, rs, "lowering")

    # MatMul lowering: e = C + vra(Mul(cast A, cast B)) with tile facts,
    # their tiles loaded at the matched shape
    for target, name, call, loaders, b_rows, b_cols in (
            ("amx", "amx-matmul", "(call/tile_matmul (l2l/mem/amx ?c) ?ta ?tb)",
             ("tile_load", "tile_load"), "(// ?k 2)", "(* 2 ?n)"),
            ("wmma", "wmma-mma", "(call/wmma_mma ?ta ?tb (l2l/mem/wmma ?c))",
             ("wmma_load_a", "wmma_load_b"), "?k", "?n")):
        low(name,
            [f"({target}-shape ?m ?k ?n)", "?e = (bop/+ ?c ?vrae)", "?vrae = (vra ?rl ?mul)",
             "(== ?rl (* ?m ?n))", "?mul = (bop/* (cast ?tf ?a) (cast ?tf ?b))",
             "?tf = (type/f32 ?wide)", f"({target}-a-tile ?a ?ta)", f"({target}-b-tile ?b ?tb)",
             # each tile load's arguments bound to ?{tile}buf, ?{tile}base and so on
             *(f"?{t} = (call/{loader} {' '.join(f'?{t}{a}' for a in TILE_ARGS)})"
               for t, loader in zip(("ta", "tb"), loaders)),
             f"(and (== ?tarows ?m) (== ?tacols ?k) (== ?tbrows {b_rows}) "
             f"(== ?tbcols {b_cols}))"],
            [f"?e = (l2l/{target}/mem {call})"], target=target, fuzz=_fz_matmul(target))

    for target, zero in (("amx", "tile_zero"), ("wmma", "wmma_zero")):
        low(f"{target}-zero",
            [f"?e = (l2l/mem/{target} (bcast ?z ?l))", f"({target}-shape ?m ?k ?n)",
             "(== ?l (* ?m ?n))", f"(in (imm ?z) {_render_pattern(ZEROS)})"],
            [f"?e = (call/{zero} (imm/i32 ?m) (imm/i32 ?n))"], target=target,
            fuzz=_fz_zero(target))

    # a row-major tile index, 2-axis with its row stride ?sstr or flat with
    # the stride n, whose immediate a Let adds first
    layouts = (("2axis", "(ramp (ramp ?b imm/i32/1 ?n1) (bcast ?sstr ?n1) ?n0)",
                "(and (== ?n0 ?m) (== ?n1 ?n))", []),
               ("flat", "(ramp ?b imm/i32/1 ?ll)", "(== ?ll (* ?m ?n))",
                ["let ?sstr = (imm/i32 ?n)"]))
    for target, store in (("amx", "tile_store"), ("wmma", "wmma_store")):
        for layout, index, guard, stride in layouts:
            low(f"{store.replace('_', '-')}-{layout}",
                [f"?st = (store ?buf ?idx (l2l/{target}/mem ?tile))", f"?idx = {index}",
                 f"({target}-shape ?m ?k ?n)", guard],
                [*stride, f"?st = (evaluate (call/{store} (var (name ?buf)) ?b ?sstr "
                          "(imm/i32 ?n) ?tile))"],
                target=target, fuzz=_fz_store(target, flat=layout == "flat"))

    for target in ("amx", "wmma"):
        low(f"mem2{target}-cancel", [f"?e = (l2l/mem/{target} (l2l/{target}/mem ?x))"],
            ["?e = ?x"], target=target, fuzz=_fz_one_vec)
        low(f"{target}2mem-cancel", [f"?e = (l2l/{target}/mem (l2l/mem/{target} ?x))"],
            ["?e = ?x"], target=target, fuzz=_fz_one_vec)
        low(f"mem2{target}-of-{target}-load",
            [f"?e = (l2l/mem/{target} ?ld)", "?ld = (load ?n ?t ?i)",
             f"(buffer-loc ?n loc/{target})"],
            ["?e = ?ld"],
            f"a load from a {target}-resident buffer is already on {target}; "
            f"the injected movement is the identity", target, _fz_of_load(target))

    for target, loader in (("amx", "tile_load"), ("wmma", "wmma_load_c")):
        for layout, index, guard, stride in layouts:
            low(f"{target}-acc-load-{layout}",
                [f"?e = (l2l/mem/{target} ?ld)", "?ld = (load ?bufn ?t ?idx)", f"?idx = {index}",
                 "(buffer-loc ?bufn loc/mem)", f"({target}-shape ?m ?k ?n)", guard],
                [*stride, f"?e = (call/{loader} (var (name ?bufn)) ?b ?sstr (imm/i32 ?m) "
                          "(imm/i32 ?n))"],
                target=target, fuzz=_fz_acc_load(target, flat=layout == "flat"))

    for name, target, loader, rows, cols, fuzz in (
            ("amx-stage-flat", "amx", "tile_load", "m", "k", _fz_stage("amx")),
            ("wmma-stage-flat-a", "wmma", "wmma_load_a", "m", "k", _fz_stage("wmma")),
            ("wmma-stage-flat-b", "wmma", "wmma_load_b", "k", "n",
             _fz_stage("wmma", b_shape=True))):
        low(name,
            [f"?st = (store ?buf ?sidx (l2l/mem/{target} ?ld))",
             "?sidx = (ramp ?sb imm/i32/1 ?ll)", "?ld = (load ?mn ?t (ramp ?lb imm/i32/1 ?ll))",
             "(buffer-loc ?mn loc/mem)",
             f"(buffer-loc ?buf loc/{target})", f"({target}-shape ?m ?k ?n)",
             f"(== ?ll (* ?{rows} ?{cols}))"],
            [f"?st = (store ?buf ?sidx (call/{loader} (var (name ?mn)) ?lb (imm/i32 ?{cols}) "
             f"(imm/i32 ?{rows}) (imm/i32 ?{cols})))"],
            target=target, fuzz=fuzz)


# ---------------------------------------------------------------------------
# soundness fuzzing


@dataclass(frozen=True, eq=False)
class Structure:
    """What like draws of a rule share, as the module docstring sets out:
    the match, read-only; the parameters its buffers fill, a tuple of
    `ir.Param` in order, which `interp.random_inputs` reads as a program's;
    the shapes; and the program or None.  Structures compare and hash by
    value, so the two zero immediates differ, and each computes its hash
    once."""

    match: dict
    params: tuple = ()
    shapes: tuple = ()
    program: object = None

    def __post_init__(self):
        match, params = MappingProxyType(dict(self.match)), tuple(self.params)
        key = (tuple(match.items()), params, self.shapes, self.program)
        for name, value in (("match", match), ("params", params), ("_key", (hash(key), key))):
            object.__setattr__(self, name, value)

    def __eq__(self, other):
        return self is other or isinstance(other, Structure) and self._key == other._key

    def __hash__(self):
        return self._key[0]


@dataclass
class FuzzInstance:
    """Two sides to compare: expressions, or programs carrying their own
    shapes.  `shapes` are the extra shapes an expression pair may use."""

    lhs: object
    rhs: object
    buffers: dict = field(default_factory=dict)
    shapes: tuple = ()


@dataclass
class SoundnessReport:
    rule: str
    trials: int
    checked: int = 0
    counterexample: object = None
    guard_unsatisfiable: bool = False

    @property
    def ok(self):
        return self.counterexample is None and not self.guard_unsatisfiable


def _read(value, cls):
    if not isinstance(value, cls):
        raise TypeError(f"not a {cls.__name__}: {value!r}")
    return value


class _IRBuilder:
    """Stands in for an EGraph whose classes are the IR values they stand
    for: nodes, and the ints, VecTypes and buffer names of leaves.  Through
    it a compiled right-hand side builds each node over its children's
    values (`build_node`), reads the leaves it matched, and records its
    unions; it finds no node, so it builds every one.  Its parent table
    gives each lookup a new token, so no two values share a root: each
    `Bind` the action reaches unions, of two equal values too."""

    _parent = property(lambda self: self)  # its own parent table
    __getitem__ = staticmethod(lambda value: object())
    _hashcons = SimpleNamespace(get=lambda key: None)  # hashes no key
    add = staticmethod(build_node)
    assert_fact = staticmethod(lambda name, *args: None)
    class_name = staticmethod(lambda v: _read(v, str))
    class_type = staticmethod(lambda v: (_read(v, ir.VecType).kind, v.lanes))
    # an int, else an i32 immediate's value, as `EGraph.class_int` reads one
    class_int = staticmethod(lambda v: int(v.value) if v.__class__ is ir.Imm
                             and v.kind == "i32" else _read(v, int))

    def __init__(self):
        self.unions = []

    def union(self, a, b):
        self.unions.append((a, b))


def _sides(rule, match):
    """`rule`'s two sides at `match`, as IR: the left is the variable of its
    one `Bind` effect, expanded through the query's `Bind` atoms by
    `build_node`; the right is what `rule.action`, run on an `_IRBuilder`
    with a row of each query variable's value, unions with it, equal to it
    or not.  An action that writes nothing, since a template cannot be
    computed at `match`, raises ValueError naming the rule.  A variable
    that no query `Bind` defines is its value in `match`."""
    binds = {a.var: a.pattern for a in rule.query if isinstance(a, Bind)}
    values = dict(match)

    def var(name):
        if name not in values:
            values[name] = value(binds[name])
        return values[name]

    def value(p):
        return var(p.name) if isinstance(p, PVar) else build_node(
            p.op, tuple(map(value, p.children)))

    (bind,) = [e for e in rule.rhs if isinstance(e, Bind)]
    lhs = var(bind.var)
    g = _IRBuilder()
    rule.action(g, tuple(map(var, rule.query.names)))
    if not g.unions:
        raise ValueError(f"rule {rule.name!r}: the action writes nothing at this match")
    return lhs, g.unions[0][1]


def _render(rule, structure):
    """The two sides of `rule` at `structure`, in its program for a
    statement rule."""
    lhs, rhs = _sides(rule, structure.match)
    if structure.program is None:
        return lhs, rhs
    return (ir.Program(structure.program.params, tuple(
        side if s is None else s for s in structure.program.body), structure.shapes)
        for side in (lhs, rhs))


def _groups(rule, rng, trials):
    """(groups, drawn, error) of `trials` draws of `rule.fuzz(rng)`: the
    groups map each structure to its draws, (index, seed) pairs, where a
    draw's index counts the draws made before it, in the order of their
    first draws; `drawn` counts the draws, and `error` is what the
    generator raised, which ends the draws, or None.  A draw's fill seed
    is its index plus one `rng.getrandbits(63)` drawn after the draws."""
    groups, drawn, error = {}, 0, None
    for _ in range(trials):
        try:
            structure = rule.fuzz(rng)
        except Exception as e:  # raised unless an earlier draw fails
            error = e
            break
        if structure is not None:
            groups.setdefault(structure, []).append(drawn)
            drawn += 1
    base = rng.getrandbits(63)
    return ({s: [(i, base + i) for i in members] for s, members in groups.items()},
            drawn, error)


def check_rule_soundness(rule, trials=500, seed=0):
    """Interpreter-equivalence fuzzing for one semantic rule: `trials`
    draws of its generator, each checked by evaluating the rule's two sides
    at the draw and comparing them bit for bit.

    `rule.fuzz(rng)` returns a draw, a `Structure` whose match satisfies
    the rule's query, guards included; or None to skip a draw.  It builds
    neither side, and draws of the same ints share one structure, which
    `_shared` keeps for the length of this call.  The draws are grouped by
    structure (`_groups`), one dict lookup each, and each draw gets a fill
    seed from `rng`, drawn after the draws, so a report is a function of
    (rule, trials, seed).  The seeds start from one base drawn after all
    the draws, so a counterexample's lanes depend on `trials` as well: at
    other trials the same first failing draw may fail on other lanes.
    Once per group the sides are built from the rule itself, straight to
    IR (`_sides`): the left from its query, the right by its compiled
    action run on an `_IRBuilder`.  Then `interp.first_failure`, the
    judge `cli.run_difftest` uses, checks the group's draws at their
    seeds: one `interp.compare_sides` over `interp.random_inputs` of the
    structure, a row per draw, replayed draw by draw if it raises.  A
    counterexample's `FuzzInstance` holds its draw's single-seed fill,
    which equals its row.  The report, or the exception raised, is that of
    checking the draws one by one in draw order: the first draw whose
    render or evaluation raises, or whose sides differ, decides, and
    `checked` counts the draws up to it.  A render that raises counts at
    its group's first draw.  When the generator raises, the draws made
    before it are checked first."""
    report = SoundnessReport(rule=rule.name, trials=trials)
    if not rule.semantic:
        return report
    assert rule.fuzz is not None, f"semantic rule {rule.name} lacks a generator"
    rng = random.Random(f"soundness:{seed}:{rule.name}")
    groups, drawn, error = _groups(rule, rng, trials)
    _shared.cache_clear()  # the groups hold this call's structures; the memo lets them go
    first = None
    for structure, members in groups.items():  # in the order of their first draws
        if first is not None:
            members = [m for m in members if m[0] < first[0]]
            if not members:
                break
        try:
            lhs, rhs = _render(rule, structure)
        except Exception as e:  # raised unless an earlier draw fails
            first = members[0][0], e
            continue
        hit = interp.first_failure(lhs, rhs, structure, [s for _, s in members],
                                   structure.shapes)
        if hit is not None:
            (index, fill), outcome = members[hit[0]], hit[1]
            if not isinstance(outcome, Exception):  # its instance holds its own fill
                outcome = FuzzInstance(lhs, rhs, interp.random_inputs(structure, fill),
                                       structure.shapes), outcome
            first = index, outcome
    if first is not None:
        index, outcome = first
        if isinstance(outcome, Exception):
            raise outcome
        report.checked, report.counterexample = index + 1, outcome
        return report
    if error is not None:
        raise error
    report.checked = drawn
    report.guard_unsatisfiable = drawn == 0
    return report


# -- per-rule match generators -----------------------------------------------
#
# A generator draws its ints and returns the structure they make (`_shared`),
# passing it only what it drew: the builder makes every IR value, once.
# `tests/draw_stream.json` pins each rule's random stream.


@functools.lru_cache(maxsize=1024)  # above one call's 500 draws
def _shared(build, *args, **kw):
    """`build(*args, **kw)`: the structure of the draws that drew `args`.
    `check_rule_soundness` clears it after its draws."""
    return build(*args, **kw)


@functools.lru_cache(maxsize=1024)  # a few buffer names, kinds and lane counts
def _dense_load(name, kind, lanes):
    """A load of lanes 0 .. lanes-1 of buffer `name`."""
    return ir.Load(name, ir.VecType(kind, lanes),
                   ir.Ramp(ir.Imm("i32", 0), ir.Imm("i32", 1), lanes))


def _vec(params, lanes, kind, prefix="buf", location="mem"):
    """A dense load of a new buffer of `kind`, its parameter added to `params`."""
    name = f"{prefix}{len(params)}"
    params.append(ir.Param(name, kind, lanes, location))
    return _dense_load(name, kind, lanes)


def _loads(*items, shapes=()):
    """The structure whose match holds `items`, (variable, value) pairs in
    order, with each (lanes, kind) value a dense load of a new buffer."""
    params = []
    return Structure({var: _vec(params, *v) if isinstance(v, tuple) else v
                      for var, v in items}, params, shapes)


def _fz_one_vec(rng):
    n, kind = rng.randrange(1, 6), rng.choice(("i32", "f32", "bf16"))
    return _shared(_loads, ("x", (n, kind)))


def _fz_bcast_flatten(rng):
    n, kind = rng.randrange(1, 5), rng.choice(("i32", "f32", "bf16"))
    return _shared(_loads, ("x", (n, kind)), ("l1", rng.randrange(1, 5)),
                   ("l2", rng.randrange(1, 5)))


def _fz_bcast_of_load(rng):
    """A gather from 16 lanes, so any i32 lane indexes them."""
    kind, n = rng.choice(("i32", "f32", "bf16")), rng.randrange(1, 5)
    return _shared(_bcast_of_load, kind, n, rng.randrange(1, 4))


def _bcast_of_load(kind, n, l):
    params = []  # buf0, the gathered lanes, then buf1, the index
    return Structure({"n": _vec(params, 16, kind).buffer, "t": ir.VecType(kind, n),
                      "i": _vec(params, n, "i32"), "l": l}, params)


def _fz_bcast_of_cast(rng):
    return _shared(_bcast_of_cast, rng.randrange(1, 5), rng.randrange(1, 4))


def _bcast_of_cast(n, l):
    return _loads(("t", ir.VecType("f32", n)), ("x", (n, "bf16")), ("l", l))


def _fz_ramp_elim(rng):
    w = rng.randrange(1, 5)
    return _shared(_loads, ("x", (w, "i32")), ("s", (w, "i32")), ("w", w))


def _fz_ramp_split(rng):
    return _shared(_ramp_split, rng.randrange(0, 16), 2 * rng.randrange(1, 5))


def _ramp_split(x, l):
    return _loads(("x", ir.Imm("i32", x)), ("l", l))


def _fz_ramp_plus_bcast(rng):
    """A ramp of n steps over f*lx lanes and an m = f*n copy broadcast of
    lx lanes."""
    n, f, lx = rng.randrange(1, 5), rng.randrange(1, 4), rng.randrange(1, 4)
    v = (f * lx, "i32")
    return _shared(_loads, ("b", v), ("s", v), ("n", n), ("x", (lx, "i32")),
                   ("m", n * f), ("w", f * lx * n))


def _fz_ramp_unnest(rng):
    lanes, l = rng.randrange(1, 4), rng.randrange(1, 5)
    v = (lanes, "i32")
    return _shared(_loads, ("x", v), ("a", v), ("s", v), ("l", l), ("w", lanes * l))


def _fz_sibling(ramp):
    """An l2 = q*l1 copy broadcast of la lanes ?a, and its sibling over
    q*la lanes: a ramp of ?x and ?s in l1 steps, or l1 copies of ?b."""
    def gen(rng):
        l1, q, la = rng.randrange(1, 4), rng.randrange(2, 4), rng.randrange(1, 3)
        v = (q * la, "i32")
        return _shared(_loads, *((("x", v), ("s", v)) if ramp else (("b", v),)),
                       ("l1", l1), ("a", (la, "i32")), ("l2", l1 * q), ("w", q * la * l1))
    return gen


def _fz_add_of_bcasts(rng):
    lanes, l = rng.randrange(1, 4), rng.randrange(1, 5)
    v = (lanes, "i32")
    return _shared(_loads, ("a", v), ("b", v), ("l", l), ("w", lanes * l))


def _fz_commute(rng):
    kind = rng.choice(("i32", "f32"))
    v = (rng.randrange(1, 6), kind)
    return _shared(_loads, ("x", v), ("y", v))


# both signs, magnitudes up to 2^15: any two's sum and product stay in i32
FOLD_OPERANDS = (-2**15, -100, -17, -8, -2, -1, 0, 1, 2, 3, 8, 17, 99, 100, 12345, 2**15)


def _fz_int_fold(rng):
    return _shared(_int_fold, rng.choice(FOLD_OPERANDS), rng.choice(FOLD_OPERANDS))


def _int_fold(a, b):
    return _loads(("a", ir.Imm("i32", a)), ("b", ir.Imm("i32", b)))


def _fz_matmul(target):
    def gen(rng):
        m, n = rng.choice((1, 2, 4)), rng.choice((1, 2, 4))
        k = 2 * rng.randrange(1, 4)
        return _shared(_matmul, target, m, k, n, k + rng.choice((0, 0, 2)))
    return gen


def _matmul(target, m, k, n, astride):
    kind = "bf16" if target == "amx" else "f16"
    params, zero = [], ir.Imm("i32", 0)
    a_buf = _vec(params, m * astride, kind, "A").buffer
    c = _vec(params, m * n, "f32", "C")
    b_buf = _vec(params, k * n, kind, "B").buffer

    def tile(var, buf, *ints):
        """The arguments of a tile load from `buf`, bound as the lowering binds them."""
        return dict(zip((var + a for a in TILE_ARGS),
                        (ir.Var(buf), zero, *(ir.Imm("i32", v) for v in ints))))

    if target == "amx":
        b_load, b_axes = (2 * n, k // 2, 2 * n), [(m, 0), (n, 2), (k // 2, 2 * n), (2, 1)]
    else:
        b_load, b_axes = (n, k, n), [(m, 0), (n, 1), (k, n)]
    tiles = {**tile("ta", a_buf, astride, m, k), **tile("tb", b_buf, *b_load)}
    wide = ir.VecType(kind, m * k * n)
    a = ir.Load(a_buf, wide, ir.canonical_index([(m, astride), (n, 0), (k, 1)], zero))
    b = ir.Load(b_buf, wide, ir.canonical_index(b_axes, zero))
    return Structure({"m": m, "k": k, "n": n, "c": c, "rl": m * n, "a": a, "b": b,
                      "wide": m * k * n, **tiles}, params, (ir.ShapeDecl(target, m, k, n),))


def _fz_zero(target):
    def gen(rng):
        m, n = rng.choice((1, 2, 4)), rng.choice((1, 2, 4))
        return _shared(_zero, target, m, n)
    return gen


def _zero(target, m, n):
    return _loads(("z", ir.Imm("f32", 0.0)), ("l", m * n), ("m", m), ("k", 2), ("n", n),
                  shapes=(ir.ShapeDecl(target, m, 2, n),))


def _fz_of_load(target):
    return lambda rng: _shared(_of_load, target, rng.randrange(1, 6))


def _of_load(target, lanes):
    params = []
    v = _vec(params, lanes, "f32", location=target)
    return Structure({"n": v.buffer, "t": v.vtype, "i": v.index}, params)


def _tile_index(m, n, pad, flat):
    """The match of a row-major m x n tile index at buffer offset 0: flat
    at stride n, or 2-axis at row stride n + `pad`."""
    zero = ir.Imm("i32", 0)
    return ({"b": zero, "ll": m * n} if flat
            else {"b": zero, "n1": n, "sstr": ir.Imm("i32", n + pad), "n0": m})


def _fz_acc_load(target, flat):
    def gen(rng):
        m, n = rng.choice((1, 2, 4)), rng.choice((2, 4))
        return _shared(_acc_load, target, flat, m, n, 0 if flat else rng.choice((0, 1)))
    return gen


def _acc_load(target, flat, m, n, pad):
    params = []
    return Structure({"bufn": _vec(params, m * (n + pad) + 2, "f32", "acc").buffer,
                      "t": ir.VecType("f32", m * n), **_tile_index(m, n, pad, flat),
                      "m": m, "k": 2, "n": n}, params, (ir.ShapeDecl(target, m, 2, n),))


def _fz_store(target, flat):
    """The tile of an `acc` buffer on `target`, filled from `src`, stored
    to `out`."""
    def gen(rng):
        m, n = rng.choice((2, 4)), rng.choice((2, 4))
        return _shared(_store, target, flat, m, n, 0 if flat else rng.choice((0, 2)))
    return gen


def _store(target, flat, m, n, pad):
    mn = m * n
    acc = _dense_load("acc", "f32", mn)
    params = (ir.Param("src", "f32", mn), ir.Param("out", "f32", (m - 1) * (n + pad) + n))
    program = ir.Program(params, (ir.Allocate("acc", "f32", mn, target),
                                  ir.Store("acc", acc.index, _dense_load("src", "f32", mn)),
                                  None))
    return Structure({"buf": "out", "tile": acc, **_tile_index(m, n, pad, flat), "m": m,
                      "k": 2, "n": n}, params, (ir.ShapeDecl(target, m, 2, n),), program)


def _fz_stage(target, b_shape=False):
    """`src` staged into a `stage` buffer on `target`, then read back to
    `out`."""
    def gen(rng):
        m, n = rng.choice((2, 4)), rng.choice((2, 4))
        return _shared(_stage, target, b_shape, m, 2 * rng.randrange(1, 3), n)
    return gen


def _stage(target, b_shape, m, k, n):
    kind = "bf16" if target == "amx" else "f16"
    length = k * n if b_shape else m * k
    stage = _dense_load("stage", kind, length)
    params = (ir.Param("src", kind, length), ir.Param("out", kind, length))
    program = ir.Program(params, (ir.Allocate("stage", kind, length, target), None,
                                  ir.Store("out", stage.index, stage)))
    zero = ir.Imm("i32", 0)
    return Structure({"buf": "stage", "sb": zero, "ll": length, "mn": "src",
                      "t": stage.vtype, "lb": zero, "m": m, "k": k, "n": n},
                     params, (ir.ShapeDecl(target, m, k, n),), program)


# ---------------------------------------------------------------------------
# mutation-test fixtures


def corrupted_ramp_rule():
    """ramp-plus-broadcast with one added to each lane of its result
    stride, which has w // n lanes: the soundness fuzzer must find a
    counterexample."""
    name = "ramp-plus-broadcast"
    return _mutated(name, ["?e = (ramp (bop/+ ?b (if (== ?m ?n) ?x (bcast ?x (int (// ?m ?n))))) "
                           "(bop/+ ?s (bcast imm/i32/1 (int (// ?w ?n)))) ?n)"],
                    "result stride off by one").named(name)


def _mutated(name, rhs, why):
    """The default ruleset with rule `name`'s right-hand side replaced by
    the atoms written in `rhs`."""
    rs = build_default_ruleset()
    rule = rs.named(name)
    rs.rules[rs.rules.index(rule)] = replace(
        rule, rhs=_atoms(name, rhs), doc=f"{rule.doc} [CORRUPTED: {why}]".lstrip())
    return rs


def corrupted_ruleset():
    """Default ruleset with the VNNI tile load using a row stride two short:
    selection still succeeds and stays in bounds, but difftests must catch
    the divergent lanes.  The stride is read as an int, so the VNNI index
    must have a constant row stride of at least 3, as every corpus program
    has; another stride raises in the action or loads at a stride below 1."""
    return _mutated("amx-b-vnni", ["let ?bad = (imm/i32 (- ?vstride 2))",
                                   _AMX_B_VNNI.format("?bad")],
                    "tile row stride off by two")


def runaway_ruleset():
    """Default ruleset with broadcast-flatten adding the copy counts where
    it should multiply them: every round derives broadcasts of new lane
    counts, and their types, without end, so selection must stop on its
    budget."""
    return _mutated("broadcast-flatten", ["?e = (bcast ?x (int (+ ?l1 ?l2)))"],
                    "copy counts added")


# ---------------------------------------------------------------------------
# diagnostic queries


def matmul_statement_query(m=16, k=32, n=16, kind="bf16"):
    """The canonical three-level MatMul statement pattern at one shape, used
    for the phase-ordering ablation: zero matches before axiom saturation,
    exactly one after."""
    wide = f"(type/f32 {m * k * n})"
    return tuple(map(read_atom, (
        f"?e = (bop/+ ?c (vra {m * n} ?mul))",
        f"?mul = (bop/* (cast {wide} ?a) (cast {wide} ?b))",
        f"?a = (load ?an (type/{kind} {m * k * n}) ?idxa)",
        f"?idxa = (ramp (bcast (ramp ?abase imm/i32/1 {k}) {n}) (bcast ?astride {k * n}) {m})",
        f"?b = (load ?bn (type/{kind} {m * k * n}) ?idxb)",
        f"?idxb = (bcast (ramp (ramp ?bbase ?bstride {k}) (bcast imm/i32/1 {k}) {n}) {m})")))


def check_type_consistency(g):
    """None, or a (class, type1, type2) witness of two disagreeing has-type
    facts inside one class."""
    seen = {}
    for e, t in g.facts.get("has-type", ()):
        ty = g.class_type(t)
        if ty is None:
            continue
        root = g.find(e)
        if root in seen and seen[root] != ty:
            return root, seen[root], ty
        seen[root] = ty
    return None
