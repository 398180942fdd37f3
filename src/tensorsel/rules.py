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
(`_IRBuilder`) for the right, with no term trees between, and fills each
group's buffers with `interp.random_inputs`, a row per draw's seed: the
fill and the comparison (`interp.compare_sides`) of `cli.run_difftest`.

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
from dataclasses import dataclass, field, replace
from types import MappingProxyType, SimpleNamespace

from . import interp, ir
from .egraph import Bind, Calc, EGraph, If, Let, PNode, PVar, Rel, RuleDef, rel

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
# pattern helpers

V = PVar


def P(op, *children):
    return PNode(op, tuple(children))


def C(op, *args):
    return Calc(op, tuple(args))


def eq(a, b):
    return C("==", a, b)


def pload(name, vtype, idx):
    return P(("load",), name, vtype, idx)


def ptype(kind, lanes):
    return P(("type", kind), lanes)


def pscaled(t, by):
    """The type of ?t's kind with ?by times its lanes."""
    return ptype(C("kind", V(t)), pint(C("*", C("lanes", V(t)), V(by))))


def pint(v):
    return P(("int", v))


def pimm(v):
    return P(("imm", "i32", v if isinstance(v, (Calc, PVar)) else int(v)))


def pvar(name):
    """The `var` node of the buffer named in class ?name."""
    return P(("var", C("name", V(name))))


def padd(a, b):
    return P(("bop", "+"), a, b)


def pmul(a, b):
    return P(("bop", "*"), a, b)


def pramp(base, stride, n):
    return P(("ramp",), base, stride, n)


def pbcast(e, n):
    return P(("bcast",), e, n)


def pvra(rl, e):
    return P(("vra",), rl, e)


def pl2l(src, dst, e):
    return P(("l2l", src, dst), e)


def ploc(loc):
    return P(("loc", loc))


TILE_ARGS = ("buf", "base", "stride", "rows", "cols")  # a tile load's, `ir.INTRINSICS`


def ptile(var, loader):
    """Query atom: ?var holds a `loader` tile load, its arguments bound to
    ?{var}buf, ?{var}base and so on."""
    return Bind(var, P(("call", loader), *(V(var + a) for a in TILE_ARGS)))


def has_i32(var, lanes=V("w")):
    """Query atom: `var` has an i32 type of `lanes` lanes."""
    return rel("has-type", V(var), ptype("i32", lanes))


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


def build_default_ruleset():
    """A new RuleSet of the default rules.  The rules are built once per
    process; each set holds fresh copies of them that share their laid-out
    queries and compiled right-hand sides, so changing one set's rules
    leaves the next set as built."""
    return RuleSet([replace(r) for r in _default_rules()])


@functools.cache
def _default_rules():
    rs = RuleSet()
    _axiomatic_rules(rs)
    _supporting_rules(rs)
    _application_rules(rs)
    _lowering_rules(rs)
    return tuple(rs)


# -- axioms ------------------------------------------------------------------


def _axiomatic_rules(rs):
    def axiom(name, query, rhs, doc="", fuzz=None):
        return rs.add(RuleDef(name=name, category="axiomatic", query=tuple(query),
                              rhs=tuple(rhs), doc=doc, fuzz=fuzz))

    axiom("broadcast-flatten",
          [Bind("e", pbcast(pbcast(V("x"), V("l1")), V("l2")))],
          [Bind("e", pbcast(V("x"), pint(C("*", V("l1"), V("l2")))))],
          fuzz=_fz_bcast_flatten)

    axiom("broadcast-elim",
          [Bind("e", pbcast(V("x"), pint(1)))],
          [Bind("e", V("x"))],
          fuzz=_fz_one_vec)

    axiom("degenerate-broadcast",
          [rel("is-expr", V("x"))],
          [Bind("x", pbcast(V("x"), pint(1)))],
          "recovers the general pattern from scalars",
          fuzz=_fz_one_vec)

    axiom("broadcast-of-load",
          [Bind("e", pbcast(pload(V("n"), V("t"), V("i")), V("l")))],
          [Bind("e", pload(V("n"), pscaled("t", "l"), pbcast(V("i"), V("l"))))],
          fuzz=_fz_bcast_of_load)

    axiom("broadcast-of-cast",
          [Bind("e", pbcast(P(("cast",), V("t"), V("x")), V("l")))],
          [Bind("e", P(("cast",), pscaled("t", "l"), pbcast(V("x"), V("l"))))],
          fuzz=_fz_bcast_of_cast)

    axiom("ramp-elim",
          [Bind("e", pramp(V("x"), V("s"), pint(1))), has_i32("e")],
          [Bind("e", V("x"))],
          fuzz=_fz_ramp_elim)

    axiom("degenerate-ramp-split",
          [Bind("e", pramp(V("x"), pimm(1), V("l"))),
           C("and", C("<=", 2, V("l")), eq(C("%", V("l"), 2), 0)),
           has_i32("x", pint(1))],
          [Let("two", pint(2)),
           Bind("e", pramp(pramp(V("x"), pimm(1), V("two")), pbcast(pimm(2), V("two")),
                           pint(C("//", V("l"), 2))))],
          "recovers nesting from dense ramps",
          fuzz=_fz_ramp_split)

    for suffix, pat in (("", padd(pramp(V("b"), V("s"), V("n")), pbcast(V("x"), V("m")))),
                        ("-r", padd(pbcast(V("x"), V("m")), pramp(V("b"), V("s"), V("n"))))):
        axiom(f"ramp-plus-broadcast{suffix}",
              [Bind("e", pat),
               eq(C("%", V("m"), V("n")), 0),
               has_i32("e")],
              [Bind("e", pramp(padd(V("b"), If(eq(V("m"), V("n")), V("x"),
                                               pbcast(V("x"), pint(C("//", V("m"), V("n")))))),
                               V("s"), V("n")))],
              fuzz=_fz_ramp_plus_bcast)

    axiom("ramp-unnest",
          [Bind("e", pramp(padd(V("x"), V("a")), V("s"), V("l"))), has_i32("e")],
          [Bind("e", padd(pramp(V("x"), V("s"), V("l")), pbcast(V("a"), V("l"))))],
          "the un-nesting partner of ramp-plus-broadcast",
          fuzz=_fz_ramp_unnest)

    nested = pbcast(pbcast(V("a"), pint(C("//", V("l2"), V("l1")))), V("l1"))
    for suffix, pat in (("", padd(pramp(V("x"), V("s"), V("l1")), pbcast(V("a"), V("l2")))),
                        ("-r", padd(pbcast(V("a"), V("l2")), pramp(V("x"), V("s"), V("l1"))))):
        axiom(f"sibling-nest-ramp-broadcast{suffix}",
              [Bind("e", pat),
               C("and", C("<", V("l1"), V("l2")), eq(C("%", V("l2"), V("l1")), 0)),
               has_i32("e")],
              [Bind("e", padd(nested, pramp(V("x"), V("s"), V("l1"))))],
              "re-nest a broadcast using its sibling ramp's count as the hint",
              fuzz=_fz_sibling(ramp=True))

    for suffix, pat in (("", padd(pbcast(V("a"), V("l2")), pbcast(V("b"), V("l1")))),
                        ("-r", padd(pbcast(V("b"), V("l1")), pbcast(V("a"), V("l2"))))):
        axiom(f"sibling-nest-broadcast-pair{suffix}",
              [Bind("e", pat),
               C("and", C("<", V("l1"), V("l2")), eq(C("%", V("l2"), V("l1")), 0)),
               has_i32("e")],
              [Bind("e", padd(nested, pbcast(V("b"), V("l1"))))],
              "re-nest the wider of two sibling broadcasts to equal counts",
              fuzz=_fz_sibling(ramp=False))

    axiom("add-of-broadcasts",
          [Bind("e", padd(pbcast(V("a"), V("l")), pbcast(V("b"), V("l")))),
           has_i32("e")],
          [Bind("e", pbcast(padd(V("a"), V("b")), V("l")))],
          fuzz=_fz_add_of_bcasts)

    for opname, sym in (("add", "+"), ("mul", "*")):
        axiom(f"{opname}-commute",
              [Bind("e", P(("bop", sym), V("x"), V("y")))],
              [Bind("e", P(("bop", sym), V("y"), V("x")))],
              fuzz=_fz_commute)

        axiom(f"int-{opname}-fold",
              [Bind("e", P(("bop", sym), V("a"), V("b"))),
               C("and", *(C("<=", ir.I32_MIN, x, ir.I32_MAX)
                          for x in (V("a"), V("b"), C(sym, V("a"), V("b")))))],
              [Bind("e", pimm(C(sym, V("a"), V("b"))))],
              fuzz=_fz_int_fold)


# -- supporting --------------------------------------------------------------


def _supporting_rules(rs):
    def supp(name, query, rhs=(rel("has-type", V("e"), V("t")),)):
        return rs.add(RuleDef(name=name, category="supporting", query=tuple(query),
                              rhs=tuple(rhs)))

    supp("type-of-load", [Bind("e", pload(V("n"), V("t"), V("i")))])
    supp("type-of-cast", [Bind("e", P(("cast",), V("t"), V("x")))])

    for sym in ("+", "-", "*", "/", "%"):
        supp(f"type-of-{ {'+':'add','-':'sub','*':'mul','/':'div','%':'mod'}[sym] }",
             [Bind("e", P(("bop", sym), V("a"), V("b"))),
              rel("has-type", V("a"), V("t"))])

    supp("type-of-ramp",
         [Bind("e", pramp(V("b"), V("s"), V("n"))), rel("has-type", V("b"), V("t"))],
         [rel("has-type", V("e"), pscaled("t", "n"))])

    supp("type-of-broadcast",
         [Bind("e", pbcast(V("x"), V("n"))), rel("has-type", V("x"), V("t"))],
         [rel("has-type", V("e"), pscaled("t", "n"))])

    supp("type-of-vector-reduce-add",
         [Bind("e", pvra(V("rl"), V("x"))), rel("has-type", V("x"), V("t"))],
         [rel("has-type", V("e"), ptype(C("kind", V("t")), V("rl")))])

    for src, dst in (("mem", "amx"), ("amx", "mem"), ("mem", "wmma"), ("wmma", "mem")):
        supp(f"type-of-{src}2{dst}",
             [Bind("e", pl2l(src, dst, V("x"))), rel("has-type", V("x"), V("t"))])

    supp("type-of-exprvar",
         [Bind("e", P(("exprvar",), V("x"))), rel("has-type", V("x"), V("t"))])


# -- application -------------------------------------------------------------


def _pat_a_index(idx_var):
    return Bind(idx_var, pramp(
        pbcast(pramp(V("abase"), pimm(1), V("k")), V("n")),
        pbcast(V("astride"), V("kn")), V("m")))


def _pat_b_standard_index(idx_var):
    return Bind(idx_var, pbcast(
        pramp(pramp(V("bbase"), V("bstride"), V("k")),
              pbcast(pimm(1), V("k")), V("n")), V("m")))


def _pat_b_vnni_index(idx_var):
    return Bind(idx_var, pbcast(
        pramp(pramp(pramp(V("bbase"), pimm(1), pint(2)),
                    pbcast(V("vstride"), pint(2)), V("kh")),
              pbcast(pimm(2), V("k")), V("n")), V("m")))


def _amx_b_vnni_rhs(stride):
    """The VNNI B tile load, its row stride given by the template `stride`."""
    return (rel("amx-b-tile", V("origb"), P(
        ("call", "tile_load"), pvar("bn"), V("bbase"), stride,
        pimm(C("//", V("k"), 2)), pimm(C("*", 2, V("n"))))),)


def _toeplitz_rhs(stride, matrix):
    """Tile facts of a signal load as the A fragment at row stride `stride`
    and a kernel load as the B fragment of the shuffled `matrix`."""
    return (rel("wmma-a-tile", V("loadi"), P(
                ("call", "wmma_load_a"), pvar("iname"), V("basei"), pimm(stride),
                pimm(V("m")), pimm(V("k")))),
            rel("wmma-b-tile", V("loadk"), P(
                ("call", "wmma_load_b"), P(("exprvar",), matrix), pimm(0),
                pimm(V("n")), pimm(V("k")), pimm(V("n")))))


def _application_rules(rs):
    def app(name, target, query, rhs, doc):
        return rs.add(RuleDef(name=name, category="application", query=tuple(query),
                              rhs=tuple(rhs), doc=doc, target=target))

    for target, kind, loader in (("amx", "bf16", "tile_load"),
                                 ("wmma", "f16", "wmma_load_a")):
        app(f"{target}-a-standard", target,
            [rel(f"{target}-shape", V("m"), V("k"), V("n")),
             Bind("origa", pload(V("an"), ptype(kind, V("lanes")), V("idx"))),
             _pat_a_index("idx"),
             C("and", eq(V("lanes"), C("*", V("m"), V("k"), V("n"))),
               eq(V("kn"), C("*", V("k"), V("n"))))],
            [rel(f"{target}-a-tile", V("origa"), P(
                ("call", loader), pvar("an"), V("abase"), V("astride"),
                pimm(V("m")), pimm(V("k"))))],
            f"A matrix in row-major three-level nesting loads directly as the "
            f"{target.upper()} A tile")

    app("amx-b-standard", "amx",
        [rel("amx-shape", V("m"), V("k"), V("n")),
         Bind("origb", pload(V("bn"), ptype("bf16", V("lanes")), V("idx"))),
         C("and", eq(V("lanes"), C("*", V("m"), V("k"), V("n"))), eq(C("%", V("k"), 2), 0)),
         _pat_b_standard_index("idx"),
         rel("buffer-loc", V("bn"), ploc("mem"))],
        [Let("rowmajor", pramp(pramp(V("bbase"), pimm(1), V("n")),
                               pbcast(V("bstride"), V("n")), V("k"))),
         Let("loadb", pload(V("bn"), ptype("bf16", pint(C("*", V("k"), V("n")))),
                            V("rowmajor"))),
         rel("amx-b-tile", V("origb"), P(
             ("call", "tile_load"),
             P(("exprvar",), P(("call", "KWayInterleave"), pimm(2), pimm(V("n")),
                               V("loadb"))),
             pimm(0), pimm(C("*", 2, V("n"))), pimm(C("//", V("k"), 2)),
             pimm(C("*", 2, V("n")))))],
        "B in the standard layout: interleave row pairs (VNNI pack) into a "
        "temporary, then tile-load it; only for memory-resident sources")

    app("amx-b-vnni", "amx",
        [rel("amx-shape", V("m"), V("k"), V("n")),
         Bind("origb", pload(V("bn"), ptype("bf16", V("lanes")), V("idx"))),
         _pat_b_vnni_index("idx"),
         C("and", eq(V("lanes"), C("*", V("m"), V("k"), V("n"))),
           eq(C("*", V("kh"), 2), V("k")))],
        _amx_b_vnni_rhs(V("vstride")),
        "B already in the VNNI layout tile-loads verbatim")

    app("wmma-b-standard", "wmma",
        [rel("wmma-shape", V("m"), V("k"), V("n")),
         Bind("origb", pload(V("bn"), ptype("f16", V("lanes")), V("idx"))),
         eq(V("lanes"), C("*", V("m"), V("k"), V("n"))),
         _pat_b_standard_index("idx")],
        [rel("wmma-b-tile", V("origb"), P(
            ("call", "wmma_load_b"), pvar("bn"), V("bbase"), V("bstride"),
            pimm(V("k")), pimm(V("n"))))],
        "row-major f16 B loads directly as the WMMA b fragment")

    conv_mul = [Bind("mul", pmul(P(("cast",), V("tf"), V("loadi")),
                                 P(("cast",), V("tf"), V("loadk")))),
                Bind("loadi", pload(V("iname"), ptype("f16", V("li")), V("idxi"))),
                Bind("loadk", pload(V("kname"), ptype("f16", V("li")), V("idxk")))]

    app("conv-toeplitz", "wmma",
        [rel("wmma-shape", V("m"), V("k"), V("n"))] + conv_mul + [
         Bind("idxi", pramp(pramp(V("basei"), pimm(1), V("l")),
                            pbcast(V("s"), V("l")), V("x"))),
         C("and", C("<=", 1, V("s")), C("<=", 1, V("l")), eq(V("x"), C("*", V("m"), V("n"))),
           eq(V("k"), C("+", C("*", V("s"), V("n")), V("l"))),
           eq(V("li"), C("*", V("x"), V("l")))),
         Bind("idxk", pbcast(pramp(V("basek"), pimm(1), V("l")), V("x")))],
        _toeplitz_rhs(C("*", V("s"), V("n")), If(
            eq(V("s"), 1),
            P(("call", "ConvolutionShuffle"), pvar("kname"), V("basek"),
              pimm(V("k")), pimm(V("n"))),
            P(("call", "PolyphaseShuffle"), pvar("kname"), V("basek"),
              pimm(V("l")), pimm(V("n")), pimm(1), pimm(V("s"))))),
        "an overlapped-window signal load times a broadcast kernel load is a "
        "MatMul against the (strided) Toeplitz matrix of the kernel")

    app("upsample-polyphase", "wmma",
        [rel("wmma-shape", V("m"), V("k"), V("n"))] + conv_mul + [
         Bind("idxi", pramp(pramp(pbcast(pramp(V("basei"), pimm(1), V("l")), V("p")),
                                  pbcast(pimm(1), V("pl")), V("kp")),
                            pbcast(V("ws"), V("kpl")), V("m"))),
         Bind("idxk", pbcast(pramp(pramp(V("basek"), V("sk"), V("l")),
                                   pbcast(pimm(1), V("l")), V("p")), V("mk"))),
         C("and", C("<=", 2, V("p")), C("<=", 1, V("l")), eq(V("pl"), C("*", V("p"), V("l"))),
           eq(C("*", V("kp"), V("p")), V("n")), eq(V("kpl"), C("*", V("kp"), V("pl"))),
           eq(V("ws"), V("kp")), eq(V("sk"), V("p")), eq(V("mk"), C("*", V("m"), V("kp"))),
           eq(V("k"), C("+", V("kp"), V("l"))), eq(V("li"), C("*", V("m"), V("n"), V("l"))))],
        _toeplitz_rhs(C("//", V("n"), V("p")), P(
            ("call", "PolyphaseShuffle"), pvar("kname"), V("basek"),
            pimm(V("l")), pimm(V("n")), pimm(V("p")), pimm(1))),
        "a phase-interleaved window load times a phase-decomposed kernel load "
        "is a MatMul against the polyphase Toeplitz matrix")


# -- lowering ----------------------------------------------------------------


# +0.0 immediates: the float kinds' zeros with a clear sign bit
ZEROS = tuple((kind, 0.0, False) for kind in ir.SCALAR_KINDS if kind != "i32")


def _lowering_rules(rs):
    def low(name, target, query, rhs, doc="", fuzz=None):
        return rs.add(RuleDef(name=name, category="lowering", query=tuple(query),
                              rhs=tuple(rhs), doc=doc, target=target, fuzz=fuzz))

    # MatMul lowering: e = C + vra(Mul(cast A, cast B)) with tile facts,
    # their tiles loaded at the matched shape
    for target, name, call, loaders, b_rows, b_cols in (
            ("amx", "amx-matmul", P(("call", "tile_matmul"),
                                    pl2l("mem", "amx", V("c")), V("ta"), V("tb")),
             ("tile_load", "tile_load"), C("//", V("k"), 2), C("*", 2, V("n"))),
            ("wmma", "wmma-mma", P(("call", "wmma_mma"),
                                   V("ta"), V("tb"), pl2l("mem", "wmma", V("c"))),
             ("wmma_load_a", "wmma_load_b"), V("k"), V("n"))):
        low(name, target,
            [rel(f"{target}-shape", V("m"), V("k"), V("n")),
             Bind("e", padd(V("c"), V("vrae"))),
             Bind("vrae", pvra(V("rl"), V("mul"))),
             eq(V("rl"), C("*", V("m"), V("n"))),
             Bind("mul", pmul(P(("cast",), V("tf"), V("a")),
                              P(("cast",), V("tf"), V("b")))),
             Bind("tf", ptype("f32", V("wide"))),
             rel(f"{target}-a-tile", V("a"), V("ta")),
             rel(f"{target}-b-tile", V("b"), V("tb")),
             ptile("ta", loaders[0]),
             ptile("tb", loaders[1]),
             C("and", eq(V("tarows"), V("m")), eq(V("tacols"), V("k")),
               eq(V("tbrows"), b_rows), eq(V("tbcols"), b_cols))],
            [Bind("e", pl2l(target, "mem", call))],
            fuzz=_fz_matmul(target))

    for target, zero in (("amx", "tile_zero"), ("wmma", "wmma_zero")):
        low(f"{target}-zero", target,
            [Bind("e", pl2l("mem", target, pbcast(V("z"), V("l")))),
             rel(f"{target}-shape", V("m"), V("k"), V("n")),
             eq(V("l"), C("*", V("m"), V("n"))),
             C("in", C("imm", V("z")), ZEROS)],
            [Bind("e", P(("call", zero), pimm(V("m")), pimm(V("n"))))],
            fuzz=_fz_zero(target))

    # a row-major tile index, 2-axis with its row stride ?sstr or flat with
    # the stride n, whose immediate a Let adds first
    layouts = (("2axis", pramp(pramp(V("b"), pimm(1), V("n1")), pbcast(V("sstr"), V("n1")),
                               V("n0")),
                C("and", eq(V("n0"), V("m")), eq(V("n1"), V("n"))), []),
               ("flat", pramp(V("b"), pimm(1), V("ll")), eq(V("ll"), C("*", V("m"), V("n"))),
                [Let("sstr", pimm(V("n")))]))
    for target, store in (("amx", "tile_store"), ("wmma", "wmma_store")):
        for layout, index, guard, stride in layouts:
            low(f"{store.replace('_', '-')}-{layout}", target,
                [Bind("st", P(("store",), V("buf"), V("idx"),
                              pl2l(target, "mem", V("tile")))),
                 Bind("idx", index),
                 rel(f"{target}-shape", V("m"), V("k"), V("n")),
                 guard],
                stride + [Bind("st", P(("evaluate",), P(
                    ("call", store), pvar("buf"), V("b"), V("sstr"), pimm(V("n")),
                    V("tile"))))],
                fuzz=_fz_store(target, flat=layout == "flat"))

    for target in ("amx", "wmma"):
        low(f"mem2{target}-cancel", target,
            [Bind("e", pl2l("mem", target, pl2l(target, "mem", V("x"))))],
            [Bind("e", V("x"))],
            fuzz=_fz_one_vec)
        low(f"{target}2mem-cancel", target,
            [Bind("e", pl2l(target, "mem", pl2l("mem", target, V("x"))))],
            [Bind("e", V("x"))],
            fuzz=_fz_one_vec)
        low(f"mem2{target}-of-{target}-load", target,
            [Bind("e", pl2l("mem", target, V("ld"))),
             Bind("ld", pload(V("n"), V("t"), V("i"))),
             rel("buffer-loc", V("n"), ploc(target))],
            [Bind("e", V("ld"))],
            f"a load from a {target}-resident buffer is already on {target}; "
            f"the injected movement is the identity",
            fuzz=_fz_of_load(target))

    for target, loader in (("amx", "tile_load"), ("wmma", "wmma_load_c")):
        for layout, index, guard, stride in layouts:
            low(f"{target}-acc-load-{layout}", target,
                [Bind("e", pl2l("mem", target, V("ld"))),
                 Bind("ld", pload(V("bufn"), V("t"), V("idx"))),
                 Bind("idx", index),
                 rel("buffer-loc", V("bufn"), ploc("mem")),
                 rel(f"{target}-shape", V("m"), V("k"), V("n")),
                 guard],
                stride + [Bind("e", P(("call", loader), pvar("bufn"), V("b"), V("sstr"),
                                      pimm(V("m")), pimm(V("n"))))],
                fuzz=_fz_acc_load(target, flat=layout == "flat"))

    def stage(name, target, loader, rows, cols, fuzz):
        low(name, target,
            [Bind("st", P(("store",), V("buf"), V("sidx"),
                          pl2l("mem", target, V("ld")))),
             Bind("sidx", pramp(V("sb"), pimm(1), V("ll"))),
             Bind("ld", pload(V("mn"), V("t"), pramp(V("lb"), pimm(1), V("ll")))),
             rel("buffer-loc", V("mn"), ploc("mem")),
             rel("buffer-loc", V("buf"), ploc(target)),
             rel(f"{target}-shape", V("m"), V("k"), V("n")),
             eq(V("ll"), C("*", V(rows), V(cols)))],
            [Bind("st", P(("store",), V("buf"), V("sidx"), P(
                ("call", loader), pvar("mn"), V("lb"), pimm(V(cols)),
                pimm(V(rows)), pimm(V(cols)))))],
            fuzz=fuzz)

    stage("amx-stage-flat", "amx", "tile_load", "m", "k", _fz_stage("amx"))
    stage("wmma-stage-flat-a", "wmma", "wmma_load_a", "m", "k", _fz_stage("wmma"))
    stage("wmma-stage-flat-b", "wmma", "wmma_load_b", "k", "n",
          _fz_stage("wmma", b_shape=True))


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
    unions; it finds no node, so it builds every one."""

    _parent = property(lambda self: self)  # its own parent table: every value is a root
    __getitem__ = staticmethod(lambda value: value)
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
    with a row of each query variable's value, unions with it, or the left
    when the two are equal.  A variable that no query `Bind` defines is
    its value in `match`."""
    binds = {a.var: a.pattern for a in rule.query if isinstance(a, Bind)}
    values = dict(match)

    def value(p):
        if isinstance(p, PVar):
            if p.name not in values:
                values[p.name] = value(binds[p.name])
            return values[p.name]
        return build_node(p.op, tuple(map(value, p.children)))

    (bind,) = [e for e in rule.rhs if isinstance(e, Bind)]
    lhs = value(PVar(bind.var))
    g = _IRBuilder()
    rule.action(g, tuple(value(PVar(v)) for v in rule.query.names))
    return lhs, g.unions[0][1] if g.unions else lhs


def _render(rule, structure):
    """The two sides of `rule` at `structure`, in its program for a
    statement rule."""
    lhs, rhs = _sides(rule, structure.match)
    if structure.program is None:
        return lhs, rhs
    return (ir.Program(structure.program.params, tuple(
        side if s is None else s for s in structure.program.body), structure.shapes)
        for side in (lhs, rhs))


def _run_instance(inst):
    """(ok, detail) of one instance, evaluated alone."""
    hit = interp.compare_sides(inst.lhs, inst.rhs, inst.buffers, inst.shapes)
    return (True, None) if hit is None else (False, hit[1])


def _check_group(structure, lhs, rhs, members):
    """The first of `members`, (index, seed) pairs in draw order of the
    draws of `structure`, with sides `lhs` and `rhs`, that differs or
    raises: (index, (instance, detail)) or (index, exception); None if none
    does.  A member's buffers are `interp.random_inputs` of the structure
    at its seed.  Several members run as one batch, a row per member; a
    batch that raises is replayed member by member.  A member's instance
    holds its single-seed fill, which equals its row."""
    def member(seed):
        return FuzzInstance(lhs, rhs, interp.random_inputs(structure, seed), structure.shapes)

    if len(members) > 1:
        try:
            hit = interp.compare_sides(
                lhs, rhs, interp.random_inputs(structure, [s for _, s in members]),
                structure.shapes)
        except Exception:  # the replay finds the trial that raises
            pass
        else:
            if hit is None:
                return None
            index, seed = members[hit[0]]
            return index, (member(seed), hit[1])
    for index, seed in members:
        one = member(seed)
        try:
            ok, detail = _run_instance(one)
        except Exception as e:  # raised unless an earlier instance fails
            return index, e
        if not ok:
            return index, (one, detail)
    return None


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
    action run on an `_IRBuilder`.  The group's buffers are
    `interp.random_inputs` of the structure over its draws' seeds, the
    fill `run_difftest` uses, a row per draw.  Each group of several
    draws is then evaluated once by `interp.compare_sides` along that
    leading trial axis; a batch that raises is replayed draw by draw,
    each on its own fill.  The report, or the exception raised, is that of
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
        first = _check_group(structure, lhs, rhs, members) or first
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
# A generator draws its ints and returns the structure they make (`_shared`).
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
    n = rng.randrange(1, 5)
    return _shared(_loads, ("t", ir.VecType("f32", n)), ("x", (n, "bf16")),
                   ("l", rng.randrange(1, 4)))


def _fz_ramp_elim(rng):
    w = rng.randrange(1, 5)
    return _shared(_loads, ("x", (w, "i32")), ("s", (w, "i32")), ("w", w))


def _fz_ramp_split(rng):
    return _shared(_loads, ("x", ir.Imm("i32", rng.randrange(0, 16))),
                   ("l", 2 * rng.randrange(1, 5)))


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
    return _shared(_loads, ("a", ir.Imm("i32", rng.choice(FOLD_OPERANDS))),
                   ("b", ir.Imm("i32", rng.choice(FOLD_OPERANDS))))


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
        """The arguments of a tile load from `buf`, as `ptile(var, ...)` binds them."""
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
        return _shared(_loads, ("z", ir.Imm("f32", 0.0)), ("l", m * n), ("m", m),
                       ("k", 2), ("n", n), shapes=(ir.ShapeDecl(target, m, 2, n),))
    return gen


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
    (good,) = build_default_ruleset().named(name).rhs
    base, stride, steps = good.pattern.children
    one = pbcast(pimm(1), pint(C("//", V("w"), V("n"))))
    return _mutated(name, (Bind("e", pramp(base, padd(stride, one), steps)),),
                    "result stride off by one").named(name)


def _mutated(name, rhs, why):
    """The default ruleset with rule `name`'s right-hand side replaced."""
    rs = build_default_ruleset()
    rule = rs.named(name)
    rs.rules[rs.rules.index(rule)] = replace(
        rule, rhs=rhs, doc=f"{rule.doc} [CORRUPTED: {why}]".lstrip())
    return rs


def corrupted_ruleset():
    """Default ruleset with the VNNI tile load using a row stride two short:
    selection still succeeds and stays in bounds, but difftests must catch
    the divergent lanes.  The stride is read as an int, so the VNNI index
    must have a constant row stride of at least 3, as every corpus program
    has; another stride raises in the action or loads at a stride below 1."""
    return _mutated("amx-b-vnni",
                    (Let("bad", pimm(C("-", V("vstride"), 2))),
                     *_amx_b_vnni_rhs(V("bad"))),
                    "tile row stride off by two")


def runaway_ruleset():
    """Default ruleset with broadcast-flatten adding the copy counts where
    it should multiply them: every round derives broadcasts of new lane
    counts, and their types, without end, so selection must stop on its
    budget."""
    return _mutated("broadcast-flatten",
                    (Bind("e", pbcast(V("x"), pint(C("+", V("l1"), V("l2"))))),),
                    "copy counts added")


# ---------------------------------------------------------------------------
# diagnostic queries


def matmul_statement_query(m=16, k=32, n=16, kind="bf16"):
    """The canonical three-level MatMul statement pattern at one shape, used
    for the phase-ordering ablation: zero matches before axiom saturation,
    exactly one after."""
    lanes = m * k * n
    return (
        Bind("e", padd(V("c"), pvra(pint(m * n), V("mul")))),
        Bind("mul", pmul(P(("cast",), ptype("f32", pint(lanes)), V("a")),
                         P(("cast",), ptype("f32", pint(lanes)), V("b")))),
        Bind("a", pload(V("an"), ptype(kind, pint(lanes)), V("idxa"))),
        Bind("idxa", pramp(pbcast(pramp(V("abase"), pimm(1), pint(k)), pint(n)),
                           pbcast(V("astride"), pint(k * n)), pint(m))),
        Bind("b", pload(V("bn"), ptype(kind, pint(lanes)), V("idxb"))),
        Bind("idxb", pbcast(pramp(pramp(V("bbase"), V("bstride"), pint(k)),
                                  pbcast(pimm(1), pint(k)), pint(n)), pint(m))),
    )


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
