"""The concrete rewrite-rule catalog, the IR <-> e-graph encoding, and a
rule-soundness fuzzer.

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
brute-force oracles and both backends share one catalog.

Lane conventions, all derived from canonical index construction: the
standard-layout B re-load reads N contiguous lanes per logical row, the
interleave width is the logical row length N, and a reduction at shape
(M, K, N) yields M*N result lanes.  In the VNNI access pattern the three
inner ramps are, outermost first, j (stride 2), k/2 (stride = the VNNI
row stride), and k%2 (stride 1).
"""

from __future__ import annotations

import functools
import math
import random
from dataclasses import dataclass, field, replace

import numpy as np

from . import interp, ir
from .egraph import Bind, EGraph, Guard, PNode, PVar, RuleDef, rel

EXPR_OPS = {"imm", "var", "load", "cast", "bop", "ramp", "bcast", "vra",
            "call", "l2l", "exprvar", "shuffle"}

# ---------------------------------------------------------------------------
# IR <-> term encoding


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


def mk_imm(g, v):
    return g.add(("imm", "i32", int(v)))


def mk_name(g, s):
    return g.add(("name", s))


def encode_expr(g, e):
    if isinstance(e, ir.Imm):
        if e.kind == "i32":
            return g.add(("imm", "i32", e.value))
        # 0.0 == -0.0, so the sign bit keeps the two zeros in separate classes
        return g.add(("imm", e.kind, e.value, math.copysign(1.0, e.value) < 0))
    if isinstance(e, ir.Var):
        return g.add(("var", e.name))
    if isinstance(e, ir.Load):
        return g.add(("load",), (mk_name(g, e.buffer),
                                 mk_type(g, e.vtype.kind, e.vtype.lanes),
                                 encode_expr(g, e.index)))
    if isinstance(e, ir.Cast):
        return g.add(("cast",), (mk_type(g, e.vtype.kind, e.vtype.lanes),
                                 encode_expr(g, e.operand)))
    if isinstance(e, ir.Bop):
        return g.add(("bop", e.op), (encode_expr(g, e.lhs), encode_expr(g, e.rhs)))
    if isinstance(e, ir.Ramp):
        return g.add(("ramp",), (encode_expr(g, e.base), encode_expr(g, e.stride),
                                 g.add_int(e.steps)))
    if isinstance(e, ir.Broadcast):
        return g.add(("bcast",), (encode_expr(g, e.operand), g.add_int(e.copies)))
    if isinstance(e, ir.VectorReduceAdd):
        return g.add(("vra",), (g.add_int(e.result_lanes), encode_expr(g, e.operand)))
    if isinstance(e, ir.Call):
        return g.add(("call", e.name), tuple(encode_expr(g, a) for a in e.args))
    if isinstance(e, ir.LocToLoc):
        return g.add(("l2l", e.src, e.dst), (encode_expr(g, e.operand),))
    if isinstance(e, ir.ExprVar):
        return g.add(("exprvar",), (encode_expr(g, e.operand),))
    if isinstance(e, ir.Shuffle):
        return g.add(("shuffle", tuple(e.indices)), (encode_expr(g, e.source),))
    raise TypeError(f"cannot encode {e!r}")


def encode_stmt(g, s):
    if isinstance(s, ir.Store):
        return g.add(("store",), (mk_name(g, s.buffer), encode_expr(g, s.index),
                                  encode_expr(g, s.value)))
    if isinstance(s, ir.Evaluate):
        return g.add(("evaluate",), (encode_expr(g, s.value),))
    raise TypeError(f"cannot encode statement {s!r}")


def seed_facts(g, buffers, shapes):
    """Buffer locations and accelerator shapes as relations; `shapes` is
    `ir.program_shapes` of the statement's program."""
    for name, (kind, length, loc) in sorted(buffers.items()):
        g.assert_fact("buffer-loc", mk_name(g, name), g.add(("loc", loc)))
    for sh in shapes:
        g.assert_fact(f"{sh.target}-shape", g.add_int(sh.m), g.add_int(sh.k),
                      g.add_int(sh.n))


def decode_term(term):
    op, kids = term
    h = op[0]
    if h == "imm":
        return ir.Imm(op[1], op[2])
    if h == "var":
        return ir.Var(op[1])
    if h == "load":
        return ir.Load(_term_name(kids[0]), _term_type(kids[1]), decode_term(kids[2]))
    if h == "cast":
        return ir.Cast(_term_type(kids[0]), decode_term(kids[1]))
    if h == "bop":
        return ir.Bop(op[1], decode_term(kids[0]), decode_term(kids[1]))
    if h == "ramp":
        return ir.Ramp(decode_term(kids[0]), decode_term(kids[1]), _term_int(kids[2]))
    if h == "bcast":
        return ir.Broadcast(decode_term(kids[0]), _term_int(kids[1]))
    if h == "vra":
        return ir.VectorReduceAdd(_term_int(kids[0]), decode_term(kids[1]))
    if h == "call":
        return ir.Call(op[1], tuple(decode_term(a) for a in kids))
    if h == "l2l":
        return ir.LocToLoc(op[1], op[2], decode_term(kids[0]))
    if h == "exprvar":
        return ir.ExprVar(decode_term(kids[0]))
    if h == "shuffle":
        return ir.Shuffle(decode_term(kids[0]), op[1])
    if h == "store":
        return ir.Store(_term_name(kids[0]), decode_term(kids[1]), decode_term(kids[2]))
    if h == "evaluate":
        return ir.Evaluate(decode_term(kids[0]))
    raise TypeError(f"cannot decode {op!r}")


def _term_name(term):
    assert term[0][0] == "name", term[0]
    return term[0][1]


def _term_int(term):
    assert term[0][0] == "int", term[0]
    return term[0][1]


def _term_type(term):
    op, kids = term
    assert op[0] == "type", op
    return ir.VecType(op[1], _term_int(kids[0]))


# ---------------------------------------------------------------------------
# pattern and action helpers

V = PVar


def P(op, *children):
    return PNode(op, tuple(children))


def pload(name, vtype, idx):
    return P(("load",), name, vtype, idx)


def ptype(kind, lanes):
    return P(("type", kind), lanes)


def pimm(v):
    return P(("imm", "i32", int(v)))


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


def class_name(g, cid):
    for op, _ in g.small_nodes(cid):
        if op[0] == "name":
            return op[1]
    return None


def class_type(g, cid):
    for op, ch in g.small_nodes(cid):
        if op[0] == "type":
            lanes = g.class_int(ch[0])
            if lanes is not None:
                return op[1], lanes
    return None


def _tile_dims(g, cid):
    """(rows, cols) of an accelerator tile built from its sizes in `cid`."""
    for op, ch in g.class_nodes(cid):
        sig = ir.INTRINSICS.get(op[1]) if op[0] == "call" else None
        if sig and sig.loc != "mem" and sig.lanes == "sizes":
            r, c = (g.class_int(ch[i]) for i in sig.size_args)
            if r is not None and c is not None:
                return r, c
    return None


def _ints(g, env, *names):
    out = []
    for n in names:
        v = g.class_int(env[n])
        if v is None:
            return None
        out.append(v)
    return out


def guard_ints(doc, fn, *names):
    def check(g, env):
        vals = _ints(g, env, *names)
        return vals is not None and fn(*vals)
    return Guard(check, doc)


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
        out = []
        for r in self.rules:
            if r.target and target != "all" and r.target != target:
                continue
            out.append(r)
        return out

    def catalog_text(self):
        lines = []
        for r in self.rules:
            kind = "semantic" if r.semantic else "relational"
            tgt = f" target={r.target}" if r.target else ""
            lines.append(f"[{r.category}{tgt}] {r.name} ({kind})")
            lines.append(f"    {r.doc}")
            for atom in r.query:
                lines.append(f"    where {_render_atom(atom)}")
        return "\n".join(lines) + "\n"


def _render_pattern(p):
    if isinstance(p, PVar):
        return f"?{p.name}"
    head = "/".join(str(x) for x in p.op if not isinstance(x, tuple))
    if not p.children:
        return head if p.op[0] != "int" else str(p.op[1])
    return f"({head} {' '.join(_render_pattern(c) for c in p.children)})"


def _render_atom(atom):
    if isinstance(atom, Bind):
        return f"?{atom.var} = {_render_pattern(atom.pattern)}"
    if isinstance(atom, Guard):
        return f"guard: {atom.doc or 'primitive'}"
    return (f"({atom.name} "
            f"{' '.join(_render_pattern(t) for t in atom.terms)})")


def build_default_ruleset():
    """A new RuleSet of the default rules.  The rules are built once per
    process; each set holds fresh copies of them that share their laid-out
    queries, so changing one set's rules leaves the next set as built."""
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
    def axiom(name, query, action, doc, fuzz=None):
        return rs.add(RuleDef(name=name, category="axiomatic", query=tuple(query),
                              action=action, doc=doc, fuzz=fuzz))

    def bcast_flatten(g, env):
        g.union(env["e"], g.add(("bcast",), (
            env["x"], g.add_int(g.class_int(env["l1"]) * g.class_int(env["l2"])))))

    axiom("broadcast-flatten",
          [Bind("e", pbcast(pbcast(V("x"), V("l1")), V("l2")))],
          bcast_flatten,
          "(Broadcast (Broadcast x l1) l2) == (Broadcast x (* l1 l2))",
          fuzz=_fz_bcast_flatten)

    axiom("broadcast-elim",
          [Bind("e", pbcast(V("x"), P(("int", 1))))],
          lambda g, env: g.union(env["e"], env["x"]),
          "(Broadcast x 1) == x",
          fuzz=_fz_bcast_elim)

    axiom("degenerate-broadcast",
          [rel("is-expr", V("x"))],
          lambda g, env: g.union(env["x"], g.add(("bcast",), (env["x"], g.add_int(1)))),
          "x == (Broadcast x 1); recovers the general pattern from scalars",
          fuzz=_fz_bcast_elim)

    def bcast_of_load(g, env):
        kind, lanes = class_type(g, env["t"])
        newt = mk_type(g, kind, lanes * g.class_int(env["l"]))
        idx = g.add(("bcast",), (env["i"], env["l"]))
        g.union(env["e"], g.add(("load",), (env["n"], newt, idx)))

    axiom("broadcast-of-load",
          [Bind("e", pbcast(pload(V("n"), V("t"), V("i")), V("l")))],
          bcast_of_load,
          "push a broadcast inside a load, multiplying the load type's lanes",
          fuzz=_fz_bcast_of_load)

    def bcast_of_cast(g, env):
        kind, lanes = class_type(g, env["t"])
        newt = mk_type(g, kind, lanes * g.class_int(env["l"]))
        inner = g.add(("bcast",), (env["x"], env["l"]))
        g.union(env["e"], g.add(("cast",), (newt, inner)))

    axiom("broadcast-of-cast",
          [Bind("e", pbcast(P(("cast",), V("t"), V("x")), V("l")))],
          bcast_of_cast,
          "push a broadcast inside a cast, multiplying the cast type's lanes",
          fuzz=_fz_bcast_of_cast)

    axiom("ramp-elim",
          [Bind("e", pramp(V("x"), V("s"), P(("int", 1)))), has_i32("e")],
          lambda g, env: g.union(env["e"], env["x"]),
          "(Ramp x s 1) == x on integer indices",
          fuzz=_fz_ramp_elim)

    def ramp_split(g, env):
        l = g.class_int(env["l"])
        two = g.add_int(2)
        inner = g.add(("ramp",), (env["x"], mk_imm(g, 1), two))
        stride = g.add(("bcast",), (mk_imm(g, 2), two))
        g.union(env["e"], g.add(("ramp",), (inner, stride, g.add_int(l // 2))))

    axiom("degenerate-ramp-split",
          [Bind("e", pramp(V("x"), pimm(1), V("l"))),
           guard_ints("2 | l and l >= 2", lambda l: l >= 2 and l % 2 == 0, "l"),
           has_i32("x", P(("int", 1)))],
          ramp_split,
          "(Ramp x 1 l) == (Ramp (Ramp x 1 2) (Broadcast 2 2) (/ l 2)); "
          "recovers nesting from dense ramps",
          fuzz=_fz_ramp_split)

    def ramp_plus_bcast(g, env):
        n, m = g.class_int(env["n"]), g.class_int(env["m"])
        inner = env["x"] if m == n else g.add(("bcast",), (env["x"], g.add_int(m // n)))
        base = g.add(("bop", "+"), (env["b"], inner))
        g.union(env["e"], g.add(("ramp",), (base, env["s"], env["n"])))

    for suffix, pat in (("", padd(pramp(V("b"), V("s"), V("n")), pbcast(V("x"), V("m")))),
                        ("-r", padd(pbcast(V("x"), V("m")), pramp(V("b"), V("s"), V("n"))))):
        axiom(f"ramp-plus-broadcast{suffix}",
              [Bind("e", pat),
               guard_ints("n | m", lambda n, m: m % n == 0, "n", "m"),
               has_i32("e")],
              ramp_plus_bcast,
              "(Add (Ramp b s n) (Broadcast x m)) == "
              "(Ramp (Add b (Broadcast x (/ m n))) s n) when n | m",
              fuzz=_fz_ramp_plus_bcast)

    def ramp_unnest(g, env):
        ramp = g.add(("ramp",), (env["x"], env["s"], env["l"]))
        bc = g.add(("bcast",), (env["a"], env["l"]))
        g.union(env["e"], g.add(("bop", "+"), (ramp, bc)))

    axiom("ramp-unnest",
          [Bind("e", pramp(padd(V("x"), V("a")), V("s"), V("l"))), has_i32("e")],
          ramp_unnest,
          "(Ramp (Add x a) s l) == (Add (Ramp x s l) (Broadcast a l)); "
          "the un-nesting partner of ramp-plus-broadcast",
          fuzz=_fz_ramp_unnest)

    def sibling_rb(g, env):
        l1, l2 = g.class_int(env["l1"]), g.class_int(env["l2"])
        nested = g.add(("bcast",), (
            g.add(("bcast",), (env["a"], g.add_int(l2 // l1))), env["l1"]))
        ramp = g.add(("ramp",), (env["x"], env["s"], env["l1"]))
        g.union(env["e"], g.add(("bop", "+"), (nested, ramp)))

    for suffix, pat in (("", padd(pramp(V("x"), V("s"), V("l1")), pbcast(V("a"), V("l2")))),
                        ("-r", padd(pbcast(V("a"), V("l2")), pramp(V("x"), V("s"), V("l1"))))):
        axiom(f"sibling-nest-ramp-broadcast{suffix}",
              [Bind("e", pat),
               guard_ints("l1 | l2 and l2 > l1",
                          lambda l1, l2: l2 > l1 and l2 % l1 == 0, "l1", "l2"),
               has_i32("e")],
              sibling_rb,
              "re-nest a broadcast using its sibling ramp's count as the hint",
              fuzz=_fz_sibling_rb)

    def sibling_bb(g, env):
        l1, l2 = g.class_int(env["l1"]), g.class_int(env["l2"])
        nested = g.add(("bcast",), (
            g.add(("bcast",), (env["a"], g.add_int(l2 // l1))), env["l1"]))
        other = g.add(("bcast",), (env["b"], env["l1"]))
        g.union(env["e"], g.add(("bop", "+"), (nested, other)))

    for suffix, pat in (("", padd(pbcast(V("a"), V("l2")), pbcast(V("b"), V("l1")))),
                        ("-r", padd(pbcast(V("b"), V("l1")), pbcast(V("a"), V("l2"))))):
        axiom(f"sibling-nest-broadcast-pair{suffix}",
              [Bind("e", pat),
               guard_ints("l1 | l2 and l2 > l1",
                          lambda l1, l2: l2 > l1 and l2 % l1 == 0, "l1", "l2"),
               has_i32("e")],
              sibling_bb,
              "re-nest the wider of two sibling broadcasts to equal counts",
              fuzz=_fz_sibling_bb)

    def add_of_bcasts(g, env):
        inner = g.add(("bop", "+"), (env["a"], env["b"]))
        g.union(env["e"], g.add(("bcast",), (inner, env["l"])))

    axiom("add-of-broadcasts",
          [Bind("e", padd(pbcast(V("a"), V("l")), pbcast(V("b"), V("l")))),
           has_i32("e")],
          add_of_bcasts,
          "(Add (Broadcast a l) (Broadcast b l)) == (Broadcast (Add a b) l)",
          fuzz=_fz_add_of_bcasts)

    for opname, sym in (("add", "+"), ("mul", "*")):
        axiom(f"{opname}-commute",
              [Bind("e", P(("bop", sym), V("x"), V("y")))],
              (lambda sym: lambda g, env: g.union(
                  env["e"], g.add(("bop", sym), (env["y"], env["x"]))))(sym),
              f"commutativity of {sym}",
              fuzz=_fz_commute(sym))

        fold = _i32_fold(sym)
        axiom(f"int-{opname}-fold",
              [Bind("e", P(("bop", sym), V("a"), V("b"))),
               Guard(lambda g, env, fold=fold: fold(g, env) is not None,
                     "both operands and the result are i32 immediates")],
              lambda g, env, fold=fold: g.union(env["e"], mk_imm(g, fold(g, env))),
              f"constant-fold scalar i32 {sym}",
              fuzz=_fz_int_fold(sym))


def _i32_fold(sym):
    """fn(g, env) -> `a sym b` over the i32 immediates in classes a and b,
    or None when either is not one or the result leaves the i32 range."""
    def fold(g, env):
        vals = []
        for v in ("a", "b"):
            im = g.class_imm(env[v])
            if im is None or im[0] != "i32" or not ir.I32_MIN <= int(im[1]) <= ir.I32_MAX:
                return None
            vals.append(int(im[1]))
        out = vals[0] + vals[1] if sym == "+" else vals[0] * vals[1]
        return out if ir.I32_MIN <= out <= ir.I32_MAX else None
    return fold


# -- supporting --------------------------------------------------------------


def _supporting_rules(rs):
    def supp(name, query, action, doc):
        return rs.add(RuleDef(name=name, category="supporting", query=tuple(query),
                              action=action, doc=doc))

    supp("type-of-load",
         [Bind("e", pload(V("n"), V("t"), V("i")))],
         lambda g, env: g.assert_fact("has-type", env["e"], env["t"]),
         "a load has its annotated result type")

    supp("type-of-cast",
         [Bind("e", P(("cast",), V("t"), V("x")))],
         lambda g, env: g.assert_fact("has-type", env["e"], env["t"]),
         "a cast has its target type")

    for sym in ("+", "-", "*", "/", "%"):
        supp(f"type-of-{ {'+':'add','-':'sub','*':'mul','/':'div','%':'mod'}[sym] }",
             [Bind("e", P(("bop", sym), V("a"), V("b"))),
              rel("has-type", V("a"), V("t"))],
             lambda g, env: g.assert_fact("has-type", env["e"], env["t"]),
             f"{sym} has its left operand's type")

    def times_n_type(g, env):
        kind, lanes = class_type(g, env["t"])
        g.assert_fact("has-type", env["e"],
                      mk_type(g, kind, lanes * g.class_int(env["n"])))

    supp("type-of-ramp",
         [Bind("e", pramp(V("b"), V("s"), V("n"))), rel("has-type", V("b"), V("t"))],
         times_n_type,
         "a ramp multiplies its base's lanes by the step count")

    supp("type-of-broadcast",
         [Bind("e", pbcast(V("x"), V("n"))), rel("has-type", V("x"), V("t"))],
         times_n_type,
         "a broadcast multiplies its operand's lanes by the copy count")

    def vra_type(g, env):
        kind, _ = class_type(g, env["t"])
        g.assert_fact("has-type", env["e"], mk_type(g, kind, g.class_int(env["rl"])))

    supp("type-of-vector-reduce-add",
         [Bind("e", pvra(V("rl"), V("x"))), rel("has-type", V("x"), V("t"))],
         vra_type,
         "a reduction has its stated result lanes at the operand's kind")

    for src, dst in (("mem", "amx"), ("amx", "mem"), ("mem", "wmma"), ("wmma", "mem")):
        supp(f"type-of-{src}2{dst}",
             [Bind("e", pl2l(src, dst, V("x"))), rel("has-type", V("x"), V("t"))],
             lambda g, env: g.assert_fact("has-type", env["e"], env["t"]),
             "data movement preserves the value type")

    supp("type-of-exprvar",
         [Bind("e", P(("exprvar",), V("x"))), rel("has-type", V("x"), V("t"))],
         lambda g, env: g.assert_fact("has-type", env["e"], env["t"]),
         "a materialized temporary has its operand's type")


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
        pramp(pramp(pramp(V("bbase"), pimm(1), P(("int", 2))),
                    pbcast(V("vstride"), P(("int", 2))), V("kh")),
              pbcast(pimm(2), V("k")), V("n")), V("m")))


def _application_rules(rs):
    def app(name, target, query, action, doc):
        return rs.add(RuleDef(name=name, category="application", query=tuple(query),
                              action=action, doc=doc, target=target))

    def a_tile_action(loader, fact):
        def act(g, env):
            m, k = g.class_int(env["m"]), g.class_int(env["k"])
            tile = g.add(("call", loader), (
                g.add(("var", class_name(g, env["an"]))), env["abase"],
                env["astride"], mk_imm(g, m), mk_imm(g, k)))
            g.assert_fact(fact, env["origa"], tile)
        return act

    for target, kind, loader in (("amx", "bf16", "tile_load"),
                                 ("wmma", "f16", "wmma_load_a")):
        app(f"{target}-a-standard", target,
            [rel(f"{target}-shape", V("m"), V("k"), V("n")),
             Bind("origa", pload(V("an"), ptype(kind, V("lanes")), V("idx"))),
             _pat_a_index("idx"),
             guard_ints("lanes = m*k*n and kn = k*n",
                        lambda lanes, m, k, n, kn: lanes == m * k * n and kn == k * n,
                        "lanes", "m", "k", "n", "kn")],
            a_tile_action(loader, f"{target}-a-tile"),
            f"A matrix in row-major three-level nesting loads directly as the "
            f"{target.upper()} A tile")

    def amx_b_standard_act(g, env):
        m, k, n = (g.class_int(env[v]) for v in ("m", "k", "n"))
        bname = class_name(g, env["bn"])
        one = mk_imm(g, 1)
        rowmajor = g.add(("ramp",), (
            g.add(("ramp",), (env["bbase"], one, g.add_int(n))),
            g.add(("bcast",), (env["bstride"], g.add_int(n))), g.add_int(k)))
        load_b = g.add(("load",), (mk_name(g, bname), mk_type(g, "bf16", k * n),
                                   rowmajor))
        shuf = g.add(("exprvar",), (g.add(("call", "KWayInterleave"), (
            mk_imm(g, 2), mk_imm(g, n), load_b)),))
        tile = g.add(("call", "tile_load"), (
            shuf, mk_imm(g, 0), mk_imm(g, 2 * n), mk_imm(g, k // 2), mk_imm(g, 2 * n)))
        g.assert_fact("amx-b-tile", env["origb"], tile)

    app("amx-b-standard", "amx",
        [rel("amx-shape", V("m"), V("k"), V("n")),
         Bind("origb", pload(V("bn"), ptype("bf16", V("lanes")), V("idx"))),
         _pat_b_standard_index("idx"),
         rel("buffer-loc", V("bn"), ploc("mem")),
         guard_ints("lanes = m*k*n, k even",
                    lambda lanes, m, k, n: lanes == m * k * n and k % 2 == 0,
                    "lanes", "m", "k", "n")],
        amx_b_standard_act,
        "B in the standard layout: interleave row pairs (VNNI pack) into a "
        "temporary, then tile-load it; only for memory-resident sources")

    def amx_b_vnni_act(g, env):
        k, n = g.class_int(env["k"]), g.class_int(env["n"])
        tile = g.add(("call", "tile_load"), (
            g.add(("var", class_name(g, env["bn"]))), env["bbase"], env["vstride"],
            mk_imm(g, k // 2), mk_imm(g, 2 * n)))
        g.assert_fact("amx-b-tile", env["origb"], tile)

    app("amx-b-vnni", "amx",
        [rel("amx-shape", V("m"), V("k"), V("n")),
         Bind("origb", pload(V("bn"), ptype("bf16", V("lanes")), V("idx"))),
         _pat_b_vnni_index("idx"),
         guard_ints("lanes = m*k*n, kh = k/2",
                    lambda lanes, m, k, n, kh: lanes == m * k * n and kh * 2 == k,
                    "lanes", "m", "k", "n", "kh")],
        amx_b_vnni_act,
        "B already in the VNNI layout tile-loads verbatim")

    def wmma_b_act(g, env):
        k, n = g.class_int(env["k"]), g.class_int(env["n"])
        tile = g.add(("call", "wmma_load_b"), (
            g.add(("var", class_name(g, env["bn"]))), env["bbase"], env["bstride"],
            mk_imm(g, k), mk_imm(g, n)))
        g.assert_fact("wmma-b-tile", env["origb"], tile)

    app("wmma-b-standard", "wmma",
        [rel("wmma-shape", V("m"), V("k"), V("n")),
         Bind("origb", pload(V("bn"), ptype("f16", V("lanes")), V("idx"))),
         _pat_b_standard_index("idx"),
         guard_ints("lanes = m*k*n",
                    lambda lanes, m, k, n: lanes == m * k * n,
                    "lanes", "m", "k", "n")],
        wmma_b_act,
        "row-major f16 B loads directly as the WMMA b fragment")

    def conv_act(g, env):
        m, k, n = (g.class_int(env[v]) for v in ("m", "k", "n"))
        s, l = g.class_int(env["s"]), g.class_int(env["l"])
        af = g.add(("call", "wmma_load_a"), (
            g.add(("var", class_name(g, env["iname"]))), env["basei"],
            mk_imm(g, s * n), mk_imm(g, m), mk_imm(g, k)))
        if s == 1:
            mat = g.add(("call", "ConvolutionShuffle"), (
                g.add(("var", class_name(g, env["kname"]))), env["basek"],
                mk_imm(g, k), mk_imm(g, n)))
        else:
            mat = g.add(("call", "PolyphaseShuffle"), (
                g.add(("var", class_name(g, env["kname"]))), env["basek"],
                mk_imm(g, l), mk_imm(g, n), mk_imm(g, 1), mk_imm(g, s)))
        bf = g.add(("call", "wmma_load_b"), (
            g.add(("exprvar",), (mat,)), mk_imm(g, 0), mk_imm(g, n),
            mk_imm(g, k), mk_imm(g, n)))
        g.assert_fact("wmma-a-tile", env["loadi"], af)
        g.assert_fact("wmma-b-tile", env["loadk"], bf)

    conv_mul = [Bind("mul", pmul(P(("cast",), V("tf"), V("loadi")),
                                 P(("cast",), V("tf"), V("loadk")))),
                Bind("loadi", pload(V("iname"), ptype("f16", V("li")), V("idxi"))),
                Bind("loadk", pload(V("kname"), ptype("f16", V("li")), V("idxk")))]

    app("conv-toeplitz", "wmma",
        [rel("wmma-shape", V("m"), V("k"), V("n"))] + conv_mul + [
         Bind("idxi", pramp(pramp(V("basei"), pimm(1), V("l")),
                            pbcast(V("s"), V("l")), V("x"))),
         Bind("idxk", pbcast(pramp(V("basek"), pimm(1), V("l")), V("x"))),
         guard_ints("windows x = m*n; window k = s*n + l; lanes agree",
                    lambda m, k, n, l, s, x, li:
                    s >= 1 and l >= 1 and x == m * n and k == s * n + l
                    and li == x * l,
                    "m", "k", "n", "l", "s", "x", "li")],
        conv_act,
        "an overlapped-window signal load times a broadcast kernel load is a "
        "MatMul against the (strided) Toeplitz matrix of the kernel")

    def upsample_act(g, env):
        m, k, n = (g.class_int(env[v]) for v in ("m", "k", "n"))
        p, l = g.class_int(env["p"]), g.class_int(env["l"])
        af = g.add(("call", "wmma_load_a"), (
            g.add(("var", class_name(g, env["iname"]))), env["basei"],
            mk_imm(g, n // p), mk_imm(g, m), mk_imm(g, k)))
        mat = g.add(("call", "PolyphaseShuffle"), (
            g.add(("var", class_name(g, env["kname"]))), env["basek"],
            mk_imm(g, l), mk_imm(g, n), mk_imm(g, p), mk_imm(g, 1)))
        bf = g.add(("call", "wmma_load_b"), (
            g.add(("exprvar",), (mat,)), mk_imm(g, 0), mk_imm(g, n),
            mk_imm(g, k), mk_imm(g, n)))
        g.assert_fact("wmma-a-tile", env["loadi"], af)
        g.assert_fact("wmma-b-tile", env["loadk"], bf)

    app("upsample-polyphase", "wmma",
        [rel("wmma-shape", V("m"), V("k"), V("n"))] + conv_mul + [
         Bind("idxi", pramp(pramp(pbcast(pramp(V("basei"), pimm(1), V("l")), V("p")),
                                  pbcast(pimm(1), V("pl")), V("kp")),
                            pbcast(V("ws"), V("kpl")), V("m"))),
         Bind("idxk", pbcast(pramp(pramp(V("basek"), V("sk"), V("l")),
                                   pbcast(pimm(1), V("l")), V("p")), V("mk"))),
         guard_ints("phase-interleaved window (p phases of l taps, k/p inputs)",
                    lambda m, k, n, l, p, pl, kp, kpl, ws, sk, mk, li:
                    p >= 2 and l >= 1 and pl == p * l and kp * p == n
                    and kpl == kp * pl and ws == kp and sk == p
                    and mk == m * kp and k == kp + l and li == m * n * l,
                    "m", "k", "n", "l", "p", "pl", "kp", "kpl", "ws", "sk",
                    "mk", "li")],
        upsample_act,
        "a phase-interleaved window load times a phase-decomposed kernel load "
        "is a MatMul against the polyphase Toeplitz matrix")


# -- lowering ----------------------------------------------------------------


def _pat_rowmajor_2axis(idx_var):
    return Bind(idx_var, pramp(pramp(V("b"), pimm(1), V("n1")),
                               pbcast(V("sstr"), V("n1")), V("n0")))


def _pat_flat(idx_var, count_var="ll"):
    return Bind(idx_var, pramp(V("b"), pimm(1), V(count_var)))


def _is_zero_imm(g, env):
    im = g.class_imm(env["z"])
    return (im is not None and im[0] != "i32" and float(im[1]) == 0.0
            and math.copysign(1.0, float(im[1])) > 0)


def _lowering_rules(rs):
    def low(name, target, query, action, doc, fuzz=None):
        return rs.add(RuleDef(name=name, category="lowering", query=tuple(query),
                              action=action, doc=doc, target=target, fuzz=fuzz))

    # MatMul lowering: e = C + vra(Mul(cast A, cast B)) with tile facts.
    def matmul_act(target):
        def act(g, env):
            if target == "amx":
                c_t = g.add(("l2l", "mem", "amx"), (env["c"],))
                newe = g.add(("call", "tile_matmul"), (c_t, env["ta"], env["tb"]))
                g.union(env["e"], g.add(("l2l", "amx", "mem"), (newe,)))
            else:
                c_t = g.add(("l2l", "mem", "wmma"), (env["c"],))
                newe = g.add(("call", "wmma_mma"), (env["ta"], env["tb"], c_t))
                g.union(env["e"], g.add(("l2l", "wmma", "mem"), (newe,)))
        return act

    def matmul_dims_guard(target):
        def chk(g, env):
            dims = _ints(g, env, "m", "k", "n")
            if dims is None:
                return False
            m, k, n = dims
            ta, tb = _tile_dims(g, env["ta"]), _tile_dims(g, env["tb"])
            want_b = (k // 2, 2 * n) if target == "amx" else (k, n)
            return ta == (m, k) and tb == want_b
        return Guard(chk, "tile operands carry the matched shape")

    for target, name in (("amx", "amx-matmul"), ("wmma", "wmma-mma")):
        low(name, target,
            [rel(f"{target}-shape", V("m"), V("k"), V("n")),
             Bind("e", padd(V("c"), V("vrae"))),
             Bind("vrae", pvra(V("rl"), V("mul"))),
             Bind("mul", pmul(P(("cast",), V("tf"), V("a")),
                              P(("cast",), V("tf"), V("b")))),
             Bind("tf", ptype("f32", V("wide"))),
             rel(f"{target}-a-tile", V("a"), V("ta")),
             rel(f"{target}-b-tile", V("b"), V("tb")),
             guard_ints("rl = m*n", lambda rl, m, n: rl == m * n, "rl", "m", "n"),
             matmul_dims_guard(target)],
            matmul_act(target),
            f"C + sum(A*B) with {target} tile facts becomes the {target} "
            f"MatMul intrinsic, moved back to memory",
            fuzz=_fz_matmul(target))

    for target, zero in (("amx", "tile_zero"), ("wmma", "wmma_zero")):
        def zero_act(zero=zero):
            def act(g, env):
                m, n = g.class_int(env["m"]), g.class_int(env["n"])
                g.union(env["e"], g.add(("call", zero), (mk_imm(g, m), mk_imm(g, n))))
            return act

        low(f"{target}-zero", target,
            [Bind("e", pl2l("mem", target, pbcast(V("z"), V("l")))),
             rel(f"{target}-shape", V("m"), V("k"), V("n")),
             guard_ints("l = m*n", lambda l, m, n: l == m * n, "l", "m", "n"),
             Guard(_is_zero_imm, "broadcast of +0.0")],
            zero_act(),
            f"moving a broadcast zero to {target} is the {zero} intrinsic",
            fuzz=_fz_zero(target))

    for target, store in (("amx", "tile_store"), ("wmma", "wmma_store")):
        def store_act(store=store):
            def act(g, env):
                m, n = g.class_int(env["m"]), g.class_int(env["n"])
                sstr = env.get("sstr") or mk_imm(g, n)
                call = g.add(("call", store), (
                    g.add(("var", class_name(g, env["buf"]))), env["b"], sstr,
                    mk_imm(g, n), env["tile"]))
                g.union(env["st"], g.add(("evaluate",), (call,)))
            return act

        low(f"{store.replace('_', '-')}-2axis", target,
            [Bind("st", P(("store",), V("buf"), V("idx"),
                          pl2l(target, "mem", V("tile")))),
             _pat_rowmajor_2axis("idx"),
             rel(f"{target}-shape", V("m"), V("k"), V("n")),
             guard_ints("rows = m, cols = n",
                        lambda n0, n1, m, n: n0 == m and n1 == n,
                        "n0", "n1", "m", "n")],
            store_act(),
            f"a row-major store of a {target} tile is the {store} intrinsic",
            fuzz=_fz_store(target, flat=False))

        low(f"{store.replace('_', '-')}-flat", target,
            [Bind("st", P(("store",), V("buf"), V("idx"),
                          pl2l(target, "mem", V("tile")))),
             _pat_flat("idx"),
             rel(f"{target}-shape", V("m"), V("k"), V("n")),
             guard_ints("lanes = m*n", lambda ll, m, n: ll == m * n,
                        "ll", "m", "n")],
            store_act(),
            f"a dense store of a {target} tile is the {store} intrinsic",
            fuzz=_fz_store(target, flat=True))

    for target in ("amx", "wmma"):
        low(f"mem2{target}-cancel", target,
            [Bind("e", pl2l("mem", target, pl2l(target, "mem", V("x"))))],
            lambda g, env: g.union(env["e"], env["x"]),
            f"mem->{target} of {target}->mem cancels",
            fuzz=_fz_cancel(target, outer_first=True))
        low(f"{target}2mem-cancel", target,
            [Bind("e", pl2l(target, "mem", pl2l("mem", target, V("x"))))],
            lambda g, env: g.union(env["e"], env["x"]),
            f"{target}->mem of mem->{target} cancels",
            fuzz=_fz_cancel(target, outer_first=False))
        low(f"mem2{target}-of-{target}-load", target,
            [Bind("e", pl2l("mem", target, V("ld"))),
             Bind("ld", pload(V("n"), V("t"), V("i"))),
             rel("buffer-loc", V("n"), ploc(target))],
            lambda g, env: g.union(env["e"], env["ld"]),
            f"a load from a {target}-resident buffer is already on {target}; "
            f"the injected movement is the identity",
            fuzz=_fz_of_load(target))

    for target, loader in (("amx", "tile_load"), ("wmma", "wmma_load_c")):
        def acc_act(loader=loader):
            def act(g, env):
                m, n = g.class_int(env["m"]), g.class_int(env["n"])
                sstr = env.get("sstr") or mk_imm(g, n)
                g.union(env["e"], g.add(("call", loader), (
                    g.add(("var", class_name(g, env["bufn"]))), env["b"], sstr,
                    mk_imm(g, m), mk_imm(g, n))))
            return act

        low(f"{target}-acc-load-2axis", target,
            [Bind("e", pl2l("mem", target, V("ld"))),
             Bind("ld", pload(V("bufn"), V("t"), V("idx"))),
             _pat_rowmajor_2axis("idx"),
             rel("buffer-loc", V("bufn"), ploc("mem")),
             rel(f"{target}-shape", V("m"), V("k"), V("n")),
             guard_ints("rows = m, cols = n",
                        lambda n0, n1, m, n: n0 == m and n1 == n,
                        "n0", "n1", "m", "n")],
            acc_act(),
            f"moving a row-major accumulator read to {target} is a "
            f"{loader} at the C shape",
            fuzz=_fz_acc_load(target, flat=False))

        low(f"{target}-acc-load-flat", target,
            [Bind("e", pl2l("mem", target, V("ld"))),
             Bind("ld", pload(V("bufn"), V("t"), V("idx"))),
             _pat_flat("idx"),
             rel("buffer-loc", V("bufn"), ploc("mem")),
             rel(f"{target}-shape", V("m"), V("k"), V("n")),
             guard_ints("lanes = m*n", lambda ll, m, n: ll == m * n,
                        "ll", "m", "n")],
            acc_act(),
            f"moving a dense accumulator read to {target} is a {loader}",
            fuzz=_fz_acc_load(target, flat=True))

    def stage_act(loader, rows_var, cols_var):
        def act(g, env):
            r, c = g.class_int(env[rows_var]), g.class_int(env[cols_var])
            call = g.add(("call", loader), (
                g.add(("var", class_name(g, env["mn"]))), env["lb"],
                mk_imm(g, c), mk_imm(g, r), mk_imm(g, c)))
            g.union(env["st"], g.add(("store",), (env["buf"], env["sidx"], call)))
        return act

    def stage_query(target, lanes_pred, doc):
        return [Bind("st", P(("store",), V("buf"), V("sidx"),
                             pl2l("mem", target, V("ld")))),
                Bind("sidx", pramp(V("sb"), pimm(1), V("ll"))),
                Bind("ld", pload(V("mn"), V("t"),
                                 pramp(V("lb"), pimm(1), V("ll")))),
                rel("buffer-loc", V("mn"), ploc("mem")),
                rel("buffer-loc", V("buf"), ploc(target)),
                rel(f"{target}-shape", V("m"), V("k"), V("n")),
                guard_ints(doc, lanes_pred, "ll", "m", "k", "n")]

    low("amx-stage-flat", "amx",
        stage_query("amx", lambda ll, m, k, n: ll == m * k, "lanes = m*k"),
        stage_act("tile_load", "m", "k"),
        "a dense copy staged into an AMX-resident buffer is a tile_load",
        fuzz=_fz_stage("amx", "tile_load"))
    low("wmma-stage-flat-a", "wmma",
        stage_query("wmma", lambda ll, m, k, n: ll == m * k, "lanes = m*k"),
        stage_act("wmma_load_a", "m", "k"),
        "a dense copy staged into a WMMA-resident buffer at the A shape",
        fuzz=_fz_stage("wmma", "wmma_load_a"))
    low("wmma-stage-flat-b", "wmma",
        stage_query("wmma", lambda ll, m, k, n: ll == k * n, "lanes = k*n"),
        stage_act("wmma_load_b", "k", "n"),
        "a dense copy staged into a WMMA-resident buffer at the B shape",
        fuzz=_fz_stage("wmma", "wmma_load_b", b_shape=True))


# ---------------------------------------------------------------------------
# soundness fuzzing


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


def _uniform_lanes(rng, lanes):
    """`lanes` draws of `rng.uniform(-1, 1)` as float32.  `uniform(a, b)`
    is `a + (b - a) * random()`, so one `random()` per lane, scaled in
    float64, gives the same draws and bits."""
    return (np.array([rng.random() for _ in range(lanes)]) * 2.0 - 1.0).astype(
        np.float32)


def _fresh_vec(rng, buffers, lanes, kind, prefix="buf"):
    name = f"{prefix}{len(buffers)}"
    if kind == "i32":
        data = np.array([rng.randrange(0, 16) for _ in range(lanes)], np.int64)
    else:
        data = interp.round_to_kind(_uniform_lanes(rng, lanes), kind)
    buffers[name] = interp.Buffer(kind, "mem", data)
    return ir.Load(name, ir.VecType(kind, lanes),
                   ir.Ramp(ir.Imm("i32", 0), ir.Imm("i32", 1), lanes))


def _rand_kind(rng):
    return rng.choice(("i32", "f32", "bf16"))


def _run_instance(inst):
    """(ok, detail) of one instance, evaluated alone."""
    hit = interp.compare_sides(inst.lhs, inst.rhs, inst.buffers, inst.shapes)
    return (True, None) if hit is None else (False, hit[1])


def _structure(inst):
    """Instances of equal structure evaluate as one batch: equal sides and
    shapes, and buffers of equal names, kinds, locations, dtypes and shapes."""
    return (inst.lhs, inst.rhs, inst.shapes, tuple(
        (name, b.kind, b.location, b.data.dtype, b.data.shape)
        for name, b in inst.buffers.items()))


def _check_group(inst, members):
    """The first of `members`, (index, buffers) pairs in draw order that
    share the structure of `inst`, that differs or raises: (index,
    (instance, detail)) or (index, exception); None if none does.  Several
    members run as one batch; a batch that raises is replayed member by
    member."""
    def member(buffers):
        if buffers is inst.buffers:
            return inst
        return FuzzInstance(inst.lhs, inst.rhs, buffers, inst.shapes)

    if len(members) > 1:
        stacked = {name: interp.Buffer(b.kind, b.location, np.stack(
            [bufs[name].data for _, bufs in members])) for name, b in inst.buffers.items()}
        try:
            hit = interp.compare_sides(inst.lhs, inst.rhs, stacked, inst.shapes)
        except Exception:  # the replay finds the trial that raises
            pass
        else:
            if hit is None:
                return None
            index, buffers = members[hit[0]]
            return index, (member(buffers), hit[1])
    for index, buffers in members:
        one = member(buffers)
        try:
            ok, detail = _run_instance(one)
        except Exception as e:  # raised unless an earlier instance fails
            return index, e
        if not ok:
            return index, (one, detail)
    return None


def check_rule_soundness(rule, trials=500, seed=0):
    """Interpreter-equivalence fuzzing for one semantic rule: `trials`
    random guard-satisfying instances, both sides evaluated and compared
    bit for bit.

    The instances are drawn first, then grouped by `_structure`, and each
    group of several is evaluated once by `interp.compare_sides`, its
    buffers stacked along a leading trial axis.  A batch that raises is
    replayed trial by trial.  The report, or the exception raised, is that
    of checking the instances one by one in draw order: the first trial
    that differs or raises decides, and `checked` counts the instances up
    to it.  When the generator raises, the instances drawn before it are
    checked first."""
    report = SoundnessReport(rule=rule.name, trials=trials)
    if not rule.semantic:
        return report
    assert rule.fuzz is not None, f"semantic rule {rule.name} lacks a generator"
    rng = random.Random(f"soundness:{seed}:{rule.name}")
    # structure -> (its first instance, [(index, buffers), ...]), where an
    # instance's index counts the instances drawn before it
    groups = {}
    drawn, error = 0, None
    for _ in range(trials):
        try:
            inst = rule.fuzz(rng)
        except Exception as e:  # raised unless an earlier instance fails
            error = e
            break
        if inst is not None:
            groups.setdefault(_structure(inst), (inst, []))[1].append((drawn, inst.buffers))
            drawn += 1
    first = None
    for inst, members in groups.values():  # in the order of their first instances
        if first is not None:
            members = [m for m in members if m[0] < first[0]]
            if not members:
                break
        first = _check_group(inst, members) or first
    if first is not None:
        index, outcome = first
        if isinstance(outcome, Exception):
            raise outcome
        report.checked = index + 1
        report.counterexample = outcome
        return report
    if error is not None:
        raise error
    report.checked = drawn
    report.guard_unsatisfiable = drawn == 0
    return report


# -- per-rule instance generators --------------------------------------------


def _fz_bcast_flatten(rng):
    buffers = {}
    v = _fresh_vec(rng, buffers, rng.randrange(1, 5), _rand_kind(rng))
    l1, l2 = rng.randrange(1, 5), rng.randrange(1, 5)
    return FuzzInstance(ir.Broadcast(ir.Broadcast(v, l1), l2),
                        ir.Broadcast(v, l1 * l2), buffers)


def _fz_bcast_elim(rng):
    buffers = {}
    v = _fresh_vec(rng, buffers, rng.randrange(1, 6), _rand_kind(rng))
    return FuzzInstance(ir.Broadcast(v, 1), v, buffers)


def _fz_bcast_of_load(rng):
    buffers = {}
    kind = _rand_kind(rng)
    length = rng.randrange(4, 12)
    data = _fresh_vec(rng, buffers, length, kind)
    n = rng.randrange(1, 5)
    idx_name = f"buf{len(buffers)}"
    buffers[idx_name] = interp.Buffer("i32", "mem", np.array(
        [rng.randrange(0, length) for _ in range(n)], np.int64))
    idx = ir.Load(idx_name, ir.VecType("i32", n),
                  ir.Ramp(ir.Imm("i32", 0), ir.Imm("i32", 1), n))
    l = rng.randrange(1, 4)
    lhs = ir.Broadcast(ir.Load(data.buffer, ir.VecType(kind, n), idx), l)
    rhs = ir.Load(data.buffer, ir.VecType(kind, n * l), ir.Broadcast(idx, l))
    return FuzzInstance(lhs, rhs, buffers)


def _fz_bcast_of_cast(rng):
    buffers = {}
    n = rng.randrange(1, 5)
    v = _fresh_vec(rng, buffers, n, "bf16")
    l = rng.randrange(1, 4)
    lhs = ir.Broadcast(ir.Cast(ir.VecType("f32", n), v), l)
    rhs = ir.Cast(ir.VecType("f32", n * l), ir.Broadcast(v, l))
    return FuzzInstance(lhs, rhs, buffers)


def _fz_ramp_elim(rng):
    buffers = {}
    lanes = rng.randrange(1, 5)
    x = _fresh_vec(rng, buffers, lanes, "i32")
    s = _fresh_vec(rng, buffers, lanes, "i32")
    return FuzzInstance(ir.Ramp(x, s, 1), x, buffers)


def _fz_ramp_split(rng):
    x = ir.Imm("i32", rng.randrange(0, 16))
    l = 2 * rng.randrange(1, 5)
    one, two = ir.Imm("i32", 1), ir.Imm("i32", 2)
    lhs = ir.Ramp(x, one, l)
    rhs = ir.Ramp(ir.Ramp(x, one, 2), ir.Broadcast(two, 2), l // 2)
    return FuzzInstance(lhs, rhs)


def _ramp_plus_bcast_parts(rng, buffers):
    n = rng.randrange(1, 5)
    f = rng.randrange(1, 4)
    m = n * f
    lx = rng.randrange(1, 4)
    lb = f * lx
    b = _fresh_vec(rng, buffers, lb, "i32")
    s = _fresh_vec(rng, buffers, lb, "i32")
    x = _fresh_vec(rng, buffers, lx, "i32")
    inner = x if f == 1 else ir.Broadcast(x, f)
    rhs = ir.Ramp(ir.Bop("+", b, inner), s, n)
    return ir.Ramp(b, s, n), ir.Broadcast(x, m), rhs


def _fz_ramp_plus_bcast(rng):
    buffers = {}
    ramp, bc, rhs = _ramp_plus_bcast_parts(rng, buffers)
    lhs = ir.Bop("+", ramp, bc) if rng.random() < 0.5 else ir.Bop("+", bc, ramp)
    return FuzzInstance(lhs, rhs, buffers)


def _fz_ramp_unnest(rng):
    buffers = {}
    lanes = rng.randrange(1, 4)
    x = _fresh_vec(rng, buffers, lanes, "i32")
    a = _fresh_vec(rng, buffers, lanes, "i32")
    s = _fresh_vec(rng, buffers, lanes, "i32")
    l = rng.randrange(1, 5)
    lhs = ir.Ramp(ir.Bop("+", x, a), s, l)
    rhs = ir.Bop("+", ir.Ramp(x, s, l), ir.Broadcast(a, l))
    return FuzzInstance(lhs, rhs, buffers)


def _fz_sibling_rb(rng):
    buffers = {}
    l1 = rng.randrange(1, 4)
    q = rng.randrange(2, 4)
    l2 = l1 * q
    la = rng.randrange(1, 3)
    x = _fresh_vec(rng, buffers, q * la, "i32")
    s = _fresh_vec(rng, buffers, q * la, "i32")
    a = _fresh_vec(rng, buffers, la, "i32")
    ramp = ir.Ramp(x, s, l1)
    bc = ir.Broadcast(a, l2)
    lhs = ir.Bop("+", ramp, bc) if rng.random() < 0.5 else ir.Bop("+", bc, ramp)
    rhs = ir.Bop("+", ir.Broadcast(ir.Broadcast(a, q), l1), ramp)
    return FuzzInstance(lhs, rhs, buffers)


def _fz_sibling_bb(rng):
    buffers = {}
    l1 = rng.randrange(1, 4)
    q = rng.randrange(2, 4)
    l2 = l1 * q
    la = rng.randrange(1, 3)
    a = _fresh_vec(rng, buffers, la, "i32")
    b = _fresh_vec(rng, buffers, q * la, "i32")
    lhs_a, lhs_b = ir.Broadcast(a, l2), ir.Broadcast(b, l1)
    lhs = ir.Bop("+", lhs_a, lhs_b) if rng.random() < 0.5 else ir.Bop("+", lhs_b, lhs_a)
    rhs = ir.Bop("+", ir.Broadcast(ir.Broadcast(a, q), l1), ir.Broadcast(b, l1))
    return FuzzInstance(lhs, rhs, buffers)


def _fz_add_of_bcasts(rng):
    buffers = {}
    lanes = rng.randrange(1, 4)
    a = _fresh_vec(rng, buffers, lanes, "i32")
    b = _fresh_vec(rng, buffers, lanes, "i32")
    l = rng.randrange(1, 5)
    lhs = ir.Bop("+", ir.Broadcast(a, l), ir.Broadcast(b, l))
    rhs = ir.Broadcast(ir.Bop("+", a, b), l)
    return FuzzInstance(lhs, rhs, buffers)


def _fz_commute(sym):
    def gen(rng):
        buffers = {}
        kind = rng.choice(("i32", "f32"))
        lanes = rng.randrange(1, 6)
        a = _fresh_vec(rng, buffers, lanes, kind)
        b = _fresh_vec(rng, buffers, lanes, kind)
        return FuzzInstance(ir.Bop(sym, a, b), ir.Bop(sym, b, a), buffers)
    return gen


def _fz_int_fold(sym):
    def gen(rng):
        a, b = rng.randrange(0, 100), rng.randrange(0, 100)
        out = a + b if sym == "+" else a * b
        return FuzzInstance(ir.Bop(sym, ir.Imm("i32", a), ir.Imm("i32", b)),
                            ir.Imm("i32", out))
    return gen


def _matmul_source(rng, buffers, target, m, k, n):
    kind = "bf16" if target == "amx" else "f16"
    astride = k + rng.choice((0, 0, 2))
    a_buf = _fresh_vec(rng, buffers, m * astride, kind, "A").buffer
    c_buf = _fresh_vec(rng, buffers, m * n, "f32", "C").buffer
    zero = ir.Imm("i32", 0)
    a_load = ir.Load(a_buf, ir.VecType(kind, m * k * n),
                     ir.canonical_index([(m, astride), (n, 0), (k, 1)], zero))
    c_load = ir.Load(c_buf, ir.VecType("f32", m * n),
                     ir.Ramp(zero, ir.Imm("i32", 1), m * n))
    if target == "amx":
        b_buf = _fresh_vec(rng, buffers, k * n, kind, "B").buffer
        b_load = ir.Load(b_buf, ir.VecType(kind, m * k * n),
                         ir.canonical_index([(m, 0), (n, 2), (k // 2, 2 * n), (2, 1)],
                                            zero))
        tb = ir.Call("tile_load", (ir.Var(b_buf), zero, ir.Imm("i32", 2 * n),
                                   ir.Imm("i32", k // 2), ir.Imm("i32", 2 * n)))
        ta = ir.Call("tile_load", (ir.Var(a_buf), zero, ir.Imm("i32", astride),
                                   ir.Imm("i32", m), ir.Imm("i32", k)))
    else:
        b_buf = _fresh_vec(rng, buffers, k * n, kind, "B").buffer
        b_load = ir.Load(b_buf, ir.VecType(kind, m * k * n),
                         ir.canonical_index([(m, 0), (n, 1), (k, n)], zero))
        tb = ir.Call("wmma_load_b", (ir.Var(b_buf), zero, ir.Imm("i32", n),
                                     ir.Imm("i32", k), ir.Imm("i32", n)))
        ta = ir.Call("wmma_load_a", (ir.Var(a_buf), zero, ir.Imm("i32", astride),
                                     ir.Imm("i32", m), ir.Imm("i32", k)))
    f32wide = ir.VecType("f32", m * k * n)
    lhs = ir.Bop("+", c_load, ir.VectorReduceAdd(
        m * n, ir.Bop("*", ir.Cast(f32wide, a_load), ir.Cast(f32wide, b_load))))
    return lhs, c_load, ta, tb


def _fz_matmul(target):
    def gen(rng):
        buffers = {}
        m, n = rng.choice((1, 2, 4)), rng.choice((1, 2, 4))
        k = 2 * rng.randrange(1, 4)
        lhs, c_load, ta, tb = _matmul_source(rng, buffers, target, m, k, n)
        if target == "amx":
            rhs = ir.LocToLoc("amx", "mem", ir.Call(
                "tile_matmul", (ir.LocToLoc("mem", "amx", c_load), ta, tb)))
        else:
            rhs = ir.LocToLoc("wmma", "mem", ir.Call(
                "wmma_mma", (ta, tb, ir.LocToLoc("mem", "wmma", c_load))))
        return FuzzInstance(lhs, rhs, buffers,
                            shapes=(ir.ShapeDecl(target, m, k, n),))
    return gen


def _fz_zero(target):
    zero = "tile_zero" if target == "amx" else "wmma_zero"

    def gen(rng):
        m, n = rng.choice((1, 2, 4)), rng.choice((1, 2, 4))
        lhs = ir.LocToLoc("mem", target, ir.Broadcast(ir.Imm("f32", 0.0), m * n))
        rhs = ir.Call(zero, (ir.Imm("i32", m), ir.Imm("i32", n)))
        return FuzzInstance(lhs, rhs, shapes=(ir.ShapeDecl(target, m, 2, n),))
    return gen


def _fz_cancel(target, outer_first):
    def gen(rng):
        buffers = {}
        v = _fresh_vec(rng, buffers, rng.randrange(1, 6), _rand_kind(rng))
        if outer_first:
            lhs = ir.LocToLoc("mem", target, ir.LocToLoc(target, "mem", v))
        else:
            lhs = ir.LocToLoc(target, "mem", ir.LocToLoc("mem", target, v))
        return FuzzInstance(lhs, v, buffers)
    return gen


def _fz_of_load(target):
    def gen(rng):
        buffers = {}
        v = _fresh_vec(rng, buffers, rng.randrange(1, 6), "f32")
        buffers[v.buffer] = interp.Buffer("f32", target, buffers[v.buffer].data)
        return FuzzInstance(ir.LocToLoc("mem", target, v), v, buffers)
    return gen


def _fz_acc_load(target, flat):
    loader = "tile_load" if target == "amx" else "wmma_load_c"

    def gen(rng):
        buffers = {}
        m, n = rng.choice((1, 2, 4)), rng.choice((2, 4))
        sstr = n if flat else n + rng.choice((0, 1))
        src = _fresh_vec(rng, buffers, m * sstr + 2, "f32", "acc").buffer
        zero, one = ir.Imm("i32", 0), ir.Imm("i32", 1)
        if flat:
            idx = ir.Ramp(zero, one, m * n)
        else:
            idx = ir.Ramp(ir.Ramp(zero, one, n),
                          ir.Broadcast(ir.Imm("i32", sstr), n), m)
        lhs = ir.LocToLoc("mem", target, ir.Load(src, ir.VecType("f32", m * n), idx))
        rhs = ir.Call(loader, (ir.Var(src), zero, ir.Imm("i32", sstr),
                               ir.Imm("i32", m), ir.Imm("i32", n)))
        return FuzzInstance(lhs, rhs, buffers, shapes=(ir.ShapeDecl(target, m, 2, n),))
    return gen


def _store_programs(rng, target, flat):
    m, n = rng.choice((2, 4)), rng.choice((2, 4))
    sstr = n if flat else n + rng.choice((0, 2))
    mn = m * n
    out_len = (m - 1) * sstr + n
    params = (ir.Param("src", "f32", mn), ir.Param("out", "f32", out_len))
    zero, one = ir.Imm("i32", 0), ir.Imm("i32", 1)
    flat_idx = ir.Ramp(zero, one, mn)
    fill = (ir.Allocate("acc", "f32", mn, target),
            ir.Store("acc", flat_idx,
                     ir.Load("src", ir.VecType("f32", mn), flat_idx)))
    acc_load = ir.Load("acc", ir.VecType("f32", mn), flat_idx)
    if flat:
        out_idx = ir.Ramp(zero, one, mn)
    else:
        out_idx = ir.Ramp(ir.Ramp(zero, one, n),
                          ir.Broadcast(ir.Imm("i32", sstr), n), m)
    store_name = "tile_store" if target == "amx" else "wmma_store"
    lhs = ir.Program(params, fill + (
        ir.Store("out", out_idx, ir.LocToLoc(target, "mem", acc_load)),))
    rhs = ir.Program(params, fill + (
        ir.Evaluate(ir.Call(store_name, (
            ir.Var("out"), zero, ir.Imm("i32", sstr), ir.Imm("i32", n),
            acc_load))),))
    return lhs, rhs, params


def _fz_store(target, flat):
    def gen(rng):
        lhs, rhs, params = _store_programs(rng, target, flat)
        buffers = {prm.name: interp.Buffer("f32", "mem", _uniform_lanes(rng, prm.length))
                   for prm in params}
        return FuzzInstance(lhs, rhs, buffers)
    return gen


def _fz_stage(target, loader, b_shape=False):
    kind = "bf16" if target == "amx" else "f16"

    def gen(rng):
        m, n = rng.choice((2, 4)), rng.choice((2, 4))
        k = 2 * rng.randrange(1, 3)
        rows, cols = ((k, n) if b_shape else (m, k))
        length = rows * cols
        params = (ir.Param("src", kind, length), ir.Param("out", kind, length))
        zero, one = ir.Imm("i32", 0), ir.Imm("i32", 1)
        idx = ir.Ramp(zero, one, length)
        load_src = ir.Load("src", ir.VecType(kind, length), idx)
        read_back = ir.Store("out", idx,
                             ir.Load("stage", ir.VecType(kind, length), idx))
        shapes = (ir.ShapeDecl(target, m, k, n),)
        lhs = ir.Program(params, (
            ir.Allocate("stage", kind, length, target),
            ir.Store("stage", idx, ir.LocToLoc("mem", target, load_src)),
            read_back), shapes)
        rhs = ir.Program(params, (
            ir.Allocate("stage", kind, length, target),
            ir.Store("stage", idx, ir.Call(loader, (
                ir.Var("src"), zero, ir.Imm("i32", cols), ir.Imm("i32", rows),
                ir.Imm("i32", cols)))),
            read_back), shapes)
        buffers = {prm.name: interp.Buffer(kind, "mem", interp.round_to_kind(
            _uniform_lanes(rng, prm.length), kind)) for prm in params}
        return FuzzInstance(lhs, rhs, buffers)
    return gen


# ---------------------------------------------------------------------------
# mutation-test fixtures


def corrupted_ramp_rule():
    """ramp-plus-broadcast with the result stride off by one: the soundness
    fuzzer must find a counterexample."""
    def bad_gen(rng):
        buffers = {}
        ramp, bc, good = _ramp_plus_bcast_parts(rng, buffers)
        if good.steps < 2:
            return None  # the stride never applies; force observable steps
        ls = ir.lanes_of(good.stride)
        one = (ir.Imm("i32", 1) if ls == 1
               else ir.Broadcast(ir.Imm("i32", 1), ls))
        bad = ir.Ramp(good.base, ir.Bop("+", good.stride, one), good.steps)
        return FuzzInstance(ir.Bop("+", ramp, bc), bad, buffers)

    return RuleDef(name="corrupted-ramp-plus-broadcast", category="axiomatic",
                   query=(), action=lambda g, env: None,
                   doc="deliberately wrong: result stride off by one",
                   fuzz=bad_gen)


def corrupted_ruleset():
    """Default ruleset with the VNNI tile load using a row stride two short:
    selection still succeeds and stays in bounds, but difftests must catch
    the divergent lanes."""
    rs = build_default_ruleset()
    rule = rs.named("amx-b-vnni")

    def bad_act(g, env):
        k, n = g.class_int(env["k"]), g.class_int(env["n"])
        sval = g.class_int(env["vstride"])
        stride = env["vstride"] if sval is None else mk_imm(g, max(1, sval - 2))
        tile = g.add(("call", "tile_load"), (
            g.add(("var", class_name(g, env["bn"]))), env["bbase"], stride,
            mk_imm(g, k // 2), mk_imm(g, 2 * n)))
        g.assert_fact("amx-b-tile", env["origb"], tile)

    rule.action = bad_act
    rule.doc += " [CORRUPTED: tile row stride off by two]"
    return rs


def runaway_ruleset():
    """Default ruleset with broadcast-flatten adding the copy counts where
    it should multiply them: every round derives broadcasts of new lane
    counts, and their types, without end, so selection must stop on its
    budget."""
    rs = build_default_ruleset()
    rule = rs.named("broadcast-flatten")

    def bad_act(g, env):
        g.union(env["e"], g.add(("bcast",), (
            env["x"], g.add_int(g.class_int(env["l1"]) + g.class_int(env["l2"])))))

    rule.action = bad_act
    rule.doc += " [CORRUPTED: copy counts added]"
    return rs


# ---------------------------------------------------------------------------
# diagnostic queries


def matmul_statement_query(m=16, k=32, n=16, kind="bf16"):
    """The canonical three-level MatMul statement pattern at one shape, used
    for the phase-ordering ablation: zero matches before axiom saturation,
    exactly one after."""
    lanes = m * k * n

    def ilit(v):
        return P(("int", v))

    return (
        Bind("e", padd(V("c"), pvra(ilit(m * n), V("mul")))),
        Bind("mul", pmul(P(("cast",), ptype("f32", ilit(lanes)), V("a")),
                         P(("cast",), ptype("f32", ilit(lanes)), V("b")))),
        Bind("a", pload(V("an"), ptype(kind, ilit(lanes)), V("idxa"))),
        Bind("idxa", pramp(pbcast(pramp(V("abase"), pimm(1), ilit(k)), ilit(n)),
                           pbcast(V("astride"), ilit(k * n)), ilit(m))),
        Bind("b", pload(V("bn"), ptype(kind, ilit(lanes)), V("idxb"))),
        Bind("idxb", pbcast(pramp(pramp(V("bbase"), V("bstride"), ilit(k)),
                                  pbcast(pimm(1), ilit(k)), ilit(n)), ilit(m))),
    )


def check_type_consistency(g):
    """None, or a (class, type1, type2) witness of two disagreeing has-type
    facts inside one class."""
    seen = {}
    for e, t in g.facts.get("has-type", ()):
        ty = class_type(g, t)
        if ty is None:
            continue
        root = g.find(e)
        if root in seen and seen[root] != ty:
            return root, seen[root], ty
        seen[root] = ty
    return None
