import math
import random
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from tensorsel import interp, ir, layout, rules
from tensorsel.ir import (Allocate, Bop, Broadcast, Call, Cast, Evaluate,
                          ExprVar, For, Imm, Load, LocToLoc, Param, Program,
                          Ramp, Shuffle, Store, Var, VecType,
                          VectorReduceAdd)

import ir_terms
from testkit import TermTrees, corpus_names, corpus_program


def i32(v):
    return Imm("i32", v)


class TestLanes:
    def test_ramp_base_case(self):
        assert ir.lanes_of(Ramp(i32(0), i32(1), 4)) == 4

    def test_nested_transpose_ramp(self):
        # the 4x8 transpose access: 4*8 lanes
        e = Ramp(Ramp(i32(0), i32(8), 4), Broadcast(i32(1), 4), 8)
        assert ir.lanes_of(e) == 32

    def test_reduce_result_lanes(self):
        # 3-tap convolution of a signal of size 8: 24 lanes reduce to 8
        op = Ramp(i32(0), i32(1), 24)
        e = VectorReduceAdd(8, op)
        assert ir.lanes_of(e) == 8

    def test_scalar_leaves(self):
        assert ir.lanes_of(i32(7)) == 1
        assert ir.lanes_of(Var("x")) == 1

    def test_mismatch_reports_path(self):
        bad = Ramp(Ramp(i32(0), i32(1), 2), i32(1), 4)  # stride lanes != base
        with pytest.raises(ir.LaneMismatch) as exc:
            ir.lanes_of(bad)
        assert "e" in str(exc.value)

    def test_reduce_divisibility(self):
        with pytest.raises(ir.LaneMismatch):
            ir.lanes_of(VectorReduceAdd(5, Ramp(i32(0), i32(1), 8)))

    def test_shuffle_lanes(self):
        e = Shuffle(Ramp(i32(0), i32(1), 4), (0, -1, 3, 3, 1))
        assert ir.lanes_of(e) == 5
        with pytest.raises(ir.LaneMismatch):
            ir.lanes_of(Shuffle(Ramp(i32(0), i32(1), 4), (4,)))


class TestTypes:
    def test_cast_fixes_kind(self):
        e = Cast(VecType("f32", 4),
                 Load("a", VecType("bf16", 4), Ramp(i32(0), i32(1), 4)))
        assert ir.type_of(e) == VecType("f32", 4)

    def test_wide_mul(self):
        lanes = 8192
        idx = Ramp(i32(0), i32(1), lanes)
        a = Cast(VecType("f32", lanes), Load("a", VecType("bf16", lanes), idx))
        b = Cast(VecType("f32", lanes), Load("b", VecType("bf16", lanes), idx))
        assert ir.type_of(Bop("*", a, b)) == VecType("f32", lanes)

    def test_mixed_kind_bop(self):
        a = Imm("f32", 1.0)
        b = Imm("bf16", 1.0)
        with pytest.raises(ir.KindMismatch):
            ir.type_of(Bop("+", Broadcast(a, 4), Broadcast(b, 4)))

    def test_unknown_buffer(self):
        e = Load("Q", VecType("f32", 1), Ramp(i32(0), i32(1), 1))
        with pytest.raises(ir.UnknownBuffer):
            ir.type_of(e, buffers={})

    def test_signed_zero_immediates_differ(self):
        assert Imm("f32", 0.0) != Imm("f32", -0.0)
        assert Bop("+", i32(1), Imm("f32", -0.0)) != Bop("+", i32(1), Imm("f32", 0.0))
        assert {Imm("f32", -0.0): 1}.get(Imm("f32", 0.0)) is None
        for a, b in ((Imm("f32", -0.0), Imm("f32", -0.0)), (Imm("f32", 1.5), Imm("f32", 1.5)),
                     (Imm("i32", 0), Imm("i32", 0)), (Imm("f32", 0), Imm("f32", 0.0))):
            assert a == b and hash(a) == hash(b)
        assert Imm("f32", 1.0) != Imm("bf16", 1.0)
        nan = float("nan")
        assert Imm("f32", nan) == Imm("f32", nan)  # one value object, as a tuple compares


def _flat_load(buf, kind, n):
    return Load(buf, VecType(kind, n), Ramp(i32(0), i32(1), n))


class TestTraversal:
    EXPRS = (
        i32(7),
        Var("x"),
        _flat_load("a", "f32", 4),
        Cast(VecType("f32", 4), _flat_load("b", "bf16", 4)),
        Bop("+", Var("x"), i32(1)),
        Ramp(Var("x"), i32(2), 4),
        Broadcast(i32(3), 2),
        VectorReduceAdd(2, _flat_load("a", "f32", 4)),
        Call("KWayInterleave", (i32(2), i32(2), _flat_load("a", "f32", 4))),
        LocToLoc("amx", "mem", _flat_load("t", "f32", 4)),
        ExprVar(Broadcast(Imm("f16", 0.5), 4)),
        Shuffle(_flat_load("a", "f32", 4), (3, -1, 0)),
    )

    def test_every_expr_class_has_an_instance(self):
        assert {type(e) for e in self.EXPRS} == set(ir.Expr.__subclasses__())

    STMTS = (
        Store("t", Ramp(i32(0), i32(1), 4), _flat_load("a", "f32", 4)),
        Evaluate(Var("x")),
        Allocate("t", "f32", 4, "mem"),
        For("i", 0, 2, (Evaluate(Var("i")),)),
    )

    @pytest.mark.parametrize("e", EXPRS + STMTS, ids=lambda e: type(e).__name__)
    def test_map_expr_identity_visits_the_children(self, e):
        seen = []
        out = ir.map_expr(e, lambda c: seen.append(c) or c)
        assert out == e
        assert tuple(seen) == ir.children(e)
        if not seen:  # a node without children comes back as it is
            assert out is e

    BODY = (
        Allocate("t", "f32", 4, "mem"),
        For("i", 0, 2, (
            Store("t", Ramp(i32(0), i32(1), 4), _flat_load("a", "f32", 4)),
            For("j", 0, 3, (Evaluate(Var("j")),)),
            Store("t", Ramp(i32(0), i32(1), 4), _flat_load("t", "f32", 4)))),
        Evaluate(Var("x")),
    )

    def test_map_stmts_paths_are_walk_stmts_paths(self):
        seen = []

        def record(path, s):
            seen.append(path)
            return (s,)

        assert ir.map_stmts(self.BODY, record) == self.BODY
        assert sorted(seen) == sorted(path for path, _ in ir.walk_stmts(self.BODY))

    def test_map_stmts_splices_and_passes_rebuilt_loops(self):
        loops = []

        def f(path, s):
            if isinstance(s, For):
                loops.append((path, s.body))
            if isinstance(s, Evaluate):
                return ()
            return (s, s) if isinstance(s, Allocate) else (s,)

        out = ir.map_stmts(self.BODY, f)
        assert [type(s) for s in out] == [Allocate, Allocate, For]
        assert loops[0] == ("body[1].body[1]", ())
        assert loops[1][0] == "body[1]" and loops[1][1][1] == For("j", 0, 3, ())

    def test_children_of_statements(self):
        store = self.BODY[1].body[0]
        assert ir.children(store) == (store.index, store.value)
        assert ir.children(Evaluate(Var("x"))) == (Var("x"),)
        assert ir.children(self.BODY[0]) == ir.children(self.BODY[1]) == ()


def _flat_load(buf, kind, n):
    return Load(buf, VecType(kind, n), Ramp(i32(0), i32(1), n))


# One well-formed call of each intrinsic over BUFFERS; matmuls at 2x2x2.
BUFFERS = {"K": ("bf16", 64, "mem"), "C": ("f32", 64, "mem")}
CALLS = {
    "tile_zero": (i32(2), i32(4)),
    "tile_load": (Var("K"), i32(1), i32(8), i32(2), i32(4)),
    "tile_matmul": (_flat_load("C", "f32", 4), _flat_load("K", "bf16", 4),
                    _flat_load("K", "bf16", 4)),
    "tile_store": (Var("C"), i32(0), i32(4), i32(2), _flat_load("C", "f32", 8)),
    "wmma_load_a": (Var("K"), i32(0), i32(4), i32(2), i32(2)),
    "wmma_load_b": (ExprVar(_flat_load("K", "bf16", 8)), i32(0), i32(4),
                    i32(2), i32(2)),
    "wmma_load_c": (Var("C"), i32(0), i32(2), i32(2), i32(2)),
    "wmma_zero": (i32(4), i32(2)),
    "wmma_mma": (_flat_load("K", "bf16", 4), _flat_load("K", "bf16", 4),
                 _flat_load("C", "f32", 4)),
    "wmma_store": (Var("C"), i32(8), i32(2), i32(2), _flat_load("C", "f32", 4)),
    "ConvolutionShuffle": (Var("K"), i32(0), i32(5), i32(2)),
    "KWayInterleave": (i32(2), i32(2), _flat_load("K", "bf16", 8)),
    "PolyphaseShuffle": (Var("K"), i32(0), i32(2), i32(4), i32(2), i32(1)),
}


class TestIntrinsics:
    def test_every_intrinsic_has_a_call(self):
        assert set(CALLS) == set(ir.INTRINSICS)

    @pytest.mark.parametrize("name", CALLS)
    def test_signature_types_what_interp_computes(self, name):
        # signatures live in ir and semantics in interp; this keeps them in step
        call = Call(name, CALLS[name])
        store = interp.BufferStore()
        for buf, (kind, length, loc) in BUFFERS.items():
            store[buf] = interp.Buffer(kind, loc, np.arange(length, dtype=np.float32))
        env = interp.Env(buffers=store, shapes=frozenset(
            {("amx", 2, 2, 2), ("wmma", 2, 2, 2)}))
        v = interp.eval_expr(call, env)
        assert ir.type_of(call, BUFFERS) == VecType(v.kind, v.lanes)

    @pytest.mark.parametrize("name, args, msg", [
        ("tile_load", (i32(0), i32(0), i32(32), i32(16), i32(32)),
         "tile_load argument 0 must name a buffer"),
        ("KWayInterleave", (i32(0), i32(4), _flat_load("A", "f32", 16)),
         "KWayInterleave argument 0 must be an i32 immediate >= 1"),
        ("tile_zero", (i32(2), i32(-2)),
         "tile_zero argument 1 must be an i32 immediate >= 1"),
        ("tile_zero", (i32(2), Imm("f32", 2.0)),
         "tile_zero argument 1 must be an i32 immediate >= 1"),
        ("PolyphaseShuffle", (Var("A"), i32(0), i32(2), i32(4), i32(2), i32(2)),
         "PolyphaseShuffle phases 2 and stride 2 are exclusive"),
        ("ConvolutionShuffle", (Var("A"), i32(0), i32(2), i32(2)),
         "ConvolutionShuffle needs rows > cols"),
        ("KWayInterleave", (i32(3), i32(2), _flat_load("A", "f32", 16)),
         "KWayInterleave argument 2 has 16 lanes, not a multiple of 6"),
        ("tile_zero", (i32(2),), "tile_zero takes 2 arguments, got 1"),
        ("frobnicate", (), "unknown intrinsic 'frobnicate'"),
    ])
    def test_malformed_call_is_a_lane_mismatch(self, name, args, msg):
        with pytest.raises(ir.LaneMismatch) as exc:
            ir.lanes_of(Call(name, args), "v")
        assert exc.value.path == "v" and exc.value.msg.startswith(msg)

    def test_check_reaches_calls_inside_exprvars(self):
        bad = ExprVar(Call("tile_zero", (i32(0), i32(4))))
        with pytest.raises(ir.LaneMismatch, match="argument 0"):
            ir.lanes_of(bad)

    def test_shuffle_spec(self):
        conv = Call("ConvolutionShuffle", CALLS["ConvolutionShuffle"])
        poly = Call("PolyphaseShuffle", CALLS["PolyphaseShuffle"])
        assert ir.shuffle_spec(conv) == layout.ToeplitzSpec(l=3, k=2)
        assert ir.shuffle_spec(poly) == layout.ToeplitzSpec(l=2, k=4, p=2)


class TestValidate:
    def test_corpus_is_clean(self):
        for name in corpus_names():
            rep = ir.validate_program(corpus_program(name))
            assert rep.ok, f"{name}: {rep}"

    def test_store_lane_mismatch(self):
        p = Program((Param("o", "f32", 512),),
                    (Store("o", Ramp(i32(0), i32(1), 512),
                           Broadcast(Imm("f32", 0.0), 256)),))
        rep = ir.validate_program(p)
        assert any("lanes" in msg for _, msg in rep.errors)

    def test_undeclared_buffer(self):
        p = Program((), (Store("o", Ramp(i32(0), i32(1), 4),
                               Load("Q", VecType("f32", 4),
                                    Ramp(i32(0), i32(1), 4))),))
        rep = ir.validate_program(p)
        assert any("'Q'" in msg for _, msg in rep.errors)
        assert any("'o'" in msg for _, msg in rep.errors)

    def test_collects_multiple_errors(self):
        p = Program((Param("o", "f32", 4, "amx"),),
                    (Store("o", Ramp(i32(0), i32(1), 4),
                           Broadcast(Imm("f32", 0.0), 2)),
                     Store("p", Ramp(i32(0), i32(1), 4),
                           Broadcast(Imm("f32", 0.0), 4))))
        rep = ir.validate_program(p)
        assert len(rep.errors) >= 3  # non-mem param, lane mismatch, unknown buffer

    def test_nested_exprvar_rejected(self):
        inner = ir.ExprVar(Broadcast(Imm("f32", 1.0), 2))
        p = Program((Param("o", "f32", 1),),
                    (Store("o", Ramp(i32(0), i32(1), 1), ir.ExprVar(
                        Broadcast(ir.Cast(VecType("f32", 1), inner), 1))),))
        rep = ir.validate_program(p)
        assert any("exprvar" in msg for _, msg in rep.errors)

    @pytest.mark.parametrize("value, path", [
        (Broadcast(Imm("f32", 1.0), 0), "body[0].value"),
        (Bop("+", Broadcast(Imm("f32", 1.0), 4), Ramp(i32(0), i32(1), 4)),
         "body[0].value"),
        (Bop("+", Broadcast(Imm("f32", 1.0), 4),
             Broadcast(Broadcast(Imm("f32", 1.0), 0), 4)), "body[0].value.rhs.operand"),
        (Call("tile_zero", (i32(2), i32(-2))), "body[0].value"),
    ])
    def test_error_names_its_path_once(self, value, path):
        p = Program((Param("o", "f32", 4),),
                    (Store("o", Ramp(i32(0), i32(1), 4), value),))
        rep = ir.validate_program(p)
        assert rep.errors and rep.errors[0][0] == path
        assert str(rep).splitlines()[0].count(path) == 1

    def test_loop_shadowing(self):
        body = (ir.For("i", 0, 2, (ir.For("i", 0, 2, ()),)),)
        rep = ir.validate_program(Program((), body))
        assert any("shadow" in msg for _, msg in rep.errors)

    @pytest.mark.parametrize("name, params, body, path", [
        ("../../escaped", (Param("../../escaped", "f32", 4),), (), "params"),
        ("9x", (Param("9x", "f32", 4),), (), "params"),
        ("a/b", (), (Allocate("a/b", "f32", 4, "mem"),), "body[0]"),
        ("i.j", (), (For("i.j", 0, 2, ()),), "body[0]"),
    ])
    def test_name_that_is_not_an_identifier(self, name, params, body, path):
        rep = ir.validate_program(Program(params, body))
        assert rep.errors == [(path, f"bad name {name!r}")]


R4 = "(ramp (imm i32 0) (imm i32 1) 4)"
RF = "(ramp (imm f32 0.0) (imm f32 1.0) 4)"  # an f32 index
F4 = "(broadcast (imm f32 1.0) 4)"
F2 = "(broadcast (imm f32 1.0) 2)"
B4 = "(broadcast (imm bf16 1.0) 4)"
LA = f"(load a (f32 4) {R4})"
CONV = "(call ConvolutionShuffle (var K) (imm i32 0) (imm i32 5) (imm i32 2))"
MMA = f"(call wmma_mma (mem2wmma {F4}) (mem2wmma {F4}) (mem2wmma {F4}))"  # 2x2x2


def _evaluated(text):
    return ir.parse_program(f"(evaluate {text})").body[0].value


class TestValidatorErrors:
    """The validator's exact report on malformed programs, and the exact
    error of `type_of` and `lanes_of` on malformed trees: each lane and kind
    rule per expression class, intrinsic signatures, and lane and kind errors
    in sibling subtrees, where a lane error anywhere wins."""

    PARAMS = ("(param a f32 64 mem)\n(param i i32 64 mem)\n(param K bf16 64 mem)\n"
              "(param o f32 64 mem)\n")

    REPORTS = [
        # a lane rule per expression class
        ("(evaluate (load a (f32 4) (ramp (imm i32 0) (imm i32 1) 3)))",
         "body[0].value: load of 4 lanes with 3-lane index"),
        (f"(evaluate (cast (f32 4) {F2}))",
         "body[0].value: cast to 4 lanes of 2-lane operand"),
        (f"(evaluate (add {F4} {F2}))", "body[0].value: + over 4 vs 2 lanes"),
        ("(evaluate (ramp (broadcast (imm i32 0) 2) (imm i32 1) 4))",
         "body[0].value: ramp base 2 lanes, stride 1"),
        ("(evaluate (ramp (imm i32 0) (imm i32 1) 0))",
         "body[0].value: ramp needs >= 1 step"),
        ("(evaluate (broadcast (imm f32 1.0) 0))",
         "body[0].value: broadcast needs >= 1 copy"),
        ("(evaluate (broadcast (ramp (imm i32 0) (imm i32 1) 0) 0))",  # copies first
         "body[0].value: broadcast needs >= 1 copy"),
        ("(evaluate (vector-reduce-add 3 (ramp (imm i32 0) (imm i32 1) 8)))",
         "body[0].value: cannot reduce 8 lanes to 3"),
        ("(evaluate (vector-reduce-add 0 (ramp (imm i32 0) (imm i32 1) 8)))",
         "body[0].value: cannot reduce 8 lanes to 0"),
        (f"(evaluate (shuffle {LA} (0 4)))", "body[0].value: shuffle index 4 out of [0,4)"),
        (f"(evaluate (shuffle {LA} ()))", "body[0].value: empty shuffle"),
        ("(evaluate (mem2amx (ramp (imm i32 0) (imm i32 1) 0)))",
         "body[0].value.operand: ramp needs >= 1 step"),
        ("(evaluate (exprvar (ramp (imm i32 0) (imm i32 1) 0)))",
         "body[0].value.operand: ramp needs >= 1 step"),
        # a kind rule per expression class, read by a Bop
        (f"(evaluate (add {F4} {B4}))", "body[0].value: + over f32 and bf16"),
        ("(evaluate (add (imm i32 1) (imm f32 1.0)))", "body[0].value: + over i32 and f32"),
        ("(evaluate (add (var i) (imm f32 1.0)))", "body[0].value: + over i32 and f32"),
        (f"(evaluate (add {LA} (load K (bf16 4) {R4})))",
         "body[0].value: + over f32 and bf16"),
        (f"(evaluate (add (cast (bf16 4) {LA}) {LA}))",
         "body[0].value: + over bf16 and f32"),
        (f"(evaluate (add {RF} {R4}))", "body[0].value: + over f32 and i32"),
        (f"(evaluate (add (vector-reduce-add 4 (broadcast (imm f16 1.0) 8)) {F4}))",
         "body[0].value: + over f16 and f32"),
        (f"(evaluate (add (mem2amx {B4}) {F4}))", "body[0].value: + over bf16 and f32"),
        (f"(evaluate (add (exprvar {B4}) {F4}))", "body[0].value: + over bf16 and f32"),
        (f"(evaluate (add (shuffle {B4} (0 1 2 3)) {F4}))",
         "body[0].value: + over bf16 and f32"),
        (f"(evaluate (sub (add {F4} {B4}) {F4}))", "body[0].value.lhs: + over f32 and bf16"),
        (f"(evaluate (mul {F4} (add {B4} {F4})))", "body[0].value.rhs: + over bf16 and f32"),
        # load indices
        (f"(evaluate (load a (f32 4) {RF}))",
         "body[0].value: load index into 'a' is not i32"),
        (f"(evaluate (load a (f32 4) (load a (f32 4) {R4})))",
         "body[0].value: load index into 'a' is not i32"),
        (f"(evaluate (load a (f32 4) (load i (i32 4) {RF})))",
         "body[0].value: load index into 'i' is not i32"),
        # a kind error inside a load index or a cast operand, at its path
        ("(evaluate (load a (f32 4) (ramp (add (imm i32 0) (imm f32 1.0)) (imm i32 1) 4)))",
         "body[0].value.index.base: + over i32 and f32"),
        (f"(evaluate (cast (f32 4) (add {LA} (load K (bf16 4) {R4}))))",
         "body[0].value.operand: + over f32 and bf16"),
        (f"(evaluate (load a (f32 4) (cast (i32 4) (add {LA} {B4}))))",
         "body[0].value.index.operand: + over f32 and bf16"),
        # undeclared buffers, once per load
        (f"(evaluate (load zz (f32 4) {R4}))", "body[0].value: undeclared buffer 'zz'"),
        (f"(evaluate (add (load zz (f32 4) {R4}) (load zz (f32 4) {R4})))",
         "body[0].value: undeclared buffer 'zz'", "body[0].value: undeclared buffer 'zz'"),
        (f"(evaluate (add (load zz (f32 4) {R4}) (load yy (f32 4) {R4})))",
         "body[0].value: undeclared buffer 'zz'", "body[0].value: undeclared buffer 'yy'"),
        (f"(evaluate (add {LA} (load zz (bf16 4) {R4})))",
         "body[0].value: undeclared buffer 'zz'"),
        (f"(evaluate (load a (f32 4) (load zz (i32 4) {R4})))",
         "body[0].value: undeclared buffer 'zz'"),
        (f"(evaluate (add (var q) (load zz (f32 4) {R4})))",
         "body[0].value: + over 1 vs 4 lanes", "body[0].value: unbound variable 'q'",
         "body[0].value: undeclared buffer 'zz'"),
        (f"(evaluate (add (load zz (f32 4) {R4}) {F2}))",
         "body[0].value: + over 4 vs 2 lanes", "body[0].value: undeclared buffer 'zz'"),
        # a lane error and a kind error in sibling subtrees
        (f"(evaluate (add (add {F4} {B4}) (add {F4} {F2})))",
         "body[0].value.rhs: + over 4 vs 2 lanes"),
        (f"(evaluate (add (add {F4} {F2}) (add {F4} {B4})))",
         "body[0].value.lhs: + over 4 vs 2 lanes"),
        (f"(evaluate (add (add {F4} {B4}) (load a (f32 4) (ramp (imm i32 0) (imm i32 1) 3))))",
         "body[0].value.rhs: load of 4 lanes with 3-lane index"),
        (f"(evaluate (add {F2} (load a (f32 4) {RF})))",
         "body[0].value: + over 2 vs 4 lanes", "body[0].value: load index into 'a' is not i32"),
        (f"(evaluate (add (load a (f32 4) {RF}) "
         "(load a (f32 4) (ramp (imm f32 0.0) (imm f32 1.0) 3))))",
         "body[0].value.rhs: load of 4 lanes with 3-lane index",
         "body[0].value: load index into 'a' is not i32",
         "body[0].value: load index into 'a' is not i32"),
        # stores
        (f"(store o {R4} {F2})", "body[0]: store index has 4 lanes, value 2"),
        (f"(store o {RF} {F4})", "body[0]: store index is not i32"),
        (f"(store o {RF} {F2})",
         "body[0]: store index has 4 lanes, value 2", "body[0]: store index is not i32"),
        (f"(store zz {R4} {F4})", "body[0]: undeclared buffer 'zz'"),
        (f"(store o (ramp (imm i32 0) (imm i32 1) 0) {F4})",
         "body[0].index: ramp needs >= 1 step"),
        (f"(store o {R4} (add {F4} {B4}))", "body[0].value: + over f32 and bf16"),
        (f"(store o (add {R4} {RF}) {F4})", "body[0].index: + over i32 and f32"),
        (f"(store o (load zz (i32 4) {R4}) {F4})", "body[0].index: undeclared buffer 'zz'"),
        (f"(store o (cast (i32 4) (add {LA} {B4})) {F4})",
         "body[0].index.operand: + over f32 and bf16"),
        # intrinsic signatures and kinds
        ("(evaluate (call frobnicate (imm i32 1)))",
         "body[0].value: unknown intrinsic 'frobnicate'"),
        (f"(evaluate (call frobnicate (load a (f32 4) {RF})))",
         "body[0].value: unknown intrinsic 'frobnicate'",
         "body[0].value: load index into 'a' is not i32"),
        ("(evaluate (call tile_zero (imm i32 2)))",
         "body[0].value: tile_zero takes 2 arguments, got 1"),
        ("(evaluate (call tile_load (imm i32 0) (imm i32 0) (imm i32 4) (imm i32 2) (imm i32 2)))",
         "body[0].value: tile_load argument 0 must name a buffer, got (imm i32 0)"),
        ("(evaluate (call tile_zero (imm i32 2) (imm i32 0)))",
         "body[0].value: tile_zero argument 1 must be an i32 immediate >= 1, got (imm i32 0)"),
        ("(evaluate (call tile_zero (imm i32 2) (imm f32 2.0)))",
         "body[0].value: tile_zero argument 1 must be an i32 immediate >= 1, got (imm f32 2.0)"),
        ("(evaluate (call ConvolutionShuffle (var K) (imm i32 0) (imm i32 2) (imm i32 2)))",
         "body[0].value: ConvolutionShuffle needs rows > cols, got 2 and 2"),
        ("(evaluate (call PolyphaseShuffle (var K) (imm i32 0) (imm i32 2) (imm i32 4) "
         "(imm i32 2) (imm i32 2)))",
         "body[0].value: PolyphaseShuffle phases 2 and stride 2 are exclusive"),
        ("(evaluate (call KWayInterleave (imm i32 3) (imm i32 2) "
         "(load a (f32 16) (ramp (imm i32 0) (imm i32 1) 16))))",
         "body[0].value: KWayInterleave argument 2 has 16 lanes, not a multiple of 6"),
        ("(evaluate (call KWayInterleave (imm i32 2) (imm i32 2) "
         "(load a (f32 4) (ramp (imm i32 0) (imm i32 1) 3))))",
         "body[0].value.args[2]: load of 4 lanes with 3-lane index"),
        ("(evaluate (call ConvolutionShuffle (var zz) (imm i32 0) (imm i32 5) (imm i32 2)))",
         "body[0].value: undeclared buffer 'zz'", "body[0].value: unbound variable 'zz'"),
        (f"(evaluate (add {CONV} (broadcast (imm f32 1.0) 6)))",
         "body[0].value: + over 10 vs 6 lanes"),
        (f"(evaluate (add {CONV} (broadcast (imm f32 1.0) 10)))",
         "body[0].value: + over bf16 and f32"),
        (f"(evaluate (add (call KWayInterleave (imm i32 2) (imm i32 2) {LA}) {B4}))",
         "body[0].value: + over f32 and bf16"),
        (f"(evaluate (add (call tile_zero (imm i32 2) (imm i32 2)) {B4}))",
         "body[0].value: + over f32 and bf16"),
        # a call's arguments: a kind error inside one, and an address not i32
        (f"(evaluate (call tile_store (var o) (imm i32 0) (imm i32 2) (imm i32 2) "
         f"(add {F4} {B4})))", "body[0].value.args[4]: + over f32 and bf16"),
        (f"(evaluate (call KWayInterleave (imm i32 2) (imm i32 2) (add {F4} {B4})))",
         "body[0].value.args[2]: + over f32 and bf16"),
        ("(evaluate (call tile_load (var a) (imm f32 0.0) (imm i32 4) (imm i32 2) "
         "(imm i32 2)))", "body[0].value: tile_load argument 1 must be i32, got f32"),
        ("(evaluate (call wmma_store (var o) (imm i32 0) (cast (bf16 1) (var i)) "
         f"(imm i32 2) {F4}))", "body[0].value: wmma_store argument 2 must be i32, got bf16"),
        ("(evaluate (call ConvolutionShuffle (var K) (load a (f32 1) (imm i32 0)) "
         "(imm i32 5) (imm i32 2)))",
         "body[0].value: ConvolutionShuffle argument 1 must be i32, got f32"),
        # an address is one lane
        ("(store o (ramp (imm i32 0) (imm i32 1) 4) (call tile_load (var a) "
         "(ramp (imm i32 0) (imm i32 1) 2) (imm i32 4) (imm i32 2) (imm i32 2)))",
         "body[0].value: tile_load argument 1 has 2 lanes, not 1"),
        # a MatMul's operand lanes fit one (M, K, N)
        ("(evaluate (call tile_matmul (call tile_zero (imm i32 2) (imm i32 2)) "
         "(call tile_load (var K) (imm i32 0) (imm i32 3) (imm i32 2) (imm i32 3)) "
         "(call tile_load (var K) (imm i32 0) (imm i32 2) (imm i32 2) (imm i32 2))))",
         "body[0].value: tile_matmul: no (M,K,N) fits lanes A=6 B=4 C=4"),
        # a MatMul's shape is registered, as the interpreter requires
        (f"(evaluate {MMA})", "body[0].value: wmma_mma: shape wmma 2x2x2 not registered"),
        (f"(for j 0 2 (evaluate (add {MMA} {F2})))",
         "body[0].body[0].value: + over 4 vs 2 lanes",
         "body[0].body[0].value: wmma_mma: shape wmma 2x2x2 not registered"),
        (f"(wmma-shape 2 2 2)\n(evaluate (add {MMA} {F2}))",
         "body[0].value: + over 4 vs 2 lanes"),
        (f"(amx-shape 2 2 2)\n(evaluate {MMA})",
         "body[0].value: wmma_mma: shape wmma 2x2x2 not registered"),
        # a load's kind is its buffer's
        ("(evaluate (load a (f32 1) (load a (i32 1) (imm i32 0))))",
         "body[0].value: load of i32 from 'a' of kind f32"),
        (f"(store o {R4} (load K (f32 4) (load i (bf16 4) {R4})))",
         "body[0].value: load index into 'K' is not i32",
         "body[0].value: load of f32 from 'K' of kind bf16",
         "body[0].value: load of bf16 from 'i' of kind i32"),
        # a ramp's stride has its base's kind
        ("(evaluate (load a (f32 4) (ramp (broadcast (imm i32 0) 2) "
         "(broadcast (imm f32 1.0) 2) 2)))", "body[0].value.index: ramp base i32, stride f32"),
        ("(evaluate (load a (f32 4) (ramp (broadcast (imm i32 0) 2) "
         "(broadcast (add (cast (bf16 1) (imm i32 0)) (imm i32 0)) 2) 2)))",
         "body[0].value.index.stride.operand: + over bf16 and i32"),
        (f"(evaluate (add {RF} (ramp (imm i32 0) (imm f32 1.0) 4)))",
         "body[0].value.rhs: ramp base i32, stride f32"),
    ]

    @pytest.mark.parametrize("case", REPORTS, ids=[case[0] for case in REPORTS])
    def test_report(self, case):
        body, *errors = case
        rep = ir.validate_program(ir.parse_program(self.PARAMS + body))
        assert str(rep) == "\n".join(f"error: {e}" for e in errors)

    TYPES = [
        (ir.lanes_of, f"(add {F4} {F2})", None, (ir.LaneMismatch, "e: + over 4 vs 2 lanes")),
        (ir.type_of, f"(add {F4} {B4})", None, (ir.KindMismatch, "e: + over f32 and bf16")),
        (ir.type_of, "(add (imm i32 1) (imm f32 1.0))", None,
         (ir.KindMismatch, "e: + over i32 and f32")),
        (ir.type_of, f"(load Q (f32 4) {R4})", {}, (ir.UnknownBuffer, "undeclared buffer 'Q'")),
        (ir.type_of, f"(load Q (f32 4) {R4})", None, VecType("f32", 4)),
        (ir.type_of, f"(load a (f32 4) {RF})", None, VecType("f32", 4)),
        # a buffer-kinded call needs a table for its kind, not for its lanes
        (ir.type_of, CONV, None,
         (ir.IRError, "e: the kind of ConvolutionShuffle needs a buffer table")),
        (ir.lanes_of, CONV, None, 10),
        (ir.type_of, CONV, {"K": ("bf16", 64, "mem")}, VecType("bf16", 10)),
        (ir.type_of, CONV, {}, (ir.UnknownBuffer, "undeclared buffer 'K'")),
        (ir.type_of, "(call tile_zero (imm i32 2) (imm i32 0))", None,
         (ir.LaneMismatch, "e: tile_zero argument 1 must be an i32 immediate >= 1, "
                           "got (imm i32 0)")),
        # a lane error anywhere wins over a kind error
        (ir.type_of, f"(add (add {F4} {B4}) (add {F4} {F2}))", None,
         (ir.LaneMismatch, "e.rhs: + over 4 vs 2 lanes")),
        (ir.type_of, f"(add (load Q (f32 4) {R4}) {F2})", {},
         (ir.LaneMismatch, "e: + over 4 vs 2 lanes")),
        (ir.type_of, f"(add {CONV} (broadcast (imm bf16 1.0) 6))", None,
         (ir.LaneMismatch, "e: + over 10 vs 6 lanes")),
        # kind errors inside a load index or a cast operand
        (ir.type_of, "(load a (f32 4) (ramp (add (imm i32 0) (imm f32 1.0)) (imm i32 1) 4))",
         None, (ir.KindMismatch, "e.index.base: + over i32 and f32")),
        (ir.type_of, f"(cast (f32 4) (add {LA} (load a (bf16 4) {R4})))", None,
         (ir.KindMismatch, "e.operand: + over f32 and bf16")),
    ]

    @pytest.mark.parametrize("f, text, buffers, expected", TYPES, ids=[
        f"{f.__name__} {text} {buffers}" for f, text, buffers, _ in TYPES])
    def test_type(self, f, text, buffers, expected):
        args = (_evaluated(text),) + (() if f is ir.lanes_of else (buffers,))
        if not isinstance(expected, tuple):
            assert f(*args) == expected
            return
        with pytest.raises(ir.IRError) as exc:
            f(*args)
        assert (type(exc.value), str(exc.value)) == expected

    def test_a_statement_is_not_an_expression(self):
        s = Evaluate(Var("x"))
        with pytest.raises(ir.IRError) as exc:
            ir.lanes_of(s)
        assert type(exc.value) is ir.IRError
        assert str(exc.value) == f"e: not an Expr: {s!r}"


# an interpreter error that a well-typed program cannot raise
_TYPE_ERROR = re.compile(r" over \w+ and \w+$| lanes| cannot (reduce|broadcast)")


def _replace_node(s, k, f):
    """The statement `s` with the `k`-th node of its expressions, in
    `walk_exprs` order, replaced by `f(node)`."""
    left = [k]

    def go(n):
        left[0] -= 1
        return f(n) if left[0] == -1 else ir.map_expr(n, go)

    return ir.map_expr(s, go)


def _perturbed_program(data):
    """A drawn statement with one node wrapped to change its kind or its
    lanes, in a program that declares its buffers and binds its variables.
    Each load reads the buffer named after its kind, declared with that
    kind, and a store writes the f32 buffer."""
    vtype = data.draw(ir_terms.TYPES)
    s = data.draw(ir_terms.stmts(vtype))
    nodes = [n for c in ir.children(s) for n in ir.walk_exprs(c)]
    if data.draw(st.booleans()):
        # an operand of a Bop, so that the new kind is an error
        operands = {id(x) for n in nodes if isinstance(n, Bop) for x in (n.lhs, n.rhs)}
        at = [k for k, n in enumerate(nodes) if id(n) in operands]
        assume(at)
        k = data.draw(st.sampled_from(at))
        t = ir.type_of(nodes[k])
        kind = data.draw(st.sampled_from([x for x in ir.SCALAR_KINDS if x != t.kind]))
        s = _replace_node(s, k, lambda n: Cast(VecType(kind, t.lanes), n))
    else:
        s = _replace_node(s, data.draw(st.integers(0, len(nodes) - 1)),
                          lambda n: Broadcast(n, 2))

    def rename(n):
        n = ir.map_expr(n, rename)
        return Load(n.vtype.kind, n.vtype, n.index) if isinstance(n, Load) else n

    s = ir.map_expr(s, rename)
    if isinstance(s, Store):
        s = Store("f32", s.index, s.value)
    for var in ("a", "b", "x"):  # the names that ir_terms draws
        s = For(var, 0, 2, (s,))
    return Program(tuple(Param(kind, kind, 64) for kind in ir.SCALAR_KINDS), (s,))


class TestValidatorCompleteness:
    """A program that validates raises no kind or lane error when it runs."""

    def test_perturbed_terms(self):
        @settings(max_examples=400, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            p = _perturbed_program(data)
            if not ir.validate_program(p).ok:
                return
            try:
                interp.run_program(p, interp.random_inputs(p, 1))
            except interp.EvalError as err:
                assert not _TYPE_ERROR.search(str(err)), ir.print_program(p)

        with np.errstate(all="ignore"):
            check()

    # Each program fails to run with a type error, or with a traceback, so
    # it must not validate.
    def test_load_kind_matches_its_buffer(self):
        p = ir.parse_program("(param a f32 64 mem)\n"
                             "(evaluate (load a (f32 1) (load a (i32 1) (imm i32 0))))")
        assert not ir.validate_program(p).ok

    @pytest.mark.parametrize("stride", [
        "(broadcast (imm f32 1.0) 2)",  # a traceback when run
        "(broadcast (add (cast (bf16 1) (imm i32 0)) (imm i32 0)) 2)",  # + over bf16 and i32
    ])
    def test_ramp_stride_kind_is_checked(self, stride):
        p = ir.parse_program(f"(param a f32 64 mem)\n(evaluate (load a (f32 4) "
                             f"(ramp (broadcast (imm i32 0) 2) {stride} 2)))")
        assert not ir.validate_program(p).ok

    def test_call_argument_kinds_are_checked(self):
        p = ir.parse_program(f"(param a f32 64 mem)\n(param o f32 64 mem)\n"
                             f"(evaluate (call tile_store (var o) (imm i32 0) (imm i32 2) "
                             f"(imm i32 2) (add {F4} {B4})))")
        assert not ir.validate_program(p).ok


class TestParsePrint:
    def test_simple_ramp(self):
        p = ir.parse_program("(store o (ramp (imm i32 0) (imm i32 1) 4) "
                             "(ramp (imm i32 0) (imm i32 1) 4))")
        stmt = p.body[0]
        assert stmt.index == Ramp(i32(0), i32(1), 4)

    def test_arity_error(self):
        with pytest.raises(ir.ParseError) as exc:
            ir.parse_program("(evaluate (ramp (imm i32 0) (imm i32 1)))")
        assert "ramp" in str(exc.value)

    def test_error_carries_position(self):
        with pytest.raises(ir.ParseError) as exc:
            ir.parse_program("(param x bf16 4 mem)\n(allocate y f99 4 mem)")
        assert exc.value.line == 2
        assert exc.value.expected

    def test_nesting_past_max_depth_is_an_error_at_its_paren(self):
        # an evaluate whose lists nest one deeper than allowed, (var x) last
        text = "(evaluate\n" + "(exprvar " * (ir.MAX_DEPTH - 1) + "(var x)" + ")" * ir.MAX_DEPTH
        with pytest.raises(ir.ParseError, match=f"deeper than {ir.MAX_DEPTH}") as exc:
            ir.parse_program(text)
        assert (exc.value.line, exc.value.col) == (2, 1 + len("(exprvar ") * (ir.MAX_DEPTH - 1))
        ir.parse_program(text.replace("(exprvar ", "", 1)[:-1])  # one level less parses

    def test_comments_ignored(self):
        p = ir.parse_program("; a comment\n(param x bf16 4 mem) ; trailing\n")
        assert p.params[0].name == "x"

    def test_corpus_round_trip(self):
        for name in corpus_names():
            prog = corpus_program(name)
            text = ir.print_program(prog)
            assert ir.parse_program(text) == prog
            assert ir.print_program(ir.parse_program(text)) == text

    @pytest.mark.parametrize("text", [
        "(evaluate (cast (f32 0) (imm f32 1.0)))",
        "(evaluate (load x (f32 -4) (imm i32 0)))",
    ])
    def test_zero_lane_type_is_a_parse_error(self, text):
        with pytest.raises(ir.ParseError, match="lane count must be >= 1"):
            ir.parse_program(text)

    def test_printer_is_canonical(self):
        text = "(evaluate   (broadcast(imm f32 1.5)   3))"
        prog = ir.parse_program(text)
        printed = ir.print_program(prog)
        assert printed == "(evaluate (broadcast (imm f32 1.5) 3))\n"


class TestReaderErrors:
    """Each way a form can be malformed, for every expression head, statement
    form and top-level form, with the reader's exact text, position and
    expected tokens."""

    CASES = [
        # imm
        ("(evaluate (imm f32))",
         "1:12: imm takes 2 argument(s), got 1 (expected imm)", (1, 12), ("imm",)),
        ("(evaluate (imm i32 1 2))",
         "1:12: imm takes 2 argument(s), got 3 (expected imm)", (1, 12), ("imm",)),
        ("(evaluate (imm (f32) 1.0))",
         "1:16: expected scalar kind, got a list (expected scalar kind)", (1, 16),
         ("scalar kind",)),
        ("(evaluate (imm f32 (1.0)))",
         "1:20: expected literal, got a list (expected literal)", (1, 20), ("literal",)),
        ("(evaluate (imm f64 1.0))",
         "1:16: unknown kind 'f64' (expected bf16, f16, f32, i32)", (1, 16),
         ("bf16", "f16", "f32", "i32")),
        ("(evaluate (imm I32 1))",
         "1:16: unknown kind 'I32' (expected bf16, f16, f32, i32)", (1, 16),
         ("bf16", "f16", "f32", "i32")),
        ("(evaluate (imm i32 1.5))",
         "1:20: bad i32 literal '1.5'", (1, 20), ()),
        ("(evaluate (imm i32 0x10))",
         "1:20: bad i32 literal '0x10'", (1, 20), ()),
        ("(evaluate (imm f32 one))",
         "1:20: bad f32 literal 'one'", (1, 20), ()),
        ("(evaluate (imm bf16 1,5))",
         "1:21: bad bf16 literal '1,5'", (1, 21), ()),
        ("(evaluate (imm f16 1e))",
         "1:20: bad f16 literal '1e'", (1, 20), ()),
        # var
        ("(evaluate (var))",
         "1:12: var takes 1 argument(s), got 0 (expected var)", (1, 12), ("var",)),
        ("(evaluate (var x y))",
         "1:12: var takes 1 argument(s), got 2 (expected var)", (1, 12), ("var",)),
        ("(evaluate (var (x)))",
         "1:16: expected name, got a list (expected name)", (1, 16), ("name",)),
        # load, and the (KIND N) type
        ("(evaluate (load a (f32 1)))",
         "1:12: load takes 3 argument(s), got 2 (expected load)", (1, 12), ("load",)),
        ("(evaluate (load (a) (f32 1) (imm i32 0)))",
         "1:17: expected buffer name, got a list (expected buffer name)", (1, 17),
         ("buffer name",)),
        ("(evaluate (load a f32 (imm i32 0)))",
         "1:19: expected (KIND N) type (expected (kind lanes))", (1, 19), ("(kind lanes)",)),
        ("(evaluate (load a (f32) (imm i32 0)))",
         "1:19: expected (KIND N) type (expected (kind lanes))", (1, 19), ("(kind lanes)",)),
        ("(evaluate (load a (f32 1 1) (imm i32 0)))",
         "1:19: expected (KIND N) type (expected (kind lanes))", (1, 19), ("(kind lanes)",)),
        ("(evaluate (load a ((f32) 1) (imm i32 0)))",
         "1:20: expected scalar kind, got a list (expected scalar kind)", (1, 20),
         ("scalar kind",)),
        ("(evaluate (load a (f64 1) (imm i32 0)))",
         "1:20: unknown kind 'f64' (expected bf16, f16, f32, i32)", (1, 20),
         ("bf16", "f16", "f32", "i32")),
        ("(evaluate (load a (f32 (1)) (imm i32 0)))",
         "1:24: expected lane count, got a list (expected lane count)", (1, 24), ("lane count",)),
        ("(evaluate (load a (f32 one) (imm i32 0)))",
         "1:24: expected lane count, got 'one' (expected lane count)", (1, 24), ("lane count",)),
        ("(evaluate (load a (f32 0) (imm i32 0)))",
         "1:24: lane count must be >= 1, got 0", (1, 24), ()),
        ("(evaluate (load a (f32 -4) (imm i32 0)))",
         "1:24: lane count must be >= 1, got -4", (1, 24), ()),
        ("(evaluate (load a (f32 1) 0))",
         "1:27: expected expression, got atom '0'", (1, 27), ()),
        # cast
        ("(evaluate (cast (f32 1)))",
         "1:12: cast takes 2 argument(s), got 1 (expected cast)", (1, 12), ("cast",)),
        ("(evaluate (cast f32 (imm f32 1.0)))",
         "1:17: expected (KIND N) type (expected (kind lanes))", (1, 17), ("(kind lanes)",)),
        ("(evaluate (cast (f32 1) x))",
         "1:25: expected expression, got atom 'x'", (1, 25), ()),
        ("(evaluate (cast (bf16 0) (imm f32 1.0)))",
         "1:23: lane count must be >= 1, got 0", (1, 23), ()),
        # add, sub, mul, div, mod
        ("(evaluate (add (var x)))",
         "1:12: add takes 2 argument(s), got 1 (expected add)", (1, 12), ("add",)),
        ("(evaluate (sub (var x) (var x) (var x)))",
         "1:12: sub takes 2 argument(s), got 3 (expected sub)", (1, 12), ("sub",)),
        ("(evaluate (mul))",
         "1:12: mul takes 2 argument(s), got 0 (expected mul)", (1, 12), ("mul",)),
        ("(evaluate (div x (var x)))",
         "1:16: expected expression, got atom 'x'", (1, 16), ()),
        ("(evaluate (mod (var x) 2))",
         "1:24: expected expression, got atom '2'", (1, 24), ()),
        ("(evaluate (add 1 (var x)))",
         "1:16: expected expression, got atom '1'", (1, 16), ()),
        ("(evaluate (sub (var x) (y)))",
         "1:25: unknown operator 'y'", (1, 25), ()),
        # ramp
        ("(evaluate (ramp (imm i32 0) (imm i32 1)))",
         "1:12: ramp takes 3 argument(s), got 2 (expected ramp)", (1, 12), ("ramp",)),
        ("(evaluate (ramp 0 (imm i32 1) 4))",
         "1:17: expected expression, got atom '0'", (1, 17), ()),
        ("(evaluate (ramp (imm i32 0) 1 4))",
         "1:29: expected expression, got atom '1'", (1, 29), ()),
        ("(evaluate (ramp (imm i32 0) (imm i32 1) (4)))",
         "1:41: expected step count, got a list (expected step count)", (1, 41), ("step count",)),
        ("(evaluate (ramp (imm i32 0) (imm i32 1) four))",
         "1:41: expected step count, got 'four' (expected step count)", (1, 41), ("step count",)),
        ("(evaluate (ramp (imm i32 0) (imm i32 1) 4.0))",
         "1:41: expected step count, got '4.0' (expected step count)", (1, 41), ("step count",)),
        # broadcast
        ("(evaluate (broadcast (var x)))",
         "1:12: broadcast takes 2 argument(s), got 1 (expected broadcast)", (1, 12),
         ("broadcast",)),
        ("(evaluate (broadcast x 4))",
         "1:22: expected expression, got atom 'x'", (1, 22), ()),
        ("(evaluate (broadcast (var x) (4)))",
         "1:30: expected copy count, got a list (expected copy count)", (1, 30), ("copy count",)),
        ("(evaluate (broadcast (var x) 4x))",
         "1:30: expected copy count, got '4x' (expected copy count)", (1, 30), ("copy count",)),
        # vector-reduce-add
        ("(evaluate (vector-reduce-add (var a)))",
         "1:12: vector-reduce-add takes 2 argument(s), got 1 (expected vector-reduce-add)", (1, 12),
         ("vector-reduce-add",)),
        ("(evaluate (vector-reduce-add (2) (var a)))",
         "1:30: expected result lanes, got a list (expected result lanes)", (1, 30),
         ("result lanes",)),
        ("(evaluate (vector-reduce-add two (var a)))",
         "1:30: expected result lanes, got 'two' (expected result lanes)", (1, 30),
         ("result lanes",)),
        ("(evaluate (vector-reduce-add 2 a))",
         "1:32: expected expression, got atom 'a'", (1, 32), ()),
        # call
        ("(evaluate (call))",
         "1:12: call needs an intrinsic name", (1, 12), ()),
        ("(evaluate (call (tile_zero) (imm i32 1) (imm i32 1)))",
         "1:17: expected intrinsic name, got a list (expected intrinsic name)", (1, 17),
         ("intrinsic name",)),
        ("(evaluate (call tile_zero 2 (imm i32 1)))",
         "1:27: expected expression, got atom '2'", (1, 27), ()),
        ("(evaluate (call tile_zero (imm i32 1) ()))",
         "1:39: empty expression", (1, 39), ()),
        # mem2amx, amx2mem, mem2wmma, wmma2mem
        ("(evaluate (mem2amx))",
         "1:12: mem2amx takes 1 argument(s), got 0 (expected mem2amx)", (1, 12), ("mem2amx",)),
        ("(evaluate (amx2mem (var x) (var x)))",
         "1:12: amx2mem takes 1 argument(s), got 2 (expected amx2mem)", (1, 12), ("amx2mem",)),
        ("(evaluate (mem2wmma x))",
         "1:21: expected expression, got atom 'x'", (1, 21), ()),
        ("(evaluate (wmma2mem (x)))",
         "1:22: unknown operator 'x'", (1, 22), ()),
        # exprvar
        ("(evaluate (exprvar))",
         "1:12: exprvar takes 1 argument(s), got 0 (expected exprvar)", (1, 12), ("exprvar",)),
        ("(evaluate (exprvar x))",
         "1:20: expected expression, got atom 'x'", (1, 20), ()),
        # shuffle
        ("(evaluate (shuffle (var a)))",
         "1:12: shuffle takes 2 argument(s), got 1 (expected shuffle)", (1, 12), ("shuffle",)),
        ("(evaluate (shuffle a (0 1)))",
         "1:20: expected expression, got atom 'a'", (1, 20), ()),
        ("(evaluate (shuffle (var a) 0))",
         "1:28: expected an index list (expected (N*))", (1, 28), ("(N*)",)),
        ("(evaluate (shuffle (var a) ((0) 1)))",
         "1:29: expected shuffle index, got a list (expected shuffle index)", (1, 29),
         ("shuffle index",)),
        ("(evaluate (shuffle (var a) (0 one)))",
         "1:31: expected shuffle index, got 'one' (expected shuffle index)", (1, 31),
         ("shuffle index",)),
        ("(evaluate (shuffle (var a) (0) (1)))",
         "1:12: shuffle takes 2 argument(s), got 3 (expected shuffle)", (1, 12), ("shuffle",)),
        # any expression
        ("(evaluate (frob (var x)))",
         "1:12: unknown operator 'frob'", (1, 12), ()),
        ("(evaluate (Add (var x) (var y)))",
         "1:12: unknown operator 'Add'", (1, 12), ()),
        ("(evaluate ((imm) f32 1.0))",
         "1:12: expected operator, got a list (expected operator)", (1, 12), ("operator",)),
        ("(evaluate ())",
         "1:11: empty expression", (1, 11), ()),
        ("(evaluate x)",
         "1:11: expected expression, got atom 'x'", (1, 11), ()),
        ("(evaluate (store o (var i) (var x)))",
         "1:12: unknown operator 'store'", (1, 12), ()),
        # allocate
        ("(allocate t f32 4)",
         "1:2: allocate takes 4 arguments, got 3", (1, 2), ()),
        ("(allocate (t) f32 4 mem)",
         "1:11: expected name, got a list (expected name)", (1, 11), ("name",)),
        ("(allocate t (f32) 4 mem)",
         "1:13: expected scalar kind, got a list (expected scalar kind)", (1, 13),
         ("scalar kind",)),
        ("(allocate t f99 4 mem)",
         "1:13: unknown kind 'f99' (expected bf16, f16, f32, i32)", (1, 13),
         ("bf16", "f16", "f32", "i32")),
        ("(allocate t f32 (4) mem)",
         "1:17: expected length, got a list (expected length)", (1, 17), ("length",)),
        ("(allocate t f32 4.5 mem)",
         "1:17: expected length, got '4.5' (expected length)", (1, 17), ("length",)),
        ("(allocate t f32 4 (mem))",
         "1:19: expected location, got a list (expected location)", (1, 19), ("location",)),
        ("(allocate t f32 4 gpu)",
         "1:19: unknown location 'gpu' (expected mem, amx, wmma)", (1, 19), ("mem", "amx", "wmma")),
        # store
        ("(store o (var i))",
         "1:2: store takes 3 arguments, got 2", (1, 2), ()),
        ("(store o (var i) (var x) (var x))",
         "1:2: store takes 3 arguments, got 4", (1, 2), ()),
        ("(store (o) (var i) (var x))",
         "1:8: expected buffer name, got a list (expected buffer name)", (1, 8), ("buffer name",)),
        ("(store o i (var x))",
         "1:10: expected expression, got atom 'i'", (1, 10), ()),
        ("(store o (var i) x)",
         "1:18: expected expression, got atom 'x'", (1, 18), ()),
        ("(store o (vari) (var x))",
         "1:11: unknown operator 'vari'", (1, 11), ()),
        # evaluate
        ("(evaluate)",
         "1:2: evaluate takes 1 argument, got 0", (1, 2), ()),
        ("(evaluate (var x) (var x))",
         "1:2: evaluate takes 1 argument, got 2", (1, 2), ()),
        ("(evaluate (1))",
         "1:12: unknown operator '1'", (1, 12), ()),
        # for
        ("(for i 0)",
         "1:2: for takes a name, min, extent, and body", (1, 2), ()),
        ("(for (i) 0 4 (evaluate (var i)))",
         "1:6: expected loop variable, got a list (expected loop variable)", (1, 6),
         ("loop variable",)),
        ("(for i (0) 4 (evaluate (var i)))",
         "1:8: expected min, got a list (expected min)", (1, 8), ("min",)),
        ("(for i zero 4 (evaluate (var i)))",
         "1:8: expected min, got 'zero' (expected min)", (1, 8), ("min",)),
        ("(for i 0 (4) (evaluate (var i)))",
         "1:10: expected extent, got a list (expected extent)", (1, 10), ("extent",)),
        ("(for i 0 4.0 (evaluate (var i)))",
         "1:10: expected extent, got '4.0' (expected extent)", (1, 10), ("extent",)),
        ("(for i 0 4 x)",
         "1:12: expected a statement form", (1, 12), ()),
        ("(for i 0 4 ())",
         "1:12: expected a statement form", (1, 12), ()),
        ("(for i 0 4 (imm f32 1.0))",
         "1:13: unknown statement 'imm' (expected allocate, store, evaluate, for)", (1, 13),
         ("allocate", "store", "evaluate", "for")),
        ("(for i 0 4 (evaluate (var i)) (evaluate i))",
         "1:41: expected expression, got atom 'i'", (1, 41), ()),
        # any statement
        ("(frob x)",
         "1:2: unknown form 'frob' (expected param, amx-shape, wmma-shape, allocate, "
         "store, evaluate, for)", (1, 2),
         ("param", "amx-shape", "wmma-shape", "allocate", "store", "evaluate", "for")),
        ("(add (var x) (var x))",
         "1:2: unknown form 'add' (expected param, amx-shape, wmma-shape, allocate, "
         "store, evaluate, for)", (1, 2),
         ("param", "amx-shape", "wmma-shape", "allocate", "store", "evaluate", "for")),
        ("((store) o (var i) (var x))",
         "1:2: expected form, got a list (expected form)", (1, 2), ("form",)),
        ("(Store o (var i) (var x))",
         "1:2: unknown form 'Store' (expected param, amx-shape, wmma-shape, allocate, "
         "store, evaluate, for)", (1, 2),
         ("param", "amx-shape", "wmma-shape", "allocate", "store", "evaluate", "for")),
        # param
        ("(param x f32 4)",
         "1:2: param takes 4 arguments, got 3", (1, 2), ()),
        ("(param x f32 4 mem amx)",
         "1:2: param takes 4 arguments, got 5", (1, 2), ()),
        ("(param (x) f32 4 mem)",
         "1:8: expected name, got a list (expected name)", (1, 8), ("name",)),
        ("(param x (f32) 4 mem)",
         "1:10: expected scalar kind, got a list (expected scalar kind)", (1, 10),
         ("scalar kind",)),
        ("(param x f99 4 mem)",
         "1:10: unknown kind 'f99' (expected bf16, f16, f32, i32)", (1, 10),
         ("bf16", "f16", "f32", "i32")),
        ("(param x f32 (4) mem)",
         "1:14: expected length, got a list (expected length)", (1, 14), ("length",)),
        ("(param x f32 four mem)",
         "1:14: expected length, got 'four' (expected length)", (1, 14), ("length",)),
        ("(param x f32 4 (mem))",
         "1:16: expected location, got a list (expected location)", (1, 16), ("location",)),
        ("(param x f32 4 gpu)",
         "1:16: unknown location 'gpu' (expected mem, amx, wmma)", (1, 16), ("mem", "amx", "wmma")),
        # amx-shape, wmma-shape
        ("(amx-shape 16 32)",
         "1:2: amx-shape takes M K N, got 2 arguments", (1, 2), ()),
        ("(wmma-shape 16 16 16 16)",
         "1:2: wmma-shape takes M K N, got 4 arguments", (1, 2), ()),
        ("(amx-shape (16) 32 16)",
         "1:12: expected M, got a list (expected M)", (1, 12), ("M",)),
        ("(wmma-shape 16 k 16)",
         "1:16: expected K, got 'k' (expected K)", (1, 16), ("K",)),
        ("(amx-shape 16 32 16.0)",
         "1:18: expected N, got '16.0' (expected N)", (1, 18), ("N",)),
        ("(tpu-shape 16 16 16)",
         "1:2: unknown form 'tpu-shape' (expected param, amx-shape, wmma-shape, allocate, "
         "store, evaluate, for)", (1, 2),
         ("param", "amx-shape", "wmma-shape", "allocate", "store", "evaluate", "for")),
        # any top-level form; an early end of input is an unclosed '('
        ("((param) x f32 4 mem)",
         "1:2: expected form, got a list (expected form)", (1, 2), ("form",)),
        ("x",
         "1:1: expected a top-level form, got atom 'x'", (1, 1), ()),
        ("()",
         "1:1: empty top-level form", (1, 1), ()),
        ("(evaluate (var x)",
         "1:1: unclosed '(' (expected ))", (1, 1), (")",)),
        ("(evaluate (var x)))",
         "1:19: unexpected ')'", (1, 19), ()),
        (")",
         "1:1: unexpected ')'", (1, 1), ()),
        ("(param x f32 4 mem)\n(evaluate",
         "2:1: unclosed '(' (expected ))", (2, 1), (")",)),
        # positions across lines, tabs, carriage returns and comments
        ("(param x f32 4 mem)\n  (store x\n\t(ramp (imm i32 0) (imm i32 1) 4)\n"
         "\t(load x (f32 4) y))",
         "4:18: expected expression, got atom 'y'", (4, 18), ()),
        ("; comment (\n(param x f32 4 mem) ; )\n\t\t(store x (imm i32 0) (imm i32 1.5))",
         "3:33: bad i32 literal '1.5'", (3, 33), ()),
        ("(evaluate\r\n  (imm\ti32  x))",
         "2:13: bad i32 literal 'x'", (2, 13), ()),
    ]

    @pytest.mark.parametrize("text, msg, pos, expected", CASES, ids=[c[0] for c in CASES])
    def test_error(self, text, msg, pos, expected):
        with pytest.raises(ir.ParseError) as exc:
            ir.parse_program(text)
        e = exc.value
        assert (str(e), (e.line, e.col), e.expected) == (msg, pos, expected)

    @pytest.mark.parametrize("text, value", [
        ("(imm i32 1_000)", Imm("i32", 1000)),
        ("(imm i32 +5)", Imm("i32", 5)),
        ("(imm f32 -0.0)", Imm("f32", -0.0)),
        ("(imm bf16 1_0.5)", Imm("bf16", 10.5)),
        ("(imm f16 inf)", Imm("f16", float("inf"))),
        ("(ramp (imm i32 0) (imm i32 -1) +4)", Ramp(i32(0), i32(-1), 4)),
        ("(broadcast (var x) 0)", Broadcast(Var("x"), 0)),
        ("(shuffle (var x) (-1 +2))", Shuffle(Var("x"), (-1, 2))),
    ])
    def test_lenient_spelling(self, text, value):
        assert ir.parse_program(f"(evaluate {text})").body == (Evaluate(value),)

    def test_nan_literal(self):
        (stmt,) = ir.parse_program("(evaluate (imm f32 nan))").body
        assert stmt.value.kind == "f32" and math.isnan(stmt.value.value)

    def test_lenient_counts_and_empty_loop(self):
        p = ir.parse_program("(param x f32 1_6 mem)\n(amx-shape +16 32 16)\n(for i -1 4)")
        assert p.params == (Param("x", "f32", 16),)
        assert p.shapes == (ir.ShapeDecl("amx", 16, 32, 16),)
        assert p.body == (For("i", -1, 4, ()),)


def _random_expr(rng, depth, lanes=1):
    """Random well-formed index expression with known lane count."""
    if depth == 0 or (lanes == 1 and rng.random() < 0.3):
        if lanes == 1:
            return i32(rng.randrange(0, 8))
        return Ramp(i32(rng.randrange(0, 8)), i32(rng.randrange(0, 4)), lanes)
    kind = rng.choice(("ramp", "broadcast", "bop"))
    if kind == "ramp" and lanes > 1:
        for steps in range(min(lanes, 4), 0, -1):
            if lanes % steps == 0:
                inner = _random_expr(rng, depth - 1, lanes // steps)
                stride = _random_expr(rng, depth - 1, lanes // steps)
                return Ramp(inner, stride, steps)
    if kind == "broadcast" and lanes > 1:
        for copies in range(min(lanes, 4), 1, -1):
            if lanes % copies == 0:
                return Broadcast(_random_expr(rng, depth - 1, lanes // copies),
                                 copies)
    return Bop("+", _random_expr(rng, depth - 1, lanes),
               _random_expr(rng, depth - 1, lanes))


class TestExpansionProperty:
    def test_expansion_matches_lane_count(self):
        # expanding Ramp/Broadcast semantics yields exactly lanes_of(e) scalars
        rng = random.Random(7)
        env = interp.Env(buffers=interp.BufferStore())
        for _ in range(1000):
            lanes = rng.choice((1, 2, 3, 4, 6, 8, 12, 16))
            e = _random_expr(rng, rng.randrange(1, 7), lanes)
            n = ir.lanes_of(e)
            assert n == lanes
            assert interp.eval_expr(e, env).lanes == n


class TestRoundTripProperty:
    def test_random_program_round_trip(self):
        seen = set()  # the node classes drawn, and the float corner cases

        @settings(max_examples=200, deadline=None, derandomize=True, database=None)
        @given(st.data())
        def check(data):
            types = data.draw(st.lists(ir_terms.TYPES, min_size=1, max_size=3))
            body = tuple(data.draw(ir_terms.stmts(t)) for t in types)
            prog = Program((Param("a", "f32", 16),), body)
            text = ir.print_program(prog)
            assert ir.parse_program(text) == prog
            assert ir.print_program(ir.parse_program(text)) == text
            for vtype, s in zip(types, body):
                for term in (s, *ir.children(s)):
                    assert rules.decode_term(rules.encode_expr(TermTrees, term)) == term
                assert ir.type_of(s.value) == vtype
                if isinstance(s, Store):
                    assert ir.type_of(s.index) == VecType("i32", vtype.lanes)
                seen.add(type(s))
                for e in (e for c in ir.children(s) for e in ir.walk_exprs(c)):
                    seen.add(type(e))
                    if isinstance(e, Imm) and e == Imm(e.kind, -0.0):
                        seen.add("-0.0")
                    elif isinstance(e, Imm) and e.kind != "i32" and 0 < abs(e.value) < 2.0**-126:
                        seen.add("subnormal")

        check()
        assert seen == set(ir.TERMS) - {Call} | {"-0.0", "subnormal"}


class TestCanonicalIndex:
    def _expand(self, e):
        env = interp.Env(buffers=interp.BufferStore())
        return list(interp.eval_expr(e, env).data)

    def test_matches_canonical_matmul_a_index(self):
        e = ir.canonical_index([(16, 32), (16, 0), (32, 1)], i32(0))
        expect = Ramp(Broadcast(Ramp(i32(0), i32(1), 32), 16),
                      Broadcast(i32(32), 512), 16)
        assert e == expect

    def test_single_axis(self):
        assert ir.canonical_index([(4, 1)], i32(7)) == Ramp(i32(7), i32(1), 4)

    def test_zero_stride(self):
        assert ir.canonical_index([(3, 0)], Var("v")) == Broadcast(Var("v"), 3)

    def test_enumeration_oracle(self):
        # lane-by-lane equality with the direct row-major enumeration
        rng = random.Random(3)
        for _ in range(50):
            axes = [(rng.randrange(1, 9), rng.choice((0, 1, 2, 3, 5, 8)))
                    for _ in range(rng.randrange(1, 4))]
            base = rng.randrange(0, 10)
            e = ir.canonical_index(axes, i32(base))
            got = self._expand(e)
            expect = []

            def enum(prefix_sum, remaining):
                if not remaining:
                    expect.append(prefix_sum)
                    return
                extent, stride = remaining[0]
                for i in range(extent):
                    enum(prefix_sum + i * stride, remaining[1:])

            enum(base, axes)
            assert got == expect
