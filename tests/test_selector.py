import hashlib
import json
import time

import pytest

from tensorsel import interp, ir, rules, selector
from tensorsel.egraph import extract_best
from tensorsel.ir import (Allocate, Bop, Broadcast, Call, Cast, Evaluate,
                          Imm, Load, LocToLoc, Param, Program, Ramp, Store,
                          Var, VecType, VectorReduceAdd)
from tensorsel.selector import (SelectionConfig, inject_data_movement,
                                lower_exprvars, realizability_check,
                                select_program)

from conftest import (EXPECTED_FAIL, ROOT, corpus_names, corpus_program,
                      target_for)


def i32(v):
    return Imm("i32", v)


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def flat(n, base=0):
    return Ramp(i32(base), i32(1), n)


@pytest.fixture
def no_desugar(monkeypatch):
    """Selection stops before shuffle desugaring."""
    monkeypatch.setattr(selector, "desugar_shuffles", lambda p: p)


def count_movements(p):
    n = 0
    for _, s in ir.walk_stmts(p.body):
        exprs = ([s.index, s.value] if isinstance(s, Store)
                 else [s.value] if isinstance(s, Evaluate) else [])
        for e in exprs:
            n += sum(1 for sub in ir.walk_exprs(e) if isinstance(sub, LocToLoc))
    return n


def ast_size(stmt):
    """Plain AST size via the e-graph term encoding (movement unpenalized):
    every node costs 1, intrinsic calls 1 + arity."""
    g = rules.new_graph()
    root = rules.encode_stmt(g, stmt)

    def cost(t):
        op, kids = t
        return (1 + len(kids) if op[0] == "call" else 1) + sum(map(cost, kids))

    return cost(extract_best(g, root))


def difftest(prog, lowered, seeds):
    for seed in seeds:
        ins = interp.random_inputs(prog, seed)
        a = interp.run_program(prog, ins)
        b = interp.run_program(lowered, ins)
        for prm in prog.params:
            assert a[prm.name].data.tobytes() == b[prm.name].data.tobytes(), \
                (seed, prm.name)


class TestInjection:
    def test_matmul_gets_exactly_three_wrappers(self):
        prog = corpus_program("matmul_standard")
        inj = inject_data_movement(prog)
        assert count_movements(inj) == 3
        # the accumulator read inside the update is NOT wrapped
        update = inj.body[2]
        assert isinstance(update.value, LocToLoc)
        inner = update.value.operand
        acc_loads = [e for e in ir.walk_exprs(inner)
                     if isinstance(e, Load) and e.buffer == "matmul"]
        assert acc_loads and not any(
            isinstance(e, LocToLoc) and isinstance(e.operand, Load)
            and e.operand.buffer == "matmul" for e in ir.walk_exprs(inner))

    def test_all_mem_program_unchanged(self):
        p = Program((Param("x", "f32", 4), Param("y", "f32", 4)),
                    (Store("y", flat(4), Load("x", VecType("f32", 4), flat(4))),))
        assert inject_data_movement(p) == p

    def test_wrapper_read_is_wrapped(self):
        prog = corpus_program("matmul_standard")
        inj = inject_data_movement(prog)
        wrapper = inj.body[3]
        assert isinstance(wrapper.value, LocToLoc)
        assert (wrapper.value.src, wrapper.value.dst) == ("amx", "mem")

    def test_cross_accelerator_conflict(self):
        p = Program((), (
            Allocate("a", "f32", 4, "amx"),
            Store("a", flat(4), Call("wmma_zero", (i32(2), i32(2))))))
        with pytest.raises(selector.LocationConflict):
            inject_data_movement(p)

    def test_idempotent_on_lowered_programs(self):
        prog = corpus_program("conv1d_k8")
        low, _ = select_program(prog, SelectionConfig(target="wmma"))
        assert inject_data_movement(low) == low


class TestRealizability:
    def test_lowered_matmul_is_realizable(self):
        prog = corpus_program("matmul_standard")
        low, rep = select_program(prog, SelectionConfig(target="amx"))
        buffers = ir.buffer_table(low)
        for _, s in ir.walk_stmts(low.body):
            if isinstance(s, (Store, Evaluate)):
                ok, diags = realizability_check(s, buffers)
                assert ok, diags

    def test_injected_form_is_not(self):
        prog = corpus_program("matmul_standard")
        inj = inject_data_movement(prog)
        buffers = ir.buffer_table(inj)
        ok, diags = realizability_check(inj.body[2], buffers)
        assert not ok
        assert any("mem->amx" in d for d in diags)

    def test_bare_tile_in_mem_add_is_not(self):
        buffers = {"t": ("f32", 4, "amx"), "o": ("f32", 4, "mem")}
        s = Store("o", flat(4),
                  Bop("+", Load("t", VecType("f32", 4), flat(4)),
                      Broadcast(Imm("f32", 1.0), 4)))
        ok, diags = realizability_check(s, buffers)
        assert not ok


class TestExprVarLowering:
    def test_loop_invariant_hoisted_to_top(self):
        prog = corpus_program("conv1d_k16")
        low, rep = select_program(prog, SelectionConfig(target="wmma"))
        # kernel chunk depends on rx, so the temporary stays inside the loop
        assert rep.temporaries == [
            {"name": "swizzle0", "lanes": 128, "hoist_depth": 1}]

    def test_no_free_vars_single_top_init(self):
        prog = corpus_program("matmul_standard")
        low, rep = select_program(prog, SelectionConfig(target="amx"))
        assert rep.temporaries == [
            {"name": "swizzle0", "lanes": 512, "hoist_depth": 0}]
        inits = [s for s in low.body
                 if isinstance(s, Store) and s.buffer == "swizzle0"]
        assert len(inits) == 1

    def test_shared_exprvar_single_temp(self):
        ev = ir.ExprVar(Call("KWayInterleave", (
            i32(2), i32(2), Load("b", VecType("f32", 8), flat(8)))))
        p = Program(
            (Param("b", "f32", 8), Param("o1", "f32", 8), Param("o2", "f32", 8)),
            (Store("o1", flat(8), Call("tile_load",
                                       (ev, i32(0), i32(4), i32(2), i32(4)))),
             Store("o2", flat(8), Call("tile_load",
                                       (ev, i32(0), i32(4), i32(2), i32(4))))))
        out, temps = lower_exprvars(p)
        assert len(temps) == 1
        allocs = [s for s in out.body if isinstance(s, Allocate)]
        inits = [s for s in out.body
                 if isinstance(s, Store) and s.buffer == temps[0]["name"]]
        assert len(allocs) == 1 and len(inits) == 1

    def test_materialized_equals_cached_execution(self, no_desugar):
        # hoisted initialization inside the loop reproduces the cached
        # ExprVar evaluation
        prog = corpus_program("conv2d_outer_ry")
        low, rep = select_program(prog, SelectionConfig(target="wmma"))
        assert rep.temporaries[0]["hoist_depth"] == 1
        difftest(prog, low, range(3))


class TestDesugar:
    def test_conv_shuffle_desugars_to_gather(self, monkeypatch):
        prog = corpus_program("conv1d_k8")
        with monkeypatch.context() as m:
            m.setattr(selector, "desugar_shuffles", lambda p: p)
            sugar, _ = select_program(prog, SelectionConfig(target="wmma"))
        plain, _ = select_program(prog, SelectionConfig(target="wmma"))
        assert any(isinstance(e, Call) and e.name == "ConvolutionShuffle"
                   for _, s in ir.walk_stmts(sugar.body)
                   if isinstance(s, Store)
                   for e in ir.walk_exprs(s.value))
        shuffles = [e for _, s in ir.walk_stmts(plain.body)
                    if isinstance(s, Store)
                    for e in ir.walk_exprs(s.value) if isinstance(e, ir.Shuffle)]
        assert shuffles and len(shuffles[0].indices) == 128
        difftest(prog, plain, range(3))
        difftest(prog, sugar, range(3))

    def test_no_shuffle_calls_unchanged(self):
        prog = corpus_program("matmul_vnni")
        low, _ = select_program(prog, SelectionConfig(target="amx"))
        from tensorsel.selector import desugar_shuffles
        assert desugar_shuffles(low) == low

    def test_kway_interleave_indices(self):
        p = Program((Param("b", "f32", 8), Param("o", "f32", 8)),
                    (Store("o", flat(8), Call("KWayInterleave", (
                        i32(2), i32(2), Load("b", VecType("f32", 8), flat(8))))),))
        from tensorsel.selector import desugar_shuffles
        out = desugar_shuffles(p)
        assert out.body[0].value.indices == (0, 2, 1, 3, 4, 6, 5, 7)

    def test_convolution_shuffle_ten_index_gather(self):
        # 5x2 kernel matrix: ten gather lanes, interpreter-equal pre/post
        p = Program((Param("K", "f16", 3), Param("o", "f16", 10)),
                    (Store("o", flat(10), Call("ConvolutionShuffle", (
                        Var("K"), i32(0), i32(5), i32(2)))),))
        from tensorsel.selector import desugar_shuffles
        out = desugar_shuffles(p)
        shuf = out.body[0].value
        assert isinstance(shuf, ir.Shuffle) and len(shuf.indices) == 10
        assert shuf.indices == (0, -1, 1, 0, 2, 1, -1, 2, -1, -1)
        difftest(p, out, range(5))


class TestSelectProgram:
    def test_matmul_three_intrinsic_statements(self):
        prog = corpus_program("matmul_standard")
        low, rep = select_program(prog, SelectionConfig(target="amx"))
        assert [s.outcome for s in rep.statements] == ["lowered"] * 3
        emitted = [n for s in rep.statements for n in s.intrinsics]
        assert {"tile_zero", "tile_matmul", "tile_store"} <= set(emitted)
        difftest(prog, low, range(5))

    def test_conv_lowering_shape_and_temporary(self, no_desugar):
        prog = corpus_program("conv1d_k8")
        low, rep = select_program(prog, SelectionConfig(target="wmma"))
        update = next(s for _, s in ir.walk_stmts(low.body)
                      if isinstance(s, Store) and s.buffer == "conv"
                      and isinstance(s.value, Call)
                      and s.value.name == "wmma_mma")
        mma = update.value
        a, b, c = mma.args
        assert a.name == "wmma_load_a"
        assert [int(x.value) for x in a.args[3:]] == [32, 16]  # m32 k16
        assert b.name == "wmma_load_b"
        assert [int(x.value) for x in b.args[3:]] == [16, 8]  # k16 n8
        assert isinstance(c, Load) and c.buffer == "conv"
        difftest(prog, low, range(5))

    def test_given_ruleset_keeps_the_programs_own_shapes(self):
        # downsample2_1d declares the 32x24x8 shape its strided window needs
        prog = corpus_program("downsample2_1d")
        low, rep = select_program(prog, SelectionConfig(target="wmma"),
                                  ruleset=rules.build_default_ruleset())
        assert [s.outcome for s in rep.statements] == ["lowered"] * 3
        difftest(prog, low, range(3))

    def test_partial_failure_keeps_program_running(self):
        prog = corpus_program("matmul_preloadB_standard")
        low, rep = select_program(prog, SelectionConfig(target="amx"))
        assert not rep.ok
        failed = rep.failed
        assert len(failed) == 1 and failed[0].index == 2
        assert any("mem->amx" in r for r in failed[0].residual)
        difftest(prog, low, range(3))  # movement nodes are value-identity

    def test_support_matrix(self):
        expected = {
            "matmul_vnni": True, "matmul_standard": True,
            "matmul_reordered_vnni": True, "matmul_reordered_standard": True,
            "matmul_preloadA_vnni": True, "matmul_preloadA_standard": True,
            "matmul_preloadB_vnni": True, "matmul_preloadB_standard": False,
        }
        for name, should_pass in expected.items():
            _, rep = select_program(corpus_program(name),
                                    SelectionConfig(target="amx"))
            assert rep.ok == should_pass, name

    def test_monotone_cost(self, no_desugar):
        # extracted statements stay within the movement-cancellation slack
        for name in corpus_names():
            prog = corpus_program(name)
            inj = inject_data_movement(prog)
            low, rep = select_program(
                prog, SelectionConfig(target=target_for(name)))
            orig_stmts = [s for _, s in ir.walk_stmts(inj.body)
                          if isinstance(s, (Store, Evaluate))]
            new_stmts = [s for _, s in ir.walk_stmts(low.body)
                         if isinstance(s, (Store, Evaluate))
                         and not (isinstance(s, Store)
                                  and s.buffer.startswith("swizzle"))]
            assert len(orig_stmts) == len(new_stmts)
            for old, new in zip(orig_stmts, new_stmts):
                assert ast_size(new) <= ast_size(old) + 4, (name, old)

    def test_determinism_and_idempotence(self):
        for name in ("matmul_standard", "conv1d_k8", "upsample2_1d"):
            prog = corpus_program(name)
            cfg = SelectionConfig(target=target_for(name))
            low1, rep1 = select_program(prog, cfg)
            low2, rep2 = select_program(prog, cfg)
            assert low1 == low2
            assert ir.print_program(low1) == ir.print_program(low2)
            low3, rep3 = select_program(low1, cfg)
            assert low3 == low1
            assert all(s.outcome == "unchanged" for s in rep3.statements)


class TestSpeculativeOffload:
    def _program(self, dest_is_param):
        a_idx = ir.canonical_index([(16, 32), (16, 0), (32, 1)], i32(0))
        b_idx = ir.canonical_index([(16, 0), (16, 2), (16, 32), (2, 1)], i32(0))
        wide = VecType("f32", 8192)
        mul = Bop("*",
                  Cast(wide, Load("A", VecType("bf16", 8192), a_idx)),
                  Cast(wide, Load("B", VecType("bf16", 8192), b_idx)))
        update = Bop("+", VectorReduceAdd(256, mul),
                     Load("C", VecType("f32", 256), flat(256)))
        params = [Param("A", "bf16", 512), Param("B", "bf16", 512),
                  Param("C", "f32", 256), Param("out", "f32", 256)]
        body = [Store("dest", flat(256), update),
                Store("out", flat(256), Load("dest", VecType("f32", 256),
                                             flat(256)))]
        if dest_is_param:
            params.append(Param("dest", "f32", 256))
            body.pop()
        else:
            body.insert(0, Allocate("dest", "f32", 256, "mem"))
        return Program(tuple(params), tuple(body))

    def test_intermediate_offloads_by_default(self):
        prog = self._program(dest_is_param=False)
        low, rep = select_program(prog, SelectionConfig(target="amx"))
        emitted = {n for s in rep.statements for n in s.intrinsics}
        assert "tile_matmul" in emitted and "tile_store" in emitted
        difftest(prog, low, range(3))

    def test_user_output_untouched_by_default(self):
        prog = self._program(dest_is_param=True)
        low, rep = select_program(prog, SelectionConfig(target="amx"))
        assert all(not s.intrinsics for s in rep.statements)
        assert low.body == prog.body



class TestCorpusDifftests:
    @pytest.mark.parametrize("name", corpus_names())
    def test_semantic_preservation_100_seeds(self, name):
        prog = corpus_program(name)
        low, rep = select_program(prog, SelectionConfig(target=target_for(name)))
        assert rep.ok == (name not in EXPECTED_FAIL), name
        difftest(prog, low, range(100))


def _matmul16_f16(acc_loc):
    """matmul_standard at M=K=N=16 over f16, accumulator on `acc_loc`."""
    m = k = n = 16
    wide = VecType("f32", m * k * n)
    a_idx = Bop("+", Ramp(Broadcast(i32(0), k * n), Broadcast(i32(k), k * n), m),
                Broadcast(flat(k), m * n))
    b_idx = Ramp(Ramp(i32(0), i32(n), k), Broadcast(i32(1), k), n)
    a = Cast(wide, Load("A", VecType("f16", m * k * n), a_idx))
    b = Broadcast(Cast(VecType("f32", k * n), Load("B", VecType("f16", k * n), b_idx)), m)
    acc = Load("matmul", VecType("f32", m * n), flat(m * n))
    return Program(
        (Param("A", "f16", m * k), Param("B", "f16", k * n),
         Param("matmul_wrapper", "f32", m * n)),
        (Allocate("matmul", "f32", m * n, acc_loc),
         Store("matmul", flat(m * n), Broadcast(Imm("f32", 0.0), m * n)),
         Store("matmul", flat(m * n),
               Bop("+", VectorReduceAdd(m * n, Bop("*", a, b)), acc)),
         Store("matmul_wrapper", flat(m * n), acc)))


class TestRulesOffTheCorpus:
    """Variants that lower through rules no corpus program fires."""

    def _select(self, prog, target):
        rs = rules.build_default_ruleset()
        fired = set()
        for rule in rs:
            rule.action = (lambda act, name: lambda g, row: (
                fired.add(name), act(g, row)))(rule.action, rule.name)
        low, rep = select_program(prog, SelectionConfig(target=target), ruleset=rs)
        difftest(prog, low, range(3))
        return rep, fired

    def test_amx_accumulator_in_memory(self):
        text = (ROOT / "corpus" / "matmul_vnni.sexp").read_text().replace(
            "(allocate matmul f32 256 amx)", "(allocate matmul f32 256 mem)")
        rep, fired = self._select(ir.parse_program(text), "amx")
        assert [s.outcome for s in rep.statements] == ["unchanged", "lowered", "unchanged"]
        assert rep.statements[1].intrinsics == ["tile_load", "tile_matmul", "tile_store"]
        assert "amx-acc-load-flat" in fired

    def test_wmma_standard_layout(self):
        rep, fired = self._select(_matmul16_f16("wmma"), "wmma")
        assert [s.intrinsics for s in rep.statements] == [
            ["wmma_zero"], ["wmma_load_a", "wmma_load_b", "wmma_mma"], ["wmma_store"]]
        assert {"wmma-a-standard", "wmma-b-standard", "wmma-mma"} <= fired

    def test_wmma_accumulator_in_memory(self):
        rep, fired = self._select(_matmul16_f16("mem"), "wmma")
        assert [s.outcome for s in rep.statements] == ["unchanged", "lowered", "unchanged"]
        assert rep.statements[1].intrinsics == [
            "wmma_load_a", "wmma_load_b", "wmma_load_c", "wmma_mma", "wmma_store"]
        assert "wmma-acc-load-flat" in fired


class TestGoldens:
    """The selector's output, byte for byte, as the benchmark pins it."""

    GOLDENS = json.loads(
        (ROOT / "perfbench" / "goldens.json").read_text())["programs"]

    def test_goldens_cover_the_corpus(self):
        assert sorted(self.GOLDENS) == corpus_names()

    @pytest.mark.parametrize("name", corpus_names())
    def test_output_matches_golden(self, name):
        low, rep = select_program(corpus_program(name),
                                  SelectionConfig(target=target_for(name)))
        golden = self.GOLDENS[name]
        assert sha256(ir.print_program(low)) == golden["lowered_sha256"]
        assert sha256(rep.to_json(timing=False)) == golden["report_sha256"]


class TestSelectionErrors:
    def test_invalid_input_is_rejected(self):
        bad = Program((Param("o", "f32", 4),),
                      (Store("o", flat(4), Broadcast(Imm("f32", 0.0), 2)),))
        with pytest.raises(selector.SelectionError):
            select_program(bad, SelectionConfig(target="amx"))

    @pytest.mark.parametrize("budget", [5000, SelectionConfig().node_budget])
    def test_runaway_rule_ends_on_the_budget(self, budget):
        # the supporting rules never reach a fixpoint: a hang without a cap
        t0 = time.perf_counter()
        _, rep = select_program(corpus_program("conv1d_k8"),
                                SelectionConfig(target="wmma", node_budget=budget),
                                ruleset=rules.runaway_ruleset())
        assert time.perf_counter() - t0 < 10
        assert [s.outcome for s in rep.statements] == ["failed: budget"] * 3


class TestRandomProgramFuzz:
    def test_selector_is_safe_on_arbitrary_valid_programs(self):
        # random index shapes through the full pipeline: selection must
        # never crash, always validate, and always preserve semantics
        from test_ir import _random_expr
        import random as _random

        rng = _random.Random(2468)
        env0 = interp.Env(buffers=interp.BufferStore())
        for trial in range(25):
            lanes = rng.choice((2, 4, 6, 8, 12))
            idx = _random_expr(rng, rng.randrange(1, 5), lanes)
            gather = _random_expr(rng, rng.randrange(1, 5), lanes)
            span = int(interp.eval_expr(gather, env0).data.max()) + 1
            out_span = int(interp.eval_expr(idx, env0).data.max()) + 1
            kind = rng.choice(("f32", "bf16"))
            value = Load("src", VecType(kind, lanes), gather)
            if rng.random() < 0.5:
                value = Cast(VecType("f32", lanes), value)
                out_kind = "f32"
            else:
                out_kind = kind
            if rng.random() < 0.5:
                value = Bop("+", value, Broadcast(Imm(out_kind, 0.25), lanes))
            # store into an allocated intermediate so the speculative path
            # saturates the random statement instead of skipping it
            prog = Program(
                (Param("src", kind, span), Param("out", out_kind, out_span)),
                (Allocate("mid", out_kind, out_span, "mem"),
                 Store("mid", idx, value),
                 Store("out", flat(out_span),
                       Load("mid", VecType(out_kind, out_span),
                            flat(out_span)))))
            assert ir.validate_program(prog).ok, trial
            low, rep = select_program(prog, SelectionConfig(target="all"))
            assert not rep.failed, trial
            saturated = [s for s in rep.statements if s.egraph]
            assert saturated, trial
            difftest(prog, low, range(2))
