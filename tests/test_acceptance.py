"""Acceptance suite: one test per criterion, each printing a PASS line.

Run as `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines alongside pytest's own verdicts.
"""

import random
import time

import numpy as np
from tensorsel import cli, interp, ir, layout, rules, selector
from tensorsel.egraph import ematch, extract_best, run_schedule

from testkit import CORPUS, corpus_names, corpus_program, target_for

SEEDS_100 = range(100)
BUDGET = selector.SelectionConfig().node_budget


def _difftest(prog, lowered, seeds):
    for seed in seeds:
        ins = interp.random_inputs(prog, seed)
        a = interp.run_program(prog, ins)
        b = interp.run_program(lowered, ins)
        for prm in prog.params:
            assert a[prm.name].data.tobytes() == b[prm.name].data.tobytes(), \
                f"seed {seed} buffer {prm.name}"


def _report(n, text):
    print(f"\nACCEPTANCE {n}: PASS - {text}")


def test_criterion_1_matmul_lowering():
    t0 = time.perf_counter()
    prog = corpus_program("matmul_standard")
    low, rep = selector.select_program(prog,
                                       selector.SelectionConfig(target="amx"))
    assert [s.outcome for s in rep.statements] == ["lowered"] * 3
    assert "tile_zero" in rep.statements[0].intrinsics
    assert "tile_matmul" in rep.statements[1].intrinsics
    assert "tile_store" in rep.statements[2].intrinsics
    _difftest(prog, low, SEEDS_100)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"{elapsed:.1f}s"
    _report(1, f"standard-layout MatMul lowers to tile_zero/tile_matmul/tile_store and "
               f"difftests bit-exact over 100 seeds in {elapsed:.1f}s")


def test_criterion_2_support_matrix():
    schedule = {
        "matmul_vnni": 0, "matmul_standard": 0,
        "matmul_reordered_vnni": 0, "matmul_reordered_standard": 0,
        "matmul_preloadA_vnni": 0, "matmul_preloadA_standard": 0,
        "matmul_preloadB_vnni": 0, "matmul_preloadB_standard": 1,
    }
    for name, want in schedule.items():
        try:
            code = cli.main(["select", str(CORPUS / f"{name}.sexp"),
                             "--target", "amx", "-o", "/dev/null"])
        except SystemExit as e:  # must exit cleanly, never crash
            code = e.code
        assert code == want, f"{name}: exit {code}, wanted {want}"
    _report(2, "support matrix: reference/reordered/preload-A lower in both layouts, "
               "preload-B lowers in VNNI and fails cleanly in standard (7+1)")


def test_criterion_3_convolution_lowering(monkeypatch):
    prog = corpus_program("conv1d_k8")
    cfg = selector.SelectionConfig(target="wmma")
    with monkeypatch.context() as m:  # stop before shuffle desugaring
        m.setattr(selector, "desugar_shuffles", lambda p: p)
        low, rep = selector.select_program(prog, cfg)
    assert rep.ok
    update = next(s for _, s in ir.walk_stmts(low.body)
                  if isinstance(s, ir.Store) and s.buffer == "conv"
                  and isinstance(s.value, ir.Call)
                  and s.value.name == "wmma_mma")
    a, b, c = update.value.args
    # m32n8k16: a is 32x16, b is 16x8
    assert [int(x.value) for x in a.args[3:]] == [32, 16]
    assert [int(x.value) for x in b.args[3:]] == [16, 8]
    assert rep.temporaries == [{"name": "swizzle0", "lanes": 128,
                                "hoist_depth": 0}]
    shuffles = [e for _, s in ir.walk_stmts(low.body)
                if isinstance(s, ir.Store)
                for e in ir.walk_exprs(s.value)
                if isinstance(e, ir.Call) and e.name == "ConvolutionShuffle"]
    assert shuffles
    full, rep2 = selector.select_program(prog,
                                         selector.SelectionConfig(target="wmma"))
    _difftest(prog, full, SEEDS_100)
    _report(3, "conv1d_k8 lowers to wmma_mma at m32n8k16 with a 128-lane "
               "ConvolutionShuffle temporary; 100-seed difftest bit-exact")


def _foldl32(terms):
    acc = np.float32(terms[0])
    for t in terms[1:]:
        acc = np.float32(acc + np.float32(t))
    return acc


def test_criterion_4_layout_oracles():
    rng = random.Random(2026)
    cases = {"convolution": 0, "downsample": 0, "upsample": 0}
    while min(cases.values()) < 200:
        s = rng.choice((1, 2, 3))
        p = rng.choice((1, 2, 4)) if s == 1 else 1
        l = rng.randrange(1, 17)
        k = rng.randrange(1, 33)
        if p > 1:
            k = max(p, (k // p) * p)
        spec = layout.ToeplitzSpec(l=l, k=k, s=s, p=p)
        if cases[spec.mode] >= 200:
            continue
        cases[spec.mode] += 1
        kern = np.array([rng.uniform(-1, 1) for _ in range(spec.kernel_length)],
                        np.float32)
        mat = layout.matrix_for(kern, spec)
        rows = layout.matrix_rows(spec)
        assert mat.shape == (rows, k)
        window = np.array([rng.uniform(-1, 1) for _ in range(rows)], np.float32)
        for x in range(k):
            got = _foldl32([np.float32(window[y]) * np.float32(mat[y, x])
                            for y in range(rows)])
            if p > 1:
                want = _foldl32([
                    np.float32(window[x // p + r])
                    * np.float32(kern[p * r + x % p]) for r in range(l)])
            else:
                want = _foldl32([
                    np.float32(window[s * x + r]) * np.float32(kern[r])
                    for r in range(l)])
            assert got.tobytes() == want.tobytes(), (spec, x)
    _report(4, "toeplitz/strided/polyphase products match the direct "
               "summation bit-exactly on 200 random instances each")


def test_criterion_5_rule_soundness():
    rs = rules.build_default_ruleset()
    semantic = [r for r in rs if r.semantic]
    assert semantic
    for rule in semantic:
        rep = rules.check_rule_soundness(rule, trials=500, seed=1)
        assert rep.ok, (rule.name, rep.counterexample)
        assert rep.checked == 500, rule.name
    bad = rules.corrupted_ramp_rule()
    bad_rep = rules.check_rule_soundness(bad, trials=200, seed=1)
    assert bad_rep.counterexample is not None
    _report(5, f"{len(semantic)} semantic rules pass 500-trial "
               f"interpreter-equivalence fuzzing; the corrupted rule is "
               f"caught within 200 trials")


def test_criterion_6_extraction_optimality():
    from test_egraph import _brute_force_min, _random_graph, _term_cost
    rng = random.Random(61)
    checked = 0
    for _ in range(30):
        g, pool = _random_graph(rng)
        assert g.n_nodes <= 50
        for root in pool[-2:]:
            want = _brute_force_min(g, root)
            got = extract_best(g, root)
            assert _term_cost(got) == want
            checked += 1
    _report(6, f"extraction matches brute-force minimum AST size on 30 random "
               f"e-graphs ({checked} roots)")


def test_criterion_7_phase_ordering_ablation():
    from tensorsel.selector import inject_data_movement
    prog = corpus_program("matmul_standard")
    stmt = inject_data_movement(prog).body[2]
    buffers = ir.buffer_table(prog)
    rs = rules.build_default_ruleset()
    query = rules.matmul_statement_query(16, 32, 16)

    def saturate(categories):
        g = rules.new_graph()
        rules.encode_stmt(g, stmt)
        rules.seed_facts(g, buffers, ir.HARDWARE_SHAPES)
        active = [r for r in rs.for_target("amx") if r.category in categories]
        run_schedule(g, active, 6, BUDGET)
        return g

    without = saturate(("supporting",))
    assert ematch(without, query) == []
    with_axioms = saturate(("supporting", "axiomatic"))
    assert len(ematch(with_axioms, query)) == 1
    _report(7, "the MatMul pattern has zero matches without axiomatic rules "
               "and exactly one with them")


def test_criterion_8_saturation_budget():
    budget = 1_000_000
    rs = rules.build_default_ruleset()
    for name in corpus_names():
        prog = corpus_program(name)
        inj = selector.inject_data_movement(prog)
        buffers = ir.buffer_table(inj)
        shapes = ir.program_shapes(prog)
        for _, s in ir.walk_stmts(inj.body):
            if not isinstance(s, (ir.Store, ir.Evaluate)):
                continue
            t0 = time.perf_counter()
            g = rules.new_graph()
            root = rules.encode_stmt(g, s)
            rules.seed_facts(g, buffers, shapes)
            rep = run_schedule(g, rs.for_target(target_for(name)), 6, budget)
            extract_best(g, root)
            dt = time.perf_counter() - t0
            assert dt < 10.0, (name, dt)
            assert not rep.budget_exceeded
            assert rep.n_classes < budget

    # a convolution statement with the reduction unrolled to 32 taps
    i32 = lambda v: ir.Imm("i32", v)
    taps, lanes = 32, 256 * 32
    i_idx = ir.Ramp(ir.Ramp(i32(0), i32(1), taps), ir.Broadcast(i32(1), taps), 256)
    i_op = ir.Cast(ir.VecType("f32", lanes),
                   ir.Load("I", ir.VecType("f16", lanes), i_idx))
    k_op = ir.Broadcast(ir.Cast(ir.VecType("f32", taps),
                                ir.Load("K", ir.VecType("f16", taps),
                                        ir.Ramp(i32(0), i32(1), taps))), 256)
    acc = ir.Load("conv", ir.VecType("f32", 256),
                  ir.Ramp(i32(0), i32(1), 256))
    stmt = ir.Store("conv", ir.Ramp(i32(0), i32(1), 256),
                    ir.LocToLoc("mem", "wmma", ir.Bop(
                        "+", ir.VectorReduceAdd(256, ir.Bop("*", i_op, k_op)),
                        acc)))
    g = rules.new_graph()
    root = rules.encode_stmt(g, stmt)
    rules.seed_facts(g, {"I": ("f16", 8500, "mem"), "K": ("f16", 32, "mem"),
                         "conv": ("f32", 256, "wmma")}, ir.HARDWARE_SHAPES)
    t0 = time.perf_counter()
    rep = run_schedule(g, rs.for_target("wmma"), 6, budget)
    extract_best(g, root)
    dt = time.perf_counter() - t0
    assert dt < 10.0 and rep.n_classes < budget
    _report(8, f"every corpus statement saturates and extracts within 10s "
               f"under the 1e6-class budget; 32-tap unrolled conv uses "
               f"{rep.n_classes} classes in {dt:.1f}s")


def test_criterion_9_determinism_and_idempotence():
    for name in corpus_names():
        prog = corpus_program(name)
        cfg = selector.SelectionConfig(target=target_for(name))
        low1, rep1 = selector.select_program(prog, cfg)
        low2, rep2 = selector.select_program(prog, cfg)
        assert low1 == low2, name
        assert rep1.to_json(timing=False) == rep2.to_json(timing=False), name
        low3, rep3 = selector.select_program(low1, cfg)
        assert low3 == low1, name
        assert all(not s.outcome.startswith("failed") or name.endswith(
            "preloadB_standard") for s in rep3.statements), name
    _report(9, "selection is deterministic across runs and idempotent on its "
               "own output for the full corpus")
