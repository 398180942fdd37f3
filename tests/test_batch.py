"""Batched interpretation: inputs with a leading trial axis run as each trial
runs alone, bit for bit, and `cli.run_difftest`, which interprets its seeds
a batch at a time, reports what a loop over single seeds reports."""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsel import cli, interp, ir, rules, selector

import ir_terms
import test_cli
from testkit import corpus_names, corpus_program, target_for

SEEDS = list(range(100))
ODD_SEEDS = [0, 1, -1, -7, 2**63, 2**64 - 1, 2**64, 2**64 + 5, 2**70 + 3, -2**70]

RAMP8 = "(ramp (imm i32 0) (imm i32 1) 8)"
RAMP4 = "(ramp (imm i32 0) (imm i32 1) 4)"
B0 = "(load b (i32 1) (ramp (imm i32 0) (imm i32 1) 1))"
B1 = "(load b (i32 1) (ramp (imm i32 1) (imm i32 1) 1))"

# Tiny programs whose addresses or divisors are read from i32 data, which
# the random fill draws from [0, 16).
TINY = {
    # a load whose index is data; A has 14 lanes, so most seeds read out of bounds
    "gather": ("(param idx i32 8 mem)\n(param A f32 14 mem)\n(param out f32 8 mem)\n"
               f"(store out {RAMP8} (load A (f32 8) (load idx (i32 8) {RAMP8})))\n"),
    # a store whose index is data, so lanes collide
    "scatter": ("(param idx i32 8 mem)\n(param A f32 8 mem)\n(param out f32 16 mem)\n"
                f"(store out (load idx (i32 8) {RAMP8}) (load A (f32 8) {RAMP8}))\n"),
    # an integer divisor read from data
    "divide": ("(param n i32 4 mem)\n(param m i32 4 mem)\n(param out i32 4 mem)\n"
               f"(store out {RAMP4} (div (broadcast (imm i32 100) 4) "
               f"(load n (i32 4) {RAMP4})))\n"),
    # tile and kernel-window bases and strides read from data; the tile
    # store's rows overlap when its stride is below 4
    "tile": ("(param b i32 2 mem)\n(param A f32 48 mem)\n(param K f32 20 mem)\n"
             "(param out f32 64 mem)\n"
             f"(store out {RAMP8} (call tile_load (var A) {B0} {B1} "
             "(imm i32 2) (imm i32 4)))\n"
             f"(evaluate (call tile_store (var out) (add (imm i32 8) {B0}) "
             f"(div {B1} (imm i32 4)) (imm i32 4) (call tile_load (var A) {B0} "
             "(imm i32 4) (imm i32 2) (imm i32 4))))\n"
             "(store out (ramp (imm i32 50) (imm i32 1) 10) "
             f"(call ConvolutionShuffle (var K) {B1} (imm i32 5) (imm i32 2)))\n"),
}

# `divide` with m / 15 added: 1 where an m lane is 15, so it diverges there
DIVIDE_OFF = ("(param n i32 4 mem)\n(param m i32 4 mem)\n(param out i32 4 mem)\n"
              f"(store out {RAMP4} (add (div (broadcast (imm i32 100) 4) "
              f"(load n (i32 4) {RAMP4})) (div (load m (i32 4) {RAMP4}) "
              "(broadcast (imm i32 15) 4))))\n")


def tiny(name):
    prog = ir.parse_program(TINY[name])
    assert ir.validate_program(prog).ok
    return prog


def run_or_error(p, inputs, lints=None):
    try:
        return interp.run_program(p, inputs, lint_sink=lints)
    except interp.EvalError as e:
        return str(e)


def assert_rows(batch, singles):
    """Row t of every buffer of `batch` has the dtype and bytes of singles[t]."""
    for t, single in enumerate(singles):
        assert list(batch) == list(single)
        for name, buf in single.items():
            got = batch[name].data
            assert got.shape == (len(singles), *buf.data.shape), name
            assert (batch[name].kind, batch[name].location) == (buf.kind, buf.location)
            assert got.dtype == buf.data.dtype, name
            assert got[t].tobytes() == buf.data.tobytes(), (name, t)


def reference_difftest(prog, lowered, trials, seed):
    """The difftest trial loop, one seed per interpreter run: (seeds,
    divergence), or the text of the first error."""
    seeds = []
    for s in range(seed, seed + trials):
        seeds.append(s)
        inputs = interp.random_inputs(prog, s)
        try:
            out_a = interp.run_program(prog, inputs)
            out_b = interp.run_program(lowered, inputs)
        except interp.EvalError as e:
            return str(e)
        for prm in prog.params:
            a, b = out_a[prm.name].data, out_b[prm.name].data
            if a.tobytes() != b.tobytes():
                lane = interp.first_differing_lane(a, b)
                return seeds, {"seed": s, "buffer": prm.name, "lane": lane,
                               "lhs": float(a[lane]), "rhs": float(b[lane])}
    return seeds, None


def batched_difftest(prog, trials, seed, config=None, ruleset=None):
    config = config or selector.SelectionConfig()
    try:
        res, _ = cli.run_difftest(prog, "p", trials, seed, config, ruleset=ruleset)
    except interp.EvalError as e:
        return str(e)
    return res.seeds, res.divergence


@pytest.fixture(scope="module")
def lowered_corpus():
    out = {}
    for name in corpus_names():
        config = selector.SelectionConfig(target=target_for(name))
        out[name] = selector.select_program(corpus_program(name), config)[0]
    return out


class TestRandomInputs:
    @pytest.mark.parametrize("name", corpus_names())
    def test_rows_are_single_seed_fills(self, name):
        prog = corpus_program(name)
        batch = interp.random_inputs(prog, ODD_SEEDS)
        assert_rows(batch, [interp.random_inputs(prog, s) for s in ODD_SEEDS])

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.sampled_from(ir.SCALAR_KINDS), st.integers(0, 40)),
                    max_size=5),
           st.lists(st.one_of(st.sampled_from(ODD_SEEDS), st.integers(-2**70, 2**70)),
                    min_size=1, max_size=6))
    def test_rows_of_any_program(self, params, seeds):
        prog = ir.Program(tuple(ir.Param(f"p{i}", kind, n)
                                for i, (kind, n) in enumerate(params)), ())
        batch = interp.random_inputs(prog, seeds)
        assert_rows(batch, [interp.random_inputs(prog, s) for s in seeds])

    def test_a_sequence_of_one_seed_keeps_its_axis(self):
        prog = corpus_program("conv1d_k8")
        batch = interp.random_inputs(prog, range(3, 4))
        assert batch["I"].data.shape == (1, 264)


class TestRunProgram:
    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_rows_equal_single_runs(self, name, lowered_corpus):
        source = corpus_program(name)
        inputs = interp.random_inputs(source, SEEDS)
        for prog in (source, lowered_corpus[name]):
            batch = interp.run_program(prog, inputs)
            assert_rows(batch, [interp.run_program(prog, interp.random_inputs(source, s))
                                for s in SEEDS])

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_data_dependent_addresses_per_trial(self, name):
        prog = tiny(name)
        single_lints = [[] for _ in SEEDS]
        singles = [run_or_error(prog, interp.random_inputs(prog, s), lints)
                   for s, lints in zip(SEEDS, single_lints)]
        ok = [s for s, out in zip(SEEDS, singles) if not isinstance(out, str)]
        assert 0 < len(ok)
        lints = []
        batch = interp.run_program(prog, interp.random_inputs(prog, ok), lint_sink=lints)
        assert_rows(batch, [singles[s] for s in ok])
        assert bool(lints) == any(single_lints[s] for s in ok)
        if len(ok) < len(SEEDS):  # a batch with a failing trial raises
            with pytest.raises(interp.EvalError):
                interp.run_program(prog, interp.random_inputs(prog, SEEDS))

    def test_colliding_lanes_last_wins_per_trial(self):
        prog = tiny("scatter")
        idx = np.array([[3, 3, 1, 3, 0, 1, 2, 2], [0, 1, 2, 3, 4, 5, 6, 7]])
        a = np.arange(16, dtype=np.float32).reshape(2, 8)
        out = interp.run_program(prog, {"idx": idx, "A": a, "out": np.zeros((2, 16))})
        assert out["out"].data[0, :4].tolist() == [4.0, 5.0, 7.0, 3.0]
        assert out["out"].data[1, :8].tolist() == a[1].tolist()

    def test_leading_axes_must_agree(self):
        prog = tiny("gather")
        inputs = interp.random_inputs(prog, [1, 2])
        inputs["A"] = inputs["A"].data[0]
        with pytest.raises(interp.EvalError, match="leading axes"):
            interp.run_program(prog, inputs)


class TestDifftest:
    @pytest.mark.parametrize("name", corpus_names())
    def test_corrupted_ruleset_matches_per_trial_loop(self, name):
        prog = corpus_program(name)
        config = selector.SelectionConfig(target=target_for(name))
        lowered = selector.select_program(prog, config,
                                          ruleset=rules.corrupted_ruleset())[0]
        # more than one batch: a batch has at most 32 rows on the corpus
        assert cli.difftest_rows(36, prog, lowered) < 36
        want = reference_difftest(prog, lowered, 36, 0)
        got = batched_difftest(prog, 36, 0, config, rules.corrupted_ruleset())
        assert got == want

    @pytest.mark.parametrize("name", sorted(TINY))
    def test_tiny_programs_match_per_trial_loop(self, name):
        prog = tiny(name)
        lowered = selector.select_program(prog, selector.SelectionConfig())[0]
        for seed in range(0, 30, 6):
            assert batched_difftest(prog, 20, seed) == reference_difftest(
                prog, lowered, 20, seed)

    def test_divergence_and_error_orders(self, monkeypatch):
        prog, off = tiny("divide"), ir.parse_program(DIVIDE_OFF)
        monkeypatch.setattr(selector, "select_program",
                            lambda p, config, ruleset=None: (off, SimpleNamespace(ok=True)))
        # a budget of eight rows of these 4-lane programs, so 24 trials run
        # as three batches
        monkeypatch.setattr(cli, "LANE_BUDGET", 32)
        rows = cli.difftest_rows(24, prog, off)
        assert rows == 8
        fails = {s for s in range(80)
                 if isinstance(run_or_error(prog, interp.random_inputs(prog, s)), str)}
        seen = set()
        for seed in range(48):
            want = reference_difftest(prog, off, 24, seed)
            assert batched_difftest(prog, 24, seed) == want
            if isinstance(want, str):
                first = min(fails & set(range(seed, seed + 24)))
                seen.add("error in the first batch" if first < seed + rows
                         else "error in a later batch")
            elif want[1] is not None:
                s = want[1]["seed"]
                batch_end = s + rows - (s - seed) % rows
                if fails & set(range(s + 1, batch_end)):
                    seen.add("divergence before an error in its batch")
        assert seen == {"error in the first batch", "error in a later batch",
                        "divergence before an error in its batch"}

    def test_batch_rows_follow_the_widest_value(self):
        # widest values: divide 4 lanes; conv1d_k8 2,048 (source) and 512
        # (lowered); matmul_standard 8,192
        divide, conv = tiny("divide"), corpus_program("conv1d_k8")
        matmul = corpus_program("matmul_standard")
        assert [ir.widest_lanes(p) for p in (divide, conv, matmul)] == [4, 2048, 8192]
        assert cli.difftest_rows(100, divide) == 100
        assert cli.difftest_rows(100, conv) == cli.LANE_BUDGET // 2048
        assert cli.difftest_rows(100, divide, matmul) == cli.LANE_BUDGET // 8192
        assert cli.difftest_rows(0, conv) == 1
        assert ir.widest_lanes(ir.Program()) == 1


    def test_batch_rows_follow_the_widest_buffer(self):
        # every buffer takes the trial axis: a 131,072-lane parameter read
        # one lane at a time, and conv2d_outer_ry's 2,112-lane buffer
        wide = ir.parse_program("(param a f32 131072 mem)\n(param o f32 1 mem)\n"
                                "(store o (imm i32 0) (load a (f32 1) (imm i32 0)))\n")
        conv = corpus_program("conv2d_outer_ry")
        assert [ir.widest_lanes(p) for p in (wide, conv)] == [1, 2048]
        assert cli.difftest_rows(100, wide) == 1
        assert cli.difftest_rows(100, conv) == cli.LANE_BUDGET // 2112 == 31


class TestFirstFailure:
    # d[a] against d[a] % 13 over one lane: the read raises where a is 14
    # or 15, past d's 14 lanes, and the sides differ where d[a] is 13 or more
    PARAMS = ir.Program((ir.Param("a", "i32", 1), ir.Param("d", "i32", 14)))
    LHS = ir.Load("d", ir.VecType("i32", 1), ir.Load("a", ir.VecType("i32", 1), ir.Imm("i32", 0)))
    RHS = ir.Bop("%", LHS, ir.Imm("i32", 13))

    def test_expression_sides_in_batches(self, monkeypatch):
        """Over expression sides, with `rows` set, `first_failure` reports
        what checking the seeds one at a time reports, at the position in
        `seeds`: a difference before a raising seed in its batch wins, an
        error in a later batch is its first failing seed's, and a lone
        seed, a whole call's or a last batch's, runs without a trial axis."""
        seeds = [7 * i + 1000 for i in range(150)]  # a position is not a seed's offset
        alone = []
        for s in seeds:
            try:
                alone.append(interp.compare_sides(
                    self.LHS, self.RHS, interp.random_inputs(self.PARAMS, s)))
            except interp.EvalError as e:
                alone.append(e)
        fails = [i for i, o in enumerate(alone) if o is not None]
        compare, batch_rows = interp.compare_sides, []

        def spy(lhs, rhs, buffers, shapes=(), memo=None):
            batch_rows.append(buffers["a"].data.shape[:-1])
            return compare(lhs, rhs, buffers, shapes, memo)

        monkeypatch.setattr(interp, "compare_sides", spy)
        seen = set()
        for rows in (None, 1, 3, 5):
            for start in range(0, 110):
                window = seeds[start:start + 1 + start % 40]
                first = next((i for i in fails if start <= i < start + len(window)), None)
                got = interp.first_failure(self.LHS, self.RHS, self.PARAMS, window, rows=rows)
                if first is None:
                    assert got is None
                    continue
                pos, want = first - start, alone[first]
                assert got[0] == pos
                if isinstance(want, Exception):
                    assert (type(got[1]), str(got[1])) == (type(want), str(want))
                    seen.add("error in a later batch" if rows and pos >= rows else "error")
                else:
                    assert repr(got[1]) == repr(want[1])
                    batch_end = (pos // rows + 1) * rows if rows else len(window)
                    if any(isinstance(alone[i], Exception)
                           for i in range(first + 1, start + min(batch_end, len(window)))):
                        seen.add("difference before an error in its batch")
        assert seen == {"error", "error in a later batch",
                        "difference before an error in its batch"}
        assert () in batch_rows and (1,) not in batch_rows


def typed_widest_lanes(p):
    """`ir.widest_lanes` as one full typed walk gives it: the most lanes of
    any node `ir._typed` types without a lane error, else 1."""
    types = {}
    for _, s in ir.walk_stmts(p.body):
        for e in ir.children(s):
            ir._typed(e, None, "e", types)
    return max((n for _, n in types.values() if isinstance(n, int)), default=1)


class TestWidestLanes:
    @pytest.mark.parametrize("name", corpus_names())
    def test_corpus_and_lowered(self, name, lowered_corpus):
        for prog in (corpus_program(name), lowered_corpus[name]):
            assert ir.widest_lanes(prog) == typed_widest_lanes(prog)

    @pytest.mark.parametrize("case", test_cli.MALFORMED_CALLS)
    def test_malformed_calls(self, case):
        prog = ir.parse_program(test_cli.MALFORMED_CALLS[case][0])
        assert ir.widest_lanes(prog) == typed_widest_lanes(prog)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_drawn_terms_and_lane_errors_over_them(self, data):
        """Well-typed draws, and draws under a node whose lanes are an
        error, broadcast three times so that an error that fails to pass up
        would show: a sum with a wider broadcast of itself, a shuffle index
        past its source, a reduction that does not divide, a cast to other
        lanes; and a loop around them all."""
        vtype = data.draw(ir_terms.TYPES)
        s = data.draw(ir_terms.stmts(vtype))
        e, n = s.value, vtype.lanes
        bad = tuple(ir.Evaluate(ir.Broadcast(x, 3)) for x in (
            ir.Bop("+", e, ir.Broadcast(e, 2)), ir.Shuffle(e, (0, n)),
            ir.VectorReduceAdd(n + 1, e), ir.Cast(ir.VecType(vtype.kind, n + 1), e)))
        for body in ((s,), bad, (ir.For("i", 0, 2, (s, *bad)),)):
            prog = ir.Program((), body)
            assert ir.widest_lanes(prog) == typed_widest_lanes(prog)


# `tensorsel difftest` output and exit code, as the one-seed-per-run loop gave
CLI_OUTPUT = {
    "gather": ([], 1, "", "error: body[0]: buffer 'A' index 14 out of bounds\n"),
    "gather-seed-9": (["--seed", "9"], 1, "",
                      "error: body[0]: buffer 'A' index 15 out of bounds\n"),
    "scatter": ([], 0, "scatter: 100 trials: ok\n", ""),
    "divide": ([], 1, "", "error: body[0]: integer / by zero\n"),
    "tile": ([], 1, "tile: 100 trials: selection failed\n", ""),
}


@pytest.mark.parametrize("case", sorted(CLI_OUTPUT))
def test_cli_difftest_output(case, tmp_path, capsys):
    name = case.split("-")[0]
    argv, code, out, err = CLI_OUTPUT[case]
    path = tmp_path / f"{name}.sexp"
    path.write_text(TINY[name])
    try:
        got = cli.main(["difftest", str(path), *argv])
    except SystemExit as e:
        got = e.code
    assert (got, *capsys.readouterr()) == (code, out, err)


# Programs with buffer-free subexpressions that `run_difftest` memoizes.
MAX = 2**31 - 1
# statement 0 reads A at data lanes, out of bounds on some seeds; statement
# 1's buffer-free index i*MAX - i*MAX overflows i32 only at i = 2
LATE_OVERFLOW = (
    "(param idx i32 8 mem)\n(param A f32 15 mem)\n(param out f32 8 mem)\n"
    f"(store out {RAMP8} (load A (f32 8) (load idx (i32 8) {RAMP8})))\n"
    f"(for i 0 4 (store out (ramp (sub (mul (var i) (imm i32 {MAX})) "
    f"(mul (var i) (imm i32 {MAX}))) (imm i32 1) 8) "
    f"(load A (f32 8) {RAMP8})))\n")
# per iteration, 3,072 lanes of buffer-free values: the lane cap is reached at i = 85
RAMP1024 = "(ramp (imm i32 0) (imm i32 1) 1024)"
PAST_CAP = ("(param A f32 1024 mem)\n(param out f32 1024 mem)\n"
            f"(for i 0 100 (store out {RAMP1024} (add (load A (f32 1024) {RAMP1024}) "
            "(cast (f32 1024) (broadcast (var i) 1024)))))\n")


def shifted(offset):
    """A program whose buffer-free index is the ramp from `offset`; those of
    two offsets differ only in the immediate."""
    return ir.parse_program(
        "(param A f32 16 mem)\n(param out f32 16 mem)\n"
        f"(for i 0 2 (store out (ramp (add (var i) (imm i32 {offset})) (imm i32 1) 8) "
        f"(mul (load A (f32 8) {RAMP8}) (cast (f32 8) (broadcast (var i) 8)))))\n")


def selected(prog):
    return selector.select_program(prog, selector.SelectionConfig())[0]


class TestDifftestMemo:
    def test_late_overflow_in_a_buffer_free_index(self):
        prog = ir.parse_program(LATE_OVERFLOW)
        lowered = selected(prog)
        texts = {}
        for seed in range(0, 40, 4):
            want = reference_difftest(prog, lowered, 12, seed)
            assert batched_difftest(prog, 12, seed) == want
            texts[want.split(": ", 1)[0]] = want
        # the first seed fails at statement 0 on some starts, and at the
        # overflow, after two iterations were memoized, on others
        assert sorted(texts) == ["body[0]", "body[1][0]"]
        assert texts["body[1][0]"] == (
            "body[1][0]: i32 range exceeded (max 4294967294, min 4294967294)")

    def test_memoized_arrays_are_read_only(self):
        prog = ir.parse_program(PAST_CAP.replace("0 100", "0 3"))
        memo = interp.EvalMemo()
        inputs = interp.random_inputs(prog, [0, 1])
        first = interp.run_program(prog, inputs, memo=memo)
        assert len(memo.values) == 9  # three subexpressions at three bindings
        for v in memo.values.values():
            with pytest.raises(ValueError, match="read-only"):
                v.data[0] = 7
        again = interp.run_program(prog, inputs, memo=memo)
        assert len(memo.values) == 9
        singles = [interp.run_program(prog, interp.random_inputs(prog, s)) for s in (0, 1)]
        assert_rows(first, singles)
        assert_rows(again, singles)
        assert batched_difftest(prog, 10, 0) == reference_difftest(
            prog, selected(prog), 10, 0)

    def test_consecutive_difftests_share_nothing(self, monkeypatch):
        # the lowered side is a re-parse, so no expression object is shared
        # and a value served to one side alone diverges
        monkeypatch.setattr(selector, "select_program", lambda p, config, ruleset=None: (
            ir.parse_program(ir.print_program(p)), SimpleNamespace(ok=True)))
        fresh = {off: batched_difftest(shifted(off), 10, 3) for off in (0, 8)}
        for _ in range(3):
            for off in (0, 8):
                prog = shifted(off)
                got = batched_difftest(prog, 10, 3)
                assert got == fresh[off] == reference_difftest(prog, shifted(off), 10, 3)
                del prog

    def test_values_past_the_lane_cap(self):
        prog = ir.parse_program(PAST_CAP)
        memo = interp.EvalMemo()
        interp.run_program(prog, interp.random_inputs(prog, [5]), memo=memo)
        assert memo.lanes <= interp.MEMO_LANES < 3 * 1024 * 100
        assert 0 < len(memo.values) < 3 * 100
        assert batched_difftest(prog, 16, 5) == reference_difftest(
            prog, selected(prog), 16, 5)
