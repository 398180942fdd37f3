"""The interpreter's scalar fast paths against independent references.

One-lane i32 immediates, loop variables and ramps are range-checked on
Python ints, bounds with one reduction, store collisions with a set of the
lanes, and broadcasts repeat one lane, concatenate a few copies or tile
many.  Each test here computes the expected value or error text on its
own, with Python ints or the numpy call the fast path replaced, and
requires it bit for bit."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import array_shapes, arrays

from tensorsel import cli, interp, ir, rules
from tensorsel.ir import (Broadcast, For, Imm, Load, Param, Program, Ramp,
                          ShapeDecl, Store, Var, VecType)

I32_MIN, I32_MAX = -(2**31), 2**31 - 1


def overflow_text(lanes):
    """The I32Overflow text the array check gives for these lane values."""
    return f"i32 range exceeded (max {max(lanes)}, min {min(lanes)})"


def env_with(**buffers):
    store = interp.BufferStore()
    for name, (kind, data) in buffers.items():
        arr = np.array(data, np.int64 if kind == "i32" else np.float32)
        store[name] = interp.Buffer(kind, "mem", arr)
    return interp.Env(buffers=store)


def load(name, kind, lanes):
    return Load(name, VecType(kind, lanes), Ramp(Imm("i32", 0), Imm("i32", 1), lanes))


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


class TestScalarI32:
    @pytest.mark.parametrize("v", [I32_MIN - 1, I32_MIN, I32_MAX, I32_MAX + 1])
    def test_imm_at_the_bounds(self, v):
        if I32_MIN <= v <= I32_MAX:
            got = interp.eval_expr(Imm("i32", v), env_with())
            assert got.kind == "i32"
            assert_same_bits(got.data, np.array([v], np.int64))
        else:
            with pytest.raises(interp.I32Overflow) as err:
                interp.eval_expr(Imm("i32", v), env_with())
            assert str(err.value) == overflow_text([v])

    @given(st.integers(I32_MIN - 2**33, I32_MAX + 2**33))
    def test_imm_and_var_agree_with_int_reference(self, v):
        env = env_with()
        env.bindings["i"] = v
        for e in (Imm("i32", v), Var("i")):
            if I32_MIN <= v <= I32_MAX:
                assert_same_bits(interp.eval_expr(e, env).data, np.array([v], np.int64))
            else:
                with pytest.raises(interp.I32Overflow) as err:
                    interp.eval_expr(e, env)
                assert str(err.value) == overflow_text([v])


def ramp_reference(b, s, n):
    """The lanes of a scalar i32 ramp as the array path computes them, or
    the error text it raises."""
    lanes = [b + s * i for i in range(n)]
    if lanes and (max(lanes) > I32_MAX or min(lanes) < I32_MIN):
        return overflow_text(lanes)
    return b + s * np.arange(n)


def check_ramp(b, s, n, env=None, base=None):
    env = env or env_with()
    e = Ramp(base or Imm("i32", b), Imm("i32", s), n)
    want = ramp_reference(b, s, n)
    if isinstance(want, str):
        with pytest.raises(interp.I32Overflow) as err:
            interp.eval_expr(e, env)
        assert str(err.value) == want
    else:
        got = interp.eval_expr(e, env)
        assert got.kind == "i32"
        assert_same_bits(got.data, want)


@st.composite
def edge_ramps(draw):
    """(base, stride, steps) with the last lane just inside or just past
    the upper or lower bound, and every other lane inside."""
    n = draw(st.integers(2, 40))
    s = draw(st.integers(1, (2**32 - 1) // n))
    upper = draw(st.booleans())
    past = draw(st.booleans())
    if not upper:
        s = -s
    bound = I32_MAX if upper else I32_MIN
    b = bound - s * (n - 2 if past else n - 1)
    return b, s, n


class TestScalarRamp:
    @settings(max_examples=300)
    @given(edge_ramps())
    def test_only_the_last_lane_crosses(self, ramp):
        check_ramp(*ramp)

    @settings(max_examples=300)
    @given(st.integers(I32_MIN, I32_MAX), st.integers(I32_MIN, I32_MAX),
           st.integers(1, 40))
    def test_any_in_range_base_and_stride(self, b, s, n):
        check_ramp(b, s, n)

    @pytest.mark.parametrize("s", [-3, 0, 3])
    @pytest.mark.parametrize("n", [1, 2, 7])
    def test_first_lane_out_of_range(self, s, n):
        # a base read from data is not range-checked when loaded
        for b in (I32_MIN - 1, I32_MAX + 1):
            env = env_with(x=("i32", [b]))
            check_ramp(b, s, n, env, base=load("x", "i32", 1))

    @pytest.mark.parametrize("s", [-5, 0, 5])
    def test_zero_steps(self, s):
        check_ramp(I32_MAX, s, 0)

    def test_batched_base_takes_the_array_path(self):
        env = env_with(x=("i32", [[3], [I32_MAX - 1]]))
        e = Ramp(load("x", "i32", 1), Imm("i32", 1), 3)
        with pytest.raises(interp.I32Overflow) as err:
            interp.eval_expr(e, env)
        assert str(err.value) == overflow_text([3, 4, 5, I32_MAX - 1, I32_MAX, I32_MAX + 1])

    @given(st.integers(-8, 8), st.integers(-8, 8), st.integers(1, 6))
    def test_float_ramp_keeps_its_path(self, b, s, n):
        e = Ramp(Imm("f32", float(b)), Imm("f32", float(s)), n)
        got = interp.eval_expr(e, env_with())
        want = np.float32(b) + np.arange(n).astype(np.float32) * np.float32(s)
        assert_same_bits(got.data, want)


def first_bad(idx, length):
    return next(v for v in idx.ravel().tolist() if v < 0 or v >= length)


class TestBounds:
    @settings(max_examples=300)
    @given(arrays(np.int64, array_shapes(min_dims=1, max_dims=2, max_side=12),
                  elements=st.integers(-60, 90)),
           st.integers(1, 64))
    def test_names_the_first_bad_index(self, idx, length):
        if ((idx >= 0) & (idx < length)).all():
            interp._check_bounds("buf", idx, length)
            return
        with pytest.raises(interp.OutOfBounds) as err:
            interp._check_bounds("buf", idx, length)
        assert err.value.index == first_bad(idx, length)
        assert str(err.value) == f"buffer 'buf' index {first_bad(idx, length)} out of bounds"

    @pytest.mark.parametrize("bad", [-(2**63), -1, 8, 2**63 - 1])
    def test_int64_extremes(self, bad):
        idx = np.array([0, 7, bad, -2], np.int64)
        with pytest.raises(interp.OutOfBounds) as err:
            interp._check_bounds("buf", idx, 8)
        assert err.value.index == bad

    def test_empty_index_is_in_bounds(self):
        interp._check_bounds("buf", np.zeros(0, np.int64), 0)


def put_with_unique(dst, idx, data):
    """The collision test by np.unique: dst[..., idx] = data, last lane
    wins; True if lanes collided."""
    if len(np.unique(idx)) == len(idx):
        dst[..., idx] = data
        return False
    for pos in range(len(idx)):
        dst[..., idx[pos]] = data[..., pos]
    return True


def scatter_reference(dst, idx, data):
    if idx.ndim == 1:
        return put_with_unique(dst, idx, data)
    collided = False
    for t in np.ndindex(idx.shape[:-1]):
        collided |= put_with_unique(dst[t], idx[t], data[t])
    return collided


@st.composite
def stores(draw):
    """(buffer length, index array, trials or None): 1 to 200 lanes, with
    or without repeats, shared by every trial or one row per trial."""
    n = draw(st.integers(1, 200))
    repeats = draw(st.booleans())
    length = draw(st.integers(n if not repeats else 1, 256))
    trials = draw(st.sampled_from([None, 1, 3]))
    per_trial = trials is not None and draw(st.booleans())
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = trials if per_trial else 1
    if repeats:
        idx = rng.integers(0, length, (rows, n))
    else:
        idx = np.stack([rng.permutation(length)[:n] for _ in range(rows)])
    return length, idx if per_trial else idx[0], trials


class TestCollisions:
    @settings(max_examples=300, deadline=None)
    @given(stores(), st.sampled_from(["f32", "i32"]))
    def test_stored_bytes_and_lints_match_unique(self, store, kind):
        length, idx, trials = store
        lead = () if trials is None else (trials,)
        rng = np.random.default_rng(length)
        dtype = np.int64 if kind == "i32" else np.float32
        start = rng.integers(-9, 9, (*lead, length)).astype(dtype)
        value = rng.integers(-9, 9, (*lead, idx.shape[-1])).astype(dtype)
        env = interp.Env(buffers=interp.BufferStore(
            out=interp.Buffer(kind, "mem", start.copy())))
        interp._scatter("out", idx, interp.VectorValue(kind, value), env)
        want = start.copy()
        collided = scatter_reference(want, idx, value)
        assert_same_bits(env.buffers["out"].data, want)
        assert env.lints == (
            ["store into 'out' has colliding lanes (last wins)"] if collided else [])

    @settings(max_examples=100, deadline=None)
    @given(stores().filter(lambda s: s[1].ndim == 1), st.booleans())
    def test_a_memo_keeps_the_answer_of_a_read_only_address(self, store, read_only):
        length, idx, trials = store
        idx.flags.writeable = not read_only
        lead = () if trials is None else (trials,)
        value = np.arange(idx.size, dtype=np.float32)
        memo = interp.EvalMemo()
        for _ in range(2):  # the second store is answered from the memo
            env = interp.Env(buffers=interp.BufferStore(
                out=interp.Buffer("f32", "mem", np.zeros((*lead, length), np.float32))),
                memo=memo)
            interp._scatter("out", idx, interp.VectorValue("f32", value), env)
            want = np.zeros((*lead, length), np.float32)
            collided = scatter_reference(want, idx, value)
            assert_same_bits(env.buffers["out"].data, want)
            assert bool(env.lints) == collided
        assert memo.distinct == ({id(idx): (idx, not collided)} if read_only else {})


class TestBroadcast:
    @settings(max_examples=200)
    @given(st.integers(1, 6), st.integers(1, 6), st.sampled_from([None, 1, 4]),
           st.sampled_from(["f32", "i32", "bf16"]))
    def test_equals_tile(self, lanes, copies, trials, kind):
        lead = () if trials is None else (trials,)
        data = np.arange(np.prod((*lead, lanes))).reshape(*lead, lanes) - 3
        env = env_with(x=(kind, data))
        got = interp.eval_expr(Broadcast(load("x", kind, lanes), copies), env)
        assert got.kind == kind
        assert_same_bits(got.data, np.tile(env.buffers["x"].data, copies))

    # one lane repeats, up to 16 copies concatenate, more copies tile
    @pytest.mark.parametrize("lanes,copies", [
        (1, 1), (1, 3), (1, 16), (1, 17), (1, 512),
        (3, 2), (32, 16), (3, 17), (32, 256), (256, 2)])
    @pytest.mark.parametrize("trials", [None, 3])
    @pytest.mark.parametrize("kind", ["i32", "f32"])
    def test_each_path_equals_tile(self, lanes, copies, trials, kind):
        lead = () if trials is None else (trials,)
        data = np.arange(np.prod((*lead, lanes))).reshape(*lead, lanes) * 7 - 50
        if kind == "f32":
            data = data / 3 * np.where(data % 2, 1, -1)
        env = env_with(x=(kind, data))
        got = interp.eval_expr(Broadcast(load("x", kind, lanes), copies), env)
        assert got.kind == kind
        assert_same_bits(got.data, np.tile(env.buffers["x"].data, copies))

    @pytest.mark.parametrize("copies", [0, -2])
    def test_fewer_than_one_copy_is_an_eval_error(self, copies):
        with pytest.raises(interp.EvalError, match="cannot broadcast"):
            interp.eval_expr(Broadcast(Imm("i32", 1), copies), env_with())


class TestShapeRegistry:
    def test_memoized_registry_is_the_programs_own(self):
        a = Program(shapes=(ShapeDecl("amx", 16, 16, 16),))
        b = Program(shapes=[ShapeDecl("wmma", 8, 16, 32)])
        for p in (a, b, a, Program(), b):
            assert interp.shape_registry(p) == frozenset(
                (s.target, s.m, s.k, s.n) for s in ir.program_shapes(p))
        assert interp.shape_registry(a) != interp.shape_registry(b)


def test_corrupted_ramp_counterexample_is_pinned():
    """The counterexample the soundness fuzzer finds for the off-by-one
    ramp rule at seed 1, as the array-checked interpreter found it."""
    rep = rules.check_rule_soundness(rules.corrupted_ramp_rule(), 200, 1)
    assert rep.checked == 1
    inst, detail = rep.counterexample
    assert detail == ("value", 9, 33, 34)
    assert [type(x) for x in detail[2:]] == [np.int64, np.int64]


LOOP_PAST_I32 = ("(param out i32 4 mem) (for i 2147483647 2 "
                 "(store out (ramp (imm i32 0) (imm i32 1) 1) (var i)))\n")


def loop_program(lo, extent):
    store = Store("out", Ramp(Imm("i32", 0), Imm("i32", 1), 1), Var("i"))
    return Program(params=(Param("out", "i32", 4),), body=(For("i", lo, extent, (store,)),))


class TestLoopRange:
    @pytest.mark.parametrize("lo,extent,ok", [
        (I32_MAX, 2, False), (I32_MAX, 1, True), (I32_MIN, 1, True),
        (I32_MIN - 1, 3, False), (I32_MIN - 5, 0, True), (I32_MAX + 1, 0, True),
        (0, 2**31, True), (0, 2**31 + 1, False)])
    def test_validate_checks_the_values_the_variable_takes(self, lo, extent, ok):
        errors = ir.validate_program(loop_program(lo, extent)).errors
        last = lo + extent - 1
        assert errors == ([] if ok else [
            ("body[0]", f"loop variable 'i' range {lo}..{last} overflows i32")])

    def test_interpreter_raises_on_an_unvalidated_loop(self):
        p = loop_program(I32_MAX, 2)
        with pytest.raises(interp.I32Overflow) as err:
            interp.run_program(p, interp.random_inputs(p, 0))
        assert str(err.value) == f"body[0][0]: {overflow_text([I32_MAX + 1])}"

    @pytest.mark.parametrize("command", ["check", "run", "select", "difftest"])
    def test_cli_reports_one_error_and_exits_one(self, command, tmp_path, capsys):
        src = tmp_path / "loop.sexp"
        src.write_text(LOOP_PAST_I32)
        argv = [command, str(src)]
        if command == "run":
            argv += ["-o", str(tmp_path / "out")]
        try:
            code = cli.main(argv)
        except SystemExit as e:
            code = e.code
        assert code == 1
        out = capsys.readouterr()
        lines = (out.out + out.err).splitlines()
        assert [ln for ln in lines if ln.startswith("error:")] == [
            "error: body[0]: loop variable 'i' range 2147483647..2147483648 overflows i32"]
        assert not (tmp_path / "out").exists()
