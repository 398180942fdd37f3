import hashlib
import math
import random
import struct
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsel import interp, ir
from tensorsel.ir import (Bop, Broadcast, Call, For, Imm, Load, Param,
                          Program, Ramp, Shuffle, Store, Var, VecType,
                          VectorReduceAdd)

from testkit import corpus_program


def i32(v):
    return Imm("i32", v)


def flat(n, base=0):
    return Ramp(i32(base), i32(1), n)


def env_with(shapes=(), **buffers):
    store = interp.BufferStore()
    for name, (kind, data) in buffers.items():
        arr = np.array(data, np.int64 if kind == "i32" else np.float32)
        store[name] = interp.Buffer(kind, "mem", arr)
    reg = frozenset((s.target, s.m, s.k, s.n)
                    for s in ir.HARDWARE_SHAPES + tuple(shapes))
    return interp.Env(buffers=store, shapes=reg)


def _bf16_oracle(x):
    """Bit-level round-to-nearest-even oracle for bf16, via exact f64
    arithmetic over the two neighbouring representables."""
    if math.isnan(x):
        return math.nan
    bits = struct.unpack("<I", struct.pack("<f", np.float32(x)))[0]
    lo = struct.unpack("<f", struct.pack("<I", bits & 0xFFFF0000))[0]
    hi_bits = (bits & 0xFFFF0000) + 0x10000
    hi = struct.unpack("<f", struct.pack("<I", hi_bits))[0]
    x = float(np.float32(x))
    if lo == x or math.isinf(lo):
        return lo
    dlo, dhi = abs(x - lo), abs(hi - x)
    if dlo < dhi:
        return lo
    if dhi < dlo:
        return hi
    return lo if ((bits >> 16) & 1) == 0 else hi


class TestRounding:
    def test_exact_value_unchanged(self):
        assert interp.round_bf16(1.0) == 1.0

    def test_tie_to_even(self):
        assert interp.round_bf16(1.00390625) == 1.0

    def test_f16_overflow(self):
        assert interp.round_f16(65520.0) == math.inf
        assert interp.round_f16(-65520.0) == -math.inf

    def test_f16_stays_in_value_set(self):
        rng = random.Random(0)
        for _ in range(200):
            x = np.float32(rng.uniform(-3, 3))
            r = interp.round_f16(x)
            assert np.float16(r) == np.float16(float(r))

    def test_bf16_against_bit_oracle(self):
        rng = random.Random(1)
        samples = [rng.uniform(-2, 2) for _ in range(500)]
        samples += [1e38, -1e38, 4e38, 0.0, -0.0, math.inf, -math.inf]
        with np.errstate(over="ignore"):
            for x in samples:
                got = float(interp.round_bf16(np.float32(x)))
                want = _bf16_oracle(np.float32(x))
                assert got == want or (math.isnan(got) and math.isnan(want)), x

    def test_nan_propagates(self):
        assert math.isnan(interp.round_bf16(math.nan))
        assert math.isnan(interp.round_f16(math.nan))


class TestFirstDifferingLane:
    def test_signed_zero_differs(self):
        a = np.array([1.0, 0.0, 2.0], np.float32)
        b = np.array([1.0, -0.0, 3.0], np.float32)
        assert interp.first_differing_lane(a, b) == 1

    def test_i32_lanes(self):
        a = np.array([4, 5, 6], np.int64)
        assert interp.first_differing_lane(a, a + (a == 6)) == 2


class SplitMix64:
    """Scalar reference for the input stream: SplitMix64 (Steele, Lea and
    Flood, OOPSLA 2014), one draw per call."""

    MASK = 0xFFFFFFFFFFFFFFFF

    def __init__(self, seed):
        self.state = seed & self.MASK

    def next_u64(self):
        self.state = (self.state + 0x9E3779B97F4A7C15) & self.MASK
        z = self.state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & self.MASK
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & self.MASK
        return z ^ (z >> 31)

    def uniform(self):
        """Uniform float in [-1, 1]."""
        return (self.next_u64() >> 11) / float(1 << 53) * 2.0 - 1.0

    def small_int(self):
        """Uniform integer in [0, 16)."""
        return self.next_u64() >> 60


def reference_inputs(p, seed):
    """`interp.random_inputs` drawn lane by lane from the scalar reference."""
    rng = SplitMix64(seed)
    out = {}
    for prm in p.params:
        if prm.kind == "i32":
            data = np.array([rng.small_int() for _ in range(prm.length)], np.int64)
        else:
            raw = np.array([rng.uniform() for _ in range(prm.length)], np.float32)
            data = interp.round_to_kind(raw, prm.kind)
        out[prm.name] = interp.Buffer(prm.kind, prm.location, data)
    return out


def assert_same_buffers(got, want):
    assert list(got) == list(want)
    for name, buf in want.items():
        assert (got[name].kind, got[name].location) == (buf.kind, buf.location)
        assert got[name].data.dtype == buf.data.dtype, name
        assert got[name].data.tobytes() == buf.data.tobytes(), name


class TestSplitMix64:
    def test_reference_sequence(self):
        want = [0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]
        rng = SplitMix64(0)
        assert [rng.next_u64() for _ in want] == want
        assert interp._splitmix64(0, 3).tolist() == want

    def test_ranges(self):
        prog = Program((Param("f", "f32", 200), Param("n", "i32", 200)), ())
        ins = interp.random_inputs(prog, 42)
        assert ((-1.0 <= ins["f"].data) & (ins["f"].data <= 1.0)).all()
        assert ((0 <= ins["n"].data) & (ins["n"].data < 16)).all()


# sha256 (first 16 hex digits) of each corpus program's `random_inputs` at
# seeds 0 and 2**64 - 1, over name, dtype and bytes of every buffer.  Any
# change to the input stream changes these.
PINNED_FILLS = {
    "conv1d_k16": ("56803f35da06301e", "4cb156a044032fe8"),
    "conv1d_k8": ("eb76d379ef42bb29", "884764c2a7233cef"),
    "conv2d_outer_ry": ("022b9f849c0a1aeb", "f4c75261b8279d34"),
    "downsample2_1d": ("a4a29b8f1b45c3c1", "1c9803bb70162684"),
    "matmul_preloadA_standard": ("784e7a4ed625463c", "297527c7f48cd3ed"),
    "matmul_preloadA_vnni": ("784e7a4ed625463c", "297527c7f48cd3ed"),
    "matmul_preloadB_standard": ("784e7a4ed625463c", "297527c7f48cd3ed"),
    "matmul_preloadB_vnni": ("784e7a4ed625463c", "297527c7f48cd3ed"),
    "matmul_reordered_standard": ("2b5ed7dd85922b04", "2b5f4c03a6d3e96b"),
    "matmul_reordered_vnni": ("2b5ed7dd85922b04", "2b5f4c03a6d3e96b"),
    "matmul_standard": ("784e7a4ed625463c", "297527c7f48cd3ed"),
    "matmul_vnni": ("784e7a4ed625463c", "297527c7f48cd3ed"),
    "upsample2_1d": ("283fbeaaf4d46676", "2ff8e3157bae705f"),
}

_params = st.lists(
    st.tuples(st.sampled_from(ir.SCALAR_KINDS),
              st.one_of(st.sampled_from((0, 1)), st.integers(0, 70))),
    max_size=7)
_seeds = st.one_of(st.sampled_from((0, -1, -7, 2**64 - 1, 2**64, 2**70 + 3)),
                   st.integers(-2**70, 2**70))


class TestRandomInputs:
    @settings(max_examples=300, deadline=None)
    @given(_params, _seeds)
    def test_equals_scalar_reference(self, params, seed):
        prog = Program(tuple(Param(f"p{i}", kind, n)
                             for i, (kind, n) in enumerate(params)), ())
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = interp.random_inputs(prog, seed)
        assert_same_buffers(got, reference_inputs(prog, seed))

    def test_no_parameters(self):
        prog = Program((), ())
        assert interp.random_inputs(prog, 3) == {}
        assert interp.random_inputs(prog, [0, 1, 2**64 - 1]) == {}

    @pytest.mark.parametrize("length", (1, 2, 17, 300))
    def test_batched_rows_equal_scalar_reference(self, length):
        """Each row of a batched fill of every kind is its seed's scalar fill."""
        prog = Program(tuple(Param(f"p{i}", kind, length)
                             for i, kind in enumerate(ir.SCALAR_KINDS)), ())
        seeds = [0, 1, -1, 2**63, 2**64 - 1, 2**70 + 3]
        with warnings.catch_warnings(), np.errstate(all="raise"):
            warnings.simplefilter("error")
            got = interp.random_inputs(prog, seeds)
        assert all(b.data.shape == (len(seeds), length) for b in got.values())
        for t, seed in enumerate(seeds):
            row = {name: interp.Buffer(b.kind, b.location, b.data[t]) for name, b in got.items()}
            assert_same_buffers(row, reference_inputs(prog, seed))

    @pytest.mark.parametrize("name", sorted(PINNED_FILLS))
    def test_corpus_fills_are_pinned(self, name):
        prog = corpus_program(name)
        digests = []
        for seed in (0, 2**64 - 1):
            h = hashlib.sha256()
            for buf_name, buf in interp.random_inputs(prog, seed).items():
                h.update(f"{buf_name}:{buf.data.dtype.str}:".encode())
                h.update(buf.data.tobytes())
            digests.append(h.hexdigest()[:16])
        assert tuple(digests) == PINNED_FILLS[name]


class TestEvalExpr:
    def test_vector_reduce_groups(self):
        env = env_with(v=("f32", [1, 2, 3, 4, 5, 6]))
        e = VectorReduceAdd(2, Load("v", VecType("f32", 6), flat(6)))
        assert list(interp.eval_expr(e, env).data) == [6.0, 15.0]

    def test_transpose_gather(self):
        env = env_with(m=("f32", list(range(32))))
        idx = Ramp(Ramp(i32(0), i32(8), 4), Broadcast(i32(1), 4), 8)
        got = list(interp.eval_expr(Load("m", VecType("f32", 32), idx), env).data)
        want = [r * 8 + c for c in range(8) for r in range(4)]
        assert got == want
        assert got[:8] == [0, 8, 16, 24, 1, 9, 17, 25]

    def test_three_tap_convolution(self):
        # direct-convolution oracle: out[i] = sum_t A[t] * B[i+t]
        env = env_with(A=("f32", [1, 2, 3]), B=("f32", list(range(10))))
        a = Load("A", VecType("f32", 24), Broadcast(Ramp(i32(0), i32(1), 3), 8))
        b = Load("B", VecType("f32", 24),
                 Ramp(Ramp(i32(0), i32(1), 3), Broadcast(i32(1), 3), 8))
        e = VectorReduceAdd(8, Bop("*", a, b))
        assert list(interp.eval_expr(e, env).data) == [8, 14, 20, 26, 32, 38, 44, 50]

    def test_euclidean_div_mod(self):
        env = env_with(x=("i32", [-7, 7, -7]), y=("i32", [3, -3, -3]))
        x, y = (Load(n, VecType("i32", 3), flat(3)) for n in "xy")
        assert list(interp.eval_expr(Bop("%", x, y), env).data) == [2, 1, 2]
        q = list(interp.eval_expr(Bop("/", x, y), env).data)
        for qi, ri, a, b in zip(q, [2, 1, 2], [-7, 7, -7], [3, -3, -3]):
            assert a == qi * b + ri

    def test_divide_by_zero(self):
        env = env_with(x=("i32", [1]), y=("i32", [0]))
        e = Bop("/", Load("x", VecType("i32", 1), flat(1)),
                Load("y", VecType("i32", 1), flat(1)))
        with pytest.raises(interp.DivideByZero):
            interp.eval_expr(e, env)

    def test_out_of_bounds(self):
        env = env_with(v=("f32", [1.0]))
        with pytest.raises(interp.OutOfBounds):
            interp.eval_expr(Load("v", VecType("f32", 2), flat(2)), env)

    def test_i32_overflow_detected(self):
        env = env_with()
        big = Bop("*", Broadcast(i32(2**20), 1), Broadcast(i32(2**20), 1))
        with pytest.raises(interp.I32Overflow):
            interp.eval_expr(big, env)

    def test_shuffle_zero_lane(self):
        env = env_with(v=("f32", [5.0, 6.0]))
        e = Shuffle(Load("v", VecType("f32", 2), flat(2)), (1, -1, 0))
        assert list(interp.eval_expr(e, env).data) == [6.0, 0.0, 5.0]

    @settings(max_examples=200, deadline=None)
    @given(st.data())
    def test_shuffle_equals_per_lane_reference(self, data):
        kind = data.draw(st.sampled_from(("i32", "f32")))
        lane = (st.integers(-2**31, 2**31 - 1) if kind == "i32"
                else st.one_of(st.just(-0.0), st.floats(width=32)))
        src = data.draw(st.lists(lane, min_size=1, max_size=12))
        idx = data.draw(st.lists(st.integers(-1, len(src) - 1), min_size=1, max_size=20))
        env = env_with(v=(kind, src))
        e = Shuffle(Load("v", VecType(kind, len(src)), flat(len(src))), tuple(idx))
        got = interp.eval_expr(e, env)
        lanes = env.buffers["v"].data
        want = np.empty(len(idx), lanes.dtype)
        for pos, i in enumerate(idx):
            want[pos] = 0 if i == -1 else lanes[i]
        assert got.kind == kind and got.data.dtype == want.dtype
        assert got.data.tobytes() == want.tobytes()

    def test_exprvar_cache_tracks_bindings(self):
        env = env_with(k=("f32", [1, 2, 3, 4]))
        ev = ir.ExprVar(Load("k", VecType("f32", 2),
                             Ramp(Bop("*", i32(2), Var("i")), i32(1), 2)))
        env.bindings["i"] = 0
        assert list(interp.eval_expr(ev, env).data) == [1, 2]
        env.bindings["i"] = 1
        assert list(interp.eval_expr(ev, env).data) == [3, 4]

    def test_exprvar_cache_keeps_signed_zeros_apart(self):
        # -0.0 + -0.0 is -0.0, but -0.0 + 0.0 is +0.0
        a = Load("a", VecType("f32", 1), flat(1))

        def sum_with(zero, env):
            return interp.eval_expr(ir.ExprVar(Bop("+", a, Imm("f32", zero))), env)

        env = env_with(a=("f32", [-0.0]))
        assert sum_with(-0.0, env).data.tobytes() == np.float32([-0.0]).tobytes()
        fresh = sum_with(0.0, env_with(a=("f32", [-0.0])))
        assert fresh.data.tobytes() == np.float32([0.0]).tobytes()
        assert sum_with(0.0, env).data.tobytes() == fresh.data.tobytes()


class TestIntrinsics:
    def test_tile_matmul_smallest(self):
        env = env_with(shapes=(ir.ShapeDecl("amx", 1, 2, 1),),
                       C=("f32", [0.0]), A=("bf16", [1.0, 2.0]),
                       B=("bf16", [3.0, 4.0]))
        e = Call("tile_matmul", (
            Load("C", VecType("f32", 1), flat(1)),
            Load("A", VecType("bf16", 2), flat(2)),
            Load("B", VecType("bf16", 2), flat(2))))
        assert list(interp.eval_expr(e, env).data) == [11.0]

    def test_unregistered_shape(self):
        env = env_with(C=("f32", [0.0] * 6), A=("bf16", [0.0] * 6),
                       B=("bf16", [0.0] * 4))
        e = Call("tile_matmul", (
            Load("C", VecType("f32", 6), flat(6)),
            Load("A", VecType("bf16", 6), flat(6)),
            Load("B", VecType("bf16", 4), flat(4))))
        with pytest.raises(interp.ShapeUnregistered):
            interp.eval_expr(e, env)

    def test_unknown_intrinsic(self):
        with pytest.raises(interp.UnknownIntrinsic):
            interp.eval_intrinsic("frobnicate", (), env_with())

    def test_kway_interleave_pairs(self):
        env = env_with(b=("f32", [10, 11, 20, 21, 30, 31, 40, 41]))
        e = Call("KWayInterleave", (i32(2), i32(2),
                                    Load("b", VecType("f32", 8), flat(8))))
        got = list(interp.eval_expr(e, env).data)
        assert got == [10, 20, 11, 21, 30, 40, 31, 41]

    def test_convolution_shuffle_matrix(self):
        env = env_with(K=("f32", [5.0, 7.0, 9.0]))
        e = Call("ConvolutionShuffle", (Var("K"), i32(0), i32(5), i32(2)))
        got = list(interp.eval_expr(e, env).data)
        assert got == [5, 0, 7, 5, 9, 7, 0, 9, 0, 0]

    def test_tile_load_store_identity(self):
        rng = random.Random(5)
        data = [rng.uniform(-1, 1) for _ in range(64)]
        env = env_with(src=("f32", data), dst=("f32", [0.0] * 64))
        tile = interp.eval_intrinsic("tile_load", (
            Var("src"), i32(0), i32(8), i32(8), i32(8)), env)
        interp.eval_intrinsic("tile_store", (
            Var("dst"), i32(0), i32(8), i32(8),
            Load("src", VecType("f32", 64), flat(64))), env)
        assert env.buffers["dst"].data.tobytes() == \
            env.buffers["src"].data.tobytes()
        assert tile.lanes == 64

    def test_tile_matmul_vs_triple_loop(self):
        # brute-force left-to-right reference in f32, small and canonical shapes
        rng = random.Random(9)
        shapes = [(2, 4, 2), (4, 2, 4), (8, 8, 8), (16, 32, 16)]
        for m, k, n in shapes:
            a = interp.round_bf16(np.array(
                [rng.uniform(-1, 1) for _ in range(m * k)], np.float32))
            b = interp.round_bf16(np.array(
                [rng.uniform(-1, 1) for _ in range(k * n)], np.float32))
            c = np.array([rng.uniform(-1, 1) for _ in range(m * n)], np.float32)
            vnni = np.empty((k // 2, 2 * n), np.float32)
            bm = b.reshape(k, n)
            vnni[:, 0::2] = bm[0::2, :]
            vnni[:, 1::2] = bm[1::2, :]
            env = env_with(shapes=(ir.ShapeDecl("amx", m, k, n),),
                           C=("f32", c), A=("bf16", a.reshape(-1)),
                           B=("bf16", vnni.reshape(-1)))
            got = interp.eval_intrinsic("tile_matmul", (
                Load("C", VecType("f32", m * n), flat(m * n)),
                Load("A", VecType("bf16", m * k), flat(m * k)),
                Load("B", VecType("bf16", k * n), flat(k * n))), env)
            am = a.reshape(m, k)
            want = np.empty((m, n), np.float32)
            for i in range(m):
                for j in range(n):
                    s = np.float32(am[i, 0]) * np.float32(bm[0, j])
                    for kk in range(1, k):
                        s = np.float32(s + np.float32(am[i, kk]) * np.float32(bm[kk, j]))
                    want[i, j] = np.float32(c.reshape(m, n)[i, j] + s)
            assert got.data.tobytes() == want.reshape(-1).tobytes(), (m, k, n)

    def test_convolution_shuffle_feeds_wmma_exactly(self):
        # A_K as the right operand of wmma_mma reproduces direct 1D convolution
        rng = random.Random(11)
        m, k_dim, n = 4, 8, 4  # windows x window-size x outputs; l = 4
        l = k_dim - n
        shapes = (ir.ShapeDecl("wmma", m, k_dim, n),)
        kern = interp.round_f16(np.array(
            [rng.uniform(-1, 1) for _ in range(l)], np.float32))
        sig = interp.round_f16(np.array(
            [rng.uniform(-1, 1) for _ in range(m * n + l + n)], np.float32))
        env = env_with(shapes=shapes, K=("f16", kern), I=("f16", sig),
                       C=("f32", [0.0] * (m * n)))
        mat = Call("ConvolutionShuffle", (Var("K"), i32(0), i32(k_dim), i32(n)))
        e = Call("wmma_mma", (
            Call("wmma_load_a", (Var("I"), i32(0), i32(n), i32(m), i32(k_dim))),
            Call("wmma_load_b", (ir.ExprVar(mat), i32(0), i32(n), i32(k_dim),
                                 i32(n))),
            Load("C", VecType("f32", m * n), flat(m * n))))
        got = interp.eval_expr(e, env).data
        for x in range(m * n):
            s = np.float32(sig[x]) * np.float32(kern[0])
            for r in range(1, l):
                s = np.float32(s + np.float32(sig[x + r]) * np.float32(kern[r]))
            assert got[x] == s, x


class TestRunProgram:
    def test_empty_program_inputs_unchanged(self):
        p = Program((Param("x", "f32", 4),), ())
        ins = {"x": np.array([1, 2, 3, 4], np.float32)}
        out = interp.run_program(p, ins)
        assert list(out["x"].data) == [1, 2, 3, 4]

    def test_matmul_delta_rows(self):
        # A[x][r] = 1 iff r == x: output row x equals stored B row x
        prog = corpus_program("matmul_standard")
        a = np.zeros(512, np.float32)
        for x in range(16):
            a[x * 32 + x] = 1.0
        rng = random.Random(2)
        b = interp.round_bf16(np.array(
            [rng.uniform(-1, 1) for _ in range(512)], np.float32))
        out = interp.run_program(prog, {"A": a, "B": b,
                                        "matmul_wrapper": np.zeros(256, np.float32)})
        got = out["matmul_wrapper"].data.reshape(16, 16)
        for x in range(16):
            assert got[x].tobytes() == b[x * 16:(x + 1) * 16].tobytes()

    def test_determinism(self):
        prog = corpus_program("conv1d_k8")
        ins = interp.random_inputs(prog, 77)
        a = interp.run_program(prog, ins)
        b = interp.run_program(prog, ins)
        for name in a:
            assert a[name].data.tobytes() == b[name].data.tobytes()

    def test_loop_and_store_order(self):
        # later lanes overwrite earlier on index collision, and a lint fires
        p = Program((Param("o", "f32", 2),),
                    (Store("o", Broadcast(i32(0), 3),
                           Load("o", VecType("f32", 3),
                                Shuffle(Ramp(i32(0), i32(1), 2), (0, 1, 1)))),))
        lints = []
        out = interp.run_program(p, {"o": np.array([4.0, 9.0], np.float32)},
                                 lint_sink=lints)
        assert out["o"].data[0] == 9.0
        assert lints and "colliding" in lints[0]

    def test_error_carries_statement_path(self):
        p = Program((Param("o", "f32", 4),),
                    (For("i", 0, 3, (
                        Store("o", flat(4),
                              Load("o", VecType("f32", 4),
                                   Ramp(Var("i"), i32(1), 4))),)),))
        with pytest.raises(interp.OutOfBounds) as exc:
            interp.run_program(p, {"o": np.zeros(4, np.float32)})
        assert "body[0]" in str(exc.value)

    def test_strict_mode_rejects_nonhardware_shape(self):
        prog = corpus_program("downsample2_1d")
        from tensorsel import selector
        low, rep = selector.select_program(
            prog, selector.SelectionConfig(target="wmma"))
        assert rep.ok
        ins = interp.random_inputs(prog, 0)
        interp.run_program(low, ins)  # the declared shape is admitted
        with pytest.raises(interp.ShapeUnregistered):
            interp.run_program(replace(low, shapes=()), ins)

    def test_strict_mode_admits_hardware_shapes(self):
        from tensorsel import selector
        for name in ("matmul_vnni", "conv1d_k8"):
            prog = corpus_program(name)
            target = "amx" if name.startswith("matmul") else "wmma"
            low, rep = selector.select_program(
                prog, selector.SelectionConfig(target=target))
            ins = interp.random_inputs(prog, 0)
            a = interp.run_program(prog, ins)
            b = interp.run_program(replace(low, shapes=()), ins)
            for prm in prog.params:
                assert a[prm.name].data.tobytes() == b[prm.name].data.tobytes()


class TestBufferIO:
    def test_round_trip_all_kinds(self, tmp_path):
        store = interp.BufferStore()
        rng = random.Random(3)
        store["a"] = interp.Buffer("f32", "mem", np.array(
            [rng.uniform(-1, 1) for _ in range(8)], np.float32))
        store["b"] = interp.Buffer("bf16", "mem", interp.round_bf16(
            np.array([rng.uniform(-1, 1) for _ in range(8)], np.float32)))
        store["c"] = interp.Buffer("f16", "mem", interp.round_f16(
            np.array([rng.uniform(-1, 1) for _ in range(8)], np.float32)))
        store["d"] = interp.Buffer("i32", "mem", np.arange(8, dtype=np.int64))
        interp.save_buffers(store, tmp_path)
        back = interp.load_buffers(tmp_path)
        for name in store:
            assert back[name].kind == store[name].kind
            assert back[name].data.tobytes() == store[name].data.tobytes(), name

    def test_length_mismatch_detected(self, tmp_path):
        store = interp.BufferStore()
        store["a"] = interp.Buffer("f32", "mem", np.zeros(4, np.float32))
        interp.save_buffers(store, tmp_path)
        (tmp_path / "a.bin").write_bytes(b"\0" * 8)
        with pytest.raises(interp.EvalError):
            interp.load_buffers(tmp_path)
