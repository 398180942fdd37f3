"""The interpreter's batched kernels against the loops they replaced.

`_foldl` sums groups by one numpy reduction over a contiguous copy, the
MatMul intrinsics add their k slices in place, and `round_bf16` rounds in
uint32.  Each test here keeps the replaced code as its reference and
requires the same bits, on one-group folds, k = 1, i32 data, and the
-0.0, NaN, infinite and subnormal lanes where an order or a width change
would show."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from tensorsel import interp, ir
from tensorsel.ir import Imm, Load, Ramp, VecType

# bit patterns: +-0.0, +-inf, quiet and signaling NaNs of either sign and
# other payloads, the smallest and largest subnormals, and max finite
SPECIALS = [0x00000000, 0x80000000, 0x7F800000, 0xFF800000,
            0x7FC00000, 0xFFC00000, 0x7FC00001, 0x7F800001, 0xFF800001,
            0x00000001, 0x807FFFFF, 0x7F7FFFFF, 0xFF7FFFFF]
BITS = st.one_of(st.sampled_from(SPECIALS), st.integers(0, 2**32 - 1),
                 st.floats(width=32).map(lambda f: int(np.float32(f).view(np.uint32))))
I32 = st.integers(ir.I32_MIN, ir.I32_MAX)


def f32_arrays(shape):
    """float32 arrays of any bit patterns, the special ones often."""
    return arrays(np.uint32, shape, elements=BITS).map(lambda a: a.view(np.float32))


def same_bits(got, want):
    return (got.shape, got.dtype, got.tobytes()) == (want.shape, want.dtype, want.tobytes())


def foldl_reference(groups):
    """Left-to-right sum along the last axis, one lane group at a time."""
    acc = groups[..., 0].copy()
    for j in range(1, groups.shape[-1]):
        acc = acc + groups[..., j]
    return acc


@st.composite
def fold_inputs(draw):
    """(..., groups, k) data: up to two leading axes, f32 or i32."""
    lead = draw(st.lists(st.integers(1, 3), max_size=2))
    shape = (*lead, draw(st.integers(1, 5)), draw(st.integers(1, 24)))
    if draw(st.booleans()):
        return draw(arrays(np.int64, shape, elements=I32))
    return draw(f32_arrays(shape))


class TestFoldl:
    @settings(max_examples=400, deadline=None)
    @given(fold_inputs())
    def test_equals_the_loop(self, groups):
        with np.errstate(all="ignore"):
            assert same_bits(interp._foldl(groups), foldl_reference(groups))

    @pytest.mark.parametrize("shape", [(1, 256), (8, 1, 256), (1, 1, 1000)])
    def test_one_group_folds_left_to_right(self, shape):
        # at one group a plain reduction sums pairwise, which rounds
        # differently on this data, so the loop is kept there
        data = np.random.default_rng(7).standard_normal(shape).astype(np.float32)
        want = foldl_reference(data)
        assert not same_bits(np.add.reduce(data, axis=-1), want)
        assert same_bits(interp._foldl(data), want)

    def test_many_groups_of_normal_data(self):
        data = np.random.default_rng(3).standard_normal((8, 16, 512)).astype(np.float32)
        assert same_bits(interp._foldl(data), foldl_reference(data))


def _load(name, lanes):
    return Load(name, VecType("f32", lanes), Ramp(Imm("i32", 0), Imm("i32", 1), lanes))


def matmul_reference(name, a, b, c, m, k, n):
    """C + A B as the branch computed it before: the whole product array,
    then its k slices added left to right into a new array each time."""
    am = a.reshape(a.shape[:-1] + (m, k))
    if name == "tile_matmul":  # b holds the VNNI pack
        bv = b.reshape(b.shape[:-1] + (k // 2, 2 * n))
        bm = np.empty(bv.shape[:-2] + (k, n), np.float32)
        bm[..., 0::2, :] = bv[..., 0::2]
        bm[..., 1::2, :] = bv[..., 1::2]
    else:
        bm = b.reshape(b.shape[:-1] + (k, n))
    prods = am[..., None] * bm[..., None, :, :]
    s = prods[..., 0, :].copy()
    for kk in range(1, k):
        s = s + prods[..., kk, :]
    out = c.reshape(c.shape[:-1] + (m, n)) + s
    return out.reshape(out.shape[:-2] + (-1,))


@st.composite
def matmuls(draw):
    name = draw(st.sampled_from(["tile_matmul", "wmma_mma"]))
    m, n = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    k = draw(st.integers(1, 8))
    if name == "tile_matmul":
        k = 2 * ((k + 1) // 2)  # the VNNI pack needs an even k
    lead = draw(st.sampled_from([(), (1,), (3,)]))
    a, b, c = (draw(f32_arrays((*lead, lanes))) for lanes in (m * k, k * n, m * n))
    return name, (m, k, n), a, b, c


class TestMatmul:
    @settings(max_examples=300, deadline=None)
    @given(matmuls())
    def test_equals_the_loop(self, case):
        name, (m, k, n), a, b, c = case
        accel = "amx" if name == "tile_matmul" else "wmma"
        store = interp.BufferStore(
            {x: interp.Buffer("f32", "mem", d) for x, d in zip("abc", (a, b, c))})
        env = interp.Env(buffers=store, lead=a.shape[:-1],
                         shapes=interp.shape_registry(
                             ir.Program(shapes=(ir.ShapeDecl(accel, m, k, n),))))
        la, lb, lc = _load("a", m * k), _load("b", k * n), _load("c", m * n)
        args = (lc, la, lb) if name == "tile_matmul" else (la, lb, lc)
        with np.errstate(all="ignore"):
            got = interp.eval_intrinsic(name, args, env).data
            want = matmul_reference(name, a, b, c, m, k, n)
        assert same_bits(got, want)


def round_bf16_reference(x):
    """The rounding as it was first written: the sum in uint64, and NaN lanes
    replaced whether or not there are any."""
    a = np.asarray(x, dtype=np.float32)
    bits = a.view(np.uint32)
    rounded = ((bits.astype(np.uint64) + 0x7FFF + ((bits >> 16) & 1)) >> 16) << 16
    out = rounded.astype(np.uint32).view(np.float32)
    out = np.where(np.isnan(a), np.float32(np.nan), out)
    return out if out.ndim else np.float32(out)


BOUNDARIES = [
    0x00000000, 0x80000000, 0x00000001, 0x807FFFFF,  # zeros and subnormals
    0x7F7FFFFF, 0xFF7FFFFF, 0x7F7F7FFF, 0x7F7F8000,  # max finite; rounds to inf
    0x7F800000, 0xFF800000,  # infinities
    0x7F800001, 0x7FC00000, 0x7FFFFFFF, 0xFF800001, 0xFFC00000, 0xFFFFFFFF,  # NaNs
]


class TestRoundBf16:
    def test_every_4099th_bit_pattern(self):
        bits = np.arange(0, 2**32, 4099, dtype=np.uint64).astype(np.uint32)
        x = bits.view(np.float32)
        assert same_bits(interp.round_bf16(x), round_bf16_reference(x))

    def test_nan_infinity_and_max_finite_boundaries(self):
        x = np.array(BOUNDARIES, np.uint32).view(np.float32)
        assert same_bits(interp.round_bf16(x), round_bf16_reference(x))
        assert same_bits(interp.round_bf16(x.reshape(4, 4)),
                         round_bf16_reference(x.reshape(4, 4)))
        for v in x:  # a scalar comes back as a float32 scalar
            got, want = interp.round_bf16(v), round_bf16_reference(v)
            assert type(got) is np.float32
            assert got.tobytes() == want.tobytes()

    def test_without_nan_the_input_is_not_written(self):
        x = np.array([1.00390625, -2.5, 3.0e38], np.float32)
        before = x.tobytes()
        assert same_bits(interp.round_bf16(x), round_bf16_reference(x))
        assert x.tobytes() == before
