import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsel import interp
from tensorsel.ir import Imm, Load, Ramp, Var, VecType
from tensorsel.layout import (PhaseMismatch, ToeplitzSpec,
                              kway_interleave_indices, matrix_for,
                              matrix_rows, polyphase_toeplitz,
                              shuffle_indices_for, strided_toeplitz,
                              toeplitz_matrix)


def _foldl32(terms):
    acc = np.float32(terms[0])
    for t in terms[1:]:
        acc = np.float32(acc + np.float32(t))
    return acc


def window_times_matrix(window, mat):
    """Left-to-right f32 product oracle: out[x] = sum_y window[y]*A[y][x]."""
    rows, cols = mat.shape
    out = np.empty(cols, np.float32)
    for x in range(cols):
        out[x] = _foldl32([np.float32(window[y]) * np.float32(mat[y, x])
                           for y in range(rows)])
    return out


def direct_convolution(signal, kernel, x0, s):
    """out[x] = sum_r I[s*(x0+x) + r] * K[r], summed left to right."""
    return _foldl32([np.float32(signal[s * x0 + r]) * np.float32(kernel[r])
                     for r in range(len(kernel))])


def direct_upsample(signal, kernel, x, p):
    """out position x: sum_r I[x//p + r] * K[p*r + x%p]."""
    l = len(kernel) // p
    return _foldl32([np.float32(signal[x // p + r])
                     * np.float32(kernel[p * r + x % p]) for r in range(l)])


def _rand_f32(rng, n):
    return np.array([rng.uniform(-1, 1) for _ in range(n)], np.float32)


class TestToeplitz:
    def test_three_tap_block_two(self):
        got = toeplitz_matrix(np.array([5.0, 7.0, 9.0], np.float32), 2)
        assert got.tolist() == [[5, 0], [7, 5], [9, 7], [0, 9], [0, 0]]

    def test_one_tap(self):
        got = toeplitz_matrix(np.array([3.0], np.float32), 1)
        assert got.tolist() == [[3.0], [0.0]]

    def test_window_product_is_convolution(self):
        rng = random.Random(0)
        kern, l, k = _rand_f32(rng, 8), 8, 16
        sig = _rand_f32(rng, k + l)
        mat = toeplitz_matrix(kern, k)
        got = window_times_matrix(sig, mat)
        for x in range(k):
            assert got[x] == direct_convolution(sig, kern, x, 1), x


class TestStrided:
    def test_two_tap_stride_two(self):
        got = strided_toeplitz(np.array([1.0, 1.0], np.float32), 2, 2)
        assert got.tolist() == [[1, 0], [1, 0], [0, 1], [0, 1], [0, 0], [0, 0]]

    def test_stride_one_is_plain(self):
        rng = random.Random(1)
        kern = _rand_f32(rng, 5)
        assert strided_toeplitz(kern, 7, 1).tolist() == \
            toeplitz_matrix(kern, 7).tolist()

    def test_window_product_is_strided_convolution(self):
        rng = random.Random(2)
        kern = _rand_f32(rng, 16)
        k, s = 8, 2
        sig = _rand_f32(rng, s * k + 16)
        got = window_times_matrix(sig, strided_toeplitz(kern, k, s))
        for x in range(k):
            assert got[x] == direct_convolution(sig, kern, x, s), x


class TestPolyphase:
    def test_single_tap_two_phase(self):
        # k//p + l rows: like the plain generator, the window keeps one
        # trailing all-zero row
        got = polyphase_toeplitz(np.array([2.0, 3.0], np.float32), 4, 2)
        assert got.tolist() == [[2, 3, 0, 0], [0, 0, 2, 3], [0, 0, 0, 0]]

    def test_phase_one_is_plain(self):
        rng = random.Random(3)
        kern = _rand_f32(rng, 6)
        assert polyphase_toeplitz(kern, 9, 1).tolist() == \
            toeplitz_matrix(kern, 9).tolist()

    def test_phase_mismatch(self):
        with pytest.raises(PhaseMismatch):
            polyphase_toeplitz(np.zeros(5, np.float32), 4, 2)

    def test_window_product_is_upsample(self):
        rng = random.Random(4)
        p, l, k = 2, 4, 8
        kern = _rand_f32(rng, p * l)
        sig = _rand_f32(rng, k // p + l)
        got = window_times_matrix(sig, polyphase_toeplitz(kern, k, p))
        for x in range(k):
            assert got[x] == direct_upsample(sig, kern, x, p), x


class TestSpecBound:
    def test_matrix_of_at_most_2_20_entries(self):
        assert matrix_rows(ToeplitzSpec(l=1536, k=512)) * 512 == 1 << 20
        with pytest.raises(ValueError, match="2049 x 512 kernel matrix"):
            ToeplitzSpec(l=1537, k=512)
        with pytest.raises(ValueError, match="exceeds"):
            ToeplitzSpec(l=4000, k=4000, p=2)


class TestRandomOracles:
    def test_all_generators_match_direct_summation(self):
        # the acceptance-grade invariant at reduced trial count
        rng = random.Random(99)
        for _ in range(40):
            s = rng.choice((1, 2, 3))
            p = rng.choice((1, 2, 4)) if s == 1 else 1
            l = rng.randrange(1, 17)
            k = rng.randrange(1, 33)
            if p > 1:
                k = max(p, (k // p) * p)
            spec = ToeplitzSpec(l=l, k=k, s=s, p=p)
            kern = _rand_f32(rng, spec.kernel_length)
            mat = matrix_for(kern, spec)
            assert mat.shape == (matrix_rows(spec), k)
            sig = _rand_f32(rng, matrix_rows(spec))
            got = window_times_matrix(sig, mat)
            for x in range(k):
                if p > 1:
                    want = direct_upsample(sig, kern, x, p)
                else:
                    want = direct_convolution(sig, kern, x, s)
                assert got[x] == want, (spec, x)

    def test_column_counts_and_sparsity(self):
        rng = random.Random(5)
        for _ in range(40):
            s = rng.choice((1, 2, 3))
            p = rng.choice((1, 2, 4)) if s == 1 else 1
            spec = ToeplitzSpec(l=rng.randrange(1, 17),
                                k=rng.randrange(1, 33), s=s, p=p)
            kern = np.ones(spec.kernel_length, np.float32)
            mat = matrix_for(kern, spec)
            assert mat.shape[1] == spec.k
            assert (np.count_nonzero(mat, axis=0) <= spec.l).all()


def kernel_taps(spec, y, x):
    """Kernel index feeding matrix entry (row y, column x), or None for a
    structural zero: the module docstring's formulas, one entry at a time."""
    if spec.p > 1:
        u = y - x // spec.p
        if 0 <= u < spec.l:
            return spec.p * u + x % spec.p
        return None
    t = y - spec.s * x
    return t if 0 <= t < spec.l else None


def _ref_matrix(kernel, spec):
    """`matrix_for` entry by entry from `kernel_taps`."""
    out = np.zeros((matrix_rows(spec), spec.k), kernel.dtype)
    for y in range(matrix_rows(spec)):
        for x in range(spec.k):
            t = kernel_taps(spec, y, x)
            if t is not None:
                out[y, x] = kernel[t]
    return out


@st.composite
def _specs(draw):
    s = draw(st.integers(1, 3))
    p = draw(st.sampled_from((1, 2, 4))) if s == 1 else 1
    return ToeplitzSpec(l=draw(st.integers(1, 9)), k=draw(st.integers(1, 17)), s=s, p=p)


class TestMatrixFor:
    @settings(max_examples=300, deadline=None)
    @given(_specs(), st.sampled_from((np.float32, np.float16, np.int64)), st.data())
    def test_equals_per_entry_reference(self, spec, dtype, data):
        taps = data.draw(st.lists(st.sampled_from((-0.0, 0.0, 1.5, -2.25, 7.0)),
                                  min_size=spec.kernel_length,
                                  max_size=spec.kernel_length))
        kern = np.array(taps, dtype)
        got, want = matrix_for(kern, spec), _ref_matrix(kern, spec)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_negative_zero_tap_kept_structural_zero_positive(self):
        spec = ToeplitzSpec(l=2, k=2)
        got = matrix_for(np.array([-0.0, 3.0], np.float32), spec)
        assert np.signbit(got).tolist() == [[True, False], [False, True],
                                            [False, False], [False, False]]


def _intrinsic(name, buffer, *args):
    """The interpreter's value of intrinsic `name` over f32 `buffer`, bound
    to `v`, and `args` (ints become i32 immediates)."""
    env = interp.Env(buffers=interp.BufferStore(
        v=interp.Buffer("f32", "mem", np.asarray(buffer, np.float32))))
    return interp.eval_intrinsic(
        name, tuple(Imm("i32", a) if isinstance(a, int) else a for a in args), env)


class TestShuffleIndices:
    @settings(max_examples=300, deadline=None)
    @given(_specs(), st.integers(0, 3))
    def test_equals_per_entry_reference(self, spec, base):
        want = [-1 if t is None else t + 1
                for y in range(matrix_rows(spec)) for x in range(spec.k)
                for t in [kernel_taps(spec, y, x)]]
        got = shuffle_indices_for(spec)
        assert got == want and all(type(i) is int for i in got)
        # the intrinsic builds the matrix of the kernel window at `base`
        buf = np.arange(1, base + spec.kernel_length + 3, dtype=np.float32)
        mat = _intrinsic("PolyphaseShuffle", buf, Var("v"), base,
                         spec.l, spec.k, spec.p, spec.s)
        window = buf[base:base + spec.kernel_length]
        assert mat.data.tobytes() == _ref_matrix(window, spec).tobytes()

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 4), st.integers(1, 6), st.integers(1, 8))
    def test_interleave_equals_per_lane_reference(self, k, groups, row_len):
        want = [0] * (k * groups * row_len)
        for p in range(groups):
            for j in range(row_len):
                for d in range(k):
                    want[p * k * row_len + k * j + d] = (k * p + d) * row_len + j
        got = kway_interleave_indices(k, k * groups, row_len)
        assert got == want and all(type(i) is int for i in got)
        n = len(want)
        packed = _intrinsic("KWayInterleave", np.arange(n), k, row_len,
                            Load("v", VecType("f32", n), Ramp(Imm("i32", 0),
                                                              Imm("i32", 1), n)))
        assert packed.data.tolist() == want

    def test_toeplitz_indices_match_example(self):
        spec = ToeplitzSpec(l=3, k=2)
        got = shuffle_indices_for(spec)
        assert got == [1, -1, 2, 1, 3, 2, -1, 3, -1, -1]

    def test_indices_materialize_dense_matrix(self):
        rng = random.Random(6)
        for _ in range(30):
            s = rng.choice((1, 2))
            p = rng.choice((1, 2)) if s == 1 else 1
            spec = ToeplitzSpec(l=rng.randrange(1, 9),
                                k=rng.randrange(1, 17), s=s, p=p)
            base = rng.randrange(0, 3)
            kern_buf = _rand_f32(rng, base + spec.kernel_length + 2)
            idx = shuffle_indices_for(spec)
            window = kern_buf[base:base + spec.kernel_length]
            extended = np.concatenate(([np.float32(0.0)], window))
            got = extended[[0 if i == -1 else i for i in idx]]
            want = matrix_for(window, spec).reshape(-1)
            assert got.tobytes() == want.tobytes()

    def test_vnni_pack_permutation(self):
        assert kway_interleave_indices(2, 4, 2) == [0, 2, 1, 3, 4, 6, 5, 7]

    def test_interleave_matches_intrinsic(self):
        rng = random.Random(7)
        k, rows, row_len = 2, 8, 4
        data = _rand_f32(rng, rows * row_len)
        idx = kway_interleave_indices(k, rows, row_len)
        got = _intrinsic("KWayInterleave", data, k, row_len,
                         Load("v", VecType("f32", rows * row_len),
                              Ramp(Imm("i32", 0), Imm("i32", 1), rows * row_len)))
        assert got.data.tobytes() == data[idx].tobytes()
