"""Structured kernel matrices that turn convolution-family reductions into
matrix multiplies, plus the gather permutations that materialize them.

A window of the input times one of these matrices computes a block of
outputs:

  plain (s=1, p=1):    (k+l) x k,        A[y][x] = K[y-x]        for 0 <= y-x < l
  strided (s>1, p=1):  (s*k+l) x k,      A[y][x] = K[y-s*x]      for 0 <= y-s*x < l
  polyphase (p>1):     (k//p+l) x k,     A[y][x] = K[p*(y-x//p) + x%p]
                                                   for 0 <= y-x//p < l

Matrices are row-major with the window axis as rows, so the product
window . A is well-typed.  Structural zeros come from a dedicated zero
lane in the gather form (index -1), not from masked loads.  The tap map
is `shuffle_indices_for` alone: desugaring, `tensorsel layout` and
`matrix_for` (so the interpreter) read it; `gather` reads the zero lane.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


# bounds the memory of a kernel matrix or an interleave; the corpus needs
# 192 and 512 entries
MAX_MATRIX_ENTRIES = 1 << 20


class PhaseMismatch(Exception):
    pass


@dataclass(frozen=True)
class ToeplitzSpec:
    l: int  # kernel taps per phase
    k: int  # output block width (columns)
    s: int = 1  # stride (downsample factor)
    p: int = 1  # phases (upsample factor)

    def __post_init__(self):
        if min(self.l, self.k, self.s, self.p) < 1:
            raise ValueError(f"taps, width, stride and phases must be >= 1, "
                             f"got l={self.l} k={self.k} s={self.s} p={self.p}")
        if self.s > 1 and self.p > 1:
            raise ValueError(f"stride and phases are exclusive, "
                             f"got s={self.s} p={self.p}")
        rows = matrix_rows(self)
        if rows * self.k > MAX_MATRIX_ENTRIES:
            raise ValueError(f"a {rows} x {self.k} kernel matrix exceeds "
                             f"{MAX_MATRIX_ENTRIES} entries")

    @property
    def kernel_length(self):
        return self.p * self.l

    @property
    def mode(self):
        if self.p > 1:
            return "upsample"
        return "downsample" if self.s > 1 else "convolution"


def matrix_rows(spec):
    if spec.p > 1:
        return spec.k // spec.p + spec.l
    return spec.s * spec.k + spec.l


def _zero_lane(a):
    return np.zeros((*a.shape[:-1], 1), a.dtype)


def gather(src, indices):
    """Lanes `indices` of the array `src` along its last axis; index -1 reads
    a zero lane appended after the last one."""
    padded = np.concatenate([src, _zero_lane(src)], axis=-1)
    return padded.take(np.asarray(indices, np.intp), axis=-1)


def matrix_for(kernel, spec):
    """The rows x k matrix of `spec` over `kernel` (its taps on the last axis,
    any leading axes kept): the zero-extended kernel gathered with
    `shuffle_indices_for`, so structural zeros are +0.0."""
    kernel = np.asarray(kernel)
    if kernel.shape[-1] != spec.kernel_length:
        raise PhaseMismatch(
            f"kernel has {kernel.shape[-1]} taps, spec needs {spec.kernel_length}")
    idx = shuffle_indices_for(spec)
    padded = np.concatenate([_zero_lane(kernel), kernel], axis=-1)
    return gather(padded, idx).reshape(*kernel.shape[:-1], matrix_rows(spec), spec.k)


def toeplitz_matrix(kernel, k):
    """(k+l) x k convolution matrix for an l-tap kernel."""
    return matrix_for(kernel, ToeplitzSpec(l=len(kernel), k=k))


def strided_toeplitz(kernel, k, s):
    """(s*k+l) x k matrix computing the s-strided convolution (downsample)."""
    return matrix_for(kernel, ToeplitzSpec(l=len(kernel), k=k, s=s))


def polyphase_toeplitz(kernel, k, p):
    """(k//p+l) x k matrix computing factor-p upsampling with the p phases
    interleaved per output position.  The kernel must split into p
    subkernels of l taps each (K_phase[u][d] = K[p*u+d])."""
    if len(kernel) % p:
        raise PhaseMismatch(f"kernel length {len(kernel)} not divisible by {p} phases")
    return matrix_for(kernel, ToeplitzSpec(l=len(kernel) // p, k=k, p=p))


def shuffle_indices_for(spec):
    """Gather indices materializing the flattened matrix from a kernel load.

    Indices address a zero-extended load of the kernel's taps: lane 0 is a
    constant zero and kernel tap t sits at lane t+1; -1 is the sentinel
    alias for the zero lane."""
    y = np.arange(matrix_rows(spec)).reshape(-1, 1)
    x = np.arange(spec.k)
    u = y - spec.s * (x // spec.p)  # tap within the phase; s or p is 1
    taps = spec.p * u + x % spec.p
    return np.where((0 <= u) & (u < spec.l), taps + 1, -1).reshape(-1).tolist()


def check_interleave(k, rows, row_len):
    """Raise ValueError unless `rows` rows of `row_len` elements, at most
    MAX_MATRIX_ENTRIES in all, interleave `k` ways."""
    if min(rows, row_len) < 1:
        raise ValueError(f"rows and row length must be >= 1, "
                         f"got {rows} rows of {row_len}")
    if k < 1 or rows % k:
        raise ValueError(f"{rows} rows do not interleave {k} ways")
    if rows * row_len > MAX_MATRIX_ENTRIES:
        raise ValueError(f"{rows} rows of {row_len} exceed "
                         f"{MAX_MATRIX_ENTRIES} entries")


def kway_interleave_indices(k, rows, row_len):
    """Gather permutation for the k-way row interleave over `rows` input
    rows of `row_len` elements; k=2 is the VNNI pack
    (out[p][2j+d] = in[k*p+d][j])."""
    check_interleave(k, rows, row_len)
    src = np.arange(rows * row_len).reshape(rows // k, k, row_len)  # [p][d][j]
    return src.transpose(0, 2, 1).reshape(-1).tolist()
