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
lane in the gather form (index -1), not from masked loads.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


class PhaseMismatch(Exception):
    pass


class OutOfBounds(Exception):
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


def kernel_taps(spec, y, x):
    """Kernel index feeding matrix entry (row y, column x), or None for a
    structural zero."""
    if spec.p > 1:
        u = y - x // spec.p
        if 0 <= u < spec.l:
            return spec.p * u + x % spec.p
        return None
    t = y - spec.s * x
    return t if 0 <= t < spec.l else None


def matrix_for(kernel, spec):
    kernel = np.asarray(kernel)
    if len(kernel) != spec.kernel_length:
        raise PhaseMismatch(
            f"kernel has {len(kernel)} taps, spec needs {spec.kernel_length}")
    rows = matrix_rows(spec)
    out = np.zeros((rows, spec.k), dtype=kernel.dtype)
    for y in range(rows):
        for x in range(spec.k):
            t = kernel_taps(spec, y, x)
            if t is not None:
                out[y, x] = kernel[t]
    return out


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


def shuffle_indices_for(spec, base, buffer_length):
    """Gather indices materializing the flattened matrix from a kernel load.

    Indices address a zero-extended load: lane 0 is a constant zero and
    kernel tap t sits at lane t+1; -1 is the sentinel alias for the zero
    lane.  The kernel is read from [base, base + kernel_length)."""
    total = spec.kernel_length
    if base < 0 or base + total > buffer_length:
        raise OutOfBounds(
            f"kernel window [{base}, {base + total}) exceeds buffer "
            f"of length {buffer_length}")
    out = []
    for y in range(matrix_rows(spec)):
        for x in range(spec.k):
            t = kernel_taps(spec, y, x)
            out.append(-1 if t is None else t + 1)
    return out


def kway_interleave_indices(k, rows, row_len):
    """Gather permutation for the k-way row interleave over `rows` input
    rows of `row_len` elements; k=2 is the VNNI pack
    (out[p][2j+d] = in[k*p+d][j])."""
    if k < 1 or rows % k:
        raise ValueError(f"{rows} rows do not interleave {k} ways")
    ordered = [0] * (rows * row_len)
    for p in range(rows // k):
        for j in range(row_len):
            for d in range(k):
                ordered[p * k * row_len + k * j + d] = (k * p + d) * row_len + j
    return ordered
