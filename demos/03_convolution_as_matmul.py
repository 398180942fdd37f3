#!/usr/bin/env python3
"""Convolution-family kernels on a MatMul unit via Toeplitz matrices.

A block of convolution outputs is an input window times a kernel matrix
that is constant along diagonals.  Strided (downsample) and multiphase
(upsample) variants generalize the matrix; the selector recognizes the
window/broadcast load pair and materializes the matrix with a shuffle,
then emits one wmma_mma per statement.
"""

import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy as np

from tensorsel import interp, ir, layout, selector


def show_matrix(title, mat):
    print(f"\n== {title} ({mat.shape[0]}x{mat.shape[1]})")
    for row in mat:
        print("  ", " ".join(f"{v:5.2f}" if v else "    ." for v in row))


def lower_and_difftest(name, seeds=10):
    prog = ir.parse_program((ROOT / "corpus" / f"{name}.sexp").read_text())
    lowered, report = selector.select_program(
        prog, selector.SelectionConfig(target="wmma"))
    intr = sorted({n for s in report.statements for n in s.intrinsics})
    for seed in range(seeds):
        ins = interp.random_inputs(prog, seed)
        a = interp.run_program(prog, ins)
        b = interp.run_program(lowered, ins)
        assert a["output"].data.tobytes() == b["output"].data.tobytes(), seed
    print(f"   {name}: lowered to {', '.join(intr)}; "
          f"{seeds} seeds bit-exact")
    return lowered


def main():
    kern = np.array([5.0, 7.0, 9.0], np.float32)
    show_matrix("plain Toeplitz, 3 taps, 2 outputs",
                layout.toeplitz_matrix(kern, 2))
    show_matrix("strided (downsample by 2), 3 taps, 2 outputs",
                layout.strided_toeplitz(kern, 2, 2))
    show_matrix("polyphase (upsample by 2), 2x2 taps, 4 outputs",
                layout.polyphase_toeplitz(np.array([1., 2., 3., 4.],
                                                   np.float32), 4, 2))

    spec = layout.ToeplitzSpec(l=3, k=2)
    print("\n== gather indices for the plain matrix "
          "(-1 selects the constant zero lane)")
    print("  ", layout.shuffle_indices_for(spec))

    print("\n== lowering the convolution corpus")
    lowered = lower_and_difftest("conv1d_k8")
    update = next(s for _, s in ir.walk_stmts(lowered.body)
                  if isinstance(s, ir.Store) and s.buffer == "conv")
    print("   conv1d_k8 update:", ir.print_stmt(update)[:160], "...")
    lower_and_difftest("conv1d_k16")       # serial reduction chunks
    lower_and_difftest("conv2d_outer_ry")  # kernel matrix rebuilt per row
    lower_and_difftest("downsample2_1d")   # declares its own 32x24x8 shape
    lower_and_difftest("upsample2_1d")     # fits the stock m32n8k16


if __name__ == "__main__":
    main()
