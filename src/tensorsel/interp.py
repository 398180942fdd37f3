"""Reference interpreter: the ground-truth oracle for every differential test.

Values are carried as float32 (bf16/f16 elements are re-rounded into the
carrier at casts and at tile/fragment load boundaries) or as exact integers
for i32.  Every reduction — VectorReduceAdd, tile_matmul, wmma_mma — sums
its group/k dimension left to right, so a correctly matched lowering is
bit-exact against its source program.

A value's or buffer's lanes are the last axis of its array.  Data may carry
leading axes, one row per trial: `run_program` over inputs with a leading
trial axis runs every trial at once, and each row equals the run of that
trial alone.  Control flow and addresses built from loop variables and
immediates are shared by the trials and stay 1-D; an address read from
data (an i32 buffer) has the leading axes too and is applied per trial.
`compare_sides` evaluates two expressions or two programs over such
buffers and names the first trial and lane where they differ.
`first_failure` is the one judge of `tensorsel difftest` and the rule
fuzzer: it fills seeds with `random_inputs`, runs them in batches through
`compare_sides`, replays a batch that raises seed by seed, and reports
the first failing seed.

Every i32 value is range-checked.  Where the value is a Python int the
check runs on the int, before any array is built: an immediate, a loop
variable, and a 1-D ramp over one-lane base and stride, whose first and
last lanes bound the rest (a ramp is monotone).  Other values are checked
by array reductions, and every path raises the same `I32Overflow` text.

Accelerator tiles and fragments are modeled as plain vectors; loc_to_loc is
the identity on values.  Emulated intrinsics accept the hardware shapes
and the (M, K, N) shapes the program declares.

An intrinsic's signature -- argument roles, sizes, result kind and lanes --
is its `ir.INTRINSICS` record, checked by `ir.validate_program`; this module
holds only what each intrinsic computes.  `Shuffle` and the layout
intrinsics read lanes through `layout.gather`, whose index -1 is a zero lane.
"""

from __future__ import annotations

import functools
import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from . import ir, layout

class EvalError(Exception):
    pass


class OutOfBounds(EvalError):
    def __init__(self, buffer, index):
        super().__init__(f"buffer {buffer!r} index {index} out of bounds")
        self.buffer, self.index = buffer, index


class DivideByZero(EvalError):
    pass


class UnknownIntrinsic(EvalError):
    pass


class ShapeUnregistered(EvalError):
    pass


class I32Overflow(EvalError):
    pass


# ---------------------------------------------------------------------------
# scalar rounding


def round_bf16(x):
    """Round-to-nearest-even into the bf16 value set, in the f32 carrier."""
    a = np.asarray(x, dtype=np.float32)
    bits = a.view(np.uint32)
    # uint32 holds every sum but a NaN's: the largest other is 0xFF807FFF
    rounded = (bits >> 16) & 1
    rounded += bits
    rounded += 0x7FFF
    rounded &= 0xFFFF0000
    out = rounded.view(np.float32)
    nan = np.isnan(a)
    if nan.any():
        out = np.where(nan, np.float32(np.nan), out)
    return out if out.ndim else np.float32(out)


def round_f16(x):
    """Round-to-nearest-even into the IEEE binary16 value set (f32 carrier)."""
    a = np.asarray(x, dtype=np.float32)
    with np.errstate(over="ignore", under="ignore"):  # both round as IEEE says
        out = a.astype(np.float16).astype(np.float32)
    return out if out.ndim else np.float32(out)


def round_to_kind(x, kind):
    if kind == "bf16":
        return round_bf16(x)
    if kind == "f16":
        return round_f16(x)
    if kind == "f32":
        return np.asarray(x, dtype=np.float32)
    raise EvalError(f"not a float kind: {kind}")


# ---------------------------------------------------------------------------
# deterministic pseudo-random fill


_GAMMA = 0x9E3779B97F4A7C15


def _splitmix64(state, n):
    """The next `n` draws of the SplitMix64 stream at `state` (an int, or an
    array of states with the draws along a new last axis): draw i (from 1)
    mixes state + i*_GAMMA, so wrapping uint64 array arithmetic, in place
    in the one array returned, yields them all."""
    z = np.arange(1, n + 1, dtype=np.uint64) * np.uint64(_GAMMA) + np.asarray(state, np.uint64)
    for shift, mul in ((30, 0xBF58476D1CE4E5B9), (27, 0x94D049BB133111EB)):
        z ^= z >> np.uint64(shift)
        z *= np.uint64(mul)
    z ^= z >> np.uint64(31)
    return z


# ---------------------------------------------------------------------------
# runtime state


@dataclass
class VectorValue:
    kind: str
    data: np.ndarray  # float32 for float kinds, int64 for i32; lanes last

    @property
    def lanes(self):
        return self.data.shape[-1]


@dataclass
class Buffer:
    kind: str
    location: str
    data: np.ndarray


class BufferStore(dict):
    """Map buffer name -> Buffer."""


def shape_registry(p):
    """The (target, M, K, N) keys of `ir.program_shapes(p)`."""
    return _shape_registry(tuple(p.shapes))


@functools.lru_cache(maxsize=256)  # few distinct declarations; ShapeDecl is frozen
def _shape_registry(declared):
    return frozenset((s.target, s.m, s.k, s.n)
                     for s in ir.program_shapes(ir.Program(shapes=declared)))


@dataclass
class Env:
    buffers: BufferStore
    bindings: dict = field(default_factory=dict)
    exprvar_cache: dict = field(default_factory=dict)
    shapes: frozenset = shape_registry(ir.Program())
    lints: list = field(default_factory=list)
    lead: tuple = ()  # the inputs' leading (trial) axes, which allocations take
    memo: EvalMemo | None = None


MEMO_LANES = 1 << 18  # the lanes one EvalMemo stores at most


class EvalMemo:
    """The values of buffer-free subexpressions, kept across the runs that
    share the memo.  A subexpression is buffer-free when no Load, Call or
    ExprVar occurs in it: its value depends on the loop bindings alone, so
    it is keyed by the expression object and `env.bindings`.  Each
    expression is classified once, when first met, and held, so its id is
    not reused while the memo lives.  Stored arrays are read-only.  A value
    that raises is not stored, and storing stops at MEMO_LANES lanes.
    Whether a stored 1-D address has distinct lanes is kept beside it, by
    the address array's id, so a store through it tests that once."""

    def __init__(self):
        self.seen = {}  # id(e) -> (e, whether e is looked up)
        self.values = {}  # (id(e), bindings) -> VectorValue
        self.lanes = 0
        self.distinct = {}  # id(address) -> (address, whether its lanes differ)

    def classify(self, e):
        """The `seen` entry of `e`: looked up if buffer-free.  The parts of
        a buffer-free expression are evaluated only when it is not found,
        so those not met before are never looked up."""
        free = not any(isinstance(x, (ir.Load, ir.Call, ir.ExprVar))
                       for x in ir.walk_exprs(e))
        if free:
            for x in ir.walk_exprs(e):
                self.seen.setdefault(id(x), (x, False))
        entry = self.seen[id(e)] = (e, free)
        return entry

    def looks_up(self, e):
        return (self.seen.get(id(e)) or self.classify(e))[1]

    def store(self, key, v):
        if self.lanes + v.data.size <= MEMO_LANES:
            v.data.flags.writeable = False
            self.values[key] = v
            self.lanes += v.data.size


def first_differing_lane(a, b):
    """Index of the first lane whose bytes differ between two arrays of one
    dtype whose bytes are known to differ; +0.0 against -0.0 counts."""
    bits = f"u{a.dtype.itemsize}"
    return int(np.flatnonzero(a.view(bits) != b.view(bits))[0])


def _dtype_of(kind):
    return np.int64 if kind == "i32" else np.float32


def _check_i32(arr):
    if arr.size:
        hi = np.maximum.reduce(arr, axis=None)
        lo = np.minimum.reduce(arr, axis=None)
        if hi > ir.I32_MAX or lo < ir.I32_MIN:
            raise _i32_overflow(hi, lo)
    return arr


def _i32_overflow(hi, lo):
    return I32Overflow(f"i32 range exceeded (max {hi}, min {lo})")


def _i32_scalar(v):
    """The one-lane i32 value of the Python int `v`, its range checked on
    the int."""
    if not ir.I32_MIN <= v <= ir.I32_MAX:
        raise _i32_overflow(v, v)
    return VectorValue("i32", np.array([v], np.int64))


def _scalar_ramp(b, s, n):
    """The lanes b + s*i, i < n, of a ramp over Python ints (n >= 1); raises
    I32Overflow if they leave the i32 range.  A ramp is monotone, so its
    first and last lanes bound the others."""
    last = b + s * (n - 1)
    if not (ir.I32_MIN <= b <= ir.I32_MAX and ir.I32_MIN <= last <= ir.I32_MAX):
        raise _i32_overflow(max(b, last), min(b, last))
    if s == 0 or n == 1:
        return np.full(n, b, np.int64)
    return np.arange(b, last + s, s, dtype=np.int64)  # n >= 2: |s| <= |last - b|


def _foldl(groups):
    """Left-to-right sum along the last axis, over (..., groups, k) data.

    numpy adds along an axis that is not the innermost one in index order,
    so one reduction over a C-contiguous (..., k, groups) copy is the left
    fold, started from -0.0, which x + -0.0 leaves as it is (numpy would
    start from +0.0).  With one group that copy's last axis has size 1 and
    numpy sums the k axis pairwise instead, which rounds differently; and
    -0.0 + x quiets a signaling NaN x, which a one-lane group keeps: for
    both, loop."""
    if groups.shape[-2] == 1 or groups.shape[-1] == 1:
        acc = groups[..., 0].copy()
        for j in range(1, groups.shape[-1]):
            acc = acc + groups[..., j]
        return acc
    return np.add.reduce(np.ascontiguousarray(groups.swapaxes(-1, -2)), axis=-2,
                         initial=-0.0 if groups.dtype == np.float32 else 0)


# Reshapes of the lanes axis; a single run's 1-D data takes the cheaper call.


def _split(a, *shape):
    """`a` with its last axis split into `shape`."""
    return a.reshape(shape) if a.ndim == 1 else a.reshape(a.shape[:-1] + shape)


def _flat(a):
    """`a` with its last two axes merged into one."""
    return a.reshape(-1) if a.ndim == 2 else a.reshape(a.shape[:-2] + (-1,))


# ---------------------------------------------------------------------------
# expression evaluation


def eval_expr(e, env):
    """The value of `e` in `env`.  With a memo, a buffer-free `e` is looked
    up first; the evaluators call back through this function for every
    subexpression."""
    memo = env.memo
    if memo is not None:
        seen = memo.seen.get(id(e)) or memo.classify(e)
        if seen[1]:
            key = (id(e), tuple(env.bindings.items()))
            v = memo.values.get(key)
            if v is None:
                v = _EVAL.get(type(e), _cannot_evaluate)(e, env)
                memo.store(key, v)
            return v
    return _EVAL.get(type(e), _cannot_evaluate)(e, env)


def _cannot_evaluate(e, env):
    raise EvalError(f"cannot evaluate {e!r}")


def _eval_imm(e, env):
    if e.kind == "i32":
        return _i32_scalar(int(e.value))
    return VectorValue(e.kind, np.array([round_to_kind(e.value, e.kind)], np.float32))


def _eval_var(e, env):
    if e.name not in env.bindings:
        raise EvalError(f"unbound variable {e.name!r}")
    return _i32_scalar(env.bindings[e.name])


def _eval_load(e, env):
    idx = eval_expr(e.index, env)
    return _gather(e.buffer, idx.data, env, e.vtype.kind)


def _eval_cast(e, env):
    return _cast(eval_expr(e.operand, env), e.vtype.kind)


def _eval_bop(e, env):
    return _bop(e.op, eval_expr(e.lhs, env), eval_expr(e.rhs, env))


def _eval_ramp(e, env):
    base = eval_expr(e.base, env)
    stride = eval_expr(e.stride, env)
    b, s = base.data, stride.data
    if base.kind == "i32" and b.shape == s.shape == (1,) and e.steps > 0:
        return VectorValue("i32", _scalar_ramp(int(b[0]), int(s[0]), e.steps))
    steps = np.arange(e.steps).reshape(-1, 1)
    if b.ndim > 1 or s.ndim > 1:  # per trial: (..., steps, lanes)
        b, s = b[..., None, :], s[..., None, :]
    if base.kind == "i32":
        out = _check_i32(_flat(b + steps * s))
    else:
        out = _flat(b + steps.astype(np.float32) * s)
    return VectorValue(base.kind, out)


_CONCAT_COPIES = 16  # up to here, concatenating the copies beats np.tile


def _eval_broadcast(e, env):
    """`np.tile(data, copies)` along the last axis, by the cheapest call
    that gives the same bits: a one-lane operand repeats, a few copies
    concatenate, and many copies tile."""
    if e.copies < 1:
        raise EvalError(f"cannot broadcast to {e.copies} copies")
    v = eval_expr(e.operand, env)
    d = v.data
    if d.shape[-1] == 1:
        out = np.repeat(d, e.copies, axis=-1)
    elif e.copies <= _CONCAT_COPIES:
        out = np.concatenate((d,) * e.copies, axis=-1)
    else:
        out = np.tile(d, e.copies)
    return VectorValue(v.kind, out)


def _eval_reduce(e, env):
    v = eval_expr(e.operand, env)
    if v.lanes % e.result_lanes:
        raise EvalError(f"cannot reduce {v.lanes} lanes to {e.result_lanes}")
    out = _foldl(_split(v.data, e.result_lanes, -1))
    if v.kind == "i32":
        _check_i32(out)
    return VectorValue(v.kind, out)


def _eval_loc_to_loc(e, env):
    return eval_expr(e.operand, env)


def _eval_exprvar(e, env):
    key = (e.operand, tuple(sorted(
        (n, env.bindings[n]) for n in ir.free_vars(e.operand) if n in env.bindings)))
    if key not in env.exprvar_cache:
        env.exprvar_cache[key] = eval_expr(e.operand, env)
    return env.exprvar_cache[key]


def _eval_shuffle(e, env):
    src = eval_expr(e.source, env)
    return VectorValue(src.kind, layout.gather(src.data, e.indices))


def _eval_call(e, env):
    return eval_intrinsic(e.name, e.args, env)


_EVAL = {ir.Imm: _eval_imm, ir.Var: _eval_var, ir.Load: _eval_load,
         ir.Cast: _eval_cast, ir.Bop: _eval_bop, ir.Ramp: _eval_ramp,
         ir.Broadcast: _eval_broadcast, ir.VectorReduceAdd: _eval_reduce,
         ir.LocToLoc: _eval_loc_to_loc, ir.ExprVar: _eval_exprvar,
         ir.Shuffle: _eval_shuffle, ir.Call: _eval_call}


def _check_bounds(name, idx, length):
    # one reduction: a negative int64 read as uint64 is at least 2^63
    if idx.size and np.maximum.reduce(idx.view(np.uint64), axis=None) >= length:
        raise OutOfBounds(name, int(idx[(idx < 0) | (idx >= length)][0]))


def _take(data, idx):
    """Lanes `idx` of `data`, a new array; an address with leading axes
    picks each trial's lanes from that trial's row."""
    if idx.ndim > 1 and data.ndim > 1:
        return np.take_along_axis(data, idx, axis=-1)
    return data.take(idx, axis=-1)  # a quarter of the time of data[..., idx]


def _gather(name, idx, env, kind=None):
    if name not in env.buffers:
        raise EvalError(f"load from undeclared buffer {name!r}")
    buf = env.buffers[name]
    _check_bounds(name, idx, buf.data.shape[-1])
    return VectorValue(kind or buf.kind, _take(buf.data, idx))


def _cast(v, kind):
    if kind == "i32":
        if v.kind == "i32":
            return v
        return VectorValue("i32", _check_i32(np.trunc(v.data).astype(np.int64)))
    if v.kind == "i32":
        return VectorValue(kind, round_to_kind(v.data.astype(np.float32), kind))
    return VectorValue(kind, round_to_kind(v.data, kind))


def _bop(op, a, b):
    if a.kind != b.kind:
        raise EvalError(f"{op} over {a.kind} and {b.kind}")
    if a.kind == "i32":
        x, y = a.data, b.data
        if op == "+":
            out = x + y
        elif op == "-":
            out = x - y
        elif op == "*":
            out = x * y
        elif op in ("/", "%"):
            if np.any(y == 0):
                raise DivideByZero(f"integer {op} by zero")
            r = np.mod(x, np.abs(y))  # Euclidean: 0 <= r < |y|
            out = r if op == "%" else (x - r) // y
        else:
            raise EvalError(f"unknown op {op}")
        return VectorValue("i32", _check_i32(out))
    x, y = a.data, b.data
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        if op == "+":
            out = x + y
        elif op == "-":
            out = x - y
        elif op == "*":
            out = x * y
        elif op == "/":
            out = x / y
        elif op == "%":
            out = np.fmod(x, y)
        else:
            raise EvalError(f"unknown op {op}")
    return VectorValue(a.kind, out)


# ---------------------------------------------------------------------------
# intrinsic semantics (signatures live in ir.INTRINSICS)


def _scalar_int(v):
    """A scalar i32 argument: an int, or an array of one lane per trial when
    it was read from data."""
    if v.kind != "i32" or v.lanes != 1:
        raise EvalError(f"expected a scalar i32 argument, got {v.kind}x{v.lanes}")
    return int(v.data[0]) if v.data.ndim == 1 else v.data


def _tile_index(args, env, rows, cols):
    """Addresses base + stride*row + col of a rows x cols tile, row-major,
    for the (buffer, base, stride, ...) arguments of a load or store.  A
    memo keeps the addresses of a buffer-free base and stride."""
    memo, key = env.memo, None
    if memo is not None and memo.looks_up(args[1]) and memo.looks_up(args[2]):
        key = (id(args[1]), id(args[2]), rows, cols, tuple(env.bindings.items()))
        hit = memo.values.get(key)
        if hit is not None:
            return hit.data
    base = _scalar_int(eval_expr(args[1], env))
    stride = _scalar_int(eval_expr(args[2], env))
    if isinstance(base, np.ndarray) or isinstance(stride, np.ndarray):
        # per trial: (..., rows, cols)
        base, stride = np.expand_dims(base, -1), np.expand_dims(stride, -1)
    idx = _flat(base + stride * np.arange(rows).reshape(-1, 1) + np.arange(cols))
    if key is not None:
        memo.store(key, VectorValue("i32", idx))
    return idx


def _read(arg, idx, env):
    """Lanes `idx` of a buffer argument: a named buffer, or the value an
    ExprVar materializes (the pre-materialization form)."""
    if isinstance(arg, ir.ExprVar):
        src = eval_expr(arg, env)
        _check_bounds("<exprvar>", idx, src.lanes)
        return VectorValue(src.kind, _take(src.data, idx))
    return _gather(arg.name, idx, env)


def eval_intrinsic(name, args, env):
    """Value of an intrinsic call whose arguments match its ir.INTRINSICS
    signature (ir.validate_program checks every call)."""
    sig = ir.INTRINSICS.get(name)
    if sig is None:
        raise UnknownIntrinsic(name)
    sizes = [int(args[i].value) for i in sig.size_args]

    if name in ("tile_zero", "wmma_zero"):
        return VectorValue("f32", np.zeros(math.prod(sizes), np.float32))

    if name in ("tile_load", "wmma_load_a", "wmma_load_b", "wmma_load_c"):
        v = _read(args[0], _tile_index(args, env, *sizes), env)
        if v.kind != "i32":
            v = VectorValue(v.kind, round_to_kind(v.data, v.kind))
        return v

    if name in ("tile_store", "wmma_store"):
        (cols,) = sizes
        tile = eval_expr(args[4], env)
        _scatter(args[0].name, _tile_index(args, env, tile.lanes // cols, cols),
                 tile, env)
        return tile

    if name in ("tile_matmul", "wmma_mma"):
        if name == "tile_matmul":
            c, a, b = (eval_expr(x, env) for x in args)
        else:
            a, b, c = (eval_expr(x, env) for x in args)
        mkn = ir.derive_mkn(a.lanes, b.lanes, c.lanes)
        if mkn is None:
            raise ShapeUnregistered(
                f"{name}: no (M,K,N) fits lanes A={a.lanes} B={b.lanes} C={c.lanes}")
        m, k, n = mkn
        if (sig.accel, m, k, n) not in env.shapes:
            raise ShapeUnregistered(f"{name}: shape {sig.accel} {m}x{k}x{n} not registered")
        am = _split(a.data, m, k)
        if name == "tile_matmul":
            # b holds the VNNI pack: b[(k//2)*2N + 2j + k%2] = B[k][j]
            bv = _split(b.data, k // 2, 2 * n)
            bm = np.empty(bv.shape[:-2] + (k, n), np.float32)
            bm[..., 0::2, :] = bv[..., 0::2]
            bm[..., 1::2, :] = bv[..., 1::2]
        else:
            bm = _split(b.data, k, n)
        prods = am[..., None] * bm[..., None, :, :]  # (..., m, k, n), f32
        # the k slices summed left to right, one add each: a single
        # `np.add.reduce(prods, axis=-2, initial=-0.0)` gives other NaN bits
        # where a 0*inf product meets a NaN (a 3x3x3 wmma_mma of
        # TestMatmul::test_equals_the_loop), so the loop stays
        s = prods[..., 0, :].copy()
        # in place, but not into one element: numpy adds into that as it
        # reduces, and of two NaNs returns the other one
        into = s if s.size > 1 else None
        for kk in range(1, k):
            s = np.add(s, prods[..., kk, :], out=into)
        out = _split(c.data, m, n) + s
        return VectorValue("f32", _flat(out))

    if name in ("ConvolutionShuffle", "PolyphaseShuffle"):
        spec = ir.shuffle_spec(ir.Call(name, args))
        base = _scalar_int(eval_expr(args[1], env))
        kern = _read(args[0], base + np.arange(spec.kernel_length), env)
        return VectorValue(kern.kind, _flat(layout.matrix_for(kern.data, spec)))

    if name == "KWayInterleave":
        k, row_len = sizes
        v = eval_expr(args[2], env)
        perm = layout.kway_interleave_indices(k, v.lanes // row_len, row_len)
        return VectorValue(v.kind, layout.gather(v.data, perm))

    raise UnknownIntrinsic(name)


def _scatter(name, idx, value, env):
    if name not in env.buffers:
        raise EvalError(f"store into undeclared buffer {name!r}")
    buf = env.buffers[name]
    _check_bounds(name, idx, buf.data.shape[-1])
    data = value.data
    if buf.kind == "i32" and value.kind != "i32":
        data = np.trunc(data).astype(np.int64)
    elif buf.kind != "i32" and value.kind == "i32":
        data = data.astype(np.float32)
    if idx.ndim == 1:
        collided = _put(buf.data, idx, data, _memo_distinct(idx, env.memo))
    else:  # an address read from data: each trial's row on its own
        data = np.broadcast_to(data, idx.shape)
        collided = False
        for t in np.ndindex(idx.shape[:-1]):
            collided |= _put(buf.data[t], idx[t], data[t], _distinct(idx[t]))
    if collided:
        env.lints.append(f"store into {name!r} has colliding lanes (last wins)")


def _distinct(idx):
    """Whether the lanes of the 1-D address `idx` differ."""
    # a set of the lanes' ints costs a third of np.unique or less at 8 to
    # 65,536 lanes (numpy 2.4)
    return len(set(idx.tolist())) == len(idx)


def _memo_distinct(idx, memo):
    """`_distinct(idx)`, kept in `memo` for a read-only address: the memo
    serves only read-only arrays, which it holds, and the entry holds the
    array too, so its id names it while the memo lives."""
    if memo is None or idx.flags.writeable:
        return _distinct(idx)
    hit = memo.distinct.get(id(idx))
    if hit is None:
        hit = memo.distinct[id(idx)] = (idx, _distinct(idx))
    return hit[1]


def _put(dst, idx, data, distinct):
    """dst[..., idx] = data along the last axis, given whether the lanes
    of `idx` are `distinct`; True if lanes collided."""
    if distinct:
        if dst.ndim == 1:  # dst[..., idx] takes a single run 1 us more
            dst[idx] = data
        else:
            dst[..., idx] = data
        return False
    for pos in range(len(idx)):  # last-lane-wins, explicitly ordered
        dst[..., idx[pos]] = data[..., pos]
    return True


# ---------------------------------------------------------------------------
# program execution


def run_program(p, inputs, lint_sink=None, memo=None):
    """Execute `p` over the given parameter buffers; returns the final
    buffer state (parameters, allocations, and temporaries).  Runtime lints
    (store-lane collisions) are appended to `lint_sink` when given.  An
    `EvalMemo` given as `memo` serves and keeps the values of buffer-free
    subexpressions, so runs that share it evaluate each once per loop
    binding; without one, every subexpression is evaluated where it occurs.

    Inputs may carry leading axes before their lanes, the same for every
    parameter: then every buffer has them, and each row is the run of that
    row's inputs alone.  A batch raises if any row would; the error's text
    is the first failing statement's over all rows."""
    store = BufferStore()
    lead = None
    for prm in p.params:
        if prm.name not in inputs:
            raise EvalError(f"missing input buffer {prm.name!r}")
        src = inputs[prm.name]
        data = np.array(src.data if isinstance(src, Buffer) else src,
                        dtype=_dtype_of(prm.kind))
        if data.shape[-1:] != (prm.length,):
            raise EvalError(f"input {prm.name!r} has length "
                            f"{data.shape[-1] if data.ndim else 0}, declared {prm.length}")
        if lead is None:
            lead = data.shape[:-1]
        elif data.shape[:-1] != lead:
            raise EvalError(f"input {prm.name!r} has leading axes {data.shape[:-1]}, "
                            f"other inputs {lead}")
        store[prm.name] = Buffer(prm.kind, prm.location, data)
    env = Env(buffers=store, shapes=shape_registry(p), lead=lead or (), memo=memo)
    if lint_sink is not None:
        env.lints = lint_sink
    _exec_stmts(p.body, env, "body")
    return store


def _exec_stmts(body, env, path):
    for i, s in enumerate(body):
        sp = f"{path}[{i}]"
        try:
            if isinstance(s, ir.Allocate):
                env.buffers[s.name] = Buffer(s.kind, s.location, np.zeros(
                    (*env.lead, s.length), _dtype_of(s.kind)))
            elif isinstance(s, ir.Store):
                idx = eval_expr(s.index, env)
                val = eval_expr(s.value, env)
                if idx.lanes != val.lanes:
                    raise EvalError(
                        f"store index {idx.lanes} lanes, value {val.lanes}")
                _scatter(s.buffer, idx.data, val, env)
            elif isinstance(s, ir.Evaluate):
                eval_expr(s.value, env)
            elif isinstance(s, ir.For):
                for v in range(s.min, s.min + s.extent):
                    env.bindings[s.var] = v
                    _exec_stmts(s.body, env, sp)
                env.bindings.pop(s.var, None)
            else:
                raise EvalError(f"not a statement: {s!r}")
        except EvalError as err:
            if not getattr(err, "stmt_path", None):
                err.stmt_path = sp
                err.args = (f"{sp}: {err.args[0]}",) if err.args else (sp,)
            raise


def compare_sides(lhs, rhs, buffers, shapes=(), memo=None):
    """Evaluate two expressions, or two programs, once over `buffers`
    (name -> Buffer) and compare them bit for bit: one batch of
    `first_failure`.  The buffers' data may carry one leading trial axis,
    the same for every buffer: each row is then a trial, evaluated as it
    would be alone.  `shapes` are the extra shapes two expressions may
    use; two programs run with `memo`, an `EvalMemo` or None.  Returns the
    first row whose sides differ, with its detail, or None (a call without
    a trial axis is row 0).  A program's detail names the first output
    parameter that differs in that row.  The two sides of a pair hold one
    dtype: programs write their parameters in place, and expressions are
    compared once their kinds are equal.  Sides of one shape and the same
    bytes are passed over; a side without the trial axis (it reads no
    buffer) is one row, which numpy broadcasts.  Raises what the evaluation
    raises."""
    lead = next((b.data.shape[:-1] for b in buffers.values()), ())
    if isinstance(lhs, ir.Program):
        out_a = run_program(lhs, buffers, memo=memo)
        out_b = run_program(rhs, buffers, memo=memo)
        sides = [(prm.name, out_a[prm.name].data, out_b[prm.name].data)
                 for prm in lhs.params]
    else:
        store = BufferStore()
        for name, buf in buffers.items():
            store[name] = Buffer(buf.kind, buf.location, buf.data.copy())
        env = Env(buffers=store, lead=lead, shapes=_shape_registry(tuple(shapes)))
        va = eval_expr(lhs, env)
        vb = eval_expr(rhs, env)
        if va.kind != vb.kind or va.lanes != vb.lanes:
            return 0, ("type", 0, (va.kind, va.lanes), (vb.kind, vb.lanes))
        sides = [("value", va.data, vb.data)]
    first = None
    for label, a, b in sides:  # a trial's first differing side is reported
        if a.shape == b.shape and a.tobytes() == b.tobytes():
            continue
        bits = f"u{a.dtype.itemsize}"
        # a side that lacks the trial axis is one row, which numpy broadcasts
        diff = np.atleast_2d(a.view(bits) != b.view(bits))
        hit = np.flatnonzero(diff.any(axis=-1))
        if hit.size and (first is None or hit[0] < first[0]):
            t = int(hit[0])
            a, b = (x if x.ndim == 1 else x[t] for x in (a, b))
            lane = first_differing_lane(a, b)
            first = t, (label, lane, a[lane], b[lane])
    return first


def first_failure(lhs, rhs, params, seeds, shapes=(), memo=None, rows=None):
    """The judge of both `cli.run_difftest` and the soundness fuzzer: the
    first of `seeds` at which the sides `lhs` and `rhs` differ or raise,
    as `(position in seeds, detail)` or `(position, exception)`; None if
    none does.  A seed's buffers are `random_inputs(params, seed)`.  The
    seeds run in batches of `rows` (all of them when None), each one
    `compare_sides` over `random_inputs(params, batch)`, a row per seed.
    A batch of several seeds that raises any exception is replayed seed by
    seed on single-seed fills, so a difference before the raising seed
    still wins and the error is the first failing seed's; a lone seed
    always runs alone.  `shapes` and `memo` go to `compare_sides`; a batch
    whose sides agree costs their evaluation and one bytes test per output."""
    step = rows or max(1, len(seeds))
    for start in range(0, len(seeds), step):
        batch = seeds[start:start + step]
        if len(batch) > 1:
            try:
                hit = compare_sides(lhs, rhs, random_inputs(params, batch), shapes, memo)
            except Exception:  # the replay finds the seed that raises
                pass
            else:
                if hit is not None:
                    return start + hit[0], hit[1]
                continue
        for pos, seed in enumerate(batch, start):
            try:
                hit = compare_sides(lhs, rhs, random_inputs(params, seed), shapes, memo)
            except Exception as e:  # raised unless an earlier seed fails
                return pos, e
            if hit is not None:
                return pos, hit[1]
    return None


def random_inputs(p, seed):
    """Deterministic fill of the parameters of `p` (a Program, or anything
    else with `params`, such as a fuzz `rules.Structure`): one SplitMix64
    stream per seed, consumed in parameter declaration order.  An i32 lane
    is a draw's top 4 bits; a float lane is (draw >> 11) / 2^53 * 2 - 1 in
    float64, computed as (draw >> 11) * 2^-52 - 1 (every step of both is
    exact), rounded to f32 and then to the parameter's kind.  Given a
    sequence of seeds, each buffer has one row per seed, equal to that
    seed's fill; without parameters the fill is {}."""
    if not p.params:
        return {}
    batch = np.ndim(seed) > 0
    # one stream state per seed, a column so draws run along the rows
    state = np.array([int(s) % 2**64 for s in (seed if batch else [seed])],
                     np.uint64).reshape(-1, 1)
    out = {}
    for prm in p.params:
        z = _splitmix64(state, prm.length)
        state = state + np.uint64(prm.length * _GAMMA % 2**64)  # wraps mod 2^64
        z >>= np.uint64(60 if prm.kind == "i32" else 11)
        if prm.kind == "i32":
            data = z.astype(np.int64)
        else:
            data = round_to_kind((z * 2.0**-52 - 1.0).astype(np.float32), prm.kind)
        out[prm.name] = Buffer(prm.kind, prm.location, data if batch else data[0])
    return out


# ---------------------------------------------------------------------------
# buffer directory I/O

_NP_DTYPE = {"f32": "<f4", "f16": "<f2", "i32": "<i4", "bf16": "<u2"}


def save_buffers(store, dirpath):
    d = Path(dirpath)
    d.mkdir(parents=True, exist_ok=True)
    manifest = []
    for name in sorted(store):
        buf = store[name]
        manifest.append({"name": name, "kind": buf.kind, "length": len(buf.data),
                         "location": buf.location})
        if buf.kind == "bf16":
            raw = (buf.data.astype(np.float32).view(np.uint32) >> 16).astype("<u2")
        else:
            raw = buf.data.astype(_NP_DTYPE[buf.kind])
        (d / f"{name}.bin").write_bytes(raw.tobytes())
    (d / "manifest.json").write_text(json.dumps({"buffers": manifest}, indent=2) + "\n")


def load_buffers(dirpath):
    """Read a directory written by `save_buffers`.  A missing file raises
    OSError; a malformed manifest or buffer file, EvalError."""
    d = Path(dirpath)
    try:
        manifest = json.loads((d / "manifest.json").read_text())
        entries = [(e["name"], e["kind"], e["length"], e.get("location", "mem"))
                   for e in manifest["buffers"]]
    except (ValueError, KeyError, TypeError, AttributeError) as e:
        raise EvalError(f"malformed manifest.json: {e!r}") from None
    out = BufferStore()
    for name, kind, length, location in entries:
        if not isinstance(name, str) or not ir.NAME_RE.fullmatch(name):
            raise EvalError(f"buffer name {name!r} is not a plain name")
        if kind not in ir.SCALAR_KINDS or not isinstance(length, int):
            raise EvalError(f"buffer {name!r} has kind {kind!r} and length "
                            f"{length!r}, not a known kind and an integer")
        blob = (d / f"{name}.bin").read_bytes()
        if len(blob) != length * np.dtype(_NP_DTYPE[kind]).itemsize:
            raise EvalError(f"{name}.bin has {len(blob)} bytes, manifest says "
                            f"{length} {kind} elements")
        raw = np.frombuffer(blob, _NP_DTYPE[kind])
        if kind == "bf16":
            data = (raw.astype(np.uint32) << 16).view(np.float32).copy()
        elif kind == "f16":
            data = raw.astype(np.float32)
        elif kind == "i32":
            data = raw.astype(np.int64)
        else:
            data = raw.astype(np.float32)
        out[name] = Buffer(kind, location, data)
    return out
