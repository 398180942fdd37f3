"""Hypothesis strategies for well-typed IR terms.

`exprs(vtype)` draws, top down, an expression whose `ir.type_of` is `vtype`,
from every expression class of `ir.TERMS` but Call; `stmts(vtype)` draws a
Store or Evaluate whose value has that type.  Intrinsic calls are left to the
lowered corpus and `test_ir.TestIntrinsics`, which build them by signature.
The terms are typed, not whole programs: their buffers are not declared and
their variables are not bound.

Immediates take every i32, and every f32 but NaN (an Imm holding NaN is
unequal to its own copy), including -0.0, subnormals and the infinities.
"""

from hypothesis import strategies as st

from tensorsel import ir
from tensorsel.ir import (Bop, Broadcast, Cast, Evaluate, ExprVar, Imm, Load,
                          LocToLoc, Ramp, Shuffle, Store, Var, VecType,
                          VectorReduceAdd)

NAMES = st.sampled_from(("a", "b", "x"))
KINDS = st.sampled_from(ir.SCALAR_KINDS)
TYPES = st.builds(VecType, KINDS, st.sampled_from((1, 2, 3, 4, 6, 8)))
# the operators that the head words of Bop and LocToLoc spell
_OPS = st.sampled_from([op for op, in ir.SPELLING[Bop][0].values()])
_MOVES = st.sampled_from(list(ir.SPELLING[LocToLoc][0].values()))


# f32 values that plain draws seldom reach: the zeros, subnormals, and the
# largest finite f32
_F32_CORNERS = (0.0, -0.0, 2.0**-149, -(2.0**-130), 3.4028234663852886e38)


def _imms(kind):
    if kind == "i32":
        values = st.integers(ir.I32_MIN, ir.I32_MAX)
    else:
        values = st.floats(allow_nan=False, width=32) | st.sampled_from(_F32_CORNERS)
    return values.map(lambda v: Imm(kind, v))


def _leaves(vtype):
    """An immediate or, for i32, a variable; broadcast to `vtype`'s lanes."""
    scalars = _imms(vtype.kind)
    if vtype.kind == "i32":
        scalars |= st.builds(Var, NAMES)
    n = vtype.lanes
    return scalars if n == 1 else scalars.map(lambda e: Broadcast(e, n))


def _divisor(draw, n):
    return draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]))


# every TERMS expression class but Call, less the leaves Imm and Var
INNER = (Load, Cast, Bop, Ramp, Broadcast, VectorReduceAdd, LocToLoc, ExprVar, Shuffle)


@st.composite
def exprs(draw, vtype, depth=3):
    """An expression of type `vtype`, at most `depth` inner nodes deep."""
    kind, n = vtype.kind, vtype.lanes
    if depth == 0 or draw(st.integers(0, len(INNER))) == 0:
        return draw(_leaves(vtype))

    def sub(kind, lanes):
        return draw(exprs(VecType(kind, lanes), depth - 1))

    cls = draw(st.sampled_from(INNER))
    if cls is Load:
        return Load(draw(NAMES), vtype, sub("i32", n))
    if cls is Cast:
        return Cast(vtype, sub(draw(KINDS), n))
    if cls is Bop:
        return Bop(draw(_OPS), sub(kind, n), sub(kind, n))
    if cls is Ramp:
        steps = _divisor(draw, n)
        return Ramp(sub(kind, n // steps), sub(kind, n // steps), steps)
    if cls is Broadcast:
        copies = _divisor(draw, n)
        return Broadcast(sub(kind, n // copies), copies)
    if cls is VectorReduceAdd:
        return VectorReduceAdd(n, sub(kind, n * draw(st.integers(1, 3))))
    if cls is LocToLoc:
        return LocToLoc(*draw(_MOVES), sub(kind, n))
    if cls is ExprVar:
        return ExprVar(sub(kind, n))
    m = draw(st.integers(1, 4))  # a Shuffle of an m-lane source
    return Shuffle(sub(kind, m), tuple(draw(
        st.lists(st.integers(-1, m - 1), min_size=n, max_size=n))))


@st.composite
def stmts(draw, vtype, depth=3):
    """A Store or Evaluate whose value has type `vtype`."""
    value = draw(exprs(vtype, depth))
    if draw(st.booleans()):
        return Evaluate(value)
    return Store(draw(NAMES), draw(exprs(VecType("i32", vtype.lanes), depth)), value)
