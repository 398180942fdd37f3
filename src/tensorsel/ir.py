"""Vectorized tensor IR: expression/statement trees, lane discipline, and the
textual s-expression format.

Expressions are immutable; lane counts are computable bottom-up.  Ramp
concatenates an arithmetic progression of vectors, Broadcast concatenates
copies, and VectorReduceAdd sums contiguous lane groups down to a stated
number of result lanes.  Index expressions are i32 with Euclidean division
and modulus.

Shuffle carries a literal index sequence; index -1 selects a constant zero
lane (codegen would realize it by prepending one zero lane to the source).

Every static fact about an intrinsic -- argument roles, where its operands
and result live, its result kind and lane count -- is one `INTRINSICS`
record.  One bottom-up walk types a tree: each node's rule reads its own
fields and its children's kinds and lanes, and a Call's rule checks it
against its record, so intrinsic calls are typed like every other node.
`type_of`, `lanes_of` and `validate_program` all read that walk; a node's
rule is its lane rule (`_node_lanes`) and its kind, and `widest_lanes`
walks the lane rules alone.  `interp` holds only what calls compute.

`TERMS` gives each encoded node its e-graph head and its fields with their
roles; `SPELLING`, beside it, gives its surface head word and field labels.
The two drive the reader and the printer; only `param`, `*-shape`,
`allocate` and `for`, which selection never encodes, are spelled by hand.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from typing import NamedTuple

from . import layout

SCALAR_KINDS = ("bf16", "f16", "f32", "i32")
LOCATIONS = ("mem", "amx", "wmma")
I32_MIN, I32_MAX = -(2**31), 2**31 - 1
# buffer and loop-variable names; a buffer name is also a file name
NAME_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_]*")


class IRError(Exception):
    """`msg` about the node at `path` (such as body[0].value.lhs), if known:
    a string, or a step of the typed walk, which is spelled here."""

    def __init__(self, msg, path=""):
        path = _spelled(path)
        super().__init__(f"{path}: {msg}" if path else msg)
        self.msg, self.path = msg, path


def _spelled(path):
    """A node path: a string, or a (parent path, field) or (parent path,
    field, index) step of the typed walk, which spells it only for an error."""
    if isinstance(path, str):
        return path
    parent, name, *index = path
    return f"{_spelled(parent)}.{name}" + "".join(f"[{i}]" for i in index)


class LaneMismatch(IRError):
    pass


class KindMismatch(IRError):
    pass


class UnknownBuffer(IRError):
    def __init__(self, name):
        super().__init__(f"undeclared buffer {name!r}")
        self.name = name


@dataclass(frozen=True)
class VecType:
    kind: str
    lanes: int

    def __post_init__(self):
        assert self.kind in SCALAR_KINDS, self.kind
        assert self.lanes >= 1


class Expr:
    """Base for all expression variants."""


@dataclass(frozen=True)
class Imm(Expr):
    """Two immediates are equal when their kinds match and their values are
    equal with the same sign, so the zeros 0.0 and -0.0, which evaluate
    differently, differ.  The hash stays the dataclass's: equal immediates
    hash alike, and the two zeros merely collide."""

    kind: str
    value: float | int

    def __eq__(self, other):
        if other.__class__ is not Imm:
            return NotImplemented
        v, w = self.value, other.value
        return self.kind == other.kind and (v is w or v == w and (
            v != 0 or math.copysign(1.0, v) == math.copysign(1.0, w)))


@dataclass(frozen=True)
class Var(Expr):
    """Scalar i32 symbol: a loop index or base offset."""

    name: str


@dataclass(frozen=True)
class Load(Expr):
    buffer: str
    vtype: VecType
    index: Expr


@dataclass(frozen=True)
class Cast(Expr):
    vtype: VecType
    operand: Expr


@dataclass(frozen=True)
class Bop(Expr):
    op: str
    lhs: Expr
    rhs: Expr


@dataclass(frozen=True)
class Ramp(Expr):
    base: Expr
    stride: Expr
    steps: int


@dataclass(frozen=True)
class Broadcast(Expr):
    operand: Expr
    copies: int


@dataclass(frozen=True)
class VectorReduceAdd(Expr):
    """Sums contiguous groups of the operand down to `result_lanes` lanes.

    The integer argument is the number of RESULT lanes; each group is the
    operand's lanes divided by it.
    """

    result_lanes: int
    operand: Expr


@dataclass(frozen=True)
class Call(Expr):
    name: str
    args: tuple


@dataclass(frozen=True)
class LocToLoc(Expr):
    src: str
    dst: str
    operand: Expr


@dataclass(frozen=True)
class ExprVar(Expr):
    """Reference to a temporary buffer holding the materialized operand."""

    operand: Expr


@dataclass(frozen=True)
class Shuffle(Expr):
    source: Expr
    indices: tuple


class Stmt:
    """Base for all statement variants."""


@dataclass(frozen=True)
class Allocate(Stmt):
    name: str
    kind: str
    length: int
    location: str


@dataclass(frozen=True)
class Store(Stmt):
    buffer: str
    index: Expr
    value: Expr


@dataclass(frozen=True)
class Evaluate(Stmt):
    value: Expr


@dataclass(frozen=True)
class For(Stmt):
    var: str
    min: int
    extent: int
    body: tuple


# The shape of every node that selection encodes: its e-graph head and its
# fields in dataclass order, which is also child order.  A field's role is
# `op` (a value that follows the head in the e-node's operator), `expr` (a
# child expression), `exprs` (a tuple of them), or `int`, `type` or `name`
# (a child leaf term holding an int, a VecType or a buffer name).
TERMS = {
    Imm: ("imm", (("kind", "op"), ("value", "op"))),
    Var: ("var", (("name", "op"),)),
    Load: ("load", (("buffer", "name"), ("vtype", "type"), ("index", "expr"))),
    Cast: ("cast", (("vtype", "type"), ("operand", "expr"))),
    Bop: ("bop", (("op", "op"), ("lhs", "expr"), ("rhs", "expr"))),
    Ramp: ("ramp", (("base", "expr"), ("stride", "expr"), ("steps", "int"))),
    Broadcast: ("bcast", (("operand", "expr"), ("copies", "int"))),
    VectorReduceAdd: ("vra", (("result_lanes", "int"), ("operand", "expr"))),
    Call: ("call", (("name", "op"), ("args", "exprs"))),
    LocToLoc: ("l2l", (("src", "op"), ("dst", "op"), ("operand", "expr"))),
    ExprVar: ("exprvar", (("operand", "expr"),)),
    Shuffle: ("shuffle", (("source", "expr"), ("indices", "op"))),
    Store: ("store", (("buffer", "name"), ("index", "expr"), ("value", "expr"))),
    Evaluate: ("evaluate", (("value", "expr"),)),
}

# The surface spelling of every TERMS node: its head word, and a reader label
# for each field whose role does not decide how it is read, which also names
# the field in the reader's errors.  Bop and LocToLoc have a head word per
# operator instead, which spells the values of their leading fields.  The
# reader and the printer are driven by this table and TERMS.
SPELLING = {
    Imm: ("imm", {"kind": "scalar kind", "value": "literal"}),
    Var: ("var", {"name": "name"}),
    Load: ("load", {"buffer": "buffer name"}),
    Cast: ("cast", {}),
    Bop: ({"add": ("+",), "sub": ("-",), "mul": ("*",), "div": ("/",), "mod": ("%",)}, {}),
    Ramp: ("ramp", {"steps": "step count"}),
    Broadcast: ("broadcast", {"copies": "copy count"}),
    VectorReduceAdd: ("vector-reduce-add", {"result_lanes": "result lanes"}),
    Call: ("call", {"name": "intrinsic name"}),
    LocToLoc: ({"mem2amx": ("mem", "amx"), "amx2mem": ("amx", "mem"),
                "mem2wmma": ("mem", "wmma"), "wmma2mem": ("wmma", "mem")}, {}),
    ExprVar: ("exprvar", {}),
    Shuffle: ("shuffle", {"indices": "shuffle index"}),
    Store: ("store", {"buffer": "buffer name"}),
    Evaluate: ("evaluate", {}),
}


@dataclass(frozen=True)
class Param:
    name: str
    kind: str
    length: int
    location: str = "mem"


@dataclass(frozen=True)
class ShapeDecl:
    """Registered accelerator MatMul shape: C[m,n] += A[m,k] * B[k,n]."""

    target: str  # "amx" | "wmma"
    m: int
    k: int
    n: int


@dataclass(frozen=True)
class Program:
    params: tuple = ()
    body: tuple = ()
    shapes: tuple = ()


HARDWARE_SHAPES = (
    ShapeDecl("amx", 16, 32, 16),
    ShapeDecl("wmma", 32, 16, 8),
    ShapeDecl("wmma", 16, 16, 16),
)


def program_shapes(p):
    """The shapes `p` may use: the hardware shapes, then the ones `p`
    declares (a Program, or anything else with declared `shapes`)."""
    return HARDWARE_SHAPES + tuple(p.shapes)


# ---------------------------------------------------------------------------
# intrinsic signatures
#
# Canonical hardware shapes: AMX 16x32x16 over bf16 (B tiles in the VNNI
# layout), WMMA m32n8k16 and m16n16k16 over f16 (row-major fragments).
# Loads and stores carry explicit (rows, cols) so a lowered program is
# self-describing; matmul shapes are derived from operand lane counts.


@dataclass(frozen=True)
class Intrinsic:
    """Static signature of one intrinsic.

    roles: per argument, "buffer" (a Var naming a buffer, or an ExprVar
        before materialization), "index" (a one-lane i32 address), "expr" (a
        memory value), "imm" (an i32 immediate >= 1, a size) or "tile" (a
        value living on `accel`).
    accel: where the tile operands live.
    loc: where the result lives; a store's value is spent into memory.
    kind: the result kind, or the position of the argument whose kind it
        has (for a buffer argument, the buffer's kind).
    lanes: "sizes" for the product of the sizes, "spec" for the kernel
        matrix of `shuffle_spec`, or the position of the argument whose
        lanes it has; those lanes must split into blocks of the sizes.
    """

    roles: tuple
    accel: str
    loc: str
    kind: str | int
    lanes: str | int

    @property
    def size_args(self):
        """Positions of the "imm" arguments."""
        return tuple(i for i, r in enumerate(self.roles) if r == "imm")


_LOAD = ("buffer", "index", "index", "imm", "imm")
_STORE = ("buffer", "index", "index", "imm", "tile")

INTRINSICS = {
    "tile_zero": Intrinsic(("imm", "imm"), "amx", "amx", "f32", "sizes"),
    "tile_load": Intrinsic(_LOAD, "amx", "amx", 0, "sizes"),
    "tile_matmul": Intrinsic(("tile",) * 3, "amx", "amx", "f32", 0),  # C, A, B
    "tile_store": Intrinsic(_STORE, "amx", "mem", "f32", 4),
    "wmma_load_a": Intrinsic(_LOAD, "wmma", "wmma", 0, "sizes"),
    "wmma_load_b": Intrinsic(_LOAD, "wmma", "wmma", 0, "sizes"),
    "wmma_load_c": Intrinsic(_LOAD, "wmma", "wmma", "f32", "sizes"),
    "wmma_zero": Intrinsic(("imm", "imm"), "wmma", "wmma", "f32", "sizes"),
    "wmma_mma": Intrinsic(("tile",) * 3, "wmma", "wmma", "f32", 2),  # A, B, C
    "wmma_store": Intrinsic(_STORE, "wmma", "mem", "f32", 4),
    "ConvolutionShuffle": Intrinsic(  # kernel, base, rows, cols
        ("buffer", "index", "imm", "imm"), "mem", "mem", 0, "spec"),
    "KWayInterleave": Intrinsic(("imm", "imm", "expr"), "mem", "mem", 2, 2),
    "PolyphaseShuffle": Intrinsic(  # kernel, base, l, k, p, s
        ("buffer", "index", "imm", "imm", "imm", "imm"), "mem", "mem", 0, "spec"),
}


def derive_mkn(la, lb, lc):
    """Unique (M, K, N) with M*K = la, K*N = lb, M*N = lc, or None."""
    if la * lc % lb or lb * lc % la or la * lb % lc:
        return None
    m2, n2, k2 = la * lc // lb, lb * lc // la, la * lb // lc
    m, n, k = math.isqrt(m2), math.isqrt(n2), math.isqrt(k2)
    if m * m != m2 or n * n != n2 or k * k != k2 or not (m and n and k):
        return None
    return m, k, n


def _signature(call, path):
    sig = INTRINSICS.get(call.name)
    if sig is None:
        raise LaneMismatch(f"unknown intrinsic {call.name!r}", path)
    if len(call.args) != len(sig.roles):
        raise LaneMismatch(f"{call.name} takes {len(sig.roles)} arguments, "
                           f"got {len(call.args)}", path)
    return sig


def _call_kind(call, kids, buffers, path):
    """The kind of an intrinsic call, checked against its record; `kids`
    are its arguments' pairs.  The first kind error of an argument is the
    call's, and then an "index" argument that is not i32."""
    try:
        sig = _signature(call, path)
    except LaneMismatch as err:
        return err
    bad = _first_error(*(k for k, _ in kids)) or next((
        KindMismatch(f"{call.name} argument {i} must be i32, got {k}", path)
        for i, ((k, _), role) in enumerate(zip(kids, sig.roles))
        if role == "index" and k != "i32"), None)
    if bad is not None:
        return bad
    if isinstance(sig.kind, str):
        return sig.kind
    arg = call.args[sig.kind]
    if sig.roles[sig.kind] != "buffer" or not isinstance(arg, Var):
        return kids[sig.kind][0]
    if buffers is None:
        return IRError(f"the kind of {call.name} needs a buffer table", path)
    if arg.name not in buffers:
        return UnknownBuffer(arg.name)
    return buffers[arg.name][0]


def _call_lanes(call, sig, lanes, path):
    """Lane count of an intrinsic call whose arguments have `lanes`; raises
    the first of its arguments' errors and its own."""
    for i, (a, role, n) in enumerate(zip(call.args, sig.roles, lanes)):
        if role == "buffer" and not isinstance(a, (Var, ExprVar)):
            raise LaneMismatch(f"{call.name} argument {i} must name a buffer, "
                               f"got {print_expr(a)}", path)
        if role == "imm" and not (isinstance(a, Imm) and a.kind == "i32"
                                  and int(a.value) >= 1):
            raise LaneMismatch(f"{call.name} argument {i} must be an i32 "
                               f"immediate >= 1, got {print_expr(a)}", path)
        if isinstance(n, IRError):
            raise n
        if role == "index" and n != 1:
            raise LaneMismatch(f"{call.name} argument {i} has {n} lanes, not 1", path)
    if sig.lanes == "spec":
        spec = shuffle_spec(call, path)
        return layout.matrix_rows(spec) * spec.k
    sizes = math.prod(int(call.args[i].value) for i in sig.size_args)
    if sig.lanes == "sizes":
        return sizes
    n = lanes[sig.lanes]
    if n % sizes:
        raise LaneMismatch(f"{call.name} argument {sig.lanes} has {n} lanes, "
                           f"not a multiple of {sizes}", path)
    if call.name == "KWayInterleave":
        k, row_len = (int(call.args[i].value) for i in sig.size_args)
        try:
            layout.check_interleave(k, n // row_len, row_len)
        except ValueError as e:  # too many entries
            raise LaneMismatch(f"{call.name}: {e}", path) from None
    if set(sig.roles) == {"tile"}:  # a MatMul
        a, b, n = _matmul_lanes(sig, lanes)
        if derive_mkn(a, b, n) is None:
            raise LaneMismatch(f"{call.name}: no (M,K,N) fits lanes A={a} B={b} C={n}", path)
    return n


def _matmul_lanes(sig, lanes):
    """The (A, B, C) lanes of a MatMul call whose arguments have `lanes`:
    C is the argument whose lanes the result has, A and B the others in
    their order."""
    a, b = (m for i, m in enumerate(lanes) if i != sig.lanes)
    return a, b, lanes[sig.lanes]


def shuffle_spec(call, path="e"):
    """The layout.ToeplitzSpec of a ConvolutionShuffle or PolyphaseShuffle
    call whose sizes are positive i32 immediates."""
    sizes = [int(a.value) for a in call.args[2:]]
    if call.name == "ConvolutionShuffle":
        rows, cols = sizes
        if rows <= cols:
            raise LaneMismatch(f"ConvolutionShuffle needs rows > cols, "
                               f"got {rows} and {cols}", path)
        fields = {"l": rows - cols, "k": cols}
    else:
        l, k, p, s = sizes
        if p > 1 and s > 1:
            raise LaneMismatch(f"PolyphaseShuffle phases {p} and stride {s} "
                               f"are exclusive", path)
        fields = {"l": l, "k": k, "s": s, "p": p}
    try:
        return layout.ToeplitzSpec(**fields)
    except ValueError as e:  # the matrix is too large
        raise LaneMismatch(f"{call.name}: {e}", path) from None


# ---------------------------------------------------------------------------
# typing: one bottom-up walk


def _first_error(*halves):
    return next((h for h in halves if isinstance(h, IRError)), None)


def _typed(e, buffers, path, types=None):
    """The (kind, lanes) pair of `e`, its children typed first.  A half that
    some rule in the subtree rejects is instead the first such error, and
    the walk goes on past it, so every node is typed; `types`, when given,
    maps the id of each node to its pair.  A child's path is a step from
    `path`, which `IRError` spells only for an error (`_spelled`)."""
    kids = []
    for name, role in _CHILD_FIELDS.get(e.__class__, ()):
        v = getattr(e, name)
        if role == "expr":
            kids.append(_typed(v, buffers, (path, name), types))
        elif role == "exprs":
            kids += [_typed(a, buffers, (path, name, i), types) for i, a in enumerate(v)]
    t = _node_type(e, kids, buffers, path)
    if types is not None:
        types[id(e)] = t
    return t


def _node_type(e, kids, buffers, path):
    """The typing rule of `e`'s class over its children's pairs `kids`:
    its lanes by `_node_lanes`, and its kind."""
    cls = e.__class__
    if cls is Imm or cls is Var:
        return ("i32" if cls is Var else e.kind), 1
    lanes = _node_lanes(e, [n for _, n in kids], path)
    if cls is Call:
        return _call_kind(e, kids, buffers, path), lanes
    if not isinstance(e, Expr) or not kids:  # lanes is the error
        return lanes, lanes
    kind = kids[0][0]
    if (cls is Load or cls is Cast) and not isinstance(kind, IRError):
        kind = (UnknownBuffer(e.buffer) if cls is Load and buffers is not None
                and e.buffer not in buffers else e.vtype.kind)
    elif cls is Bop or cls is Ramp:
        other = kids[1][0]
        kind = _first_error(kind, other) or (kind if kind == other else KindMismatch(
            f"{e.op} over {kind} and {other}" if cls is Bop
            else f"ramp base {kind}, stride {other}", path))
    return kind, lanes  # LocToLoc, ExprVar and Shuffle keep the kind


def _node_lanes(e, lanes, path):
    """The lane rule of `e`'s class over its children's lanes: an int, or
    an error.  A lane error in a child wins over the node's own, except
    for a Broadcast's copy count, which is checked first."""
    cls = e.__class__
    if cls is Imm or cls is Var:
        return 1
    if cls is Call:
        try:
            return _call_lanes(e, _signature(e, path), lanes, path)
        except IRError as err:
            return err
    if not isinstance(e, Expr) or not lanes:  # every other class has a child
        return IRError(f"not an Expr: {e!r}", path)
    if cls is Broadcast and e.copies < 1:
        return LaneMismatch("broadcast needs >= 1 copy", path)
    bad = _first_error(*lanes)
    if bad is not None:
        return bad
    n = lanes[0]
    if (cls is Load or cls is Cast) and n != e.vtype.lanes:
        return LaneMismatch(f"load of {e.vtype.lanes} lanes with {n}-lane index"
                            if cls is Load else
                            f"cast to {e.vtype.lanes} lanes of {n}-lane operand", path)
    if (cls is Bop or cls is Ramp) and n != lanes[1]:
        return LaneMismatch(f"{e.op} over {n} vs {lanes[1]} lanes" if cls is Bop
                            else f"ramp base {n} lanes, stride {lanes[1]}", path)
    if cls is Ramp:
        return e.steps * n if e.steps >= 1 else LaneMismatch("ramp needs >= 1 step", path)
    if cls is Broadcast:
        return e.copies * n
    if cls is VectorReduceAdd:
        r = e.result_lanes
        return r if r >= 1 and not n % r else LaneMismatch(f"cannot reduce {n} lanes to {r}", path)
    if cls is Shuffle:
        out = [i for i in e.indices if i != -1 and not 0 <= i < n]
        if out:
            return LaneMismatch(f"shuffle index {out[0]} out of [0,{n})", path)
        return len(e.indices) or LaneMismatch("empty shuffle", path)
    return n  # Load, Cast, Bop, LocToLoc and ExprVar


def lanes_of(e, path="e"):
    """Lane count of `e`, raising LaneMismatch (with a node path) on any
    violation of the lane constraints."""
    lanes = _typed(e, None, path)[1]
    if isinstance(lanes, IRError):
        raise lanes
    return lanes


def widest_lanes(p):
    """The most lanes of any expression node of `p`, by `_node_lanes`
    alone: no kinds, and the path of a node only in an error; 1 when it
    has none.  A node whose lanes are an error counts for none."""
    found, stack = [1], list(p.body)
    while stack:
        s = stack.pop()
        if isinstance(s, For):
            stack += s.body
        for e in children(s):
            _lanes(e, found)
    return max(n for n in found if isinstance(n, int))


def _lanes(e, found):
    """`_node_lanes` of `e`, its children's first, appended to `found`
    after theirs."""
    lanes = []
    for name, role in _CHILD_FIELDS.get(e.__class__, ()):
        if role == "expr":
            lanes.append(_lanes(getattr(e, name), found))
        elif role == "exprs":
            lanes += [_lanes(a, found) for a in getattr(e, name)]
    found.append(_node_lanes(e, lanes, "e"))
    return found[-1]


def type_of(e, buffers=None, path="e"):
    """Vector type of `e`.  With a declaration table (`buffers`: name ->
    (kind, length, location)), also checks that loads and buffer-kinded
    calls reference declared buffers.  A lane error anywhere is raised
    before a kind error."""
    kind, lanes = _typed(e, buffers, path)
    err = _first_error(lanes, kind)
    if err is not None:
        raise err
    return VecType(kind, lanes)


def walk_exprs(e):
    yield e
    for child in children(e):
        yield from walk_exprs(child)


# per node class with children, its fields with their TERMS roles
_CHILD_FIELDS = {cls: fields for cls, (_, fields) in TERMS.items()
                 if any(role in ("expr", "exprs") for _, role in fields)}


def children(n):
    """The child expressions of an expression or statement, in child order."""
    out = ()
    for name, role in _CHILD_FIELDS.get(n.__class__, ()):
        if role == "expr":
            out += (getattr(n, name),)
        elif role == "exprs":
            out += getattr(n, name)
    return out


def map_expr(n, f):
    """`n`, an expression or statement, rebuilt with `f` applied to each of
    its `children`; a node without children comes back as it is."""
    fields = _CHILD_FIELDS.get(n.__class__)
    if fields is None:
        return n
    args = []
    for name, role in fields:
        v = getattr(n, name)
        args.append(f(v) if role == "expr" else tuple(map(f, v)) if role == "exprs" else v)
    return n.__class__(*args)


def free_vars(e):
    return {x.name for x in walk_exprs(e) if isinstance(x, Var)}


def walk_stmts(body, path="body"):
    """Yields (path, stmt) over a statement sequence, descending into loops."""
    for i, s in enumerate(body):
        p = f"{path}[{i}]"
        yield p, s
        if isinstance(s, For):
            yield from walk_stmts(s.body, p + ".body")


def map_stmts(body, f, path="body"):
    """Rebuilds a statement sequence: each statement is replaced by the
    tuple `f(path, stmt)` returns.  A loop reaches `f` after its body has
    been rebuilt.  Paths are those of `walk_stmts`."""
    out = []
    for i, s in enumerate(body):
        p = f"{path}[{i}]"
        if isinstance(s, For):
            s = For(s.var, s.min, s.extent, map_stmts(s.body, f, p + ".body"))
        out.extend(f(p, s))
    return tuple(out)


# ---------------------------------------------------------------------------
# validation


@dataclass
class ValidationReport:
    errors: list = field(default_factory=list)
    warnings: list = field(default_factory=list)

    @property
    def ok(self):
        return not self.errors

    def __str__(self):
        lines = [f"error: {p}: {m}" for p, m in self.errors]
        lines += [f"warning: {p}: {m}" for p, m in self.warnings]
        return "\n".join(lines) if lines else "ok"


def buffer_table(p):
    decls = [*p.params, *(s for _, s in walk_stmts(p.body) if isinstance(s, Allocate))]
    return {d.name: (d.kind, d.length, d.location) for d in decls}


def _not_i32(kind):
    """Whether `kind`, a kind or a typing error, is a kind other than i32."""
    return isinstance(kind, str) and kind != "i32"


def validate_program(p):
    """Full-program scan; collects every violation instead of aborting."""
    rep = ValidationReport()
    buffers = {}
    names = set()
    shapes = set(program_shapes(p))

    def check_name(path, name):
        if not NAME_RE.fullmatch(name):
            rep.errors.append((path, f"bad name {name!r}"))

    for prm in p.params:
        check_name("params", prm.name)
        if prm.name in names:
            rep.errors.append(("params", f"duplicate name {prm.name!r}"))
        names.add(prm.name)
        if prm.location != "mem":
            rep.errors.append(
                ("params", f"external parameter {prm.name!r} must be mem-located"))
        if prm.length < 1:
            rep.errors.append(("params", f"parameter {prm.name!r} of length {prm.length}"))
        buffers[prm.name] = (prm.kind, prm.length, prm.location)

    for path, s in walk_stmts(p.body):
        if isinstance(s, Allocate):
            check_name(path, s.name)
            if s.name in names:
                rep.errors.append((path, f"duplicate name {s.name!r}"))
            names.add(s.name)
            buffers[s.name] = (s.kind, s.length, s.location)

    def check_expr(e, path, bound):
        """Reports the errors in `e`; returns its (kind, lanes)."""
        types = {}
        kind, lanes = _typed(e, buffers, path, types)
        err = _first_error(lanes, kind)
        if err is not None:
            rep.errors.append((err.path or path, err.msg))
        # an undeclared buffer that typing reported is not reported again
        told = err.name if isinstance(err, UnknownBuffer) else None
        for sub in walk_exprs(e):
            if isinstance(sub, Load):
                if sub.buffer == told:
                    told = None
                elif sub.buffer not in buffers:
                    rep.errors.append((path, str(UnknownBuffer(sub.buffer))))
                else:
                    if _not_i32(types[id(sub.index)][0]):
                        rep.errors.append(
                            (path, f"load index into {sub.buffer!r} is not i32"))
                    if sub.vtype.kind != buffers[sub.buffer][0]:
                        rep.errors.append((path, f"load of {sub.vtype.kind} from "
                                           f"{sub.buffer!r} of kind {buffers[sub.buffer][0]}"))
            if isinstance(sub, Var) and sub.name not in bound and sub.name not in buffers:
                rep.errors.append((path, f"unbound variable {sub.name!r}"))
            if isinstance(sub, LocToLoc) and sub.src == sub.dst:
                rep.errors.append((path, f"loc_to_loc {sub.src}->{sub.dst}"))
            if isinstance(sub, ExprVar):
                for inner in walk_exprs(sub.operand):
                    if isinstance(inner, ExprVar):
                        rep.errors.append((path, "exprvar nested inside exprvar"))
            if isinstance(sub, Imm) and sub.kind == "i32":
                if not I32_MIN <= int(sub.value) <= I32_MAX:
                    rep.errors.append((path, f"i32 immediate {sub.value} overflows"))
            if (isinstance(sub, Call) and sub.name in ("tile_matmul", "wmma_mma")
                    and not isinstance(types[id(sub)][1], IRError)):
                sig = INTRINSICS[sub.name]
                m, k, n = derive_mkn(*_matmul_lanes(sig, [types[id(a)][1] for a in sub.args]))
                if ShapeDecl(sig.accel, m, k, n) not in shapes:
                    rep.errors.append(
                        (path, f"{sub.name}: shape {sig.accel} {m}x{k}x{n} not registered"))
        return kind, lanes

    def check_stmts(body, path, bound):
        for i, s in enumerate(body):
            sp = f"{path}[{i}]"
            if isinstance(s, Store):
                if s.buffer not in buffers:
                    rep.errors.append((sp, str(UnknownBuffer(s.buffer))))
                ki, li = check_expr(s.index, sp + ".index", bound)
                lv = check_expr(s.value, sp + ".value", bound)[1]
                if _first_error(li, lv) is None and li != lv:
                    rep.errors.append((sp, f"store index has {li} lanes, value {lv}"))
                if _not_i32(ki):
                    rep.errors.append((sp, "store index is not i32"))
            elif isinstance(s, Evaluate):
                check_expr(s.value, sp + ".value", bound)
            elif isinstance(s, For):
                check_name(sp, s.var)
                if s.var in bound:
                    rep.errors.append((sp, f"loop variable {s.var!r} shadows"))
                if s.extent < 0:
                    rep.errors.append((sp, "negative loop extent"))
                last = s.min + s.extent - 1
                if s.extent > 0 and not (I32_MIN <= s.min and last <= I32_MAX):
                    rep.errors.append(
                        (sp, f"loop variable {s.var!r} range {s.min}..{last} overflows i32"))
                check_stmts(s.body, sp + ".body", bound | {s.var})
            elif isinstance(s, Allocate):
                if s.length < 1:
                    rep.errors.append((sp, f"allocate {s.name!r} of length {s.length}"))
            else:
                rep.errors.append((sp, f"not a Stmt: {s!r}"))

    check_stmts(p.body, "body", set())

    amx_lanes = sum(length for kind, length, loc in buffers.values() if loc == "amx")
    if amx_lanes > 8 * 16 * 32:
        rep.warnings.append(
            ("buffers", f"more than 8 AMX tiles live ({amx_lanes} lanes allocated)"))
    return rep


# ---------------------------------------------------------------------------
# canonical nested index construction


def canonical_index(axes, base):
    """Nested Ramp/Broadcast index for the affine addresses
    base + sum(i_k * s_k), enumerated in row-major lane order.

    `axes` is ordered outermost first as (extent, stride) pairs; a zero
    stride becomes a Broadcast level.  Strides are i32 immediates.  Each
    level multiplies the lanes by its extent, so the lanes of the tree so
    far are those of `base` times the extents so far.
    """
    e, n = base, lanes_of(base)
    for extent, stride in reversed(axes):
        assert extent >= 1
        if stride == 0:
            e = Broadcast(e, extent)
        else:
            s = Imm("i32", stride)
            e = Ramp(e, s if n == 1 else Broadcast(s, n), extent)
        n *= extent
    return e


# ---------------------------------------------------------------------------
# s-expression reader


class ParseError(IRError):
    def __init__(self, msg, line, col, expected=()):
        hint = f" (expected {', '.join(expected)})" if expected else ""
        super().__init__(f"{line}:{col}: {msg}{hint}")
        self.line, self.col, self.expected = line, col, tuple(expected)


class _Tok(NamedTuple):
    text: str
    line: int
    col: int


# a newline, a comment, or a token: a parenthesis or an atom; the blanks
# between them (space, tab, carriage return) match nothing and are skipped
_TOKEN_RE = re.compile(r"(\n)|;[^\n]*|([()]|[^ \t\r\n();]+)")


def _tokenize(text):
    """The tokens of `text`, each at its line and column; a tab is one
    column."""
    toks, line, line_start = [], 1, 0
    for m in _TOKEN_RE.finditer(text):
        if m[2]:
            toks.append(_Tok(m[2], line, m.start() - line_start + 1))
        elif m[1]:
            line, line_start = line + 1, m.end()
    return toks


# the deepest list nesting a program may have; the corpus nests 14 deep, and
# every pass over a tree recurses once per level
MAX_DEPTH = 128


class _Reader:
    def __init__(self, text):
        self.toks = _tokenize(text)
        self.pos = 0

    def at_end(self):
        return self.pos >= len(self.toks)

    def peek(self):
        return self.toks[self.pos] if not self.at_end() else None

    def next(self):
        """The next token; `parse_program` and `read` call it only before
        the end of input, where an early end is an unclosed '('."""
        t = self.toks[self.pos]
        self.pos += 1
        return t

    def read(self, depth=1):
        t = self.next()
        if t.text == "(":
            if depth > MAX_DEPTH:
                raise ParseError(f"lists nest deeper than {MAX_DEPTH}", t.line, t.col)
            items = []
            while True:
                nxt = self.peek()
                if nxt is None:
                    raise ParseError("unclosed '('", t.line, t.col, (")",))
                if nxt.text == ")":
                    self.next()
                    return items, t
                items.append(self.read(depth + 1))
        if t.text == ")":
            raise ParseError("unexpected ')'", t.line, t.col)
        return t, t


def _fail(tok, msg, expected=()):
    raise ParseError(msg, tok.line, tok.col, expected)


def _atom(node, what):
    val, tok = node
    if not isinstance(val, _Tok):
        _fail(tok, f"expected {what}, got a list", (what,))
    return val.text, tok


def _int_atom(node, what="integer"):
    text, tok = _atom(node, what)
    try:
        return int(text)
    except ValueError:
        _fail(tok, f"expected {what}, got {text!r}", (what,))


def _kind_atom(node):
    text, tok = _atom(node, "scalar kind")
    if text not in SCALAR_KINDS:
        _fail(tok, f"unknown kind {text!r}", SCALAR_KINDS)
    return text


def _loc_atom(node):
    text, tok = _atom(node, "location")
    if text not in LOCATIONS:
        _fail(tok, f"unknown location {text!r}", LOCATIONS)
    return text


def _parse_type(node):
    items, tok = node
    if isinstance(items, _Tok) or len(items) != 2:
        _fail(tok, "expected (KIND N) type", ("(kind lanes)",))
    kind, lanes = _kind_atom(items[0]), _int_atom(items[1], "lane count")
    if lanes < 1:
        _fail(items[1][1], f"lane count must be >= 1, got {lanes}")
    return VecType(kind, lanes)


def _derive_syntax():
    """Per SPELLING class, the head word for the values of the leading fields
    that it spells, those fields' names, and the other fields as (name, role,
    label); and per head word, its class and the values it spells."""
    syntax, heads = {}, {}
    for cls, (words, labels) in SPELLING.items():
        words = words if isinstance(words, dict) else {words: ()}
        k = len(next(iter(words.values())))
        fields = TERMS[cls][1]
        syntax[cls] = ({v: w for w, v in words.items()}, tuple(f for f, _ in fields[:k]),
                       tuple((f, role, labels.get(f)) for f, role in fields[k:]))
        heads.update((w, (cls, v)) for w, v in words.items())
    return syntax, heads


_SYNTAX, _HEADS = _derive_syntax()


def _read_term(base, head, htok, args, arity, expected=()):
    """The `base` (Expr or Stmt) node that `head` spells, its other fields
    read from `args` left to right by their TERMS role and SPELLING label; None
    if `head` spells no such node.  A wrong argument count is an error worded
    by the format string `arity`."""
    cls, spelled = _HEADS.get(head, (None, ()))
    if cls is None or not issubclass(cls, base):
        return None
    fields = _SYNTAX[cls][2]
    if fields[-1][1] == "exprs":  # a name, then any number of expressions
        if len(args) < len(fields) - 1:
            _fail(htok, f"{head} needs an {fields[0][2]}")
    elif len(args) != len(fields):
        n, s = len(fields), "" if len(fields) == 1 else "s"
        _fail(htok, arity.format(head=head, n=n, got=len(args), s=s), expected)
    values = list(spelled)
    for i, (_, role, label) in enumerate(fields):
        if role == "exprs":
            values.append(tuple(_parse_expr(a) for a in args[i:]))
        else:
            values.append(_read_field(args[i], role, label, values))
    return cls(*values)


def _read_field(node, role, label, before):
    """A field read by its TERMS role and SPELLING label; `before` holds the
    fields of its node read so far."""
    if role == "expr":
        return _parse_expr(node)
    if role == "type":
        return _parse_type(node)
    if role == "int":
        return _int_atom(node, label)
    if label == "scalar kind":
        return _kind_atom(node)
    if label == "shuffle index":
        items, tok = node
        if isinstance(items, _Tok):
            _fail(tok, "expected an index list", ("(N*)",))
        return tuple(_int_atom(n, label) for n in items)
    text, tok = _atom(node, label)
    if label != "literal":
        return text
    kind = before[-1]  # an immediate's kind precedes its literal
    try:
        return int(text) if kind == "i32" else float(text)
    except ValueError:
        _fail(tok, f"bad {kind} literal {text!r}")


def _parse_expr(node):
    items, tok = node
    if isinstance(items, _Tok):
        _fail(tok, f"expected expression, got atom {items.text!r}")
    if not items:
        _fail(tok, "empty expression")
    head, htok = _atom(items[0], "operator")
    e = _read_term(Expr, head, htok, items[1:], "{head} takes {n} argument(s), got {got}",
                   (head,))
    if e is None:
        _fail(htok, f"unknown operator {head!r}")
    return e


_STATEMENTS = ("allocate", "store", "evaluate", "for")


def _parse_stmt(node):
    items, tok = node
    if isinstance(items, _Tok) or not items:
        _fail(tok, "expected a statement form")
    head, htok = _atom(items[0], "statement")
    args = items[1:]
    if head == "allocate":
        if len(args) != 4:
            _fail(htok, f"allocate takes 4 arguments, got {len(args)}")
        return Allocate(_atom(args[0], "name")[0], _kind_atom(args[1]),
                        _int_atom(args[2], "length"), _loc_atom(args[3]))
    if head == "for":
        if len(args) < 3:
            _fail(htok, "for takes a name, min, extent, and body")
        return For(_atom(args[0], "loop variable")[0], _int_atom(args[1], "min"),
                   _int_atom(args[2], "extent"),
                   tuple(_parse_stmt(s) for s in args[3:]))
    s = _read_term(Stmt, head, htok, args, "{head} takes {n} argument{s}, got {got}")
    if s is None:
        _fail(htok, f"unknown statement {head!r}", _STATEMENTS)
    return s


def parse_program(text):
    reader = _Reader(text)
    params, shapes, body = [], [], []
    while not reader.at_end():
        node = reader.read()
        items, tok = node
        if isinstance(items, _Tok):
            _fail(tok, f"expected a top-level form, got atom {items.text!r}")
        if not items:
            _fail(tok, "empty top-level form")
        head, htok = _atom(items[0], "form")
        if head == "param":
            if len(items) != 5:
                _fail(htok, f"param takes 4 arguments, got {len(items) - 1}")
            params.append(Param(_atom(items[1], "name")[0], _kind_atom(items[2]),
                                _int_atom(items[3], "length"), _loc_atom(items[4])))
        elif head in ("amx-shape", "wmma-shape"):
            if len(items) != 4:
                _fail(htok, f"{head} takes M K N, got {len(items) - 1} arguments")
            shapes.append(ShapeDecl(head.split("-")[0], _int_atom(items[1], "M"),
                                    _int_atom(items[2], "K"), _int_atom(items[3], "N")))
        elif head in _STATEMENTS:
            body.append(_parse_stmt(node))
        else:
            _fail(htok, f"unknown form {head!r}",
                  ("param", "amx-shape", "wmma-shape") + _STATEMENTS)
    return Program(tuple(params), tuple(body), tuple(shapes))


# ---------------------------------------------------------------------------
# printer (byte-exact: lowercase atoms, single spaces, newline per form)


def print_type(t):
    return f"({t.kind} {t.lanes})"


def _print_term(n):
    """`n`, a SPELLING node, as its head word, then its other fields left to
    right by their TERMS role and SPELLING label."""
    words, spelled, fields = _SYNTAX[n.__class__]
    parts = [words[tuple([getattr(n, f) for f in spelled])]]
    for name, role, label in fields:
        v = getattr(n, name)
        if role == "expr":
            parts.append(print_expr(v))
        elif role == "exprs":
            parts += map(print_expr, v)
        elif role == "type":
            parts.append(print_type(v))
        elif label == "literal":
            parts.append(str(int(v)) if n.kind == "i32" else repr(float(v)))
        elif label == "shuffle index":
            parts.append(f"({' '.join(map(str, v))})")
        else:
            parts.append(str(v))
    return f"({' '.join(parts)})"


def print_expr(e):
    if not isinstance(e, Expr):
        raise IRError(f"not an Expr: {e!r}")
    return _print_term(e)


def print_stmt(s):
    if isinstance(s, Allocate):
        return f"(allocate {s.name} {s.kind} {s.length} {s.location})"
    if isinstance(s, For):
        inner = "".join(" " + print_stmt(b) for b in s.body)
        return f"(for {s.var} {s.min} {s.extent}{inner})"
    if isinstance(s, Stmt):
        return _print_term(s)
    raise IRError(f"not a Stmt: {s!r}")


def print_program(p):
    lines = [f"(param {prm.name} {prm.kind} {prm.length} {prm.location})"
             for prm in p.params]
    lines += [f"({sh.target}-shape {sh.m} {sh.k} {sh.n})" for sh in p.shapes]
    lines += [print_stmt(s) for s in p.body]
    return "\n".join(lines) + "\n"
