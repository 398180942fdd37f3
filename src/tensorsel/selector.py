"""Tile-extractor pipeline: data-movement injection, per-statement equality
saturation and extraction, realizability checking, temporary
materialization with hoisting, and shuffle desugaring.

Statements saturate in isolation (one e-graph per statement); tiles are
handed across statements only through explicitly accelerator-located
buffers.  Failure is non-fatal: a statement whose extraction is not
realizable keeps its original form and is reported as failed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from itertools import accumulate

from . import ir, layout, rules
from .egraph import NodeBudgetExceeded, extract_best, run_schedule


# what `SelectionConfig.target` may name: one accelerator's rules, or both
TARGETS = ("amx", "wmma", "all")


class SelectionError(Exception):
    pass


class LocationConflict(SelectionError):
    pass


@dataclass
class SelectionConfig:
    target: str = "all"  # one of TARGETS
    iterations: int = 6
    node_budget: int = 1_000_000
    dump_egraph: bool = False

    def __post_init__(self):
        if self.target not in TARGETS:
            raise ValueError(f"target must be one of {', '.join(TARGETS)}, got {self.target!r}")
        if self.iterations < 1:
            raise ValueError(f"iterations must be at least 1, got {self.iterations}")
        if self.node_budget < 1000:
            raise ValueError(
                f"node budget must be at least 1000, got {self.node_budget}")


@dataclass
class StatementOutcome:
    index: int
    path: str
    outcome: str  # lowered | unchanged | failed | failed: budget
    intrinsics: list = field(default_factory=list)
    residual: list = field(default_factory=list)
    egraph: dict = field(default_factory=dict)
    dump: dict | None = None


@dataclass
class SelectionReport:
    statements: list = field(default_factory=list)
    temporaries: list = field(default_factory=list)

    @property
    def ok(self):
        return all(not s.outcome.startswith("failed") for s in self.statements)

    @property
    def failed(self):
        return [s for s in self.statements if s.outcome.startswith("failed")]

    def as_dict(self, timing=True):
        stmts = []
        for s in self.statements:
            d = {"index": s.index, "outcome": s.outcome,
                 "intrinsics": list(s.intrinsics),
                 "egraph": {k: v for k, v in s.egraph.items()
                            if timing or k != "ms"}}
            if s.residual:
                d["residual"] = list(s.residual)
            if s.dump is not None:
                d["egraph_dump"] = s.dump
            stmts.append(d)
        return {"statements": stmts,
                "temporaries": [dict(t) for t in self.temporaries]}

    def to_json(self, timing=True):
        return json.dumps(self.as_dict(timing), indent=2)


# ---------------------------------------------------------------------------
# data-movement injection


def static_loc(e, buffers):
    """Location an expression's top node produces its value in."""
    if isinstance(e, ir.LocToLoc):
        return e.dst
    if isinstance(e, ir.Load):
        entry = buffers.get(e.buffer)
        return entry[2] if entry else "mem"
    if isinstance(e, ir.Call) and e.name in ir.INTRINSICS:
        return ir.INTRINSICS[e.name].loc
    return "mem"


def inject_data_movement(p):
    """Wrap cross-location reads in loc_to_loc and move each store's value
    to its buffer's location.  Reads of a buffer co-located with the store
    destination stay bare (the accumulator pattern); intrinsic calls are
    already location-resolved and left untouched."""
    buffers = ir.buffer_table(p)

    def wrap_reads(e, store_loc):
        if isinstance(e, ir.Load):
            loc = buffers.get(e.buffer, ("", 0, "mem"))[2]
            e = ir.Load(e.buffer, e.vtype, wrap_reads(e.index, "mem"))
            if loc != "mem" and loc != store_loc:
                return ir.LocToLoc(loc, "mem", e)
            return e
        if isinstance(e, ir.Call) and e.name in ir.INTRINSICS:
            return e
        if isinstance(e, ir.LocToLoc):
            return e
        return ir.map_expr(e, lambda c: wrap_reads(c, store_loc))

    def inject_stmt(path, s):
        if isinstance(s, ir.Store):
            loc = buffers.get(s.buffer, ("", 0, "mem"))[2]
            val = wrap_reads(s.value, loc)
            vloc = static_loc(val, buffers)
            if vloc != loc:
                if vloc != "mem" and loc != "mem":
                    raise LocationConflict(
                        f"{path}: value on {vloc} stored into {loc} buffer "
                        f"{s.buffer!r}")
                val = ir.LocToLoc(vloc, loc, val)
            return (ir.Store(s.buffer, wrap_reads(s.index, "mem"), val),)
        if isinstance(s, ir.Evaluate):
            return (ir.Evaluate(wrap_reads(s.value, "mem")),)
        return (s,)

    return ir.Program(p.params, ir.map_stmts(p.body, inject_stmt), p.shapes)


# ---------------------------------------------------------------------------
# realizability


def realizability_check(s, buffers):
    """True iff no loc_to_loc node remains and every accelerator-located
    value is produced by an intrinsic or an accelerator-buffer load and
    consumed by an intrinsic tile operand or a co-located store."""
    diags = []

    def check(e, expected, path):
        if isinstance(e, ir.LocToLoc):
            diags.append(f"{path}: unresolved {e.src}->{e.dst} data movement")
            check(e.operand, e.src, path + ".operand")
            return
        if isinstance(e, ir.Call) and e.name in ir.INTRINSICS:
            sig = ir.INTRINSICS[e.name]
            if sig.loc != expected:
                diags.append(f"{path}: {e.name} yields a {sig.loc} value "
                             f"in a {expected} context")
            for i, (arg, role) in enumerate(zip(e.args, sig.roles)):
                if role != "buffer":
                    check(arg, sig.accel if role == "tile" else "mem",
                          f"{path}.args[{i}]")
            return
        if isinstance(e, ir.Load):
            loc = buffers.get(e.buffer, ("", 0, "mem"))[2]
            if loc != expected:
                diags.append(f"{path}: load from {loc} buffer {e.buffer!r} "
                             f"in a {expected} context")
            check(e.index, "mem", path + ".index")
            return
        if expected != "mem":
            diags.append(f"{path}: {type(e).__name__} computes in memory "
                         f"but a {expected} value is required")
        for i, c in enumerate(ir.children(e)):
            check(c, "mem", f"{path}[{i}]")

    if isinstance(s, ir.Store):
        loc = buffers.get(s.buffer, ("", 0, "mem"))[2]
        check(s.index, "mem", "index")
        check(s.value, loc, "value")
    elif isinstance(s, ir.Evaluate):
        check(s.value, "mem", "value")
    return not diags, diags


def _movement_nodes(s):
    out = []
    for e in ir.children(s):
        for sub in ir.walk_exprs(e):
            if isinstance(sub, ir.LocToLoc):
                out.append(f"{sub.src}->{sub.dst}")
    return out


def _intrinsic_names(s):
    names = []
    exprs = [s.value] if isinstance(s, (ir.Store, ir.Evaluate)) else []
    for e in exprs:
        for sub in ir.walk_exprs(e):
            if isinstance(sub, ir.Call) and sub.name in ir.INTRINSICS:
                names.append(sub.name)
    return sorted(set(names))


def _touches_accel(s, buffers):
    if isinstance(s, ir.Store) and buffers.get(s.buffer, ("", 0, "mem"))[2] != "mem":
        return True
    for e in ir.children(s):
        for sub in ir.walk_exprs(e):
            if isinstance(sub, ir.LocToLoc):
                return True
            if isinstance(sub, ir.Load) and \
                    buffers.get(sub.buffer, ("", 0, "mem"))[2] != "mem":
                return True
            if isinstance(sub, ir.Call) and sub.name in ir.INTRINSICS:
                return True
    return False


# ---------------------------------------------------------------------------
# per-statement selection


def select_statement(s, buffers, shapes, ruleset, config, param_names=(), path="",
                     index=0):
    outcome = StatementOutcome(index=index, path=path, outcome="unchanged")
    # Speculative offload: a store that touches no accelerator may still
    # lower when it writes an allocated intermediate; a parameter is the
    # user's output and stays as written.
    if isinstance(s, ir.Store) and not _touches_accel(s, buffers) \
            and s.buffer in param_names:
        return s, outcome

    g = rules.new_graph()
    root = rules.encode_stmt(g, s)
    rules.seed_facts(g, buffers, shapes)
    try:
        rep = run_schedule(g, ruleset.for_target(config.target),
                           config.iterations, config.node_budget)
        outcome.egraph = rep.as_dict()
    except NodeBudgetExceeded:
        outcome.outcome = "failed: budget"
        outcome.egraph = {"classes": g.n_classes, "nodes": g.n_nodes,
                          "budget_exceeded": True}
        return s, outcome
    if config.dump_egraph:
        outcome.dump = g.dump()
    witness = rules.check_type_consistency(g)
    if witness is not None:
        raise SelectionError(f"type facts disagree after saturation: {witness}")

    extracted = rules.decode_term(extract_best(g, root))
    ok, diags = realizability_check(extracted, buffers)

    if not ok:
        outcome.outcome = "failed"
        outcome.residual = _movement_nodes(extracted) or diags
        return s, outcome
    if extracted == s:
        return s, outcome
    intrinsics = _intrinsic_names(extracted)
    outcome.intrinsics = intrinsics
    outcome.outcome = "lowered" if intrinsics else "unchanged"
    return extracted, outcome


# ---------------------------------------------------------------------------
# temporary materialization


def lower_exprvars(p):
    """Materialize each distinct ExprVar operand as one memory temporary:
    an allocation at program top plus one initializing store hoisted to the
    outermost position where the operand's free variables are bound."""
    buffers = ir.buffer_table(p)
    names, first_use, loop_vars = {}, {}, {}
    for path, s in ir.walk_stmts(p.body):
        if isinstance(s, ir.For):
            loop_vars[path] = s.var
        for e in ir.children(s):
            for sub in ir.walk_exprs(e):
                if isinstance(sub, ir.ExprVar) and sub.operand not in names:
                    names[sub.operand] = f"swizzle{len(names)}"
                    first_use[sub.operand] = path
    if not names:
        return p, []

    def replace(e):
        if isinstance(e, ir.ExprVar):
            t = ir.type_of(e.operand, buffers)
            return ir.Load(names[e.operand], t,
                           ir.Ramp(ir.Imm("i32", 0), ir.Imm("i32", 1), t.lanes))
        if isinstance(e, ir.Call) and e.name in ir.INTRINSICS:
            roles = ir.INTRINSICS[e.name].roles
            return ir.Call(e.name, tuple(
                ir.Var(names[a.operand])
                if role == "buffer" and isinstance(a, ir.ExprVar) else replace(a)
                for a, role in zip(e.args, roles)))
        return ir.map_expr(e, replace)

    temps, allocs, inits = [], [], {}
    for operand, name in names.items():
        t = ir.type_of(operand, buffers)
        # the enclosing loops of the first use, outermost first, then the use
        sites = list(accumulate(first_use[operand].split("."),
                                lambda a, b: f"{a}.{b}"))
        fv = ir.free_vars(operand) - set(buffers)
        depth, bound = 0, set()
        while depth < len(sites) - 1 and not fv <= bound:
            bound.add(loop_vars[sites[depth]])
            depth += 1
        init = ir.Store(name, ir.Ramp(ir.Imm("i32", 0), ir.Imm("i32", 1), t.lanes),
                        replace(operand))
        inits.setdefault(sites[depth], []).append(init)
        allocs.append(ir.Allocate(name, t.kind, t.lanes, "mem"))
        temps.append({"name": name, "lanes": t.lanes, "hoist_depth": depth})

    def rebuild(path, s):
        return (*inits.get(path, ()), ir.map_expr(s, replace))

    body = tuple(allocs) + ir.map_stmts(p.body, rebuild)
    return ir.Program(p.params, body, p.shapes), temps


# ---------------------------------------------------------------------------
# shuffle desugaring


def desugar_shuffles(p):
    """Rewrite shuffle intrinsics into Shuffle gathers over plain kernel
    loads (index -1 selecting the constant zero lane), preserving
    semantics."""
    buffers = ir.buffer_table(p)

    def spec_shuffle(e):
        # the kernel window's bounds are checked when the program runs, as
        # they are for the call it replaces
        spec = ir.shuffle_spec(e)
        total = spec.kernel_length
        bufname = e.args[0].name
        raw = layout.shuffle_indices_for(spec)
        indices = tuple(i - 1 if i >= 1 else -1 for i in raw)
        load = ir.Load(bufname, ir.VecType(buffers[bufname][0], total),
                       ir.Ramp(desugar(e.args[1]), ir.Imm("i32", 1), total))
        return ir.Shuffle(load, indices)

    def desugar(e):
        if isinstance(e, ir.Call):
            if e.name == "KWayInterleave":
                k, row_len = (int(a.value) for a in e.args[0:2])
                v = desugar(e.args[2])
                rows = ir.lanes_of(v) // row_len
                perm = layout.kway_interleave_indices(k, rows, row_len)
                return ir.Shuffle(v, tuple(perm))
            if e.name in ("ConvolutionShuffle", "PolyphaseShuffle"):
                return spec_shuffle(e)
        return ir.map_expr(e, desugar)

    body = ir.map_stmts(p.body, lambda path, s: (ir.map_expr(s, desugar),))
    return ir.Program(p.params, body, p.shapes)


# ---------------------------------------------------------------------------
# whole-program pipeline


def select_program(p, config=None, ruleset=None):
    """inject -> per-statement saturate/extract -> materialize temporaries
    -> desugar shuffles -> validate.  The output program is
    interpreter-equivalent to the input; per-statement failures are
    reported, with the original statement kept in place."""
    config = config or SelectionConfig()
    vrep = ir.validate_program(p)
    if not vrep.ok:
        raise SelectionError(f"input does not validate:\n{vrep}")
    if ruleset is None:
        ruleset = rules.build_default_ruleset()
    inj = inject_data_movement(p)
    buffers = ir.buffer_table(inj)
    shapes = ir.program_shapes(p)
    param_names = {prm.name for prm in p.params}

    outcomes = []

    def select(path, s):
        if not isinstance(s, (ir.Store, ir.Evaluate)):
            return (s,)
        new_s, oc = select_statement(s, buffers, shapes, ruleset, config,
                                     param_names, path, len(outcomes))
        outcomes.append(oc)
        return (new_s,)

    lowered = ir.Program(inj.params, ir.map_stmts(inj.body, select), inj.shapes)
    lowered, temps = lower_exprvars(lowered)
    lowered = desugar_shuffles(lowered)
    out_rep = ir.validate_program(lowered)
    if not out_rep.ok:
        raise SelectionError(f"selection produced an invalid program:\n{out_rep}")
    return lowered, SelectionReport(statements=outcomes, temporaries=temps)
