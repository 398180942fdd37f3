"""Command-line front end: check | run | select | difftest | layout.

Exit codes: 0 success, 1 semantic/selection/divergence failure, 2 usage or
parse failure; 1 also, without a traceback, when writing stdout fails:
quietly when its reader closes it early (as `| head` does), with one
`error:` line otherwise (as on a full disk).  All reports go to stdout,
as JSON with --json, human text otherwise; select --no-timing drops
wall-clock fields so reports are byte-stable.  difftest compares outputs
bit for bit; --trials 0 only selects.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field
from pathlib import Path

from . import interp, ir, layout, selector


@dataclass
class DiffTestResult:
    program: str
    trials: int
    seeds: list = field(default_factory=list)
    divergence: dict | None = None
    selection_ok: bool = True

    def as_dict(self):
        return {"program": self.program, "trials": self.trials,
                "seeds": self.seeds, "selection_ok": self.selection_ok,
                "divergence": self.divergence}


def _usage_error(msg):
    print(f"error: {msg}", file=sys.stderr)
    raise SystemExit(2)


def _load(path):
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as e:
        _usage_error(f"cannot read {path}: {e}")
    except UnicodeDecodeError as e:
        _usage_error(f"{path}: {e}")
    try:
        return ir.parse_program(text)
    except ir.ParseError as e:
        _usage_error(f"{path}: {e}")


def _check(path):
    prog = _load(path)
    report = ir.validate_program(prog)
    return prog, report


def _config(args, dump_egraph):
    try:
        return selector.SelectionConfig(
            target=args.target, iterations=args.iters,
            node_budget=args.node_budget, dump_egraph=dump_egraph)
    except ValueError as e:
        _usage_error(e)


def cmd_check(args):
    _, report = _check(args.file)
    if args.json:
        print(json.dumps({"errors": [list(e) for e in report.errors],
                          "warnings": [list(w) for w in report.warnings]},
                         indent=2))
    else:
        print(report)
    return 0 if report.ok else 1


def cmd_run(args):
    prog, report = _check(args.file)
    if not report.ok:
        print(report, file=sys.stderr)
        return 1
    if args.inputs:
        try:
            inputs = interp.load_buffers(args.inputs)
        except (OSError, interp.EvalError) as e:
            _usage_error(f"--inputs {args.inputs}: {e}")
        for prm in prog.params:
            if prm.name not in inputs:
                print(f"error: inputs are missing {prm.name!r}", file=sys.stderr)
                return 1
            if inputs[prm.name].kind != prm.kind:
                print(f"error: input {prm.name!r} has kind {inputs[prm.name].kind}, "
                      f"program declares {prm.kind}", file=sys.stderr)
                return 1
            if len(inputs[prm.name].data) != prm.length:
                print(f"error: input {prm.name!r} has length "
                      f"{len(inputs[prm.name].data)}, manifest/program disagree",
                      file=sys.stderr)
                return 1
    else:
        inputs = interp.random_inputs(prog, args.seed)
    lints = []
    try:
        out = interp.run_program(prog, inputs, lint_sink=lints)
    except interp.EvalError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    for lint in lints:
        print(f"warning: {lint}", file=sys.stderr)
    if args.output:
        try:
            interp.save_buffers(out, args.output)
        except OSError as e:
            _usage_error(f"cannot write {args.output}: {e}")
    summary = {name: {"kind": buf.kind, "length": len(buf.data)}
               for name, buf in sorted(out.items())}
    if args.json:
        print(json.dumps({"buffers": summary}, indent=2))
    else:
        for name, meta in summary.items():
            print(f"{name}: {meta['kind']} x {meta['length']}")
    return 0


def cmd_select(args):
    prog, report = _check(args.file)
    if not report.ok:
        print(report, file=sys.stderr)
        return 1
    config = _config(args, args.dump_egraph)
    try:
        lowered, rep = selector.select_program(prog, config)
    except selector.SelectionError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.output:
        try:
            Path(args.output).write_text(ir.print_program(lowered))
        except OSError as e:
            _usage_error(f"cannot write {args.output}: {e}")
    payload = rep.as_dict(timing=not args.no_timing)
    if args.json:
        print(json.dumps(payload, indent=2))
    else:
        for s in payload["statements"]:
            extra = f" {','.join(s['intrinsics'])}" if s["intrinsics"] else ""
            print(f"statement {s['index']}: {s['outcome']}{extra}")
        for t in payload["temporaries"]:
            print(f"temporary {t['name']}: {t['lanes']} lanes, "
                  f"hoist depth {t['hoist_depth']}")
        if not args.output:
            print(ir.print_program(lowered), end="")
    if not rep.ok:
        for s in rep.failed:
            print(f"failed: statement {s.index} ({s.path}): "
                  f"{'; '.join(s.residual) or s.outcome}", file=sys.stderr)
        return 1
    return 0


LANE_BUDGET = 1 << 16  # lanes of a difftest batch's widest value or buffer, over its rows


def difftest_rows(trials, *programs):
    """Seeds per batched interpreter run of `programs`: as many as keep
    the widest value (`ir.widest_lanes`) or buffer (`ir.buffer_table`) of
    any of them within LANE_BUDGET lanes over all rows, at least one and at
    most `trials`.  Every value and buffer takes the trial axis."""
    widest = max(n for p in programs for n in (
        ir.widest_lanes(p), *(length for _, length, _ in ir.buffer_table(p).values())))
    return max(1, min(trials, LANE_BUDGET // widest))


def run_difftest(prog, name, trials, seed, config, ruleset=None):
    """Select, then run source and lowered programs over `trials` seeds and
    compare every output parameter bit for bit, seed by seed.

    The seeds are judged by `interp.first_failure`, the judge the
    soundness fuzzer uses: batches of `difftest_rows` seeds, each one
    `interp.compare_sides` of the two programs over
    `interp.random_inputs` of its seeds, a raising batch replayed seed by
    seed.  `seeds` lists the seeds up to the first divergence; an error is
    the first failing seed's and is raised.  Every run, of either program,
    batched or replayed, shares one `interp.EvalMemo`, so a buffer-free
    subexpression is evaluated once per loop binding; the memo is dropped
    on return."""
    result = DiffTestResult(program=name, trials=trials)
    lowered, rep = selector.select_program(prog, config, ruleset=ruleset)
    result.selection_ok = rep.ok
    seeds = list(range(seed, seed + trials))
    first = interp.first_failure(prog, lowered, prog, seeds, memo=interp.EvalMemo(),
                                 rows=difftest_rows(trials, prog, lowered))
    if first is not None:
        pos, outcome = first
        if isinstance(outcome, Exception):
            raise outcome
        seeds = seeds[:pos + 1]
        buffer, lane, lhs, rhs = outcome
        result.divergence = {"seed": seeds[-1], "buffer": buffer, "lane": lane,
                             "lhs": float(lhs), "rhs": float(rhs)}
    result.seeds = seeds
    return result, rep


def cmd_difftest(args):
    if args.trials < 0:
        _usage_error(f"--trials must be at least 0, got {args.trials}")
    prog, report = _check(args.file)
    if not report.ok:
        print(report, file=sys.stderr)
        return 1
    config = _config(args, dump_egraph=False)
    try:
        result, rep = run_difftest(prog, Path(args.file).stem, args.trials,
                                   args.seed, config)
    except (selector.SelectionError, interp.EvalError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.json:
        print(json.dumps(result.as_dict(), indent=2))
    else:
        status = "diverged" if result.divergence else (
            "ok" if result.selection_ok else "selection failed")
        print(f"{result.program}: {result.trials} trials: {status}")
        if result.divergence:
            d = result.divergence
            print(f"  seed {d['seed']} buffer {d['buffer']} lane {d['lane']}: "
                  f"{d['lhs']} vs {d['rhs']}")
    if result.divergence or not result.selection_ok:
        return 1
    return 0


def cmd_layout(args):
    try:  # the generators reject sizes that form no matrix
        if args.generator == "interleave":
            idx = layout.kway_interleave_indices(args.p, args.k, args.l)
            payload = {"indices": idx}
        else:
            spec = layout.ToeplitzSpec(l=args.l, k=args.k, s=args.s, p=args.p)
            rows = layout.matrix_rows(spec)
            idx = layout.shuffle_indices_for(spec)
            taps = [[None if i == -1 else i - 1 for i in idx[r:r + spec.k]]
                    for r in range(0, len(idx), spec.k)]
            payload = {"mode": spec.mode, "rows": rows, "cols": spec.k,
                       "taps": taps, "shuffle_indices": idx}
    except ValueError as e:
        _usage_error(e)
    if args.json:
        print(json.dumps(payload, indent=2))
    elif args.generator == "interleave":
        print(" ".join(str(i) for i in payload["indices"]))
    else:
        for row in payload["taps"]:
            print(" ".join("." if t is None else f"K{t}" for t in row))
        print("indices:", " ".join(str(i) for i in payload["shuffle_indices"]))
    return 0


def _add_common(p):
    p.add_argument("--json", action="store_true", help="JSON output")


def _add_select_opts(p):
    defaults = selector.SelectionConfig
    p.add_argument("--target", choices=("amx", "wmma", "all"),
                   default=defaults.target)
    p.add_argument("--iters", type=int, default=defaults.iterations,
                   help="saturation iterations (default %(default)s)")
    p.add_argument("--node-budget", type=int, default=defaults.node_budget,
                   help="e-class limit per statement (default %(default)s)")


def main(argv=None):
    ap = argparse.ArgumentParser(
        prog="tensorsel",
        description="tensor instruction selection over a small vector IR")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="parse and validate a program")
    p.add_argument("file")
    _add_common(p)
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("run", help="interpret a program")
    p.add_argument("file")
    g = p.add_mutually_exclusive_group()
    g.add_argument("--seed", type=int, default=0,
                   help="seeded pseudo-random parameter fill (SplitMix64)")
    g.add_argument("--inputs", help="directory with manifest.json and .bin buffers")
    p.add_argument("-o", "--output", help="directory to write result buffers")
    _add_common(p)
    p.set_defaults(fn=cmd_run)

    p = sub.add_parser("select", help="run the tile-extractor pipeline")
    p.add_argument("file")
    p.add_argument("-o", "--output", help="file for the lowered program")
    p.add_argument("--dump-egraph", action="store_true",
                   help="include e-graph dumps in the JSON report")
    p.add_argument("--no-timing", action="store_true",
                   help="omit wall-clock fields for byte-stable reports")
    _add_select_opts(p)
    _add_common(p)
    p.set_defaults(fn=cmd_select)

    p = sub.add_parser("difftest",
                       help="select, then compare source and lowered programs")
    p.add_argument("file")
    p.add_argument("--trials", type=int, default=100,
                   help="input seeds to compare (0: select only)")
    p.add_argument("--seed", type=int, default=0)
    _add_select_opts(p)
    _add_common(p)
    p.set_defaults(fn=cmd_difftest)

    p = sub.add_parser("layout", help="debug the kernel-matrix generators")
    p.add_argument("generator", choices=("toeplitz", "strided", "polyphase",
                                         "interleave"))
    p.add_argument("--l", type=int, required=True, help="kernel taps per phase")
    p.add_argument("--k", type=int, required=True, help="output block width")
    p.add_argument("--s", type=int, default=1, help="stride (downsample)")
    p.add_argument("--p", type=int, default=1, help="phases (upsample)")
    _add_common(p)
    p.set_defaults(fn=cmd_layout)

    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        raise SystemExit(2 if e.code not in (0, None) else 0)
    if getattr(args, "generator", None) == "strided" and args.s == 1:
        args.s = 2
    if getattr(args, "generator", None) == "polyphase" and args.p == 1:
        args.p = 2
    try:
        code = args.fn(args)
        if sys.stdout is not None:  # None when started with stdout closed
            sys.stdout.flush()  # a closed pipe raises here, not at exit
        return code
    except OSError as e:  # writing stdout; commands report their own files
        # the flush at exit writes what is still buffered to the null device
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        if not isinstance(e, BrokenPipeError):
            print(f"error: cannot write to stdout: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
