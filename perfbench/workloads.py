"""The benchmark's workloads, their set-up and their correctness gates.

Every workload is a closed loop with one client: the next public call
starts only when the previous one has returned, in one process with no
extra threads.  A pass calls the workload's entry point once per item, in
an order drawn from the run's seed.

- select: `selector.select_program` on each corpus program.  E-matching and
  rule actions do nearly all the work; the interpreter does none.
- difftest: `cli.run_difftest` with 100 trials on each corpus program.  The
  interpreter does most of the work, selection the rest.
- fuzz: `rules.check_rule_soundness` with 500 trials on each semantic rule.
  Many one-shot evaluations of tiny expressions and no e-graph, so per-call
  overhead in the interpreter shows here.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path
from types import SimpleNamespace

BENCH_DIR = Path(__file__).resolve().parent
GOLDENS = BENCH_DIR / "goldens.json"
MODULES = ("ir", "selector", "rules", "egraph", "interp", "layout", "cli")

DIFFTEST_TRIALS = 100  # as `tensorsel difftest` runs by default
FUZZ_TRIALS = 500  # as check_rule_soundness runs by default

# Hand-written support matrix: every corpus program lowers, except that
# statement 2 (the MatMul) of matmul_preloadB_standard fails, because its
# staged copy of B cannot know the later MatMul needs swizzled bytes.
EXPECTED_FAILED = {"matmul_preloadB_standard": (2,)}


class BenchSetupError(Exception):
    pass


def target_of(name):
    """The accelerator a corpus program is selected for."""
    return "amx" if name.startswith("matmul") else "wmma"


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


# ---------------------------------------------------------------------------
# set-up


def import_tensorsel(root):
    """Import the tensorsel modules from `root`/src, and from nowhere else."""
    src = Path(root).resolve() / "src"
    if not (src / "tensorsel" / "__init__.py").is_file():
        raise BenchSetupError(f"no tensorsel sources under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    mods = {m: importlib.import_module(f"tensorsel.{m}") for m in MODULES}
    origin = Path(mods["ir"].__file__).resolve()
    if src not in origin.parents:
        raise BenchSetupError(f"tensorsel was imported from {origin}, not {src}")
    return SimpleNamespace(**mods)


@dataclass
class Context:
    ts: SimpleNamespace
    programs: dict  # corpus name -> parsed, validated Program
    ruleset: object

    @cached_property
    def semantic_rules(self):
        return {r.name: r for r in self.ruleset if r.semantic}


def load_corpus(ts, root):
    """Parse and validate every corpus program and build the default
    ruleset: the work a `tensorsel` process does before its first call."""
    programs = {}
    for path in sorted((Path(root) / "corpus").glob("*.sexp")):
        prog = ts.ir.parse_program(path.read_text())
        report = ts.ir.validate_program(prog)
        if not report.ok:
            raise BenchSetupError(f"{path.name} does not validate:\n{report}")
        programs[path.stem] = prog
    if not programs:
        raise BenchSetupError(f"no corpus programs under {root}/corpus")
    return Context(ts, programs, ts.rules.build_default_ruleset())


def setup(root):
    return load_corpus(import_tensorsel(root), root)


def load_goldens():
    return json.loads(GOLDENS.read_text())


# ---------------------------------------------------------------------------
# workloads


@dataclass
class Checked:
    """A checked output: work units done, a digest of the rendered output
    (to compare a traced call with an untraced one), the gate's errors, and
    the IR nodes of a lowered program."""

    units: int
    digest: str
    errors: list = field(default_factory=list)
    nodes: int = 0


def count_nodes(ir, prog):
    """IR nodes of a program: statements plus every expression node."""
    total = 0
    for _, s in ir.walk_stmts(prog.body):
        total += 1
        for attr in ("index", "value"):
            e = getattr(s, attr, None)
            if e is not None:
                total += sum(1 for _ in ir.walk_exprs(e))
    return total


def _check_selection(golden, name, rep, errors):
    if sha256(rep.to_json(timing=False)) != golden["report_sha256"]:
        errors.append("--no-timing report differs from the golden")
    failed = tuple(s.index for s in rep.statements if s.outcome.startswith("failed"))
    if failed != EXPECTED_FAILED.get(name, ()):
        errors.append(f"failed statements {failed}, expected "
                      f"{EXPECTED_FAILED.get(name, ())}")
    elif any(s.outcome != "failed" for s in rep.failed):
        errors.append("a statement failed on its budget")


class Select:
    name = "select"
    unit = "programs"
    min_passes = 8  # 104 calls, so ten lie beyond the p90

    def items(self, ctx, goldens):
        return sorted(ctx.programs)

    def call(self, ctx, item, seed):
        ts = ctx.ts
        config = ts.selector.SelectionConfig(target=target_of(item))
        return ts.selector.select_program(ctx.programs[item], config)

    def render(self, ctx, result):
        lowered, rep = result
        return ctx.ts.ir.print_program(lowered) + "\0" + rep.to_json(timing=False)

    def check(self, ctx, goldens, item, result):
        lowered, rep = result
        golden = goldens["programs"][item]
        errors = []
        rendered = self.render(ctx, result)
        if sha256(rendered.split("\0")[0]) != golden["lowered_sha256"]:
            errors.append("lowered program differs from the golden")
        _check_selection(golden, item, rep, errors)
        return Checked(1, sha256(rendered), errors, count_nodes(ctx.ts.ir, lowered))


class Difftest:
    name = "difftest"
    unit = "trials"
    min_passes = 4  # 52 calls, so ten lie beyond the p80

    def items(self, ctx, goldens):
        return sorted(ctx.programs)

    def call(self, ctx, item, seed):
        ts = ctx.ts
        config = ts.selector.SelectionConfig(target=target_of(item))
        return ts.cli.run_difftest(ctx.programs[item], item, DIFFTEST_TRIALS,
                                   seed, config)

    def render(self, ctx, result):
        res, rep = result
        return json.dumps(res.as_dict(), sort_keys=True) + "\0" + rep.to_json(timing=False)

    def check(self, ctx, goldens, item, result):
        res, rep = result
        errors = []
        if res.divergence is not None:
            errors.append(f"diverged: {res.divergence}")
        if res.selection_ok != (item not in EXPECTED_FAILED):
            errors.append(f"selection_ok is {res.selection_ok}")
        _check_selection(goldens["programs"][item], item, rep, errors)
        return Checked(len(res.seeds), sha256(self.render(ctx, result)), errors)


class Fuzz:
    name = "fuzz"
    unit = "checks"
    min_passes = 3  # 120 calls, so ten lie beyond the p90

    def items(self, ctx, goldens):
        names = sorted(ctx.semantic_rules)
        if names != sorted(goldens["fuzz_rules"]):
            raise BenchSetupError("the semantic rules differ from the goldens")
        return names

    def call(self, ctx, item, seed):
        return ctx.ts.rules.check_rule_soundness(ctx.semantic_rules[item],
                                                 FUZZ_TRIALS, seed)

    def render(self, ctx, rep):
        return repr((rep.rule, rep.trials, rep.checked, rep.counterexample is None,
                     rep.guard_unsatisfiable))

    def check(self, ctx, goldens, item, rep):
        errors = []
        if rep.counterexample is not None:
            errors.append(f"counterexample: {rep.counterexample[1]}")
        if rep.guard_unsatisfiable:
            errors.append("no instance satisfied the guard")
        return Checked(rep.checked, sha256(self.render(ctx, rep)), errors)


WORKLOADS = {w.name: w for w in (Select(), Difftest(), Fuzz())}


def pass_order(items, workload, seed, index):
    """The seeded order of pass `index`: state leaking from one call into
    the next would show as a change with the order."""
    order = list(items)
    random.Random(f"{workload}:{seed}:{index}").shuffle(order)
    return order
