#!/usr/bin/env python3
"""Print a sha256 per selection output and fuzz report, or diff two checkouts.

For each corpus program, at its own target (`amx` for `matmul*`, `wmma`
otherwise) and at `--target all`, `tensorsel select` is run three ways and
each output hashed:

- `lowered`: the lowered program it writes with `-o`
- `report`: its `--json --no-timing` report
- `egraph`: its `--json --no-timing --dump-egraph` report

Each line reads `<file> <target> <output> <exit code> <sha256>`.

Then each soundness report of `check_rule_soundness(rule, 500, seed)`, at
seeds 0 and 1, is hashed: its `checked` count and `guard_unsatisfiable`
flag, and for a counterexample both printed sides and the detail tuple.
The rules are the semantic rules of `build_default_ruleset()`, then
`corrupted_ramp_rule()` and `runaway_ruleset()`'s `broadcast-flatten`.
Each line reads `fuzz <rule> <seed> <sha256>`.

    python3 tools/same_bytes.py [ROOT]        # digests of ROOT (default: this checkout)
    python3 tools/same_bytes.py --against DIR # diff this checkout against DIR

With `--against`, each checkout runs in its own process, from its own
`src/` and `corpus/`; the lines that differ are printed, and the exit code is
1 if any does, else 0.
"""

import argparse
import contextlib
import hashlib
import io
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
OUTPUTS = {"report": ["--json", "--no-timing"],
           "egraph": ["--json", "--no-timing", "--dump-egraph"]}


def _select(cli, argv):
    """Run `tensorsel select` in this process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            code = cli.main(["select", *argv])
        except SystemExit as e:
            code = e.code
    return code, out.getvalue()


def file_digests(cli, path):
    """The digest lines of corpus file `path`, run through the `tensorsel.cli`
    module `cli` in this process."""
    own = "amx" if path.stem.startswith("matmul") else "wmma"
    lines = []
    with tempfile.TemporaryDirectory() as tmp:
        lowered = Path(tmp) / "lowered.sexp"
        for target in (own, "all"):
            lowered.write_text("")
            argv = [str(path), "--target", target]
            code, _ = _select(cli, [*argv, "-o", str(lowered)])
            texts = {"lowered": (code, lowered.read_text())}
            for kind, flags in OUTPUTS.items():
                texts[kind] = _select(cli, [*argv, *flags])
            for kind, (code, text) in texts.items():
                digest = hashlib.sha256(text.encode()).hexdigest()
                lines.append(f"{path.name} {target} {kind} {code} {digest}")
    return lines


FUZZ_SEEDS = (0, 1)


def fuzz_rules(rules):
    """(label, rule) of every rule whose soundness reports are hashed, from
    the `tensorsel.rules` module `rules`."""
    out = [(r.name, r) for r in rules.build_default_ruleset() if r.semantic]
    out.append(("corrupted_ramp_rule", rules.corrupted_ramp_rule()))
    out.append(("runaway:broadcast-flatten",
                rules.runaway_ruleset().named("broadcast-flatten")))
    return out


def report_text(ir, rep):
    """The hashed text of soundness report `rep`."""
    text = f"checked {rep.checked} guard_unsatisfiable {rep.guard_unsatisfiable}\n"
    if rep.counterexample is not None:
        inst, detail = rep.counterexample
        for side in (inst.lhs, inst.rhs):
            text += (ir.print_program(side) if isinstance(side, ir.Program)
                     else ir.print_expr(side)) + "\n"
        text += f"{detail!r}\n"
    return text


def fuzz_lines(ir, rules, label, rule):
    """The digest lines of `rule`'s soundness reports, computed through the
    `tensorsel` modules `ir` and `rules`."""
    return [f"fuzz {label} {seed} " + hashlib.sha256(report_text(
        ir, rules.check_rule_soundness(rule, 500, seed)).encode()).hexdigest()
        for seed in FUZZ_SEEDS]


def digests(root):
    """The digest lines of every corpus file of checkout `root`, computed in
    this process from `root`'s own sources."""
    root = Path(root).resolve()
    sys.path.insert(0, str(root / "src"))
    from tensorsel import cli, ir, rules
    if root / "src" not in Path(cli.__file__).resolve().parents:
        raise SystemExit(f"error: tensorsel was imported from {cli.__file__}, not {root}")
    return [line for path in sorted((root / "corpus").glob("*.sexp"))
            for line in file_digests(cli, path)] + [
        line for label, rule in fuzz_rules(rules) for line in fuzz_lines(ir, rules, label, rule)]


def _digests_of(root):
    """The digest lines of checkout `root`, computed in a fresh process."""
    run = subprocess.run([sys.executable, __file__, str(root)], capture_output=True,
                         text=True, check=False)
    if run.returncode:
        raise SystemExit(f"error: digests of {root} failed:\n{run.stderr}")
    return run.stdout.splitlines()


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("root", nargs="?", default=str(ROOT),
                    help="checkout to digest (default: this one)")
    ap.add_argument("--against", metavar="DIR",
                    help="another checkout: print the lines where the two differ")
    args = ap.parse_args(argv)
    if not args.against:
        print("\n".join(digests(args.root)))
        return 0
    ours, theirs = _digests_of(args.root), _digests_of(args.against)
    differ = [f"- {a}\n+ {b}" for a, b in zip(theirs, ours) if a != b]
    if len(ours) != len(theirs):
        differ.append(f"{len(theirs)} lines in {args.against}, {len(ours)} in {args.root}")
    print("\n".join(differ) if differ else f"same: {len(ours)} digests")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
