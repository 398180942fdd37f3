"""Smoke test of tools/same_bytes.py on one corpus file and one rule's
soundness reports: each digest is the sha256 of the output it names,
computed here without the tool."""

import hashlib
import json
import sys

from tensorsel import cli, ir, rules, selector

from conftest import CORPUS, ROOT

sys.path.insert(0, str(ROOT / "tools"))

import same_bytes  # noqa: E402


def _sha(text):
    return hashlib.sha256(text.encode()).hexdigest()


def test_digests_of_one_corpus_file():
    path = CORPUS / "upsample2_1d.sexp"
    lines = same_bytes.file_digests(cli, path)
    prog = ir.parse_program(path.read_text())
    want = []
    for target in ("wmma", "all"):
        lowered, rep = selector.select_program(prog, selector.SelectionConfig(target=target))
        _, dumped = selector.select_program(
            prog, selector.SelectionConfig(target=target, dump_egraph=True))
        assert rep.ok
        want += [f"upsample2_1d.sexp {target} {kind} 0 {_sha(text)}" for kind, text in (
            ("lowered", ir.print_program(lowered)),
            ("report", json.dumps(rep.as_dict(timing=False), indent=2) + "\n"),
            ("egraph", json.dumps(dumped.as_dict(timing=False), indent=2) + "\n"))]
    assert lines == want
    assert all("egraph_dump" in s for s in dumped.as_dict(timing=False)["statements"])


def test_digests_of_one_rules_fuzz_reports():
    rule = rules.corrupted_ramp_rule()
    assert ("corrupted_ramp_rule", rule.name) in [
        (label, r.name) for label, r in same_bytes.fuzz_rules(rules)]
    assert len(same_bytes.fuzz_rules(rules)) == 42  # 40 semantic rules, 2 mutations
    want = []
    for seed in (0, 1):
        rep = rules.check_rule_soundness(rule, 500, seed)
        inst, detail = rep.counterexample
        text = (f"checked {rep.checked} guard_unsatisfiable False\n"
                f"{ir.print_expr(inst.lhs)}\n{ir.print_expr(inst.rhs)}\n{detail!r}\n")
        want.append(f"fuzz corrupted_ramp_rule {seed} {_sha(text)}")
    assert same_bytes.fuzz_lines(ir, rules, "corrupted_ramp_rule", rule) == want
