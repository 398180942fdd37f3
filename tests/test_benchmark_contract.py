"""The benchmark's tracer (perfbench/spans.py) rebinds public entry points of
the tensorsel modules by name.  Installing it here makes a rename of one of
them, or a call path that goes round a rebound name, fail this suite, not
only the benchmark's own tests."""

import sys

from tensorsel import layout

from testkit import ROOT, corpus_program

sys.path.insert(0, str(ROOT / "perfbench"))

from spans import CATEGORIES, NAME, Tracer  # noqa: E402
from workloads import import_tensorsel  # noqa: E402


def _bindings(ts):
    return ({name: dict(vars(mod)) for name, mod in vars(ts).items()},
            dict(vars(ts.egraph.EGraph)))


def test_tracer_installs_and_uninstalls_on_current_modules():
    ts = import_tensorsel(ROOT)
    prog = corpus_program("upsample2_1d")
    before = _bindings(ts)
    tracer = Tracer()
    tracer.install(ts, frozenset())
    try:
        assert _bindings(ts) != before
        ts.interp.random_inputs(prog, 0)
        ts.layout.shuffle_indices_for(layout.ToeplitzSpec(l=2, k=4))
    finally:
        tracer.uninstall()
    assert _bindings(ts) == before
    spans, _, _ = tracer.take()
    assert [s[NAME] for s in spans] == ["interp.random_inputs",
                                        "layout.shuffle_indices_for"]


def test_every_ematch_call_is_traced_with_its_rule_category():
    ts = import_tensorsel(ROOT)
    prog = corpus_program("upsample2_1d")
    tracer = Tracer()
    tracer.install(ts, frozenset())
    try:
        ts.selector.select_program(prog, ts.selector.SelectionConfig(target="wmma"))
    finally:
        tracer.uninstall()
    spans, counts, _ = tracer.take()
    names = {s[NAME] for s in spans if s[NAME].startswith("egraph.ematch")}
    assert names == {f"egraph.ematch.{c}" for c in CATEGORIES}
    calls = {c: counts[None][f"egraph.ematch.{c}.calls"] for c in CATEGORIES}
    # rule runs whose reads did not change since their last run are skipped
    assert calls == {"axiomatic": 135, "application": 24, "lowering": 66,
                     "supporting": 211}


def test_difftest_serves_buffer_free_values_from_its_memo():
    ts = import_tensorsel(ROOT)
    prog = corpus_program("conv1d_k8")
    tracer = Tracer()
    tracer.install(ts, frozenset({id(prog)}))
    try:
        res, _ = ts.cli.run_difftest(prog, "conv1d_k8", 16, 0,
                                     ts.selector.SelectionConfig(target="wmma"))
    finally:
        tracer.uninstall()
    _, counts, _ = tracer.take()
    assert (len(res.seeds), res.divergence) == (16, None)
    # two chunks of each program: 138 evaluations without the memo
    assert counts[None]["interp.eval_expr.calls"] == 102
