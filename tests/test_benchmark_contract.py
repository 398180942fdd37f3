"""The benchmark's tracer (perfbench/spans.py) rebinds public entry points of
the tensorsel modules by name.  Installing it here makes a rename of one of
them fail this suite, not only the benchmark's own tests."""

import sys

from tensorsel import layout

from conftest import ROOT, corpus_program

sys.path.insert(0, str(ROOT / "perfbench"))

from spans import NAME, Tracer  # noqa: E402
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
        ts.layout.shuffle_indices_for(layout.ToeplitzSpec(l=2, k=4), 0, 2)
    finally:
        tracer.uninstall()
    assert _bindings(ts) == before
    spans, _, _ = tracer.take()
    assert [s[NAME] for s in spans] == ["interp.random_inputs",
                                        "layout.shuffle_indices_for"]
