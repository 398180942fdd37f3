"""Tests of the benchmark itself: python3 -m pytest perfbench/tests -q"""

import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter

import pytest

import run
from spans import EXACT_COUNTS, PARENT, Tracer, busy_times, layer_metrics, self_times
from workloads import BENCH_DIR, WORKLOADS

ROOT = BENCH_DIR.parent
# Cheap items that still take each workload's interesting paths: the
# expected selection failure, a conv program with a shuffle, a MatMul.
SHORT = {
    "select": ["matmul_preloadB_standard", "upsample2_1d", "matmul_vnni"],
    "difftest": ["matmul_preloadB_standard", "upsample2_1d"],
    "fuzz": ["amx-zero", "int-add-fold", "mem2amx-cancel", "wmma-mma"],
}


def traced_pass(ctx, goldens, wl, items, seed=3):
    tracer = Tracer()
    tracer.install(ctx.ts, frozenset(id(p) for p in ctx.programs.values()))
    try:
        res = run.run_pass(ctx, goldens, wl, items, seed, tracer)
    finally:
        tracer.uninstall()
    return res, tracer.take()


@pytest.mark.parametrize("n,expected", [(11, 9), (20, 50), (52, 80), (100, 90),
                                        (104, 90), (10_000, 90)])
def test_tail_percentile_values(n, expected):
    assert run.tail_percentile(n) == expected


def test_tail_percentile_is_the_highest_with_ten_beyond():
    for n in range(11, 2000):
        p = run.tail_percentile(n, cap=99)
        assert n * (100 - p) >= 10 * 100
        assert p == 99 or n * (100 - (p + 1)) < 10 * 100
    with pytest.raises(ValueError):
        run.tail_percentile(10)


def test_host_speed_scales_by_the_bracketing_loop_times():
    speed = run.HostSpeed()
    out, raw, scaled = speed.timed(lambda: 42)
    assert out == 42 and len(speed.samples_ns) == 2
    assert scaled == raw * run.REF_NOMINAL_NS / statistics.fmean(speed.samples_ns)
    _, raw, _ = speed.timed(lambda: time.sleep(0.2))
    half = round(run.REF_SHARE / 2 * raw / run.REF_NOMINAL_NS)
    assert half >= 4 and len(speed.samples_ns) == 2 + 1 + half


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_short_run_has_no_failures(ctx, goldens, name):
    wl = WORKLOADS[name]
    res = run.run_pass(ctx, goldens, wl, SHORT[name], seed=5)
    assert res.failures == []
    assert res.attempted == len(res.times_ns) == len(SHORT[name])


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_traced_outputs_equal_untraced(ctx, goldens, name):
    wl = WORKLOADS[name]
    item = SHORT[name][1]
    plain = wl.render(ctx, wl.call(ctx, item, 7))
    tracer = Tracer()
    tracer.install(ctx.ts, frozenset(id(p) for p in ctx.programs.values()))
    try:
        shadow = wl.render(ctx, wl.call(ctx, item, 7))
    finally:
        tracer.uninstall()
    assert tracer.spans, "nothing was traced"
    assert shadow.encode() == plain.encode()
    assert wl.render(ctx, wl.call(ctx, item, 7)) == plain  # patches undone


def test_self_times_sum_to_each_root(ctx, goldens):
    res, (spans, counts, tags) = traced_pass(
        ctx, goldens, WORKLOADS["difftest"], ["upsample2_1d"])
    assert res.failures == []
    selfs = self_times(spans)
    assert min(selfs) >= 0
    roots = [i for i, s in enumerate(spans) if s[PARENT] < 0]
    for r in roots:
        tree = {r}
        for i, s in enumerate(spans):
            if s[PARENT] in tree:
                tree.add(i)
        total = sum(selfs[i] for i in tree)
        assert total == spans[r][2] - spans[r][1]
    busy = busy_times(spans, selfs)
    assert all(b >= s for b, s in zip(busy, selfs))
    names = {s[0] for s in spans}
    assert {"interp.run_source", "interp.run_lowered", "interp.random_inputs",
            "egraph.ematch.axiomatic", "rules.action.supporting"} <= names


def test_counts_repeat_across_pass_orders(ctx, goldens):
    wl, items = WORKLOADS["select"], SHORT["select"]
    seen = []
    for order in (items, items[::-1]):
        res, (spans, counts, tags) = traced_pass(ctx, goldens, wl, order)
        assert res.failures == []
        m = layer_metrics(spans, sum(counts.values(), Counter()), tags)
        seen.append({k: m[k] for k in EXACT_COUNTS})
    assert seen[0] == seen[1]
    assert seen[0]["selector.saturated"] == 10 and m["selector.failed"] == 1
    assert m["selector.unlowered_saturate_ms"] > 0


def test_gate_rejects_a_changed_output(ctx, goldens):
    wl = WORKLOADS["select"]
    bad = json.loads(json.dumps(goldens))
    bad["programs"]["upsample2_1d"]["lowered_sha256"] = "0" * 64
    res = run.run_pass(ctx, bad, wl, ["upsample2_1d"], seed=1)
    assert res.failures and "lowered program differs" in res.failures[0]


COUNT_SCRIPT = """
import json, sys
sys.path.insert(0, sys.argv[1])
from collections import Counter
import run
from spans import Tracer, layer_metrics
from workloads import WORKLOADS, load_goldens, setup
ctx = setup(run.ROOT)
tracer = Tracer()
tracer.install(ctx.ts, frozenset(id(p) for p in ctx.programs.values()))
for name, items in (("select", ["matmul_vnni", "conv1d_k8"]), ("fuzz", ["ramp-elim"])):
    run.run_pass(ctx, load_goldens(), WORKLOADS[name], items, 2, tracer)
tracer.uninstall()
spans, counts, tags = tracer.take()
print(json.dumps(layer_metrics(spans, sum(counts.values(), Counter()), tags)))
"""


def test_exact_counts_repeat_across_hash_seeds():
    seen = []
    for hash_seed in ("0", "4242"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        out = subprocess.run([sys.executable, "-c", COUNT_SCRIPT, str(BENCH_DIR)],
                             capture_output=True, text=True, env=env, timeout=300,
                             check=True).stdout
        m = json.loads(out.splitlines()[-1])
        seen.append({k: m[k] for k in EXACT_COUNTS})
    assert seen[0] == seen[1]
    assert seen[0]["egraph.ematch_calls"] > 0 and seen[0]["interp.eval_expr_calls"] > 0


def test_command_prints_every_metric_and_passes_the_gate():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fuzz", "--seed", "4",
         "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    assert list(result["metrics"]) == [m["name"] for m in bench["end_to_end"]]
    for m in bench["end_to_end"]:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert result["metrics"][m["name"]]["value"] > 0


def test_per_layer_metrics_are_listed():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = list(layer_metrics([], Counter(), {})) + ["trace.untraced_ms",
                                                      "trace.overhead_ratio"]
    assert [m["name"] for m in bench["per_layer"]] == names


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "select", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
