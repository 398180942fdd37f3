"""Run one workload of the tensorsel benchmark and print its metrics.

    python3 perfbench/run.py --workload select|difftest|fuzz --seed N \\
        --seconds S --trace 0|1

The run sets up, then makes whole passes over the workload's items until
the next pass would end after S seconds (but at least the workload's
minimum number of passes).  Every output goes through the workload's
correctness gate.  With --trace 0 it reports the end-to-end metrics,
measured with tracing off.  With --trace 1 it alternates untraced and
traced passes: the traced ones give the per-layer metrics, their outputs
must equal the untraced ones byte for byte, and the ratio of their times is
the tracing overhead.  The spans are written to perfbench/out/.

Human-readable lines come first.  The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.  The exit
code is 2, with no result printed, when the benchmark cannot set up.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

from spans import EXACT_COUNTS, Tracer, layer_metrics, unit_of
from workloads import (BENCH_DIR, WORKLOADS, BenchSetupError, load_corpus,
                       load_goldens, pass_order, setup)

ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / "out"
SETUP_RUNS = 11  # set-up samples per run; setup_s is their median
MIN_TRACED_PASSES = 2  # so each traced run checks its counts repeat
MAX_TRACED_PASSES = 3  # bounds the spans held in memory
MAX_MEASURE_S = 120  # stop starting passes here, to exit well within 180 s
REF_NOMINAL_NS = 1_000_000  # end-to-end times are scaled to this reference time
REF_SHARE = 0.05  # reference-loop sampling time, as a share of call time


# ---------------------------------------------------------------------------
# statistics


def tail_percentile(n, cap=90, beyond=10):
    """The highest whole percentile, at most `cap`, that has at least
    `beyond` of `n` samples above it."""
    if n <= beyond:
        raise ValueError(f"{n} samples leave none with {beyond} beyond")
    return min(cap, math.floor(100 * (n - beyond) / n))


def percentile(samples, p):
    if p == 50:
        return statistics.median(samples)
    return statistics.quantiles(samples, n=100, method="inclusive")[p - 1]


# ---------------------------------------------------------------------------
# host speed


def reference_loop():
    """Fixed pure-Python work with the dict and tuple traffic the e-graph
    does; about 1 ms on a 2.1 GHz Xeon."""
    table, total = {}, 0
    for i in range(3000):
        table[(i * 7919) % 409, i & 7] = i
        total += len(table) % 3
    return total


@dataclass
class HostSpeed:
    """Reference-loop times taken right before and after each measured call.

    The shared host's speed changes by half and more within seconds and
    drifts by a quarter over minutes, alike for the reference loop and for
    tensorsel.  Scaling each call by the loop times that bracket it removes
    that common factor, which no median over one run can: `timed` returns
    the call's time as it would read with the loop at REF_NOMINAL_NS."""

    samples_ns: list = field(default_factory=list)
    half: int = 1  # loop runs on each side of the next call

    def sample(self, count):
        out = []
        for _ in range(count):
            t0 = time.perf_counter_ns()
            reference_loop()
            out.append(time.perf_counter_ns() - t0)
        self.samples_ns += out
        return out

    def timed(self, fn):
        """(fn(), raw ns, scaled ns), with about REF_SHARE of the call's
        time spent on the loop."""
        before = self.sample(self.half)
        t0 = time.perf_counter_ns()
        out = fn()
        raw = time.perf_counter_ns() - t0
        self.half = max(1, round(REF_SHARE / 2 * raw / REF_NOMINAL_NS))
        after = self.sample(self.half)
        return out, raw, raw * REF_NOMINAL_NS / statistics.fmean(before + after)


# ---------------------------------------------------------------------------
# passes


@dataclass
class PassResult:
    times_ns: list = field(default_factory=list)  # per successful call
    scaled_ns: list = field(default_factory=list)  # the same, at reference speed
    units: int = 0
    nodes: int = 0
    digests: dict = field(default_factory=dict)
    failures: list = field(default_factory=list)
    attempted: int = 0

    @property
    def scaled_seconds(self):
        return sum(self.scaled_ns) / 1e9


def run_pass(ctx, goldens, wl, order, seed, tracer=None, speed=None):
    res = PassResult()
    for item in order:
        res.attempted += 1
        if tracer is not None:
            tracer.item = item
            root = tracer.begin(f"bench.{wl.name}")
        try:
            if speed is None:
                t0 = time.perf_counter_ns()
                out = wl.call(ctx, item, seed)
                dt = scaled = time.perf_counter_ns() - t0
            else:
                out, dt, scaled = speed.timed(lambda: wl.call(ctx, item, seed))
            checked = wl.check(ctx, goldens, item, out)
        except Exception as e:  # a failed call is counted; the run goes on
            res.failures.append(f"{item}: {type(e).__name__}: {e}")
            continue
        finally:
            if tracer is not None:
                tracer.end(root)
        res.digests[item] = checked.digest
        if checked.errors:
            res.failures.append(f"{item}: {'; '.join(checked.errors)}")
            continue
        res.times_ns.append(dt)
        res.scaled_ns.append(scaled)
        res.units += checked.units
        res.nodes += checked.nodes
    return res


def keep_going(passes, minimum, started, seconds, maximum=None):
    elapsed = time.perf_counter() - started
    if len(passes) < minimum:
        return elapsed < MAX_MEASURE_S
    if maximum is not None and len(passes) >= maximum:
        return False
    return elapsed + elapsed / len(passes) <= min(seconds, MAX_MEASURE_S)


def probe_setup():
    t0 = time.perf_counter_ns()
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(ROOT)],
        capture_output=True, text=True, timeout=120, cwd=ROOT)
    return proc, t0


def measure_setup(runs, speed):
    """`setup_s` samples, raw and scaled: each from starting a fresh process
    until it has imported tensorsel, parsed and validated the corpus and
    built the ruleset (the clock is the system-wide monotonic one)."""
    raw, scaled = [], []
    for _ in range(runs):
        (proc, t0), total, total_scaled = speed.timed(probe_setup)
        if proc.returncode != 0:
            raise BenchSetupError(f"set-up probe failed:\n{proc.stderr}")
        ready = (int(proc.stdout.split()[-1]) - t0) / 1e9
        raw.append(ready)
        scaled.append(ready * total_scaled / total)
    return raw, scaled


# ---------------------------------------------------------------------------
# the two kinds of run


def end_to_end(ctx, goldens, wl, items, seed, seconds, report):
    speed = HostSpeed()
    setup_raw, setup_scaled = measure_setup(SETUP_RUNS, speed)
    warm = run_pass(ctx, goldens, wl, items[:1], seed)  # untimed warm-up
    passes, started = [], time.perf_counter()
    while keep_going(passes, wl.min_passes, started, seconds):
        gc.collect()
        order = pass_order(items, wl.name, seed, len(passes))
        passes.append(run_pass(ctx, goldens, wl, order, seed, speed=speed))
    if not any(p.times_ns for p in passes):
        raise BenchSetupError("no call succeeded")
    units = sum(p.units for p in passes)
    tail = tail_percentile(wl.min_passes * len(items))

    def call_metrics(times_ns):
        ms = [t / 1e6 for t in times_ns]
        return {"throughput_per_s": units / sum(ms) * 1e3,
                "call_ms.p50": percentile(ms, 50),
                "call_ms.tail": percentile(ms, tail)}

    raw = {"setup_s": statistics.median(setup_raw),
           **call_metrics([t for p in passes for t in p.times_ns])}
    scaled = {"setup_s": statistics.median(setup_scaled),
              "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
              **call_metrics([t for p in passes for t in p.scaled_ns])}
    calls = sum(len(p.times_ns) for p in passes)
    report.append(f"passes: {len(passes)} of {len(items)} calls; {calls} timed calls")
    report.append(f"setup_s: median of {len(setup_raw)} fresh processes")
    report.append(f"throughput_per_s: {wl.unit} per second of call time, "
                  f"over all {len(passes)} passes")
    report.append(f"call_ms.p50 and call_ms.tail: over {calls} calls; "
                  f"the tail is p{tail} (ten of {wl.min_passes * len(items)} "
                  f"calls of the minimum run lie beyond it)")
    report.append(f"times are scaled to a {REF_NOMINAL_NS / 1e6:g} ms reference loop; "
                  f"it measured {statistics.fmean(speed.samples_ns) / 1e6:.4f} ms "
                  f"on average over {len(speed.samples_ns)} runs")
    report.append("unscaled: " + ", ".join(f"{k} = {v:.6g}" for k, v in raw.items()))
    units_of = {"setup_s": "s", "peak_rss_mb": "MB", "throughput_per_s": "1/s"}
    metrics = {k: (v, units_of.get(k, "ms")) for k, v in scaled.items()}
    return metrics, [warm] + passes, []


def traced(ctx, goldens, wl, items, seed, seconds, report):
    tracer, speed = Tracer(), HostSpeed()
    sources = frozenset(id(p) for p in ctx.programs.values())
    runs, problems, per_pass, ratios, kept = [], [], [], [], []
    started = time.perf_counter()
    while keep_going(kept, MIN_TRACED_PASSES, started, seconds, MAX_TRACED_PASSES):
        order = pass_order(items, wl.name, seed, len(kept))
        gc.collect()
        base = run_pass(ctx, goldens, wl, order, seed, speed=speed)
        gc.collect()
        try:
            tracer.install(ctx.ts, sources)
            tracer.item = "setup"
            root = tracer.begin("bench.setup")
            load_corpus(ctx.ts, ROOT)
            tracer.end(root)
            shadow = run_pass(ctx, goldens, wl, order, seed, tracer, speed)
        finally:
            tracer.uninstall()
        spans, counts, tags = tracer.take()
        runs += [base, shadow]
        kept.append(spans)
        for item in items:
            if shadow.digests.get(item) != base.digests.get(item):
                problems.append(f"{item}: traced output differs from untraced")
        total = sum(counts.values(), Counter())
        total["select.output_nodes"] = shadow.nodes
        per_pass.append(layer_metrics(spans, total, tags))
        if base.scaled_ns:
            ratios.append(shadow.scaled_seconds / base.scaled_seconds)
    metrics = {}
    for name in per_pass[0]:
        values = [m[name] for m in per_pass]
        if name in EXACT_COUNTS:
            if len(set(values)) != 1:
                problems.append(f"{name} differs between passes: {values}")
            metrics[name] = (values[0], unit_of(name))
        else:
            metrics[name] = (statistics.median(values), unit_of(name))
    metrics["trace.untraced_ms"] = (
        statistics.median(p.scaled_seconds for p in runs[::2]) * 1e3, "ms")
    metrics["trace.overhead_ratio"] = (
        statistics.median(ratios) if ratios else 0.0, "ratio")
    report.append(f"traced passes: {len(kept)}, each after an untraced pass "
                  f"in the same order; times are medians over them")
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"spans-{wl.name}-seed{seed}.jsonl"
    with path.open("w") as f:
        for k, spans in enumerate(kept):
            for s in spans:
                f.write(json.dumps([k] + s) + "\n")
    report.append(f"spans: {sum(map(len, kept))} written to "
                  f"{path.relative_to(ROOT)}")
    return metrics, runs, problems


# ---------------------------------------------------------------------------
# main


def host_info():
    import numpy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted((ROOT / "src").rglob("*.py")))
    return {"nproc": os.cpu_count(), "machine": platform.machine(),
            "processor": platform.processor() or "unknown",
            "python": platform.python_version(), "numpy": numpy.__version__,
            "src_lines": src_lines}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    wl = WORKLOADS[args.workload]
    try:
        ctx = setup(ROOT)
        goldens = load_goldens()
        items = wl.items(ctx, goldens)
        measure = traced if args.trace else end_to_end
        report = []
        metrics, passes, problems = measure(ctx, goldens, wl, items, args.seed,
                                            args.seconds, report)
    except (BenchSetupError, OSError, ValueError, subprocess.SubprocessError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    failed = attempted - sum(len(p.times_ns) for p in passes)
    print(f"tensorsel benchmark: workload {wl.name}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}; closed loop, one client")
    print("host: " + json.dumps(host_info(), sort_keys=True))
    for line in report:
        print(line)
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    print(f"error_rate = {failed}/{attempted} = {failed / attempted:.6g}")
    for f in (failures + problems)[:20]:
        print(f"FAILED {f}")
    print(json.dumps({
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
