"""In-memory span recorder for the traced benchmark run.

Spans are recorded from the benchmark's own files: `Tracer.install`
rebinds public functions of the tensorsel modules (and each rule action)
to timing wrappers, and `uninstall` puts the originals back.  Nothing under
`src/` is edited.  A span is `[name, start_ns, end_ns, parent, item]`;
`parent` is the index of the enclosing span (-1 for a root) and `item` is
shared by every span of one program, difftest or rule check.

Times are integer nanoseconds, so self times (duration minus the time
covered by child spans) are exact and sum to the root span's duration.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

CATEGORIES = ("axiomatic", "application", "lowering", "supporting")

NAME, START, END, PARENT = range(4)  # then the item


def layer_of(name):
    return name.split(".", 1)[0]


def unit_of(metric):
    if "_ms" in metric:
        return "ms"
    return "ratio" if metric.endswith("_ratio") else "count"


class Tracer:
    def __init__(self):
        self.spans = []
        self.counts = defaultdict(Counter)  # item -> counter name -> value
        self.tags = {}  # span index -> the outcome a select_statement returned
        self.item = None
        self._stack = []
        self._patches = []
        self._sources = frozenset()
        # id(query) -> (query, category); holding the query keeps its id unique
        self._query_category = {}

    # -- recording ----------------------------------------------------------

    def begin(self, name):
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter_ns(), 0, parent, self.item])
        self._stack.append(idx)
        return idx

    def end(self, idx):
        self.spans[idx][END] = time.perf_counter_ns()
        popped = self._stack.pop()
        assert popped == idx, (popped, idx)

    def count(self, name, n=1):
        self.counts[self.item][name] += n

    def take(self):
        """Hand over the spans, per-item counts and tags recorded so far,
        and start afresh."""
        assert not self._stack, "spans still open"
        out = self.spans, self.counts, self.tags
        self.spans, self.counts, self.tags = [], defaultdict(Counter), {}
        return out

    def wrap(self, fn, name, outermost=False, after=None):
        """Time every call of `fn` as a span called `name` (a string, or a
        function of the call's arguments).  With `outermost`, only the
        outermost call of a recursion gets a span; every call is counted.
        `after(result, span_index)` may record counts from the result."""
        tracer = self
        depth = [0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            label = name(*args, **kwargs) if callable(name) else name
            tracer.count(label + ".calls")
            if outermost and depth[0]:
                return fn(*args, **kwargs)
            depth[0] += 1
            idx = tracer.begin(label)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer.end(idx)
                depth[0] -= 1
            if after is not None:
                after(result, idx)
            return result

        return wrapper

    # -- installation -------------------------------------------------------

    def _patch(self, owner, attr, wrapper):
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    def install(self, ts, sources):
        """Wrap the layer entry points of the tensorsel modules in `ts`
        (a namespace with ir, selector, rules, egraph, interp, layout, cli).
        `sources` holds the ids of the corpus programs, so the source and
        lowered runs of a difftest are told apart."""
        self._sources = sources
        assert not self._patches, "tracer already installed"
        ir, sel, rules, eg, interp, layout, cli = (
            ts.ir, ts.selector, ts.rules, ts.egraph, ts.interp, ts.layout, ts.cli)

        for fn in ("parse_program", "validate_program", "print_program"):
            self._patch(ir, fn, self.wrap(getattr(ir, fn), f"ir.{fn}"))

        for fn in ("select_program", "inject_data_movement", "realizability_check",
                   "lower_exprvars", "desugar_shuffles"):
            self._patch(sel, fn, self.wrap(getattr(sel, fn), f"selector.{fn}"))
        self._patch(sel, "select_statement", self.wrap(
            sel.select_statement, "selector.select_statement",
            after=self._after_select_statement))

        run_schedule = self.wrap(eg.run_schedule, "egraph.run_schedule",
                                 after=self._after_run_schedule)
        extract_best = self.wrap(eg.extract_best, "egraph.extract_best")
        for owner in (eg, sel):  # selector imported both by name
            self._patch(owner, "run_schedule", run_schedule)
            self._patch(owner, "extract_best", extract_best)
        self._patch(eg, "ematch", self.wrap(eg.ematch, self._ematch_name))
        self._patch(eg.EGraph, "rebuild", self.wrap(eg.EGraph.rebuild, "egraph.rebuild"))

        self._patch(rules, "build_default_ruleset", self.wrap(
            rules.build_default_ruleset, "rules.build_default_ruleset",
            after=self._after_build_ruleset))
        for fn in ("encode_stmt", "seed_facts", "check_type_consistency"):
            self._patch(rules, fn, self.wrap(getattr(rules, fn), f"rules.{fn}"))
        self._patch(rules, "decode_term", self.wrap(
            rules.decode_term, "rules.decode_term", outermost=True))
        self._patch(rules, "check_rule_soundness", self.wrap(
            rules.check_rule_soundness, "rules.check_rule_soundness",
            after=self._after_soundness))

        self._patch(interp, "random_inputs",
                    self.wrap(interp.random_inputs, "interp.random_inputs"))
        self._patch(interp, "run_program",
                    self.wrap(interp.run_program, self._run_program_name))
        self._patch(interp, "eval_expr", self.wrap(
            interp.eval_expr, "interp.eval_expr", outermost=True))

        for fn in ("shuffle_indices_for", "kway_interleave_indices"):
            self._patch(layout, fn, self.wrap(getattr(layout, fn), f"layout.{fn}"))

        self._patch(cli, "run_difftest", self.wrap(cli.run_difftest, "cli.run_difftest"))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def wrap_ruleset(self, rs):
        """Wrap each rule's action of a freshly built ruleset and note its
        query's category, so e-matching and action time split by category."""
        for rule in rs:
            self._query_category[id(rule.query)] = (rule.query, rule.category)
            rule.action = self.wrap(rule.action, f"rules.action.{rule.category}")

    # -- hooks --------------------------------------------------------------

    def _ematch_name(self, g, query):
        entry = self._query_category.get(id(query))
        return f"egraph.ematch.{entry[1] if entry else 'other'}"

    def _run_program_name(self, p, *args, **kwargs):
        if id(p) in self._sources:
            return "interp.run_source"
        if self._stack and self.spans[self._stack[-1]][NAME] == "cli.run_difftest":
            return "interp.run_lowered"
        return "interp.run_program"

    def _after_build_ruleset(self, rs, idx):
        self.wrap_ruleset(rs)

    def _after_run_schedule(self, rep, idx):
        self.count("egraph.iterations", rep.iterations)
        self.count("egraph.classes", rep.n_classes)
        self.count("egraph.nodes", rep.n_nodes)
        self.count("egraph.applications", sum(rep.applications.values()))
        for cat in CATEGORIES:
            self.count(f"egraph.matches.{cat}", rep.matches.get(cat, 0))

    def _after_select_statement(self, result, idx):
        outcome = result[1].outcome
        self.tags[idx] = outcome
        self.count("selector.statements")
        if outcome == "lowered":
            self.count("selector.lowered")
        if outcome.startswith("failed"):
            self.count("selector.failed")

    def _after_soundness(self, rep, idx):
        self.count("rules.fuzz_trials", rep.trials)
        self.count("rules.fuzz_checked", rep.checked)


# ---------------------------------------------------------------------------
# span arithmetic


def self_times(spans):
    """Per span: duration minus the durations of its direct children."""
    out = [s[END] - s[START] for s in spans]
    for s in spans:
        if s[PARENT] >= 0:
            out[s[PARENT]] -= s[END] - s[START]
    return out


def busy_times(spans, selfs):
    """Per span: its self time plus the busy time of nested spans of the same
    layer.  Time inside another layer's span counts only for that layer."""
    out = list(selfs)
    for i in range(len(spans) - 1, -1, -1):  # children follow their parent
        p = spans[i][PARENT]
        if p >= 0 and layer_of(spans[p][NAME]) == layer_of(spans[i][NAME]):
            out[p] += out[i]
    return out


def layer_metrics(spans, counts, tags):
    """The per-layer metrics of one traced pass.  `counts` is the pass's
    Counter summed over items; `tags` maps span index -> statement outcome.
    `*_ms` metrics are busy time, `*.self_ms` self time."""
    selfs = self_times(spans)
    busy = busy_times(spans, selfs)
    busy_ms, self_ms = Counter(), Counter()
    unlowered_saturate_ns = 0
    for i, s in enumerate(spans):
        busy_ms[s[NAME]] += busy[i] / 1e6
        self_ms[s[NAME]] += selfs[i] / 1e6
        if s[NAME] == "egraph.run_schedule" and tags.get(s[PARENT], "lowered") != "lowered":
            unlowered_saturate_ns += s[END] - s[START]

    def ratio(num, den):
        return num / den if den else 0.0

    ematch_calls = sum(counts[f"egraph.ematch.{c}.calls"] for c in CATEGORIES)
    return {
        "egraph.ematch_ms": sum(busy_ms[f"egraph.ematch.{c}"] for c in CATEGORIES),
        **{f"egraph.ematch_ms.{c}": busy_ms[f"egraph.ematch.{c}"] for c in CATEGORIES},
        "egraph.ematch_calls": ematch_calls,
        "egraph.rebuild_ms": busy_ms["egraph.rebuild"],
        "egraph.rebuild_calls": counts["egraph.rebuild.calls"],
        "egraph.extract_ms": busy_ms["egraph.extract_best"],
        "egraph.run_schedule.self_ms": self_ms["egraph.run_schedule"],
        "egraph.iterations": counts["egraph.iterations"],
        "egraph.classes": counts["egraph.classes"],
        "egraph.nodes": counts["egraph.nodes"],
        **{f"egraph.matches.{c}": counts[f"egraph.matches.{c}"] for c in CATEGORIES},
        "egraph.productive_ratio": ratio(counts["egraph.applications"], ematch_calls),
        **{f"rules.action_ms.{c}": busy_ms[f"rules.action.{c}"] for c in CATEGORIES},
        **{f"rules.action_calls.{c}": counts[f"rules.action.{c}.calls"]
           for c in CATEGORIES},
        "rules.encode_ms": busy_ms["rules.encode_stmt"] + busy_ms["rules.seed_facts"],
        "rules.decode_ms": busy_ms["rules.decode_term"],
        "rules.type_check_ms": busy_ms["rules.check_type_consistency"],
        "rules.build_ruleset_ms": busy_ms["rules.build_default_ruleset"],
        "rules.soundness_ms": busy_ms["rules.check_rule_soundness"],
        "rules.fuzz_trials": counts["rules.fuzz_trials"],
        "rules.fuzz_checked_ratio": ratio(counts["rules.fuzz_checked"],
                                          counts["rules.fuzz_trials"]),
        "selector.select_program.self_ms": self_ms["selector.select_program"],
        "selector.inject_ms": busy_ms["selector.inject_data_movement"],
        "selector.select_statement.self_ms": self_ms["selector.select_statement"],
        "selector.realizability_ms": busy_ms["selector.realizability_check"],
        "selector.lower_exprvars_ms": busy_ms["selector.lower_exprvars"],
        "selector.desugar_ms": busy_ms["selector.desugar_shuffles"],
        "selector.statements": counts["selector.statements"],
        "selector.lowered": counts["selector.lowered"],
        "selector.failed": counts["selector.failed"],
        "selector.saturated": counts["egraph.run_schedule.calls"],
        "selector.lowered_ratio": ratio(counts["selector.lowered"],
                                        counts["egraph.run_schedule.calls"]),
        "selector.unlowered_saturate_ms": unlowered_saturate_ns / 1e6,
        "select.output_nodes": counts["select.output_nodes"],
        "interp.random_inputs_ms": busy_ms["interp.random_inputs"],
        "interp.run_source_ms": busy_ms["interp.run_source"],
        "interp.run_lowered_ms": busy_ms["interp.run_lowered"],
        "interp.eval_expr_ms": busy_ms["interp.eval_expr"],
        "interp.eval_expr_calls": counts["interp.eval_expr.calls"],
        "ir.parse_ms": busy_ms["ir.parse_program"],
        "ir.validate_ms": busy_ms["ir.validate_program"],
        "ir.print_ms": busy_ms["ir.print_program"],
        "layout.shuffle_indices_ms": (busy_ms["layout.shuffle_indices_for"]
                                      + busy_ms["layout.kway_interleave_indices"]),
        "cli.difftest.self_ms": self_ms["cli.run_difftest"],
    }


# Counts that must repeat exactly between passes, runs and hash seeds.
EXACT_COUNTS = tuple(
    ["egraph.ematch_calls", "egraph.iterations", "egraph.classes", "egraph.nodes"]
    + [f"egraph.matches.{c}" for c in CATEGORIES]
    + [f"rules.action_calls.{c}" for c in CATEGORIES]
    + ["interp.eval_expr_calls", "select.output_nodes", "rules.fuzz_trials",
       "selector.saturated"])
