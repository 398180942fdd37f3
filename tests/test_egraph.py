import copy
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsel import egraph, ir, rules
from tensorsel.egraph import (CATEGORY_ORDER, SUPPORTING_ROUNDS, Bind, EGraph,
                              Guard, NoFiniteCost, NodeBudgetExceeded, PNode,
                              PVar, Query, Rel, RuleDef, SaturationReport,
                              ematch, extract_best, node_cost, rel,
                              run_schedule)
from tensorsel.selector import SelectionConfig, inject_data_movement

from conftest import corpus_names, corpus_program, target_for

BUDGET = SelectionConfig().node_budget


def leaf(g, name):
    return g.add((name,))


def node(g, name, *kids):
    return g.add((name,), kids)


class TestUnionFind:
    def test_hashcons_idempotent(self):
        g = EGraph()
        a = leaf(g, "a")
        x1 = node(g, "mul", a, leaf(g, "two"))
        x2 = node(g, "mul", a, leaf(g, "two"))
        assert x1 == x2

    def test_find_is_idempotent(self):
        g = EGraph()
        ids = [leaf(g, f"l{i}") for i in range(6)]
        rng = random.Random(0)
        for _ in range(6):
            g.union(rng.choice(ids), rng.choice(ids))
        for i in ids:
            assert g.find(g.find(i)) == g.find(i)

    def test_union_commutative_idempotent(self):
        g = EGraph()
        a, b = leaf(g, "a"), leaf(g, "b")
        g.union(a, b)
        g.union(b, a)
        g.rebuild()
        assert g.find(a) == g.find(b)
        assert g.n_classes == 1

    def test_congruence_at_rebuild(self):
        g = EGraph()
        a, b = leaf(g, "a"), leaf(g, "b")
        fa, fb = node(g, "f", a), node(g, "f", b)
        assert g.find(fa) != g.find(fb)
        g.union(a, b)
        g.rebuild()
        assert g.find(fa) == g.find(fb)

    def test_class_count_never_grows_on_rebuild(self):
        g = EGraph()
        a, b, c = (leaf(g, n) for n in "abc")
        node(g, "f", a, b)
        node(g, "f", b, c)
        before = g.n_classes
        g.union(a, b)
        g.rebuild()
        assert g.n_classes <= before

    def test_fact_canonicalization(self):
        g = EGraph()
        a, b = leaf(g, "a"), leaf(g, "b")
        g.assert_fact("r", a)
        g.assert_fact("r", b)
        g.union(a, b)
        g.rebuild()
        assert len(g.facts["r"]) == 1


def _mul_div_graph():
    g = EGraph()
    a = leaf(g, "a")
    two = leaf(g, "2")
    mul = node(g, "mul", a, two)
    root = node(g, "div", mul, two)
    return g, a, two, root


def _mul_div_rules():
    # (x*2)/2 -> x*(2/2);   2/2 -> 1;   x*1 -> x
    V = PVar

    def r1(g, env):
        q = g.add(("div",), (env["two"], env["two2"]))
        g.union(env["e"], g.add(("mul",), (env["x"], q)))

    def r2(g, env):
        g.union(env["e"], g.add(("1",)))

    def r3(g, env):
        g.union(env["e"], env["x"])

    return [
        RuleDef("assoc", "axiomatic",
                (Bind("e", PNode(("div",), (PNode(("mul",), (V("x"), V("two"))),
                                            V("two2")))),
                 Guard(lambda g, env: g.find(env["two"]) == g.find(env["two2"]),
                       "same divisor")),
                r1),
        RuleDef("two-over-two", "axiomatic",
                (Bind("e", PNode(("div",), (V("t"), V("t")))),), r2),
        RuleDef("mul-one", "axiomatic",
                (Bind("e", PNode(("mul",), (V("x"), PNode(("1",))))),), r3),
    ]


class TestMulDivExample:
    def test_initial_graph_has_four_classes(self):
        g, *_ = _mul_div_graph()
        assert g.n_classes == 4

    def test_rules_prove_root_equals_a(self):
        g, a, two, root = _mul_div_graph()
        run_schedule(g, _mul_div_rules(), iterations=4, node_budget=BUDGET)
        assert g.find(root) == g.find(a)

    def test_extract_picks_a(self):
        g, a, two, root = _mul_div_graph()
        run_schedule(g, _mul_div_rules(), iterations=4, node_budget=BUDGET)
        assert extract_best(g, root) == (("a",), ())


class TestEmatch:
    def test_simple_binding(self):
        g = EGraph()
        v = leaf(g, "v")
        e = node(g, "bcast", v, g.add_int(1))
        hits = ematch(g, (Bind("e", PNode(("bcast",),
                                          (PVar("x"), PNode(("int", 1))))),))
        assert len(hits) == 1
        assert hits[0]["x"] == g.find(v)

    def test_no_match_is_empty(self):
        g = EGraph()
        leaf(g, "v")
        assert ematch(g, (Bind("e", PNode(("nothing",))),)) == []

    def test_match_modulo_congruence(self):
        g = EGraph()
        a, b = leaf(g, "a"), leaf(g, "b")
        fa = node(g, "f", a)
        g.union(a, b)
        g.rebuild()
        hits = ematch(g, (Bind("e", PNode(("f",), (PNode(("b",)),))),))
        assert [h["e"] for h in hits] == [g.find(fa)]

    def test_relation_join(self):
        from tensorsel.egraph import rel
        g = EGraph()
        a, b = leaf(g, "a"), leaf(g, "b")
        fa, fb = node(g, "f", a), node(g, "f", b)
        g.assert_fact("tagged", a)
        # the relation atom restricts the term match to tagged arguments
        hits = ematch(g, (Bind("e", PNode(("f",), (PVar("x"),))),
                          rel("tagged", PVar("x"))))
        assert [h["e"] for h in hits] == [g.find(fa)]

    def test_guard_filters(self):
        g = EGraph()
        node(g, "f", g.add_int(3))
        node(g, "f", g.add_int(8))
        q = (Bind("e", PNode(("f",), (PVar("n"),))),
             Guard(lambda g_, env: g_.class_int(env["n"]) > 4, "n > 4"))
        hits = ematch(g, q)
        assert len(hits) == 1 and g.class_int(hits[0]["n"]) == 8

    def test_guard_sees_exactly_earlier_bindings(self):
        from tensorsel.egraph import rel
        g = EGraph()
        a, b = leaf(g, "a"), leaf(g, "b")
        node(g, "f", a)
        node(g, "f", b)
        g.assert_fact("tagged", a, b)
        seen = []

        def spy(want):
            return Guard(lambda g_, env: seen.append((want, dict(env))) or True)

        q = (spy(set()),
             Bind("e", PNode(("f",), (PVar("x"),))),
             spy({"e", "x"}),
             rel("tagged", PVar("x"), PVar("y")),
             spy({"e", "x", "y"}))
        hits = ematch(g, q)
        assert [set(h) for h in hits] == [{"e", "x", "y"}]
        assert seen and all(set(env) == want for want, env in seen)

    @pytest.mark.parametrize("query, n_hits", [
        ((Bind("x", PVar("y")),), 3),  # neither bound: every class
        ((Bind("y", PNode(("a",))), Bind("x", PVar("y"))), 1),
        ((Bind("x", PNode(("a",))), Bind("x", PVar("y"))), 1),
        ((Bind("x", PNode(("a",))), Bind("y", PNode(("b",))), Bind("x", PVar("y"))), 0),
    ])
    def test_bind_to_a_variable_equates_classes(self, query, n_hits):
        g = EGraph()
        a, b = leaf(g, "a"), leaf(g, "b")
        node(g, "f", a)
        hits = ematch(g, query)
        assert hits == _ref_ematch(g, query) and len(hits) == n_hits
        assert all(h["x"] == h["y"] for h in hits)
        g.union(a, b)
        assert ematch(g, query) == _ref_ematch(g, query) != []

    def test_results_are_independent(self):
        g = EGraph()
        node(g, "f", g.add_int(3))
        node(g, "f", g.add_int(8))
        hits = ematch(g, (Bind("e", PNode(("f",), (PVar("n"),))),))
        assert len(hits) == 2
        before = [dict(h) for h in hits]
        hits[0]["n"] = -1
        hits[0]["extra"] = 0
        assert hits[1] == before[1]
        assert ematch(g, (Bind("e", PNode(("f",), (PVar("n"),))),)) == before


# -- reference matcher: sorted full scans, no index --------------------------


def _ref_match_pattern(g, pat, cid, env):
    cid = g.find(cid)
    if isinstance(pat, PVar):
        bound = env.get(pat.name)
        if bound is not None:
            return [env] if g.find(bound) == cid else []
        return [{**env, pat.name: cid}]
    results = []
    for op, children in g.class_nodes(cid):
        if op != pat.op or len(children) != len(pat.children):
            continue
        envs = [env]
        for cpat, ccid in zip(pat.children, children):
            envs = [e2 for e in envs for e2 in _ref_match_pattern(g, cpat, ccid, e)]
        results.extend(envs)
    return results


def _ref_match_atom(g, atom, env):
    if isinstance(atom, Bind):
        bound = env.get(atom.var)
        if bound is not None:
            return _ref_match_pattern(g, atom.pattern, bound, env)
        return [e2 for cid in g.class_ids()
                for e2 in _ref_match_pattern(g, atom.pattern, cid,
                                             {**env, atom.var: cid})]
    if isinstance(atom, Rel):
        out = []
        for tup in sorted(g.facts.get(atom.name, ())):
            if len(tup) != len(atom.terms):
                continue
            envs = [env]
            for term, cid in zip(atom.terms, tup):
                envs = [e2 for e in envs for e2 in _ref_match_pattern(g, term, cid, e)]
            out.extend(envs)
        return out
    return [env] if atom.fn(g, env) else []


def _ref_ematch(g, query):
    envs = [{}]
    for atom in query:
        envs = [e2 for env in envs for e2 in _ref_match_atom(g, atom, env)]
    canon = {tuple(sorted((k, g.find(v)) for k, v in env.items())) for env in envs}
    return [dict(key) for key in sorted(canon)]


OPS = (("a", 0), ("b", 0), ("f", 1), ("g", 2))
RELATIONS = (("r", 1), ("s", 2))
VARS = ("x", "y")


@st.composite
def _graphs(draw):
    """An e-graph built by a random mix of add, assert_fact, union and
    rebuild, ending with or without a rebuild."""
    g = EGraph()
    ids = [g.add(("a",)), g.add(("b",))]
    for _ in range(draw(st.integers(0, 30))):
        step = draw(st.sampled_from(("add", "add", "fact", "fact", "union", "rebuild")))
        pick = st.sampled_from(ids)
        if step == "add":
            op, arity = draw(st.sampled_from(OPS))
            ids.append(g.add((op,), tuple(draw(pick) for _ in range(arity))))
        elif step == "fact":
            name, arity = draw(st.sampled_from(RELATIONS))
            g.assert_fact(name, *(draw(pick) for _ in range(arity)))
        elif step == "union":
            g.union(draw(pick), draw(pick))
        else:
            g.rebuild()
    return g


def _patterns(depth=2):
    leaf = st.one_of(st.sampled_from(VARS).map(PVar),
                     st.sampled_from(("a", "b")).map(lambda op: PNode((op,))))
    if depth == 0:
        return leaf
    kid = _patterns(depth - 1)
    return st.one_of(leaf,
                     kid.map(lambda c: PNode(("f",), (c,))),
                     st.tuples(kid, kid).map(lambda cs: PNode(("g",), cs)))


def _even_sum(g, env):
    return sum(g.find(v) for v in env.values()) % 2 == 0


_atoms = st.one_of(
    st.builds(Bind, st.sampled_from(VARS), _patterns()),
    st.sampled_from(RELATIONS).flatmap(lambda r: st.builds(
        Rel, st.just(r[0]), st.tuples(
            st.one_of(st.sampled_from(VARS).map(PVar), _patterns(1)),
            *[_patterns(1)] * (r[1] - 1)))),
    st.just(Guard(_even_sum, "sum of bound ids is even")))


class TestIndexedMatching:
    @settings(max_examples=300, deadline=None)
    @given(_graphs(), st.lists(_atoms, min_size=2, max_size=4))
    def test_equals_sorted_scan_reference(self, g, query):
        assert ematch(g, tuple(query)) == _ref_ematch(g, tuple(query))

    @settings(max_examples=300, deadline=None)
    @given(_graphs(), st.lists(_atoms, min_size=2, max_size=4))
    def test_rule_plan_equals_sorted_scan_reference(self, g, query):
        rule = RuleDef("random", "axiomatic", tuple(query), lambda g_, env: None)
        assert ematch(g, rule.query) == _ref_ematch(g, tuple(query))

    @settings(max_examples=200, deadline=None)
    @given(_graphs())
    def test_index_files_each_fact_under_its_first_root(self, g):
        for name, tuples in g.facts.items():
            for cid in g.class_ids():
                want = {t for t in tuples if g.find(t[0]) == cid}
                assert set(g._fact_index.get(cid, {}).get(name, ())) == want

    def test_union_before_rebuild_keeps_facts_reachable(self):
        g = EGraph()
        b = leaf(g, "b")
        a = leaf(g, "a")  # the larger id: union(a, b) moves a's root to b
        ty = g.add(("type", "f32"), (g.add_int(8),))
        g.assert_fact("has-type", a, ty)
        g.union(a, b)
        assert g.find(a) == b
        hits = ematch(g, (Bind("x", PNode(("a",))),
                          rel("has-type", PVar("x"), PVar("t"))))
        assert hits == [{"x": b, "t": ty}]


class TestPlansOnRules:
    """Every default rule's compiled plan against the reference matcher, on
    graphs saturated from corpus statements: guards, nested patterns and
    relation terms such as `(buffer-loc ?bn (loc mem))`."""

    def _saturated(self, name, rs, iterations):
        prog = corpus_program(name)
        inj = inject_data_movement(prog)
        g = rules.new_graph()
        rules.encode_stmt(g, inj.body[2])  # the statement that lowers
        rules.seed_facts(g, ir.buffer_table(inj), ir.program_shapes(prog))
        run_schedule(g, rs.for_target(target_for(name)), iterations, BUDGET)
        return g

    def _check(self, g, rs):
        for rule in rs:
            assert ematch(g, rule.query) == _ref_ematch(g, tuple(rule.query)), rule.name

    @pytest.mark.parametrize("name", ["matmul_standard", "conv1d_k8", "downsample2_1d"])
    def test_after_rebuild_and_mid_round(self, name):
        rs = rules.build_default_ruleset()
        # the selector's six iterations: every tile and MatMul rule matches
        self._check(self._saturated(name, rs, SelectionConfig().iterations), rs)
        g = self._saturated(name, rs, 2)
        for rule in rs.by_category("axiomatic"):
            for env in ematch(g, rule.query):
                rule.action(g, env)
            if g._merged:  # unions since the last rebuild
                break
        assert g._merged
        self._check(g, rs)


class TestRuleConstruction:
    @pytest.mark.parametrize("atom, what", [
        ("e", "not a query atom: 'e'"),
        (Bind("e", "f"), "not a pattern: 'f'"),
        (Bind("e", PNode(("f",), (PVar("x"), 3))), "not a pattern: 3"),
        (rel("r", PVar("x"), None), "not a pattern: None"),
    ])
    def test_bad_atom_raises_naming_the_rule(self, atom, what):
        query = (Bind("e", PNode(("f",), (PVar("x"),))), atom)
        with pytest.raises(TypeError, match=f"^rule 'bad': {re.escape(what)}$"):
            RuleDef("bad", "axiomatic", query, lambda g, env: None)

    def test_query_compiles_once(self):
        query = (Bind("e", PNode(("f",), (PVar("x"),))),)
        rule = RuleDef("f", "axiomatic", query, lambda g, env: None)
        assert rule.query == query and isinstance(rule.query, Query)
        assert replace(rule, name="g").query is rule.query


def _state(g):
    return (list(g._hashcons.items()),
            [(cid, list(nodes)) for cid, nodes in g._class_nodes.items()],
            g._op_index, g.facts, g._fact_index, g._small)


class TestRebuildSkip:
    def _forced(self, g):
        full = copy.deepcopy(g)
        full._merged = True
        full.rebuild()
        return full

    def test_skip_after_adds_and_facts_equals_full_pass(self):
        g = EGraph()
        a, b = leaf(g, "a"), leaf(g, "b")
        g.assert_fact("r", node(g, "f", a), b)
        g.union(a, b)
        g.rebuild()
        c = node(g, "g", a, node(g, "f", b))
        g.assert_fact("r", c, a)
        g.assert_fact("s", b)
        full = self._forced(g)
        hashcons = g._hashcons
        g.rebuild()
        assert g._hashcons is hashcons  # skipped: no union since the last
        assert _state(g) == _state(full)

    @settings(max_examples=100, deadline=None)
    @given(_graphs())
    def test_rebuild_equals_full_pass(self, g):
        full = self._forced(g)
        g.rebuild()
        assert _state(g) == _state(full)


def _ref_class_int(g, cid):
    for op, _ in g.class_nodes(cid):
        if op[0] == "int":
            return op[1]
    for op, _ in g.class_nodes(cid):
        if op[0] == "imm" and op[1] == "i32":
            return int(op[2])
    return None


def _ref_class_imm(g, cid):
    for op, _ in g.class_nodes(cid):
        if op[0] == "imm":
            return op[1], op[2]
    return None


def _ref_class_name(g, cid):
    for op, _ in g.class_nodes(cid):
        if op[0] == "name":
            return op[1]
    return None


def _ref_class_type(g, cid):
    for op, ch in g.class_nodes(cid):
        if op[0] == "type":
            lanes = _ref_class_int(g, ch[0])
            if lanes is not None:
                return op[1], lanes
    return None


# Leaves whose repr order differs from their value order (9 < 10, "'f32'" <
# "'i32'"), unary type nodes, and a binary node, none of which the readers see.
_LEAVES = ([("int", v) for v in (-3, 9, 10, 100)]
           + [("imm", "i32", v) for v in (-1, 7, 65536)]
           + [("imm", "f32", v, v < 0) for v in (-0.5, 0.5)]
           + [("name", n) for n in ("A", "K", "b")])
_STEPS = st.lists(st.one_of(
    st.tuples(st.just("leaf"), st.sampled_from(_LEAVES)),
    st.tuples(st.just("type"), st.sampled_from(("f32", "i32", "bf16")), st.integers()),
    st.tuples(st.just("add"), st.integers(), st.integers()),
    st.tuples(st.just("union"), st.integers(), st.integers()),
    st.just(("rebuild",))), max_size=40)


class TestSmallNodeReaders:
    @settings(max_examples=300, deadline=None)
    @given(_STEPS)
    def test_readers_equal_sorted_scan(self, steps):
        g = EGraph()
        ids = [g.add_int(8)]

        def pick(i):
            return ids[i % len(ids)]

        for step in steps:
            if step[0] == "leaf":
                ids.append(g.add(step[1]))
            elif step[0] == "type":
                ids.append(g.add(("type", step[1]), (pick(step[2]),)))
            elif step[0] == "add":
                ids.append(g.add(("bop", "+"), (pick(step[1]), pick(step[2]))))
            elif step[0] == "union":
                g.union(pick(step[1]), pick(step[2]))
            else:
                g.rebuild()
            for cid in g.class_ids():
                assert g.class_int(cid) == _ref_class_int(g, cid)
                assert g.class_imm(cid) == _ref_class_imm(g, cid)
                assert rules.class_name(g, cid) == _ref_class_name(g, cid)
                assert rules.class_type(g, cid) == _ref_class_type(g, cid)

    def test_type_order_follows_children_canonical_after_rebuild(self):
        g = EGraph()
        x = g.add(("name", "x"))
        a, b = g.add_int(8), g.add_int(16)
        t = g.union(g.add(("type", "f32"), (a,)), g.add(("type", "f32"), (b,)))
        assert rules.class_type(g, t) == ("f32", 8)
        g.union(b, x)  # b's root becomes x, below a: its type node now sorts first
        assert rules.class_type(g, t) == _ref_class_type(g, t) == ("f32", 8)
        g.rebuild()
        assert rules.class_type(g, t) == _ref_class_type(g, t) == ("f32", 16)


class TestSchedule:
    def test_supporting_reaches_fixpoint(self):
        g = EGraph()
        a = leaf(g, "a")
        g.assert_fact("seen", a)

        def derive(g_, env):
            g_.assert_fact("seen2", env["x"])

        rule = RuleDef("derive", "supporting",
                       (Bind("x", PNode(("a",))),), derive)
        rep = run_schedule(g, [rule], iterations=2, node_budget=BUDGET)
        assert rep.iterations == 2
        assert len(g.facts["seen2"]) == 1

    def test_budget_aborts_cleanly(self):
        g = EGraph()
        a = leaf(g, "a")

        def grow(g_, env):
            g_.add(("f",), (env["x"],))
            g_.add(("g",), (env["x"],))

        # every class spawns two fresh wrappers each round: 3^n growth
        rule = RuleDef("grow", "axiomatic", (Bind("x", PVar("v")),), grow)
        with pytest.raises(NodeBudgetExceeded):
            run_schedule(g, [rule], iterations=50, node_budget=1000)
        assert g.n_classes > 0  # partial graph intact

    def test_supporting_rounds_are_bounded(self):
        g = EGraph()
        node(g, "f", leaf(g, "a"))

        def wrap(g_, env):  # one class more per round: never a fixpoint
            g_.add(("f",), (env["x"],))

        rule = RuleDef("wrap", "supporting",
                       (Bind("x", PNode(("f",), (PVar("y"),))),), wrap)
        with pytest.raises(NodeBudgetExceeded, match="no fixpoint"):
            run_schedule(g, [rule], iterations=1, node_budget=BUDGET)
        assert g.n_classes == 2 + SUPPORTING_ROUNDS


def _naive_schedule(g, rules_, iterations, node_budget):
    """`run_schedule` matching every rule on every run."""
    report = SaturationReport()
    supporting = [r for r in rules_ if r.category == "supporting"]
    rounds = [r for cat in CATEGORY_ORDER for r in rules_ if r.category == cat]

    def apply(rule):
        matches = ematch(g, rule.query)
        report.matches[rule.category] = (
            report.matches.get(rule.category, 0) + len(matches))
        before = g.version
        for env in matches:
            rule.action(g, env)
        if g.version != before:
            report.applications[rule.category] = (
                report.applications.get(rule.category, 0) + 1)
        if g.n_classes > node_budget:
            raise NodeBudgetExceeded("budget")

    for it in range(iterations):
        report.iterations = it + 1
        for _ in range(SUPPORTING_ROUNDS):
            before = g.version
            for rule in supporting:
                apply(rule)
            g.rebuild()
            if g.version == before:
                break
        else:
            raise NodeBudgetExceeded("no fixpoint")
        for rule in rounds:
            apply(rule)
        g.rebuild()
    report.n_classes, report.n_nodes = g.n_classes, g.n_nodes
    return report


def _schedule_outcome(schedule, g, rules_, iterations, budget):
    """The report without its time (or the budget stop) and the graph."""
    g = copy.deepcopy(g)
    try:
        rep = schedule(g, rules_, iterations, budget)
        out = ({k: v for k, v in rep.as_dict().items() if k != "ms"},
               rep.applications)
    except NodeBudgetExceeded:
        out = "budget"
    return out, g.dump()


def _action(kind):
    """An action that reads only its matched classes and repeats nothing."""
    def act(g, env):
        ids = [env[v] for v in sorted(env)]
        if not ids:
            return
        if kind == "wrap":
            g.add(("f",), (ids[0],))
        elif kind == "pair":
            g.add(("g",), (ids[0], ids[-1]))
        elif kind == "fact":
            g.assert_fact("r", ids[-1])
        elif kind == "fact2":
            g.assert_fact("s", ids[0], ids[-1])
        elif kind == "union":
            g.union(ids[0], ids[-1])
    return act


_rules = st.lists(st.builds(
    lambda query, cat, kind: RuleDef(kind, cat, tuple(query), _action(kind)),
    st.lists(_atoms, min_size=1, max_size=3),
    st.sampled_from(("supporting",) + CATEGORY_ORDER),
    st.sampled_from(("wrap", "pair", "fact", "fact2", "union", "none"))),
    min_size=1, max_size=4)


class TestStampedSchedule:
    """Skipping rule runs whose reads did not change is exact: the schedule
    equals one that matches every rule on every run."""

    @pytest.mark.parametrize("name", corpus_names())
    def test_equals_naive_schedule_on_corpus(self, name):
        prog = corpus_program(name)
        inj = inject_data_movement(prog)
        buffers, shapes = ir.buffer_table(inj), ir.program_shapes(prog)
        rs = rules.build_default_ruleset().for_target(target_for(name))
        for _, s in ir.walk_stmts(inj.body):
            if isinstance(s, (ir.Store, ir.Evaluate)):
                g = rules.new_graph()
                rules.encode_stmt(g, s)
                rules.seed_facts(g, buffers, shapes)
                iters = SelectionConfig().iterations
                assert (_schedule_outcome(run_schedule, g, rs, iters, BUDGET)
                        == _schedule_outcome(_naive_schedule, g, rs, iters, BUDGET))

    @pytest.mark.parametrize("reads, rules_", [
        ("its own op", [("wrap", (Bind("x", PNode(("f",), (PVar("y"),))),))]),
        ("a relation", [("none", (rel("r", PVar("x")),)),
                        ("fact", (Bind("x", PNode(("a",))),))]),
        ("a class a union fills", [
            ("none", (Bind("e", PNode(("g",), (PVar("x"), PVar("x")))),)),
            ("union", (Bind("x", PNode(("a",))), Bind("y", PNode(("b",)))))]),
        ("every class", [("fact", (Bind("x", PVar("y")),)),
                         ("wrap", (Bind("x", PNode(("a",))),))]),
    ])
    def test_rule_is_matched_again_after_a_change_it_reads(self, reads, rules_):
        g = EGraph()
        a, b = leaf(g, "a"), leaf(g, "b")
        node(g, "f", a)
        node(g, "g", a, b)
        rs = [RuleDef(kind, "axiomatic", query, _action(kind)) for kind, query in rules_]
        assert (_schedule_outcome(run_schedule, g, rs, 3, BUDGET)
                == _schedule_outcome(_naive_schedule, g, rs, 3, BUDGET))

    @settings(max_examples=200, deadline=None)
    @given(_graphs(), _rules, st.integers(1, 3))
    def test_equals_naive_schedule_on_random_rules(self, g, rs, iters):
        assert (_schedule_outcome(run_schedule, g, rs, iters, 300)
                == _schedule_outcome(_naive_schedule, g, rs, iters, 300))

    def test_unchanged_rule_is_not_matched_again(self, monkeypatch):
        calls = []

        def counting(g, query):
            calls.append(names[id(query)])
            return ematch(g, query)

        monkeypatch.setattr(egraph, "ematch", counting)
        g = EGraph()
        leaf(g, "a")
        mark = RuleDef("mark", "axiomatic", (Bind("x", PNode(("a",))),),
                       lambda g_, env: g_.assert_fact("seen", env["x"]))
        seen = RuleDef("seen", "axiomatic", (rel("seen", PVar("x")),),
                       lambda g_, env: None)
        names = {id(mark.query): "mark", id(seen.query): "seen"}
        rep = run_schedule(g, [mark, seen], iterations=3, node_budget=BUDGET)
        assert calls == ["mark", "seen"]
        assert rep.matches == {"axiomatic": 6}
        calls.clear()
        leaf(g, "a2")  # no op or relation either rule reads
        run_schedule(g, [mark, seen], iterations=3, node_budget=BUDGET)
        assert calls == ["mark", "seen"]  # a new schedule matches afresh


class TestGeneratedPlans:
    def test_deep_query_equals_reference(self):
        # more nested loops than CPython's 20 statically nested blocks
        g = EGraph()
        chain = [leaf(g, "a")]
        for _ in range(26):
            chain.append(node(g, "f", chain[-1]))
        for c in chain[::3]:
            g.assert_fact("r", c)
        pat = PVar("x")
        for _ in range(22):
            pat = PNode(("f",), (pat,))
        query = (Bind("e", pat), rel("r", PVar("x")), Guard(_even_sum),
                 Bind("e", PNode(("f",), (PVar("d"),))), rel("r", PVar("y")))
        assert "part1(" in egraph._source(Query(query)._layout.structure)
        hits = ematch(g, query)
        assert hits == _ref_ematch(g, query) and hits
        g.union(chain[0], leaf(g, "b"))  # mid-round: stale ids until rebuild
        g.union(chain[24], chain[25])
        assert ematch(g, query) == _ref_ematch(g, query)

    def test_constants_stay_out_of_the_source(self):
        op = ("it's", 'a "q"\nb\\', 1)
        name, var = 'r"\n', "y'\n"
        g = EGraph()
        x = g.add(op)
        g.assert_fact(name, x, x)
        query = (Bind("x", PNode(op)), rel(name, PVar("x"), PVar(var)))
        source = egraph._source(Query(query)._layout.structure)
        assert "it's" not in source and "\\n" not in source
        assert ematch(g, query) == _ref_ematch(g, query) == [{"x": x, var: x}]

    def test_code_is_built_on_first_match_and_shared(self, monkeypatch):
        monkeypatch.setattr(egraph, "_CODE", {})
        binds = []
        bind = egraph._bind
        monkeypatch.setattr(egraph, "_bind", lambda layout: binds.append(layout) or bind(layout))
        rules._default_rules.cache_clear()  # rules built afresh, no plan bound yet
        first, second = rules.build_default_ruleset(), rules.build_default_ruleset()
        for a, b in zip(first, second):
            assert a.query is b.query and a is not b
        assert egraph._CODE == {}
        g = rules.new_graph()
        rules.encode_stmt(g, corpus_program("conv1d_k8").body[-1])
        for rs in (first, second):
            ematch(g, rs.named("type-of-broadcast").query)
        assert len(egraph._CODE) == 1 and len(binds) == 1


def _random_graph(rng):
    """Random graph of <= 50 nodes whose every class holds a term of depth
    <= 8 (unions only ever shrink the minimum depth), so depth-bounded
    brute-force enumeration is a complete oracle."""
    g = EGraph()
    leaves = [leaf(g, n) for n in ("a", "b", "c")]
    pool = list(leaves)
    depth = {cid: 1 for cid in pool}
    ops = [("f", 1), ("g", 2), ("h", 2), ("call", 3)]
    while g.n_nodes < rng.randrange(10, 50):
        name, arity = rng.choice(ops)
        shallow = [c for c in pool if depth[c] <= 6]
        kids = tuple(rng.choice(shallow) for _ in range(arity))
        op = ("call", "fn") if name == "call" else (name,)
        cid = g.add(op, kids)
        depth.setdefault(cid, 1 + max(depth[c] for c in kids))
        pool.append(cid)
    for _ in range(rng.randrange(0, 6)):
        g.union(rng.choice(pool), rng.choice(pool))
    g.rebuild()
    return g, pool


def _brute_force_min(g, root, max_depth=8):
    """Minimum cost over all represented terms of bounded depth, by
    depth-indexed enumeration (independent of the extraction fixpoint)."""
    best = {}
    for _ in range(max_depth):
        nxt = dict(best)
        for cid in g.class_ids():
            for op, children in g.class_nodes(cid):
                if any(g.find(c) not in best for c in children):
                    continue
                cost = node_cost(op, len(children)) + sum(
                    best[g.find(c)] for c in children)
                if cid not in nxt or cost < nxt[cid]:
                    nxt[cid] = cost
        best = nxt
    return best.get(g.find(root))


def _term_cost(term):
    op, kids = term
    return node_cost(op, len(kids)) + sum(_term_cost(k) for k in kids)


class TestExtraction:
    def test_prefers_cheaper_member(self):
        g = EGraph()
        a = leaf(g, "a")
        mul = node(g, "mul", a, leaf(g, "1"))
        g.union(a, mul)
        g.rebuild()
        assert extract_best(g, mul) == (("a",), ())

    def test_cyclic_class_with_leaf_stays_finite(self):
        g = EGraph()
        a = leaf(g, "a")
        f = node(g, "f", a)
        g.union(a, f)  # the class still contains the leaf: finite
        g.rebuild()
        assert extract_best(g, f) == (("a",), ())

    def test_no_finite_cost(self):
        # bottom-up insertion can never build a leafless cycle, so force one
        # white-box: a class whose only node points at itself
        g = EGraph()
        a = leaf(g, "a")
        f = node(g, "f", a)
        g.union(a, f)
        g.rebuild()
        root = g.find(f)
        g._class_nodes[root] = {n: None for n in g._class_nodes[root]
                                if n[0] != ("a",)}
        with pytest.raises(NoFiniteCost):
            extract_best(g, root)

    def test_matches_brute_force_on_random_graphs(self):
        rng = random.Random(13)
        for trial in range(30):
            g, pool = _random_graph(rng)
            for root in pool[-3:]:
                want = _brute_force_min(g, root)
                got = extract_best(g, root)
                assert _term_cost(got) == want, trial

    def test_deterministic(self):
        def build():
            rng = random.Random(21)
            return _random_graph(rng)

        g1, pool1 = build()
        g2, pool2 = build()
        assert extract_best(g1, pool1[-1]) == extract_best(g2, pool2[-1])
