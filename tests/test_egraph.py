import copy
import functools
import operator
import random
import re
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tensorsel import egraph, ir, rules, selector
from tensorsel.egraph import (CATEGORY_ORDER, SUPPORTING_ROUNDS, Bind, Calc, EGraph,
                              If, Let, NoFiniteCost, NodeBudgetExceeded, PNode,
                              PVar, Query, Rel, RuleDef, SaturationReport,
                              ematch, extract_best, node_cost, rel,
                              run_schedule)
from tensorsel.selector import SelectionConfig, inject_data_movement

from testkit import corpus_names, corpus_program, matches, target_for

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

    def r1(g, row):
        e, two, x = row
        q = g.add(("div",), (two, two))
        g.union(e, g.add(("mul",), (x, q)))

    def r2(g, row):
        e, _ = row
        g.union(e, g.add(("1",)))

    def r3(g, row):
        e, x = row
        g.union(e, x)

    return [
        RuleDef("assoc", "axiomatic",
                (Bind("e", PNode(("div",), (PNode(("mul",), (V("x"), V("two"))),
                                            V("two")))),),  # the same divisor
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
        hits = matches(g, (Bind("e", PNode(("bcast",),
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
        hits = matches(g, (Bind("e", PNode(("f",), (PNode(("b",)),))),))
        assert [h["e"] for h in hits] == [g.find(fa)]

    def test_relation_join(self):
        from tensorsel.egraph import rel
        g = EGraph()
        a, b = leaf(g, "a"), leaf(g, "b")
        fa, fb = node(g, "f", a), node(g, "f", b)
        g.assert_fact("tagged", a)
        # the relation atom restricts the term match to tagged arguments
        hits = matches(g, (Bind("e", PNode(("f",), (PVar("x"),))),
                           rel("tagged", PVar("x"))))
        assert [h["e"] for h in hits] == [g.find(fa)]

    def test_guard_filters(self):
        g = EGraph()
        node(g, "f", g.add_int(3))
        node(g, "f", g.add_int(8))
        q = (Bind("e", PNode(("f",), (PVar("n"),))), Calc("<", (4, PVar("n"))))
        hits = matches(g, q)
        assert len(hits) == 1 and g.class_int(hits[0]["n"]) == 8

    def test_guard_sees_exactly_earlier_bindings(self):
        # a guard may read the variables of the atoms before it, and no other
        g = EGraph()
        node(g, "f", g.add_int(3))
        g.assert_fact("tagged", g.add_int(3), g.add_int(5))
        early = Calc("<", (PVar("x"), PVar("y")))
        atoms = (Bind("e", PNode(("f",), (PVar("x"),))), rel("tagged", PVar("x"), PVar("y")))
        rule = RuleDef("early", "axiomatic", atoms + (early,), lambda g_, row: None)
        assert [g.class_int(h["y"]) for h in matches(g, rule.query)] == [5]
        for query, var in ((atoms[:1] + (early,) + atoms[1:], "y"), ((early,) + atoms, "x")):
            with pytest.raises(TypeError, match=rf"^rule 'late': unbound variable \?{var}$"):
                RuleDef("late", "axiomatic", query, lambda g_, row: None)

    def test_rows_follow_the_sorted_names(self):
        g = EGraph()
        f = node(g, "f", g.add_int(3), leaf(g, "a"))
        query = Query((Bind("z", PNode(("f",), (PVar("b"), PVar("m")))),))
        assert query.names == ("b", "m", "z")
        assert ematch(g, query) == [(g.add_int(3), g.add(("a",)), f)]

    def test_results_are_independent(self):
        # rows are tuples, and each call returns a list of its own
        g = EGraph()
        node(g, "f", g.add_int(3))
        node(g, "f", g.add_int(8))
        hits = ematch(g, (Bind("e", PNode(("f",), (PVar("n"),))),))
        assert len(hits) == 2 and all(type(h) is tuple for h in hits)
        before = list(hits)
        hits[0] = (-1, -1)
        hits.append((0, 0))
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


def _ref_match_atom(g, atom, env, seen=None):
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
    holds = _ref_guard(g, atom, env)
    if seen is not None:
        seen.add(holds)
    return [env] if holds else []


_REF_OPS = {"+": operator.add, "-": operator.sub, "*": operator.mul,
            "//": operator.floordiv, "%": operator.mod}
_REF_TESTS = {"==": operator.eq, "<": operator.lt, "<=": operator.le,
              "in": operator.contains}


def _ref_guard(g, guard, env):
    """Whether the Calc `guard` holds at `env`: every value it reads is read
    first, by the sorted-scan readers, and a read that finds none fails it;
    then `and` short-circuits, comparisons chain, and `in` tests membership."""
    values = {}

    def read(c):
        if isinstance(c, PVar):
            c = Calc("int", (c,))
        if isinstance(c, Calc) and c.op in _REF_READS:
            values[c] = _REF_READS[c.op](g, env[c.args[0].name])
        elif isinstance(c, Calc):
            for a in c.args:
                read(a)

    def value(c):
        if isinstance(c, PVar):
            return values[Calc("int", (c,))]
        if not isinstance(c, Calc):
            return c
        if c.op in _REF_READS:
            return values[c]
        if c.op == "and":
            return all(value(a) for a in c.args)
        args = [value(a) for a in c.args]
        if c.op in _REF_TESTS:
            test = _REF_TESTS[c.op]
            return all(test(b, a) if c.op == "in" else test(a, b)
                       for a, b in zip(args, args[1:]))
        return functools.reduce(_REF_OPS[c.op], args)

    read(guard)
    return None not in values.values() and bool(value(guard))


def _ref_ematch(g, query, seen=None):
    envs = [{}]
    for atom in query:
        envs = [e2 for env in envs for e2 in _ref_match_atom(g, atom, env, seen)]
    canon = {tuple(sorted((k, g.find(v)) for k, v in env.items())) for env in envs}
    return [dict(key) for key in sorted(canon)]


OPS = (("a", 0), ("b", 0), ("f", 1), ("g", 2))
INTS = (-1, 0, 2, 3, 4)  # the int leaves a drawn graph may hold
RELATIONS = (("r", 1), ("s", 2), ("n", 1))  # "n": the drawn int leaves, and more
VARS = ("x", "y")


class _Drawn(EGraph):
    """An EGraph that records each node `add` creates, as its op and the
    children it was given, and whose caller records each union it asks
    for, so that `_full_pass` can rebuild its state independently."""

    def __init__(self):
        super().__init__()
        self.drawn_nodes, self.drawn_unions = [], []

    def add(self, op, children=()):
        cid = super().add(op, children)
        if cid == len(self.drawn_nodes):
            self.drawn_nodes.append((op, tuple(children)))
        return cid


@st.composite
def _graphs(draw):
    """An e-graph built by a random mix of add, assert_fact, union and
    rebuild, ending with or without a rebuild."""
    g = _Drawn()
    ids = [g.add(("a",)), g.add(("b",))]
    for _ in range(draw(st.integers(0, 30))):
        step = draw(st.sampled_from(("add", "add", "int", "int", "fact", "fact", "union",
                                     "rebuild")))
        pick = st.sampled_from(ids)
        if step == "int":
            ids.append(g.add_int(draw(st.sampled_from(INTS))))
            g.assert_fact("n", ids[-1])
        elif step == "add":
            op, arity = draw(st.sampled_from(OPS))
            ids.append(g.add((op,), tuple(draw(pick) for _ in range(arity))))
        elif step == "fact":
            name, arity = draw(st.sampled_from(RELATIONS))
            g.assert_fact(name, *(draw(pick) for _ in range(arity)))
        elif step == "union":
            g.drawn_unions.append((draw(pick), draw(pick)))
            g.union(*g.drawn_unions[-1])
        else:
            g.rebuild()
    return g


_var = st.sampled_from(VARS).map(PVar)


def _nodes(depth=2):
    """Patterns rooted at a PNode: what a `Bind` matches its class against."""
    leaf = st.one_of(st.sampled_from(("a", "b")).map(lambda op: PNode((op,))),
                     st.sampled_from(INTS).map(lambda v: PNode(("int", v))))
    if depth == 0:
        return leaf
    kid = _patterns(depth - 1)
    return st.one_of(leaf,
                     kid.map(lambda c: PNode(("f",), (c,))),
                     st.tuples(kid, kid).map(lambda cs: PNode(("g",), cs)))


def _patterns(depth=2):
    return st.one_of(_var, _nodes(depth))


_value = st.one_of(_var, st.integers(-1, 4),
                   st.builds(lambda x, n: Calc("+", (x, n)), _var, st.integers(-1, 2)))
_test = st.one_of(
    st.builds(lambda op, a, b: Calc(op, (a, b)), st.sampled_from(("==", "<", "<=")),
              _var, _value),
    st.builds(lambda a, x, b: Calc("<=", (a, x, b)), st.integers(-1, 2), _var,
              st.integers(2, 4)),
    st.builds(lambda x, m, r: Calc("==", (Calc("%", (x, m)), r)),
              _var, st.integers(2, 3), st.integers(0, 1)))
# a guard over the ints of the drawn graphs' int leaves
_guard = st.one_of(_test, st.lists(_test, min_size=2, max_size=3).map(
    lambda tests: Calc("and", tuple(tests))))


def _pattern_vars(p):
    if isinstance(p, PVar):
        return {p.name}
    if isinstance(p, Calc):
        return set().union(*map(_pattern_vars, p.args))
    return set().union(*map(_pattern_vars, getattr(p, "children", ())))


def _guards_bound(query):
    """Whether every guard reads only variables that earlier atoms bind."""
    bound = set()
    for atom in query:
        if isinstance(atom, Calc) and not _pattern_vars(atom) <= bound:
            return False
        if isinstance(atom, Bind):
            bound |= {atom.var} | _pattern_vars(atom.pattern)
        elif isinstance(atom, Rel):
            bound |= set().union(*map(_pattern_vars, atom.terms))
    return True


_atoms = st.one_of(
    st.builds(Bind, st.sampled_from(VARS), _nodes()),
    st.sampled_from(RELATIONS).flatmap(lambda r: st.builds(
        Rel, st.just(r[0]), st.tuples(
            st.one_of(st.sampled_from(VARS).map(PVar), _patterns(1)),
            *[_patterns(1)] * (r[1] - 1)))),
    _guard)
# queries, some of them after atoms that bind variables to int leaves
_queries = st.tuples(
    st.sampled_from(((), (rel("n", PVar("x")),), (rel("n", PVar("x")), rel("n", PVar("y"))))),
    st.lists(_atoms, min_size=1, max_size=3)).map(lambda q: q[0] + tuple(q[1]))


class TestIndexedMatching:
    def test_equals_sorted_scan_reference(self):
        seen = set()  # what the drawn guards came to

        @settings(max_examples=300, deadline=None)
        @given(_graphs(), _queries)
        def check(g, query):
            if not _guards_bound(query):
                with pytest.raises(TypeError, match="unbound variable"):
                    ematch(g, query)
                return
            assert matches(g, query) == _ref_ematch(g, query, seen)

        check()
        assert seen == {True, False}

    @settings(max_examples=300, deadline=None)
    @given(_graphs(), _queries.filter(_guards_bound))
    def test_rule_plan_equals_sorted_scan_reference(self, g, query):
        rule = RuleDef("random", "axiomatic", query, lambda g_, row: None)
        assert matches(g, rule.query) == _ref_ematch(g, query)

    @settings(max_examples=200, deadline=None)
    @given(_graphs())
    def test_index_files_each_fact_under_its_first_root(self, g):
        for name, tuples in g.facts.items():
            for cid in g.class_ids():
                want = {t for t in tuples if g.find(t[0]) == cid}
                assert set(g._fact_index.get(cid, {}).get(name, ())) == want

    def test_a_query_the_graph_cannot_match_has_no_rows(self):
        seen = set()  # whether the drawn graphs could match the drawn queries

        @settings(max_examples=300, deadline=None)
        @given(_graphs(), _queries.filter(_guards_bound))
        def check(g, query):
            query = Query(query)
            seen.add(g.can_match(query))
            if not g.can_match(query):
                assert ematch(g, query) == []

        check()
        assert seen == {True, False}

    def test_union_before_rebuild_keeps_facts_reachable(self):
        g = EGraph()
        b = leaf(g, "b")
        a = leaf(g, "a")  # the larger id: union(a, b) moves a's root to b
        ty = g.add(("type", "f32"), (g.add_int(8),))
        g.assert_fact("has-type", a, ty)
        g.union(a, b)
        assert g.find(a) == b
        hits = matches(g, (Bind("x", PNode(("a",))),
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
            assert matches(g, rule.query) == _ref_ematch(g, tuple(rule.query)), rule.name

    @pytest.mark.parametrize("name", ["matmul_standard", "conv1d_k8", "downsample2_1d"])
    def test_after_rebuild_and_mid_round(self, name):
        rs = rules.build_default_ruleset()
        # the selector's six iterations: every tile and MatMul rule matches
        self._check(self._saturated(name, rs, SelectionConfig().iterations), rs)
        g = self._saturated(name, rs, 2)
        for rule in rs.by_category("axiomatic"):
            for row in ematch(g, rule.query):
                rule.action(g, row)
            if g._merged:  # unions since the last rebuild
                break
        assert g._merged
        self._check(g, rs)


class TestRunsThatCannotMatch:
    """`run_schedule` does not e-match a rule whose query reads an op or a
    relation that the graph never held; it counts the run as one that
    matched no rows.  Each such query, e-matched anyway where the schedule
    skips it, has no rows."""

    def test_on_corpus_graphs(self, monkeypatch):
        can_match, skipped = EGraph.can_match, []

        def checked(g, query):
            if can_match(g, query):
                return True
            assert ematch(g, query) == []
            skipped.append(query)
            return False

        monkeypatch.setattr(EGraph, "can_match", checked)
        for name in corpus_names():
            config = SelectionConfig(target=target_for(name))
            assert selector.select_program(corpus_program(name), config)[1].statements
        assert skipped


class TestRuleConstruction:
    @pytest.mark.parametrize("atom, what", [
        (3, "not a query atom: 3"),
        (Bind("e", "f"), "not a pattern: 'f'"),
        (Bind("e", PNode(("f",), (PVar("x"), 3))), "not a pattern: 3"),
        (rel("r", PVar("x"), None), "not a pattern: None"),
        (Bind("y", PVar("e")), "not a pattern: PVar(name='e')"),
        # written as text, as the default rules are
        ("e", "1:1: expected '?v = pattern'"),
        ("(bcast ?x", "1:1: unclosed '(' (expected ))"),
        ("?y =", "1:4: expected '?v = pattern'"),
        ("?y = (bcast ?x 2) ?x", "1:19: expected the end of the atom"),
        ("", "1:1: expected an atom, got nothing"),
    ])
    def test_bad_atom_raises_naming_the_rule(self, atom, what):
        with pytest.raises(TypeError, match=f"^rule 'bad': {re.escape(what)}$"):
            if isinstance(atom, str):
                rules._rule(rules.RuleSet(), "axiomatic", "bad", ["?e = (bcast ?x 2)", atom], [])
            else:
                RuleDef("bad", "axiomatic", (Bind("e", PNode(("f",), (PVar("x"),))), atom),
                        lambda g, row: None)

    @pytest.mark.parametrize("effect, what", [
        (Bind("e", PVar("y")), "unbound variable ?y"),
        (Bind("y", PVar("x")), "unbound variable ?y"),
        (rel("r", PNode(("int", Calc("*", (PVar("x"), PVar("t")))))),
         "not a matched variable: PVar(name='t')"),
        (Let("x", PNode(("f",))), "Let rebinds ?x"),
        ("e", "not an effect: 'e'"),
    ])
    def test_bad_rhs_raises_naming_the_rule(self, effect, what):
        query = (Bind("e", PNode(("f",), (PVar("x"),))),)
        with pytest.raises(TypeError, match=f"^rule 'bad': {re.escape(what)}$"):
            RuleDef("bad", "axiomatic", query, rhs=(effect,))

    def test_rhs_is_the_action(self):
        query = (Bind("e", PNode(("f",), (PVar("x"),))),)
        rule = RuleDef("wrap", "axiomatic", query, rhs=(
            Let("y", PNode(("int", Calc("+", (PVar("x"), 1))))),
            Bind("e", PNode(("g",), (PVar("x"), PVar("y")))),
            rel("r", PVar("y"))))
        g = EGraph()
        x = g.add_int(2)
        e = g.add(("f",), (x,))
        for row in ematch(g, rule.query):
            rule.action(g, row)
        three = g.add_int(3)
        assert g.find(e) == g.find(g.add(("g",), (x, three)))
        assert g.facts["r"] == {(three,)}
        assert replace(rule, name="h").action is rule.action

    def test_query_compiles_once(self):
        query = (Bind("e", PNode(("f",), (PVar("x"),))),)
        rule = RuleDef("f", "axiomatic", query, lambda g, row: None)
        assert rule.query == query and isinstance(rule.query, Query)
        assert replace(rule, name="g").query is rule.query


def _full_pass(g):
    """The state a rebuild of the `_Drawn` graph `g` must reach, by an
    independent full pass in a parent list of its own: replay the unions
    `g` was asked for, then rescan the nodes it created until no two
    congruent ones sit in different classes (the smaller id stays the root
    in both), then group the nodes, ops and facts by root."""
    parent = list(range(len(g.drawn_nodes)))

    def find(a):
        while parent[a] != a:
            a = parent[a]
        return a

    def merge(a, b):
        a, b = sorted((find(a), find(b)))
        parent[b] = a

    for a, b in g.drawn_unions:
        merge(a, b)
    changed = True
    while changed:
        changed, canonical = False, {}
        for cid, (op, kids) in enumerate(g.drawn_nodes):
            other = canonical.setdefault((op, tuple(map(find, kids))), cid)
            if find(other) != find(cid):
                merge(other, cid)
                changed = True
    roots = {(op, tuple(map(find, kids))): find(cid)
             for cid, (op, kids) in enumerate(g.drawn_nodes)}
    nodes, ops = {}, {}
    for node, root in roots.items():
        nodes.setdefault(root, set()).add(node)
        ops.setdefault(node[0], set()).add(root)
    small = {root: sorted((n for n in ns if len(n[1]) < 2), key=egraph._node_key)
             for root, ns in nodes.items()}
    facts = {name: {tuple(map(find, t)) for t in tuples}
             for name, tuples in g.facts.items()}
    index = {}
    for name, tuples in facts.items():
        for t in tuples:
            index.setdefault(t[0], {}).setdefault(name, set()).add(t)
    return (roots, nodes, ops, facts, index, {r: s for r, s in small.items() if s},
            [find(i) for i in range(len(parent))])


def _state(g):
    """`g`'s state in `_full_pass` terms: key -> root, each root's node set,
    the op index, the facts and their index, the ordered small nodes, and
    every id's root."""
    return ({node: g.find(cid) for node, cid in g._hashcons.items()},
            {root: set(g.class_nodes(root)) for root in g.class_ids()},
            g._op_index, g.facts, g._fact_index, g._small,
            [g.find(i) for i in range(len(g._parent))])


class TestRebuildSkip:
    def test_skip_after_adds_and_facts_equals_full_pass(self):
        g = _Drawn()
        a, b = leaf(g, "a"), leaf(g, "b")
        g.assert_fact("r", node(g, "f", a), b)
        g.drawn_unions.append((a, b))
        g.union(a, b)
        g.rebuild()
        c = node(g, "g", a, node(g, "f", b))
        g.assert_fact("r", c, a)
        g.assert_fact("s", b)
        full = _full_pass(g)
        index = g._fact_index
        g.rebuild()
        assert g._fact_index is index  # skipped: no union since the last
        assert _state(g) == full

    @settings(max_examples=100, deadline=None)
    @given(_graphs())
    def test_rebuild_equals_full_pass(self, g):
        full = _full_pass(g)
        g.rebuild()
        assert _state(g) == full


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
            return op[1:]
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


def _ref_type_part(i):
    def read(g, cid):
        ty = _ref_class_type(g, cid)
        return None if ty is None else ty[i]
    return read


# a Calc reader -> the sorted-scan reader of its value
_REF_READS = {"int": _ref_class_int, "imm": _ref_class_imm, "name": _ref_class_name,
              "kind": _ref_type_part(0), "lanes": _ref_type_part(1)}


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


def _after_each(steps):
    """Run `steps` on a fresh graph, yielding it after each one."""
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
        yield g


class TestSmallNodeReaders:
    @settings(max_examples=300, deadline=None)
    @given(_STEPS)
    def test_readers_equal_sorted_scan(self, steps):
        for g in _after_each(steps):
            for cid in g.class_ids():
                assert g.class_int(cid) == _ref_class_int(g, cid)
                assert g.class_imm(cid) == _ref_class_imm(g, cid)
                assert g.class_name(cid) == _ref_class_name(g, cid)
                assert g.class_type(cid) == _ref_class_type(g, cid)

    @settings(max_examples=200, deadline=None)
    @given(_STEPS)
    def test_plan_view_is_canonical_after_every_step(self, steps):
        # the view the plans read, from each class's nodes with canonical children
        for g in _after_each(steps):
            view = {}
            for root in g.class_ids():
                for op, kids in g.class_nodes(root):
                    view.setdefault(root, {}).setdefault(op, set()).add(
                        tuple(map(g.find, kids)))
            assert {root: {op: set(kids) for op, kids in ops.items()}
                    for root, ops in g._view.items()} == view
            ops = {op for root in view for op in view[root]}
            assert g._op_index == {op: {r for r in view if op in view[r]} for op in ops}

    @settings(max_examples=200, deadline=None)
    @given(_STEPS)
    def test_every_parent_is_a_root_after_every_step(self, steps):
        for g in _after_each(steps):
            assert all(g._parent[i] == i for i in g._parent)
            members = {}
            for i, root in enumerate(g._parent):
                members.setdefault(root, []).append(i)
            assert {root: sorted(ids) for root, ids in g._members.items()} == members

    def test_type_order_follows_children_canonical_after_rebuild(self):
        g = EGraph()
        x = g.add(("name", "x"))
        a, b = g.add_int(8), g.add_int(16)
        t = g.union(g.add(("type", "f32"), (a,)), g.add(("type", "f32"), (b,)))
        assert g.class_type(t) == ("f32", 8)
        g.union(b, x)  # b's root becomes x, below a: its type node now sorts first
        assert g.class_type(t) == _ref_class_type(g, t) == ("f32", 8)
        g.rebuild()
        assert g.class_type(t) == _ref_class_type(g, t) == ("f32", 16)


class TestSchedule:
    def test_supporting_reaches_fixpoint(self):
        g = EGraph()
        a = leaf(g, "a")
        g.assert_fact("seen", a)

        def derive(g_, row):
            (x,) = row
            g_.assert_fact("seen2", x)

        rule = RuleDef("derive", "supporting",
                       (Bind("x", PNode(("a",))),), derive)
        rep = run_schedule(g, [rule], iterations=2, node_budget=BUDGET)
        assert rep.iterations == 2
        assert len(g.facts["seen2"]) == 1

    def test_budget_aborts_cleanly(self):
        g = EGraph()
        a = leaf(g, "a")

        node(g, "f", a)

        def grow(g_, row):
            _, x = row  # ?v and the f node's class ?x
            g_.add(("f",), (x,))
            g_.add(("f",), (g_.add(("g",), (x,)),))

        # every f class spawns two fresh f classes each round: 2^n growth
        rule = RuleDef("grow", "axiomatic", (Bind("x", PNode(("f",), (PVar("v"),))),), grow)
        with pytest.raises(NodeBudgetExceeded):
            run_schedule(g, [rule], iterations=50, node_budget=1000)
        assert g.n_classes > 0  # partial graph intact

    def test_supporting_rounds_are_bounded(self):
        g = EGraph()
        node(g, "f", leaf(g, "a"))

        def wrap(g_, row):  # one class more per round: never a fixpoint
            x, _ = row
            g_.add(("f",), (x,))

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
        rows = ematch(g, rule.query)
        report.matches[rule.category] = (
            report.matches.get(rule.category, 0) + len(rows))
        before = g.version
        for row in rows:
            rule.action(g, row)
        if g.version != before:
            report.applications[rule.category] = (
                report.applications.get(rule.category, 0) + 1)
        if g.n_classes > node_budget:
            raise NodeBudgetExceeded("budget")

    for it in range(iterations):
        report.iterations = it + 1
        grown = 0  # only a round that creates a node counts against the cap
        while grown < SUPPORTING_ROUNDS:
            before, ids = g.version, len(g._parent)
            for rule in supporting:
                apply(rule)
            g.rebuild()
            if g.version == before:
                break
            grown += len(g._parent) > ids
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
    def act(g, row):
        ids = list(row)  # one class per variable, by sorted name
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
    st.lists(_atoms, min_size=1, max_size=3).filter(_guards_bound),
    st.sampled_from(("supporting",) + CATEGORY_ORDER),
    st.sampled_from(("wrap", "pair", "fact", "fact2", "union", "none"))),
    min_size=1, max_size=4)


def _statement_graphs(name):
    """A fresh graph for each statement of corpus program `name`, encoded
    and seeded as the selector does before saturating it."""
    prog = corpus_program(name)
    inj = inject_data_movement(prog)
    buffers, shapes = ir.buffer_table(inj), ir.program_shapes(prog)
    for _, s in ir.walk_stmts(inj.body):
        if isinstance(s, (ir.Store, ir.Evaluate)):
            g = rules.new_graph()
            rules.encode_stmt(g, s)
            rules.seed_facts(g, buffers, shapes)
            yield g


_CALC = {"+": operator.add, "-": operator.sub, "*": operator.mul,
         "//": operator.floordiv, "==": operator.eq}


def _interpreted(rhs, names):
    """An action that walks the right-hand side `rhs`, for the rows of a
    query whose variables are `names`, with plain `g.add`, `g.union` and
    `g.assert_fact`: each template's children first, left to right, a `Let`
    before the effects after it, and an `If` on its `Calc`."""
    def act(g, row):
        env = dict(zip(names, row))

        def calc(c):
            if isinstance(c, int):
                return c
            if isinstance(c, PVar):
                return g.class_int(env[c.name])
            if c.op in _CALC:
                return _CALC[c.op](*map(calc, c.args))
            cid = env[c.args[0].name]
            if c.op == "int":
                return g.class_int(cid)
            if c.op == "name":
                return g.class_name(cid)
            return g.class_type(cid)[("kind", "lanes").index(c.op)]

        def build(t):
            if isinstance(t, PVar):
                return env[t.name]
            if isinstance(t, If):
                return build(t.then if calc(t.cond) else t.other)
            kids = tuple(map(build, t.children))
            return g.add(tuple(calc(x) if isinstance(x, (Calc, PVar)) else x
                               for x in t.op), kids)

        for eff in rhs:
            if isinstance(eff, Let):
                env[eff.var] = build(eff.template)
            elif isinstance(eff, Bind):
                g.union(env[eff.var], build(eff.pattern))
            else:
                g.assert_fact(eff.name, *map(build, eff.terms))
    return act


class TestCompiledRhs:
    @pytest.mark.parametrize("name", corpus_names())
    def test_equals_interpreted_templates_on_corpus(self, name):
        # the compiled actions under the stamped schedule against the
        # templates interpreted under the naive one
        rs = rules.build_default_ruleset().for_target(target_for(name))
        interpreted = []
        for rule in rs:
            rule = copy.copy(rule)
            if rule.rhs:
                rule.action = _interpreted(rule.rhs, rule.query.names)
            interpreted.append(rule)
        for g in _statement_graphs(name):
            for iters in (SelectionConfig().iterations, 25):  # 25: past every fixpoint
                assert (_schedule_outcome(run_schedule, g, rs, iters, BUDGET)
                        == _schedule_outcome(_naive_schedule, g, interpreted, iters, BUDGET))

    @pytest.mark.parametrize("template", [
        PNode(("int", Calc("//", (4, PVar("n"))))),  # ?n holds 0
        PNode(("int", Calc("int", (PVar("e"),)))),  # ?e holds no int
        If(Calc("==", (Calc("%", (4, PVar("n"))), 0)), PVar("n"), PNode(("a",))),
    ])
    def test_a_template_that_cannot_be_computed_writes_nothing(self, template):
        # as a guard that cannot be computed fails the match
        rule = RuleDef("t", "axiomatic", (Bind("e", PNode(("f",), (PVar("n"),))),),
                       rhs=(Bind("e", template),))
        g = EGraph()
        node(g, "f", g.add_int(0))
        version = g.version
        (row,) = ematch(g, rule.query)
        rule.action(g, row)
        assert g.version == version


class TestStampedSchedule:
    """Skipping rule runs whose reads did not change, actions that repeat a
    match, and the iterations after a fixpoint is exact: the schedule equals
    one that matches every rule and calls every action on every run."""

    @pytest.mark.parametrize("name", corpus_names())
    def test_equals_naive_schedule_on_corpus(self, name):
        rs = rules.build_default_ruleset().for_target(target_for(name))
        for g in _statement_graphs(name):
            for iters in (SelectionConfig().iterations, 25):  # 25: past every fixpoint
                assert (_schedule_outcome(run_schedule, g, rs, iters, BUDGET)
                        == _schedule_outcome(_naive_schedule, g, rs, iters, BUDGET))

    def test_equals_naive_schedule_on_a_runaway(self):
        rs = rules.runaway_ruleset().for_target("wmma")
        g = next(_statement_graphs("conv1d_k8"))
        iters = SelectionConfig().iterations
        stamped = _schedule_outcome(run_schedule, g, rs, iters, 5000)
        assert stamped[0] == "budget"
        assert stamped == _schedule_outcome(_naive_schedule, g, rs, iters, 5000)

    def test_action_is_called_again_once_a_union_grew_its_class(self):
        # `merge` gives a's class the int 3 after `label` first saw it
        # without one; the match is the same tuple, its class is not
        def label(g_, row):
            e, x = row
            n = g_.class_int(x)
            if n is not None:
                g_.assert_fact("labelled", e, g_.add_int(n))

        g = EGraph()
        node(g, "f", leaf(g, "a"))
        g.add_int(3)
        rs = [RuleDef("label", "axiomatic", (Bind("e", PNode(("f",), (PVar("x"),))),), label),
              RuleDef("merge", "application",
                      (Bind("x", PNode(("a",))), Bind("y", PNode(("int", 3)))),
                      _action("union"))]
        stamped = _schedule_outcome(run_schedule, g, rs, 3, BUDGET)
        assert stamped[1]["facts"]["labelled"]
        assert stamped == _schedule_outcome(_naive_schedule, g, rs, 3, BUDGET)

    def test_action_is_called_again_while_keys_are_stale(self):
        # `build` nests f(a) in g(.); `merge` then merges f(a)'s class into
        # the older b, so until the rebuild g(f(a))'s key names a stale id and
        # `build` called again adds a second g node: not a repeat to skip
        def build(g_, row):
            (e,) = row
            g_.add(("g",), (g_.add(("f",), (e,)),))

        g = EGraph()
        leaf(g, "a")
        leaf(g, "b")
        rs = [RuleDef("merge", "axiomatic",
                      (Bind("x", PNode(("f",), (PVar("y"),))), Bind("z", PNode(("b",)))),
                      _action("union")),
              RuleDef("build", "application", (Bind("e", PNode(("a",))),), build)]
        stamped = _schedule_outcome(run_schedule, g, rs, 3, BUDGET)
        assert stamped[0][1] == {"application": 2, "axiomatic": 1}
        assert stamped == _schedule_outcome(_naive_schedule, g, rs, 3, BUDGET)

    @pytest.mark.parametrize("reads, rules_", [
        ("its own op", [("wrap", (Bind("x", PNode(("f",), (PVar("y"),))),))]),
        ("a relation", [("none", (rel("r", PVar("x")),)),
                        ("fact", (Bind("x", PNode(("a",))),))]),
        ("a class a union fills", [
            ("none", (Bind("e", PNode(("g",), (PVar("x"), PVar("x")))),)),
            ("union", (Bind("x", PNode(("a",))), Bind("y", PNode(("b",)))))]),
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
    @given(_graphs(), _rules, st.integers(1, 12))
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
                       lambda g_, row: g_.assert_fact("seen", row[0]))
        seen = RuleDef("seen", "axiomatic", (rel("seen", PVar("x")),),
                       lambda g_, row: None)
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
        chain = [g.add_int(5)]  # the one int a guard on ?x finds
        for _ in range(26):
            chain.append(node(g, "f", chain[-1]))
        for c in chain[::3]:
            g.assert_fact("r", c)
        pat = PVar("x")
        for _ in range(22):
            pat = PNode(("f",), (pat,))
        query = (Bind("e", pat), rel("r", PVar("x")), Calc("<", (0, PVar("x"))),
                 Bind("e", PNode(("f",), (PVar("d"),))), rel("r", PVar("y")))
        assert "part1(" in Query(query)._source
        hits = matches(g, query)
        assert hits == _ref_ematch(g, query) and hits
        g.union(chain[0], leaf(g, "b"))  # mid-round: stale ids until rebuild
        g.union(chain[24], chain[25])
        assert matches(g, query) == _ref_ematch(g, query)

    def test_constants_stay_out_of_the_source(self):
        op = ("it's", 'a "q"\nb\\', 1)
        name, var = 'r"\n', "y'\n"
        g = EGraph()
        x = g.add(op)
        g.assert_fact(name, x, x)
        query = (Bind("x", PNode(op)), rel(name, PVar("x"), PVar(var)))
        source = Query(query)._source
        assert "it's" not in source and "\\n" not in source
        assert matches(g, query) == _ref_ematch(g, query) == [{"x": x, var: x}]

    def test_code_is_built_on_first_match_and_shared(self, monkeypatch):
        monkeypatch.setattr(egraph, "_CODE", {})
        monkeypatch.setattr(egraph, "_ACTIONS", {})
        made = []  # the filename of each `_make` call
        make = egraph._make
        monkeypatch.setattr(egraph, "_make", lambda cache, source, filename:
                            made.append(filename) or make(cache, source, filename))
        rules._default_rules.cache_clear()  # rules built afresh, no plan bound yet
        first, second = rules.build_default_ruleset(), rules.build_default_ruleset()
        for a, b in zip(first, second):
            assert a.query is b.query and a.action is b.action and a is not b
        assert egraph._CODE == {}
        # right-hand sides compile when built, once per template shape:
        # type-of-ramp's has type-of-broadcast's, bound to its own constants
        ramp = first.named("type-of-ramp").action
        bcast = first.named("type-of-broadcast").action
        assert ramp is not bcast and ramp.__code__ is bcast.__code__
        assert len(egraph._ACTIONS) < len(first.rules)
        g = rules.new_graph()
        rules.encode_stmt(g, corpus_program("conv1d_k8").body[-1])
        for rs in (first, second):
            ematch(g, rs.named("type-of-broadcast").query)
        assert len(egraph._CODE) == 1 and made.count("<query plan>") == 1


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


def _ref_extract(g, root):
    """The sweep extraction: every class's sorted nodes, swept until no
    class finds a smaller (total, repr(op), children), then built down from
    `root`."""
    find = g.find
    root = find(root)
    best = {}  # class -> (total, op tiebreak key, children, node)
    classes = [(cid, [(node_cost(op, len(children)), repr(op), children,
                       tuple(map(find, children)), op)
                      for op, children in g.class_nodes(cid)])
               for cid in g.class_ids()]
    changed = True
    while changed:
        changed = False
        for cid, entries in classes:
            for cost, key, children, kids, op in entries:
                total = cost
                for k in kids:
                    b = best.get(k)
                    if b is None:
                        break
                    total += b[0]
                else:
                    cur = best.get(cid)
                    if cur is None or (total, key, children) < cur[:3]:
                        best[cid] = (total, key, children, (op, children))
                        changed = True
    if root not in best:
        raise NoFiniteCost(f"class {root} has no finite-cost term")

    def build(cid):
        op, children = best[find(cid)][3]
        return op, tuple(build(c) for c in children)

    return build(root)


def _tied_graphs():
    """Random graphs of few ops, leaves and unions, so that a class holds
    many members of one cost, and its cheapest terms tie on the total and
    often on the operator too."""
    ops = st.sampled_from([("f",), ("g",), ("call", "fn"), ("l2l", "amx", "mem")])
    return st.tuples(
        st.lists(st.tuples(ops, st.lists(st.integers(0, 99), max_size=3)),
                 min_size=1, max_size=40),
        st.lists(st.tuples(st.integers(0, 99), st.integers(0, 99)), max_size=12),
        st.booleans())


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
        # white-box: drop the leaf of {a, f(.)} as a rebuild drops a node
        # whose congruent twin stays, leaving one node that points at itself
        g = EGraph()
        a = leaf(g, "a")
        f = node(g, "f", a)
        g.union(a, f)
        g.rebuild()
        root = g.find(f)
        del g._hashcons[g._keys[a]]
        g._keys[a] = None
        assert g.class_nodes(root) == [(("f",), (root,))]
        for extract in (extract_best, _ref_extract):
            with pytest.raises(NoFiniteCost):
                extract(g, root)

    @pytest.mark.parametrize("name", corpus_names())
    def test_equals_the_sweep_on_saturated_corpus_graphs(self, name):
        rs = rules.build_default_ruleset().for_target(target_for(name))
        for g in _statement_graphs(name):
            run_schedule(g, rs, SelectionConfig().iterations, BUDGET)
            for cid in g.class_ids():
                assert extract_best(g, cid) == _ref_extract(g, cid), (name, cid)

    @settings(max_examples=300, deadline=None)
    @given(_tied_graphs())
    def test_equals_the_sweep_on_tied_random_graphs(self, drawn):
        nodes, unions, rebuild = drawn
        g = EGraph()
        for name in ("a", "b"):
            leaf(g, name)
        for op, kids in nodes:
            n = len(g._parent)
            g.add(op, tuple(k % n for k in kids))
        for a, b in unions:
            g.union(a % len(g._parent), b % len(g._parent))
        if rebuild:
            g.rebuild()
        for cid in g.class_ids():
            assert extract_best(g, cid) == _ref_extract(g, cid)

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
