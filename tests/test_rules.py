import copy
import dataclasses
import itertools
import math
import random

import pytest

from tensorsel import interp, ir, rules
from tensorsel.egraph import (Bind, Calc, EGraph, PVar, Rel, ematch, extract_best,
                              run_schedule)
from tensorsel.ir import Broadcast, Imm
from tensorsel.selector import SelectionConfig

import test_ir
from testkit import TermTrees, corpus_program, matches, query_terms


BUDGET = SelectionConfig().node_budget


def i32(v):
    return Imm("i32", v)


MATMUL_BUFFERS = {"A": ("bf16", 512, "mem"), "B": ("bf16", 512, "mem"),
                "matmul": ("f32", 256, "amx"),
                "matmul_wrapper": ("f32", 256, "mem")}


def matmul_update_stmt():
    prog = corpus_program("matmul_standard")
    from tensorsel.selector import inject_data_movement
    return inject_data_movement(prog).body[2]


def saturate(stmt, rs, iterations=6, categories=None):
    g = rules.new_graph()
    root = rules.encode_stmt(g, stmt)
    rules.seed_facts(g, MATMUL_BUFFERS, ir.HARDWARE_SHAPES)
    active = [r for r in rs.for_target("amx")
              if categories is None or r.category in categories]
    run_schedule(g, active, iterations, BUDGET)
    return g, root


class TestCatalog:
    def test_rule_census(self, default_ruleset):
        rs = default_ruleset
        assert len(rs.rules) >= 25
        for cat in ("axiomatic", "application", "lowering", "supporting"):
            assert rs.by_category(cat), cat

    def test_catalog_serializes(self, default_ruleset):
        text = default_ruleset.catalog_text()
        for name in ("broadcast-flatten", "amx-b-vnni", "amx-matmul",
                     "type-of-ramp", "conv-toeplitz"):
            assert name in text
        assert "    => ?e = (bcast ?x (int (* ?l1 ?l2)))\n" in text
        # a guard prints as the expression the plan runs, every term of it
        assert ("    where (and (<= 1 ?s) (<= 1 ?l) (== ?x (* ?m ?n)) "
                "(== ?k (+ (* ?s ?n) ?l)) (== ?li (* ?x ?l)))\n") in text

    def test_queries_hold_no_python_callable(self, default_ruleset):
        for r in default_ruleset:
            assert all(isinstance(a, (Bind, Rel, Calc)) for a in r.query), r.name

    def test_target_filter(self, default_ruleset):
        amx = default_ruleset.for_target("amx")
        assert all(r.target in ("", "amx") for r in amx)
        assert any(r.target == "amx" for r in amx)
        assert len(default_ruleset.for_target("all")) == len(default_ruleset.rules)

    def test_semantic_rules_have_generators(self, default_ruleset):
        for r in default_ruleset:
            if r.semantic:
                assert r.fuzz is not None, r.name

    def test_application_rules_are_relational(self, default_ruleset):
        for r in default_ruleset.by_category("application"):
            assert not r.semantic, r.name
        for r in default_ruleset.by_category("supporting"):
            assert not r.semantic, r.name


class TestInstances:
    def test_broadcast_flatten_instance(self, default_ruleset):
        g = rules.new_graph()
        v = g.add(("var", "v"))
        nested = g.add(("bcast",), (g.add(("bcast",), (v, g.add_int(2))),
                                    g.add_int(3)))
        flat = g.add(("bcast",), (v, g.add_int(6)))
        run_schedule(g, default_ruleset.by_category("axiomatic")
                     + default_ruleset.by_category("supporting"), 2, BUDGET)
        assert g.find(nested) == g.find(flat)

    def test_movement_cancellation_instance(self, default_ruleset):
        g = rules.new_graph()
        t = g.add(("var", "t"))
        wrapped = g.add(("l2l", "mem", "amx"),
                        (g.add(("l2l", "amx", "mem"), (t,)),))
        run_schedule(g, default_ruleset.by_category("lowering"), 1, BUDGET)
        assert g.find(wrapped) == g.find(t)

    def test_application_rules_never_union(self, default_ruleset):
        # saturate with axioms+supporting, then fire application rules alone:
        # facts appear, the union-find stays put
        stmt = matmul_update_stmt()
        g, root = saturate(stmt, default_ruleset,
                           categories=("axiomatic", "supporting"))
        snapshot = {cid: g.find(cid) for cid in range(len(g._parent))}
        before_facts = sum(len(v) for v in g.facts.values())
        for rule in default_ruleset.by_category("application"):
            for row in ematch(g, rule.query):
                rule.action(g, row)
        assert any(g.facts.get(n) for n in ("amx-a-tile", "amx-b-tile"))
        for cid, rep in snapshot.items():
            assert g.find(cid) == g.find(rep)
        assert sum(len(v) for v in g.facts.values()) > before_facts

    def test_two_axis_store_keeps_a_row_stride_in_class_zero(self, default_ruleset):
        # the row stride is class 0, which is as bound as any other class
        g = rules.new_graph()
        stride = g.add(("imm", "i32", 6))
        assert stride == 0
        idx = ir.Ramp(ir.Ramp(i32(0), i32(1), 4), Broadcast(i32(6), 4), 2)
        st = rules.encode_stmt(g, ir.Store(
            "out", idx, ir.LocToLoc("amx", "mem", ir.Var("t"))))
        rules.seed_facts(g, {}, [ir.ShapeDecl("amx", 2, 2, 4)])
        rule = default_ruleset.named("tile-store-2axis")
        rows = ematch(g, rule.query)
        assert [env["sstr"] for env in matches(g, rule.query)] == [stride]
        rule.action(g, rows[0])
        (ev,) = [ch for op, ch in g.class_nodes(st) if op == ("evaluate",)]
        (call,) = [ch for op, ch in g.class_nodes(ev[0]) if op == ("call", "tile_store")]
        assert call[2] == stride

    def test_type_consistency_after_run(self, default_ruleset):
        g, _ = saturate(matmul_update_stmt(), default_ruleset)
        assert rules.check_type_consistency(g) is None

    def test_default_schedule_constructs_tile_matmul(self, default_ruleset):
        g, root = saturate(matmul_update_stmt(), default_ruleset)
        assert any(op == ("call", "tile_matmul")
                   for cid in g.class_ids() for op, _ in g.class_nodes(cid))
        # and the construction landed in the statement's own class via the
        # value union + movement cancellation
        term = extract_best(g, root)
        assert "tile_matmul" in repr(term)

    def test_per_rule_enable_flag(self):
        from tensorsel import selector
        rs = rules.build_default_ruleset()
        rs.rules.remove(rs.named("amx-b-standard"))
        prog = corpus_program("matmul_standard")
        _, rep = selector.select_program(
            prog, selector.SelectionConfig(target="amx"), ruleset=rs)
        assert not rep.ok  # the swizzle recognizer is gone
        assert rep.failed[0].index == 1


class TestAblation:
    def test_pattern_unmatched_without_axioms(self, default_ruleset):
        g, _ = saturate(matmul_update_stmt(), default_ruleset,
                        categories=("supporting",))
        assert ematch(g, rules.matmul_statement_query(16, 32, 16)) == []

    def test_pattern_matched_once_with_axioms(self, default_ruleset):
        g, _ = saturate(matmul_update_stmt(), default_ruleset)
        assert len(ematch(g, rules.matmul_statement_query(16, 32, 16))) == 1


def _ramp(g, b, s, n):
    return g.add(("ramp",), (b, s, g.add_int(n)))


def _bcast(g, x, n):
    return g.add(("bcast",), (x, g.add_int(n)))


def _add(g, a, b):
    return g.add(("bop", "+"), (a, b))


# the left side of each i32-only axiom over leaves `v(name)`
I32_ONLY = {
    "ramp-elim": lambda g, v: _ramp(g, v("x"), v("s"), 1),
    "degenerate-ramp-split": lambda g, v: _ramp(g, v("x"), g.add(("imm", "i32", 1)), 4),
    "ramp-plus-broadcast":
        lambda g, v: _add(g, _ramp(g, v("b"), v("s"), 2), _bcast(g, v("x"), 4)),
    "ramp-plus-broadcast-r":
        lambda g, v: _add(g, _bcast(g, v("x"), 4), _ramp(g, v("b"), v("s"), 2)),
    "ramp-unnest": lambda g, v: _ramp(g, _add(g, v("x"), v("a")), v("s"), 3),
    "sibling-nest-ramp-broadcast":
        lambda g, v: _add(g, _ramp(g, v("x"), v("s"), 2), _bcast(g, v("a"), 4)),
    "sibling-nest-ramp-broadcast-r":
        lambda g, v: _add(g, _bcast(g, v("a"), 4), _ramp(g, v("x"), v("s"), 2)),
    "sibling-nest-broadcast-pair":
        lambda g, v: _add(g, _bcast(g, v("a"), 4), _bcast(g, v("b"), 2)),
    "sibling-nest-broadcast-pair-r":
        lambda g, v: _add(g, _bcast(g, v("b"), 2), _bcast(g, v("a"), 4)),
    "add-of-broadcasts":
        lambda g, v: _add(g, _bcast(g, v("a"), 2), _bcast(g, v("b"), 2)),
}


class TestHasTypeAtoms:
    """The i32-only axioms read the type of ?e (of ?x for the ramp split)
    through a has-type atom of their query, with no guard."""

    @pytest.mark.parametrize("name", I32_ONLY)
    def test_only_the_i32_left_side_matches(self, name, default_ruleset):
        rule = default_ruleset.named(name)
        scalar = name == "degenerate-ramp-split"
        good = ("i32", 1) if scalar else ("i32", 4)
        for ty in (good, ("i32", 2)) if scalar else (good, ("f32", 4)):
            g = EGraph()  # no facts but those asserted here
            root = I32_ONLY[name](g, lambda n: g.add(("var", n)))
            typed = g.add(("var", "x")) if scalar else root
            assert ematch(g, rule.query) == []
            # asserted after the structure is already in the graph
            g.assert_fact("has-type", typed, rules.mk_type(g, *ty))
            hits = matches(g, rule.query)
            assert [h["e"] for h in hits] == ([root] if ty == good else []), ty


class TestSoundness:
    def test_every_semantic_rule_fuzzes_clean(self, default_ruleset):
        # acceptance runs 500 trials; keep the unit suite quick
        for rule in default_ruleset:
            if not rule.semantic:
                continue
            rep = rules.check_rule_soundness(rule, trials=60, seed=0)
            assert rep.ok, (rule.name, rep.counterexample)
            assert rep.checked > 0, rule.name

    def test_int_fold_operands_meet_the_guard(self, default_ruleset):
        """The fold operands take both signs, and every sum and product of
        two of them is an i32, so every draw meets the fold rules' guard."""
        ops = rules.FOLD_OPERANDS
        assert min(ops) < 0 < max(ops) and len(set(ops)) == len(ops)
        for a, b in itertools.product(ops, repeat=2):
            assert ir.I32_MIN <= a + b <= ir.I32_MAX and ir.I32_MIN <= a * b <= ir.I32_MAX
        for name in ("int-add-fold", "int-mul-fold"):
            rep = rules.check_rule_soundness(default_ruleset.named(name), trials=500, seed=0)
            assert rep.ok and rep.checked == 500, name

    def test_corrupted_rule_is_caught(self):
        bad = rules.corrupted_ramp_rule()
        rep = rules.check_rule_soundness(bad, trials=200, seed=0)
        assert rep.counterexample is not None
        assert rep.checked <= 200

    @pytest.mark.parametrize("seed", [0, 1])
    def test_runaway_template_is_caught(self, seed):
        """broadcast-flatten adding its copy counts: checked from its own
        template, the sides differ in lanes."""
        rule = rules.runaway_ruleset().named("broadcast-flatten")
        rep = rules.check_rule_soundness(rule, trials=500, seed=seed)
        assert rep.counterexample is not None
        assert rep.counterexample[1][0] == "type"

    @pytest.mark.parametrize("seed, checked", [(0, 2), (1, 1)])
    def test_wrong_compiled_action_is_caught(self, default_ruleset, seed, checked):
        """broadcast-flatten's own template, but the runaway rule's compiled
        action: the right side is what the action builds, so the sum of the
        copy counts shows although the template multiplies them."""
        rule = copy.copy(default_ruleset.named("broadcast-flatten"))
        rule.action = rules.runaway_ruleset().named("broadcast-flatten").action
        rep = rules.check_rule_soundness(rule, trials=500, seed=seed)
        assert rep.checked == checked
        assert rep.counterexample[1][0] == "type"

    def test_draws_match_the_compiled_query(self, default_ruleset):
        """The first draws of every semantic rule satisfy its real plan:
        the rendered left side, encoded with its buffers, shapes and the
        match's other premises (has-type left to the supporting rules),
        matches the rule's compiled query, guards included, at exactly the
        classes of the match."""
        supporting = default_ruleset.by_category("supporting")
        for rule in default_ruleset:
            if not rule.semantic:
                continue
            rng = random.Random(f"soundness:0:{rule.name}")
            for _ in range(5):
                draw = rule.fuzz(rng)
                g = rules.new_graph()
                lhs, _ = rules._sides(rule, draw.match)
                encode = rules.encode_stmt if isinstance(lhs, ir.Stmt) else rules.encode_expr
                encode(g, lhs)
                rules.seed_facts(g, {p.name: (p.kind, p.length, p.location)
                                     for p in draw.params},
                                 ir.program_shapes(draw))
                term = query_terms(rule, draw.match)

                def cls(t):
                    return g.add(t[0], tuple(cls(k) for k in t[1]))
                for atom in rule.query:
                    if isinstance(atom, Rel) and atom.name != "has-type":
                        g.assert_fact(atom.name, *(cls(term(t)) for t in atom.terms))
                want = {v: cls(term(PVar(v))) for v in rule.query.names}
                assert set(draw.match) <= set(want), rule.name
                run_schedule(g, supporting, 1, BUDGET)
                assert want in matches(g, rule.query), (rule.name, draw.match)

    @staticmethod
    def term_round_trip_sides(rule, match):
        """`rule`'s two sides at `match` through term trees: the query
        expanded as terms, its match values encoded by the codec, the
        action run on `TermTrees`, and both sides decoded by `decode_term`."""
        term = query_terms(rule, match)
        (bind,) = [e for e in rule.rhs if isinstance(e, Bind)]
        lhs = term(PVar(bind.var))
        g = TermTrees()
        rule.action(g, tuple(term(PVar(v)) for v in rule.query.names))
        return rules.decode_term(lhs), rules.decode_term(g.unions[0][1] if g.unions else lhs)

    @pytest.mark.parametrize("seed", [0, 1])
    def test_sides_equal_the_term_round_trip(self, default_ruleset, seed):
        """The first 20 draws of every semantic rule and of both mutation
        fixtures render, straight to IR, the very sides of the term round
        trip, to the sign of a zero and the type of a number."""
        fixtures = [r for r in default_ruleset if r.semantic] + [
            rules.corrupted_ramp_rule(), rules.runaway_ruleset().named("broadcast-flatten")]
        for rule in fixtures:
            rng = random.Random(f"soundness:{seed}:{rule.name}")
            for _ in range(20):
                draw = rule.fuzz(rng)
                want = self.term_round_trip_sides(rule, draw.match)
                assert repr(rules._sides(rule, draw.match)) == repr(want), rule.name

    def test_counterexample_lanes_depend_on_trials(self):
        """The fill seeds start from a base drawn after all the draws, so at
        200 and 500 trials the same first draw fails, on its own lanes."""
        small, large = (rules.check_rule_soundness(rules.corrupted_ramp_rule(), trials, 1)
                        for trials in (200, 500))
        assert small.checked == large.checked == 1
        (one, _), (other, _) = small.counterexample, large.counterexample
        assert (one.lhs, one.rhs) == (other.lhs, other.rhs)

    def test_signed_zero_is_a_counterexample(self):
        # the bytes differ although no lane compares unequal
        hit = interp.first_failure(Imm("f32", 0.0), Imm("f32", -0.0), ir.Program(), [0])
        assert hit is not None and hit[0] == 0
        assert hit[1][:2] == ("value", 0)

    def test_relational_rules_skipped(self, default_ruleset):
        rule = default_ruleset.named("amx-b-vnni")
        rep = rules.check_rule_soundness(rule, trials=10)
        assert rep.ok and rep.checked == 0


class TestEncodeDecode:
    # every expression class, then a Store and an Evaluate
    NODES = test_ir.TestTraversal.EXPRS + test_ir.TestTraversal.STMTS[:2]

    def test_terms_cover_every_encoded_node(self):
        assert set(ir.TERMS) == {*ir.Expr.__subclasses__(), ir.Store, ir.Evaluate}
        for cls, (_, fields) in ir.TERMS.items():  # nodes are built positionally
            assert [name for name, _ in fields] == [f.name for f in dataclasses.fields(cls)]

    @pytest.mark.parametrize("node", NODES, ids=lambda n: type(n).__name__)
    def test_every_node_round_trips(self, node):
        g = rules.new_graph()
        term = extract_best(g, rules.encode_expr(g, node))
        assert rules.decode_term(term) == node
        assert rules.encode_expr(TermTrees, node) == term

    def test_decode_raises_on_what_builds_no_ir(self):
        # a head outside the codec, and a name where an expression goes
        for term in ((("loc", "mem"), ()),
                     (("bcast",), ((("name", "a"), ()), (("int", 2), ())))):
            with pytest.raises(TypeError, match="cannot decode"):
                rules.decode_term(term)

    def test_ir_builder_reads_only_leaves(self):
        g = rules._IRBuilder()
        assert (g.class_int(3), g.class_int(Imm("i32", 5))) == (3, 5)
        assert g.class_type(ir.VecType("f32", 4)) == ("f32", 4)
        assert g.class_name("a") == "a"
        for read, value in ((g.class_int, Broadcast(i32(1), 2)), (g.class_int, Imm("f32", 1.0)),
                            (g.class_type, Broadcast(i32(1), 2)), (g.class_name, ir.Var("a"))):
            with pytest.raises(TypeError):
                read(value)

    def test_round_trip_matmul_update(self):
        stmt = matmul_update_stmt()
        g = rules.new_graph()
        root = rules.encode_stmt(g, stmt)
        term = extract_best(g, root)
        assert rules.decode_term(term) == stmt

    def test_round_trip_shuffle_and_exprvar(self):
        e = ir.Shuffle(ir.ExprVar(Broadcast(Imm("f16", 0.5), 4)), (0, -1, 3))
        g = rules.new_graph()
        cid = rules.encode_expr(g, e)
        assert rules.decode_term(extract_best(g, cid)) == e


    def test_signed_zeros_get_separate_classes(self):
        g = rules.new_graph()
        pos, neg = (rules.encode_expr(g, Imm("f32", v)) for v in (0.0, -0.0))
        assert g.find(pos) != g.find(neg)
        got = rules.decode_term(extract_best(g, neg)).value
        assert math.copysign(1.0, got) == -1.0


class TestCatalogFile:
    def test_committed_catalog_is_current(self, default_ruleset):
        from testkit import ROOT
        committed = (ROOT / "docs" / "rules_catalog.txt").read_text()
        assert committed == default_ruleset.catalog_text(), \
            "regenerate with tools/dump_rule_catalog.py"
