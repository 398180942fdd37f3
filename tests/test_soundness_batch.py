"""Batched soundness checks: `rules.check_rule_soundness` renders each
group of same-structure draws once and evaluates it once, along a leading
trial axis, and must report, or raise, exactly what rendering and checking
the draws one by one in draw order gives."""

import random

import numpy as np
import pytest

from tensorsel import interp, ir, rules
from tensorsel.egraph import Bind, RuleDef, rel
from tensorsel.ir import Bop, Imm, Load, Ramp, VecType
from tensorsel.rules import V, padd, pmul


def run_alone(inst):
    """One instance evaluated on its own and compared bit for bit."""
    if isinstance(inst.lhs, ir.Program):
        out_a = interp.run_program(inst.lhs, inst.buffers)
        out_b = interp.run_program(inst.rhs, inst.buffers)
        for prm in inst.lhs.params:
            a, b = out_a[prm.name].data, out_b[prm.name].data
            if a.tobytes() != b.tobytes():
                lane = interp.first_differing_lane(a, b)
                return False, (prm.name, lane, a[lane], b[lane])
        return True, None
    store = interp.BufferStore()
    for name, buf in inst.buffers.items():
        store[name] = interp.Buffer(buf.kind, buf.location, buf.data.copy())
    env = interp.Env(buffers=store, shapes=interp.shape_registry(inst))
    va, vb = interp.eval_expr(inst.lhs, env), interp.eval_expr(inst.rhs, env)
    if va.kind != vb.kind or va.lanes != vb.lanes:
        return False, ("type", 0, (va.kind, va.lanes), (vb.kind, vb.lanes))
    if va.data.tobytes() != vb.data.tobytes():
        lane = interp.first_differing_lane(va.data, vb.data)
        return False, ("value", lane, va.data[lane], vb.data[lane])
    return True, None


def reference(rule, trials, seed):
    """The per-trial loop: draw, render, check, stop at the first difference."""
    rep = rules.SoundnessReport(rule=rule.name, trials=trials)
    rng = random.Random(f"soundness:{seed}:{rule.name}")
    misses = 0
    for _ in range(trials):
        draw = rule.fuzz(rng)
        if draw is None:
            misses += 1
            continue
        rep.checked += 1
        inst = rules._instance(rule, draw)
        ok, detail = run_alone(inst)
        if not ok:
            rep.counterexample = (inst, detail)
            return rep
    rep.guard_unsatisfiable = misses == trials
    return rep


def summary(rep):
    """What a report says: the count, the failing instance (its sides,
    shapes and buffer bytes), the detail with its value types, and the flag."""
    ce = None
    if rep.counterexample is not None:
        inst, detail = rep.counterexample
        bufs = tuple((n, b.kind, b.location, b.data.dtype.str, b.data.tobytes())
                     for n, b in inst.buffers.items())
        ce = (inst.lhs, inst.rhs, inst.shapes, bufs, repr(detail),
              [type(x) for x in detail])
    return rep.checked, ce, rep.guard_unsatisfiable


def outcome(check, rule, trials, seed=0):
    try:
        return summary(check(rule, trials, seed))
    except Exception as e:
        return type(e), str(e)


def fixture_rule(gen):
    """a * b rewritten to a * (b + d), which is sound only where d is zero."""
    return RuleDef(name="fixture", category="axiomatic",
                   query=(Bind("e", pmul(V("a"), V("b"))), rel("is-expr", V("d"))),
                   rhs=(Bind("e", pmul(V("a"), padd(V("b"), V("d")))),), fuzz=gen)


def added(t, wrong_at, bad_at=()):
    """The fixture's ?d at trial `t`: zero, one at `wrong_at`, and at
    `bad_at` a name, which no side can hold, so the render raises."""
    return "bad" if t in bad_at else Imm("i32", int(t in wrong_at))


def i32_vec(buffers, values):
    name = f"buf{len(buffers)}"
    buffers[name] = interp.Buffer("i32", "mem", np.array(values, np.int64))
    n = len(values)
    return Load(name, VecType("i32", n), Ramp(Imm("i32", 0), Imm("i32", 1), n))


def counted(make):
    """A generator that hands `make(rng, t)` its trial number `t`."""
    trial = [0]

    def gen(rng):
        trial[0] += 1
        return make(rng, trial[0] - 1)
    return gen


def square(big_at=(), wrong_at=(), bad_at=()):
    """One structure, a*a against a*(a+0) (a+1 at `wrong_at` trials); `a`
    holds 2^20 at `big_at` trials, so squaring it leaves i32 there."""
    def make(rng, t):
        buffers = {}
        a = i32_vec(buffers, [2**20 if t in big_at else rng.randrange(0, 16), 3])
        return rules.Draw({"a": a, "b": a, "d": added(t, wrong_at, bad_at)}, buffers)
    return make


def gather(oob_at=(), wrong_at=()):
    """A nonzero load whose index is data, past the end of its 4 lanes at
    `oob_at`, times 1 against times 1+0 (1+1 at `wrong_at` trials)."""
    def make(rng, t):
        buffers = {}
        data = i32_vec(buffers, [rng.randrange(1, 16) for _ in range(4)])
        idx = i32_vec(buffers, [9 if t in oob_at else rng.randrange(0, 4), 1])
        load = Load(data.buffer, VecType("i32", 2), idx)
        return rules.Draw({"a": load, "b": Imm("i32", 1), "d": added(t, wrong_at)}, buffers)
    return make


def both(gen_factory, trials=12):
    """The batched and the per-trial outcome over fresh generators."""
    return (outcome(rules.check_rule_soundness, fixture_rule(gen_factory()), trials),
            outcome(reference, fixture_rule(gen_factory()), trials))


class TestMatchesPerTrialLoop:
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_every_semantic_rule(self, default_ruleset, seed):
        for rule in default_ruleset:
            if rule.semantic:
                for trials in (1, 60):
                    got = outcome(rules.check_rule_soundness, rule, trials, seed)
                    assert got == outcome(reference, rule, trials, seed), (rule.name, trials)
                    assert got[0] == trials and got[1:] == (None, False), rule.name

    @pytest.mark.parametrize("seed", [0, 1])
    def test_corrupted_ramp_rule(self, seed):
        bad = rules.corrupted_ramp_rule()
        got = outcome(rules.check_rule_soundness, bad, 200, seed)
        assert got == outcome(reference, bad, 200, seed)
        assert got[1] is not None

    @pytest.mark.parametrize("make", [
        square(big_at={5}),
        square(big_at={5}, wrong_at={8}),
        square(big_at={5}, wrong_at={3}),
        gather(oob_at={4, 7}),
        gather(oob_at={7}, wrong_at={2, 9}),
        gather(oob_at={2}, wrong_at={9}),
    ], ids=["overflow", "overflow-then-wrong", "wrong-then-overflow",
            "out-of-bounds", "wrong-then-oob", "oob-then-wrong"])
    def test_a_trial_that_raises(self, make):
        got, want = both(lambda: counted(make))
        assert got == want
        assert isinstance(got[0], int) or issubclass(got[0], interp.EvalError)

    @pytest.mark.parametrize("bad_at, wrong_at, raises", [
        ({4, 7}, {5}, True), ({6, 9}, {3}, False), ({2}, {8}, True)])
    def test_a_render_that_raises(self, bad_at, wrong_at, raises):
        """Draws whose render raises share a group, and the raise counts at
        its first draw."""
        got, want = both(lambda: counted(square(wrong_at=wrong_at, bad_at=bad_at)))
        assert got == want
        assert (got[0] is TypeError) == raises
        assert raises or got[0] == min(wrong_at) + 1

    @pytest.mark.parametrize("raise_at, wrong_at", [(6, 5), (4, 5)])
    def test_trials_of_two_groups_interleaved(self, raise_at, wrong_at):
        evens, odds = square(big_at={raise_at}), gather(wrong_at={wrong_at})
        got, want = both(lambda: counted(
            lambda rng, t: (odds if t % 2 else evens)(rng, t)), 20)
        assert got == want
        assert (got[0] == wrong_at + 1) == (wrong_at < raise_at)

    def test_none_mixed_in(self):
        make = square(wrong_at={7})
        got, want = both(lambda: counted(
            lambda rng, t: None if rng.random() < 0.4 else make(rng, t)), 30)
        assert got == want and got[1] is not None
        assert both(lambda: (lambda rng: None), 5) == (((0, None, True),) * 2)

    def test_generator_raising_after_a_failure(self):
        make = square(wrong_at={4})

        def broken(rng, t):
            if t == 6:
                raise ValueError("generator broke")
            return make(rng, t)
        got, want = both(lambda: counted(broken))
        assert got == want and got[0] == 5
        # with no failure before it, the generator's error is raised
        got, want = both(lambda: (lambda rng: 1 / 0))
        assert got == want == (ZeroDivisionError, "division by zero")


def test_signed_zero_instances_never_share_a_batch():
    one, zero, neg = Imm("f32", 1.0), Imm("f32", 0.0), Imm("f32", -0.0)
    draws = [rules.Draw({"a": one, "b": neg, "d": d}) for d in (neg, zero)]
    assert rules._structure(draws[0]) != rules._structure(draws[1])
    it = iter(draws)
    rep = rules.check_rule_soundness(fixture_rule(lambda rng: next(it)), 2)
    assert rep.checked == 2
    assert rep.counterexample[0].rhs == Bop("*", one, Bop("+", neg, zero))


@pytest.mark.parametrize("kind", ["i32", "f32", "bf16", "f16"])
def test_fresh_vec_draws_as_uniform_does(kind):
    """The i32 lanes are the nibbles of one `getrandbits(4 * lanes)`, low
    first, the float lanes `rng.uniform(-1, 1)` draws; the array built from
    them holds those lanes bit for bit, and the stream goes on where it
    would."""
    for seed in range(5):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        for lanes in (1, 3, 17):
            buffers = {}
            rules._fresh_vec(got_rng, buffers, lanes, kind)
            if kind == "i32":
                bits = want_rng.getrandbits(4 * lanes)
                want = np.array([(bits >> (4 * j)) % 16 for j in range(lanes)], np.int64)
            else:
                want = interp.round_to_kind(np.array(
                    [want_rng.uniform(-1, 1) for _ in range(lanes)], np.float32), kind)
            data = rules._arrays([buffers])["buf0"].data[0]
            assert data.dtype == want.dtype and data.tobytes() == want.tobytes()
        assert got_rng.random() == want_rng.random()


def per_draw_uniform_lanes(rng, lanes):
    """`_uniform_lanes` as an array of its own per draw, scaled in float64."""
    return (np.array([rng.random() for _ in range(lanes)]) * 2.0 - 1.0).astype(np.float32)


def per_draw_arrays(buffers):
    """The arrays of one draw's buffers, each built alone: i32 lanes as
    int64, float lanes rounded to their kind."""
    return {name: np.array(b.data, np.int64) if b.kind == "i32"
            else interp.round_to_kind(b.data, b.kind) for name, b in buffers.items()}


def fresh(kind, lanes):
    def gen(rng):
        buffers = {}
        rules._fresh_vec(rng, buffers, lanes, kind)
        return rules.Draw({}, buffers)
    return gen


@pytest.mark.parametrize("gen", [
    *(fresh(kind, lanes) for kind in ("i32", "f32", "bf16", "f16") for lanes in (1, 3, 17)),
    rules._fz_store("amx", flat=True), rules._fz_store("wmma", flat=False),
    rules._fz_stage("amx"), rules._fz_stage("wmma", b_shape=True),
], ids=[*(f"{kind}x{lanes}" for kind in ("i32", "f32", "bf16", "f16") for lanes in (1, 3, 17)),
        "store-amx-flat", "store-wmma-2axis", "stage-amx", "stage-wmma-b"])
def test_group_arrays_equal_per_draw_arrays(gen, monkeypatch):
    """The arrays built once per structure group hold, row for row and bit
    for bit, the arrays each draw's buffers give when built alone, for one
    row and for several."""
    for seed in range(3):
        rng = random.Random(seed)
        draws = [gen(rng) for _ in range(12)]
        with monkeypatch.context() as m:
            m.setattr(rules, "_uniform_lanes", per_draw_uniform_lanes)
            rng = random.Random(seed)
            alone = [per_draw_arrays(gen(rng).buffers) for _ in range(12)]
        groups = {}
        for draw, want in zip(draws, alone):
            groups.setdefault(rules._structure(draw), []).append((draw.buffers, want))
        assert max(map(len, groups.values())) > 1
        for members in groups.values():
            for rows in (members, members[:1]):
                built = rules._arrays([bufs for bufs, _ in rows])
                for i, (_, want) in enumerate(rows):
                    for name, data in want.items():
                        got = built[name].data[i]
                        assert got.dtype == data.dtype and got.tobytes() == data.tobytes()
