"""Batched soundness checks: `rules.check_rule_soundness` renders each
group of same-structure draws once and evaluates it once, along a leading
trial axis of `interp.random_inputs` rows, and must report, or raise,
exactly what rendering, filling and checking the draws one by one in draw
order gives."""

import random
from types import SimpleNamespace

import numpy as np
import pytest

from tensorsel import interp, ir, rules
from tensorsel.egraph import RuleDef
from tensorsel.ir import Bop, Imm, Load, Ramp, VecType
from tensorsel.rules import read_atom


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
    """The per-draw loop: draw every structure, then render, fill and check
    each draw alone in draw order, and stop at the first difference.  A
    draw's fill seed is its index among the draws plus one
    `getrandbits(63)` drawn after them; a generator's error is raised after
    the draws before it are checked."""
    rep = rules.SoundnessReport(rule=rule.name, trials=trials)
    rng = random.Random(f"soundness:{seed}:{rule.name}")
    draws, error = [], None
    for _ in range(trials):
        try:
            structure = rule.fuzz(rng)
        except Exception as e:
            error = e
            break
        if structure is not None:
            draws.append(structure)
    base = rng.getrandbits(63)
    for index, structure in enumerate(draws):
        rep.checked += 1
        inst = rules.FuzzInstance(*rules._render(rule, structure),
                                  interp.random_inputs(structure, base + index),
                                  structure.shapes)
        ok, detail = run_alone(inst)
        if not ok:
            rep.counterexample = (inst, detail)
            return rep
    if error is not None:
        raise error
    rep.guard_unsatisfiable = not draws
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
                   query=(read_atom("?e = (bop/* ?a ?b)"), read_atom("(is-expr ?d)")),
                   rhs=(read_atom("?e = (bop/* ?a (bop/+ ?b ?d))"),), fuzz=gen)


def added(t, wrong_at, bad_at=()):
    """The fixture's ?d at trial `t`: zero, one at `wrong_at`, and at
    `bad_at` a name, which no side can hold, so the render raises."""
    return "bad" if t in bad_at else Imm("i32", int(t in wrong_at))


def i32_vec(params, lanes):
    """A dense load of a new i32 buffer of `lanes` lanes, its parameter
    added to `params`.  The fill draws i32 lanes from [0, 16)."""
    name = f"buf{len(params)}"
    params.append(ir.Param(name, "i32", lanes))
    return Load(name, VecType("i32", lanes), Ramp(Imm("i32", 0), Imm("i32", 1), lanes))


def counted(make):
    """A generator that hands `make(t)` its trial number `t`."""
    trial = [0]

    def gen(rng):
        trial[0] += 1
        return make(trial[0] - 1)
    return gen


def square(wrong_at=(), bad_at=()):
    """One structure, a*a against a*(a+0) (a+1 at `wrong_at` trials), `a`
    four i32 lanes; the render raises at `bad_at` trials."""
    def make(t):
        params = []
        a = i32_vec(params, 4)
        return rules.Structure({"a": a, "b": a, "d": added(t, wrong_at, bad_at)}, params)
    return make


def scaled(wrong_at=()):
    """One structure, (x+1) * 2^28 against (x+1) * (2^28 + 0) (+ 1 at
    `wrong_at` trials), x one i32 lane: both products leave i32 where x is
    7 or more."""
    def make(t):
        params = []
        a = Bop("+", i32_vec(params, 1), Imm("i32", 1))
        return rules.Structure({"a": a, "b": Imm("i32", 2**28), "d": added(t, wrong_at)},
                               params)
    return make


def gather(wrong_at=()):
    """One structure, a load of 4 lanes of a 14-lane buffer at an index
    that is data, times 1 against times 1+0 (1+1 at `wrong_at` trials):
    the load reads past the end where an index lane is 14 or 15."""
    def make(t):
        params = []
        data = i32_vec(params, 14)
        load = Load(data.buffer, VecType("i32", 4), i32_vec(params, 4))
        return rules.Structure({"a": load, "b": Imm("i32", 1), "d": added(t, wrong_at)},
                               params)
    return make


def both(gen_factory, trials=12):
    """The batched and the per-trial outcome over fresh generators."""
    return (outcome(rules.check_rule_soundness, fixture_rule(gen_factory()), trials),
            outcome(reference, fixture_rule(gen_factory()), trials))


def raising(make, trials):
    """The trials of `make`'s draws whose check alone raises, as
    `reference` fills them at seed 0 when the generator draws nothing."""
    base = random.Random("soundness:0:fixture").getrandbits(63)
    out = []
    for t in range(trials):
        structure = make(t)
        inst = rules.FuzzInstance(*rules._render(fixture_rule(None), structure),
                                  interp.random_inputs(structure, base + t))
        try:
            run_alone(inst)
        except interp.EvalError:
            out.append(t)
    return out


RAISING = {"overflow": scaled, "out-of-bounds": gather}


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

    @pytest.mark.parametrize("fixture, wrong", [
        ("overflow", "none"), ("overflow", "after"), ("overflow", "before"),
        ("out-of-bounds", "none"), ("out-of-bounds", "before"), ("out-of-bounds", "after"),
    ], ids=["overflow", "overflow-then-wrong", "wrong-then-overflow",
            "out-of-bounds", "wrong-then-oob", "oob-then-wrong"])
    def test_a_trial_that_raises(self, fixture, wrong):
        """One structure whose fill raises for some draws but not all: its
        batch raises, and the replay finds the draw the per-draw loop
        stops at, a wrong draw before the first that raises or that one."""
        make = RAISING[fixture]
        raises = raising(make(), 12)
        assert 0 < raises[0] < raises[-1] < 11 and len(raises) < 12
        first = raises[0]
        wrong_at = {"none": (), "before": {first - 1}, "after": {first + 1}}[wrong]
        got, want = both(lambda: counted(make(wrong_at)))
        assert got == want
        if wrong == "before":
            assert got[0] == first and got[1] is not None
        else:
            assert issubclass(got[0], interp.EvalError)

    @pytest.mark.parametrize("bad_at, wrong_at, raises", [
        ({4, 7}, {5}, True), ({6, 9}, {3}, False), ({2}, {8}, True)])
    def test_a_render_that_raises(self, bad_at, wrong_at, raises):
        """Draws whose render raises share a group, and the raise counts at
        its first draw."""
        got, want = both(lambda: counted(square(wrong_at=wrong_at, bad_at=bad_at)))
        assert got == want
        assert (got[0] is TypeError) == raises
        assert raises or got[0] == min(wrong_at) + 1

    @pytest.mark.parametrize("wrong", ["before", "after"])
    def test_trials_of_two_groups_interleaved(self, wrong):
        """Even trials overflow for some fills, odd trials are wrong at one
        trial: the earlier of the two decides."""
        def make(wrong_at):
            evens, odds = scaled(), square(wrong_at=wrong_at)
            return lambda t: (odds if t % 2 else evens)(t)
        first = raising(make(()), 20)[0]
        assert first > 1
        wrong_at = first - 1 if wrong == "before" else first + 1
        got, want = both(lambda: counted(make({wrong_at})), 20)
        assert got == want
        assert (got[0] == wrong_at + 1) == (wrong == "before")

    def test_none_mixed_in(self):
        def factory():
            gen = counted(square(wrong_at={7}))
            return lambda rng: None if rng.random() < 0.4 else gen(rng)
        got, want = both(factory, 30)
        assert got == want and got[1] is not None
        assert both(lambda: (lambda rng: None), 5) == (((0, None, True),) * 2)

    def test_generator_raising_after_a_failure(self):
        make = square(wrong_at={4})

        def broken(t):
            if t == 6:
                raise ValueError("generator broke")
            return make(t)
        got, want = both(lambda: counted(broken))
        assert got == want and got[0] == 5
        # with no failure before it, the generator's error is raised
        got, want = both(lambda: (lambda rng: 1 / 0))
        assert got == want == (ZeroDivisionError, "division by zero")


def test_signed_zero_instances_never_share_a_batch():
    one, zero, neg = Imm("f32", 1.0), Imm("f32", 0.0), Imm("f32", -0.0)
    structures = [rules.Structure({"a": one, "b": neg, "d": d}) for d in (neg, zero)]
    assert structures[0] != structures[1] and len(set(structures)) == 2
    it = iter(structures)
    rule = fixture_rule(lambda rng: next(it))
    groups, _, _ = rules._groups(rule, random.Random(0), 2)
    assert [[index for index, _ in members] for members in groups.values()] == [[0], [1]]
    it = iter(structures)
    rep = rules.check_rule_soundness(rule, 2)
    assert rep.checked == 2
    assert rep.counterexample[0].rhs == Bop("*", one, Bop("+", neg, zero))


def fills_equal(got, want):
    """Two buffer dicts hold the same kinds, locations, dtypes and bytes."""
    assert list(got) == list(want)
    for name, buf in want.items():
        assert (got[name].kind, got[name].location) == (buf.kind, buf.location), name
        assert got[name].data.dtype == buf.data.dtype, name
        assert got[name].data.tobytes() == buf.data.tobytes(), name


@pytest.mark.parametrize("replayed", [False, True])
def test_group_buffers_are_fill_rows(default_ruleset, monkeypatch, replayed):
    """A group's buffers, as `interp.first_failure` checks them, are
    `interp.random_inputs` of its structure over its members' seeds, a row
    per member in draw order; a replayed member's buffers are its
    single-seed fill, which is its row, and the replay stops at the first
    failing member, whose position in the seeds the hit names."""
    batches, alone = [], []
    compare = interp.compare_sides

    def spy(lhs, rhs, buffers, shapes=(), memo=None):
        if any(b.data.ndim > 1 for b in buffers.values()):
            batches.append(buffers)
            if replayed:
                raise interp.EvalError("replay this batch")
        else:
            alone.append(buffers)
        return compare(lhs, rhs, buffers, shapes, memo)

    monkeypatch.setattr(interp, "compare_sides", spy)
    bad = rules.corrupted_ramp_rule()
    kinds, caught = set(), 0
    for rule in [r for r in default_ruleset if r.semantic] + [bad]:
        groups, _, _ = rules._groups(rule, random.Random(f"soundness:0:{rule.name}"), 60)
        for structure, members in groups.items():
            if len(members) < 2 or not structure.params:
                continue
            kinds.update(p.kind for p in structure.params)
            lhs, rhs = rules._render(rule, structure)
            del batches[:], alone[:]
            hit = interp.first_failure(lhs, rhs, structure, [s for _, s in members],
                                       structure.shapes)
            (batch,) = batches
            rows = [{n: interp.Buffer(b.kind, b.location, b.data[row]) for n, b in batch.items()}
                    for row in range(len(members))]
            for row, (_, seed) in zip(rows, members):
                fills_equal(row, interp.random_inputs(structure, seed))
            assert hit is None or rule is bad
            if replayed:
                assert len(alone) == (len(members) if hit is None else hit[0] + 1)
                for got, row in zip(alone, rows):
                    fills_equal(got, row)
            else:
                assert not alone
            if hit is not None:  # the failing member's row, alone, is its counterexample
                caught += 1
                pos, detail = hit
                assert repr(compare(lhs, rhs, rows[pos], structure.shapes)) == repr((0, detail))
    assert kinds == set(ir.SCALAR_KINDS) and caught


@pytest.mark.parametrize("kind", ["i32", "f32", "bf16", "f16"])
def test_fresh_vec_draws_as_uniform_does(kind):
    """A fresh vector's lanes come from its fill, not from the draw: a
    draw takes only its ints from the stream, and `interp.random_inputs`
    gives the lanes the fuzzer's own lane draw gave, i32 lanes on [0, 16)
    and float lanes on [-1, 1) rounded through f32 to the kind."""
    for seed in range(5):
        got_rng, want_rng = random.Random(seed), random.Random(seed)
        rules._fz_one_vec(got_rng)
        want_rng.randrange(1, 6), want_rng.choice(("i32", "f32", "bf16"))
        assert got_rng.getstate() == want_rng.getstate()
    data = interp.random_inputs(rules._loads(("x", (17, kind))), list(range(40)))["buf0"].data
    assert data.shape == (40, 17)
    if kind == "i32":
        assert data.dtype == np.int64 and set(data.flat.copy()) == set(range(16))
    else:
        assert data.dtype == np.float32 and -1 <= data.min() and data.max() < 1
        assert interp.round_to_kind(data, kind).tobytes() == data.tobytes()
        assert len(np.unique(data)) > 100


def identity_sides(structure):
    """Two equal sides that read every buffer of `structure`: its one
    vector, or its program without the statement the rule fills in."""
    if structure.program is None:
        (side,) = structure.match.values()
        return side, side
    prog = structure.program
    side = ir.Program(prog.params, tuple(s for s in prog.body if s is not None),
                      structure.shapes)
    return side, side


def fresh(kind, lanes):
    return lambda rng: rules._shared(rules._loads, ("x", (lanes, kind)))


@pytest.mark.parametrize("gen", [
    *(fresh(kind, lanes) for kind in ("i32", "f32", "bf16", "f16") for lanes in (1, 3, 17)),
    rules._fz_store("amx", flat=True), rules._fz_store("wmma", flat=False),
    rules._fz_stage("amx"), rules._fz_stage("wmma", b_shape=True),
], ids=[*(f"{kind}x{lanes}" for kind in ("i32", "f32", "bf16", "f16") for lanes in (1, 3, 17)),
        "store-amx-flat", "store-wmma-2axis", "stage-amx", "stage-wmma-b"])
def test_group_arrays_equal_per_draw_arrays(gen, monkeypatch):
    """The buffers `interp.first_failure` checks a group on hold, row for
    row and bit for bit, each member's single-seed fill: as one batch, and
    member by member when the batch raises, for one member and for
    several."""
    seen, compare = [], interp.compare_sides

    def spy(lhs, rhs, buffers, shapes=(), memo=None):
        seen.append(buffers)
        if raise_batches and any(b.data.ndim > 1 for b in buffers.values()):
            raise interp.EvalError("replay this batch")
        return compare(lhs, rhs, buffers, shapes, memo)

    monkeypatch.setattr(interp, "compare_sides", spy)
    for seed in range(3):
        groups, _, _ = rules._groups(SimpleNamespace(fuzz=gen), random.Random(seed), 12)
        rules._shared.cache_clear()
        assert max(map(len, groups.values())) > 1
        for structure, members in groups.items():
            lhs, rhs = identity_sides(structure)
            for rows in (members, members[:1]):
                for raise_batches in (False, True):
                    del seen[:]
                    assert interp.first_failure(lhs, rhs, structure, [s for _, s in rows],
                                                structure.shapes) is None
                    fills = [interp.random_inputs(structure, s) for _, s in rows]
                    if len(rows) > 1:
                        batch = seen.pop(0)
                        for i, fill in enumerate(fills):
                            fills_equal({n: interp.Buffer(b.kind, b.location, b.data[i])
                                         for n, b in batch.items()}, fill)
                    if len(rows) == 1 or raise_batches:
                        assert len(seen) == len(fills)
                        for got, fill in zip(seen, fills):
                            fills_equal(got, fill)
                    else:
                        assert not seen
