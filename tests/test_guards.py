"""Every guard of the default rules against a reference predicate.

A rule's guard atoms are the query atoms that are neither `Bind` nor
`Rel`.  Each guard over matched ints is run by `ematch` alone, after one
`Bind` per variable to an `int` node, on ints drawn from a seeded grid:
it must hold exactly when its reference predicate holds, and raise where
the predicate raises.  The i32 folds, the +0.0 tests and the MatMul
tile-size guards are checked on e-graph instances of their whole rule."""

import random

import pytest

from tensorsel import ir
from tensorsel.egraph import Bind, EGraph, PNode, Rel, ematch

from testkit import matches

TRIALS = 120  # per guard


def _guards(rule):
    return [a for a in rule.query if not isinstance(a, (Bind, Rel))]


def _grid(rng):
    return rng.randrange(-2, 34)


def _shape(rng):
    return rng.randrange(1, 9), 2 * rng.randrange(1, 5), rng.randrange(1, 9)


def _divides(rng):
    a = rng.randrange(1, 9)
    return a, a * rng.randrange(1, 5)


def _w_split(rng):
    return {"l": 2 * rng.randrange(1, 9)}


def _w_ramp_plus(rng):
    n, m = _divides(rng)
    return {"n": n, "m": m}


def _w_sibling(rng):
    l1, l2 = _divides(rng)
    return {"l1": l1, "l2": l2 + l1}  # a multiple above l1


def _w_a_standard(rng):
    m, k, n = _shape(rng)
    return {"lanes": m * k * n, "m": m, "k": k, "n": n, "kn": k * n}


def _w_b(extra):
    def witness(rng):
        m, k, n = _shape(rng)
        return {"lanes": m * k * n, "m": m, "k": k, "n": n, **extra(k)}
    return witness


def _w_toeplitz(rng):
    m, n, l, s = (rng.randrange(1, 6) for _ in range(4))
    x = m * n
    return {"m": m, "k": s * n + l, "n": n, "l": l, "s": s, "x": x, "li": x * l}


def _w_polyphase(rng):
    m, l, kp = (rng.randrange(1, 5) for _ in range(3))
    p = rng.randrange(2, 5)
    n = kp * p
    return {"m": m, "k": kp + l, "n": n, "l": l, "p": p, "pl": p * l, "kp": kp,
            "kpl": kp * p * l, "ws": kp, "sk": p, "mk": m * kp, "li": m * n * l}


def _w_product(out, *factors):
    def witness(rng):
        vals = dict(zip(("m", "k", "n"), _shape(rng)))
        vals[out] = 1
        for f in factors:
            vals[out] *= vals[f]
        return vals
    return witness


def _w_two_axis(rng):
    m, _, n = _shape(rng)
    return {"n0": m, "n1": n, "m": m, "n": n}


# rule -> (index among its guard atoms, the variables the guard reads,
# the reference predicate over their ints, a witness drawing ints it holds on)
REFERENCE = {
    "degenerate-ramp-split": (0, ("l",), lambda l: l >= 2 and l % 2 == 0, _w_split),
    **{f"ramp-plus-broadcast{s}": (0, ("n", "m"), lambda n, m: m % n == 0, _w_ramp_plus)
       for s in ("", "-r")},
    **{f"sibling-nest-{kind}{s}": (0, ("l1", "l2"),
                                   lambda l1, l2: l2 > l1 and l2 % l1 == 0, _w_sibling)
       for kind in ("ramp-broadcast", "broadcast-pair") for s in ("", "-r")},
    **{f"{t}-a-standard": (0, ("lanes", "m", "k", "n", "kn"),
                           lambda lanes, m, k, n, kn: lanes == m * k * n and kn == k * n,
                           _w_a_standard)
       for t in ("amx", "wmma")},
    "amx-b-standard": (0, ("lanes", "m", "k", "n"),
                       lambda lanes, m, k, n: lanes == m * k * n and k % 2 == 0,
                       _w_b(lambda k: {})),
    "amx-b-vnni": (0, ("lanes", "m", "k", "n", "kh"),
                   lambda lanes, m, k, n, kh: lanes == m * k * n and kh * 2 == k,
                   _w_b(lambda k: {"kh": k // 2})),
    "wmma-b-standard": (0, ("lanes", "m", "k", "n"),
                        lambda lanes, m, k, n: lanes == m * k * n, _w_b(lambda k: {})),
    "conv-toeplitz": (0, ("m", "k", "n", "l", "s", "x", "li"),
                      lambda m, k, n, l, s, x, li: s >= 1 and l >= 1 and x == m * n
                      and k == s * n + l and li == x * l, _w_toeplitz),
    "upsample-polyphase": (
        0, ("m", "k", "n", "l", "p", "pl", "kp", "kpl", "ws", "sk", "mk", "li"),
        lambda m, k, n, l, p, pl, kp, kpl, ws, sk, mk, li:
        p >= 2 and l >= 1 and pl == p * l and kp * p == n and kpl == kp * pl
        and ws == kp and sk == p and mk == m * kp and k == kp + l and li == m * n * l,
        _w_polyphase),
    **{name: (0, ("rl", "m", "n"), lambda rl, m, n: rl == m * n, _w_product("rl", "m", "n"))
       for name in ("amx-matmul", "wmma-mma")},
    **{f"{t}-zero": (0, ("l", "m", "n"), lambda l, m, n: l == m * n, _w_product("l", "m", "n"))
       for t in ("amx", "wmma")},
    **{name: (0, ("n0", "n1", "m", "n"), lambda n0, n1, m, n: n0 == m and n1 == n, _w_two_axis)
       for name in ("tile-store-2axis", "wmma-store-2axis",
                    "amx-acc-load-2axis", "wmma-acc-load-2axis")},
    **{name: (0, ("ll", "m", "n"), lambda ll, m, n: ll == m * n, _w_product("ll", "m", "n"))
       for name in ("tile-store-flat", "wmma-store-flat",
                    "amx-acc-load-flat", "wmma-acc-load-flat")},
    # the stage guards are given n as well, which they may read but not test
    **{name: (0, ("ll", "m", "k", "n"), lambda ll, m, k, n: ll == m * k,
              _w_product("ll", "m", "k"))
       for name in ("amx-stage-flat", "wmma-stage-flat-a")},
    "wmma-stage-flat-b": (0, ("ll", "m", "k", "n"), lambda ll, m, k, n: ll == k * n,
                          _w_product("ll", "k", "n")),
}


def _outcome(fn):
    try:
        return bool(fn())
    except ZeroDivisionError:
        return "ZeroDivisionError"


def _draws(rng, variables, witness):
    """Ints for `variables`: a witness, the same with one variable moved to
    a grid value, or every variable from the grid."""
    for i in range(TRIALS):
        vals = witness(rng)
        if i % 3 == 1:
            vals[rng.choice(variables)] = _grid(rng)
        elif i % 3 == 2:
            vals = {v: _grid(rng) for v in variables}
        yield {v: vals.get(v, _grid(rng)) for v in variables}


class TestGuardTruthTables:
    def test_every_int_guard_has_a_reference(self, default_ruleset):
        guarded = {r.name: len(_guards(r)) for r in default_ruleset if _guards(r)}
        assert sum(guarded.values()) == 35
        assert set(REFERENCE) <= set(guarded) and len(REFERENCE) == 29
        assert set(guarded) - set(REFERENCE) == {"int-add-fold", "int-mul-fold"}

    @pytest.mark.parametrize("name", sorted(REFERENCE))
    def test_guard_holds_exactly_when_its_reference_does(self, name, default_ruleset):
        index, variables, reference, witness = REFERENCE[name]
        guard = _guards(default_ruleset.named(name))[index]
        rng = random.Random(f"guard:{name}")
        seen = set()
        for vals in _draws(rng, variables, witness):
            g = EGraph()
            for v in vals.values():
                g.add_int(v)
            query = (*(Bind(v, PNode(("int", vals[v]))) for v in variables), guard)
            want = _outcome(lambda: reference(*(vals[v] for v in variables)))
            got = _outcome(lambda: ematch(g, query))
            assert got == want, (name, vals)
            seen.add(want)
        assert {True, False} <= seen, name

    def test_a_read_that_finds_no_int_fails_the_guard(self, default_ruleset):
        guard = _guards(default_ruleset.named("degenerate-ramp-split"))[0]
        g = EGraph()
        g.add(("imm", "f32", 4.0, False))
        g.add_int(4)
        assert ematch(g, (Bind("l", PNode(("int", 4))), guard)) != []
        assert ematch(g, (Bind("l", PNode(("imm", "f32", 4.0, False))), guard)) == []


def _fold_reference(sym, a, b):
    """Both operands are i32 immediates in range, and so is `a sym b`."""
    ok = all(k == "i32" and ir.I32_MIN <= v <= ir.I32_MAX for k, v in (a, b))
    out = a[1] + b[1] if sym == "+" else a[1] * b[1]
    return ok and ir.I32_MIN <= out <= ir.I32_MAX


LO, HI = ir.I32_MIN, ir.I32_MAX
FOLDS = [(("i32", a), ("i32", b)) for a, b in (
    (HI, 0), (HI, 1), (LO, 0), (LO, -1), (HI - 5, 5), (LO + 5, -5), (HI + 1, -1),
    (LO - 1, 1), (65536, 32767), (65536, 32768), (-65536, 32768), (-65536, -32768),
    (-1, LO), (0, HI + 7), (3, 4), (-7, 6))] + [
    (("f32", 2.0), ("i32", 3)), (("i32", 3), ("f32", 2.0))]


class TestFoldGuards:
    @pytest.mark.parametrize("opname, sym", [("add", "+"), ("mul", "*")])
    def test_folds_only_in_range_i32_immediates(self, opname, sym, default_ruleset):
        rule = default_ruleset.named(f"int-{opname}-fold")
        seen = set()
        for a, b in FOLDS:
            g = EGraph()
            kids = [g.add(("imm", k, v) if k == "i32" else ("imm", k, v, v < 0))
                    for k, v in (a, b)]
            e = g.add(("bop", sym), tuple(kids))
            want = _fold_reference(sym, a, b)
            assert [h["e"] for h in matches(g, rule.query)] == ([e] if want else []), (a, b)
            seen.add(want)
        assert seen == {True, False}


ZEROS = [(("f32", 0.0, False), True), (("f16", 0.0, False), True),
         (("bf16", 0.0, False), True), (("f32", -0.0, True), False),
         (("f16", -0.0, True), False), (("i32", 0), False), (("f32", 1.0, False), False)]


class TestZeroGuards:
    @pytest.mark.parametrize("target", ["amx", "wmma"])
    @pytest.mark.parametrize("imm, accepted", ZEROS)
    def test_only_a_positive_float_zero_is_zero(self, target, imm, accepted,
                                                default_ruleset):
        rule = default_ruleset.named(f"{target}-zero")
        g = EGraph()
        z = g.add(("imm", *imm))
        e = g.add(("l2l", "mem", target), (g.add(("bcast",), (z, g.add_int(8))),))
        g.assert_fact(f"{target}-shape", g.add_int(2), g.add_int(4), g.add_int(4))
        assert [h["e"] for h in matches(g, rule.query)] == ([e] if accepted else [])


def _matmul_graph(target, built_for, shapes):
    """A MatMul statement whose A and B tile facts name tiles loaded at the
    sizes of shape `built_for`, with a shape fact for each of `shapes`."""
    m, k, n = built_for
    g = EGraph()

    def imm(v):
        return g.add(("imm", "i32", v))

    def load(loader, buf, stride, rows, cols):
        return g.add(("call", loader), (g.add(("var", buf)), imm(0), imm(stride),
                                        imm(rows), imm(cols)))

    a, b, c = (g.add(("var", v)) for v in "abc")
    tf = g.add(("type", "f32"), (g.add_int(m * k * n),))
    mul = g.add(("bop", "*"), (g.add(("cast",), (tf, a)), g.add(("cast",), (tf, b))))
    e = g.add(("bop", "+"), (c, g.add(("vra",), (g.add_int(m * n), mul))))
    if target == "amx":
        ta, tb = load("tile_load", "A", k, m, k), load("tile_load", "B", 2 * n, k // 2, 2 * n)
    else:
        ta, tb = load("wmma_load_a", "A", k, m, k), load("wmma_load_b", "B", n, k, n)
    g.assert_fact(f"{target}-a-tile", a, ta)
    g.assert_fact(f"{target}-b-tile", b, tb)
    for shape in shapes:
        g.assert_fact(f"{target}-shape", *map(g.add_int, shape))
    return g, e


class TestMatmulTileGuards:
    """Two shapes of equal m*n: only the tile sizes tell them apart, so the
    tile-size guard alone decides which shape a MatMul lowers at."""

    SHAPES = ((2, 4, 4), (4, 4, 2))

    @pytest.mark.parametrize("target, name", [("amx", "amx-matmul"), ("wmma", "wmma-mma")])
    def test_the_tile_sizes_pick_the_shape(self, target, name, default_ruleset):
        rule = default_ruleset.named(name)
        for built_for in self.SHAPES:
            g, e = _matmul_graph(target, built_for, self.SHAPES)
            hits = matches(g, rule.query)
            assert {h["e"] for h in hits} == {e}
            assert {tuple(g.class_int(h[v]) for v in "mkn") for h in hits} == {built_for}

    @pytest.mark.parametrize("target, name", [("amx", "amx-matmul"), ("wmma", "wmma-mma")])
    def test_no_tile_at_the_matched_shape_no_match(self, target, name, default_ruleset):
        rule = default_ruleset.named(name)
        g, _ = _matmul_graph(target, (2, 4, 4), [(4, 4, 2)])
        assert ematch(g, rule.query) == []
        g.assert_fact(f"{target}-shape", *map(g.add_int, (2, 4, 4)))
        assert ematch(g, rule.query) != []
