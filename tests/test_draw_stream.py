"""The soundness fuzzer's draws: every semantic rule's generator draws the
pinned stream of `draw_stream.json`, equal draws share one structure, and
the fuzzer groups draws exactly as value equality does."""

import json
import random
from pathlib import Path

import pytest

import draw_stream
from tensorsel import ir, rules

PINNED = json.loads((Path(__file__).parent / "draw_stream.json").read_text())


def semantic(ruleset):
    return [rule for rule in ruleset if rule.semantic]


def fuzzer_rng(rule, seed):
    return random.Random(f"soundness:{seed}:{rule.name}")


def test_every_semantic_rule_and_seed_is_pinned(default_ruleset):
    assert sorted(PINNED) == sorted(f"{rule.name}:{seed}" for rule in semantic(default_ruleset)
                                    for seed in draw_stream.SEEDS)


@pytest.mark.parametrize("key", sorted(PINNED))
def test_draw_stream(default_ruleset, key):
    """The matches, shapes, programs, buffers and lanes of 500 draws, and
    the random state after them, are those pinned."""
    name, seed = key.rsplit(":", 1)
    assert draw_stream.stream_digest(default_ruleset.named(name), int(seed)) == PINNED[key]


def value_key(structure):
    """A structure as plain values, which compare as the IR does."""
    return dict(structure.match), structure.layout, structure.shapes, structure.program


@pytest.mark.parametrize("seed", [0, 1])
def test_groups_are_those_of_value_equality(default_ruleset, seed):
    """Each group holds the draws of one structure value, in draw order,
    with their lanes; groups come in the order of their first draws, and
    none is split or merged."""
    for rule in semantic(default_ruleset):
        groups, drawn, error = rules._groups(rule, fuzzer_rng(rule, seed), draw_stream.TRIALS)
        assert (drawn, error) == (draw_stream.TRIALS, None)
        rng = fuzzer_rng(rule, seed)
        keys, want = [], []
        for index in range(draw_stream.TRIALS):
            structure, lanes = rule.fuzz(rng)
            key = value_key(structure)
            for members, other in zip(want, keys):
                if other == key:
                    members.append((index, lanes))
                    break
            else:
                keys.append(key)
                want.append([(index, lanes)])
        assert list(groups.values()) == want, rule.name
        assert [value_key(s) for s in groups] == keys, rule.name


def test_equal_draws_share_one_structure(default_ruleset):
    """Draws of equal structures are handed one object; the memo that
    holds them is bounded, and a soundness check empties it."""
    for rule in semantic(default_ruleset):
        rng = fuzzer_rng(rule, 0)
        structures = [rule.fuzz(rng)[0] for _ in range(draw_stream.TRIALS)]
        assert len(set(map(id, structures))) == len(set(structures)), rule.name
        info = rules._shared.cache_info()
        assert info.maxsize >= draw_stream.TRIALS and info.currsize <= info.maxsize
        assert rules.check_rule_soundness(rule, 20).ok
        assert rules._shared.cache_info().currsize == 0


def test_structures_compare_by_value():
    """Structures built apart are equal and hash alike when their values
    are; the two zero immediates keep them apart."""
    zero, neg = ir.Imm("f32", 0.0), ir.Imm("f32", -0.0)
    layout = [("buf0", "f32", "mem", 2)]
    a, b = (rules.Structure({"z": zero}, list(layout)) for _ in range(2))
    assert a is not b and a == b and hash(a) == hash(b)
    assert a != rules.Structure({"z": neg}, layout)
    assert a != rules.Structure({"z": zero}, [("buf0", "f32", "amx", 2)])
    with pytest.raises(TypeError):
        a.match["z"] = neg
