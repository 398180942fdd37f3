"""The text of a drawn fuzz stream, for `test_draw_stream.py`: one digest
per semantic rule and seed over the draws its generator makes, so a change
to how draws are built can show it draws the same matches, shapes,
programs and lanes from the same random stream.

    PYTHONPATH=src python3 tests/draw_stream.py > tests/draw_stream.json

rewrites the pinned digests from the checkout's generators; do that only
for a deliberate change to what the generators draw."""

import hashlib
import json
import random

from tensorsel import ir

TRIALS = 500
SEEDS = (0, 1)


def value_text(v):
    """A match value: an IR expression or a type printed, an int or a
    buffer name as its repr."""
    if isinstance(v, ir.Expr):
        return ir.print_expr(v)
    if isinstance(v, ir.VecType):
        return ir.print_type(v)
    assert isinstance(v, (int, str)), v
    return repr(v)


def lane_text(x):
    return str(x) if isinstance(x, int) else float.hex(x)


def draw_text(match, shapes, program, buffers):
    """One draw as text: `buffers` lists (name, kind, location, lanes) in
    the draw's order, and `program` holds None at the statement's place."""
    lines = [f"{k} = {value_text(v)}" for k, v in match.items()]
    lines += [f"shape {sh.target} {sh.m} {sh.k} {sh.n}" for sh in shapes]
    if program is not None:
        lines += [f"param {p.name} {p.kind} {p.length} {p.location}" for p in program.params]
        lines += ["hole" if s is None else ir.print_stmt(s) for s in program.body]
    lines += [f"buffer {name} {kind} {loc} {' '.join(map(lane_text, lanes))}"
              for name, kind, loc, lanes in buffers]
    return "\n".join(lines) + "\n\n"


def drawn_buffers(structure, lanes):
    """A draw's buffers as `draw_text` takes them."""
    return [(*spec[:3], row) for spec, row in zip(structure.layout, lanes, strict=True)]


def stream_digest(rule, seed):
    """The sha256 of `rule`'s first `TRIALS` draws at `seed`, as the
    soundness fuzzer seeds them, and of the random state they leave."""
    rng = random.Random(f"soundness:{seed}:{rule.name}")
    h = hashlib.sha256()
    for _ in range(TRIALS):
        draw = rule.fuzz(rng)
        if draw is None:
            h.update(b"none\n\n")
            continue
        s, lanes = draw
        h.update(draw_text(s.match, s.shapes, s.program, drawn_buffers(s, lanes)).encode())
    h.update(repr(rng.getstate()).encode())
    return h.hexdigest()


def digests(ruleset):
    return {f"{rule.name}:{seed}": stream_digest(rule, seed)
            for rule in ruleset if rule.semantic for seed in SEEDS}


if __name__ == "__main__":
    from tensorsel import rules

    print(json.dumps(digests(rules.build_default_ruleset()), indent=1, sort_keys=True))
