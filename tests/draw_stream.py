"""The text of a drawn fuzz stream, for `test_draw_stream.py`: one digest
per semantic rule and seed over the structures its generator draws, so a
change to how draws are built can show it draws the same matches, shapes,
programs and buffer parameters from the same random stream.

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


def draw_text(structure):
    """One draw as text: its match, shapes, program (None at the
    statement's place) and the parameters its buffers fill."""
    lines = [f"{k} = {value_text(v)}" for k, v in structure.match.items()]
    lines += [f"shape {sh.target} {sh.m} {sh.k} {sh.n}" for sh in structure.shapes]
    if structure.program is not None:
        lines += [f"param {p.name} {p.kind} {p.length} {p.location}"
                  for p in structure.program.params]
        lines += ["hole" if s is None else ir.print_stmt(s) for s in structure.program.body]
    lines += [f"buffer {p.name} {p.kind} {p.location} {p.length}" for p in structure.params]
    return "\n".join(lines) + "\n\n"


def stream_digest(rule, seed):
    """The sha256 of `rule`'s first `TRIALS` draws at `seed`, as the
    soundness fuzzer seeds them, and of the random state they leave."""
    rng = random.Random(f"soundness:{seed}:{rule.name}")
    h = hashlib.sha256()
    for _ in range(TRIALS):
        structure = rule.fuzz(rng)
        h.update(b"none\n\n" if structure is None else draw_text(structure).encode())
    h.update(repr(rng.getstate()).encode())
    return h.hexdigest()


def digests(ruleset):
    return {f"{rule.name}:{seed}": stream_digest(rule, seed)
            for rule in ruleset if rule.semantic for seed in SEEDS}


if __name__ == "__main__":
    from tensorsel import rules

    print(json.dumps(digests(rules.build_default_ruleset()), indent=1, sort_keys=True))
