"""Write perfbench/goldens.json from the program's current outputs.

    python3 perfbench/make_goldens.py

The goldens pin, for every corpus program, the lowered program text and
the `--no-timing` report, plus the names of the semantic rules.  The selector's output must stay byte-identical, so
regenerate them only with a change that alters that output on purpose.
"""

import json
import sys

from workloads import BENCH_DIR, GOLDENS, WORKLOADS, setup, sha256


def main():
    ctx = setup(BENCH_DIR.parent)
    select = WORKLOADS["select"]
    programs = {}
    for name in sorted(ctx.programs):
        lowered, rep = select.call(ctx, name, 0)
        programs[name] = {
            "lowered_sha256": sha256(ctx.ts.ir.print_program(lowered)),
            "report_sha256": sha256(rep.to_json(timing=False)),
        }
    goldens = {"programs": programs, "fuzz_rules": sorted(ctx.semantic_rules)}
    GOLDENS.write_text(json.dumps(goldens, indent=1, sort_keys=True) + "\n")
    print(f"wrote {GOLDENS}", file=sys.stderr)


if __name__ == "__main__":
    main()
