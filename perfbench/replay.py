"""Library suite replay: one benchmark op, run in a fresh interpreter.

    python perfbench/replay.py SUITE SEED

Builds the built-in suites, replays SUITE (it must check clean), then
replays every single-step mutant of it: each step of each derivation in
turn is replaced by a wrong one (a rewrite cites another catalogue rule
drawn from SEED, an inverse-uniqueness step flips direction, a bracket
introduction swaps faces) and the whole suite is checked again.  The
checker must reject each mutant with a derivation violation that names the
mutated derivation at the mutated step or later, or at its claimed end: a
wrong rule that still applies makes a later step or the end fail.

Prints one canonical JSON summary, which does not depend on SEED, and
exits 0; exits 1 if the suite fails or any mutant is accepted or
misattributed.
"""

from __future__ import annotations

import json
import random
import sys
from dataclasses import replace


def mutate(step, rules: list[str], rng: random.Random, engine):
    if isinstance(step, engine.RewriteStep):
        return replace(step, rule=rng.choice([r for r in rules if r != step.rule]))
    if isinstance(step, engine.InverseUniquenessStep):
        return replace(step, direction="rev" if step.direction == "fwd" else "fwd")
    return replace(step, face="src" if step.face == "tgt" else "tgt")


def _at_or_after(where: str, si: int) -> bool:
    return where == "end" or (where.startswith("step ") and int(where[5:]) >= si)


def replay(key: str, seed: int) -> tuple[dict, int]:
    import globforge.engine as engine
    from globforge.engine.derivation import Derivation, Suite

    rng = random.Random(f"{seed}:{key}")
    rules = sorted(engine.rule_library())
    suite = engine.builtin_suites()[key]
    clean = engine.check_suite(suite)
    mutants = []
    for di, d in enumerate(suite.derivations):
        for si in range(len(d.steps)):
            steps = list(d.steps)
            steps[si] = mutate(steps[si], rules, rng, engine)
            ders = list(suite.derivations)
            ders[di] = Derivation(d.name, d.start, tuple(steps), d.end)
            rep = engine.check_suite(Suite(
                suite.name, suite.title, suite.assumptions, suite.local_rules, suite.facts, tuple(ders)
            ))
            named = any(
                v.axiom.startswith("derivation.") and v.cells[0] == d.name and _at_or_after(v.cells[1], si)
                for v in rep.violations
            )
            mutants.append([d.name, si, "rejected" if named else "accepted" if rep.valid else "misnamed"])
    summary = {
        "suite": key,
        "clean": clean.valid,
        "mutants": len(mutants),
        "outcomes": mutants,
    }
    ok = clean.valid and all(m[2] == "rejected" for m in mutants)
    return summary, 0 if ok else 1


def main(argv: list[str]) -> int:
    summary, code = replay(argv[0], int(argv[1]))
    sys.stdout.write(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
