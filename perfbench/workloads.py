"""The three workloads as lists of ops, and the inputs each op reads.

An op is one fresh interpreter: `python -m globforge.cli ARGS` for a CLI
command, or `python perfbench/replay.py SUITE SEED` for a library replay.
Every op carries the command metric it counts towards, its expected exit
code, the key of its pinned stdout digest, its oracle, and why it is there.

Every workload runs every command at least once, so that every end-to-end
metric exists on every workload: besides its own heavy ops, a workload runs
small "tail" ops for the commands it does not otherwise exercise.  They are
fixed, cheap, and the same in each workload.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import checks
import gen

COMMAND_METRICS = (
    "stretch_s", "validate_s", "free_groupoid_s", "derive_reversors_s",
    "index_s", "check_proofs_s", "replay_s",
)
SUITES = ("S1", "S2", "S3a", "S3b", "S4", "S5a", "S5b", "S5c", "S6", "S7")
WORKLOADS = ("stretch", "tables", "proofs")
TAIL_REPEAT = 3


@dataclass
class Op:
    id: str  # key of the pinned stdout digest: equal ids must give equal bytes
    metric: str
    kind: str  # "cli" or "replay"
    args: list[str]
    why: str
    expect: int = 0
    oracle: Callable | None = None
    stdout_to: Path | None = None  # keep stdout here: a later op reads it
    then: Callable[[], None] | None = None  # derive inputs from stdout_to, once
    repeat: int = 1  # runs per round: short ops repeat so their medians settle


@dataclass
class Probe:
    """A known crash input from ROADMAP item 4; must end in exit 2."""

    id: str
    args: list[str]
    why: str


class Inputs:
    """Writes input files into the work directory and makes ops over them."""

    def __init__(self, work: Path, seed: int, pin: bool):
        self.work = work
        self.rng = random.Random(seed)
        self.seed = seed
        self.pin = pin
        work.mkdir(parents=True, exist_ok=True)

    def file(self, name: str, text: str) -> str:
        path = self.work / name
        path.write_text(text, encoding="utf-8")
        return str(path)

    def pres(self, name: str, pres: gen.Presentation) -> str:
        return self.file(name, pres.render(self.rng))

    def pick(self, n: int, k: int = 1) -> list[int]:
        """k distinct catalogue entries; all of them when pinning."""
        return list(range(n)) if self.pin else sorted(self.rng.sample(range(n), k))


def cli(op_id: str, metric: str, args: list[str], why: str, **kw) -> Op:
    return Op(op_id, metric, "cli", args, why, **kw)


def _stretch_ops(inp: Inputs, graph: str, path: str, n: int, D: int, S: int, why: str,
                 oracle=None, then=None) -> list[Op]:
    tag = f"{graph}-n{n}-D{D}-S{S}"
    dump = inp.work / f"{tag}.json"
    gen_op = cli(
        f"stretch/{tag}", "stretch_s",
        ["stretch", path, "--n", str(n), "--dim", str(D), "--size", str(S)], why,
        oracle=oracle, stdout_to=dump,
        then=then,
    )
    val_op = cli(
        f"validate/{tag}", "validate_s", ["validate", str(dump), "--layer", "stretching"],
        f"re-reads the {tag} dump: load_stretching plus validate_stretching",
        oracle=checks.valid_report,
    )
    return [gen_op, val_op]


def _tail(inp: Inputs, have: set[str]) -> list[Op]:
    """Small fixed ops for the commands a workload does not otherwise run."""
    ops: list[Op] = []
    why = "tail op: keeps every command metric present on this workload"
    if "stretch_s" not in have:
        ops += _stretch_ops(inp, "edge", inp.pres("tail-edge.gf", gen.edge_graph()), 0, 2, 5, why)
    if "free_groupoid_s" not in have:
        k, L = 3, 3
        ops.append(cli(
            f"free-groupoid/path{k}-L{L}", "free_groupoid_s",
            ["free-groupoid", inp.pres(f"tail-path{k}.gf", gen.path_graph(k)), "--max-len", str(L)],
            why, oracle=checks.word_count(gen.path_word_count(k, L)),
        ))
    if "validate_s" not in have or "derive_reversors_s" not in have or "index_s" not in have:
        z5 = inp.pres("tail-z5.gf", gen.cyclic_group(5))
        if "validate_s" not in have:
            ops.append(cli("validate/Z5", "validate_s", ["validate", z5], why, oracle=checks.valid_report))
            mutant, what = gen.comp_mutants(gen.cyclic_group(5), (1, 0))[0]
            ops.append(cli("validate/Z5-mutant-0", "validate_s",
                           ["validate", inp.pres("tail-z5-mutant.gf", mutant)],
                           f"{why}; {what}, so reports carry violations", expect=1,
                           oracle=checks.rejected(checks.STRICT_FAMILIES)))
        if "derive_reversors_s" not in have:
            ops.append(cli("derive-reversors/Z5", "derive_reversors_s", ["derive-reversors", z5], why,
                           oracle=checks.inverses(_cyclic_inverses(5))))
        if "index_s" not in have:
            ops.append(cli("index/Z5", "index_s", ["index", z5], why, oracle=checks.index_is(0)))
    if "check_proofs_s" not in have:
        ops.append(cli("check-proofs/S2", "check_proofs_s", ["check-proofs", "--suite", "S2"], why,
                       oracle=checks.valid_report))
    if "replay_s" not in have:
        ops.append(Op("replay/S2", "replay_s", "replay", ["S2", str(inp.seed)], why,
                      oracle=checks.all_mutants_rejected))
    for op in ops:
        op.repeat = TAIL_REPEAT
    return ops


def _negative_bound(inp: Inputs) -> Probe:
    """ROADMAP 4(d), on every workload: a negative --max-len is accepted."""
    path = inp.pres("probe-bouquet1.gf", gen.bouquet(1))
    return Probe("free-groupoid/negative-bound", ["free-groupoid", path, "--max-len", str(-1 - inp.rng.randrange(3))],
                 "ROADMAP 4(d): a negative --max-len")


def _cyclic_inverses(n: int) -> dict[str, dict[str, str]]:
    return {"1.0": {f"g{i}": f"g{(-i) % n}" for i in range(n)}}


def _abelian_inverses(orders: tuple[int, ...]) -> dict[str, dict[str, str]]:
    pres = gen.abelian_2cat(orders)
    zero = pres.refl[(1, 2)]["i"]
    inv = {}
    for a in pres.cells[2]:
        inv[a] = next(b for b in pres.cells[2] if pres.comp[(2, 0)][(a, b)] == zero)
    return {"1.0": {"i": "i"}, "2.0": dict(sorted(inv.items())), "2.1": dict(sorted(inv.items()))}


# -- stretch ---------------------------------------------------------------


def stretch(inp: Inputs) -> tuple[list[Op], Callable[[], list[Probe]]]:
    """terms, normalform and stretching do nearly all the work; reads (load +
    validate) sit beside writes (generate + validate + dump)."""
    edge = inp.pres("edge.gf", gen.edge_graph())
    path2 = inp.pres("path2.gf", gen.path_graph(2))
    small = inp.work / "edge-n1-D2-S9.json"
    mutant_ids = inp.pick(gen.CATALOGUE_SIZE, 3)

    def derive() -> None:
        """Dump mutants need the program's own dump: they are written once it
        exists, and every round reads them."""
        text = small.read_text(encoding="utf-8")
        catalogue = gen.dump_mutants(text)
        for i in mutant_ids:
            inp.file(f"dump-mutant-{i}.json", catalogue[i][0])
        inp.file("dump-truncated.json", gen.truncated(text, random.Random(inp.seed)))
        inp.file("dump-wrong-kind.json", gen.wrong_kind(text))

    def validate(name: str, why: str, expect: int, oracle=None) -> Op:
        return cli(f"validate/{name}", "validate_s",
                   ["validate", str(inp.work / f"{name}.json"), "--layer", "stretching"],
                   why, expect=expect, oracle=oracle)

    ops = []
    ops += _stretch_ops(inp, "edge", edge, 0, 2, 9, "largest one-edge run: StretchTerm hashing dominates")
    ops += _stretch_ops(inp, "edge", edge, 0, 3, 8, "dimension 3: degenerate 3-cells and 2-level brackets")
    ops += _stretch_ops(inp, "edge", edge, 1, 2, 9,
                        "threshold 1: no 1-level reversors, a small dump that the mutants edit", then=derive)
    ops += _stretch_ops(inp, "path2", path2, 0, 2, 8, "two-edge graph: composable edges, more buckets")
    ops += _stretch_ops(inp, "edge", edge, 0, 2, 7, "the C7 criterion: grade counts from the enumeration oracle",
                        oracle=checks.grade_counts({0: 2, 1: 125, 2: 409}))
    for i in mutant_ids:
        ops.append(validate(f"dump-mutant-{i}",
                            "seeded dump mutant: one entry changed, the named stretching check must fire",
                            1, checks.rejected({"stretching"}, gen.dump_mutation_axiom(i))))
    ops.append(validate("dump-truncated", "malformed dump cut at a seeded offset: exit 2 with one line", 2))
    ops.append(validate("dump-wrong-kind", "JSON object of another kind: exit 2 with one line", 2))
    ops += _tail(inp, {"stretch_s", "validate_s"})
    negative = _negative_bound(inp)

    def probes() -> list[Probe]:
        text, what = gen.dump_without_src_entry(small.read_text(encoding="utf-8"), random.Random(inp.seed))
        return [
            Probe("validate/non-object-json",
                  ["validate", inp.file("non-object.json", gen.non_object_json(random.Random(inp.seed))),
                   "--layer", "stretching"],
                  "ROADMAP 4(b): JSON that is not an object"),
            Probe("validate/dump-missing-src",
                  ["validate", inp.file("dump-missing-src.json", text), "--layer", "stretching"],
                  f"ROADMAP 4(c): {what}"),
            negative,
        ]

    return ops, probes


# -- tables ----------------------------------------------------------------

REDUCE_WORDS = 4
ABELIAN = (4, 4)


def _reduce_words() -> list[str]:
    """Catalogue of words for --reduce on the two-loop bouquet; none cancels fully."""
    rng = random.Random(f"{gen.CATALOGUE_SEED}:words")
    out = []
    while len(out) < REDUCE_WORDS:
        w = ".".join(rng.choice(["x1", "x2"]) + rng.choice("+-") for _ in range(14))
        if checks.free_reduce(w):
            out.append(w)
    return out


def tables(inp: Inputs) -> tuple[list[Op], Callable[[], list[Probe]]]:
    """words, globular, dsl and the magma/layers validators do the work;
    terms, normalform and engine do none."""
    ops: list[Op] = []
    bq = inp.pres("bouquet2.gf", gen.bouquet(2))
    words = _reduce_words()
    for i in inp.pick(REDUCE_WORDS):
        ops.append(cli(
            f"free-groupoid/bouquet2-L5-w{i}", "free_groupoid_s",
            ["free-groupoid", bq, "--max-len", "5", "--reduce", words[i]],
            "free group on two generators at L=5: 485 cells, 20k composites, reduce_word per pair",
            oracle=checks.word_count(gen.bouquet_word_count(2, 5), checks.free_reduce(words[i])),
        ))
    for k, L in ((4, 4), (6, 5)):
        ops.append(cli(
            f"free-groupoid/path{k}-L{L}", "free_groupoid_s",
            ["free-groupoid", inp.pres(f"path{k}.gf", gen.path_graph(k)), "--max-len", str(L)],
            "small path graph: a tree, so reduced words are paths; closed-form count",
            oracle=checks.word_count(gen.path_word_count(k, L)),
        ))
    ops.append(cli(
        "free-groupoid/path4-bad-word", "free_groupoid_s",
        ["free-groupoid", str(inp.work / "path4.gf"), "--max-len", "2", "--reduce", "e1+.e2"],
        "malformed --reduce word (no orientation sign): exit 2 with one line", expect=2,
    ))

    z100 = gen.cyclic_group(100)
    a2 = gen.abelian_2cat(ABELIAN)
    for pres, inv, why in (
        (z100, _cyclic_inverses(100), "Z100: 10.2k DSL lines, a full 100x100 table, 1M associativity lookups"),
        (a2, _abelian_inverses(ABELIAN), "abelian group as a one-object one-arrow 2-category: "
                                         "both tables full, interchange does |table|^2 work"),
    ):
        path = inp.pres(f"{pres.name}.gf", pres)
        ops.append(cli(f"validate/{pres.name}", "validate_s", ["validate", path], why,
                       oracle=checks.valid_report))
        ops.append(cli(f"derive-reversors/{pres.name}", "derive_reversors_s", ["derive-reversors", path], why,
                       oracle=checks.inverses(inv)))
        ops.append(cli(f"index/{pres.name}", "index_s", ["index", path], why, oracle=checks.index_is(0)))
        key = max(pres.comp)
        catalogue = gen.comp_mutants(pres, key)
        for i in inp.pick(len(catalogue)):
            mutant, what = catalogue[i]
            ops.append(cli(
                f"validate/{pres.name}-mutant-{i}", "validate_s",
                ["validate", inp.pres(f"{pres.name}-mutant-{i}.gf", mutant)],
                f"seeded mutant, {what}: strictness must fail",
                expect=1, oracle=checks.rejected(checks.STRICT_FAMILIES),
            ))
    ops.append(cli(
        "validate/Z100-unresolved", "validate_s",
        ["validate", inp.pres("Z100-unresolved.gf", gen.unresolved_name(z100, inp.rng))],
        "one comp line names an undeclared cell: a parse error after 10k lines, exit 2", expect=2,
    ))
    ops += _tail(inp, {"free_groupoid_s", "validate_s", "derive_reversors_s", "index_s"})

    probes = [
        Probe("validate/reversors-over-incomplete-reflexors",
              ["validate", inp.pres("incomplete-reflexors.gf", gen.incomplete_reflexors(inp.rng))],
              "ROADMAP 4(a): reversor layer with an incomplete reflexor table"),
        _negative_bound(inp),
    ]
    return ops, lambda: probes


# -- proofs ----------------------------------------------------------------


def proofs(inp: Inputs) -> tuple[list[Op], Callable[[], list[Probe]]]:
    """only engine works here; the short ops expose startup cost."""
    ops: list[Op] = []
    order = list(SUITES) + ["all"]
    inp.rng.shuffle(order)
    for s in order:
        ops.append(cli(
            f"check-proofs/{s}", "check_proofs_s", ["check-proofs", "--suite", s],
            "one suite per process: builtin_suites plus check_suite, about half of it import",
            oracle=checks.valid_report,
        ))
    order = list(SUITES)
    inp.rng.shuffle(order)
    for s in order:
        ops.append(Op(
            f"replay/{s}", "replay_s", "replay", [s, str(inp.seed)],
            "every single-step mutant of the suite, each rejected at its step or later",
            oracle=checks.all_mutants_rejected,
        ))
    ops += _tail(inp, {"check_proofs_s", "replay_s"})
    probes = [_negative_bound(inp)]
    return ops, lambda: probes


OPS_BY_WORKLOAD = {"stretch": stretch, "tables": tables, "proofs": proofs}
