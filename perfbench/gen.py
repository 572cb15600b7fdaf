"""Seeded input generator for the benchmark.

Everything the program reads during a benchmark run is written here, from
a seed: generating graphs, presentations in the line-oriented DSL, mutants
of presentations and of stretching dumps, and malformed inputs.  Cell names
are written by this module (never by the library's own emitters), and are
DSL-legal: no whitespace and none of ( ) , : = #.

The seed never changes how much work an input asks for.  It picks the order
of the declaration lines (the DSL accepts src/tgt/refl/rev/comp lines in any
order, and every report is canonical, so the output bytes must not move),
which mutant of a fixed catalogue a run uses, where a dump is truncated, and
the order of suites.  Catalogues are built from a fixed catalogue seed, so
every candidate's expected output can be pinned once.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

# Mutant catalogues are drawn from this fixed seed, never from the run seed.
CATALOGUE_SEED = 20121803
CATALOGUE_SIZE = 8


@dataclass
class Presentation:
    """A presentation as flat tables, rendered to DSL text by render()."""

    name: str
    dim: int
    cells: dict[int, list[str]]
    src: dict[str, str] = field(default_factory=dict)
    tgt: dict[str, str] = field(default_factory=dict)
    refl: dict[tuple[int, int], dict[str, str]] = field(default_factory=dict)
    rev: dict[tuple[int, int], dict[str, str]] = field(default_factory=dict)
    comp: dict[tuple[int, int], dict[tuple[str, str], str]] = field(default_factory=dict)
    threshold: int = 0

    def declarations(self) -> list[str]:
        out = []
        for x, y in self.src.items():
            out.append(f"src {x} = {y}")
        for x, y in self.tgt.items():
            out.append(f"tgt {x} = {y}")
        for (p, m), table in self.refl.items():
            out.extend(f"refl {p} {m} {x} = {y}" for x, y in table.items())
        for (m, p), table in self.rev.items():
            out.extend(f"rev {m} {p} {x} = {y}" for x, y in table.items())
        for (m, p), table in self.comp.items():
            out.extend(f"comp {m} {p} ({y}, {x}) = {z}" for (y, x), z in table.items())
        return out

    def render(self, rng: random.Random) -> str:
        """DSL text; the header stays first, declarations come in seeded order."""
        head = [f"structure {self.name}", f"dim {self.dim}", f"threshold {self.threshold}"]
        head += [f"cells {m}: " + " ".join(cs) for m, cs in sorted(self.cells.items())]
        body = self.declarations()
        rng.shuffle(body)
        return "\n".join(head + body) + "\n"

    def copy(self) -> "Presentation":
        return Presentation(
            self.name, self.dim, {m: list(c) for m, c in self.cells.items()},
            dict(self.src), dict(self.tgt),
            {k: dict(t) for k, t in self.refl.items()},
            {k: dict(t) for k, t in self.rev.items()},
            {k: dict(t) for k, t in self.comp.items()},
            self.threshold,
        )


# -- generating graphs ---------------------------------------------------


def edge_graph() -> Presentation:
    """One edge a -> b: the graph of the C7 acceptance criterion."""
    return Presentation("edge", 1, {0: ["a", "b"], 1: ["e"]}, {"e": "a"}, {"e": "b"})


def path_graph(k: int) -> Presentation:
    """A path p0 -> p1 -> ... -> pk of k edges e1..ek (a tree: no cycles)."""
    points = [f"p{i}" for i in range(k + 1)]
    edges = [f"e{i}" for i in range(1, k + 1)]
    return Presentation(
        f"path{k}", 1, {0: points, 1: edges},
        {f"e{i}": f"p{i - 1}" for i in range(1, k + 1)},
        {f"e{i}": f"p{i}" for i in range(1, k + 1)},
    )


def bouquet(k: int) -> Presentation:
    """k loops x1..xk on one point o: reduced words form a free group."""
    loops = [f"x{i}" for i in range(1, k + 1)]
    return Presentation(
        f"bouquet{k}", 1, {0: ["o"], 1: loops}, {x: "o" for x in loops}, {x: "o" for x in loops}
    )


def bouquet_word_count(k: int, L: int) -> int:
    """Closed form for reduced words of length <= L on k loops: 1 + sum 2k(2k-1)^(i-1)."""
    return 1 + sum(2 * k * (2 * k - 1) ** (i - 1) for i in range(1, L + 1))


def path_word_count(k: int, L: int) -> int:
    """Reduced words on a path of k edges are its directed walks without backtracking:
    one empty word per point, and two per sub-path of length 1..min(L, k)."""
    return (k + 1) + sum(2 * (k + 1 - n) for n in range(1, min(L, k) + 1))


# -- presentations of strict structures ----------------------------------


def cyclic_group(n: int) -> Presentation:
    """Z_n as a one-object category: n^2 comp lines, the full table."""
    g = [f"g{i}" for i in range(n)]
    return Presentation(
        f"Z{n}", 1, {0: ["o"], 1: g},
        {x: "o" for x in g}, {x: "o" for x in g},
        refl={(0, 1): {"o": "g0"}},
        comp={(1, 0): {(g[i], g[j]): g[(i + j) % n] for i in range(n) for j in range(n)}},
    )


def abelian_2cat(orders: tuple[int, ...]) -> Presentation:
    """An abelian group A as a strict 2-category with one object o and one
    arrow i: the 2-cells are A, and both compositions (over 0 and over 1)
    are the group law (Eckmann-Hilton), so both tables are full."""
    elems = [()]
    for n in orders:
        elems = [e + (k,) for e in elems for k in range(n)]
    name = {e: "a" + "_".join(map(str, e)) for e in elems}
    add = lambda u, v: tuple((a + b) % n for a, b, n in zip(u, v, orders))
    cells2 = [name[e] for e in elems]
    table = {(name[u], name[v]): name[add(u, v)] for u in elems for v in elems}
    zero = name[tuple(0 for _ in orders)]
    return Presentation(
        "A" + "x".join(map(str, orders)), 2, {0: ["o"], 1: ["i"], 2: cells2},
        {"i": "o", **{c: "i" for c in cells2}}, {"i": "o", **{c: "i" for c in cells2}},
        refl={(0, 1): {"o": "i"}, (1, 2): {"i": zero}},
        comp={(1, 0): {("i", "i"): "i"}, (2, 0): dict(table), (2, 1): dict(table)},
    )


def walking_iso_with_reversors() -> Presentation:
    """The walking isomorphism a <-> b with its reversor table declared."""
    return Presentation(
        "W", 1, {0: ["a", "b"], 1: ["f", "g", "ida", "idb"]},
        {"f": "a", "g": "b", "ida": "a", "idb": "b"},
        {"f": "b", "g": "a", "ida": "a", "idb": "b"},
        refl={(0, 1): {"a": "ida", "b": "idb"}},
        rev={(1, 0): {"f": "g", "g": "f", "ida": "ida", "idb": "idb"}},
        comp={(1, 0): {
            ("g", "f"): "ida", ("f", "g"): "idb", ("f", "ida"): "f", ("idb", "f"): "f",
            ("g", "idb"): "g", ("ida", "g"): "g", ("ida", "ida"): "ida", ("idb", "idb"): "idb",
        }},
    )


# -- mutant catalogues -----------------------------------------------------


def comp_mutants(pres: Presentation, key: tuple[int, int]) -> list[tuple[Presentation, str]]:
    """Catalogue of presentations with one comp entry of table `key`
    redirected to another cell of the same grade.  The result stays a
    well-formed magma (all cells share their boundaries), so the validator
    must reject it with a strictness family (checks.STRICT_FAMILIES)."""
    rng = random.Random(f"{CATALOGUE_SEED}:{pres.name}:{key}")
    table = pres.comp[key]
    entries = sorted(table)
    grade = pres.cells[key[0]]
    out = []
    for _ in range(CATALOGUE_SIZE):
        yx = rng.choice(entries)
        wrong = rng.choice([c for c in grade if c != table[yx]])
        mutant = pres.copy()
        mutant.comp[key][yx] = wrong
        out.append((mutant, f"comp {key} {yx} -> {wrong}"))
    return out


DUMP_MUTATIONS = ("bracket-target", "pi-total", "pi-src", "pi-comp")


def dump_mutation_axiom(i: int) -> str:
    """The axiom id the validator must report for catalogue entry i."""
    return "stretching." + DUMP_MUTATIONS[i % len(DUMP_MUTATIONS)]


def dump_mutants(dump_text: str) -> list[tuple[str, str]]:
    """Catalogue of stretching dumps with one entry changed, with what was
    changed.  Every mutation is chosen so that the check named by
    dump_mutation_axiom is certain to fire; other stretching checks may too."""
    base = json.loads(dump_text)
    rng = random.Random(f"{CATALOGUE_SEED}:dump")
    out = []
    for i in range(CATALOGUE_SIZE):
        kind = DUMP_MUTATIONS[i % len(DUMP_MUTATIONS)]
        d = json.loads(dump_text)
        m_side, c_side, pi = d["m_side"], d["c_side"], d["pi"]
        if kind == "bracket-target":
            entries = [b for b in base["brackets"] if b[1] != b[2]]
            k = rng.randrange(len(entries))
            m, c1, c0, B = entries[k]
            cands = [x for x in m_side["cells"][str(m + 1)] if m_side["tgt"][str(m + 1)][x] != c1]
            new = rng.choice(sorted(cands))
            d["brackets"][base["brackets"].index(entries[k])][3] = new
            what = f"bracket ({m}, {c1}, {c0}) -> {new}"
        elif kind == "pi-total":
            x = rng.choice(m_side["cells"]["1"])
            pi["1"][x] = "absent-cell"
            what = f"pi({x}) -> absent-cell"
        elif kind == "pi-src":
            x = rng.choice(m_side["cells"]["1"])
            want = pi["0"][m_side["src"]["1"][x]]
            cands = [w for w in c_side["cells"]["1"] if c_side["src"]["1"][w] != want]
            new = rng.choice(sorted(cands))
            pi["1"][x] = new
            what = f"pi({x}) -> {new}"
        else:
            entries = m_side["comp"]["1.0"]
            k = rng.randrange(len(entries))
            y, x, z = entries[k]
            cands = [w for w in m_side["cells"]["1"] if pi["1"][w] != pi["1"][z]]
            new = rng.choice(sorted(cands))
            entries[k][2] = new
            what = f"comp ({y}, {x}) -> {new}"
        out.append((json.dumps(d, sort_keys=True, indent=2) + "\n", f"{kind}: {what}"))
    return out


# -- malformed inputs ------------------------------------------------------


def truncated(text: str, rng: random.Random) -> str:
    """A dump cut off somewhere in its middle half: not JSON at all."""
    n = len(text)
    return text[: rng.randrange(n // 4, 3 * n // 4)]


def wrong_kind(text: str) -> str:
    """Valid JSON object whose kind field says it is not a stretching."""
    d = json.loads(text)
    d["kind"] = "free-groupoid"
    return json.dumps(d, sort_keys=True, indent=2) + "\n"


def non_object_json(rng: random.Random) -> str:
    """ROADMAP crash (b): JSON that is not an object."""
    return rng.choice(["[1, 2, 3]\n", "42\n", "\"stretching\"\n", "null\n"])


def dump_without_src_entry(text: str, rng: random.Random) -> tuple[str, str]:
    """ROADMAP crash (c): one src entry of the magma side removed."""
    d = json.loads(text)
    grade = rng.choice(sorted(d["m_side"]["src"]))
    x = rng.choice(sorted(d["m_side"]["src"][grade]))
    del d["m_side"]["src"][grade][x]
    return json.dumps(d, sort_keys=True, indent=2) + "\n", f"src of {x} removed"


def incomplete_reflexors(rng: random.Random) -> Presentation:
    """ROADMAP crash (a): a reversor layer over an incomplete reflexor table."""
    pres = walking_iso_with_reversors()
    del pres.refl[(0, 1)][rng.choice(["a", "b"])]
    return pres


def unresolved_name(pres: Presentation, rng: random.Random) -> Presentation:
    """A presentation with one comp line naming an undeclared cell: a parse error."""
    bad = pres.copy()
    key = sorted(bad.comp)[0]
    yx = rng.choice(sorted(bad.comp[key]))
    bad.comp[key][yx] = "undeclared"
    return bad
