"""Programmatic fixtures: small categories, graphs, and mutants of them.

Mutation helpers return deep-rebuilt structures so the originals stay
usable; every mutant is a single redirected table entry.
"""

from __future__ import annotations

from typing import Callable

from globforge.globular import GlobularMorphism, TruncatedGlobularSet, globular_set
from globforge.layers import ReflexorStructure, ReversorStructure
from globforge.magma import CompositionStructure, InfinityMagma, StrictNCategory


def two_cell_globe(broken: bool = False) -> TruncatedGlobularSet:
    """One 2-cell al: f => g over a -> b; optionally break tgt(g)."""
    return globular_set(
        2,
        {0: ["a", "b", "c"], 1: ["f", "g"], 2: ["al"]},
        src={1: {"f": "a", "g": "a"}, 2: {"al": "f"}},
        tgt={1: {"f": "b", "g": "c" if broken else "b"}, 2: {"al": "g"}},
    )


def three_globe() -> TruncatedGlobularSet:
    """A single 3-cell with distinct faces in every dimension."""
    return globular_set(
        3,
        {0: ["a", "b"], 1: ["f", "g"], 2: ["al", "be"], 3: ["M"]},
        src={1: {"f": "a", "g": "a"}, 2: {"al": "f", "be": "f"}, 3: {"M": "al"}},
        tgt={1: {"f": "b", "g": "b"}, 2: {"al": "g", "be": "g"}, 3: {"M": "be"}},
    )


def walking_iso_graph() -> TruncatedGlobularSet:
    """Cells a, b with f: a -> b and g: b -> a, no loops."""
    return globular_set(
        1,
        {0: ["a", "b"], 1: ["f", "g"]},
        src={1: {"f": "a", "g": "b"}},
        tgt={1: {"f": "b", "g": "a"}},
    )


def walking_iso_reversors() -> ReversorStructure:
    return ReversorStructure(0, {(1, 0): {"f": "g", "g": "f"}})


def walking_iso_category() -> StrictNCategory:
    """The category with two objects and one isomorphism between them."""
    gs = globular_set(
        1,
        {0: ["a", "b"], 1: ["f", "g", "id(a)", "id(b)"]},
        src={1: {"f": "a", "g": "b", "id(a)": "a", "id(b)": "b"}},
        tgt={1: {"f": "b", "g": "a", "id(a)": "a", "id(b)": "b"}},
    )
    refl = ReflexorStructure({(0, 1): {"a": "id(a)", "b": "id(b)"}})
    comp = CompositionStructure(
        {
            (1, 0): {
                ("g", "f"): "id(a)",
                ("f", "g"): "id(b)",
                ("f", "id(a)"): "f",
                ("id(b)", "f"): "f",
                ("g", "id(b)"): "g",
                ("id(a)", "g"): "g",
                ("id(a)", "id(a)"): "id(a)",
                ("id(b)", "id(b)"): "id(b)",
            }
        }
    )
    return StrictNCategory(InfinityMagma(gs, refl, comp), 0)


def poset_category(chain: list[str]) -> StrictNCategory:
    """The poset category of a finite chain; 1-cells named 'x<y'."""
    order = {p: i for i, p in enumerate(chain)}
    arrows = [(x, y) for x in chain for y in chain if order[x] <= order[y]]
    name = lambda x, y: f"{x}<{y}"
    gs = globular_set(
        1,
        {0: chain, 1: [name(x, y) for x, y in arrows]},
        src={1: {name(x, y): x for x, y in arrows}},
        tgt={1: {name(x, y): y for x, y in arrows}},
    )
    refl = ReflexorStructure({(0, 1): {x: name(x, x) for x in chain}})
    table = {
        (name(y, z), name(x, y2)): name(x, z)
        for (y, z) in arrows
        for (x, y2) in arrows
        if y2 == y
    }
    comp = CompositionStructure({(1, 0): table})
    return StrictNCategory(InfinityMagma(gs, refl, comp), 0)


def group_category(elements: list[str], mult: Callable[[str, str], str], unit: str) -> StrictNCategory:
    """A group (or monoid) as a one-object category at dimension 1."""
    gs = globular_set(
        1,
        {0: ["*"], 1: elements},
        src={1: {e: "*" for e in elements}},
        tgt={1: {e: "*" for e in elements}},
    )
    refl = ReflexorStructure({(0, 1): {"*": unit}})
    comp = CompositionStructure({(1, 0): {(y, x): mult(y, x) for y in elements for x in elements}})
    return StrictNCategory(InfinityMagma(gs, refl, comp), 0)


def cyclic_group_category(n: int) -> StrictNCategory:
    elements = [f"r{k}" for k in range(n)]
    return group_category(elements, lambda y, x: f"r{(int(y[1:]) + int(x[1:])) % n}", "r0")


def klein_four_category() -> StrictNCategory:
    table = {
        ("e", "e"): "e", ("e", "i"): "i", ("e", "j"): "j", ("e", "k"): "k",
        ("i", "e"): "i", ("i", "i"): "e", ("i", "j"): "k", ("i", "k"): "j",
        ("j", "e"): "j", ("j", "i"): "k", ("j", "j"): "e", ("j", "k"): "i",
        ("k", "e"): "k", ("k", "i"): "j", ("k", "j"): "i", ("k", "k"): "e",
    }
    return group_category(["e", "i", "j", "k"], lambda y, x: table[(y, x)], "e")


def sym3_category() -> StrictNCategory:
    """S3 as permutations of (0,1,2) in one-line notation."""
    import itertools

    perms = ["".join(map(str, p)) for p in itertools.permutations("012")]

    def mult(y: str, x: str) -> str:
        return "".join(y[int(x[i])] for i in range(3))

    return group_category(perms, mult, "012")


def product_category(cat: StrictNCategory, cat2: StrictNCategory, sep: str = "|") -> StrictNCategory:
    """Componentwise product, for generating fixture families."""
    gs, gs2 = cat.gs, cat2.gs
    if gs.max_dim != gs2.max_dim:
        raise ValueError("product requires equal truncation bounds")
    D = gs.max_dim
    name = lambda a, b: f"{a}{sep}{b}"
    cells = {m: [name(a, b) for a in gs.grade(m) for b in gs2.grade(m)] for m in range(D + 1)}
    src = {
        m: {
            name(a, b): name(gs.map("source", m)[a], gs2.map("source", m)[b])
            for a in gs.grade(m)
            for b in gs2.grade(m)
        }
        for m in range(1, D + 1)
    }
    tgt = {
        m: {
            name(a, b): name(gs.map("target", m)[a], gs2.map("target", m)[b])
            for a in gs.grade(m)
            for b in gs2.grade(m)
        }
        for m in range(1, D + 1)
    }
    prod_gs = globular_set(D, cells, src, tgt)
    refl = ReflexorStructure(
        {
            (p, p + 1): {
                name(a, b): name(cat.magma.refl.apply(p, p + 1, a), cat2.magma.refl.apply(p, p + 1, b))
                for a in gs.grade(p)
                for b in gs2.grade(p)
            }
            for p in range(D)
        }
    )
    comp_maps: dict[tuple[int, int], dict[tuple[str, str], str]] = {}
    for m in range(1, D + 1):
        for p in range(m):
            t1, t2 = cat.magma.comp.table(m, p), cat2.magma.comp.table(m, p)
            table: dict[tuple[str, str], str] = {}
            for (y1, x1), z1 in t1.items():
                for (y2, x2), z2 in t2.items():
                    table[(name(y1, y2), name(x1, x2))] = name(z1, z2)
            comp_maps[(m, p)] = table
    comp = CompositionStructure(comp_maps)
    return StrictNCategory(InfinityMagma(prod_gs, refl, comp), max(cat.threshold, cat2.threshold))


def pad_to_dim(cat: StrictNCategory, target_dim: int) -> StrictNCategory:
    """Extend a strict structure with degenerate cells up to target_dim.

    Padding cells are named 1(x) per grade; composition of degenerate cells
    is the degenerate cell of the lower composite.
    """
    gs = cat.gs
    cells = {m: list(gs.grade(m)) for m in range(gs.max_dim + 1)}
    src = {m: dict(gs.map("source", m)) for m in range(1, gs.max_dim + 1)}
    tgt = {m: dict(gs.map("target", m)) for m in range(1, gs.max_dim + 1)}
    refl_maps = {k: dict(t) for k, t in cat.magma.refl.maps.items()}
    comp_maps = {k: dict(t) for k, t in cat.magma.comp.maps.items()}

    lift: dict[str, str] = {}
    for m in range(gs.max_dim + 1, target_dim + 1):
        lower = cells[m - 1]
        lift = {x: f"1({x})" for x in lower}
        cells[m] = [lift[x] for x in lower]
        src[m] = {lift[x]: x for x in lower}
        tgt[m] = {lift[x]: x for x in lower}
        refl_maps[(m - 1, m)] = dict(lift)
        # composites of degenerate cells
        new_tables: dict[tuple[int, int], dict[tuple[str, str], str]] = {}
        new_tables[(m, m - 1)] = {(lift[x], lift[x]): lift[x] for x in lower}
        for p in range(m - 1):
            table: dict[tuple[str, str], str] = {}
            for (y, x), z in comp_maps.get((m - 1, p), {}).items():
                table[(lift[y], lift[x])] = lift[z]
            new_tables[(m, p)] = table
        for key, t in new_tables.items():
            comp_maps[key] = t

    new_gs = globular_set(target_dim, cells, src, tgt)
    return StrictNCategory(
        InfinityMagma(new_gs, ReflexorStructure(refl_maps), CompositionStructure(comp_maps)),
        cat.threshold,
    )


def square_2cat(with_spare: bool = True) -> StrictNCategory:
    """Two whiskerable 2-cells al: f0 => f1 and be: g0 => g1 over a -> b -> c.

    The homs are thin posets except for an optional spare 2-cell 'theta'
    parallel to the diagonal composite, which makes interchange mutable.
    """
    obj = ["a", "b", "c"]
    f = [f"f{i}" for i in range(2)]
    g = [f"g{j}" for j in range(2)]
    gf = {(i, j): f"g{j}f{i}" for i in range(2) for j in range(2)}
    ids1 = {x: f"1{x}" for x in obj}
    cells1 = f + g + list(gf.values()) + list(ids1.values())
    src1 = {**{x: "a" for x in f}, **{x: "b" for x in g}, **{x: "a" for x in gf.values()}}
    src1.update({ids1[x]: x for x in obj})
    tgt1 = {**{x: "b" for x in f}, **{x: "c" for x in g}, **{x: "c" for x in gf.values()}}
    tgt1.update({ids1[x]: x for x in obj})

    # thin 2-cells: one per ordered pair in each hom poset
    two: list[str] = []
    src2: dict[str, str] = {}
    tgt2: dict[str, str] = {}

    def add2(name: str, lo: str, hi: str) -> str:
        two.append(name)
        src2[name] = lo
        tgt2[name] = hi
        return name

    al = add2("al", "f0", "f1")
    be = add2("be", "g0", "g1")
    for x in f + g + list(ids1.values()):
        add2(f"1({x})", x, x)
    sq = {}
    for (i, j) in gf:
        for (i2, j2) in gf:
            if i <= i2 and j <= j2:
                nm = gf[(i, j)] + ">" + gf[(i2, j2)] if (i, j) != (i2, j2) else f"1({gf[(i, j)]})"
                sq[((i, j), (i2, j2))] = add2(nm, gf[(i, j)], gf[(i2, j2)])
    spares: list[str] = []
    if with_spare:
        # theta rides parallel to the thin diagonal, rho parallel to an identity;
        # rho is vertically idempotent so only the targeted laws can notice it
        spares = [add2("theta", gf[(0, 0)], gf[(1, 1)]), add2("rho", gf[(0, 0)], gf[(0, 0)])]

    gs = globular_set(
        2,
        {0: obj, 1: cells1, 2: two},
        src={1: src1, 2: src2},
        tgt={1: tgt1, 2: tgt2},
    )
    refl = ReflexorStructure(
        {
            (0, 1): {x: ids1[x] for x in obj},
            (1, 2): {x: f"1({x})" for x in cells1},
        }
    )

    comp10: dict[tuple[str, str], str] = {}
    for y in cells1:
        for x in cells1:
            if src1[y] != tgt1[x]:
                continue
            if y in ids1.values():
                comp10[(y, x)] = x
            elif x in ids1.values():
                comp10[(y, x)] = y
            else:
                # only g-after-f remains
                i, j = int(x[1]), int(y[1])
                comp10[(y, x)] = gf[(i, j)]

    def thin(lo: str, hi: str) -> str:
        """The unique thin 2-cell lo => hi (never a spare)."""
        for z in two:
            if z not in spares and src2[z] == lo and tgt2[z] == hi:
                return z
        raise KeyError((lo, hi))

    comp21: dict[tuple[str, str], str] = {}
    for y in two:
        for x in two:
            if src2[y] != tgt2[x]:
                continue
            if y.startswith("1("):
                comp21[(y, x)] = x
            elif x.startswith("1("):
                comp21[(y, x)] = y
            elif x == "rho":
                comp21[(y, x)] = y  # rho absorbs vertically, like an identity
            else:
                comp21[(y, x)] = thin(src2[x], tgt2[y])

    comp20: dict[tuple[str, str], str] = {}
    for y in two:
        for x in two:
            if src1[src2[y]] != tgt1[tgt2[x]]:
                continue
            if y in spares or x in spares:
                # spares only meet object units horizontally, which absorb
                comp20[(y, x)] = y if y in spares else x
                continue
            lo = comp10[(src2[y], src2[x])]
            hi = comp10[(tgt2[y], tgt2[x])]
            if src2[y] == tgt2[y] and src2[x] == tgt2[x]:
                comp20[(y, x)] = f"1({lo})"
            else:
                comp20[(y, x)] = thin(lo, hi)

    comp = CompositionStructure({(1, 0): comp10, (2, 1): comp21, (2, 0): comp20})
    return StrictNCategory(InfinityMagma(gs, refl, comp), 2)


def redirect_comp(cat: StrictNCategory, key: tuple[int, int], pair: tuple[str, str], value: str) -> StrictNCategory:
    maps = {k: dict(t) for k, t in cat.magma.comp.maps.items()}
    assert pair in maps[key]
    maps[key] = dict(maps[key])
    maps[key][pair] = value
    return StrictNCategory(
        InfinityMagma(cat.gs, cat.magma.refl, CompositionStructure(maps)), cat.threshold
    )


def redirect_refl(cat: StrictNCategory, key: tuple[int, int], cell: str, value: str) -> StrictNCategory:
    maps = {k: dict(t) for k, t in cat.magma.refl.maps.items()}
    maps[key] = dict(maps[key])
    maps[key][cell] = value
    return StrictNCategory(
        InfinityMagma(cat.gs, ReflexorStructure(maps), cat.magma.comp), cat.threshold
    )


def redirect_rev(rev: ReversorStructure, key: tuple[int, int], cell: str, value: str) -> ReversorStructure:
    maps = {k: dict(t) for k, t in rev.maps.items()}
    maps[key] = dict(maps[key])
    maps[key][cell] = value
    return ReversorStructure(rev.threshold, maps)


def identity_morphism(gs: TruncatedGlobularSet) -> GlobularMorphism:
    return GlobularMorphism(gs, gs, {m: {x: x for x in gs.grade(m)} for m in range(gs.max_dim + 1)})


def compose_morphisms(second: GlobularMorphism, first: GlobularMorphism) -> GlobularMorphism:
    if second.source is not first.target and second.source != first.target:
        raise ValueError("morphisms are not composable")
    maps = {
        m: {x: second.maps[m][first.maps[m][x]] for x in first.source.grade(m)}
        for m in range(first.source.max_dim + 1)
    }
    return GlobularMorphism(first.source, second.target, maps)


def one_edge_graph() -> TruncatedGlobularSet:
    return globular_set(1, {0: ["a", "b"], 1: ["e"]}, src={1: {"e": "a"}}, tgt={1: {"e": "b"}})


def two_edge_graph() -> TruncatedGlobularSet:
    return globular_set(
        1,
        {0: ["a", "b", "c"], 1: ["e", "f"]},
        src={1: {"e": "a", "f": "b"}},
        tgt={1: {"e": "b", "f": "c"}},
    )


def bouquet(k: int) -> TruncatedGlobularSet:
    """k loops x1..xk on one point o: its reduced words form the free group on k letters."""
    loops = [f"x{i}" for i in range(1, k + 1)]
    return globular_set(1, {0: ["o"], 1: loops}, src={1: {e: "o" for e in loops}}, tgt={1: {e: "o" for e in loops}})


def graph_file(path, name: str, g: TruncatedGlobularSet) -> str:
    """Write a graph to path as a presentation file; return the path as a string."""
    from globforge.dsl import ParsedStructure, emit_structure
    from globforge.magma import NMagma

    nm = NMagma.of(g, 0, {}, {}, {})
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(emit_structure(ParsedStructure(nm.magma, nm.rev, name)))
    return str(path)


def abelian_2cat_lines(n: int) -> list[str]:
    """Z_n as a strict 2-category on one object o and one arrow i, as presentation lines:
    both compositions of the 2-cells a0..a(n-1) are addition mod n (Eckmann-Hilton)."""
    a = [f"a{i}" for i in range(n)]
    lines = ["dim 2", "threshold 1", "cells 0: o", "cells 1: i", "cells 2: " + " ".join(a), "src i = o", "tgt i = o"]
    lines += [f"{face} {x} = i" for x in a for face in ("src", "tgt")]
    lines += ["refl 0 1 o = i", "refl 1 2 i = a0", "comp 1 0 (i, i) = i", "rev 2 1 a1 = a1"]
    return lines + [f"comp 2 {p} ({a[i]}, {a[j]}) = {a[(i + j) % n]}" for p in (0, 1) for i in range(n) for j in range(n)]


def identity_stretching(cat: StrictNCategory):
    """pi = identity; brackets only on the diagonal, where they are reflexors."""
    from globforge.magma import NMagma, derive_canonical_reversors
    from globforge.stretching import Stretching

    rev = derive_canonical_reversors(cat)
    nm = NMagma(cat.magma, rev)
    gs = cat.gs
    pi = {m: {x: x for x in gs.grade(m)} for m in range(gs.max_dim + 1)}
    brackets = {}
    for m in range(gs.max_dim):
        for x in gs.grade(m):
            image = cat.magma.refl.table(m, m + 1).get(x)
            if image is not None:
                brackets[(m, x, x)] = image
    return Stretching(nm, nm, cat.threshold, pi, brackets)


def graded_loop_stretching():
    """Two pi-equal parallel loops u, w over a two-element strict side.

    The 2-cells carry a parity that the projection reads off, plus one spare
    cell Q parallel to an identity with identity projection; this makes each
    bracket axiom breakable on its own.
    """
    from globforge.magma import NMagma
    from globforge.stretching import Stretching

    ones = ["i0", "u", "w"]
    mult1 = lambda y, x: x if y == "i0" else (y if x == "i0" else "i0")
    q = lambda x, y, k: f"q({x},{y},{k})"
    two = [q(x, y, k) for x in ones for y in ones for k in (0, 1)] + ["Q"]

    def faces(z):
        if z == "Q":
            return ("u", "u")
        inner = z[2:-1].split(",")
        return (inner[0], inner[1])

    def parity(z):
        return 0 if z == "Q" else int(z[-2])

    gs = globular_set(
        2,
        {0: ["pt"], 1: ones, 2: two},
        src={1: {x: "pt" for x in ones}, 2: {z: faces(z)[0] for z in two}},
        tgt={1: {x: "pt" for x in ones}, 2: {z: faces(z)[1] for z in two}},
    )
    refl = ReflexorStructure(
        {(0, 1): {"pt": "i0"}, (1, 2): {x: q(x, x, 0) for x in ones}}
    )
    comp21 = {}
    comp20 = {}
    for zy in two:
        for zx in two:
            xy, yy = faces(zy)
            xx, yx = faces(zx)
            if xy == yx:
                comp21[(zy, zx)] = q(xx, yy, (parity(zy) + parity(zx)) % 2)
            comp20[(zy, zx)] = q(
                mult1(xy, xx), mult1(yy, yx), (parity(zy) + parity(zx)) % 2
            )
    comp10 = {(y, x): mult1(y, x) for y in ones for x in ones}
    comp = CompositionStructure({(1, 0): comp10, (2, 1): comp21, (2, 0): comp20})
    flip1 = {"i0": "i0", "u": "w", "w": "u"}
    rev = ReversorStructure(
        0,
        {
            (1, 0): flip1,
            (2, 1): {z: q(faces(z)[1], faces(z)[0], parity(z)) for z in two},
            (2, 0): {z: q(flip1[faces(z)[0]], flip1[faces(z)[1]], parity(z)) for z in two},
        },
    )
    m_side = NMagma(InfinityMagma(gs, refl, comp), rev)

    cones = ["e", "m"]
    cmult = lambda y, x: x if y == "e" else ("e" if x == "m" else "m")
    c = lambda x, y, k: f"c({x},{y},{k})"
    ctwo = [c(x, y, k) for x in cones for y in cones for k in (0, 1)]
    cfaces = lambda z: tuple(z[2:-1].split(","))[:2]
    cparity = lambda z: int(z[-2])
    cgs = globular_set(
        2,
        {0: ["pt"], 1: cones, 2: ctwo},
        src={1: {x: "pt" for x in cones}, 2: {z: cfaces(z)[0] for z in ctwo}},
        tgt={1: {x: "pt" for x in cones}, 2: {z: cfaces(z)[1] for z in ctwo}},
    )
    crefl = ReflexorStructure(
        {(0, 1): {"pt": "e"}, (1, 2): {x: c(x, x, 0) for x in cones}}
    )
    ccomp21 = {}
    ccomp20 = {}
    for zy in ctwo:
        for zx in ctwo:
            xy, yy = cfaces(zy)
            xx, yx = cfaces(zx)
            if xy == yx:
                ccomp21[(zy, zx)] = c(xx, yy, (cparity(zy) + cparity(zx)) % 2)
            ccomp20[(zy, zx)] = c(
                cmult(xy, xx), cmult(yy, yx), (cparity(zy) + cparity(zx)) % 2
            )
    ccomp10 = {(y, x): cmult(y, x) for y in cones for x in cones}
    ccomp = CompositionStructure({(1, 0): ccomp10, (2, 1): ccomp21, (2, 0): ccomp20})
    crev = ReversorStructure(
        0,
        {
            (1, 0): {"e": "e", "m": "m"},
            (2, 1): {z: c(cfaces(z)[1], cfaces(z)[0], cparity(z)) for z in ctwo},
            (2, 0): {z: z for z in ctwo},
        },
    )
    c_side = NMagma(InfinityMagma(cgs, crefl, ccomp), crev)

    pi1 = {"i0": "e", "u": "m", "w": "m"}
    pi = {
        0: {"pt": "pt"},
        1: pi1,
        2: {z: c(pi1[faces(z)[0]], pi1[faces(z)[1]], parity(z)) for z in two},
    }
    brackets = {
        (1, "w", "u"): q("u", "w", 0),
        (1, "u", "u"): q("u", "u", 0),
        (0, "pt", "pt"): "i0",
    }
    return Stretching(m_side, c_side, 0, pi, brackets)


def redirect_bracket(E, key, value):
    from globforge.stretching import Stretching

    brackets = dict(E.brackets)
    brackets[key] = value
    return Stretching(E.m_side, E.c_side, E.threshold, E.pi, brackets)


def redirect_pi(E, m, cell, value):
    from globforge.stretching import Stretching

    pi = {k: dict(t) for k, t in E.pi.items()}
    pi[m][cell] = value
    return Stretching(E.m_side, E.c_side, E.threshold, pi, E.brackets)
