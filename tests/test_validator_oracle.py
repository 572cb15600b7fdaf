"""The indexed strict-structure validators against brute-force oracles.

validate_strict reads associativity off table columns and interchange off
the fibres of the q-table; validate_magma reads boundaries from per-grade
tables.  The oracles below are the direct forms: z over the whole grade for
every stored (y, x), every pair of q-composites for interchange, and one
boundary() call per entry, and the unit and reflexor clauses over every
0 <= q < p < m <= max_dim.  Reports must be byte-equal under emit_report.
On total tables validate_strict first tries Light's test over a generating
set, and the spy tests below watch when that fast path passes.
"""

import random
import time
from collections import Counter

import pytest
from fixtures import (
    abelian_2cat_lines,
    bouquet,
    cyclic_group_category,
    klein_four_category,
    pad_to_dim,
    poset_category,
    product_category,
    redirect_comp,
    identity_morphism,
    redirect_refl,
    square_2cat,
    sym3_category,
    two_edge_graph,
    walking_iso_category,
)
from test_acceptance import _strict_fixtures
from hypothesis import given, settings, strategies as st

from globforge import magma
from globforge.dsl import parse_structure
from globforge.globular import boundary, globular_set
from globforge.layers import (
    ReflexorStructure,
    ReversorStructure,
    validate_involutive,
    validate_reflexors,
    validate_reversors,
)
from globforge.magma import (
    LAW_ASSOC,
    LAW_COMP_TOTAL,
    LAW_INTERCHANGE,
    LAW_POSITIONAL_A,
    LAW_POSITIONAL_B,
    LAW_POSITIONAL_C,
    LAW_REFL_FUNCTORIAL,
    LAW_UNITS,
    CompositionStructure,
    InfinityMagma,
    StrictNCategory,
    check_functor_reversors,
    validate_magma,
    validate_strict,
)
from globforge.report import ValidationReport, emit_report
from globforge.stretching import generate_free_stretching
from globforge.words import free_groupoid_cells


def _assoc_interchange_oracle(mag: InfinityMagma, require_total: bool) -> ValidationReport:
    rep = ValidationReport("strict")
    gs, comp = mag.gs, mag.comp
    for (m, p), table in sorted(comp.maps.items()):
        for (y, x), yx in sorted(table.items()):
            for z in gs.grade(m):
                zy = comp.get(m, p, z, y)
                if zy is None:
                    continue
                left = comp.get(m, p, zy, x)
                right = comp.get(m, p, z, yx)
                if left is None or right is None:
                    if require_total:
                        rep.add(
                            "assoc.triple", LAW_ASSOC, (z, y, x),
                            f"a composite needed for the triple ({z}, {y}, {x}) over comp[{m}][{p}] is missing",
                        )
                    continue
                if left != right:
                    rep.add(
                        "assoc.triple", LAW_ASSOC, (z, y, x),
                        f"(({z} o {y}) o {x}) = {left} but ({z} o ({y} o {x})) = {right} over comp[{m}][{p}]",
                    )
    for m in range(2, gs.max_dim + 1):
        for p in range(m - 1):
            for q in range(p + 1, m):
                table_q = comp.table(m, q)
                for (y2, y1), yy in sorted(table_q.items()):
                    for (x2, x1), xx in sorted(table_q.items()):
                        outer = comp.get(m, p, yy, xx)
                        if outer is None:
                            continue
                        a = comp.get(m, p, y2, x2)
                        b = comp.get(m, p, y1, x1)
                        if a is None or b is None:
                            continue
                        other = comp.get(m, q, a, b)
                        if other is None:
                            continue
                        if outer != other:
                            rep.add(
                                "interchange.square", LAW_INTERCHANGE, (y2, y1, x2, x1),
                                f"(({y2} o_{q} {y1}) o_{p} ({x2} o_{q} {x1})) = {outer} "
                                f"but (({y2} o_{p} {x2}) o_{q} ({y1} o_{p} {x1})) = {other}",
                            )
    return rep


def _lift(refl: ReflexorStructure, p: int, m: int, x: str) -> str | None:
    """refl[p][m](x) walked one step at a time through the one-step tables, None where a step is missing."""
    for k in range(p, m):
        x = refl.maps.get((k, k + 1), {}).get(x)
        if x is None:
            return None
    return x


def _units_reflexors_oracle(mag: InfinityMagma, require_total: bool) -> ValidationReport:
    rep = ValidationReport("strict")
    gs, refl, comp = mag.gs, mag.refl, mag.comp
    for m in range(1, gs.max_dim + 1):
        for p in range(m):
            for x in gs.grade(m):
                sx, tx = boundary(gs, m, x, p, "source"), boundary(gs, m, x, p, "target")
                unit_s, unit_t = _lift(refl, p, m, sx), _lift(refl, p, m, tx)
                if unit_s is None or unit_t is None:
                    continue
                right = comp.get(m, p, x, unit_s)
                left = comp.get(m, p, unit_t, x)
                if right is None or left is None:
                    if require_total:
                        rep.add("units.missing", LAW_UNITS, (x,),
                                f"a unit composite for {x} over comp[{m}][{p}] is missing")
                    continue
                if right != x:
                    rep.add("units.right", LAW_UNITS, (x,),
                            f"{x} o[{m},{p}] refl[{p}][{m}]({sx}) = {right}, expected {x}")
                if left != x:
                    rep.add("units.left", LAW_UNITS, (x,),
                            f"refl[{p}][{m}]({tx}) o[{m},{p}] {x} = {left}, expected {x}")
    for m in range(2, gs.max_dim + 1):
        for p in range(1, m):
            for q in range(p):
                for (y, x), yx in sorted(comp.table(p, q).items()):
                    ry, rx, ryx = _lift(refl, p, m, y), _lift(refl, p, m, x), _lift(refl, p, m, yx)
                    if None in (ry, rx, ryx):
                        continue
                    together = comp.get(m, q, ry, rx)
                    if together is None:
                        if require_total:
                            rep.add("refl-functorial.pair", LAW_REFL_FUNCTORIAL, (y, x),
                                    f"comp[{m}][{q}] misses (refl({y}), refl({x}))")
                    elif ryx != together:
                        rep.add("refl-functorial.pair", LAW_REFL_FUNCTORIAL, (y, x),
                                f"refl[{p}][{m}]({y} o[{p},{q}] {x}) = {ryx} "
                                f"but refl({y}) o[{m},{q}] refl({x}) = {together}")
    return rep


def _compatible_pairs(gs, m: int, p: int) -> list[tuple[str, str]]:
    by_src: dict[str, list[str]] = {}
    for y in gs.grade(m):
        by_src.setdefault(boundary(gs, m, y, p, "source"), []).append(y)
    pairs = []
    for x in gs.grade(m):
        for y in by_src.get(boundary(gs, m, x, p, "target"), ()):
            pairs.append((y, x))
    return pairs


def _magma_oracle(mag: InfinityMagma, require_total: bool) -> ValidationReport:
    rep = ValidationReport("magma")
    gs, comp = mag.gs, mag.comp
    for (m, p), table in sorted(comp.maps.items()):
        if not (0 <= p < m <= gs.max_dim):
            rep.add(
                "positional.domain", LAW_COMP_TOTAL, (),
                f"table comp[{m}][{p}] is outside the range 0 <= p < m <= {gs.max_dim}",
            )
            continue
        grade = gs.cell_sets[m]
        for (y, x), z in sorted(table.items()):
            if y not in grade or x not in grade or z not in grade:
                rep.add(
                    "positional.domain", LAW_COMP_TOTAL, (y, x, z),
                    f"comp[{m}][{p}] entry ({y}, {x}) -> {z} mentions cells outside grade {m}",
                )
                continue
            if boundary(gs, m, y, p, "source") != boundary(gs, m, x, p, "target"):
                rep.add(
                    "positional.domain", LAW_COMP_TOTAL, (y, x),
                    f"comp[{m}][{p}] is defined on ({y}, {x}) although the pair is not {p}-compatible",
                )
    if not rep.valid:
        return rep
    if require_total:
        for m in range(1, gs.max_dim + 1):
            for p in range(m):
                table = comp.table(m, p)
                for (y, x) in _compatible_pairs(gs, m, p):
                    if (y, x) not in table:
                        rep.add(
                            "positional.total", LAW_COMP_TOTAL, (y, x),
                            f"comp[{m}][{p}] misses the compatible pair ({y}, {x})",
                        )
    for (m, p), table in sorted(comp.maps.items()):
        for (y, x), z in sorted(table.items()):
            for q in range(m):
                for side, tag in (("source", "src"), ("target", "tgt")):
                    bz = boundary(gs, m, z, q, side)
                    if q > p:
                        by = boundary(gs, m, y, q, side)
                        bx = boundary(gs, m, x, q, side)
                        want = comp.get(q, p, by, bx)
                        if want is None:
                            if require_total:
                                rep.add(
                                    "positional.total", LAW_COMP_TOTAL, (by, bx),
                                    f"comp[{q}][{p}] misses ({by}, {bx}) needed for the boundary of ({y}, {x})",
                                )
                            continue
                        if bz != want:
                            rep.add(
                                "positional.a", LAW_POSITIONAL_A, (y, x, z),
                                f"{tag}_{q}({y} o[{m},{p}] {x}) = {bz} but the composite of boundaries is {want}",
                            )
                    elif q == p:
                        want = boundary(gs, m, x if side == "source" else y, q, side)
                        if bz != want:
                            rep.add(
                                "positional.b", LAW_POSITIONAL_B, (y, x, z),
                                f"{tag}_{p}({y} o[{m},{p}] {x}) = {bz}, expected {want}",
                            )
                    elif bz != boundary(gs, m, x, q, side):
                        rep.add(
                            "positional.c", LAW_POSITIONAL_C, (y, x, z),
                            f"{tag}_{q}({y} o[{m},{p}] {x}) = {bz}, "
                            f"expected the shared boundary {boundary(gs, m, x, q, side)}",
                        )
    return rep


def _assoc_interchange(rep: ValidationReport) -> ValidationReport:
    """The part of a strict report that the oracle above covers."""
    out = ValidationReport(rep.subject)
    out.violations = [v for v in rep.violations if v.axiom.split(".")[0] in ("assoc", "interchange")]
    return out


def _agree(mag: InfinityMagma) -> bool:
    """Both validators match their oracles in both modes; True if any report has violations."""
    found = False
    for total in (True, False):
        strict = emit_report(validate_strict(mag, require_total=total))
        oracle = _assoc_interchange_oracle(mag, total)
        oracle.extend(_units_reflexors_oracle(mag, total))
        assert strict == emit_report(oracle)
        magma = emit_report(validate_magma(mag, require_total=total))
        assert magma == emit_report(_magma_oracle(mag, total))
        found = found or '"valid": false' in strict + magma
    return found


def _free_stretching_strict_side():
    g = globular_set(
        2,
        {0: ["a", "b"], 1: ["f0", "f1"], 2: ["al"]},
        src={1: {"f0": "a", "f1": "a"}, 2: {"al": "f0"}},
        tgt={1: {"f0": "b", "f1": "b"}, 2: {"al": "f1"}},
    )
    return generate_free_stretching(g, 2, 2, 6).c_side.magma


def _left_factor_only():
    # u is the left factor of (u, v) and the right factor of nothing
    gs = globular_set(1, {0: ["o"], 1: ["u", "v"]}, src={1: dict.fromkeys("uv", "o")},
                      tgt={1: dict.fromkeys("uv", "o")})
    comp = CompositionStructure({(1, 0): {("u", "v"): "u", ("v", "v"): "v"}})
    return InfinityMagma(gs, ReflexorStructure({(0, 1): {"o": "v"}}), comp)


FIXTURES = {
    "iso": walking_iso_category(),
    "poset3": poset_category(["a", "b", "c"]),
    "z2": cyclic_group_category(2),
    "z5": cyclic_group_category(5),
    "klein": klein_four_category(),
    "s3": sym3_category(),
    "square": square_2cat(),
    "square-thin": square_2cat(with_spare=False),
    "iso-padded": pad_to_dim(walking_iso_category(), 2),
    "poset3-padded": pad_to_dim(poset_category(["a", "b", "c"]), 2),
    "z2-padded": pad_to_dim(cyclic_group_category(2), 3),
    "square-padded": pad_to_dim(square_2cat(), 3),
}


@pytest.mark.parametrize("name", sorted(FIXTURES))
def test_strict_fixtures_match_oracles(name):
    _agree(FIXTURES[name].magma)


@pytest.mark.parametrize("max_len", range(5))
def test_free_groupoid_bouquet_matches_oracles(max_len):
    _agree(free_groupoid_cells(bouquet(2), max_len).magma)


@pytest.mark.parametrize("max_len", range(5))
def test_free_groupoid_path_matches_oracles(max_len):
    _agree(free_groupoid_cells(two_edge_graph(), max_len).magma)


def test_free_stretching_strict_side_matches_oracles():
    _agree(_free_stretching_strict_side())


def test_left_factor_that_is_never_a_right_factor():
    mag = _left_factor_only()
    assert _agree(mag)  # the total magma misses (u, u) and (v, u)
    assert validate_strict(mag, require_total=False).valid


def test_every_redirect_of_z5_matches_oracles():
    cat = cyclic_group_category(5)
    table = cat.magma.comp.table(1, 0)
    flagged = 0
    for pair, z in sorted(table.items()):
        for value in cat.gs.grade(1):
            if value != z:
                flagged += _agree(redirect_comp(cat, (1, 0), pair, value).magma)
    assert flagged == 4 * len(table)


def test_every_redirect_of_square_matches_oracles():
    # each entry is sent to the next cell of its grade, so every entry moves once
    cat = square_2cat()
    flagged = moved = 0
    for key, table in sorted(cat.magma.comp.maps.items()):
        grade = cat.gs.grade(key[0])
        for pair, z in sorted(table.items()):
            value = grade[(grade.index(z) + 1) % len(grade)]
            flagged += _agree(redirect_comp(cat, key, pair, value).magma)
            moved += 1
    assert flagged == moved


def test_every_reflexor_redirect_matches_oracles():
    # each one-step reflexor entry is sent to every other cell of its grade
    cat = pad_to_dim(walking_iso_category(), 3)
    flagged = 0
    for (p, m), table in sorted(cat.magma.refl.maps.items()):
        for cell, image in sorted(table.items()):
            for value in cat.gs.grade(m):
                if value != image:
                    flagged += _agree(redirect_refl(cat, (p, m), cell, value).magma)
    assert flagged


CELLS = [f"c{i}" for i in range(6)]


@st.composite
def _partial_tables(draw):
    """A one-object carrier whose top cells are loops, with random partial tables."""
    dim = draw(st.integers(1, 2))
    top = CELLS[: draw(st.integers(1, len(CELLS)))]
    pairs = st.tuples(st.sampled_from(top), st.sampled_from(top))
    tables = {
        (dim, p): draw(st.dictionaries(pairs, st.sampled_from(top), max_size=len(top) ** 2))
        for p in range(dim)
    }
    if dim == 1:
        gs = globular_set(1, {0: ["o"], 1: top}, {1: dict.fromkeys(top, "o")}, {1: dict.fromkeys(top, "o")})
        refl = {(0, 1): {"o": top[0]}}
    else:
        gs = globular_set(2, {0: ["o"], 1: ["i"], 2: top},
                          {1: {"i": "o"}, 2: dict.fromkeys(top, "i")}, {1: {"i": "o"}, 2: dict.fromkeys(top, "i")})
        refl = {(0, 1): {"o": "i"}, (1, 2): {"i": top[0]}}
        tables[(1, 0)] = {("i", "i"): "i"}
    return InfinityMagma(gs, ReflexorStructure(refl), CompositionStructure(tables))


@settings(max_examples=120, deadline=None)
@given(_partial_tables())
def test_random_partial_tables_match_oracles(mag):
    _agree(mag)


@st.composite
def _square_tables(draw):
    """square_2cat's carrier with random entries, compatible or not, in each of its tables."""
    cat = square_2cat()
    tables = {}
    for (m, p) in cat.magma.comp.maps:
        cells = st.sampled_from(cat.gs.grade(m))
        tables[(m, p)] = draw(st.dictionaries(st.tuples(cells, cells), cells, max_size=12))
    return InfinityMagma(cat.gs, cat.magma.refl, CompositionStructure(tables))


@settings(max_examples=60, deadline=None)
@given(_square_tables())
def test_random_square_tables_match_oracles(mag):
    _agree(mag)


TOTAL = {
    **{f"z{n}": cyclic_group_category(n) for n in range(1, 7)},
    "klein": klein_four_category(),
    "s3": sym3_category(),
    "iso": walking_iso_category(),
    **{f"poset{k}": poset_category(list("abcd"[:k])) for k in range(1, 5)},
    "square": square_2cat(),
}


def _without(cat, key: tuple[int, int], pair: tuple[str, str]) -> InfinityMagma:
    maps = {k: dict(t) for k, t in cat.magma.comp.maps.items()}
    del maps[key][pair]
    return InfinityMagma(cat.gs, cat.magma.refl, CompositionStructure(maps))


@st.composite
def _total_tables_one_entry_off(draw):
    """A total fixture with one entry redirected to any cell of its grade, or deleted."""
    cat = TOTAL[draw(st.sampled_from(sorted(TOTAL)))]
    key = draw(st.sampled_from(sorted(cat.magma.comp.maps)))
    pair = draw(st.sampled_from(sorted(cat.magma.comp.table(*key))))
    value = draw(st.sampled_from((None, *cat.gs.grade(key[0]))))
    if value is None:
        return _without(cat, key, pair)
    return redirect_comp(cat, key, pair, value).magma


@settings(max_examples=150, deadline=None)
@given(_total_tables_one_entry_off())
def test_total_tables_with_one_entry_off_match_oracles(mag):
    _agree(mag)


def _with(cat, key: tuple[int, int], pair: tuple[str, str], value: str) -> InfinityMagma:
    maps = {k: dict(t) for k, t in cat.magma.comp.maps.items()}
    maps.setdefault(key, {})[pair] = value
    return InfinityMagma(cat.gs, cat.magma.refl, CompositionStructure(maps))


def _loops(table: dict[tuple[str, str], str]) -> InfinityMagma:
    """One object with the loops a and b, composed by the given table; no reflexors, so no unit laws."""
    gs = globular_set(1, {0: ["o"], 1: ["a", "b"]}, src={1: dict.fromkeys("ab", "o")},
                      tgt={1: dict.fromkeys("ab", "o")})
    return InfinityMagma(gs, ReflexorStructure({}), CompositionStructure({(1, 0): table}))


# name: (magma, valid under require_total, valid on fragments)
COLUMN_EDGES = {
    # a<b is the right factor of b<b only, so its itemgetters gather a single cell
    "one-entry-column": (poset_category(["a", "b"]).magma, True, True),
    # b's column holds only (a, b): (a o b) o a = b but a o (b o a) = a
    "one-entry-column-broken": (_loops({("a", "a"): "b", ("a", "b"): "a", ("b", "a"): "b"}), False, False),
    # b = a o a is the right factor of nothing, so z o (a o a) has no column to read
    "composite-without-column": (_loops({("a", "a"): "b", ("b", "a"): "a"}), False, True),
    # r2's column misses only r1 o r2, in an otherwise total table
    "one-absent-entry": (_without(cyclic_group_category(4), (1, 0), ("r1", "r2")), False, True),
    "one-absent-entry-iso": (_without(walking_iso_category(), (1, 0), ("g", "f")), False, True),
}


@pytest.mark.parametrize("name", sorted(COLUMN_EDGES))
def test_column_edge_cases_match_oracles(name):
    mag, valid_total, valid_fragment = COLUMN_EDGES[name]
    _agree(mag)
    assert validate_strict(mag, require_total=True).valid == valid_total
    assert validate_strict(mag, require_total=False).valid == valid_fragment


def _pair_groupoid(k: int) -> InfinityMagma:
    """One arrow a{i}.{j} from each object o{j} to each o{i}: k^2 cells and k^3 composites."""
    arrow = "a{}.{}".format
    cells = [(i, j) for i in range(k) for j in range(k)]
    gs = globular_set(
        1, {0: [f"o{i}" for i in range(k)], 1: [arrow(i, j) for i, j in cells]},
        src={1: {arrow(i, j): f"o{j}" for i, j in cells}}, tgt={1: {arrow(i, j): f"o{i}" for i, j in cells}},
    )
    table = {(arrow(i, j), arrow(j, l)): arrow(i, l) for i, j in cells for l in range(k)}
    return InfinityMagma(gs, ReflexorStructure({}), CompositionStructure({(1, 0): table}))


def _pair_groupoid_redirected(k: int, value: str) -> InfinityMagma:
    cat = _pair_groupoid(k)
    table = {**cat.comp.maps[1, 0], ("a0.0", "a0.1"): value}
    return InfinityMagma(cat.gs, cat.refl, CompositionStructure({(1, 0): table}))


def _pair_groupoid_to_last(k: int) -> InfinityMagma:
    """a0.0 o a0.1 redirected to the cell numbered last, which as number 255 would read as absent."""
    return _pair_groupoid_redirected(k, magma._columns(_pair_groupoid(k).comp.maps[1, 0])[0][-1])


def _pair_groupoid_holed(k: int) -> InfinityMagma:
    """About 2% of the entries dropped, a triple with both sides absent, and one stored composite wrong."""
    table = _pair_groupoid(k).comp.maps[1, 0]
    rng = random.Random(k)
    holed = {pair: z for pair, z in table.items() if rng.random() > 0.02}
    # the triple (a0.1, a1.2, a2.3) keeps z o y and y o x, but (z o y) o x and z o (y o x) are both absent
    holed.update({("a0.1", "a1.2"): "a0.2", ("a1.2", "a2.3"): "a1.3"})
    for pair in (("a0.2", "a2.3"), ("a0.1", "a1.3")):
        del holed[pair]
    holed[("a3.4", "a4.5")] = "a3.6"
    assert len(magma._columns(holed)[0]) == k * k
    return InfinityMagma(_pair_groupoid(k).gs, ReflexorStructure({}), CompositionStructure({(1, 0): holed}))


@pytest.mark.parametrize("k", [15, 16])  # 225 cells read as byte rows, 256 by a plain loop
def test_pair_groupoids_on_both_sides_of_255_cells_match_the_oracle(k):
    for mag, valid_total in ((_pair_groupoid(k), True), (_pair_groupoid_to_last(k), False)):
        rep = validate_strict(mag)
        assert emit_report(rep) == emit_report(_assoc_interchange_oracle(mag, True))
        assert rep.valid == valid_total


@pytest.mark.parametrize("k", [15, 16])  # 225 cells read as byte rows, 256 by a plain loop
def test_missing_composites_on_both_sides_of_255_cells_match_the_oracle(k):
    mag = _pair_groupoid_holed(k)
    for total in (True, False):
        rep = validate_strict(mag, require_total=total)
        assert emit_report(rep) == emit_report(_assoc_interchange_oracle(mag, total))
        assert (("a0.1", "a1.2", "a2.3") in [v.cells for v in rep.violations]) == total
        assert any(" but " in v.detail for v in rep.violations)  # the wrong composite, on both sides


def _eckmann_hilton(n: int, without: str = "") -> InfinityMagma:
    """Z_n as a strict 2-category on one object and one arrow, optionally without one comp line."""
    return parse_structure("\n".join(line for line in abelian_2cat_lines(n) if line != without)).magma


def test_interchange_blocks_without_a_composite_are_read_square_by_square():
    assert not _agree(_eckmann_hilton(3))
    assert not list(magma._differing_squares(*(_eckmann_hilton(3).comp.maps[key] for key in ((2, 0), (2, 1)))))
    mag = _eckmann_hilton(3, without="comp 2 0 (a1, a2) = a0")
    # the blocks differ where a square needs a1 o_0 a2, as its outer composite or as y2 o_0 x2 or
    # y1 o_0 x1, and each such square misses a side, so none is yielded
    assert not list(magma._differing_squares(mag.comp.maps[2, 0], mag.comp.maps[2, 1]))
    assert validate_strict(mag, require_total=False).valid  # those squares are skipped, not reported
    assert not validate_strict(mag, require_total=True).valid  # associativity and units miss the composite
    assert _agree(mag)


def _z3_beside_units(k: int) -> InfinityMagma:
    """Z_3 as a strict 2-category on the loop i0 at o0, beside the objects o1..ok whose loops ij each
    bear one 2-cell uj, its own composite over 0 and over 1: the two 2-tables number k + 3 cells
    together and hold k + 9 entries each."""
    loops = {f"i{j}": f"o{j}" for j in range(k + 1)}
    faces = {**{f"a{i}": "i0" for i in range(3)}, **{f"u{j}": f"i{j}" for j in range(1, k + 1)}}
    gs = globular_set(2, {0: list(loops.values()), 1: list(loops), 2: list(faces)},
                      src={1: loops, 2: faces}, tgt={1: loops, 2: faces})
    two = {(f"a{i}", f"a{j}"): f"a{(i + j) % 3}" for i in range(3) for j in range(3)}
    two.update(((u, u), u) for u in faces if u[0] == "u")
    comp = {(1, 0): {(i, i): i for i in loops}, (2, 0): two, (2, 1): dict(two)}
    return InfinityMagma(gs, ReflexorStructure({}), CompositionStructure(comp))


def _z3_beside_units_and_mutants(k: int) -> list[InfinityMagma]:
    """_z3_beside_units(k), then a1 o a2 redirected, over 0 or over 1, to the cell numbered last, which as
    number 255 would read as absent."""
    valid = _z3_beside_units(k)
    maps = valid.comp.maps
    names = magma._columns(maps[2, 0], maps[2, 1])[0]
    assert len(names) == k + 3
    return [valid, *(
        InfinityMagma(valid.gs, valid.refl, CompositionStructure({**maps, key: {**maps[key], ("a1", "a2"): names[-1]}}))
        for key in ((2, 0), (2, 1))
    )]


@pytest.mark.parametrize("k", [252, 253])  # 255 cells read as byte rows, 256 by a plain loop
def test_two_dimensional_tables_on_both_sides_of_255_cells_match_the_oracle(k):
    valid, *mutants = _z3_beside_units_and_mutants(k)
    for mag in (valid, *mutants):
        rep = validate_strict(mag)
        assert emit_report(rep) == emit_report(_assoc_interchange_oracle(mag, True))
        assert ("interchange.square" in rep.axiom_ids()) == (mag is not valid)


AROUND_255 = {  # name: the magma, tables of at most 255 cells read as byte rows, above by a plain loop
    **{f"pairs{k}": _pair_groupoid(k) for k in (15, 16)},
    **{f"pairs{k}-to-last": _pair_groupoid_to_last(k) for k in (15, 16)},
    **{f"pairs{k}-holed": _pair_groupoid_holed(k) for k in (15, 16)},
    **{f"z3-beside-{k}-{i}": mag for k in (252, 253) for i, mag in enumerate(_z3_beside_units_and_mutants(k))},
}


@pytest.mark.parametrize("name", sorted(AROUND_255))
def test_each_item_the_generators_yield_is_one_violation(name):
    mag = AROUND_255[name]
    for total in (True, False):
        triples, squares = [], []
        for (m, p), table in mag.comp.maps.items():
            names, _, cols = magma._columns(table)
            triples += [tuple(map(names.__getitem__, item[:3]))
                        for item in magma._differing_triples(cols, range(len(names)), total)]
            for q in range(p + 1, m):
                squares += [item[:4] for item in magma._differing_squares(table, mag.comp.maps[m, q])]
        violations = validate_strict(mag, require_total=total).violations
        assert sorted(triples) == sorted(v.cells for v in violations if v.axiom == "assoc.triple")
        assert sorted(squares) == sorted(v.cells for v in violations if v.axiom == "interchange.square")
        assert triples or squares or name in ("pairs15", "pairs16", "z3-beside-252-0", "z3-beside-253-0")


def test_z64_as_a_two_category_validates_in_under_half_a_second():
    # interchange read each of the 64^4 squares with a set lookup: 1.5 s
    mag = _eckmann_hilton(64)
    start = time.perf_counter()
    rep = validate_strict(mag)
    assert time.perf_counter() - start < 0.5
    assert rep.valid


def _spy(monkeypatch):
    """Record what each Light's test returns and the generators it picks."""
    results, generator_sets = [], []
    light_test, generators = magma._light_test, magma._generators

    def light_test_spy(*args):
        results.append(light_test(*args))
        return results[-1]

    def generators_spy(*args):
        generator_sets.append(generators(*args))
        return generator_sets[-1]

    monkeypatch.setattr(magma, "_light_test", light_test_spy)
    monkeypatch.setattr(magma, "_generators", generators_spy)
    return results, generator_sets


@pytest.mark.parametrize("n", range(1, 7))
def test_light_test_passes_on_cyclic_groups(monkeypatch, n):
    results, generator_sets = _spy(monkeypatch)
    assert validate_strict(cyclic_group_category(n).magma).valid
    assert results == [True]
    assert [len(gens) for gens in generator_sets] == [min(n, 2)]


SCAN_ONLY = {
    "absent-pair": (_without(cyclic_group_category(4), (1, 0), ("r1", "r2")), True, [False]),
    "absent-pair-iso": (_without(walking_iso_category(), (1, 0), ("g", "f")), True, [False]),
    # f o id(a) and id(b) o f should run a -> b; id(a) ends at a, id(b) starts at b
    "wrong-target": (redirect_comp(walking_iso_category(), (1, 0), ("f", "id(a)"), "id(a)").magma, True, [False]),
    "wrong-source": (redirect_comp(walking_iso_category(), (1, 0), ("id(b)", "f"), "id(b)").magma, True, [False]),
    "not-total": (cyclic_group_category(4).magma, False, []),
    # f o id(a) sent to the 0-cell a, which has no 1-faces to look up
    "composite-outside-grade": (_with(walking_iso_category(), (1, 0), ("f", "id(a)"), "a"), True, [False]),
    # comp[1][1] lies outside 0 <= p < m <= 1, after the total comp[1][0]
    "table-out-of-range": (_with(cyclic_group_category(3), (1, 1), ("r0", "r0"), "r0"), True, [True, False]),
}


@pytest.mark.parametrize("name", sorted(SCAN_ONLY))
def test_light_test_fails_or_is_not_reached(monkeypatch, name):
    mag, total, expected = SCAN_ONLY[name]
    results, _ = _spy(monkeypatch)
    rep = validate_strict(mag, require_total=total)
    assert results == expected
    assert emit_report(_assoc_interchange(rep)) == emit_report(_assoc_interchange_oracle(mag, total))


def test_every_fixture_is_worded_as_the_oracle_words_it():
    cats = {**_strict_fixtures(), **{f"z{n}": cyclic_group_category(n) for n in (1, 7, 30)}}
    for name, cat in cats.items():
        for total in (True, False):
            rep = validate_magma(cat.magma, require_total=total)
            assert emit_report(rep) == emit_report(_magma_oracle(cat.magma, total)), (name, total)
            assert rep.valid or total, name  # every fixture is a valid fragment


# name: (magma, valid under require_total, valid on fragments)
MAGMA_MUTANTS = {
    # be o_0 al ends at g1f1 and theta runs g0f0 => g1f1, but g0f0>g1f0 ends at g1f0: positional (a)
    "wrong-face-a": (_with(square_2cat(), (2, 0), ("be", "al"), "g0f0>g1f0"), False, False),
    "wrong-face-b": (redirect_comp(walking_iso_category(), (1, 0), ("f", "id(a)"), "id(a)").magma, False, False),
    # a vertical composite over f0 => f1 sent to a 2-cell over b -> c: positional (c)
    "wrong-face-c": (_with(square_2cat(), (2, 1), ("1(f1)", "al"), "be"), False, False),
    "parallel-face": (_with(square_2cat(), (2, 0), ("be", "al"), "theta"), True, True),
    "incompatible-pair": (_with(square_2cat(), (1, 0), ("f0", "f0"), "f0"), False, False),
    "cell-outside-grade": (_with(square_2cat(), (1, 0), ("1a", "a"), "1a"), False, False),
    "composite-outside-grade": (_with(square_2cat(), (1, 0), ("1a", "1a"), "a"), False, False),
    "missing-pair": (_without(square_2cat(), (2, 1), ("1(1a)", "1(1a)")), False, True),
    # g0 o f0 is the 1-boundary of be o_0 al
    "missing-boundary-composite": (_without(square_2cat(), (1, 0), ("g0", "f0")), False, True),
    "table-out-of-range": (_with(square_2cat(), (2, 2), ("al", "al"), "al"), False, False),
    "fragment": (free_groupoid_cells(two_edge_graph(), 1).magma, False, True),
    # one of 1,000 entries: a0.1 o a1.2 sent to a cell that starts at o3, not at o2: positional (b)
    "large-table-wrong-source": (
        _with(StrictNCategory(_pair_groupoid(10), 0), (1, 0), ("a0.1", "a1.2"), "a0.3"), False, False,
    ),
}


@pytest.mark.parametrize("name", sorted(MAGMA_MUTANTS))
def test_magma_mutants_are_worded_as_the_oracle_words_them(name):
    mag, valid_total, valid_fragment = MAGMA_MUTANTS[name]
    for total, valid in ((True, valid_total), (False, valid_fragment)):
        rep = validate_magma(mag, require_total=total)
        assert emit_report(rep) == emit_report(_magma_oracle(mag, total))
        assert rep.valid == valid


def test_validate_magma_reads_no_reflexor():
    # validate_magma needs only a well-formed globular set: with the reflexor tables
    # emptied, every mutant and fixture is reported as before
    cases = [*(mag for mag, _, _ in MAGMA_MUTANTS.values()), *(cat.magma for cat in _strict_fixtures().values())]
    for mag in cases:
        bare = InfinityMagma(mag.gs, ReflexorStructure({}), mag.comp)
        for total in (True, False):
            assert emit_report(validate_magma(bare, require_total=total)) == emit_report(
                validate_magma(mag, require_total=total))


def _generators_reference(grade, table, src, tgt) -> list[str]:
    """The direct walk: each new cell is tried against the whole closure and every kept cell."""
    gens: list[str] = []
    closure: set[str] = set()
    for c in grade:
        if c in closure:
            continue
        gens.append(c)
        todo = [c] + [table[c, r] for r in closure if tgt[r] == src[c]]
        while todo:
            r = todo.pop()
            if r not in closure:
                closure.add(r)
                todo += [table[g, r] for g in gens if src[g] == tgt[r]]
    return gens


def _discrete(n: int):
    objects = [f"o{i}" for i in range(n)]
    ids = {f"id{i}": o for i, o in enumerate(objects)}
    gs = globular_set(1, {0: objects, 1: list(ids)}, {1: ids}, {1: ids})
    return InfinityMagma(gs, ReflexorStructure({(0, 1): {o: i for i, o in ids.items()}}),
                         CompositionStructure({(1, 0): {(i, i): i for i in ids}}))


GENERATOR_CASES = {
    **{name: cat.magma for name, cat in FIXTURES.items()},
    "iso-x-z3": product_category(walking_iso_category(), cyclic_group_category(3)).magma,
    "poset3-x-klein": product_category(poset_category(["a", "b", "c"]), klein_four_category()).magma,
    "square-x-square": product_category(square_2cat(), square_2cat(with_spare=False)).magma,
    "discrete-50": _discrete(50),
}


@pytest.mark.parametrize("name", sorted(GENERATOR_CASES))
def test_generators_match_the_direct_walk(name):
    mag = GENERATOR_CASES[name]
    for (m, p), table in mag.comp.maps.items():
        grade = mag.gs.grade(m)
        src = {x: boundary(mag.gs, m, x, p, "source") for x in grade}
        tgt = {x: boundary(mag.gs, m, x, p, "target") for x in grade}
        assert magma._generators(grade, table, src, tgt) == _generators_reference(grade, table, src, tgt)


def _loop_at_dim(dim: int) -> InfinityMagma:
    """One object with one loop, its unit and its composite, under a dim line of the given height."""
    text = f"dim {dim}\ncells 0: o\ncells 1: i\nsrc i = o\ntgt i = o\nrefl 0 1 o = i\ncomp 1 0 (i, i) = i\n"
    return parse_structure(text).magma


def test_strict_table_lookups_do_not_grow_with_empty_grades(monkeypatch):
    lookups = Counter()
    for cls, name in ((CompositionStructure, "table"), (CompositionStructure, "get"),
                      (ReflexorStructure, "table"), (ReflexorStructure, "images"), (ReflexorStructure, "apply")):
        def counted(*args, _method=getattr(cls, name), _key=f"{cls.__name__}.{name}"):
            lookups[_key] += 1
            return _method(*args)
        monkeypatch.setattr(cls, name, counted)
    per_dim = {}
    for dim in (2, 60):
        lookups.clear()
        assert validate_strict(_loop_at_dim(dim)).valid
        per_dim[dim] = dict(lookups)
    assert per_dim[60] == per_dim[2]


def test_reversor_lookups_do_not_grow_with_empty_grades(monkeypatch):
    lookups = Counter()
    for name in ("table", "apply"):
        def counted(*args, _method=getattr(ReversorStructure, name), _key=name):
            lookups[_key] += 1
            return _method(*args)
        monkeypatch.setattr(ReversorStructure, name, counted)
    per_dim = {}
    for dim in (2, 60):
        parsed = parse_structure(
            f"dim {dim}\ncells 0: o\ncells 1: i\nsrc i = o\ntgt i = o\n"
            "refl 0 1 o = i\ncomp 1 0 (i, i) = i\nrev 1 0 i = i\n"
        )
        lookups.clear()
        assert validate_reversors(parsed.gs, parsed.rev).valid
        assert validate_involutive(parsed.gs, parsed.rev).valid
        cat = StrictNCategory(parsed.magma, 0)
        assert check_functor_reversors(identity_morphism(parsed.gs), cat, cat).valid
        per_dim[dim] = dict(lookups)
    assert per_dim[60] == per_dim[2] and per_dim[2]["table"] > 0 and per_dim[2]["apply"] > 0
    # a table on an empty grade is still visited, and reported
    stray = ReversorStructure(0, {**parsed.rev.maps, (40, 3): {"ghost": "ghost"}})
    assert [v.detail for v in validate_reversors(parsed.gs, stray).violations] == [
        "j[40][3] mentions undeclared cell ghost"
    ]


def _inverse_scan(mag: InfinityMagma, m: int, p: int, alpha: str) -> list[str]:
    """The direct search: every cell of the grade tried as a two-sided inverse of alpha over p."""
    gs, refl, get = mag.gs, mag.refl, mag.comp.table(m, p).get
    s_a, t_a = boundary(gs, m, alpha, p, "source"), boundary(gs, m, alpha, p, "target")
    unit_t, unit_s = _lift(refl, p, m, t_a), _lift(refl, p, m, s_a)
    if unit_t is None or unit_s is None:
        return []
    return [beta for beta in gs.grade(m) if get((alpha, beta)) == unit_t and get((beta, alpha)) == unit_s]


def test_inverses_match_the_scan_over_the_grade():
    cats = {**_strict_fixtures(), **{f"z{n}": cyclic_group_category(n) for n in (1, 7, 30)}}
    mags = {name: cat.magma for name, cat in cats.items()}
    # seeded mutants of Z_n: an entry, and every other time its mirror too, sent to the unit or to a random cell,
    # in a table stored backwards, so that the order of the candidates is the grade's and not the table's
    for n in (4, 6, 9):
        rng, z = random.Random(n), cyclic_group_category(n)
        for i in range(12):
            (y, x), value = rng.choice(sorted(z.magma.comp.maps[1, 0])), "r0" if i % 3 else rng.choice(z.gs.grade(1))
            mutant = redirect_comp(z, (1, 0), (y, x), value)
            if i % 2:
                mutant = redirect_comp(mutant, (1, 0), (x, y), value)
            backwards = CompositionStructure({(1, 0): dict(reversed(mutant.magma.comp.maps[1, 0].items()))})
            mags[f"z{n}-mutant-{i}"] = InfinityMagma(z.gs, z.magma.refl, backwards)
    ghost = {**z.magma.comp.maps[1, 0], ("r1", "ghost"): "r0", ("ghost", "r1"): "r0"}  # an inverse off the grade
    mags["z9-ghost"] = InfinityMagma(z.gs, z.magma.refl, CompositionStructure({(1, 0): ghost}))
    found = Counter()
    for name, mag in mags.items():
        for m in range(1, mag.gs.max_dim + 1):
            for p in range(m):
                inverses = magma._inverses(mag, m, p)
                scan = {alpha: _inverse_scan(mag, m, p, alpha) for alpha in mag.gs.grade(m)}
                assert {alpha: inverses.get(alpha, []) for alpha in mag.gs.grade(m)} == scan, (name, m, p)
                found.update(min(len(betas), 2) for betas in scan.values())
    assert found[0] and found[1] and found[2]  # no inverse, one, and several all occur


def _faces(gs, m, p):
    grade = gs.grade(m)
    return {x: boundary(gs, m, x, p, "source") for x in grade}, {x: boundary(gs, m, x, p, "target") for x in grade}


def _guard_by_entries(gs, m, p, table) -> bool:
    """Light's guard checked entry by entry, as first written: every key and composite an m-cell, every key
    p-compatible, every composite with the ends of its factors, and every compatible pair stored."""
    src, tgt = _faces(gs, m, p)
    try:
        for (y, x), yx in table.items():
            if src[y] != tgt[x] or src[yx] != src[x] or tgt[yx] != tgt[y]:
                return False
    except KeyError:
        return False
    return len(table) == magma._compatible_pairs(src, tgt)


def _guard_by_columns(gs, m, p, table, names, cols) -> bool:
    src, tgt = _faces(gs, m, p)
    try:
        holds = magma._guard_holds(cols, [src[c] for c in names], [tgt[c] for c in names])
    except KeyError:
        return False
    return holds and len(table) == magma._compatible_pairs(src, tgt)


def _light_tests_agree(mag: InfinityMagma) -> list[bool]:
    """Light's test on each table, whose guard is checked by columns and by entries alike."""
    verdicts = []
    for (m, p), table in mag.comp.maps.items():
        names, num, cols = magma._columns(table)
        guard = magma.COMP.fits((m, p), mag.gs.max_dim) and _guard_by_entries(mag.gs, m, p, table)
        if magma.COMP.fits((m, p), mag.gs.max_dim):
            assert _guard_by_columns(mag.gs, m, p, table, names, cols) == guard, (m, p)
        verdicts.append(magma._light_test(mag.gs, m, p, table, names, num, cols))
        assert verdicts[-1] == (guard and not any(magma._differing_triples(cols, {
            num[g] for g in magma._generators(mag.gs.grade(m), table, *_faces(mag.gs, m, p)) if g in num
        }))), (m, p)
    return verdicts


def _traded(mag: InfinityMagma) -> InfinityMagma:
    table = {**mag.comp.maps[1, 0], ("a0.2", "a0.1"): "a0.1"}
    del table["a0.0", "a0.1"]
    return InfinityMagma(mag.gs, mag.refl, CompositionStructure({(1, 0): table}))


GUARD_CASES = {
    **{name: cat.magma for name, cat in TOTAL.items()},
    **{f"scan-only-{name}": mag for name, (mag, _, _) in SCAN_ONLY.items()},
    **{f"column-edge-{name}": mag for name, (mag, _, _) in COLUMN_EDGES.items()},
    # 225 cells read as byte columns, 256 as dicts; a0.0 o a0.1 should run o1 -> o0
    **{f"pairs{k}": _pair_groupoid(k) for k in (15, 16)},
    **{f"pairs{k}-wrong-source": _pair_groupoid_redirected(k, "a0.0") for k in (15, 16)},
    **{f"pairs{k}-wrong-target": _pair_groupoid_redirected(k, "a1.1") for k in (15, 16)},
    **{f"pairs{k}-absent": _without(StrictNCategory(_pair_groupoid(k), 0), (1, 0), ("a0.0", "a0.1"))
       for k in (15, 16)},
    # a0.0 o a0.1 traded for the incompatible a0.2 o a0.1 = a0.1, with the ends a0.0 o a0.1 would have: in
    # a0.1's column, as many entries as compatible pairs, and their composites' faces in the same order
    **{f"pairs{k}-traded": _traded(_pair_groupoid(k)) for k in (15, 16)},
}


# the cases whose every table passes Light's test
GUARD_PASSES = {*TOTAL, "scan-only-not-total", "column-edge-one-entry-column", "pairs15", "pairs16"}


@pytest.mark.parametrize("name", sorted(GUARD_CASES))
def test_the_column_guard_decides_as_the_entry_loop_does(name):
    verdicts = _light_tests_agree(GUARD_CASES[name])
    assert verdicts and all(verdicts) is (name in GUARD_PASSES)


@settings(max_examples=150, deadline=None)
@given(st.one_of(_partial_tables(), _square_tables(), _total_tables_one_entry_off()))
def test_the_column_guard_decides_as_the_entry_loop_does_on_random_tables(mag):
    _light_tests_agree(mag)


REPEAT_CASES = {
    **{f"magma-mutant-{name}": mag for name, (mag, _, _) in MAGMA_MUTANTS.items()},
    **{f"fixture-{name}": cat.magma for name, cat in _strict_fixtures().items()},
    **{f"guard-{name}": mag for name, mag in GUARD_CASES.items()},
}


@pytest.mark.parametrize("name", sorted(REPEAT_CASES))
def test_no_validator_report_repeats_a_violation(name):
    mag = REPEAT_CASES[name]
    reports = [validate_reflexors(mag.gs, mag.refl), *(
        validate(mag, require_total=total) for validate in (validate_magma, validate_strict) for total in (True, False)
    )]
    for rep in reports:
        assert len(set(rep.violations)) == len(rep.violations), rep.subject
