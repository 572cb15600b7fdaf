import itertools
import random
import time

import pytest
from fixtures import (
    compose_morphisms,
    identity_morphism,
    one_edge_graph,
    three_globe,
    two_cell_globe,
    walking_iso_graph,
)

from globforge.globular import (
    LAW_GLOBULAR,
    LAW_TOTAL_MAPS,
    DimensionError,
    GlobularMorphism,
    GradeMismatchError,
    boundary,
    globular_set,
    parallel,
    validate_globular,
    validate_morphism,
)
from globforge.report import ValidationReport, emit_report
from globforge.stretching import generate_free_stretching


def test_single_point_is_valid():
    gs = globular_set(0, {0: ["a"]})
    assert validate_globular(gs).valid


def test_two_cell_fixture_is_valid():
    gs = two_cell_globe()
    assert validate_globular(gs).valid


def test_broken_globular_identity_is_named():
    rep = validate_globular(two_cell_globe(broken=True))
    assert not rep.valid
    assert rep.axiom_ids() == {"globular.tt-ts"}
    assert any("al" in v.cells for v in rep.violations)


def test_missing_map_reported():
    gs = globular_set(1, {0: ["a"], 1: ["f"]}, src={1: {"f": "a"}}, tgt={1: {}})
    rep = validate_globular(gs)
    assert rep.axiom_ids() == {"globular.map"}


def _per_cell_validate_globular(gs):
    """validate_globular as it was before its set-based pass: every map walked cell by cell."""
    rep = ValidationReport("globular")
    for m in range(1, gs.max_dim + 1):
        for side in ("source", "target"):
            table = gs.map(side, m)
            for x in gs.grade(m):
                if x not in table:
                    rep.add("globular.map", LAW_TOTAL_MAPS, (x,), f"{side} of {m}-cell {x} is not declared")
                elif not gs.has_cell(m - 1, table[x]):
                    rep.add("globular.map", LAW_TOTAL_MAPS, (x, table[x]),
                            f"{side} of {m}-cell {x} is {table[x]}, not a {m - 1}-cell")
            for x in table:
                if not gs.has_cell(m, x):
                    rep.add("globular.map", LAW_TOTAL_MAPS, (x,),
                            f"{side} table at grade {m} mentions undeclared cell {x}")
    if not rep.valid:
        return rep
    for m in range(2, gs.max_dim + 1):
        s_m, t_m = gs.map("source", m), gs.map("target", m)
        s_low, t_low = gs.map("source", m - 1), gs.map("target", m - 1)
        for x in gs.grade(m):
            if s_low[s_m[x]] != s_low[t_m[x]]:
                rep.add("globular.ss-st", LAW_GLOBULAR, (x,),
                        f"src(src({x})) = {s_low[s_m[x]]} but src(tgt({x})) = {s_low[t_m[x]]}")
            if t_low[t_m[x]] != t_low[s_m[x]]:
                rep.add("globular.tt-ts", LAW_GLOBULAR, (x,),
                        f"tgt(tgt({x})) = {t_low[t_m[x]]} but tgt(src({x})) = {t_low[s_m[x]]}")
    return rep


def _broken(gs, rng: random.Random):
    """gs with one to three seeded edits: a face dropped or redirected, an entry for an
    undeclared cell, a cell undeclared under its entries, or a new cell without faces."""
    cells = {m: list(gs.grade(m)) for m in range(gs.max_dim + 1)}
    maps = {side: {m: dict(gs.map(side, m)) for m in range(1, gs.max_dim + 1)} for side in ("source", "target")}
    for k in range(rng.choice((1, 1, 2, 3))):
        m = rng.randrange(1, gs.max_dim + 1)
        table = maps[rng.choice(("source", "target"))][m]
        x = rng.choice(cells[m]) if cells[m] else f"new{k}"
        op = rng.randrange(5)
        if op == 0:
            table.pop(x, None)
        elif op == 1:  # another cell of the grade below, a cell of the wrong grade, or no cell
            table[x] = rng.choice([*cells[m - 1], *cells[m], "nowhere"])
        elif op == 2:
            table[f"stray{k}"] = rng.choice(cells[m - 1] or ["nowhere"])
        elif op == 3 and x in cells[m]:
            cells[m].remove(x)
        else:
            cells[m].append(f"new{k}")
    return globular_set(gs.max_dim, cells, maps["source"], maps["target"])


def test_set_based_validation_reports_what_the_per_cell_walk_does():
    rng = random.Random(20121807)
    bases = [three_globe(), two_cell_globe(), generate_free_stretching(one_edge_graph(), 0, 2, 4).m_side.magma.gs]
    invalid = 0
    for _ in range(300):
        gs = _broken(rng.choice(bases), rng)
        want = emit_report(_per_cell_validate_globular(gs))
        assert emit_report(validate_globular(gs)) == want
        invalid += '"valid": false' in want
    assert invalid >= 200  # nearly every edit breaks a map or an identity


def test_has_cell_is_per_grade_and_index_stays_out_of_equality():
    gs = globular_set(1, {0: ["a", "f"], 1: ["f"]}, src={1: {"f": "a"}}, tgt={1: {"f": "a"}})
    assert gs.has_cell(0, "f") and gs.has_cell(1, "f")
    assert not gs.has_cell(1, "a") and not gs.has_cell(2, "f")
    twin = globular_set(1, {0: ["f", "a"], 1: ["f"]}, src={1: {"f": "a"}}, tgt={1: {"f": "a"}})
    assert twin == gs and twin.cell_sets is not gs.cell_sets
    assert "cell_sets" not in repr(gs)


def test_boundary_basic():
    gs = two_cell_globe()
    assert boundary(gs, 2, "al", 0, "source") == "a"
    assert boundary(gs, 2, "al", 0, "target") == "b"
    assert boundary(gs, 1, "f", 0, "target") == "b"
    assert boundary(gs, 2, "al", 1, "source") == "f"
    with pytest.raises(DimensionError):
        boundary(gs, 1, "f", 1, "source")


def _mixed_boundary(gs, m, x, q, path):
    """Apply an explicit src/tgt word; path[0] is the final (lowest) step."""
    cur = x
    for k, side in zip(range(m, q, -1), reversed(path)):
        cur = gs.map(side, k)[cur]
    return cur


def test_boundary_path_independent_on_three_globe():
    # oracle: enumerate every src/tgt interleaving whose final step is fixed
    gs = three_globe()
    for x in gs.grade(3):
        for q in range(3):
            for final in ("source", "target"):
                want = boundary(gs, 3, x, q, final)
                upper = 3 - q - 1
                for mix in itertools.product(("source", "target"), repeat=upper):
                    path = (final,) + mix
                    assert _mixed_boundary(gs, 3, x, q, path) == want


def test_parallel():
    gs = two_cell_globe()
    assert parallel(gs, 1, "f", "g")
    assert parallel(gs, 1, "f", "f")
    assert parallel(gs, 0, "a", "b")  # 0-cells are always parallel
    with pytest.raises(GradeMismatchError):
        parallel(gs, 1, "f", "missing")


def test_identity_morphism_valid():
    gs = two_cell_globe()
    assert validate_morphism(identity_morphism(gs)).valid


def terminal_gs(D):
    cells = {m: [f"t{m}"] for m in range(D + 1)}
    src = {m: {f"t{m}": f"t{m-1}"} for m in range(1, D + 1)}
    return globular_set(D, cells, src, {m: dict(t) for m, t in src.items()})


def test_map_to_terminal_valid():
    gs = three_globe()
    term = terminal_gs(3)
    maps = {m: {x: f"t{m}" for x in gs.grade(m)} for m in range(4)}
    phi = GlobularMorphism(gs, term, maps)
    assert validate_morphism(phi).valid


def test_broken_naturality_names_cell():
    gs = walking_iso_graph()
    swap = GlobularMorphism(gs, gs, {0: {"a": "a", "b": "b"}, 1: {"f": "g", "g": "f"}})
    rep = validate_morphism(swap)
    assert not rep.valid
    assert {"morphism.src", "morphism.tgt"} == rep.axiom_ids()
    assert any("f" in v.cells for v in rep.violations)


# name: (morphism, every violation as (cells, detail)), all of them morphism.map
MAP_REFUSALS = {
    "target-below-source": (
        GlobularMorphism(three_globe(), walking_iso_graph(), {}),
        [((), "target truncation 1 is below source truncation 3")],
    ),
    "component-misses-a-cell": (
        GlobularMorphism(walking_iso_graph(), walking_iso_graph(), {0: {"a": "a", "b": "b"}, 1: {"f": "f"}}),
        [(("g",), "component at grade 1 misses cell g")],
    ),
    "image-outside-the-grade": (
        GlobularMorphism(walking_iso_graph(), walking_iso_graph(), {0: {"a": "a", "b": "b"}, 1: {"f": "f", "g": "a"}}),
        [(("g", "a"), "image of 1-cell g is a, not a 1-cell of the target")],
    ),
}


@pytest.mark.parametrize("name", sorted(MAP_REFUSALS))
def test_map_refusals_are_worded(name):
    phi, expected = MAP_REFUSALS[name]
    rep = validate_morphism(phi)
    assert rep.axiom_ids() == {"morphism.map"}
    assert [(v.cells, v.detail) for v in rep.violations] == expected


def test_composite_of_valid_morphisms_valid():
    gs = three_globe()
    term = terminal_gs(3)
    ident = identity_morphism(gs)
    to_term = GlobularMorphism(gs, term, {m: {x: f"t{m}" for x in gs.grade(m)} for m in range(4)})
    comp = compose_morphisms(to_term, ident)
    assert validate_morphism(comp).valid


def test_a_repeated_name_in_a_large_grade_is_refused_in_linear_time():
    names = [f"c{i}" for i in range(40_000)] + ["c17"]
    start = time.perf_counter()
    with pytest.raises(ValueError) as err:
        globular_set(0, {0: names})
    assert time.perf_counter() - start < 1.0  # counting each name's copies took 14 s
    assert str(err.value) == "duplicate cell names in grade 0: ['c17']"
