import itertools

import pytest
from fixtures import compose_morphisms, identity_morphism, three_globe, two_cell_globe, walking_iso_graph

from globforge.globular import (
    DimensionError,
    GlobularMorphism,
    GradeMismatchError,
    boundary,
    globular_set,
    parallel,
    validate_globular,
    validate_morphism,
)


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


def test_composite_of_valid_morphisms_valid():
    gs = three_globe()
    term = terminal_gs(3)
    ident = identity_morphism(gs)
    to_term = GlobularMorphism(gs, term, {m: {x: f"t{m}" for x in gs.grade(m)} for m in range(4)})
    comp = compose_morphisms(to_term, ident)
    assert validate_morphism(comp).valid
