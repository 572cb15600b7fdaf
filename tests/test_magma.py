import pytest
from fixtures import (
    cyclic_group_category,
    identity_morphism,
    klein_four_category,
    pad_to_dim,
    poset_category,
    product_category,
    redirect_comp,
    square_2cat,
    sym3_category,
    walking_iso_category,
)
from index_oracle import index_by_pair_scan

from globforge.globular import GlobularMorphism, validate_globular
from globforge.layers import validate_involutive, validate_reflexive_compat, validate_reflexors
from globforge.magma import (
    AmbiguousInverseError,
    NoInverseError,
    StrictNCategory,
    check_functor_reversors,
    compute_index,
    derive_canonical_reversors,
    validate_magma,
    validate_strict,
)


@pytest.mark.parametrize(
    "cat",
    [
        walking_iso_category(),
        poset_category(["a", "b", "c"]),
        cyclic_group_category(2),
        cyclic_group_category(3),
        klein_four_category(),
        sym3_category(),
        square_2cat(),
        pad_to_dim(walking_iso_category(), 2),
    ],
    ids=["iso", "poset3", "z2", "z3", "klein", "s3", "square", "iso-padded"],
)
def test_fixture_categories_fully_valid(cat):
    assert validate_globular(cat.gs).valid
    assert validate_reflexors(cat.gs, cat.magma.refl).valid
    assert validate_magma(cat.magma).valid
    assert validate_strict(cat.magma).valid


def test_path_category_composite():
    cat = poset_category(["a", "b", "c"])
    assert cat.magma.comp.apply(1, 0, "b<c", "a<b") == "a<c"


def test_positional_b_mutant():
    cat = poset_category(["a", "b", "c"])
    # wrong-endpoint value: redirect g o f to a parallel-at-source cell
    bad = redirect_comp(cat, (1, 0), ("b<c", "a<b"), "a<b")
    rep = validate_magma(bad.magma)
    assert rep.families() == {"positional"}
    assert "positional.b" in rep.axiom_ids()


def test_domain_exactness():
    cat = poset_category(["a", "b"])
    maps = {k: dict(t) for k, t in cat.magma.comp.maps.items()}
    maps[(1, 0)][("a<b", "a<b")] = "a<b"  # pair is not 0-compatible
    from globforge.magma import CompositionStructure, InfinityMagma

    bad = InfinityMagma(cat.gs, cat.magma.refl, CompositionStructure(maps))
    rep = validate_magma(bad)
    assert rep.axiom_ids() == {"positional.domain"}


def test_z2_strict_and_mutants():
    z2 = cyclic_group_category(2)
    assert validate_strict(z2.magma).valid
    # u o u = u keeps units but breaks associativity on (u, u, u)? no:
    # idempotents stay associative, so use z3 for the assoc mutant below
    z3 = cyclic_group_category(3)
    bad = redirect_comp(z3, (1, 0), ("r1", "r1"), "r1")
    rep = validate_strict(bad.magma)
    assert rep.families() == {"assoc"}


def test_units_mutant_isolated():
    cat = poset_category(["a", "b"])
    # spare parallel arrow k: a -> b on which nothing else depends
    from globforge.globular import globular_set
    from globforge.layers import ReflexorStructure
    from globforge.magma import CompositionStructure, InfinityMagma

    gs = globular_set(
        1,
        {0: ["a", "b"], 1: ["a<a", "a<b", "b<b", "k"]},
        src={1: {"a<a": "a", "a<b": "a", "b<b": "b", "k": "a"}},
        tgt={1: {"a<a": "a", "a<b": "b", "b<b": "b", "k": "b"}},
    )
    refl = ReflexorStructure({(0, 1): {"a": "a<a", "b": "b<b"}})
    table = {
        ("a<b", "a<a"): "a<b",
        ("b<b", "a<b"): "a<b",
        ("k", "a<a"): "k",
        ("b<b", "k"): "k",
        ("a<a", "a<a"): "a<a",
        ("b<b", "b<b"): "b<b",
    }
    good = StrictNCategory(InfinityMagma(gs, refl, CompositionStructure({(1, 0): table})), 1)
    assert validate_magma(good.magma).valid
    assert validate_strict(good.magma).valid
    bad = redirect_comp(good, (1, 0), ("a<b", "a<a"), "k")
    rep = validate_strict(bad.magma)
    assert rep.families() == {"units"}
    assert rep.axiom_ids() == {"units.right"}


def test_interchange_mutant_isolated():
    cat = square_2cat()
    bad = redirect_comp(cat, (2, 0), ("be", "al"), "theta")
    assert validate_magma(bad.magma).valid
    rep = validate_strict(bad.magma)
    assert rep.families() == {"interchange"}


def test_refl_functorial_mutant_isolated():
    cat = square_2cat()
    bad = redirect_comp(cat, (2, 0), ("1(g0)", "1(f0)"), "rho")
    assert validate_magma(bad.magma).valid
    rep = validate_strict(bad.magma)
    assert rep.families() == {"refl-functorial"}


def test_derive_reversors_walking_iso():
    cat = walking_iso_category()
    rev = derive_canonical_reversors(cat)
    assert rev.table(1, 0) == {"f": "g", "g": "f", "id(a)": "id(a)", "id(b)": "id(b)"}
    assert validate_involutive(cat.gs, rev).valid
    assert validate_reflexive_compat(cat.gs, cat.magma.refl, rev).valid


def test_derive_reversors_z2():
    z2 = cyclic_group_category(2)
    rev = derive_canonical_reversors(z2)
    assert rev.table(1, 0) == {"r0": "r0", "r1": "r1"}


def test_derive_reversors_refuses_a_negative_threshold():
    with pytest.raises(ValueError, match=r"^the reversor threshold must be >= 0, got -1$"):
        derive_canonical_reversors(StrictNCategory(walking_iso_category().magma, -1))


def test_no_inverse_on_poset():
    cat = poset_category(["a", "b"])
    with pytest.raises(NoInverseError) as exc:
        derive_canonical_reversors(cat)
    assert exc.value.cell == "a<b"
    assert (exc.value.m, exc.value.p) == (1, 0)


def _ambiguous_category() -> StrictNCategory:
    """A corrupt table where two cells both behave as inverses of u."""
    from globforge.globular import globular_set
    from globforge.layers import ReflexorStructure
    from globforge.magma import CompositionStructure, InfinityMagma

    gs = globular_set(
        1,
        {0: ["a"], 1: ["e", "u", "v"]},
        src={1: {"e": "a", "u": "a", "v": "a"}},
        tgt={1: {"e": "a", "u": "a", "v": "a"}},
    )
    refl = ReflexorStructure({(0, 1): {"a": "e"}})
    table = {
        ("e", "e"): "e", ("e", "u"): "u", ("u", "e"): "u", ("e", "v"): "v", ("v", "e"): "v",
        ("u", "u"): "e", ("v", "v"): "e", ("u", "v"): "e", ("v", "u"): "e",
    }
    return StrictNCategory(InfinityMagma(gs, refl, CompositionStructure({(1, 0): table})), 0)


def test_ambiguous_inverse_guard():
    with pytest.raises(AmbiguousInverseError):
        derive_canonical_reversors(_ambiguous_category())


def test_compute_index():
    assert compute_index(walking_iso_category()) == 0
    assert compute_index(poset_category(["a", "b"])) == 1
    from globforge.globular import globular_set
    from globforge.layers import ReflexorStructure
    from globforge.magma import CompositionStructure, InfinityMagma

    discrete = StrictNCategory(
        InfinityMagma(
            globular_set(0, {0: ["a", "b"]}),
            ReflexorStructure({}),
            CompositionStructure({}),
        ),
        0,
    )
    assert compute_index(discrete) == 0


@pytest.mark.parametrize("cat, index", [
    (walking_iso_category(), 0),
    (cyclic_group_category(3), 0),
    (sym3_category(), 0),
    (pad_to_dim(walking_iso_category(), 2), 0),
    (product_category(walking_iso_category(), cyclic_group_category(2)), 0),
    (poset_category(["a", "b", "c"]), 1),
    (pad_to_dim(poset_category(["a", "b"]), 3), 1),
    (_ambiguous_category(), 1),
    (square_2cat(), 2),
    (square_2cat(with_spare=False), 2),
])
def test_compute_index_is_the_pair_scan(cat, index):
    # the least threshold at which the reversors derive is where the old scan of
    # (m, p) pairs puts the index
    assert compute_index(cat) == index_by_pair_scan(cat) == index


def test_index_bounds_products():
    iso = walking_iso_category()
    z2 = cyclic_group_category(2)
    prod = product_category(iso, z2)
    assert validate_strict(prod.magma).valid
    assert compute_index(prod) == 0


def test_functor_reversors_identity():
    cat = walking_iso_category()
    rep = check_functor_reversors(identity_morphism(cat.gs), cat, cat)
    assert rep.valid


def test_functor_reversors_quotient():
    # free groupoid on one edge, length-limited, onto the two-element group
    from globforge.words import free_groupoid_cells
    from fixtures import one_edge_graph

    free = free_groupoid_cells(one_edge_graph(), 1)
    z2 = cyclic_group_category(2)
    maps = {
        0: {"a": "*", "b": "*"},
        1: {"id(a)": "r0", "id(b)": "r0", "e+": "r1", "e-": "r1"},
    }
    F = GlobularMorphism(free.gs, z2.gs, maps)
    rep = check_functor_reversors(F, free, z2)
    assert rep.valid


def test_functor_reversors_boundary_swapper_fails():
    cat = walking_iso_category()
    swap = GlobularMorphism(
        cat.gs,
        cat.gs,
        {0: {"a": "a", "b": "b"}, 1: {"f": "g", "g": "f", "id(a)": "id(a)", "id(b)": "id(b)"}},
    )
    rep = check_functor_reversors(swap, cat, cat)
    assert not rep.valid
    assert "morphism.src" in rep.axiom_ids() or "functor.comp" in rep.axiom_ids()


def _iso_onto_z2(*ones: str) -> GlobularMorphism:
    """The walking iso sent onto Z_2: the 1-cells in ones go to r1, the others to r0."""
    gs = walking_iso_category().gs
    return GlobularMorphism(gs, cyclic_group_category(2).gs,
                            {0: {"a": "*", "b": "*"}, 1: {x: "r1" if x in ones else "r0" for x in gs.grade(1)}})


# name: (F, source, target, axiom, every violation of that axiom as (cells, detail))
FUNCTOR_REFUSALS = {
    "comp": (
        _iso_onto_z2("f"), walking_iso_category(), cyclic_group_category(2), "functor.comp",
        [(("f", "g"), "F(f o[1,0] g) = r0 but F(f) o F(g) = r1"),
         (("g", "f"), "F(g o[1,0] f) = r0 but F(g) o F(f) = r1")],
    ),
    "refl": (
        _iso_onto_z2("f", "g", "id(b)"), walking_iso_category(), cyclic_group_category(2), "functor.refl",
        [(("b",), "F(refl[0][1](b)) = r1 but refl(F(b)) = r0")],
    ),
    "reversor-square": (
        _iso_onto_z2("f"), walking_iso_category(), cyclic_group_category(2), "functor.reversor",
        [(("f",), "F(j[1][0](f)) = r0 but j[1][0](F(f)) = r1"),
         (("g",), "F(j[1][0](g)) = r1 but j[1][0](F(g)) = r0")],
    ),
    "reversors-unavailable": (
        identity_morphism(poset_category(["a", "b"]).gs), poset_category(["a", "b"]), poset_category(["a", "b"]),
        "functor.reversor", [((), "canonical reversors unavailable: 1-cell a<b has no inverse over dimension 0")],
    ),
}


@pytest.mark.parametrize("name", sorted(FUNCTOR_REFUSALS))
def test_functor_refusals_are_worded(name):
    F, cat, cat2, axiom, expected = FUNCTOR_REFUSALS[name]
    rep = check_functor_reversors(F, cat, cat2)
    assert [(v.cells, v.detail) for v in rep.violations if v.axiom == axiom] == expected


def test_disagreeing_multi_step_reflexor_is_a_reflexor_violation():
    # validate_strict reads reflexors only through the one-step chain, so a
    # declared multi-step table that disagrees with it cannot move the strict
    # report; validate_reflexors is the check that reports it
    from globforge.layers import ReflexorStructure
    from globforge.magma import InfinityMagma

    cat = square_2cat(with_spare=False)
    gs, mag = cat.gs, cat.magma
    maps = {k: dict(t) for k, t in mag.refl.maps.items()}
    maps[(0, 2)] = {x: mag.refl.apply(0, 2, x) for x in gs.grade(0)}
    agreeing = ReflexorStructure(dict(maps))
    maps[(0, 2)] = dict(maps[(0, 2)], a="al")
    disagreeing = ReflexorStructure(maps)
    assert validate_reflexors(gs, agreeing).valid
    assert validate_reflexors(gs, disagreeing).axiom_ids() == {"reflexor.composite"}
    strict = [validate_strict(InfinityMagma(gs, refl, mag.comp)) for refl in (agreeing, disagreeing)]
    assert strict[0].valid and strict[1].violations == strict[0].violations


def test_validate_magma_cost_follows_the_cells_not_dim(monkeypatch):
    # one 0-cell and one 1-cell under "dim 400": the positional and totality
    # checks visit grade 1 only (160,400 grade reads and 80,201 table reads
    # when every grade below dim was visited)
    from globforge.dsl import parse_structure
    from globforge.globular import TruncatedGlobularSet
    from globforge.magma import CompositionStructure

    parsed = parse_structure(
        "structure big\ndim 400\ncells 0: a\ncells 1: f\nsrc f = a\ntgt f = a\n"
        "refl 0 1 a = f\ncomp 1 0 (f, f) = f\n"
    )
    calls = {"grade": 0, "table": 0}
    grade, table = TruncatedGlobularSet.grade, CompositionStructure.table

    def counted_grade(self, m):
        calls["grade"] += 1
        return grade(self, m)

    def counted_table(self, m, p):
        calls["table"] += 1
        return table(self, m, p)

    monkeypatch.setattr(TruncatedGlobularSet, "grade", counted_grade)
    monkeypatch.setattr(CompositionStructure, "table", counted_table)
    assert validate_magma(parsed.magma).valid
    assert calls["grade"] <= 2 * 400 and calls["table"] <= 2
