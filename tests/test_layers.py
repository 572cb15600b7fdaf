import pytest
from fixtures import (
    redirect_rev,
    square_2cat,
    walking_iso_category,
    walking_iso_graph,
    walking_iso_reversors,
)

from globforge.globular import boundary, globular_set
from globforge.layers import (
    LAW_COMPAT_FIX,
    LAW_COMPAT_PUSH,
    ReflexorStructure,
    ReversorStructure,
    validate_involutive,
    validate_reflexive_compat,
    validate_reflexors,
    validate_reversors,
)
from globforge.magma import derive_canonical_reversors
from globforge.report import ValidationReport


def test_walking_iso_reversors_valid():
    assert validate_reversors(walking_iso_graph(), walking_iso_reversors()).valid


def test_fixed_point_reversor_violates_swap():
    gs = walking_iso_graph()
    rev = ReversorStructure(0, {(1, 0): {"f": "f", "g": "g"}})
    rep = validate_reversors(gs, rev)
    assert rep.axiom_ids() == {"reversor.b"}


def two_iso_globe():
    """Loops f, g at a with 2-cells ph: f => g and ps: g => f.

    Loops keep the one-step swap axiom (b) trivially true at (1, 0), so the
    serial axiom (a) at (2, 0) can be broken in isolation.
    """
    return globular_set(
        2,
        {0: ["a"], 1: ["f", "g"], 2: ["ph", "ps"]},
        src={1: {"f": "a", "g": "a"}, 2: {"ph": "f", "ps": "g"}},
        tgt={1: {"f": "a", "g": "a"}, 2: {"ph": "g", "ps": "f"}},
    )


def two_iso_reversors():
    return ReversorStructure(
        0,
        {
            (1, 0): {"f": "g", "g": "f"},
            (2, 1): {"ph": "ps", "ps": "ph"},
            (2, 0): {"ph": "ps", "ps": "ph"},
        },
    )


def test_serial_axiom_valid_and_mutable():
    gs = two_iso_globe()
    assert validate_reversors(gs, two_iso_reversors()).valid
    # fixing ph under j[2][0] breaks only the serial clause (a)
    broken = redirect_rev(two_iso_reversors(), (2, 0), "ph", "ph")
    rep = validate_reversors(gs, broken)
    assert rep.axiom_ids() == {"reversor.a"}


def test_boundary_swap_derived_property():
    # chained (a)+(b): the 0-source of a reversed cell is the 0-target of the cell
    gs = two_iso_globe()
    rev = two_iso_reversors()
    for m, p in [(1, 0), (2, 0)]:
        for x in gs.grade(m):
            jx = rev.apply(m, p, x)
            assert boundary(gs, m, jx, p, "source") == boundary(gs, m, x, p, "target")
            assert boundary(gs, m, jx, p, "target") == boundary(gs, m, x, p, "source")


def loops_graph():
    return globular_set(
        1,
        {0: ["a"], 1: ["u", "v", "w"]},
        src={1: {"u": "a", "v": "a", "w": "a"}},
        tgt={1: {"u": "a", "v": "a", "w": "a"}},
    )


def test_three_cycle_is_not_involutive():
    gs = loops_graph()
    rev = ReversorStructure(0, {(1, 0): {"u": "v", "v": "w", "w": "u"}})
    assert validate_reversors(gs, rev).valid
    rep = validate_involutive(gs, rev)
    assert rep.axiom_ids() == {"involutive.jj"}


def test_reflexor_unit_and_mutant():
    gs = globular_set(
        1,
        {0: ["a", "b"], 1: ["ida", "idb", "f"]},
        src={1: {"ida": "a", "idb": "b", "f": "a"}},
        tgt={1: {"ida": "a", "idb": "b", "f": "b"}},
    )
    good = ReflexorStructure({(0, 1): {"a": "ida", "b": "idb"}})
    assert validate_reflexors(gs, good).valid
    bad = ReflexorStructure({(0, 1): {"a": "f", "b": "idb"}})
    rep = validate_reflexors(gs, bad)
    assert rep.axiom_ids() == {"reflexor.unit"}


def test_reflexor_composite_checked():
    cat = square_2cat(with_spare=False)
    gs = cat.gs
    maps = {k: dict(t) for k, t in cat.magma.refl.maps.items()}
    # declare a multi-step table disagreeing with the one-step composite
    maps[(0, 2)] = {x: cat.magma.refl.apply(0, 2, x) for x in gs.grade(0)}
    assert validate_reflexors(gs, ReflexorStructure(maps)).valid
    maps[(0, 2)] = dict(maps[(0, 2)])
    maps[(0, 2)]["a"] = "al"
    rep = validate_reflexors(gs, ReflexorStructure(maps))
    assert rep.axiom_ids() == {"reflexor.composite"}


def test_identity_loops_compat():
    cat = walking_iso_category()
    rev = derive_canonical_reversors(cat)
    gs = cat.gs
    assert rev.apply(1, 0, "id(a)") == "id(a)"
    assert validate_reflexive_compat(gs, cat.magma.refl, rev).valid
    broken = redirect_rev(rev, (1, 0), "id(a)", "id(b)")
    rep = validate_reflexive_compat(gs, cat.magma.refl, broken)
    assert rep.axiom_ids() == {"reflexive-compat.i"}


def test_monotone_under_untouched_cells():
    # adding cells no map mentions keeps a valid reversor structure valid
    gs = walking_iso_graph()
    rev = walking_iso_reversors()
    bigger = globular_set(
        1,
        {0: ["a", "b", "c"], 1: ["f", "g"]},
        src={1: {"f": "a", "g": "b"}},
        tgt={1: {"f": "b", "g": "a"}},
    )
    assert validate_reversors(bigger, rev).valid


def three_loop_globe():
    """A single loop with one reversible pair in each higher grade."""
    return globular_set(
        3,
        {0: ["a"], 1: ["u"], 2: ["al", "be"], 3: ["M", "N"]},
        src={1: {"u": "a"}, 2: {"al": "u", "be": "u"}, 3: {"M": "al", "N": "be"}},
        tgt={1: {"u": "a"}, 2: {"al": "u", "be": "u"}, 3: {"M": "be", "N": "al"}},
    )


def test_swap_law_on_three_dimensional_fixture():
    gs = three_loop_globe()
    swap2 = {"al": "be", "be": "al"}
    swap3 = {"M": "N", "N": "M"}
    rev = ReversorStructure(
        0,
        {
            (1, 0): {"u": "u"},
            (2, 0): dict(swap2),
            (2, 1): dict(swap2),
            (3, 0): dict(swap3),
            (3, 1): dict(swap3),
            (3, 2): dict(swap3),
        },
    )
    assert validate_reversors(gs, rev).valid
    # chained (a)+(b): deep boundaries swap, exhaustively over all cells
    for (m, p), table in rev.maps.items():
        for x, jx in table.items():
            assert boundary(gs, m, jx, p, "source") == boundary(gs, m, x, p, "target")
            assert boundary(gs, m, jx, p, "target") == boundary(gs, m, x, p, "source")


def _square_refl_without_a_at_0_2() -> ReflexorStructure:
    """square_2cat's reflexors with a declared refl[0][2] that misses the 0-cell a."""
    cat = square_2cat(with_spare=False)
    multi = {x: cat.magma.refl.apply(0, 2, x) for x in cat.gs.grade(0) if x != "a"}
    return ReflexorStructure({**cat.magma.refl.maps, (0, 2): multi})


def _square_refl_with_ghost_at_0_2() -> ReflexorStructure:
    """square_2cat's reflexors with a declared refl[0][2] that agrees with the chain and also maps a ghost."""
    cat = square_2cat(with_spare=False)
    multi = {**cat.magma.refl.images(0, 2), "ghost": cat.magma.refl.apply(0, 2, "a")}
    return ReflexorStructure({**cat.magma.refl.maps, (0, 2): multi})


# name: (validator, carrier, layer, every violation as (axiom, cells, detail))
TABLE_REFUSALS = {
    "reversor-missing-entry": (
        validate_reversors, walking_iso_graph(), ReversorStructure(0, {(1, 0): {"f": "g"}}),
        [("reversor.total", ("g",), "j[1][0] has no entry for g")],
    ),
    "reversor-value-outside-grade": (
        validate_reversors, walking_iso_graph(), ReversorStructure(0, {(1, 0): {"f": "g", "g": "a"}}),
        [("reversor.total", ("g", "a"), "j[1][0](g) = a is not an 1-cell")],
    ),
    "reversor-table-below-threshold": (
        validate_reversors, walking_iso_graph(), ReversorStructure(1, {(1, 0): {"f": "g", "g": "f"}}),
        [("reversor.total", (), "table j[1][0] is outside the range 1 <= p < m <= 1")],
    ),
    "reflexor-value-not-a-cell-above": (
        validate_reflexors, walking_iso_category().gs, ReflexorStructure({(0, 1): {"a": "id(a)", "b": "b"}}),
        [("reflexor.total", ("b", "b"), "refl[0][1](b) = b is not a 1-cell")],
    ),
    "reflexor-table-out-of-range": (
        validate_reflexors, walking_iso_category().gs,
        ReflexorStructure({(0, 1): {"a": "id(a)", "b": "id(b)"}, (1, 2): {"id(a)": "id(a)"}}),
        [("reflexor.total", (), "table refl[1][2] is outside the range 0 <= p < m <= 1")],
    ),
    "reflexor-composite-missing-entry": (
        validate_reflexors, square_2cat(with_spare=False).gs, _square_refl_without_a_at_0_2(),
        [("reflexor.composite", ("a",), "declared refl[0][2] has no entry for a")],
    ),
    # f is a cell, but of grade 1, not of the grade refl[0][1] reads
    "reflexor-key-not-a-cell-below": (
        validate_reflexors, walking_iso_category().gs,
        ReflexorStructure({(0, 1): {"a": "id(a)", "b": "id(b)", "f": "id(a)"}}),
        [("reflexor.total", ("f",), "refl[0][1] mentions undeclared cell f")],
    ),
    "reflexor-composite-key-not-a-cell": (
        validate_reflexors, square_2cat(with_spare=False).gs, _square_refl_with_ghost_at_0_2(),
        [("reflexor.total", ("ghost",), "refl[0][2] mentions undeclared cell ghost")],
    ),
}


@pytest.mark.parametrize("name", sorted(TABLE_REFUSALS))
def test_table_refusals_are_worded(name):
    validator, gs, layer, expected = TABLE_REFUSALS[name]
    assert [(v.axiom, v.cells, v.detail) for v in validator(gs, layer).violations] == expected


class _CountingTable(dict):
    """A table that counts its lookups in a shared list."""

    def __init__(self, items, counter: list[int]) -> None:
        super().__init__(items)
        self.counter = counter

    def __getitem__(self, key):
        self.counter[0] += 1
        return super().__getitem__(key)


def _chain(D: int, twins: bool = False):
    """One cell c_k per grade k <= D, both faces c_(k-1), refl[k][k+1] c_k = c_(k+1) and every reversor
    fixing every cell; with twins, a second top cell d_D beside c_D, and j[D][p] swaps them for odd p,
    which breaks compat wherever such a j meets a degenerate cell."""
    cells = {k: (f"c{k}", f"d{k}") if twins and k == D else (f"c{k}",) for k in range(D + 1)}
    faces = {k: {x: f"c{k - 1}" for x in cells[k]} for k in range(1, D + 1)}
    gs = globular_set(D, cells, src=faces, tgt=faces)
    flip = {"c": "d", "d": "c"}
    rev = ReversorStructure(0, {
        (m, p): {x: flip[x[0]] + x[1:] if twins and m == D and p % 2 else x for x in cells[m]}
        for m in range(1, D + 1) for p in range(m)
    })
    return gs, {(k, k + 1): {x: f"c{k + 1}" for x in cells[k]} for k in range(D)}, rev


def _compat_reference(gs, refl, rev):
    """validate_reflexive_compat as first written: each image walked up from its cell, for every (m, q, p, a)."""
    rep = ValidationReport("reflexive-compat")
    for m in range(1, gs.max_dim + 1):
        for q in range(rev.threshold, m):
            for p in range(m):
                for a in gs.grade(p):
                    image = refl.apply(p, m, a)
                    got = rev.apply(m, q, image)
                    if p <= q and got != image:
                        rep.add("reflexive-compat.i", LAW_COMPAT_FIX, (a, image),
                                f"j[{m}][{q}](refl[{p}][{m}]({a})) = {got}, expected the degenerate cell {image}")
                    elif p > q and got != (want := refl.apply(p, m, rev.apply(p, q, a))):
                        rep.add("reflexive-compat.ii", LAW_COMPAT_PUSH, (a, image),
                                f"j[{m}][{q}](refl[{p}][{m}]({a})) = {got} but refl[{p}][{m}](j[{p}][{q}]({a})) = {want}")
    return rep


def test_compat_walks_each_reflexor_image_up_once():
    # a walk from each cell for every (m, q, p) took about D^4 / 12 one-step lookups, 213k here
    D, counter = 40, [0]
    gs, maps, rev = _chain(D)
    refl = ReflexorStructure({key: _CountingTable(table, counter) for key, table in maps.items()})
    assert validate_reversors(gs, rev).valid and validate_reflexors(gs, ReflexorStructure(maps)).valid
    counter[0] = 0
    assert validate_reflexive_compat(gs, refl, rev) == ValidationReport("reflexive-compat")
    assert counter[0] <= D * (D + 1) // 2  # one lookup per cell of grade p < m for each m


@pytest.mark.parametrize("twins", [False, True])
def test_compat_reports_as_the_walk_from_each_cell_does(twins):
    gs, maps, rev = _chain(9, twins)
    refl = ReflexorStructure(maps)
    assert validate_reversors(gs, rev).valid and validate_reflexors(gs, refl).valid
    rep = validate_reflexive_compat(gs, refl, rev)
    assert rep == _compat_reference(gs, refl, rev) and rep.valid is not twins
    assert rep.axiom_ids() == ({"reflexive-compat.i", "reflexive-compat.ii"} if twins else set())
