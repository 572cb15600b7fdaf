import pytest
from fixtures import (
    graded_loop_stretching,
    identity_stretching,
    one_edge_graph,
    redirect_bracket,
    redirect_pi,
    walking_iso_category,
)

from globforge.globular import globular_set, validate_globular
from globforge.magma import validate_magma, validate_strict
from globforge.normalform import UnsupportedFreeConstructionError
from globforge.stretching import (
    SectionViolationError,
    UnsupportedDimensionError,
    dump_stretching,
    generate_free_stretching,
    induced_algebra_magma,
    load_stretching,
    validate_stretching,
)
from globforge.words import free_groupoid_cells


def test_identity_stretching_valid():
    E = identity_stretching(walking_iso_category())
    assert validate_stretching(E).valid


def test_graded_loop_stretching_valid():
    E = graded_loop_stretching()
    assert validate_globular(E.m_side.magma.gs).valid
    assert validate_globular(E.c_side.magma.gs).valid
    assert validate_magma(E.m_side.magma).valid
    assert validate_strict(E.c_side.magma).valid
    assert validate_stretching(E).valid


@pytest.mark.parametrize(
    "key,value,axiom",
    [
        ((1, "w", "u"), "q(u,u,0)", "stretching.bracket-target"),
        ((1, "w", "u"), "q(w,w,0)", "stretching.bracket-source"),
        ((1, "w", "u"), "q(u,w,1)", "stretching.bracket-proj"),
        ((1, "u", "u"), "Q", "stretching.bracket-diagonal"),
    ],
)
def test_bracket_mutants_isolated(key, value, axiom):
    E = redirect_bracket(graded_loop_stretching(), key, value)
    rep = validate_stretching(E)
    assert rep.axiom_ids() == {axiom}


def test_pi_mutant_detected():
    E = redirect_pi(graded_loop_stretching(), 1, "u", "e")
    rep = validate_stretching(E)
    assert not rep.valid
    assert all(v.axiom.startswith("stretching.") for v in rep.violations)


def test_free_stretching_contains_coherence_cell():
    E = generate_free_stretching(one_edge_graph(), n=0, D=2, S=7)
    c1 = "(e *1.0 j[1.0](e))"
    c0 = "1[0.1](b)"
    assert (1, c1, c0) in E.brackets
    B = E.brackets[(1, c1, c0)]
    gs = E.m_side.magma.gs
    assert gs.map("target", 2)[B] == c1
    assert gs.map("source", 2)[B] == c0
    assert E.pi_of(2, B) == "1(id(b))"
    assert validate_stretching(E).valid
    assert validate_globular(gs).valid
    assert validate_magma(E.m_side.magma, require_total=False).valid


def test_free_stretching_empty_graph():
    g = globular_set(1, {0: [], 1: []})
    E = generate_free_stretching(g, 0, 2, 5)
    assert all(not E.m_side.magma.gs.grade(m) for m in range(3))


def test_free_stretching_rejects_high_dim():
    with pytest.raises(UnsupportedDimensionError):
        generate_free_stretching(one_edge_graph(), 0, 4, 3)


def test_free_stretching_rejects_groupoidal_two_generators():
    g = globular_set(
        2,
        {0: ["a"], 1: ["f", "g"], 2: ["al"]},
        src={1: {"f": "a", "g": "a"}, 2: {"al": "f"}},
        tgt={1: {"f": "a", "g": "a"}, 2: {"al": "g"}},
    )
    with pytest.raises(UnsupportedFreeConstructionError):
        generate_free_stretching(g, 0, 2, 4)
    # threshold 1 keeps the slot normal form available
    E = generate_free_stretching(g, 1, 2, 4)
    assert validate_stretching(E).valid


def _count_terms_oracle(g, n, D, S):
    """Independent enumerator: grow all terms recursively, then close."""
    from globforge.normalform import Strictifier
    from globforge.terms import TermContext

    strict = Strictifier(g, n)
    ctx = TermContext(g, n, strict)
    seen = {}
    for m in range(min(D, g.max_dim) + 1):
        for c in g.grade(m):
            t = ctx.gen(c)
            seen[t.name] = t
    changed = True
    while changed:
        changed = False
        items = list(seen.values())
        for t in items:
            d = t.dim
            if t.size + 1 <= S:
                if d + 1 <= D:
                    u = ctx.refl(d, d + 1, t)
                    if u.name not in seen:
                        seen[u.name] = u
                        changed = True
                for p in range(n, d):
                    u = ctx.rev(d, p, t)
                    if u.name not in seen:
                        seen[u.name] = u
                        changed = True
        for t1 in items:
            for t0 in items:
                d = t1.dim
                if t0.dim != d:
                    continue
                if t1.size + t0.size + 1 > S:
                    continue
                for p in range(d):
                    if ctx.boundary(t1, p, "source") == ctx.boundary(t0, p, "target"):
                        u = ctx.comp(d, p, t1, t0)
                        if u.name not in seen:
                            seen[u.name] = u
                            changed = True
                if (
                    d + 1 <= D
                    and t1 != t0
                    and (t1.size, t1.name) > (t0.size, t0.name)
                    and ctx.parallel(t1, t0)
                    and strict.pi(t1) == strict.pi(t0)
                ):
                    u = ctx.bracket(d, t1, t0)
                    if u.name not in seen:
                        seen[u.name] = u
                        changed = True
    from collections import Counter

    counts = Counter(t.dim for t in seen.values())
    return {m: counts.get(m, 0) for m in range(D + 1)}


def test_free_stretching_counts_match_oracle():
    g = one_edge_graph()
    E = generate_free_stretching(g, 0, 1, 4)
    oracle = _count_terms_oracle(g, 0, 1, 4)
    got = {m: len(E.m_side.magma.gs.grade(m)) for m in range(2)}
    assert got == oracle


def test_stretching_dump_round_trip():
    E = generate_free_stretching(one_edge_graph(), 0, 2, 5)
    text = dump_stretching(E)
    back = load_stretching(text)
    assert dump_stretching(back) == text
    assert validate_stretching(back).valid


def test_induced_algebra_from_free_stretching():
    g = one_edge_graph()
    E = generate_free_stretching(g, 0, 1, 5)
    G = free_groupoid_cells(g, 1)
    # v: evaluation of a term to its reduced word; lam: canonical inclusion
    from globforge.normalform import NF1, Strictifier
    from globforge.words import parse_word

    strict = Strictifier(g, 0)
    v = {m: dict(E.pi[m]) for m in E.pi}
    lam = {0: {a: a for a in G.gs.grade(0)}, 1: {}}
    for nm in G.gs.grade(1):
        w = parse_word(g, nm)
        lam[1][nm] = strict.canonical_term(NF1(w)).name
    induced = induced_algebra_magma(E, G.gs, v, lam)
    # induced composition is concatenate-then-reduce
    want = G.magma.comp.table(1, 0)
    got = induced.magma.comp.table(1, 0)
    for pair, z in want.items():
        assert got.get(pair) == z, pair
    # induced reversal is word reversal
    assert induced.rev.table(1, 0)["e+"] == "e-"
    assert induced.rev.table(1, 0)["id(a)"] == "id(a)"
    # evaluating a free reverse agrees with reversing the evaluation,
    # on every stored cell
    for (m, p), table in E.m_side.rev.maps.items():
        for t_name, jt_name in table.items():
            assert v[m][jt_name] == induced.rev.table(m, p)[v[m][t_name]]


def test_induced_algebra_section_violation():
    g = one_edge_graph()
    E = generate_free_stretching(g, 0, 1, 4)
    G = free_groupoid_cells(g, 1)
    v = {m: dict(E.pi[m]) for m in E.pi}
    lam = {0: {"a": "a", "b": "b"}, 1: {nm: "e" for nm in G.gs.grade(1)}}
    with pytest.raises(SectionViolationError):
        induced_algebra_magma(E, G.gs, v, lam)


def test_free_stretching_dimension_three():
    E = generate_free_stretching(one_edge_graph(), 0, 3, 6)
    gs = E.m_side.magma.gs
    assert gs.grade(3), "no 3-cells generated"
    assert validate_stretching(E).valid


def test_pi_stable_under_renormalization():
    g = one_edge_graph()
    E = generate_free_stretching(g, 0, 2, 6)
    from globforge.normalform import Strictifier, nf_name
    fresh = Strictifier(g, 0)
    for m, table in E.terms.items():
        for nm, t in table.items():
            assert E.pi_of(m, nm) == nf_name(fresh.pi(t))


def test_derive_reversors_rerun_is_stable():
    from globforge.magma import derive_canonical_reversors

    cat = free_groupoid_cells(one_edge_graph(), 2)
    first = derive_canonical_reversors(cat, 0)
    second = derive_canonical_reversors(cat, 0)
    assert first.maps == second.maps


def test_induced_algebra_single_point():
    # a single point with its degenerate loop: everything collapses
    g = globular_set(1, {0: ["a"], 1: []})
    E = generate_free_stretching(g, 0, 1, 5)
    G = globular_set(1, {0: ["a"], 1: ["ida"]}, src={1: {"ida": "a"}}, tgt={1: {"ida": "a"}})
    ida_term = "1[0.1](a)"
    v = {0: {"a": "a"}, 1: {nm: "ida" for nm in E.m_side.magma.gs.grade(1)}}
    lam = {0: {"a": "a"}, 1: {"ida": ida_term}}
    induced = induced_algebra_magma(E, G, v, lam)
    assert induced.magma.comp.table(1, 0) == {("ida", "ida"): "ida"}
    assert induced.magma.refl.table(0, 1) == {"a": "ida"}


def test_free_strict_two_category_side_validates():
    # the strict side of a generated stretching is composition by normal forms
    g = globular_set(
        2,
        {0: ["a", "b"], 1: ["f0", "f1"], 2: ["al"]},
        src={1: {"f0": "a", "f1": "a"}, 2: {"al": "f0"}},
        tgt={1: {"f0": "b", "f1": "b"}, 2: {"al": "f1"}},
    )
    E = generate_free_stretching(g, 2, 2, 6)
    assert validate_globular(E.c_side.magma.gs).valid
    assert validate_magma(E.c_side.magma, require_total=False).valid
    assert validate_strict(E.c_side.magma, require_total=False).valid
