"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines."""

import os
import random
import time
from collections import defaultdict
from dataclasses import replace as dc_replace

import pytest
from fixtures import (
    cyclic_group_category,
    graded_loop_stretching,
    identity_stretching,
    klein_four_category,
    one_edge_graph,
    pad_to_dim,
    poset_category,
    product_category,
    redirect_bracket,
    redirect_comp,
    redirect_rev,
    square_2cat,
    sym3_category,
    two_cell_globe,
    two_edge_graph,
    walking_iso_category,
)
from test_layers import loops_graph, two_iso_globe, two_iso_reversors

from axiom_closure import closure_components, enumerate_terms
from globforge.engine import builtin_suites, check_suite
from globforge.engine.derivation import (
    BracketIntroStep,
    Derivation,
    InverseUniquenessStep,
    RewriteStep,
    Suite,
)
from globforge.engine.rules import rule_library
from globforge.globular import globular_set, validate_globular
from globforge.layers import (
    ReflexorStructure,
    ReversorStructure,
    validate_involutive,
    validate_reflexive_compat,
    validate_reflexors,
    validate_reversors,
)
from globforge.magma import (
    derive_canonical_reversors,
    validate_magma,
    validate_strict,
)
from globforge.normalform import Strictifier
from globforge.stretching import generate_free_stretching, validate_stretching
from globforge.terms import TermContext
from globforge.words import (
    free_groupoid_cells,
    make_word,
    reduce_word,
)
from word_oracle import reduce_word_any_order

SEED = int(os.environ.get("GLOBFORGE_SEED", "20240915"))


def _ok(n, detail, started):
    print(f"[PASS] criterion {n}: {detail} ({time.time() - started:.2f}s)")


# -- criterion 1: every axiom family has a valid fixture and a mutant kill ---


def _kill(report, family):
    assert not report.valid, f"{family}: mutant was accepted"
    fams = report.families()
    assert fams == {family.split(".")[0]}, f"{family}: mutant leaked into {fams}"


def test_c1_mutant_kill():
    started = time.time()
    checks = 0

    rep = validate_globular(two_cell_globe())
    assert rep.valid
    _kill(validate_globular(two_cell_globe(broken=True)), "globular")
    checks += 1

    gs2, rev2 = two_iso_globe(), two_iso_reversors()
    assert validate_reversors(gs2, rev2).valid
    _kill(validate_reversors(gs2, redirect_rev(rev2, (2, 0), "ph", "ph")), "reversor")
    iso_gs = globular_set(
        1, {0: ["a", "b"], 1: ["f", "g"]},
        src={1: {"f": "a", "g": "b"}}, tgt={1: {"f": "b", "g": "a"}},
    )
    _kill(
        validate_reversors(iso_gs, ReversorStructure(0, {(1, 0): {"f": "f", "g": "g"}})),
        "reversor",
    )
    checks += 1

    unit_gs = globular_set(
        1, {0: ["a", "b"], 1: ["ida", "idb", "f"]},
        src={1: {"ida": "a", "idb": "b", "f": "a"}},
        tgt={1: {"ida": "a", "idb": "b", "f": "b"}},
    )
    assert validate_reflexors(unit_gs, ReflexorStructure({(0, 1): {"a": "ida", "b": "idb"}})).valid
    _kill(
        validate_reflexors(unit_gs, ReflexorStructure({(0, 1): {"a": "f", "b": "idb"}})),
        "reflexor",
    )
    square = square_2cat()
    multi = {k: dict(t) for k, t in square.magma.refl.maps.items()}
    multi[(0, 2)] = {x: square.magma.refl.apply(0, 2, x) for x in square.gs.grade(0)}
    assert validate_reflexors(square.gs, ReflexorStructure(multi)).valid
    multi[(0, 2)] = dict(multi[(0, 2)], a="al")
    _kill(validate_reflexors(square.gs, ReflexorStructure(multi)), "reflexor")
    checks += 1

    iso = walking_iso_category()
    iso_rev = derive_canonical_reversors(iso)
    assert validate_involutive(iso.gs, iso_rev).valid
    cycle = ReversorStructure(0, {(1, 0): {"u": "v", "v": "w", "w": "u"}})
    assert validate_reversors(loops_graph(), cycle).valid
    _kill(validate_involutive(loops_graph(), cycle), "involutive")
    checks += 1

    assert validate_reflexive_compat(iso.gs, iso.magma.refl, iso_rev).valid
    _kill(
        validate_reflexive_compat(
            iso.gs, iso.magma.refl, redirect_rev(iso_rev, (1, 0), "id(a)", "id(b)")
        ),
        "reflexive-compat",
    )
    graded = graded_loop_stretching()
    cg = graded.c_side
    assert validate_reflexive_compat(cg.magma.gs, cg.magma.refl, cg.rev).valid
    mutated = redirect_rev(cg.rev, (2, 0), "c(m,m,0)", "c(m,m,1)")
    rep = validate_reflexive_compat(cg.magma.gs, cg.magma.refl, mutated)
    _kill(rep, "reflexive-compat")
    assert rep.axiom_ids() == {"reflexive-compat.ii"}
    checks += 1

    # positional clauses (a) and (b); clause (c) follows from (b) and the
    # globular identities, so no structure can violate it in isolation
    poset = poset_category(["a", "b", "c"])
    assert validate_magma(poset.magma).valid
    _kill(validate_magma(redirect_comp(poset, (1, 0), ("b<c", "a<b"), "a<b").magma), "positional")
    assert validate_magma(square.magma).valid
    _kill(
        validate_magma(redirect_comp(square, (2, 0), ("be", "al"), "g0f0>g1f0").magma),
        "positional",
    )
    checks += 1

    z3 = cyclic_group_category(3)
    assert validate_strict(z3.magma).valid
    _kill(validate_strict(redirect_comp(z3, (1, 0), ("r1", "r1"), "r1").magma), "assoc")
    checks += 1

    spare_gs = globular_set(
        1, {0: ["a", "b"], 1: ["a<a", "a<b", "b<b", "k"]},
        src={1: {"a<a": "a", "a<b": "a", "b<b": "b", "k": "a"}},
        tgt={1: {"a<a": "a", "a<b": "b", "b<b": "b", "k": "b"}},
    )
    from globforge.magma import CompositionStructure, InfinityMagma, StrictNCategory

    spare = StrictNCategory(
        InfinityMagma(
            spare_gs,
            ReflexorStructure({(0, 1): {"a": "a<a", "b": "b<b"}}),
            CompositionStructure({(1, 0): {
                ("a<b", "a<a"): "a<b", ("b<b", "a<b"): "a<b",
                ("k", "a<a"): "k", ("b<b", "k"): "k",
                ("a<a", "a<a"): "a<a", ("b<b", "b<b"): "b<b",
            }}),
        ),
        1,
    )
    assert validate_strict(spare.magma).valid
    _kill(validate_strict(redirect_comp(spare, (1, 0), ("a<b", "a<a"), "k").magma), "units")
    checks += 1

    assert validate_strict(square.magma).valid
    _kill(validate_strict(redirect_comp(square, (2, 0), ("be", "al"), "theta").magma), "interchange")
    checks += 1

    _kill(
        validate_strict(redirect_comp(square, (2, 0), ("1(g0)", "1(f0)"), "rho").magma),
        "refl-functorial",
    )
    checks += 1

    assert validate_stretching(graded).valid
    assert validate_stretching(identity_stretching(iso)).valid
    for key, value, axiom in (
        ((1, "w", "u"), "q(u,u,0)", "stretching.bracket-target"),
        ((1, "w", "u"), "q(w,w,0)", "stretching.bracket-source"),
        ((1, "w", "u"), "q(u,w,1)", "stretching.bracket-proj"),
        ((1, "u", "u"), "Q", "stretching.bracket-diagonal"),
    ):
        rep = validate_stretching(redirect_bracket(graded, key, value))
        assert rep.axiom_ids() == {axiom}, (axiom, rep.axiom_ids())
    checks += 1

    elapsed = time.time() - started
    assert elapsed < 5.0
    _ok(1, f"{checks} axiom families: valid fixtures accepted, mutants killed in-family", started)


# -- criterion 2: the dimension-1 computation, concretely --------------------


def test_c2_dimension_one_inverses():
    started = time.time()
    cat = free_groupoid_cells(one_edge_graph(), 4)
    rev = derive_canonical_reversors(cat)
    for cell in cat.gs.grade(1):
        assert rev.apply(1, 0, cell) is not None
    assert rev.apply(1, 0, "e+") == "e-"
    assert cat.magma.comp.apply(1, 0, "e+", "e-") == "id(b)"
    assert cat.magma.comp.apply(1, 0, "e-", "e+") == "id(a)"
    elapsed = time.time() - started
    assert elapsed < 1.0
    _ok(2, "every 1-cell of the bounded free groupoid has its reversal as inverse", started)


# -- criterion 3: proof suites replay, and every step mutation is caught -----

_LIB = sorted(rule_library())


def _mutate_step(step):
    if isinstance(step, RewriteStep):
        if step.rule in _LIB:
            return dc_replace(step, rule=_LIB[(_LIB.index(step.rule) + 1) % len(_LIB)])
        return dc_replace(step, rule=_LIB[0])
    if isinstance(step, InverseUniquenessStep):
        return dc_replace(step, direction="rev" if step.direction == "fwd" else "fwd")
    assert isinstance(step, BracketIntroStep)
    return dc_replace(step, face="src" if step.face == "tgt" else "tgt")


def _mutate_suite(suite, di, si):
    d = suite.derivations[di]
    steps = list(d.steps)
    steps[si] = _mutate_step(steps[si])
    ders = list(suite.derivations)
    ders[di] = Derivation(d.name, d.start, tuple(steps), d.end)
    return Suite(suite.name, suite.title, suite.assumptions, suite.local_rules, suite.facts, tuple(ders))


def test_c3_suites_and_mutations():
    started = time.time()
    suites = builtin_suites()
    for key, suite in suites.items():
        rep = check_suite(suite)
        assert rep.valid, (key, [v.detail for v in rep.violations[:2]])
    mutants = 0
    for key in ("S6", "S7"):
        suite = suites[key]
        for di, d in enumerate(suite.derivations):
            for si in range(len(d.steps)):
                rep = check_suite(_mutate_suite(suite, di, si))
                assert not rep.valid, (key, d.name, si)
                assert any(
                    d.name in v.cells and f"step {si}" in v.cells for v in rep.violations
                ), (key, d.name, si)
                mutants += 1
    elapsed = time.time() - started
    assert elapsed < 10.0
    _ok(3, f"all suites replay; {mutants} single-step mutations caught and named", started)


# -- criterion 4: derived reversors are involutive and reflexor-compatible ---


def _strict_fixtures():
    fixtures = {
        "free(edge,1)": free_groupoid_cells(one_edge_graph(), 1),
        "free(edge,2)": free_groupoid_cells(one_edge_graph(), 2),
        "free(edge,3)": free_groupoid_cells(one_edge_graph(), 3),
        "free(path,1)": free_groupoid_cells(two_edge_graph(), 1),
        "free(path,2)": free_groupoid_cells(two_edge_graph(), 2),
    }
    loop = globular_set(1, {0: ["a"], 1: ["u"]}, src={1: {"u": "a"}}, tgt={1: {"u": "a"}})
    fixtures["free(loop,2)"] = free_groupoid_cells(loop, 2)
    fixtures["free(loop,3)"] = free_groupoid_cells(loop, 3)
    fixtures["iso"] = walking_iso_category()
    for k in (2, 3, 4, 5):
        fixtures[f"z{k}"] = cyclic_group_category(k)
    fixtures["klein"] = klein_four_category()
    fixtures["s3"] = sym3_category()
    fixtures["iso*z2"] = product_category(walking_iso_category(), cyclic_group_category(2))
    fixtures["z2*z3"] = product_category(cyclic_group_category(2), cyclic_group_category(3))
    fixtures["iso*iso"] = product_category(walking_iso_category(), walking_iso_category())
    fixtures["klein*z2"] = product_category(klein_four_category(), cyclic_group_category(2))
    for name in ("iso", "z2", "z3", "klein", "iso*z2"):
        fixtures[f"pad({name})"] = pad_to_dim(fixtures[name], 2)
    from globforge.magma import StrictNCategory

    fixtures["graded-strict"] = StrictNCategory(graded_loop_stretching().c_side.magma, 0)
    return fixtures


def test_c4_derived_reversors_satisfy_theorems():
    started = time.time()
    fixtures = _strict_fixtures()
    assert len(fixtures) >= 20
    for name, cat in fixtures.items():
        assert validate_globular(cat.gs).valid, name
        assert validate_magma(cat.magma, require_total=False).valid, name
        assert validate_strict(cat.magma, require_total=False).valid, name
        rev = derive_canonical_reversors(cat)
        inv = validate_involutive(cat.gs, rev)
        compat = validate_reflexive_compat(cat.gs, cat.magma.refl, rev)
        assert inv.valid and compat.valid, (name, inv.violations, compat.violations)
    _ok(4, f"{len(fixtures)} strict fixtures: derived reversors involutive and compatible", started)


# -- criterion 5: reduction is confluent across random deletion orders -------


def _random_graph(rng):
    points = ["p", "q", "r"]
    n_edges = rng.randint(1, 4)
    edges = [f"e{i}" for i in range(n_edges)]
    return globular_set(
        1,
        {0: points, 1: edges},
        src={1: {e: rng.choice(points) for e in edges}},
        tgt={1: {e: rng.choice(points) for e in edges}},
    )


def _random_word(g, rng, max_len):
    length = rng.randrange(max_len + 1)
    steps = []
    for _ in range(length):
        if steps:
            e0, o0 = steps[0]
            head = g.map("target", 1)[e0] if o0 > 0 else g.map("source", 1)[e0]
        else:
            head = None
        options = [
            (e, o)
            for e in g.grade(1)
            for o in (1, -1)
            if head is None
            or (g.map("source", 1)[e] if o > 0 else g.map("target", 1)[e]) == head
        ]
        if not options:
            break
        steps.insert(0, rng.choice(options))
    base = rng.choice(g.grade(0)) if not steps else ""
    return make_word(g, base, steps)


def _fixpoint_oracle(g, w):
    steps = list(w.steps)
    changed = True
    while changed:
        changed = False
        for i in range(len(steps) - 1):
            if steps[i][0] == steps[i + 1][0] and steps[i][1] == -steps[i + 1][1]:
                del steps[i : i + 2]
                changed = True
                break
    return make_word(g, w.base, steps)


def test_c5_word_reduction_confluence():
    started = time.time()
    rng = random.Random(SEED)
    for _ in range(1000):
        g = _random_graph(rng)
        w = _random_word(g, rng, 12)
        want = _fixpoint_oracle(g, w)
        assert reduce_word(g, w) == want
        for _ in range(10):
            assert reduce_word_any_order(g, w, rng) == want
    _ok(5, "1000 random words x 10 random deletion orders agree with the fixpoint oracle", started)


# -- criterion 6: the 2-dimensional normal form matches axiom closure --------


def _c6_graph():
    """Two whiskerable 2-generators over two pairs of parallel edges;
    at most four generators in each dimension."""
    return globular_set(
        2,
        {0: ["a", "b", "c"], 1: ["f0", "f1", "g0", "g1"], 2: ["al", "be"]},
        src={1: {"f0": "a", "f1": "a", "g0": "b", "g1": "b"}, 2: {"al": "f0", "be": "g0"}},
        tgt={1: {"f0": "b", "f1": "b", "g0": "c", "g1": "c"}, 2: {"al": "f1", "be": "g1"}},
    )


def test_c6_normal_form_matches_axiom_closure():
    started = time.time()
    g = _c6_graph()
    strict = Strictifier(g, 2)
    ctx = TermContext(g, 2, strict)
    universe = enumerate_terms(ctx, 6)
    classes = defaultdict(list)
    for t in universe:
        classes[strict.pi(t).name].append(t)
    for key, members in classes.items():
        roots, discovered = closure_components(ctx, members, depth=6, cap=12)
        # soundness: no single-axiom move ever changes the normal form
        for t in discovered:
            assert strict.pi(t).name == key
        # completeness at this depth: the class is one component
        assert len({roots[t] for t in members}) == 1, key
    elapsed = time.time() - started
    assert elapsed < 60.0
    _ok(
        6,
        f"{len(universe)} terms in {len(classes)} classes; normal-form and closure partitions agree",
        started,
    )


# -- criterion 7: the bounded free stretching and its coherence cell ---------

# grade cardinalities computed by the independent recursive enumerator
# (tests/test_stretching.py) for one edge, threshold 0, dimension 2, size 7
C7_EXPECTED = {0: 2, 1: 125, 2: 409}


def test_c7_bounded_free_stretching():
    started = time.time()
    g = one_edge_graph()
    E = generate_free_stretching(g, n=0, D=2, S=7)
    c1 = "(e *1.0 j[1.0](e))"
    c0 = "1[0.1](b)"
    assert (1, c1, c0) in E.brackets
    B = E.brackets[(1, c1, c0)]
    assert E.m_side.magma.gs.map("target", 2)[B] == c1
    assert E.m_side.magma.gs.map("source", 2)[B] == c0
    assert validate_stretching(E).valid
    got = {m: len(E.m_side.magma.gs.grade(m)) for m in range(3)}
    assert got == C7_EXPECTED
    from test_stretching import _count_terms_oracle

    assert _count_terms_oracle(g, 0, 2, 7) == C7_EXPECTED
    elapsed = time.time() - started
    assert elapsed < 30.0
    _ok(7, f"coherence cell {B} present; grade counts {got} match the enumeration oracle", started)
