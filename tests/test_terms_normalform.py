import gc
import weakref

import pytest
from fixtures import one_edge_graph
from hypothesis import example, given, settings, strategies as st

from globforge.cli import main
from globforge.globular import globular_set
from globforge.normalform import (
    NF1,
    NF2,
    Strictifier,
    UnsupportedFreeConstructionError,
    normalize2,
)
from globforge.stretching import generate_free_stretching
from globforge.terms import IllTypedTermError, StretchTerm, TermContext


def two_graph():
    """a -> b -> c with parallel legs and one 2-generator per hom."""
    return globular_set(
        2,
        {0: ["a", "b", "c"], 1: ["f0", "f1", "g0", "g1"], 2: ["al", "be"]},
        src={1: {"f0": "a", "f1": "a", "g0": "b", "g1": "b"}, 2: {"al": "f0", "be": "g0"}},
        tgt={1: {"f0": "b", "f1": "b", "g0": "c", "g1": "c"}, 2: {"al": "f1", "be": "g1"}},
    )


def test_term_construction_and_sizes():
    g = two_graph()
    ctx = TermContext(g, 2)
    al = ctx.gen(2, "al")
    assert al.dim == 2
    assert al.size == 1
    unit = ctx.refl(1, 2, ctx.src(al))
    t = ctx.comp(2, 1, al, unit)
    assert t.size == 4
    with pytest.raises(IllTypedTermError):
        ctx.comp(2, 1, al, al)  # target of al is not its source
    with pytest.raises(IllTypedTermError):
        ctx.comp(1, 0, ctx.gen(1, "f0"), ctx.gen(1, "f1"))


def test_multi_step_refl_normalizes_to_nested_one_steps():
    g = two_graph()
    ctx = TermContext(g, 2)
    a = ctx.gen(0, "a")
    t = ctx.refl(0, 2, a)
    assert t == ctx.refl(1, 2, ctx.refl(0, 1, a))
    assert t.size == 3


def test_rev_needs_threshold():
    g = one_edge_graph()
    ctx0 = TermContext(g, 0)
    ctx1 = TermContext(g, 1)
    e = ctx0.gen(1, "e")
    assert ctx0.rev(1, 0, e).kind == "rev"
    with pytest.raises(IllTypedTermError):
        ctx1.rev(1, 0, ctx1.gen(1, "e"))


def test_normalize2_unit_law():
    g = two_graph()
    ctx = TermContext(g, 2)
    al = ctx.gen(2, "al")
    t = ctx.comp(2, 1, al, ctx.refl(1, 2, ctx.src(al)))
    assert normalize2(g, t) == al


def test_normalize2_rejects_reversors():
    g = one_edge_graph()
    ctx = TermContext(g, 0)
    t = ctx.rev(1, 0, ctx.gen(1, "e"))
    with pytest.raises(IllTypedTermError):
        normalize2(g, t)


def grid_graph():
    """Vertically chainable 2-generators over two composable homs."""
    return globular_set(
        2,
        {
            0: ["a", "b", "c"],
            1: ["f0", "f1", "f2", "g0", "g1", "g2"],
            2: ["al1", "al2", "be1", "be2"],
        },
        src={
            1: {"f0": "a", "f1": "a", "f2": "a", "g0": "b", "g1": "b", "g2": "b"},
            2: {"al1": "f0", "al2": "f1", "be1": "g0", "be2": "g1"},
        },
        tgt={
            1: {"f0": "b", "f1": "b", "f2": "b", "g0": "c", "g1": "c", "g2": "c"},
            2: {"al1": "f1", "al2": "f2", "be1": "g1", "be2": "g2"},
        },
    )


def test_normalize2_interchange_grid():
    # the two middle-four bracketings of a 2x2 grid agree
    g = grid_graph()
    ctx = TermContext(g, 2)
    al1, al2, be1, be2 = (ctx.gen(2, c) for c in ("al1", "al2", "be1", "be2"))
    lhs = ctx.comp(2, 0, ctx.comp(2, 1, be2, be1), ctx.comp(2, 1, al2, al1))
    rhs = ctx.comp(2, 1, ctx.comp(2, 0, be2, al2), ctx.comp(2, 0, be1, al1))
    assert normalize2(g, lhs) == normalize2(g, rhs)


def test_normalize2_whisker_slides():
    # sliding independent layers past each other is invisible to the normal form
    g = two_graph()
    ctx = TermContext(g, 2)
    al, be = ctx.gen(2, "al"), ctx.gen(2, "be")
    id_g0 = ctx.refl(1, 2, ctx.gen(1, "g0"))
    id_f1 = ctx.refl(1, 2, ctx.gen(1, "f1"))
    id_f0 = ctx.refl(1, 2, ctx.gen(1, "f0"))
    id_g1 = ctx.refl(1, 2, ctx.gen(1, "g1"))
    first_low = ctx.comp(2, 1, ctx.comp(2, 0, be, id_f1), ctx.comp(2, 0, id_g0, al))
    first_high = ctx.comp(2, 1, ctx.comp(2, 0, id_g1, al), ctx.comp(2, 0, be, id_f0))
    direct = ctx.comp(2, 0, be, al)
    n1, n2, n3 = normalize2(g, first_low), normalize2(g, first_high), normalize2(g, direct)
    assert n1 == n2 == n3


def test_pi_dimension_one_words():
    g = one_edge_graph()
    strict = Strictifier(g, 0)
    ctx = TermContext(g, 0, strict)
    e = ctx.gen(1, "e")
    t = ctx.comp(1, 0, e, ctx.rev(1, 0, e))
    nf = strict.pi(t)
    assert isinstance(nf, NF1)
    assert nf.word.steps == ()
    assert nf.word.base == "b"
    assert nf.name == "id(b)"


def test_pi_degenerate_two_cells():
    g = one_edge_graph()
    strict = Strictifier(g, 0)
    ctx = TermContext(g, 0, strict)
    e = ctx.gen(1, "e")
    t = ctx.rev(2, 0, ctx.refl(1, 2, e))
    nf = strict.pi(t)
    assert isinstance(nf, NF2)
    assert nf.degenerate
    assert nf.dom.steps == (("e", -1),)


def test_threshold_zero_with_two_generators_unsupported():
    with pytest.raises(UnsupportedFreeConstructionError):
        Strictifier(two_graph(), 0)


def test_two_generator_with_non_parallel_faces_unsupported():
    # a letter swaps its source edge for its target edge inside a word, which
    # still chains only when the two edges are parallel
    g = globular_set(
        2,
        {0: ["a", "b", "c"], 1: ["f0", "f1"], 2: ["al"]},
        src={1: {"f0": "a", "f1": "a"}, 2: {"al": "f0"}},
        tgt={1: {"f0": "b", "f1": "c"}, 2: {"al": "f1"}},
    )
    with pytest.raises(UnsupportedFreeConstructionError, match="not parallel"):
        Strictifier(g, 1)


def test_threshold_one_vertical_inverses():
    g = two_graph()
    strict = Strictifier(g, 1)
    ctx = TermContext(g, 1, strict)
    al = ctx.gen(2, "al")
    t = ctx.comp(2, 1, ctx.rev(2, 1, al), al)
    nf = strict.pi(t)
    assert isinstance(nf, NF2)
    assert nf.degenerate  # the column cancels
    assert nf.dom.steps == (("f0", 1),)


def test_comp_nf_rejects_words_that_do_not_chain():
    # composites of valid words are not re-validated, so the junction check
    # is what still rejects a pair that does not chain
    from globforge.words import MalformedWordError, Word, make_word

    g = two_graph()
    strict = Strictifier(g, 2)
    f0, g0 = (NF1(make_word(g, "", [(e, 1)])) for e in ("f0", "g0"))
    assert strict.comp_nf(1, 0, g0, f0).name == "g0+.f0+"
    for a, b in ((f0, g0), (f0, f0), (NF1(Word("a", ())), f0), (f0, NF1(Word("c", ())))):
        with pytest.raises(MalformedWordError):
            strict.comp_nf(1, 0, a, b)
    ctx = TermContext(g, 2, strict)
    al, be = strict.pi(ctx.gen(2, "al")), strict.pi(ctx.gen(2, "be"))
    assert strict.comp_nf(2, 0, be, al).name == "2<g0+.f0+|0:be+,1:al+>"
    with pytest.raises(MalformedWordError):
        strict.comp_nf(2, 0, al, be)
    # threshold 0 reduces the horizontal composite, after the same check
    edge = one_edge_graph()
    flat = Strictifier(edge, 0)
    e = flat.refl_lift(NF1(make_word(edge, "", [("e", 1)])))
    with pytest.raises(MalformedWordError):
        flat.comp_nf(2, 0, e, e)


def test_canonical_term_round_trip():
    g = two_graph()
    strict = Strictifier(g, 2)
    ctx = TermContext(g, 2, strict)
    al, be = ctx.gen(2, "al"), ctx.gen(2, "be")
    t = ctx.comp(2, 0, be, al)
    nf = strict.pi(t)
    rebuilt = strict.canonical_term(nf)
    assert strict.pi(rebuilt) == nf


def test_bracket_requires_pi_equality():
    g = one_edge_graph()
    strict = Strictifier(g, 0)
    ctx = TermContext(g, 0, strict)
    e = ctx.gen(1, "e")
    c1 = ctx.comp(1, 0, e, ctx.rev(1, 0, e))
    c0 = ctx.refl(0, 1, ctx.gen(0, "b"))
    B = ctx.bracket(1, c1, c0)
    assert B.dim == 2
    assert ctx.tgt(B) == c1 and ctx.src(B) == c0
    with pytest.raises(IllTypedTermError):
        ctx.bracket(1, e, ctx.rev(1, 0, e))  # not parallel
    # diagonal collapses to the degenerate cell
    assert ctx.bracket(1, e, e) == ctx.refl(1, 2, e)


def test_bracket_distinct_but_pi_unequal():
    g = one_edge_graph()
    strict = Strictifier(g, 0)
    ctx = TermContext(g, 0, strict)
    e = ctx.gen(1, "e")
    double = ctx.comp(1, 0, e, ctx.comp(1, 0, ctx.rev(1, 0, e), e))
    # double strictifies to the single edge, so the pair is admissible
    assert ctx.bracket(1, double, e).kind == "bracket"


def _all_nf2(strict, g, max_word=2, max_col=2):
    """Every 2-dimensional normal form over short words and short columns."""
    from itertools import product

    from globforge.normalform import NF2
    from globforge.words import make_word, signed_edges, word_target

    ends = signed_edges(g)
    words = [make_word(g, a, []) for a in g.grade(0)]
    frontier = list(words)
    for _ in range(max_word):
        longer = []
        for w in frontier:
            head = word_target(ends, w)
            for e in g.grade(1):
                if g.map("source", 1)[e] == head:
                    longer.append(make_word(g, w.base, ((e, 1),) + w.steps))
        words.extend(longer)
        frontier = longer

    twogens = g.grade(2)

    def columns(edge):
        outs = [()]
        frontier = [((), edge)]
        for _ in range(max_col):
            nxt = []
            for col, cur in frontier:
                for gen2 in twogens:
                    lo, hi = g.map("source", 2)[gen2], g.map("target", 2)[gen2]
                    for sign, need, to in ((1, lo, hi), (-1, hi, lo)):
                        if cur != need:
                            continue
                        if col and col[-1] == (gen2, -sign):
                            continue  # not reduced
                        nxt.append((col + ((gen2, sign),), to))
            outs.extend(col for col, _ in nxt)
            frontier = nxt
        return outs

    out = []
    for w in words:
        per_slot = [columns(e) for e, _ in w.steps]
        for cols in product(*per_slot) if per_slot else [()]:
            out.append(NF2(w, tuple(cols)))
    return out


def test_threshold_one_nf_ops_satisfy_strict_axioms():
    # the normal-form presentation is itself a strict structure with
    # vertical inverses: checked by enumeration over small cells
    g = grid_graph()
    strict = Strictifier(g, 1)
    cells = _all_nf2(strict, g)
    assert len(cells) > 100
    by_dom = {}
    for z in cells:
        by_dom.setdefault(z.dom, []).append(z)

    ident = lambda w: strict.refl_lift(NF1(w))
    for z in cells:
        cod = strict.cod2(z)
        # units
        assert strict.comp_nf(2, 1, z, ident(z.dom)) == z
        assert strict.comp_nf(2, 1, ident(cod), z) == z
        # vertical inverses: both composites are degenerate
        j = strict.rev_nf(2, 1, z)
        assert strict.comp_nf(2, 1, j, z) == ident(z.dom)
        assert strict.comp_nf(2, 1, z, j) == ident(cod)
        assert strict.rev_nf(2, 1, j) == z

    # associativity over chained triples
    triples = 0
    for z1 in cells:
        for z2 in by_dom.get(strict.cod2(z1), ()):
            for z3 in by_dom.get(strict.cod2(z2), ()):
                lhs = strict.comp_nf(2, 1, z3, strict.comp_nf(2, 1, z2, z1))
                rhs = strict.comp_nf(2, 1, strict.comp_nf(2, 1, z3, z2), z1)
                assert lhs == rhs
                triples += 1
                if triples > 4000:
                    return
    assert triples > 100


def test_threshold_one_interchange_on_nf():
    from globforge.words import signed_edges, word_target

    g = grid_graph()
    ends = signed_edges(g)
    strict = Strictifier(g, 1)
    cells = _all_nf2(strict, g, max_word=1, max_col=1)
    checked = 0
    for y1 in cells:
        for y2 in cells:
            if strict.cod2(y1) != y2.dom:
                continue
            for x1 in cells:
                if y1.dom.base != word_target(ends, x1.dom):
                    continue
                for x2 in cells:
                    if strict.cod2(x1) != x2.dom:
                        continue
                    lhs = strict.comp_nf(
                        2, 0, strict.comp_nf(2, 1, y2, y1), strict.comp_nf(2, 1, x2, x1)
                    )
                    rhs = strict.comp_nf(
                        2, 1, strict.comp_nf(2, 0, y2, x2), strict.comp_nf(2, 0, y1, x1)
                    )
                    assert lhs == rhs
                    checked += 1
    assert checked > 50


# -- hash-consing ------------------------------------------------------------


def test_equal_constructions_are_identical():
    # one context builds one object per term; terms of two contexts are equal by name
    g = two_graph()
    ctx, other = TermContext(g, 2), TermContext(g, 2)
    a = ctx.comp(2, 1, ctx.gen(2, "al"), ctx.refl(1, 2, ctx.src(ctx.gen(2, "al"))))
    assert ctx.comp(2, 1, ctx.gen(2, "al"), ctx.refl(1, 2, ctx.gen(1, "f0"))) is a
    assert ctx.refl(0, 2, ctx.gen(0, "a")) is ctx.refl(1, 2, ctx.refl(0, 1, ctx.gen(0, "a")))
    assert ctx.src(a) is ctx.gen(1, "f0") and ctx.tgt(a) is ctx.gen(1, "f1")
    b = other.comp(2, 1, other.gen(2, "al"), other.refl(1, 2, other.gen(1, "f0")))
    assert a is not b
    assert a == b and hash(a) == hash(b) and {a: 1}[b] == 1
    assert ctx.refl(0, 2, ctx.gen(0, "a")) == other.refl(1, 2, other.refl(0, 1, other.gen(0, "a")))
    assert a != other.gen(2, "al") and ctx.gen(0, "a") != ctx.refl(0, 1, ctx.gen(0, "a"))
    with pytest.raises(TypeError):
        StretchTerm("gen", (0,), (), "a")  # only a context builds terms
    with pytest.raises(AttributeError):
        a.name = "b"


def test_gen_reads_a_generator_at_its_grade():
    # grades namespace names: the point a and the edge a: a -> b are two generators
    g = globular_set(1, {0: ["a", "b"], 1: ["a"]}, src={1: {"a": "a"}}, tgt={1: {"a": "b"}})
    ctx = TermContext(g, 0)
    point, edge = ctx.gen(0, "a"), ctx.gen(1, "a")
    assert (point.dim, edge.dim) == (0, 1) and edge is not point
    assert edge.src is point and edge.tgt is ctx.gen(0, "b") and ctx.gen(1, "a") is edge
    for m, name in ((1, "b"), (2, "a"), (0, "c")):
        with pytest.raises(IllTypedTermError, match=f"no generating {m}-cell named {name}"):
            ctx.gen(m, name)


def test_each_context_reads_faces_from_its_own_graph():
    # two graphs with an edge of the same name between different points
    g1 = globular_set(1, {0: ["a", "b"], 1: ["e"]}, src={1: {"e": "a"}}, tgt={1: {"e": "b"}})
    g2 = globular_set(1, {0: ["a", "b"], 1: ["e"]}, src={1: {"e": "b"}}, tgt={1: {"e": "a"}})
    c1, c2 = TermContext(g1, 0), TermContext(g2, 0)
    e1, e2 = c1.gen(1, "e"), c2.gen(1, "e")
    assert (c1.src(e1).name, c1.tgt(e1).name) == ("a", "b")
    assert (c2.src(e2).name, c2.tgt(e2).name) == ("b", "a")
    assert c1.tgt(c1.rev(1, 0, e1)).name == "a" and c2.tgt(c2.rev(1, 0, e2)).name == "b"


def _recomputed(t: StretchTerm) -> tuple[str, int, int]:
    """(name, size, dim) by structural recursion, independent of the stored fields."""
    parts = [_recomputed(a) for a in t.args]
    size = 1 + sum(sz for _, sz, _ in parts)
    if t.kind == "gen":
        return t.cell, size, t.dims[0]
    if t.kind == "comp":
        m, p = t.dims
        return f"({parts[0][0]} *{m}.{p} {parts[1][0]})", size, m
    if t.kind == "refl":
        p, m = t.dims
        return f"1[{p}.{m}]({parts[0][0]})", size, m
    if t.kind == "rev":
        m, p = t.dims
        return f"j[{m}.{p}]({parts[0][0]})", size, m
    assert t.kind == "bracket"
    (m,) = t.dims
    return f"[{parts[0][0]};{parts[1][0]}]{m}", size, m + 1


def test_stored_fields_match_recomputation_on_c7_universe():
    E = generate_free_stretching(one_edge_graph(), n=0, D=2, S=7)
    checked = 0
    for m, grade in E.terms.items():
        for nm, t in grade.items():
            assert (t.name, t.size, t.dim) == _recomputed(t)
            assert (nm, m) == (t.name, t.dim)
            checked += 1
    assert checked == 2 + 125 + 409


def test_terms_are_freed_with_their_stretching():
    E = generate_free_stretching(one_edge_graph(), n=0, D=2, S=6)
    t = max(E.terms[2].values(), key=lambda u: (u.size, u.name))
    ref = weakref.ref(t)
    del t, E
    gc.collect()
    assert ref() is None


def test_repeated_stretch_in_one_process_is_byte_identical(tmp_path, capsys):
    graph = tmp_path / "edge.glob"
    graph.write_text("structure edge\ndim 1\ncells 0: a b\ncells 1: e\nsrc e = a\ntgt e = b\n")
    dumps = []
    for k in range(2):
        path = tmp_path / f"dump{k}.json"
        assert main(["stretch", str(graph), "--n", "0", "--dim", "2", "--size", "7",
                     "--report", str(path)]) == 0
        dumps.append(path.read_bytes())
    capsys.readouterr()
    assert dumps[0] == dumps[1]


# every character the presentation reader admits in a name (none of blanks, "(", ")", ",", ":", "=" and "#"), as
# ASCII and beyond; a generator of grade 1 or more may not hold ".", ";", "[" or "]" either
_ADMITTED = [c for c in map(chr, range(0x21, 0x7F)) if c not in "(),:=#"] + ["é", "☃", "\U0001f600"]
_IN_GRADE = {0: _ADMITTED, 1: [c for c in _ADMITTED if c not in ".;[]"]}


@st.composite
def _named_graphs(draw):
    """A graph of dimension 2 whose names are drawn from what each grade admits; no name is in two grades."""
    taken: set[str] = set()

    def names(m, most):
        name = st.text(st.sampled_from(_IN_GRADE[min(m, 1)]), min_size=1, max_size=4).filter(lambda x: x not in taken)
        out = draw(st.lists(name, min_size=1 if m == 0 else 0, max_size=most, unique=True))
        taken.update(out)
        return out

    points = names(0, 2)
    edges = names(1, 3)
    ends = {e: (draw(st.sampled_from(points)), draw(st.sampled_from(points))) for e in edges}
    parallel = [(e1, e0) for e1 in edges for e0 in edges if ends[e1] == ends[e0]]
    globes = {c: draw(st.sampled_from(parallel)) for c in names(2, 2 if parallel else 0)}
    return globular_set(
        2, {0: points, 1: edges, 2: list(globes)},
        src={1: {e: a for e, (a, _) in ends.items()}, 2: {c: lo for c, (lo, _) in globes.items()}},
        tgt={1: {e: b for e, (_, b) in ends.items()}, 2: {c: hi for c, (_, hi) in globes.items()}},
    )


def _every_structure(g, n: int, D: int, S: int) -> list[tuple[tuple, StretchTerm]]:
    """Each well-typed term of size <= S and dimension <= D that generation would build, as a nested tuple of
    its constructors paired with the term TermContext builds for it.  Unlike generation, this keeps two
    structures apart when their terms share a name."""
    ctx = TermContext(g, n, Strictifier(g, n))
    by_size = {1: [(("gen", c), ctx.gen(m, c)) for m in range(D + 1) for c in g.grade(m)]}

    def build(made, structure, constructor, *args):
        try:
            made.append((structure, constructor(*args)))
        except IllTypedTermError:
            pass

    for s in range(2, S + 1):
        made = by_size[s] = []
        for u, t in by_size[s - 1]:
            if t.dim < D:
                build(made, ("refl", u), ctx.refl, t.dim, t.dim + 1, t)
            for p in range(n, t.dim):
                build(made, ("rev", p, u), ctx.rev, t.dim, p, t)
        for s1 in range(1, s - 1):
            for u1, t1 in by_size[s1]:
                for u0, t0 in by_size[s - 1 - s1]:
                    if t1.dim == t0.dim:
                        for p in range(t1.dim):
                            build(made, ("comp", p, u1, u0), ctx.comp, t1.dim, p, t1, t0)
                        if 1 <= t1.dim < D and u1 != u0:  # brackets pair m-terms, m >= 1
                            build(made, ("bracket", u1, u0), ctx.bracket, t1.dim, t1, t0)
    return [pair for made in by_size.values() for pair in made]


@settings(max_examples=40, deadline=None)
@given(_named_graphs(), st.integers(0, 1))
# 0-cells that hold what joins compound names, and generators that look like their heads
@example(globular_set(2, {0: ["x];y", "[", "x]", ";y"], 1: ["1", "j", "*1"], 2: []},
                      src={1: {"1": "x];y", "j": "[", "*1": "x]"}}, tgt={1: {"1": "[", "j": "x];y", "*1": ";y"}}), 0)
@example(globular_set(2, {0: [".", ";"], 1: ["e", "*"], 2: ["1"]}, src={1: {"e": ".", "*": "."}, 2: {"1": "e"}},
                      tgt={1: {"e": ";", "*": ";"}, 2: {"1": "*"}}), 1)
def test_a_term_name_names_one_term(g, n):
    if g.grade(2):
        n = 1  # normal forms of 2-generators need threshold 1
    seen: dict[tuple[int, str], tuple] = {}
    for structure, t in _every_structure(g, n, 2, 6):
        assert seen.setdefault((t.dim, t.name), structure) == structure, t.name
