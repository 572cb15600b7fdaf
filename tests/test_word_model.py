"""An independent model of pi and of bracket completeness at threshold 0.

Over a 1-graph at threshold 0 the strict side of a free stretching is the
free strict groupoid on the graph: a 1-cell is a reduced word of signed
edges (words.free_reduce), read from its source point, and every 2-cell is
an identity.  The model evaluates each stored term by its constructors
alone: gen is one step, rev the inverse word, comp(t1, t0) the word of t0
followed by the word of t1, and refl the empty word.  It never calls the
strictifier, so a fault in pi cannot reach both sides of a comparison.

Against the model, over every stored term of a generated stretching:
  - pi partitions the d-cells as (source, model value) does;
  - both faces of every 2-term have one model value;
  - the 1-dimensional brackets are exactly the parallel, model-equal pairs
    (t1, t0) with size(t1) + size(t0) + 1 <= S, the larger in (size, name)
    order as target, and the diagonal ones on terms of size below S.
At D=3 a 3-cell is an identity too: pi partitions the 3-cells as the model
value of their 2-source does, and, as parallel 2-cells are equal, the
2-dimensional brackets are exactly the parallel pairs of 2-terms within the
same size bound, plus the diagonal ones.

The stored 1-terms are checked for coverage too: their (source, target,
word) values are exactly those the model's constructors reach within the
size bound, grown from the graph's own points and edges.  Graphs drawn by
hypothesis take point and edge names from one pool, so an edge may share a
point's name, and names hold "+" and "-" as word names do.
"""

from __future__ import annotations

import pytest
from fixtures import bouquet, two_edge_graph
from hypothesis import example, given, settings, strategies as st

from globforge.globular import globular_set
from globforge.stretching import generate_free_stretching
from globforge.words import free_reduce


def _model(t):
    """A 0-term's point; a 1-term's (source point, reduced word); a 2- or
    3-term's model is the 1-cell it is an identity on, checked on both faces."""
    if t.dim == 0:
        return t.name
    if t.dim >= 2:
        face = _model(t.src)
        assert _model(t.tgt) == face, (t.name, "faces disagree in the model")
        return face
    return t.src.name, _word(t)


def _word(t) -> tuple:
    if t.kind == "gen":
        return ((t.cell, 1),)
    if t.kind == "refl":
        return ()
    if t.kind == "rev":
        return tuple((e, -o) for e, o in reversed(_word(t.args[0])))
    t1, t0 = t.args  # comp: t1 after t0
    return free_reduce(_word(t0) + _word(t1))


def _classes(names, key) -> set[frozenset]:
    by: dict = {}
    for nm in names:
        by.setdefault(key(nm), set()).add(nm)
    return {frozenset(c) for c in by.values()}


def _brackets(E, model, d: int, S: int) -> set[tuple[int, str, str]]:
    """The d-dimensional brackets the model asks for: parallel, model-equal pairs within the size bound."""
    terms = sorted(E.terms[d].values(), key=lambda t: (t.size, t.name))
    return {
        (d, t1.name, t0.name)
        for i, t0 in enumerate(terms) for t1 in terms[i:]
        if model[d][t1.name] == model[d][t0.name] and t1.src is t0.src and t1.tgt is t0.tgt
        and (t1.size + t0.size + 1 if t1 is not t0 else t1.size + 1) <= S
    }


def _reachable(g, S: int) -> set[tuple[str, str, tuple]]:
    """The (source, target, word) of every 1-term of size <= S, by the model's constructors
    alone: gen an edge, refl a point (size 2), rev a 1-term and comp two chaining 1-terms."""
    src, tgt = g.map("source", 1), g.map("target", 1)
    by_size = {1: {(src[e], tgt[e], ((e, 1),)) for e in g.grade(1)}, 2: {(a, a, ()) for a in g.grade(0)}}
    for s in range(2, S + 1):
        vals = by_size.setdefault(s, set())
        vals.update((b, a, tuple((e, -o) for e, o in reversed(w))) for a, b, w in by_size[s - 1])
        for s1 in range(1, s - 1):
            vals.update((a0, b1, free_reduce(w0 + w1))
                        for a1, b1, w1 in by_size[s1] for a0, b0, w0 in by_size[s - 1 - s1] if a1 == b0)
    return set().union(*(by_size[s] for s in range(1, S + 1)))


def _check(graph, D: int, S: int) -> list[tuple[int, int]]:
    """Check the stored points and 1-terms, pi and the brackets against the model; per level
    d < D, the pi classes of the d-cells and the count of non-diagonal d-dimensional brackets."""
    g = graph()
    E = generate_free_stretching(g, 0, D, S)
    assert set(E.terms[0]) == (set(g.grade(0)) if S else set())
    assert {(t.src.name, t.tgt.name, _word(t)) for t in E.terms[1].values()} == _reachable(g, S)
    model = {d: {nm: _model(t) for nm, t in E.terms[d].items()} for d in range(D + 1)}
    for d in range(D + 1):
        assert _classes(E.terms[d], E.pi[d].__getitem__) == _classes(E.terms[d], model[d].__getitem__), d
    counts = []
    for d in range(1, D):
        got = {key for key in E.brackets if key[0] == d}
        assert got == _brackets(E, model, d, S), d
        counts.append((len(set(E.pi[d].values())), sum(t1 != t0 for _, t1, t0 in got)))
    return counts


CASES = {
    "two-edge path S=8": (two_edge_graph, 8, 9, 77),
    "bouquet(1) S=7": (lambda: bouquet(1), 7, 8, 11),
    "bouquet(2) S=6": (lambda: bouquet(2), 6, 51, 7),
}


@pytest.mark.parametrize("graph, S, classes1, brackets1", CASES.values(), ids=CASES)
def test_pi_and_brackets_match_the_free_groupoid_model(graph, S, classes1, brackets1):
    assert _check(graph, 2, S) == [(classes1, brackets1)]


CASES3 = {
    "two-edge path S=7": (two_edge_graph, 7, [(9, 24), (9, 6)]),
    "bouquet(1) S=7": (lambda: bouquet(1), 7, [(8, 11), (7, 3)]),
    "bouquet(2) S=6": (lambda: bouquet(2), 6, [(51, 7), (25, 2)]),
}


@pytest.mark.parametrize("graph, S, counts", CASES3.values(), ids=CASES3)
def test_pi_and_brackets_match_the_model_in_dimension_three(graph, S, counts):
    assert _check(graph, 3, S) == counts


_NAMES = ("a", "b", "a+", "a-", "+")  # points and edges draw from one pool


@st.composite
def _named_graphs(draw):
    points = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=3, unique=True))
    edges = draw(st.lists(st.sampled_from(_NAMES), min_size=1, max_size=2, unique=True))
    src = {e: draw(st.sampled_from(points)) for e in edges}
    tgt = {e: draw(st.sampled_from(points)) for e in edges}
    return globular_set(1, {0: points, 1: edges}, {1: src}, {1: tgt})


@settings(max_examples=40, deadline=None)
@given(_named_graphs(), st.sampled_from([1, 2]), st.integers(1, 5))
@example(globular_set(1, {0: ["a", "b"], 1: ["a"]}, {1: {"a": "a"}}, {1: {"a": "b"}}), 2, 4)
@example(globular_set(1, {0: ["a+", "a"], 1: ["a", "+"]}, {1: {"a": "a+", "+": "a"}}, {1: {"a": "a", "+": "a+"}}), 2, 5)
def test_pi_and_brackets_match_the_model_on_drawn_graphs(graph, D, S):
    _check(lambda: graph, D, S)
