import contextlib
import io
import json
import os
import tempfile

import pytest
from fixtures import bouquet, graph_file, one_edge_graph, two_edge_graph
from hypothesis import given, settings, strategies as st

from globforge.cli import main
from globforge.layers import validate_reflexors
from globforge.globular import globular_set, validate_globular
from globforge.magma import derive_canonical_reversors, validate_magma, validate_strict
from globforge.normalform import NF1, Strictifier
from globforge.words import (
    AmbiguousNameError,
    MalformedWordError,
    check_generator_names,
    Word,
    compose_words,
    enumerate_reduced_words,
    free_groupoid_cells,
    inverse_word,
    make_word,
    parse_word,
    reduce_word,
    signed_edges,
    word_name,
    word_target,
)
from word_oracle import reduce_word_any_order


def test_make_word_validates_chaining():
    g = two_edge_graph()
    w = make_word(g, "", [("f", 1), ("e", 1)])  # f after e : a -> c
    assert w.base == "a"
    assert word_target(signed_edges(g), w) == "c"
    with pytest.raises(MalformedWordError):
        make_word(g, "", [("e", 1), ("f", 1)])


@pytest.mark.parametrize("orient", [0, 2, -2])
def test_make_word_rejects_an_orientation_other_than_one(orient):
    g = two_edge_graph()
    with pytest.raises(MalformedWordError, match=rf"step \('e', {orient}\) has orientation {orient}, expected 1 or -1"):
        make_word(g, "", [("e", orient)])
    with pytest.raises(MalformedWordError, match="unknown edge z"):
        make_word(g, "", [("e", 1), ("z", orient)])


def test_reduce_cancels_inverse_pair():
    g = one_edge_graph()
    w = make_word(g, "", [("e", 1), ("e", -1)])  # e after e-inverse : b -> b
    r = reduce_word(g, w)
    assert r.steps == ()
    assert r.base == "b"
    assert word_name(r) == "id(b)"


def test_reduce_empty_word():
    g = one_edge_graph()
    w = make_word(g, "a", [])
    assert reduce_word(g, w) == w


def _oracle_leftmost(g, w):
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


def test_reduce_matches_fixpoint_oracle():
    # e: a -> b with a loop f at a, so the nested cancellation pattern chains
    from globforge.globular import globular_set

    g = globular_set(
        1,
        {0: ["a", "b"], 1: ["e", "f"]},
        src={1: {"e": "a", "f": "a"}},
        tgt={1: {"e": "b", "f": "a"}},
    )
    w = make_word(g, "", [("e", 1), ("f", 1), ("f", -1), ("e", -1), ("e", 1)])
    r = reduce_word(g, w)
    assert r == _oracle_leftmost(g, w)
    assert r.steps == (("e", 1),)
    assert reduce_word(g, r) == r  # idempotent


def _random_graph(rng, n_edges=4):
    points = ["p", "q", "r"]
    cells1 = [f"e{i}" for i in range(n_edges)]
    src = {c: rng.choice(points) for c in cells1}
    tgt = {c: rng.choice(points) for c in cells1}
    from globforge.globular import globular_set

    return globular_set(1, {0: points, 1: cells1}, src={1: src}, tgt={1: tgt})


def _random_word(g, rng, max_len):
    """Grow a composable word by prepending steps on the outside."""
    length = rng.randrange(max_len + 1)
    steps = []
    for _ in range(length):
        if steps:
            e0, o0 = steps[0]
            head = g.map("target", 1)[e0] if o0 > 0 else g.map("source", 1)[e0]
        else:
            head = None
        options = []
        for e in g.grade(1):
            for o in (1, -1):
                tail = g.map("source", 1)[e] if o > 0 else g.map("target", 1)[e]
                if head is None or tail == head:
                    options.append((e, o))
        if not options:
            break
        steps.insert(0, rng.choice(options))
    base = rng.choice(g.grade(0)) if not steps else ""
    return make_word(g, base, steps)


def test_random_orders_agree(rng):
    for _ in range(50):
        g = _random_graph(rng)
        w = _random_word(g, rng, 10)
        want = reduce_word(g, w)
        assert want == _oracle_leftmost(g, w)
        for _ in range(5):
            assert reduce_word_any_order(g, w, rng) == want


def test_free_groupoid_one_edge():
    cat = free_groupoid_cells(one_edge_graph(), 1)
    assert set(cat.gs.grade(1)) == {"id(a)", "id(b)", "e+", "e-"}
    assert cat.magma.comp.apply(1, 0, "e-", "e+") == "id(a)"
    assert cat.magma.comp.apply(1, 0, "e+", "e-") == "id(b)"
    assert validate_globular(cat.gs).valid
    assert validate_reflexors(cat.gs, cat.magma.refl).valid
    assert validate_magma(cat.magma).valid  # total at this bound
    assert validate_strict(cat.magma).valid
    rev = derive_canonical_reversors(cat)
    assert rev.apply(1, 0, "e+") == "e-"


def test_free_groupoid_rejects_negative_bound():
    with pytest.raises(ValueError, match="bound"):
        free_groupoid_cells(one_edge_graph(), -1)


def test_free_groupoid_empty_graph():
    from globforge.globular import globular_set

    g = globular_set(1, {0: ["a"], 1: []})
    cat = free_groupoid_cells(g, 3)
    assert cat.gs.grade(1) == ("id(a)",)


def test_free_groupoid_counts_match_enumeration_oracle():
    # oracle: enumerate all composable signed sequences of length <= 2 and reduce
    g = two_edge_graph()
    cat = free_groupoid_cells(g, 2)

    seen = set()
    sequences = [[]]
    signed = [(e, o) for e in g.grade(1) for o in (1, -1)]
    for _ in range(2):
        longer = []
        for seq in sequences:
            for step in signed:
                cand = [step] + seq
                try:
                    make_word(g, "", cand)
                except MalformedWordError:
                    continue
                longer.append(cand)
        sequences.extend(longer)
    for seq in sequences:
        if seq:
            seen.add(word_name(reduce_word(g, make_word(g, "", seq))))
        else:
            seen.update(word_name(Word(a, ())) for a in g.grade(0))
    assert set(cat.gs.grade(1)) == seen


def test_free_groupoid_partial_at_bound():
    # composition is absent exactly where the reduced result exceeds the bound
    from globforge.globular import globular_set

    loop = globular_set(1, {0: ["a"], 1: ["u"]}, src={1: {"u": "a"}}, tgt={1: {"u": "a"}})
    bounded = free_groupoid_cells(loop, 2)
    table = bounded.magma.comp.table(1, 0)
    assert ("u+.u+", "u+") not in table  # would have length 3
    assert ("u+.u+", "u-") in table
    rep = validate_magma(bounded.magma, require_total=False)
    assert rep.valid
    assert validate_strict(bounded.magma, require_total=False).valid


def test_reverse_word():
    g = two_edge_graph()
    w = make_word(g, "", [("f", 1), ("e", 1)])
    r = inverse_word(signed_edges(g), w)
    assert r.steps == (("e", -1), ("f", -1))
    assert r.base == "c"


def test_parse_word_forms():
    g = two_edge_graph()
    assert parse_word(g, "f+.e+").steps == (("f", 1), ("e", 1))
    assert parse_word(g, "f+ e+").steps == (("f", 1), ("e", 1))
    assert parse_word(g, "id(a)") == Word("a", ())
    with pytest.raises(MalformedWordError):
        parse_word(g, "e")
    with pytest.raises(MalformedWordError):
        parse_word(g, "e+.f-")  # endpoints do not chain


def test_enumerate_reduced_words_deterministic():
    g = two_edge_graph()
    a = [word_name(w) for w in enumerate_reduced_words(g, 3)]
    b = [word_name(w) for w in enumerate_reduced_words(g, 3)]
    assert a == b
    lengths = [len(w) for w in enumerate_reduced_words(g, 3)]
    assert lengths == sorted(lengths)  # shortest first


def _two_cycle():
    return globular_set(1, {0: ["a", "b"], 1: ["f", "g"]}, src={1: {"f": "a", "g": "b"}}, tgt={1: {"f": "b", "g": "a"}})


def _assert_table_matches_reduced_concatenation(g, max_len):
    """Every composable (y, x): the entry is the reduced concatenation when it
    fits within the bound and absent otherwise; no other entry exists."""
    maps = free_groupoid_cells(g, max_len).magma.comp.maps
    words, ends = enumerate_reduced_words(g, max_len), signed_edges(g)
    expected = {}
    for wy in words:
        for wx in words:
            if wy.base != word_target(ends, wx):
                continue
            z = reduce_word(g, Word(wx.base, wy.steps + wx.steps))
            if len(z) <= max_len:
                expected[(word_name(wy), word_name(wx))] = word_name(z)
    assert maps == {(1, 0): expected}


ORACLE_GRAPHS = {"bouquet1": bouquet(1), "bouquet2": bouquet(2), "path2": two_edge_graph(), "cycle2": _two_cycle()}


@pytest.mark.parametrize("name", sorted(ORACLE_GRAPHS))
@pytest.mark.parametrize("max_len", range(5))
def test_free_groupoid_table_is_reduced_concatenation(name, max_len):
    _assert_table_matches_reduced_concatenation(ORACLE_GRAPHS[name], max_len)


@st.composite
def _small_graphs(draw):
    points = draw(st.lists(st.sampled_from("abc"), min_size=1, max_size=3, unique=True))
    n_edges = draw(st.integers(0, 3))
    ends = [(draw(st.sampled_from(points)), draw(st.sampled_from(points))) for _ in range(n_edges)]
    edges = [f"e{i}" for i in range(n_edges)]
    return globular_set(
        1, {0: points, 1: edges},
        src={1: {e: s for e, (s, _) in zip(edges, ends)}},
        tgt={1: {e: t for e, (_, t) in zip(edges, ends)}},
    )


@settings(max_examples=60, deadline=None)
@given(_small_graphs(), st.integers(0, 3))
def test_free_groupoid_table_on_random_graphs(graph, max_len):
    _assert_table_matches_reduced_concatenation(graph, max_len)


@settings(max_examples=60, deadline=None)
@given(_small_graphs(), st.integers(0, 3))
def test_free_groupoid_command_prints_the_library_cells(graph, max_len):
    # a file per example: function-scoped fixtures would be shared across examples
    with tempfile.TemporaryDirectory() as tmp:
        path = graph_file(os.path.join(tmp, "graph.glob"), "graph", graph)
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["free-groupoid", path, "--max-len", str(max_len)]) == 0
    payload = json.loads(out.getvalue())
    gs = free_groupoid_cells(graph, max_len).gs
    assert payload["points"] == list(gs.grade(0)) and payload["cells"] == list(gs.grade(1))


def _hashimoto_counts(g, max_len: int) -> list[int]:
    """Reduced words of each length 0..max_len, counted without globforge.words.

    A reduced word of length k >= 1 is a non-backtracking walk of k signed
    edges, so their number is the sum of the entries of B^(k-1), where B is
    the non-backtracking (Hashimoto) matrix on the 2|E| signed edges: B[s][t]
    is 1 when s ends where t starts and t does not undo s.  Length 0 is one
    identity per point.
    """
    signed = [(e, o) for e in g.grade(1) for o in (1, -1)]
    src, tgt = g.map("source", 1), g.map("target", 1)
    ends = {(e, o): (src[e], tgt[e]) if o > 0 else (tgt[e], src[e]) for e, o in signed}
    B = [[int(ends[s][1] == ends[t][0] and t != (s[0], -s[1])) for t in signed] for s in signed]
    counts, row = [len(g.grade(0))], [1] * len(signed)  # row = 1^T B^(k-1)
    for _ in range(max_len):
        counts.append(sum(row))
        row = [sum(row[i] * B[i][j] for i in range(len(signed))) for j in range(len(signed))]
    return counts


@settings(max_examples=60, deadline=None)
@given(_small_graphs(), st.integers(0, 2))
def test_free_groupoid_counts_match_hashimoto_and_restrict_across_bounds(graph, max_len):
    small, big = free_groupoid_cells(graph, max_len), free_groupoid_cells(graph, max_len + 1)
    assert len(small.gs.grade(1)) == sum(_hashimoto_counts(graph, max_len))
    assert len(big.gs.grade(1)) == sum(_hashimoto_counts(graph, max_len + 1))
    # the bound-L groupoid is the bound-(L+1) one restricted to words of length <= L
    keep = {c for c in big.gs.grade(1) if len(parse_word(graph, c)) <= max_len}
    assert set(small.gs.grade(1)) == keep and small.gs.grade(0) == big.gs.grade(0)
    for side in ("source", "target"):
        assert small.gs.map(side, 1) == {c: x for c, x in big.gs.map(side, 1).items() if c in keep}
    assert small.magma.refl == big.magma.refl
    table = big.magma.comp.table(1, 0)
    assert small.magma.comp.table(1, 0) == {k: z for k, z in table.items() if {*k, z} <= keep}


def _oracle_head(g, w):
    """A word's target read straight off the graph's maps."""
    if not w.steps:
        return w.base
    edge, orient = w.steps[0]
    return g.map("target" if orient > 0 else "source", 1)[edge]


@st.composite
def _reduced_words(draw, g, start=None):
    """A valid reduced word, walked outward from start (a drawn point by default)
    over the graph's maps, never stepping straight back along the last edge."""
    src, tgt = g.map("source", 1), g.map("target", 1)
    base = draw(st.sampled_from(g.grade(0))) if start is None else start
    head, steps = base, []
    for _ in range(draw(st.integers(0, 4))):
        options = [
            (e, o) for e in g.grade(1) for o in (1, -1)
            if (src[e] if o > 0 else tgt[e]) == head and not (steps and steps[0] == (e, -o))
        ]
        if not options:
            break
        edge, orient = draw(st.sampled_from(options))
        steps.insert(0, (edge, orient))
        head = tgt[edge] if orient > 0 else src[edge]
    return make_word(g, base, steps)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_shared_word_operations_match_the_validating_oracle(data):
    g = data.draw(_small_graphs())
    ends, strict = signed_edges(g), Strictifier(g, 0)
    b = data.draw(_reduced_words(g))
    a = data.draw(_reduced_words(g, start=_oracle_head(g, b)))
    composite = compose_words(ends, a, b)
    assert composite == reduce_word(g, make_word(g, b.base, a.steps + b.steps))
    inverse = inverse_word(ends, a)
    assert inverse == make_word(g, _oracle_head(g, a), [(e, -o) for e, o in reversed(a.steps)])
    assert word_target(ends, a) == _oracle_head(g, a)
    assert strict.comp_nf(1, 0, NF1(a), NF1(b)).word == composite
    assert strict.rev_nf(1, 0, NF1(a)).word == inverse
    degenerate = strict.comp_nf(2, 0, strict.refl_lift(NF1(a)), strict.refl_lift(NF1(b)))
    assert degenerate == strict.refl_lift(NF1(composite)) and degenerate.dom == composite
    c = data.draw(_reduced_words(g))
    if c.base != _oracle_head(g, b):
        with pytest.raises(MalformedWordError):
            compose_words(ends, c, b)
        with pytest.raises(MalformedWordError):
            strict.comp_nf(1, 0, NF1(c), NF1(b))


@st.composite
def _signed_name_graphs(draw):
    """Small graphs whose point and edge names use + and - (no character a word name joins with)."""
    name = st.text("ab+-", min_size=1, max_size=3)
    points = draw(st.lists(name, min_size=1, max_size=2, unique=True))
    edges = draw(st.lists(name, min_size=0, max_size=3, unique=True))
    ends = [(draw(st.sampled_from(points)), draw(st.sampled_from(points))) for _ in edges]
    return globular_set(
        1, {0: points, 1: edges},
        src={1: {e: s for e, (s, _) in zip(edges, ends)}},
        tgt={1: {e: t for e, (_, t) in zip(edges, ends)}},
    )


@settings(max_examples=80, deadline=None)
@given(_signed_name_graphs(), st.integers(0, 3))
def test_a_word_name_reads_back_as_its_word(graph, max_len):
    check_generator_names(graph)
    words = enumerate_reduced_words(graph, max_len)
    assert all(parse_word(graph, word_name(w)) == w for w in words)
    assert len({word_name(w) for w in words}) == len(words)


@pytest.mark.parametrize("name", ["a+.b", "x;y", "[e", "f]1"])
def test_a_generator_name_that_joins_words_or_brackets_is_refused(name):
    g = globular_set(1, {0: ["o"], 1: ["a", name]}, src={1: {"a": "o", name: "o"}}, tgt={1: {"a": "o", name: "o"}})
    with pytest.raises(AmbiguousNameError) as caught:
        check_generator_names(g)
    assert f"cell {name} of grade 1" in str(caught.value)
    check_generator_names(globular_set(0, {0: [name]}, src={}, tgt={}))  # a point's name is never joined
