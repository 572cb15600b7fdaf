import hashlib
import json
from collections import Counter
from types import SimpleNamespace

import pytest
from fixtures import (
    graded_loop_stretching,
    identity_stretching,
    one_edge_graph,
    redirect_bracket,
    redirect_pi,
    two_cell_globe,
    two_edge_graph,
    walking_iso_category,
)
from hypothesis import example, given, settings, strategies as st
from test_words import _small_graphs

from globforge import report
from globforge.cli import main
from globforge.globular import globular_set, validate_globular
from globforge.magma import validate_magma, validate_strict
from globforge.normalform import UnsupportedFreeConstructionError
from globforge.report import parse_report, write_json
from globforge.stretching import (
    InvalidGraphError,
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


def test_generation_rejects_a_malformed_graph():
    g = globular_set(1, {0: ["a", "b"], 1: ["e"]}, src={1: {"e": "a"}})
    with pytest.raises(InvalidGraphError) as info:
        generate_free_stretching(g, 0, 1, 2)
    assert info.value.report == validate_globular(g)
    assert info.value.report.axiom_ids() == {"globular.map"}


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
            t = ctx.gen(m, c)
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


# SHA-256 of dump_stretching, pinned before normal forms carried their names,
# words were composed without re-validation and the dump was streamed
DUMP_DIGESTS = {
    ("edge", 0, 2, 7): "9f2f2e9666e389c0d8fa2a6146960dcbdd83ce8f7df9ee86b01b7466f04b643f",
    ("edge", 0, 3, 6): "b972293847c5d2a1c848782a7e3e6bb215de597bb2ade8a6b94967fc1ec136ec",
    ("edge", 1, 2, 7): "a9bf3205e2bcd51b7c59fb324b01ac5454e339fa0eb9af8aec1e6b44aab76ca4",
    ("path", 0, 2, 6): "f11e6c460ddc31ef179164788fd9c02261abcbddbf222caeb87584136061ff60",
    # the bounds of perfbench's stretch workload, pinned before the strict side was built as an image
    ("edge", 0, 2, 9): "adde85b5758e55bdc211ae3ffdc04e1336049f114137861aac47b105d71719e0",
    ("edge", 0, 3, 8): "a4d3a1ac16512db10cad8a2389e49976a80c2661d53fe2eff7fb59a418a57998",
    ("edge", 1, 2, 9): "bf0ddb0676921c7a1ae472f32339af29824549331ebf84737a81686f2abd347b",
    ("path", 0, 2, 8): "2b5a5fe835c00239aad5e11d58ec7f71b64326c8e71f78e848b72c50e490fd19",
    # a 2-generator: NF2 columns, comp at p=1 and rev(2, 1), which the edge and path rows do not reach
    ("globe", 1, 2, 9): "aaf7051a2e5eb149fa65bf8f3424d266999074dcb93ed849955fdf988126fd6e",
    ("globe", 1, 3, 7): "21381a4d9e6c83cd331b2333e2dd5931afdb0d1b4210ee777aad6f0c0b91220f",
    ("globe", 2, 3, 8): "cbed7b3083550eadf4a2755588881169596b315ec11347e4da4b293a3403268b",
}


@pytest.mark.parametrize("key", list(DUMP_DIGESTS))
def test_dump_digests(key):
    graph, n, D, S = key
    g = {"edge": one_edge_graph, "path": two_edge_graph, "globe": two_cell_globe}[graph]()
    text = dump_stretching(generate_free_stretching(g, n, D, S))
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_DIGESTS[key]


_DROP = object()  # an edit value that deletes the key


def _edited(*edits) -> str:
    """The dump of the edge at n=0 D=1 S=4 with each edit (key, ..., value) applied;
    a callable value maps the old value to the new one."""
    payload = json.loads(dump_stretching(generate_free_stretching(one_edge_graph(), 0, 1, 4)))
    for *path, key, value in edits:
        parent = payload
        for step in path:
            parent = parent[step]
        if value is _DROP:
            del parent[key]
        else:
            parent[key] = value(parent[key]) if callable(value) else value
    return json.dumps(payload)


def _repeating(*path, key: str, first: str):
    """A thunk for the edge dump's text in which the object at path lists key
    twice, first with the value first and then with its own value."""
    def text() -> str:
        payload = json.loads(_edited())
        parent = payload
        for step in path[:-1]:
            parent = parent[step]
        obj = parent[path[-1]]
        parent[path[-1]] = "@repeated@"
        assert key in obj
        return json.dumps(payload).replace('"@repeated@"', json.dumps({key: first})[:-1] + ", " + json.dumps(obj)[1:])

    return text


# load_stretching's ValueError texts: a raw text, a thunk for one, or edits of the edge dump
DUMP_ERRORS = [
    ("", "Expecting value: line 1 column 1 (char 0)"),
    ("[" * 100_000 + "]" * 100_000, "$: JSON nested too deeply"),
    ("[]", "$: expected a JSON object, got array"),
    ('{"kind": "report"}', "$.kind is 'report', expected 'stretching'"),
    ('{"kind": "stretching"}', "$: missing key 'm_side'"),
    ((("m_side", []),), "$.m_side: expected a JSON object, got array"),
    ((("m_side", "max_dim", _DROP),), "$.m_side: missing key 'max_dim'"),
    ((("c_side", "max_dim", True),), "$.c_side.max_dim: expected a JSON integer, got boolean"),
    ((("m_side", "max_dim", 1.5),), "$.m_side.max_dim: expected a JSON integer, got number"),
    ((("m_side", "max_dim", None),), "$.m_side.max_dim: expected a JSON integer, got null"),
    ((("m_side", "max_dim", -1),), "$.m_side.max_dim: -1 is negative"),
    ((("m_side", "max_dim", 3),), "$.m_side.max_dim: 3 names grade 2, which $.m_side.cells lacks"),
    ((("m_side", "cells", "x", []),), "$.m_side.cells: key 'x' is not of the form m"),
    ((("m_side", "cells", "0", "a"),), "$.m_side.cells.0: expected a JSON array, got string"),
    ((("m_side", "cells", "0", ["a", 1]),), "$.m_side.cells.0: expected a JSON string, got integer"),
    ((("m_side", "cells", "0", ["a", "a", "b"]),), "duplicate cell names in grade 0: ['a']"),
    ((("c_side", "cells", "2", ["x"]),), "cells declared above the truncation bound 1: grades [2]"),
    ((("m_side", "src", "1", []),), "$.m_side.src.1: expected a JSON object, got array"),
    ((("m_side", "tgt", "1", "e", 1),), "$.m_side.tgt.1.e: expected a JSON string, got integer"),
    ((("m_side", "tgt", "1", "e\nf", 1),), "$.m_side.tgt.1.e f: expected a JSON string, got integer"),
    ((("m_side", "refl", "0", {}),), "$.m_side.refl: key '0' is not of the form m.p"),
    ((("m_side", "refl", "0.1", []),), "$.m_side.refl.0.1: expected a JSON object, got array"),
    ((("c_side", "rev", "1.0", "e+", ["e-"]),), "$.c_side.rev.1.0.e+: expected a JSON string, got array"),
    ((("m_side", "comp", "1.0", {}),), "$.m_side.comp.1.0: expected a JSON array, got object"),
    ((("m_side", "comp", "1.0", ["e"]),), "$.m_side.comp.1.0: expected a JSON array, got string"),
    ((("m_side", "comp", "1.0", [["e", "e"]]),), "$.m_side.comp.1.0: expected rows of 3 items, got 2"),
    ((("m_side", "comp", "1.0", [["e", 0, "e"]]),), "$.m_side.comp.1.0: expected a JSON string, got integer"),
    ((("c_side", "threshold", _DROP),), "$.c_side: missing key 'threshold'"),
    ((("m_side", "src", "1", "e", _DROP),), "m_side: globular.map: source of 1-cell e is not declared"),
    (
        (("c_side", "cells", "1", ["e+", "e-", "id(a)", "id(b)", "x\ny"]),),
        "c_side: globular.map: source of 1-cell x y is not declared",
    ),
    ((("brackets", _DROP),), "$: missing key 'brackets'"),
    ((("brackets", [[0, "a", "a"]]),), "$.brackets: expected rows of 4 items, got 3"),
    ((("brackets", [["0", "a", "a", "1[0.1](a)"]]),), "$.brackets: expected a JSON integer, got string"),
    ((("threshold", "0"),), "$.threshold: expected a JSON integer, got string"),
    ((("pi", "1", []),), "$.pi.1: expected a JSON object, got array"),
    ((("pi", "1.0", {}),), "$.pi: key '1.0' is not of the form m"),
    # two faults: the side's refl tables are read before its threshold
    (
        (("m_side", "refl", "0.1", []), ("m_side", "threshold", _DROP)),
        "$.m_side.refl.0.1: expected a JSON object, got array",
    ),
    # a grade is spelt as the writer spells it: ASCII digits, no sign, blank or leading zero
    *(
        ((("m_side", "comp", key, []),), f"$.m_side.comp: key {key!r} is not of the form m.p")
        for key in ("+1.0", " 1. 0", "01.0", "1.00", "\u0661.\u0660", "1_0.0", "1.0 ", "1" * 5000 + ".0")
    ),
    ((("c_side", "cells", "01", []),), "$.c_side.cells: key '01' is not of the form m"),
    ((("pi", "-0", {}),), "$.pi: key '-0' is not of the form m"),
    # a row that repeats a pair, whichever comes first
    (
        (("m_side", "comp", "1.0", lambda rows: [["e", "1[0.1](a)", "e"], *rows]),),
        "$.m_side.comp.1.0: repeated row for ('e', '1[0.1](a)')",
    ),
    (
        (("c_side", "comp", "1.0", lambda rows: [*rows, rows[0]]),),
        "$.c_side.comp.1.0: repeated row for ('e+', 'e-')",
    ),
    (
        (("brackets", lambda rows: [[0, "a", "a", "bogus"], *rows]),),
        "$.brackets: repeated row for (0, 'a', 'a')",
    ),
    # a repeated key of a JSON object, which json.loads would let shadow the first
    (_repeating("m_side", "rev", "1.0", key="e", first="e"), "a JSON object repeats the key 'e'"),
    (_repeating("pi", "1", key="j[1.0](e)", first="e+"), "a JSON object repeats the key 'j[1.0](e)'"),
]


@pytest.mark.parametrize("dump, message", DUMP_ERRORS)
def test_dump_error_text(dump, message):
    text = dump if isinstance(dump, str) else dump() if callable(dump) else _edited(*dump)
    with pytest.raises(ValueError) as err:
        load_stretching(text)
    assert str(err.value) == message


def test_a_repeated_key_is_all_that_fails_its_dump():
    # json.loads alone keeps the last value of a repeated key, and reads the edge dump itself
    thunks = [dump for dump, _ in DUMP_ERRORS if callable(dump)]
    assert len(thunks) == 2
    for dump in thunks:
        assert json.loads(dump()) == json.loads(_edited())


def test_a_threshold_apart_from_the_sides_is_a_verdict(tmp_path, capsys):
    rep = validate_stretching(load_stretching(_edited(("threshold", 7))))
    assert [(v.axiom, v.detail) for v in rep.violations] == [
        ("stretching.threshold", f"{side}: threshold 0 differs from the stretching's threshold 7")
        for side in ("m_side", "c_side")
    ]
    path = tmp_path / "dump.json"
    path.write_text(_edited(("threshold", 7)))
    assert main(["validate", str(path), "--layer", "stretching"]) == 1
    assert parse_report(capsys.readouterr().out).axiom_ids() == {"stretching.threshold"}
    rep = validate_stretching(load_stretching(_edited(("threshold", 1), ("m_side", "threshold", 1))))
    assert [v.detail for v in rep.violations if v.axiom == "stretching.threshold"] == [
        "c_side: threshold 0 differs from the stretching's threshold 1"
    ]


def test_each_normal_form_operation_runs_once_per_input(monkeypatch):
    # the strict side is tiny: 3,886 terms at these bounds have 10 normal forms
    from globforge.normalform import Strictifier

    calls = Counter()
    for attr in ("comp_nf", "rev_nf", "refl_lift"):
        def counted(self, *args, _attr=attr, _fn=getattr(Strictifier, attr)):
            calls[_attr] += 1
            return _fn(self, *args)

        monkeypatch.setattr(Strictifier, attr, counted)
    text = dump_stretching(generate_free_stretching(one_edge_graph(), 0, 2, 9))
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_DIGESTS[("edge", 0, 2, 9)]
    assert 0 < sum(calls.values()) <= 100, calls


# strings that exercise json's escapes: quotes, backslashes, control
# characters, newlines, non-ASCII and non-BMP characters
_TEXT = st.text(st.sampled_from('ab1 "\\/\n\r\t\b\x00\x1f\x7f\u00e9\u2028\uffff\U0001f600'), max_size=6)
_JSON_TREES = st.recursive(
    _TEXT | st.integers() | st.lists(_TEXT) | st.dictionaries(_TEXT, _TEXT),
    lambda inner: st.lists(inner, max_size=5) | st.dictionaries(_TEXT, inner, max_size=5),
    max_leaves=10,
)


def _rows_as_lists(tree):
    """tree with each tuple-keyed dict replaced by the list of its rows [*key, value] in key order."""
    if isinstance(tree, list):
        return [_rows_as_lists(x) for x in tree]
    if isinstance(tree, dict):
        if tree and isinstance(next(iter(tree)), tuple):
            return [[*key, _rows_as_lists(value)] for key, value in sorted(tree.items())]
        return {key: _rows_as_lists(value) for key, value in tree.items()}
    return tree


_ESCAPED = 'q"\\\n\x00\u00e9\u2028\U0001f600'  # escapes and non-ASCII, for each place the writer encodes a str


@settings(max_examples=100, deadline=None)
@given(_JSON_TREES)
# a first item that is not a str beyond the first chunk: the items before it are already written
@example(["a"] * 600 + [7, "b"])
@example({**{f"k{i:04}": "v" for i in range(1100)}, "z": {"y": ["x"]}})
# one str as a key, a value, a row item and a list item, in each order: each place writes it as json does
@example({_ESCAPED: _ESCAPED, "r": {(1, _ESCAPED, "x"): _ESCAPED, (2, "y", _ESCAPED): "z"}, "s": [_ESCAPED, _ESCAPED]})
@example([[_ESCAPED], {(_ESCAPED,): _ESCAPED}, {"k": _ESCAPED}, {_ESCAPED: [_ESCAPED, {_ESCAPED: 1}]}])
def test_write_json_is_json_dumps(tree):
    chunks = []
    write_json(tree, chunks.append)
    assert "".join(chunks) == json.dumps(_rows_as_lists(tree), sort_keys=True, indent=2) + "\n"


def test_write_json_writes_in_batches():
    # more than 1024 pieces, and a joined list of more than 64K characters
    tree = {"rows": [[i, "x" * (i % 7), "\u00e9"] for i in range(3000)], "names": ["n" * 100] * 2000}
    chunks = []
    write_json(tree, chunks.append)
    assert len(chunks) > 2
    assert "".join(chunks) == json.dumps(tree, sort_keys=True, indent=2) + "\n"


def test_write_json_writes_a_tuple_keyed_dict_as_its_rows():
    rows = {(i % 3, f"y{i:04}", "x"): f"z{i}" for i in range(700)}
    rows[(1, "y0650", "x")] = ["not", "a", "str"]  # beyond the first chunk
    cases = [
        ({"t": {("b", "a"): "c", ("a", "b"): "d"}}, {"t": [["a", "b", "d"], ["b", "a", "c"]]}),
        (rows, [[*key, value] for key, value in sorted(rows.items())]),
    ]
    for tree, want in cases:
        chunks = []
        write_json(tree, chunks.append)
        assert "".join(chunks) == json.dumps(want, sort_keys=True, indent=2) + "\n"


def test_dump_reaches_its_sink_in_bounded_pieces():
    # the src table of grade 2 alone is about 350K characters
    pieces = []
    dump_stretching(generate_free_stretching(one_edge_graph(), 0, 2, 9), SimpleNamespace(write=pieces.append))
    assert hashlib.sha256("".join(pieces).encode()).hexdigest() == DUMP_DIGESTS[("edge", 0, 2, 9)]
    assert max(map(len, pieces)) <= 1 << 17 and len(pieces) > 16


@pytest.mark.parametrize("tree", [
    1.5, True, None, (1, 2), ["a", None], {"a": {1: "b"}}, {"a": "b", 1: "c"},
    # True == 1 == 1.0, so an int written first must not answer for an equal bool or float
    {(1, "a"): "b", (True, "c"): "d"}, {(1, "a"): "b", (1.0, "c"): "d"},
    {"a": 1, "b": True}, {"a": 1, "b": 1.0}, {"a": "1", "b": {"c": 1, "d": True}},
    [{"a": 1}, True], [{"a": 1}, 1.0], [{(1, "a"): "b"}, [True]],
])
def test_write_json_rejects_other_types(tree):
    with pytest.raises(TypeError):
        write_json(tree, [].append)


def test_a_dump_encodes_each_map_or_row_string_once(monkeypatch):
    # a list item is encoded each time it is listed; any other str once per dump
    E = generate_free_stretching(one_edge_graph(), 0, 2, 7)
    calls = Counter()

    def counted(s, _encode=report.encode_basestring_ascii):
        calls[s] += 1
        return _encode(s)

    monkeypatch.setattr(report, "encode_basestring_ascii", counted)
    text = dump_stretching(E)
    assert hashlib.sha256(text.encode()).hexdigest() == DUMP_DIGESTS[("edge", 0, 2, 7)]
    listed = Counter(c for side in (E.m_side, E.c_side) for cells in side.magma.gs.cells.values() for c in cells)
    assert max((calls - listed).values()) == 1


@pytest.mark.parametrize("graph, n, D, S", [
    ("edge", 0, 2, 6), ("path", 0, 2, 5), ("globe", 1, 2, 5), ("globe", 2, 3, 5),
])
def test_generated_maps_list_each_grade_in_order(graph, n, D, S):
    # the writer sorts each map it writes: on these, its sort is one pass
    g = {"edge": one_edge_graph, "path": two_edge_graph, "globe": two_cell_globe}[graph]()
    E = generate_free_stretching(g, n, D, S)
    for nm in (E.m_side, E.c_side):
        gs = nm.magma.gs
        for m in range(1, D + 1):
            assert list(gs.map("source", m)) == list(gs.map("target", m)) == list(gs.grade(m))
    assert {m: list(t) for m, t in E.pi.items()} == {m: list(E.m_side.magma.gs.grade(m)) for m in range(D + 1)}


def test_dump_streams_what_it_returns(tmp_path):
    E = generate_free_stretching(one_edge_graph(), 0, 2, 5)
    with open(tmp_path / "dump.json", "w", encoding="utf-8") as fh:
        assert dump_stretching(E, fh) is None
    assert (tmp_path / "dump.json").read_text(encoding="utf-8") == dump_stretching(E)


def _sizes(dump: dict) -> dict[str, int]:
    """Each M-cell's term size, recomputed from the dump alone: a cell made by
    a refl, rev or comp entry or by a non-diagonal bracket has size 1 plus
    its arguments' sizes, and every other cell is a generator of size 1."""
    side = dump["m_side"]
    args: dict[str, tuple[str, ...]] = {}
    for tables in (side["refl"], side["rev"]):
        for table in tables.values():
            args.update((y, (x,)) for x, y in table.items())
    for rows in side["comp"].values():
        args.update((z, (y, x)) for y, x, z in rows)
    args.update((B, (c1, c0)) for _, c1, c0, B in dump["brackets"] if c1 != c0)
    sizes: dict[str, int] = {}

    def size(c: str) -> int:
        if c not in sizes:
            sizes[c] = 1 + sum(size(a) for a in args.get(c, ()))
        return sizes[c]

    for cells in side["cells"].values():
        for c in cells:
            size(c)
    return sizes


def _restrict(dump: dict, S: int) -> dict:
    """The m_side, brackets and pi of a dump, cut down to the cells of size <= S."""
    sizes, side = _sizes(dump), dump["m_side"]
    keep = lambda c: sizes[c] <= S
    keys = lambda tables: {k: {x: y for x, y in t.items() if keep(x)} for k, t in tables.items()}
    values = lambda tables: {k: {x: y for x, y in t.items() if keep(y)} for k, t in tables.items()}
    return {
        "m_side": dict(
            side,
            cells={k: [c for c in cells if keep(c)] for k, cells in side["cells"].items()},
            src=keys(side["src"]),
            tgt=keys(side["tgt"]),
            refl=values(side["refl"]),
            rev=values(side["rev"]),
            comp={k: [row for row in rows if keep(row[2])] for k, rows in side["comp"].items()},
        ),
        "brackets": [row for row in dump["brackets"] if keep(row[3])],
        "pi": keys(dump["pi"]),
    }


def _assert_restrictions(g, n: int, D: int, max_S: int) -> None:
    """Metamorphic check across bounds: for S < max_S the size-S stretching is
    the size-(S+1) one cut down to size S, and its strict side is contained in
    the larger one."""
    dumps = [json.loads(dump_stretching(generate_free_stretching(g, n, D, S))) for S in range(1, max_S + 1)]
    for S, (small, large) in enumerate(zip(dumps, dumps[1:]), start=1):
        assert _restrict(large, S) == {key: small[key] for key in ("m_side", "brackets", "pi")}, S
        for k, cells in small["c_side"]["cells"].items():
            assert set(cells) <= set(large["c_side"]["cells"][k]), (S, k)


@pytest.mark.parametrize("n,D", [(0, 1), (0, 2), (1, 2), (0, 3), (2, 3)])
def test_smaller_bound_is_a_restriction(n, D):
    _assert_restrictions(two_edge_graph(), n, D, 7)


@settings(max_examples=60, deadline=None)
@given(_small_graphs(), st.sampled_from([1, 2]))
def test_smaller_bound_is_a_restriction_on_small_graphs(graph, D):
    _assert_restrictions(graph, 0, D, 4)


def _free_groupoid_section(D: int, S: int):
    """The free stretching on one edge, the carrier of the free groupoid on
    it, v the evaluation of a term to its reduced word and lam the canonical
    inclusion."""
    from globforge.normalform import NF1, Strictifier
    from globforge.words import parse_word

    g = one_edge_graph()
    E = generate_free_stretching(g, 0, D, S)
    G = free_groupoid_cells(g, 1)
    strict = Strictifier(g, 0)
    v = {m: dict(E.pi[m]) for m in E.pi}
    lam = {0: {a: a for a in G.gs.grade(0)}, 1: {}}
    for nm in G.gs.grade(1):
        w = parse_word(g, nm)
        lam[1][nm] = strict.canonical_term(NF1(w)).name
    return E, G.gs, v, lam


def _single_point_section(D: int, S: int):
    """The free stretching on a single point, collapsed onto the point with its degenerate loop."""
    g = globular_set(1, {0: ["a"], 1: []})
    E = generate_free_stretching(g, 0, D, S)
    G = globular_set(1, {0: ["a"], 1: ["ida"]}, src={1: {"ida": "a"}}, tgt={1: {"ida": "a"}})
    v = {0: {"a": "a"}, 1: {nm: "ida" for nm in E.m_side.magma.gs.grade(1)}}
    lam = {0: {"a": "a"}, 1: {"ida": "1[0.1](a)"}}
    return E, G, v, lam


def test_induced_algebra_from_free_stretching():
    E, G, v, lam = _free_groupoid_section(1, 5)
    induced = induced_algebra_magma(E, G, v, lam)
    # induced composition is concatenate-then-reduce
    want = free_groupoid_cells(one_edge_graph(), 1).magma.comp.table(1, 0)
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
    from globforge.normalform import Strictifier
    fresh = Strictifier(g, 0)
    for m, table in E.terms.items():
        for nm, t in table.items():
            assert E.pi_of(m, nm) == fresh.pi(t).name


def test_derive_reversors_rerun_is_stable():
    from globforge.magma import derive_canonical_reversors

    cat = free_groupoid_cells(one_edge_graph(), 2)
    first = derive_canonical_reversors(cat)
    second = derive_canonical_reversors(cat)
    assert first.maps == second.maps


def test_induced_algebra_single_point():
    # a single point with its degenerate loop: everything collapses
    E, G, v, lam = _single_point_section(1, 5)
    induced = induced_algebra_magma(E, G, v, lam)
    assert induced.magma.comp.table(1, 0) == {("ida", "ida"): "ida"}
    assert induced.magma.refl.table(0, 1) == {"a": "ida"}


def _pull_back(E, G, v, lam):
    """The induced refl, rev and comp tables by definition: for each free
    table whose cells lie in G's dimensions, op(a, ...) = v(op(lam a, ...))
    on every tuple of G-cells whose lam-images the free table stores."""
    free = E.m_side
    return (
        {
            (p, m): {a: v[m][t[lam[p][a]]] for a in G.grade(p) if lam[p][a] in t}
            for (p, m), t in free.magma.refl.maps.items() if m <= G.max_dim
        },
        {
            (m, p): {a: v[m][t[lam[m][a]]] for a in G.grade(m) if lam[m][a] in t}
            for (m, p), t in free.rev.maps.items() if m <= G.max_dim
        },
        {
            (m, p): {
                (a, b): v[m][t[(lam[m][a], lam[m][b])]]
                for a in G.grade(m) for b in G.grade(m) if (lam[m][a], lam[m][b]) in t
            }
            for (m, p), t in free.magma.comp.maps.items() if m <= G.max_dim
        },
    )


@pytest.mark.parametrize("section", [_free_groupoid_section, _single_point_section])
@pytest.mark.parametrize("D", [1, 2])
@pytest.mark.parametrize("S", [4, 5, 6])
def test_induced_algebra_is_the_pull_back(section, D, S):
    E, G, v, lam = section(D, S)
    induced = induced_algebra_magma(E, G, v, lam)
    refl, rev, comp = _pull_back(E, G, v, lam)
    assert induced.magma.gs is G
    assert induced.threshold == E.threshold
    assert induced.magma.refl.maps == refl
    assert induced.rev.maps == rev
    assert induced.magma.comp.maps == comp
    assert any(refl.values()) and (S < 5 or any(comp.values()))  # lam(a) o lam(b) has size >= 5


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
