import hashlib
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from fixtures import bouquet, graph_file, two_edge_graph

from globforge.cli import _validate, main
from globforge.dsl import parse_structure
from globforge.engine import check_suite
from globforge.engine.suites import _BUILDERS
from globforge.report import ValidationReport, emit_report, parse_report
from globforge.stretching import dump_stretching, generate_free_stretching, load_stretching, validate_stretching

WALKING_ISO = """
structure W
dim 1
threshold 0
cells 0: a b
cells 1: f g ida idb
src f = a
tgt f = b
src g = b
tgt g = a
src ida = a
tgt ida = a
src idb = b
tgt idb = b
refl 0 1 a = ida
refl 0 1 b = idb
comp 1 0 (g, f) = ida
comp 1 0 (f, g) = idb
comp 1 0 (f, ida) = f
comp 1 0 (idb, f) = f
comp 1 0 (g, idb) = g
comp 1 0 (ida, g) = g
comp 1 0 (ida, ida) = ida
comp 1 0 (idb, idb) = idb
rev 1 0 f = g
rev 1 0 g = f
rev 1 0 ida = ida
rev 1 0 idb = idb
"""

POSET2 = """
structure two
dim 1
cells 0: a b
cells 1: aa ab bb
src aa = a
tgt aa = a
src ab = a
tgt ab = b
src bb = b
tgt bb = b
refl 0 1 a = aa
refl 0 1 b = bb
comp 1 0 (ab, aa) = ab
comp 1 0 (bb, ab) = ab
comp 1 0 (aa, aa) = aa
comp 1 0 (bb, bb) = bb
"""

EDGE = """
structure edge
dim 1
cells 0: a b
cells 1: e
src e = a
tgt e = b
"""


@pytest.fixture
def iso_file(tmp_path):
    path = tmp_path / "iso.glob"
    path.write_text(WALKING_ISO)
    return str(path)


@pytest.fixture
def edge_file(tmp_path):
    path = tmp_path / "edge.glob"
    path.write_text(EDGE)
    return str(path)


def test_validate_ok(iso_file, tmp_path, capsys):
    report_path = tmp_path / "report.json"
    code = main(["validate", iso_file, "--report", str(report_path)])
    assert code == 0
    rep = parse_report(report_path.read_text())
    assert rep.valid
    assert capsys.readouterr().out == report_path.read_text()


def test_validate_broken_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.glob"
    path.write_text(WALKING_ISO.replace("tgt g = a", "tgt g = b"))
    code = main(["validate", str(path)])
    assert code == 1
    rep = parse_report(capsys.readouterr().out)
    assert not rep.valid


def test_validate_layer_choice(iso_file, capsys):
    assert main(["validate", iso_file, "--layer", "reversors"]) == 0
    capsys.readouterr()


def test_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "bad.glob"
    path.write_text("cells 0: a\nsrc q = a\n")
    assert main(["validate", str(path)]) == 2
    assert "line 2" in capsys.readouterr().err


@pytest.mark.parametrize("head", ["dim", "threshold"])
def test_superscript_digit_is_a_parse_error(head, tmp_path, capsys):
    # "²" passes str.isdigit but not int(); only decimal digits are numbers
    path = tmp_path / "digit.glob"
    path.write_text(f"{head} ²\n", encoding="utf-8")
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{path}: line 1: expected: {head} <natural number>\n"


def test_dim_above_the_cap_exits_two_before_allocating(tmp_path, capsys):
    path = tmp_path / "huge.glob"
    path.write_text("dim 100000\n")
    assert main(["validate", str(path)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"{path}: line 1: dim 100000 is above the cap 10000\n"


def test_derive_reversors(iso_file, capsys):
    assert main(["derive-reversors", iso_file, "--n", "0"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["kind"] == "reversors"
    assert payload["tables"]["1.0"]["f"] == "g"


def test_derive_reversors_no_inverse(tmp_path, capsys):
    path = tmp_path / "poset.glob"
    path.write_text(POSET2)
    assert main(["derive-reversors", str(path), "--n", "0"]) == 1
    rep = parse_report(capsys.readouterr().out)
    assert any(v.axiom == "derive.inverse" and "ab" in v.cells for v in rep.violations)


def test_index(tmp_path, iso_file, capsys):
    assert main(["index", iso_file]) == 0
    assert json.loads(capsys.readouterr().out)["index"] == 0
    path = tmp_path / "poset.glob"
    path.write_text(POSET2)
    assert main(["index", str(path)]) == 0
    assert json.loads(capsys.readouterr().out)["index"] == 1


def test_free_groupoid_and_reduce(edge_file, capsys):
    assert main(["free-groupoid", edge_file, "--max-len", "1"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert set(payload["cells"]) == {"id(a)", "id(b)", "e+", "e-"}
    assert main(["free-groupoid", edge_file, "--max-len", "2", "--reduce", "e+.e-"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["reduced"] == "id(b)"


def test_stretch_dump_validates(edge_file, tmp_path, capsys):
    dump_path = tmp_path / "stretch.json"
    code = main(["stretch", edge_file, "--n", "0", "--dim", "2", "--size", "5",
                 "--report", str(dump_path)])
    assert code == 0
    capsys.readouterr()
    E = load_stretching(dump_path.read_text())
    assert validate_stretching(E).valid
    # the dump is accepted by the stretching layer of validate
    assert main(["validate", str(dump_path), "--layer", "stretching"]) == 0
    capsys.readouterr()


def test_stretch_streams_the_dump_to_stdout_and_report(edge_file, tmp_path, capsys):
    want = dump_stretching(generate_free_stretching(parse_structure(EDGE).gs, 0, 2, 5))
    argv = ["stretch", edge_file, "--n", "0", "--dim", "2", "--size", "5"]
    assert main(argv) == 0
    assert capsys.readouterr().out == want
    path = tmp_path / "dump.json"
    assert main(argv + ["--report", str(path)]) == 0
    assert capsys.readouterr().out == want
    assert path.read_text(encoding="utf-8") == want
    # a device cannot be read back, so stdout gets the dump written again
    assert main(argv + ["--report", os.devnull]) == 0
    assert capsys.readouterr().out == want


def test_stretch_reports_a_malformed_graph(tmp_path, capsys):
    # an edge without a target: the globular report, not a KeyError from the generator
    path = tmp_path / "no-tgt.glob"
    path.write_text("cells 0: a b\ncells 1: e\nsrc e = a\n")
    argv = ["stretch", str(path), "--n", "0", "--dim", "1", "--size", "2"]
    assert main(argv) == 1
    out, err = capsys.readouterr()
    assert err == ""
    rep = parse_report(out)
    assert rep.subject == "globular"
    assert rep.axiom_ids() == {"globular.map"} and rep.violations[0].cells == ("e",)
    report = tmp_path / "report.json"
    assert main(argv + ["--report", str(report)]) == 1
    assert capsys.readouterr() == (out, "")
    assert report.read_text(encoding="utf-8") == out


def test_report_copy_stops_at_the_report_when_stdout_appends_to_it(edge_file, tmp_path):
    # stdout receives a copy of the report file, so it must copy only what
    # was written, even when stdout appends to that same file
    path = tmp_path / "dump.json"
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    argv = [sys.executable, "-m", "globforge.cli", "stretch", edge_file, "--n", "0", "--dim", "2", "--size", "4"]
    with open(path, "a", encoding="utf-8") as out:
        assert subprocess.run(argv + ["--report", str(path)], stdout=out, env=env, timeout=60).returncode == 0
    want = dump_stretching(generate_free_stretching(parse_structure(EDGE).gs, 0, 2, 4))
    assert path.read_text(encoding="utf-8") == want + want


@pytest.mark.parametrize("text", ["[1, 2, 3]\n", "42\n", "null\n", '"stretching"\n'])
def test_validate_stretching_non_object_exit_two(tmp_path, capsys, text):
    path = tmp_path / "dump.json"
    path.write_text(text)
    assert main(["validate", str(path), "--layer", "stretching"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "JSON object" in err


def test_validate_stretching_missing_src_exit_two(edge_file, tmp_path, capsys):
    dump_path = tmp_path / "stretch.json"
    assert main(["stretch", edge_file, "--n", "0", "--dim", "2", "--size", "5",
                 "--report", str(dump_path)]) == 0
    capsys.readouterr()
    payload = json.loads(dump_path.read_text())
    x = sorted(payload["m_side"]["src"]["2"])[0]
    del payload["m_side"]["src"]["2"][x]
    dump_path.write_text(json.dumps(payload))
    with pytest.raises(ValueError, match="m_side"):
        load_stretching(dump_path.read_text())
    assert main(["validate", str(dump_path), "--layer", "stretching"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and x in err


def test_validate_reversors_over_incomplete_reflexors_reports(tmp_path, capsys):
    # reflexive compatibility applies the reflexor tables, so it waits for them
    path = tmp_path / "iso.glob"
    path.write_text(WALKING_ISO.replace("refl 0 1 b = idb\n", ""))
    for layer in ("auto", "reversors"):
        assert main(["validate", str(path), "--layer", layer]) == 1
        out, err = capsys.readouterr()
        assert err == ""
        rep = parse_report(out)
        assert rep.axiom_ids() == {"reflexor.total"}
        assert rep.violations[0].cells == ("b",)


# reflexors and a composition table, and one 0-cell without its reflexor
HALF_REFLEXIVE = "cells 0: a b\ncells 1: ia\nsrc ia = a\ntgt ia = a\nrefl 0 1 a = ia\ncomp 1 0 (ia, ia) = ia\n"


@pytest.mark.parametrize("layer", ["auto", "reversors", "reflexors", "magma", "strict"])
@pytest.mark.parametrize("text", [HALF_REFLEXIVE, WALKING_ISO.replace("refl 0 1 b = idb\n", "")])
def test_validate_merges_the_reflexor_report_once(text, layer):
    rep = _validate(parse_structure(text), layer)
    assert len(rep.violations) == len(set(rep.violations))
    reflexor = [(v.axiom, v.cells) for v in rep.violations if v.axiom.startswith("reflexor")]
    # without a reversor layer, the reversors layer reports that and checks no reflexors
    assert reflexor == ([] if layer == "reversors" and text == HALF_REFLEXIVE else [("reflexor.total", ("b",))])


def _stretch_dump(edge_file, tmp_path, capsys) -> dict:
    dump_path = tmp_path / "stretch.json"
    assert main(["stretch", edge_file, "--n", "0", "--dim", "2", "--size", "5",
                 "--report", str(dump_path)]) == 0
    capsys.readouterr()
    return json.loads(dump_path.read_text())


def _validate_dump_err(payload, tmp_path, capsys) -> str:
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path), "--layer", "stretching"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1
    return err


def test_validate_stretching_wrong_json_types_exit_two(tmp_path, capsys):
    payload = {"kind": "stretching", "m_side": [], "c_side": {}, "threshold": 0, "pi": {}, "brackets": []}
    err = _validate_dump_err(payload, tmp_path, capsys)
    assert "m_side" in err and "JSON object" in err


def test_validate_stretching_side_missing_max_dim_exit_two(edge_file, tmp_path, capsys):
    payload = _stretch_dump(edge_file, tmp_path, capsys)
    del payload["c_side"]["max_dim"]
    err = _validate_dump_err(payload, tmp_path, capsys)
    assert "c_side" in err and "max_dim" in err


@pytest.mark.parametrize("max_dim", [-1, 100_000])
def test_validate_stretching_max_dim_out_of_cells_exit_two(edge_file, tmp_path, capsys, max_dim):
    # the bound must name a listed grade before any grade is built
    payload = _stretch_dump(edge_file, tmp_path, capsys)
    payload["m_side"]["max_dim"] = max_dim
    err = _validate_dump_err(payload, tmp_path, capsys)
    assert f"$.m_side.max_dim: {max_dim}" in err


@pytest.mark.parametrize("where, value", [
    (("pi", "1"), []),
    (("brackets",), [[0, "a", "a"]]),
    (("brackets",), [["0", "a", "a", "x"]]),
    (("m_side", "comp", "1.0"), [["a", "b"]]),
    (("m_side", "refl"), {"0": {}}),
    (("m_side", "cells", "0"), [1, 2]),
    (("threshold",), True),
])
def test_validate_stretching_malformed_parts_exit_two(edge_file, tmp_path, capsys, where, value):
    payload = _stretch_dump(edge_file, tmp_path, capsys)
    parent = payload
    for key in where[:-1]:
        parent = parent[key]
    parent[where[-1]] = value
    _validate_dump_err(payload, tmp_path, capsys)


@pytest.mark.parametrize("side", ["m_side", "c_side"])
@pytest.mark.parametrize("table, key, entry", [
    ("comp", "1.0", ["zz", "zz", "zz"]),
    ("rev", "1.0", {"zz": "zz"}),
    ("refl", "0.1", {"zz": "ww"}),
])
def test_validate_stretching_reports_entries_on_undeclared_cells(edge_file, tmp_path, capsys, side, table, key, entry):
    # pi is undefined on both sides of such an entry, so only the domain check can see it
    payload = _stretch_dump(edge_file, tmp_path, capsys)
    if table == "comp":
        payload[side][table][key].append(entry)
    else:
        payload[side][table][key].update(entry)
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path), "--layer", "stretching"]) == 1
    rep = parse_report(capsys.readouterr().out)
    assert rep.axiom_ids() == {"stretching.table-domain"}
    assert rep.violations[0].detail.startswith(f"{side}: ")


def _set_threshold(payload: dict) -> None:
    payload["threshold"] = payload["m_side"]["threshold"] = payload["c_side"]["threshold"] = 1


@pytest.mark.parametrize("edit, details", [
    (lambda d: d["c_side"]["rev"].update({"0.1": {"a": "b"}}),
     ["c_side: rev table 0.1 is outside the range 0 <= p < m <= 2"]),
    (lambda d: d["c_side"]["refl"].update({"1.0": {"e+": "a"}}),
     ["c_side: refl table 1.0 is outside the range 0 <= p < m <= 2"]),
    (lambda d: d["c_side"]["comp"].update({"1.1": [["e+", "e+", "e+"]]}),
     ["c_side: comp table 1.1 is outside the range 0 <= p < m <= 2"]),
    # the rev tables at p=0 stay below the raised thresholds, on both sides
    (_set_threshold, [f"{side}: rev table {key} is outside the range 1 <= p < m <= 2"
                      for side in ("c_side", "m_side") for key in ("1.0", "2.0")]),
])
def test_validate_stretching_reports_tables_out_of_range(edge_file, tmp_path, capsys, edit, details):
    payload = _stretch_dump(edge_file, tmp_path, capsys)
    edit(payload)
    path = tmp_path / "dump.json"
    path.write_text(json.dumps(payload))
    assert main(["validate", str(path), "--layer", "stretching"]) == 1
    rep = parse_report(capsys.readouterr().out)
    assert rep.axiom_ids() == {"stretching.table-domain"}
    assert sorted(v.detail for v in rep.violations) == details


def _nodes(tree, parent=None, key=None):
    """Every (parent, key) under which a value of tree sits, tree's own slot first."""
    yield parent, key
    items = tree.items() if isinstance(tree, dict) else enumerate(tree) if isinstance(tree, list) else ()
    for k, value in items:
        yield from _nodes(value, tree, k)


_RESPELL = [
    lambda k: "+" + k, lambda k: "0" + k, lambda k: " " + k, lambda k: k + " ", lambda k: k.replace(".", ". "),
    lambda k: k.translate(str.maketrans("0123456789", "\u0660\u0661\u0662\u0663\u0664\u0665\u0666\u0667\u0668\u0669")),
    lambda k: "1_" + k, lambda k: k + ".0", lambda k: k.split(".")[0], lambda k: "-" + k, lambda k: k + "0",
    lambda k: "9" * 5000 + k, lambda k: "",
]
_SWAPS = [0, -1, 7, True, None, 1.5, "", "a", "e", [], {}, [["a", "a", "a"]], {"a": "b"}, [0, "a", "a", "a"]]


def _dump_mutant(payload: dict, rng: random.Random) -> dict:
    """payload with one to three random edits (mostly one): a key respelt, a row repeated, a value of
    another type, or a name for another name of the dump."""
    payload = json.loads(json.dumps(payload))
    # the slots of payload; an edit may detach or rename some, which then read as None or change nothing
    nodes = list(_nodes(payload))[1:]
    at = lambda p, k: p.get(k) if isinstance(p, dict) else p[k]  # noqa: E731
    names = sorted({at(p, k) for p, k in nodes if isinstance(at(p, k), str)})
    for _ in range(rng.choice((1, 1, 2, 3))):
        op = rng.randrange(4)
        if op == 0:  # respell a key: a grade, or a cell name
            parent = rng.choice([p for p, _ in nodes if isinstance(p, dict) and p and p is not payload])
            key = rng.choice(sorted(parent))
            parent[rng.choice(_RESPELL)(key)] = parent.pop(key)
        elif op == 1:  # repeat a row, as it is or with another value
            rows = [v for p, k in nodes if isinstance(v := at(p, k), list) and v and isinstance(v[0], list) and v[0]]
            if rows:
                table = rng.choice(rows)
                whole = [r for r in table if isinstance(r, list) and r]  # swaps may have broken some rows
                row = list(rng.choice(whole))
                if rng.random() < 0.5:
                    row[-1] = rng.choice(whole)[-1]
                table.insert(rng.randrange(len(table) + 1), row)
        elif op == 2:  # swap a value for one of another type
            parent, key = rng.choice(nodes)
            parent[key] = rng.choice(_SWAPS)
        else:  # swap a name for another
            parent, key = rng.choice([(p, k) for p, k in nodes if isinstance(at(p, k), str)])
            parent[key] = rng.choice(names)
    return payload


def test_validate_stretching_on_mutated_dumps_keeps_the_contract(tmp_path, capsys):
    # exit 0 or 1 with a report, or exit 2 with one stderr line; never a crash
    payload = json.loads(dump_stretching(generate_free_stretching(parse_structure(EDGE).gs, 0, 1, 4)))
    rng = random.Random(20121804)
    path = tmp_path / "mutant.json"
    codes = []
    for _ in range(200):
        path.write_text(json.dumps(_dump_mutant(payload, rng)))
        codes.append(main(["validate", str(path), "--layer", "stretching"]))
        out, err = capsys.readouterr()
        assert "internal error:" not in err
        if codes[-1] == 2:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        else:
            assert codes[-1] in (0, 1) and err == ""
            assert parse_report(out).valid is (codes[-1] == 0)
    assert min(codes.count(code) for code in (1, 2)) >= 30  # reports and load errors are common


def test_validate_stretching_deep_nesting_exit_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000 + "]" * 100_000)
    assert main(["validate", str(path), "--layer", "stretching"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.count("\n") == 1 and "nested" in err


def test_validate_stretching_wrong_kind_says_it_once(tmp_path, capsys):
    err = _validate_dump_err({"kind": "report"}, tmp_path, capsys)
    assert err.count("not a stretching dump") == 1
    assert "'report'" in err


def test_free_groupoid_negative_bound_exit_two(edge_file, capsys):
    assert main(["free-groupoid", edge_file, "--max-len", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and "-1" in err


@pytest.mark.parametrize("bounds", [("-3", "2", "3"), ("0", "-1", "3"), ("0", "2", "-1")])
def test_stretch_negative_bound_exit_two(edge_file, capsys, bounds):
    n, dim, size = bounds
    assert main(["stretch", edge_file, "--n", n, "--dim", dim, "--size", size]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.count("\n") == 1 and err.startswith("the bounds n, D, S must be >= 0")


def test_derive_reversors_negative_threshold_exit_two(iso_file, capsys):
    assert main(["derive-reversors", iso_file, "--n", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "the reversor threshold must be >= 0, got -1\n"


def test_derive_reversors_negative_threshold_on_invalid_file_exit_two(tmp_path, capsys):
    # without refl lines the file fails validation, which is a report with exit 1 for --n 0
    path = tmp_path / "no-refl.glob"
    path.write_text("".join(line + "\n" for line in WALKING_ISO.splitlines() if not line.startswith("refl")))
    assert main(["derive-reversors", str(path), "--n", "0"]) == 1
    capsys.readouterr()
    assert main(["derive-reversors", str(path), "--n", "-1"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "the reversor threshold must be >= 0, got -1\n"


def _refuse(monkeypatch, *names):
    """Make each cli.<name> fail the test when called."""
    for name in names:
        def spy(g, max_len, name=name):
            raise AssertionError(f"{name} was called")

        monkeypatch.setattr(f"globforge.cli.{name}", spy)


def test_free_groupoid_malformed_word_exits_before_building(edge_file, capsys, monkeypatch):
    _refuse(monkeypatch, "free_groupoid_cells", "reduced_words_by_name")
    assert main(["free-groupoid", edge_file, "--max-len", "5", "--reduce", "e+.zz+"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith("malformed word: ") and err.count("\n") == 1


def test_free_groupoid_negative_bound_wins_over_malformed_word(edge_file, capsys, monkeypatch):
    _refuse(monkeypatch, "free_groupoid_cells", "reduced_words_by_name")
    assert main(["free-groupoid", edge_file, "--max-len", "-1", "--reduce", "e+.zz+"]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "the word-length bound must be >= 0, got -1\n"


def test_free_groupoid_forms_no_composites(edge_file, capsys, monkeypatch):
    _refuse(monkeypatch, "free_groupoid_cells")
    assert main(["free-groupoid", edge_file, "--max-len", "3", "--reduce", "e+.e-.e+"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["cells"] == ["e+", "e-", "id(a)", "id(b)"] and payload["reduced"] == "e+"


# SHA-256 of free-groupoid stdout, pinned while the command still built the
# whole composite table
FREE_GROUPOID_DIGESTS = {
    ("bouquet2", "--max-len", "5", "--reduce", "x1+.x2+.x2-.x1-.x2-.x1+"):
        "47e4b6fe1fcb5a20149d8bf5af9eeb64f4985d20112a9dc6e64bc0232905c1bd",
    ("bouquet2", "--max-len", "6"): "54566dada246907d6a13c87fc28124d89866526c20480784d38931806f07cd78",
    ("path2", "--max-len", "3"): "2321cf7b3df4b462fc5a958ab4fccb80b733b6d344e9ad15f2f36515418e4803",
}


@pytest.mark.parametrize("key", list(FREE_GROUPOID_DIGESTS))
def test_free_groupoid_digests(key, tmp_path, capsys):
    name, *args = key
    g = bouquet(2) if name == "bouquet2" else two_edge_graph()
    assert main(["free-groupoid", graph_file(tmp_path / f"{name}.glob", name, g), *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == FREE_GROUPOID_DIGESTS[key]


def test_free_group_at_length_eight(tmp_path, capsys):
    # 1 + sum over i = 1..8 of 4 * 3^(i-1) reduced words; the composite table would hold over a million
    path = graph_file(tmp_path / "bouquet2.glob", "bouquet2", bouquet(2))
    assert main(["free-groupoid", path, "--max-len", "8"]) == 0
    cells = json.loads(capsys.readouterr().out)["cells"]
    assert len(cells) == 1 + 4 * (3**8 - 1) // 2 == 13121
    assert cells == sorted(set(cells))


def test_internal_error_exits_two_with_one_line(iso_file, capsys, monkeypatch):
    def crash(cat):
        raise RuntimeError("table went away\nsecond line")

    monkeypatch.setattr("globforge.cli.compute_index", crash)
    assert main(["index", iso_file]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "internal error: RuntimeError: table went away second line\n"


def test_check_proofs(capsys):
    assert main(["check-proofs", "--suite", "S2"]) == 0
    rep = parse_report(capsys.readouterr().out)
    assert rep.valid
    # the lazily built suites report what the ten suites built eagerly do
    eager = {key: build() for key, build in _BUILDERS.items()}
    merged = ValidationReport("proof-suites")
    for key in sorted(eager):
        merged.extend(check_suite(eager[key]))
    assert main(["check-proofs"]) == 0
    assert capsys.readouterr().out == emit_report(merged)


@pytest.mark.parametrize("where", ["missing-dir", "a-directory"])
@pytest.mark.parametrize("command", ["validate", "check-proofs", "stretch"])
def test_unwritable_report_exits_two_with_one_line(command, where, iso_file, edge_file, tmp_path, capsys):
    target = tmp_path / "missing" / "report.json" if where == "missing-dir" else tmp_path
    argv = {
        "validate": ["validate", iso_file],
        "check-proofs": ["check-proofs", "--suite", "S2"],
        "stretch": ["stretch", edge_file, "--n", "0", "--dim", "2", "--size", "3"],
    }[command]
    assert main(argv + ["--report", str(target)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"cannot write report {target}: ")
    assert err.count("\n") == 1 and "Errno" not in err


@pytest.mark.parametrize("command", [["validate"], ["stretch", "--n", "0", "--dim", "2", "--size", "3"]])
@pytest.mark.parametrize("content", ["directory", b"\xff\xfe"])
def test_unreadable_presentation_exits_two_with_one_line(command, content, tmp_path, capsys):
    if content == "directory":
        path, reason = tmp_path, "Is a directory"
    else:
        path, reason = tmp_path / "bad.glob", "'utf-8' codec can't decode byte 0xff"
        path.write_bytes(content)
    assert main([command[0], str(path), *command[1:]]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"{path}: {reason}")
    assert err.count("\n") == 1 and "internal error" not in err


def test_suite_choices_are_the_builtin_suites():
    from globforge.cli import SUITE_CHOICES
    from globforge.engine import builtin_suites

    assert list(SUITE_CHOICES) == list(builtin_suites()) + ["all"]
