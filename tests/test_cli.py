import hashlib
import json
import os
import random
import re
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import pytest
from argparse_oracle import build_parser
from fixtures import bouquet, graph_file, two_edge_graph

from globforge.cli import LAYERS, SUITE_CHOICES, _parse_args, _validate, main
from globforge.dsl import parse_structure
from globforge.engine import check_suite
from globforge.engine.suites import _BUILDERS
from globforge.globular import TruncatedGlobularSet
from globforge.magma import KINDS, NMagma
from globforge.report import ValidationReport, emit_report, parse_report
from globforge.stretching import (
    Stretching,
    dump_stretching,
    generate_free_stretching,
    load_stretching,
    validate_stretching,
)

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


def test_the_readme_report_is_what_validate_writes(tmp_path, capsys):
    blocks = re.findall(r"^```(\w*)\n(.*?)^```", (Path(__file__).resolve().parents[1] / "README.md").read_text(), re.M | re.S)
    (w,) = [text for _, text in blocks if text.startswith("structure W\n")]
    (report,) = [text for lang, text in blocks if lang == "json"]
    path = tmp_path / "w.glob"
    path.write_text(w)
    assert main(["validate", str(path)]) == 0
    assert capsys.readouterr().out == emit_report(ValidationReport("W"))
    assert "comp 1 0 (idb, f) = f\n" in w
    path.write_text(w.replace("comp 1 0 (idb, f) = f\n", "comp 1 0 (idb, f) = g\n"))
    assert main(["validate", str(path)]) == 1
    assert capsys.readouterr().out == report


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


_UNDECLARED = """{{
  "subject": "edge",
  "valid": false,
  "violations": [
    {{
      "axiom": "{}",
      "cells": [],
      "detail": "no {} layer declared",
      "law": "{}"
    }}
  ]
}}
"""


@pytest.mark.parametrize("layer, axiom, noun, law", [
    ("reversors", "reversor.total", "reversor", "reversor tables are total level-preserving maps"),
    ("reflexors", "reflexor.total", "reflexor", "one-step reflexor tables are total"),
    ("magma", "positional.total", "composition", "composition is defined exactly on boundary-compatible pairs"),
    ("strict", "positional.total", "composition", "composition is defined exactly on boundary-compatible pairs"),
])
def test_a_layer_asked_for_but_not_declared_is_one_violation(edge_file, capsys, layer, axiom, noun, law):
    # the file's tables are empty, not absent; the report bytes are those of a file without the layer
    assert main(["validate", edge_file, "--layer", layer]) == 1
    assert capsys.readouterr() == (_UNDECLARED.format(axiom, noun, law), "")


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


def test_free_groupoid_stops_once_no_word_grows(edge_file, capsys):
    # every reduced word on one edge has length at most 1, so a huge bound is over as soon as 1 is
    assert main(["free-groupoid", edge_file, "--max-len", "1"]) == 0
    short = json.loads(capsys.readouterr().out)
    start = time.perf_counter()
    assert main(["free-groupoid", edge_file, "--max-len", str(10**20)]) == 0
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().out == json.dumps({**short, "max_len": 10**20}, sort_keys=True, indent=2) + "\n"


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


def test_stretch_admits_an_edge_named_like_a_point(tmp_path, capsys):
    # grades namespace names: the edge a: a -> b is a generator of grade 1 beside the point a
    path = tmp_path / "named.glob"
    path.write_text(EDGE.replace("cells 1: e", "cells 1: a").replace("e = ", "a = "))
    assert main(["stretch", str(path), "--n", "0", "--dim", "1", "--size", "2"]) == 0
    dump = json.loads(capsys.readouterr().out)
    assert dump["m_side"]["cells"]["1"] == ["1[0.1](a)", "1[0.1](b)", "a", "j[1.0](a)"]
    assert dump["pi"]["1"]["a"] == "a+" and dump["pi"]["1"]["j[1.0](a)"] == "a-"
    (tmp_path / "dump.json").write_text(json.dumps(dump))
    assert main(["validate", str(tmp_path / "dump.json"), "--layer", "stretching"]) == 0
    capsys.readouterr()


def test_stretch_at_size_zero_holds_no_cell(edge_file, tmp_path, capsys):
    # a generator has size 1, so the bound S=0 admits nothing on either side
    assert main(["stretch", edge_file, "--n", "0", "--dim", "2", "--size", "0"]) == 0
    text = capsys.readouterr().out
    dump = json.loads(text)
    assert all(cells == [] for side in ("m_side", "c_side") for cells in dump[side]["cells"].values())
    assert dump["pi"] == {"0": {}, "1": {}, "2": {}} and dump["brackets"] == []
    (tmp_path / "dump.json").write_text(text)
    assert main(["validate", str(tmp_path / "dump.json"), "--layer", "stretching"]) == 0
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


COLLIDING_NAMES = """
structure colliding
dim 1
cells 0: o
cells 1: a b a+.b
src a = o
tgt a = o
src b = o
tgt b = o
src a+.b = o
tgt a+.b = o
"""
COLLIDING_REFUSAL = (
    "cell a+.b of grade 1: a generator's name may not contain '.', ';', '[' or ']', "
    "which join the names of words and brackets\n"
)


@pytest.mark.parametrize("argv", [
    ["free-groupoid", "--max-len", "2"],
    ["free-groupoid", "--max-len", "2", "--reduce", "a+.b+"],
    ["stretch", "--n", "0", "--dim", "2", "--size", "5"],
])
def test_a_name_that_two_cells_would_share_is_refused(argv, tmp_path, capsys, monkeypatch):
    # the word a+ b+ and the edge a+.b would both be named a+.b+: refused before any word or term is built
    import globforge.stretching as stretching

    path = tmp_path / "colliding.glob"
    path.write_text(COLLIDING_NAMES)
    _refuse(monkeypatch, "parse_word", "reduced_words_by_name")
    monkeypatch.setattr(stretching, "Strictifier", None)
    monkeypatch.setattr(stretching, "TermContext", None)
    assert main([argv[0], str(path), *argv[1:]]) == 2
    assert capsys.readouterr() == ("", COLLIDING_REFUSAL)


def test_validate_accepts_a_name_that_words_would_share(tmp_path, capsys):
    path = tmp_path / "colliding.glob"
    path.write_text(COLLIDING_NAMES)
    assert main(["validate", str(path)]) == 0
    assert parse_report(capsys.readouterr().out).valid


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
        assert (main(["validate", str(path), "--layer", "stretching"]), *capsys.readouterr()) == (codes[-1], out, err)
        if codes[-1] == 2:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n")
        else:
            assert codes[-1] in (0, 1) and err == ""
            assert parse_report(out).valid is (codes[-1] == 0)
    assert min(codes.count(code) for code in (1, 2)) >= 30  # reports and load errors are common


def _reversed(E: Stretching) -> Stretching:
    """E with its cells, tables, table rows, pi and brackets all held in reversed order."""
    flip = lambda tables: {key: dict(reversed(t.items())) for key, t in reversed(tables.items())}  # noqa: E731

    def side(nm: NMagma) -> NMagma:
        gs = nm.magma.gs
        cells = {m: cs[::-1] for m, cs in reversed(gs.cells.items())}
        flipped = TruncatedGlobularSet(gs.max_dim, cells, flip(gs.src), flip(gs.tgt))
        return NMagma.of(flipped, nm.threshold, *(flip(kind.layer(nm).maps) for kind in KINDS))

    return Stretching(side(E.m_side), side(E.c_side), E.threshold, flip(E.pi), dict(reversed(E.brackets.items())))


def _scrambled(payload: dict, rng: random.Random, share: float) -> dict:
    """payload with about share of its table values and bracket cells swapped for other cell names."""
    payload = json.loads(json.dumps(payload))
    sides = [payload[side] for side in ("m_side", "c_side")]
    names = sorted({x for side in sides for cells in side["cells"].values() for x in cells})
    for side in sides:
        for table in (t for kind in ("refl", "rev") for t in side[kind].values()):
            for key in table:
                if rng.random() < share:
                    table[key] = rng.choice(names)
    for row in [*payload["brackets"], *(r for side in sides for t in side["comp"].values() for r in t)]:
        if rng.random() < share:
            row[rng.randrange(isinstance(row[0], int), len(row))] = rng.choice(names)
    return payload


def test_validate_stretching_ignores_the_order_of_rows():
    # a loaded dump, scrambled copies of it, and the loadable mutants of the contract test above,
    # in file order and in reversed order
    payload = json.loads(dump_stretching(generate_free_stretching(parse_structure(EDGE).gs, 0, 2, 5)))
    rng = random.Random(20121809)
    texts = [json.dumps(payload), *(json.dumps(_scrambled(payload, rng, share)) for share in (0.05, 0.2, 0.5))]
    payload = json.loads(dump_stretching(generate_free_stretching(parse_structure(EDGE).gs, 0, 1, 4)))
    rng = random.Random(20121804)
    texts += [json.dumps(_dump_mutant(payload, rng)) for _ in range(200)]
    reports = []
    for text in texts:
        try:
            E = load_stretching(text)
        except ValueError:
            continue
        reports.append(emit_report(validate_stretching(E)))
        assert emit_report(validate_stretching(_reversed(E))) == reports[-1]
    assert sum('"valid": false' in text for text in reports) >= 30


Z3 = "\n".join([
    "structure Z3", "dim 1", "threshold 0", "cells 0: o", "cells 1: r0 r1 r2",
    *(f"{face} r{k} = o" for k in range(3) for face in ("src", "tgt")),
    "refl 0 1 o = r0",
    *(f"comp 1 0 (r{j}, r{k}) = r{(j + k) % 3}" for j in range(3) for k in range(3)),
    *(f"rev 1 0 r{k} = r{-k % 3}" for k in range(3)),
]) + "\n"
_DIGITS = [str.maketrans("0123456789", digits) for digits in ("٠١٢٣٤٥٦٧٨٩", "⁰¹²³⁴⁵⁶⁷⁸⁹", "０１２３４５６７８９")]
_NUMERALS = ["0", "1", "2", "3", "-1", "+1", "01", "10001", "9" * 4300, "9" * 5000]
_TOKENS = [*_NUMERALS, "(", ")", ",", "=", ":", "#", "x\x07y", " ", "\x0b", "\t", "cells", "src", "tgt", "refl",
           "comp", "rev", "dim", "threshold", "structure"]
_TEXT_COMMANDS = [
    *(["validate", "--layer", layer] for layer in LAYERS),
    ["derive-reversors"],
    ["index"],
    ["free-groupoid", "--max-len", "2"],
    ["stretch", "--n", "0", "--dim", "1", "--size", "3"],
]


def _text_mutant(text: str, rng: random.Random) -> str:
    """text with one to three random edits (mostly one): a line dropped, repeated or swapped, a token edited
    or inserted, a line's digits made Unicode digits, or a numeral made huge."""
    lines = text.splitlines()
    names = sorted(set(re.findall(r"[^\s(),:=#]+", text)))
    for _ in range(rng.choice((1, 1, 2, 3))):
        i, j = rng.randrange(len(lines)), rng.randrange(len(lines))
        op = rng.randrange(7)
        if op == 0 and len(lines) > 1:
            del lines[i]
        elif op == 1:
            lines.insert(j, lines[i])
        elif op == 2:
            lines[i], lines[j] = lines[j], lines[i]
        elif op in (3, 4):  # edit or insert a token, from the text's own or the pool
            pieces = re.split(r"(\s+|[(),:=#])", lines[i])
            k = rng.randrange(len(pieces))
            token = rng.choice(names if rng.random() < 0.7 else _TOKENS)
            pieces[k:k + 1] = [token] if op == 3 else [pieces[k], rng.choice(("", " ")), token]
            lines[i] = "".join(pieces)
        elif op == 5:
            lines[i] = lines[i].translate(rng.choice(_DIGITS))
        else:
            lines[i] = re.sub(r"\d+", lambda _: rng.choice(_NUMERALS), lines[i], count=1)
    return "\n".join(lines) + "\n"


def test_every_command_on_mutated_presentations_keeps_the_contract(tmp_path, capsys):
    # exit 0 or 1 with a document, or exit 2 with one stderr line; never a crash, and the same bytes twice
    rng = random.Random(20121805)
    path = tmp_path / "mutant.glob"
    codes = []
    for _ in range(40):
        path.write_text(_text_mutant(rng.choice((WALKING_ISO, POSET2, EDGE, Z3)), rng), encoding="utf-8")
        for command in _TEXT_COMMANDS:
            argv = [command[0], str(path), *command[1:]]
            codes.append(main(argv))
            out, err = capsys.readouterr()
            assert "internal error:" not in err, (argv, path.read_text(encoding="utf-8"))
            assert (main(argv), *capsys.readouterr()) == (codes[-1], out, err)
            if codes[-1] == 2:
                assert out == "" and err.count("\n") == 1 and err.endswith("\n")
            elif command[0] == "stretch":  # the dump, then any violations on stderr
                assert codes[-1] in (0, 1) and out
            else:
                assert codes[-1] in (0, 1) and err == ""
                if command[0] == "validate" or codes[-1] == 1:
                    assert parse_report(out).valid is (codes[-1] == 0)
                else:
                    assert json.loads(out)["subject"]
    assert min(codes.count(code) for code in (0, 1, 2)) >= 20  # documents, reports and errors are all common


GLOBE = """
structure globe
dim 2
cells 0: a b
cells 1: f g
cells 2: al
src f = a
tgt f = b
src g = a
tgt g = b
src al = f
tgt al = g
"""
_HUGE = str(10**20)
_SMALL = ["0", "1", "2", "3", "+1", "002"]


def _command_line(rng: random.Random, files: dict[str, str], reports: list) -> list[str]:
    """A seeded command line: its bounds small, negative or huge, its flags in any order.  A huge --size
    comes with a bound or an input that is refused before any work, and a huge --max-len with one of those
    or with the one-edge graph, whose reduced words end at length 1, so none runs long (a huge --n asks
    for no work)."""
    command = rng.choice(["stretch", "stretch", "free-groupoid", "free-groupoid", "derive-reversors", "index",
                          "validate", "check-proofs"])
    reject = rng.random() < 0.25
    if command == "stretch":
        bounds = {"--n": rng.choice(_SMALL[:3] + [_HUGE]), "--dim": rng.choice(_SMALL[:4]),
                  "--size": rng.choice(_SMALL + ["5"])}
        if reject or rng.random() < 0.2:
            bounds["--size"] = rng.choice([_HUGE, "4"])
            bounds[rng.choice(["--n", "--dim", "--size"])] = rng.choice(["-1", "-20"])
            if rng.random() < 0.5:
                bounds["--dim"] = rng.choice(["4", _HUGE])
        options = [[flag, value] for flag, value in bounds.items()]
        graph = rng.choice(["edge", "edge", "iso", "globe"])
    elif command == "free-groupoid":
        max_len = rng.choice(_SMALL[:4] + ["-1", "-5"])
        options = [["--max-len", max_len]]
        graph = rng.choice(["edge", "iso"])
        if reject:  # a huge bound: on a dimension-2 graph, beside a malformed word, or on the one edge
            options[0][1], graph = _HUGE, rng.choice(["globe", "edge", graph])
            if graph == "iso":
                options.append(["--reduce", rng.choice(["f+ zz", "q+", "e+ e+"])])
        elif rng.random() < 0.5:
            options.append(["--reduce", rng.choice(["e+ e-", "f+ g+", "a", "g- f-", "zz"])])
    elif command == "derive-reversors":
        options = [["--n", rng.choice(_SMALL[:3] + ["-1", _HUGE])]]
        graph = rng.choice(["iso", "edge"])
    elif command in ("validate", "index"):
        options = [["--layer", rng.choice(LAYERS[:-1])]] if command == "validate" else []
        graph = rng.choice(["iso", "edge", "globe"])
    else:
        options, graph = ([["--suite", rng.choice(SUITE_CHOICES)]] if rng.random() < 0.8 else []), None
    if rng.random() < 0.6:
        report = rng.choice(["fresh", "fresh", "directory", "missing"])
        path = {"fresh": files["dir"] + f"/report{len(reports)}.json", "directory": files["dir"],
                "missing": files["dir"] + "/missing/report.json"}[report]
        reports.append(path)
        options.append(["--report", path])
    if graph is not None:
        options.append([files[graph]])
    rng.shuffle(options)
    return [command, *(token for option in options for token in option)]


_REFUSALS = ("invalid choice", "invalid int value", "are required", "unrecognized arguments", "expected one argument")


def _refused(argv: list[str], rng: random.Random) -> list[str]:
    """argv respelt so that argparse refuses it: a bad choice, a bound that is not an int, a required
    flag left out or an unknown flag."""
    argv = list(argv)
    at = {token: k for k, token in enumerate(argv)}
    kind = rng.randrange(4)
    if kind == 0:
        choice = next((at[flag] for flag in ("--layer", "--suite") if flag in at), None)
        if choice is None:
            argv[0] += "s"
        else:
            argv[choice + 1] = "X"
    elif kind == 1 and {"--size", "--max-len"} & set(at):
        argv[at["--size" if "--size" in at else "--max-len"] + 1] = "1e3"
    elif kind == 2 and argv[0] in ("stretch", "free-groupoid"):
        k = at["--max-len"] if "--max-len" in at else at[rng.choice(["--n", "--dim", "--size"])]
        del argv[k : k + 2]
    else:
        argv.insert(rng.randrange(1, len(argv) + 1), "--bogus")
    return argv


def test_seeded_command_lines_keep_the_contract(tmp_path, capsys):
    # exit 0 or 1 with a document, or exit 2 with one stderr line; never a crash, and the same bytes twice
    files = {"dir": str(tmp_path)}
    for name, text in (("edge", EDGE), ("iso", WALKING_ISO), ("globe", GLOBE)):
        files[name] = str(tmp_path / f"{name}.glob")
        Path(files[name]).write_text(text, encoding="utf-8")
    rng, respell = random.Random(20121808), random.Random(20121809)
    codes, reports, refusals = [], [], set()
    for _ in range(80):
        argv = _command_line(rng, files, reports)
        refused = respell.random() < 0.15
        if refused:
            argv = _refused(argv, respell)
        report = argv[argv.index("--report") + 1] if "--report" in argv else None
        runs = []
        for _ in range(2):
            code = main(argv)
            written = Path(report).read_text(encoding="utf-8") if report and os.path.isfile(report) else None
            runs.append((code, *capsys.readouterr(), written))
        assert runs[0] == runs[1], argv
        code, out, err, written = runs[0]
        codes.append(code)
        assert "internal error:" not in err, argv
        if code == 2:
            assert out == "" and err.count("\n") == 1 and err.endswith("\n"), argv
            if refused:
                assert err.startswith("globforge"), argv
                refusals.add(next(why for why in _REFUSALS if why in err))
        else:
            assert code in (0, 1) and (err == "" or argv[0] == "stretch") and not refused, argv
            assert json.loads(out) and written == (out if report else None), argv
    assert min(codes.count(code) for code in (0, 1, 2)) >= 10, codes
    assert refusals == set(_REFUSALS)


_ODD = ["-", "-x", "---", "-1", "-0", "-1.5", "-.5", "-1\n", "- 1", "-5 x", "", "-h", "--h", "--he", "-hh", "-hx",
        "--help=x", "--=x", "--bogus=1", "--report=", "x"]
_VALUES = ["0", "2", "+1", " 3", "-1", "S2", "all", "auto", "magma", "X", "1e3", "e+ e-", ""]


def _respelt(argv: list[str], rng: random.Random) -> list[str]:
    """argv with one to three edits of its spelling: a --flag=value, a prefix of a flag, a flag given
    again, a --, a negative number or other odd value, a token that starts with -, or a flag with no
    value at the end."""
    argv = list(argv)
    for _ in range(rng.randint(1, 3)):
        flags = [k for k in range(1, len(argv)) if argv[k].startswith("--") and len(argv[k]) > 2]
        k = rng.choice(flags) if flags else None
        edit = rng.randrange(7)
        if edit == 0 and k is not None and k + 1 < len(argv) and argv[k + 1] != "--":
            argv[k : k + 2] = [f"{argv[k]}={argv[k + 1]}"]
        elif edit == 1 and k is not None:  # unique, ambiguous or matching no flag
            argv[k] = argv[k][: rng.randint(3, len(argv[k]))]
        elif edit == 2 and k is not None:
            at = rng.randint(1, len(argv))
            argv[at:at] = [argv[k].partition("=")[0], rng.choice(_VALUES)]
        elif edit == 3:
            argv.insert(rng.randint(1, len(argv)), "--")
        elif edit == 4 and k is not None and k + 1 < len(argv):
            argv[k + 1] = rng.choice(["-1", "-0", "-1.5", "-.5", "-1\n", "-x", "--", "-5 x", "--report"])
        elif edit == 5:
            argv.insert(rng.randint(1, len(argv)), rng.choice(_ODD))
        else:
            argv.append(rng.choice(["--report", "--n", "--max-len", "--suite", "--layer", "--size", "--re"]))
    return argv


def _parsed(parse, argv: list[str], capsys) -> tuple:
    """What parse makes of argv: the namespace's attributes, or the exit code and the refusal line."""
    try:
        args = parse(argv)
    except SystemExit as exc:
        out, err = capsys.readouterr()
        if exc.code == 0:
            assert err == "" and out.startswith("usage: globforge "), argv
            return 0, "usage"
        assert out == "" and err.count("\n") == 1, argv
        return exc.code, err
    return vars(args)


def test_the_command_line_reader_agrees_with_the_argparse_parser(capsys):
    # the lines of the contract fuzz and its refusals, respelt; a refusal must be the same line
    rng = random.Random(20121810)
    files = {"dir": "reports", "edge": "edge.glob", "iso": "iso.glob", "globe": "-globe.glob"}
    oracle = build_parser()
    lines = [[], ["--"], ["-h"], ["--bogus"], ["--bogus", "-h"], ["-hx", "index", "f"], ["--", "index", "f"],
             ["validates", "f"], ["--report", "r", "index", "f"], ["-1", "index"], ["index", "f", "-hh"]]
    for _ in range(3000):
        argv = _command_line(rng, files, [])
        if rng.random() < 0.3:
            argv = _refused(argv, rng)
        if rng.random() < 0.8:
            argv = _respelt(argv, rng)
        if rng.random() < 0.05:
            argv.insert(0, rng.choice(_ODD))
        lines.append(argv)
    outcomes = Counter()
    for argv in lines:
        want = _parsed(oracle.parse_args, argv, capsys)
        assert _parsed(_parse_args, argv, capsys) == want, argv
        outcomes["accepted" if isinstance(want, dict) else "usage" if want[0] == 0 else
                 next(why for why in (*_REFUSALS, "ambiguous option", "ignored explicit") if why in want[1])] += 1
    assert len(outcomes) == 4 + len(_REFUSALS) and min(outcomes.values()) >= 30, outcomes
    assert outcomes["accepted"] >= 600, outcomes


def test_a_double_dash_after_the_equals_sign_is_the_flags_value(capsys):
    # where the argparse parser stored an empty list, which no handler expects
    assert _parse_args(["validate", "f", "--report=--"]).report == "--"
    assert build_parser().parse_args(["validate", "f", "--report=--"]).report == []
    assert _parsed(_parse_args, ["validate", "f", "--layer=--"], capsys) == (
        2, f"globforge validate: argument --layer: invalid choice: '--' (choose from {str(LAYERS)[1:-1]})\n")


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


def test_data_payloads_are_what_json_dumps_writes(tmp_path, capsys):
    # the one writer, report.write_json, on cell names beyond ASCII and on an empty graph's empty lists
    iso = re.sub(r"\bg\b", "γ", re.sub(r"\bf\b", "φ", WALKING_ISO)).replace("structure W", "structure Wé")
    texts = {"iso": iso, "edge": EDGE.replace(" e", " é"), "empty": "structure empty\ndim 1\n"}
    files = {name: tmp_path / f"{name}.glob" for name in texts}
    for name, text in texts.items():
        files[name].write_text(text, encoding="utf-8")
    payloads = []
    for argv in (["derive-reversors", files["iso"]], ["index", files["iso"]],
                 ["free-groupoid", files["edge"], "--max-len", "3", "--reduce", "é+ é- é+"],
                 ["free-groupoid", files["empty"], "--max-len", "2"]):
        assert main([str(arg) for arg in argv]) == 0
        out = capsys.readouterr().out
        payloads.append(json.loads(out))
        assert out == json.dumps(payloads[-1], sort_keys=True, indent=2) + "\n", argv
    assert payloads[0]["tables"]["1.0"]["φ"] == "γ" and payloads[1]["subject"] == "Wé"
    assert payloads[2]["reduced"] == "é+" and payloads[3]["cells"] == payloads[3]["points"] == []


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
