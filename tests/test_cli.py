import json

import pytest

from globforge.cli import main
from globforge.engine import check_suite
from globforge.engine.suites import _BUILDERS
from globforge.report import ValidationReport, emit_report, parse_report
from globforge.stretching import load_stretching, validate_stretching

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
@pytest.mark.parametrize("command", ["validate", "check-proofs"])
def test_unwritable_report_exits_two_with_one_line(command, where, iso_file, tmp_path, capsys):
    target = tmp_path / "missing" / "report.json" if where == "missing-dir" else tmp_path
    argv = ["validate", iso_file] if command == "validate" else ["check-proofs", "--suite", "S2"]
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
