"""Import footprint: each command imports only the layers it runs, no command
imports dataclasses, an option parser or typing, only reading a dump imports
json, and the lazy package exports resolve to the defining modules' objects."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import globforge
from globforge.dsl import parse_structure
from globforge.stretching import dump_stretching, generate_free_stretching
from test_cli import EDGE, WALKING_ISO

ROOT = Path(__file__).resolve().parents[1]


def _loaded(code: str, prefix: str = "globforge") -> set[str]:
    """Modules named with `prefix` loaded once `code` has run in a fresh interpreter."""
    probe = f"{code}\nimport sys, json\nprint(json.dumps(sorted(m for m in sys.modules if m.startswith({prefix!r}))))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(json.loads(proc.stdout.splitlines()[-1]))


def _command(argv: list[str]) -> str:
    return f"import globforge.cli\nassert globforge.cli.main({argv!r}) == 0"


def _after_command(argv: list[str], prefix: str = "globforge") -> set[str]:
    return _loaded(_command(argv), prefix)


def _loaded_without_site(code: str) -> set[str]:
    """Every module loaded once `code` has run in a fresh `python -S`, whose site can preload none."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    probe = f"{code}\nimport sys\nprint(*sorted(sys.modules))"
    proc = subprocess.run([sys.executable, "-S", "-c", probe], env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.splitlines()[-1].split())


def test_importing_cli_loads_no_layer():
    assert _loaded("import globforge.cli") == {"globforge", "globforge.cli"}


def test_check_proofs_loads_only_the_engine():
    loaded = _after_command(["check-proofs", "--suite", "S2"])
    assert {"globforge.engine", "globforge.report"} <= loaded
    for layer in ("dsl", "globular", "layers", "magma", "stretching", "normalform", "terms", "words"):
        assert f"globforge.{layer}" not in loaded


def test_validate_loads_no_engine_and_no_free_construction(tmp_path):
    path = tmp_path / "iso.glob"
    path.write_text(WALKING_ISO)
    loaded = _after_command(["validate", str(path)])
    assert {"globforge.dsl", "globforge.magma", "globforge.report"} <= loaded
    assert not any(m.startswith("globforge.engine") for m in loaded)
    for layer in ("stretching", "normalform", "terms", "words"):
        assert f"globforge.{layer}" not in loaded


def test_free_groupoid_loads_words_and_no_free_stretching(tmp_path):
    path = tmp_path / "edge.glob"
    path.write_text(EDGE)
    loaded = _after_command(["free-groupoid", str(path), "--max-len", "2", "--reduce", "e+.e-"])
    assert "globforge.words" in loaded
    assert not any(m.startswith("globforge.engine") for m in loaded)
    for layer in ("normalform", "terms", "stretching"):
        assert f"globforge.{layer}" not in loaded


def test_words_sits_below_normalform():
    loaded = _loaded("import globforge.words")
    assert "globforge.words" in loaded
    assert not {"globforge.normalform", "globforge.terms", "globforge.stretching"} & loaded


DATA_COMMANDS = [
    ["validate", "{iso}"],
    ["validate", "{dump}", "--layer", "stretching"],
    ["stretch", "{edge}", "--n", "0", "--dim", "2", "--size", "3"],
    ["free-groupoid", "{edge}", "--max-len", "2"],
    ["derive-reversors", "{iso}"],
    ["index", "{iso}"],
    ["check-proofs", "--suite", "S2"],
    ["check-proofs"],
]


def data_files(tmp_path: Path) -> dict[str, Path]:
    """The input files that DATA_COMMANDS name, written under tmp_path."""
    files = {"iso": tmp_path / "iso.glob", "edge": tmp_path / "edge.glob", "dump": tmp_path / "dump.json"}
    files["iso"].write_text(WALKING_ISO)
    files["edge"].write_text(EDGE)
    files["dump"].write_text(dump_stretching(generate_free_stretching(parse_structure(EDGE).gs, 0, 2, 3)))
    return files


@pytest.mark.parametrize("argv", DATA_COMMANDS, ids=[" ".join(argv) for argv in DATA_COMMANDS])
def test_data_commands_import_neither_dataclasses_nor_inspect(argv, tmp_path):
    files = data_files(tmp_path)
    loaded = _after_command([arg.format(**files) for arg in argv], prefix="")
    assert not {"dataclasses", "inspect"} & loaded


_OPTION_PARSING = {"argparse", "gettext", "locale", "shutil"}


def test_importing_cli_and_checking_proofs_load_no_option_parser_json_re_or_typing():
    for code in ("import globforge.cli", _command(["check-proofs", "--suite", "all"])):
        assert not {*_OPTION_PARSING, "json", "re", "typing"} & _loaded_without_site(code), code


@pytest.mark.parametrize("argv", DATA_COMMANDS, ids=[" ".join(argv) for argv in DATA_COMMANDS])
def test_only_validating_a_dump_loads_json(argv, tmp_path):
    loaded = _loaded_without_site(_command([arg.format(**data_files(tmp_path)) for arg in argv]))
    assert not {*_OPTION_PARSING, "typing"} & loaded
    assert ("json" in loaded) == (argv[-2:] == ["--layer", "stretching"])


def test_importing_the_engine_loads_neither_dataclasses_nor_inspect():
    assert not {"dataclasses", "inspect"} & _loaded("import globforge.engine", prefix="")


def test_package_exports_are_the_defining_modules_objects():
    for name in globforge.__all__:
        value = getattr(globforge, name)
        assert value is getattr(importlib.import_module(value.__module__), name), name
    assert set(globforge.__all__) <= set(dir(globforge))
    with pytest.raises(AttributeError):
        globforge.no_such_name


def test_package_submodules_resolve_lazily():
    loaded = _loaded(
        "import globforge\n"
        "assert globforge.magma.validate_strict is globforge.validate_strict\n"
        "assert globforge.engine.check_suite is globforge.check_suite"
    )
    assert {"globforge.magma", "globforge.engine"} <= loaded
    assert "globforge.stretching" not in loaded
