"""Import footprint: each command imports only the layers it runs, the data
commands import no dataclasses, and the lazy package exports resolve to the
defining modules' objects."""

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


def _after_command(argv: list[str], prefix: str = "globforge") -> set[str]:
    return _loaded(f"import globforge.cli\nassert globforge.cli.main({argv!r}) == 0", prefix)


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


# check-proofs is exempt: the engine's three proof-step classes stay
# dataclasses (its other classes are records), because the benchmark's replay
# and the acceptance tests rebuild steps with dataclasses.replace
DATA_COMMANDS = [
    ["validate", "{iso}"],
    ["validate", "{dump}", "--layer", "stretching"],
    ["stretch", "{edge}", "--n", "0", "--dim", "2", "--size", "3"],
    ["free-groupoid", "{edge}", "--max-len", "2"],
    ["derive-reversors", "{iso}"],
    ["index", "{iso}"],
]


@pytest.mark.parametrize("argv", DATA_COMMANDS, ids=[" ".join(argv) for argv in DATA_COMMANDS])
def test_data_commands_import_neither_dataclasses_nor_inspect(argv, tmp_path):
    files = {"iso": tmp_path / "iso.glob", "edge": tmp_path / "edge.glob", "dump": tmp_path / "dump.json"}
    files["iso"].write_text(WALKING_ISO)
    files["edge"].write_text(EDGE)
    files["dump"].write_text(dump_stretching(generate_free_stretching(parse_structure(EDGE).gs, 0, 2, 3)))
    loaded = _after_command([arg.format(**files) for arg in argv], prefix="")
    assert not {"dataclasses", "inspect"} & loaded


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
