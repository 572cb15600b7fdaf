"""The benchmark's tracer wraps layer entry points as attributes of `cli` and
of the defining modules; a traced op must run end to end and record the
same spans and counts whichever way `cli` imports its layers."""

import json
import os
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

from globforge.dsl import parse_structure
from globforge.stretching import dump_stretching, generate_free_stretching
from test_cli import EDGE, WALKING_ISO

ROOT = Path(__file__).resolve().parents[1]

# op (with {iso}, {edge} and {dump} standing for input files) -> span names and counts
TRACED = {
    ("replay", "S2", "1"): (
        {"cli.import": 1, "engine.build": 1, "engine.check": 6, "engine.rules": 8},
        {"engine.steps": 28},
    ),
    ("cli", "check-proofs", "--suite", "S2"): (
        {"cli.import": 1, "engine.build": 1, "engine.check": 1, "engine.rules": 2, "report.emit": 1},
        {"engine.steps": 5, "report.violations": 0},
    ),
    ("cli", "validate", "{iso}"): (
        {"cli.import": 1, "dsl.parse": 1, "globular.build": 1, "globular.validate": 1, "layers.validate": 4,
         "magma.validate_magma": 1, "magma.validate_strict": 1, "report.emit": 1},
        {"dsl.lines": 28, "magma.comp_entries": 8, "report.violations": 0},
    ),
    ("cli", "validate", "{dump}", "--layer", "stretching"): (
        {"cli.import": 1, "globular.build": 2, "report.emit": 1, "stretching.load": 1, "stretching.validate": 1},
        {"report.violations": 0},
    ),
    ("cli", "derive-reversors", "{iso}"): (
        {"cli.import": 1, "dsl.parse": 1, "globular.build": 1, "globular.validate": 1, "layers.validate": 1,
         "magma.derive": 1, "magma.validate_magma": 1, "magma.validate_strict": 1},
        {"dsl.lines": 28, "magma.comp_entries": 8},
    ),
    ("cli", "index", "{iso}"): (
        {"cli.import": 1, "dsl.parse": 1, "globular.build": 1, "globular.validate": 1, "layers.validate": 1,
         "magma.index": 1, "magma.validate_magma": 1, "magma.validate_strict": 1},
        {"dsl.lines": 28, "magma.comp_entries": 8},
    ),
    ("cli", "stretch", "{edge}", "--n", "0", "--dim", "2", "--size", "5"): (
        {"cli.import": 1, "dsl.parse": 1, "globular.build": 3, "normalform.pi": 217, "stretching.dump": 1,
         "stretching.generate": 1, "stretching.validate": 1, "terms.build": 83},
        {"dsl.lines": 7, "normalform.memo_hits": 134, "normalform.pi_calls": 217, "stretching.bracket_calls": 1,
         "stretching.brackets": 1, "stretching.cells": 83, "terms.built": 83},
    ),
    ("cli", "free-groupoid", "{edge}", "--max-len", "3", "--reduce", "e+.e-.e+"): (
        {"cli.import": 1, "dsl.parse": 1, "globular.build": 2, "globular.validate": 1, "words.free_groupoid": 1},
        {"dsl.lines": 7, "words.cells": 4, "words.entries": 8, "words.reduce_calls": 1},
    ),
}


@pytest.fixture
def inputs(tmp_path):
    files = {"iso": tmp_path / "iso.glob", "edge": tmp_path / "edge.glob", "dump": tmp_path / "dump.json"}
    files["iso"].write_text(WALKING_ISO)
    files["edge"].write_text(EDGE)
    files["dump"].write_text(dump_stretching(generate_free_stretching(parse_structure(EDGE).gs, 0, 2, 5)))
    return {key: str(path) for key, path in files.items()}


@pytest.mark.parametrize("op", [list(op) for op in TRACED])
def test_traced_op_runs(op, inputs, tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "x",
         *(arg.format(**inputs) for arg in op)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    doc = json.loads(spans.read_text())
    names, counts = TRACED[tuple(op)]
    assert Counter(span[0] for span in doc["spans"]) == names
    assert doc["counts"] == counts
