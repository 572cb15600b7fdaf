"""The benchmark's tracer patches engine names by module attribute; a traced
op must still run end to end."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("op", [["replay", "S2", "1"], ["cli", "check-proofs", "--suite", "S2"]])
def test_traced_op_runs(op, tmp_path):
    spans = tmp_path / "spans.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "tracer.py"), str(spans), "x", *op],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    names = {span[0] for span in json.loads(spans.read_text())["spans"]}
    assert {"engine.build", "engine.rules", "engine.check"} <= names
