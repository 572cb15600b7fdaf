"""The process path: `python -m globforge.cli` ends through `cli.run`, which
flushes the output and exits without tearing the interpreter down.  Each
child runs with stdout block-buffered (no PYTHONUNBUFFERED), so these tests
see what only the final flush writes."""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest
from test_cli import EDGE
from test_imports import DATA_COMMANDS, data_files

from globforge import cli
from globforge.dsl import parse_structure
from globforge.stretching import dump_stretching, generate_free_stretching

ROOT = Path(__file__).resolve().parents[1]


def _env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return dict(env, PYTHONPATH=str(ROOT / "src"), COLUMNS="80")


def _process(argv: list[str], **kwargs) -> subprocess.CompletedProcess:
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run(
        [sys.executable, "-m", "globforge.cli", *argv], stderr=subprocess.PIPE, env=_env(), timeout=60, **kwargs
    )


def _in_process(argv: list[str], capsys) -> tuple[int, bytes]:
    code = cli.main(argv)
    return code, capsys.readouterr().out.encode("utf-8")


def test_data_commands_write_the_same_bytes_in_a_process(tmp_path, capsys):
    files = data_files(tmp_path)
    for argv in DATA_COMMANDS:
        argv = [arg.format(**files) for arg in argv]
        proc = _process(argv)
        assert (proc.returncode, proc.stdout) == _in_process(argv, capsys), argv
        assert proc.stderr == b"", argv


def test_a_refused_command_line_exits_two_with_one_line():
    proc = _process(["check-proofs", "--suite", "S9"])
    assert proc.returncode == 2 and proc.stdout == b""
    assert proc.stderr.count(b"\n") == 1 and proc.stderr.startswith(b"globforge check-proofs: argument --suite")


def test_help_prints_the_whole_usage(capsys, monkeypatch):
    monkeypatch.setenv("COLUMNS", "80")
    proc = _process(["--help"])
    assert (proc.returncode, proc.stdout) == _in_process(["--help"], capsys)
    assert proc.stdout.startswith(b"usage: globforge") and proc.stderr == b""


def _stretch(tmp_path: Path, size: int) -> list[str]:
    return ["stretch", str(data_files(tmp_path)["edge"]), "--n", "0", "--dim", "2", "--size", str(size)]


def test_a_dump_larger_than_a_pipe_buffer_arrives_whole(tmp_path):
    proc = _process(_stretch(tmp_path, 6))
    want = dump_stretching(generate_free_stretching(parse_structure(EDGE).gs, 0, 2, 6)).encode("utf-8")
    assert len(want) > 1 << 16
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, want, b"")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_a_full_stdout_exits_two_with_one_line(tmp_path):
    # check-proofs S2 fits the stdout buffer, so only the final flush fails
    with open("/dev/full", "wb") as full:
        proc = _process(["check-proofs", "--suite", "S2"], stdout=full)
        assert (proc.returncode, proc.stderr) == (2, b"cannot write stdout: No space left on device\n")
        # a dump larger than the buffer fails inside main, and the final flush adds no second line
        proc = _process(_stretch(tmp_path, 6), stdout=full)
        assert (proc.returncode, proc.stderr) == (2, b"cannot write stdout: No space left on device\n")


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs /dev/full")
def test_the_final_flush_adds_no_line_after_a_failed_write():
    # a small write stays in the buffer when a larger one fails, so the final flush fails on it again
    code = (
        "import sys\nfrom globforge import cli\n"
        "cli._cmd_check_proofs = lambda args: sys.stdout.write('{') and cli._emit('x' * (1 << 16), None)\n"
        "sys.argv[1:] = ['check-proofs']\ncli.run()\n"
    )
    with open("/dev/full", "wb") as full:
        proc = subprocess.run([sys.executable, "-c", code], stdout=full, stderr=subprocess.PIPE, env=_env(), timeout=60)
    assert (proc.returncode, proc.stderr) == (2, b"cannot write stdout: No space left on device\n")


@pytest.mark.parametrize("size", [6, 3])
def test_a_closed_pipe_exits_two_with_one_line(tmp_path, size):
    # the dump at size 6 outgrows the stdout buffer, so a write inside main fails; size 3 fails at the flush
    read, write = os.pipe()
    os.close(read)
    with open(write, "wb") as closed:
        proc = _process(_stretch(tmp_path, size), stdout=closed)
    assert (proc.returncode, proc.stderr) == (2, b"cannot write stdout: Broken pipe\n")


def test_the_installed_script_is_the_function_the_main_block_calls():
    entry = re.search(r'^globforge = "globforge\.cli:(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M)
    assert entry, "no [project.scripts] entry for globforge"
    tree = ast.parse((ROOT / "src" / "globforge" / "cli.py").read_text())
    [block] = [node for node in tree.body if isinstance(node, ast.If) and "__main__" in ast.unparse(node.test)]
    assert ast.unparse(block) == f"if __name__ == '__main__':\n    {entry[1]}()"
    assert getattr(cli, entry[1]) is cli.run
