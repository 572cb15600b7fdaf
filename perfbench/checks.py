"""Per-op correctness: the README output contract plus independent oracles.

An op passes when its exit code is the expected one, its output honours
the contract (exit 0/1 with a canonical JSON document on stdout, or exit 2
with exactly one line on stderr; never a traceback), its stdout matches
the SHA-256 digest pinned at the parent commit, and its oracle agrees.
Oracles are computed here without importing globforge.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable

# Families a redirected composite may trip in a structure whose cells all
# share their boundaries: the magma stays well formed, strictness breaks.
STRICT_FAMILIES = {"assoc", "units", "interchange", "refl-functorial"}


def contract(code: int, out: bytes, err: str, expect: int) -> str | None:
    if "Traceback (most recent call last)" in err:
        return f"traceback: {err.strip().splitlines()[-1]}"
    if code != expect:
        return f"exit {code}, expected {expect}" + (f" ({err.strip()[:120]})" if err.strip() else "")
    if code == 2:
        if out:
            return "exit 2 with output on stdout"
        if not err.endswith("\n") or err.count("\n") != 1 or not err.strip():
            return f"exit 2 needs exactly one line on stderr, got {err!r:.120}"
    return None


def canonical(out: bytes) -> str | None:
    try:
        doc = json.loads(out)
    except ValueError as exc:
        return f"stdout is not JSON: {exc}"
    if (json.dumps(doc, sort_keys=True, indent=2) + "\n").encode() != out:
        return "stdout is JSON but not in canonical form"
    return None


def digest(out: bytes) -> str:
    return hashlib.sha256(out).hexdigest()


# -- oracles: each takes the parsed stdout document, returns an error or None


def valid_report(doc) -> str | None:
    if doc.get("valid") is not True or doc.get("violations"):
        return f"expected a valid report, got {len(doc.get('violations', []))} violations"
    return None


def rejected(families: set[str], axiom: str | None = None) -> Callable:
    """The report is invalid, every violation is in `families`, and `axiom` is among them."""

    def check(doc) -> str | None:
        ids = {v["axiom"] for v in doc.get("violations", [])}
        fams = {a.split(".", 1)[0] for a in ids}
        if doc.get("valid") is not False or not ids:
            return "mutant accepted"
        if not fams <= families:
            return f"mutant rejected outside {sorted(families)}: {sorted(fams - families)}"
        if axiom is not None and axiom not in ids:
            return f"mutant rejected without {axiom}: {sorted(ids)}"
        return None

    return check


def word_count(want: int, reduce_to: str | None = None) -> Callable:
    """free-groupoid: the number of cells equals the closed-form count, and
    the requested word reduces to `reduce_to`."""

    def check(doc) -> str | None:
        if len(doc["cells"]) != want:
            return f"{len(doc['cells'])} cells, closed form gives {want}"
        if reduce_to is not None and doc.get("reduced") != reduce_to:
            return f"reduced to {doc.get('reduced')}, expected {reduce_to}"
        return None

    return check


def free_reduce(word: str) -> str:
    """Stack reduction of a dotted signed-edge word; non-empty results only."""
    stack: list[str] = []
    for step in word.split("."):
        if stack and stack[-1][:-1] == step[:-1] and stack[-1][-1] != step[-1]:
            stack.pop()
        else:
            stack.append(step)
    return ".".join(stack)


def inverses(tables: dict[str, dict[str, str]]) -> Callable:
    def check(doc) -> str | None:
        got = doc.get("tables")
        if got != tables:
            diff = sorted(k for k in set(got or {}) | set(tables) if (got or {}).get(k) != tables.get(k))
            return f"reversor tables differ from the group inverses in {diff}"
        return None

    return check


def index_is(value: int) -> Callable:
    def check(doc) -> str | None:
        return None if doc.get("index") == value else f"index {doc.get('index')}, expected {value}"

    return check


def grade_counts(want: dict[int, int]) -> Callable:
    """stretch: cells per grade on the magma side."""

    def check(doc) -> str | None:
        got = {int(m): len(cs) for m, cs in doc["m_side"]["cells"].items()}
        return None if got == want else f"grade counts {got}, expected {want}"

    return check


def all_mutants_rejected(doc) -> str | None:
    """replay.py: the suite replays clean and every mutant was rejected."""
    if not doc.get("clean"):
        return "suite does not replay clean"
    bad = [m for m in doc["outcomes"] if m[2] != "rejected"]
    if bad:
        return f"{len(bad)} mutants not rejected at their step, first {bad[0]}"
    return None
