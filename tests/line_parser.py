"""The line parser: an oracle for dsl.parse_structure.

It reads a presentation one line at a time, each table line by its own
pattern and with its src/tgt grade found by scanning every declared grade,
and builds the structure from the same tables.  Every line that
parse_structure reads in bulk, it reads on its own, so the two agree on a
text exactly when the one-pass reader is right: the same tables in file
order, or the same ParseError, line number included.
"""

from __future__ import annotations

import re
from operator import itemgetter

from globforge.dsl import MAX_DIM, ParsedStructure, ParseError
from globforge.globular import globular_set
from globforge.magma import KINDS, NMagma

_ID = r"([^\s(),:=#]+)"
_IDENT = re.compile(_ID)
_CELLS = re.compile(r"cells\s+(\d+)\s*:\s*(.*)")
_SRC_TGT = re.compile(rf"(?:src|tgt)\s+{_ID}\s*=\s*{_ID}")
_HEADERS = {"structure": "<name>", "dim": "<natural number>", "threshold": "<natural number>"}
_NAMES = {1: (_ID, "<id>"), 2: (rf"\(\s*{_ID}\s*,\s*{_ID}\s*\)", "(<id>, <id>)")}
_TABLES = {
    kind.name: (
        re.compile(rf"{kind.name}\s+(\d+)\s+(\d+)\s+{_NAMES[kind.arity][0]}\s*=\s*{_ID}"),
        f"{kind.name} {' '.join('<m>' if k == kind.value else '<p>' for k in (0, 1))} {_NAMES[kind.arity][1]} = <id>",
        kind,
    )
    for kind in KINDS
}


def _ident(token: str, lineno: int) -> str:
    if not _IDENT.fullmatch(token):
        raise ParseError(lineno, f"invalid identifier {token!r}")
    return token


def _grade(token: str, lineno: int, what: str) -> int:
    if len(token) > 4300 or int(token) > MAX_DIM:
        raise ParseError(lineno, f"{what} {token} is above the cap {MAX_DIM}")
    return int(token)


def _show(key: str | tuple[str, ...]) -> str:
    return f"({', '.join(key)})" if isinstance(key, tuple) else key


def _index(i: str, j: str) -> tuple[int, int]:
    return (int(i), int(j)) if len(i) + len(j) <= 4300 else (0, 0)


def parse_lines(text: str) -> ParsedStructure:
    header: dict[str, str] = {}
    declared: dict[int, dict[str, str]] = {}  # grade -> {name: the name object every table holds}
    cells_line: dict[int, int] = {}  # grade -> its first cells line
    deferred: list[tuple[int, str, str]] = []

    for lineno, raw in filter(itemgetter(1), enumerate(text.splitlines(), start=1)):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        head = parts[0]
        if head in _HEADERS:
            if head in header:
                raise ParseError(lineno, f"duplicate {head} line")
            if len(parts) != 2 or not (head == "structure" or parts[1].isdecimal()):
                raise ParseError(lineno, f"expected: {head} {_HEADERS[head]}")
            header[head] = _ident(parts[1], lineno)
            if head != "structure":
                _grade(parts[1], lineno, head)
        elif head == "cells":
            mt = _CELLS.fullmatch(line)
            if not mt:
                raise ParseError(lineno, "expected: cells <m>: <id> ...")
            grade = _grade(mt[1], lineno, "cells grade")
            bucket = declared.setdefault(grade, {})
            cells_line.setdefault(grade, lineno)
            for nm in mt[2].split():
                if _ident(nm, lineno) in bucket:
                    raise ParseError(lineno, f"cell {nm} declared twice in grade {grade}")
                bucket[nm] = nm
        elif head in ("src", "tgt", *_TABLES):
            deferred.append((lineno, head, line))
        else:
            raise ParseError(lineno, f"unknown declaration {head!r}")

    max_dim = int(header["dim"]) if "dim" in header else max(declared, default=0)
    for grade, lineno in cells_line.items():
        if grade > max_dim:
            raise ParseError(lineno, f"cells declared in grade {grade} above dim {max_dim}")

    def grades_of(nm: str) -> list[int]:
        return sorted(g for g, names in declared.items() if nm in names)

    def unresolved(nm: str, grade: int, lineno: int) -> ParseError:
        found = grades_of(nm)
        if not found:
            return ParseError(lineno, f"unresolved identifier {nm!r}")
        return ParseError(lineno, f"grade mismatch: {nm} is not a {grade}-cell (found in {found})")

    src: dict[int, dict[str, str]] = {m: {} for m in range(1, max_dim + 1)}
    tgt: dict[int, dict[str, str]] = {m: {} for m in range(1, max_dim + 1)}
    maps: dict[str, dict[tuple[int, int], dict]] = {head: {} for head in _TABLES}

    for lineno, head, line in deferred:
        if head in _TABLES:
            pattern, usage, kind = _TABLES[head]
            mt = pattern.fullmatch(line)
            if not mt:
                raise ParseError(lineno, f"expected: {usage}")
            i, j, *names = mt.groups()
            index = _index(i, j)
            if not kind.fits(index, max_dim):
                raise ParseError(lineno, f"{head} indices need {kind.span(max_dim)}")
            g, m = index[kind.names], index[kind.value]
            try:  # the key names share one grade; itemgetter gets the cell of one name, the pair of two
                key = itemgetter(*names[:-1])(declared[g])
                value = declared[m][names[-1]]
            except KeyError:
                at = [g] * kind.arity + [m]
                nm, grade = next((nm, k) for nm, k in zip(names, at) if nm not in declared.get(k, ()))
                raise unresolved(nm, grade, lineno) from None
            table = maps[head].setdefault(index, {})
            if key in table:
                raise ParseError(lineno, f"duplicate {head} declaration for {_show(key)}")
            table[key] = value
        else:
            mt = _SRC_TGT.fullmatch(line)
            if not mt:
                raise ParseError(lineno, f"expected: {head} <id> = <id>")
            x, y = mt.groups()
            candidates = [g for g in grades_of(x) if y in declared.get(g - 1, ())]
            if not candidates:
                for nm in (x, y):
                    if not grades_of(nm):
                        raise ParseError(lineno, f"unresolved identifier {nm!r}")
                raise ParseError(lineno, f"grade mismatch: no grade places {head}({x}) = {y}")
            if len(candidates) > 1:
                raise ParseError(lineno, f"ambiguous declaration: {head}({x}) = {y} fits grades {candidates}")
            g = candidates[0]
            table = (src if head == "src" else tgt)[g]
            if x in table:
                raise ParseError(lineno, f"duplicate {head} declaration for {x}")
            table[declared[g][x]] = declared[g - 1][y]

    threshold = int(header.get("threshold", "0"))
    gs = globular_set(max_dim, declared, src, tgt)
    nm = NMagma.of(gs, threshold, *(maps[kind.name] for kind in KINDS))
    return ParsedStructure(nm.magma, nm.rev, header.get("structure", "anonymous"))
