"""Line-oriented presentation language for finite structures.

A presentation file declares one structure as flat tables:

    structure W            # optional name
    dim 1
    threshold 0
    cells 0: a b
    cells 1: f g
    src f = a
    tgt f = b
    src g = b
    tgt g = a
    rev 1 0 f = g
    rev 1 0 g = f

plus `refl <p> <m> <x> = <y>` and `comp <m> <p> (<y>, <x>) = <z>` lines;
`#` starts a comment.  In a comp line the pair (y, x) denotes the composite
"y after x".  Cell identifiers may not contain whitespace or the characters
( ) , : = #.  Grades of src/tgt lines are inferred from the declared cells
and must be unambiguous; everything unknown, duplicated, or ill-graded is a
parse-time error carrying its line number.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .globular import TruncatedGlobularSet, globular_set
from .layers import ReflexorStructure, ReversorStructure
from .magma import CompositionStructure, InfinityMagma, StrictNCategory


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


_IDENT = re.compile(r"^[^\s(),:=#]+$")
_COMP = re.compile(r"^comp\s+(\d+)\s+(\d+)\s+\(\s*([^\s(),:=#]+)\s*,\s*([^\s(),:=#]+)\s*\)\s*=\s*([^\s(),:=#]+)$")


@dataclass
class ParsedStructure:
    name: str
    gs: TruncatedGlobularSet
    threshold: int
    rev: ReversorStructure | None
    refl: ReflexorStructure | None
    comp: CompositionStructure | None

    @property
    def magma(self) -> InfinityMagma:
        return InfinityMagma(
            self.gs,
            self.refl if self.refl else ReflexorStructure({}),
            self.comp if self.comp else CompositionStructure({}),
        )

    def as_category(self, threshold: int | None = None) -> StrictNCategory:
        return StrictNCategory(self.magma, self.threshold if threshold is None else threshold)


def _ident(token: str, lineno: int) -> str:
    if not _IDENT.match(token):
        raise ParseError(lineno, f"invalid identifier {token!r}")
    return token


def parse_structure(text: str) -> ParsedStructure:
    lines: list[tuple[int, str]] = []
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if line:
            lines.append((i, line))

    name = "anonymous"
    dim_line: int | None = None
    threshold = 0
    cells: dict[int, list[str]] = {}
    deferred: list[tuple[int, str]] = []
    seen_structure = False
    seen_threshold = False

    for lineno, line in lines:
        head = line.split()[0]
        if head == "structure":
            if seen_structure:
                raise ParseError(lineno, "duplicate structure line")
            parts = line.split()
            if len(parts) != 2:
                raise ParseError(lineno, "expected: structure <name>")
            name = _ident(parts[1], lineno)
            seen_structure = True
        elif head == "dim":
            if dim_line is not None:
                raise ParseError(lineno, "duplicate dim line")
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError(lineno, "expected: dim <natural number>")
            dim_line = int(parts[1])
        elif head == "threshold":
            if seen_threshold:
                raise ParseError(lineno, "duplicate threshold line")
            parts = line.split()
            if len(parts) != 2 or not parts[1].isdigit():
                raise ParseError(lineno, "expected: threshold <natural number>")
            threshold = int(parts[1])
            seen_threshold = True
        elif head == "cells":
            m = re.match(r"^cells\s+(\d+)\s*:\s*(.*)$", line)
            if not m:
                raise ParseError(lineno, "expected: cells <m>: <id> ...")
            grade = int(m.group(1))
            names = m.group(2).split()
            bucket = cells.setdefault(grade, [])
            for nm in names:
                _ident(nm, lineno)
                if nm in bucket:
                    raise ParseError(lineno, f"cell {nm} declared twice in grade {grade}")
                bucket.append(nm)
        elif head in ("src", "tgt", "refl", "comp", "rev"):
            deferred.append((lineno, line))
        else:
            raise ParseError(lineno, f"unknown declaration {head!r}")

    max_dim = dim_line if dim_line is not None else (max(cells) if cells else 0)
    for grade in cells:
        if grade > max_dim:
            raise ParseError(0, f"cells declared in grade {grade} above dim {max_dim}")

    grades: dict[int, set[str]] = {m: set(cells.get(m, [])) for m in range(max_dim + 1)}

    def grades_of(nm: str) -> list[int]:
        return [m for m in range(max_dim + 1) if nm in grades[m]]

    def resolve(nm: str, grade: int, lineno: int) -> str:
        if nm not in grades.get(grade, ()):
            if not grades_of(nm):
                raise ParseError(lineno, f"unresolved identifier {nm!r}")
            raise ParseError(
                lineno, f"grade mismatch: {nm} is not a {grade}-cell (found in {grades_of(nm)})"
            )
        return nm

    src: dict[int, dict[str, str]] = {m: {} for m in range(1, max_dim + 1)}
    tgt: dict[int, dict[str, str]] = {m: {} for m in range(1, max_dim + 1)}
    refl_maps: dict[tuple[int, int], dict[str, str]] = {}
    rev_maps: dict[tuple[int, int], dict[str, str]] = {}
    comp_maps: dict[tuple[int, int], dict[tuple[str, str], str]] = {}
    any_refl = any_rev = any_comp = False

    for lineno, line in deferred:
        head = line.split()[0]
        if head in ("src", "tgt"):
            m = re.match(r"^(src|tgt)\s+([^\s(),:=#]+)\s*=\s*([^\s(),:=#]+)$", line)
            if not m:
                raise ParseError(lineno, f"expected: {head} <id> = <id>")
            x, y = m.group(2), m.group(3)
            candidates = [
                g for g in range(1, max_dim + 1) if x in grades[g] and y in grades[g - 1]
            ]
            if not candidates:
                if not grades_of(x):
                    raise ParseError(lineno, f"unresolved identifier {x!r}")
                if not grades_of(y):
                    raise ParseError(lineno, f"unresolved identifier {y!r}")
                raise ParseError(lineno, f"grade mismatch: no grade places {head}({x}) = {y}")
            if len(candidates) > 1:
                raise ParseError(
                    lineno,
                    f"ambiguous declaration: {head}({x}) = {y} fits grades {candidates}",
                )
            g = candidates[0]
            table = src[g] if head == "src" else tgt[g]
            if x in table:
                raise ParseError(lineno, f"duplicate {head} declaration for {x}")
            table[x] = y
        elif head == "refl":
            m = re.match(r"^refl\s+(\d+)\s+(\d+)\s+([^\s(),:=#]+)\s*=\s*([^\s(),:=#]+)$", line)
            if not m:
                raise ParseError(lineno, "expected: refl <p> <m> <id> = <id>")
            p, g = int(m.group(1)), int(m.group(2))
            if not (0 <= p < g <= max_dim):
                raise ParseError(lineno, f"refl indices need 0 <= p < m <= {max_dim}")
            x = resolve(m.group(3), p, lineno)
            y = resolve(m.group(4), g, lineno)
            table = refl_maps.setdefault((p, g), {})
            if x in table:
                raise ParseError(lineno, f"duplicate refl declaration for {x}")
            table[x] = y
            any_refl = True
        elif head == "rev":
            m = re.match(r"^rev\s+(\d+)\s+(\d+)\s+([^\s(),:=#]+)\s*=\s*([^\s(),:=#]+)$", line)
            if not m:
                raise ParseError(lineno, "expected: rev <m> <p> <id> = <id>")
            g, p = int(m.group(1)), int(m.group(2))
            if not (0 <= p < g <= max_dim):
                raise ParseError(lineno, f"rev indices need 0 <= p < m <= {max_dim}")
            x = resolve(m.group(3), g, lineno)
            y = resolve(m.group(4), g, lineno)
            table = rev_maps.setdefault((g, p), {})
            if x in table:
                raise ParseError(lineno, f"duplicate rev declaration for {x}")
            table[x] = y
            any_rev = True
        else:
            m = _COMP.match(line)
            if not m:
                raise ParseError(lineno, "expected: comp <m> <p> (<id>, <id>) = <id>")
            g, p = int(m.group(1)), int(m.group(2))
            if not (0 <= p < g <= max_dim):
                raise ParseError(lineno, f"comp indices need 0 <= p < m <= {max_dim}")
            y = resolve(m.group(3), g, lineno)
            x = resolve(m.group(4), g, lineno)
            z = resolve(m.group(5), g, lineno)
            table = comp_maps.setdefault((g, p), {})
            if (y, x) in table:
                raise ParseError(lineno, f"duplicate comp declaration for ({y}, {x})")
            table[(y, x)] = z
            any_comp = True

    gs = globular_set(max_dim, cells, src, tgt)
    return ParsedStructure(
        name=name,
        gs=gs,
        threshold=threshold,
        rev=ReversorStructure(threshold, rev_maps) if any_rev else None,
        refl=ReflexorStructure(refl_maps) if any_refl else None,
        comp=CompositionStructure(comp_maps) if any_comp else None,
    )


def emit_structure(parsed: ParsedStructure) -> str:
    """Serialize a structure back to the presentation language."""
    out = [f"structure {parsed.name}", f"dim {parsed.gs.max_dim}", f"threshold {parsed.threshold}"]
    for m in range(parsed.gs.max_dim + 1):
        if parsed.gs.grade(m):
            out.append(f"cells {m}: " + " ".join(parsed.gs.grade(m)))
    for m in range(1, parsed.gs.max_dim + 1):
        for x in parsed.gs.grade(m):
            out.append(f"src {x} = {parsed.gs.map('source', m)[x]}")
            out.append(f"tgt {x} = {parsed.gs.map('target', m)[x]}")
    if parsed.refl:
        for (p, g), table in sorted(parsed.refl.maps.items()):
            for x, y in sorted(table.items()):
                out.append(f"refl {p} {g} {x} = {y}")
    if parsed.rev:
        for (g, p), table in sorted(parsed.rev.maps.items()):
            for x, y in sorted(table.items()):
                out.append(f"rev {g} {p} {x} = {y}")
    if parsed.comp:
        for (g, p), table in sorted(parsed.comp.maps.items()):
            for (y, x), z in sorted(table.items()):
                out.append(f"comp {g} {p} ({y}, {x}) = {z}")
    return "\n".join(out) + "\n"
