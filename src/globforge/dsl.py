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
( ) , : = #, and numbers are decimal digits.  Grades of src/tgt lines are
inferred from the declared cells and must be unambiguous; everything
unknown, duplicated, or ill-graded is a parse-time error carrying its line
number.  dim, threshold and the grade of a cells line are at most MAX_DIM
(10,000), since the carrier holds a table for every grade up to dim; a
table index too long to convert is out of range.  A parsed structure is
the n-magma that NMagma.of builds from the file's tables, with the file's
name; a layer the file has no line of holds no tables.  emit_structure
writes a parsed structure back as text that parse_structure reads to an
equal structure.  The pattern, usage text, grades and index
range of each table line (refl, rev, comp) come from magma.KINDS.

parse_structure reads every comp line in one pass: one regex split of the
whole text cuts them out, and the line parser reads the few other lines.
Every ParseError comes from the line parser: it rereads a failing text with
its comp lines blanked, but for the first row it refuses and the row that
one repeats, and reads it whole if no row explains the doubt.
"""

from __future__ import annotations

import re
from itertools import chain, compress, count, islice
from operator import itemgetter, ne, not_

from .globular import globular_set
from .magma import COMP, KINDS, NMagma


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


_ID = r"([^\s(),:=#]+)"
_IDENT = re.compile(_ID)
_CELLS = re.compile(r"cells\s+(\d+)\s*:\s*(.*)")
_SRC_TGT = re.compile(rf"(?:src|tgt)\s+{_ID}\s*=\s*{_ID}")
# A whole comp line, its blanks spaces and tabs, and what ends it: its \n, or nothing before a \r or comment.
_COMP_LINES = re.compile(
    rf"(?m)^[ \t]*comp[ \t]+(\d+)[ \t]+(\d+)[ \t]+\([ \t]*{_ID}[ \t]*,[ \t]*{_ID}[ \t]*\)"
    rf"[ \t]*=[ \t]*{_ID}[ \t]*(\n|\Z|(?=[\r#]))"
)
_HEADERS = {"structure": "<name>", "dim": "<natural number>", "threshold": "<natural number>"}
MAX_DIM = 10_000  # the largest grade a file may declare: the carrier allocates every grade up to dim
_NAMES = {1: (_ID, "<id>"), 2: (rf"\(\s*{_ID}\s*,\s*{_ID}\s*\)", "(<id>, <id>)")}  # by arity: pattern, usage
# head -> (pattern, usage, kind) of each kind's `<head> <i> <j> <names> = <id>`; index kind.value is <m>
_TABLES = {
    kind.name: (
        re.compile(rf"{kind.name}\s+(\d+)\s+(\d+)\s+{_NAMES[kind.arity][0]}\s*=\s*{_ID}"),
        f"{kind.name} {' '.join('<m>' if k == kind.value else '<p>' for k in (0, 1))} {_NAMES[kind.arity][1]} = <id>",
        kind,
    )
    for kind in KINDS
}


class ParsedStructure(NMagma):
    """A presentation file: the n-magma its parser builds, and the file's name."""

    __slots__ = ("name",)
    _fields = (*NMagma._fields, "name")


def _ident(token: str, lineno: int) -> str:
    if not _IDENT.fullmatch(token):
        raise ParseError(lineno, f"invalid identifier {token!r}")
    return token


def _grade(token: str, lineno: int, what: str) -> int:
    """A decimal token as a grade of at most MAX_DIM; one too long for int() is above it."""
    if len(token) > 4300 or int(token) > MAX_DIM:
        raise ParseError(lineno, f"{what} {token} is above the cap {MAX_DIM}")
    return int(token)


def _show(key: str | tuple[str, ...]) -> str:
    return f"({', '.join(key)})" if isinstance(key, tuple) else key


def _index(i: str, j: str) -> tuple[int, int]:
    """A table line's indices as written; a pair too long for int() is out of range."""
    return (int(i), int(j)) if len(i) + len(j) <= 4300 else (0, 0)


class _Refused(Exception):
    """A doubt of the one pass, with the first comp row the line parser refuses and the row it repeats, if any."""


def _comp_tables(cut: list[str], declared: dict[int, dict[str, str]], max_dim: int) -> dict:
    """The tables of the cut-out comp lines as the line parser builds them, keys in file order."""
    ms, ps, *rows = (cut[k::7] for k in range(1, 6))  # each line's m and p as written, and its y, x, z
    at = {(ms[0], ps[0]): range(len(ms))}  # (m, p) as written -> its rows, in file order
    if ms.count(ms[0]) != len(ms) or ps.count(ps[0]) != len(ps):
        at = {}
        for r, key in enumerate(zip(ms, ps)):
            at.setdefault(key, []).append(r)
    tables = {_index(*key): [[c[r] for r in rs] for c in rows] if len(at) > 1 else rows for key, rs in at.items()}
    try:
        maps = {}
        for (m, p), (y, x, z) in tables.items():
            get = declared[m].__getitem__  # KeyError: a grade without cells
            maps[m, p] = dict(zip(zip(map(get, y), map(get, x)), map(get, z)))  # KeyError: unresolved
        if not all(COMP.fits(key, max_dim) for key in maps) or sum(map(len, maps.values())) != len(ms):
            raise ValueError  # an index out of range or spelt two ways, or a repeated key
        return maps
    except (ValueError, KeyError):  # each table's first refused row; none if an index is spelt two ways
        found = []
        for rs, ((m, p), (y, x, z)) in zip(at.values(), tables.items()) if len(tables) == len(at) else ():
            grade = declared.get(m, {}) if COMP.fits((m, p), max_dim) else {}  # out of range: every row refused
            k = min(next(compress(count(), map(not_, map(grade.__contains__, c))), len(y)) for c in (y, x, z))
            pairs = list(islice(zip(y, x), k + 1))  # the rows up to the first with a name not in the grade
            first = dict(zip(reversed(pairs), reversed(range(len(pairs)))))  # a key -> the first row of it
            k = next(compress(count(), map(ne, map(first.__getitem__, pairs), count())), k)  # a repeated key
            if k < len(y):
                found.append({rs[first[pairs[k]]], rs[k]})
        raise _Refused(*min(found, key=max, default=()))


def parse_structure(text: str) -> ParsedStructure:
    cut = _COMP_LINES.split(text)  # [other text, m, p, y, x, z, line break, other text, ...]
    try:
        return _parse("".join(cut[::7]), cut)
    except _Refused as refused:  # the line parser reads the rows that explain the doubt, if any do
        keep = refused.args or None
    except ParseError:  # numbered without the comp lines, none of which the pass refused
        if len(cut) == 1:
            raise
        keep = ()
    if keep is not None:  # every comp line cut down to its line break, so that lines keep their numbers
        ends = cut[6::7]
        for r in keep:
            ends[r] = "comp {} {} ({}, {}) = {}".format(*cut[7 * r + 1 : 7 * r + 6]) + ends[r]
        _parse("".join(chain.from_iterable(zip(cut[::7], ends))) + cut[-1])  # raises the whole text's ParseError
    del cut
    return _parse(text)


def _parse(text: str, cut: list[str] | tuple[()] = ()) -> ParsedStructure:
    """The line parser, reading in one pass the comp lines cut out of text; a comp line left in text is a doubt."""
    heads = {"src", "tgt", *_TABLES} - ({"comp"} if cut else set())
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
        elif head in heads:
            deferred.append((lineno, head, line))
        elif head == "comp":  # a comp line the split missed: a doubt that the whole text answers
            raise _Refused()
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
    maps["comp"] = _comp_tables(cut, declared, max_dim) if cut[1:] else {}

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


def emit_structure(parsed: ParsedStructure) -> str:
    """Serialize a structure back to the presentation language; parse_structure inverts it."""
    gs = parsed.gs
    out = [f"structure {parsed.name}", f"dim {gs.max_dim}", f"threshold {parsed.threshold}"]
    out += [f"cells {m}: " + " ".join(gs.grade(m)) for m in range(gs.max_dim + 1) if gs.grade(m)]
    for m in range(1, gs.max_dim + 1):
        faces = ("src", gs.map("source", m)), ("tgt", gs.map("target", m))
        out += [f"{head} {x} = {face[x]}" for x in gs.grade(m) for head, face in faces if x in face]
    for kind in KINDS:
        for (i, j), table in sorted(kind.layer(parsed).maps.items()):
            out += [f"{kind.name} {i} {j} {_show(key)} = {value}" for key, value in sorted(table.items())]
    return "\n".join(out) + "\n"
