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
equal structure.  The heads, usage, grades and index range of refl, rev
and comp lines come from magma.KINDS.

parse_structure reads a text once: a regex split cuts out each well-formed
table line, whole as str.splitlines breaks lines, and a loop reads the rest.
Names are looked up a table's column at a time, src/tgt grades in one name
-> grade index; a table stops at its first refused name, and its first
refused line, that one or an earlier repeated key, is worded as a line
parser words it.
"""

from __future__ import annotations

import re
from collections import defaultdict
from itertools import chain, compress, count, repeat
from operator import itemgetter, ne

from .globular import globular_set
from .magma import KINDS, NMagma


class ParseError(ValueError):
    def __init__(self, line: int, message: str):
        super().__init__(f"line {line}: {message}")
        self.line = line
        self.message = message


# Latin-1 whitespace (as str.isspace, str.split and re's \s take it), its str.splitlines breaks and its blanks, the
# rest.  Wider whitespace is read as the blank or break it is (_WIDE): sre compiles Latin-1 classes 4x faster.
_SPACE = "\t-\r\x1c-\x20\x85\xa0"
_BREAK = "\n\x0b\x0c\r\x1c-\x1e\x85"
_B = "[\t\x1f \xa0]"
_WIDE = {0x2028: "\x0b", 0x2029: "\x0b"} | dict.fromkeys([0x1680, *range(0x2000, 0x200B), 0x202F, 0x205F, 0x3000], " ")
_ID = rf"([^{_SPACE}(),:=#]+)"
_IDENT = re.compile(_ID)
_NOT_ID = re.compile("[(),:=]")  # in a line cut at its comment and split at its blanks, what is no identifier
_CELLS = re.compile(r"cells\s+(\d+)\s*:\s*(.*)")
_HEADERS = {"structure": "<name>", "dim": "<natural number>", "threshold": "<natural number>"}
MAX_DIM = 10_000  # the largest grade a file may declare: the carrier allocates every grade up to dim
_NAMES = {1: (_ID, "<id>"), 2: (rf"\({_B}*{_ID}{_B}*,{_B}*{_ID}{_B}*\)", "(<id>, <id>)")}  # by arity: pattern, usage
_FACES = ("src", "tgt")
_KIND = {kind.name: kind for kind in KINDS}
_USAGE = {head: f"{head} <id> = <id>" for head in _FACES} | {  # of a kind: index kind.value is <m>
    kind.name: f"{kind.name} {' '.join('<m>' if k == kind.value else '<p>' for k in (0, 1))} "
    f"{_NAMES[kind.arity][1]} = <id>"
    for kind in KINDS
}
# A whole table line: its key (head and indices as written), two names or one, its value, a comment and its break.
# The key is matched in a lookahead, taken by a backreference: sre keeps no state to backtrack into it, a tenth faster.
_TABLE_LINES = re.compile(
    rf"(?<![^{_BREAK}]){_B}*(?=((?:{'|'.join(_KIND)}){_B}+\d+{_B}+\d+|{'|'.join(_FACES)}))\1"
    rf"{_B}+(?:{_NAMES[2][0]}|{_NAMES[1][0]}){_B}*={_B}*{_ID}{_B}*(?:\n|(?:#[^{_BREAK}]*)?(?:\r\n|[{_BREAK}]|\Z))"
)
_STRIDE = 6  # the split holds the text before a table line, then its key, y, x (a pair), a (one name) and value


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


def _read_rest(rest: list[str]) -> tuple[dict, dict[int, dict[str, str]], dict[int, int], list]:
    """Headers, cells and each malformed table line, as (number, [head, None, None, None, None]), of the whole lines
    left; piece k follows k cut lines."""
    header: dict[str, str] = {}
    declared: dict[int, dict[str, str]] = {}  # grade -> {name: the name object every table holds}
    cells_line: dict[int, int] = {}  # grade -> its first cells line
    malformed: list[tuple[int, list]] = []
    before = 0  # the lines of the pieces read so far
    for k in compress(count(), rest):
        lines = rest[k].splitlines()
        for lineno, raw in enumerate(lines, k + before + 1):
            line = raw.split("#", 1)[0].strip()
            head = line.split(None, 1)[0] if line else None
            if head in _HEADERS:
                parts = line.split()
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
                names = mt[2].split()
                if _NOT_ID.search(mt[2]) or len(set(names)) < len(names) or not bucket.keys().isdisjoint(names):
                    for nm in names:  # raises at the first name that is no identifier or is declared twice
                        if _ident(nm, lineno) in bucket:
                            raise ParseError(lineno, f"cell {nm} declared twice in grade {grade}")
                        bucket[nm] = nm
                bucket.update(zip(names, names))
            elif head in _USAGE:
                malformed.append((lineno, [head, None, None, None, None]))
            elif head:
                raise ParseError(lineno, f"unknown declaration {head!r}")
        before += len(lines)
    return header, declared, cells_line, malformed


def _tables(columns: list[list], declared: dict[int, dict[str, str]], max_dim: int) -> dict:
    """The cut lines by table, (head, index or the grade of a src/tgt line) -> the numbers of its lines in file
    order, and its columns of names, the key's and the value's, each with the grade that holds them."""
    keys, _, _, names, values = columns
    low = dict(chain.from_iterable(zip(declared[g], repeat(g)) for g in sorted(declared, reverse=True)))  # lowest grade
    grades_of: dict[str, list[int]] = {}  # a name -> its grades, if some name is in several
    if sum(map(len, declared.values())) > len(low):
        for g in sorted(declared):
            for nm in declared[g]:
                grades_of.setdefault(nm, []).append(g)
    spelt, tables = defaultdict(list), {}  # key as written -> its lines; table -> its lines
    for r, key in enumerate(keys):
        spelt[key].append(r)
    for key, rows in spelt.items():
        head, *index = key.split()
        if index:
            tables.setdefault((head, _index(*index)), []).extend(rows)
            continue
        grades = map(low.get, map(names.__getitem__, rows))
        if grades_of:  # the one grade whose grade below holds the value, else none
            fits = ([g for g in grades_of.get(names[r], ()) if values[r] in declared.get(g - 1, ())] for r in rows)
            grades = (f[0] if len(f) == 1 else None for f in fits)
        by_grade = defaultdict(list)
        for r, g in zip(rows, grades):
            by_grade[g].append(r)
        tables.update(((head, g), rs) for g, rs in by_grade.items())
    for (head, key), rows in tables.items():
        rows.sort()  # one index spelt two ways, each in file order
        kind = _KIND.get(head)
        if kind is None:  # src/tgt: the name in grade key, the value in the grade below
            g, m = key, key - 1 if key else None
        else:  # none if out of range
            g, m = (key[kind.names], key[kind.value]) if kind.fits(key, max_dim) else (None, None)
        cols = (1, 2, 4) if kind and kind.arity == 2 else (3, 4)  # y, x or a, and the values
        tables[head, key] = rows, [(columns[c], declared.get(m if c == 4 else g, {})) for c in cols]
    return tables


def _refusal(key: str, y: str | None, x: str | None, a: str | None, z: str | None, declared: dict, max_dim: int) -> str:
    """Why the first refused table line is refused, from its key, names (y, x) or a and value z, every line before
    it taken; a line no pattern cut has no value."""
    grades = {nm: sorted(g for g, names in declared.items() if nm in names) for nm in (y, x, a, z)}
    head, *index = key.split()
    kind = _KIND.get(head)
    if z is None or (a is None) != (kind is not None and kind.arity == 2):
        return f"expected: {_USAGE[head]}"
    if kind is None:  # src/tgt
        fits = [g for g in grades[a] if z in declared.get(g - 1, ())]
        if fits:
            return f"ambiguous declaration: {head}({a}) = {z} fits grades {fits}" if fits[1:] else (
                f"duplicate {head} declaration for {a}")
        nm = next((nm for nm in (a, z) if not grades[nm]), None)
        return f"unresolved identifier {nm!r}" if nm else f"grade mismatch: no grade places {head}({a}) = {z}"
    index = _index(*index)
    if not kind.fits(index, max_dim):
        return f"{head} indices need {kind.span(max_dim)}"
    names = (y, x) if a is None else (a,)
    for nm, grade in zip((*names, z), [index[kind.names]] * kind.arity + [index[kind.value]]):
        if nm not in declared.get(grade, ()):
            return f"grade mismatch: {nm} is not a {grade}-cell (found in {grades[nm]})" if grades[nm] else (
                f"unresolved identifier {nm!r}")
    return f"duplicate {head} declaration for {_show(names if a is None else a)}"


def parse_structure(text: str) -> ParsedStructure:
    text = text if text.isascii() or not any(map(text.__contains__, map(chr, _WIDE))) else text.translate(_WIDE)
    cut = _TABLE_LINES.split(text)
    rest, *columns = (cut[c::_STRIDE] for c in range(_STRIDE))  # the whole lines left; keys, y, x, a, values
    del cut
    header, declared, cells_line, refusals = _read_rest(rest)
    max_dim = int(header["dim"]) if "dim" in header else max(declared, default=0)
    for grade, lineno in cells_line.items():
        if grade > max_dim:
            raise ParseError(lineno, f"cells declared in grade {grade} above dim {max_dim}")

    faces = {head: {m: {} for m in range(1, max_dim + 1)} for head in _FACES}
    maps: dict[str, dict[tuple[int, int], dict]] = {kind.name: {} for kind in KINDS}
    refused = []  # the first line that each refusing table refuses
    for (head, key), (rows, cols) in _tables(columns, declared, max_dim).items():
        cells, table = [map(grade.__getitem__, map(col.__getitem__, rows)) for col, grade in cols], {}
        try:  # the key's names share one grade; the value has its own
            table.update(zip(cells[0] if len(cells) == 2 else zip(*cells[:-1]), cells[-1]))
        except KeyError:  # a name not in its grade; or None, where a pair stands for one name or one for a pair
            pass
        if len(table) < len(rows):  # the first refused row: the first whose key is not the table's next, first seen
            spelt = [map(col.__getitem__, rows) for col, _ in cols[:-1]]  # (a repeat), else where it stopped
            refused.append(rows[next(compress(count(), map(ne, table, spelt[0] if len(spelt) == 1 else zip(*spelt))),
                                     len(table))])
        else:
            (faces if head in _FACES else maps)[head][key] = table
    refusals += [(r + 1 + sum(map(len, map(str.splitlines, filter(None, rest[: r + 1])))), [col[r] for col in columns])
                 for r in sorted(refused)[:1]]  # the first, its line after r cut lines and the whole lines before them
    if refusals:
        lineno, fields = min(refusals, key=itemgetter(0))
        raise ParseError(lineno, _refusal(*fields, declared, max_dim))

    gs = globular_set(max_dim, declared, faces["src"], faces["tgt"])
    nm = NMagma.of(gs, int(header.get("threshold", "0")), *(maps[kind.name] for kind in KINDS))
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
