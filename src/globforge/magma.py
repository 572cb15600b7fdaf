"""Composition structures, magma and strict-category validators, canonical
reversors, and the reversibility index.

A composition structure stores, for each 0 <= p < m <= D, a finite partial
map comp[m][p] on pairs of m-cells.  The pair (y, x) stands for the composite
"y after x": it is admissible exactly when the p-source of y equals the
p-target of x.  The positional axioms locate the boundary of a composite:

  (a)  p < q < m:  the q-boundary of y o_p x is the q-composite of the
                   q-boundaries, side by side;
  (b)  q = p:      source comes from x, target from y;
  (c)  q < p:      both cells already share those boundaries, and the
                   composite inherits them.

Strictness adds associativity, units via reflexors, the interchange law,
and functoriality of reflexors over lower compositions.  In a strict
structure every invertible cell has a unique inverse, which is what
derive_canonical_reversors extracts, from the entries whose composite is a unit.
compute_index is the least threshold at which it succeeds.  validate_magma
reads the globular set and the composition tables only, not the reflexors.

An n-magma holds three kinds of table, each keyed by its two indices as a
presentation writes them: reflexors refl[p][m], reversors j[m][p] and
compositions comp[m][p].  KINDS declares them once: which index grades an
entry's names and which its value, the arity, how an entry reads, and the
range a key must lie in.  The parser and emitter, the stretching dump and
its checks, and the range checks of the validators all read it, and
NMagma.of is the one constructor of an n-magma from its tables.

Validators take `require_total=False` to check size- or length-bounded
fragments, where composites may fall outside the stored carrier; axioms are
then checked on the stored entries only.

The validators index the tables instead of scanning whole grades, and each
strict law is worded from what one generator yields: the triples or squares
where it fails, with both sides.  Associativity numbers the cells of a table
once, in name order, the composites alone where every factor is one, as in a
category, and reads it by columns of numbers, cols[b][a] = a o b.  Up to 255
cells a column is 256 bytes, 255 where a composite is absent, read off the
table at every pair of cells, and one bytes.translate reads every
(z o y) o x of a row (y, x), to compare with the column of y o x.  Rows that
compare equal are skipped, which is exact; the others are read byte by byte
off the same translation, where an absent composite is skipped on fragments
and reported under require_total.  Above 255 cells a column is a dict, as
sparse as the table, and a plain loop reads each stored z o y against each
stored y o x.  Interchange numbers the cells of a p-table and a q-table pair
once, as associativity does.  Up to 255 cells it reads the squares in
blocks, one per stored q-pair (x2, x1) over xx, each two byte strings
indexed by the (y2, y1): bytes.translate reads every outer composite
(y2 o_q y1) o_p xx off the q-rows and the p-column of xx, and every inner
one (y2 o_p x2) o_q (y1 o_p x1) off rows built once per x1, 255 standing
for an absent composite on both sides.  A block whose sides agree holds;
the others yield the squares where both sides are stored and differ, which
skips a square missing a composite.  Above 255 cells a plain loop reads the
same squares off the columns.  validate_magma computes each cell's iterated
boundaries once per grade, then compares whole columns of faces, the y, x
and z of each table, and counts compatible pairs against the table as
Light's guard does; the columns word what they find, an entry only where
they differ.

Under require_total, Light's associativity test (Clifford & Preston, The
Algebraic Theory of Semigroups I, 1961, 1.2) comes before the column scan.
Call y good when (z o y) o x = z o (y o x) for every stored (z, y), (y, x).
The guard asks that every key and composite be an m-cell, every key be
p-compatible, every composite y o x have the p-source of x and the p-target
of y, and the table hold as many entries as there are compatible pairs; so
an entry is stored exactly when its pair is composable, with the right ends.
It is read off the same numbered columns as the scan, whole columns at a
time: the column of x must store exactly the y with src(y) = tgt(x), and
its composites must carry the faces of x and of those y.
Then the good cells are closed under stored products: for good a, b,
(z o (a o b)) o x = ((z o a) o b) o x = (z o a) o (b o x)
= z o (a o (b o x)) = z o ((a o b) o x), every composite on the way stored.
Generators G are picked by walking the grade and keeping each cell not yet
a stored product g o r of the closure so far, so their closure is the
grade, and checking the law at each g in G costs |G| n^2 instead of n^3.
When the guard holds and every g is good, the scan would report nothing
and is skipped; otherwise the scan runs as before, on the same columns.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from collections.abc import Collection, Iterator, Mapping
from itertools import chain, compress, count, product, repeat
from operator import eq, itemgetter, ne, not_, or_

from ._record import Record
from .globular import GlobularMorphism, TruncatedGlobularSet, boundary, validate_morphism
from .layers import ReflexorStructure, ReversorStructure
from .report import ValidationReport

LAW_POSITIONAL_A = "boundary of a composite above the composition level is the composite of boundaries"
LAW_POSITIONAL_B = "at the composition level, source comes from the second factor and target from the first"
LAW_POSITIONAL_C = "below the composition level both factors share the boundary and the composite inherits it"
LAW_COMP_TOTAL = "composition is defined exactly on boundary-compatible pairs"
LAW_ASSOC = "composition is associative"
LAW_UNITS = "degenerate cells on the boundary are units for composition"
LAW_INTERCHANGE = "the two middle-four bracketings of a composable square agree"
LAW_REFL_FUNCTORIAL = "reflexors distribute over lower compositions"
LAW_UNIQUE_INVERSE = "inverses in a strict structure are unique"
LAW_FUNCTOR = "strict morphisms preserve composition, reflexors, and hence reversors"


class NoInverseError(Exception):
    """An m-cell admits no inverse over dimension p."""

    def __init__(self, cell: str, m: int, p: int):
        super().__init__(f"{m}-cell {cell} has no inverse over dimension {p}")
        self.cell, self.m, self.p = cell, m, p


class AmbiguousInverseError(Exception):
    """More than one inverse found; the input violates strictness despite passing validation."""

    def __init__(self, cell: str, m: int, p: int, candidates: tuple[str, ...]):
        super().__init__(f"{m}-cell {cell} has several inverses over dimension {p}: {candidates}")
        self.cell, self.m, self.p, self.candidates = cell, m, p, candidates


class CompositionStructure(Record):
    """Tables comp[(m, p)] : {(y, x) -> y o_p x} for 0 <= p < m <= D."""

    __slots__ = _fields = ("maps",)

    def table(self, m: int, p: int) -> Mapping[tuple[str, str], str]:
        return self.maps.get((m, p), {})

    def get(self, m: int, p: int, y: str, x: str) -> str | None:
        return self.maps.get((m, p), {}).get((y, x))

    def apply(self, m: int, p: int, y: str, x: str) -> str:
        return self.maps[(m, p)][(y, x)]


class InfinityMagma(Record):
    """A globular set gs with reflexor tables refl and composition tables comp."""

    __slots__ = _fields = ("gs", "refl", "comp")


class NMagma(Record):
    """A magma with an unconstrained reversor layer on top."""

    __slots__ = _fields = ("magma", "rev")

    @classmethod
    def of(cls, gs: TruncatedGlobularSet, n: int, refl: Mapping, rev: Mapping, comp: Mapping) -> NMagma:
        """The n-magma on gs with reversor threshold n and the tables of each kind, in KINDS order."""
        return cls(InfinityMagma(gs, ReflexorStructure(refl), CompositionStructure(comp)), ReversorStructure(n, rev))

    @property
    def gs(self) -> TruncatedGlobularSet:
        return self.magma.gs

    @property
    def threshold(self) -> int:
        return self.rev.threshold


class Kind(Record):
    """One kind of n-magma table; name is its presentation head and its dump key.  A table is
    keyed (i, j) as written: key[names] grades the entry's names (arity of them: a cell, or a pair
    (y, x)), and key[value] grades its value and is m; the other index is p.  term.format(i, j,
    *names) writes an entry, and noun says what a strict structure stores for one.  A thresholded
    kind (the reversors) sits on the NMagma, not on its magma, and needs threshold <= p."""

    __slots__ = _fields = ("name", "names", "value", "arity", "term", "noun", "thresholded")

    def layer(self, nm: NMagma) -> ReflexorStructure | ReversorStructure | CompositionStructure:
        """The kind's structure in nm; its .maps are the tables {(i, j): table}."""
        return getattr(nm if self.thresholded else nm.magma, self.name)

    def fits(self, key: tuple[int, int], max_dim: int, threshold: int = 0) -> bool:
        """Whether a table keyed key lies in the range that span(max_dim, threshold) writes out."""
        m, p = key[self.value], key[1 - self.value]
        return 0 <= p < m <= max_dim and (threshold <= p or not self.thresholded)

    def span(self, max_dim: int, threshold: int = 0) -> str:
        return f"{threshold if self.thresholded else 0} <= p < m <= {max_dim}"


REFL, REV, COMP = KINDS = (
    Kind("refl", 0, 1, 1, "refl[{}][{}]({})", "degenerate cell", False),
    Kind("rev", 0, 0, 1, "j[{}][{}]({})", "reverse", True),
    Kind("comp", 0, 0, 2, "{2} o[{0},{1}] {3}", "composite", False),
)


class StrictNCategory(Record):
    """A strict structure whose cells are invertible down to the threshold."""

    __slots__ = _fields = ("magma", "threshold")

    @property
    def gs(self) -> TruncatedGlobularSet:
        return self.magma.gs


def validate_magma(mag: InfinityMagma, *, require_total: bool = True) -> ValidationReport:
    """Positional axioms plus domain exactness of the composition tables, read off each table's
    columns of y, x and z; only the entries where a column differs from what its law wants are worded.

    Needs only a well-formed globular set and never reads the reflexors; the CLI
    checks them first as a matter of layer order, not as a prerequisite.
    With require_total=False, missing composites on compatible pairs are
    tolerated (bounded fragments); stored entries are always checked.
    """
    rep = ValidationReport("magma")
    gs, comp = mag.gs, mag.comp
    grades = [m for m in range(1, gs.max_dim + 1) if gs.grade(m)]  # cost follows cells, not max_dim
    faces = defaultdict(dict, {  # faces[m, q, side][x] = boundary(gs, m, x, q, side), once per cell
        (m, q, side): {x: boundary(gs, m, x, q, side) for x in gs.grade(m)}
        for m in grades
        for q in range(m)
        for side in ("source", "target")
    })
    columns = []
    for (m, p), table in comp.maps.items():
        if not COMP.fits((m, p), gs.max_dim):
            rep.add(
                "positional.domain", LAW_COMP_TOTAL, (),
                f"table comp[{m}][{p}] is outside the range {COMP.span(gs.max_dim)}",
            )
            continue
        grade = gs.cell_sets[m]
        ys, xs, zs = list(map(itemgetter(0), table)), list(map(itemgetter(1), table)), list(table.values())
        if not (grade.issuperset(ys) and grade.issuperset(xs) and grade.issuperset(zs)):
            inside = list(map(grade.issuperset, zip(ys, xs, zs)))
            for y, x, z in compress(zip(ys, xs, zs), map(not_, inside)):
                rep.add(
                    "positional.domain", LAW_COMP_TOTAL, (y, x, z),
                    f"comp[{m}][{p}] entry ({y}, {x}) -> {z} mentions cells outside grade {m}",
                )
            ys, xs, zs = (list(compress(column, inside)) for column in (ys, xs, zs))
        sy, tx = list(map(faces[m, p, "source"].__getitem__, ys)), list(map(faces[m, p, "target"].__getitem__, xs))
        if sy != tx:
            for y, x in compress(zip(ys, xs), map(ne, sy, tx)):
                rep.add(
                    "positional.domain", LAW_COMP_TOTAL, (y, x),
                    f"comp[{m}][{p}] is defined on ({y}, {x}) although the pair is not {p}-compatible",
                )
        columns.append((m, p, ys, xs, zs))
    if not rep.valid:
        return rep

    if require_total:
        for m in grades:
            for p in range(m):
                table, src_p, tgt_p = comp.table(m, p), faces[m, p, "source"], faces[m, p, "target"]
                if len(table) == _compatible_pairs(src_p, tgt_p):
                    continue  # every stored pair is compatible, so none is absent
                by_src: dict[str, list[str]] = {}
                for y, sy in src_p.items():
                    by_src.setdefault(sy, []).append(y)
                for x, tx in tgt_p.items():
                    for y in by_src.get(tx, ()):
                        if (y, x) not in table:
                            rep.add(
                                "positional.total", LAW_COMP_TOTAL, (y, x),
                                f"comp[{m}][{p}] misses the compatible pair ({y}, {x})",
                            )

    for m, p, ys, xs, zs in columns:
        for q in range(m):
            sources = faces[m, q, "source"]
            for side, tag in (("source", "src"), ("target", "tgt")):
                face = faces[m, q, side].__getitem__
                bz = list(map(face, zs))
                if q > p:  # on fragments an absent composite of boundaries stands for the face of z
                    by, bx = list(map(face, ys)), list(map(face, xs))
                    want = list(map(comp.table(q, p).get, zip(by, bx), repeat(None) if require_total else bz))
                elif q == p:
                    want = list(map(face, xs if side == "source" else ys))
                else:
                    want = list(map(face, xs))
                    # sanity cross-check: compatibility plus globularity force
                    # the factors to agree below the composition level
                    assert want == list(map(face, ys))
                if bz == want:
                    continue
                for i in compress(range(len(zs)), map(ne, bz, want)):
                    y, x, z, wanted = ys[i], xs[i], zs[i], want[i]
                    head = f"{tag}_{q}({y} o[{m},{p}] {x}) = {bz[i]}"
                    if q < p:
                        rep.add("positional.c", LAW_POSITIONAL_C, (y, x, z),
                                f"{head}, expected the shared boundary {wanted}")
                    elif q == p:
                        rep.add("positional.b", LAW_POSITIONAL_B, (y, x, z), f"{head}, expected {wanted}")
                    elif wanted is None:
                        if side == "target" and (sources[y], sources[x]) == (by[i], bx[i]):
                            continue  # the source side already words the pair both sides miss
                        rep.add("positional.total", LAW_COMP_TOTAL, (by[i], bx[i]),
                                f"comp[{q}][{p}] misses ({by[i]}, {bx[i]}) needed for the boundary of ({y}, {x})")
                    else:
                        rep.add("positional.a", LAW_POSITIONAL_A, (y, x, z),
                                f"{head} but the composite of boundaries is {wanted}")
    return rep


def _compatible_pairs(src: Mapping[str, str], tgt: Mapping[str, str]) -> int:
    """How many pairs (y, x) of cells have src(y) = tgt(x)."""
    rows = Counter(tgt.values())  # rows[c]: how many x have tgt(x) = c
    return sum(map(rows.__getitem__, src.values()))


def _generators(
    grade: tuple[str, ...], table: Mapping[tuple[str, str], str], src: Mapping[str, str], tgt: Mapping[str, str]
) -> list[str]:
    """Walk the grade in order and keep each cell not yet a stored product g o r,
    g a kept cell and r in the closure so far.  Needs every compatible pair stored.
    The closure is indexed by target and the kept cells by source, so a new
    cell meets only the partners it composes with."""
    gens: list[str] = []
    gens_by_src: dict[str, list[str]] = {}
    closure: set[str] = set()
    closure_by_tgt: dict[str, list[str]] = {}
    for c in grade:
        if c in closure:
            continue
        gens.append(c)
        gens_by_src.setdefault(src[c], []).append(c)
        todo = [c] + [table[c, r] for r in closure_by_tgt.get(src[c], ())]
        while todo:
            r = todo.pop()
            if r not in closure:
                closure.add(r)
                closure_by_tgt.setdefault(tgt[r], []).append(r)
                todo += [table[g, r] for g in gens_by_src.get(tgt[r], ())]
    return gens


def _columns(
    table: Mapping[tuple[str, str], str], *also: Mapping[tuple[str, str], str]
) -> tuple[list[str], dict[str, int], list[bytes] | list[dict[int, int]]]:
    """Number the cells of a table and of the tables also in name order: names[i] is cell i, num[names[i]] = i,
    and cols[b][a] = a o b in the first table.  Up to 255 cells a column is 256 bytes, 255 where a o b is
    absent, read off the table at every pair of cells; above, it is a dict, filled entry by entry.

    In a category every cell is a composite, x o 1, so the composites alone are numbered first, which
    costs a third less than numbering every factor as well (1.07 against 1.64 ms on Z100); the first
    table's bytes then hold all its entries.  A fragment whose factor is no composite is numbered whole."""
    tables = (table, *also)
    names = sorted(set(chain.from_iterable(map(dict.values, tables))))
    num = dict(zip(names, count()))
    if len(names) <= 255 and num.keys() >= set(chain.from_iterable(chain.from_iterable(also))):
        if byte_cols := _byte_columns(table, names, num):
            return names, num, byte_cols
    names = sorted({*names, *chain.from_iterable(chain.from_iterable(tables))})
    num = dict(zip(names, count()))
    if len(names) <= 255:
        return names, num, _byte_columns(table, names, num)
    cols: list[dict[int, int]] = [{} for _ in names]
    for (a, b), ab in table.items():
        cols[num[b]][num[a]] = num[ab]
    return names, num, cols


def _byte_columns(table: Mapping[tuple[str, str], str], names: list[str], num: dict[str, int]) -> list[bytes]:
    """The columns of a table as 256-byte rows, read at every pair of the names; empty if an entry lies off them."""
    n = len(names)
    flat = bytes(map({**num, None: 255}.__getitem__, map(table.get, product(names, names))))  # [a * n + b]: a o b
    return [flat[b::n].ljust(256, b"\xff") for b in range(n)] if n * n - flat.count(255) == len(table) else []


def _differing_triples(
    cols: list[bytes] | list[dict[int, int]], ys: Collection[int], total: bool = True
) -> Iterator[tuple[int, int, int, int | None, int | None]]:
    """The (z, y, x, (z o y) o x, z o (y o x)), y in ys and z o y, y o x stored, whose two sides differ, None
    standing for an absent side.  Under total a side that is absent differs from any other; otherwise a
    triple with an absent side is skipped.

    Up to 255 cells, cols[b][a] = a o b, or 255 if absent: a row (y, x) holds when
    cols[y].translate(cols[x]), every (z o y) o x, equals cols[y o x], every z o (y o x), with as many
    holes as cols[y], so no composite is absent on both sides.  The y o x are read off every column at
    index y, all the rows of a y are compared in one pass, and a row that fails is read byte by byte off
    the same translation.  Above, a plain loop reads each stored y o x against the z o y in the column of y.
    """
    n = len(cols)
    if n > 255:
        for x, col_x in enumerate(cols):
            for y, yx in col_x.items():
                if y in ys:
                    col_yx = cols[yx]
                    for z, zy in cols[y].items():
                        left, right = col_x.get(zy), col_yx.get(z)
                        if left is None or right is None:
                            if total:
                                yield z, y, x, left, right
                        elif left != right:
                            yield z, y, x, left, right
        return
    rows, flat = [col[:n] for col in cols], b"".join(cols)
    holes = [row.count(255) for row in rows]
    for y in ys:
        row_y, yxs = rows[y], flat[y::256]  # yxs[x] = y o x
        xs = [*compress(range(n), map(ne, yxs, repeat(255)))]
        prods = [*map(yxs.__getitem__, xs)]
        lefts = [*map(row_y.translate, map(cols.__getitem__, xs))]  # lefts[i][z] = (z o y) o xs[i]
        bad = map(or_, map(ne, lefts, map(rows.__getitem__, prods)),
                  map(ne, map(holes.__getitem__, prods), repeat(holes[y])))
        for x, yx, left in compress(zip(xs, prods, lefts), bad):
            right = rows[yx]
            differ = map(ne, left, right)
            if total and left.count(255) > holes[y]:  # some (z o y) o x is absent, and z o (y o x) may be too
                differ = map(or_, differ, map(eq, left, repeat(255)))
            for z in compress(range(n), differ):
                sides = left[z], right[z]
                if row_y[z] != 255 and (total or 255 not in sides):
                    yield z, y, x, *(None if side == 255 else side for side in sides)


def _differing_squares(
    table_p: Mapping[tuple[str, str], str], table_q: Mapping[tuple[str, str], str]
) -> Iterator[tuple[str, str, str, str, str, str]]:
    """The squares (y2, y1), (x2, x1) of stored q-pairs whose outer composite
    (y2 o_q y1) o_p (x2 o_q x1) and inner one (y2 o_p x2) o_q (y1 o_p x1) are
    both stored and differ, with the two.

    A block is one stored (x2, x1) over xx against every (y2, y1).  Up to 255
    cells, numbered below n, cols[b][a] = a o_p b and qr[a][b] = a o_q b are
    256-byte translation tables, 255 where absent, and ys[y2 * n + y1] is
    y2 o_q y1.  Two byte strings indexed like ys hold the block: left, every
    (y2 o_q y1) o_p xx, is ys translated by cols[xx]; right, every
    (y2 o_p x2) o_q (y1 o_p x1), joins inner[a] for a = y2 o_p x2, where
    inner[a], the first n bytes of cols[x1] translated by qr[a], is built once
    per x1, and inner holds a row of holes at each index from n to 255, so a
    hole reads through it as a hole.  The block holds when left == right;
    otherwise its y2-slices that differ yield the squares where neither side
    is a hole.

    Above 255 cells, a plain loop reads each stored (x2, x1) over xx against
    the yy in the p-column of xx and the q-pairs (y2, y1) over each yy.
    """
    names, num, cols = _columns(table_p, table_q)
    q = {(num[a], num[b]): num[ab] for (a, b), ab in table_q.items()}
    n = len(names)
    if n > 255:
        fibre: dict[int, list[tuple[int, int]]] = {}  # fibre[c]: the (c2, c1) with c2 o_q c1 = c
        for pair, c in q.items():
            fibre.setdefault(c, []).append(pair)
        for (x2, x1), xx in q.items():
            col2, col1 = cols[x2], cols[x1]
            for yy, outer in cols[xx].items():
                for y2, y1 in fibre.get(yy, ()):
                    a, b = col2.get(y2), col1.get(y1)
                    inner = None if a is None or b is None else q.get((a, b))
                    if inner is not None and inner != outer:
                        yield names[y2], names[y1], names[x2], names[x1], names[outer], names[inner]
        return
    ys = bytearray(b"\xff" * (n * n))  # ys[y2 * n + y1] = y2 o_q y1
    for (a, b), ab in q.items():
        ys[a * n + b] = ab
    qr = [ys[lo:lo + n].ljust(256, b"\xff") for lo in range(0, n * n, n)]  # qr[a][b] = a o_q b
    lefts = {xx: ys.translate(cols[xx]) for xx in set(q.values()) if min(cols[xx]) < 255}  # else no outer composite
    over_x1: dict[int, list[tuple[int, int]]] = {}
    for (x2, x1), xx in q.items():
        if xx in lefts:
            over_x1.setdefault(x1, []).append((x2, xx))
    holes = [b"\xff" * n] * (256 - n)
    for x1, blocks in over_x1.items():
        inner = [*map(cols[x1][:n].translate, qr), *holes]  # inner[a][y1] = a o_q (y1 o_p x1)
        for x2, xx in blocks:
            left, right = lefts[xx], b"".join(map(inner.__getitem__, cols[x2][:n]))
            if left == right:
                continue
            for y2, lo in enumerate(range(0, len(left), n)):
                row_l, row_r = left[lo:lo + n], right[lo:lo + n]
                if row_l != row_r:
                    for y1 in compress(range(n), map(ne, row_l, row_r)):
                        sides = row_l[y1], row_r[y1]
                        if 255 not in sides:
                            yield names[y2], names[y1], names[x2], names[x1], *map(names.__getitem__, sides)


def _light_test(
    gs: TruncatedGlobularSet, m: int, p: int,
    table: Mapping[tuple[str, str], str], names: list[str], num: Mapping[str, int],
    cols: list[bytes] | list[dict[int, int]],
) -> bool:
    """Light's test (see the module docstring): True means the column scan would report nothing."""
    if not COMP.fits((m, p), gs.max_dim):
        return False
    grade = gs.grade(m)
    try:
        src = {x: boundary(gs, m, x, p, "source") for x in grade}
        tgt = {x: boundary(gs, m, x, p, "target") for x in grade}
        if not _guard_holds(cols, list(map(src.__getitem__, names)), list(map(tgt.__getitem__, names))):
            return False
    except KeyError:  # a cell outside grade m, or a carrier missing a face
        return False
    if len(table) != _compatible_pairs(src, tgt):
        return False  # a compatible pair is absent
    # a generator outside the table is composable with nothing, so has no law to check
    gens = {num[g] for g in _generators(grade, table, src, tgt) if g in num}
    return not any(_differing_triples(cols, gens))


_STORED = bytes(255) + b"\xff"  # translates a byte column's composites to 0, keeping 255 for an absent one


def _guard_holds(cols: list[bytes] | list[dict[int, int]], srcs: list[str], tgts: list[str]) -> bool:
    """Light's guard on a table's numbered columns, cols[b][a] = a o b, where cell i has the p-faces srcs[i]
    and tgts[i]: the column of x stores exactly the y with src(y) = tgt(x), and each y o x has the source of
    x and the target of y.  Up to 255 cells, three bytes.translate check a column, the faces numbered from
    0, sources and targets apart; above, a column is compared with its composites entry by entry."""
    sn, tn = _numbered(srcs), _numbered(tgts)
    rows: dict[str, list[int]] = {}  # face -> the cells whose source it is, in number order
    for a, face in enumerate(srcs):
        rows.setdefault(face, []).append(a)
    if cols and type(cols[0]) is bytes:
        sb, tb = bytes(sn).ljust(256, b"\0"), bytes(tn).ljust(256, b"\0")
        wants: dict[str, tuple[bytes, bytes]] = {}  # face -> the stored mask and the targets of a column
        for col, s, face in zip(cols, sn, tgts):
            if face not in wants:
                mask = bytearray(b"\xff" * 256)
                for a in rows.get(face, ()):
                    mask[a] = 0
                wants[face] = bytes(mask), bytes(map(tn.__getitem__, rows.get(face, ())))
            mask, targets = wants[face]
            sources = col.translate(sb, b"\xff")
            if col.translate(_STORED) != mask or sources.count(s) != len(sources):
                return False
            if col.translate(tb, b"\xff") != targets:
                return False
        return True
    keys = {face: set(ys) for face, ys in rows.items()}
    return all(
        col.keys() == keys.get(face, set()) and all(sn[ax] == s and tn[ax] == tn[a] for a, ax in col.items())
        for col, s, face in zip(cols, sn, tgts)
    )


def _numbered(faces: list[str]) -> list[int]:
    """Each face replaced by its number, faces numbered from 0 in the order they first occur."""
    number: dict[str, int] = {}
    return [number.setdefault(face, len(number)) for face in faces]


def validate_strict(mag: InfinityMagma, *, require_total: bool = True) -> ValidationReport:
    """Associativity, units, interchange, and reflexor clauses on a valid magma.

    Associativity words each triple _differing_triples yields, and interchange
    each square _differing_squares yields, with no lookup of its own.  Units
    and reflexor functoriality read refl[p][m] from one ReflexorStructure.images.

    Assumes validate_magma already passed.  On partial fragments, equations
    whose composites are absent are skipped.  Light's test assumes
    nothing from validate_magma: its guard checks what its lemma needs.

    Reflexor absorption is not checked: ReflexorStructure.images composes the
    one-step maps, so both sides of the law walk the same chain.  A multi-step
    table that disagrees with the chain is validate_reflexors' reflexor.composite.
    """
    rep = ValidationReport("strict")
    gs, refl, comp = mag.gs, mag.refl, mag.comp

    for (m, p), table in comp.maps.items():
        names, num, cols = _columns(table)
        if require_total and _light_test(gs, m, p, table, names, num, cols):
            continue
        for z, y, x, left, right in _differing_triples(cols, range(len(names)), require_total):
            z, y, x = names[z], names[y], names[x]
            if left is None or right is None:
                rep.add(
                    "assoc.triple", LAW_ASSOC, (z, y, x),
                    f"a composite needed for the triple ({z}, {y}, {x}) over comp[{m}][{p}] is missing",
                )
            else:
                rep.add(
                    "assoc.triple", LAW_ASSOC, (z, y, x),
                    f"(({z} o {y}) o {x}) = {names[left]} but ({z} o ({y} o {x})) = {names[right]} "
                    f"over comp[{m}][{p}]",
                )

    # refl[p][m] for each grade m that holds cells, composed once; no grade above an empty one holds any
    lifts = {(p, m): refl.images(p, m) for m in range(1, gs.max_dim + 1) if gs.grade(m) for p in range(m)}
    for (p, m), lift in lifts.items():
        table = comp.table(m, p)
        for x in gs.grade(m):
            sx = boundary(gs, m, x, p, "source")
            tx = boundary(gs, m, x, p, "target")
            if sx not in lift or tx not in lift:
                continue
            right = table.get((x, lift[sx]))
            left = table.get((lift[tx], x))
            if right is None or left is None:
                if require_total:
                    rep.add(
                        "units.missing", LAW_UNITS, (x,),
                        f"a unit composite for {x} over comp[{m}][{p}] is missing",
                    )
                continue
            if right != x:
                rep.add(
                    "units.right", LAW_UNITS, (x,),
                    f"{x} o[{m},{p}] refl[{p}][{m}]({sx}) = {right}, expected {x}",
                )
            if left != x:
                rep.add(
                    "units.left", LAW_UNITS, (x,),
                    f"refl[{p}][{m}]({tx}) o[{m},{p}] {x} = {left}, expected {x}",
                )

    # interchange and reflexor functoriality visit the stored tables and the
    # grades a chain of one-step reflexors reaches, not every (m, p, q) below
    # max_dim: cells outside them have nothing to check
    for (m, p), table_p in comp.maps.items():
        if not COMP.fits((m, p), gs.max_dim):
            continue
        for q in range(p + 1, m):
            table_q = comp.maps.get((m, q))
            if not table_q:
                continue
            for y2, y1, x2, x1, outer, inner in _differing_squares(table_p, table_q):
                rep.add(
                    "interchange.square", LAW_INTERCHANGE, (y2, y1, x2, x1),
                    f"(({y2} o_{q} {y1}) o_{p} ({x2} o_{q} {x1})) = {outer} "
                    f"but (({y2} o_{p} {x2}) o_{q} ({y1} o_{p} {x1})) = {inner}",
                )

    for (p, q), table in comp.maps.items():
        if not 0 <= q < p:
            continue
        for m in range(p + 1, gs.max_dim + 1):
            lift = lifts.get((p, m))
            if not lift:
                break  # refl[p][m'] is nowhere defined for m' >= m
            for (y, x), yx in table.items():
                if not (y in lift and x in lift and yx in lift):
                    continue
                ry, rx, ryx = lift[y], lift[x], lift[yx]
                together = comp.get(m, q, ry, rx)
                if together is None:
                    if require_total:
                        rep.add(
                            "refl-functorial.pair", LAW_REFL_FUNCTORIAL, (y, x),
                            f"comp[{m}][{q}] misses (refl({y}), refl({x}))",
                        )
                    continue
                if ryx != together:
                    rep.add(
                        "refl-functorial.pair", LAW_REFL_FUNCTORIAL, (y, x),
                        f"refl[{p}][{m}]({y} o[{p},{q}] {x}) = {ryx} "
                        f"but refl({y}) o[{m},{q}] refl({x}) = {together}",
                    )

    return rep


def _inverses(mag: InfinityMagma, m: int, p: int) -> dict[str, list[str]]:
    """Each m-cell's two-sided inverses over p in grade order, read in one pass over the entries of comp[m][p]
    whose composite is a unit; a cell whose p-boundary has no unit is left out."""
    gs, table, lift = mag.gs, mag.comp.table(m, p), mag.refl.images(p, m)
    ends = {alpha: [boundary(gs, m, alpha, p, side) for side in ("target", "source")] for alpha in gs.grade(m)}
    units = {a: [lift[e] for e in es] for a, es in ends.items() if all(e in lift for e in es)}
    order, found = dict(zip(gs.grade(m), count())), defaultdict(list)
    for (a, b), ab in compress(table.items(), map(set(chain(*units.values())).__contains__, table.values())):
        if b in order and a in units and units[a][0] == ab and table.get((b, a)) == units[a][1]:
            found[a].append(b)
    return {alpha: sorted(found[alpha], key=order.__getitem__) for alpha in units}


def derive_canonical_reversors(cat: StrictNCategory) -> ReversorStructure:
    """Search each grade for the unique two-sided inverse over every p >= cat.threshold.

    The result satisfies the reversor boundary axioms, is involutive, and is
    compatible with the reflexors; those are theorems about strict
    structures, and the validators confirm them on any concrete input.
    """
    gs, n = cat.gs, cat.threshold
    if n < 0:
        raise ValueError(f"the reversor threshold must be >= 0, got {n}")
    maps: dict[tuple[int, int], dict[str, str]] = {}
    for m in range(n + 1, gs.max_dim + 1):
        cells = gs.grade(m)
        for p in range(n, m):
            table: dict[str, str] = {}
            inverses = _inverses(cat.magma, m, p)
            for alpha in cells:
                found = inverses.get(alpha, [])
                if not found:
                    raise NoInverseError(alpha, m, p)
                if len(found) > 1:
                    raise AmbiguousInverseError(alpha, m, p, tuple(found))
                table[alpha] = found[0]
            maps[(m, p)] = table
    return ReversorStructure(threshold=n, maps=maps)


def compute_index(cat: StrictNCategory) -> int:
    """Least threshold k at which derive_canonical_reversors succeeds: every m-cell has exactly one
    two-sided inverse over every p >= k, which holds vacuously at k = max_dim."""
    for k in range(cat.gs.max_dim):
        try:
            derive_canonical_reversors(StrictNCategory(cat.magma, k))
        except (NoInverseError, AmbiguousInverseError):
            continue
        return k
    return cat.gs.max_dim


def check_functor_reversors(
    F: GlobularMorphism, cat: StrictNCategory, cat2: StrictNCategory
) -> ValidationReport:
    """Verify that a strict morphism commutes with the canonical reversors.

    The reversor square is forced for genuine strict morphisms, so any
    failure here is always accompanied by a composition or reflexor
    preservation failure, which this report also records.
    """
    rep = ValidationReport("functor")
    rep.extend(validate_morphism(F))
    if not rep.valid:
        return rep
    gs = cat.gs

    for (m, p), table in sorted(cat.magma.comp.maps.items()):
        for (y, x), z in sorted(table.items()):
            image = cat2.magma.comp.get(m, p, F.apply(m, y), F.apply(m, x))
            if image != F.apply(m, z):
                rep.add(
                    "functor.comp", LAW_FUNCTOR, (y, x),
                    f"F({y} o[{m},{p}] {x}) = {F.apply(m, z)} but F({y}) o F({x}) = {image}",
                )
    for p in range(gs.max_dim):
        table = cat.magma.refl.table(p, p + 1)
        for x, ix in sorted(table.items()):
            want = cat2.magma.refl.table(p, p + 1).get(F.apply(p, x))
            if want != F.apply(p + 1, ix):
                rep.add(
                    "functor.refl", LAW_FUNCTOR, (x,),
                    f"F(refl[{p}][{p + 1}]({x})) = {F.apply(p + 1, ix)} but refl(F({x})) = {want}",
                )

    n = max(cat.threshold, cat2.threshold)
    try:
        rev = derive_canonical_reversors(StrictNCategory(cat.magma, n))
        rev2 = derive_canonical_reversors(StrictNCategory(cat2.magma, n))
    except (NoInverseError, AmbiguousInverseError) as exc:
        rep.add("functor.reversor", LAW_UNIQUE_INVERSE, (), f"canonical reversors unavailable: {exc}")
        return rep
    for (m, p) in rev.pairs(gs):
        for alpha in gs.grade(m):
            lhs = F.apply(m, rev.apply(m, p, alpha))
            rhs = rev2.apply(m, p, F.apply(m, alpha))
            if lhs != rhs:
                rep.add(
                    "functor.reversor", LAW_FUNCTOR, (alpha,),
                    f"F(j[{m}][{p}]({alpha})) = {lhs} but j[{m}][{p}](F({alpha})) = {rhs}",
                )
    return rep
