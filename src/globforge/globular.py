"""Finite truncated globular sets, boundary operators, and their morphisms.

A globular set here is a graded family of finite cell sets X_0, ..., X_D
together with total source and target maps X_m -> X_{m-1} for 1 <= m <= D,
subject to the globular identities

    src(src(x)) = src(tgt(x))    and    tgt(tgt(x)) = tgt(src(x))

for every cell x of dimension >= 2.  Cell names are namespaced per
dimension: the same name in two grades denotes two distinct cells.  All
structure above the truncation bound D is absent, not identity-filled.

Everything in this module is immutable data plus pure functions, so
concurrent use needs no coordination.
"""

from __future__ import annotations

from collections import Counter
from collections.abc import Iterable, Mapping

from ._record import Record
from .report import ValidationReport

Side = str  # "source" or "target"

LAW_GLOBULAR = "globular identities ss = st and tt = ts"
LAW_TOTAL_MAPS = "source/target maps are total and land one grade below"
LAW_NATURALITY = "morphism components commute with source and target"


class DimensionError(ValueError):
    """A dimension index is outside the range an operation requires."""


class GradeMismatchError(ValueError):
    """Two cells expected in the same grade are not."""


def _freeze_cells(cells: Mapping[int, Iterable[str]], max_dim: int) -> dict[int, tuple[str, ...]]:
    out: dict[int, tuple[str, ...]] = {}
    for m in range(max_dim + 1):
        names = list(cells.get(m, ()))
        if len(set(names)) != len(names):
            dupes = sorted(x for x, n in Counter(names).items() if n > 1)
            raise ValueError(f"duplicate cell names in grade {m}: {dupes}")
        out[m] = tuple(sorted(names))
    extra = [m for m in cells if m > max_dim and cells[m]]
    if extra:
        raise DimensionError(f"cells declared above the truncation bound {max_dim}: grades {sorted(extra)}")
    return out


class TruncatedGlobularSet(Record):
    """Graded cells with src/tgt tables, truncated at max_dim."""

    _fields = ("max_dim", "cells", "src", "tgt")
    # cell_sets: a membership index derived from cells, so it takes no part in equality
    __slots__ = (*_fields, "cell_sets")

    def __init__(
        self,
        max_dim: int,
        cells: Mapping[int, tuple[str, ...]],
        src: Mapping[int, Mapping[str, str]],
        tgt: Mapping[int, Mapping[str, str]],
    ) -> None:
        super().__init__(max_dim, cells, src, tgt)
        object.__setattr__(self, "cell_sets", {m: frozenset(cs) for m, cs in cells.items()})

    def grade(self, m: int) -> tuple[str, ...]:
        return self.cells.get(m, ())

    def has_cell(self, m: int, name: str) -> bool:
        return name in self.cell_sets.get(m, ())

    def map(self, side: Side, m: int) -> Mapping[str, str]:
        table = self.src if side == "source" else self.tgt
        return table.get(m, {})


def globular_set(
    max_dim: int,
    cells: Mapping[int, Iterable[str]],
    src: Mapping[int, Mapping[str, str]] | None = None,
    tgt: Mapping[int, Mapping[str, str]] | None = None,
) -> TruncatedGlobularSet:
    """Build a TruncatedGlobularSet from plain dicts, normalizing cell order."""
    frozen = _freeze_cells(cells, max_dim)
    return TruncatedGlobularSet(
        max_dim=max_dim,
        cells=frozen,
        src={m: dict(t) for m, t in (src or {}).items()},
        tgt={m: dict(t) for m, t in (tgt or {}).items()},
    )


def validate_globular(gs: TruncatedGlobularSet) -> ValidationReport:
    """Check totality of src/tgt and the globular identities.

    Violations are data, not exceptions; the report lists every failure with
    the offending cells.
    """
    rep = ValidationReport("globular")
    for m in range(1, gs.max_dim + 1):
        cells, low = gs.cell_sets.get(m, frozenset()), gs.cell_sets.get(m - 1, frozenset())
        for side in ("source", "target"):
            table = gs.map(side, m)
            if table.keys() == cells and low.issuperset(table.values()):
                continue  # total on the m-cells, into the (m-1)-cells: the walk below finds nothing
            for x in gs.grade(m):
                if x not in table:
                    rep.add(
                        "globular.map", LAW_TOTAL_MAPS, (x,),
                        f"{side} of {m}-cell {x} is not declared",
                    )
                elif not gs.has_cell(m - 1, table[x]):
                    rep.add(
                        "globular.map", LAW_TOTAL_MAPS, (x, table[x]),
                        f"{side} of {m}-cell {x} is {table[x]}, not a {m - 1}-cell",
                    )
            for x in table:
                if not gs.has_cell(m, x):
                    rep.add(
                        "globular.map", LAW_TOTAL_MAPS, (x,),
                        f"{side} table at grade {m} mentions undeclared cell {x}",
                    )
    if not rep.valid:
        return rep

    for m in range(2, gs.max_dim + 1):
        s_m, t_m = gs.map("source", m), gs.map("target", m)
        s_low, t_low = gs.map("source", m - 1), gs.map("target", m - 1)
        for x in gs.grade(m):
            if s_low[s_m[x]] != s_low[t_m[x]]:
                rep.add(
                    "globular.ss-st", LAW_GLOBULAR, (x,),
                    f"src(src({x})) = {s_low[s_m[x]]} but src(tgt({x})) = {s_low[t_m[x]]}",
                )
            if t_low[t_m[x]] != t_low[s_m[x]]:
                rep.add(
                    "globular.tt-ts", LAW_GLOBULAR, (x,),
                    f"tgt(tgt({x})) = {t_low[t_m[x]]} but tgt(src({x})) = {t_low[s_m[x]]}",
                )
    return rep


def boundary(gs: TruncatedGlobularSet, m: int, x: str, q: int, side: Side) -> str:
    """Iterated q-dimensional source or target of an m-cell.

    On a valid globular set the result only depends on the final step, so
    this composite of one-step maps is the canonical representative of every
    mixed src/tgt path ending in the given side.
    """
    if not gs.has_cell(m, x):
        raise KeyError(f"no {m}-cell named {x}")
    if q >= m:
        raise DimensionError(f"boundary dimension {q} must be below the cell dimension {m}")
    if q < 0:
        raise DimensionError("boundary dimension must be nonnegative")
    cur = x
    for k in range(m, q + 1, -1):
        cur = gs.map("source", k)[cur] if side == "source" else gs.map("target", k)[cur]
    # final step decides the side; the ones above are interchangeable
    final = gs.map("source", q + 1) if side == "source" else gs.map("target", q + 1)
    return final[cur]


def parallel(gs: TruncatedGlobularSet, m: int, x: str, y: str) -> bool:
    """Whether two m-cells share source and target.  0-cells are always parallel."""
    if not gs.has_cell(m, x) or not gs.has_cell(m, y):
        raise GradeMismatchError(f"cells {x}, {y} are not both in grade {m}")
    if m == 0:
        return True
    return (
        gs.map("source", m)[x] == gs.map("source", m)[y]
        and gs.map("target", m)[x] == gs.map("target", m)[y]
    )


class GlobularMorphism(Record):
    """Graded map between globular sets; components indexed by dimension."""

    __slots__ = _fields = ("source", "target", "maps")

    def apply(self, m: int, x: str) -> str:
        return self.maps[m][x]


def validate_morphism(phi: GlobularMorphism) -> ValidationReport:
    """Check totality and the naturality squares phi(src x) = src(phi x), same for tgt."""
    rep = ValidationReport("morphism")
    gs, gt = phi.source, phi.target
    if gt.max_dim < gs.max_dim:
        rep.add(
            "morphism.map", LAW_TOTAL_MAPS, (),
            f"target truncation {gt.max_dim} is below source truncation {gs.max_dim}",
        )
        return rep
    for m in range(gs.max_dim + 1):
        comp = phi.maps.get(m, {})
        for x in gs.grade(m):
            if x not in comp:
                rep.add("morphism.map", LAW_TOTAL_MAPS, (x,), f"component at grade {m} misses cell {x}")
            elif not gt.has_cell(m, comp[x]):
                rep.add(
                    "morphism.map", LAW_TOTAL_MAPS, (x, comp[x]),
                    f"image of {m}-cell {x} is {comp[x]}, not a {m}-cell of the target",
                )
    if not rep.valid:
        return rep

    for m in range(1, gs.max_dim + 1):
        for x in gs.grade(m):
            for side in ("source", "target"):
                lhs = phi.maps[m - 1][gs.map(side, m)[x]]
                rhs = gt.map(side, m)[phi.maps[m][x]]
                if lhs != rhs:
                    rep.add(
                        f"morphism.{'src' if side == 'source' else 'tgt'}",
                        LAW_NATURALITY, (x,),
                        f"phi({side}({x})) = {lhs} but {side}(phi({x})) = {rhs}",
                    )
    return rep
