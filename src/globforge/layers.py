"""Reversor and reflexor structures layered on a globular set.

A reversor structure with threshold n supplies, for every pair n <= p < m up
to the truncation bound, a total self-map j[m][p] on m-cells.  The boundary
axioms split by how far the reversor reaches down:

  (a)  m > p+1:  src(j[m][p] x) = j[m-1][p](src x)   and the same for tgt
  (b)  m = p+1:  src(j[p+1][p] x) = tgt(x)           and  tgt(...) = src(x)

so a reversor swaps the p-dimensional faces and commutes with everything
above them.

A reflexor structure supplies degeneracy maps refl[p][m] : X_p -> X_m.  The
one-step maps refl[p][p+1] generate everything: a declared multi-step table
must agree pointwise with the composite of one-step maps, and one-step
images must have the original cell as both faces.

Tables are explicit and finite; a missing entry is a violation, never an
implicit identity.
"""

from __future__ import annotations

from collections.abc import Mapping

from ._record import Record
from .globular import TruncatedGlobularSet
from .report import ValidationReport

LAW_REVERSOR_SERIAL = "reversors commute with boundaries above the base dimension"
LAW_REVERSOR_SWAP = "a reversor swaps the source and target at its base dimension"
LAW_REVERSOR_TOTAL = "reversor tables are total level-preserving maps"
LAW_REFLEXOR_UNIT = "a one-step reflexor image has the original cell as source and target"
LAW_REFLEXOR_COMPOSITE = "multi-step reflexors are composites of one-step reflexors"
LAW_REFLEXOR_TOTAL = "one-step reflexor tables are total"
LAW_INVOLUTIVE = "reversors are involutions on strict structures"
LAW_COMPAT_FIX = "a reversor fixes cells degenerate at or below its base dimension"
LAW_COMPAT_PUSH = "a reversor moves through a higher reflexor to the core cell"


class ReversorStructure(Record):
    """Tables j[(m, p)] : X_m -> X_m for threshold <= p < m <= D."""

    __slots__ = _fields = ("threshold", "maps")

    def pairs(self, gs: TruncatedGlobularSet) -> list[tuple[int, int]]:
        """The pairs threshold <= p < m <= gs.max_dim, in order, for the grades m
        that hold cells or a non-empty table: the other pairs have nothing to check."""
        tabled = {m for (m, _), table in self.maps.items() if table}
        n = self.threshold
        return [(m, p) for m in range(n + 1, gs.max_dim + 1) if gs.grade(m) or m in tabled for p in range(n, m)]

    def table(self, m: int, p: int) -> Mapping[str, str]:
        return self.maps.get((m, p), {})

    def apply(self, m: int, p: int, x: str) -> str:
        return self.maps[(m, p)][x]


class ReflexorStructure(Record):
    """Tables refl[(p, m)] : X_p -> X_m, generated by the one-step maps.  images(p, m) is refl[p][m] as a
    table, composed once from the one-step maps on the cells they reach; apply walks one cell's chain."""

    __slots__ = _fields = ("maps",)

    def table(self, p: int, m: int) -> Mapping[str, str]:
        return self.maps.get((p, m), {})

    def apply(self, p: int, m: int, x: str) -> str:
        """Composite of one-step maps; the authoritative multi-step value."""
        cur = x
        for k in range(p, m):
            cur = self.maps[(k, k + 1)][cur]
        return cur

    def images(self, p: int, m: int) -> dict[str, str]:
        """refl[p][m] as the composite of the one-step maps, {x: image}, on the x whose every step is stored:
        the chain is walked once for the whole table, one lookup per cell and step."""
        lift = dict(self.table(p, p + 1))
        for k in range(p + 1, m):
            step = self.table(k, k + 1)
            lift = {x: step[y] for x, y in lift.items() if y in step}
        return lift


def validate_reversors(gs: TruncatedGlobularSet, rev: ReversorStructure) -> ValidationReport:
    """Totality, level preservation, and the (a)/(b) boundary axioms."""
    from .magma import REV  # magma builds on this module
    rep = ValidationReport("reversors")
    n = rev.threshold
    for (m, p) in rev.pairs(gs):
        table = rev.table(m, p)
        grade = gs.cell_sets[m]
        for x in gs.grade(m):
            if x not in table:
                rep.add("reversor.total", LAW_REVERSOR_TOTAL, (x,), f"j[{m}][{p}] has no entry for {x}")
            elif table[x] not in grade:
                rep.add(
                    "reversor.total", LAW_REVERSOR_TOTAL, (x, table[x]),
                    f"j[{m}][{p}]({x}) = {table[x]} is not an {m}-cell",
                )
        for x in table:
            if x not in grade:
                rep.add("reversor.total", LAW_REVERSOR_TOTAL, (x,), f"j[{m}][{p}] mentions undeclared cell {x}")
    for (m, p) in rev.maps:
        if not REV.fits((m, p), gs.max_dim, n):
            rep.add(
                "reversor.total", LAW_REVERSOR_TOTAL, (),
                f"table j[{m}][{p}] is outside the range {REV.span(gs.max_dim, n)}",
            )
    if not rep.valid:
        return rep

    for (m, p) in rev.pairs(gs):
        table = rev.table(m, p)
        for x in gs.grade(m):
            jx = table[x]
            if m > p + 1:
                lower = rev.table(m - 1, p)
                for side, tag in (("source", "src"), ("target", "tgt")):
                    face = gs.map(side, m)
                    got = face[jx]
                    want = lower[face[x]]
                    if got != want:
                        rep.add(
                            "reversor.a", LAW_REVERSOR_SERIAL, (x,),
                            f"{tag}(j[{m}][{p}]({x})) = {got} but j[{m - 1}][{p}]({tag}({x})) = {want}",
                        )
            else:
                s_m, t_m = gs.map("source", m), gs.map("target", m)
                if s_m[jx] != t_m[x]:
                    rep.add(
                        "reversor.b", LAW_REVERSOR_SWAP, (x,),
                        f"src(j[{m}][{p}]({x})) = {s_m[jx]} but tgt({x}) = {t_m[x]}",
                    )
                if t_m[jx] != s_m[x]:
                    rep.add(
                        "reversor.b", LAW_REVERSOR_SWAP, (x,),
                        f"tgt(j[{m}][{p}]({x})) = {t_m[jx]} but src({x}) = {s_m[x]}",
                    )
    return rep


def validate_reflexors(gs: TruncatedGlobularSet, refl: ReflexorStructure) -> ValidationReport:
    """One-step totality, keys of every table in grade p, the unit axiom, and composite agreement of
    multi-step tables."""
    from .magma import REFL  # magma builds on this module
    rep = ValidationReport("reflexors")
    for p in range(gs.max_dim):
        table = refl.table(p, p + 1)
        grade = gs.cell_sets[p + 1]
        for x in gs.grade(p):
            if x not in table:
                rep.add("reflexor.total", LAW_REFLEXOR_TOTAL, (x,), f"refl[{p}][{p + 1}] has no entry for {x}")
            elif table[x] not in grade:
                rep.add(
                    "reflexor.total", LAW_REFLEXOR_TOTAL, (x, table[x]),
                    f"refl[{p}][{p + 1}]({x}) = {table[x]} is not a {p + 1}-cell",
                )
    for (p, m), table in refl.maps.items():
        if not REFL.fits((p, m), gs.max_dim):
            rep.add(
                "reflexor.total", LAW_REFLEXOR_TOTAL, (),
                f"table refl[{p}][{m}] is outside the range {REFL.span(gs.max_dim)}",
            )
            continue
        for x in table.keys() - gs.cell_sets.get(p, frozenset()):
            rep.add("reflexor.total", LAW_REFLEXOR_TOTAL, (x,), f"refl[{p}][{m}] mentions undeclared cell {x}")
    if not rep.valid:
        return rep

    for p in range(gs.max_dim):
        table = refl.table(p, p + 1)
        s_m, t_m = gs.map("source", p + 1), gs.map("target", p + 1)
        for x in gs.grade(p):
            ix = table[x]
            if s_m[ix] != x or t_m[ix] != x:
                rep.add(
                    "reflexor.unit", LAW_REFLEXOR_UNIT, (x, ix),
                    f"refl[{p}][{p + 1}]({x}) = {ix} has src {s_m[ix]} and tgt {t_m[ix]}, expected {x} twice",
                )

    for (p, m), table in sorted(refl.maps.items()):
        if m == p + 1:
            continue
        lift = refl.images(p, m)
        for x in gs.grade(p):
            if x not in table:
                rep.add(
                    "reflexor.composite", LAW_REFLEXOR_COMPOSITE, (x,),
                    f"declared refl[{p}][{m}] has no entry for {x}",
                )
            elif table[x] != lift[x]:
                rep.add(
                    "reflexor.composite", LAW_REFLEXOR_COMPOSITE, (x,),
                    f"refl[{p}][{m}]({x}) = {table[x]} but the one-step composite gives {lift[x]}",
                )
    return rep


def validate_involutive(gs: TruncatedGlobularSet, rev: ReversorStructure) -> ValidationReport:
    """j[m][p] o j[m][p] = id on every applicable grade."""
    rep = ValidationReport("involutive")
    for (m, p) in rev.pairs(gs):
        table = rev.table(m, p)
        for x in gs.grade(m):
            back = table[table[x]]
            if back != x:
                rep.add(
                    "involutive.jj", LAW_INVOLUTIVE, (x,),
                    f"j[{m}][{p}](j[{m}][{p}]({x})) = {back}, expected {x}",
                )
    return rep


def validate_reflexive_compat(
    gs: TruncatedGlobularSet,
    refl: ReflexorStructure,
    rev: ReversorStructure,
) -> ValidationReport:
    """Compatibility of reversors with reflexors.

    (i)  for n <= q < m and p <= q:   j[m][q](refl[p][m] a) = refl[p][m] a
    (ii) for n <= q < p < m:          j[m][q](refl[p][m] a) = refl[p][m](j[p][q] a)

    The images refl[p][m] a are walked up one grade at a time, once for all q,
    so a grade's images cost one one-step lookup each.  The tables are applied
    unchecked: the reflexors and reversors must be valid.
    """
    rep = ValidationReport("reflexive-compat")
    n = rev.threshold
    up: dict[int, dict[str, str]] = {}  # p -> refl[p][m] on the p-cells, for the m at hand
    for m in range(1, gs.max_dim + 1):
        step = refl.table(m - 1, m)
        up = {p: {a: step[x] for a, x in lift.items()} for p, lift in up.items()}
        up[m - 1] = {a: step[a] for a in gs.grade(m - 1)}
        for q in range(n, m):
            jtable = rev.table(m, q)
            for p in range(0, m):
                lift = up[p]
                for a in gs.grade(p):
                    image = lift[a]
                    got = jtable[image]
                    if p <= q:
                        if got != image:
                            rep.add(
                                "reflexive-compat.i", LAW_COMPAT_FIX, (a, image),
                                f"j[{m}][{q}](refl[{p}][{m}]({a})) = {got}, expected the degenerate cell {image}",
                            )
                    else:
                        want = lift[rev.apply(p, q, a)]
                        if got != want:
                            rep.add(
                                "reflexive-compat.ii", LAW_COMPAT_PUSH, (a, image),
                                f"j[{m}][{q}](refl[{p}][{m}]({a})) = {got} but refl[{p}][{m}](j[{p}][{q}]({a})) = {want}",
                            )
    return rep
