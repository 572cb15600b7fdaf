"""The fixed rewrite-rule catalogue.

Every rule is an oriented equation between terms with variables, together
with dimension side conditions and the carriers it holds on.  Structural
laws (boundaries, positional axioms, reflexor boundaries) hold on every
carrier; associativity, units, interchange, reflexor functoriality,
inverses, involutivity, and the reversor/reflexor compatibilities hold on
the strict carrier only; the projection and algebra-structure laws relate
carriers through pi, v, and lam.  Each rule names the law it encodes.
"""

from __future__ import annotations

import functools
from types import MappingProxyType
from typing import Mapping

from .._record import Record
from .terms import (
    bracketT,
    compT,
    dim,
    lamT,
    le,
    lt,
    oneT,
    piT,
    revT,
    srcT,
    tgtT,
    var,
    vT,
)

ALL = frozenset({"M", "C", "G"})
STRICT = frozenset({"C"})


class RewriteRule(Record):
    __slots__ = _fields = ("name", "lhs", "rhs", "conds", "carriers", "law")


def _rule(name, lhs, rhs, conds, carriers, law) -> RewriteRule:
    return RewriteRule(name, lhs, rhs, tuple(conds), carriers, law)


@functools.cache
def rule_library() -> Mapping[str, RewriteRule]:
    """The catalogue by rule name, built once per process and read-only;
    a caller that adds rules copies it first."""
    m, p, q, n = dim("m"), dim("p"), dim("q"), dim("n")
    x = var("x", m)
    rules: list[RewriteRule] = []

    # globular identities and iterated boundaries
    xq2 = var("x", dim("q", 2))
    rules += [
        _rule(
            "glob-ss-st",
            srcT(q.shift(1), q, srcT(q.shift(2), q.shift(1), xq2)),
            srcT(q.shift(1), q, tgtT(q.shift(2), q.shift(1), xq2)),
            (), ALL, "globular identity: source of source is source of target",
        ),
        _rule(
            "glob-tt-ts",
            tgtT(q.shift(1), q, tgtT(q.shift(2), q.shift(1), xq2)),
            tgtT(q.shift(1), q, srcT(q.shift(2), q.shift(1), xq2)),
            (), ALL, "globular identity: target of target is target of source",
        ),
        _rule(
            "bnd-split-src",
            srcT(m, q, x),
            srcT(q.shift(1), q, srcT(m, q.shift(1), x)),
            (lt(q.shift(1), m),), ALL,
            "an iterated source peels into one-step sources",
        ),
        _rule(
            "bnd-split-tgt",
            tgtT(m, q, x),
            tgtT(q.shift(1), q, tgtT(m, q.shift(1), x)),
            (lt(q.shift(1), m),), ALL,
            "an iterated target peels into one-step targets",
        ),
        _rule(
            "bnd-collapse-src",
            srcT(q.shift(1), q, tgtT(m, q.shift(1), x)),
            srcT(m, q, x),
            (lt(q.shift(1), m),), ALL,
            "the final step decides a mixed boundary path",
        ),
        _rule(
            "bnd-collapse-tgt",
            tgtT(q.shift(1), q, srcT(m, q.shift(1), x)),
            tgtT(m, q, x),
            (lt(q.shift(1), m),), ALL,
            "the final step decides a mixed boundary path",
        ),
    ]

    # reversor boundary axioms
    rules += [
        _rule(
            "rev-serial-src",
            srcT(m, m.shift(-1), revT(m, p, x)),
            revT(m.shift(-1), p, srcT(m, m.shift(-1), x)),
            (le(n, p), lt(p, m.shift(-1))), ALL,
            "reversors commute with boundaries above the base dimension",
        ),
        _rule(
            "rev-serial-tgt",
            tgtT(m, m.shift(-1), revT(m, p, x)),
            revT(m.shift(-1), p, tgtT(m, m.shift(-1), x)),
            (le(n, p), lt(p, m.shift(-1))), ALL,
            "reversors commute with boundaries above the base dimension",
        ),
        _rule(
            "rev-swap-src",
            srcT(m, m.shift(-1), revT(m, m.shift(-1), x)),
            tgtT(m, m.shift(-1), x),
            (le(n, m.shift(-1)),), ALL,
            "a reversor swaps source and target at its base dimension",
        ),
        _rule(
            "rev-swap-tgt",
            tgtT(m, m.shift(-1), revT(m, m.shift(-1), x)),
            srcT(m, m.shift(-1), x),
            (le(n, m.shift(-1)),), ALL,
            "a reversor swaps source and target at its base dimension",
        ),
        _rule(
            "rev-swap-deep-src",
            srcT(m, p, revT(m, p, x)),
            tgtT(m, p, x),
            (le(n, p), lt(p, m)), ALL,
            "iterating the serial and swap axioms exchanges the deep faces",
        ),
        _rule(
            "rev-swap-deep-tgt",
            tgtT(m, p, revT(m, p, x)),
            srcT(m, p, x),
            (le(n, p), lt(p, m)), ALL,
            "iterating the serial and swap axioms exchanges the deep faces",
        ),
    ]

    # positional axioms
    y = var("y", m)
    rules += [
        _rule(
            "pos-a-src",
            srcT(m, q, compT(m, p, y, x)),
            compT(q, p, srcT(m, q, y), srcT(m, q, x)),
            (lt(p, q), lt(q, m)), ALL,
            "the boundary of a composite above the composition level is the composite of boundaries",
        ),
        _rule(
            "pos-a-tgt",
            tgtT(m, q, compT(m, p, y, x)),
            compT(q, p, tgtT(m, q, y), tgtT(m, q, x)),
            (lt(p, q), lt(q, m)), ALL,
            "the boundary of a composite above the composition level is the composite of boundaries",
        ),
        _rule(
            "pos-b-src",
            srcT(m, p, compT(m, p, y, x)),
            srcT(m, p, x),
            (lt(p, m),), ALL,
            "at the composition level the source comes from the second factor",
        ),
        _rule(
            "pos-b-tgt",
            tgtT(m, p, compT(m, p, y, x)),
            tgtT(m, p, y),
            (lt(p, m),), ALL,
            "at the composition level the target comes from the first factor",
        ),
        _rule(
            "pos-c-src",
            srcT(m, q, compT(m, p, y, x)),
            srcT(m, q, x),
            (lt(q, p), lt(p, m)), ALL,
            "below the composition level the composite inherits the shared boundary",
        ),
        _rule(
            "pos-c-tgt",
            tgtT(m, q, compT(m, p, y, x)),
            tgtT(m, q, x),
            (lt(q, p), lt(p, m)), ALL,
            "below the composition level the composite inherits the shared boundary",
        ),
    ]

    # boundaries of degenerate cells and reflexor towers
    xp = var("x", p)
    rules += [
        _rule(
            "refl-bnd-src-at",
            srcT(m, p, oneT(p, m, xp)),
            xp,
            (lt(p, m),), ALL,
            "a degenerate cell has its core as deep source",
        ),
        _rule(
            "refl-bnd-tgt-at",
            tgtT(m, p, oneT(p, m, xp)),
            xp,
            (lt(p, m),), ALL,
            "a degenerate cell has its core as deep target",
        ),
        _rule(
            "refl-bnd-src-above",
            srcT(m, q, oneT(p, m, xp)),
            oneT(p, q, xp),
            (lt(p, q), lt(q, m)), ALL,
            "a boundary of a degenerate cell above the core is degenerate",
        ),
        _rule(
            "refl-bnd-tgt-above",
            tgtT(m, q, oneT(p, m, xp)),
            oneT(p, q, xp),
            (lt(p, q), lt(q, m)), ALL,
            "a boundary of a degenerate cell above the core is degenerate",
        ),
        _rule(
            "refl-bnd-src-below",
            srcT(m, q, oneT(p, m, xp)),
            srcT(p, q, xp),
            (lt(q, p), lt(p, m)), ALL,
            "a boundary of a degenerate cell below the core is a boundary of the core",
        ),
        _rule(
            "refl-bnd-tgt-below",
            tgtT(m, q, oneT(p, m, xp)),
            tgtT(p, q, xp),
            (lt(q, p), lt(p, m)), ALL,
            "a boundary of a degenerate cell below the core is a boundary of the core",
        ),
        _rule(
            "refl-absorb",
            oneT(p, m, oneT(q, p, var("x", q))),
            oneT(q, m, var("x", q)),
            (lt(q, p), lt(p, m)), ALL,
            "reflexor towers compose",
        ),
    ]

    # strict axioms
    z = var("z", m)
    y2, y1, x2, x1 = (var(s, m) for s in ("y2", "y1", "x2", "x1"))
    yp, xp2 = var("y", p), var("x", p)
    rules += [
        _rule(
            "assoc",
            compT(m, p, compT(m, p, z, y), x),
            compT(m, p, z, compT(m, p, y, x)),
            (lt(p, m),), STRICT, "composition is associative",
        ),
        _rule(
            "unit-right",
            compT(m, p, x, oneT(p, m, srcT(m, p, x))),
            x,
            (lt(p, m),), STRICT, "degenerate cells on the source are right units",
        ),
        _rule(
            "unit-left",
            compT(m, p, oneT(p, m, tgtT(m, p, x)), x),
            x,
            (lt(p, m),), STRICT, "degenerate cells on the target are left units",
        ),
        _rule(
            "interchange",
            compT(m, p, compT(m, q, y2, y1), compT(m, q, x2, x1)),
            compT(m, q, compT(m, p, y2, x2), compT(m, p, y1, x1)),
            (lt(p, q), lt(q, m)), STRICT,
            "the two middle-four bracketings agree",
        ),
        _rule(
            "refl-functorial",
            oneT(p, m, compT(p, q, yp, xp2)),
            compT(m, q, oneT(p, m, yp), oneT(p, m, xp2)),
            (lt(q, p), lt(p, m)), STRICT,
            "reflexors distribute over lower compositions",
        ),
        _rule(
            "inverse-right",
            compT(m, p, x, revT(m, p, x)),
            oneT(p, m, tgtT(m, p, x)),
            (le(n, p), lt(p, m)), STRICT,
            "a cell composed with its reverse is the degenerate cell on its target",
        ),
        _rule(
            "inverse-left",
            compT(m, p, revT(m, p, x), x),
            oneT(p, m, srcT(m, p, x)),
            (le(n, p), lt(p, m)), STRICT,
            "a reverse composed with its cell is the degenerate cell on its source",
        ),
        _rule(
            "involutive",
            revT(m, p, revT(m, p, x)),
            x,
            (le(n, p), lt(p, m)), STRICT,
            "reversors are involutions on the strict carrier",
        ),
        _rule(
            "rev-fixes-degenerate",
            revT(m, q, oneT(p, m, xp)),
            oneT(p, m, xp),
            (le(n, q), lt(q, m), le(p, q)), STRICT,
            "a reversor fixes cells degenerate at or below its base dimension",
        ),
        _rule(
            "rev-through-refl",
            revT(m, q, oneT(p, m, xp)),
            oneT(p, m, revT(p, q, xp)),
            (le(n, q), lt(q, p), lt(p, m)), STRICT,
            "a reversor moves through a higher reflexor to the core cell",
        ),
    ]

    # bracket axioms on the free side
    c1, c0 = var("c1", m), var("c0", m)
    rules += [
        _rule(
            "bracket-tgt",
            tgtT(m.shift(1), m, bracketT(m, c1, c0)),
            c1,
            (), ALL, "a bracket cell has its first argument as target",
        ),
        _rule(
            "bracket-src",
            srcT(m.shift(1), m, bracketT(m, c1, c0)),
            c0,
            (), ALL, "a bracket cell has its second argument as source",
        ),
        _rule(
            "bracket-diagonal",
            bracketT(m, c1, c1),
            oneT(m, m.shift(1), c1),
            (), ALL, "the diagonal bracket is the degenerate cell",
        ),
        _rule(
            "pi-bracket",
            piT(bracketT(m, c1, c0)),
            oneT(m, m.shift(1), piT(c1)),
            (), ALL, "a bracket projects to the degenerate cell on its target's image",
        ),
    ]

    # the projection is a morphism of all the structure
    xm = var("x", m)
    rules += [
        _rule("pi-src", piT(srcT(m, q, xm)), srcT(m, q, piT(xm)), (lt(q, m),), ALL,
              "the projection commutes with boundaries"),
        _rule("pi-tgt", piT(tgtT(m, q, xm)), tgtT(m, q, piT(xm)), (lt(q, m),), ALL,
              "the projection commutes with boundaries"),
        _rule("pi-comp", piT(compT(m, p, y, xm)), compT(m, p, piT(y), piT(xm)), (lt(p, m),), ALL,
              "the projection preserves composition"),
        _rule("pi-refl", piT(oneT(p, m, xp)), oneT(p, m, piT(xp)), (lt(p, m),), ALL,
              "the projection preserves reflexors"),
        _rule("pi-rev", piT(revT(m, p, xm)), revT(m, p, piT(xm)), (le(n, p), lt(p, m)), ALL,
              "the projection preserves reversors"),
    ]

    # the algebra structure map is a morphism, and lam is its section
    rules += [
        _rule("v-src", vT(srcT(m, q, xm)), srcT(m, q, vT(xm)), (lt(q, m),), ALL,
              "the structure map commutes with boundaries"),
        _rule("v-tgt", vT(tgtT(m, q, xm)), tgtT(m, q, vT(xm)), (lt(q, m),), ALL,
              "the structure map commutes with boundaries"),
        _rule("v-comp", vT(compT(m, p, y, xm)), compT(m, p, vT(y), vT(xm)), (lt(p, m),), ALL,
              "the structure map preserves composition"),
        _rule("v-refl", vT(oneT(p, m, xp)), oneT(p, m, vT(xp)), (lt(p, m),), ALL,
              "the structure map preserves reflexors"),
        _rule("v-rev", vT(revT(m, p, xm)), revT(m, p, vT(xm)), (le(n, p), lt(p, m)), ALL,
              "the structure map preserves reversors"),
        _rule("v-lam-unit", vT(lamT(var("a", m, "G"))), var("a", m, "G"), (), ALL,
              "the structure map retracts the unit"),
        _rule("lam-src", lamT(srcT(m, q, var("a", m, "G"))), srcT(m, q, lamT(var("a", m, "G"))),
              (lt(q, m),), ALL, "the unit commutes with boundaries"),
        _rule("lam-tgt", lamT(tgtT(m, q, var("a", m, "G"))), tgtT(m, q, lamT(var("a", m, "G"))),
              (lt(q, m),), ALL, "the unit commutes with boundaries"),
    ]

    # induced operations on an algebra, by definition
    aG, bG = var("a", m, "G"), var("b", m, "G")
    apG = var("a", p, "G")
    rules += [
        _rule(
            "induced-comp",
            compT(m, p, aG, bG),
            vT(compT(m, p, lamT(aG), lamT(bG))),
            (lt(p, m),), ALL,
            "algebra composition evaluates the free composite of units",
        ),
        _rule(
            "induced-refl",
            oneT(p, m, apG),
            vT(oneT(p, m, lamT(apG))),
            (lt(p, m),), ALL,
            "algebra reflexors evaluate the free reflexor of units",
        ),
        _rule(
            "induced-rev",
            revT(m, p, aG),
            vT(revT(m, p, lamT(aG))),
            (le(n, p), lt(p, m)), ALL,
            "algebra reversors evaluate the free reversor of units",
        ),
    ]

    out = {r.name: r for r in rules}
    if len(out) != len(rules):
        raise AssertionError("duplicate rule names")
    return MappingProxyType(out)
