"""Built-in derivation suites S1 through S7.

Each suite replays one family of equational arguments:

  S1  strict morphisms commute with canonical reversors
  S2  canonical reversors are involutions
  S3a reversors fix cells degenerate at or below their base dimension
  S3b reversors move through higher reflexors to the core
  S4  the structure map of an algebra preserves reversors, reflexors, and
      composition (derived from finitely instantiated monad hypotheses)
  S5a the double reverse of a cell is parallel to the cell
  S5b reversing a degenerate cell is parallel to degenerating the reverse
  S5c reversing a degenerate cell over its own core is parallel to it
  S6  in an algebra of dimension 1 every 1-cell is invertible
  S7  in an algebra of dimension 2 the candidate inverse composites are
      joined to degenerate cells by coherence, making 1-cells equivalences

Chains are built by matching the cited rule against the current term, so
each stored step carries its full substitution.  Every step is checked by
the checker's apply_step while the chain is built, on one context per
suite, and check_suite replays the finished suites again.
"""

from __future__ import annotations

from collections.abc import Callable, Iterator, Mapping

from .._record import Record
from .derivation import (
    BracketIntroStep,
    Derivation,
    DerivationContext,
    InverseUniquenessStep,
    RewriteStep,
    Step,
    StepFailure,
    Suite,
    apply_step,
)
# rule_library is unused here but stays bound: perfbench/tracer.py patches
# it as an attribute of this module.
from .rules import ALL, RewriteRule, rule_library
from .terms import (
    DimExpr,
    MatchError,
    Position,
    Subst,
    Term,
    TermError,
    bracketT,
    compT,
    const,
    dim,
    lamT,
    le,
    lt,
    match,
    oneT,
    piT,
    render,
    revT,
    srcT,
    subterm,
    tgtT,
    unary,
    var,
    vT,
)


class _Chain:
    """Builds one derivation, inferring substitutions by matching and
    stepping through apply_step."""

    def __init__(self, name: str, start: Term, ctx: DerivationContext, defaults: dict[str, DimExpr]):
        self.name = name
        self.start = start
        self.cur = start
        self.ctx = ctx
        self.defaults = defaults
        self.steps: list[Step] = []

    def _fail(self, message: str) -> AssertionError:
        return AssertionError(f"{self.name}: step {len(self.steps)}: {message}")

    def _step(self, step: Step) -> "_Chain":
        try:
            self.cur = apply_step(self.cur, step, self.ctx)
        except (StepFailure, TermError) as exc:
            raise self._fail(str(exc)) from exc
        self.steps.append(step)
        return self

    def rw(self, rule_name: str, pos: Position = (), direction: str = "fwd",
           dims: dict[str, DimExpr] | None = None, cells: dict[str, Term] | None = None) -> "_Chain":
        rule = self.ctx.rules[rule_name]
        pattern = rule.lhs if direction == "fwd" else rule.rhs
        cell_b: dict[str, Term] = dict(cells or {})
        dim_b: dict[str, DimExpr] = dict(self.defaults)
        dim_b.update(dims or {})
        sub = subterm(self.cur, pos)
        try:
            match(pattern, sub, cell_b, dim_b)
        except MatchError as exc:
            raise self._fail(f"{rule_name} does not match {render(sub)} at {pos}: {exc}") from exc
        return self._step(RewriteStep(rule_name, tuple(pos), Subst(cell_b, dim_b), direction))

    def unique(self, pos: Position, m, p, alpha: Term, beta: Term, direction: str = "fwd") -> "_Chain":
        return self._step(InverseUniquenessStep(tuple(pos), dim(m), dim(p), alpha, beta, direction))

    def intro(self, pos: Position, m, c1: Term, c0: Term, face: str = "tgt", direction: str = "fwd") -> "_Chain":
        return self._step(BracketIntroStep(tuple(pos), dim(m), c1, c0, face, direction))

    def done(self, end: Term) -> Derivation:
        assert self.cur == end, (
            f"{self.name}: chain ends at {render(self.cur)}, expected {render(end)}"
        )
        return Derivation(self.name, self.start, tuple(self.steps), end)


class _SuiteBuilder(Record):
    _fields = ("key", "title", "assumptions", "local_rules", "facts", "defaults", "derivations")
    __slots__ = (*_fields, "ctx")  # ctx: the context the chains step through, not a field
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None
    _defaults = {"assumptions": (), "local_rules": (), "facts": (), "defaults": dict, "derivations": list}

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.ctx = DerivationContext.for_suite(self.build())

    def chain(self, name: str, start: Term) -> _Chain:
        return _Chain(name, start, self.ctx, self.defaults)

    def add(self, deriv: Derivation) -> Derivation:
        self.derivations.append(deriv)
        self.ctx.establish(deriv)
        return deriv

    def build(self) -> Suite:
        return Suite(
            self.key, self.title, tuple(self.assumptions),
            tuple(self.local_rules), tuple(self.facts), tuple(self.derivations),
        )


def _rule(name, lhs, rhs, conds, law) -> RewriteRule:
    return RewriteRule(name, lhs, rhs, tuple(conds), ALL, law)


def _suite_s1() -> Suite:
    m, p, q, n = dim("m"), dim("p"), dim("q"), dim("n")
    x, y = var("x", m), var("y", m)
    xp = var("xp", p)
    local = (
        _rule("F-comp", unary("F", compT(m, p, y, x)), compT(m, p, unary("F", y), unary("F", x)),
              (lt(p, m),), "the morphism preserves composition"),
        _rule("F-refl", unary("F", oneT(p, m, xp)), oneT(p, m, unary("F", xp)),
              (lt(p, m),), "the morphism preserves reflexors"),
        _rule("F-src", unary("F", srcT(m, q, x)), srcT(m, q, unary("F", x)),
              (lt(q, m),), "the morphism commutes with boundaries"),
        _rule("F-tgt", unary("F", tgtT(m, q, x)), tgtT(m, q, unary("F", x)),
              (lt(q, m),), "the morphism commutes with boundaries"),
    )
    sb = _SuiteBuilder(
        "S1", "strict morphisms commute with canonical reversors",
        assumptions=(le(n, p), lt(p, m)), local_rules=local,
        defaults={"n": n},
    )
    al = const("alpha", m, "C")
    F = lambda t: unary("F", t)
    j_al = revT(m, p, al)

    sb.add(
        sb.chain("left-inverse-image", compT(m, p, F(j_al), F(al)))
        .rw("F-comp", (), "rev")
        .rw("inverse-left", (0,))
        .rw("F-refl", ())
        .rw("F-src", (0,))
        .done(oneT(p, m, srcT(m, p, F(al))))
    )
    sb.add(
        sb.chain("right-inverse-image", compT(m, p, F(al), F(j_al)))
        .rw("F-comp", (), "rev")
        .rw("inverse-right", (0,))
        .rw("F-refl", ())
        .rw("F-tgt", (0,))
        .done(oneT(p, m, tgtT(m, p, F(al))))
    )
    sb.add(
        sb.chain("reversor-image", F(j_al))
        .unique((), m, p, alpha=F(al), beta=F(j_al))
        .done(revT(m, p, F(al)))
    )
    return sb.build()


def _suite_s2() -> Suite:
    m, p, n = dim("m"), dim("p"), dim("n")
    sb = _SuiteBuilder(
        "S2", "canonical reversors are involutions",
        assumptions=(le(n, p), lt(p, m)), defaults={"n": n},
    )
    al = const("alpha", m, "C")
    J = revT(m, p, al)
    sb.add(
        sb.chain("reverse-then-cell", compT(m, p, J, al))
        .rw("inverse-left", ())
        .rw("rev-swap-deep-tgt", (0,), "rev")
        .done(oneT(p, m, tgtT(m, p, J)))
    )
    sb.add(
        sb.chain("cell-then-reverse", compT(m, p, al, J))
        .rw("inverse-right", ())
        .rw("rev-swap-deep-src", (0,), "rev")
        .done(oneT(p, m, srcT(m, p, J)))
    )
    sb.add(
        sb.chain("double-reverse", revT(m, p, J))
        .unique((), m, p, alpha=J, beta=al, direction="rev")
        .done(al)
    )
    return sb.build()


def _suite_s3a() -> Suite:
    m, p, q, n = dim("m"), dim("p"), dim("q"), dim("n")
    sb = _SuiteBuilder(
        "S3a", "reversors fix degenerate cells",
        assumptions=(le(n, q), lt(q, m), lt(p, q)), defaults={"n": n},
    )
    al = const("alpha", p, "C")
    X = oneT(p, m, al)

    sb.add(
        sb.chain("self-composite-is-target-unit", compT(m, q, X, X))
        .rw("refl-absorb", (0,), "rev", dims={"p": q})
        .rw("refl-bnd-tgt-above", (0, 0), "rev", dims={"m": m})
        .rw("unit-left", ())
        .rw("refl-absorb", (), "rev", dims={"p": q})
        .rw("refl-bnd-tgt-above", (0,), "rev", dims={"m": m})
        .done(oneT(q, m, tgtT(m, q, X)))
    )
    sb.add(
        sb.chain("self-composite-is-source-unit", compT(m, q, X, X))
        .rw("refl-absorb", (1,), "rev", dims={"p": q})
        .rw("refl-bnd-src-above", (1, 0), "rev", dims={"m": m})
        .rw("unit-right", ())
        .rw("refl-absorb", (), "rev", dims={"p": q})
        .rw("refl-bnd-src-above", (0,), "rev", dims={"m": m})
        .done(oneT(q, m, srcT(m, q, X)))
    )
    sb.add(
        sb.chain("reverse-is-identity", revT(m, q, X))
        .unique((), m, q, alpha=X, beta=X, direction="rev")
        .done(X)
    )

    # the base-dimension case: the degenerate cell sits exactly at the level
    alq = const("alphaq", q, "C")
    Xq = oneT(q, m, alq)
    sb.add(
        sb.chain("base-self-composite-is-target-unit", compT(m, q, Xq, Xq))
        .rw("refl-bnd-tgt-at", (0, 0), "rev", dims={"m": m})
        .rw("unit-left", ())
        .rw("refl-bnd-tgt-at", (0,), "rev", dims={"m": m})
        .done(oneT(q, m, tgtT(m, q, Xq)))
    )
    sb.add(
        sb.chain("base-self-composite-is-source-unit", compT(m, q, Xq, Xq))
        .rw("refl-bnd-src-at", (1, 0), "rev", dims={"m": m})
        .rw("unit-right", ())
        .rw("refl-bnd-src-at", (0,), "rev", dims={"m": m})
        .done(oneT(q, m, srcT(m, q, Xq)))
    )
    sb.add(
        sb.chain("base-reverse-is-identity", revT(m, q, Xq))
        .unique((), m, q, alpha=Xq, beta=Xq, direction="rev")
        .done(Xq)
    )
    return sb.build()


def _suite_s3b() -> Suite:
    m, p, q, n = dim("m"), dim("p"), dim("q"), dim("n")
    sb = _SuiteBuilder(
        "S3b", "reversors move through higher reflexors",
        assumptions=(le(n, q), lt(q, p), lt(p, m)), defaults={"n": n},
    )
    al = const("alpha", p, "C")
    X = oneT(p, m, al)
    beta = oneT(p, m, revT(p, q, al))

    sb.add(
        sb.chain("candidate-left-inverse", compT(m, q, beta, X))
        .rw("refl-functorial", (), "rev")
        .rw("inverse-left", (0,))
        .rw("refl-absorb", ())
        .rw("refl-bnd-src-below", (0,), "rev", dims={"m": m})
        .done(oneT(q, m, srcT(m, q, X)))
    )
    sb.add(
        sb.chain("candidate-right-inverse", compT(m, q, X, beta))
        .rw("refl-functorial", (), "rev")
        .rw("inverse-right", (0,))
        .rw("refl-absorb", ())
        .rw("refl-bnd-tgt-below", (0,), "rev", dims={"m": m})
        .done(oneT(q, m, tgtT(m, q, X)))
    )
    sb.add(
        sb.chain("reverse-of-degenerate", beta)
        .unique((), m, q, alpha=X, beta=beta)
        .done(revT(m, q, X))
    )
    return sb.build()


def _suite_s4() -> Suite:
    m, p, n = dim("m"), dim("p"), dim("n")
    xM, yM = var("x", m, "M"), var("y", m, "M")
    xMp = var("x", p, "M")
    U = lambda s, t: unary(s, t)
    local = (
        _rule("mu-rev", U("mu", revT(m, p, xM)), revT(m, p, U("mu", xM)),
              (le(n, p), lt(p, m)), "the multiplication forgets a morphism preserving reversors"),
        _rule("mu-refl", U("mu", oneT(p, m, xMp)), oneT(p, m, U("mu", xMp)),
              (lt(p, m),), "the multiplication forgets a morphism preserving reflexors"),
        _rule("mu-comp", U("mu", compT(m, p, yM, xM)), compT(m, p, U("mu", yM), U("mu", xM)),
              (lt(p, m),), "the multiplication preserves composition"),
        _rule("mu-unit", U("mu", U("lamT", xM)), xM,
              (), "the free-level unit splits the multiplication"),
        _rule("alg-square", vT(U("mu", xM)), vT(U("Tv", xM)),
              (), "the algebra square commutes"),
        _rule("Tv-rev", U("Tv", revT(m, p, xM)), revT(m, p, U("Tv", xM)),
              (le(n, p), lt(p, m)), "the lifted structure map forgets a morphism preserving reversors"),
        _rule("Tv-refl", U("Tv", oneT(p, m, xMp)), oneT(p, m, U("Tv", xMp)),
              (lt(p, m),), "the lifted structure map forgets a morphism preserving reflexors"),
        _rule("Tv-comp", U("Tv", compT(m, p, yM, xM)), compT(m, p, U("Tv", yM), U("Tv", xM)),
              (lt(p, m),), "the lifted structure map preserves composition"),
        _rule("Tv-unit", U("Tv", U("lamT", xM)), lamT(vT(xM)),
              (), "the unit is natural in the structure map"),
    )
    sb = _SuiteBuilder(
        "S4", "the structure map preserves the induced operations",
        assumptions=(le(n, p), lt(p, m)), local_rules=local, defaults={"n": n},
    )
    x = var("x", m, "M")
    xp = var("x", p, "M")
    y = var("y", m, "M")

    sb.add(
        sb.chain("free-reversor", U("mu", revT(m, p, U("lamT", x))))
        .rw("mu-rev", ())
        .rw("mu-unit", (0,))
        .done(revT(m, p, x))
    )
    sb.add(
        sb.chain("transport-reversor", vT(U("mu", revT(m, p, U("lamT", x)))))
        .rw("alg-square", ())
        .rw("Tv-rev", (0,))
        .rw("Tv-unit", (0, 0))
        .rw("induced-rev", (), "rev")
        .done(revT(m, p, vT(x)))
    )
    sb.add(
        sb.chain("useful-reversor", vT(revT(m, p, x)))
        .rw("established:free-reversor", (0,), "rev")
        .rw("established:transport-reversor", ())
        .done(revT(m, p, vT(x)))
    )

    sb.add(
        sb.chain("free-reflexor", U("mu", oneT(p, m, U("lamT", xp))))
        .rw("mu-refl", ())
        .rw("mu-unit", (0,))
        .done(oneT(p, m, xp))
    )
    sb.add(
        sb.chain("transport-reflexor", vT(U("mu", oneT(p, m, U("lamT", xp)))))
        .rw("alg-square", ())
        .rw("Tv-refl", (0,))
        .rw("Tv-unit", (0, 0))
        .rw("induced-refl", (), "rev")
        .done(oneT(p, m, vT(xp)))
    )
    sb.add(
        sb.chain("useful-reflexor", vT(oneT(p, m, xp)))
        .rw("established:free-reflexor", (0,), "rev")
        .rw("established:transport-reflexor", ())
        .done(oneT(p, m, vT(xp)))
    )

    sb.add(
        sb.chain("free-composite", U("mu", compT(m, p, U("lamT", y), U("lamT", x))))
        .rw("mu-comp", ())
        .rw("mu-unit", (0,))
        .rw("mu-unit", (1,))
        .done(compT(m, p, y, x))
    )
    sb.add(
        sb.chain("transport-composite", vT(U("mu", compT(m, p, U("lamT", y), U("lamT", x)))))
        .rw("alg-square", ())
        .rw("Tv-comp", (0,))
        .rw("Tv-unit", (0, 0))
        .rw("Tv-unit", (0, 1))
        .rw("induced-comp", (), "rev")
        .done(compT(m, p, vT(y), vT(x)))
    )
    sb.add(
        sb.chain("useful-composite", vT(compT(m, p, y, x)))
        .rw("established:free-composite", (0,), "rev")
        .rw("established:transport-composite", ())
        .done(compT(m, p, vT(y), vT(x)))
    )
    return sb.build()


def _suite_s5a() -> Suite:
    m, n = dim("m"), dim("n")
    sb = _SuiteBuilder(
        "S5a", "the double reverse is parallel to the cell",
        assumptions=(le(n, m),), defaults={"n": n},
    )
    al = const("alpha", m.shift(1), "G")
    m1 = m.shift(1)
    sb.add(
        sb.chain(
            "source-of-double-reverse",
            srcT(m1, m, revT(m1, m, revT(m1, m, al))),
        )
        .rw("induced-rev", (0, 0))
        .rw("v-rev", (0,), "rev")
        .rw("v-src", (), "rev")
        .rw("rev-swap-src", (0,))
        .rw("rev-swap-tgt", (0,))
        .rw("lam-src", (0,), "rev")
        .rw("v-lam-unit", ())
        .done(srcT(m1, m, al))
    )
    return sb.build()


def _suite_s5b() -> Suite:
    m, q, n = dim("m"), dim("q"), dim("n")
    sb = _SuiteBuilder(
        "S5b", "reversing a degenerate cell, away from its level",
        assumptions=(le(n, q), lt(q, m.shift(-1))), defaults={"n": n},
    )
    al = const("alpha", m.shift(-1), "G")
    m_1 = m.shift(-1)
    sb.add(
        sb.chain(
            "source-comparison",
            srcT(m, m_1, revT(m, q, oneT(m_1, m, al))),
        )
        .rw("induced-refl", (0, 0))
        .rw("v-rev", (0,), "rev")
        .rw("v-src", (), "rev")
        .rw("rev-serial-src", (0,))
        .rw("refl-bnd-src-at", (0, 0))
        .rw("v-rev", ())
        .rw("v-lam-unit", (0,))
        .rw("v-lam-unit", (), "rev")
        .rw("refl-bnd-src-at", (0,), "rev", dims={"m": m})
        .rw("v-src", ())
        .rw("induced-refl", (0,), "rev")
        .done(srcT(m, m_1, oneT(m_1, m, revT(m_1, q, al))))
    )
    sb.add(
        sb.chain(
            "target-comparison",
            tgtT(m, m_1, revT(m, q, oneT(m_1, m, al))),
        )
        .rw("induced-refl", (0, 0))
        .rw("v-rev", (0,), "rev")
        .rw("v-tgt", (), "rev")
        .rw("rev-serial-tgt", (0,))
        .rw("refl-bnd-tgt-at", (0, 0))
        .rw("v-rev", ())
        .rw("v-lam-unit", (0,))
        .rw("v-lam-unit", (), "rev")
        .rw("refl-bnd-tgt-at", (0,), "rev", dims={"m": m})
        .rw("v-tgt", ())
        .rw("induced-refl", (0,), "rev")
        .done(tgtT(m, m_1, oneT(m_1, m, revT(m_1, q, al))))
    )
    return sb.build()


def _suite_s5c() -> Suite:
    m, n = dim("m"), dim("n")
    m_1 = m.shift(-1)
    sb = _SuiteBuilder(
        "S5c", "reversing a degenerate cell at its own level",
        assumptions=(le(n, m_1),), defaults={"n": n},
    )
    al = const("alpha", m_1, "G")
    sb.add(
        sb.chain(
            "source-comparison",
            srcT(m, m_1, revT(m, m_1, oneT(m_1, m, al))),
        )
        .rw("induced-refl", (0, 0))
        .rw("v-rev", (0,), "rev")
        .rw("v-src", (), "rev")
        .rw("rev-swap-src", (0,))
        .rw("refl-bnd-tgt-at", (0,))
        .rw("v-lam-unit", ())
        .rw("refl-bnd-src-at", (), "rev", dims={"m": m})
        .done(srcT(m, m_1, oneT(m_1, m, al)))
    )
    sb.add(
        sb.chain(
            "target-comparison",
            tgtT(m, m_1, revT(m, m_1, oneT(m_1, m, al))),
        )
        .rw("induced-refl", (0, 0))
        .rw("v-rev", (0,), "rev")
        .rw("v-tgt", (), "rev")
        .rw("rev-swap-tgt", (0,))
        .rw("refl-bnd-src-at", (0,))
        .rw("v-lam-unit", ())
        .rw("refl-bnd-tgt-at", (), "rev", dims={"m": m})
        .done(tgtT(m, m_1, oneT(m_1, m, al)))
    )
    return sb.build()


def _dim1_constants():
    f = const("f", 1, "G")
    a0 = const("a", 0, "G")
    b0 = const("b", 0, "G")
    return f, a0, b0


def _dim_facts(f, a0, b0):
    return (
        _rule("fact-src-f", srcT(1, 0, f), a0, (), "boundary data of the 1-cell under study"),
        _rule("fact-tgt-f", tgtT(1, 0, f), b0, (), "boundary data of the 1-cell under study"),
    )


def _collapse_rule(name: str, level: int) -> RewriteRule:
    z = var("z", level + 1, "G")
    return _rule(
        name,
        srcT(level + 1, level, z),
        tgtT(level + 1, level, z),
        (),
        f"in an algebra of dimension {level} every {level + 1}-cell is degenerate",
    )


def _composite_meets_unit(sb: _SuiteBuilder, f: Term, b0: Term) -> tuple[Term, Term]:
    """Adds the chains showing that c1 = lam f * j(lam f) and the unit c0 on
    lam b have equal projections and boundaries; returns (c1, c0)."""
    lf, lamb = lamT(f), lamT(b0)
    c1 = compT(1, 0, lf, revT(1, 0, lf))
    c0 = oneT(0, 1, lamb)
    sb.add(
        sb.chain("projection-agrees", piT(c1))
        .rw("pi-comp", ())
        .rw("pi-rev", (1,))
        .rw("inverse-right", ())
        .rw("pi-tgt", (0,), "rev")
        .rw("lam-tgt", (0, 0), "rev")
        .rw("fact-tgt-f", (0, 0, 0))
        .rw("pi-refl", (), "rev")
        .done(piT(c0))
    )
    sb.add(
        sb.chain("source-of-composite", srcT(1, 0, c1))
        .rw("pos-b-src", ())
        .rw("rev-swap-src", ())
        .rw("lam-tgt", (), "rev")
        .rw("fact-tgt-f", (0,))
        .done(lamb)
    )
    sb.add(sb.chain("source-of-unit", srcT(1, 0, c0)).rw("refl-bnd-src-at", ()).done(lamb))
    sb.add(
        sb.chain("target-of-composite", tgtT(1, 0, c1))
        .rw("pos-b-tgt", ())
        .rw("lam-tgt", (), "rev")
        .rw("fact-tgt-f", (0,))
        .done(lamb)
    )
    sb.add(sb.chain("target-of-unit", tgtT(1, 0, c0)).rw("refl-bnd-tgt-at", ()).done(lamb))
    return c1, c0


def _suite_s6() -> Suite:
    f, a0, b0 = _dim1_constants()
    local = _dim_facts(f, a0, b0) + (_collapse_rule("dim1-collapse", 1),)
    sb = _SuiteBuilder(
        "S6", "in an algebra of dimension 1, 1-cells are invertible",
        local_rules=local, defaults={"n": dim(0)},
    )
    c1, c0 = _composite_meets_unit(sb, f, b0)
    sb.add(
        sb.chain("right-inverse-law", compT(1, 0, f, revT(1, 0, f)))
        .rw("induced-rev", (1,))
        .rw("v-lam-unit", (0,), "rev")
        .rw("v-comp", (), "rev")
        .intro((0,), 1, c1, c0, face="tgt")
        .rw("v-tgt", ())
        .rw("dim1-collapse", (), "rev")
        .rw("v-src", (), "rev")
        .rw("bracket-src", (0,))
        .rw("v-refl", ())
        .rw("v-lam-unit", (0,))
        .done(oneT(0, 1, b0))
    )

    # the mirror composite, landing on the unit at the source point
    lf = lamT(f)
    c1m = compT(1, 0, revT(1, 0, lf), lf)
    c0m = oneT(0, 1, lamT(a0))
    lama = lamT(a0)
    sb.add(
        sb.chain("mirror-projection-agrees", piT(c1m))
        .rw("pi-comp", ())
        .rw("pi-rev", (0,))
        .rw("inverse-left", ())
        .rw("pi-src", (0,), "rev")
        .rw("lam-src", (0, 0), "rev")
        .rw("fact-src-f", (0, 0, 0))
        .rw("pi-refl", (), "rev")
        .done(piT(c0m))
    )
    sb.add(
        sb.chain("mirror-source-of-composite", srcT(1, 0, c1m))
        .rw("pos-b-src", ())
        .rw("lam-src", (), "rev")
        .rw("fact-src-f", (0,))
        .done(lama)
    )
    sb.add(
        sb.chain("mirror-source-of-unit", srcT(1, 0, c0m)).rw("refl-bnd-src-at", ()).done(lama)
    )
    sb.add(
        sb.chain("mirror-target-of-composite", tgtT(1, 0, c1m))
        .rw("pos-b-tgt", ())
        .rw("rev-swap-tgt", ())
        .rw("lam-src", (), "rev")
        .rw("fact-src-f", (0,))
        .done(lama)
    )
    sb.add(
        sb.chain("mirror-target-of-unit", tgtT(1, 0, c0m)).rw("refl-bnd-tgt-at", ()).done(lama)
    )
    sb.add(
        sb.chain("left-inverse-law", compT(1, 0, revT(1, 0, f), f))
        .rw("induced-rev", (0,))
        .rw("v-lam-unit", (1,), "rev")
        .rw("v-comp", (), "rev")
        .intro((0,), 1, c1m, c0m, face="tgt")
        .rw("v-tgt", ())
        .rw("dim1-collapse", (), "rev")
        .rw("v-src", (), "rev")
        .rw("bracket-src", (0,))
        .rw("v-refl", ())
        .rw("v-lam-unit", (0,))
        .done(oneT(0, 1, a0))
    )
    return sb.build()


def _suite_s7() -> Suite:
    f, a0, b0 = _dim1_constants()
    local = _dim_facts(f, a0, b0) + (
        _collapse_rule("dim2-collapse", 2),
    )
    sb = _SuiteBuilder(
        "S7", "in an algebra of dimension 2, 1-cells are equivalences",
        local_rules=local, defaults={"n": dim(0)},
    )
    c1, c0 = _composite_meets_unit(sb, f, b0)

    B = bracketT(1, c1, c0)
    sb.add(
        sb.chain("coherence-cell", c1).intro((), 1, c1, c0, face="tgt").done(tgtT(2, 1, B))
    )

    X2 = compT(2, 1, revT(2, 1, B), B)
    Y2 = oneT(0, 2, lamT(b0))
    sb.add(
        sb.chain("candidate-projection", piT(X2))
        .rw("pi-comp", ())
        .rw("pi-rev", (0,))
        .rw("pi-bracket", (0, 0))
        .rw("pi-bracket", (1,))
        .rw("established:projection-agrees", (0, 0, 0))
        .rw("established:projection-agrees", (1, 0))
        .rw("pi-refl", (0, 0, 0))
        .rw("pi-refl", (1, 0))
        .rw("refl-absorb", (0, 0))
        .rw("refl-absorb", (1,))
        .rw("rev-fixes-degenerate", (0,))
        .rw("refl-absorb", (0,), "rev", dims={"p": dim(1)})
        .rw("refl-bnd-tgt-above", (0, 0), "rev", dims={"m": dim(2)})
        .rw("unit-left", ())
        .rw("pi-refl", (), "rev")
        .done(piT(Y2))
    )
    sb.add(
        sb.chain("candidate-source", srcT(2, 1, X2))
        .rw("pos-b-src", ())
        .rw("bracket-src", ())
        .done(c0)
    )
    sb.add(
        sb.chain("unit-source", srcT(2, 1, Y2))
        .rw("refl-bnd-src-above", ())
        .done(c0)
    )
    sb.add(
        sb.chain("candidate-target", tgtT(2, 1, X2))
        .rw("pos-b-tgt", ())
        .rw("rev-swap-tgt", ())
        .rw("bracket-src", ())
        .done(c0)
    )
    sb.add(
        sb.chain("unit-target", tgtT(2, 1, Y2))
        .rw("refl-bnd-tgt-above", ())
        .done(c0)
    )
    Lam2 = bracketT(2, X2, Y2)
    sb.add(
        sb.chain("coherence-3-cell", X2).intro((), 2, X2, Y2, face="tgt").done(tgtT(3, 2, Lam2))
    )
    sb.add(
        sb.chain("candidate-evaluates", vT(X2))
        .rw("v-comp", ())
        .rw("v-rev", (0,))
        .done(compT(2, 1, revT(2, 1, vT(B)), vT(B)))
    )
    sb.add(
        sb.chain("left-equation", compT(2, 1, revT(2, 1, vT(B)), vT(B)))
        .rw("established:candidate-evaluates", (), "rev")
        .rw("established:coherence-3-cell", (0,))
        .rw("v-tgt", ())
        .rw("dim2-collapse", (), "rev")
        .rw("v-src", (), "rev")
        .rw("bracket-src", (0,))
        .rw("v-refl", ())
        .rw("v-lam-unit", (0,))
        .done(oneT(0, 2, b0))
    )

    # the other composite pairs with the degenerate cell on the target 1-cell
    X1 = compT(2, 1, B, revT(2, 1, B))
    Y1 = oneT(1, 2, c1)
    sb.add(
        sb.chain("mirror-candidate-projection", piT(X1))
        .rw("pi-comp", ())
        .rw("pi-rev", (1,))
        .rw("pi-bracket", (0,))
        .rw("pi-bracket", (1, 0))
        .rw("rev-fixes-degenerate", (1,))
        .rw("refl-bnd-tgt-at", (0, 0), "rev", dims={"m": dim(2)})
        .rw("unit-left", ())
        .rw("pi-refl", (), "rev")
        .done(piT(Y1))
    )
    sb.add(
        sb.chain("mirror-candidate-source", srcT(2, 1, X1))
        .rw("pos-b-src", ())
        .rw("rev-swap-src", ())
        .rw("bracket-tgt", ())
        .done(c1)
    )
    sb.add(
        sb.chain("mirror-unit-source", srcT(2, 1, Y1))
        .rw("refl-bnd-src-at", ())
        .done(c1)
    )
    sb.add(
        sb.chain("mirror-candidate-target", tgtT(2, 1, X1))
        .rw("pos-b-tgt", ())
        .rw("bracket-tgt", ())
        .done(c1)
    )
    sb.add(
        sb.chain("mirror-unit-target", tgtT(2, 1, Y1))
        .rw("refl-bnd-tgt-at", ())
        .done(c1)
    )
    Lam1 = bracketT(2, X1, Y1)
    sb.add(
        sb.chain("mirror-coherence-3-cell", X1).intro((), 2, X1, Y1, face="tgt").done(tgtT(3, 2, Lam1))
    )
    sb.add(
        sb.chain("mirror-candidate-evaluates", vT(X1))
        .rw("v-comp", ())
        .rw("v-rev", (1,))
        .done(compT(2, 1, vT(B), revT(2, 1, vT(B))))
    )
    sb.add(
        sb.chain("right-equation", compT(2, 1, vT(B), revT(2, 1, vT(B))))
        .rw("established:mirror-candidate-evaluates", (), "rev")
        .rw("established:mirror-coherence-3-cell", (0,))
        .rw("v-tgt", ())
        .rw("dim2-collapse", (), "rev")
        .rw("v-src", (), "rev")
        .rw("bracket-src", (0,))
        .rw("v-refl", ())
        .rw("v-comp", (0,))
        .rw("v-rev", (0, 1))
        .rw("v-lam-unit", (0, 0))
        .rw("v-lam-unit", (0, 1, 0))
        .done(oneT(1, 2, compT(1, 0, f, revT(1, 0, f))))
    )
    return sb.build()


_BUILDERS: dict[str, Callable[[], Suite]] = {
    "S1": _suite_s1,
    "S2": _suite_s2,
    "S3a": _suite_s3a,
    "S3b": _suite_s3b,
    "S4": _suite_s4,
    "S5a": _suite_s5a,
    "S5b": _suite_s5b,
    "S5c": _suite_s5c,
    "S6": _suite_s6,
    "S7": _suite_s7,
}


class _LazySuites(Mapping[str, Suite]):
    def __init__(self):
        self._built: dict[str, Suite] = {}

    def __getitem__(self, key: str) -> Suite:
        suite = self._built.get(key)
        if suite is None:
            suite = self._built[key] = _BUILDERS[key]()
        return suite

    def __contains__(self, key) -> bool:
        return key in _BUILDERS

    def __iter__(self) -> Iterator[str]:
        return iter(_BUILDERS)

    def __len__(self) -> int:
        return len(_BUILDERS)


def builtin_suites() -> Mapping[str, Suite]:
    """The fixed suites, keyed by their CLI names in the order S1 to S7.

    The mapping is read-only and builds a suite the first time its key is
    read, then keeps it, so reading one suite builds one.  Each call returns
    a new mapping that builds its suites afresh.
    """
    return _LazySuites()
