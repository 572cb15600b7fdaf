"""Derivations: equality chains checked step by step against the rule set.

A derivation claims start = end and justifies it by a list of steps.  A
rewrite step cites a rule, a position, an explicit substitution, and a
direction; one function checks it: it matches the cited side in place,
building nothing (one-sided matching, Baader and Nipkow 1998), and builds
the other side; it instantiates the cited side only to word a mismatch.  Two
inference steps extend pure rewriting:

  - inverse uniqueness concludes beta = rev(alpha) once both unit
    equations for beta are in the established-equality context;
  - bracket introduction rewrites a cell into a face of a bracket, once
    parallelism and projection-equality of the pair are established, and
    legalizes the bracket term for later steps.

A suite is a named list of derivations sharing a context: assumptions on
the dimension variables, local hypothesis rules, ground facts, and the
equalities established by earlier derivations (which also become citable
rules, named established:<derivation>).  Failures are report entries
naming the derivation and the first bad step; a bracket used before its
introduction is named by the leftmost such bracket in pre-order, so the
report does not depend on hashing.
"""

from __future__ import annotations

from .._record import Record
from ..report import ValidationReport
from .rules import ALL, RewriteRule, rule_library
from .terms import (
    App,
    DimCond,
    DimExpr,
    DimSolver,
    Term,
    TermError,
    brackets_in,
    bracketT,
    compT,
    le,
    lt,
    oneT,
    piT,
    preorder,
    render,
    replace,
    revT,
    srcT,
    subterm,
    tgtT,
)

LAW_CHAIN = "each step's input is the previous step's output"
LAW_UNIQUE = "inverses in a strict structure are unique"
LAW_CONTRACT = "parallel cells with equal projection are joined by a coherence cell"


class RewriteStep(Record):
    __slots__ = _fields = ("rule", "position", "subst", "direction")
    _defaults = {"direction": "fwd"}  # fwd applies lhs -> rhs


class InverseUniquenessStep(Record):
    __slots__ = _fields = ("position", "m", "p", "alpha", "beta", "direction")
    _defaults = {"direction": "fwd"}  # fwd rewrites beta into rev(alpha)


class BracketIntroStep(Record):
    __slots__ = _fields = ("position", "m", "c1", "c0", "face", "direction")
    _defaults = {"face": "tgt", "direction": "fwd"}  # face: which face of the bracket replaces the cell


Step = RewriteStep | InverseUniquenessStep | BracketIntroStep


class Derivation(Record):
    __slots__ = _fields = ("name", "start", "steps", "end")


class Suite(Record):
    __slots__ = _fields = ("name", "title", "assumptions", "local_rules", "facts", "derivations")


class _UnionFind:
    def __init__(self):
        self.parent: dict[Term, Term] = {}

    def find(self, t: Term) -> Term:
        self.parent.setdefault(t, t)
        while self.parent[t] != t:
            self.parent[t] = self.parent[self.parent[t]]
            t = self.parent[t]
        return t

    def union(self, a: Term, b: Term) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb

    def connected(self, a: Term, b: Term) -> bool:
        return self.find(a) == self.find(b)


class DerivationContext(Record):
    __slots__ = _fields = ("solver", "rules", "established", "introduced")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None
    _defaults = {"established": _UnionFind, "introduced": set}

    @classmethod
    def for_suite(cls, suite: Suite) -> "DerivationContext":
        rules = dict(rule_library())
        for rule in suite.local_rules:
            rules[rule.name] = rule
        ctx = cls(DimSolver(suite.assumptions), rules)
        for lhs, rhs in suite.facts:
            ctx.established.union(lhs, rhs)
        return ctx

    def establish(self, deriv: Derivation) -> None:
        self.established.union(deriv.start, deriv.end)
        self.rules[f"established:{deriv.name}"] = RewriteRule(
            f"established:{deriv.name}",
            deriv.start,
            deriv.end,
            (),
            ALL,
            "equality established earlier in this suite",
        )


class StepFailure(Exception):
    def __init__(self, message: str):
        super().__init__(message)
        self.message = message


def _leftmost(t: Term, among: frozenset[App]) -> App:
    """The first of the brackets among (all in t) in a pre-order walk of t."""
    return next(s for s in preorder(t) if s in among)


def _check_new_brackets(before: Term, after: Term, ctx: DerivationContext) -> None:
    fresh = brackets_in(after) - brackets_in(before) - ctx.introduced
    if fresh:
        raise StepFailure(
            f"bracket {render(_leftmost(after, fresh))} appears without a prior introduction step"
        )


def _apply_rewrite(current: Term, step: RewriteStep, ctx: DerivationContext) -> Term:
    """Match the cited side in place and build only the other; a failure is named in the order
    unknown rule, substitution, side condition, position, match, carrier.  The cited side is
    instantiated only to word a mismatch."""
    rule, subst = ctx.rules.get(step.rule), step.subst
    if rule is None:
        raise StepFailure(f"unknown rule {step.rule}")
    pattern, replacement = (rule.lhs, rule.rhs) if step.direction == "fwd" else (rule.rhs, rule.lhs)
    try:
        sub = subterm(current, step.position)
    except TermError as exc:
        sub, unplaced = None, str(exc)  # reported after the substitution and the side conditions
    try:
        expected = sub if sub is not None and subst.instantiates(pattern, sub) else subst.term(pattern)
        written = subst.term(replacement)
    except TermError as exc:
        raise StepFailure(f"substitution does not instantiate {step.rule}: {exc}")
    for cond in rule.conds:
        lhs, rhs = subst.dim(cond.lhs), subst.dim(cond.rhs)
        if not ctx.solver.holds(lhs, rhs, cond.strict):
            raise StepFailure(
                f"side condition {DimCond(lhs, rhs, cond.strict)} of {step.rule} is not entailed by the assumptions"
            )
    if sub is None:
        raise StepFailure(unplaced)
    if sub != expected:
        raise StepFailure(
            f"rule {step.rule} does not match at {step.position}: "
            f"expected {render(expected)}, found {render(sub)}"
        )
    if sub.carrier not in rule.carriers:
        raise StepFailure(
            f"rule {step.rule} holds on carriers {sorted(rule.carriers)}, "
            f"but the matched term lives on {sub.carrier}"
        )
    out = replace(current, step.position, written)
    _check_new_brackets(current, out, ctx)
    return out


def _swap(current: Term, step: Step, old: Term, new: Term, what: str) -> Term:
    """current with old at the step's position replaced by new; the other way round for a backward step."""
    if step.direction != "fwd":
        old, new = new, old
    sub = subterm(current, step.position)
    if sub != old:
        raise StepFailure(f"{what} expected {render(old)} at {step.position}, found {render(sub)}")
    return replace(current, step.position, new)


def _apply_inverse_uniqueness(
    current: Term, step: InverseUniquenessStep, ctx: DerivationContext
) -> Term:
    m, p, alpha, beta = step.m, step.p, step.alpha, step.beta
    if beta.carrier != "C" or alpha.carrier != "C":
        raise StepFailure("inverse uniqueness is an argument in the strict carrier")
    for cond in (le(DimExpr("n", 0), p), lt(p, m)):
        if not ctx.solver.entails(cond):
            raise StepFailure(f"inverse uniqueness needs {cond}")
    right = (compT(m, p, alpha, beta), oneT(p, m, tgtT(m, p, alpha)))
    left = (compT(m, p, beta, alpha), oneT(p, m, srcT(m, p, alpha)))
    for got, want in (right, left):
        if not ctx.established.connected(got, want):
            raise StepFailure(
                f"inverse uniqueness needs the established equality "
                f"{render(got)} = {render(want)}"
            )
    out = _swap(current, step, beta, revT(m, p, alpha), "inverse uniqueness")
    _check_new_brackets(current, out, ctx)
    ctx.established.union(beta, revT(m, p, alpha))
    return out


def _apply_bracket_intro(
    current: Term, step: BracketIntroStep, ctx: DerivationContext
) -> Term:
    m, c1, c0 = step.m, step.c1, step.c0
    if c1.carrier != "M" or c0.carrier != "M":
        raise StepFailure("brackets are introduced on the free side")
    if not ctx.solver.entails(le(1, m)):
        raise StepFailure("bracket introduction needs a positive level")
    pairs = (
        (srcT(m, m.shift(-1), c1), srcT(m, m.shift(-1), c0)),
        (tgtT(m, m.shift(-1), c1), tgtT(m, m.shift(-1), c0)),
        (piT(c1), piT(c0)),
    )
    for a, b in pairs:
        if not ctx.established.connected(a, b):
            raise StepFailure(
                f"bracket introduction needs the established equality {render(a)} = {render(b)}"
            )
    bracket = bracketT(m, c1, c0)
    old, face = (c1, tgtT) if step.face == "tgt" else (c0, srcT)
    out = _swap(current, step, old, face(m.shift(1), m, bracket), "bracket introduction")
    ctx.introduced.add(bracket)
    ctx.established.union(tgtT(m.shift(1), m, bracket), c1)
    ctx.established.union(srcT(m.shift(1), m, bracket), c0)
    ctx.established.union(piT(bracket), oneT(m, m.shift(1), piT(c1)))
    return out


def apply_step(current: Term, step: Step, ctx: DerivationContext) -> Term:
    if isinstance(step, RewriteStep):
        return _apply_rewrite(current, step, ctx)
    if isinstance(step, InverseUniquenessStep):
        return _apply_inverse_uniqueness(current, step, ctx)
    if isinstance(step, BracketIntroStep):
        return _apply_bracket_intro(current, step, ctx)
    raise StepFailure(f"unknown step kind {type(step).__name__}")


def check_derivation(deriv: Derivation, ctx: DerivationContext | None = None) -> ValidationReport:
    """Replay one derivation; the report names the first failing step."""
    if ctx is None:
        ctx = DerivationContext(DimSolver(()), dict(rule_library()))
    rep = ValidationReport(f"derivation:{deriv.name}")
    unintroduced = brackets_in(deriv.start) - ctx.introduced
    if unintroduced:
        rep.add(
            "derivation.step", LAW_CONTRACT, (deriv.name, "start"),
            f"start term uses bracket {render(_leftmost(deriv.start, unintroduced))} before any introduction",
        )
        return rep
    current = deriv.start
    for i, step in enumerate(deriv.steps):
        try:
            current = apply_step(current, step, ctx)
        except TermError as exc:
            rep.add(
                "derivation.step", LAW_CHAIN, (deriv.name, f"step {i}"),
                f"step builds an ill-formed term: {exc}",
            )
            return rep
        except StepFailure as exc:
            law = LAW_UNIQUE if isinstance(step, InverseUniquenessStep) else (
                LAW_CONTRACT if isinstance(step, BracketIntroStep) else LAW_CHAIN
            )
            rule_name = step.rule if isinstance(step, RewriteStep) else type(step).__name__
            rep.add(
                "derivation.step", law, (deriv.name, f"step {i}", rule_name),
                exc.message,
            )
            return rep
    if current != deriv.end:
        rep.add(
            "derivation.chain", LAW_CHAIN, (deriv.name, "end"),
            f"chain ends at {render(current)} but claims {render(deriv.end)}",
        )
    return rep


def check_suite(suite: Suite) -> ValidationReport:
    """Replay a suite's derivations in order, threading the context."""
    rep = ValidationReport(f"suite:{suite.name}")
    ctx = DerivationContext.for_suite(suite)
    for deriv in suite.derivations:
        sub = check_derivation(deriv, ctx)
        rep.extend(sub)
        if sub.valid:
            ctx.establish(deriv)
    return rep
