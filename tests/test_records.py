"""The slotted records of the data layers and of the engine behave as the
dataclasses they replaced.

Each record is checked against a dataclass declared here with the old
fields, defaults and flags (dataclasses is fine in tests): construction,
defaults, equality, hashing, repr and whether assignment raises.  The
engine's terms (Atom, App) are interned in term tables and its dimensions
(DimExpr) in a module table, so equality and hashing are by identity.
"""

from __future__ import annotations

import dataclasses
import pprint
import re
import weakref
from dataclasses import dataclass, field
from typing import Any

import pytest

import globforge.dsl as dsl
import globforge.engine.derivation as derivation
import globforge.engine.rules as rules
import globforge.engine.suites as suites
import globforge.engine.terms as terms
import globforge.globular as globular
import globforge.layers as layers
import globforge.magma as magma
import globforge.report as report
import globforge.stretching as stretching
import globforge.words as words
from globforge._record import Record


# the old declarations, under the same names so that their reprs match
@dataclass(frozen=True)
class Violation:
    axiom: Any
    law: Any
    cells: Any
    detail: Any


@dataclass
class ValidationReport:
    subject: Any
    violations: Any = field(default_factory=list)


@dataclass(frozen=True)
class TruncatedGlobularSet:
    max_dim: Any
    cells: Any
    src: Any
    tgt: Any
    cell_sets: Any = field(init=False, compare=False, repr=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "cell_sets", {m: frozenset(cs) for m, cs in self.cells.items()})


@dataclass(frozen=True)
class GlobularMorphism:
    source: Any
    target: Any
    maps: Any


@dataclass(frozen=True)
class ReversorStructure:
    threshold: Any
    maps: Any


@dataclass(frozen=True)
class ReflexorStructure:
    maps: Any


@dataclass(frozen=True)
class CompositionStructure:
    maps: Any


@dataclass(frozen=True)
class InfinityMagma:
    gs: Any
    refl: Any
    comp: Any


@dataclass(frozen=True)
class NMagma:
    magma: Any
    rev: Any


@dataclass(frozen=True)
class StrictNCategory:
    magma: Any
    threshold: Any


@dataclass(frozen=True)
class Word:
    base: Any
    steps: Any


@dataclass(frozen=True)
class ParsedStructure:
    magma: Any
    rev: Any
    name: Any


@dataclass
class Stretching:
    m_side: Any
    c_side: Any
    threshold: Any
    pi: Any
    brackets: Any
    terms: Any = field(default_factory=dict)


@dataclass(frozen=True)
class DimExpr:
    var: Any
    off: Any


@dataclass(frozen=True)
class DimCond:
    lhs: Any
    rhs: Any
    strict: Any = False


@dataclass(frozen=True, eq=False)
class Atom:
    name: Any
    grade: Any
    carrier: Any
    const: Any = False


@dataclass(frozen=True, eq=False)
class App:
    sym: Any
    dims: Any
    args: Any
    grade: Any
    carrier: Any
    brackets: Any = field(repr=False)


@dataclass(frozen=True)
class Subst:
    cells: Any
    dims: Any


@dataclass(frozen=True)
class RewriteRule:
    name: Any
    lhs: Any
    rhs: Any
    conds: Any
    carriers: Any
    law: Any


@dataclass(frozen=True)
class RewriteStep:
    rule: Any
    position: Any
    subst: Any
    direction: Any = "fwd"


@dataclass(frozen=True)
class InverseUniquenessStep:
    position: Any
    m: Any
    p: Any
    alpha: Any
    beta: Any
    direction: Any = "fwd"


@dataclass(frozen=True)
class BracketIntroStep:
    position: Any
    m: Any
    c1: Any
    c0: Any
    face: Any = "tgt"
    direction: Any = "fwd"


@dataclass(frozen=True)
class Derivation:
    name: Any
    start: Any
    steps: Any
    end: Any


@dataclass(frozen=True)
class Suite:
    name: Any
    title: Any
    assumptions: Any
    local_rules: Any
    facts: Any
    derivations: Any


@dataclass
class DerivationContext:
    solver: Any
    rules: Any
    established: Any = field(default_factory=derivation._UnionFind)
    introduced: Any = field(default_factory=set)


@dataclass
class _SuiteBuilder:  # its __post_init__ also built a context, which is no field
    key: Any
    title: Any
    assumptions: Any = ()
    local_rules: Any = ()
    facts: Any = ()
    defaults: Any = field(default_factory=dict)
    derivations: Any = field(default_factory=list)


GS = globular.globular_set(1, {0: ["a", "b"], 1: ["e"]}, src={1: {"e": "a"}}, tgt={1: {"e": "b"}})
REFL = layers.ReflexorStructure({(0, 1): {"a": "a", "b": "b"}})
COMP = magma.CompositionStructure({(1, 0): {("e", "e"): "e"}})
REV = layers.ReversorStructure(0, {(1, 0): {"e": "e"}})
MAG = magma.InfinityMagma(GS, REFL, COMP)
NM = magma.NMagma(MAG, REV)

M, P = terms.dim("m"), terms.dim("p")
X = terms.TermTable().var("x", M, "C")
LT = terms.lt(P, M)
RULE = rules.rule_library()["inverse-left"]
STEP = derivation.RewriteStep("inverse-left", (), terms.Subst({"x": X}, {"m": M, "p": P}))
DERIV = derivation.Derivation("d", terms.compT(M, P, terms.revT(M, P, X), X), (STEP,), terms.oneT(P, M, terms.srcT(M, P, X)))

# record, old dataclass, arguments with table-shaped values
CASES = [
    (report.Violation, Violation, ("assoc.triple", "associativity", ("x", "y"), "x o y differs")),
    (report.ValidationReport, ValidationReport, ("strict", [report.Violation("a", "l", ("x",), "d")])),
    (globular.TruncatedGlobularSet, TruncatedGlobularSet, (GS.max_dim, GS.cells, GS.src, GS.tgt)),
    (globular.GlobularMorphism, GlobularMorphism, (GS, GS, {0: {"a": "a", "b": "b"}, 1: {"e": "e"}})),
    (layers.ReversorStructure, ReversorStructure, (REV.threshold, REV.maps)),
    (layers.ReflexorStructure, ReflexorStructure, (REFL.maps,)),
    (magma.CompositionStructure, CompositionStructure, (COMP.maps,)),
    (magma.InfinityMagma, InfinityMagma, (GS, REFL, COMP)),
    (magma.NMagma, NMagma, (MAG, REV)),
    (magma.StrictNCategory, StrictNCategory, (MAG, 0)),
    (words.Word, Word, ("a", (("e", 1), ("e", -1)))),
    (dsl.ParsedStructure, ParsedStructure, (MAG, REV, "W")),
    (stretching.Stretching, Stretching, (NM, NM, 0, {1: {"e": "e"}}, {(0, "a", "a"): "a"}, {})),
    (terms.DimCond, DimCond, (P, M, True)),
    (terms.Subst, Subst, ({"x": X}, {"m": M, "p": P})),
    (rules.RewriteRule, RewriteRule, (RULE.name, RULE.lhs, RULE.rhs, RULE.conds, RULE.carriers, RULE.law)),
    (derivation.RewriteStep, RewriteStep, (STEP.rule, (1,), STEP.subst, "bwd")),
    (derivation.InverseUniquenessStep, InverseUniquenessStep, ((0,), M, P, X, terms.revT(M, P, X), "bwd")),
    (derivation.BracketIntroStep, BracketIntroStep, ((1,), M, X, terms.revT(M, P, X), "src", "bwd")),
    (derivation.Derivation, Derivation, (DERIV.name, DERIV.start, DERIV.steps, DERIV.end)),
    (derivation.Suite, Suite, ("S", "a suite", (LT,), (RULE,), ((X, X),), (DERIV,))),
    (derivation.DerivationContext, DerivationContext,
     (terms.DimSolver((LT,)), {RULE.name: RULE}, derivation._UnionFind(), {X})),
]
IDS = [new.__name__ for new, _, _ in CASES]


def _outcome(thunk) -> tuple:
    """What a call gives: its value, or the family of the exception it raises."""
    try:
        return ("value", thunk())
    except AttributeError:
        return ("raises", AttributeError)
    except TypeError:
        return ("raises", TypeError)


def _variants(new, args) -> list[tuple]:
    """The table-shaped arguments, and hashable stand-ins where the constructor takes any value."""
    if new is globular.TruncatedGlobularSet:  # derives cell_sets from cells.items()
        return [args]
    return [args, tuple(f"v{i}" for i in range(len(args)))]


def test_a_record_subclass_lists_its_own_fields():
    dataclasses.fields(magma.NMagma(MAG, REV))  # the parent's view, kept on the parent first
    assert [f.name for f in dataclasses.fields(dsl.ParsedStructure(MAG, REV, "W"))] == ["magma", "rev", "name"]


@pytest.mark.parametrize("new, old, args", CASES, ids=IDS)
def test_record_matches_its_dataclass(new, old, args):
    assert new._fields == tuple(f.name for f in dataclasses.fields(old) if f.compare)
    for values in _variants(new, args):
        a, b = new(*values), old(*values)
        assert tuple(f.name for f in dataclasses.fields(a)) == new._fields and dataclasses.replace(a) == a
        keywords = dict(zip(new._fields, values))
        assert new(**keywords) == a and old(**keywords) == b
        assert repr(a) == repr(b) == repr(new(**keywords))
        # a missing, unknown or repeated argument is a TypeError for both
        for bad_args, bad_keywords in ((values[:-1], {}), (values, {"bogus": 1}), (values, {new._fields[0]: 1})):
            got, want = (_outcome(lambda: cls(*bad_args, **bad_keywords)) for cls in (new, old))
            assert got[0] == want[0] and (got[0] == "value" or got == want)
        assert [getattr(a, name) for name in new._fields] == [getattr(b, name) for name in new._fields]
        assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(b))
        # equal to a rebuilt copy, unequal once any field differs, and never equal to another class
        assert (a == new(*values)) and (b == old(*values))
        for i in range(len(values)):
            other = {} if isinstance(values[i], dict) and values[i] else object()  # cells stays a mapping
            changed = (*values[:i], other, *values[i + 1:])
            assert (a == new(*changed)) is (b == old(*changed)) is False
        assert a.__eq__(b) is NotImplemented and b.__eq__(a) is NotImplemented
        assert a != b and a != values
        for name in new._fields:
            assert _outcome(lambda: setattr(a, name, values[0])) == _outcome(lambda: setattr(b, name, values[0]))
            assert getattr(a, name) == getattr(b, name)


def test_frozen_records_refuse_assignment_and_deletion():
    w = words.Word("a", ())
    for action in (lambda: setattr(w, "base", "b"), lambda: delattr(w, "steps"), lambda: setattr(w, "other", 1)):
        with pytest.raises(AttributeError):
            action()
    assert w == words.Word("a", ())


@pytest.mark.parametrize("new, old, args", [
    (report.ValidationReport, ValidationReport, ("s",)),
    (stretching.Stretching, Stretching, (NM, NM, 0, {}, {})),
    (derivation.DerivationContext, DerivationContext, (None, {})),
    (suites._SuiteBuilder, _SuiteBuilder, ("S", "a suite")),
], ids=["ValidationReport", "Stretching", "DerivationContext", "_SuiteBuilder"])
def test_defaults_are_fresh_per_instance(new, old, args):
    a, b = new(*args), new(*args)
    # a default union-find has object's repr, which shows its address
    assert re.sub(" at 0x[0-9a-f]+", "", repr(a)) == re.sub(" at 0x[0-9a-f]+", "", repr(old(*args)))
    for name in new._fields[len(args):]:
        value = getattr(a, name)
        assert type(value) is type(getattr(old(*args), name))
        assert value is not getattr(b, name) or value == ()  # a mutable default is made per instance
        assert value == getattr(b, name) or isinstance(value, derivation._UnionFind)  # which compares by identity


def test_the_suite_builder_matches_its_dataclass():
    values = ("S", "a suite", (LT,), (RULE,), ((X, X),), {"n": terms.dim("n")}, [DERIV])
    a, b = suites._SuiteBuilder(*values), _SuiteBuilder(*values)
    keywords = dict(zip(suites._SuiteBuilder._fields, values))
    assert suites._SuiteBuilder._fields == tuple(f.name for f in dataclasses.fields(_SuiteBuilder))
    assert repr(a) == repr(b) == repr(suites._SuiteBuilder(**keywords))
    assert a == suites._SuiteBuilder(*values) and a != suites._SuiteBuilder(*values[:-1], [])
    assert a.__eq__(b) is NotImplemented
    assert _outcome(lambda: hash(a)) == _outcome(lambda: hash(b)) == ("raises", TypeError)
    assert a.ctx.rules[RULE.name] is RULE  # the builder's context, which is no field
    a.title = b.title = "renamed"
    assert repr(a) == repr(b)
    for bad_args, bad_keywords in ((("S",), {}), (values, {"bogus": 1}), (values, {"key": "S"})):
        got, want = (_outcome(lambda: cls(*bad_args, **bad_keywords)) for cls in (suites._SuiteBuilder, _SuiteBuilder))
        assert got == want == ("raises", TypeError)


# record, old dataclass, arguments of one term: equality and hashing are by identity
IDENTITY_CASES = [
    (terms.Atom, Atom, ("x", M, "C", False)),
    (terms.App, App, ("rev", (M, P), (X,), M, "C", frozenset())),
]


@pytest.mark.parametrize("new, old, args", IDENTITY_CASES, ids=[new.__name__ for new, _, _ in IDENTITY_CASES])
def test_terms_keep_identity_equality(new, old, args):
    a, b = new(*args), old(*args)
    assert new._fields == tuple(f.name for f in dataclasses.fields(old) if f.repr)
    assert repr(a) == repr(b)
    again = new(*args)
    assert a == a and a != again and hash(a) == object.__hash__(a) != hash(again)
    assert (a == again) is (b == old(*args)) is False
    assert [getattr(a, f.name) for f in dataclasses.fields(old)] == [getattr(b, f.name) for f in dataclasses.fields(old)]
    for name in (*new._fields, "brackets", "table"):
        assert _outcome(lambda: setattr(a, name, 1)) == _outcome(lambda: setattr(b, name, 1)) == ("raises", AttributeError)
    # a term's table, which is no field, keeps it: terms take no weak references
    assert "table" not in new._fields
    assert _outcome(lambda: weakref.ref(a)) == ("raises", TypeError)


def test_atom_default_and_interned_terms():
    assert repr(terms.Atom("x", M, "C")) == repr(Atom("x", M, "C"))
    assert X.table.var("x", M, "C") is X and terms.revT(M, P, X) is terms.app("rev", (M, P), (X,))


def test_dimensions_are_interned_with_the_old_value_equality():
    values = [(None, 0), (None, 1), ("m", 0), ("m", 1), ("m", -1), ("p", 0)]
    for u in values:
        d = terms.DimExpr(*u)
        assert d is terms.DimExpr(*u) is terms.DimExpr(var=u[0], off=u[1]) and hash(d) == object.__hash__(d)
        assert repr(d) == repr(DimExpr(*u))
        assert (d.var, d.off) == u
        for v in values:
            assert (d == terms.DimExpr(*v)) is (DimExpr(*u) == DimExpr(*v)) is (u == v)
        for name in ("var", "off"):
            assert _outcome(lambda: setattr(d, name, 1)) == _outcome(lambda: setattr(DimExpr(*u), name, 1))
    assert terms.dim("m", 2) is terms.dim("m").shift(1).shift(1) is terms.Subst({}, {"q": M}).dim(terms.dim("q", 2))


def test_engine_classes_are_records_and_none_is_a_generated_dataclass():
    modules = (terms, rules, derivation, suites)
    classes = {v for mod in modules for v in vars(mod).values() if isinstance(v, type) and v.__module__ == mod.__name__}
    assert {c.__name__ for c in classes if issubclass(c, Record)} == {
        "DimExpr", "DimCond", "Atom", "App", "Subst", "RewriteRule", "RewriteStep", "InverseUniquenessStep",
        "BracketIntroStep", "Derivation", "Suite", "DerivationContext", "_SuiteBuilder",
    }
    # @dataclass execs the methods it generates, so their code comes from no file
    generated = {c.__name__ for c in classes for f in vars(c).values() if getattr(f, "__code__", None)
                 and f.__code__.co_filename == "<string>"}
    assert generated == set()


STEP_CASES = [case for case in CASES if case[0].__name__.endswith("Step")]


@pytest.mark.parametrize("new, old, args", STEP_CASES, ids=[new.__name__ for new, _, _ in STEP_CASES])
def test_dataclasses_functions_take_a_step_as_its_old_dataclass(new, old, args):
    step = new(*args)
    assert dataclasses.is_dataclass(step) and dataclasses.is_dataclass(new)
    assert tuple(f.name for f in dataclasses.fields(step)) == step._fields
    assert dataclasses.replace(step) == step
    for i, name in enumerate(new._fields):
        changed = dataclasses.replace(step, **{name: "changed"})
        assert type(changed) is new and changed == new(*args[:i], "changed", *args[i + 1:]) != step
    assert _outcome(lambda: dataclasses.replace(step, bogus=1)) == ("raises", TypeError)
    # the defaults are the old ones, and pprint, which reads __dataclass_params__, prints a long step as its repr
    required = args[:len(args) - len(new._defaults)]
    assert repr(new(*required)) == repr(old(*required))
    assert pprint.pformat(step, width=20) == repr(step)


def test_the_base_record_is_no_dataclass():
    # a subclass's view is kept on the subclass, so asking the base first or last hides no subclass's view
    assert not dataclasses.is_dataclass(Record)
    assert [f.name for f in dataclasses.fields(derivation.Suite)] == list(derivation.Suite._fields)
    assert not dataclasses.is_dataclass(Record)


def test_derived_cell_sets_take_no_part_in_equality_or_repr():
    a = globular.TruncatedGlobularSet(GS.max_dim, GS.cells, GS.src, GS.tgt)
    b = TruncatedGlobularSet(GS.max_dim, GS.cells, GS.src, GS.tgt)
    assert a.cell_sets == b.cell_sets == {0: frozenset("ab"), 1: frozenset("e")}
    assert "cell_sets" not in repr(a)
    c = globular.TruncatedGlobularSet(GS.max_dim, GS.cells, GS.src, GS.tgt)
    object.__setattr__(c, "cell_sets", {})
    assert a == c
