"""The data layers' slotted records behave as the dataclasses they replaced.

Each record is checked against a dataclass declared here with the old
fields, defaults and flags (dataclasses is fine in tests): construction,
defaults, equality, hashing, repr and whether assignment raises.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from typing import Any

import pytest

import globforge.dsl as dsl
import globforge.globular as globular
import globforge.layers as layers
import globforge.magma as magma
import globforge.report as report
import globforge.stretching as stretching
import globforge.words as words


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


@dataclass
class ParsedStructure:
    name: Any
    gs: Any
    threshold: Any
    rev: Any
    refl: Any
    comp: Any


@dataclass
class Stretching:
    m_side: Any
    c_side: Any
    threshold: Any
    pi: Any
    brackets: Any
    terms: Any = field(default_factory=dict)


GS = globular.globular_set(1, {0: ["a", "b"], 1: ["e"]}, src={1: {"e": "a"}}, tgt={1: {"e": "b"}})
REFL = layers.ReflexorStructure({(0, 1): {"a": "a", "b": "b"}})
COMP = magma.CompositionStructure({(1, 0): {("e", "e"): "e"}})
REV = layers.ReversorStructure(0, {(1, 0): {"e": "e"}})
MAG = magma.InfinityMagma(GS, REFL, COMP)
NM = magma.NMagma(MAG, REV)

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
    (dsl.ParsedStructure, ParsedStructure, ("W", GS, 0, None, REFL, COMP)),
    (stretching.Stretching, Stretching, (NM, NM, 0, {1: {"e": "e"}}, {(0, "a", "a"): "a"}, {})),
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


@pytest.mark.parametrize("new, old, args", CASES, ids=IDS)
def test_record_matches_its_dataclass(new, old, args):
    assert new._fields == tuple(f.name for f in dataclasses.fields(old) if f.compare)
    for values in _variants(new, args):
        a, b = new(*values), old(*values)
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
], ids=["ValidationReport", "Stretching"])
def test_defaults_are_fresh_per_instance(new, old, args):
    a, b = new(*args), new(*args)
    assert repr(a) == repr(old(*args))
    last = new._fields[-1]
    assert getattr(a, last) == getattr(b, last) and getattr(a, last) is not getattr(b, last)


def test_derived_cell_sets_take_no_part_in_equality_or_repr():
    a = globular.TruncatedGlobularSet(GS.max_dim, GS.cells, GS.src, GS.tgt)
    b = TruncatedGlobularSet(GS.max_dim, GS.cells, GS.src, GS.tgt)
    assert a.cell_sets == b.cell_sets == {0: frozenset("ab"), 1: frozenset("e")}
    assert "cell_sets" not in repr(a)
    c = globular.TruncatedGlobularSet(GS.max_dim, GS.cells, GS.src, GS.tgt)
    object.__setattr__(c, "cell_sets", {})
    assert a == c
