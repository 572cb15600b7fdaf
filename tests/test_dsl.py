import pytest
from hypothesis import given, strategies as st

from globforge.dsl import ParseError, emit_structure, parse_structure
from globforge.globular import validate_globular
from globforge.layers import validate_reflexors, validate_reversors
from globforge.magma import derive_canonical_reversors, validate_magma, validate_strict
from globforge.report import ValidationReport, emit_report, parse_report

WALKING_ISO = """
# the category with two objects and one isomorphism
structure W
dim 1
threshold 0
cells 0: a b
cells 1: f g ida idb
src f = a
tgt f = b
src g = b
tgt g = a
src ida = a
tgt ida = a
src idb = b
tgt idb = b
refl 0 1 a = ida
refl 0 1 b = idb
comp 1 0 (g, f) = ida
comp 1 0 (f, g) = idb
comp 1 0 (f, ida) = f
comp 1 0 (idb, f) = f
comp 1 0 (g, idb) = g
comp 1 0 (ida, g) = g
comp 1 0 (ida, ida) = ida
comp 1 0 (idb, idb) = idb
rev 1 0 f = g
rev 1 0 g = f
rev 1 0 ida = ida
rev 1 0 idb = idb
"""


def test_walking_iso_round_trip_through_validators():
    parsed = parse_structure(WALKING_ISO)
    assert parsed.name == "W"
    assert parsed.gs.max_dim == 1
    assert validate_globular(parsed.gs).valid
    assert validate_reflexors(parsed.gs, parsed.refl).valid
    assert validate_reversors(parsed.gs, parsed.rev).valid
    assert validate_magma(parsed.magma).valid
    assert validate_strict(parsed.magma).valid
    rev = derive_canonical_reversors(parsed.as_category(0), 0)
    assert rev.maps == parsed.rev.maps


def test_emit_structure_round_trip():
    parsed = parse_structure(WALKING_ISO)
    again = parse_structure(emit_structure(parsed))
    assert again.gs == parsed.gs
    assert again.rev == parsed.rev
    assert again.refl == parsed.refl
    assert again.comp == parsed.comp


def test_empty_file_is_empty_structure():
    parsed = parse_structure("")
    assert parsed.gs.max_dim == 0
    assert parsed.gs.grade(0) == ()
    assert parsed.rev is None and parsed.refl is None and parsed.comp is None


def test_unresolved_identifier_has_line_number():
    text = "cells 0: a\ncells 1: f\nsrc f = a\ntgt f = a\ncomp 1 0 (f, f) = x\n"
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert err.value.line == 5
    assert "x" in err.value.message


def test_cells_above_dim_name_the_first_cells_line_of_the_grade():
    text = "structure X\ndim 1\ncells 0: a\n\ncells 3: q\ncells 3: r\n"
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert err.value.line == 5
    assert str(err.value) == "line 5: cells declared in grade 3 above dim 1"


def test_duplicate_and_ambiguity_errors():
    with pytest.raises(ParseError):
        parse_structure("cells 0: a a\n")
    # the same name in two grades makes a bare src line ambiguous
    text = "dim 2\ncells 0: a\ncells 1: a x\ncells 2: x\nsrc x = a\n"
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert "ambiguous" in err.value.message


def test_grade_mismatch_reported():
    text = "dim 1\ncells 0: a\ncells 1: f\nsrc f = a\ntgt f = a\nrefl 0 1 f = f\n"
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert "grade mismatch" in err.value.message


_names = st.text(alphabet="abcxyz.-", min_size=1, max_size=8)


@given(
    st.lists(
        st.tuples(
            st.sampled_from(["globular.map", "positional.b", "units.left", "reversor.a"]),
            _names,
            st.lists(_names, max_size=3),
            _names,
        ),
        max_size=6,
    )
)
def test_report_round_trip(entries):
    rep = ValidationReport("subject")
    for axiom, law, cells, detail in entries:
        rep.add(axiom, law, tuple(cells), detail)
    text = emit_report(rep)
    back = parse_report(text)
    assert emit_report(back) == text
    assert back.valid == rep.valid


def test_report_deterministic_ordering():
    rep = ValidationReport("s")
    rep.add("units.left", "law", ("b",), "two")
    rep.add("assoc.triple", "law", ("a",), "one")
    text = emit_report(rep)
    first = text.index("assoc.triple")
    second = text.index("units.left")
    assert first < second
