import json
import random
import re
import sys
import time
from collections import Counter

import pytest
from fixtures import abelian_2cat_lines, bouquet, two_edge_graph
from hypothesis import given, strategies as st
from line_parser import parse_lines

from globforge import dsl
from globforge.dsl import MAX_DIM, ParseError, emit_structure, parse_structure
from globforge.globular import globular_set, validate_globular
from globforge.layers import validate_reflexors, validate_reversors
from globforge.magma import KINDS, NMagma, StrictNCategory, derive_canonical_reversors, validate_magma, validate_strict
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
    assert validate_reflexors(parsed.gs, parsed.magma.refl).valid
    assert validate_reversors(parsed.gs, parsed.rev).valid
    assert validate_magma(parsed.magma).valid
    assert validate_strict(parsed.magma).valid
    rev = derive_canonical_reversors(StrictNCategory(parsed.magma, 0), 0)
    assert rev.maps == parsed.rev.maps


def test_a_parsed_structure_is_the_n_magma_its_parser_built(monkeypatch):
    built, of = [], NMagma.of.__func__
    monkeypatch.setattr(NMagma, "of", classmethod(lambda cls, *args: built.append(of(cls, *args)) or built[-1]))
    parsed = parse_structure(WALKING_ISO)
    assert isinstance(parsed, NMagma) and len(built) == 1
    assert parsed.magma is parsed.magma is built[0].magma  # stored, not rebuilt per read
    assert all(kind.layer(parsed) is kind.layer(built[0]) for kind in KINDS)
    assert (parsed.gs, parsed.threshold) == (built[0].gs, 0)


def test_emit_structure_round_trip():
    parsed = parse_structure(WALKING_ISO)
    again = parse_structure(emit_structure(parsed))
    assert again.gs == parsed.gs
    assert again.rev == parsed.rev
    assert again.magma.refl == parsed.magma.refl
    assert again.magma.comp == parsed.magma.comp


# names reused across grades: the 0-cell ob and the 2-cell ob are two cells
NAMESPACED = """
structure N
dim 2
threshold 1
cells 0: ob
cells 1: id
cells 2: ob
src id = ob
tgt id = ob
src ob = id
tgt ob = id
refl 0 1 ob = id
refl 1 2 id = ob
comp 1 0 (id, id) = id
comp 2 0 (ob, ob) = ob
comp 2 1 (ob, ob) = ob
rev 2 1 ob = ob
"""


def _table_names(parsed):
    """(grade, name) for every key and value of the src/tgt/refl/rev/comp tables."""
    gs = parsed.gs
    for m in range(1, gs.max_dim + 1):
        for face in (gs.map("source", m), gs.map("target", m)):
            for x, y in face.items():
                yield from ((m, x), (m - 1, y))
    for (p, m), table in parsed.magma.refl.maps.items():
        for x, y in table.items():
            yield from ((p, x), (m, y))
    for (m, _), table in parsed.rev.maps.items():
        for x, y in table.items():
            yield from ((m, x), (m, y))
    for (m, _), table in parsed.magma.comp.maps.items():
        for (y, x), z in table.items():
            yield from ((m, y), (m, x), (m, z))


def _dropped_and_shuffled(text):
    """The presentation's lines in any order, each declaration kept or dropped."""
    lines = text.strip().splitlines()
    return st.tuples(st.permutations(lines), st.lists(st.booleans(), min_size=len(lines), max_size=len(lines)))


@given(st.sampled_from([WALKING_ISO, NAMESPACED]).flatmap(_dropped_and_shuffled))
def test_emit_structure_inverts_parse_structure(mutant):
    order, keep = mutant
    text = "\n".join(line for line, k in zip(order, keep) if k or line.startswith(("dim", "cells")))
    parsed = parse_structure(text)
    assert parse_structure(emit_structure(parsed)) == parsed
    declared = {m: {x: x for x in parsed.gs.grade(m)} for m in range(parsed.gs.max_dim + 1)}
    assert all(declared[m][nm] is nm for m, nm in _table_names(parsed))


def test_emit_structure_keeps_partial_boundaries():
    parsed = parse_structure("cells 0: a\ncells 1: f\nsrc f = a\n")
    assert emit_structure(parsed) == "structure anonymous\ndim 1\nthreshold 0\ncells 0: a\ncells 1: f\nsrc f = a\n"


def test_empty_file_is_empty_structure():
    parsed = parse_structure("")
    assert parsed.gs.max_dim == 0
    assert parsed.gs.grade(0) == ()
    assert [kind.layer(parsed).maps for kind in KINDS] == [{}, {}, {}]


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


_GRAPH = "cells 0: a\ncells 1: f i\nsrc f = a\n"  # lines 1-3

# one input per ParseError message kind -> the exact str(err)
PARSE_ERRORS = {
    "frob a\n": "line 1: unknown declaration 'frob'",
    "structure A\nstructure B\n": "line 2: duplicate structure line",
    "structure\n": "line 1: expected: structure <name>",
    "dim 1\n\ndim 1\n": "line 3: duplicate dim line",
    "dim one\n": "line 1: expected: dim <natural number>",
    "threshold 0\nthreshold 0\n": "line 2: duplicate threshold line",
    "threshold -1\n": "line 1: expected: threshold <natural number>",
    "structure a=b\n": "line 1: invalid identifier 'a=b'",
    "cells 0: a b,c\n": "line 1: invalid identifier 'b,c'",
    "cells 0 a\n": "line 1: expected: cells <m>: <id> ...",
    "cells 0: a\ncells 0: b a\n": "line 2: cell a declared twice in grade 0",
    "dim 0\ncells 0: a\ncells 1: f\n": "line 3: cells declared in grade 1 above dim 0",
    # every cells line is read before the first src/tgt/refl/rev/comp line
    "src f\ncells 0: a a\n": "line 2: cell a declared twice in grade 0",
    _GRAPH + "src f a\n": "line 4: expected: src <id> = <id>",
    _GRAPH + "tgt f = (a)\n": "line 4: expected: tgt <id> = <id>",
    _GRAPH + "src f = a\n": "line 4: duplicate src declaration for f",
    _GRAPH + "tgt f = a\ntgt f = a\n": "line 5: duplicate tgt declaration for f",
    _GRAPH + "src g = a\n": "line 4: unresolved identifier 'g'",
    _GRAPH + "tgt f = b\n": "line 4: unresolved identifier 'b'",
    _GRAPH + "src a = f\n": "line 4: grade mismatch: no grade places src(a) = f",
    "dim 2\ncells 0: a\ncells 1: a x\ncells 2: x\nsrc x = a\n":
        "line 5: ambiguous declaration: src(x) = a fits grades [1, 2]",
    _GRAPH + "refl 0 a = i\n": "line 4: expected: refl <p> <m> <id> = <id>",
    _GRAPH + "refl 1 1 a = i\n": "line 4: refl indices need 0 <= p < m <= 1",
    _GRAPH + "refl 0 1 a = i\nrefl 0 1 a = f\n": "line 5: duplicate refl declaration for a",
    _GRAPH + "rev 1 0 f g\n": "line 4: expected: rev <m> <p> <id> = <id>",
    _GRAPH + "rev 2 0 f = f\n": "line 4: rev indices need 0 <= p < m <= 1",
    _GRAPH + "rev 1 0 f = i\nrev 1 0 f = f\n": "line 5: duplicate rev declaration for f",
    _GRAPH + "comp 1 0 f, i = f\n": "line 4: expected: comp <m> <p> (<id>, <id>) = <id>",
    _GRAPH + "comp 0 0 (f, i) = f\n": "line 4: comp indices need 0 <= p < m <= 1",
    _GRAPH + "comp 1 0 (f, i) = f\ncomp 1 0 (f, i) = i\n": "line 5: duplicate comp declaration for (f, i)",
    _GRAPH + "comp 1 0 (f, i) = x\n": "line 4: unresolved identifier 'x'",
    _GRAPH + "refl 0 1 f = i\n": "line 4: grade mismatch: f is not a 0-cell (found in [1])",
    _GRAPH + "comp 1 0 (f, a) = i\n": "line 4: grade mismatch: a is not a 1-cell (found in [0])",
    "structure big\ndim 10001\n": "line 2: dim 10001 is above the cap 10000",
    "cells 0: a\ncells 100000: f\n": "line 2: cells grade 100000 is above the cap 10000",
    # numbers too long for int() (more than 4,300 digits)
    _GRAPH + "refl " + "1" * 5000 + " 1 a = i\n": "line 4: refl indices need 0 <= p < m <= 1",
    _GRAPH + "rev 1 " + "1" * 5000 + " f = f\n": "line 4: rev indices need 0 <= p < m <= 1",
    _GRAPH + "comp " + "1" * 5000 + " 0 (f, i) = f\n": "line 4: comp indices need 0 <= p < m <= 1",
    # two indices that int() reads one by one, but not together
    _GRAPH + "comp 1 " + "0" * 4300 + " (f, i) = f\n": "line 4: comp indices need 0 <= p < m <= 1",
    "structure big\nthreshold " + "9" * 5000 + "\n": "line 2: threshold " + "9" * 5000 + " is above the cap 10000",
}


@pytest.mark.parametrize("text", PARSE_ERRORS)
def test_parse_error_text(text):
    with pytest.raises(ParseError) as err:
        parse_structure(text)
    assert str(err.value) == PARSE_ERRORS[text]
    assert str(err.value) == f"line {err.value.line}: {err.value.message}"


def test_dim_at_the_cap_parses():
    assert MAX_DIM == 10_000
    parsed = parse_structure(f"dim {MAX_DIM}\ncells {MAX_DIM}: top\n")
    assert parsed.gs.max_dim == MAX_DIM
    assert parsed.gs.grade(MAX_DIM) == ("top",)


def test_a_number_too_long_to_convert_is_above_the_cap():
    for head in ("dim ", "cells "):
        with pytest.raises(ParseError) as err:
            parse_structure(head + "9" * 5000 + (": a\n" if head == "cells " else "\n"))
        assert err.value.message.endswith("is above the cap 10000")


# -- the one-pass reader against the line parser ------------------------------


def _group_text(n: int) -> list[str]:
    """Z_n as a one-object category: n^2 comp lines."""
    g = [f"g{i}" for i in range(n)]
    lines = ["structure Z", "dim 1", "cells 0: o", "cells 1: " + " ".join(g)]
    lines += [f"{face} {x} = o" for x in g for face in ("src", "tgt")]
    lines += ["refl 0 1 o = g0"]
    return lines + [f"comp 1 0 ({g[i]}, {g[j]}) = {g[(i + j) % n]}" for i in range(n) for j in range(n)]


def _graph_lines(name: str, g) -> list[str]:
    nm = NMagma.of(g, 0, {}, {}, {})
    return emit_structure(dsl.ParsedStructure(nm.magma, nm.rev, name)).splitlines()


# names in several grades: a src/tgt line fits one grade, and a mutant may fit none or two
REUSED = """
structure R
dim 2
threshold 1
cells 0: o a1
cells 1: o i g1
cells 2: i a1
src o = o
tgt o = a1
src i = a1
tgt i = a1
src g1 = o
tgt g1 = o
src a1 = g1
tgt a1 = g1
src i = g1
tgt i = g1
refl 0 1 o = o
refl 0 1 a1 = i
refl 1 2 g1 = a1
rev 2 1 i = a1
rev 2 1 a1 = i
comp 1 0 (o, o) = o
comp 2 1 (a1, i) = a1
comp 2 0 (i, i) = i
"""

_TOKENS = ["comp", "src", "refl", "rev", "cells", "(", ")", ",", "=", "#", "0", "1", "2", "9",
           "\u0661", "\U0001d7d9", "1" * 5000, "0" * 3000 + "1", "undeclared", "g1", "a1", "o", "i", ""]
# blanks and line breaks: str.split and strip take them all as blanks, str.splitlines
# breaks at \r \x0b \x0c \x1c \x85 \u2028 as well as \n, and re's ^ and $ only at \n
_BLANKS = [" ", "\t", "  ", "\u3000", "\x0c", "\x0b", "\x85", "\r", "\u2028", "\x1c", "\x1f"]


def _mutant(lines: list[str], rng: random.Random) -> str:
    """A seeded mutant: lines dropped, repeated, swapped, merged or edited token by token,
    comments and blanks around comp lines, odd digits, repeated keys, unresolved names
    and odd line breaks."""
    lines = list(lines)
    for _ in range(rng.randint(1, 4)):
        k = rng.randrange(len(lines))
        kind = rng.randrange(10)
        if kind == 0:
            del lines[k]
        elif kind == 1:
            lines.insert(rng.randrange(len(lines) + 1), lines[k])
        elif kind == 2:
            j = rng.randrange(len(lines))
            lines[k], lines[j] = lines[j], lines[k]
        elif kind == 3:
            tokens = lines[k].replace("(", "( ").replace(",", " , ").replace(")", " )").split(" ")
            tokens[rng.randrange(len(tokens))] = rng.choice(_TOKENS)
            lines[k] = " ".join(tokens)
        elif kind == 4:
            lines[k] += rng.choice([" # note", "#x", "\t# comp 1 0 (a, b) = c", " #"])
        elif kind == 5:
            lines[k] = rng.choice(_BLANKS) + lines[k]
        elif kind == 6:
            at = rng.randrange(len(lines[k]) + 1)
            lines[k] = lines[k][:at] + rng.choice(_BLANKS + _TOKENS[:12]) + lines[k][at:]
        elif kind == 7:  # a repeated key with another value
            lines.insert(rng.randrange(len(lines) + 1), lines[k].rsplit("=", 1)[0] + "= " + rng.choice(["g2", "a2", "o"]))
        elif kind == 8 and len(lines) > 1:  # two lines on one, maybe a break after a comment
            j = rng.choice([i for i in range(len(lines)) if i != k])
            lines[k] += rng.choice(["", "", " #", "# c"]) + rng.choice(_BLANKS) + lines[j]
            del lines[j]
        else:
            lines[k] = lines[k].replace(rng.choice(["g1", "a1", "e1", "x1", "o"]), rng.choice(["undeclared", "g1", "a0"]))
    if rng.random() < 0.3:
        return "".join(line + rng.choice(["\n"] * 8 + _BLANKS[4:10] + ["\r\n"]) for line in lines)
    return rng.choice(["\n", "\r\n", "\n\n"]).join(lines) + rng.choice(["\n", "", "\r\n"])


def _outcome(parse, text: str):
    try:
        parsed = parse(text)
    except Exception as exc:  # the comparison covers every exception, not only ParseError
        return type(exc), str(exc)
    tables = [[(k, list(t.items())) for k, t in kind.layer(parsed).maps.items()] for kind in KINDS]
    declared = {m: {x: x for x in parsed.gs.grade(m)} for m in range(parsed.gs.max_dim + 1)}
    assert all(declared[m][nm] is nm for m, nm in _table_names(parsed))
    return parsed, tables


def _wording(message: str) -> str:
    """What a ParseError says, without its line number and names: `expected: src`, `unresolved identifier`, ..."""
    message = message.split(": ", 1)[1]
    for what in ("ambiguous declaration", "grade mismatch: no grade places", "grade mismatch", "unresolved identifier",
                 "indices need", "declared twice", "invalid identifier", "unknown declaration", "above"):
        if what in message:
            return what
    return " ".join(message.split()[:2])  # `expected: src`, `duplicate refl`, ...


# every table head refused every way that its lines can be
_TABLE_WORDINGS = {f"{how} {head}" for head in ("src", "tgt", "refl", "rev", "comp") for how in ("expected:", "duplicate")}
_TABLE_WORDINGS |= {"ambiguous declaration", "grade mismatch: no grade places", "grade mismatch", "unresolved identifier",
                    "indices need"}


def test_the_reader_knows_every_blank_and_break():
    chars = list(map(chr, range(sys.maxunicode + 1)))
    spaces = [c for c in chars if c.isspace()]
    assert len("".join(c for c in chars if not c.isspace()).splitlines()) == 1  # every line break is whitespace
    breaks = {c for c in spaces if len(f"a{c}b".splitlines()) == 2}
    latin1 = "".join(chars[:256])
    assert re.findall(f"[{dsl._SPACE}]", latin1) == [c for c in spaces if c <= "\xff"]
    assert re.findall(f"[{dsl._BREAK}]", latin1) == sorted(c for c in breaks if c <= "\xff")
    assert re.findall(dsl._B, latin1) == [c for c in spaces if c <= "\xff" and c not in breaks]
    wide = {chr(c): to for c, to in dsl._WIDE.items()}  # read as a Latin-1 break, or a blank
    assert sorted(wide) == [c for c in spaces if c > "\xff"]
    assert all((to == "\x0b") == (c in breaks) for c, to in wide.items())


def test_one_pass_agrees_with_the_line_parser_on_mutants():
    rng = random.Random(20121803)
    bases = [_group_text(5), abelian_2cat_lines(3), _graph_lines("P", two_edge_graph()), _graph_lines("B", bouquet(3)),
             WALKING_ISO.strip().splitlines(), REUSED.strip().splitlines()]
    outcomes = Counter()
    for n in range(7200):
        text = _mutant(bases[n % len(bases)], rng)
        fast, line = _outcome(parse_structure, text), _outcome(parse_lines, text)
        assert fast == line, text
        outcomes["parsed" if isinstance(fast[0], dsl.ParsedStructure) else _wording(fast[1])] += 1
    assert outcomes["parsed"] > 1200 and outcomes.total() - outcomes["parsed"] > 3000  # both outcomes are common
    assert _TABLE_WORDINGS <= outcomes.keys()


def _spy_on_refusals(monkeypatch) -> list:
    """The calls that word a refused table line, made through a stand-in that counts them."""
    calls, refusal = [], dsl._refusal
    monkeypatch.setattr(dsl, "_refusal", lambda *args: calls.append(args) or refusal(*args))
    return calls


def test_the_one_pass_reads_every_comp_line_of_z100(monkeypatch):
    text = "\n".join(_group_text(100)) + "\n"
    line = parse_lines(text)
    calls = _spy_on_refusals(monkeypatch)
    parsed = parse_structure(text)
    assert calls == []  # no line was refused
    assert _outcome(lambda _: parsed, text) == _outcome(lambda _: line, text)
    assert len(parsed.magma.comp.table(1, 0)) == 10_000


def test_an_unresolved_name_on_the_last_of_10k_comp_lines(monkeypatch):
    lines = _group_text(100)
    lines[-1] = lines[-1].rsplit("=", 1)[0] + "= undeclared"
    calls = _spy_on_refusals(monkeypatch)
    with pytest.raises(ParseError) as err:
        parse_structure("\n".join(lines) + "\n")
    assert str(err.value) == f"line {len(lines)}: unresolved identifier 'undeclared'"
    assert err.value.line == len(lines) == 10_205
    assert len(calls) == 1  # one line worded, not the 10k before it


def test_the_chain_at_max_dim_parses_in_linear_time():
    # every src/tgt line took the grade of its name from a scan of all 10,001 grades: 4.3 s
    lines = [f"dim {MAX_DIM}"] + [f"cells {m}: c{m}" for m in range(MAX_DIM + 1)]
    lines += [f"{face} c{m} = c{m - 1}" for m in range(1, MAX_DIM + 1) for face in ("src", "tgt")]
    start = time.perf_counter()
    gs = parse_structure("\n".join(lines) + "\n").gs
    assert time.perf_counter() - start < 1.0
    assert len(lines) == 30_002 and gs.max_dim == MAX_DIM
    assert all(gs.grade(m) == (f"c{m}",) for m in range(MAX_DIM + 1))
    assert all(gs.map("source", m) == gs.map("target", m) == {f"c{m}": f"c{m - 1}"} for m in range(1, MAX_DIM + 1))


Z100_ERRORS = {  # {line number: its new text} in Z100 -> the line parser's message
    "unresolved-in-the-middle": (
        {5206: "comp 1 0 (g50, g0) = nowhere"}, "line 5206: unresolved identifier 'nowhere'"),
    "repeated-key-in-the-middle": (
        {5206: "comp 1 0 (g0, g7) = g7"}, "line 5206: duplicate comp declaration for (g0, g7)"),
    "index-above-dim-twice": (
        {506: "comp 2 0 (g3, g0) = g3", 806: "comp 2 0 (g6, g0) = g6"},
        "line 506: comp indices need 0 <= p < m <= 1"),
    "bad-src-before-an-unresolved-name": (
        {5: "src g0 o", 9206: "comp 1 0 (g90, g0) = nowhere"}, "line 5: expected: src <id> = <id>"),
    "unresolved-before-a-bad-src": (
        {226: "comp 1 0 (g0, g20) = nowhere", 10205: "src g0 o"}, "line 226: unresolved identifier 'nowhere'"),
}
Z100_REFUSALS = {  # kind -> the text of comp row (y, x) = z written with head, and the message it gets at that line
    "unresolved": (lambda head, y, x, z: f"{head} (g{y}, g{x}) = nowhere", "unresolved identifier 'nowhere'"),
    "wrong-grade": (lambda head, y, x, z: f"{head} (o, g{x}) = g{z}", "grade mismatch: o is not a 1-cell (found in [0])"),
    "repeated-key": (lambda head, y, x, z: f"{head} (g0, g{int(y == x == 0)}) = g{z}", "duplicate comp declaration for"),
    "index-out-of-range": (
        lambda head, y, x, z: f"{head.replace('1', '2', 1)} (g{y}, g{x}) = g{z}", "comp indices need 0 <= p < m <= 1"),
}
# each refusal on the first, a middle and the last of the 10k comp rows, its key spelt as every other row's or not;
# the first row given the key (g0, g1) of the second is refused on the second, the others given (g0, g0) on theirs
Z100_ERRORS.update(
    (f"{kind}-on-row-{row}-spelt-{head.replace(' ', '_')}", (
        {206 + row: text(head, row // 100, row % 100, sum(divmod(row, 100)) % 100)},
        f"line 207: {message} (g0, g1)" if kind == "repeated-key" and row == 0 else
        f"line {206 + row}: {message}" + " (g0, g0)" * (kind == "repeated-key")))
    for kind, (text, message) in Z100_REFUSALS.items() for row in (0, 5000, 9999) for head in ("comp 1 0", "comp 1  0")
)

_PATH = _graph_lines("P", globular_set(  # a path of 3,000 edges: 6,005 lines, the last `tgt e999 = p999`
    1, {0: [f"p{i}" for i in range(3001)], 1: [f"e{i}" for i in range(1, 3001)]},
    src={1: {f"e{i}": f"p{i - 1}" for i in range(1, 3001)}}, tgt={1: {f"e{i}": f"p{i}" for i in range(1, 3001)}}))

PATH_ERRORS = {  # {line number: its new text} in the path, a number past its end adding a line -> the message
    "src-unresolved": ({6005: "tgt e999 = nowhere"}, "line 6005: unresolved identifier 'nowhere'"),
    "src-repeated": ({6005: "tgt e1 = p1"}, "line 6005: duplicate tgt declaration for e1"),
    "src-no-grade": ({6005: "src p3 = e1"}, "line 6005: grade mismatch: no grade places src(p3) = e1"),
    "src-ambiguous": (
        {2: "dim 2", 6006: "cells 0: q", 6007: "cells 1: q r", 6008: "cells 2: r", 6009: "src r = q"},
        "line 6009: ambiguous declaration: src(r) = q fits grades [1, 2]"),
    "src-malformed": ({6005: "tgt e999 p999"}, "line 6005: expected: tgt <id> = <id>"),
    "refl-unresolved": ({6006: "refl 0 1 p3000 = nowhere"}, "line 6006: unresolved identifier 'nowhere'"),
    "refl-mismatch": ({6006: "refl 0 1 e1 = e2"}, "line 6006: grade mismatch: e1 is not a 0-cell (found in [1])"),
    "refl-repeated": (
        {6006: "refl 0 1 p0 = e1", 6007: "refl 0 01 p0 = e2"}, "line 6007: duplicate refl declaration for p0"),
    "rev-out-of-range": ({6006: "rev 2 0 e1 = e1"}, "line 6006: rev indices need 0 <= p < m <= 1"),
    "rev-pair": ({6006: "rev 1 0 (e1, e2) = e1"}, "line 6006: expected: rev <m> <p> <id> = <id>"),
    "rev-repeated": ({6006: "rev 1 0 e1 = e2", 6007: "rev 1 0 e1 = e3"}, "line 6007: duplicate rev declaration for e1"),
    "rev-after-a-bad-tgt": ({6005: "tgt e999 = nowhere", 6006: "rev 2 0 e1 = e1"},
                            "line 6005: unresolved identifier 'nowhere'"),
    "cells-after-a-bad-rev": ({6006: "rev 2 0 e1 = e1", 6007: "cells 0: p0"}, "line 6007: cell p0 declared twice in grade 0"),
}


def _assert_worded_as_the_line_parser_words_it(lines: list[str], edits: dict[int, str], message: str, monkeypatch):
    lines = list(lines)
    for lineno, line in sorted(edits.items()):
        lines[lineno - 1 : lineno] = [line]
    text = "\n".join(lines) + "\n"
    assert _outcome(parse_lines, text) == (ParseError, message)
    calls = _spy_on_refusals(monkeypatch)
    assert _outcome(parse_structure, text) == (ParseError, message)
    assert len(calls) == (not message.endswith("grade 0"))  # a cells error comes before every table line


@pytest.mark.parametrize("name", sorted(Z100_ERRORS))
def test_a_failing_z100_is_worded_as_the_line_parser_words_it(name, monkeypatch):
    _assert_worded_as_the_line_parser_words_it(_group_text(100), *Z100_ERRORS[name], monkeypatch)


@pytest.mark.parametrize("name", sorted(PATH_ERRORS))
def test_a_failing_path_is_worded_as_the_line_parser_words_it(name, monkeypatch):
    _assert_worded_as_the_line_parser_words_it(_PATH, *PATH_ERRORS[name], monkeypatch)


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


def _payload_report(report: ValidationReport) -> str:
    """The canonical report as json.dumps writes its payload: the form emit_report writes directly."""
    rep = report.sorted()
    payload = {
        "subject": rep.subject,
        "valid": rep.valid,
        "violations": [
            {"axiom": v.axiom, "law": v.law, "cells": list(v.cells), "detail": v.detail} for v in rep.violations
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


_odd_text = st.text(alphabet=['"', "\\", "\n", "\x00", "\x1f", "\x7f", "é", "\u2028", "😀", "a", " ", "."])


@given(_odd_text, st.lists(st.tuples(_odd_text, _odd_text, st.lists(_odd_text, max_size=3), _odd_text), max_size=5))
def test_emit_report_writes_what_json_dumps_writes(subject, entries):
    rep = ValidationReport(subject)
    for axiom, law, cells, detail in entries:
        rep.add(axiom, law, tuple(cells), detail)
    assert emit_report(rep) == _payload_report(rep)


def test_report_deterministic_ordering():
    rep = ValidationReport("s")
    rep.add("units.left", "law", ("b",), "two")
    rep.add("assoc.triple", "law", ("a",), "one")
    text = emit_report(rep)
    first = text.index("assoc.triple")
    second = text.index("units.left")
    assert first < second
