"""Bounded stretchings: a magma over a strict structure with coherence cells.

A stretching pairs a magma-with-reversors M with a strict structure C
through a graded projection pi and a bracket table.  A bracket cell
B = [c1, c0]_m is an (m+1)-cell witnessing that the parallel, pi-equal
m-cells c1 and c0 agree after strictification:

    tgt(B) = c1,   src(B) = c0,   pi(B) = refl[m][m+1](pi(c1)),

and the diagonal bracket [c, c]_m is the degenerate cell refl[m][m+1](c).

generate_free_stretching builds the free bounded instance on a generating
graph: M holds every term of size <= S and dimension <= D, closed under the
constructors, with a bracket admitted exactly when its arguments are
parallel and strictify equally.  C is the normal-form fragment the stored
cells project onto, and its comp and rev tables are the image of M's along
pi; its refl tables lift every C-cell, so that degenerate cells exist on the
faces too.  Tables are partial at the size boundary, so validators on the
pieces should run with require_total=False.

induced_algebra_magma reads an algebra off the free side the same way: its
tables are the image along the structure map v of the free entries whose
names are images of the unit lam.

Every job on tables (the images above, the checks of validate_stretching,
and the dump writer and reader) loops over magma.KINDS, which declares the
three table kinds of an n-magma once.

A dump spells each grade as the writer does, in ASCII digits without a
leading zero, and holds one row per pair; load_stretching rejects any
other spelling and any repeated row, so no entry can shadow another.
"""

from __future__ import annotations

import json
import re
from operator import attrgetter
from typing import Callable, Mapping, TextIO

from ._record import Record
from .globular import TruncatedGlobularSet, globular_set, parallel, validate_globular
from .magma import KINDS, Kind, NMagma
from .normalform import Strictifier
from .report import ValidationReport
from .terms import StretchTerm, TermContext

LAW_PI_MORPHISM = "the projection onto the strict side preserves all structure"
LAW_TABLE_DOMAIN = "a table entry names cells of the grades its table is keyed by"
LAW_BRACKET_FACES = "a bracket cell has its first argument as target and its second as source"
LAW_BRACKET_PROJ = "a bracket cell projects to the degenerate cell on its target's image"
LAW_BRACKET_DIAG = "the diagonal bracket is the degenerate cell"
LAW_BRACKET_DOMAIN = "brackets pair parallel cells with equal strictification"
LAW_THRESHOLD = "both sides are n-magmas for the stretching's threshold n"


class UnsupportedDimensionError(ValueError):
    """The requested truncation exceeds what free generation supports."""


class InvalidGraphError(ValueError):
    """The generating graph is not a well-formed globular set; .report says why."""

    def __init__(self, report: ValidationReport):
        super().__init__("the generating graph is not a well-formed globular set")
        self.report = report


class SectionViolationError(ValueError):
    """v o lam is not the identity, or v does not commute with boundaries."""


def _image(kind: Kind, maps: Mapping, names: Mapping[int, Mapping], values: Mapping[int, Mapping]) -> dict:
    """The tables maps of kind carried along graded maps: each entry's names
    along names and its value along values.  A table is carried where both maps
    have its grades, and an entry where names has all its names."""
    out = {}
    for key, table in maps.items():
        g, h = key[kind.names], key[kind.value]
        if g in names and h in values:
            f, fv = names[g], values[h]
            if kind.arity == 1:
                out[key] = {f[x]: fv[z] for x, z in table.items() if x in f}
            else:
                out[key] = {(f[y], f[x]): fv[z] for (y, x), z in table.items() if y in f and x in f}
    return out


def _nmagma(
    D: int, n: int, objects: Mapping[int, Mapping[str, object]], faces: tuple[Callable, Callable], *tables: Mapping
) -> NMagma:
    """The n-magma whose m-cells are the names of objects[m], with the faces
    faces[0](o).name and faces[1](o).name, carrying the tables of each kind."""
    src, tgt = ({m: {nm: face(o).name for nm, o in objects[m].items()} for m in range(1, D + 1)} for face in faces)
    return NMagma.of(globular_set(D, objects, src, tgt), n, *tables)


class Stretching(Record):
    __slots__ = _fields = ("m_side", "c_side", "threshold", "pi", "brackets", "terms")
    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None
    _defaults = {"terms": dict}

    def pi_of(self, m: int, x: str) -> str | None:
        return self.pi.get(m, {}).get(x)


def validate_stretching(E: Stretching) -> ValidationReport:
    """Bracket axioms plus pi being a magma-and-reversor morphism on stored cells.

    A table entry on either side whose names or value are not cells of the
    grades its key gives is a table-domain violation, and pi is not checked on it.
    """
    rep = ValidationReport("stretching")
    mgs, cgs = E.m_side.magma.gs, E.c_side.magma.gs

    for m in range(mgs.max_dim + 1):
        for x in mgs.grade(m):
            px = E.pi_of(m, x)
            if px is None:
                rep.add("stretching.pi-total", LAW_PI_MORPHISM, (x,), f"pi misses the {m}-cell {x}")
            elif not cgs.has_cell(m, px):
                rep.add(
                    "stretching.pi-total", LAW_PI_MORPHISM, (x, px),
                    f"pi({x}) = {px} is not an {m}-cell of the strict side",
                )
    if not rep.valid:
        return rep

    for side, nm in (("m_side", E.m_side), ("c_side", E.c_side)):
        if nm.threshold != E.threshold:
            rep.add("stretching.threshold", LAW_THRESHOLD, (),
                    f"{side}: threshold {nm.threshold} differs from the stretching's threshold {E.threshold}")

    for m in range(1, mgs.max_dim + 1):
        for x in mgs.grade(m):
            px = E.pi_of(m, x)
            for side, axiom in (("source", "stretching.pi-src"), ("target", "stretching.pi-tgt")):
                want = E.pi_of(m - 1, mgs.map(side, m)[x])
                got = cgs.map(side, m).get(px)
                if got != want:
                    rep.add(
                        axiom, LAW_PI_MORPHISM, (x,),
                        f"pi({side}({x})) = {want} but {side}(pi({x})) = {got}",
                    )

    for kind in KINDS:
        c_tables, binary = kind.layer(E.c_side).maps, kind.arity == 2
        for side, nm in (("m_side", E.m_side), ("c_side", E.c_side)):
            cells, max_dim = nm.magma.gs.cell_sets, nm.magma.gs.max_dim
            for key, table in sorted(kind.layer(nm).maps.items()):
                if not kind.fits(key, max_dim, nm.threshold):
                    rep.add(
                        "stretching.table-domain", LAW_TABLE_DOMAIN, (),
                        f"{side}: {kind.name} table {key[0]}.{key[1]} is outside the range "
                        f"{kind.span(max_dim, nm.threshold)}",
                    )
                    continue
                g, h = key[kind.names], key[kind.value]
                names, values, ctable = cells.get(g, frozenset()), cells.get(h, ()), c_tables.get(key, {})
                pg, ph = E.pi.get(g, {}), E.pi.get(h, {})
                for entry, z in sorted(table.items()):
                    args = entry if binary else (entry,)
                    if z not in values or not names.issuperset(args):
                        rep.add(
                            "stretching.table-domain", LAW_TABLE_DOMAIN, (*args, z),
                            f"{side}: {kind.term.format(*key, *args)} = {z} names a cell outside grade {g} "
                            f"(arguments) or {h} (value)",
                        )
                    elif side == "m_side":
                        got = ctable.get((pg[entry[0]], pg[entry[1]]) if binary else pg[entry])
                        if got != ph[z]:
                            rep.add(
                                f"stretching.pi-{kind.name}", LAW_PI_MORPHISM, args,
                                f"pi({kind.term.format(*key, *args)}) = {ph[z]} but the strict {kind.noun} is {got}",
                            )

    for (m, c1, c0), B in sorted(E.brackets.items()):
        if not (mgs.has_cell(m, c1) and mgs.has_cell(m, c0) and mgs.has_cell(m + 1, B)):
            rep.add(
                "stretching.bracket-domain", LAW_BRACKET_DOMAIN, (c1, c0, B),
                f"bracket ({m}, {c1}, {c0}) -> {B} mentions undeclared cells",
            )
            continue
        if m >= 1 and not parallel(mgs, m, c1, c0):
            rep.add(
                "stretching.bracket-domain", LAW_BRACKET_DOMAIN, (c1, c0),
                f"bracket arguments {c1}, {c0} are not parallel",
            )
        if E.pi_of(m, c1) != E.pi_of(m, c0):
            rep.add(
                "stretching.bracket-domain", LAW_BRACKET_DOMAIN, (c1, c0),
                f"bracket arguments project differently: {E.pi_of(m, c1)} vs {E.pi_of(m, c0)}",
            )
        if mgs.map("target", m + 1)[B] != c1:
            rep.add(
                "stretching.bracket-target", LAW_BRACKET_FACES, (B, c1),
                f"tgt({B}) = {mgs.map('target', m + 1)[B]}, expected {c1}",
            )
        if mgs.map("source", m + 1)[B] != c0:
            rep.add(
                "stretching.bracket-source", LAW_BRACKET_FACES, (B, c0),
                f"src({B}) = {mgs.map('source', m + 1)[B]}, expected {c0}",
            )
        want = E.c_side.magma.refl.table(m, m + 1).get(E.pi_of(m, c1))
        if want is None or E.pi_of(m + 1, B) != want:
            rep.add(
                "stretching.bracket-proj", LAW_BRACKET_PROJ, (B,),
                f"pi({B}) = {E.pi_of(m + 1, B)}, expected the degenerate cell {want}",
            )
        if c1 == c0:
            refl_c = E.m_side.magma.refl.table(m, m + 1).get(c1)
            if B != refl_c:
                rep.add(
                    "stretching.bracket-diagonal", LAW_BRACKET_DIAG, (B, c1),
                    f"[{c1},{c1}] = {B}, expected the degenerate cell {refl_c}",
                )
    return rep


def generate_free_stretching(g: TruncatedGlobularSet, n: int, D: int, S: int) -> Stretching:
    """All terms of size <= S and dimension <= D over g, with brackets.

    Deterministic: grades are sorted by (size, name), brackets are stored
    once per unordered pair with the larger term as target.  A graph that
    is not a well-formed globular set raises InvalidGraphError.
    """
    if min(n, D, S) < 0:
        raise ValueError(f"the bounds n, D, S must be >= 0, got n={n}, D={D}, S={S}")
    if D > 3:
        raise UnsupportedDimensionError(f"free stretching generation supports dimension <= 3, got {D}")
    rep = validate_globular(g)
    if not rep.valid:
        raise InvalidGraphError(rep)
    strict = Strictifier(g, n)
    ctx = TermContext(g, n, strict)

    order = lambda t: (t.size, t.name)
    by_size: dict[int, list[StretchTerm]] = {}
    terms: dict[int, dict[str, StretchTerm]] = {m: {} for m in range(D + 1)}
    # terms bucketed by the p-target boundary and size, for composability lookups
    tgt_bucket: dict[tuple[int, int, str, int], list[StretchTerm]] = {}
    # terms bucketed by (faces, strict image, size), for bracket pairing
    par_bucket: dict[tuple[int, str, str, str, int], list[StretchTerm]] = {}

    refl_maps: dict[tuple[int, int], dict[str, str]] = {(p, p + 1): {} for p in range(D)}
    rev_maps: dict[tuple[int, int], dict[str, str]] = {(m, p): {} for m in range(n + 1, D + 1) for p in range(n, m)}
    comp_maps: dict[tuple[int, int], dict[tuple[str, str], str]] = {
        (m, p): {} for m in range(1, D + 1) for p in range(m)
    }
    bracket_pairs: dict[tuple[int, str, str], StretchTerm] = {}

    def par_key(t: StretchTerm) -> tuple[int, str, str, str]:
        if t.dim == 0:
            return (0, "", "", strict.pi(t).name)
        return (t.dim, t.src.name, t.tgt.name, strict.pi(t).name)

    def admit(t: StretchTerm) -> None:
        d, nm = t.dim, t.name
        if d > D or nm in terms[d]:
            return
        terms[d][nm] = t
        by_size.setdefault(t.size, []).append(t)
        face = t
        for p in range(d - 1, -1, -1):
            face = face.tgt
            tgt_bucket.setdefault((d, p, face.name, t.size), []).append(t)
        if d + 1 <= D:
            par_bucket.setdefault(par_key(t) + (t.size,), []).append(t)

    for m in range(min(D, g.max_dim) + 1):
        for c in g.grade(m):
            admit(ctx.gen(c))

    for s in range(2, S + 1):
        # unary constructors on terms of size s-1
        for t in list(by_size.get(s - 1, [])):
            d = t.dim
            if d + 1 <= D:
                u = ctx.refl(d, d + 1, t)
                admit(u)
                refl_maps[(d, d + 1)][t.name] = u.name
            for p in range(n, d):
                u = ctx.rev(d, p, t)
                admit(u)
                rev_maps[(d, p)][t.name] = u.name
        # binary constructors with argument sizes summing to s-1
        for s1 in range(1, s - 1):
            s0 = s - 1 - s1
            for t1 in list(by_size.get(s1, [])):
                d = t1.dim
                for p, face in enumerate(ctx.boundaries(t1, "source")):
                    for t0 in tgt_bucket.get((d, p, face.name, s0), []):
                        u = ctx.comp(d, p, t1, t0)
                        admit(u)
                        comp_maps[(d, p)][(t1.name, t0.name)] = u.name
                if d + 1 <= D and d >= 1:
                    for t0 in par_bucket.get(par_key(t1) + (s0,), []):
                        if order(t1) <= order(t0):
                            continue
                        B = ctx.bracket(d, t1, t0)
                        admit(B)
                        bracket_pairs[(d, t1.name, t0.name)] = B

    # the magma side, then the strict fragment its cells project onto, closed
    # under faces and degenerate cells; comp and rev there are images along pi
    m_side = _nmagma(D, n, terms, (attrgetter("src"), attrgetter("tgt")), refl_maps, rev_maps, comp_maps)
    images = {m: {nm: strict.pi(t) for nm, t in terms[m].items()} for m in range(D + 1)}
    pi_tables = {m: {nm: nf.name for nm, nf in images[m].items()} for m in images}
    nfs = {m: {nf.name: nf for nf in images[m].values()} for m in images}
    for m in range(D, 0, -1):
        for nf in nfs[m].values():
            for face in (strict.src_nf(nf), strict.tgt_nf(nf)):
                nfs[m - 1].setdefault(face.name, face)
    c_refl: dict[tuple[int, int], dict[str, str]] = {}
    for p in range(D):
        c_refl[(p, p + 1)] = table = {}
        for nm, nf in nfs[p].items():
            lifted = strict.refl_lift(nf)
            table[nm] = lifted.name
            nfs[p + 1].setdefault(lifted.name, lifted)
    c_rev, c_comp = (_image(kind, kind.layer(m_side).maps, pi_tables, pi_tables) for kind in KINDS[1:])
    c_side = _nmagma(D, n, nfs, (strict.src_nf, strict.tgt_nf), c_refl, c_rev, c_comp)
    brackets = {key: B.name for key, B in bracket_pairs.items()}
    brackets.update(((p, x, x), ix) for (p, _), table in refl_maps.items() for x, ix in table.items())
    return Stretching(m_side, c_side, n, pi_tables, brackets, terms)


def induced_algebra_magma(
    E: Stretching,
    G: TruncatedGlobularSet,
    v: Mapping[int, Mapping[str, str]],
    lam: Mapping[int, Mapping[str, str]],
) -> NMagma:
    """Transport the free structure along a retraction v with section lam.

    comp(a, b) = v(comp(lam a, lam b)), refl(a) = v(refl(lam a)), and
    rev(a) = v(rev(lam a)); entries exist where the free side stores the
    needed operation.  As v o lam = id, these tables are the image along v
    of the free entries whose names are lam-images.
    """
    mgs = E.m_side.magma.gs
    for m in range(G.max_dim + 1):
        for a in G.grade(m):
            la = lam.get(m, {}).get(a)
            if la is None or not mgs.has_cell(m, la):
                raise SectionViolationError(f"lam misses the {m}-cell {a}")
            if v.get(m, {}).get(la) != a:
                raise SectionViolationError(f"v(lam({a})) = {v.get(m, {}).get(la)}, expected {a}")
    for m in range(1, min(mgs.max_dim, G.max_dim) + 1):
        for x in mgs.grade(m):
            vx = v.get(m, {}).get(x)
            if vx is None:
                raise SectionViolationError(f"v misses the {m}-cell {x}")
            for side in ("source", "target"):
                if v[m - 1][mgs.map(side, m)[x]] != G.map(side, m).get(vx):
                    raise SectionViolationError(f"v does not commute with {side} at {x}")

    grades = range(G.max_dim + 1)
    names = {m: {lam[m][a]: a for a in G.grade(m)} for m in grades}  # v on the lam-images
    values = {m: v.get(m, {}) for m in grades}
    return NMagma.of(G, E.threshold, *(_image(kind, kind.layer(E.m_side).maps, names, values) for kind in KINDS))


# -- serialization ------------------------------------------------------


def _nmagma_payload(nm: NMagma) -> dict:
    gs = nm.magma.gs
    return {
        "max_dim": gs.max_dim,
        "threshold": nm.threshold,
        "cells": {str(m): list(gs.grade(m)) for m in range(gs.max_dim + 1)},
        "src": {str(m): dict(gs.map("source", m)) for m in range(1, gs.max_dim + 1)},
        "tgt": {str(m): dict(gs.map("target", m)) for m in range(1, gs.max_dim + 1)},
        **{kind.name: {  # a table of pairs as [y, x, z] rows
            f"{i}.{j}": dict(t) if kind.arity == 1 else [[y, x, z] for (y, x), z in sorted(t.items())]
            for (i, j), t in sorted(kind.layer(nm).maps.items())
        } for kind in KINDS},
    }


_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer", float: "number",
               bool: "boolean", type(None): "null"}


def _typed(value, kind: type, where: str):
    """value itself if it has the JSON type kind; a one-line ValueError otherwise."""
    if not isinstance(value, kind) or (kind is int and isinstance(value, bool)):
        found = _JSON_TYPES.get(type(value), type(value).__name__)
        where = " ".join(where.splitlines())  # a cell name may hold a newline
        raise ValueError(f"{where}: expected a JSON {_JSON_TYPES[kind]}, got {found}")
    return value


def _key(obj: dict, key: str, kind: type, where: str):
    if key not in obj:
        raise ValueError(f"{where}: missing key {key!r}")
    return _typed(obj[key], kind, f"{where}.{key}")


def _names(value, where: str) -> list[str]:
    for x in _typed(value, list, where):
        if not isinstance(x, str):
            _typed(x, str, where)
    return value


def _name_map(value, where: str) -> dict[str, str]:
    for x, y in _typed(value, dict, where).items():
        if not isinstance(y, str):
            _typed(y, str, f"{where}.{x}")
    return value


def _rows(value, kinds: tuple[type, ...], where: str) -> list[list]:
    """A JSON array of arrays whose items have the JSON types in kinds, in order."""
    for row in _typed(value, list, where):
        if len(_typed(row, list, where)) != len(kinds):
            raise ValueError(f"{where}: expected rows of {len(kinds)} items, got {len(row)}")
        for x, kind in zip(row, kinds):
            if type(x) is not kind:
                _typed(x, kind, where)
    return value


def _unique(table: dict, rows: list[list], where: str) -> dict:
    """table, built from rows keyed by all their items but the last, unless two rows
    share a key: then a one-line ValueError naming the first key repeated."""
    if len(table) != len(rows):
        seen = set()
        for key in (tuple(row[:-1]) for row in rows):
            if key in seen:
                raise ValueError(f"{where}: repeated row for {key!r}")
            seen.add(key)
    return table


def _comp_rows(value, where: str) -> dict[tuple[str, str], str]:
    rows = _rows(value, (str, str, str), where)
    return _unique({(y, x): z for y, x, z in rows}, rows, where)


_GRADE = r"(0|[1-9][0-9]*)"  # a grade as the writer spells it: ASCII digits, no leading zero
_GRADES = {1: re.compile(_GRADE), 2: re.compile(rf"{_GRADE}\.{_GRADE}")}


def _graded(obj: dict, key: str, parts: int, where: str, entry) -> dict:
    """obj[key] re-keyed by its dotted grades ("m" or "m.p", spelt as the writer
    spells them), each value read by entry."""
    out = {}
    for k, v in _key(obj, key, dict, where).items():
        mt = _GRADES[parts].fullmatch(k)
        try:
            grades = tuple(map(int, mt.groups())) if mt else ()
        except ValueError:  # too long for int()
            grades = ()
        if len(grades) != parts:
            raise ValueError(f"{where}.{key}: key {k!r} is not of the form {'m' if parts == 1 else 'm.p'}")
        out[grades[0] if parts == 1 else grades] = entry(v, f"{where}.{key}.{k}")
    return out


def _nmagma_from_payload(payload: dict, where: str) -> NMagma:
    max_dim = _key(payload, "max_dim", int, where)
    cells = _graded(payload, "cells", 1, where, _names)
    # a dump lists every grade up to max_dim, which keeps the build as small as the text
    missing = next((m for m in range(max_dim + 1) if m not in cells), None)
    if max_dim < 0 or missing is not None:
        why = "is negative" if max_dim < 0 else f"names grade {missing}, which {where}.cells lacks"
        raise ValueError(f"{where}.max_dim: {max_dim} {why}")
    gs = globular_set(
        max_dim,
        cells,
        _graded(payload, "src", 1, where, _name_map),
        _graded(payload, "tgt", 1, where, _name_map),
    )
    tables = [_graded(payload, kind.name, 2, where, _name_map if kind.arity == 1 else _comp_rows) for kind in KINDS]
    return NMagma.of(gs, _key(payload, "threshold", int, where), *tables)


def _write_json(obj, write: Callable[[str], object]) -> None:
    """Write json.dumps(obj, sort_keys=True, indent=2) + "\n" through write.

    obj is a tree of dicts with str keys, lists, strs and ints; any other type
    raises TypeError.  A list of strs, or a dict of str values, is encoded by one
    join.  write gets the pieces joined, about 64K characters at a time.
    """
    encode = json.encoder.encode_basestring_ascii  # what json.dumps uses under ensure_ascii
    parts: list[str] = []
    pending = 0  # characters in the joins held in parts

    def flush() -> None:
        nonlocal pending
        write("".join(parts))
        parts.clear()
        pending = 0

    def emit(x, nl: str) -> None:  # nl: newline and indentation of x's line
        nonlocal pending
        if isinstance(x, str):
            parts.append(encode(x))
        elif isinstance(x, int) and not isinstance(x, bool):
            parts.append(int.__repr__(x))
        elif not isinstance(x, (list, dict)):
            raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
        elif not x:
            parts.append("{}" if isinstance(x, dict) else "[]")
        else:
            is_dict = isinstance(x, dict)
            opening, closing = "{}" if is_dict else "[]"
            items = sorted(x) if is_dict else x  # unique keys: json's order of sorted items
            inner = nl + "  "
            sep = "," + inner
            parts.append(opening + inner)
            try:
                body = sep.join([encode(k) + ": " + encode(x[k]) for k in items] if is_dict else map(encode, items))
            except TypeError:  # not all strs: one item at a time, where a key that is not a str raises
                for i, item in enumerate(items):
                    if i:
                        parts.append(sep)
                    if is_dict:
                        parts.append(encode(item) + ": ")
                        item = x[item]
                    emit(item, inner)
                    if pending >= 1 << 16 or len(parts) >= 1024:
                        flush()
            else:
                parts.append(body)
                pending += len(body)
            parts.append(nl + closing)

    emit(obj, "\n")
    parts.append("\n")
    flush()


def dump_stretching(E: Stretching, sink: TextIO | None = None) -> str | None:
    """The canonical dump, json.dumps(payload, sort_keys=True, indent=2) + "\n":
    written to sink in chunks when one is given, returned as a str otherwise."""
    payload = {
        "kind": "stretching",
        "threshold": E.threshold,
        "m_side": _nmagma_payload(E.m_side),
        "c_side": _nmagma_payload(E.c_side),
        "pi": {str(m): dict(t) for m, t in sorted(E.pi.items())},
        "brackets": [
            [m, c1, c0, B] for (m, c1, c0), B in sorted(E.brackets.items())
        ],
    }
    parts: list[str] = []
    _write_json(payload, parts.append if sink is None else sink.write)
    return "".join(parts) if sink is None else None


def _object(pairs: list[tuple[str, object]]) -> dict:
    """A JSON object as a dict; a ValueError if it repeats a key, which json.loads would let shadow the first."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        key = next(k for k, _ in pairs if k in seen or seen.add(k))
        raise ValueError(f"a JSON object repeats the key {key!r}")
    return obj


def load_stretching(text: str) -> Stretching:
    """Parse a dump; ValueError (one line) if it is not a stretching whose
    parts have their JSON types and whose sides are well-formed globular
    sets, which validate_stretching assumes."""
    try:
        payload = _typed(json.loads(text, object_pairs_hook=_object), dict, "$")
    except RecursionError:
        raise ValueError("$: JSON nested too deeply") from None
    if payload.get("kind") != "stretching":
        raise ValueError(f"$.kind is {payload.get('kind')!r}, expected 'stretching'")
    sides = {
        side: _nmagma_from_payload(_key(payload, side, dict, "$"), f"$.{side}") for side in ("m_side", "c_side")
    }
    for side, nm in sides.items():
        rep = validate_globular(nm.magma.gs).sorted()
        if not rep.valid:
            first = rep.violations[0]
            raise ValueError(" ".join(f"{side}: {first.axiom}: {first.detail}".splitlines()))
    rows = _rows(_key(payload, "brackets", list, "$"), (int, str, str, str), "$.brackets")
    return Stretching(
        m_side=sides["m_side"],
        c_side=sides["c_side"],
        threshold=_key(payload, "threshold", int, "$"),
        pi=_graded(payload, "pi", 1, "$", _name_map),
        brackets=_unique({(m, c1, c0): B for m, c1, c0, B in rows}, rows, "$.brackets"),
    )
