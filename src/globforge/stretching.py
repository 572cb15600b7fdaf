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

validate_stretching reads each table once, in whatever order it holds its
rows: emit_report sorts the violations, so no such order reaches a report.
dump_stretching writes the stretching's own tables, a bounded chunk at a
time, without a copy of them; generation lists src, tgt and pi in name
order, so the writer sorts each in one pass.

A dump spells each grade as the writer does, in ASCII digits without a
leading zero, and holds one row per pair; load_stretching rejects any
other spelling and any repeated row, so no entry can shadow another.
"""

from __future__ import annotations

import re
from collections.abc import Callable, Mapping
from io import TextIOBase
from operator import attrgetter

from ._record import Record
from .globular import TruncatedGlobularSet, globular_set, validate_globular
from .magma import KINDS, Kind, NMagma
from .normalform import Strictifier
from .report import ValidationReport, write_json
from .terms import StretchTerm, TermContext
from .words import check_generator_names

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
    faces[0](o).name and faces[1](o).name in objects[m]'s order, carrying the tables of each kind."""
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
    pi = {m: E.pi.get(m, {}) for m in range(mgs.max_dim + 1)}

    for m, pm in pi.items():
        strict_cells = cgs.cell_sets.get(m, ())
        for x in mgs.grade(m):
            px = pm.get(x)
            if px is None:
                rep.add("stretching.pi-total", LAW_PI_MORPHISM, (x,), f"pi misses the {m}-cell {x}")
            elif px not in strict_cells:
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
        pm, low = pi[m], pi[m - 1]
        for side, axiom in (("source", "stretching.pi-src"), ("target", "stretching.pi-tgt")):
            face, strict_face = mgs.map(side, m), cgs.map(side, m)
            for x in mgs.grade(m):
                want, got = low[face[x]], strict_face.get(pm[x])
                if got != want:
                    rep.add(
                        axiom, LAW_PI_MORPHISM, (x,),
                        f"pi({side}({x})) = {want} but {side}(pi({x})) = {got}",
                    )

    for kind in KINDS:
        c_tables, binary = kind.layer(E.c_side).maps, kind.arity == 2
        for side, nm in (("m_side", E.m_side), ("c_side", E.c_side)):
            cells, max_dim = nm.magma.gs.cell_sets, nm.magma.gs.max_dim
            for key, table in kind.layer(nm).maps.items():
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
                for entry, z in table.items():
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

    c_refl, m_refl = E.c_side.magma.refl, E.m_side.magma.refl
    for (m, c1, c0), B in E.brackets.items():
        cells = mgs.cell_sets.get(m, ())
        if not (c1 in cells and c0 in cells and B in mgs.cell_sets.get(m + 1, ())):
            rep.add(
                "stretching.bracket-domain", LAW_BRACKET_DOMAIN, (c1, c0, B),
                f"bracket ({m}, {c1}, {c0}) -> {B} mentions undeclared cells",
            )
            continue
        pm, p_up = pi[m], pi[m + 1]
        if m >= 1 and (mgs.src[m][c1] != mgs.src[m][c0] or mgs.tgt[m][c1] != mgs.tgt[m][c0]):
            rep.add(
                "stretching.bracket-domain", LAW_BRACKET_DOMAIN, (c1, c0),
                f"bracket arguments {c1}, {c0} are not parallel",
            )
        if pm[c1] != pm[c0]:
            rep.add(
                "stretching.bracket-domain", LAW_BRACKET_DOMAIN, (c1, c0),
                f"bracket arguments project differently: {pm[c1]} vs {pm[c0]}",
            )
        tgt_B, src_B = mgs.tgt[m + 1][B], mgs.src[m + 1][B]
        if tgt_B != c1:
            rep.add(
                "stretching.bracket-target", LAW_BRACKET_FACES, (B, c1),
                f"tgt({B}) = {tgt_B}, expected {c1}",
            )
        if src_B != c0:
            rep.add(
                "stretching.bracket-source", LAW_BRACKET_FACES, (B, c0),
                f"src({B}) = {src_B}, expected {c0}",
            )
        want = c_refl.table(m, m + 1).get(pm[c1])
        if want is None or p_up[B] != want:
            rep.add(
                "stretching.bracket-proj", LAW_BRACKET_PROJ, (B,),
                f"pi({B}) = {p_up[B]}, expected the degenerate cell {want}",
            )
        if c1 == c0 and B != m_refl.table(m, m + 1).get(c1):
            rep.add(
                "stretching.bracket-diagonal", LAW_BRACKET_DIAG, (B, c1),
                f"[{c1},{c1}] = {B}, expected the degenerate cell {m_refl.table(m, m + 1).get(c1)}",
            )
    return rep


def generate_free_stretching(g: TruncatedGlobularSet, n: int, D: int, S: int) -> Stretching:
    """All terms of size <= S and dimension <= D over g, with brackets.

    A generator is a term of size 1, read at its own grade, so an edge may
    share a point's name; with S = 0 both sides are empty.  Deterministic:
    grades, src, tgt and pi are in name order; brackets are stored once per
    unordered pair with the larger term as target.  A graph that is not a
    well-formed globular set raises InvalidGraphError.
    """
    if min(n, D, S) < 0:
        raise ValueError(f"the bounds n, D, S must be >= 0, got n={n}, D={D}, S={S}")
    if D > 3:
        raise UnsupportedDimensionError(f"free stretching generation supports dimension <= 3, got {D}")
    rep = validate_globular(g)
    if not rep.valid:
        raise InvalidGraphError(rep)
    check_generator_names(g)
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
        if t.size < S:  # only arguments are looked up: of size at most S-1, or S-2 on the right of a comp
            by_size.setdefault(t.size, []).append(t)
        if t.size < S - 1:
            face = t
            for p in range(d - 1, -1, -1):
                face = face.tgt
                tgt_bucket.setdefault((d, p, face.name, t.size), []).append(t)
        if d + 1 <= D:
            par_bucket.setdefault(par_key(t) + (t.size,), []).append(t)

    for m in range(min(D, g.max_dim) + 1 if S else 0):
        for c in g.grade(m):
            admit(ctx.gen(m, c))

    for s in range(2, S + 1):
        # unary constructors on terms of size s-1
        for t in by_size.get(s - 1, ()):
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
            for t1 in by_size.get(s1, ()):
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

    # each grade in name order, which src, tgt and pi keep; then the magma side, and the strict fragment its
    # cells project onto, closed under faces and degenerate cells, where comp and rev are images along pi
    terms = {m: {t.name: t for t in sorted(ts.values(), key=attrgetter("name"))} for m, ts in terms.items()}
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
    c_side = _nmagma(D, n, {m: dict(sorted(f.items())) for m, f in nfs.items()}, (strict.src_nf, strict.tgt_nf),
                     c_refl, c_rev, c_comp)
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
    """nm's dump, holding nm's own tables: write_json writes a pair-keyed comp table as rows [y, x, z]."""
    gs = nm.magma.gs
    return {
        "max_dim": gs.max_dim,
        "threshold": nm.threshold,
        "cells": {str(m): list(gs.grade(m)) for m in range(gs.max_dim + 1)},
        "src": {str(m): gs.map("source", m) for m in range(1, gs.max_dim + 1)},
        "tgt": {str(m): gs.map("target", m) for m in range(1, gs.max_dim + 1)},
        **{kind.name: {
            f"{i}.{j}": t if t or kind.arity == 1 else [] for (i, j), t in kind.layer(nm).maps.items()
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


def dump_stretching(E: Stretching, sink: TextIOBase | None = None) -> str | None:
    """The canonical dump, json.dumps(payload, sort_keys=True, indent=2) + "\n":
    streamed to sink a chunk at a time from E's own tables when a sink is
    given, returned as a str otherwise."""
    payload = {
        "kind": "stretching",
        "threshold": E.threshold,
        "m_side": _nmagma_payload(E.m_side),
        "c_side": _nmagma_payload(E.c_side),
        "pi": {str(m): t for m, t in E.pi.items()},
        "brackets": E.brackets or [],  # rows [m, c1, c0, B]
    }
    parts: list[str] = []
    write_json(payload, parts.append if sink is None else sink.write)
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
    import json  # here, not at the top: no writer needs it
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
