"""First-order terms over the operation symbols, with symbolic dimensions.

Dimensions are affine expressions "variable + offset" (or constants), so
one derivation covers every admissible dimension at once; inequalities
between them are decided against a derivation's assumptions by
difference-bound closure in DimSolver.

Each term node carries a carrier tag: M for the free side of a stretching,
C for its strict side, G for an algebra.  The structural symbols src, tgt,
rev, one (reflexor), comp, and bracket keep the carrier; pi maps M to C,
v maps M to G, and lam maps G back to M.  Display follows the usual
notation per carrier (j/i for rev, 1/iota for one, */o for comp).
The unary endomaps the built-in suites cite (F, mu, Tv, lamT) are fixed
symbols in the same table.

Terms are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006) in TermTables: the rule catalogue has one, and each
built-in suite its own.  A table's var() and const() make atoms; app()
interns sym[dims](args) in the one table its arguments share, so a later
check of a suite finds the terms its build made.  Within a table equal terms
are one object, so equality and hashing are by identity and cost O(1)
whatever the term's depth.  Terms and their table refer to each other, and
the garbage collector frees a dropped table with its terms.  Dimensions are
interned in _DIMS, which keeps them: one per (variable, offset) met, a
bounded set.  Terms, dimensions and substitutions are slotted Records.  A
term's grade, carrier and the bracket subterms of its arguments are
computed once, when it is built; brackets_in reads them.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterator, Mapping
from types import MappingProxyType

from .._record import Record

Position = tuple[int, ...]


class TermError(ValueError):
    """Ill-formed term: grade or carrier mismatch."""


class DimExpr(Record):
    """var + off, or the constant off when var is None.  Interned: equal
    dimensions are one object, so equality and hashing are by identity."""

    __slots__ = _fields = ("var", "off")
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __new__(cls, var: str | None, off: int) -> "DimExpr":
        d = _DIMS.get((var, off))
        if d is None:
            d = _DIMS[var, off] = object.__new__(cls)
            object.__setattr__(d, "var", var)
            object.__setattr__(d, "off", off)
        return d

    __init__ = object.__init__  # __new__ binds the fields, once

    def shift(self, k: int) -> "DimExpr":
        return self if k == 0 else DimExpr(self.var, self.off + k)

    def __str__(self) -> str:
        if self.var is None:
            return str(self.off)
        if self.off == 0:
            return self.var
        return f"{self.var}{'+' if self.off > 0 else ''}{self.off}"


_DIMS: dict[tuple[str | None, int], DimExpr] = {}


def dim(value: int | str | DimExpr, off: int = 0) -> DimExpr:
    if isinstance(value, DimExpr):
        return value.shift(off)
    if isinstance(value, int):
        return DimExpr(None, value + off)
    return DimExpr(value, off)


class DimCond(Record):
    """lhs <= rhs, strictly when strict is set."""

    __slots__ = _fields = ("lhs", "rhs", "strict")
    _defaults = {"strict": False}

    def __str__(self) -> str:
        return f"{self.lhs} {'<' if self.strict else '<='} {self.rhs}"


def le(a, b) -> DimCond:
    return DimCond(dim(a), dim(b), strict=False)


def lt(a, b) -> DimCond:
    return DimCond(dim(a), dim(b), strict=True)


class DimSolver:
    """Difference-bound entailment over dimension variables.

    Dimension variables are natural numbers; a constraint a <= b becomes the
    difference bound var(a) - var(b) <= off(b) - off(a), and entailment is a
    shortest-path query in the constraint graph.
    """

    def __init__(self, assumptions: tuple[DimCond, ...]):
        self.edges: dict[tuple[str, str], int] = {}
        names = {"0"}
        for cond in assumptions:
            names.add(cond.lhs.var or "0")
            names.add(cond.rhs.var or "0")
            self._add(cond)
        for v in names:
            if v != "0":
                self._edge(v, "0", 0)  # every dimension is >= 0
        self._closure(sorted(names))

    def _edge(self, frm: str, to: str, w: int) -> None:
        # encodes to - frm <= w
        key = (frm, to)
        if key not in self.edges or self.edges[key] > w:
            self.edges[key] = w

    def _add(self, cond: DimCond) -> None:
        a, b = cond.lhs, cond.rhs
        bound = b.off - a.off - (1 if cond.strict else 0)
        self._edge(b.var or "0", a.var or "0", bound)

    def _closure(self, names: list[str]) -> None:
        """Shortest paths between the names, which are every vertex of self.edges and "0"."""
        dist = {(a, b): (0 if a == b else None) for a in names for b in names}
        for (frm, to), w in self.edges.items():
            cur = dist[(frm, to)]
            dist[(frm, to)] = w if cur is None else min(cur, w)
        for k, i, j in itertools.product(names, names, names):
            ik, kj = dist[(i, k)], dist[(k, j)]
            if ik is None or kj is None:
                continue
            cur = dist[(i, j)]
            if cur is None or ik + kj < cur:
                dist[(i, j)] = ik + kj
        self.dist = dist

    def entails(self, cond: DimCond) -> bool:
        return self.holds(cond.lhs, cond.rhs, cond.strict)

    def holds(self, a: DimExpr, b: DimExpr, strict: bool) -> bool:
        """Whether a <= b, or a < b when strict, is entailed."""
        va, vb = a.var or "0", b.var or "0"
        need = b.off - a.off - (1 if strict else 0)
        if va == vb:
            return 0 <= need
        if (vb, va) not in self.dist or self.dist.get((vb, va)) is None:
            return False
        return self.dist[(vb, va)] <= need


# -- symbols -------------------------------------------------------------

CARRIERS = ("M", "C", "G")

# unary carrier maps: symbol -> (argument carrier, result carrier)
CARRIER_MAPS: Mapping[str, tuple[str, str]] = MappingProxyType({
    "pi": ("M", "C"),
    "v": ("M", "G"),
    "lam": ("G", "M"),
    "F": ("C", "C"),  # S1: a strict morphism
    "mu": ("M", "M"),  # S4: the monad multiplication
    "Tv": ("M", "M"),  # S4: the lifted structure map
    "lamT": ("M", "M"),  # S4: the free-level unit
})


DISPLAY = {
    ("rev", "M"): "j", ("rev", "C"): "j", ("rev", "G"): "i",
    ("one", "M"): "1", ("one", "C"): "1", ("one", "G"): "iota",
    ("comp", "M"): "*", ("comp", "C"): "o", ("comp", "G"): "o",
}


# object identity is equality and hash, which interning makes structural
class Atom(Record):
    _fields = ("name", "grade", "carrier", "const")
    __slots__ = (*_fields, "table")  # table: the TermTable that made the atom, not a field
    __eq__, __hash__ = object.__eq__, object.__hash__
    _defaults = {"const": False}

    brackets = frozenset()  # not a field: an atom has no subterms


class _AppSlots:
    """An App being built: app() fills its slots by plain stores, cheaper than object.__setattr__, then re-classes it."""

    __slots__ = ("sym", "dims", "args", "grade", "carrier", "brackets", "table")


class App(_AppSlots, Record):
    __slots__ = ()
    _fields = ("sym", "dims", "args", "grade", "carrier")  # not brackets (the arguments' bracket subterms) or table
    __eq__, __hash__ = object.__eq__, object.__hash__

    def __init__(self, sym: str, dims: tuple[DimExpr, ...], args: tuple[Term, ...], grade, carrier, brackets) -> None:
        super().__init__(sym, dims, args, grade, carrier)
        object.__setattr__(self, "brackets", brackets)


Term = Atom | App


class TermTable:
    """The hash-consing tables of a family of terms: atoms by their fields, the others by (sym, dims, args)."""

    __slots__ = ("atoms", "apps")

    def __init__(self) -> None:
        self.atoms: dict[tuple, Atom] = {}
        self.apps: dict[tuple, App] = {}

    def _atom(self, *key) -> Atom:
        t = self.atoms.get(key)
        if t is None:
            t = self.atoms[key] = Atom(*key)
            object.__setattr__(t, "table", self)
        return t

    def var(self, name: str, grade, carrier: str = "?") -> Atom:
        return self._atom(name, dim(grade), carrier, False)

    def const(self, name: str, grade, carrier: str) -> Atom:
        return self._atom(name, dim(grade), carrier, True)


def _check_grade(t: Term, want: DimExpr, what: str) -> None:
    if t.grade != want:
        raise TermError(f"{what}: expected grade {want}, got {t.grade} in {render(t)}")


def app(sym: str, dims: tuple[DimExpr, ...], args: tuple[Term, ...]) -> App:
    """The one term sym[dims](args) in the table of its arguments: checks
    grades and carriers the first time, and fills in the result's."""
    table = args[0].table
    if args[-1].table is not table:  # every symbol takes one or two arguments
        raise TermError(f"{sym} combines terms of two term tables")
    key = (sym, dims, args)
    t = table.apps.get(key)
    if t is None:
        t = _AppSlots()
        t.grade, t.carrier = _result_type(sym, dims, args)
        parts = [b for b in map(brackets_in, args) if b]
        t.brackets = parts[0] if len(parts) == 1 else frozenset().union(*parts)
        t.sym, t.dims, t.args, t.table = sym, dims, args, table
        t.__class__ = App
        table.apps[key] = t
    return t


def _result_type(sym: str, dims: tuple[DimExpr, ...], args: tuple[Term, ...]) -> tuple[DimExpr, str]:
    if sym in ("src", "tgt"):
        m, q = dims
        (x,) = args
        _check_grade(x, m, sym)
        return q, x.carrier
    if sym == "rev":
        m, p = dims
        (x,) = args
        _check_grade(x, m, sym)
        return m, x.carrier
    if sym == "one":
        p, m = dims
        (x,) = args
        _check_grade(x, p, sym)
        return m, x.carrier
    if sym == "comp":
        m, p = dims
        y, x = args
        _check_grade(y, m, sym)
        _check_grade(x, m, sym)
        if y.carrier != x.carrier and "?" not in (y.carrier, x.carrier):
            raise TermError(f"composition across carriers {y.carrier} and {x.carrier}")
        carrier = y.carrier if y.carrier != "?" else x.carrier
        return m, carrier
    if sym == "bracket":
        (m,) = dims
        c1, c0 = args
        _check_grade(c1, m, sym)
        _check_grade(c0, m, sym)
        for c in args:
            if c.carrier not in ("M", "?"):
                raise TermError("brackets live on the free side")
        return m.shift(1), "M"
    if sym in CARRIER_MAPS:
        frm, to = CARRIER_MAPS[sym]
        (x,) = args
        if dims:
            raise TermError(f"{sym} takes no dimension arguments")
        if x.carrier not in (frm, "?"):
            raise TermError(f"{sym} expects a {frm}-term, got {x.carrier}")
        return x.grade, to
    raise TermError(f"unknown symbol {sym}")


# concise constructors

def srcT(m, q, x) -> App:
    return app("src", (dim(m), dim(q)), (x,))


def tgtT(m, q, x) -> App:
    return app("tgt", (dim(m), dim(q)), (x,))


def revT(m, p, x) -> App:
    return app("rev", (dim(m), dim(p)), (x,))


def oneT(p, m, x) -> App:
    return app("one", (dim(p), dim(m)), (x,))


def compT(m, p, y, x) -> App:
    return app("comp", (dim(m), dim(p)), (y, x))


def bracketT(m, c1, c0) -> App:
    return app("bracket", (dim(m),), (c1, c0))


def piT(x) -> App:
    return app("pi", (), (x,))


def vT(x) -> App:
    return app("v", (), (x,))


def lamT(x) -> App:
    return app("lam", (), (x,))


def unary(sym: str, x: Term) -> App:
    return app(sym, (), (x,))


# -- traversal -----------------------------------------------------------


def subterm(t: Term, pos: Position) -> Term:
    for i in pos:
        if not isinstance(t, App) or i >= len(t.args):
            raise TermError(f"position {pos} does not exist in {render(t)}")
        t = t.args[i]
    return t


def replace(t: Term, pos: Position, new: Term) -> Term:
    if not pos:
        return new
    assert isinstance(t, App)
    i = pos[0]
    args = list(t.args)
    args[i] = replace(args[i], pos[1:], new)
    return app(t.sym, t.dims, tuple(args))


def brackets_in(t: Term) -> frozenset[App]:
    """The bracket subterms of t, t itself included."""
    if isinstance(t, App) and t.sym == "bracket":
        return t.brackets | {t}
    return t.brackets


def preorder(t: Term) -> Iterator[Term]:
    """The subterms of t, t first, then each argument's from left to right."""
    stack = [t]
    while stack:
        cur = stack.pop()
        yield cur
        if isinstance(cur, App):
            stack.extend(reversed(cur.args))


def render(t: Term) -> str:
    if isinstance(t, Atom):
        return t.name
    sym = DISPLAY.get((t.sym, t.carrier), t.sym)
    if t.sym == "comp":
        m, p = t.dims
        return f"({render(t.args[0])} {sym}[{m},{p}] {render(t.args[1])})"
    if t.sym == "bracket":
        (m,) = t.dims
        return f"[{render(t.args[0])};{render(t.args[1])}]_{m}"
    if t.dims:
        ds = ",".join(str(d) for d in t.dims)
        return f"{sym}[{ds}]({', '.join(render(a) for a in t.args)})"
    return f"{sym}({', '.join(render(a) for a in t.args)})"


# -- substitution and matching -------------------------------------------


class Subst(Record):
    """Bindings of cell variables (cells) and dimension variables (dims).

    A substitution keeps its own copies of the mappings it is given, so its
    bindings never change; memo, made with it and not a field, maps each rule
    side that derivation._apply_rewrite has built through term() to its
    instance.  Terms are hash-consed, so building a side that a suite already
    holds is a lookup of each node's key, and its instance is that very term."""

    _fields = ("cells", "dims")
    __slots__ = (*_fields, "memo")

    def __init__(self, cells: Mapping[str, Term], dims: Mapping[str, DimExpr]) -> None:
        put = object.__setattr__
        put(self, "cells", dict(cells) if isinstance(cells, Mapping) else cells)
        put(self, "dims", dict(dims) if isinstance(dims, Mapping) else dims)
        put(self, "memo", {})

    def dim(self, d: DimExpr) -> DimExpr:
        if d.var is None:
            return d
        bound = self.dims.get(d.var)
        if bound is None:
            raise TermError(f"unbound dimension variable {d.var}")
        return bound.shift(d.off) if d.off else bound

    def term(self, t: Term) -> Term:
        if isinstance(t, Atom):
            if t.const:
                return t
            if t.name not in self.cells:
                raise TermError(f"unbound variable {t.name}")
            out = self.cells[t.name]
            want = self.dim(t.grade)
            if out.grade != want:
                raise TermError(
                    f"variable {t.name} expects grade {want}, got {out.grade}"
                )
            if t.carrier not in ("?", out.carrier):
                raise TermError(
                    f"variable {t.name} expects carrier {t.carrier}, got {out.carrier}"
                )
            return out
        return app(t.sym, tuple(map(self.dim, t.dims)), tuple(map(self.term, t.args)))


class MatchError(ValueError):
    pass


def match(pattern: Term, concrete: Term, cells: dict, dims: dict) -> None:
    """One-sided matching; extends the bindings in place or raises."""

    def match_dim(pd: DimExpr, cd: DimExpr) -> None:
        if pd.var is None:
            if cd != pd:
                raise MatchError(f"dimension {cd} is not {pd}")
            return
        want = DimExpr(cd.var, cd.off - pd.off)
        if pd.var in dims:
            if dims[pd.var] != want:
                raise MatchError(f"dimension variable {pd.var} bound twice")
        else:
            dims[pd.var] = want

    if isinstance(pattern, Atom):
        if pattern.const:
            if pattern != concrete:
                raise MatchError(f"constant {pattern.name} does not match {render(concrete)}")
            return
        match_dim(pattern.grade, concrete.grade)
        if pattern.carrier not in ("?", concrete.carrier):
            raise MatchError(f"carrier mismatch for {pattern.name}")
        if pattern.name in cells:
            if cells[pattern.name] != concrete:
                raise MatchError(f"variable {pattern.name} bound twice")
        else:
            cells[pattern.name] = concrete
        return
    if not isinstance(concrete, App) or concrete.sym != pattern.sym:
        raise MatchError(f"{render(concrete)} does not match symbol {pattern.sym}")
    for pd, cd in zip(pattern.dims, concrete.dims):
        match_dim(pd, cd)
    for pa, ca in zip(pattern.args, concrete.args):
        match(pa, ca, cells, dims)
