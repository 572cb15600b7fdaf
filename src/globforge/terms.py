"""Syntax trees for cells of bounded free structures.

A StretchTerm is built from five constructors over a generating globular
set:

    gen(c)                a generating cell
    comp(m, p, t1, t0)    the composite "t1 after t0" of two m-terms over p
    refl(p, m, t)         the degenerate m-term on a p-term (one-step nested)
    rev(m, p, t)          the formal reverse of an m-term over p
    bracket(m, t1, t0)    the coherence (m+1)-term with target t1, source t0

Terms are the cells of the free side of a bounded stretching, so boundary
compatibility for comp is syntactic equality of boundary terms, and the
side conditions are checked at construction time by TermContext:

  - comp needs the p-source of t1 to equal the p-target of t0;
  - rev needs threshold <= p < m;
  - bracket needs parallel arguments with equal strictification, and the
    diagonal bracket collapses to the reflexor term it must equal.

Multi-step reflexors are represented by nested one-step constructors, so
refl-tower absorption is definitional.  Term size counts constructor nodes
of this canonical representation.

Terms are hash-consed (Filliâtre and Conchon, "Type-safe modular
hash-consing", 2006).  StretchTerm(kind, dims, args, cell) returns the one
live term with those fields, so equal terms are the same object: equality
and hashing are by identity and cost O(1) whatever the term's depth.  A
term's dimension, size and name are computed once, when it is built, and
never change.  The intern table holds terms weakly, so a term lives only
while something else uses it; dropping a stretching frees its terms.
"""

from __future__ import annotations

import weakref

from .globular import TruncatedGlobularSet


class IllTypedTermError(ValueError):
    """A constructor side condition failed."""


def _dim(kind: str, dims: tuple[int, ...]) -> int:
    if kind in ("gen", "comp", "rev"):
        return dims[0]
    if kind == "refl":
        return dims[1]
    if kind == "bracket":
        return dims[0] + 1
    raise ValueError(kind)


def _name(kind: str, dims: tuple[int, ...], args: tuple["StretchTerm", ...], cell: str) -> str:
    if kind == "gen":
        return cell
    if kind == "comp":
        m, p = dims
        return f"({args[0].name} *{m}.{p} {args[1].name})"
    if kind == "refl":
        p, m = dims
        return f"1[{p}.{m}]({args[0].name})"
    if kind == "rev":
        m, p = dims
        return f"j[{m}.{p}]({args[0].name})"
    (m,) = dims
    return f"[{args[0].name};{args[1].name}]{m}"


_INTERNED: weakref.WeakValueDictionary[tuple, "StretchTerm"] = weakref.WeakValueDictionary()


class StretchTerm:
    """An interned term; equal fields give the identical object."""

    __slots__ = ("kind", "dims", "args", "cell", "dim", "size", "name", "__weakref__")

    kind: str  # gen | comp | refl | rev | bracket
    dims: tuple[int, ...]
    args: tuple[StretchTerm, ...]
    cell: str
    dim: int
    size: int
    name: str

    def __new__(cls, kind: str, dims: tuple[int, ...], args: tuple[StretchTerm, ...], cell: str = ""):
        key = (kind, dims, args, cell)
        t = _INTERNED.get(key)
        if t is None:
            t = object.__new__(cls)
            init = object.__setattr__
            init(t, "dim", _dim(kind, dims))  # first: rejects an unknown kind
            init(t, "kind", kind)
            init(t, "dims", dims)
            init(t, "args", args)
            init(t, "cell", cell)
            init(t, "size", 1 + sum(a.size for a in args))
            init(t, "name", _name(kind, dims, args, cell))
            _INTERNED[key] = t
        return t

    # __eq__ and __hash__ stay object identity: interning makes that structural

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError(f"StretchTerm is immutable; cannot set {attr}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"StretchTerm is immutable; cannot delete {attr}")

    def __repr__(self) -> str:
        return f"StretchTerm({self.name!r})"


class TermContext:
    """Constructor front-end enforcing the side conditions over one graph.

    The optional strictifier decides the bracket admission test; without
    one, brackets other than the diagonal are rejected.
    """

    def __init__(self, g: TruncatedGlobularSet, threshold: int, strictifier=None):
        self.g = g
        self.threshold = threshold
        self.strictifier = strictifier
        self._faces: dict[str, dict[StretchTerm, StretchTerm]] = {"source": {}, "target": {}}

    def _face(self, t: StretchTerm, side: str) -> StretchTerm:
        """One-step boundary term of a term of dimension >= 1."""
        memo = self._faces[side]
        hit = memo.get(t)
        if hit is not None:
            return hit
        m = t.dim
        assert m >= 1
        if t.kind == "gen":
            out = StretchTerm("gen", (m - 1,), (), self.g.map(side, m)[t.cell])
        elif t.kind == "comp":
            _, p = t.dims
            t1, t0 = t.args
            if p == m - 1:
                out = self._face(t0, side) if side == "source" else self._face(t1, side)
            else:
                out = StretchTerm("comp", (m - 1, p), (self._face(t1, side), self._face(t0, side)))
        elif t.kind == "refl":
            out = t.args[0]  # one-step reflexor: both faces are the core
        elif t.kind == "rev":
            _, p = t.dims
            inner = t.args[0]
            if m == p + 1:
                other = "target" if side == "source" else "source"
                out = self._face(inner, other)
            else:
                out = StretchTerm("rev", (m - 1, p), (self._face(inner, side),))
        elif t.kind == "bracket":
            out = t.args[1] if side == "source" else t.args[0]
        else:
            raise ValueError(t.kind)
        memo[t] = out
        return out

    def src(self, t: StretchTerm) -> StretchTerm:
        return self._face(t, "source")

    def tgt(self, t: StretchTerm) -> StretchTerm:
        return self._face(t, "target")

    def boundary(self, t: StretchTerm, q: int, side: str) -> StretchTerm:
        cur = t
        for _ in range(t.dim - q):
            cur = self._face(cur, side)
        return cur

    def boundaries(self, t: StretchTerm, side: str) -> list[StretchTerm]:
        """[boundary(t, q, side) for q in range(t.dim)], from one walk down the faces."""
        faces = [t]
        for _ in range(t.dim):
            faces.append(self._face(faces[-1], side))
        return faces[:0:-1]

    def parallel(self, t1: StretchTerm, t0: StretchTerm) -> bool:
        if t1.dim != t0.dim:
            return False
        if t1.dim == 0:
            return True
        return self.src(t1) == self.src(t0) and self.tgt(t1) == self.tgt(t0)

    def gen(self, name: str) -> StretchTerm:
        for m in range(self.g.max_dim + 1):
            if self.g.has_cell(m, name):
                return StretchTerm("gen", (m,), (), name)
        raise IllTypedTermError(f"no generating cell named {name}")

    def comp(self, m: int, p: int, t1: StretchTerm, t0: StretchTerm) -> StretchTerm:
        if not 0 <= p < m:
            raise IllTypedTermError(f"composition indices need 0 <= p < m, got ({m}, {p})")
        if t1.dim != m or t0.dim != m:
            raise IllTypedTermError(
                f"composition over ({m}, {p}) needs two {m}-terms, "
                f"got dimensions {t1.dim} and {t0.dim}"
            )
        if self.boundary(t1, p, "source") != self.boundary(t0, p, "target"):
            raise IllTypedTermError(
                f"terms are not {p}-compatible: {t1.name} after {t0.name}"
            )
        return StretchTerm("comp", (m, p), (t1, t0))

    def refl(self, p: int, m: int, t: StretchTerm) -> StretchTerm:
        if not 0 <= p < m:
            raise IllTypedTermError(f"reflexor indices need 0 <= p < m, got ({p}, {m})")
        if t.dim != p:
            raise IllTypedTermError(f"reflexor over ({p}, {m}) needs a {p}-term")
        cur = t
        for k in range(p, m):
            cur = StretchTerm("refl", (k, k + 1), (cur,))
        return cur

    def rev(self, m: int, p: int, t: StretchTerm) -> StretchTerm:
        if not self.threshold <= p < m:
            raise IllTypedTermError(
                f"reversor indices need {self.threshold} <= p < m, got ({m}, {p})"
            )
        if t.dim != m:
            raise IllTypedTermError(f"reversor over ({m}, {p}) needs an {m}-term")
        return StretchTerm("rev", (m, p), (t,))

    def bracket(self, m: int, t1: StretchTerm, t0: StretchTerm) -> StretchTerm:
        if t1.dim != m or t0.dim != m:
            raise IllTypedTermError(f"bracket at level {m} needs two {m}-terms")
        if t1 == t0:
            # the diagonal bracket is the degenerate cell, definitionally
            return self.refl(m, m + 1, t1)
        if not self.parallel(t1, t0):
            raise IllTypedTermError(
                f"bracket arguments are not parallel: {t1.name} vs {t0.name}"
            )
        if self.strictifier is None:
            raise IllTypedTermError("bracket admission needs a strictifier")
        if self.strictifier.pi(t1) != self.strictifier.pi(t0):
            raise IllTypedTermError(
                f"bracket arguments strictify differently: {t1.name} vs {t0.name}"
            )
        return StretchTerm("bracket", (m,), (t1, t0))
