"""Syntax trees for cells of bounded free structures.

A StretchTerm is built from five constructors over a generating globular
set:

    gen(m, c)             the generating m-cell c
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

A term's name writes out its structure and names one term in its grade.
Generator names hold no blank, "(" or ")", nor from grade 1 ".", ";", "["
or "]" (words.check_generator_names); a compound name holds "(" or "[" and
starts with "(" comp, "1" refl, "j" rev or "[" bracket, its indices ending
at the first "]".  Parentheses come only from constructors and balance,
and blanks only from comps, so a comp's first argument ends at its first
blank outside parentheses.  A 0-cell, whose name may hold ".;[]", occurs in
a compound only as x in 1[0.1](x): comp and rev take terms of dimension 1
or more, and distinct 0-cells strictify apart, so none is bracketed.  So
outside parentheses "[" and "]" balance, and a bracket's ";" is the one at
depth one there.  By induction on size a name parses back to one term;
tests fuzz this against terms kept apart by structure.

Multi-step reflexors are represented by nested one-step constructors, so
refl-tower absorption is definitional.  Term size counts constructor nodes
of this canonical representation.

Terms are hash-consed inside their owner (Filliâtre and Conchon,
"Type-safe modular hash-consing", 2006): a TermContext builds every term it
hands out and interns it in its own table, so within one context equal terms
are the same object.  The table is keyed by the constructor, its indices and
the names of its arguments, whose hashes a str caches, rather than by the
argument terms, whose __hash__ runs in Python; each constructor computes its
term's fields itself.  Terms from different contexts are equal when their
dimension and name are, and a term hashes as its name.  A term's dimension,
size, name and one-step faces (src and tgt, None on 0-terms) are set when it
is built and never change.  Nothing is held process-wide: terms live as long
as their context or whatever else uses them, so dropping a stretching frees
its terms.
"""

from __future__ import annotations

from .globular import TruncatedGlobularSet


class IllTypedTermError(ValueError):
    """A constructor side condition failed."""


class _Fields:
    """A term under construction: _term fills its slots with plain stores,
    several times cheaper than object.__setattr__, and then makes it a
    StretchTerm, which refuses assignment."""

    __slots__ = ("kind", "dims", "args", "cell", "dim", "size", "name", "src", "tgt", "__weakref__")


class StretchTerm(_Fields):
    """An immutable term with its one-step faces, built only by a TermContext."""

    __slots__ = ()

    kind: str  # gen | comp | refl | rev | bracket
    dims: tuple[int, ...]
    args: tuple[StretchTerm, ...]
    cell: str
    dim: int
    size: int
    name: str
    src: StretchTerm | None  # None on 0-terms
    tgt: StretchTerm | None

    def __init__(self, *args) -> None:
        raise TypeError("StretchTerm is built by a TermContext")

    def __eq__(self, other) -> bool:
        return self is other or (type(other) is StretchTerm and other.dim == self.dim and other.name == self.name)

    def __hash__(self) -> int:
        return hash(self.name)

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError(f"StretchTerm is immutable; cannot set {attr}")

    def __delattr__(self, attr: str) -> None:
        raise AttributeError(f"StretchTerm is immutable; cannot delete {attr}")

    def __repr__(self) -> str:
        return f"StretchTerm({self.name!r})"


def _term(kind: str, dims: tuple[int, ...], args: tuple[StretchTerm, ...], cell: str, dim: int, size: int, name: str,
          src: StretchTerm | None, tgt: StretchTerm | None) -> StretchTerm:
    """A new term with these fields."""
    t = _Fields()
    t.kind = kind
    t.dims = dims
    t.args = args
    t.cell = cell
    t.dim = dim
    t.size = size
    t.name = name
    t.src = src
    t.tgt = tgt
    t.__class__ = StretchTerm
    return t


_FACE = {"source": "src", "target": "tgt"}


class TermContext:
    """Constructor front-end enforcing the side conditions over one graph.

    The optional strictifier decides the bracket admission test; without
    one, brackets other than the diagonal are rejected.
    """

    def __init__(self, g: TruncatedGlobularSet, threshold: int, strictifier=None):
        self.g = g
        self.threshold = threshold
        self.strictifier = strictifier
        self._terms: dict[tuple, StretchTerm] = {}

    def _gen(self, m: int, cell: str) -> StretchTerm:
        t = self._terms.get(("gen", m, cell))
        if t is None:
            src = tgt = None
            if m:
                src, tgt = (self._gen(m - 1, self.g.map(side, m)[cell]) for side in ("source", "target"))
            t = self._terms["gen", m, cell] = _term("gen", (m,), (), cell, m, 1, cell, src, tgt)
        return t

    def _comp(self, m: int, p: int, t1: StretchTerm, t0: StretchTerm) -> StretchTerm:
        key = ("comp", m, p, t1.name, t0.name)
        t = self._terms.get(key)
        if t is None:
            if p == m - 1:
                src, tgt = t0.src, t1.tgt
            else:
                src, tgt = self._comp(m - 1, p, t1.src, t0.src), self._comp(m - 1, p, t1.tgt, t0.tgt)
            name = f"({t1.name} *{m}.{p} {t0.name})"
            t = self._terms[key] = _term("comp", (m, p), (t1, t0), "", m, 1 + t1.size + t0.size, name, src, tgt)
        return t

    def _rev(self, m: int, p: int, u: StretchTerm) -> StretchTerm:
        key = ("rev", m, p, u.name)
        t = self._terms.get(key)
        if t is None:
            if m == p + 1:
                src, tgt = u.tgt, u.src
            else:
                src, tgt = self._rev(m - 1, p, u.src), self._rev(m - 1, p, u.tgt)
            t = self._terms[key] = _term("rev", (m, p), (u,), "", m, 1 + u.size, f"j[{m}.{p}]({u.name})", src, tgt)
        return t

    def src(self, t: StretchTerm) -> StretchTerm:
        return t.src

    def tgt(self, t: StretchTerm) -> StretchTerm:
        return t.tgt

    def boundary(self, t: StretchTerm, q: int, side: str) -> StretchTerm:
        face = _FACE[side]
        for _ in range(t.dim - q):
            t = getattr(t, face)
        return t

    def boundaries(self, t: StretchTerm, side: str) -> list[StretchTerm]:
        """[boundary(t, q, side) for q in range(t.dim)], from one walk down the faces."""
        face = _FACE[side]
        faces = [t]
        for _ in range(t.dim):
            faces.append(getattr(faces[-1], face))
        return faces[:0:-1]

    def parallel(self, t1: StretchTerm, t0: StretchTerm) -> bool:
        if t1.dim != t0.dim:
            return False
        if t1.dim == 0:
            return True
        return t1.src == t0.src and t1.tgt == t0.tgt

    def gen(self, m: int, name: str) -> StretchTerm:
        """The generating m-cell name, at its intern key ("gen", m, name): grades namespace names."""
        if not self.g.has_cell(m, name):
            raise IllTypedTermError(f"no generating {m}-cell named {name}")
        return self._gen(m, name)

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
        return self._comp(m, p, t1, t0)

    def refl(self, p: int, m: int, t: StretchTerm) -> StretchTerm:
        if not 0 <= p < m:
            raise IllTypedTermError(f"reflexor indices need 0 <= p < m, got ({p}, {m})")
        if t.dim != p:
            raise IllTypedTermError(f"reflexor over ({p}, {m}) needs a {p}-term")
        for k in range(p, m):  # one-step reflexors: both faces are the core
            key = ("refl", k, t.name)
            u = self._terms.get(key)
            if u is None:
                name = f"1[{k}.{k + 1}]({t.name})"
                u = self._terms[key] = _term("refl", (k, k + 1), (t,), "", k + 1, 1 + t.size, name, t, t)
            t = u
        return t

    def rev(self, m: int, p: int, t: StretchTerm) -> StretchTerm:
        if not self.threshold <= p < m:
            raise IllTypedTermError(
                f"reversor indices need {self.threshold} <= p < m, got ({m}, {p})"
            )
        if t.dim != m:
            raise IllTypedTermError(f"reversor over ({m}, {p}) needs an {m}-term")
        return self._rev(m, p, t)

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
        key = ("bracket", m, t1.name, t0.name)
        t = self._terms.get(key)
        if t is None:
            name = f"[{t1.name};{t0.name}]{m}"
            t = self._terms[key] = _term("bracket", (m,), (t1, t0), "", m + 1, 1 + t1.size + t0.size, name, t0, t1)
        return t
