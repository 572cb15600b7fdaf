"""Strictification: normal forms for bounded free strict structures.

Cells of the free strict structure on a generating globular set g (of
dimension <= 2) admit canonical normal forms in low dimensions:

  dim 0: the generating 0-cell itself;
  dim 1: a word of signed edges, reduced when the threshold is 0;
  dim 2: a source word together with one column per word position.  A
         2-generator has single generating edges as faces, so a whiskered
         generator rewrites exactly one position of the word.  The
         interchange law makes distinct positions commute, which sorts every
         2-cell into independent per-position columns: each column is a path
         of (2-generator, orientation) letters acting on its slot, reduced
         when vertical inverses exist (threshold <= 1);
  dim 3: with no 3-dimensional generators every 3-cell is degenerate, so a
         3-cell is the identity wrapper on the normal form of its 2-source.

Two configurations share these forms: free strict 2-categories (no
orientations, the normalize2 case) and free structures with threshold >= 1
(positive words, groupoidal columns).  Threshold 0 over a graph WITH
2-generators would let word reduction merge columns, which is outside the
slot picture; Strictifier rejects that configuration up front.

A normal form computes its canonical name once, when it is built.  Names are
injective per grade, so normal forms are equal exactly when grade and name
are, and a normal form hashes as its name.  Words are composed and inverted
by the shared operations of words, which check only a composite's junction.

Strictifier.pi memoizes per term and applies each normal-form operation
(comp_nf, rev_nf, refl_lift) once per distinct input, keyed by the argument
names: the strict side is small, so most terms reuse an earlier result.
"""

from __future__ import annotations

from .globular import TruncatedGlobularSet
from .terms import IllTypedTermError, StretchTerm, TermContext
from .words import Step, Word, compose_words, free_reduce, inverse_word, signed_edges, word_name, word_target

Letter = tuple[str, int]  # (2-generator, +1 or -1)


class UnsupportedFreeConstructionError(ValueError):
    """The requested free structure has no normal-form backing here."""


_set = object.__setattr__


class _NormalForm:
    """Equality and hashing by grade and name, which are fixed at construction."""

    __slots__ = ("name",)

    def __eq__(self, other) -> bool:
        return type(other) is type(self) and other.name == self.name

    def __hash__(self) -> int:
        return hash(self.name)

    def __setattr__(self, attr: str, value) -> None:
        raise AttributeError(f"normal forms are immutable; cannot set {attr}")

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.name!r})"


class NF0(_NormalForm):
    __slots__ = ("cell",)
    dim = 0

    def __init__(self, cell: str):
        _set(self, "cell", cell)
        _set(self, "name", cell)


class NF1(_NormalForm):
    __slots__ = ("word",)
    dim = 1

    def __init__(self, word: Word):
        _set(self, "word", word)
        _set(self, "name", word_name(word))


class NF2(_NormalForm):
    __slots__ = ("dom", "cols", "degenerate")
    dim = 2
    degenerate: bool  # every column is empty

    def __init__(self, dom: Word, cols: tuple[tuple[Letter, ...], ...]):
        _set(self, "dom", dom)
        _set(self, "cols", cols)
        letters = ",".join(
            f"{k}:" + ".".join([g + ("+" if s > 0 else "-") for g, s in col]) for k, col in enumerate(cols) if col
        )
        _set(self, "degenerate", not letters)
        _set(self, "name", f"2<{word_name(dom)}|{letters}>" if letters else f"1({word_name(dom)})")


class NF3(_NormalForm):
    __slots__ = ("content",)
    dim = 3

    def __init__(self, content: NF2):
        _set(self, "content", content)
        _set(self, "name", f"1({content.name})")


NF = NF0 | NF1 | NF2 | NF3


class Strictifier:
    """Normal-form presentation of the free strict structure on a graph."""

    def __init__(self, g: TruncatedGlobularSet, threshold: int):
        if g.max_dim > 2:
            raise UnsupportedFreeConstructionError(
                "normal-form strictification needs a generating set of dimension <= 2"
            )
        if threshold == 0 and g.grade(2):
            raise UnsupportedFreeConstructionError(
                "threshold 0 with 2-dimensional generators: word reduction "
                "would merge columns, which the slot normal form cannot decide"
            )
        self._ends = signed_edges(g)
        for gen2 in g.grade(2):  # a letter swaps its faces in a word, which chains only if they are parallel
            lo, hi = g.map("source", 2)[gen2], g.map("target", 2)[gen2]
            if self._ends.get((lo, 1)) != self._ends.get((hi, 1)):
                raise UnsupportedFreeConstructionError(f"the faces {lo} and {hi} of {gen2} are not parallel")
        self.g = g
        self.threshold = threshold
        self.inv2 = threshold <= 1
        self._ctx = TermContext(g, threshold)
        self._memo: dict[StretchTerm, NF] = {}
        self._ops: dict[tuple, NF] = {}  # (operation, dims, argument grade and names) -> its result

    # -- column bookkeeping --------------------------------------------

    def _apply_letter(self, step: Step, letter: Letter) -> Step:
        edge, orient = step
        gen2, sign = letter
        if orient != 1:
            raise UnsupportedFreeConstructionError("a 2-generator cannot act on an inverted edge")
        lo = self.g.map("source", 2)[gen2]
        hi = self.g.map("target", 2)[gen2]
        if sign > 0:
            if edge != lo:
                raise IllTypedTermError(f"{gen2} expects slot edge {lo}, found {edge}")
            return (hi, 1)
        if edge != hi:
            raise IllTypedTermError(f"{gen2} reversed expects slot edge {hi}, found {edge}")
        return (lo, 1)

    def _slot_end(self, step: Step, col: tuple[Letter, ...]) -> Step:
        for letter in col:
            step = self._apply_letter(step, letter)
        return step

    def cod2(self, nf: NF2) -> Word:
        steps = tuple(self._slot_end(s, c) for s, c in zip(nf.dom.steps, nf.cols))
        return Word(nf.dom.base, steps)

    # -- normal-form operations ----------------------------------------

    def refl_lift(self, nf: NF) -> NF:
        """The degenerate cell one grade up."""
        if isinstance(nf, NF0):
            return NF1(Word(nf.cell, ()))
        if isinstance(nf, NF1):
            return NF2(nf.word, tuple(() for _ in nf.word.steps))
        if isinstance(nf, NF2):
            return NF3(nf)
        raise UnsupportedFreeConstructionError("no grade above 3 in this presentation")

    def src_nf(self, nf: NF) -> NF:
        if isinstance(nf, NF1):
            return NF0(nf.word.base)
        if isinstance(nf, NF2):
            return NF1(nf.dom)
        if isinstance(nf, NF3):
            return nf.content
        raise ValueError("0-cells have no boundary")

    def tgt_nf(self, nf: NF) -> NF:
        if isinstance(nf, NF1):
            return NF0(word_target(self._ends, nf.word))
        if isinstance(nf, NF2):
            return NF1(self.cod2(nf))
        if isinstance(nf, NF3):
            return nf.content
        raise ValueError("0-cells have no boundary")

    def comp_nf(self, m: int, p: int, a: NF, b: NF) -> NF:
        """Composite "a after b" of two m-dimensional normal forms."""
        if a.dim != m or b.dim != m:
            raise IllTypedTermError("composition of normal forms needs matching dimensions")
        if m == 1:
            assert isinstance(a, NF1) and isinstance(b, NF1)
            return NF1(compose_words(self._ends, a.word, b.word))
        if m == 2:
            assert isinstance(a, NF2) and isinstance(b, NF2)
            if p == 1:
                if self.cod2(b) != a.dom:
                    raise IllTypedTermError("vertical composition of non-matching 2-cells")
                cols = tuple(
                    free_reduce(cb + ca) if self.inv2 else cb + ca
                    for cb, ca in zip(b.cols, a.cols)
                )
                return NF2(b.dom, cols)
            dom = compose_words(self._ends, a.dom, b.dom)
            cols = a.cols + b.cols
            if len(dom) != len(cols):
                # words cancel only at threshold 0, where every column is empty
                if any(cols):
                    raise UnsupportedFreeConstructionError("cancellation under a nonempty column")
                cols = ((),) * len(dom)
            return NF2(dom, cols)
        if m == 3:
            assert isinstance(a, NF3) and isinstance(b, NF3)
            if p == 2:
                return NF3(a.content)
            inner = self.comp_nf(2, p, a.content, b.content)
            assert isinstance(inner, NF2)
            return NF3(inner)
        raise IllTypedTermError(f"no composition at dimension {m}")

    def rev_nf(self, m: int, p: int, nf: NF) -> NF:
        if p < self.threshold:
            raise IllTypedTermError(f"no reversor below the threshold {self.threshold}")
        if m == 1:
            assert isinstance(nf, NF1)
            return NF1(inverse_word(self._ends, nf.word))
        if m == 2:
            assert isinstance(nf, NF2)
            if p == 1:
                cols = tuple(
                    tuple((g2, -s) for g2, s in reversed(col)) for col in nf.cols
                )
                return NF2(self.cod2(nf), cols)
            if not nf.degenerate:
                raise UnsupportedFreeConstructionError(
                    "reversing a non-degenerate 2-cell over dimension 0"
                )
            return NF2(inverse_word(self._ends, nf.dom), nf.cols)  # the columns are all empty
        if m == 3:
            assert isinstance(nf, NF3)
            if p == 2:
                return nf
            inner = self.rev_nf(2, p, nf.content)
            assert isinstance(inner, NF2)
            return NF3(inner)
        raise IllTypedTermError(f"no reversor at dimension {m}")

    # -- strictification of terms --------------------------------------

    def pi(self, t: StretchTerm) -> NF:
        hit = self._memo.get(t)
        if hit is not None:
            return hit
        nf = self._pi(t)
        self._memo[t] = nf
        return nf

    def _pi(self, t: StretchTerm) -> NF:
        d = t.dim
        if d == 0:
            assert t.kind == "gen"
            return NF0(t.cell)
        if t.kind == "gen":
            if d == 1:
                return NF1(Word(self._ends[(t.cell, 1)][0], ((t.cell, 1),)))
            if d == 2:
                src_edge = self.g.map("source", 2)[t.cell]
                return NF2(Word(self._ends[(src_edge, 1)][0], ((src_edge, 1),)), (((t.cell, 1),),))
            raise UnsupportedFreeConstructionError("generators above dimension 2")
        if t.kind == "comp":
            return self._op("comp_nf", t.dims, self.pi(t.args[0]), self.pi(t.args[1]))
        if t.kind == "rev":
            return self._op("rev_nf", t.dims, self.pi(t.args[0]))
        if t.kind in ("refl", "bracket"):
            # a bracket projects to the degenerate cell on its target's image
            return self._op("refl_lift", (), self.pi(t.args[0]))
        raise ValueError(t.kind)

    def _op(self, op: str, dims: tuple[int, ...], *args: NF) -> NF:
        """The normal-form operation op on (*dims, *args), computed once per distinct input."""
        key = (op, dims, args[0].dim, args[0].name, args[-1].name)  # a unary op repeats its argument
        nf = self._ops.get(key)
        if nf is None:
            nf = self._ops[key] = getattr(self, op)(*dims, *args)
        return nf

    # -- canonical representative terms --------------------------------

    def canonical_term(self, nf: NF) -> StretchTerm:
        ctx = self._ctx
        if isinstance(nf, NF0):
            return ctx.gen(0, nf.cell)
        if isinstance(nf, NF1):
            return self._word_term(nf.word)
        if isinstance(nf, NF2):
            if nf.degenerate:
                return ctx.refl(1, 2, self._word_term(nf.dom))
            # canonical layer order: slot-major left to right, column order
            # within a slot; each layer is a right-nested horizontal product
            # of one 2-generator and single-step identities, so consecutive
            # layers chain syntactically
            layers = []
            current = list(nf.dom.steps)
            for k, col in enumerate(nf.cols):
                for letter in col:
                    layers.append(self._layer_term(current, k, letter))
                    current[k] = self._apply_letter(current[k], letter)
            term = layers[0]
            for lay in layers[1:]:
                term = ctx.comp(2, 1, lay, term)
            return term
        if isinstance(nf, NF3):
            return ctx.refl(2, 3, self.canonical_term(nf.content))
        raise TypeError(type(nf))

    def _step_term(self, step: Step) -> StretchTerm:
        edge, orient = step
        return self._ctx.gen(1, edge) if orient > 0 else self._ctx.rev(1, 0, self._ctx.gen(1, edge))

    def _word_term(self, w: Word) -> StretchTerm:
        ctx = self._ctx
        if not w.steps:
            return ctx.refl(0, 1, ctx.gen(0, w.base))
        terms = [self._step_term(s) for s in w.steps]
        out = terms[-1]
        for t in reversed(terms[:-1]):
            out = ctx.comp(1, 0, t, out)
        return out

    def _layer_term(self, positions: list[Step], k: int, letter: Letter) -> StretchTerm:
        ctx = self._ctx
        gen2, sign = letter
        factors = []
        for i, step in enumerate(positions):
            if i == k:
                factors.append(ctx.gen(2, gen2) if sign > 0 else ctx.rev(2, 1, ctx.gen(2, gen2)))
            else:
                factors.append(ctx.refl(1, 2, self._step_term(step)))
        out = factors[-1]
        for f in reversed(factors[:-1]):
            out = ctx.comp(2, 0, f, out)
        return out


def normalize2(g: TruncatedGlobularSet, t: StretchTerm) -> StretchTerm:
    """Canonical representative in the free strict 2-category on g.

    Accepts terms built from gen, comp, and refl only; two inputs get equal
    results exactly when the axioms (associativity, units, interchange,
    reflexor functoriality) identify them.
    """

    def check(u: StretchTerm) -> None:
        if u.kind in ("rev", "bracket"):
            raise IllTypedTermError(f"normalize2 does not accept {u.kind} nodes: {u.name}")
        for a in u.args:
            check(a)

    check(t)
    if t.dim > 2:
        raise IllTypedTermError("normalize2 handles terms of dimension <= 2")
    strict = Strictifier(g, threshold=2)
    return strict.canonical_term(strict.pi(t))
