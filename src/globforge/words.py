"""Words over a generating graph and the dimension-1 free groupoid.

A word is a base 0-cell together with a sequence of signed edges.  The
sequence is read right to left as composition: the last step is applied
first, so consecutive steps must chain head-to-tail, the word's source (its
base) is the tail of its last step, and its target is the head of its first
step.  The empty word at a point is that point's identity.

Only this module knows how signed edges chain: signed_edges builds a graph's
(tail, head) table, make_word validates outside input against it, and
word_target, inverse_word and compose_words read it to operate on valid words
without re-validating them, here and in normalform.

Reduction deletes adjacent inverse pairs e+e- or e-e+ of the same edge
until none remain.  The rewrite is confluent, so the reduced word is unique
regardless of deletion order; free_reduce does it in one stack scan, for
words and for the columns of 2-generator letters in normalform alike.

The 1-cells of the 1-truncated free groupoid on a graph are the reduced
words up to a length bound; reduced_words_by_name keys them by cell name.
free_groupoid_cells materializes the groupoid as a strict structure over
them, y after x being compose_words' reduced concatenation wherever it stays
within the bound.  Composition is partial at the length boundary, so
validators should be run with require_total=False.
"""

from __future__ import annotations

from ._record import Record
from .globular import TruncatedGlobularSet, globular_set
from .layers import ReflexorStructure
from .magma import CompositionStructure, InfinityMagma, StrictNCategory

Step = tuple[str, int]  # (edge name, +1 or -1)


class MalformedWordError(ValueError):
    """Consecutive steps of a word do not chain, or a step names no edge or has an orientation other than +1 or -1."""


class AmbiguousNameError(ValueError):
    """A generator's name could also be the name of a cell built from other generators."""


_JOINERS = frozenset(".;[]")


def check_generator_names(gs: TruncatedGlobularSet) -> None:
    """Refuse a generator of grade >= 1 whose name holds ".", ";", "[" or "]": word names join signed
    edges with ".", and bracket names are [A;B]m, so such a name could stand for two different cells."""
    for m in range(1, gs.max_dim + 1):
        for c in gs.grade(m):
            if not _JOINERS.isdisjoint(c):
                raise AmbiguousNameError(
                    f"cell {c} of grade {m}: a generator's name may not contain '.', ';', '[' or ']', "
                    "which join the names of words and brackets"
                )


class Word(Record):
    """A base 0-cell and signed steps.  In a valid word the base is the word's
    source: the tail of its last step, or its only point when it has none."""

    __slots__ = _fields = ("base", "steps")

    def __init__(self, base: str, steps: tuple[Step, ...]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)


Ends = dict[Step, tuple[str, str]]


def signed_edges(gs: TruncatedGlobularSet) -> Ends:
    """The (tail, head) of every signed edge (e, +1) and (e, -1) of a graph."""
    src, tgt = gs.map("source", 1), gs.map("target", 1)
    return {(e, o): (src[e], tgt[e])[::o] for e in gs.grade(1) for o in (1, -1)}


def word_target(ends: Ends, w: Word) -> str:
    """The head of a valid word's first step, or its only point."""
    return ends[w.steps[0]][1] if w.steps else w.base


def inverse_word(ends: Ends, w: Word) -> Word:
    """Formal inverse of a valid word: reversed steps with flipped orientations."""
    return Word(word_target(ends, w), tuple([(edge, -orient) for edge, orient in reversed(w.steps)]))


def compose_words(ends: Ends, a: Word, b: Word) -> Word:
    """The reduced composite "a after b" of valid words; only the junction is checked, in O(1)."""
    head = word_target(ends, b)
    if a.base != head:
        raise MalformedWordError(f"{word_name(a)} cannot follow {word_name(b)}: tail {a.base} vs head {head}")
    return Word(b.base, free_reduce(a.steps + b.steps))


def make_word(gs: TruncatedGlobularSet, base: str, steps: list[Step] | tuple[Step, ...]) -> Word:
    """Validate outside input against the signed-edge table, then freeze."""
    steps, ends = tuple(steps), signed_edges(gs)
    for step in steps:
        if step not in ends:
            edge, orient = step
            if (edge, 1) not in ends:
                raise MalformedWordError(f"unknown edge {edge}")
            raise MalformedWordError(f"step {step} has orientation {orient}, expected 1 or -1")
    for first, second in zip(steps, steps[1:]):
        tail, head = ends[first][0], ends[second][1]
        if tail != head:
            raise MalformedWordError(f"steps {first} and {second} do not chain: tail {tail} vs head {head}")
    if steps:
        base = ends[steps[-1]][0]
    elif not gs.has_cell(0, base):
        raise MalformedWordError(f"unknown 0-cell {base}")
    return Word(base, steps)


def _cancels(a: Step, b: Step) -> bool:
    return a[0] == b[0] and a[1] == -b[1]


def free_reduce(steps: tuple[Step, ...]) -> tuple[Step, ...]:
    """Delete adjacent inverse pairs of signed letters with one stack scan."""
    stack: list[Step] = []
    for step in steps:
        if stack and _cancels(stack[-1], step):
            stack.pop()
        else:
            stack.append(step)
    return tuple(stack)


def reduce_word(gs: TruncatedGlobularSet, w: Word) -> Word:
    """Unique reduced form via a stack scan; idempotent and endpoint-preserving."""
    return make_word(gs, w.base, free_reduce(w.steps))


def word_name(w: Word) -> str:
    """Canonical cell name: id(a) for the empty word, dotted signed edges otherwise."""
    if not w.steps:
        return f"id({w.base})"
    return ".".join([edge + ("+" if orient > 0 else "-") for edge, orient in w.steps])


def parse_word(gs: TruncatedGlobularSet, text: str) -> Word:
    """Parse 'e+.f-' or 'e+ f-' or 'id(a)' into a validated word."""
    text = text.strip()
    if text.startswith("id(") and text.endswith(")"):
        return make_word(gs, text[3:-1].strip(), [])
    tokens = [t for chunk in text.split() for t in chunk.split(".") if t]
    if not tokens:
        raise MalformedWordError("empty word needs an explicit base point, e.g. id(a)")
    steps: list[Step] = []
    for tok in tokens:
        if tok.endswith("+"):
            steps.append((tok[:-1], 1))
        elif tok.endswith("-"):
            steps.append((tok[:-1], -1))
        else:
            raise MalformedWordError(f"step {tok!r} must end with an orientation sign")
    return make_word(gs, "", steps)


def enumerate_reduced_words(gs: TruncatedGlobularSet, max_len: int) -> list[Word]:
    """All reduced words of length <= max_len, shortest first, in a deterministic order."""
    ends = signed_edges(gs)
    leaving: dict[str, list[Step]] = {}
    for step, (tail, _) in ends.items():
        leaving.setdefault(tail, []).append(step)
    frontier: list[Word] = [Word(a, ()) for a in gs.grade(0)]
    out: list[Word] = list(frontier)
    while frontier and len(frontier[0].steps) < max_len:  # an empty frontier has no longer words to extend
        nxt: list[Word] = []
        for w in frontier:
            # extend on the outside; reject immediate cancellation
            back = (w.steps[0][0], -w.steps[0][1]) if w.steps else None
            for step in leaving.get(word_target(ends, w), ()):
                if step != back:
                    nxt.append(Word(w.base, (step,) + w.steps))
        frontier = nxt
        out.extend(frontier)
    return out


def reduced_words_by_name(gs: TruncatedGlobularSet, max_len: int) -> dict[str, Word]:
    """The reduced words of length <= max_len keyed by their cell names, in sorted name order."""
    return dict(sorted([(word_name(w), w) for w in enumerate_reduced_words(gs, max_len)]))


def free_groupoid_cells(g: TruncatedGlobularSet, max_len: int) -> StrictNCategory:
    """The 1-truncated free groupoid on a graph, cells bounded by word length.

    Composition entries exist exactly when the reduced concatenation stays
    within the bound; the total fragment is strict and every 1-cell has the
    reversed word as its inverse.
    """
    if g.max_dim > 1:
        raise ValueError("free groupoid generation expects a graph of dimension <= 1")
    if max_len < 0:
        raise ValueError(f"the word-length bound must be >= 0, got {max_len}")
    names, ends = reduced_words_by_name(g, max_len), signed_edges(g)
    src = {1: {nm: w.base for nm, w in names.items()}}
    tgt = {1: {nm: word_target(ends, w) for nm, w in names.items()}}
    gs = globular_set(1, {0: g.grade(0), 1: tuple(names)}, src, tgt)

    refl = ReflexorStructure({(0, 1): {a: word_name(Word(a, ())) for a in g.grade(0)}})

    by_target: dict[str, list[tuple[str, Word]]] = {a: [] for a in g.grade(0)}
    for nm, w in names.items():
        by_target[tgt[1][nm]].append((nm, w))
    # y o x exists only when x ends where y starts, so only that bucket is scanned, and only when y's last
    # k steps cancel x's first k, k = ceil((|y| + |x| - max_len) / 2), does the composite fit the bound
    table: dict[tuple[str, str], str] = {}
    for ny, wy in names.items():
        undo, over = inverse_word(ends, wy).steps, len(wy.steps) - max_len + 1  # undo[i] cancels wy.steps[-1 - i]
        for nx, wx in by_target[wy.base]:
            k = (over + len(wx.steps)) // 2
            if k <= 0 or undo[:k] == wx.steps[:k]:
                table[ny, nx] = word_name(compose_words(ends, wy, wx))
    comp = CompositionStructure({(1, 0): table})
    return StrictNCategory(InfinityMagma(gs, refl, comp), threshold=0)
