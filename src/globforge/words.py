"""Words over a generating graph and the dimension-1 free groupoid.

A word is a base 0-cell together with a sequence of signed edges.  The
sequence is read right to left as composition: the last step is applied
first, so consecutive steps must chain head-to-tail, the word's source is
the tail of its last step, and its target is the head of its first step.
The empty word at a point is that point's identity.

Reduction deletes adjacent inverse pairs e+e- or e-e+ of the same edge
until none remain.  The rewrite is confluent, so the reduced word is unique
regardless of deletion order; free_reduce does it in one stack scan, for
words and for the columns of 2-generator letters in normalform alike.

The 1-cells of the 1-truncated free groupoid on a graph are the reduced
words up to a length bound; reduced_words_by_name keys them by cell name.
free_groupoid_cells materializes the groupoid as a strict structure over
them.  The composite of reduced words y after x is y[:len(y)-c] + x[c:],
where c is the length of the overlap in which y's last steps cancel x's
first steps.  This is exactly the reduced concatenation: each factor is
reduced, so the only cancellable pairs are at the junction, and once the
overlap is gone the new junction does not cancel either.  Composition is
partial at the length boundary, so validators should be run with
require_total=False.
"""

from __future__ import annotations

from ._record import Record
from .globular import TruncatedGlobularSet, globular_set
from .layers import ReflexorStructure
from .magma import CompositionStructure, InfinityMagma, StrictNCategory

Step = tuple[str, int]  # (edge name, +1 or -1)


class MalformedWordError(ValueError):
    """Consecutive steps of a word do not chain, or a step names no edge."""


class Word(Record):
    __slots__ = _fields = ("base", "steps")  # base: the source 0-cell; the whole word for the empty sequence

    def __init__(self, base: str, steps: tuple[Step, ...]) -> None:
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "steps", steps)

    def __len__(self) -> int:
        return len(self.steps)


def _ends(gs: TruncatedGlobularSet, step: Step) -> tuple[str, str]:
    """(tail, head) of a signed edge."""
    edge, orient = step
    if not gs.has_cell(1, edge):
        raise MalformedWordError(f"unknown edge {edge}")
    s, t = gs.map("source", 1)[edge], gs.map("target", 1)[edge]
    return (s, t) if orient > 0 else (t, s)


def word_source(gs: TruncatedGlobularSet, w: Word) -> str:
    return _ends(gs, w.steps[-1])[0] if w.steps else w.base


def word_target(gs: TruncatedGlobularSet, w: Word) -> str:
    return _ends(gs, w.steps[0])[1] if w.steps else w.base


def make_word(gs: TruncatedGlobularSet, base: str, steps: list[Step] | tuple[Step, ...]) -> Word:
    """Validate chaining and endpoints, then freeze."""
    steps = tuple(steps)
    for step in steps:
        _ends(gs, step)
    for first, second in zip(steps, steps[1:]):
        if _ends(gs, first)[0] != _ends(gs, second)[1]:
            raise MalformedWordError(
                f"steps {first} and {second} do not chain: tail {_ends(gs, first)[0]} vs head {_ends(gs, second)[1]}"
            )
    if steps:
        base = _ends(gs, steps[-1])[0]
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
    return ".".join(_tokens(w))


def _tokens(w: Word) -> tuple[str, ...]:
    return tuple([edge + ("+" if orient > 0 else "-") for edge, orient in w.steps])


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
    """All reduced words of length <= max_len, in a deterministic order."""
    edges = gs.grade(1)
    frontier: list[Word] = [Word(a, ()) for a in gs.grade(0)]
    out: list[Word] = list(frontier)
    for _ in range(max_len):
        nxt: list[Word] = []
        for w in frontier:
            head = word_target(gs, w)
            for edge in edges:
                for orient in (1, -1):
                    step = (edge, orient)
                    tail, _ = _ends(gs, step)
                    # extend on the outside; reject immediate cancellation
                    if tail != head:
                        continue
                    if w.steps and _cancels(step, w.steps[0]):
                        continue
                    nxt.append(Word(w.base, (step,) + w.steps))
        frontier = nxt
        out.extend(frontier)
    out.sort(key=lambda w: (len(w.steps), word_name(w)))
    return out


def reduced_words_by_name(gs: TruncatedGlobularSet, max_len: int) -> dict[str, Word]:
    """The reduced words of length <= max_len keyed by their cell names, in sorted name order."""
    names = {word_name(w): w for w in enumerate_reduced_words(gs, max_len)}
    return {nm: names[nm] for nm in sorted(names)}


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
    names = reduced_words_by_name(g, max_len)
    src = {1: {nm: word_source(g, w) for nm, w in names.items()}}
    tgt = {1: {nm: word_target(g, w) for nm, w in names.items()}}
    gs = globular_set(1, {0: g.grade(0), 1: tuple(names)}, src, tgt)

    refl = ReflexorStructure({(0, 1): {a: word_name(Word(a, ())) for a in g.grade(0)}})

    ends = {(e, o): _ends(g, (e, o)) for e in g.grade(1) for o in (1, -1)}
    tokens = {nm: _tokens(w) for nm, w in names.items()}
    by_target: dict[str, list[str]] = {a: [] for a in g.grade(0)}
    for nm in names:
        by_target[tgt[1][nm]].append(nm)

    # y o x exists only when x ends where y starts: scan that bucket alone.
    # Both words are valid and reduced, so the overlap c gives the composite
    # and only the new junction ys[ly-1-c] | xs[c] has not been chained yet.
    table: dict[tuple[str, str], str] = {}
    for ny, wy in names.items():
        ys, ly, ty = wy.steps, len(wy.steps), tokens[ny]
        undo = tuple((e, -o) for e, o in reversed(ys))  # undo[i] cancels ys[ly-1-i]
        for nx in by_target[src[1][ny]]:
            wx = names[nx]
            xs, lx = wx.steps, len(wx.steps)
            c, top = 0, min(ly, lx)
            while c < top and undo[c] == xs[c]:
                c += 1
            if ly + lx - 2 * c > max_len:
                continue
            if c < ly and c < lx and ends[ys[ly - 1 - c]][0] != ends[xs[c]][1]:
                raise MalformedWordError(f"steps {ys[ly - 1 - c]} and {xs[c]} do not chain")
            kept = ty[: ly - c] + tokens[nx][c:]
            table[(ny, nx)] = ".".join(kept) if kept else f"id({wx.base})"
    comp = CompositionStructure({(1, 0): table})
    return StrictNCategory(InfinityMagma(gs, refl, comp), threshold=0)


def reverse_word(gs: TruncatedGlobularSet, w: Word) -> Word:
    """Formal inverse: reversed steps with flipped orientations."""
    steps = tuple((edge, -orient) for edge, orient in reversed(w.steps))
    return make_word(gs, word_target(gs, w), list(steps))
