"""The reversibility index by its own pair scan, kept as an oracle for magma.compute_index."""

from __future__ import annotations

from globforge.magma import StrictNCategory, _inverses


def index_by_pair_scan(cat: StrictNCategory) -> int:
    """Least threshold k such that every cell is invertible over all p >= k.

    Each (m, p) pair is searched once and shared across thresholds: a pair
    that fails forces the threshold above p, so the answer is the largest
    such p + 1, or 0 when no pair fails.
    """
    gs = cat.gs
    index = 0
    for m in range(1, gs.max_dim + 1):
        cells = gs.grade(m)
        for p in range(m):
            if p < index:
                continue  # a lower pair already pushed the threshold past p
            inverses = _inverses(cat.magma, m, p)
            if any(len(inverses.get(alpha, ())) != 1 for alpha in cells):
                index = p + 1
    return index
