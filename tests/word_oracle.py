"""The C5 confluence oracle: word reduction in an arbitrary deletion order."""

from __future__ import annotations

import random

from globforge.globular import TruncatedGlobularSet
from globforge.words import Word, make_word


def reduce_word_any_order(gs: TruncatedGlobularSet, w: Word, rng: random.Random) -> Word:
    """Delete a randomly chosen cancellable adjacent pair until none remain.

    Confluence of the cancellation rewrite makes this agree with
    reduce_word for every deletion order.
    """
    steps = list(w.steps)
    while True:
        sites = [
            i for i in range(len(steps) - 1)
            if steps[i][0] == steps[i + 1][0] and steps[i][1] == -steps[i + 1][1]
        ]
        if not sites:
            return make_word(gs, w.base, steps)
        i = rng.choice(sites)
        del steps[i : i + 2]
