"""Calibration op: a fixed amount of pure-Python work, independent of globforge.

    python perfbench/calibrate.py

The shared machines this benchmark runs on change speed by tens of percent
from one second to the next.  The same interpreter doing the same work
slows down with them, so a run times this op between its workload ops and
scales each op's wall time by (reference time / mean of the two calibration
times that bracket it).  The work mixes what
the program spends its time on: frozen-dataclass hashing, dict and set
traffic with tuple and string keys, string formatting and sorting.
Prints a checksum, so the work cannot be skipped.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Node:
    kind: str
    args: tuple


REPEATS = 6


def name(t: Node, memo: dict) -> str:
    hit = memo.get(t)
    if hit is None:
        hit = t.kind if not t.args else f"({t.kind} {' '.join(name(a, memo) for a in t.args)})"
        memo[t] = hit
    return hit


def work(seed: str) -> int:
    leaves = [Node(seed + c, ()) for c in "abcdefgh"]
    level = list(leaves)
    seen: dict[Node, int] = {}
    memo: dict[Node, str] = {}
    for depth in range(4):
        nxt = []
        for i, x in enumerate(level):
            for y in level[i % 7 :: 7]:
                t = Node("o" if depth % 2 else "j", (x, y))
                if t not in seen:
                    seen[t] = len(seen)
                    nxt.append(t)
        level = nxt[:160]
    table = {(name(t, memo), k % 13): k for t, k in seen.items()}
    return sum(len(s) for s in sorted(memo.values())) + len(table) + len({k for k, _ in table})


if __name__ == "__main__":
    print(sum(work(str(rep)) for rep in range(REPEATS)))
