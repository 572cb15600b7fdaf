"""Brute-force axiom closure for terms of the free strict 2-category.

The oracle side of the normal-form comparison: enumerate every well-formed
gen/comp/refl term up to a size bound, generate single-axiom rewrites in
both directions at every position (associativity, units, interchange,
reflexor functoriality), and take connected components of the bounded-depth
rewrite graph.  Intermediate terms may grow up to a separate size cap.
"""

from __future__ import annotations

from globforge.terms import IllTypedTermError, StretchTerm, TermContext


def enumerate_terms(ctx: TermContext, max_size: int, max_dim: int = 2) -> list[StretchTerm]:
    """All gen/comp/refl terms of size <= max_size, deterministic order."""
    g = ctx.g
    by_size: dict[int, list[StretchTerm]] = {1: []}
    for m in range(min(max_dim, g.max_dim) + 1):
        for c in g.grade(m):
            by_size[1].append(ctx.gen(m, c))
    tgt_bucket: dict[tuple[int, int, StretchTerm], list[StretchTerm]] = {}

    def bucket(t: StretchTerm) -> None:
        for p in range(t.dim):
            tgt_bucket.setdefault((t.dim, p, ctx.boundary(t, p, "target")), []).append(t)

    for t in by_size[1]:
        bucket(t)
    for s in range(2, max_size + 1):
        out: list[StretchTerm] = []
        for t in by_size.get(s - 1, []):
            d = t.dim
            if d + 1 <= max_dim:
                out.append(ctx.refl(d, d + 1, t))
        for s1 in range(1, s - 1):
            s0 = s - 1 - s1
            for t1 in by_size.get(s1, []):
                d = t1.dim
                for p in range(d):
                    key = (d, p, ctx.boundary(t1, p, "source"))
                    for t0 in tgt_bucket.get(key, []):
                        if t0.size == s0:
                            out.append(ctx.comp(d, p, t1, t0))
        seen = {}
        for t in out:
            seen.setdefault(t.name, t)
        by_size[s] = list(seen.values())
        for t in by_size[s]:
            bucket(t)
    all_terms = [t for s in range(1, max_size + 1) for t in by_size.get(s, [])]
    all_terms.sort(key=lambda t: (t.size, t.name))
    return all_terms


def _tower_views(t: StretchTerm):
    """(levels unwrapped, core) for every reflexor-tower prefix of t."""
    views = []
    cur = t
    k = 0
    while cur.kind == "refl":
        cur = cur.args[0]
        k += 1
        views.append((k, cur))
    return views


def _root_moves(ctx: TermContext, t: StretchTerm) -> list[StretchTerm]:
    out: list[StretchTerm] = []
    d = t.dim

    def offer(build) -> None:
        # candidates outside the syntactic term universe are not moves
        try:
            out.append(build())
        except IllTypedTermError:
            pass

    if t.kind == "comp":
        m, p = t.dims
        y, x = t.args
        if y.kind == "comp" and y.dims == (m, p):
            offer(lambda: ctx.comp(m, p, y.args[0], ctx.comp(m, p, y.args[1], x)))
        if x.kind == "comp" and x.dims == (m, p):
            offer(lambda: ctx.comp(m, p, ctx.comp(m, p, y, x.args[0]), x.args[1]))
        # unit elimination
        for k, core in _tower_views(x):
            if m - k == p and core == ctx.boundary(y, p, "source"):
                out.append(y)
        for k, core in _tower_views(y):
            if m - k == p and core == ctx.boundary(x, p, "target"):
                out.append(x)
        # interchange, in either orientation
        if (
            y.kind == "comp"
            and x.kind == "comp"
            and y.dims[0] == m
            and y.dims == x.dims
            and y.dims[1] != p
        ):
            q = y.dims[1]
            y2, y1 = y.args
            x2, x1 = x.args
            offer(lambda: ctx.comp(m, q, ctx.comp(m, p, y2, x2), ctx.comp(m, p, y1, x1)))
        # reflexor functoriality, composite form -> degenerate form
        vy, vx = _tower_views(y), _tower_views(x)
        for k in range(1, min(len(vy), len(vx)) + 1):
            cp = m - k
            if cp <= p:
                break
            cy, cx = vy[k - 1][1], vx[k - 1][1]
            offer(lambda cy=cy, cx=cx, cp=cp: ctx.refl(cp, m, ctx.comp(cp, p, cy, cx)))
    if t.kind == "refl":
        # reflexor functoriality, degenerate form -> composite form
        for k, core in _tower_views(t):
            if core.kind == "comp":
                cp, cq = core.dims
                if cq < cp < d:
                    offer(
                        lambda cp=cp, cq=cq, core=core: ctx.comp(
                            d, cq,
                            ctx.refl(cp, d, core.args[0]),
                            ctx.refl(cp, d, core.args[1]),
                        )
                    )
    # unit introduction on both sides, at every level below
    for pp in range(d):
        offer(lambda pp=pp: ctx.comp(d, pp, t, ctx.refl(pp, d, ctx.boundary(t, pp, "source"))))
        offer(lambda pp=pp: ctx.comp(d, pp, ctx.refl(pp, d, ctx.boundary(t, pp, "target")), t))
    return out


def neighbors(ctx: TermContext, t: StretchTerm, cap: int) -> list[StretchTerm]:
    out = [u for u in _root_moves(ctx, t) if u.size <= cap]
    if t.kind in ("comp", "refl"):
        for i, a in enumerate(t.args):
            for b in neighbors(ctx, a, cap - (t.size - a.size)):
                args = list(t.args)
                args[i] = b
                try:
                    if t.kind == "comp":
                        out.append(ctx.comp(t.dims[0], t.dims[1], args[0], args[1]))
                    else:
                        out.append(ctx.refl(t.dims[0], t.dims[1], args[0]))
                except IllTypedTermError:
                    # the rewrite changed a syntactic boundary the parent needs
                    pass
    return out


def closure_components(
    ctx: TermContext, seeds: list[StretchTerm], depth: int, cap: int
) -> tuple[dict[StretchTerm, StretchTerm], list[StretchTerm]]:
    """Union-find roots over the union of depth-bounded rewrite balls.

    Also returns every term the search discovered, so callers can verify
    that single-axiom moves never change the normal form.
    """
    parent: dict[StretchTerm, StretchTerm] = {}

    def find(a: StretchTerm) -> StretchTerm:
        parent.setdefault(a, a)
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    def union(a: StretchTerm, b: StretchTerm) -> None:
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    level = {t: 0 for t in seeds}
    frontier = list(seeds)
    memo: dict[StretchTerm, list[StretchTerm]] = {}
    for step in range(depth):
        nxt: list[StretchTerm] = []
        for t in frontier:
            if t not in memo:
                memo[t] = neighbors(ctx, t, cap)
            for u in memo[t]:
                union(t, u)
                if u not in level:
                    level[u] = step + 1
                    nxt.append(u)
        frontier = nxt
    return {t: find(t) for t in seeds}, list(level)
