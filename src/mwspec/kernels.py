"""Tree traversal and the distance fill.

`walk` is the one traversal in the package: the distance fill below (float
and exact Fraction weights alike) and the connectivity check in `model` use
it. The fill makes two passes of block-row slice updates per tree edge, with
the additions of a walk from every root, so D keeps its bits. Its columns
are laid out component-major, so each update's inner loop runs over a
subtree's positions, not over the s components of one block.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

# No jitted path exists; kept because mwbench/run.py:environment() reads it.
NUMBA_ENABLED = False

# rows of D put in label order, and copied up, per step of the fill's last pass
ROW_BLOCK = 64


def adjacency(n: int, uv: Iterable[tuple[int, int]]) -> list[list[tuple[int, int]]]:
    """For each vertex, its (neighbor, edge index) pairs in edge order."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(n)]
    for k, (u, v) in enumerate(uv):
        adj[u].append((v, k))
        adj[v].append((u, k))
    return adj


def walk(adj: list[list[tuple[int, int]]], root: int) -> Iterator[tuple[int, int, int]]:
    """Depth-first walk from `root` with an explicit stack.

    Yields (u, v, k) for each vertex v first reached from u over edge k. A
    popped vertex yields all its unseen neighbors, in adjacency order,
    before the next pop, so the step that reaches u precedes every step
    from u.
    """
    seen = [False] * len(adj)
    seen[root] = True
    stack = [root]
    while stack:
        u = stack.pop()
        for v, k in adj[u]:
            if not seen[v]:
                seen[v] = True
                yield u, v, k
                stack.append(v)


def distance_fill(adj: list[list[tuple[int, int]]], weights: np.ndarray,
                  s: int) -> np.ndarray:
    """ns x ns tree distance matrix D of the (m, s, s) edge weights, in
    their dtype. Block (x, y) sums the weights on the x-y path from x. With
    each subtree of the tree rooted at 0 on a contiguous range of positions,
    the fill writes D's transpose, component-major: entry (l, m) of block
    (x, y) at row y*s + m, column l*n + pos[x]. Per edge p-v, a leaves-first
    pass sets block row p on v's subtree from row v, a root-first pass row v
    on the rest from row p. A last pass, ROW_BLOCK rows at a time, puts the
    lower triangle in label order and copies it up, in place: D is bitwise
    symmetric, with the upper triangle of a walk from every root.
    """
    n = len(adj)
    out = np.zeros((n * s, n * s), dtype=weights.dtype)
    steps = list(walk(adj, 0))
    size = [1] * n
    for p, v, _ in reversed(steps):
        size[p] += size[v]
    pos, cursor = [0] * n, [1] * n      # cursor[p]: next free position under p
    for p, v, _ in steps:
        pos[v], cursor[v] = cursor[p], cursor[p] + 1
        cursor[p] += size[v]
    e = out.reshape(n, s, s, n)         # e[y, m, l, pos[x]]: entry (l, m) of block (x, y)
    wt = weights.transpose(0, 2, 1)[..., None]
    for p, v, k in reversed(steps):
        a, b = pos[v], pos[v] + size[v]
        e[p, ..., a:b] = e[v, ..., a:b] + wt[k]
    for p, v, k in steps:
        a, b = pos[v], pos[v] + size[v]
        e[v, ..., :a] = e[p, ..., :a] + wt[k]
        e[v, ..., b:] = e[p, ..., b:] + wt[k]
    cols = np.add.outer(pos, n * np.arange(s)).ravel()  # D's column c is at cols[c]
    lower = np.tri(ROW_BLOCK, dtype=bool)
    for a in range(0, n * s, ROW_BLOCK):
        # rows a:b are not yet written: gather their lower part in label
        # order, then write it and its transpose, one block's copy at a time
        b = min(a + ROW_BLOCK, n * s)
        rows = out[a:b, cols[:b]]
        out[a:b, :a] = rows[:, :a]
        out[:a, a:b] = rows[:, :a].T
        out[a:b, a:b] = np.where(lower[:b - a, :b - a], rows[:, a:], rows[:, a:].T)
        del rows     # before the next block's copy is made
    return out
