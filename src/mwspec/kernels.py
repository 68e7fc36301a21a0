"""Tree traversal and the distance fill.

`walk` is the one traversal in the package: the distance fill below (float
and exact Fraction weights alike) and the connectivity check in `model` use
it. The fill walks once, from vertex 0, and then makes two passes of one
numpy block-column update per tree edge: 2(n - 1) array operations of
O(n s^2) each, with the additions of a walk from every root, so D keeps its
bits. Everything downstream is LAPACK-bound.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

import numpy as np

# No jitted path exists; kept because mwbench/run.py:environment() reads it.
NUMBA_ENABLED = False


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


def distance_fill(adj: list[list[tuple[int, int]]], weights: list[np.ndarray],
                  s: int) -> np.ndarray:
    """ns x ns tree distance matrix from two passes over the tree rooted at 0.

    Block (x, y) sums the edge weights on the x-y path in order from x: it is
    block (x, u) + W_uy, u the neighbor of y toward x. For each tree edge
    p-v (p the parent), the leaves-first pass sets column p on the subtree
    of v from column v, and the root-first pass sets column v on the rest
    of the tree from column p: one block-column update per edge and pass,
    the same additions as a walk from every root. The output has the
    weights' dtype: float, or object for Fractions.
    """
    n = len(adj)
    out = np.zeros((n * s, n * s), dtype=weights[0].dtype)
    d = out.reshape(n, s, n, s)
    steps = list(walk(adj, 0))
    below = np.eye(n, dtype=bool)       # below[v]: the subtree of v
    for p, v, k in reversed(steps):
        d[below[v], :, p] = d[below[v], :, v] + weights[k]
        below[p] |= below[v]
    for p, v, k in steps:
        d[~below[v], :, v] = d[~below[v], :, p] + weights[k]
    return out
