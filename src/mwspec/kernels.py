"""Tree traversal and the distance fill.

`walk` is the one traversal in the package: the distance fill below (float
and exact Fraction weights alike) and the connectivity check in `model` use
it. The distance fill is the only O(n^2 s^2) loop in the package;
everything downstream is LAPACK-bound.
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
    """ns x ns tree distance matrix from per-root traversals.

    Block (r, v) accumulates edge weights along the unique r-v path. The
    output has the weights' dtype: float, or object for Fractions.
    """
    n = len(adj)
    out = np.zeros((n * s, n * s), dtype=weights[0].dtype)
    for r in range(n):
        row = out[r * s:(r + 1) * s]
        for u, v, k in walk(adj, r):
            row[:, v * s:(v + 1) * s] = row[:, u * s:(u + 1) * s] + weights[k]
    return out
