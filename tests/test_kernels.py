import numpy as np

from mwspec import kernels
from mwspec.model import random_tree
from mwspec.operators import build_distance_matrix


def test_walk_reaches_every_vertex_once_in_dfs_order():
    # 0-1, 1-2, 1-3, 3-4, 0-5
    adj = kernels.adjacency(6, [(0, 1), (1, 2), (1, 3), (3, 4), (0, 5)])
    assert adj[1] == [(0, 0), (2, 1), (3, 2)]
    steps = list(kernels.walk(adj, 0))
    # a popped vertex yields all its unseen neighbors, the last one is popped next
    assert steps == [(0, 1, 0), (0, 5, 4), (1, 2, 1), (1, 3, 2), (3, 4, 3)]
    assert sorted(v for _, v, _ in steps) == [1, 2, 3, 4, 5]
    assert [(u, v) for u, v, _ in kernels.walk(adj, 4)] == [
        (4, 3), (3, 1), (1, 0), (1, 2), (0, 5)]


def test_distance_is_symmetric_with_zero_diagonal():
    d = build_distance_matrix(random_tree(10, 3, seed=9)).array
    assert np.array_equal(d, d.T)
    for i in range(10):
        assert np.array_equal(d[i * 3:(i + 1) * 3, i * 3:(i + 1) * 3],
                              np.zeros((3, 3)))
