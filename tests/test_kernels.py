import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mwspec import kernels
from mwspec.model import WeightProfile, random_pd_weights, random_tree
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


def _mirror_down(out):
    """Copy the upper triangle down, as D is bitwise symmetric."""
    for i in range(1, len(out)):
        out[i, :i] = out[:i, i]
    return out


def _per_root_fill(adj, weights, s):
    """The reference fill: one walk from every root, block (r, v) = (r, u) + W_uv."""
    n = len(adj)
    out = np.zeros((n * s, n * s), dtype=weights[0].dtype)
    for r in range(n):
        row = out[r * s:(r + 1) * s]
        for u, v, k in kernels.walk(adj, r):
            row[:, v * s:(v + 1) * s] = row[:, u * s:(u + 1) * s] + weights[k]
    return out


def _assert_identical(got, want, exact):
    """Equal bit for bit for floats; for Fractions, equal with the same
    type in every entry."""
    assert got.dtype == want.dtype == (object if exact else float)
    if exact:
        assert np.array_equal(got, want)
        assert all(type(x) is type(y) for x, y in zip(got.flat, want.flat))
    else:
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))


SHAPES = ("path", "star", "caterpillar", "random")


def _tree_edges(shape, n, rng):
    if shape == "path":
        edges = [(i, i + 1) for i in range(n - 1)]
    elif shape == "star":
        edges = [(0, i) for i in range(1, n)]
    elif shape == "caterpillar":
        spine = (n + 1) // 2
        edges = [(i, i + 1) for i in range(spine - 1)]
        edges += [(int(rng.integers(spine)), i) for i in range(spine, n)]
    elif shape == "hubs":
        # adjacent hubs of degree 5 and 7 (tau -3 and -5: tau_i tau_j R^{-1}
        # rounds twice, in another order from each side), a vertex of degree
        # 2 (tau 0), the rest leaves
        assert n == 13
        edges = [(0, v) for v in range(1, 6)] + [(5, v) for v in range(6, 12)] + [(1, 12)]
    else:
        edges = [(int(rng.integers(i)), i) for i in range(1, n)]
    # relabel the vertices and shuffle edge order and orientation, so that
    # vertex 0 is not always the first vertex of a path or the star's center
    label = rng.permutation(n) if shape in ("random", "hubs") else np.arange(n)
    edges = [(int(label[v]), int(label[u])) if rng.integers(2) else (int(label[u]), int(label[v]))
             for u, v in edges]
    return [edges[k] for k in rng.permutation(len(edges))]


def _weight(s, rng, exact):
    a = rng.integers(-9, 10, size=(s, s))
    if exact:
        b = rng.integers(1, 12, size=(s, s))
        w = np.array([[Fraction(int(a[i, j] + a[j, i]), int(b[min(i, j), max(i, j)]))
                       for j in range(s)] for i in range(s)], dtype=object)
        return w + np.diag([Fraction(20)] * s)
    return (a @ a.T) / 7.0 + rng.uniform(0.1, 3.0) * np.eye(s)


@pytest.mark.parametrize("exact", [False, True], ids=["float", "fraction"])
@pytest.mark.parametrize("s", [1, 3])
@pytest.mark.parametrize("n", [2, 80])
@pytest.mark.parametrize("shape", SHAPES)
def test_distance_fill_matches_the_per_root_walk(shape, n, s, exact):
    """The two-pass fill makes the per-root walk's additions: D equals that
    walk's upper triangle mirrored down, bit for bit for floats and exactly
    for Fractions."""
    rng = np.random.default_rng([n, s, SHAPES.index(shape), exact])
    adj = kernels.adjacency(n, _tree_edges(shape, n, rng))
    weights = np.stack([_weight(s, rng, exact) for _ in range(n - 1)])
    got = kernels.distance_fill(adj, weights, s)
    _assert_identical(got, _mirror_down(_per_root_fill(adj, weights, s)), exact)


# weights with eigenvalues in [1e-8, 1e8], or near 1e300 or 1e-300
SCALES = ("wide", "1e300", "1e-300")
EXTREME_SHAPES = SHAPES + ("hubs",)


def _extreme_weights(scale, m, s, rng):
    """(m, s, s) PD weights of the given SCALES kind. Near 1e300 and 1e-300
    the couplings span 1e-26 to 1e-1 of the diagonal: near 1e300 the
    inverses then have subnormal entries, near 1e-300 the weights do."""
    if scale == "wide":
        return random_pd_weights(m, s, rng, WeightProfile(1e-8, 1e8))
    c = rng.standard_normal((m, s, s)) * 10.0 ** rng.uniform(-26, -1, (m, s, s))
    w = rng.uniform(1, 2, (m, s))[..., None] * np.eye(s) + (c + c.transpose(0, 2, 1)) / (2 * s)
    return float(scale) * w


def _extreme_case(shape, s, scale):
    """The edges and weights of a 13-vertex hubs tree or a 40-vertex tree of
    another shape, with weights of the given SCALES kind."""
    n = 13 if shape == "hubs" else 40
    rng = np.random.default_rng([s, EXTREME_SHAPES.index(shape), SCALES.index(scale)])
    return n, _tree_edges(shape, n, rng), _extreme_weights(scale, n - 1, s, rng)


@pytest.mark.parametrize("scale", SCALES)
@pytest.mark.parametrize("s", [2, 4])
@pytest.mark.parametrize("shape", EXTREME_SHAPES)
def test_distance_fill_keeps_the_bits_of_the_per_root_walk_at_extreme_scales(shape, s, scale):
    n, edges, weights = _extreme_case(shape, s, scale)
    adj = kernels.adjacency(n, edges)
    got = kernels.distance_fill(adj, weights, s)
    want = _mirror_down(_per_root_fill(adj, weights, s))
    _assert_identical(got, want, False)
    if scale == "1e-300":     # the weights' subnormal couplings reach D
        assert np.any((got != 0) & (np.abs(got) < np.finfo(float).tiny))


def _tree_input(t):
    return kernels.adjacency(t.n, t.endpoints.tolist()), t.exact if t.is_exact else t.weights


# the trees of the assemble-wide (n = 600, s = 2) and verify-large (n = 60
# and 80, s = 3) benchmark workloads at their recorded seeds, and a rational
# tree of verify-large's size
@pytest.mark.parametrize("n, s, seed, rational", [
    (600, 2, 1, False), (600, 2, 1912, False), (60, 3, 1060, False), (80, 3, 1080, False),
    (60, 3, 1912060, False), (80, 3, 1912080, False), (80, 3, 7, True)])
def test_distance_fill_is_the_per_root_walk_on_benchmark_trees(n, s, seed, rational):
    adj, weights = _tree_input(random_tree(n, s, seed, rational=rational))
    got = kernels.distance_fill(adj, weights, s)
    _assert_identical(got, _mirror_down(_per_root_fill(adj, weights, s)), rational)
    assert not rational or any(type(x) is Fraction for x in got.flat)


def test_distance_fill_makes_no_second_dense_array():
    # D is assembled inside the one ns x ns output: a full-size copy made to
    # put it in label order would double the peak
    n, s = 600, 2
    adj, weights = _tree_input(random_tree(n, s, 1))
    tracemalloc.start()
    try:
        kernels.distance_fill(adj, weights, s)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * (n * s) ** 2 * 8
