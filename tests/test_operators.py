import numbers
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from mwspec import exact as ex
from mwspec.errors import ConfigError
from mwspec.golden import EXPECTED_D, expected_l, golden_instance
from mwspec.linalg import pinv_psd
from mwspec.kernels import adjacency
from mwspec.model import (
    MatrixWeightedGraph,
    MatrixWeightedTree,
    random_instance,
    random_tree,
)
from mwspec.operators import (
    BlockMatrix,
    build_distance_matrix,
    build_distance_matrix_exact,
    build_laplacian,
    build_laplacian_exact,
    build_U,
    distance_from_laplacian_pinv,
    distance_inverse_closed_form,
    distance_inverse_closed_form_exact,
    structural_vectors,
)
from mwspec.perturbation import perturbed_pencil
from mwspec.verifier import DEFAULT_BETAS, build_matrices
from test_exact import gauss_jordan_oracle
from test_kernels import SHAPES, _assert_identical, _per_root_fill, _tree_edges, _weight


@pytest.fixture(scope="module")
def golden():
    return golden_instance()


def single_edge_tree(w, s=1):
    return MatrixWeightedTree(2, s, [(0, 1)], [np.atleast_2d(w)])


def path_tree_3():
    return MatrixWeightedTree(3, 1, [(0, 1), (1, 2)], np.ones((2, 1, 1)))


# --- Laplacian ---------------------------------------------------------------


def test_laplacian_single_edge():
    l = build_laplacian(single_edge_tree(2.0))
    assert np.allclose(l.array, [[0.5, -0.5], [-0.5, 0.5]])


def test_laplacian_golden_block11(golden):
    l = build_laplacian(golden.graph)
    assert np.allclose(l.block(1, 1), [[1.5, 2.0], [2.0, 5.5]])


def test_laplacian_golden_matches_paper_exactly(golden):
    assert np.array_equal(build_laplacian_exact(golden.graph), expected_l())


def test_laplacian_symmetric_and_annihilates_U():
    # L and the closed-form D^{-1} are bitwise symmetric, so the pencil
    # D^{-1} - beta L is too, with no averaging
    for n, s, seed, rational in ((8, 3, 21, False), (2, 1, 4, False),
                                 (6, 2, 9, False), (5, 2, 3, True)):
        inst = random_instance(n, s, seed=seed, extra_edges=n - 3 if n > 3 else 0,
                               rational=rational)
        l = build_laplacian(inst.graph)
        assert np.array_equal(l.array, l.array.T)
        scale = np.abs(l.array).max()
        assert np.abs(l.array @ build_U(n, s)).max() <= 1e-10 * scale
        d_inv = distance_inverse_closed_form(inst.tree)
        assert np.array_equal(d_inv.array, d_inv.array.T)
        for beta in (0.5, 10.0):
            p = perturbed_pencil(d_inv, l, beta).p.array
            assert np.array_equal(p, p.T)


# --- distance matrix ---------------------------------------------------------


def test_distance_single_edge():
    w = np.array([[8.0, 6.0], [6.0, 5.0]])
    d = build_distance_matrix(single_edge_tree(w, s=2))
    assert np.allclose(d.block(1, 2), w)
    assert np.allclose(d.block(1, 1), 0)


def test_distance_path_tree():
    d = build_distance_matrix(path_tree_3())
    assert np.allclose(d.array, [[0, 1, 2], [1, 0, 1], [2, 1, 0]])


def test_distance_golden_blocks(golden):
    d = build_distance_matrix(golden.tree)
    assert np.allclose(d.block(1, 3), [[9, 7], [7, 10]])   # W1 + W2
    assert np.allclose(d.block(1, 4), [[13, 6], [6, 10]])  # W1 + W3
    assert np.array_equal(d.array, np.array(EXPECTED_D, dtype=float))


@pytest.mark.parametrize("tree", [
    golden_instance().tree,
    *(random_tree(n, s, seed, rational=True)
      for n, s, seed in ((2, 1, 0), (5, 2, 3), (9, 3, 8))),
], ids=["golden", "random-2x1", "random-5x2", "random-9x3"])
def test_distance_exact_matches_float(tree):
    exact = ex.rat_to_float(build_distance_matrix_exact(tree))
    assert np.array_equal(exact, build_distance_matrix(tree).array)


# --- structural vectors ------------------------------------------------------


def test_structural_vectors_golden(golden):
    assert structural_vectors(golden.tree).tolist() == [1, -1, 1, 1]


def test_structural_vectors_star():
    n = 6
    edges = [(0, i) for i in range(1, n)]
    tau = structural_vectors(MatrixWeightedTree(n, 1, edges, np.ones((n - 1, 1, 1))))
    assert tau[0] == 2 - (n - 1)
    assert all(tau[1:] == 1)
    assert tau.sum() == 2


def test_tau_sums_to_two_on_random_trees():
    for seed in range(5):
        t = random_tree(10, 2, seed=seed)
        assert structural_vectors(t).sum() == 2


# --- closed-form inverse -----------------------------------------------------


def test_closed_form_single_edge():
    w = np.array([[8.0, 6.0], [6.0, 5.0]])
    x = distance_inverse_closed_form(single_edge_tree(w, s=2))
    w_inv = np.linalg.inv(w)
    assert np.allclose(x.block(1, 1), 0, atol=1e-12)
    assert np.allclose(x.block(1, 2), w_inv)


def test_closed_form_path_tree_vs_dense_oracle():
    x = distance_inverse_closed_form(path_tree_3()).array
    dense = np.linalg.inv(np.array([[0.0, 1, 2], [1, 0, 1], [2, 1, 0]]))
    assert np.allclose(x, dense, atol=1e-12)


def test_closed_form_inverts_golden_distance(golden):
    x = distance_inverse_closed_form(golden.tree).array
    d = build_distance_matrix(golden.tree).array
    assert np.abs(x @ d - np.eye(8)).max() <= 1e-10


RATIONAL_INSTANCES = [
    golden_instance(),
    *(random_instance(n, s, seed, extra_edges=n - 2, rational=True)
      for n, s, seed in ((3, 1, 2), (5, 2, 3), (7, 3, 8))),
]
RATIONAL_IDS = ["golden", "random-3x1", "random-5x2", "random-7x3"]


@pytest.mark.parametrize("inst", RATIONAL_INSTANCES, ids=RATIONAL_IDS)
def test_closed_form_exact_golden(inst):
    d_inv = distance_inverse_closed_form_exact(inst.tree)
    d = build_distance_matrix_exact(inst.tree)
    assert np.array_equal(d_inv @ d, np.eye(inst.n * inst.s, dtype=int))


@pytest.mark.parametrize("inst", RATIONAL_INSTANCES, ids=RATIONAL_IDS)
def test_exact_f_at_beta_zero_is_the_distance_matrix(inst):
    # F(0) = D, against the inverse of the closed-form D^{-1}, entry for entry
    f0 = build_matrices(inst).exact_f(0.0)
    assert np.array_equal(f0, ex.rational_invert(distance_inverse_closed_form_exact(inst.tree)))
    assert all(type(x) is Fraction for x in f0.flat)


@pytest.mark.parametrize("inst", RATIONAL_INSTANCES, ids=RATIONAL_IDS)
def test_exact_f_matches_the_inverse_of_the_pencil(inst):
    # (I - beta D L)^{-1} D from D and L alone against (D^{-1} - beta L)^{-1}
    # with the closed-form D^{-1}, by the kernel and by the Fraction oracle
    mats = build_matrices(inst)
    d_inv = distance_inverse_closed_form_exact(inst.tree)
    l = build_laplacian_exact(inst.graph)
    for beta in DEFAULT_BETAS:
        p = d_inv - Fraction(beta) * l
        f = mats.exact_f(beta)
        assert np.array_equal(f, ex.rational_invert(p))
        assert np.array_equal(f, gauss_jordan_oracle(p))
        assert all(type(x) is Fraction for x in f.flat)


def test_exact_f_hands_the_elimination_python_ints(monkeypatch):
    # no Fraction reaches the elimination at beta > 0: the system and its
    # right-hand side are matrices of Python ints
    mats = build_matrices(RATIONAL_INSTANCES[2])
    mats.exact_operators()
    calls, invert = [], ex.rational_invert
    monkeypatch.setattr(ex, "rational_invert", lambda a, b=None: calls.append((a, b))
                        or invert(a, b))
    mats.exact_f(0.5)
    assert len(calls) == 1
    for m in calls[0]:
        assert all(type(x) is int for x in np.asarray(m, dtype=object).flat)


@pytest.mark.parametrize("inst", RATIONAL_INSTANCES, ids=RATIONAL_IDS)
def test_exact_kernel_never_leaves_the_rationals(inst):
    # one float constant in a body shared with the float kernel would turn
    # these Fractions into floats and still compare equal to them
    d_inv = distance_inverse_closed_form_exact(inst.tree)
    l = build_laplacian_exact(inst.graph)
    for a in (build_distance_matrix_exact(inst.tree), l, d_inv,
              ex.rational_invert(d_inv - l)):
        assert a.dtype == object and a.shape == (inst.n * inst.s,) * 2
        assert all(isinstance(x, numbers.Rational) and not isinstance(x, float)
                   for x in a.flat)


# --- pseudoinverse route -----------------------------------------------------


def test_pinv_route_single_scalar_edge():
    d = distance_from_laplacian_pinv(single_edge_tree(3.0))
    assert np.allclose(d.array, [[0, 3], [3, 0]], atol=1e-12)


def test_pinv_route_matches_golden(golden):
    d = distance_from_laplacian_pinv(golden.tree).array
    assert np.abs(d - np.array(EXPECTED_D, dtype=float)).max() <= 1e-8 * 13


@pytest.mark.parametrize("n, s, seed", [(6, 3, 17), (2, 1, 0), (9, 2, 4), (14, 4, 8)])
def test_pinv_route_matches_path_sums_random(n, s, seed):
    t = random_tree(n, s, seed=seed)
    a = distance_from_laplacian_pinv(t).array
    b = build_distance_matrix(t).array
    assert np.abs(a - b).max() <= 1e-8 * max(1.0, np.abs(b).max())

    # reference: the per-block loop, with the same arithmetic as the broadcast
    ldag = pinv_psd(build_laplacian(t).array)
    loop = np.zeros_like(a)
    for i in range(n):
        lii = ldag[i * s:(i + 1) * s, i * s:(i + 1) * s]
        for j in range(n):
            ljj = ldag[j * s:(j + 1) * s, j * s:(j + 1) * s]
            lij = ldag[i * s:(i + 1) * s, j * s:(j + 1) * s]
            loop[i * s:(i + 1) * s, j * s:(j + 1) * s] = lii + ljj - 2.0 * lij
    assert np.array_equal(a, loop)


# --- U -----------------------------------------------------------------------


def test_UtU():
    u = build_U(7, 2)
    assert np.array_equal(u.T @ u, 7 * np.eye(2))


@pytest.mark.parametrize("build", [build_laplacian, build_distance_matrix,
                                   distance_inverse_closed_form])
def test_constructors_reject_a_graph_with_no_edges(build):
    with pytest.raises(ConfigError, match="no edges"):
        build(MatrixWeightedTree(3, 1, np.zeros((0, 2), dtype=int), np.zeros((0, 1, 1))))


def test_size_validation():
    with pytest.raises(ConfigError):
        build_U(1, 1)
    with pytest.raises(ConfigError):
        build_U(2, 0)
    with pytest.raises(IndexError):
        BlockMatrix(4, 2, np.zeros((8, 8))).block(1, 5)


# --- permutation equivariance ------------------------------------------------


def test_permutation_equivariance():
    rng = np.random.default_rng(31)
    t = random_tree(6, 2, seed=13)
    perm = rng.permutation(6)
    relabeled = MatrixWeightedTree(6, 2, np.sort(perm[t.endpoints], axis=1), t.weights)
    p_block = np.kron(np.eye(6)[perm], np.eye(2))
    d = build_distance_matrix(t).array
    d_perm = build_distance_matrix(relabeled).array
    assert np.allclose(p_block @ d_perm @ p_block.T, d)


# --- assembly oracles --------------------------------------------------------


def _per_edge_laplacian(n, s, edges, weights, inv):
    """The reference assembly: one inverse and four block writes per edge, so
    each diagonal block adds its incident inverses in edge order."""
    a = np.zeros((n * s, n * s), dtype=weights[0].dtype)
    for (u, v), w in zip(edges, weights):
        vinv = inv(w)
        vinv = (vinv + vinv.T) / 2
        a[u * s:(u + 1) * s, v * s:(v + 1) * s] = -vinv
        a[v * s:(v + 1) * s, u * s:(u + 1) * s] = -vinv
        a[u * s:(u + 1) * s, u * s:(u + 1) * s] += vinv
        a[v * s:(v + 1) * s, v * s:(v + 1) * s] += vinv
    return a


def _weighted(cls, n, s, edges, weights):
    stack = np.stack(weights)
    return cls(n, s, edges, stack.astype(float), stack if stack.dtype == object else None)


def _assembly_case(shape, n, s, exact):
    """A tree of the given shape, and a graph holding it plus n extra edges
    (none at n = 2), both in shuffled edge order and orientation."""
    rng = np.random.default_rng([n, s, SHAPES.index(shape), exact, 7])
    tree_edges = _tree_edges(shape, n, rng)
    edges, seen = list(tree_edges), {frozenset(e) for e in tree_edges}
    while len(edges) < min(2 * n - 1, n * (n - 1) // 2):
        u, v = (int(x) for x in rng.choice(n, size=2, replace=False))
        if frozenset((u, v)) not in seen:
            seen.add(frozenset((u, v)))
            edges.append((u, v))
    edges = [edges[k] for k in rng.permutation(len(edges))]
    weights = {e: _weight(s, rng, exact) for e in edges}
    tree_weights = [weights[e] for e in tree_edges]
    return (tree_edges, tree_weights, _weighted(MatrixWeightedTree, n, s, tree_edges, tree_weights),
            _weighted(MatrixWeightedGraph, n, s, edges, [weights[e] for e in edges]))


CASES = [(shape, n, s, exact) for shape in SHAPES for n in (2, 80) for s in (1, 3)
         for exact in (False, True)]
ASSEMBLY_CASES = pytest.mark.parametrize(
    "shape, n, s, exact", CASES,
    ids=[f"{shape}-{n}-{s}-{'fraction' if exact else 'float'}" for shape, n, s, exact in CASES])


@ASSEMBLY_CASES
def test_laplacian_matches_the_per_edge_loop(shape, n, s, exact):
    _, _, tree, graph = _assembly_case(shape, n, s, exact)
    inv = gauss_jordan_oracle if exact else np.linalg.inv
    build = build_laplacian_exact if exact else (lambda g: build_laplacian(g).array)
    for g in (tree, graph):
        want = _per_edge_laplacian(n, s, g.endpoints.tolist(),
                                   g.exact if exact else g.weights, inv)
        _assert_identical(build(g), want, exact)


@ASSEMBLY_CASES
def test_closed_form_matches_the_per_edge_loop(shape, n, s, exact):
    edges, weights, tree, _ = _assembly_case(shape, n, s, exact)
    inv = gauss_jordan_oracle if exact else np.linalg.inv
    tau = 2 - np.bincount(np.ravel(edges), minlength=n)
    delta = np.kron(tau.reshape(-1, 1), np.eye(s, dtype=int))
    a = (delta @ inv(sum(weights)) @ delta.T - _per_edge_laplacian(n, s, edges, weights, inv)) / 2
    got = (distance_inverse_closed_form_exact(tree) if exact
           else distance_inverse_closed_form(tree).array)
    _assert_identical(got, (a + a.T) / 2, exact)


@ASSEMBLY_CASES
def test_distance_is_the_per_root_fill_with_its_upper_triangle_mirrored(shape, n, s, exact):
    edges, weights, tree, _ = _assembly_case(shape, n, s, exact)
    want = _per_root_fill(adjacency(n, edges), weights, s)
    lower = np.tril_indices(n * s, -1)
    want[lower] = want.T[lower]
    got = build_distance_matrix_exact(tree) if exact else build_distance_matrix(tree).array
    _assert_identical(got, want, exact)
    _assert_identical(got, got.T, exact)


@pytest.mark.parametrize("seed", [1, 1912])
def test_closed_form_keeps_its_bits_and_one_dense_array_at_benchmark_size(seed):
    # the assemble-wide tree (n = 600, s = 2): D^{-1} has the bits of the
    # whole-array expression, and is symmetrized inside its own ns x ns
    # array, where subtracting a dense L(T) and adding a' made two more
    tree = random_tree(600, 2, seed)
    ns = tree.n * tree.s
    tracemalloc.start()
    try:
        got = distance_inverse_closed_form(tree).array
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.25 * ns * ns * 8
    delta = np.kron(structural_vectors(tree).reshape(-1, 1), np.eye(2, dtype=int))
    r_inv = np.linalg.inv(sum(tree.weights))
    a = (delta @ r_inv @ delta.T - build_laplacian(tree).array) / 2
    _assert_identical(got, (a + a.T) / 2, False)
