import math

import numpy as np
import pytest

from mwspec.errors import (
    ConfigError,
    NonFiniteError,
    SingularMatrixError,
)
from mwspec.golden import golden_instance
from mwspec.linalg import Inertia, inertia_of
from mwspec.model import MatrixWeightedTree, random_instance
from mwspec.operators import (
    BlockMatrix,
    build_distance_matrix,
    build_laplacian,
    build_U,
    distance_inverse_closed_form,
)
from mwspec.perturbation import (
    bordered,
    gx_matrix,
    haynsworth_check,
    perturbed_pencil,
    principal_block_submatrix,
)
from test_operators import block


@pytest.fixture(scope="module")
def golden_mats():
    inst = golden_instance()
    return (
        inst,
        distance_inverse_closed_form(inst.tree),
        build_laplacian(inst.graph),
    )


def test_beta_zero_recovers_distance_matrix(golden_mats):
    inst, d_inv, l = golden_mats
    pencil = perturbed_pencil(d_inv, l, 0.0)
    d = build_distance_matrix(inst.tree).array
    assert np.abs(pencil.f.array - d).max() <= 1e-8 * np.abs(d).max()


def test_golden_pencil_beta_one(golden_mats):
    _, d_inv, l = golden_mats
    pencil = perturbed_pencil(d_inv, l, 1.0)
    want_44 = np.array([
        [3647621 / 612184, 2294033 / 612184],
        [2294033 / 612184, 1968213 / 306092],
    ])
    assert np.abs(block(pencil.f, 4, 4) - want_44).max() <= 1e-9 * want_44.max()


def test_random_pencil_against_dense_oracle():
    inst = random_instance(7, 2, seed=3, extra_edges=4)
    d_inv = distance_inverse_closed_form(inst.tree)
    l = build_laplacian(inst.graph)
    pencil = perturbed_pencil(d_inv, l, 3.5)
    dim = 14
    assert np.abs(pencil.p.array @ pencil.f.array - np.eye(dim)).max() <= 1e-8
    oracle = np.linalg.inv(d_inv.array - 3.5 * l.array)
    assert np.abs(pencil.f.array - oracle).max() <= 1e-8
    assert inertia_of(pencil.p.array) == (12, 0, 2)


def test_pencil_rejects_negative_beta(golden_mats):
    _, d_inv, l = golden_mats
    with pytest.raises(ValueError):
        perturbed_pencil(d_inv, l, -1.0)


@pytest.mark.parametrize("beta, error", [
    (1e308, NonFiniteError), (math.inf, ConfigError), (math.nan, ConfigError),
])
def test_pencil_is_never_non_finite(golden_mats, beta, error):
    # at 1e308, beta L overflows: P and F are inf/NaN and the residual is NaN
    _, d_inv, l = golden_mats
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(error):
        perturbed_pencil(d_inv, l, beta)


# --- principal block submatrix -----------------------------------------------


def test_submatrix_full_index_set(golden_mats):
    _, d_inv, _ = golden_mats
    sub = principal_block_submatrix(d_inv, [1, 2, 3, 4])
    assert np.array_equal(sub.array, d_inv.array)


def test_submatrix_golden_is_negative_definite(golden_mats):
    _, d_inv, l = golden_mats
    p = perturbed_pencil(d_inv, l, 1.0).p
    sub = principal_block_submatrix(p, [1, 2, 3])
    assert sub.array.shape == (6, 6)
    assert np.linalg.eigvalsh(sub.array)[-1] < 0


def test_submatrix_single_diagonal_block_of_D(golden_mats):
    inst, _, _ = golden_mats
    d = build_distance_matrix(inst.tree)
    assert np.array_equal(principal_block_submatrix(d, [2]).array, np.zeros((2, 2)))


def test_submatrix_rejects_bad_indices(golden_mats):
    _, d_inv, _ = golden_mats
    with pytest.raises(ConfigError):
        principal_block_submatrix(d_inv, [])
    with pytest.raises(ConfigError):
        principal_block_submatrix(d_inv, [1, 1])
    with pytest.raises(ConfigError):
        principal_block_submatrix(d_inv, [5])


# --- bordered matrix ---------------------------------------------------------


def test_bordered_golden_inertia(golden_mats):
    _, d_inv, l = golden_mats
    f = perturbed_pencil(d_inv, l, 1.0).f
    g = bordered(f)
    assert np.array_equal(g, g.T)
    assert np.array_equal(g[8:, 8:], np.zeros((2, 2)))
    assert inertia_of(g) == (8, 0, 2)


def test_bordered_two_vertex_scalar():
    t = MatrixWeightedTree(2, 1, [(0, 1)], np.ones((1, 1, 1)))
    pencil = perturbed_pencil(distance_inverse_closed_form(t), build_laplacian(t), 0.0)
    g = bordered(pencil.f)
    assert g.shape == (3, 3)
    # oracle: eigenvalues of [[0,1,1],[1,0,1],[1,1,0]] are (2, -1, -1)
    assert inertia_of(g) == (2, 0, 1)


@pytest.mark.parametrize("n, s", [(2, 1), (3, 2), (5, 3), (4, 4)])
def test_bordered_and_U_are_the_kron_and_stack_forms(n, s):
    # bit for bit, signs of zero included: a third of F's entries are -0.0
    rng = np.random.default_rng(n * s)
    f = rng.standard_normal((n * s, n * s))
    f[rng.random(f.shape) < 1 / 3] = -0.0
    f = BlockMatrix(n, s, f)
    u = np.kron(np.ones((n, 1)), np.eye(s))
    assert build_U(n, s).dtype == u.dtype and build_U(n, s).tobytes() == u.tobytes()
    want = np.vstack([np.hstack([f.array, u]), np.hstack([u.T, np.zeros((s, s))])])
    g = bordered(f)
    assert g.shape == want.shape and g.dtype == want.dtype
    assert g.tobytes() == want.tobytes()


# --- Schur complement / Haynsworth -------------------------------------------


def _schur(m: np.ndarray, k: int) -> np.ndarray:
    """M/M11 = M22 - M21 M11^{-1} M12 for the leading split M11 = M[:k, :k],
    or the stack of them, by one solve with the pivot."""
    return m[..., k:, k:] - m[..., k:, :k] @ np.linalg.solve(m[..., :k, :k], m[..., :k, k:])


def test_schur_hand_arithmetic():
    m = np.array([[4.0, 2.0], [2.0, 3.0]])
    schur = _schur(m, 1)
    assert np.allclose(schur, [[2.0]])
    assert haynsworth_check(schur, inertia_of(m), inertia_of(m[:1, :1])) == (
        (0, 0, 2), (0, 0, 2), True)


def test_schur_block_diagonal():
    a = np.diag([1.0, -2.0])
    b = np.diag([3.0, 4.0, -5.0])
    m = np.block([[a, np.zeros((2, 3))], [np.zeros((3, 2)), b]])
    assert np.allclose(_schur(m, 2), b)
    lhs, rhs, ok = haynsworth_check(_schur(m, 2), inertia_of(m), inertia_of(a))
    assert ok and lhs == rhs == (2, 0, 3)


def test_schur_golden_bordered_equals_minus_UtDinvU(golden_mats):
    # F D^{-1}U = U, so the Schur complement of F is -U'D^{-1}U
    _, d_inv, l = golden_mats
    f = perturbed_pencil(d_inv, l, 1.0).f
    gf = _schur(bordered(f), 8)
    u = build_U(4, 2)
    target = -u.T @ d_inv.array @ u
    assert np.abs(gf - target).max() <= 1e-8 * max(1.0, np.abs(target).max())
    assert np.abs(f.array @ (d_inv.array @ u) - u).max() <= 1e-8 * np.abs(f.array).max()


def test_haynsworth_trivial():
    m = np.diag([1.0, -1.0])
    lhs, rhs, ok = haynsworth_check(_schur(m, 1), inertia_of(m), inertia_of(m[:1, :1]))
    assert ok
    assert lhs == (1, 0, 1)
    # In(M) and the pivot inertia are the caller's, used as they are, not
    # measured again
    lhs, rhs, ok = haynsworth_check(_schur(m, 1), inertia_of(m), Inertia(1, 0, 0))
    assert (lhs, rhs, ok) == ((1, 0, 1), (2, 0, 0), False)
    lhs, rhs, ok = haynsworth_check(_schur(m, 1), Inertia(2, 0, 0), inertia_of(m[:1, :1]))
    assert (lhs, rhs, ok) == ((2, 0, 0), (1, 0, 1), False)


def test_haynsworth_golden(golden_mats):
    _, d_inv, l = golden_mats
    f = perturbed_pencil(d_inv, l, 1.0).f
    g = bordered(f)
    lhs, rhs, ok = haynsworth_check(_schur(g, 8), inertia_of(g), inertia_of(f.array))
    assert ok
    assert lhs == (8, 0, 2)


def test_haynsworth_averages_the_schur_complement_it_is_given():
    # a Schur complement as computed is not bitwise symmetric; its inertia is
    # that of its average with its transpose, at any asymmetry
    rng = np.random.default_rng(5)
    for k in (2, 5, 9):
        m = rng.standard_normal((12, 12))
        m = (m + m.T) / 2.0 + np.eye(12)
        raw = _schur(m, k)
        _, rhs, _ = haynsworth_check(raw, inertia_of(m), Inertia(0, 0, 0))
        assert rhs == inertia_of((raw + raw.T) / 2.0)
    lopsided = np.array([[1.0, 4.0], [-4.0, -1.0]])      # its average is diag(1, -1)
    assert haynsworth_check(lopsided, Inertia(1, 0, 1), Inertia(0, 0, 0))[1] == (1, 0, 1)


def test_haynsworth_random_symmetric():
    rng = np.random.default_rng(77)
    for _ in range(10):
        m = rng.standard_normal((12, 12))
        m = (m + m.T) / 2.0 + np.eye(12)  # keep the pivot comfortably nonsingular
        _, _, ok = haynsworth_check(_schur(m, 5), inertia_of(m), inertia_of(m[:5, :5]))
        assert ok


def test_stacked_pencil_and_split_give_each_member_its_bits_alone():
    inst = random_instance(6, 2, seed=8, extra_edges=4)
    d_inv, l = distance_inverse_closed_form(inst.tree), build_laplacian(inst.graph)
    betas = [0.0, 0.5, 3.0]
    stack = perturbed_pencil(d_inv, l, betas)
    assert stack.p.array.shape == stack.f.array.shape == (3, 12, 12)
    alone = [perturbed_pencil(d_inv, l, beta) for beta in betas]
    pivots = [inertia_of(one.p.array) for one in alone]
    g = bordered(stack.f)
    lhs, rhs, ok = haynsworth_check(_schur(g, 12), Inertia(*np.transpose(
        [inertia_of(one) for one in g])), Inertia(*np.transpose(pivots)))
    assert ok.tolist() == [True] * 3
    # one Schur complement shared by the stack, as the verifier's -U'D^{-1}U
    u = build_U(6, 2)
    shared = haynsworth_check(-u.T @ d_inv.array @ u, lhs, Inertia(*np.transpose(pivots)))
    assert np.array_equal(shared[:2], [lhs, rhs]) and shared[2].tolist() == [True] * 3
    xs = np.random.default_rng(3).standard_normal((4, 2))
    gx = gx_matrix(stack.f, xs)
    assert gx.shape == (3, 4, 6, 6)
    sub = principal_block_submatrix(stack.p, [1, 4, 6]).array
    for k, (one, pivot) in enumerate(zip(alone, pivots)):
        assert np.array_equal(stack.p.array[k], one.p.array)
        assert np.array_equal(stack.f.array[k], one.f.array)
        assert np.array_equal(g[k], bordered(one.f))
        l1, r1, ok1 = haynsworth_check(_schur(bordered(one.f), 12), inertia_of(g[k]), pivot)
        assert ([lhs[i][k] for i in range(3)], [rhs[i][k] for i in range(3)]) == (
            list(l1), list(r1))
        assert ok1 is True
        assert np.array_equal(gx[k], gx_matrix(one.f, xs))
        assert np.array_equal(sub[k], principal_block_submatrix(one.p, [1, 4, 6]).array)


def test_stacked_pencil_fails_whole_on_one_bad_member():
    # at beta = 1e300 the unit path's pencil is numerically singular
    w = np.ones((2, 1, 1))
    tree = MatrixWeightedTree(3, 1, [(0, 1), (1, 2)], w)
    d_inv, l = distance_inverse_closed_form(tree), build_laplacian(tree)
    perturbed_pencil(d_inv, l, [0.0, 1.0])
    for betas in ([1e300], [0.0, 1e300, 1.0]):
        with pytest.raises(SingularMatrixError, match="pencil numerically singular"):
            perturbed_pencil(d_inv, l, betas)


# --- G_x ---------------------------------------------------------------------


def test_gx_scalar_case_is_matrix_itself(golden_mats):
    inst = random_instance(5, 1, seed=8)
    d_inv = distance_inverse_closed_form(inst.tree)
    l = build_laplacian(inst.graph)
    f = perturbed_pencil(d_inv, l, 1.0).f
    assert np.allclose(gx_matrix(f, np.array([1.0])), f.array)


def test_gx_golden_diagonal(golden_mats):
    _, d_inv, l = golden_mats
    f = perturbed_pencil(d_inv, l, 1.0).f
    gx = gx_matrix(f, np.array([1.0, 0.0]))
    want = np.array([3419893, 3037701, 3655573, 3647621]) / 612184
    assert np.abs(np.diag(gx) - want).max() <= 1e-9 * want.max()


def test_gx_inertia_random():
    inst = random_instance(8, 3, seed=15, extra_edges=6)
    d_inv = distance_inverse_closed_form(inst.tree)
    l = build_laplacian(inst.graph)
    f = perturbed_pencil(d_inv, l, 1.0).f
    rng = np.random.default_rng(5)
    for _ in range(5):
        x = rng.standard_normal(3)
        assert inertia_of(gx_matrix(f, x)) == (7, 0, 1)


def test_gx_rejects_zero_vector(golden_mats):
    _, d_inv, l = golden_mats
    f = perturbed_pencil(d_inv, l, 1.0).f
    with pytest.raises(ConfigError):
        gx_matrix(f, np.zeros(2))


def test_gx_stack_matches_one_vector_at_a_time():
    inst = random_instance(7, 3, seed=21, extra_edges=5)
    f = perturbed_pencil(distance_inverse_closed_form(inst.tree),
                         build_laplacian(inst.graph), 0.5).f
    xs = np.random.default_rng(9).standard_normal((6, 3))
    stacked = gx_matrix(f, xs)
    assert stacked.shape == (6, 7, 7)
    for x, gx in zip(xs, stacked):
        assert np.array_equal(gx, gx_matrix(f, x))


def test_gx_stack_rejects_one_zero_row(golden_mats):
    _, d_inv, l = golden_mats
    f = perturbed_pencil(d_inv, l, 1.0).f
    with pytest.raises(ConfigError):
        gx_matrix(f, np.array([[1.0, 0.0], [0.0, 0.0], [0.5, 0.5]]))


# --- f(alpha) ----------------------------------------------------------------


def test_f_alpha_golden_block(golden_mats):
    _, d_inv, l = golden_mats
    got = block(perturbed_pencil(d_inv, l, 1.0).f, 1, 2)
    want = np.array([
        [3525525 / 612184, 2430433 / 612184],
        [2255293 / 612184, 935945 / 153046],
    ])
    assert np.abs(got - want).max() <= 1e-9 * want.max()


def test_f_alpha_trace_limit(golden_mats):
    inst, d_inv, l = golden_mats
    d = build_distance_matrix(inst.tree)
    got = np.trace(block(perturbed_pencil(d_inv, l, 1e-6).f, 1, 2))
    want = np.trace(block(d, 1, 2))
    assert abs(got - want) <= 1e-3 * max(1.0, abs(want))


def test_f_alpha_trace_positive_on_grid():
    inst = random_instance(6, 2, seed=23, extra_edges=3)
    d_inv = distance_inverse_closed_form(inst.tree)
    l = build_laplacian(inst.graph)
    for alpha in (0.01, 0.1, 1.0, 10.0, 100.0):
        assert np.trace(block(perturbed_pencil(d_inv, l, alpha).f, 2, 5)) > 0
