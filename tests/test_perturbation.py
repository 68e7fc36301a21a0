import math

import numpy as np
import pytest

from mwspec.errors import ConfigError, NonFiniteError, SingularPivotError
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
    schur_complement,
)


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
    assert np.abs(pencil.f.block(4, 4) - want_44).max() <= 1e-9 * want_44.max()


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


def test_schur_hand_arithmetic():
    m = np.array([[4.0, 2.0], [2.0, 3.0]])
    assert np.allclose(schur_complement(m, 1), [[2.0]])


def test_schur_block_diagonal():
    a = np.diag([1.0, 2.0])
    b = np.diag([3.0, 4.0, 5.0])
    m = np.block([[a, np.zeros((2, 3))], [np.zeros((3, 2)), b]])
    assert np.allclose(schur_complement(m, 2), b)


def test_schur_golden_bordered_equals_minus_UtDinvU(golden_mats):
    _, d_inv, l = golden_mats
    f = perturbed_pencil(d_inv, l, 1.0).f
    gf = schur_complement(bordered(f), 8)
    u = build_U(4, 2)
    target = -u.T @ d_inv.array @ u
    assert np.abs(gf - target).max() <= 1e-8 * max(1.0, np.abs(target).max())


def test_schur_singular_pivot_raises():
    m = np.array([[0.0, 1.0], [1.0, 1.0]])
    with pytest.raises(SingularPivotError):
        schur_complement(m, 1)


@pytest.mark.parametrize("k", [0, 3])
def test_leading_split_must_leave_both_blocks_nonempty(k):
    m = np.eye(3)
    with pytest.raises(ConfigError):
        schur_complement(m, k)
    with pytest.raises(ConfigError):
        haynsworth_check(m, k, Inertia(0, 0, k))


def test_haynsworth_trivial():
    m = np.diag([1.0, -1.0])
    lhs, rhs, ok, _ = haynsworth_check(m, 1, inertia_of(m[:1, :1]))
    assert ok
    assert lhs == (1, 0, 1)
    # the pivot inertia is the caller's, used as it is, not measured again
    lhs, rhs, ok, _ = haynsworth_check(m, 1, Inertia(1, 0, 0))
    assert (lhs, rhs, ok) == ((1, 0, 1), (2, 0, 0), False)


def test_haynsworth_golden(golden_mats):
    _, d_inv, l = golden_mats
    f = perturbed_pencil(d_inv, l, 1.0).f
    lhs, rhs, ok, _ = haynsworth_check(bordered(f), 8, inertia_of(f.array))
    assert ok
    assert lhs == (8, 0, 2)


def test_haynsworth_schur_complement_is_bitwise_symmetric():
    # the verifier's M is the bitwise symmetric bordered G; schur_complement
    # returns M22 - M21 M11^{-1} M12 as computed, haynsworth_check averages it
    rng = np.random.default_rng(5)
    for k in (2, 5, 9):
        m = rng.standard_normal((12, 12))
        m = (m + m.T) / 2.0 + np.eye(12)
        assert np.array_equal(m, m.T)
        _, _, _, schur = haynsworth_check(m, k, inertia_of(m[:k, :k]))
        assert np.array_equal(schur, schur.T)
        raw = schur_complement(m, k)
        assert np.array_equal(schur, (raw + raw.T) / 2.0)


def test_haynsworth_random_symmetric():
    rng = np.random.default_rng(77)
    for _ in range(10):
        m = rng.standard_normal((12, 12))
        m = (m + m.T) / 2.0 + np.eye(12)  # keep the pivot comfortably nonsingular
        _, _, ok, _ = haynsworth_check(m, 5, inertia_of(m[:5, :5]))
        assert ok


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
    got = perturbed_pencil(d_inv, l, 1.0).f.block(1, 2)
    want = np.array([
        [3525525 / 612184, 2430433 / 612184],
        [2255293 / 612184, 935945 / 153046],
    ])
    assert np.abs(got - want).max() <= 1e-9 * want.max()


def test_f_alpha_trace_limit(golden_mats):
    inst, d_inv, l = golden_mats
    d = build_distance_matrix(inst.tree)
    got = np.trace(perturbed_pencil(d_inv, l, 1e-6).f.block(1, 2))
    want = np.trace(d.block(1, 2))
    assert abs(got - want) <= 1e-3 * max(1.0, abs(want))


def test_f_alpha_trace_positive_on_grid():
    inst = random_instance(6, 2, seed=23, extra_edges=3)
    d_inv = distance_inverse_closed_form(inst.tree)
    l = build_laplacian(inst.graph)
    for alpha in (0.01, 0.1, 1.0, 10.0, 100.0):
        assert np.trace(perturbed_pencil(d_inv, l, alpha).f.block(2, 5)) > 0
