import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspec.errors import (
    ConfigError,
    NoConvergenceError,
    NonFiniteError,
    NotPSDError,
    NotSymmetricError,
)
from mwspec.linalg import (
    inertia_of,
    inertia_of_spectrum,
    is_pd_quadratic_form,
    pinv_psd,
    rank_of,
    sym_eigvals,
)


def test_sym_eigen_identity():
    assert np.allclose(sym_eigvals(np.eye(3)), [1, 1, 1])


def test_sym_eigen_swap():
    w = sym_eigvals(np.array([[0.0, 1.0], [1.0, 0.0]]))
    assert np.allclose(w, [-1.0, 1.0])


def test_sym_eigen_rejects_non_square():
    with pytest.raises(ConfigError):
        sym_eigvals(np.zeros((2, 3)))


def test_sym_eigen_rejects_asymmetric():
    with pytest.raises(NotSymmetricError):
        sym_eigvals(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_inertia_zero_matrix():
    inert = inertia_of(np.zeros((4, 4)))
    assert inert == (0, 4, 0)
    # a single spectrum gives Python ints, as the JSON report needs
    assert json.dumps(list(inert)) == "[0, 4, 0]"


def test_inertia_counts_sum_to_dimension():
    rng = np.random.default_rng(3)
    for _ in range(20):
        dim = int(rng.integers(1, 15))
        a = rng.standard_normal((dim, dim))
        a = a + a.T
        assert sum(inertia_of(a)) == dim


def test_inertia_against_high_precision_oracle():
    # independent oracle: mpmath symmetric eigensolver at 50 digits
    import mpmath

    rng = np.random.default_rng(12345)
    a = rng.standard_normal((10, 10))
    a = (a + a.T) / 2.0
    with mpmath.workdps(50):
        eigs = mpmath.mp.eigsy(mpmath.matrix(a.tolist()), eigvals_only=True)
        n_minus = sum(1 for x in eigs if x < 0)
        n_plus = sum(1 for x in eigs if x > 0)
    assert inertia_of(a) == (n_minus, 10 - n_minus - n_plus, n_plus)


def test_sylvester_congruence_invariance():
    rng = np.random.default_rng(99)
    for _ in range(20):
        dim = int(rng.integers(2, 31))
        a = rng.standard_normal((dim, dim))
        a = (a + a.T) / 2.0
        # nonsingular congruence with bounded conditioning
        c = rng.standard_normal((dim, dim)) + 3.0 * np.eye(dim)
        assert abs(np.linalg.det(c)) > 1e-6
        assert inertia_of(c.T @ a @ c) == inertia_of(a)


def test_pinv_identity():
    assert np.allclose(pinv_psd(np.eye(4)), np.eye(4))


def test_pinv_diag_with_kernel():
    got = pinv_psd(np.diag([2.0, 0.0]))
    assert np.allclose(got, np.diag([0.5, 0.0]))


def test_pinv_rejects_indefinite():
    with pytest.raises(NotPSDError):
        pinv_psd(np.diag([1.0, -1.0]))


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=2**32 - 1))
def test_pinv_moore_penrose_identities(dim, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim + 1))
    a = m @ m.T  # PSD, possibly rank-deficient in spirit
    ap = pinv_psd(a)
    scale = max(1.0, np.abs(a).max())
    assert np.abs(a @ ap @ a - a).max() <= 1e-8 * scale
    assert np.abs(ap @ a @ ap - ap).max() <= 1e-8 * max(1.0, np.abs(ap).max())
    assert np.abs((a @ ap) - (a @ ap).T).max() <= 1e-8 * scale
    assert np.abs((ap @ a) - (ap @ a).T).max() <= 1e-8 * scale


def test_quadratic_form_pd():
    assert is_pd_quadratic_form(np.diag([2.0, 3.0]))


def test_quadratic_form_skew_is_not_pd():
    assert not is_pd_quadratic_form(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_quadratic_form_golden_offdiagonal_block():
    block = np.array([
        [3525525 / 612184, 2430433 / 612184],
        [2255293 / 612184, 935945 / 153046],
    ])
    assert is_pd_quadratic_form(block)


def test_quadratic_form_stack_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(31)
    skew = rng.standard_normal((3, 3))
    members = [
        np.diag([2.0, 3.0, 0.5]),                     # PD
        skew - skew.T,                                # skew: x'Ax = 0
        np.diag([1.0, -1.0, 2.0]),                    # indefinite
        rng.standard_normal((3, 3)) + 4.0 * np.eye(3),  # nonsymmetric, PD form
        np.zeros((3, 3)),
        np.diag([1.0, 1.0, 1e-12]),                   # PD below the threshold
    ]
    stack = np.array(members).reshape(2, 3, 3, 3)
    ok = is_pd_quadratic_form(stack)
    assert ok.shape == (2, 3) and ok.dtype == bool
    loop = [[is_pd_quadratic_form(a) for a in row] for row in stack]
    assert ok.tolist() == loop == [[True, False, False], [True, False, False]]
    # 1-based (i, j) of the failing members, row-major, as THM.vi reports them
    assert (np.argwhere(~ok) + 1).tolist() == [
        [i + 1, j + 1] for i in range(2) for j in range(3) if not loop[i][j]]


def test_sym_eigen_stack_matches_one_matrix_at_a_time():
    rng = np.random.default_rng(32)
    a = rng.standard_normal((4, 5, 5))
    a = a + a.swapaxes(1, 2)
    a[1] = np.diag([-2.0, 0.0, 1e-12, 1.0, 3.0])
    w = sym_eigvals(a)
    assert np.array_equal(w, np.linalg.eigvalsh(a))
    for k in range(4):
        assert np.array_equal(w[k], sym_eigvals(a[k]))
    # one sign count per row of the stack, as row by row
    inert = inertia_of_spectrum(w)
    assert [x.shape for x in inert] == [(4,)] * 3
    assert np.transpose(inert).tolist() == [list(inertia_of_spectrum(wk)) for wk in w]
    assert list(inertia_of_spectrum(w[1])) == [1, 2, 2]


def test_sym_eigen_passes_a_symmetric_matrix_on_as_it_is(monkeypatch):
    rng = np.random.default_rng(33)
    a = rng.standard_normal((6, 6))
    a = a + a.T
    # bitwise symmetric: eigvalsh's own bits, even where A + A' would overflow
    for sym in (a, np.array([[1e308, 1e308], [1e308, -1e308]])):
        with np.errstate(over="raise"):
            assert np.array_equal(sym_eigvals(sym), np.linalg.eigvalsh(sym))
    # round-off asymmetry within the bound is averaged away
    b = a.copy()
    b[0, 1] += 1e-12
    assert np.array_equal(sym_eigvals(b), np.linalg.eigvalsh((b + b.T) / 2.0))
    # a non-finite entry, and a finite matrix near the float range whose
    # spectrum LAPACK returns with an inf
    for bad in (np.array([[1.0, np.inf], [np.inf, 1.0]]),
                np.full((3, 3), np.finfo(float).max)):
        with pytest.raises(NonFiniteError):
            sym_eigvals(bad)

    def no_convergence(_):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")

    monkeypatch.setattr(np.linalg, "eigvalsh", no_convergence)
    with pytest.raises(NoConvergenceError, match="did not converge"):
        sym_eigvals(a)


def test_sym_eigen_stack_rejects_one_asymmetric_member():
    a = np.stack([np.eye(3), 1e3 * np.eye(3), np.eye(3)])
    # within REL_RESIDUAL of the largest member's scale, not of its own
    a[2, 0, 1] = 1e-7
    with pytest.raises(NotSymmetricError):
        sym_eigvals(a)
    sym_eigvals(a[:2])


def test_rank_zero_matrix():
    assert rank_of(np.zeros((3, 3))) == 0


def test_rank_of_J():
    j = np.kron(np.ones((4, 4)), np.eye(2))
    assert rank_of(j) == 2

