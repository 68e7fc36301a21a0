import json
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mwspec.errors import (
    ConfigError,
    NoConvergenceError,
    NonFiniteError,
    NotPSDError,
    NotSymmetricError,
)
from mwspec.linalg import (
    _TRIANGLE_BLOCK,
    EIG_ZERO,
    Bound,
    _invert_lower,
    _spd_inverse,
    certificate_shift,
    certify,
    inertia_of,
    inertia_of_spectrum,
    is_pd_quadratic_form,
    pinv_psd,
    rank_of,
    sym_eigvals,
)
from mwspec.model import WeightProfile, random_instance
from mwspec.operators import build_laplacian, build_U
from mwspec.verifier import DEFAULT_BETAS, _split, build_matrices


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
    assert np.allclose(pinv_psd(np.eye(4), np.zeros((4, 0))), np.eye(4))


def test_pinv_diag_with_kernel():
    got = pinv_psd(np.diag([2.0, 0.0]), np.array([[0.0], [1.0]]))
    assert np.allclose(got, np.diag([0.5, 0.0]))


def test_pinv_rejects_indefinite():
    with pytest.raises(NotPSDError):
        pinv_psd(np.diag([1.0, -1.0]), np.zeros((2, 0)))


def test_pinv_rejects_a_kernel_larger_than_the_one_given():
    # the zero eigenvalue off the given kernel fails the certificate
    with pytest.raises(NotPSDError):
        pinv_psd(np.diag([2.0, 0.0, 0.0]), np.array([[0.0], [1.0], [0.0]]))


def _psd_with_kernel(dim, k, seed):
    """A PSD (dim, dim) matrix and an orthonormal basis of its k-dimensional
    kernel, at a scale drawn over sixteen orders of magnitude."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((dim, dim)))
    w = np.concatenate([np.zeros(k), rng.uniform(1.0, 10.0, dim - k)])
    a = (q * w) @ q.T * 10.0 ** rng.uniform(-8, 8)
    return (a + a.T) / 2, q[:, :k]


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1))
@example(_TRIANGLE_BLOCK + 13, 3, 61)     # inverted by halves
def test_pinv_moore_penrose_identities(dim, k, seed):
    a, q = _psd_with_kernel(dim, min(k, dim), seed)
    ap = pinv_psd(a, q)
    scale = max(1.0, np.abs(a).max())
    assert np.abs(a @ ap @ a - a).max() <= 1e-8 * scale
    assert np.abs(ap @ a @ ap - ap).max() <= 1e-8 * max(1.0, np.abs(ap).max())
    assert np.abs((a @ ap) - (a @ ap).T).max() <= 1e-8 * scale
    assert np.abs((ap @ a) - (ap @ a).T).max() <= 1e-8 * scale


def test_pinv_of_a_tree_laplacian_keeps_at_most_three_arrays_of_its_size():
    # L_T of a tree with ns = 600: the copy that is certified and then
    # shifted, the Cholesky factor inverted in place, and the result; the
    # 1 % is the (ns, s) products and Python's own objects
    n, s = 300, 2
    a = build_laplacian(random_instance(n, s, 300, 0).tree).array
    kernel = build_U(n, s) / np.sqrt(n)
    tracemalloc.start()
    try:
        pinv_psd(a, kernel)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3.01 * a.nbytes


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=130), st.floats(min_value=0.0, max_value=20.0),
       st.integers(min_value=-900, max_value=900), st.integers(min_value=0, max_value=2**32 - 1))
@example(1, 0.0, 0, 0)
@example(_TRIANGLE_BLOCK, 10.0, -900, 1)
@example(_TRIANGLE_BLOCK + 1, 20.0, 900, 2)
def test_spd_inverse_from_the_cholesky_factor(m, log_cond, e, seed):
    """A = 2^e Q diag(w) Q', w in [1, 2^log_cond], inverted on both sides of
    the recursion's cutoff at scales where A, its factor and A^{-1} stay normal floats:
    ||AX - I||_2 <= 4 m u kappa(A), u the unit round-off, X = X_C'X_C from
    the factor's inverse X_C, and X is exactly symmetric; X_C keeps its
    upper triangle exactly zero at every order."""
    rng = np.random.default_rng(seed)
    q, _ = np.linalg.qr(rng.standard_normal((m, m)))
    w = np.exp2(rng.uniform(0.0, log_cond, m))
    a = np.ldexp((q * w) @ q.T, e)
    a = (a + a.T) / 2
    bound = 4 * m * np.finfo(float).eps / 2 * np.linalg.cond(a)
    x = _spd_inverse(a)
    assert np.linalg.norm(a @ x - np.eye(m), 2) <= bound
    lower = _invert_lower(np.linalg.cholesky(a))
    assert not np.triu(lower, 1).any()
    assert np.array_equal(x, x.T) and np.array_equal(lower.T @ lower, x)


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


@pytest.mark.parametrize("m", [1, 2, 8, 48, 243])
def test_stacked_numpy_calls_keep_each_members_bits(m):
    """The verifier's per-beta stacks rest on this: numpy's solve, eigvalsh
    and matmul give each member of a stack the bits it gets alone, also on
    the sliced views a Schur complement multiplies."""
    rng = np.random.default_rng(m)
    a = rng.standard_normal((3, m, m))
    a = (a + a.swapaxes(1, 2)) / 2.0 + m * np.eye(m)
    b = rng.standard_normal((3, m, m))
    h = (m + 1) // 2
    x, w = np.linalg.solve(a, np.eye(m)), np.linalg.eigvalsh(a)
    ab, cut = a @ b, a[:, h:, :h] @ b[:, :h, h:]
    for k in range(3):
        assert np.array_equal(x[k], np.linalg.solve(a[k], np.eye(m)))
        assert np.array_equal(w[k], np.linalg.eigvalsh(a[k]))
        assert np.array_equal(ab[k], a[k] @ b[k])
        assert np.array_equal(cut[k], a[k, h:, :h] @ b[k, :h, h:])


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
    rank, min_eig = rank_of(np.zeros((3, 3)), np.eye(3))
    assert rank == 0 and isinstance(min_eig, Bound) and -1e-15 < min_eig < 0


def test_rank_of_J():
    j = np.kron(np.ones((4, 4)), np.eye(2))
    b = np.kron(np.vstack([np.eye(3), -np.ones((1, 3))]), np.eye(2))   # ker J
    rank, min_eig = rank_of(j, np.linalg.qr(b)[0])
    assert rank == 2 and isinstance(min_eig, Bound)


def test_rank_of_reads_the_spectrum_where_the_kernel_is_wrong():
    # U/2 spans J's range, not its kernel: no certificate, the spectrum's count
    j = np.kron(np.ones((4, 4)), np.eye(2))
    rank, min_eig = rank_of(j, np.kron(np.ones((4, 1)), np.eye(2)) / 2)
    assert rank == 2 and not isinstance(min_eig, Bound)
    assert min_eig == np.linalg.eigvalsh(j)[0]


@settings(max_examples=40, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.integers(min_value=0, max_value=8),
       st.integers(min_value=0, max_value=2**32 - 1))
def test_rank_of_certificate_agrees_with_the_spectrum(dim, k, seed):
    a, q = _psd_with_kernel(dim, min(k, dim), seed)
    rank, min_eig = rank_of(a, q)
    w = np.linalg.eigvalsh(a)
    inert = inertia_of_spectrum(w)
    assert rank == inert.n_minus + inert.n_plus
    if isinstance(min_eig, Bound):
        assert min_eig <= w[0]
    else:
        assert min_eig == w[0]


# --- Cholesky certificates ---------------------------------------------------


def test_certificate_shift_moves_the_threshold_half_way_to_the_passing_side():
    assert certificate_shift(2.0) == 1.5 * EIG_ZERO * 2.0        # lambda > t
    assert certificate_shift(np.array([1.0, 4.0])).tolist() == [
        1.5 * EIG_ZERO, 6.0 * EIG_ZERO]


def test_certify_shifts_in_place_and_decomposes_only_the_rest():
    x = np.diag([3.0, 2.0, 5.0])
    a = x.copy()
    ok, w = certify([(a, 1.0)], x)
    assert ok.shape == () and ok and w.shape == (0, 3)
    assert a.tolist() == np.diag([2.0, 1.0, 4.0]).tolist()
    ok, w = certify([(x.copy(), 2.0)], x)
    assert not ok and w.tolist() == [[2.0, 3.0, 5.0]]
    # no certificate certifies nothing
    ok, w = certify([], x)
    assert not ok and w.tolist() == [[2.0, 3.0, 5.0]]
    # a stack takes one shift per member; a certificate's matrices may have
    # another order than x's
    stack = np.stack([np.eye(2), 4.0 * np.eye(2)])
    ok, _ = certify([(stack.copy(), np.array([0.5, 3.5]))], stack)
    assert ok.tolist() == [True, True]
    ok, w = certify([(stack.copy(), np.array([0.5, 4.0]))], stack)
    assert ok.tolist() == [True, False] and w.tolist() == [[4.0, 4.0]]
    small = stack[:, :1, :1]
    ok, w = certify([(small.copy(), 0.5), (-small, -5.0)], stack)
    assert ok.tolist() == [True, True]
    ok, w = certify([(small.copy(), 0.5), (-small, -2.0)], stack)
    assert ok.tolist() == [True, False] and w.tolist() == [[4.0, 4.0]]
    # x's function is not called when every member is certified; it is
    # called for the members left, and first of all when there is no
    # certificate, whose leading shape it gives
    assert certify([(x.copy(), 1.0)], lambda: 1 / 0)[1] is None
    ok, w = certify([(stack.copy(), np.array([0.5, 4.0]))], lambda: stack)
    assert ok.tolist() == [True, False] and w.tolist() == [[4.0, 4.0]]
    ok, w = certify([], lambda: stack)
    assert ok.tolist() == [False, False] and w.tolist() == [[1.0, 1.0], [4.0, 4.0]]
    assert issubclass(Bound, float) and Bound(2.5) == 2.5


def test_certify_gives_each_member_of_a_stack_its_verdict_alone():
    """The whole stack's one factorization fails on one indefinite member;
    each member is then factored alone, and only that member's spectrum is
    taken."""
    rng = np.random.default_rng(34)
    q = np.linalg.qr(rng.standard_normal((5, 4, 4)))[0]
    w = rng.uniform(1.0, 10.0, (5, 4))
    w[3, 2] = -0.5                       # one indefinite member
    stack = (q * w[:, None, :]) @ q.swapaxes(1, 2)
    stack = (stack + stack.swapaxes(1, 2)) / 2.0
    alone = [bool(certify([(a.copy(), 0.0)], a)[0]) for a in stack]
    assert alone == [True, True, True, False, True]
    ok, spectra = certify([(stack.copy(), 0.0)], stack)
    assert ok.tolist() == alone
    assert spectra.tolist() == [sym_eigvals(stack[3]).tolist()]
    # a second certificate factors only the members the first left standing
    shifts = np.array([0.0, 20.0, 0.0, 0.0, 0.0])
    ok, _ = certify([(stack.copy(), 0.0), (stack.copy(), shifts)], stack)
    assert ok.tolist() == [True, False, True, False, True]
    # the (2, 2, ...) leading shape of a stack of stacks
    square = stack[1:].reshape(2, 2, 4, 4)
    ok, _ = certify([(square.copy(), 0.0)], square)
    assert ok.tolist() == [[True, True], [False, True]]


@pytest.mark.parametrize("a, shift", [
    (np.array([[1.0, np.inf], [np.inf, 1.0]]), 0.0),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), 0.0),
    (np.eye(2), np.inf),
    (np.eye(2), np.nan),
    (np.diag([1e308, 1e308]), -1e308),                  # the shifted diagonal overflows
    (np.array([[1e-300, 1e10], [1e10, 1.0]]), 0.0),     # the factor overflows
    (np.full((3, 3), np.finfo(float).max), 0.0),
    (np.eye(3)[None].repeat(2, axis=0), np.array([0.0, np.inf])),
], ids=["inf", "nan", "inf-shift", "nan-shift", "shift-overflow", "factor-overflow",
        "max-float", "stack-inf-shift"])
def test_cholesky_certificate_never_raises(a, shift):
    # a certificate that fails is no error; only the spectrum of x, here
    # finite, is taken of the members it leaves
    x = np.zeros(a.shape)
    with np.errstate(all="raise"):
        ok, w = certify([(a.copy(), shift)], x)
    assert ok.tolist() == ([True, False] if a.ndim == 3 else False)
    assert len(w) == np.count_nonzero(~ok)


@settings(max_examples=300, deadline=None)
@given(m=st.integers(1, 7), k=st.integers(1, 4), seed=st.integers(0, 2**32 - 1),
       ratio=st.floats(-3.0, 3.0), bad=st.integers(0, 3), exponent=st.integers(-60, 60))
def test_certificate_never_passes_what_the_spectrum_fails(m, k, seed, ratio, bad, exponent):
    """For the claim lambda_min > EIG_ZERO * scale (THM.vi's), scale =
    max(1, max|A|): every member of a stack that the certificate passes also
    passes on its spectrum, gets the verdict it gets alone, and every other
    member gets its spectrum. One member of each stack has its least
    eigenvalue within a few thresholds of the claim's, and the whole stack is
    scaled by 2^exponent."""
    rng = np.random.default_rng(seed)
    q = np.linalg.qr(rng.standard_normal((k, m, m)))[0]
    w = rng.uniform(1.0, 10.0, (k, m))
    w[bad % k, 0] = ratio * EIG_ZERO * 10.0
    a = (q * w[:, None, :]) @ q.swapaxes(1, 2)
    a = (a + a.swapaxes(1, 2)) / 2.0 * 2.0 ** exponent
    scale = np.maximum(1.0, np.abs(a).max(axis=(1, 2)))
    spectra = np.linalg.eigvalsh(a)
    passes = spectra[:, 0] > EIG_ZERO * scale
    shift = certificate_shift(scale)
    ok, rest = certify([(a.copy(), shift)], a)
    assert np.all(passes[ok])
    assert ok.tolist() == [bool(certify([(member.copy(), c)], member)[0])
                           for member, c in zip(a, shift)]
    assert rest.tolist() == spectra[~ok].tolist()


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 12), s=st.integers(1, 4),
       wide=st.booleans(), beta=st.sampled_from([*DEFAULT_BETAS, 0.37, 1e4]))
def test_deleted_block_split_never_certifies_another_inertia(seed, n, s, wide, beta):
    """The split of P = D^{-1} - beta L with its deleted block, -P[s:, s:] - cI
    and U'PU - ncI: wherever both factor, P's spectrum has inertia
    (ns - s, 0, s) with every |lambda| above c, and every eigenvalue of
    P(alpha'_1) = P[s:, s:] lies below -c, on random instances of the default
    and the [1e-8, 1e8] weight profiles."""
    profile = WeightProfile(1e-8, 1e8) if wide else WeightProfile()
    inst = random_instance(n, s, seed, seed % ((n - 1) * (n - 2) // 2 + 1), profile)
    mats = build_matrices(inst)
    p = mats.d_inv.array - beta * mats.l.array
    c, split = _split(p[None], n, s, deleted=True)
    if not certify(split, p[None])[0][0]:
        return
    w = np.linalg.eigvalsh(p)
    assert inertia_of_spectrum(w) == (n * s - s, 0, s)
    assert np.abs(w).min() > c[0]
    assert np.linalg.eigvalsh(p[s:, s:])[-1] < -c[0]


def test_quadratic_form_between_the_threshold_and_its_shift_reads_the_spectrum(monkeypatch):
    # lambda_min = 1.2e-9: above the threshold 1e-9, below the shift 1.5e-9,
    # so the certificate fails and the spectrum decides, as without it
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(a.shape) or eigvalsh(a))
    assert is_pd_quadratic_form(np.diag([1.0, 1.0, 1.2e-9]))
    assert not is_pd_quadratic_form(np.diag([1.0, 1.0, 0.9e-9]))
    assert len(calls) == 2
    assert is_pd_quadratic_form(np.diag([1.0, 1.0, 1.6e-9]))     # certified
    stack = np.stack([np.eye(3), np.diag([1.0, 1.0, 1.2e-9]), np.diag([1.0, 1.0, 0.9e-9])])
    assert is_pd_quadratic_form(stack).tolist() == [True, True, False]
    # one spectrum call, for the two members the certificate leaves
    assert calls[2:] == [(2, 3, 3)]
