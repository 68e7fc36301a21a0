"""Dense symmetric linear algebra: eigenvalues, inertia, Cholesky
certificates, and the pseudoinverse and numerical rank of a matrix whose
kernel is known.

All routines take plain float ndarrays. A symmetric matrix that is not
bitwise symmetric is held to the asymmetry bound and averaged with its
transpose before it is factored or decomposed, so round-off asymmetry never
leaks into eigenvalue classification; a bitwise symmetric one is passed on
as it is. No routine computes eigenvectors: a known kernel is deflated
(`kernel_certificate`), and a Cholesky factorization decides the rest.

Every float verdict of the package is decided against the three thresholds
below, most of them scaled by max(1, the largest magnitude of the matrix or
spectrum at hand).
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    NoConvergenceError,
    NonFiniteError,
    NotPSDError,
    NotSymmetricError,
)


# largest residual of an identity (P1, P2, PF = I, F D^{-1}U = U) or asymmetry
REL_RESIDUAL = 1e-8
# an eigenvalue or quadratic-form minimum this close to zero counts as zero
EIG_ZERO = 1e-9
# a product that must vanish (LU, U'L) stays below it; G_x's off-diagonal exceed it
NONZERO_FLOOR = 1e-10


class Inertia(NamedTuple):
    n_minus: int
    n_zero: int
    n_plus: int


def _as_square(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != a.shape[-2]:
        raise ConfigError(f"expected a square matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains non-finite entries")
    return a


def sym_part(a: np.ndarray) -> np.ndarray:
    """(A + A')/2 for a symmetric matrix A, or for each matrix of a stack
    (..., m, m), each held to the asymmetry bound at its own scale. A bitwise
    symmetric A is its own average and is returned as it is."""
    at = a.swapaxes(-1, -2)
    if np.array_equal(a, at):
        return a
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    asym = np.abs(a - at).max(axis=(-2, -1), initial=0.0)
    bad = np.flatnonzero(asym > REL_RESIDUAL * scale)
    if bad.size:
        k = bad[0]     # the first offending matrix of a stack
        raise NotSymmetricError(f"asymmetry {asym.flat[k]:.3e} exceeds "
                                f"{REL_RESIDUAL:.1e} * {scale.flat[k]:.3e}")
    return (a + at) / 2.0


def sym_eigvals(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, or of each matrix of a
    stack (..., m, m), each held to the asymmetry bound at its own scale. An
    eigenvalue that comes back non-finite raises NonFiniteError."""
    a = sym_part(_as_square(a))
    try:
        w = np.linalg.eigvalsh(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    # LAPACK can give an inf near the float range
    if not np.all(np.isfinite(w)):
        raise NonFiniteError("eigenvalue solver returned a non-finite eigenvalue")
    return w


def zero_threshold(w: np.ndarray) -> np.ndarray:
    """EIG_ZERO * max(1, spectral_radius) of the spectrum w, or of each row of
    a stack (k, m): values at most this far from zero count as zero."""
    return EIG_ZERO * np.maximum(1.0, np.abs(w).max(axis=-1, initial=0.0))


def inertia_of_spectrum(w: np.ndarray) -> Inertia:
    """Counts of (negative, zero, positive) values in the spectrum w; a stack
    (k, m) of spectra gives an Inertia of (k,) arrays, one count per row.

    Values with |lambda| <= EIG_ZERO * max(1, spectral_radius) count as zero.
    This is the one zero/sign rule for inertia, rank and nullity.
    """
    w = np.asarray(w)
    thresh = zero_threshold(w)
    n_minus = np.sum(w < -thresh[..., None], axis=-1)
    n_plus = np.sum(w > thresh[..., None], axis=-1)
    counts = (n_minus, w.shape[-1] - n_minus - n_plus, n_plus)
    return Inertia(*(map(int, counts) if w.ndim == 1 else counts))


def inertia_of(a: np.ndarray) -> Inertia:
    """Counts of (negative, zero, positive) eigenvalues of a symmetric matrix."""
    return inertia_of_spectrum(sym_eigvals(a))


def certificate_shift(scale):
    """The shift c of a Cholesky certificate for the claim that every
    eigenvalue of A exceeds EIG_ZERO * scale: 1.5 * EIG_ZERO * scale, the
    threshold moved by half of itself toward the passing side, so a
    certificate never passes a matrix that the spectrum fails.

    Cholesky is backward stable: a factorization of A - cI that completes
    is exact for A - cI + E with |E| = O(m u |A|), u the unit round-off
    (Higham, Accuracy and Stability of Numerical Algorithms, ch. 10). That
    rounding is far below the margin EIG_ZERO * scale / 2 at every order m
    this package builds, so it cannot carry an eigenvalue back across the
    threshold; the spectrum itself is only accurate to O(u |A|), so a
    certified matrix reads the same verdict on its spectrum. The margin is a
    fixed fraction of the threshold, not a proven bound."""
    return 1.5 * EIG_ZERO * scale


class Bound(float):
    """A value that a Cholesky certificate proves the claimed eigenvalue to lie
    beyond, on the passing side; a check reports it under its key + "_bound"."""


def _factors(a: np.ndarray) -> bool:
    """Whether np.linalg.cholesky(a) completes with finite factors on a
    finite a, or on every member of a finite stack a."""
    try:
        return bool(np.isfinite(a).all() and np.isfinite(np.linalg.cholesky(a)).all())
    except np.linalg.LinAlgError:
        return False


def certify(certificates, x):
    """Decide a sign claim about each member of a symmetric stack x
    (..., m, m), or about x alone, by Cholesky certificates (A, c): A a stack
    of x's leading shape, c a shift per member or one for all. A member is
    certified when there are certificates and np.linalg.cholesky(A - cI)
    completes with finite factors on its member of each A, whose eigenvalues
    then all exceed its c. Each certificate factors the members still in
    question as one stack, and each alone only when that fails, so every
    member gets the verdict it gets alone. A member with a non-finite shift
    is not factored; only sym_eigvals raises; A's diagonal is shifted in
    place. x is a stack, or a function that builds one, called only when a
    member is left, or first of all when there is no certificate. Returns
    the bool verdicts and the ascending spectra (j, m) of the j members of x
    left: (0, m) for a stack when none is left, None for a function not
    called."""
    if not certificates and callable(x):
        x = x()
    ok = np.full((certificates[0][0] if certificates else x).shape[:-2], bool(certificates))

    with np.errstate(all="ignore"):
        for a, shift in certificates:
            shift = np.asarray(shift, dtype=float)
            ok &= np.isfinite(shift)
            if not ok.all():
                if not ok.any():
                    break
                a, shift = a[ok], np.broadcast_to(shift, ok.shape)[ok]
            a = np.ascontiguousarray(a, dtype=float)      # so that the reshape below is a view
            m = a.shape[-1]
            a.reshape(*a.shape[:-2], m * m)[..., ::m + 1] -= shift[..., None]
            a = a.reshape(-1, m, m)
            if not _factors(a):
                ok[ok] = [_factors(b) for b in a]
    if ok.all():
        return ok, None if callable(x) else np.empty((0, x.shape[-1]))
    x = x() if callable(x) else x
    # the members left; all of them, as a view, when none is certified
    return ok, sym_eigvals(x[~ok] if ok.any() else x.reshape(-1, *x.shape[-2:]))


def is_pd_quadratic_form(a: np.ndarray) -> bool | np.ndarray:
    """True iff x'Ax > 0 for every nonzero x.

    Equivalent to positive definiteness of the symmetric part (A + A')/2;
    A itself need not be symmetric. A stack (..., m, m) gives a bool array
    of the leading shape, one verdict per matrix. A Cholesky certificate
    decides each matrix that passes; the spectrum decides the rest.
    """
    a = _as_square(a)
    scale = np.asarray(np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0)))
    sym = lambda: (a + a.swapaxes(-1, -2)) / 2.0     # built again for the spectrum
    ok, w = certify([(sym(), certificate_shift(scale))], sym)
    if w is not None:
        ok[~ok] = w[:, 0] > EIG_ZERO * scale[~ok]
    return bool(ok) if ok.ndim == 0 else ok


def kernel_certificate(a: np.ndarray, kernel: np.ndarray):
    """For a symmetric A, or each member of a stack (..., m, m), and an
    orthonormal basis Q (..., m, k) of the kernel that A is claimed to have:
    turn a in place into A + tQQ', t = max(1, ||A||_inf), and return the
    shift c' = certificate_shift(t) of the certificate A + tQQ' - c'I > 0
    and the bound 2r + m u t, r = ||AQ||_F and u the unit round-off.

    Where that certificate holds, A has m - k eigenvalues above c' on the
    complement of Q (Courant-Fischer), and r places the other k within 2r
    of 0 (Kahan's residual bound; Parlett, The Symmetric Eigenvalue Problem,
    Thm 11.5.1); m u t is the rounding with which a spectrum of order m
    reads them, so the bound lies beyond the value eigvalsh measures. r is
    formed at A's scale, a power of two near t, so it does not overflow
    where A is near the float range. The shift is infinite, and the
    certificate not tried, unless the bound is at most
    EIG_ZERO * max(1, max|diag A|) / 2: below the zero threshold of A's
    spectrum, whose radius that diagonal does not exceed."""
    with np.errstate(all="ignore"):
        t = np.maximum(1.0, np.abs(a).sum(axis=-1).max(axis=-1))
        e = np.frexp(t)[1][..., None, None]
        r = np.ldexp(np.linalg.norm(np.ldexp(a @ kernel, -e), axis=(-2, -1)), e[..., 0, 0])
        bound = 2 * r + a.shape[-1] * np.finfo(float).eps / 2 * t
        top = np.maximum(1.0, np.abs(np.diagonal(a, axis1=-2, axis2=-1)).max(axis=-1))
        a += t[..., None, None] * (kernel @ kernel.swapaxes(-1, -2))
        return np.where(2 * bound <= EIG_ZERO * top, certificate_shift(t), np.inf), bound


def pinv_psd(a: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric positive semidefinite A whose
    kernel has the orthonormal basis Q: A+ = (A + tQQ')^{-1} - QQ'/t. It is
    taken where kernel_certificate's certificate holds, by one Cholesky
    factorization; elsewhere A has an eigenvalue off Q that is negative or
    counts as zero, and NotPSDError is raised. t = ||A||_inf, with no floor
    of 1 (1 for A = 0 only): A + tQQ' is then no worse conditioned than A
    is off Q, at any scale of A."""
    a = sym_part(_as_square(a))
    b = a.copy()
    shift, _ = kernel_certificate(b, kernel)
    with np.errstate(all="ignore"):
        b.flat[::len(a) + 1] -= shift
        if not _factors(b):
            raise NotPSDError(f"not positive definite off its kernel at shift {float(shift):.3e}")
    # in place from here, so that at most three arrays of A's size are alive
    t = np.abs(a).sum(axis=-1).max() or 1.0     # the zero matrix has no scale
    np.matmul(kernel, kernel.T, out=b)
    b *= t
    b += a
    out = np.linalg.inv(b)
    np.matmul(kernel, kernel.T, out=b)
    b /= t
    out -= b
    return out


def rank_of(a: np.ndarray, kernel: np.ndarray) -> tuple[int, float]:
    """Numerical rank and least eigenvalue of a symmetric matrix A (m, m)
    claimed to have the kernel with orthonormal basis Q (m, k). Where
    kernel_certificate's certificate holds they are m - k and the Bound
    -(2r + m u t), which the least eigenvalue lies above; elsewhere both
    are read off A's spectrum, the rank as its count of nonzero eigenvalues
    under inertia_of's zero rule (its singular values are those
    eigenvalues' magnitudes, so no SVD is needed)."""
    a = sym_part(_as_square(a))
    deflated = a.copy()
    shift, bound = kernel_certificate(deflated, kernel)
    ok, w = certify([(deflated, shift)], a)
    if ok:
        return a.shape[-1] - kernel.shape[-1], Bound(-bound)
    inert = inertia_of_spectrum(w[0])
    return inert.n_minus + inert.n_plus, float(w[0, 0])
