"""Dense symmetric linear algebra: eigendecomposition, inertia, pseudoinverse,
definiteness tests, numerical rank.

All routines take plain float ndarrays. A symmetric matrix that is not
bitwise symmetric is held to the asymmetry bound and averaged with its
transpose before eigendecomposition, so round-off asymmetry never leaks into
eigenvalue classification; a bitwise symmetric one is passed on as it is.

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


# largest residual of an identity (P1, P2, PF = I, Schur) or asymmetry
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


def _sym_decompose(decompose, a: np.ndarray):
    """decompose((A + A')/2) for a symmetric matrix A, or for each matrix of a
    stack (..., m, m), each held to the asymmetry bound at its own scale. A
    bitwise symmetric A is its own average and is passed on as it is. An
    eigenvalue that comes back non-finite raises NonFiniteError."""
    a = _as_square(a)
    at = a.swapaxes(-1, -2)
    if not np.array_equal(a, at):
        scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
        asym = np.abs(a - at).max(axis=(-2, -1), initial=0.0)
        bad = np.flatnonzero(asym > REL_RESIDUAL * scale)
        if bad.size:
            k = bad[0]     # the first offending matrix of a stack
            raise NotSymmetricError(f"asymmetry {asym.flat[k]:.3e} exceeds "
                                    f"{REL_RESIDUAL:.1e} * {scale.flat[k]:.3e}")
        a = (a + at) / 2.0
    try:
        out = decompose(a)
    except np.linalg.LinAlgError as exc:
        raise NoConvergenceError(str(exc)) from exc
    # eigh returns (w, v); LAPACK can give an inf near the float range
    if not np.all(np.isfinite(out[0] if isinstance(out, tuple) else out)):
        raise NonFiniteError("eigenvalue solver returned a non-finite eigenvalue")
    return out


def sym_eigvals(a: np.ndarray) -> np.ndarray:
    """Ascending eigenvalues of a symmetric matrix, or of each matrix of a
    stack (..., m, m), each held to the asymmetry bound at its own scale."""
    return _sym_decompose(np.linalg.eigvalsh, a)


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


def pinv_psd(a: np.ndarray) -> np.ndarray:
    """Moore-Penrose inverse of a symmetric positive semidefinite matrix."""
    w, v = _sym_decompose(np.linalg.eigh, a)
    inert = inertia_of_spectrum(w)
    if inert.n_minus:
        raise NotPSDError(f"negative eigenvalue {w[0]:.3e} beyond tolerance")
    inv_w = np.zeros_like(w)     # ascending: the zeros first, then positives
    inv_w[inert.n_zero:] = 1.0 / w[inert.n_zero:]
    return (v * inv_w) @ v.T


def is_pd_quadratic_form(a: np.ndarray) -> bool | np.ndarray:
    """True iff x'Ax > 0 for every nonzero x.

    Equivalent to positive definiteness of the symmetric part (A + A')/2;
    A itself need not be symmetric. A stack (..., m, m) gives a bool array
    of the leading shape, one verdict per matrix.
    """
    a = _as_square(a)
    w = sym_eigvals((a + a.swapaxes(-1, -2)) / 2.0)
    scale = np.maximum(1.0, np.abs(a).max(axis=(-2, -1), initial=0.0))
    ok = w[..., 0] > EIG_ZERO * scale
    return bool(ok) if ok.ndim == 0 else ok


def rank_of(a: np.ndarray) -> int:
    """Numerical rank via singular values above a relative threshold."""
    a = np.asarray(a, dtype=float)
    if not np.all(np.isfinite(a)):
        raise NonFiniteError("matrix contains non-finite entries")
    if a.size == 0:
        return 0
    return inertia_of_spectrum(np.linalg.svd(a, compute_uv=False)).n_plus

