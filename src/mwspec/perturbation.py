"""The perturbed pencil P(beta) = D^{-1} - beta L, its inverse F(beta), the
bordered matrix [[F, U], [U', 0]], Schur complements with the Haynsworth
inertia check, the scalar compression G_x, and the block function f(alpha).

These are the objects the verifier exercises; each is usable on its own so
the individual proof steps can be tested independently.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import (
    BadIndexError,
    DimensionMismatchError,
    SingularMatrixError,
    SingularPivotError,
    ZeroVectorError,
)
from .linalg import DEFAULT_TOL, Inertia, Tolerance, inertia_of
from .operators import BlockMatrix, build_U


@dataclass(frozen=True)
class PerturbedPencil:
    beta: float
    p: BlockMatrix    # D^{-1} - beta L
    f: BlockMatrix    # (D^{-1} - beta L)^{-1}


def perturbed_pencil(
    d_inv: BlockMatrix,
    l: BlockMatrix,
    beta: float,
    tol: Tolerance = DEFAULT_TOL,
) -> PerturbedPencil:
    """P = D^{-1} - beta L and F = P^{-1}, with an inversion residual check.

    Nonsingularity is guaranteed for exact data and beta >= 0, so a Singular
    failure here signals conditioning trouble in the inputs.
    """
    if (d_inv.n, d_inv.s) != (l.n, l.s):
        raise DimensionMismatchError(
            f"block shapes differ: ({d_inv.n},{d_inv.s}) vs ({l.n},{l.s})"
        )
    if beta < 0:
        raise ValueError(f"beta must be >= 0, got {beta}")
    p = d_inv.array - beta * l.array
    p = (p + p.T) / 2.0
    dim = p.shape[0]
    try:
        f = np.linalg.solve(p, np.eye(dim))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"pencil numerically singular: {exc}") from exc
    f = (f + f.T) / 2.0
    residual = float(np.abs(p @ f - np.eye(dim)).max())
    if residual > tol.rel_residual * max(1.0, float(np.abs(p).max())):
        raise SingularMatrixError(
            f"inversion residual {residual:.3e} exceeds tolerance"
        )
    return PerturbedPencil(beta, BlockMatrix(d_inv.n, d_inv.s, p),
                           BlockMatrix(d_inv.n, d_inv.s, f))


def principal_block_submatrix(a: BlockMatrix, idx: Sequence[int]) -> BlockMatrix:
    """Keep the blocks in idx x idx (1-based block indices, order preserved)."""
    idx = list(idx)
    if not idx:
        raise BadIndexError("index set must be nonempty")
    if len(set(idx)) != len(idx):
        raise BadIndexError(f"duplicate block indices in {idx}")
    if any(not (1 <= i <= a.n) for i in idx):
        raise BadIndexError(f"block indices {idx} out of range for n={a.n}")
    s = a.s
    rows = np.concatenate([np.arange((i - 1) * s, i * s) for i in idx])
    return BlockMatrix(len(idx), s, a.array[np.ix_(rows, rows)])


def bordered(f: BlockMatrix) -> np.ndarray:
    """(ns+s) x (ns+s) symmetric matrix [[F, U], [U', 0]]."""
    u = build_U(f.n, f.s)
    top = np.hstack([f.array, u])
    bottom = np.hstack([u.T, np.zeros((f.s, f.s))])
    return np.vstack([top, bottom])


def _split_indices(dim: int, pivot) -> tuple[np.ndarray, np.ndarray]:
    if isinstance(pivot, (int, np.integer)):
        if not 0 < pivot < dim:
            raise BadIndexError(f"leading split {pivot} out of range for dim {dim}")
        piv = np.arange(pivot)
    else:
        piv = np.asarray(sorted(set(int(i) for i in pivot)), dtype=np.int64)
        if len(piv) == 0 or len(piv) >= dim or piv[0] < 0 or piv[-1] >= dim:
            raise BadIndexError(f"pivot rows {piv} invalid for dim {dim}")
    rest = np.setdiff1d(np.arange(dim), piv)
    return piv, rest


def schur_complement(m: np.ndarray, pivot) -> np.ndarray:
    """M/M11 = M22 - M21 M11^{-1} M12.

    pivot is either a leading-dimension split (int) or a sequence of 0-based
    row/column indices forming the pivot submatrix.
    """
    m = np.asarray(m, dtype=float)
    piv, rest = _split_indices(m.shape[0], pivot)
    m11 = m[np.ix_(piv, piv)]
    m12 = m[np.ix_(piv, rest)]
    m21 = m[np.ix_(rest, piv)]
    m22 = m[np.ix_(rest, rest)]
    try:
        x = np.linalg.solve(m11, m12)
    except np.linalg.LinAlgError as exc:
        raise SingularPivotError(f"pivot block singular: {exc}") from exc
    # guard against solve "succeeding" on a nearly singular pivot
    if not np.all(np.isfinite(x)):
        raise SingularPivotError("pivot block singular (non-finite solve)")
    out = m22 - m21 @ x
    if np.allclose(m, m.T):
        out = (out + out.T) / 2.0
    return out


def haynsworth_check(
    m: np.ndarray, pivot, tol: Tolerance = DEFAULT_TOL
) -> tuple[Inertia, Inertia, bool, np.ndarray]:
    """Inertia additivity: In(M) vs In(M11) + In(M/M11), componentwise.

    Returns (In(M), In(M11) + In(M/M11), whether they agree, M/M11).
    """
    m = np.asarray(m, dtype=float)
    piv, _ = _split_indices(m.shape[0], pivot)
    lhs = inertia_of(m, tol)
    in_pivot = inertia_of(m[np.ix_(piv, piv)], tol)
    schur = schur_complement(m, pivot)
    in_schur = inertia_of(schur, tol)
    rhs = Inertia(*(a + b for a, b in zip(in_pivot, in_schur)))
    return lhs, rhs, lhs == rhs, schur


def gx_matrix(a: BlockMatrix, x: np.ndarray) -> np.ndarray:
    """n x n compression [x' A_ij x] of a block matrix by a nonzero s-vector;
    a stack of vectors (..., s) gives the stack of compressions (..., n, n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != a.s:
        raise DimensionMismatchError(f"x must have length s={a.s}, got {x.shape}")
    if not np.all(np.any(x != 0, axis=-1)):
        raise ZeroVectorError("x must be nonzero")
    n, s = a.n, a.s
    # one pass: (I_n (x) x)' A (I_n (x) x)
    xa = a.array.reshape(n, s, n, s)
    return np.einsum("...p,ipjq,...q->...ij", x, xa, x)


def f_alpha_block(
    d_inv: BlockMatrix,
    l: BlockMatrix,
    i: int,
    j: int,
    alpha: float,
    tol: Tolerance = DEFAULT_TOL,
) -> np.ndarray:
    """The (i, j) block of (D^{-1} - alpha L)^{-1}, i.e. E_i' F E_j."""
    if i == j:
        raise BadIndexError("f(alpha) is defined for off-diagonal blocks, i != j")
    if alpha <= 0:
        raise ValueError(f"alpha must be > 0, got {alpha}")
    return perturbed_pencil(d_inv, l, alpha, tol).f.block(i, j).copy()
