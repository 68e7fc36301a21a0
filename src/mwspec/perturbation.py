"""The perturbed pencil P(beta) = D^{-1} - beta L, its inverse F(beta), the
bordered matrix [[F, U], [U', 0]], Schur complements with the Haynsworth
inertia check, and the scalar compression G_x.

These are the objects the verifier exercises; each is usable on its own so
the individual proof steps can be tested independently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NonFiniteError, SingularMatrixError, SingularPivotError
from .linalg import REL_RESIDUAL, Inertia, inertia_of
from .operators import BlockMatrix


@dataclass(frozen=True)
class PerturbedPencil:
    p: BlockMatrix    # D^{-1} - beta L
    f: BlockMatrix    # (D^{-1} - beta L)^{-1}


def require_beta(beta: float):
    """The one rule for beta: finite and >= 0 (the theorem's range)."""
    if not (math.isfinite(beta) and beta >= 0):
        raise ConfigError(f"beta must be finite and >= 0, got {beta}")


def perturbed_pencil(d_inv: BlockMatrix, l: BlockMatrix, beta: float) -> PerturbedPencil:
    """P = D^{-1} - beta L and F = P^{-1}, with an inversion residual check.

    Nonsingularity is guaranteed for exact data and beta >= 0, so a Singular
    failure here signals conditioning trouble in the inputs; a P or F that
    overflowed raises NonFiniteError. P is not averaged: D^{-1} and L, and so
    P, are bitwise symmetric by construction.
    """
    if (d_inv.n, d_inv.s) != (l.n, l.s):
        raise ConfigError(f"block shapes differ: ({d_inv.n},{d_inv.s}) vs ({l.n},{l.s})")
    require_beta(beta)
    p = d_inv.array - beta * l.array
    dim = p.shape[0]
    try:
        f = np.linalg.solve(p, np.eye(dim))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"pencil numerically singular: {exc}") from exc
    f = (f + f.T) / 2.0
    residual = float(np.abs(p @ f - np.eye(dim)).max())
    bound = REL_RESIDUAL * max(1.0, float(np.abs(p).max()))
    if not (math.isfinite(residual) and math.isfinite(bound)):
        raise NonFiniteError("pencil or its inverse has non-finite entries")
    if residual > bound:
        raise SingularMatrixError(
            f"inversion residual {residual:.3e} exceeds tolerance"
        )
    return PerturbedPencil(BlockMatrix(d_inv.n, d_inv.s, p),
                           BlockMatrix(d_inv.n, d_inv.s, f))


def principal_block_submatrix(a: BlockMatrix, idx: Sequence[int]) -> BlockMatrix:
    """Keep the blocks in idx x idx (1-based block indices, order preserved)."""
    idx = list(idx)
    if not idx:
        raise ConfigError("index set must be nonempty")
    if len(set(idx)) != len(idx):
        raise ConfigError(f"duplicate block indices in {idx}")
    if any(not (1 <= i <= a.n) for i in idx):
        raise ConfigError(f"block indices {idx} out of range for n={a.n}")
    s = a.s
    rows = ((np.asarray(idx) - 1)[:, None] * s + np.arange(s)).ravel()
    return BlockMatrix(len(idx), s, a.array[np.ix_(rows, rows)])


def bordered(f: BlockMatrix) -> np.ndarray:
    """(ns+s) x (ns+s) symmetric matrix [[F, U], [U', 0]], written into one
    array: U = e (x) I_s goes in as n identity blocks, built in place."""
    n, s = f.n, f.s
    ns = n * s
    g = np.zeros((ns + s, ns + s))
    g[:ns, :ns] = f.array
    g[:ns, ns:].reshape(n, s, s)[:] = np.eye(s)     # splitting rows: a view
    g[ns:, :ns] = g[:ns, ns:].T
    return g


def schur_complement(m: np.ndarray, k: int) -> np.ndarray:
    """M/M11 = M22 - M21 M11^{-1} M12 for the leading split M11 = M[:k, :k]."""
    m = np.asarray(m, dtype=float)
    if not 0 < k < m.shape[0]:
        raise ConfigError(f"leading split {k} out of range for dim {m.shape[0]}")
    m11, m12, m21, m22 = m[:k, :k], m[:k, k:], m[k:, :k], m[k:, k:]
    try:
        x = np.linalg.solve(m11, m12)
    except np.linalg.LinAlgError as exc:
        raise SingularPivotError(f"pivot block singular: {exc}") from exc
    # guard against solve "succeeding" on a nearly singular pivot
    if not np.all(np.isfinite(x)):
        raise SingularPivotError("pivot block singular (non-finite solve)")
    return m22 - m21 @ x


def haynsworth_check(m: np.ndarray, k: int, pivot_inertia: Inertia
                     ) -> tuple[Inertia, Inertia, bool, np.ndarray]:
    """Inertia additivity: In(M) vs In(M11) + In(M/M11), componentwise, for
    a symmetric M and the leading split M11 = M[:k, :k].

    In(M11) comes from the caller as `pivot_inertia`, who may know it without
    a decomposition: the verifier's pivot F = P^{-1} is congruent to P, so
    In(F) = In(P). In(M) and In(M/M11) are measured.
    Returns (In(M), In(M11) + In(M/M11), whether they agree, M/M11), the
    Schur complement averaged with its transpose, so symmetric bit for bit.
    """
    m = np.asarray(m, dtype=float)
    schur = schur_complement(m, k)
    schur = (schur + schur.T) / 2.0
    lhs = inertia_of(m)
    in_schur = inertia_of(schur)
    rhs = Inertia(*(a + b for a, b in zip(pivot_inertia, in_schur)))
    return lhs, rhs, lhs == rhs, schur


def gx_matrix(a: BlockMatrix, x: np.ndarray) -> np.ndarray:
    """n x n compression [x' A_ij x] of a block matrix by a nonzero s-vector;
    a stack of vectors (..., s) gives the stack of compressions (..., n, n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != a.s:
        raise ConfigError(f"x must have length s={a.s}, got {x.shape}")
    if not np.all(np.any(x != 0, axis=-1)):
        raise ConfigError("x must be nonzero")
    n, s = a.n, a.s
    # one pass: (I_n (x) x)' A (I_n (x) x)
    xa = a.array.reshape(n, s, n, s)
    return np.einsum("...p,ipjq,...q->...ij", x, xa, x)

