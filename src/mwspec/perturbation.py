"""The perturbed pencil P(beta) = D^{-1} - beta L, its inverse F(beta), the
bordered matrix [[F, U], [U', 0]], the Haynsworth inertia check on a Schur
complement its caller gives, and the scalar compression G_x. In the
bordered matrix the Schur complement of F is -U'F^{-1}U = -U'D^{-1}U at
every beta: LU = 0 gives PU = D^{-1}U, so F D^{-1}U = U, an identity the
verifier measures instead of solving with F.

These are the objects the verifier exercises; each is usable on its own so
the individual proof steps can be tested independently. The pencil, the
bordered matrix, the Haynsworth check and G_x also take a stack: k betas, or
a BlockMatrix of k matrices, give k results from one numpy call per step,
each member with the bits it has alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .errors import ConfigError, NonFiniteError, SingularMatrixError
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


def perturbed_pencil(d_inv: BlockMatrix, l: BlockMatrix, beta) -> PerturbedPencil:
    """P = D^{-1} - beta L and F = P^{-1}, with an inversion residual check;
    a sequence of k betas gives the (k, ns, ns) stacks of both from one solve.

    Nonsingularity is guaranteed for exact data and beta >= 0, so a Singular
    failure here signals conditioning trouble in the inputs; a P or F that
    overflowed raises NonFiniteError. In a stack, one such member fails the
    whole call. P is not averaged: D^{-1} and L, and so P, are bitwise
    symmetric by construction.
    """
    if (d_inv.n, d_inv.s) != (l.n, l.s):
        raise ConfigError(f"block shapes differ: ({d_inv.n},{d_inv.s}) vs ({l.n},{l.s})")
    betas = np.asarray(beta, dtype=float)
    for b in betas.flat:
        require_beta(b)
    p = d_inv.array - betas[..., None, None] * l.array
    dim = p.shape[-1]
    try:
        f = np.linalg.solve(p, np.eye(dim))
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"pencil numerically singular: {exc}") from exc
    f = (f + f.swapaxes(-1, -2)) / 2.0
    residual = np.abs(p @ f - np.eye(dim)).max(axis=(-2, -1))
    bound = REL_RESIDUAL * np.maximum(1.0, np.abs(p).max(axis=(-2, -1)))
    if not (np.all(np.isfinite(residual)) and np.all(np.isfinite(bound))):
        raise NonFiniteError("pencil or its inverse has non-finite entries")
    bad = np.flatnonzero(residual > bound)
    if bad.size:
        raise SingularMatrixError(
            f"inversion residual {residual.flat[bad[0]]:.3e} exceeds tolerance"
        )
    return PerturbedPencil(BlockMatrix(d_inv.n, d_inv.s, p),
                           BlockMatrix(d_inv.n, d_inv.s, f))


def principal_block_submatrix(a: BlockMatrix, idx) -> BlockMatrix:
    """Keep the blocks in idx x idx (1-based block indices, order preserved),
    in each member of a stack alike. A sequence of r index sets of one length
    gives the stack (r, ...) of the submatrices of one matrix, from one
    gather."""
    idx = np.asarray(idx)
    if not idx.size:
        raise ConfigError("index set must be nonempty")
    for one in np.atleast_2d(idx).tolist():
        if len(set(one)) != len(one):
            raise ConfigError(f"duplicate block indices in {one}")
        if any(not (1 <= i <= a.n) for i in one):
            raise ConfigError(f"block indices {one} out of range for n={a.n}")
    s = a.s
    rows = ((idx - 1)[..., None] * s + np.arange(s)).reshape(*idx.shape[:-1], -1)
    return BlockMatrix(idx.shape[-1], s, a.array[..., rows[..., :, None], rows[..., None, :]])


def bordered(f: BlockMatrix) -> np.ndarray:
    """(ns+s) x (ns+s) symmetric matrix [[F, U], [U', 0]], written into one
    array, or the (k, ns+s, ns+s) stack of a stack F: U = e (x) I_s goes in
    as n identity blocks, built in place."""
    n, s = f.n, f.s
    ns = n * s
    lead = f.array.shape[:-2]
    g = np.zeros((*lead, ns + s, ns + s))
    g[..., :ns, :ns] = f.array
    g[..., :ns, ns:].reshape(*lead, n, s, s)[:] = np.eye(s)     # splitting rows: a view
    g[..., ns:, :ns] = g[..., :ns, ns:].swapaxes(-1, -2)
    return g


def haynsworth_check(schur: np.ndarray, m_inertia: Inertia, pivot_inertia: Inertia
                     ) -> tuple[Inertia, Inertia, bool]:
    """Inertia additivity (Haynsworth, 1968): In(M) vs In(M11) + In(M/M11),
    componentwise, for a symmetric M with a nonsingular pivot block M11 and
    its Schur complement M/M11 = M22 - M21 M11^{-1} M12.

    The caller gives the Schur complement and the two inertias it may know
    without a decomposition: the verifier's M is [[F, U], [U', 0]], whose
    In(M) it certifies by a congruence where it can, whose pivot F = P^{-1}
    is congruent to P, so In(F) = In(P), and whose Schur complement is
    -U'D^{-1}U. The Schur complement is averaged with its transpose and its
    inertia measured. Returns (In(M), In(M11) + In(M/M11), whether they
    agree). Inertias of (k,) counts, for a stack of k matrices M, give the
    inertias as (k,) counts and a (k,) bool array.
    """
    schur = np.asarray(schur, dtype=float)
    lhs = Inertia(*m_inertia)
    in_schur = inertia_of((schur + schur.swapaxes(-1, -2)) / 2.0)
    rhs = Inertia(*(a + b for a, b in zip(pivot_inertia, in_schur)))
    agree = np.all(np.equal(lhs, rhs), axis=0)
    return lhs, rhs, bool(agree) if agree.ndim == 0 else agree


def gx_matrix(a: BlockMatrix, x: np.ndarray) -> np.ndarray:
    """n x n compression [x' A_ij x] of a block matrix by a nonzero s-vector;
    a stack of vectors (..., s) gives the stack of compressions (..., n, n),
    and a stack A (k, ns, ns) one such result per member, (k, ..., n, n)."""
    x = np.asarray(x, dtype=float)
    if x.ndim == 0 or x.shape[-1] != a.s:
        raise ConfigError(f"x must have length s={a.s}, got {x.shape}")
    if not np.all(np.any(x != 0, axis=-1)):
        raise ConfigError("x must be nonzero")
    n, s = a.n, a.s
    lead = a.array.shape[:-2]
    xs = x.reshape(-1, s)
    # (I_n (x) x)' A (I_n (x) x): one matmul sums over the column component
    # q for every vector at once, then a small einsum over the row component
    # p. A lone vector goes in twice: numpy hands a one-column product to
    # gemv, whose sums round otherwise than gemm's, and a vector keeps the
    # bits it has in a stack
    cols = xs if len(xs) > 1 else np.concatenate([xs, xs])
    y = (a.array.reshape(*lead, n * s * n, s) @ cols.T).reshape(*lead, n, s, n, len(cols))
    g = np.einsum("vp,...ipjv->...vij", xs, y[..., :len(xs)])
    return g.reshape(*lead, *x.shape[:-1], n, n)
