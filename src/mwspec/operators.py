"""Constructors for the fundamental block matrices of a matrix-weighted
instance: the graph Laplacian, the tree distance matrix, the structural
vectors behind the closed-form distance inverse, and the all-identity block
matrix J with its null-space basis.

The tree distance matrix and the closed-form inverse of it are two
independent routes to the same object (the third being the pseudoinverse
identity), which is what makes the cross-checks in the verifier meaningful.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import exact as ex
from .errors import DimensionMismatchError, InvalidSizeError, SingularMatrixError
from .kernels import adjacency, distance_fill, walk
from .linalg import DEFAULT_TOL, Tolerance, pinv_psd
from .model import MatrixWeightedGraph, MatrixWeightedTree


class BlockMatrix:
    """ns x ns matrix with 1-based s x s block accessors."""

    __slots__ = ("n", "s", "array")

    def __init__(self, n: int, s: int, array: np.ndarray):
        array = np.asarray(array, dtype=float)
        if array.shape != (n * s, n * s):
            raise DimensionMismatchError(
                f"expected shape {(n * s, n * s)}, got {array.shape}"
            )
        array.setflags(write=False)
        self.n = n
        self.s = s
        self.array = array

    def block(self, i: int, j: int) -> np.ndarray:
        """s x s block at 1-based block position (i, j)."""
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise IndexError(f"block index ({i},{j}) out of range for n={self.n}")
        s = self.s
        return self.array[(i - 1) * s:i * s, (j - 1) * s:j * s]


@dataclass(frozen=True)
class StructuralVectors:
    """tau, Delta = tau (x) I_s, and R = sum of all tree edge weights."""

    tau: np.ndarray        # (n,) integers, tau_i = 2 - degree(i)
    delta: np.ndarray      # (ns, s)
    r_sum: np.ndarray      # (s, s) symmetric PD


@dataclass(frozen=True)
class NullspaceBasis:
    """Columns (e_i - e_n) (x) I_s, i = 1..n-1; an exact basis of ker J."""

    b: np.ndarray          # (ns, ns - s)


def _tree_adjacency(t: MatrixWeightedTree):
    return adjacency(t.n, [(u, v) for u, v, _ in t.edges])


def build_laplacian(g: MatrixWeightedGraph) -> BlockMatrix:
    """Block Laplacian: off-diagonal blocks -W_uv^{-1} on edges, diagonal
    blocks summing the inverted incident weights."""
    n, s = g.n, g.s
    a = np.zeros((n * s, n * s))
    for u, v, w in g.edges:
        vinv = np.linalg.inv(w.matrix)
        vinv = (vinv + vinv.T) / 2.0
        a[u * s:(u + 1) * s, v * s:(v + 1) * s] = -vinv
        a[v * s:(v + 1) * s, u * s:(u + 1) * s] = -vinv
        a[u * s:(u + 1) * s, u * s:(u + 1) * s] += vinv
        a[v * s:(v + 1) * s, v * s:(v + 1) * s] += vinv
    return BlockMatrix(n, s, a)


def build_distance_matrix(t: MatrixWeightedTree) -> BlockMatrix:
    """Tree distance matrix: block (i, j) sums the weights on the i-j path."""
    n, s = t.n, t.s
    arr = distance_fill(_tree_adjacency(t), [w.matrix for _, _, w in t.edges], s)
    # the kernel accumulates each path once per endpoint, in opposite edge
    # orders; mirror the upper triangle so D is bit-exactly symmetric
    lower = np.tril_indices(n * s, -1)
    arr[lower] = arr.T[lower]
    return BlockMatrix(n, s, arr)


def structural_vectors(t: MatrixWeightedTree) -> StructuralVectors:
    n, s = t.n, t.s
    degree = np.zeros(n, dtype=np.int64)
    r_sum = np.zeros((s, s))
    for u, v, w in t.edges:
        degree[u] += 1
        degree[v] += 1
        r_sum += w.matrix
    tau = 2 - degree
    delta = np.kron(tau.reshape(-1, 1).astype(float), np.eye(s))
    return StructuralVectors(tau, delta, r_sum)


def distance_inverse_closed_form(t: MatrixWeightedTree) -> BlockMatrix:
    """D^{-1} = -(1/2) L(T) + (1/2) Delta R^{-1} Delta'."""
    sv = structural_vectors(t)
    l_tree = build_laplacian(t).array
    try:
        r_inv = np.linalg.inv(sv.r_sum)
    except np.linalg.LinAlgError as exc:  # unreachable for valid PD weights
        raise SingularMatrixError(f"R is singular: {exc}") from exc
    a = -0.5 * l_tree + 0.5 * (sv.delta @ r_inv @ sv.delta.T)
    return BlockMatrix(t.n, t.s, (a + a.T) / 2.0)


def distance_from_laplacian_pinv(
    t: MatrixWeightedTree, tol: Tolerance = DEFAULT_TOL
) -> BlockMatrix:
    """D via the pseudoinverse identity D_ij = Ldag_ii + Ldag_jj - 2 Ldag_ij."""
    n, s = t.n, t.s
    ldag = pinv_psd(build_laplacian(t).array, tol)
    blocks = ldag.reshape(n, s, n, s)
    diag = blocks[np.arange(n), :, np.arange(n), :]    # (n, s, s): Ldag_ii
    out = diag[:, :, None, :] + diag.transpose(1, 0, 2)[None] - 2.0 * blocks
    return BlockMatrix(n, s, out.reshape(n * s, n * s))


def build_J(n: int, s: int) -> BlockMatrix:
    if n < 2 or s < 1:
        raise InvalidSizeError(f"need n >= 2 and s >= 1, got n={n}, s={s}")
    return BlockMatrix(n, s, np.kron(np.ones((n, n)), np.eye(s)))


def build_U(n: int, s: int) -> np.ndarray:
    """U = e (x) I_s, shape (ns, s)."""
    if n < 2 or s < 1:
        raise InvalidSizeError(f"need n >= 2 and s >= 1, got n={n}, s={s}")
    return np.kron(np.ones((n, 1)), np.eye(s))


def build_E(i: int, n: int, s: int) -> np.ndarray:
    """E_i = e_i (x) I_s for 1-based i, shape (ns, s)."""
    if not 1 <= i <= n:
        raise InvalidSizeError(f"i must be in [1, {n}], got {i}")
    e = np.zeros((n, 1))
    e[i - 1, 0] = 1.0
    return np.kron(e, np.eye(s))


def nullspace_basis_J(n: int, s: int) -> NullspaceBasis:
    if n < 2 or s < 1:
        raise InvalidSizeError(f"need n >= 2 and s >= 1, got n={n}, s={s}")
    cols = np.zeros((n, n - 1))
    for i in range(n - 1):
        cols[i, i] = 1.0
        cols[n - 1, i] = -1.0
    return NullspaceBasis(np.kron(cols, np.eye(s)))


# ---------------------------------------------------------------------------
# exact (rational) constructors


def _require_exact(g: MatrixWeightedGraph):
    if not g.is_exact:
        raise ValueError("exact constructor requires rational weight payloads")


def build_laplacian_exact(g: MatrixWeightedGraph) -> ex.RatMatrix:
    _require_exact(g)
    n, s = g.n, g.s
    a = ex.rat_zeros(n * s, n * s)
    for u, v, w in g.edges:
        vinv = ex.rational_invert(w.exact)
        for p in range(s):
            for q in range(s):
                a[u * s + p][v * s + q] = -vinv[p][q]
                a[v * s + p][u * s + q] = -vinv[p][q]
                a[u * s + p][u * s + q] += vinv[p][q]
                a[v * s + p][v * s + q] += vinv[p][q]
    return a


def build_distance_matrix_exact(t: MatrixWeightedTree) -> ex.RatMatrix:
    _require_exact(t)
    n, s = t.n, t.s
    adj = _tree_adjacency(t)
    weights = [w.exact for _, _, w in t.edges]
    a = ex.rat_zeros(n * s, n * s)
    for r in range(n):
        for u, v, k in walk(adj, r):
            w = weights[k]
            for p in range(s):
                for q in range(s):
                    a[r * s + p][v * s + q] = a[r * s + p][u * s + q] + w[p][q]
    return a


def distance_inverse_closed_form_exact(t: MatrixWeightedTree) -> ex.RatMatrix:
    _require_exact(t)
    n, s = t.n, t.s
    degree = [0] * n
    r_sum = ex.rat_zeros(s, s)
    for u, v, w in t.edges:
        degree[u] += 1
        degree[v] += 1
        r_sum = ex.rat_add(r_sum, w.exact)
    tau = [Fraction(2 - d) for d in degree]
    r_inv = ex.rational_invert(r_sum)
    l_tree = build_laplacian_exact(t)
    half = Fraction(1, 2)
    a = ex.rat_scale(-half, l_tree)
    # (1/2) * Delta R^{-1} Delta' has (i, j) block (tau_i tau_j / 2) R^{-1}
    for i in range(n):
        for j in range(n):
            c = half * tau[i] * tau[j]
            if c != 0:
                for p in range(s):
                    for q in range(s):
                        a[i * s + p][j * s + q] += c * r_inv[p][q]
    return a
