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

import numpy as np

from . import exact as ex
from .errors import DimensionMismatchError, InvalidSizeError, SingularMatrixError
from .kernels import adjacency, distance_fill
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
    delta: np.ndarray      # (ns, s) integers
    r_sum: np.ndarray      # (s, s) symmetric PD


@dataclass(frozen=True)
class NullspaceBasis:
    """Columns (e_i - e_n) (x) I_s, i = 1..n-1; an exact basis of ker J."""

    b: np.ndarray          # (ns, ns - s)


def _laplacian(g: MatrixWeightedGraph, weights, inv) -> np.ndarray:
    n, s = g.n, g.s
    a = np.zeros((n * s, n * s), dtype=weights[0].dtype)
    for (u, v, _), w in zip(g.edges, weights):
        vinv = inv(w)
        vinv = (vinv + vinv.T) / 2
        a[u * s:(u + 1) * s, v * s:(v + 1) * s] = -vinv
        a[v * s:(v + 1) * s, u * s:(u + 1) * s] = -vinv
        a[u * s:(u + 1) * s, u * s:(u + 1) * s] += vinv
        a[v * s:(v + 1) * s, v * s:(v + 1) * s] += vinv
    return a


def build_laplacian(g: MatrixWeightedGraph) -> BlockMatrix:
    """Block Laplacian: off-diagonal blocks -W_uv^{-1} on edges, diagonal
    blocks summing the inverted incident weights."""
    return BlockMatrix(g.n, g.s, _laplacian(g, [w.matrix for _, _, w in g.edges],
                                            np.linalg.inv))


def _distance(t: MatrixWeightedTree, weights) -> np.ndarray:
    arr = distance_fill(adjacency(t.n, [(u, v) for u, v, _ in t.edges]), weights, t.s)
    # the kernel accumulates each path once per endpoint, in opposite edge
    # orders; mirror the upper triangle so D is bit-exactly symmetric
    lower = np.tril_indices(len(arr), -1)
    arr[lower] = arr.T[lower]
    return arr


def build_distance_matrix(t: MatrixWeightedTree) -> BlockMatrix:
    """Tree distance matrix: block (i, j) sums the weights on the i-j path."""
    return BlockMatrix(t.n, t.s, _distance(t, [w.matrix for _, _, w in t.edges]))


def structural_vectors(t: MatrixWeightedTree) -> StructuralVectors:
    ends = [x for u, v, _ in t.edges for x in (u, v)]
    tau = 2 - np.bincount(ends, minlength=t.n)
    delta = np.kron(tau.reshape(-1, 1), np.eye(t.s, dtype=int))
    return StructuralVectors(tau, delta, sum(w.matrix for _, _, w in t.edges))


def _closed_form(t: MatrixWeightedTree, weights, inv) -> np.ndarray:
    # no float constant: one would turn Fractions into floats. Delta is an
    # integer matrix and halving is exact in binary floating point, so the
    # float D^{-1} has the bits of -(1/2) L(T) + (1/2) Delta R^{-1} Delta'
    delta = structural_vectors(t).delta
    a = (delta @ inv(sum(weights)) @ delta.T - _laplacian(t, weights, inv)) / 2
    return (a + a.T) / 2


def distance_inverse_closed_form(t: MatrixWeightedTree) -> BlockMatrix:
    """D^{-1} = (Delta R^{-1} Delta' - L(T)) / 2."""
    try:
        a = _closed_form(t, [w.matrix for _, _, w in t.edges], np.linalg.inv)
    except np.linalg.LinAlgError as exc:  # unreachable for valid PD weights
        raise SingularMatrixError(f"singular weight sum or weight: {exc}") from exc
    return BlockMatrix(t.n, t.s, a)


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
    return np.kron(np.eye(n)[:, [i - 1]], np.eye(s))


def nullspace_basis_J(n: int, s: int) -> NullspaceBasis:
    if n < 2 or s < 1:
        raise InvalidSizeError(f"need n >= 2 and s >= 1, got n={n}, s={s}")
    cols = np.vstack([np.eye(n - 1), -np.ones((1, n - 1))])
    return NullspaceBasis(np.kron(cols, np.eye(s)))


# ---------------------------------------------------------------------------
# exact (rational) constructors


def _require_exact(g: MatrixWeightedGraph):
    if not g.is_exact:
        raise ValueError("exact constructor requires rational weight payloads")


def build_laplacian_exact(g: MatrixWeightedGraph) -> ex.RatMatrix:
    _require_exact(g)
    return _laplacian(g, [w.exact for _, _, w in g.edges], ex.rational_invert)


def build_distance_matrix_exact(t: MatrixWeightedTree) -> ex.RatMatrix:
    _require_exact(t)
    return _distance(t, [w.exact for _, _, w in t.edges])


def distance_inverse_closed_form_exact(t: MatrixWeightedTree) -> ex.RatMatrix:
    _require_exact(t)
    return _closed_form(t, [w.exact for _, _, w in t.edges], ex.rational_invert)
