"""Constructors for the fundamental block matrices of a matrix-weighted
instance: the graph Laplacian, the tree distance matrix, the structural
vectors behind the closed-form distance inverse, and U = e (x) I_s.

J = e e' (x) I_s and the basis of its null space are never built: the
verifier reads their products as block differences and block sums on the
(n, s, n, s) view of a matrix.

The tree distance matrix and the closed-form inverse of it are two
independent routes to the same object (the third being the pseudoinverse
identity), which is what makes the cross-checks in the verifier meaningful.

Each operator has one assembly body that both kernels run: float arrays, or
numpy object arrays of Fractions. L's nonzero blocks come from one stacked
inverse of the (m, s, s) edge weights (`np.linalg.inv`, or
`exact.rational_invert` weight by weight), each diagonal block summed over
its incident edges in edge order, so L has the bits of a per-edge loop; the
closed form subtracts L(T) block by block and symmetrizes tile by tile. D
comes whole from `kernels.distance_fill`, bitwise symmetric.
"""

from __future__ import annotations

import numpy as np

from . import exact as ex
from .errors import ConfigError, SingularMatrixError
from .kernels import adjacency, distance_fill
from .linalg import pinv_psd
from .model import MatrixWeightedGraph, MatrixWeightedTree


class BlockMatrix:
    """ns x ns matrix with 1-based s x s block accessors."""

    __slots__ = ("n", "s", "array")

    def __init__(self, n: int, s: int, array: np.ndarray):
        array = np.asarray(array, dtype=float)
        if array.shape != (n * s, n * s):
            raise ConfigError(f"expected shape {(n * s, n * s)}, got {array.shape}")
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


def _require_edges(g: MatrixWeightedGraph):
    if not len(g.endpoints):
        raise ConfigError(f"graph on {g.n} vertices has no edges")


def _laplacian_blocks(g: MatrixWeightedGraph, weights: np.ndarray, inv):
    """L's nonzero blocks: -W^{-1} at (rows, cols), each edge both ways, and
    the (n, s, s) diagonal blocks. inv inverts the (m, s, s) weight stack:
    g.weights, or g.exact."""
    _require_edges(g)
    uv = g.endpoints
    vinv = inv(weights)
    vinv = np.repeat((vinv + vinv.transpose(0, 2, 1)) / 2, 2, axis=0)
    diag = np.zeros((g.n, g.s, g.s), dtype=vinv.dtype)
    # unbuffered and in index order: each diagonal block adds its incident
    # inverses to 0 in edge order, the additions of a per-edge loop
    np.add.at(diag, uv.ravel(), vinv)
    return uv.ravel(), uv[:, ::-1].ravel(), -vinv, diag


def _laplacian(g: MatrixWeightedGraph, weights: np.ndarray, inv) -> np.ndarray:
    rows, cols, off, diag = _laplacian_blocks(g, weights, inv)
    a = np.zeros((g.n * g.s, g.n * g.s), dtype=off.dtype)
    blocks, ii = a.reshape(g.n, g.s, g.n, g.s), np.arange(g.n)
    blocks[rows, :, cols], blocks[ii, :, ii] = off, diag
    return a


def build_laplacian(g: MatrixWeightedGraph) -> BlockMatrix:
    """Block Laplacian: off-diagonal blocks -W_uv^{-1} on edges, diagonal
    blocks summing the inverted incident weights."""
    return BlockMatrix(g.n, g.s, _laplacian(g, g.weights, np.linalg.inv))


def _distance(t: MatrixWeightedTree, weights: np.ndarray) -> np.ndarray:
    _require_edges(t)
    # Python ints: the fill indexes lists with them
    return distance_fill(adjacency(t.n, t.endpoints.tolist()), weights, t.s)


def build_distance_matrix(t: MatrixWeightedTree) -> BlockMatrix:
    """Tree distance matrix: block (i, j) sums the weights on the i-j path."""
    return BlockMatrix(t.n, t.s, _distance(t, t.weights))


def structural_vectors(t: MatrixWeightedTree) -> np.ndarray:
    """tau: (n,) integers, tau_i = 2 - degree(i)."""
    return 2 - np.bincount(t.endpoints.ravel(), minlength=t.n)


def _closed_form(t: MatrixWeightedTree, weights, inv) -> np.ndarray:
    # no float constant: one would turn Fractions into floats. Delta is an
    # integer matrix and halving is exact in binary floating point, so the
    # float D^{-1} has the bits of -(1/2) L(T) + (1/2) Delta R^{-1} Delta'
    rows, cols, off, diag = _laplacian_blocks(t, weights, inv)
    delta = np.kron(structural_vectors(t).reshape(-1, 1), np.eye(t.s, dtype=int))
    r_inv = inv(sum(weights)[None])[0]
    a = delta @ r_inv @ delta.T
    # a - L(T) on L(T)'s nonzero blocks only: x - 0 is x, sign of zero included
    blocks, ii = a.reshape(t.n, t.s, t.n, t.s), np.arange(t.n)
    blocks[rows, :, cols] -= off
    blocks[ii, :, ii] -= diag
    # (a/2 + a'/2)/2 in place, a pair of tiles at a time: the bits of the
    # whole-array expression, with no strided pass over all of a'
    for i in range(0, len(a), 128):
        for j in range(i, len(a), 128):
            x, y = slice(i, i + 128), slice(j, j + 128)
            u = (a[x, y] / 2 + a[y, x].T / 2) / 2
            a[x, y], a[y, x] = u, u.T
    return a


def distance_inverse_closed_form(t: MatrixWeightedTree) -> BlockMatrix:
    """D^{-1} = (Delta R^{-1} Delta' - L(T)) / 2."""
    try:
        a = _closed_form(t, t.weights, np.linalg.inv)
    except np.linalg.LinAlgError as exc:  # unreachable for valid PD weights
        raise SingularMatrixError(f"singular weight sum or weight: {exc}") from exc
    return BlockMatrix(t.n, t.s, a)


def distance_from_laplacian_pinv(t: MatrixWeightedTree) -> BlockMatrix:
    """D via the pseudoinverse identity D_ij = Ldag_ii + Ldag_jj - 2 Ldag_ij."""
    n, s = t.n, t.s
    ldag = pinv_psd(build_laplacian(t).array)
    blocks = ldag.reshape(n, s, n, s)
    diag = blocks[np.arange(n), :, np.arange(n), :]    # (n, s, s): Ldag_ii
    out = diag[:, :, None, :] + diag.transpose(1, 0, 2)[None] - 2.0 * blocks
    return BlockMatrix(n, s, out.reshape(n * s, n * s))


def build_U(n: int, s: int) -> np.ndarray:
    """U = e (x) I_s, shape (ns, s)."""
    if n < 2 or s < 1:
        raise ConfigError(f"need n >= 2 and s >= 1, got n={n}, s={s}")
    return np.tile(np.eye(s), (n, 1))


# ---------------------------------------------------------------------------
# exact (rational) constructors


def _require_exact(g: MatrixWeightedGraph):
    if not g.is_exact:
        raise ConfigError("exact constructor requires rational weight payloads")


def _rational_inverses(weights: np.ndarray) -> np.ndarray:
    return np.stack([ex.rational_invert(w) for w in weights])


def build_laplacian_exact(g: MatrixWeightedGraph) -> ex.RatMatrix:
    _require_exact(g)
    return _laplacian(g, g.exact, _rational_inverses)


def build_distance_matrix_exact(t: MatrixWeightedTree) -> ex.RatMatrix:
    _require_exact(t)
    return _distance(t, t.exact)


def distance_inverse_closed_form_exact(t: MatrixWeightedTree) -> ex.RatMatrix:
    _require_exact(t)
    return _closed_form(t, t.exact, _rational_inverses)
