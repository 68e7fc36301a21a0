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
its incident edges in edge order, so L has the bits of a per-edge loop. The
closed form writes its blocks off L(T)'s from a table over the distinct
tau_i (O(sqrt n) of them), symmetrized once, and recomputes L(T)'s blocks from
each one and its transpose's. D comes whole from `kernels.distance_fill`,
bitwise symmetric.
"""

from __future__ import annotations

import numpy as np

from . import exact as ex
from .errors import ConfigError, SingularMatrixError
from .kernels import adjacency, distance_fill
from .linalg import pinv_psd
from .model import MatrixWeightedGraph, MatrixWeightedTree


class BlockMatrix:
    """Read-only ns x ns float array of n x n blocks, each s x s, or a stack
    (k, ns, ns) of them."""

    __slots__ = ("n", "s", "array")

    def __init__(self, n: int, s: int, array: np.ndarray):
        array = np.asarray(array, dtype=float)
        if array.ndim not in (2, 3) or array.shape[-2:] != (n * s, n * s):
            raise ConfigError(f"expected shape {(n * s, n * s)}, got {array.shape}")
        array.setflags(write=False)
        self.n = n
        self.s = s
        self.array = array


def _require_edges(g: MatrixWeightedGraph):
    if not len(g.endpoints):
        raise ConfigError(f"graph on {g.n} vertices has no edges")


def _laplacian_blocks(g: MatrixWeightedGraph, weights: np.ndarray, inv):
    """L's nonzero blocks, (k, s, s), and their block rows and columns: -W^{-1}
    for each edge both ways, entry k's reverse at k ^ 1, then the n diagonal
    blocks. inv inverts the (m, s, s) weight stack: g.weights, or g.exact."""
    _require_edges(g)
    uv, ii = g.endpoints, np.arange(g.n)
    vinv = inv(weights)
    vinv = np.repeat((vinv + vinv.transpose(0, 2, 1)) / 2, 2, axis=0)
    diag = np.zeros((g.n, g.s, g.s), dtype=vinv.dtype)
    # unbuffered and in index order: each diagonal block adds its incident
    # inverses to 0 in edge order, the additions of a per-edge loop
    np.add.at(diag, uv.ravel(), vinv)
    return (np.concatenate([uv.ravel(), ii]), np.concatenate([uv[:, ::-1].ravel(), ii]),
            np.concatenate([-vinv, diag]))


def _laplacian(g: MatrixWeightedGraph, weights: np.ndarray, inv) -> np.ndarray:
    rows, cols, blocks = _laplacian_blocks(g, weights, inv)
    a = np.zeros((g.n * g.s, g.n * g.s), dtype=blocks.dtype)
    a.reshape(g.n, g.s, g.n, g.s)[rows, :, cols] = blocks
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
    # no float constant: one would turn Fractions into floats. Each entry of
    # D^{-1} takes the operations of the whole-array (a/2 + a'/2)/2,
    # a = Delta R^{-1} Delta' - L(T), so the float one has its bits; the
    # Fraction a is exactly symmetric, and gives a/2
    rows, cols, lt = _laplacian_blocks(t, weights, inv)
    n, s = t.n, t.s
    # off L(T)'s blocks, block (i, j) of a is tau_i tau_j R^{-1}: one table
    # over the distinct tau, x[p, :, q] for the p-th and q-th of them
    tau = structural_vectors(t)
    values = sorted(set(tau.tolist()))
    kind = np.searchsorted(values, tau)                           # tau_i = values[kind[i]]
    dv = np.multiply.outer(values, np.eye(s, dtype=int)).reshape(-1, s)  # Delta's distinct rows
    # R in the order of Python's sum, from the int 0, in one numpy call: a
    # zero entry whose terms are all -0.0 sums to +0.0
    r = np.cumsum(weights, axis=0)[-1] + 0
    x = (dv @ inv(r[None])[0] @ dv.T).reshape(len(values), s, len(values), s)
    sym = lambda y, yt: (y / 2 + yt / 2) / 2
    out = np.empty((n, s, n, s), dtype=x.dtype)
    # mode="clip" writes out directly; the default buffers a copy of it
    np.take(np.take(sym(x, x.transpose(2, 3, 0, 1)), kind, axis=0), kind, axis=2,
            out=out, mode="clip")
    # on L(T)'s blocks, entry k's transpose is entry k ^ 1's, or its own
    a = x[kind[rows], :, kind[cols]] - lt
    k = np.arange(len(a))
    k[:-n] ^= 1
    out[rows, :, cols] = sym(a, a[k].transpose(0, 2, 1))
    return out.reshape(n * s, n * s)


def distance_inverse_closed_form(t: MatrixWeightedTree) -> BlockMatrix:
    """D^{-1} = (Delta R^{-1} Delta' - L(T)) / 2."""
    try:
        a = _closed_form(t, t.weights, np.linalg.inv)
    except np.linalg.LinAlgError as exc:  # unreachable for valid PD weights
        raise SingularMatrixError(f"singular weight sum or weight: {exc}") from exc
    return BlockMatrix(t.n, t.s, a)


def distance_from_laplacian_pinv(t: MatrixWeightedTree) -> BlockMatrix:
    """D via the pseudoinverse identity D_ij = Ldag_ii + Ldag_jj - 2 Ldag_ij.
    L's kernel is spanned by U, so Ldag is read from U/sqrt(n), not from L's
    spectrum; D is never read."""
    n, s = t.n, t.s
    ldag = pinv_psd(build_laplacian(t).array, build_U(n, s) / np.sqrt(n))
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
    return np.stack([ex.as_fractions(*ex.rational_invert(w)) for w in weights])


def build_laplacian_exact(g: MatrixWeightedGraph) -> ex.RatMatrix:
    _require_exact(g)
    return _laplacian(g, g.exact, _rational_inverses)


def build_distance_matrix_exact(t: MatrixWeightedTree) -> ex.RatMatrix:
    _require_exact(t)
    return _distance(t, t.exact)


def distance_inverse_closed_form_exact(t: MatrixWeightedTree) -> ex.RatMatrix:
    _require_exact(t)
    return _closed_form(t, t.exact, _rational_inverses)
