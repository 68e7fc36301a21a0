"""Data model, validation, random generation, and JSON serialization for
matrix-weighted trees and connected graphs.

A graph keeps its m edges as arrays: the (m, 2) endpoints, the (m, s, s)
stack of float weights and, for a rational graph, the (m, s, s) stack of
their Fractions. Generators, parser and serializer make and read the stacks
whole, and so do the operators that take a graph.

Vertices are 0-based everywhere in memory; the JSON instance format is
1-based to match the usual figure labeling, and the parser/serializer is the
only place the offset is applied.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import ConfigError, InstanceSyntaxError, SchemaError, ValidationError
from .exact import parse_rational, rat_is_pd, rat_to_float
from .kernels import adjacency, walk
from .linalg import EIG_ZERO


@dataclass(frozen=True)
class WeightProfile:
    """Eigenvalue range for randomly generated PD weights."""

    lam_lo: float = 0.1
    lam_hi: float = 10.0

    def __post_init__(self):
        if not 0 < self.lam_lo <= self.lam_hi < math.inf:   # False for NaN
            raise ConfigError(
                f"need 0 < lam_lo <= lam_hi < inf, got [{self.lam_lo}, {self.lam_hi}]"
            )


DEFAULT_PROFILE = WeightProfile()


class MatrixWeightedGraph:
    """A graph on the vertices 0..n-1 whose m edges carry s x s weights.

    `endpoints` is the (m, 2) integer array of edge ends, `weights` the
    (m, s, s) float stack, edge k's weight at weights[k], and `exact` the
    (m, s, s) object array of the weights' Fractions when the graph is
    rational, else None. All three are read-only. The constructor checks
    their shapes only; `validate` checks the rest.
    """

    __slots__ = ("n", "s", "endpoints", "weights", "exact")

    def __init__(self, n: int, s: int, endpoints, weights, exact=None):
        endpoints = np.asarray(endpoints, dtype=int)
        weights = np.asarray(weights, dtype=float)
        if endpoints.ndim != 2 or endpoints.shape[1] != 2:
            raise ConfigError(f"endpoints must have shape (m, 2), got {endpoints.shape}")
        if weights.shape != (len(endpoints), s, s):
            raise ConfigError(f"weights must have shape {(len(endpoints), s, s)}, "
                              f"got {weights.shape}")
        if exact is not None:
            exact = np.asarray(exact, dtype=object)
            if exact.shape != weights.shape:
                raise ConfigError(f"exact weights must have shape {weights.shape}, "
                                  f"got {exact.shape}")
            exact = np.frompyfunc(Fraction, 1, 1)(exact)
            exact.setflags(write=False)
        endpoints.setflags(write=False)
        weights.setflags(write=False)
        self.n, self.s = n, s
        self.endpoints, self.weights, self.exact = endpoints, weights, exact

    @property
    def is_exact(self) -> bool:
        return self.exact is not None


class MatrixWeightedTree(MatrixWeightedGraph):
    __slots__ = ()


@dataclass(eq=False)
class Instance:
    tree: MatrixWeightedTree
    graph: MatrixWeightedGraph

    @property
    def n(self) -> int:
        return self.tree.n

    @property
    def s(self) -> int:
        return self.tree.s

    @property
    def is_exact(self) -> bool:
        """Whether the tree and the graph both carry exact weights."""
        return self.tree.is_exact and self.graph.is_exact


@dataclass
class ValidationResult:
    ok: bool
    violations: list[str]


def _connected(n: int, endpoints: np.ndarray) -> bool:
    if len(endpoints) < n - 1:      # before allocating n adjacency lists
        return False
    adj = adjacency(n, endpoints.tolist())
    return sum(1 for _ in walk(adj, 0)) == n - 1


def _symmetric(stack: np.ndarray) -> np.ndarray:
    return (stack == stack.transpose(0, 2, 1)).all(axis=(1, 2))


def validate(g: MatrixWeightedGraph, require_tree: bool = False) -> ValidationResult:
    """Structural validation; violations are returned, never raised."""
    v: list[str] = []
    if g.n < 2:
        v.append(f"n must be >= 2, got {g.n}")
    if g.s < 1:
        v.append(f"s must be >= 1, got {g.s}")
    w, exact = g.weights, g.exact
    finite = np.isfinite(w).all(axis=(1, 2))
    symmetric = _symmetric(w)
    # one eigvalsh over the weights that reach it: ascending, so the min is
    # the first eigenvalue (and +inf at s = 0)
    lam_min = np.full(len(w), np.inf)
    lam_min[finite & symmetric] = np.linalg.eigvalsh(w[finite & symmetric]).min(
        axis=1, initial=np.inf)
    # the float kernel runs on the rounding of an exact weight, which need
    # only stay PD: a conditioning threshold would turn away exact instances
    # that only the exact kernel can check
    if exact is None:
        bound = EIG_ZERO * np.maximum(1.0, np.abs(w).max(axis=(1, 2), initial=0.0))
        what = "weight"
    else:
        bound, what = 0.0, "float rounding of weight"
        exact_symmetric = _symmetric(exact).tolist()
    finite, symmetric = finite.tolist(), symmetric.tolist()
    not_pd = (lam_min <= bound).tolist()
    seen = set()
    for k, (u, w_) in enumerate(g.endpoints.tolist()):
        if not (0 <= u < g.n and 0 <= w_ < g.n):
            v.append(f"edge ({u},{w_}) out of range")
            continue
        if u == w_:
            v.append(f"self-loop at vertex {u}")
            continue
        key = (min(u, w_), max(u, w_))
        if key in seen:
            v.append(f"duplicate edge {key}")
        seen.add(key)
        if exact is not None and not exact_symmetric[k]:
            v.append(f"edge {key}: weight not symmetric")
        elif exact is not None and not rat_is_pd(exact[k]):
            v.append(f"edge {key}: weight not positive definite")
        elif not finite[k]:
            v.append(f"edge {key}: weight has a non-finite entry")
        elif not symmetric[k]:
            v.append(f"edge {key}: weight not symmetric")
        elif not_pd[k]:
            v.append(f"edge {key}: {what} not positive definite "
                     f"(min eigenvalue {lam_min[k]:.3e})")
    if not v:
        if require_tree and len(g.endpoints) != g.n - 1:
            v.append(f"tree must have n-1 = {g.n - 1} edges, got {len(g.endpoints)}")
        if not _connected(g.n, g.endpoints):
            v.append("graph is not connected")
    return ValidationResult(not v, v)


# ---------------------------------------------------------------------------
# random generation


def random_pd_weights(
    count: int, s: int, rng: np.random.Generator, profile: WeightProfile = DEFAULT_PROFILE
) -> np.ndarray:
    """The (count, s, s) stack of weights Q diag(lam) Q', each with a random
    orthogonal Q and lam uniform in the profile range.

    Each weight draws its lam and then its Gaussian for Q, in order, and the
    count Gaussians are factored as one stack: every weight has the bits of
    its own `np.linalg.qr` call, and rng ends where count single draws leave it.
    Q's column signs are not fixed: a column and its negation give the same
    products in Q diag(lam) Q', bit for bit.
    """
    if s < 1:
        raise ConfigError(f"s must be >= 1, got {s}")
    lam = np.empty((count, 1, s))
    gauss = np.empty((count, s, s))
    for k in range(count):
        lam[k] = rng.uniform(profile.lam_lo, profile.lam_hi, size=s)
        gauss[k] = rng.standard_normal((s, s))
    q = np.linalg.qr(gauss)[0]
    with np.errstate(over="ignore", invalid="ignore"):
        w = (q * lam) @ q.transpose(0, 2, 1)
        w = (w + w.transpose(0, 2, 1)) / 2.0
    if not np.isfinite(w).all():
        raise ConfigError(f"weights with eigenvalues in [{profile.lam_lo}, "
                          f"{profile.lam_hi}] overflow the float range at s = {s}")
    return w


def _prufer_decode(seq: list[int], n: int) -> list[tuple[int, int]]:
    degree = [1] * n
    for x in seq:
        degree[x] += 1
    leaves = [i for i in range(n) if degree[i] == 1]
    heapq.heapify(leaves)
    edges = []
    for x in seq:
        leaf = heapq.heappop(leaves)
        edges.append((min(leaf, x), max(leaf, x)))
        degree[x] -= 1
        if degree[x] == 1:
            heapq.heappush(leaves, x)
    u = heapq.heappop(leaves)
    v = heapq.heappop(leaves)
    edges.append((min(u, v), max(u, v)))
    return edges


def _random_weights(count: int, s: int, rng: np.random.Generator, profile: WeightProfile,
                    rational: bool) -> tuple[np.ndarray, np.ndarray | None]:
    """count PD weights drawn from rng: the float stack, and the integer
    stack when they are rational, else None."""
    if not rational:
        return random_pd_weights(count, s, rng, profile), None
    if profile != DEFAULT_PROFILE:
        raise ConfigError(f"rational weights take no eigenvalue range, got "
                          f"[{profile.lam_lo}, {profile.lam_hi}]")
    # M M' + cI with small integer M and c >= 1 is symmetric PD and exactly
    # representable
    w = np.empty((count, s, s), dtype=np.int64)
    for k in range(count):
        m = rng.integers(-3, 4, size=(s, s))
        w[k] = m @ m.T + np.eye(s, dtype=np.int64) * int(rng.integers(1, 4))
    return w.astype(float), w


def _require_sizes(n: int, s: int, seed: int):
    for name, value, low in (("n", n, 2), ("s", s, 1), ("seed", seed, 0)):
        if value < low:
            raise ConfigError(f"{name} must be >= {low}, got {value}")


def _tree_edges(n: int, rng: np.random.Generator) -> list[tuple[int, int]]:
    if n == 2:
        return [(0, 1)]
    seq = [int(x) for x in rng.integers(0, n, size=n - 2)]
    return _prufer_decode(seq, n)


def random_tree(
    n: int,
    s: int,
    seed: int,
    profile: WeightProfile = DEFAULT_PROFILE,
    rational: bool = False,
) -> MatrixWeightedTree:
    """Uniform random labeled tree (random Prufer sequence) with PD weights."""
    _require_sizes(n, s, seed)
    rng = np.random.default_rng(seed)
    edges = _tree_edges(n, rng)
    return MatrixWeightedTree(n, s, edges, *_random_weights(len(edges), s, rng, profile,
                                                            rational))


def random_connected_graph(
    n: int,
    s: int,
    seed: int,
    extra_edges: int = 0,
    profile: WeightProfile = DEFAULT_PROFILE,
    rational: bool = False,
) -> MatrixWeightedGraph:
    """Random spanning tree plus extra distinct non-tree edges."""
    _require_sizes(n, s, seed)
    max_extra = n * (n - 1) // 2 - (n - 1)
    if not (0 <= extra_edges <= max_extra):
        raise ConfigError(
            f"extra_edges must be in [0, {max_extra}], got {extra_edges}"
        )
    rng = np.random.default_rng(seed)
    t = np.array(sorted(_tree_edges(n, rng)))
    # pairs u < v in lexicographic order; row u starts at rank starts[u]
    us = np.arange(n)
    starts = us * (2 * n - us - 1) // 2
    tree_ranks = starts[t[:, 0]] + t[:, 1] - t[:, 0] - 1
    # pick the k-th non-tree pair without listing them: it has rank k plus
    # the number of tree pairs ranked before it
    picks = np.sort(rng.choice(max_extra, size=extra_edges, replace=False))
    ranks = picks + np.searchsorted(tree_ranks - us[:-1], picks, side="right")
    rows = np.searchsorted(starts, ranks, side="right") - 1
    cols = ranks - starts[rows] + rows + 1
    endpoints = np.concatenate((t, np.column_stack((rows, cols))))
    return MatrixWeightedGraph(n, s, endpoints, *_random_weights(len(endpoints), s, rng,
                                                                 profile, rational))


def random_instance(
    n: int,
    s: int,
    seed: int,
    extra_edges: int = 0,
    profile: WeightProfile = DEFAULT_PROFILE,
    rational: bool = False,
) -> Instance:
    tree = random_tree(n, s, seed, profile, rational)
    graph = random_connected_graph(n, s, seed + 1, extra_edges, profile, rational)
    return Instance(tree, graph)


# ---------------------------------------------------------------------------
# serialization

_TOP_KEYS = {"n", "s", "scalar_kind", "tree", "graph"}
_EDGE_KEYS = {"u", "v", "w"}


def _weight_from_json(obj, s: int, kind: str) -> list:
    """The weight's rows: of Fractions when kind is rational, else of JSON numbers."""
    if not (isinstance(obj, list) and len(obj) == s
            and all(isinstance(r, list) and len(r) == s for r in obj)):
        raise SchemaError(f"weight must be an {s}x{s} array")
    if kind == "rational":
        if not all(isinstance(x, str) for row in obj for x in row):
            raise SchemaError("rational entries must be strings like 'p/q'")
        return [[parse_rational(x) for x in row] for row in obj]
    # a bool's type is bool, not int: true is not a number here
    if not all(type(x) in (int, float) for row in obj for x in row):
        raise SchemaError("float entries must be JSON numbers")
    return obj


def _edges_from_json(obj, n: int, s: int, kind: str, where: str):
    """The endpoints, the float weights and the exact weights (or None) of
    the tree or the graph."""
    if not (isinstance(obj, dict) and set(obj) == {"edges"}):
        raise SchemaError(f"{where} must be an object with a single 'edges' field")
    if not isinstance(obj["edges"], list):
        raise SchemaError(f"{where}.edges must be a list")
    endpoints, weights = [], []
    for e in obj["edges"]:
        if not (isinstance(e, dict) and set(e) == _EDGE_KEYS):
            raise SchemaError(f"{where} edge must have exactly fields u, v, w")
        u, v = e["u"], e["v"]
        if not (type(u) is int and type(v) is int):    # a bool is an int: true is not 1
            raise SchemaError("edge endpoints must be integers")
        if not (1 <= u < v <= n):
            raise SchemaError(f"edge endpoints must satisfy 1 <= u < v <= n, got ({u},{v})")
        endpoints.append((u - 1, v - 1))
        weights.append(_weight_from_json(e["w"], s, kind))
    shape = (len(weights), s, s)
    exact = np.array(weights, dtype=object).reshape(shape) if kind == "rational" else None
    try:
        floats = np.array(weights, dtype=float) if exact is None else rat_to_float(exact)
    except OverflowError as exc:    # an integer or p/q beyond the float range
        raise SchemaError(f"weight entry out of float range: {exc}") from exc
    return np.reshape(endpoints, (-1, 2)), floats.reshape(shape), exact


def _reject_constant(name: str):
    raise InstanceSyntaxError(f"bad JSON: non-finite number {name}")


def parse_instance(text: str | bytes) -> Instance:
    """Parse the JSON instance format, given as text or as UTF-8 bytes;
    raises on syntax, schema, or validation."""
    try:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        obj = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise InstanceSyntaxError(f"bad JSON: {exc}") from exc
    except ValueError as exc:   # not UTF-8, or an integer past Python's digit limit
        raise InstanceSyntaxError(str(exc)) from exc
    except RecursionError:
        raise InstanceSyntaxError("bad JSON: nested too deeply") from None
    if not isinstance(obj, dict):
        raise SchemaError("top level must be a JSON object")
    if set(obj) != _TOP_KEYS:
        unknown = set(obj) - _TOP_KEYS
        missing = _TOP_KEYS - set(obj)
        raise SchemaError(f"unknown fields {sorted(unknown)}, missing {sorted(missing)}")
    n, s, kind = obj["n"], obj["s"], obj["scalar_kind"]
    if not (type(n) is int and n >= 2):     # a bool is an int: true is not 1
        raise SchemaError(f"n must be an integer >= 2, got {n!r}")
    if not (type(s) is int and s >= 1):
        raise SchemaError(f"s must be an integer >= 1, got {s!r}")
    if kind not in ("float", "rational"):
        raise SchemaError(f"scalar_kind must be 'float' or 'rational', got {kind!r}")
    tree = MatrixWeightedTree(n, s, *_edges_from_json(obj["tree"], n, s, kind, "tree"))
    graph = MatrixWeightedGraph(n, s, *_edges_from_json(obj["graph"], n, s, kind, "graph"))
    for g, req in ((tree, True), (graph, False)):
        result = validate(g, require_tree=req)
        if not result.ok:
            raise ValidationError("; ".join(result.violations))
    return Instance(tree, graph)


def _edge_template(s: int) -> str:
    """One edge of an instance file, as `json.dumps(indent=2)` lays it out,
    with %s for u, v and the s*s entries of w in row order."""
    row = "[\n" + ",\n".join([" " * 12 + "%s"] * s) + "\n" + " " * 10 + "]"
    w = "[\n" + ",\n".join([" " * 10 + row] * s) + "\n" + " " * 8 + "]"
    return '      {\n        "u": %s,\n        "v": %s,\n        "w": ' + w + "\n      }"


def _edges_to_json(g: MatrixWeightedGraph, kind: str) -> str:
    if not len(g.endpoints):
        return '{\n    "edges": []\n  }'
    if kind == "rational":
        flat = [str(x) for x in g.exact.flat]     # "p/q", or "p" for an integer
    else:
        flat = g.weights.ravel().tolist()
    # one call of json's C encoder renders every entry: its float repr, NaN
    # and Infinity, and its string escapes; no entry holds ", "
    items = json.dumps(flat)[1:-1].split(", ")
    template, size = _edge_template(g.s), g.s * g.s
    edges = [template % (u + 1, v + 1, *items[k * size:(k + 1) * size])
             for k, (u, v) in enumerate(g.endpoints.tolist())]
    return '{\n    "edges": [\n' + ",\n".join(edges) + "\n    ]\n  }"


def serialize_instance(inst: Instance) -> str:
    """The instance file: the text of `json.dumps(obj, indent=2)`, written
    from a template. obj holds n, s, scalar_kind and the 1-based edges of
    the tree and the graph, each weight a list of rows of floats, or of
    'p/q' strings when every weight is rational."""
    kind = "rational" if inst.is_exact else "float"
    return ('{\n  "n": %s,\n  "s": %s,\n  "scalar_kind": "%s",\n  "tree": %s,\n'
            '  "graph": %s\n}') % (inst.n, inst.s, kind, _edges_to_json(inst.tree, kind),
                                   _edges_to_json(inst.graph, kind))


def _text_hash(text: str) -> str:
    """The hex SHA-256 of an instance file's text."""
    return hashlib.sha256(text.encode()).hexdigest()


def instance_hash(inst: Instance) -> str:
    return _text_hash(serialize_instance(inst))
