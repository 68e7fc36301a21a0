"""Data model, validation, random generation, and JSON serialization for
matrix-weighted trees and connected graphs.

Vertices are 0-based everywhere in memory; the JSON instance format is
1-based to match the usual figure labeling, and the parser/serializer is the
only place the offset is applied.
"""

from __future__ import annotations

import hashlib
import heapq
import json
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, InstanceSyntaxError, SchemaError, ValidationError
from .exact import format_rational, parse_rational, rat_is_pd, rat_matrix, rat_to_float
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


class PDWeight:
    """Symmetric positive definite edge weight of order s.

    Carries a float matrix always, and an exact Fraction payload (a
    read-only `rat_matrix`) when the instance is rational.
    """

    __slots__ = ("matrix", "exact")

    def __init__(self, matrix: np.ndarray, exact=None):
        m = np.asarray(matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ConfigError(f"weight must be square, got shape {m.shape}")
        m.setflags(write=False)
        self.matrix = m
        self.exact = None
        if exact is not None:
            self.exact = rat_matrix(exact)
            self.exact.setflags(write=False)

    @property
    def order(self) -> int:
        return self.matrix.shape[0]

    def __eq__(self, other):
        if not isinstance(other, PDWeight):
            return NotImplemented
        if (self.exact is None) != (other.exact is None):
            return False
        if self.exact is not None:
            return bool(np.array_equal(self.exact, other.exact))
        return np.array_equal(self.matrix, other.matrix)

    def __repr__(self):
        return f"PDWeight(order={self.order}, exact={self.exact is not None})"


@dataclass
class MatrixWeightedGraph:
    n: int
    s: int
    edges: list[tuple[int, int, PDWeight]] = field(default_factory=list)

    @property
    def is_exact(self) -> bool:
        return all(w.exact is not None for _, _, w in self.edges)


@dataclass
class MatrixWeightedTree(MatrixWeightedGraph):
    pass


@dataclass
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
        """Whether every weight of the tree and the graph is rational."""
        return self.tree.is_exact and self.graph.is_exact


@dataclass
class ValidationResult:
    ok: bool
    violations: list[str]


def _connected(n: int, edges) -> bool:
    if len(edges) < n - 1:      # before allocating n adjacency lists
        return False
    adj = adjacency(n, [(u, v) for u, v, _ in edges])
    return sum(1 for _ in walk(adj, 0)) == n - 1


def validate(g: MatrixWeightedGraph, require_tree: bool = False) -> ValidationResult:
    """Structural validation; violations are returned, never raised."""
    v: list[str] = []
    if g.n < 2:
        v.append(f"n must be >= 2, got {g.n}")
    if g.s < 1:
        v.append(f"s must be >= 1, got {g.s}")
    seen = set()
    for u, w_, wt in g.edges:
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
        if wt.order != g.s:
            v.append(f"edge {key}: weight order {wt.order} != s = {g.s}")
            continue
        m = wt.matrix
        if wt.exact is not None and not np.array_equal(wt.exact, wt.exact.T):
            v.append(f"edge {key}: weight not symmetric")
        elif wt.exact is not None and not rat_is_pd(wt.exact):
            v.append(f"edge {key}: weight not positive definite")
        elif not np.all(np.isfinite(m)):
            v.append(f"edge {key}: weight has a non-finite entry")
        elif not np.array_equal(m, m.T):
            v.append(f"edge {key}: weight not symmetric")
        else:
            lam_min = float(np.linalg.eigvalsh(m)[0])
            scale = max(1.0, float(np.abs(m).max(initial=0.0)))
            # the float kernel runs on the rounding of an exact weight, which
            # need only stay PD: a conditioning threshold would turn away
            # exact instances that only the exact kernel can check
            rounded = wt.exact is not None
            if lam_min <= (0.0 if rounded else EIG_ZERO * scale):
                what = "float rounding of weight" if rounded else "weight"
                v.append(f"edge {key}: {what} not positive definite "
                         f"(min eigenvalue {lam_min:.3e})")
    if not v:
        if require_tree and len(g.edges) != g.n - 1:
            v.append(f"tree must have n-1 = {g.n - 1} edges, got {len(g.edges)}")
        if not _connected(g.n, g.edges):
            v.append("graph is not connected")
    return ValidationResult(not v, v)


# ---------------------------------------------------------------------------
# random generation


def random_pd_weights(
    count: int, s: int, rng: np.random.Generator, profile: WeightProfile = DEFAULT_PROFILE
) -> list[PDWeight]:
    """count weights Q diag(lam) Q', each with a random orthogonal Q and lam
    uniform in the profile range.

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
    return [PDWeight(x) for x in w]


def random_pd_weight(
    s: int, rng: np.random.Generator, profile: WeightProfile = DEFAULT_PROFILE
) -> PDWeight:
    """One weight of `random_pd_weights`."""
    return random_pd_weights(1, s, rng, profile)[0]


def _random_rational_pd_weight(s: int, rng: np.random.Generator) -> PDWeight:
    # M M' + I with small integer M is symmetric PD and exactly representable
    m = rng.integers(-3, 4, size=(s, s))
    w = m @ m.T + np.eye(s, dtype=np.int64) * int(rng.integers(1, 4))
    return PDWeight(w.astype(float), w.tolist())


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


def _weight_maker(s: int, rng: np.random.Generator, profile: WeightProfile,
                  rational: bool):
    """A maker of PD weights that draws from rng: make(count) is a list."""
    if rational:
        if profile != DEFAULT_PROFILE:
            raise ConfigError(f"rational weights take no eigenvalue range, got "
                              f"[{profile.lam_lo}, {profile.lam_hi}]")
        return lambda count: [_random_rational_pd_weight(s, rng) for _ in range(count)]
    return lambda count: random_pd_weights(count, s, rng, profile)


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
    weights = _weight_maker(s, rng, profile, rational)(len(edges))
    return MatrixWeightedTree(n, s, [(u, v, w) for (u, v), w in zip(edges, weights)])


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
    tree = sorted(_tree_edges(n, rng))
    # pairs u < v in lexicographic order; row u starts at rank starts[u]
    us = np.arange(n)
    starts = us * (2 * n - us - 1) // 2
    t = np.array(tree)
    tree_ranks = starts[t[:, 0]] + t[:, 1] - t[:, 0] - 1
    # pick the k-th non-tree pair without listing them: it has rank k plus
    # the number of tree pairs ranked before it
    picks = np.sort(rng.choice(max_extra, size=extra_edges, replace=False))
    ranks = picks + np.searchsorted(tree_ranks - us[:-1], picks, side="right")
    rows = np.searchsorted(starts, ranks, side="right") - 1
    cols = ranks - starts[rows] + rows + 1
    topo = tree + list(zip(rows.tolist(), cols.tolist()))
    weights = _weight_maker(s, rng, profile, rational)(len(topo))
    return MatrixWeightedGraph(n, s, [(u, v, w) for (u, v), w in zip(topo, weights)])


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


def _weight_from_json(obj, s: int, kind: str) -> PDWeight:
    if not (isinstance(obj, list) and len(obj) == s
            and all(isinstance(r, list) and len(r) == s for r in obj)):
        raise SchemaError(f"weight must be an {s}x{s} array")
    exact = None
    if kind == "rational":
        if not all(isinstance(x, str) for row in obj for x in row):
            raise SchemaError("rational entries must be strings like 'p/q'")
        exact = rat_matrix([[parse_rational(x) for x in row] for row in obj])
    elif not all(isinstance(x, (int, float)) and not isinstance(x, bool)
                 for row in obj for x in row):
        raise SchemaError("float entries must be JSON numbers")
    try:
        matrix = np.array(obj, dtype=float) if exact is None else rat_to_float(exact)
    except OverflowError as exc:    # an integer or p/q beyond the float range
        raise SchemaError(f"weight entry out of float range: {exc}") from exc
    return PDWeight(matrix, exact)


def _edges_from_json(obj, n: int, s: int, kind: str, where: str):
    if not (isinstance(obj, dict) and set(obj) == {"edges"}):
        raise SchemaError(f"{where} must be an object with a single 'edges' field")
    edges = []
    if not isinstance(obj["edges"], list):
        raise SchemaError(f"{where}.edges must be a list")
    for e in obj["edges"]:
        if not (isinstance(e, dict) and set(e) == _EDGE_KEYS):
            raise SchemaError(f"{where} edge must have exactly fields u, v, w")
        u, v = e["u"], e["v"]
        if not (isinstance(u, int) and isinstance(v, int)):
            raise SchemaError("edge endpoints must be integers")
        if not (1 <= u < v <= n):
            raise SchemaError(f"edge endpoints must satisfy 1 <= u < v <= n, got ({u},{v})")
        edges.append((u - 1, v - 1, _weight_from_json(e["w"], s, kind)))
    return edges


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
    if not (isinstance(n, int) and n >= 2):
        raise SchemaError(f"n must be an integer >= 2, got {n!r}")
    if not (isinstance(s, int) and s >= 1):
        raise SchemaError(f"s must be an integer >= 1, got {s!r}")
    if kind not in ("float", "rational"):
        raise SchemaError(f"scalar_kind must be 'float' or 'rational', got {kind!r}")
    tree = MatrixWeightedTree(n, s, _edges_from_json(obj["tree"], n, s, kind, "tree"))
    graph = MatrixWeightedGraph(n, s, _edges_from_json(obj["graph"], n, s, kind, "graph"))
    for g, req in ((tree, True), (graph, False)):
        result = validate(g, require_tree=req)
        if not result.ok:
            raise ValidationError("; ".join(result.violations))
    return Instance(tree, graph)


def _edge_template(s: int) -> str:
    """One edge of an instance file, as `json.dumps(indent=2)` lays it out,
    with %s for u, v and the s*s entries of w in row order."""
    row = "[\n" + ",\n".join([" " * 12 + "%s"] * s) + "\n" + " " * 10 + "]"
    w = "[\n" + ",\n".join([" " * 10 + row] * s) + "\n" + " " * 8 + "]" if s else "[]"
    return '      {\n        "u": %s,\n        "v": %s,\n        "w": ' + w + "\n      }"


def _edges_to_json(g: MatrixWeightedGraph, kind: str) -> str:
    if not g.edges:
        return '{\n    "edges": []\n  }'
    weights = [w for _, _, w in g.edges]
    if kind == "rational":
        flat = [format_rational(x) for w in weights for x in w.exact.flat]
    else:
        flat = np.concatenate([w.matrix.ravel() for w in weights]).tolist()
    # one call of json's C encoder renders every entry: its float repr, NaN
    # and Infinity, and its string escapes; no entry holds ", "
    items = json.dumps(flat)[1:-1].split(", ")
    templates = {s: _edge_template(s) for s in {w.order for w in weights}}
    edges, at = [], 0
    for u, v, w in g.edges:
        size = w.order * w.order
        edges.append(templates[w.order] % (u + 1, v + 1, *items[at:at + size]))
        at += size
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


def instance_hash(inst: Instance) -> str:
    return hashlib.sha256(serialize_instance(inst).encode()).hexdigest()
