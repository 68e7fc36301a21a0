import hashlib
import json
import math
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspec import model
from mwspec.errors import (
    ConfigError,
    InstanceSyntaxError,
    SchemaError,
    ValidationError,
)
from mwspec.golden import W1, golden_instance
from mwspec.model import (
    MatrixWeightedGraph,
    MatrixWeightedTree,
    WeightProfile,
    _prufer_decode,
    _tree_edges,
    parse_instance,
    random_connected_graph,
    random_instance,
    random_pd_weights,
    random_tree,
    serialize_instance,
    validate,
)


def _one_edge(w, exact=None):
    """The graph 0-1 whose one edge weighs w (and exactly weighs exact)."""
    w = np.asarray(w, dtype=float)
    return MatrixWeightedGraph(2, len(w), [(0, 1)], [w], None if exact is None else [exact])


def _assert_same_graph(a, b):
    assert type(a) is type(b) and (a.n, a.s) == (b.n, b.s)
    assert np.array_equal(a.endpoints, b.endpoints)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.is_exact == b.is_exact
    assert not a.is_exact or np.array_equal(a.exact, b.exact)


def _assert_same_instance(a, b):
    _assert_same_graph(a.tree, b.tree)
    _assert_same_graph(a.graph, b.graph)


def test_golden_tree_validates():
    inst = golden_instance()
    assert validate(inst.tree, require_tree=True).ok
    assert validate(inst.graph).ok


def test_validate_flags_indefinite_weight():
    result = validate(_one_edge([[1.0, 0.0], [0.0, -1.0]]))
    assert not result.ok
    assert any("positive definite" in v for v in result.violations)


@pytest.mark.parametrize("rows, ok", [
    ([[-1, 0], [0, -1]], False),   # det > 0, but the first leading minor is not
    ([[1, 1], [1, 1]], False),     # singular
    (W1, True),
    ([[1, 0], [0, Fraction(1, 10**10)]], True),    # ill-conditioned, still checked
    ([[1, 0], [0, Fraction(1, 10**400)]], False),  # PD, but its float rounding is not
], ids=["negative-definite", "singular", "golden-W1", "ill-conditioned",
        "rounds-to-singular"])
def test_validate_exact_positive_definiteness(rows, ok):
    exact = [[Fraction(x) for x in row] for row in rows]
    result = validate(_one_edge(rows, exact))
    assert result.ok is ok
    assert ok or any("not positive definite" in v for v in result.violations)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_validate_flags_non_finite_weight(bad):
    result = validate(_one_edge([[1.0, bad], [bad, 1.0]]))
    assert result.violations == ["edge (0, 1): weight has a non-finite entry"]


def test_validate_flags_disconnected():
    g = MatrixWeightedGraph(4, 1, [(0, 1), (2, 3)], np.ones((2, 1, 1)))
    result = validate(g)
    assert not result.ok
    assert any("connected" in v for v in result.violations)


def test_validate_huge_n_with_few_edges_allocates_nothing():
    # n comes from the instance file; too few edges must be rejected before
    # n adjacency lists are built
    g = MatrixWeightedGraph(10**6, 1, [(0, 1)], np.ones((1, 1, 1)))
    tracemalloc.start()
    result = validate(g)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert any("connected" in v for v in result.violations)
    assert peak < 2**20


def test_validate_flags_duplicate_edge():
    g = MatrixWeightedGraph(3, 1, [(0, 1), (0, 1), (1, 2)], np.ones((3, 1, 1)))
    assert any("duplicate" in v for v in validate(g).violations)


def test_validate_flags_cycle_when_tree_required():
    g = MatrixWeightedGraph(3, 1, [(0, 1), (1, 2), (0, 2)], np.ones((3, 1, 1)))
    result = validate(g, require_tree=True)
    assert any("tree" in v for v in result.violations)


def _validate_per_edge(g, require_tree=False):
    """validate as first written: each weight checked on its own, with one
    eigvalsh per edge (its weight-order branch had no case left: a graph's
    weights are all of order s)."""
    v = []
    if g.n < 2:
        v.append(f"n must be >= 2, got {g.n}")
    if g.s < 1:
        v.append(f"s must be >= 1, got {g.s}")
    seen = set()
    exact = [None] * len(g.weights) if g.exact is None else g.exact
    for (u, w_), m, ex in zip(g.endpoints.tolist(), g.weights, exact):
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
        if ex is not None and not np.array_equal(ex, ex.T):
            v.append(f"edge {key}: weight not symmetric")
        elif ex is not None and not model.rat_is_pd(ex):
            v.append(f"edge {key}: weight not positive definite")
        elif not np.all(np.isfinite(m)):
            v.append(f"edge {key}: weight has a non-finite entry")
        elif not np.array_equal(m, m.T):
            v.append(f"edge {key}: weight not symmetric")
        else:
            lam_min = float(np.linalg.eigvalsh(m)[0])
            scale = max(1.0, float(np.abs(m).max(initial=0.0)))
            rounded = ex is not None
            if lam_min <= (0.0 if rounded else model.EIG_ZERO * scale):
                what = "float rounding of weight" if rounded else "weight"
                v.append(f"edge {key}: {what} not positive definite "
                         f"(min eigenvalue {lam_min:.3e})")
    if not v:
        if require_tree and len(g.endpoints) != g.n - 1:
            v.append(f"tree must have n-1 = {g.n - 1} edges, got {len(g.endpoints)}")
        parent = list(range(g.n))      # union-find, not the package's walk

        def root(x):
            while parent[x] != x:
                x = parent[x]
            return x
        for u, w_ in g.endpoints.tolist():
            parent[root(u)] = root(w_)
        if len({root(x) for x in range(g.n)}) != 1:
            v.append("graph is not connected")
    return model.ValidationResult(not v, v)


def _inject(g, fault, k):
    """A copy of g with one fault at edge k (or, for "disconnected", one
    isolated vertex more)."""
    n, e, w = g.n, g.endpoints.copy(), g.weights.copy()
    x = None if g.exact is None else g.exact.copy()
    if fault == "non-finite":
        w[k, 0, 1] = w[k, 1, 0] = math.nan
        w[k, 1, 1] = math.inf
    elif fault == "asymmetric":
        w[k, 0, 1] += 1.0
    elif fault == "indefinite":
        w[k] = [[1.0, 0.0], [0.0, -1e-3]]
    elif fault == "exact-asymmetric":
        x[k, 0, 1] += 1
    elif fault == "exact-not-pd":
        x[k] = [[Fraction(1), Fraction(2)], [Fraction(2), Fraction(1)]]
        w[k] = [[1.0, 2.0], [2.0, 1.0]]
    elif fault == "exact-rounds-not-pd":
        x[k] = [[Fraction(1), Fraction(0)], [Fraction(0), Fraction(1, 10**400)]]
        w[k] = [[1.0, 0.0], [0.0, 0.0]]
    elif fault == "duplicate":
        e[k] = e[k - 1][::-1]
    elif fault == "self-loop":
        e[k] = e[k, 0]
    elif fault == "out-of-range":
        e[k] = (e[k, 0], n) if k % 2 else (-1, e[k, 1])
    elif fault == "disconnected":
        n += 1
    return type(g)(n, g.s, e, w, x)


FLOAT_FAULTS = ("non-finite", "asymmetric", "indefinite")
EXACT_FAULTS = ("exact-asymmetric", "exact-not-pd", "exact-rounds-not-pd")
EDGE_FAULTS = ("disconnected", "duplicate", "self-loop", "out-of-range")


def _fault_cases():
    for rational in (False, True):
        faults = (FLOAT_FAULTS + EDGE_FAULTS + (EXACT_FAULTS if rational else ()))
        for fault in faults:
            yield rational, (fault,)
        yield rational, faults      # every fault at once, one edge each


@pytest.mark.parametrize("rational, faults", _fault_cases(),
                         ids=lambda x: "+".join(x) if isinstance(x, tuple) else
                         ("rational" if x else "float"))
def test_stacked_validate_is_the_per_edge_validate(rational, faults):
    # every fault at edges 1, 5 and 9 (apart when there are several), in a
    # tree and in a graph, valid before the faults
    for g in (random_tree(12, 2, 5, rational=rational),
              random_connected_graph(12, 2, 6, 9, rational=rational)):
        assert validate(g).ok
        for ks in ((1,), (5,), (9,), (1, 5, 9)):
            bad = g
            for i, fault in enumerate(faults):
                for k in ks:
                    bad = _inject(bad, fault, (k + 2 * i) % len(g.endpoints) or 1)
            for require_tree in (False, True):
                want = _validate_per_edge(bad, require_tree)
                assert not want.ok
                assert validate(bad, require_tree) == want


def test_random_tree_n2():
    t = random_tree(2, 1, seed=0)
    assert t.endpoints.tolist() == [[0, 1]]


def test_random_tree_deterministic():
    _assert_same_graph(random_tree(5, 2, seed=7), random_tree(5, 2, seed=7))


def test_random_tree_structure():
    for seed in range(10):
        t = random_tree(9, 2, seed=seed)
        assert len(t.endpoints) == 8
        assert validate(t, require_tree=True).ok


def test_random_tree_rejects_bad_size():
    with pytest.raises(ConfigError):
        random_tree(1, 1, seed=0)


def test_prufer_bijection_exhaustive_n5():
    # all 5^3 = 125 Prufer sequences decode to 125 distinct labeled trees
    # (Cayley: n^{n-2})
    trees = set()
    for a in range(5):
        for b in range(5):
            for c in range(5):
                trees.add(tuple(sorted(_prufer_decode([a, b, c], 5))))
    assert len(trees) == 125


def test_random_tree_uniformity_n5():
    # 125 labeled trees on 5 vertices; each count within 5 standard
    # deviations of the uniform expectation
    samples = 10_000
    rng = np.random.default_rng(2718)
    counts = {}
    for _ in range(samples):
        seq = [int(x) for x in rng.integers(0, 5, size=3)]
        key = tuple(sorted(_prufer_decode(seq, 5)))
        counts[key] = counts.get(key, 0) + 1
    p = 1 / 125
    sigma = math.sqrt(samples * p * (1 - p))
    expected = samples * p
    assert len(counts) == 125
    for c in counts.values():
        assert abs(c - expected) <= 5 * sigma


def test_random_pd_weight_degenerate_range():
    w = random_pd_weights(1, 1, np.random.default_rng(0), WeightProfile(2.0, 2.0))
    assert np.allclose(w, [[[2.0]]])


def test_random_pd_weight_spectrum_and_symmetry():
    w = random_pd_weights(1, 3, np.random.default_rng(4))[0]
    assert np.array_equal(w, w.T)
    eigs = np.linalg.eigvalsh(w)
    assert eigs[0] >= 0.1 - 1e-12
    assert eigs[-1] <= 10.0 + 1e-12


def test_random_pd_weight_deterministic():
    a = random_pd_weights(1, 3, np.random.default_rng(11))
    b = random_pd_weights(1, 3, np.random.default_rng(11))
    assert np.array_equal(a, b)


def test_random_pd_weight_rejects_a_range_that_overflows():
    # (w + w') / 2 of a weight near the float maximum overflows; the generator
    # names the range, and warns of nothing (RuntimeWarnings are errors here)
    for s in (1, 2):
        with pytest.raises(ConfigError, match=r"\[1e\+308, 1e\+308\]"):
            random_pd_weights(1, s, np.random.default_rng(0), WeightProfile(1e308, 1e308))
    w = random_pd_weights(1, 1, np.random.default_rng(0), WeightProfile(8e307, 8e307))
    assert np.array_equal(w, [[[8e307]]])


@pytest.mark.parametrize("args, digest", [
    ((6, 2, 3, 2), "bcb8efc69e52d59e8f3937e1b6c1c5a1b69a1b5f5028f8ed4117006f7c330ff2"),
    ((5, 3, 4, 3, WeightProfile(1e-8, 1e8)),
     "c4428a12bbb28e3c75cab199674ee2feebced0cde51a8f27712ff049af8c36eb"),
    ((4, 2, 7, 1, WeightProfile(1e307, 1e307)),
     "6e76605479118447b5be42d5cb4a7875fec9bf87684ceb0c257ceb3853520cef"),
], ids=["default", "wide", "near-overflow"])
def test_generated_weights_keep_their_bits(args, digest):
    # the serialized instance holds every weight to the last bit (repr floats)
    assert model.instance_hash(random_instance(*args)) == digest


def _weight_one_at_a_time(s, rng, profile):
    # the generator as first written: one QR per weight, Q's signs fixed by R
    lam = rng.uniform(profile.lam_lo, profile.lam_hi, size=s)
    q, r = np.linalg.qr(rng.standard_normal((s, s)))
    q = q * np.sign(np.diag(r))
    with np.errstate(over="ignore", invalid="ignore"):
        w = (q * lam) @ q.T
        w = (w + w.T) / 2.0
    if not np.isfinite(w).all():
        raise ConfigError(f"weights with eigenvalues in [{profile.lam_lo}, "
                          f"{profile.lam_hi}] overflow the float range at s = {s}")
    return w


@pytest.mark.parametrize("profile", [model.DEFAULT_PROFILE, WeightProfile(2.0, 2.0),
                                     WeightProfile(1e-8, 1e8)],
                         ids=["default", "degenerate", "wide"])
@pytest.mark.parametrize("count", [1, 2, 7, 1199])
@pytest.mark.parametrize("s", range(1, 7))
def test_stacked_weights_are_the_one_at_a_time_weights(s, count, profile):
    stacked, single = np.random.default_rng(100 * s + count), np.random.default_rng(100 * s + count)
    got = random_pd_weights(count, s, stacked, profile)
    want = np.stack([_weight_one_at_a_time(s, single, profile) for _ in range(count)])
    assert got.tobytes() == want.tobytes()
    assert stacked.random() == single.random()     # the same draws were consumed


@pytest.mark.parametrize("count", [1, 2, 7])
@pytest.mark.parametrize("s", range(1, 7))
def test_stacked_weights_reject_an_overflow_as_one_at_a_time_does(s, count):
    profile = WeightProfile(1e308, 1e308)
    with pytest.raises(ConfigError) as want:
        [_weight_one_at_a_time(s, np.random.default_rng(s), profile) for _ in range(count)]
    with pytest.raises(ConfigError) as got:
        random_pd_weights(count, s, np.random.default_rng(s), profile)
    assert str(got.value) == str(want.value)


def test_rational_generation_rejects_a_weight_range():
    with pytest.raises(ConfigError, match="rational weights take no eigenvalue range"):
        random_instance(3, 2, 0, profile=WeightProfile(1e300, 1e300), rational=True)
    with pytest.raises(ConfigError, match="rational"):
        random_tree(3, 2, 0, WeightProfile(0.1, 11.0), rational=True)
    assert random_instance(3, 2, 0, profile=WeightProfile(0.1, 10.0), rational=True).is_exact


def test_profile_rejects_bad_range():
    with pytest.raises(ConfigError):
        WeightProfile(0.0, 1.0)
    with pytest.raises(ConfigError):
        WeightProfile(2.0, 1.0)


@pytest.mark.parametrize("lo, hi", [(float("nan"), 1.0), (0.1, float("nan")),
                                    (0.1, float("inf")), (float("inf"), float("inf"))])
def test_profile_rejects_non_finite_bound(lo, hi):
    with pytest.raises(ConfigError):
        WeightProfile(lo, hi)


def test_random_graph_no_extra_is_tree():
    g = random_connected_graph(6, 2, seed=3, extra_edges=0)
    assert len(g.endpoints) == 5
    assert validate(g).ok


def test_random_graph_complete_topology():
    g = random_connected_graph(4, 1, seed=0, extra_edges=3)
    assert len(g.endpoints) == 6
    assert {tuple(e) for e in g.endpoints.tolist()} == {
        (0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)}


def test_random_graph_validates():
    g = random_connected_graph(6, 3, seed=3, extra_edges=4)
    assert validate(g).ok


def _complement_list_topology(n, seed, extra):
    # the sampler as first written: list every non-tree pair, then choose
    rng = np.random.default_rng(seed)
    tree = set(_tree_edges(n, rng))
    complement = [(u, v) for u in range(n) for v in range(u + 1, n) if (u, v) not in tree]
    picks = rng.choice(len(complement), size=extra, replace=False)
    return sorted(tree) + sorted(complement[int(k)] for k in picks)


def _sampler_cases():
    for n in (2, 3, 4, 5, 7, 12, 23, 40):
        max_extra = (n - 1) * (n - 2) // 2
        for extra in sorted({0, 1, max_extra // 2, max_extra - 1, max_extra}):
            if 0 <= extra <= max_extra:
                yield n, extra


@pytest.mark.parametrize("n, extra", _sampler_cases())
def test_random_graph_matches_complement_list(n, extra):
    for seed in range(4):
        g = random_connected_graph(n, 2, seed, extra)
        topo = [tuple(e) for e in g.endpoints.tolist()]
        assert topo == _complement_list_topology(n, seed, extra)


@pytest.mark.parametrize("n, digest", [
    (2, "b9905b991e2dab69"), (3, "88d7469b12380316"), (4, "ce8a15048fe1fec1"),
    (7, "d0fda0f48c904664"), (12, "29ef7d7eaab9cdf6"), (29, "61a327307b782c64"),
    (60, "e89aad3ba612be53"), (80, "df1822360509a773"), (600, "313a6bbc4d3b21b2"),
])
def test_random_graph_keeps_its_edge_lists(monkeypatch, n, digest):
    # seeds 0-4, extra in {0, 1, max/3, max}: one digest of every edge list;
    # the topology is drawn before any weight, so one shared weight keeps it
    # and the weight maker draws nothing
    monkeypatch.setattr(model, "random_pd_weights",
                        lambda count, s, rng, profile: np.broadcast_to(np.eye(1), (count, 1, 1)))
    max_extra = (n - 1) * (n - 2) // 2
    h = hashlib.sha256()
    for seed in range(5):
        for extra in sorted({0, 1, max_extra // 3, max_extra} & set(range(max_extra + 1))):
            g = random_connected_graph(n, 1, seed, extra)
            h.update(repr([tuple(e) for e in g.endpoints.tolist()]).encode())
    assert h.hexdigest()[:16] == digest


def test_random_graph_large_n_memory(monkeypatch):
    # the complement list would hold ~2e8 pairs (several GB) at this size;
    # one shared weight keeps 20002 weight draws out of the traced time
    monkeypatch.setattr(model, "random_pd_weights",
                        lambda count, s, rng, profile: np.broadcast_to(np.eye(1), (count, 1, 1)))
    tracemalloc.start()
    try:
        g = random_connected_graph(20000, 1, seed=5, extra_edges=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.endpoints) == 20002
    assert peak < 64 * 2**20


def test_random_graph_rejects_too_many_extra():
    with pytest.raises(ConfigError):
        random_connected_graph(4, 1, seed=0, extra_edges=4)


def test_round_trip_float():
    inst = random_instance(5, 2, seed=9, extra_edges=2)
    _assert_same_instance(parse_instance(serialize_instance(inst)), inst)


def test_round_trip_rational():
    inst = golden_instance()
    text = serialize_instance(inst)
    assert '"scalar_kind": "rational"' in text
    again = parse_instance(text)
    _assert_same_instance(again, inst)
    assert all(type(x) is Fraction for x in again.tree.exact.flat)


def _json_dumps_instance(inst):
    # the serializer as first written: the object, through json.dumps
    kind = "rational" if inst.is_exact else "float"

    def weight(g, k):
        if kind == "rational":
            return [[str(x) for x in row] for row in g.exact[k]]
        return [[float(x) for x in row] for row in g.weights[k]]

    def edges(g):
        return {"edges": [{"u": u + 1, "v": v + 1, "w": weight(g, k)}
                          for k, (u, v) in enumerate(g.endpoints.tolist())]}

    obj = {"n": inst.n, "s": inst.s, "scalar_kind": kind,
           "tree": edges(inst.tree), "graph": edges(inst.graph)}
    return json.dumps(obj, indent=2)


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(n=st.integers(2, 9), s=st.integers(1, 4), seed=st.integers(0, 2**32),
       extra=st.integers(0, 6), rational=st.booleans(),
       profile=st.sampled_from([model.DEFAULT_PROFILE, WeightProfile(1e-8, 1e8),
                                WeightProfile(1e300, 1e300)]))
def test_serializer_writes_the_json_dumps_text(n, s, seed, extra, rational, profile):
    extra = min(extra, (n - 1) * (n - 2) // 2)
    if rational:
        profile = model.DEFAULT_PROFILE
    inst = random_instance(n, s, seed, extra, profile, rational)
    assert serialize_instance(inst) == _json_dumps_instance(inst)


@pytest.mark.parametrize("s", [1, 2, 3])
def test_serializer_writes_json_dumps_special_floats(s):
    # entries no generator makes, each filling one weight, then all mixed
    special = [-0.0, 5e-324, -5e-324, 1e308, -1.7976931348623157e308,
               math.nan, math.inf, -math.inf, 0.1, 1 / 3]
    weights = np.array([np.full((s, s), x) for x in special] + [np.resize(special, (s, s))])
    tree = MatrixWeightedTree(3, s, [(0, 1), (1, 2)], weights[:2])
    graph = MatrixWeightedGraph(3, s, [(0, 2)] * (len(weights) - 2), weights[2:])
    inst = model.Instance(tree, graph)
    text = serialize_instance(inst)
    assert text == _json_dumps_instance(inst)
    for token in ("-0.0", "5e-324", "1e+308", "NaN", " Infinity", "-Infinity"):
        assert token in text


def test_serializer_writes_json_dumps_edge_lists_of_any_size():
    # empty edge lists
    none = lambda cls: cls(3, 1, np.zeros((0, 2), dtype=int), np.zeros((0, 1, 1)))
    one = MatrixWeightedTree(3, 1, [(0, 1)], np.ones((1, 1, 1)))
    for tree in (none(MatrixWeightedTree), one):
        inst = model.Instance(tree, none(MatrixWeightedGraph))
        assert serialize_instance(inst) == _json_dumps_instance(inst)


def test_parse_empty_is_syntax_error():
    with pytest.raises(InstanceSyntaxError):
        parse_instance("")


def test_parse_rejects_unknown_field():
    text = serialize_instance(golden_instance())
    obj = json.loads(text)
    obj["extra"] = 1
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(obj))


def test_parse_rejects_weight_order_mismatch():
    obj = json.loads(serialize_instance(golden_instance()))
    obj["tree"]["edges"][0]["w"] = [["1"]]
    with pytest.raises(SchemaError):
        parse_instance(json.dumps(obj))


def test_parse_rejects_invalid_structure():
    obj = json.loads(serialize_instance(golden_instance()))
    del obj["tree"]["edges"][0]  # tree loses an edge -> disconnected
    with pytest.raises(ValidationError):
        parse_instance(json.dumps(obj))


@pytest.mark.parametrize("field", ["n", "s", "u", "v"])
def test_parse_rejects_json_true_as_an_integer(field):
    # bool is an int subclass in Python: "s": true would be s = 1
    obj = {"n": 2, "s": 1, "scalar_kind": "float",
           "tree": {"edges": [{"u": 1, "v": 2, "w": [[1.0]]}]},
           "graph": {"edges": [{"u": 1, "v": 2, "w": [[1.0]]}]}}
    parse_instance(json.dumps(obj))
    (obj if field in "ns" else obj["tree"]["edges"][0])[field] = True
    with pytest.raises(SchemaError, match="integer"):
        parse_instance(json.dumps(obj))


def test_parse_rejects_non_reduced_rational():
    obj = json.loads(serialize_instance(golden_instance()))
    obj["tree"]["edges"][0]["w"][0][0] = "16/2"
    with pytest.raises(InstanceSyntaxError):
        parse_instance(json.dumps(obj))
