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
    PDWeight,
    WeightProfile,
    _prufer_decode,
    _tree_edges,
    parse_instance,
    random_connected_graph,
    random_instance,
    random_pd_weight,
    random_pd_weights,
    random_tree,
    serialize_instance,
    validate,
)


def test_golden_tree_validates():
    inst = golden_instance()
    assert validate(inst.tree, require_tree=True).ok
    assert validate(inst.graph).ok


def test_validate_flags_indefinite_weight():
    w = PDWeight(np.array([[1.0, 0.0], [0.0, -1.0]]))
    g = MatrixWeightedGraph(2, 2, [(0, 1, w)])
    result = validate(g)
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
    w = PDWeight(np.array(rows, dtype=float), exact)
    result = validate(MatrixWeightedGraph(2, 2, [(0, 1, w)]))
    assert result.ok is ok
    assert ok or any("not positive definite" in v for v in result.violations)


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_validate_flags_non_finite_weight(bad):
    w = PDWeight(np.array([[1.0, bad], [bad, 1.0]]))
    result = validate(MatrixWeightedGraph(2, 2, [(0, 1, w)]))
    assert result.violations == ["edge (0, 1): weight has a non-finite entry"]


def test_validate_flags_disconnected():
    w = lambda: PDWeight(np.eye(1))
    g = MatrixWeightedGraph(4, 1, [(0, 1, w()), (2, 3, w())])
    result = validate(g)
    assert not result.ok
    assert any("connected" in v for v in result.violations)


def test_validate_huge_n_with_few_edges_allocates_nothing():
    # n comes from the instance file; too few edges must be rejected before
    # n adjacency lists are built
    g = MatrixWeightedGraph(10**6, 1, [(0, 1, PDWeight(np.eye(1)))])
    tracemalloc.start()
    result = validate(g)
    peak = tracemalloc.get_traced_memory()[1]
    tracemalloc.stop()
    assert any("connected" in v for v in result.violations)
    assert peak < 2**20


def test_validate_flags_duplicate_edge():
    w = lambda: PDWeight(np.eye(1))
    g = MatrixWeightedGraph(3, 1, [(0, 1, w()), (0, 1, w()), (1, 2, w())])
    assert any("duplicate" in v for v in validate(g).violations)


def test_validate_flags_cycle_when_tree_required():
    w = lambda: PDWeight(np.eye(1))
    g = MatrixWeightedGraph(3, 1, [(0, 1, w()), (1, 2, w()), (0, 2, w())])
    result = validate(g, require_tree=True)
    assert any("tree" in v for v in result.violations)


def test_random_tree_n2():
    t = random_tree(2, 1, seed=0)
    assert [(u, v) for u, v, _ in t.edges] == [(0, 1)]


def test_random_tree_deterministic():
    a = random_tree(5, 2, seed=7)
    b = random_tree(5, 2, seed=7)
    assert a == b


def test_random_tree_structure():
    for seed in range(10):
        t = random_tree(9, 2, seed=seed)
        assert len(t.edges) == 8
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
    w = random_pd_weight(1, np.random.default_rng(0), WeightProfile(2.0, 2.0))
    assert np.allclose(w.matrix, [[2.0]])


def test_random_pd_weight_spectrum_and_symmetry():
    w = random_pd_weight(3, np.random.default_rng(4))
    assert np.array_equal(w.matrix, w.matrix.T)
    eigs = np.linalg.eigvalsh(w.matrix)
    assert eigs[0] >= 0.1 - 1e-12
    assert eigs[-1] <= 10.0 + 1e-12


def test_random_pd_weight_deterministic():
    a = random_pd_weight(3, np.random.default_rng(11))
    b = random_pd_weight(3, np.random.default_rng(11))
    assert np.array_equal(a.matrix, b.matrix)


def test_random_pd_weight_rejects_a_range_that_overflows():
    # (w + w') / 2 of a weight near the float maximum overflows; the generator
    # names the range, and warns of nothing (RuntimeWarnings are errors here)
    for s in (1, 2):
        with pytest.raises(ConfigError, match=r"\[1e\+308, 1e\+308\]"):
            random_pd_weight(s, np.random.default_rng(0), WeightProfile(1e308, 1e308))
    w = random_pd_weight(1, np.random.default_rng(0), WeightProfile(8e307, 8e307))
    assert np.array_equal(w.matrix, [[8e307]])


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
    got = np.stack([w.matrix for w in random_pd_weights(count, s, stacked, profile)])
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
    assert len(g.edges) == 5
    assert validate(g).ok


def test_random_graph_complete_topology():
    g = random_connected_graph(4, 1, seed=0, extra_edges=3)
    assert len(g.edges) == 6
    assert {(u, v) for u, v, _ in g.edges} == {
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
        topo = [(u, v) for u, v, _ in g.edges]
        assert topo == _complement_list_topology(n, seed, extra)
        assert all(type(x) is int for e in topo for x in e)


@pytest.mark.parametrize("n, digest", [
    (2, "b9905b991e2dab69"), (3, "88d7469b12380316"), (4, "ce8a15048fe1fec1"),
    (7, "d0fda0f48c904664"), (12, "29ef7d7eaab9cdf6"), (29, "61a327307b782c64"),
    (60, "e89aad3ba612be53"), (80, "df1822360509a773"), (600, "313a6bbc4d3b21b2"),
])
def test_random_graph_keeps_its_edge_lists(monkeypatch, n, digest):
    # seeds 0-4, extra in {0, 1, max/3, max}: one digest of every edge list;
    # the topology is drawn before any weight, so one shared weight keeps it
    # and the weight maker draws nothing
    one = PDWeight(np.eye(1))
    monkeypatch.setattr(model, "random_pd_weights", lambda count, s, rng, profile: [one] * count)
    max_extra = (n - 1) * (n - 2) // 2
    h = hashlib.sha256()
    for seed in range(5):
        for extra in sorted({0, 1, max_extra // 3, max_extra} & set(range(max_extra + 1))):
            g = random_connected_graph(n, 1, seed, extra)
            h.update(repr([(u, v) for u, v, _ in g.edges]).encode())
    assert h.hexdigest()[:16] == digest


def test_random_graph_large_n_memory(monkeypatch):
    # the complement list would hold ~2e8 pairs (several GB) at this size;
    # one shared weight keeps 20002 weight draws out of the traced time
    one = PDWeight(np.eye(1))
    monkeypatch.setattr(model, "random_pd_weights", lambda count, s, rng, profile: [one] * count)
    tracemalloc.start()
    try:
        g = random_connected_graph(20000, 1, seed=5, extra_edges=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(g.edges) == 20002
    assert peak < 64 * 2**20


def test_random_graph_rejects_too_many_extra():
    with pytest.raises(ConfigError):
        random_connected_graph(4, 1, seed=0, extra_edges=4)


def test_round_trip_float():
    inst = random_instance(5, 2, seed=9, extra_edges=2)
    assert parse_instance(serialize_instance(inst)) == inst


def test_round_trip_rational():
    inst = golden_instance()
    text = serialize_instance(inst)
    assert '"scalar_kind": "rational"' in text
    again = parse_instance(text)
    assert again == inst
    assert np.array_equal(again.tree.edges[0][2].exact, inst.tree.edges[0][2].exact)


def _json_dumps_instance(inst):
    # the serializer as first written: the object, through json.dumps
    kind = "rational" if inst.is_exact else "float"

    def weight(w):
        if kind == "rational":
            return [[model.format_rational(x) for x in row] for row in w.exact]
        return [[float(x) for x in row] for row in w.matrix]

    def edges(g):
        return {"edges": [{"u": u + 1, "v": v + 1, "w": weight(w)} for u, v, w in g.edges]}

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
    weights = [PDWeight(np.full((s, s), x)) for x in special]
    weights.append(PDWeight(np.resize(special, (s, s))))
    tree = model.MatrixWeightedTree(3, s, [(0, 1, weights[0]), (1, 2, weights[1])])
    graph = MatrixWeightedGraph(3, s, [(0, 2, w) for w in weights[2:]])
    inst = model.Instance(tree, graph)
    text = serialize_instance(inst)
    assert text == _json_dumps_instance(inst)
    for token in ("-0.0", "5e-324", "1e+308", "NaN", " Infinity", "-Infinity"):
        assert token in text


def test_serializer_writes_json_dumps_edge_lists_of_any_size():
    # empty edge lists, and weights of several orders, 0 included, in one graph
    none, one = PDWeight(np.zeros((0, 0))), PDWeight(np.eye(1))
    two = PDWeight([[2.0, -0.0], [-0.0, 2.0]])
    for tree_edges, graph_edges in (([], []), ([(0, 1, one)], []),
                                    ([(0, 1, one)], [(0, 1, none), (1, 2, two), (0, 2, one)])):
        inst = model.Instance(model.MatrixWeightedTree(3, 1, tree_edges),
                              MatrixWeightedGraph(3, 1, graph_edges))
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


def test_parse_rejects_non_reduced_rational():
    obj = json.loads(serialize_instance(golden_instance()))
    obj["tree"]["edges"][0]["w"][0][0] = "16/2"
    with pytest.raises(InstanceSyntaxError):
        parse_instance(json.dumps(obj))
