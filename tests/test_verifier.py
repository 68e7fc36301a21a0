import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from mwspec.errors import ConfigError, SingularMatrixError
from mwspec.golden import golden_instance
from mwspec.linalg import (
    EIG_ZERO,
    NONZERO_FLOOR,
    inertia_of,
    inertia_of_spectrum,
    is_pd_quadratic_form,
    rank_of,
)
from mwspec.model import (
    Instance,
    MatrixWeightedGraph,
    MatrixWeightedTree,
    WeightProfile,
    instance_hash,
    random_instance,
)
from mwspec.operators import BlockMatrix
from mwspec.perturbation import (
    PerturbedPencil,
    bordered,
    gx_matrix,
    haynsworth_check,
    perturbed_pencil,
    principal_block_submatrix,
)
from mwspec import operators, verifier
from mwspec.verifier import (
    DEFAULT_BETAS,
    CampaignConfig,
    _guard,
    _gx_vectors,
    _null_compress,
    _rel,
    build_matrices,
    campaign_summary,
    run_campaign,
    verify_exact_consistency,
    verify_fiedler_markham,
    verify_instance,
    verify_preliminaries,
    verify_theorem,
)


def by_id(checks, cid):
    return [c for c in checks if c.check_id == cid]


def test_preliminaries_golden_pass():
    inst = golden_instance()
    checks = verify_preliminaries(build_matrices(inst))
    assert all(c.passed for c in checks)
    p3 = by_id(checks, "P3")[0]
    assert p3.evidence["inertia"] == [6, 0, 2]


def test_preliminaries_minimal_instance():
    from mwspec.model import Instance, MatrixWeightedGraph

    w = np.array([[[2.0]]])
    inst = Instance(MatrixWeightedTree(2, 1, [(0, 1)], w), MatrixWeightedGraph(2, 1, [(0, 1)], w))
    checks = verify_preliminaries(build_matrices(inst))
    assert all(c.passed for c in checks)


def test_corrupted_distance_fails_p1():
    inst = golden_instance()
    mats = build_matrices(inst, corrupt=(1, 3, 1.1))
    checks = verify_preliminaries(mats)
    p1 = by_id(checks, "P1")[0]
    assert not p1.passed


@pytest.mark.parametrize("corrupt", [(0, 1, 2.0), (1, 9, 2.0), (9, 1, 2.0),
                                     (1, 1, np.inf), (1, 1, np.nan),
                                     # no change to D: a zero entry of a block
                                     # D_ii, or a factor that is or rounds to 1
                                     (1, 2, 1.5), (2, 2, 0.5), (1, 3, 1.0),
                                     (1, 3, 1.0 + 1e-17)])
def test_build_matrices_rejects_bad_corruption(corrupt):
    # the golden instance has ns = 8
    with pytest.raises(ConfigError):
        build_matrices(golden_instance(), corrupt=corrupt)


def test_theorem_golden_beta_one():
    inst = golden_instance()
    checks = verify_theorem(build_matrices(inst), 1.0)
    assert all(c.passed for c in checks)
    thm_ii = by_id(checks, "THM.ii")[0]
    assert thm_ii.evidence["inertia"] == [6, 0, 2]


def test_theorem_beta_zero_skips_vi():
    inst = golden_instance()
    checks = verify_theorem(build_matrices(inst), 0.0)
    for cid in ("THM.i", "THM.ii", "THM.iii", "THM.iv", "THM.v"):
        assert by_id(checks, cid)[0].passed
    assert by_id(checks, "THM.vi")[0].skipped
    assert by_id(checks, "THM.vi.gx")[0].skipped


def test_theorem_lists_non_pd_blocks_row_major():
    # THM.vi never fails on a valid instance, so negate three blocks of F
    inst = golden_instance()
    mats = build_matrices(inst)
    pencil = perturbed_pencil(mats.d_inv, mats.l, 1.0)
    f, s = pencil.f.array.copy(), inst.s
    for i, j in ((1, 3), (2, 1), (4, 2)):
        f[(i - 1) * s:i * s, (j - 1) * s:j * s] *= -1.0
    tampered = PerturbedPencil(pencil.p, BlockMatrix(inst.n, s, f))
    mats.memo(("pencil", 1.0), lambda: tampered)
    thm_vi = by_id(verify_theorem(mats, 1.0), "THM.vi")[0]
    assert not thm_vi.passed
    assert thm_vi.evidence["non_pd_blocks"] == [[1, 3], [2, 1], [4, 2]]


def test_theorem_fails_when_the_sample_contradicts_the_derived_inertia():
    # negate F_22: the derived In(P(alpha')) of vertex 2 becomes (4, 0, 2),
    # while the sampled direct spectrum of the untouched P(alpha') is (6, 0, 0)
    inst = golden_instance()
    mats = build_matrices(inst)
    pencil = perturbed_pencil(mats.d_inv, mats.l, 1.0)
    f, s = pencil.f.array.copy(), inst.s
    f[s:2 * s, s:2 * s] *= -1.0
    tampered = PerturbedPencil(pencil.p, BlockMatrix(inst.n, s, f))
    mats.memo(("pencil", 1.0), lambda: tampered)
    thm_iii = by_id(verify_theorem(mats, 1.0), "THM.iii")[0]
    assert not thm_iii.passed
    # a contradicted sample sends every vertex to the direct route
    assert thm_iii.evidence["route"] == "contradicted"
    assert thm_iii.evidence["sampled"] == [1, 2, 3, 4]
    assert thm_iii.evidence["inferred"] == 0
    direct = [np.linalg.eigvalsh(principal_block_submatrix(
        pencil.p, [k for k in range(1, 5) if k != i]).array) for i in range(1, 5)]
    assert thm_iii.evidence["max_eig_sampled"] == max(w[-1] for w in direct)
    # the measured counts are the direct ones, so FM sees no mismatch
    assert verify_fiedler_markham(mats, 1.0).passed


def test_sample_takes_the_block_nearest_its_zero_threshold():
    # rebuild F_kk of one vertex k as Q diag(a, 1e10 a) Q' with a above every
    # other block's least eigenvalue: a is then a zero of F_kk at its own
    # scale, so the derived n_0 of vertex k is 1 while the direct count on
    # the untouched P is 0. The least eigenvalue does not point at k; the
    # nearness of a to F_kk's zero threshold does.
    inst = golden_instance()
    n, s = inst.n, inst.s
    mats = build_matrices(inst)
    pencil = perturbed_pencil(mats.d_inv, mats.l, 1.0)
    f, k = pencil.f.array.copy(), 3
    least = [np.linalg.eigvalsh(pencil.f.block(i, i))[0] for i in range(1, n + 1)]
    a = 1e3 * max(least)
    q = np.linalg.qr(np.arange(1.0, s * s + 1).reshape(s, s) + np.eye(s))[0]
    f[(k - 1) * s:k * s, (k - 1) * s:k * s] = (q * [a, 1e10 * a]) @ q.T
    tampered = PerturbedPencil(pencil.p, BlockMatrix(n, s, f))
    assert inertia_of_spectrum(np.linalg.eigvalsh(tampered.f.block(k, k))).n_zero == 1
    new_least = [np.linalg.eigvalsh(tampered.f.block(i, i))[0] for i in range(2, n + 1)]
    assert 2 + int(np.argmin(new_least)) != k
    mats.memo(("pencil", 1.0), lambda: tampered)
    thm_iii = by_id(verify_theorem(mats, 1.0), "THM.iii")[0]
    assert not thm_iii.passed
    assert thm_iii.evidence["route"] == "contradicted"
    # every vertex measured: FM sees vertex k's block nullity 1 against 0
    fm = verify_fiedler_markham(mats, 1.0)
    assert not fm.passed
    assert fm.evidence["mismatches"] == [{"i": k, "nullity_sub": 0, "nullity_block": 1}]
    assert fm.evidence["inferred"] == {"beta": 0, "dinv": n - 2}


def test_fiedler_markham_reads_d_inverse_at_beta_zero():
    # the beta = 0 row of FM needs no inverse of P(0) = D^{-1}
    inst = golden_instance()
    mats = build_matrices(inst)

    def fail():
        raise SingularMatrixError("inversion residual exceeds tolerance")

    with pytest.raises(SingularMatrixError):
        mats.memo(("pencil", 0.0), fail)
    check = verify_fiedler_markham(mats, 1.0)
    assert check.passed
    assert check.evidence["dinv_nullities"] == [2, 2, 2, 2]
    assert not verify_fiedler_markham(mats, 0.0).passed


def test_singular_pencil_takes_the_direct_route(monkeypatch):
    # remove P's eigenvalue nearest zero: In(P) gains a zero, so In(P) - In(F_ii)
    # says nothing and every vertex is decomposed directly
    inst = golden_instance()
    n, s = inst.n, inst.s
    mats = build_matrices(inst)
    pencil = perturbed_pencil(mats.d_inv, mats.l, 1.0)
    w, v = np.linalg.eigh(pencil.p.array)
    k = int(np.argmin(np.abs(w)))
    p = pencil.p.array - w[k] * np.outer(v[:, k], v[:, k])
    assert inertia_of(p).n_zero == 1
    singular = PerturbedPencil(BlockMatrix(n, s, p), pencil.f)
    mats.memo(("pencil", 1.0), lambda: singular)
    calls = []
    monkeypatch.setattr(verifier, "principal_block_submatrix",
                        lambda a, idx: calls.append(idx) or principal_block_submatrix(a, idx))
    blocks = mats.deleted_blocks(1.0)
    assert blocks.route == "direct"
    assert blocks.sampled == [1, 2, 3, 4]
    assert len(calls) == n
    direct = [np.linalg.eigvalsh(principal_block_submatrix(
        BlockMatrix(n, s, p), [k for k in range(1, n + 1) if k != i]).array)
        for i in range(1, n + 1)]
    assert blocks.inertia.tolist() == [list(inertia_of_spectrum(d)) for d in direct]
    assert blocks.sampled_max.tolist() == [d[-1] for d in direct]
    # THM.iii is then decided by the bound on every vertex, as before
    thm = verify_theorem(mats, 1.0)
    assert not by_id(thm, "THM.i")[0].passed
    thm_iii = by_id(thm, "THM.iii")[0]
    assert thm_iii.evidence["route"] == "direct"
    assert thm_iii.passed == (max(d[-1] for d in direct)
                              < -EIG_ZERO * max(1.0, np.abs(p).max()))


def test_fiedler_markham_golden():
    inst = golden_instance()
    check = verify_fiedler_markham(build_matrices(inst), 1.0)
    assert check.passed
    assert check.evidence["mismatches"] == []
    assert check.evidence["dinv_nullities"] == [2, 2, 2, 2]


@pytest.mark.parametrize("inst, mode", [(golden_instance(), "both"),
                                        (random_instance(6, 2, 42, 2), "float")],
                         ids=["golden", "random-6x2"])
def test_stages_alone_give_verify_instance_rows(inst, mode):
    """The bundle is the stages' one input: run one by one on it, they give
    every row verify_instance reports, evidence included."""
    betas = list(DEFAULT_BETAS)
    mats = build_matrices(inst)
    rows = verify_preliminaries(mats)
    for beta in betas:
        rows += verify_theorem(mats, beta) + [verify_fiedler_markham(mats, beta)]
        if mode == "both":
            rows.append(verify_exact_consistency(mats, beta))
    report = verify_instance(inst, betas, kernel_mode=mode)
    assert [c.to_json() for c in rows] == [c.to_json() for c in report.checks]
    assert report.instance_hash == instance_hash(inst)


def test_verify_instance_report_shape():
    inst = random_instance(5, 2, seed=4, extra_edges=2)
    report = verify_instance(inst, [0.0, 1.0])
    obj = report.to_json()
    assert set(obj) == {"instance_hash", "n", "s", "betas", "seed",
                        "kernel_mode", "checks", "summary", "wall_time"}
    assert obj["summary"]["failed"] == 0
    ids = {c["id"] for c in obj["checks"]}
    assert {"P1", "P2", "P3", "P4", "COL-SPACE", "COR2.8", "THM.i", "THM.ii",
            "THM.iii", "THM.iv", "THM.iv.haynsworth", "THM.v", "THM.vi",
            "THM.vi.gx", "FM-nullity"} <= ids
    json.dumps(obj)  # must be serializable


def test_exact_consistency_on_rational_instance():
    inst = random_instance(4, 2, seed=6, extra_edges=1, rational=True)
    report = verify_instance(inst, [1.0], kernel_mode="both")
    checks = [c for c in report.checks if c.check_id == "EXACT-CONSISTENCY"]
    assert len(checks) == 1 and checks[0].passed
    assert checks[0].evidence["rel_error"] <= 1e-12


@pytest.mark.parametrize("mode", ["both"])
def test_exact_mode_needs_rational_instance(mode):
    inst = random_instance(4, 2, seed=6, extra_edges=1)
    with pytest.raises(ConfigError, match="rational"):
        verify_instance(inst, [1.0], kernel_mode=mode)


def test_gx_vectors_are_drawn_once_per_instance(monkeypatch):
    seeds = []
    monkeypatch.setattr(verifier, "_gx_vectors",
                        lambda s, seed: seeds.append(seed) or _gx_vectors(s, seed))
    inst = random_instance(5, 2, seed=4, extra_edges=2)
    assert verify_instance(inst, list(DEFAULT_BETAS)).ok
    assert seeds == [int(instance_hash(inst)[:8], 16)]


def test_exact_consistency_sees_a_wrong_closed_form(monkeypatch):
    """The exact F is built from D and L, not from the closed-form D^{-1}:
    a closed form that is wrong in both kernels fails EXACT-CONSISTENCY at
    every beta, where inverting the same wrong body on both sides passed."""
    closed_form = operators._closed_form
    monkeypatch.setattr(operators, "_closed_form", lambda *a: 2 * closed_form(*a))
    inst = random_instance(4, 2, seed=6, extra_edges=1, rational=True)
    report = verify_instance(inst, list(DEFAULT_BETAS), kernel_mode="both")
    rows = by_id(report.checks, "EXACT-CONSISTENCY")
    assert [c.beta for c in rows] == list(DEFAULT_BETAS)
    assert not any(c.passed for c in rows)


def test_exact_mode_builds_no_exact_closed_form(monkeypatch):
    kernels, exact_calls = [], []
    closed_form = operators._closed_form
    monkeypatch.setattr(operators, "_closed_form",
                        lambda t, w, inv: kernels.append(inv) or closed_form(t, w, inv))
    monkeypatch.setattr(operators, "distance_inverse_closed_form_exact", exact_calls.append)
    report = verify_instance(golden_instance(), list(DEFAULT_BETAS), kernel_mode="both")
    assert report.ok and len(by_id(report.checks, "EXACT-CONSISTENCY")) == len(DEFAULT_BETAS)
    assert kernels == [np.linalg.inv] and exact_calls == []


@pytest.mark.parametrize("beta", [-1.0, math.nan, math.inf], ids=["negative", "nan", "inf"])
def test_verify_instance_rejects_bad_beta(beta):
    with pytest.raises(ConfigError, match="beta"):
        verify_instance(golden_instance(), [1.0, beta])


def test_unknown_kernel_mode_raises():
    inst = random_instance(4, 2, seed=6, extra_edges=1, rational=True)
    for mode in ("rational", "exact"):    # "both" is the exact mode
        with pytest.raises(ConfigError, match="kernel_mode"):
            verify_instance(inst, [1.0], kernel_mode=mode)


def test_negative_control_flips_a_check():
    inst = golden_instance()
    report = verify_instance(inst, [1.0], corrupt=(2, 5, 1.1))
    assert not report.ok
    assert report.summary["failed"] >= 1


@pytest.mark.parametrize("n, s", [(2, 1), (3, 2), (7, 3), (12, 4)])
def test_null_space_compressions_match_dense_kronecker_products(n, s):
    """B'XB from block differences has the bits of the dense product with
    B = [(e_i - e_n) (x) I_s]; COL-SPACE reads J L as U'L."""
    j = np.kron(np.ones((n, n)), np.eye(s))
    b = np.kron(np.vstack([np.eye(n - 1), -np.ones((1, n - 1))]), np.eye(s))
    assert np.array_equal(j @ b, np.zeros_like(b))
    assert np.linalg.matrix_rank(b) == n * s - s

    inst = random_instance(n, s, seed=n * s, extra_edges=(n - 1) * (n - 2) // 4)
    mats = build_matrices(inst)
    for x in (mats.d.array, *(perturbed_pencil(mats.d_inv, mats.l, beta).f.array
                              for beta in (0.5, 1.0))):
        assert np.array_equal(_null_compress(x, n, s), b.T @ x @ b)

    l = mats.l.array
    col_space = by_id(verify_preliminaries(mats), "COL-SPACE")[0]
    dense = _rel(j @ l, max(1.0, float(np.abs(l).max())))
    assert abs(col_space.evidence["jl_residual"] - dense) <= 1e-15


def test_build_matrices_keeps_few_dense_copies():
    # D, D^{-1}, L and their transient copies; no dense J or null-space basis
    inst = random_instance(150, 4, seed=3, extra_edges=150)
    ns = inst.n * inst.s
    tracemalloc.start()
    try:
        mats = build_matrices(inst)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert set(vars(mats)) == {"inst", "d", "d_inv", "l", "u", "_memo"}
    assert peak <= 3.5 * ns * ns * 8


def test_campaign_deterministic():
    cfg = CampaignConfig(count=3, seed=11)
    a = run_campaign(cfg)
    b = run_campaign(cfg)
    strip = lambda r: {k: v for k, v in r.to_json().items() if k != "wall_time"}
    assert [strip(r) for r in a] == [strip(r) for r in b]


def test_campaign_config_rejects_bad_ranges():
    with pytest.raises(ConfigError):
        CampaignConfig(count=0)
    with pytest.raises(ConfigError):
        CampaignConfig(n_range=(1, 5))
    with pytest.raises(ConfigError):
        CampaignConfig(s_range=(3, 2))


def test_overflow_in_a_check_body_is_a_non_finite_failure():
    def body():
        big = np.array([1e308])
        return bool(np.all(big * 10 > 0)), {}

    check = _guard("X", None, body)
    assert not check.passed
    assert check.evidence["non_finite"]
    assert check.evidence["error"].startswith("FloatingPointError")


THM_IDS = ("THM.i", "THM.ii", "THM.iii", "THM.iv", "THM.iv.haynsworth", "THM.v",
           "THM.vi", "THM.vi.gx")


def _path(n, tree_x, graph_x):
    """Path 1-2-...-n with s = 1; tree edges weigh [[tree_x]], graph edges
    [[graph_x]], exactly when they are Fractions."""
    def weighted(cls, x):
        exact = np.full((n - 1, 1, 1), x) if isinstance(x, Fraction) else None
        return cls(n, 1, [(i, i + 1) for i in range(n - 1)], np.full((n - 1, 1, 1), float(x)),
                   exact)
    return Instance(weighted(MatrixWeightedTree, tree_x), weighted(MatrixWeightedGraph, graph_x))


_TINY = Fraction(1, 10**308)


@pytest.mark.parametrize("inst, mode", [
    (_path(3, 1e308, 1.0), "float"),
    (_path(3, _TINY, Fraction(1)), "both"),
], ids=["float-1e308", "rational-1e-308"])
def test_unbuildable_pencil_fails_every_theorem_row(inst, mode, monkeypatch):
    """The report keeps one row per check id per beta even when the pencil
    cannot be built: each theorem check fails on its own, with the error,
    and the pencil is attempted once per beta, as for a valid instance."""
    calls = []
    monkeypatch.setattr(verifier, "perturbed_pencil",
                        lambda *a: calls.append(a[2]) or perturbed_pencil(*a))
    report = verify_instance(inst, [0.0, 1.0], kernel_mode=mode)
    assert calls == [0.0, 1.0]
    per_beta = [*THM_IDS, "FM-nullity"] + (["EXACT-CONSISTENCY"] if mode == "both" else [])
    expected = Counter([(cid, None, False) for cid in
                        ("P1", "P2", "P3", "P4", "COL-SPACE", "COR2.8")]
                       + [(cid, beta, beta == 0 and cid in ("THM.vi", "THM.vi.gx"))
                          for beta in (0.0, 1.0) for cid in per_beta])
    assert Counter((c.check_id, c.beta, c.skipped) for c in report.checks) == expected
    thm = [c for c in report.checks if c.check_id in THM_IDS and not c.skipped]
    assert len(thm) == 14
    assert all(not c.passed and "error" in c.evidence for c in thm)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("inst", [
    _path(2, 1e308, 1e308),
    _path(3, 1e308, 1e308),
    _path(3, _TINY, _TINY),
], ids=["float-2-vertex-1e308", "float-3-vertex-1e308", "rational-3-vertex-1e-308"])
def test_stages_read_an_overflowing_bundle_as_non_finite_failures(inst):
    """build_matrices assembles an instance whose float operators overflow
    without a numpy RuntimeWarning, and each stage run on its bundle returns
    failing rows marked non_finite (at beta = 0 every unskipped theorem row
    is one), not a warning and not a traceback."""
    mats = build_matrices(inst)
    prelim = verify_preliminaries(mats)
    theorem = verify_theorem(mats, 0.0)
    per_beta = [verify_fiedler_markham(mats, 0.0)]
    if inst.is_exact:
        per_beta.append(verify_exact_consistency(mats, 0.0))
    non_finite = lambda c: not c.passed and c.evidence.get("non_finite")
    assert any(non_finite(c) for c in prelim)
    assert all(non_finite(c) for c in theorem + per_beta if not c.skipped)


def test_verify_instance_reads_eigenvectors_only_for_the_pseudoinverse(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    report = verify_instance(random_instance(5, 2, seed=4, extra_edges=2), [0.0, 1.0])
    assert report.ok
    assert len(calls) == 1     # pinv_psd, inside P1


def test_ill_conditioned_weights_downgrade_to_warnings():
    cfg = CampaignConfig(
        count=5, seed=13, n_range=(4, 8), s_range=(2, 3),
        profile=WeightProfile(1e-8, 1e8),
    )
    reports = run_campaign(cfg)
    summary = campaign_summary(reports)
    # extreme conditioning may break float checks, but never as hard failures
    assert summary["failed"] == 0


def _oracle_cases():
    rng = np.random.default_rng(7)
    for k in range(12):
        n, s = int(rng.integers(2, 13)), 1 + k % 3
        yield pytest.param(n, s, 100 + k, id=f"n{n}-s{s}-seed{100 + k}")


@pytest.mark.parametrize("n, s, seed", _oracle_cases())
@pytest.mark.parametrize("beta", [0.0, 0.5, 1.0, 10.0])
def test_shared_spectra_match_direct_route(n, s, seed, beta):
    """The once-per-beta pencil, the derived deleted-block inertias and the
    stacked block checks give the same evidence as building and decomposing
    every submatrix, block and G_x per check."""
    inst = random_instance(n, s, seed, extra_edges=min(n, (n - 1) * (n - 2) // 2))
    mats = build_matrices(inst)
    checks = verify_theorem(mats, beta)
    fm = verify_fiedler_markham(mats, beta)

    pencil = perturbed_pencil(mats.d_inv, mats.l, beta)
    rest = lambda i: [k for k in range(1, n + 1) if k != i]
    sub_p = [principal_block_submatrix(pencil.p, rest(i)).array for i in range(1, n + 1)]
    sub_d = [principal_block_submatrix(mats.d_inv, rest(i)).array for i in range(1, n + 1)]
    direct = [np.linalg.eigvalsh(q) for q in sub_p]

    # the derived inertia of every vertex is the direct route's
    blocks = mats.deleted_blocks(beta)
    assert blocks.route == "derived"
    assert blocks.inertia.tolist() == [list(inertia_of_spectrum(w)) for w in direct]

    # THM.iii: vertex 1 and, of the others, the F_ii with an eigenvalue
    # nearest its zero threshold in ratio (at beta = 0 every F_ii = D_ii is
    # zero, so the first of the others)
    def nearness(i):
        w = np.abs(np.linalg.eigvalsh(pencil.f.block(i, i)))
        t = EIG_ZERO * max(1.0, w.max())
        return max(min(x, t) / max(x, t) for x in w)
    sampled = [1, max(range(2, n + 1), key=nearness) if beta else 2]
    thm_iii = by_id(checks, "THM.iii")[0]
    assert thm_iii.evidence == {"max_eig_sampled": max(direct[i - 1][-1] for i in sampled),
                                "sampled": sampled, "inferred": n - 2, "route": "derived"}

    # FM-nullity: the derived zero counts against the SVD route
    nullity_of = lambda q: min(q.shape) - rank_of(q)
    assert blocks.inertia[:, 1].tolist() == [nullity_of(q) for q in sub_p]
    mismatches = [{"i": i, "nullity_sub": nullity_of(q),
                   "nullity_block": nullity_of(pencil.f.block(i, i))}
                  for i, q in enumerate(sub_p, start=1)
                  if nullity_of(q) != nullity_of(pencil.f.block(i, i))]
    assert fm.evidence["mismatches"] == mismatches
    assert fm.evidence["dinv_nullities"] == [nullity_of(q) for q in sub_d]
    assert fm.evidence["sampled"] == {"beta": sampled, "dinv": [1, 2]}
    assert fm.evidence["inferred"] == {"beta": n - 2, "dinv": n - 2}

    # THM.iv: the Haynsworth left-hand side is the bordered inertia
    assert by_id(checks, "THM.iv")[0].evidence["inertia"] == list(
        inertia_of(bordered(pencil.f)))
    # THM.iv.haynsworth reads its pivot's inertia In(F) off P's spectrum
    # (F = P^{-1} is congruent to P); it agrees with In(F) measured
    assert inertia_of_spectrum(mats.p_spectrum(beta)) == inertia_of(pencil.f.array)
    _, rhs, _, _ = haynsworth_check(bordered(pencil.f), n * s, inertia_of(pencil.f.array))
    assert by_id(checks, "THM.iv.haynsworth")[0].evidence["rhs"] == list(rhs)
    assert by_id(checks, "THM.ii")[0].evidence["inertia"] == list(inertia_of(pencil.p.array))

    # P(0) is the closed-form D^{-1} bit for bit, so its spectra are shared
    if beta == 0:
        assert np.array_equal(mats.pencil(0.0).p.array, mats.d_inv.array)
        return

    # THM.vi: one quadratic-form test per block
    f = pencil.f
    bad = [[i, j] for i in range(1, n + 1) for j in range(1, n + 1)
           if not is_pd_quadratic_form(f.block(i, j))]
    assert by_id(checks, "THM.vi")[0].evidence["non_pd_blocks"] == bad

    # THM.vi.gx: one G_x and one inertia per vector, seeded by the instance hash
    floor = NONZERO_FLOOR * max(1.0, float(np.abs(f.array).max()))
    ok, worst = True, np.inf
    for x in _gx_vectors(s, int(instance_hash(inst)[:8], 16)):
        gx = gx_matrix(f, x)
        off = np.abs(gx[~np.eye(n, dtype=bool)])
        worst = min(worst, float(off.min(initial=np.inf)))
        ok = ok and (inertia_of(gx) == (n - 1, 0, 1) and np.all(np.diag(gx) > 0)
                     and not (off.size and off.min() <= floor))
    gx_check = by_id(checks, "THM.vi.gx")[0]
    assert gx_check.evidence["min_offdiag"] == worst
    assert gx_check.passed == ok
