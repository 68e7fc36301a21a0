import dataclasses
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from mwspec.errors import ConfigError, NotSymmetricError
from mwspec.golden import golden_instance
from mwspec.linalg import (
    EIG_ZERO,
    NONZERO_FLOOR,
    Bound,
    inertia_of,
    inertia_of_spectrum,
    is_pd_quadratic_form,
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
from mwspec import linalg, operators, verifier
from mwspec.verifier import (
    DEFAULT_BETAS,
    CampaignConfig,
    _guard,
    _gx_vectors,
    _null_compress,
    _rel,
    build_matrices,
    run_campaign,
    verify_exact_consistency,
    verify_fiedler_markham,
    verify_instance,
    verify_preliminaries,
    verify_theorem,
)
from test_ledger import tool
from test_operators import block


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
    least = [np.linalg.eigvalsh(block(pencil.f, i, i))[0] for i in range(1, n + 1)]
    a = 1e3 * max(least)
    q = np.linalg.qr(np.arange(1.0, s * s + 1).reshape(s, s) + np.eye(s))[0]
    f[(k - 1) * s:k * s, (k - 1) * s:k * s] = (q * [a, 1e10 * a]) @ q.T
    tampered = PerturbedPencil(pencil.p, BlockMatrix(n, s, f))
    assert inertia_of_spectrum(np.linalg.eigvalsh(block(tampered.f, k, k))).n_zero == 1
    new_least = [np.linalg.eigvalsh(block(tampered.f, i, i))[0] for i in range(2, n + 1)]
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


def test_fiedler_markham_reads_d_inverse_at_beta_zero(monkeypatch):
    # FM needs no inverse of P(0) = D^{-1}: F(0) = D, whose diagonal blocks
    # are exactly zero, so neither its dinv row nor its beta = 0 row solves
    inst = golden_instance()
    mats = build_matrices(inst)
    calls = []
    monkeypatch.setattr(verifier, "perturbed_pencil",
                        lambda *a: calls.append(list(a[2])) or perturbed_pencil(*a))
    check = verify_fiedler_markham(mats, 1.0)
    assert check.passed
    assert check.evidence["dinv_nullities"] == [2, 2, 2, 2]
    at_zero = verify_fiedler_markham(mats, 0.0)
    assert at_zero.passed
    assert at_zero.evidence["mismatches"] == []
    assert at_zero.evidence["dinv_nullities"] == [2, 2, 2, 2]
    assert calls == [[1.0]]


def test_fiedler_markham_at_beta_zero_survives_round_off():
    """FM-nullity at beta = 0 holds under a symmetric relative noise of at
    most 1e-13 on D^{-1} and L: the blocks of F(0) = D are exactly zero,
    not the round-off of an inverse of D^{-1}."""
    mats = build_matrices(random_instance(60, 3, 1060, 60))
    for seed in range(5):
        rng = np.random.default_rng(seed)

        def noisy(a):
            r = rng.uniform(-1.0, 1.0, a.array.shape)
            return BlockMatrix(a.n, a.s, a.array * (1.0 + 1e-13 * (r + r.T) / 2.0))

        perturbed = dataclasses.replace(mats, d_inv=noisy(mats.d_inv), l=noisy(mats.l))
        check = verify_fiedler_markham(perturbed, 0.0)
        assert check.passed, (seed, check.evidence)


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
    assert blocks.sampled_max == [d[-1] for d in direct]
    # THM.iii is then decided by the bound on every vertex, as before
    thm = verify_theorem(mats, 1.0)
    assert not by_id(thm, "THM.i")[0].passed
    thm_iii = by_id(thm, "THM.iii")[0]
    assert thm_iii.evidence["route"] == "direct"
    assert thm_iii.passed == (max(d[-1] for d in direct)
                              < -EIG_ZERO * max(1.0, np.abs(p).max()))


def test_direct_route_keeps_each_eigvalsh_input_within_the_stack_budget(monkeypatch):
    # n submatrices together exceed STACK_BYTES: the direct route at the
    # singular beta decomposes them one at a time, while the sampled route at
    # the other recorded beta shares the budgeted stack
    inst = random_instance(30, 3, seed=2, extra_edges=10)
    n, s = inst.n, inst.s
    sub = 8 * ((n - 1) * s) ** 2
    assert n * sub > verifier.STACK_BYTES
    mats = build_matrices(inst)
    pencil = perturbed_pencil(mats.d_inv, mats.l, 1.0)
    w, v = np.linalg.eigh(pencil.p.array)
    k = int(np.argmin(np.abs(w)))
    p = pencil.p.array - w[k] * np.outer(v[:, k], v[:, k])
    mats.memo(("pencil", 1.0), lambda: PerturbedPencil(BlockMatrix(n, s, p), pencil.f))
    mats.memo("betas", lambda: [0.5, 1.0])
    sizes = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a, *r, **kw: sizes.append(a.nbytes) or eigvalsh(a, *r, **kw))
    assert mats.deleted_blocks(1.0).route == "direct"
    assert mats.deleted_blocks(0.5).route == "derived"
    assert max(sizes) <= max(verifier.STACK_BYTES, 2 * sub)
    assert sizes.count(sub) >= n


def test_fiedler_markham_golden():
    inst = golden_instance()
    check = verify_fiedler_markham(build_matrices(inst), 1.0)
    assert check.passed
    assert check.evidence["mismatches"] == []
    assert check.evidence["dinv_nullities"] == [2, 2, 2, 2]


@pytest.mark.parametrize("inst, mode, betas", [
    (golden_instance(), "both", DEFAULT_BETAS),
    (random_instance(6, 2, 42, 2), "float", DEFAULT_BETAS),
    (random_instance(12, 4, 11211, 30), "float", [*DEFAULT_BETAS, 0.37]),
], ids=["golden", "random-6x2", "random-12x4-5-betas"])
def test_stages_alone_give_verify_instance_rows(inst, mode, betas):
    """The bundle is the stages' one input: run one by one on it, they give
    every row verify_instance reports, evidence included. Alone, each stage
    builds its beta's objects as stacks of one; verify_instance builds them
    for all its betas as one stack."""
    betas = list(betas)
    mats = build_matrices(inst)
    rows = verify_preliminaries(mats)
    for beta in betas:
        rows += verify_theorem(mats, beta) + [verify_fiedler_markham(mats, beta)]
        if mode == "both":
            rows.append(verify_exact_consistency(mats, beta))
    report = verify_instance(inst, betas, kernel_mode=mode)
    assert [c.to_json() for c in rows] == [c.to_json() for c in report.checks]
    assert report.instance_hash == instance_hash(inst)


def test_one_bad_beta_fails_only_its_own_rows():
    """At beta = 1e300 the unit path's pencil solve raises. In one stack with
    beta 0 and 1 it fails only its own rows, with the error it raises alone:
    each beta's rows are those of a verify at the good or the bad beta alone."""
    inst = _path(3, 1.0, 1.0)
    rows = lambda betas: [c.to_json() for c in verify_instance(inst, betas).checks]
    good, bad = rows([0.0, 1.0]), rows([1e300])
    assert rows([0.0, 1.0, 1e300]) == good + bad[6:]
    assert all(not c["pass"] for c in bad[6:])
    assert all(c["evidence"]["error"].startswith(
        "SingularMatrixError: pencil numerically singular") for c in bad[6:])
    assert all(c["pass"] for c in good)


def _linalg_calls(monkeypatch, inst, betas) -> Counter:
    calls = Counter()
    for name in ("eigvalsh", "solve"):
        real = getattr(np.linalg, name)
        monkeypatch.setattr(np.linalg, name, lambda *a, real=real, name=name:
                            calls.update([name]) or real(*a))
    try:
        assert verify_instance(inst, betas).ok
    finally:
        monkeypatch.undo()
    return calls


def test_a_verify_decomposes_each_kind_once_for_all_its_betas(monkeypatch):
    """Every per-beta step is one numpy call over the stack of all betas, so
    5 betas make as many eigvalsh and solve calls as 1, and a repeated beta
    shares one member of the stack."""
    inst = random_instance(8, 2, seed=5, extra_edges=6)
    one = _linalg_calls(monkeypatch, inst, [1.0])
    assert one == _linalg_calls(monkeypatch, inst, [0.5, 1.0, 2.0, 10.0, 0.25])
    assert one == _linalg_calls(monkeypatch, inst, [1.0, 10.0, 1.0, 10.0])


def test_stack_budget_splits_stacks_without_changing_a_row(monkeypatch):
    inst = random_instance(5, 2, seed=4, extra_edges=2)
    betas = [*DEFAULT_BETAS, 3.0]
    whole = [c.to_json() for c in verify_instance(inst, betas).checks]
    calls = []
    monkeypatch.setattr(verifier, "perturbed_pencil",
                        lambda *a: calls.append(list(a[2])) or perturbed_pencil(*a))
    monkeypatch.setattr(verifier, "STACK_BYTES", 1)      # one beta per stack
    assert [c.to_json() for c in verify_instance(inst, betas).checks] == whole
    assert calls == [[beta] for beta in betas if beta]     # F(0) = D needs no solve


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


def test_exact_consistency_builds_no_fraction_per_entry_of_f():
    # the exact F(beta) is rounded once from the elimination's integers: with
    # the exact operators built, checking an (8, 3) instance builds not one
    # Fraction, where one per entry of F would be 576 per beta
    inst = random_instance(8, 3, seed=1, extra_edges=3, rational=True)
    mats = build_matrices(inst)
    mats.exact_operators()
    built = []
    original = Fraction.__dict__["__new__"]

    def counting(cls, *args, **kwargs):
        built.append(args)
        return original.__func__(cls, *args, **kwargs)

    Fraction.__new__ = staticmethod(counting)
    try:
        checks = [verify_exact_consistency(mats, beta) for beta in (0.0, 0.5, 1.0, 10.0)]
    finally:
        Fraction.__new__ = original
    assert all(c.passed for c in checks)
    assert built == []


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


@pytest.mark.parametrize("factor", [2.0, 1 + 1e-6])
def test_exact_consistency_sees_a_wrong_closed_form(monkeypatch, factor):
    """The exact F is built from D and L, not from the closed-form D^{-1}:
    a closed form that is wrong in both kernels fails EXACT-CONSISTENCY at
    every beta > 0, where inverting the same wrong body on both sides
    passed, and P2. Off by 1e-6, it is still far above the bound on float
    error. At beta = 0 both sides are D, and neither reads the closed form."""
    closed_form = operators._closed_form
    monkeypatch.setattr(operators, "_closed_form", lambda *a: factor * closed_form(*a))
    inst = random_instance(4, 2, seed=6, extra_edges=1, rational=True)
    report = verify_instance(inst, list(DEFAULT_BETAS), kernel_mode="both")
    rows = by_id(report.checks, "EXACT-CONSISTENCY")
    assert [c.beta for c in rows] == list(DEFAULT_BETAS)
    assert rows[0].passed
    assert not any(c.passed or c.warning for c in rows[1:])
    assert not by_id(report.checks, "P2")[0].passed


@pytest.mark.parametrize("make, beta", [
    (golden_instance, 100.0),
    (golden_instance, 1000.0),
    (lambda: random_instance(24, 2, 0, 24, rational=True), 10.0),
], ids=["golden-100", "golden-1000", "random-24x2-10"])
def test_exact_consistency_passes_as_p_conditioning_grows(make, beta):
    """The float F's error grows with the conditioning of P(beta): on these
    valid instances it exceeds 1e-12, and passes the REL_RESIDUAL bound."""
    row = verify_exact_consistency(build_matrices(make()), beta)
    assert row.passed, row.evidence


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


def test_a_corrupted_d_fails_the_checks_that_read_f_at_beta_zero():
    # F(0) = D, and the corrupted D is not symmetric: each check that reads
    # F(0) refuses it. The pencils at beta > 0 read only D^{-1} and L.
    report = verify_instance(golden_instance(), [0.0, 1.0], corrupt=(1, 3, 1.1))
    rows = {(c.check_id, c.beta): c for c in report.checks}
    for cid in ("THM.iv", "THM.iv.haynsworth", "THM.v"):
        row = rows[(cid, 0.0)]
        assert not (row.passed or row.warning)
        assert row.evidence["error"].startswith("NotSymmetricError"), row.evidence
        assert rows[(cid, 1.0)].passed


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
    cannot be built: each theorem check fails on its own, with the error.
    The pencils are attempted once as a stack of both betas; that raises, so
    each beta is attempted once more, alone, and never again."""
    calls = []
    monkeypatch.setattr(verifier, "perturbed_pencil",
                        lambda *a: calls.append(list(a[2])) or perturbed_pencil(*a))
    report = verify_instance(inst, [0.5, 1.0], kernel_mode=mode)
    assert calls == [[0.5, 1.0], [0.5], [1.0]]
    per_beta = [*THM_IDS, "FM-nullity"] + (["EXACT-CONSISTENCY"] if mode == "both" else [])
    expected = Counter([(cid, None, False) for cid in
                        ("P1", "P2", "P3", "P4", "COL-SPACE", "COR2.8")]
                       + [(cid, beta, False) for beta in (0.5, 1.0) for cid in per_beta])
    assert Counter((c.check_id, c.beta, c.skipped) for c in report.checks) == expected
    thm = [c for c in report.checks if c.check_id in THM_IDS]
    assert len(thm) == 16
    assert all(not c.passed and "error" in c.evidence for c in thm)


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("inst, measured", [
    (_path(2, 1e308, 1e308),
     {"THM.i", "THM.ii", "THM.iii", "THM.iv", "THM.iv.haynsworth", "FM-nullity"}),
    (_path(3, 1e308, 1e308), set()),
    (_path(3, _TINY, _TINY), {"THM.v", "EXACT-CONSISTENCY"}),
], ids=["float-2-vertex-1e308", "float-3-vertex-1e308", "rational-3-vertex-1e-308"])
def test_stages_read_an_overflowing_bundle_as_non_finite_failures(inst, measured):
    """build_matrices assembles an instance whose float operators overflow
    without a numpy RuntimeWarning, and each stage run on its bundle returns
    failing rows marked non_finite, not a warning and not a traceback. At
    beta = 0, where F(0) = D, exactly the rows that read an overflowed matrix
    are non_finite. On the 2-vertex path D, D^{-1} and L are finite, and only
    THM.v's B'DB overflows; on the 3-vertex path D overflows, and every row
    reads it; on the rational path D^{-1} and L overflow, and THM.v and
    EXACT-CONSISTENCY read only D."""
    mats = build_matrices(inst)
    prelim = verify_preliminaries(mats)
    per_beta = verify_theorem(mats, 0.0) + [verify_fiedler_markham(mats, 0.0)]
    if inst.is_exact:
        per_beta.append(verify_exact_consistency(mats, 0.0))
    non_finite = lambda c: not c.passed and c.evidence.get("non_finite")
    assert any(non_finite(c) for c in prelim)
    assert {c.check_id for c in per_beta if not (c.skipped or non_finite(c))} == measured
    assert not any("error" in c.evidence for c in per_beta if c.check_id in measured)


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
    # extreme conditioning may break float checks, but never as hard failures
    assert sum(r.summary["failed"] for r in reports) == 0


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
        w = np.abs(np.linalg.eigvalsh(block(pencil.f, i, i)))
        t = EIG_ZERO * max(1.0, w.max())
        return max(min(x, t) / max(x, t) for x in w)
    sampled = [1, max(range(2, n + 1), key=nearness) if beta else 2]
    # at beta > 0 a Cholesky certificate bounds the sampled eigenvalues: the
    # bound lies above every one the direct route measures
    thm_iii = by_id(checks, "THM.iii")[0]
    evidence = dict(thm_iii.evidence)
    worst = max(direct[i - 1][-1] for i in sampled)
    if beta:
        assert evidence.pop("max_eig_sampled_bound") > worst
    else:
        assert evidence.pop("max_eig_sampled") == worst
    assert evidence == {"sampled": sampled, "inferred": n - 2, "route": "derived"}

    # FM-nullity: the derived zero counts against the SVD route
    nullity_of = lambda q: min(q.shape) - inertia_of_spectrum(
        np.linalg.svd(q, compute_uv=False)).n_plus
    assert blocks.inertia[:, 1].tolist() == [nullity_of(q) for q in sub_p]
    mismatches = [{"i": i, "nullity_sub": nullity_of(q),
                   "nullity_block": nullity_of(block(pencil.f, i, i))}
                  for i, q in enumerate(sub_p, start=1)
                  if nullity_of(q) != nullity_of(block(pencil.f, i, i))]
    assert fm.evidence["mismatches"] == mismatches
    assert fm.evidence["dinv_nullities"] == [nullity_of(q) for q in sub_d]
    assert fm.evidence["sampled"] == {"beta": sampled, "dinv": [1, 2]}
    assert fm.evidence["inferred"] == {"beta": n - 2, "dinv": n - 2}

    # THM.iv: the Haynsworth left-hand side is the bordered inertia
    assert by_id(checks, "THM.iv")[0].evidence["inertia"] == list(
        inertia_of(bordered(pencil.f)))
    # THM.iv.haynsworth reads its pivot's inertia In(F) off P's spectrum
    # (F = P^{-1} is congruent to P); it agrees with In(F) measured
    assert mats.p_eigs(beta)[1] == inertia_of(pencil.f.array)
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
           if not is_pd_quadratic_form(block(f, i, j))]
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


# --- Cholesky certificates ---------------------------------------------------

# the evidence key of a certified row, the spectrum's key it stands for, and
# whether the true value lies above the bound ("min") or below it ("max")
_BOUND_KEYS = {
    "btdb_max_eig_bound": ("btdb_max_eig", "max"),       # P3
    "min_eig_bound": ("min_eig", "min"),                 # P4
    "min_abs_eig_bound": ("min_abs_eig", "min"),         # THM.i
    "max_eig_sampled_bound": ("max_eig_sampled", "max"),  # THM.iii
    "max_eig_bound": ("max_eig", "max"),                 # THM.v
}


@pytest.mark.parametrize("inst, betas, corrupt", [
    (golden_instance(), list(DEFAULT_BETAS), (1, 3, 1.1)),
    (random_instance(6, 2, 3, 2), [3e6, 1e7, 1e10], None),
    (random_instance(12, 4, 11211, 30), [*DEFAULT_BETAS, 0.37], None),
    (random_instance(7, 3, 5, 4, profile=WeightProfile(1e-8, 1e8)), list(DEFAULT_BETAS), None),
    (_path(3, 1e308, 1e308), list(DEFAULT_BETAS), None),
], ids=["corrupt-golden", "large-beta", "random-12x4", "wide-profile", "float-1e308"])
def test_certificates_keep_every_verdict_and_every_failing_rows_evidence(
        monkeypatch, inst, betas, corrupt):
    """With no certificate given to `certify`, each sign claim is decided on
    its spectrum, as before certificates. Against that run, every row keeps
    its flags, every failing row its evidence byte for byte, and a certified
    row reports its bound under its own key, on the passing side of the
    value the spectrum measures."""
    certified = verify_instance(inst, betas, corrupt=corrupt).checks
    certify = linalg.certify
    for module in (linalg, verifier):
        monkeypatch.setattr(module, "certify", lambda certificates, *stacks: certify([], *stacks))
    spectrum = verify_instance(inst, betas, corrupt=corrupt).checks
    assert len(certified) == len(spectrum)
    for c, o in zip(certified, spectrum):
        flags = lambda r: (r.check_id, r.beta, r.passed, r.skipped, r.warning)
        assert flags(c) == flags(o)
        if not c.passed:
            assert json.dumps(c.evidence) == json.dumps(o.evidence), (c.check_id, c.beta)
            continue
        assert [_BOUND_KEYS.get(k, (k,))[0] for k in c.evidence] == list(o.evidence)
        for key, value in c.evidence.items():
            if key in _BOUND_KEYS:
                name, side = _BOUND_KEYS[key]
                assert value < o.evidence[name] if side == "min" else value > o.evidence[name]
            else:
                assert value == o.evidence[key], (c.check_id, c.beta, key)


def _beta_rows(report, beta) -> list[str]:
    """The JSON of a report's rows at beta and of its preliminary rows."""
    return [json.dumps(c.to_json()) for c in report.checks if c.beta in (None, beta)]


def test_a_certified_beta_keeps_its_bound_beside_a_beta_that_is_not():
    # at 1e10 P is too ill-conditioned for the split certificate; at 1 it
    # is certified, in a stack with 1e10 as alone
    inst = random_instance(6, 2, 3, 2)
    alone = verify_instance(inst, [1.0])
    stacked = verify_instance(inst, [1.0, 1e10])
    assert "min_abs_eig_bound" in by_id(alone.checks, "THM.i")[0].evidence
    assert "min_abs_eig" in by_id(stacked.checks, "THM.i")[1].evidence
    assert _beta_rows(stacked, 1.0) == _beta_rows(alone, 1.0)


def test_every_beta_of_the_report_set_gives_the_rows_it_gives_alone(monkeypatch):
    """Each beta of a verify is one member of the per-beta stacks; its rows,
    evidence included, are the rows it gives verified alone, for every
    report of tools/report_set.py."""
    report_set = tool("report_set")
    verify, calls = verifier.verify_instance, []

    def recorded(inst, betas, **kwargs):
        calls.append((inst, betas, kwargs))
        return verify(inst, betas, **kwargs)

    monkeypatch.setattr(verifier, "verify_instance", recorded)
    monkeypatch.setattr(report_set, "verify_instance", recorded)
    reports = list(report_set.reports())
    assert len(reports) == len(calls) == 71
    for line, ((inst, betas, kwargs), report) in enumerate(zip(calls, reports), start=1):
        for beta in betas:
            alone = verify(inst, [beta], **kwargs)
            assert _beta_rows(report, beta) == _beta_rows(alone, beta), (line, beta)


def test_bfb_max_eig_certifies_no_f_outside_the_asymmetry_bound():
    """Cholesky reads one triangle of -B'FB. An F(1) of the golden instance
    moved by an antisymmetric 1e-6 of its largest entry still factors, but
    lies outside the asymmetry bound: THM.v refuses it, as its spectrum
    would."""
    inst = golden_instance()
    n, s = inst.n, inst.s
    mats = build_matrices(inst)
    pencil = perturbed_pencil(mats.d_inv, mats.l, 1.0)
    upper = np.triu(np.ones((n * s, n * s)), 1)
    f = pencil.f.array + 1e-6 * np.abs(pencil.f.array).max() * (upper - upper.T)
    bfb = _null_compress(f, n, s)
    shift = linalg.certificate_shift(max(1.0, np.abs(f).max()), side=-1)
    assert linalg.certify([(-bfb, shift)], bfb)[0]     # Cholesky alone certifies it
    mats.memo(("pencil", 1.0), lambda: PerturbedPencil(pencil.p, BlockMatrix(n, s, f)))
    with pytest.raises(NotSymmetricError):
        mats.bfb_max_eig(1.0)
    thm_v = by_id(verify_theorem(mats, 1.0), "THM.v")[0]
    assert not thm_v.passed
    assert thm_v.evidence["error"].startswith("NotSymmetricError")


def test_no_report_solves_a_pencil_at_beta_zero(monkeypatch):
    """F(0) = D: over every report of tools/report_set.py, each stack of betas
    handed to perturbed_pencil is positive, and recording the calls changes
    no row."""
    report_set = tool("report_set")
    rows = lambda: [json.dumps(c.to_json()) for r in report_set.reports() for c in r.checks]
    unrecorded = rows()
    calls = []
    monkeypatch.setattr(verifier, "perturbed_pencil",
                        lambda *a: calls.append(list(a[2])) or perturbed_pencil(*a))
    assert rows() == unrecorded
    assert calls and all(b > 0 for bs in calls for b in bs)


def test_certificates_decide_every_sign_claim_of_a_valid_instance():
    report = verify_instance(random_instance(12, 4, 11211, 30), [*DEFAULT_BETAS, 0.37])
    bounded = {(c.check_id, c.beta) for c in report.checks
               if any(k in _BOUND_KEYS for k in c.evidence)}
    betas = [*DEFAULT_BETAS, 0.37]
    assert bounded == ({("P3", None), ("P4", None)}
                       | {(cid, b) for b in betas for cid in ("THM.i", "THM.v")}
                       | {("THM.iii", b) for b in betas if b})


def test_an_eigenvalue_between_the_threshold_and_the_shift_reads_the_spectrum():
    """P(1) of the golden instance with its eigenvalue nearest zero moved to
    1.2 thresholds: THM.i passes, since the spectrum puts min|lambda| above
    EIG_ZERO * max(1, max|P|), but the certificate's shift lies beyond it,
    so the row reports the spectrum's value, as without certificates."""
    inst = golden_instance()
    n, s = inst.n, inst.s
    mats = build_matrices(inst)
    pencil = perturbed_pencil(mats.d_inv, mats.l, 1.0)
    w, v = np.linalg.eigh(pencil.p.array)
    k = int(np.argmin(np.abs(w)))
    sign = np.sign(w[k])
    w[k] = 0.0
    p = (v * w) @ v.T
    scale = max(1.0, float(np.abs(p).max()))
    p += sign * 1.2 * EIG_ZERO * scale * np.outer(v[:, k], v[:, k])
    p = (p + p.T) / 2.0
    mats.memo(("pencil", 1.0), lambda: PerturbedPencil(BlockMatrix(n, s, p), pencil.f))
    thm = verify_theorem(mats, 1.0)
    spectrum = np.linalg.eigvalsh(p)
    min_abs = float(np.abs(spectrum).min())
    p_scale = max(1.0, float(np.abs(p).max()))
    assert EIG_ZERO * p_scale < min_abs < 1.5 * EIG_ZERO * p_scale
    thm_i = by_id(thm, "THM.i")[0]
    assert thm_i.passed and thm_i.evidence == {"min_abs_eig": min_abs}
    assert not isinstance(mats.p_eigs(1.0)[0], Bound)
    assert by_id(thm, "THM.ii")[0].evidence == {"inertia": list(inertia_of_spectrum(spectrum))}
