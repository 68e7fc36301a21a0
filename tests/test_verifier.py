import dataclasses
import json
import math
import tracemalloc
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspec.errors import ConfigError, NotSymmetricError
from mwspec.golden import golden_instance
from mwspec.linalg import (
    EIG_ZERO,
    NONZERO_FLOOR,
    REL_RESIDUAL,
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
from mwspec.operators import BlockMatrix, build_U
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
    _bordered_split,
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
    # rotate P's spectrum by a random orthogonal Q and leave F as it is: In(P)
    # stays (6, 0, 2) and every derived In(P(alpha')) (6, 0, 0), while the
    # sampled P(alpha'_1) of the rotated P has inertia (5, 0, 1)
    inst = golden_instance()
    n, s = inst.n, inst.s
    mats = build_matrices(inst)
    pencil = perturbed_pencil(mats.d_inv, mats.l, 1.0)
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((n * s, n * s)))[0]
    p = (q * np.linalg.eigvalsh(pencil.p.array)) @ q.T
    rotated = BlockMatrix(n, s, p)
    assert inertia_of(p) == (6, 0, 2)
    assert inertia_of(principal_block_submatrix(rotated, [2, 3, 4]).array) == (5, 0, 1)
    mats.memo(("pencil", 1.0), lambda: PerturbedPencil(rotated, pencil.f))
    thm_iii = by_id(verify_theorem(mats, 1.0), "THM.iii")[0]
    assert not thm_iii.passed
    # a contradicted sample sends every vertex to the direct route
    assert thm_iii.evidence["route"] == "contradicted"
    assert thm_iii.evidence["sampled"] == [1, 2, 3, 4]
    assert thm_iii.evidence["inferred"] == 0
    direct = [np.linalg.eigvalsh(principal_block_submatrix(
        rotated, [k for k in range(1, n + 1) if k != i]).array) for i in range(1, n + 1)]
    # the rotated P is symmetric only to round-off, and is read by its symmetric part
    assert thm_iii.evidence["max_eig_sampled"] == pytest.approx(max(w[-1] for w in direct))


def test_a_negated_block_of_f_sends_every_vertex_to_the_direct_route():
    # negate F_22: THM.vi does not find it positive definite, so every vertex
    # is decomposed on the untouched P, where THM.iii holds
    inst = golden_instance()
    mats = build_matrices(inst)
    pencil = perturbed_pencil(mats.d_inv, mats.l, 1.0)
    f, s = pencil.f.array.copy(), inst.s
    f[s:2 * s, s:2 * s] *= -1.0
    tampered = PerturbedPencil(pencil.p, BlockMatrix(inst.n, s, f))
    mats.memo(("pencil", 1.0), lambda: tampered)
    thm = verify_theorem(mats, 1.0)
    thm_iii = by_id(thm, "THM.iii")[0]
    assert thm_iii.passed
    assert thm_iii.evidence["route"] == "direct"
    assert thm_iii.evidence["sampled"] == [1, 2, 3, 4]
    assert thm_iii.evidence["inferred"] == 0
    direct = [np.linalg.eigvalsh(principal_block_submatrix(
        pencil.p, [k for k in range(1, 5) if k != i]).array) for i in range(1, 5)]
    assert thm_iii.evidence["max_eig_sampled"] == max(w[-1] for w in direct)
    assert by_id(thm, "THM.vi")[0].evidence["non_pd_blocks"] == [[2, 2]]
    # the measured counts are the direct ones, so FM sees no mismatch
    assert verify_fiedler_markham(mats, 1.0).passed


def test_a_zero_of_f_kk_at_its_own_scale_sends_every_vertex_to_the_direct_route():
    # rebuild F_kk of one vertex k as Q diag(a, 1e10 a) Q' with a above every
    # other block's least eigenvalue: a is then a zero of F_kk at its own
    # scale, so the derived n_0 of vertex k is 1 while the direct count on
    # the untouched P is 0. Every vertex is decomposed, and FM-nullity and
    # THM.vi catch the tamper at vertex k.
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
    mats.memo(("pencil", 1.0), lambda: tampered)
    thm = verify_theorem(mats, 1.0)
    thm_iii = by_id(thm, "THM.iii")[0]
    assert thm_iii.passed
    assert thm_iii.evidence["route"] == "direct"
    assert thm_iii.evidence["sampled"] == [1, 2, 3, 4]
    assert by_id(thm, "THM.vi")[0].evidence["non_pd_blocks"] == [[k, k]]
    # every vertex measured: FM sees vertex k's block nullity 1 against 0
    fm = verify_fiedler_markham(mats, 1.0)
    assert not fm.passed
    assert fm.evidence["mismatches"] == [{"i": k, "nullity_sub": 0, "nullity_block": 1}]
    assert fm.evidence["inferred"] == {"beta": 0, "dinv": n - 1}


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


def test_an_f_ii_that_thm_vi_does_not_certify_takes_the_direct_route():
    # the derived route reads In(F_ii) = (0, 0, s) off THM.vi's verdicts: one
    # block F_22 that block_pd does not find positive definite, with P and F
    # as they are, sends beta 1 to the direct route, whose spectra decide
    mats = build_matrices(golden_instance())
    pd = np.ones((4, 4), dtype=bool)
    pd[1, 1] = False
    mats.memo(("block_pd", 1.0), lambda: pd)
    blocks = mats.deleted_blocks(1.0)
    assert blocks.route == "direct"
    assert blocks.sampled == [1, 2, 3, 4]
    assert blocks.block_nullity.tolist() == [0, 0, 0, 0]
    thm_iii = by_id(verify_theorem(mats, 1.0), "THM.iii")[0]
    assert thm_iii.passed and thm_iii.evidence["route"] == "direct"
    fm = verify_fiedler_markham(mats, 1.0)
    assert fm.passed and fm.evidence["sampled"] == {"beta": [1, 2, 3, 4], "dinv": [1]}


def test_a_split_that_fails_leaves_vertex_one_to_its_spectrum():
    # at beta = 3e6 the split of P does not certify In(P) (report line 69):
    # the sample P(alpha'_1) is decomposed, not factored again at P's shift
    inst = random_instance(6, 2, 3, 2)
    mats = build_matrices(inst)
    assert not isinstance(mats.p_eigs(3e6)[0], Bound)
    thm_iii = by_id(verify_theorem(mats, 3e6), "THM.iii")[0]
    sub = principal_block_submatrix(mats.pencil(3e6).p, range(2, inst.n + 1)).array
    assert thm_iii.passed
    assert thm_iii.evidence == {"max_eig_sampled": np.linalg.eigvalsh(sub)[-1], "sampled": [1],
                                "inferred": inst.n - 1, "route": "derived"}


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


def test_verify_instance_computes_no_eigenvectors(monkeypatch):
    calls = []
    eigh = np.linalg.eigh
    monkeypatch.setattr(np.linalg, "eigh", lambda a: calls.append(a.shape) or eigh(a))
    report = verify_instance(random_instance(5, 2, seed=4, extra_edges=2), [0.0, 1.0])
    assert report.ok
    assert not calls


def _spectra_of_order(monkeypatch, m):
    """The list that records, from here on, each matrix of order m, or stack
    of them, that np.linalg.eigvalsh is called on."""
    calls = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh",
                        lambda a: (a.shape[-1] == m and calls.append(a.copy())) or eigvalsh(a))
    return calls


@pytest.mark.parametrize("n, s, seed", [(5, 2, 4), (12, 3, 7), (60, 3, 1060)])
def test_preliminaries_take_no_spectrum_of_order_ns(n, s, seed, monkeypatch):
    # P1 and P4 read L's known kernel U, P3 D's split: no spectrum of order ns
    mats = build_matrices(random_instance(n, s, seed, n))
    calls = _spectra_of_order(monkeypatch, n * s)
    checks = verify_preliminaries(mats)
    assert all(c.passed for c in checks)
    assert not calls


def _corrupt_l(mats, corruption):
    """The bundle with one of L's corruptions: its entry (0, 0) scaled by
    1.01, or the off-diagonal block pair of its first edge scaled by 1.5."""
    l, s = mats.l.array.copy(), mats.s
    if corruption == "diagonal":
        l[0, 0] *= 1.01
    else:
        u, v = (int(x) * s for x in mats.inst.graph.endpoints[0])
        l[u:u + s, v:v + s] *= 1.5
        l[v:v + s, u:u + s] *= 1.5
    return dataclasses.replace(mats, l=BlockMatrix(mats.n, s, l))


@pytest.mark.parametrize("corruption", ["diagonal", "off-diagonal pair"])
@pytest.mark.parametrize("n, s, seed", [(8, 2, 5), (12, 3, 7), (60, 3, 1060)])
def test_a_corrupted_laplacian_is_never_certified_and_fails_p4(n, s, seed, corruption,
                                                                monkeypatch):
    """L's kernel is no longer U's columns: rank_of's certificate fails, and
    P4 reads its rank and least eigenvalue off L's one spectrum."""
    mats = _corrupt_l(build_matrices(random_instance(n, s, seed, 4)), corruption)
    l, q = mats.l.array, mats.u / np.sqrt(n)
    rank, min_eig = linalg.rank_of(l, q)
    assert not isinstance(min_eig, Bound)
    calls = _spectra_of_order(monkeypatch, n * s)
    p4 = next(c for c in verify_preliminaries(mats) if c.check_id == "P4")
    assert not p4.passed and "min_eig" in p4.evidence
    # rank and least eigenvalue from one spectrum of L, the only one of order ns
    assert len(calls) == 1 and np.array_equal(calls[0].reshape(l.shape), l)
    # THM.iv.haynsworth still reads L: F D^{-1}U = U fails where LU != 0
    # and beta > 0, and holds at beta = 0, where F = D
    for beta in (0.0, 0.5, 1.0):
        row = by_id(verify_theorem(mats, beta), "THM.iv.haynsworth")[0]
        assert row.passed == (beta == 0)
        assert (row.evidence["schur_residual"] > REL_RESIDUAL) == (beta > 0)


def test_p4_takes_one_spectrum_on_the_overflowing_path(monkeypatch):
    # the 2-vertex [[1e308]] path: L's entries are 1e-308, and P4 fails on
    # its rank, read off the one spectrum of L
    mats = build_matrices(_path(2, 1e308, 1e308))
    calls = _spectra_of_order(monkeypatch, 2)
    p4 = next(c for c in verify_preliminaries(mats) if c.check_id == "P4")
    assert not p4.passed and p4.evidence["rank"] == 0
    assert sum(np.array_equal(a.reshape(2, 2), mats.l.array) for a in calls) == 1


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

    # THM.iii: vertex 1 alone, since THM.vi finds every F_ii positive definite
    # at beta > 0, and it is exactly zero at beta = 0. A Cholesky certificate
    # bounds its eigenvalues (at beta > 0 the split of P, whose negative half
    # is -P(alpha'_1) - cI; at beta = 0 the residual of its known kernel): the
    # bound lies above every one the direct route measures of vertex 1, and
    # at beta > 0 of every vertex, whose derived inertia is ((n-1)s, 0, 0)
    thm_iii = by_id(checks, "THM.iii")[0]
    evidence = dict(thm_iii.evidence)
    bound = evidence.pop("max_eig_sampled_bound")
    assert bound > direct[0][-1]
    if beta:
        assert bound == -mats.p_eigs(beta)[2] > max(w[-1] for w in direct)
    assert evidence == {"sampled": [1], "inferred": n - 1, "route": "derived"}

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
    assert fm.evidence["sampled"] == {"beta": [1], "dinv": [1]}
    assert fm.evidence["inferred"] == {"beta": n - 1, "dinv": n - 1}

    # THM.iv: the Haynsworth left-hand side is the bordered inertia
    assert by_id(checks, "THM.iv")[0].evidence["inertia"] == list(
        inertia_of(bordered(pencil.f)))
    # THM.iv.haynsworth reads its pivot's inertia In(F) off P's spectrum
    # (F = P^{-1} is congruent to P); it agrees with In(F) measured. Its Schur
    # complement -U'D^{-1}U is the one a solve with F gives
    assert mats.p_eigs(beta)[1] == inertia_of(pencil.f.array)
    u = mats.u
    oracle = -u.T @ np.linalg.solve(pencil.f.array, u)
    assert _rel(oracle + mats.udu(), float(np.abs(oracle).max())) <= REL_RESIDUAL
    g = bordered(pencil.f)
    _, rhs, _ = haynsworth_check(oracle, inertia_of(g), inertia_of(pencil.f.array))
    haynsworth = by_id(checks, "THM.iv.haynsworth")[0].evidence
    assert haynsworth["rhs"] == list(rhs) == [
        a + b for a, b in zip(inertia_of(pencil.p.array), inertia_of(oracle))]
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


def test_every_bound_of_the_report_set_lies_beyond_its_spectrum(monkeypatch):
    """Over every report of tools/report_set.py, each certified value lies
    on the passing side of the value the spectrum reads with no
    certificate. THM.iii's beta = 0 bound carries the spectrum's rounding,
    so this holds where its value is round-off, as on the [1e-8, 1e8]
    campaign's lines 42, 47 and 55. Line 66's beta = 0 sample, whose kernel
    residual is formed at its 1e300 scale, is one of them. THM.iii at
    beta > 0 reports a bound only where the split of P certified the
    sample, so line 62's rows at beta 1/2, 1 and 10 and line 69's at 3e6,
    where that split fails, report the value the spectrum measures."""
    report_set = tool("report_set")
    certified = [c for r in report_set.reports() for c in r.checks]
    certify = linalg.certify
    for module in (linalg, verifier):
        monkeypatch.setattr(module, "certify", lambda certificates, x: certify([], x))
    spectrum = [c for r in report_set.reports() for c in r.checks]
    bounds = [(key, value, o.evidence[_BOUND_KEYS[key][0]])
              for c, o in zip(certified, spectrum) for key, value in c.evidence.items()
              if key in _BOUND_KEYS]
    assert len(bounds) == 895
    for key, bound, measured in bounds:
        assert bound < measured if _BOUND_KEYS[key][1] == "min" else bound > measured


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


def test_bordered_inertia_certifies_no_f_outside_the_asymmetry_bound():
    """Cholesky reads one triangle. An F(1) of the golden instance moved by an
    antisymmetric 1e-6 of its largest entry still passes a Cholesky of
    -B'FB - cI, c THM.iv's shift, but lies outside the asymmetry bound: the
    congruence gives it no certificate, and THM.v refuses it, as its
    spectrum would."""
    inst = golden_instance()
    n, s = inst.n, inst.s
    mats = build_matrices(inst)
    pencil = perturbed_pencil(mats.d_inv, mats.l, 1.0)
    upper = np.triu(np.ones((n * s, n * s)), 1)
    f = pencil.f.array + 1e-6 * np.abs(pencil.f.array).max() * (upper - upper.T)
    bfb = _null_compress(f, n, s)
    c = linalg.certificate_shift(max(np.abs(f).sum(axis=-1).max() + 1.0, n))
    assert linalg.certify([(-bfb, c)], bfb)[0]     # Cholesky alone certifies it
    assert _bordered_split(f[None], build_U(n, s), inst.tree.weights, n, s) == []
    mats.memo(("pencil", 1.0), lambda: PerturbedPencil(pencil.p, BlockMatrix(n, s, f)))
    with pytest.raises(NotSymmetricError):
        mats.bordered_inertia(1.0)
    thm_v = by_id(verify_theorem(mats, 1.0), "THM.v")[0]
    assert not thm_v.passed
    assert thm_v.evidence["error"].startswith("NotSymmetricError")


def _bfb_below_the_shift(mats, beta) -> bool:
    """Whether the congruence certifies beta; where it does, the oracle: the
    largest eigenvalue of B'FB lies below -c, and THM.v reports -c."""
    inert, c = mats.bordered_inertia(beta)
    if c is None:
        return False
    f = mats.pencil(beta).f.array
    assert inert == (mats.n * mats.s, 0, mats.s)
    assert np.linalg.eigvalsh(_null_compress(f, mats.n, mats.s))[-1] < -c
    assert by_id(verify_theorem(mats, beta), "THM.v")[0].evidence == {"max_eig_bound": -c}
    return True


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(2, 7), s=st.integers(1, 3),
       beta=st.sampled_from([0.0, 0.37, 1.0, 10.0, 1e4]))
def test_congruence_bounds_bfb_wherever_it_certifies(seed, n, s, beta):
    """THM.v's Bound -c against B'FB's spectrum on random small instances."""
    inst = random_instance(n, s, seed, seed % ((n - 1) * (n - 2) // 2 + 1))
    _bfb_below_the_shift(build_matrices(inst), beta)


def test_lapack_calls_of_a_verify_large_instance(monkeypatch):
    """verify_instance's LAPACK calls on the n = 60 verify-large instance at
    beta 0 and 1. The 16 Choleskys are the certificates: the splits of D
    and, per beta, of P (two each), THM.iv's congruence per beta (two; it
    also bounds THM.v), the deflated L_T of P1 and L of P4, THM.iii's
    beta = 0 sample, THM.vi's blocks and the split of THM.vi.gx's
    compressions (two). Four matrices of order (n-1)s = 177 are factored:
    the split of D's B'DB, of P(0)'s B'PB, of P(1)'s deleted block
    P(alpha'_1), which is THM.iii's beta = 1 sample as well, and the
    deflated D^{-1}(alpha'_1) of THM.iii's beta = 0 sample. The four
    spectra are of order s: COR2.8's U'D^{-1}U, THM.iv.haynsworth's Schur
    complement at each beta, and the stack of tree weights. No spectrum of
    P, G, B'FB, L, an F_ii or a sample is taken, and no eigenvector is
    computed: P1 inverts the deflated L_T. The one solve is the pencil's at
    beta 1; THM.iv.haynsworth solves nothing."""
    n = 60
    inst = random_instance(n, 3, 1060, n)
    calls, orders = Counter(), Counter()
    for name in ("cholesky", "eigvalsh", "eigh", "solve", "qr", "inv"):
        fn = getattr(np.linalg, name)
        counted = lambda *a, _fn=fn, _name=name, **k: calls.update([_name]) or _fn(*a, **k)
        monkeypatch.setattr(np.linalg, name, counted)
    cholesky = np.linalg.cholesky
    monkeypatch.setattr(np.linalg, "cholesky", lambda a: orders.update(
        {a.shape[-1]: math.prod(a.shape[:-2])}) or cholesky(a))
    assert verify_instance(inst, [0.0, 1.0]).ok
    assert calls == Counter({"cholesky": 16, "eigvalsh": 4, "solve": 1, "qr": 1, "inv": 5})
    assert orders[(n - 1) * 3] == 4


@pytest.mark.parametrize("inst", [golden_instance(), random_instance(12, 4, 11211, 30),
                                  random_instance(60, 3, 1060, 60)],
                         ids=["golden", "random-12x4", "verify-large-60"])
def test_a_certified_congruence_builds_no_bordered_matrix(monkeypatch, inst):
    """Where THM.iv's congruence certifies In(G), no check builds G: the
    Haynsworth split reads its Schur complement off D^{-1}U."""
    def refuse(f):
        raise AssertionError("bordered matrix built")

    monkeypatch.setattr(verifier, "bordered", refuse)
    report = verify_instance(inst, [0.0, 1.0])
    assert report.ok and all(c.passed for c in report.checks if c.check_id.startswith("THM.iv"))


@pytest.mark.parametrize("inst", [golden_instance(), random_instance(12, 4, 11211, 30),
                                  random_instance(60, 3, 1060, 60)],
                         ids=["golden", "random-12x4", "verify-large-60"])
def test_the_split_of_p_is_the_sample_of_thm_iii_at_positive_beta(monkeypatch, inst):
    """At beta > 0 the split certificate of P, whose negative half is the
    deleted block -P(alpha'_1) - cI, measures THM.iii's vertex 1, and THM.vi
    finds every F_ii positive definite: no submatrix of a pencil at beta > 0
    is gathered. At beta = 0 vertex 1's kernel certificate gathers
    D^{-1}(alpha'_1)."""
    d_inv = build_matrices(inst).d_inv.array
    gather = verifier.principal_block_submatrix

    def only_d_inv(a, idx):
        if not np.array_equal(a.array, d_inv):
            raise AssertionError("a deleted block of a pencil at beta > 0 gathered")
        return gather(a, idx)

    monkeypatch.setattr(verifier, "principal_block_submatrix", only_d_inv)
    report = verify_instance(inst, [0.0, 1.0])
    assert report.ok
    assert [c.evidence["sampled"] for c in by_id(report.checks, "THM.iii")] == [[1], [1]]


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


def test_certificates_decide_every_sign_claim_of_a_valid_instance(monkeypatch):
    orders = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: orders.append(a.shape[-1]) or eigvalsh(a))
    betas = [*DEFAULT_BETAS, 0.37]
    report = verify_instance(random_instance(12, 4, 11211, 30), betas)
    bounded = {(c.check_id, c.beta) for c in report.checks
               if any(k in _BOUND_KEYS for k in c.evidence)}
    assert bounded == ({("P3", None), ("P4", None)}
                       | {(cid, b) for b in betas for cid in ("THM.i", "THM.v")}
                       | {("THM.iii", b) for b in betas})
    # THM.iv has no bound to report, but no spectrum of the bordered matrix
    # (order ns + s = 52) is taken, nor of a sampled deleted block (order 44)
    assert orders and not {52, 44} & set(orders)


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


# --- THM.iv's congruence and THM.iii's kernel certificates -------------------

def _congruences(f: np.ndarray, t: float, c: float, n: int, s: int):
    """-X-'(G + cI)X- and X+'(G - cI)X+ for G = [[F, U], [U', 0]], built from
    dense X- = [[B, U/t], [0, -I_s]] and X+ = [[U/t], [I_s]]."""
    b = np.kron(np.vstack([np.eye(n - 1), -np.ones((1, n - 1))]), np.eye(s))
    u = np.kron(np.ones((n, 1)), np.eye(s))
    minus = np.block([[b, u / t], [np.zeros((s, n * s - s)), -np.eye(s)]])
    plus = np.vstack([u / t, np.eye(s)])
    g = bordered(BlockMatrix(n, s, f))
    eye = np.eye(n * s + s)
    return -minus.T @ (g + c * eye) @ minus, plus.T @ (g - c * eye) @ plus


def _tree_t(inst) -> float:
    return inst.n * np.abs(inst.tree.weights.sum(axis=0)).sum(axis=-1).max() / 2


@pytest.mark.parametrize("inst, beta", [
    (golden_instance(), 1.0),
    (random_instance(7, 3, 5, 4), 0.0),
    (random_instance(7, 3, 5, 4), 10.0),
])
def test_bordered_certificates_are_the_congruences_they_claim(inst, beta):
    """Each certificate (A, c) is its congruence plus cI: A - cI is
    -X-'(G + cI)X-, or X+'(G - cI)X+, at t = n ||R||_inf / 2."""
    n, s = inst.n, inst.s
    f = build_matrices(inst).pencil(beta).f.array
    (low, c), (high, c_high) = _bordered_split(f[None], build_U(n, s), inst.tree.weights, n, s)
    assert c_high is c and c.shape == (1,)
    want_low, want_high = _congruences(f, _tree_t(inst), c[0], n, s)
    for a, want in ((low[0], want_low), (high[0], want_high)):
        got = a - c[0] * np.eye(len(a))
        assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()


@pytest.mark.parametrize("seed", [1, 1912])
@pytest.mark.parametrize("n", [60, 80])
def test_bordered_certificates_hold_on_the_verify_large_instances(n, seed):
    """Both halves certify at beta 0 and 1 on the benchmark's instances, and
    bound THM.v there. With ROADMAP's earlier t = ||F||_inf, -X-'GX- is
    indefinite at beta = 0: t must exceed n lambda_max(R) / 4, and
    ||F||_inf does not."""
    inst = random_instance(n, 3, seed * 1000 + n, n)
    mats = build_matrices(inst)
    for beta in (0.0, 1.0):
        f = mats.pencil(beta).f.array
        ok, _ = linalg.certify(_bordered_split(f[None], build_U(n, 3), inst.tree.weights, n, 3),
                               lambda: 1 / 0)
        assert ok.tolist() == [True]
        assert _bfb_below_the_shift(mats, beta)
    d = mats.pencil(0.0).f.array
    low, _ = _congruences(d, np.abs(d).sum(axis=-1).max(), 0.0, n, 3)
    assert np.linalg.eigvalsh(low)[0] < 0
    low, _ = _congruences(d, _tree_t(inst), 0.0, n, 3)
    assert np.linalg.eigvalsh(low)[0] > 0


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), ratio=st.floats(-3.0, 3.0),
       exponent=st.integers(-40, 40), beta=st.sampled_from([0.0, 1.0]))
def test_bordered_certificate_never_passes_another_inertia(seed, ratio, exponent, beta):
    """F(beta) and the tree weights scaled by 2^exponent, then lambda_max(B'FB)
    moved to `ratio` times n c of zero, along the dual basis of [B U], which
    leaves B'FU and U'FU as they are. n c is the most that the leading block
    of -X-'(G + cI)X- shifts B'FB by, so below -n c its first n s - s pivots
    certify and above -c they never do. A G that the certificates pass has
    In(G) = (ns, 0, s) on its spectrum, and a certified B'FB lies below -c."""
    rng = np.random.default_rng(seed)
    n, s = int(rng.integers(2, 7)), int(rng.integers(1, 4))
    inst = random_instance(n, s, seed, int(rng.integers(0, (n - 1) * (n - 2) // 2 + 1)))
    f = build_matrices(inst).pencil(beta).f.array * 2.0 ** exponent
    b = np.kron(np.vstack([np.eye(n - 1), -np.ones((1, n - 1))]), np.eye(s))
    dual = np.linalg.inv(np.hstack([b, np.kron(np.ones((n, 1)), np.eye(s))])).T
    w, v = np.linalg.eigh(_null_compress(f, n, s))
    y = dual[:, :n * s - s] @ v[:, -1]
    c = linalg.certificate_shift(max(np.abs(f).sum(axis=-1).max() + 1.0, n))
    f = f + (ratio * n * c - w[-1]) * np.outer(y, y)
    f = (f + f.T) / 2.0
    g = bordered(BlockMatrix(n, s, f))
    split = _bordered_split(f[None], build_U(n, s), inst.tree.weights * 2.0 ** exponent, n, s)
    ok, _ = linalg.certify(split, g[None])
    if ok[0]:
        assert inertia_of(g) == (n * s, 0, s)
        assert np.linalg.eigvalsh(_null_compress(f, n, s))[-1] < -split[0][1][0]


@pytest.mark.parametrize("n, s, seed", [(3, 2, 1), (5, 1, 2), (7, 3, 3), (12, 4, 4)])
def test_beta_zero_samples_are_certified_by_their_kernel(monkeypatch, n, s, seed):
    """At beta = 0 the one sample of a random instance, vertex 1, is
    certified: no spectrum of any order is taken (the blocks F_ii = D_ii
    are known to be zero), and it reports a Bound 2r within half the zero
    threshold of its P(alpha'), whose spectrum has the derived inertia
    ((n-2)s, s, 0)."""
    orders = []
    eigvalsh = np.linalg.eigvalsh
    monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: orders.append(a.shape[-1]) or eigvalsh(a))
    mats = build_matrices(random_instance(n, s, seed, n - 2))
    blocks = mats.deleted_blocks(0.0)
    assert orders == []
    np.linalg.eigvalsh(np.eye(s))      # the patch is active
    assert orders == [s]
    monkeypatch.undo()
    assert blocks.route == "derived" and blocks.sampled == [1]
    for v, bound in zip(blocks.sampled, blocks.sampled_max):
        assert isinstance(bound, Bound)
        w = np.linalg.eigvalsh(principal_block_submatrix(
            mats.d_inv, [k for k in range(1, n + 1) if k != v]).array)
        assert inertia_of_spectrum(w) == ((n - 2) * s, s, 0)
        assert 0.0 <= bound <= EIG_ZERO * max(1.0, np.abs(w).max()) / 2


def test_a_sample_whose_kernel_residual_is_too_large_reads_its_spectrum():
    """The golden instance with D[3, 1] x 1.1: that entry lies in vertex 1's
    kernel F[alpha'_1, 1] = D[alpha'_1, 1], which P(alpha'_1) = D^{-1}[alpha'_1]
    no longer annihilates. Vertex 1's sample is decomposed, and reports the
    value it reports without certificates. D[1, 3] x 1.1 lies outside that
    kernel, and vertex 1 is still certified."""
    mats = build_matrices(golden_instance(), corrupt=(3, 1, 1.1))
    blocks = mats.deleted_blocks(0.0)
    assert blocks.route == "derived" and blocks.sampled == [1]
    [top] = blocks.sampled_max
    assert not isinstance(top, Bound)
    sub = principal_block_submatrix(mats.d_inv, [2, 3, 4]).array
    assert top == float(np.linalg.eigvalsh(sub)[-1])
    blocks = build_matrices(golden_instance(), corrupt=(1, 3, 1.1)).deleted_blocks(0.0)
    assert blocks.sampled == [1] and isinstance(blocks.sampled_max[0], Bound)
