"""Acceptance gate: one test per criterion, each printing a pass/fail line.

Criteria 3-6 share a single 500-instance seeded campaign (n in [2,12],
s in [1,4], weight eigenvalues in [0.1,10], betas {0, 0.5, 1, 10, random}).
Run with `pytest tests/test_acceptance.py -v -s` to see the lines.
"""

import time

import numpy as np
import pytest

from mwspec import exact as ex
from mwspec.cli import main
from mwspec.exact import rational_invert
from mwspec.golden import (
    EXPECTED_INERTIA,
    expected_f,
    golden_instance,
    run_golden,
)
from mwspec.linalg import inertia_of
from mwspec.model import random_tree, serialize_instance
from mwspec.operators import (
    build_distance_matrix,
    build_laplacian,
    build_laplacian_exact,
    distance_inverse_closed_form,
    distance_inverse_closed_form_exact,
)
from mwspec.perturbation import perturbed_pencil
from mwspec.verifier import CampaignConfig, run_campaign


def report(criterion: str, ok: bool):
    print(f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion failed: {criterion}"


@pytest.fixture(scope="module")
def campaign():
    start = time.perf_counter()
    reports = run_campaign(CampaignConfig(count=500, seed=2024))
    elapsed = time.perf_counter() - start
    return reports, elapsed


def collect(reports, check_id):
    return [c for r in reports for c in r.checks if c.check_id == check_id]


def test_criterion_1_golden_exactness():
    start = time.perf_counter()
    result = run_golden()
    elapsed = time.perf_counter() - start
    ok = result.ok and elapsed < 1.0
    if not result.ok:
        print(result.mismatches)
    report("1 golden exactness (exact bit-exact, float <= 1e-9, < 1s)", ok)


def test_criterion_2_golden_inertia():
    f = ex.rat_to_float(expected_f())
    report("2 golden inertia (6,0,2)", inertia_of(f) == EXPECTED_INERTIA)


def test_criterion_3_preliminary_identities(campaign):
    reports, elapsed = campaign
    assert len(reports) == 500
    ok = True
    for cid in ("P1", "P2"):
        checks = collect(reports, cid)
        ok &= all(c.passed and c.evidence["residual"] <= 1e-8 for c in checks)
    p3 = collect(reports, "P3")
    ok &= all(c.passed for c in p3)
    ok &= all(
        c.evidence["inertia"] == [r.n * r.s - r.s, 0, r.s]
        for r in reports for c in r.checks if c.check_id == "P3"
    )
    p4 = collect(reports, "P4")
    ok &= all(c.passed for c in p4)
    ok &= all(
        c.evidence["rank"] == r.n * r.s - r.s
        for r in reports for c in r.checks if c.check_id == "P4"
    )
    ok &= elapsed < 300.0
    report(f"3 preliminaries 500/500 (campaign {elapsed:.1f}s < 300s)", ok)


def test_criterion_4_theorem_campaign(campaign):
    reports, _ = campaign
    ok = True
    for cid in ("THM.i", "THM.ii", "THM.iii", "THM.iv", "THM.v"):
        checks = collect(reports, cid)
        ok &= bool(checks) and all(c.passed for c in checks)
    for cid in ("THM.vi", "THM.vi.gx"):
        checks = collect(reports, cid)
        active = [c for c in checks if not c.skipped]
        skipped = [c for c in checks if c.skipped]
        ok &= all(c.passed for c in active)
        ok &= all(c.beta == 0.0 for c in skipped) and bool(active)
    ok &= all(not c.warning for r in reports for c in r.checks)
    # every THM.iii row measures vertex 1 alone and derives the others: a
    # row on the direct route would decompose all n deleted blocks
    ok &= all(c.evidence["route"] == "derived" and c.evidence["sampled"] == [1]
              for c in collect(reports, "THM.iii"))
    report("4 theorem checks 100% (THM.i-v all beta; THM.vi beta>0; "
           "THM.iii derived from vertex 1)", ok)


def test_criterion_5_haynsworth(campaign):
    reports, _ = campaign
    checks = collect(reports, "THM.iv.haynsworth")
    ok = bool(checks) and all(
        c.passed
        and c.evidence["lhs"] == c.evidence["rhs"]
        and c.evidence["schur_residual"] <= 1e-8
        for c in checks
    )
    report("5 Haynsworth additivity + G/F = -U'D^{-1}U to 1e-8", ok)


def test_criterion_6_fiedler_markham(campaign):
    reports, _ = campaign
    checks = collect(reports, "FM-nullity")
    ok = bool(checks) and all(
        c.passed
        and c.evidence["mismatches"] == []
        and all(x == r.s for x in c.evidence["dinv_nullities"])
        for r in reports for c in r.checks if c.check_id == "FM-nullity"
    )
    report("6 Fiedler-Markham nullity equality, every i, every instance", ok)


def test_criterion_7_oracle_equivalence():
    ok = True
    # closed-form D^{-1} vs dense inversion up to ns = 600
    for n, s in ((2, 1), (50, 2), (100, 3), (200, 3), (300, 2), (150, 4)):
        tree = random_tree(n, s, seed=n * 10 + s)
        d = build_distance_matrix(tree).array
        x_cf = distance_inverse_closed_form(tree).array
        x_dense = np.linalg.inv(d)
        rel = np.abs(x_cf - x_dense).max() / np.abs(x_cf).max()
        ok &= rel <= 1e-8
    # exact-kernel F vs float-kernel F on the worked example
    inst = golden_instance()
    f_float = perturbed_pencil(
        distance_inverse_closed_form(inst.tree), build_laplacian(inst.graph), 1.0
    ).f.array
    f_exact = ex.rat_to_float(ex.as_fractions(*rational_invert(
        distance_inverse_closed_form_exact(inst.tree)
        - build_laplacian_exact(inst.graph)
    )))
    ok &= np.abs(f_float - f_exact).max() / np.abs(f_exact).max() <= 1e-12
    report("7 oracle equivalence (closed form vs dense; exact vs float)", ok)


def test_criterion_8_negative_control(tmp_path, capsys):
    inst_path = tmp_path / "golden.json"
    inst_path.write_text(serialize_instance(golden_instance()))
    code = main(["verify", "--in", str(inst_path), "--beta", "1",
                 "--corrupt-d", "1,3,1.1"])
    capsys.readouterr()
    report("8 negative control: 10% corruption of D exits 1", code == 1)
