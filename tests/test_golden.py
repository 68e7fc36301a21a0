from fractions import Fraction

import numpy as np

from mwspec import exact as ex
from mwspec.exact import rational_invert
from mwspec.golden import (
    EXPECTED_INERTIA,
    expected_d_exact,
    expected_f,
    expected_l,
    golden_instance,
    run_golden,
)
from mwspec.linalg import inertia_of
from mwspec.operators import (
    build_distance_matrix_exact,
    build_laplacian_exact,
    distance_inverse_closed_form_exact,
)
from mwspec.verifier import build_matrices


def test_distance_matrix_bit_exact():
    d = build_distance_matrix_exact(golden_instance().tree)
    assert np.array_equal(d, expected_d_exact())


def test_laplacian_bit_exact():
    l = build_laplacian_exact(golden_instance().graph)
    assert np.array_equal(l, expected_l())
    denominators = {x.denominator for row in l for x in row}
    assert all(16 % q == 0 for q in denominators)


def test_perturbed_inverse_bit_exact():
    inst = golden_instance()
    d_inv = distance_inverse_closed_form_exact(inst.tree)
    l = build_laplacian_exact(inst.graph)
    f = ex.as_fractions(*rational_invert(d_inv - l))
    assert np.array_equal(f, expected_f())
    assert f[0][0] == Fraction(3419893, 612184)


def test_bundle_exact_f_bit_exact():
    # F(1) from D and L alone, the route golden and EXACT-CONSISTENCY read
    f = ex.as_fractions(*build_matrices(golden_instance()).exact_f(1.0))
    assert np.array_equal(f, expected_f())
    assert all(type(x) is Fraction for x in f.flat)


def test_expected_f_entries_are_exactly_nonzero():
    # the off-diagonal nonzeroness claim, checked literally on rationals
    assert all(x != 0 for row in expected_f() for x in row)


def test_golden_inertia():
    f = ex.rat_to_float(expected_f())
    assert inertia_of(f) == EXPECTED_INERTIA == (6, 0, 2)


def test_run_golden_reproduces_the_example():
    result = run_golden()
    assert result.ok, result.mismatches


def test_run_golden_detects_tampering(monkeypatch):
    import mwspec.golden as g

    rows = list(g._F_ROWS)
    rows[0] = rows[0].replace("3419893/612184", "3419895/612184")
    monkeypatch.setattr(g, "_F_ROWS", rows)
    result = run_golden()
    assert not result.ok
    assert "F[1,1]" in result.mismatches[0]
    # the float F(1) is held to the exact route, not to the frozen rows
    assert not any(line.startswith("F (float)") for line in result.mismatches)


def test_run_golden_detects_a_float_fault(monkeypatch):
    # a float closed form off by 1e-6 leaves every exact comparison as it is
    from mwspec import operators

    closed_form = operators._closed_form
    monkeypatch.setattr(operators, "_closed_form",
                        lambda *a: (1 + 1e-6) * closed_form(*a))
    result = run_golden()
    assert [line.split(":")[0] for line in result.mismatches] == ["F (float)"]
    assert "EXACT-CONSISTENCY" in result.mismatches[0]


def test_float_mode_relative_error_bound():
    # the bundle's float F(1) against the frozen rationals, as golden reads it
    f = build_matrices(golden_instance()).pencil(1.0).f.array
    want = ex.rat_to_float(expected_f())
    assert np.abs(f - want).max() <= 1e-9 * np.abs(want).max()
