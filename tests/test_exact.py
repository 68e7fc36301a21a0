from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mwspec import exact as ex
from mwspec.errors import ConfigError, InstanceSyntaxError, SingularMatrixError
from mwspec.model import random_instance
from mwspec.operators import build_laplacian_exact, distance_inverse_closed_form_exact
from mwspec.verifier import DEFAULT_BETAS


def F(p, q=1):
    return Fraction(p, q)


def inverse(a, b=None):
    """rational_invert's pair, viewed as Fractions."""
    return ex.as_fractions(*ex.rational_invert(a, b))


def gauss_jordan_oracle(a):
    """Exact inverse by Gauss-Jordan elimination over Fractions, with the
    first nonzero entry at or below the diagonal as pivot."""
    a = ex.rat_matrix(np.asarray(a, dtype=object).tolist()).reshape(np.shape(a))
    n = len(a)
    if a.shape != (n, n):
        raise SingularMatrixError("matrix is not square")
    aug = np.concatenate([a, np.eye(n, dtype=int).astype(object)], axis=1)
    for col in range(n):
        nonzero = np.flatnonzero(aug[col:, col] != 0)
        if not len(nonzero):
            raise SingularMatrixError(f"no nonzero pivot in column {col}")
        pivot_row = col + nonzero[0]
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        aug[col, col:] /= aug[col, col]
        rows = np.flatnonzero(aug[:, col] != 0)
        rows = rows[rows != col]
        aug[rows, col:] -= np.multiply.outer(aug[rows, col], aug[col, col:])
    return aug[:, n:]


def pd_oracle(a) -> bool:
    """Positive definiteness by Gaussian elimination over Fractions without
    row exchanges: every pivot must be positive."""
    a = ex.rat_matrix(np.asarray(a, dtype=object).tolist()).reshape(np.shape(a))
    for col in range(len(a)):
        piv = a[col, col]
        if piv <= 0:
            return False
        f = a[col + 1:, col] / piv
        a[col + 1:, col:] -= np.multiply.outer(f, a[col, col:])
    return True


def assert_exact_inverse(a, inv):
    n = len(a)
    assert inv.dtype == object and inv.shape == (n, n)
    assert all(type(x) is Fraction for x in inv.flat)
    assert np.array_equal(a @ inv, np.eye(n, dtype=int))
    assert np.array_equal(inv @ a, np.eye(n, dtype=int))


def test_parse_rational():
    assert ex.parse_rational("3/4") == F(3, 4)
    assert ex.parse_rational("8") == F(8)
    assert ex.parse_rational("-5/7") == F(-5, 7)


@pytest.mark.parametrize("bad", ["", "1/0", "2/4", "-3/-4", "1.5", "a/b", "3 / 4"])
def test_parse_rational_rejects(bad):
    with pytest.raises(InstanceSyntaxError):
        ex.parse_rational(bad)


def test_format_round_trip():
    for f in (F(3, 4), F(-5), F(612184, 1), F(3419893, 612184)):
        assert ex.parse_rational(str(f)) == f


def test_invert_identity():
    eye = ex.rat_matrix(np.eye(3, dtype=int).tolist())
    assert np.array_equal(inverse(eye), eye)


def test_invert_involution():
    swap = ex.rat_matrix([[F(0), F(1)], [F(1), F(0)]])
    assert np.array_equal(inverse(swap), swap)


def test_invert_times_original_is_identity():
    import random

    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 6)
        a = ex.rat_matrix([[F(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(n)] for _ in range(n)])
        try:
            inv = inverse(a)
        except SingularMatrixError:
            continue
        assert np.array_equal(a @ inv, np.eye(n, dtype=int))
        assert np.array_equal(inv @ a, np.eye(n, dtype=int))


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        ex.rational_invert([[F(1), F(2)], [F(2), F(4)]])


def test_invert_needs_pivoting():
    a = ex.rat_matrix([[F(0), F(2)], [F(3), F(1)]])
    inv = inverse(a)
    assert np.array_equal(a @ inv, np.eye(2, dtype=int))


# --- the fraction-free kernel against the Fraction oracle ---------------------

# mostly zeros, so that leading and later pivots are often zero and rows
# must be swapped; integers and rationals with up to 20-bit parts
ENTRIES = st.one_of(
    st.just(0),
    st.integers(-4, 4),
    st.builds(Fraction, st.integers(-50, 50), st.integers(1, 50)),
    st.builds(Fraction, st.integers(-2**20, 2**20), st.integers(1, 2**20)),
)


def _matrix(entries, rows, cols):
    a = np.empty(rows * cols, dtype=object)
    a[:] = entries
    return a.reshape(rows, cols)


@st.composite
def square_matrices(draw, max_n=7):
    n = draw(st.integers(0, max_n))
    return _matrix(draw(st.lists(ENTRIES, min_size=n * n, max_size=n * n)), n, n)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(square_matrices())
def test_invert_matches_the_gauss_jordan_oracle(a):
    try:
        want = gauss_jordan_oracle(a)
    except SingularMatrixError as exc:
        # singular input fails at the same column
        with pytest.raises(SingularMatrixError, match=f"^{exc}$"):
            ex.rational_invert(a)
        return
    got = inverse(a)
    assert np.array_equal(got, want)
    assert_exact_inverse(ex.rat_matrix(a.tolist()).reshape(a.shape), got)


@st.composite
def systems(draw, max_n=6):
    """(A, B): A square, B with A's row count and 0-3 columns."""
    a = draw(square_matrices(max_n))
    n, w = len(a), draw(st.integers(0, 3))
    return a, _matrix(draw(st.lists(ENTRIES, min_size=n * w, max_size=n * w)), n, w)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(systems())
def test_solve_matches_the_oracle_inverse_times_b(case):
    a, b = case
    try:
        want = gauss_jordan_oracle(a) @ b
    except SingularMatrixError as exc:
        with pytest.raises(SingularMatrixError, match=f"^{exc}$"):
            ex.rational_invert(a, b)
        return
    got = inverse(a, b)
    assert got.dtype == object and got.shape == b.shape
    assert np.array_equal(got, want)
    assert all(type(x) is Fraction for x in got.flat)


INVERT_ERRORS = [
    ([[0, 0], [0, 1]], "no nonzero pivot in column 0"),
    ([[1, 2, 3], [2, 4, 6], [0, 0, 1]], "no nonzero pivot in column 1"),
    ([[F(1, 3), F(1, 6)], [F(2, 3), F(1, 3)]], "no nonzero pivot in column 1"),
    ([[1, 2, 3]], "matrix is not square"),
    ([1, 2], "matrix is not square"),
]


@pytest.mark.parametrize("a, message", INVERT_ERRORS)
def test_invert_errors(a, message):
    with pytest.raises(SingularMatrixError, match=f"^{message}$"):
        ex.rational_invert(a)


@pytest.mark.parametrize("a, message", INVERT_ERRORS)
def test_solve_errors(a, message):
    with pytest.raises(SingularMatrixError, match=f"^{message}$"):
        ex.rational_invert(a, [[F(1, 2), 3]] * len(a))


@pytest.mark.parametrize("b", [[1, 2], [[1], [2], [3]], [[[1]], [[2]]]],
                         ids=["vector", "too-many-rows", "three-axes"])
def test_solve_rejects_a_right_hand_side_of_the_wrong_shape(b):
    with pytest.raises(ConfigError, match="right-hand side"):
        ex.rational_invert([[1, 0], [0, 1]], b)


@pytest.mark.parametrize("a, want", [
    (np.empty((0, 0), dtype=object), np.empty((0, 0), dtype=object)),
    ([[F(3, 7)]], [[F(7, 3)]]),
    ([[-5]], [[F(-1, 5)]]),
    ([[0, 1, 0], [0, 0, 1], [2, 0, 0]], [[0, 0, F(1, 2)], [1, 0, 0], [0, 1, 0]]),
])
def test_invert_small_and_integer_cases(a, want):
    got = inverse(a)
    assert got.dtype == object and got.shape == np.shape(want)
    assert np.array_equal(got, np.asarray(want, dtype=object))
    assert all(type(x) is Fraction for x in got.flat)


def test_invert_returns_the_eliminations_integers_over_its_last_pivot():
    # the pair is (d A^{-1}, d), d the last Bareiss pivot, here det A = -7;
    # the view gives every Fraction a positive denominator all the same
    x, d = ex.rational_invert([[2, 1], [1, -3]])
    assert d == -7 and np.array_equal(x, [[-3, -1], [-1, 2]])
    assert all(type(v) is int for v in (d, *x.flat))
    got = ex.as_fractions(x, d)
    assert np.array_equal(got, [[F(3, 7), F(1, 7)], [F(1, 7), F(-2, 7)]])
    assert all(v.denominator > 0 for v in got.flat)


def test_integer_matrix_round_trips_through_the_view():
    a = ex.rat_matrix([[F(1, 6), 2], [F(-3, 4), 0]])
    x, e = ex.integer_matrix(a)
    assert e == 12 and np.array_equal(x, [[2, 24], [-9, 0]])
    assert all(type(v) is int for v in x.flat)
    assert np.array_equal(ex.as_fractions(x, e), a)


@pytest.mark.parametrize("num, den", [
    (1, 3), (-2, 3), (0, 7), (10**400 + 1, 10**400), (-(10**30), 7**40),
    (1, 10**308),                       # subnormal
    (1, 10**310),                       # subnormal, few bits left
    (3, 2**1075),                       # halfway between two subnormals: to even
    (1, 2**1075), (1, 2**1076),         # halfway to zero, and below it
    (2**1024 - 2**971, 1),              # the largest float
], ids=lambda v: str(v)[:12])
def test_round_ratio_has_the_bits_of_float_of_the_fraction(num, den):
    got = ex.round_ratio(np.array([[num, -num]], dtype=object), den)
    want = ex.rat_to_float([[F(num, den), F(-num, den)]])
    assert got.dtype == float and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("num", [10**400, 2**1024 - 2**970], ids=["huge", "halfway-past-max"])
def test_round_ratio_overflows_where_float_of_the_fraction_does(num):
    with pytest.raises(OverflowError):
        float(F(num))
    with pytest.raises(OverflowError):
        ex.round_ratio([[num]], 1)


def test_perturbed_inverse_keeps_its_row_denominators_positive():
    # det(I - beta D L) = -1 here: its sign goes to the numerators, so F's
    # zeros round to +0.0, as float(Fraction(0)) does, not to -0.0
    pi = ex.PerturbedInverse(ex.rat_matrix([[1, 0], [0, F(1, 3)]]),
                             ex.rat_matrix([[1, 0], [0, 0]]))
    num, den = pi.at(2.0)
    assert all(q > 0 for q in den.flat)
    assert np.array_equal(ex.as_fractions(num, den), [[-1, 0], [0, F(1, 3)]])
    assert ex.round_ratio(num, den).tobytes() == np.array([[-1, 0], [0, 1 / 3]]).tobytes()


def test_invert_workload_sized_pencils():
    # the size the exact path meets in a verify: one (10, 2) rational
    # instance, D^{-1} - beta L at every default beta
    inst = random_instance(10, 2, 1002, 10, rational=True)
    d_inv = distance_inverse_closed_form_exact(inst.tree)
    l = build_laplacian_exact(inst.graph)
    for beta in DEFAULT_BETAS:
        p = d_inv - Fraction(beta) * l
        inv = inverse(p)
        assert np.array_equal(inv, gauss_jordan_oracle(p))
        assert_exact_inverse(p, inv)


@st.composite
def symmetric_rationals(draw, max_n=6):
    """(A, kind): A = C'C + qI with q > 0 (definite), C'C with C of fewer
    rows than columns (semidefinite and singular), or (C + C')/2 (any)."""
    n = draw(st.integers(1, max_n))
    kind = draw(st.sampled_from(["definite", "semidefinite", "any"]))
    rows = n + 1 if kind == "definite" else n - 1 if kind == "semidefinite" else n
    c = _matrix(draw(st.lists(ENTRIES, min_size=rows * n, max_size=rows * n)), rows, n)
    if kind == "any":
        return (c + c.T) * F(1, 2), kind
    a = c.T @ c
    if kind == "definite":
        q = draw(st.builds(Fraction, st.integers(1, 10), st.integers(1, 1000)))
        a = a + q * np.eye(n, dtype=int)
    return a, kind


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(symmetric_rationals())
def test_is_pd_matches_the_fraction_pivot_oracle(case):
    a, kind = case
    a = ex.rat_matrix(a.tolist())
    got = ex.rat_is_pd(a)
    assert got == pd_oracle(a)
    if kind != "any":
        assert got == (kind == "definite")


@pytest.mark.parametrize("a, ok", [
    (np.empty((0, 0), dtype=object), True),
    ([[F(1, 3)]], True),
    ([[0]], False),
    ([[F(-1, 2)]], False),
    ([[0, 0], [0, 1]], False),              # a zero leading minor
    ([[1, 1], [1, 1]], False),              # singular: last minor zero
    ([[2, 1], [1, F(1, 2)]], False),
    ([[2, 1], [1, F(501, 1000)]], True),
    ([[1, 2], [2, 1]], False),              # indefinite
])
def test_is_pd_small_cases(a, ok):
    assert ex.rat_is_pd(a) is ok
