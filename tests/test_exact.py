from fractions import Fraction

import numpy as np
import pytest

from mwspec import exact as ex
from mwspec.errors import InstanceSyntaxError, SingularMatrixError


def F(p, q=1):
    return Fraction(p, q)


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
        assert ex.parse_rational(ex.format_rational(f)) == f


def test_invert_identity():
    eye = ex.rat_matrix(np.eye(3, dtype=int).tolist())
    assert np.array_equal(ex.rational_invert(eye), eye)


def test_invert_involution():
    swap = ex.rat_matrix([[F(0), F(1)], [F(1), F(0)]])
    assert np.array_equal(ex.rational_invert(swap), swap)


def test_invert_times_original_is_identity():
    import random

    rng = random.Random(5)
    for _ in range(10):
        n = rng.randint(1, 6)
        a = ex.rat_matrix([[F(rng.randint(-9, 9), rng.randint(1, 9))
                            for _ in range(n)] for _ in range(n)])
        try:
            inv = ex.rational_invert(a)
        except SingularMatrixError:
            continue
        assert np.array_equal(a @ inv, np.eye(n, dtype=int))
        assert np.array_equal(inv @ a, np.eye(n, dtype=int))


def test_invert_singular_raises():
    with pytest.raises(SingularMatrixError):
        ex.rational_invert([[F(1), F(2)], [F(2), F(4)]])


def test_invert_needs_pivoting():
    a = ex.rat_matrix([[F(0), F(2)], [F(3), F(1)]])
    inv = ex.rational_invert(a)
    assert np.array_equal(a @ inv, np.eye(2, dtype=int))

