"""Exact rational matrices: numpy object arrays of Fraction.

Used for the bit-exact golden path: entries of the worked 4-vertex example
have denominators up to 612184 and intermediate elimination values grow well
beyond 64 bits, so everything here runs on arbitrary-precision Fractions.
numpy's `+`, `-`, `*`, `@` and `.T` work on these arrays entry by entry;
only the eliminations below are written out.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from .errors import InstanceSyntaxError, SingularMatrixError

RatMatrix = np.ndarray      # dtype=object, entries Fraction

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") in lowest terms with positive denominator."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise InstanceSyntaxError(f"bad rational literal: {text!r}")
    try:
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) else 1
    except ValueError as exc:   # past Python's integer digit limit
        raise InstanceSyntaxError(str(exc)) from exc
    f = Fraction(p, q)
    if f.numerator != p or f.denominator != q:
        raise InstanceSyntaxError(f"rational not in lowest terms: {text!r}")
    return f


def format_rational(f: Fraction) -> str:
    return str(f)       # "p/q", or "p" when the denominator is 1


def rat_matrix(rows) -> RatMatrix:
    """Object array of Fractions from rows of Python ints, floats or Fractions."""
    return np.array([[Fraction(x) for x in row] for row in rows], dtype=object)


def rational_invert(a) -> RatMatrix:
    """Exact inverse by Gauss-Jordan elimination with nonzero pivoting."""
    a = np.asarray(a, dtype=object)
    n = len(a)
    if a.shape != (n, n):
        raise SingularMatrixError("matrix is not square")
    # augmented [A | I], mutated in place
    aug = np.concatenate([a, np.eye(n, dtype=int).astype(object)], axis=1)
    for col in range(n):
        nonzero = np.flatnonzero(aug[col:, col] != 0)
        if not len(nonzero):
            raise SingularMatrixError(f"no nonzero pivot in column {col}")
        pivot_row = col + nonzero[0]
        if pivot_row != col:
            aug[[col, pivot_row]] = aug[[pivot_row, col]]
        # columns before `col` are already zero in the pivot row
        aug[col, col:] /= aug[col, col]
        rows = np.flatnonzero(aug[:, col] != 0)
        rows = rows[rows != col]
        aug[rows, col:] -= np.multiply.outer(aug[rows, col], aug[col, col:])
    return aug[:, n:]


def rat_is_pd(a) -> bool:
    """Exact positive definiteness of a symmetric matrix.

    A symmetric matrix is positive definite exactly when Gaussian elimination
    without row exchanges meets only positive pivots.
    """
    a = np.array(a, dtype=object)
    for col in range(len(a)):
        piv = a[col, col]
        if piv <= 0:
            return False
        f = a[col + 1:, col] / piv
        rows = np.flatnonzero(f != 0)
        a[col + 1 + rows, col:] -= np.multiply.outer(f[rows], a[col, col:])
    return True


def rat_to_float(a) -> np.ndarray:
    # float(Fraction) divides numerator by denominator, correctly rounded
    return np.asarray(a, dtype=object).astype(float)
