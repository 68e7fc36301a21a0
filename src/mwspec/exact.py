"""Exact rational matrix arithmetic on nested lists of Fraction.

Used for the bit-exact golden path: entries of the worked 4-vertex example
have denominators up to 612184 and intermediate elimination values grow well
beyond 64 bits, so everything here runs on arbitrary-precision Fractions.
"""

from __future__ import annotations

import re
from fractions import Fraction

import numpy as np

from .errors import InstanceSyntaxError, SingularMatrixError

RatMatrix = list[list[Fraction]]

_RATIONAL_RE = re.compile(r"^(-?\d+)(?:/([1-9]\d*))?$")


def parse_rational(text: str) -> Fraction:
    """Parse "p/q" (or "p") in lowest terms with positive denominator."""
    m = _RATIONAL_RE.match(text.strip())
    if m is None:
        raise InstanceSyntaxError(f"bad rational literal: {text!r}")
    p = int(m.group(1))
    q = int(m.group(2)) if m.group(2) else 1
    f = Fraction(p, q)
    if f.numerator != p or f.denominator != q:
        raise InstanceSyntaxError(f"rational not in lowest terms: {text!r}")
    return f


def format_rational(f: Fraction) -> str:
    if f.denominator == 1:
        return str(f.numerator)
    return f"{f.numerator}/{f.denominator}"


def rat_zeros(rows: int, cols: int) -> RatMatrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def rat_identity(n: int) -> RatMatrix:
    out = rat_zeros(n, n)
    for i in range(n):
        out[i][i] = Fraction(1)
    return out


def rat_add(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    return [[x + y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rat_sub(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def rat_scale(c: Fraction, a: RatMatrix) -> RatMatrix:
    return [[c * x for x in row] for row in a]


def rat_transpose(a: RatMatrix) -> RatMatrix:
    return [list(col) for col in zip(*a)]


def rat_matmul(a: RatMatrix, b: RatMatrix) -> RatMatrix:
    bt = rat_transpose(b)
    return [[sum(x * y for x, y in zip(row, col)) for col in bt] for row in a]


def rational_invert(a: RatMatrix) -> RatMatrix:
    """Exact inverse by Gauss-Jordan elimination with nonzero pivoting."""
    n = len(a)
    if any(len(row) != n for row in a):
        raise SingularMatrixError("matrix is not square")
    # augmented [A | I], mutated in place
    aug = [list(row) + [Fraction(int(i == j)) for j in range(n)]
           for i, row in enumerate(a)]
    for col in range(n):
        pivot_row = next((r for r in range(col, n) if aug[r][col] != 0), None)
        if pivot_row is None:
            raise SingularMatrixError(f"no nonzero pivot in column {col}")
        if pivot_row != col:
            aug[col], aug[pivot_row] = aug[pivot_row], aug[col]
        piv = aug[col][col]
        aug[col] = [x / piv for x in aug[col]]
        for r in range(n):
            if r != col and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[col])]
    return [row[n:] for row in aug]


def rat_is_pd(a: RatMatrix) -> bool:
    """Exact positive definiteness of a symmetric matrix.

    A symmetric matrix is positive definite exactly when Gaussian elimination
    without row exchanges meets only positive pivots.
    """
    a = [list(row) for row in a]
    n = len(a)
    for col in range(n):
        piv = a[col][col]
        if piv <= 0:
            return False
        for r in range(col + 1, n):
            f = a[r][col] / piv
            if f != 0:
                a[r] = [x - f * y for x, y in zip(a[r], a[col])]
    return True


def rat_to_float(a: RatMatrix) -> np.ndarray:
    return np.array([[float(x) for x in row] for row in a], dtype=float)


def rat_equal(a: RatMatrix, b: RatMatrix) -> bool:
    return len(a) == len(b) and all(ra == rb for ra, rb in zip(a, b))
