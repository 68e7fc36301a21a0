"""Exact rational matrices: numpy object arrays of Fraction.

Used for the bit-exact golden path: entries of the worked 4-vertex example
have denominators up to 612184 and intermediate elimination values grow well
beyond 64 bits. Matrices go in and come out as arbitrary-precision Fractions;
the eliminations in between run on Python ints: each row is scaled by the lcm
of its denominators, and Bareiss's fraction-free elimination (Math. Comp. 22,
1968) keeps every intermediate an exact minor, with no gcd per operation.
numpy's `+`, `-`, `*`, `@` and `.T` work on these arrays entry by entry;
only the eliminations below are written out.
"""

from __future__ import annotations

import math
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


def _scaled_rows(a: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Row i of `a` times c_i, the lcm of its denominators, as a list of
    Python ints; and the c_i."""
    rows, scales = [], []
    for row in a:
        row = [Fraction(x) for x in row]
        c = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (c // x.denominator) for x in row])
        scales.append(c)
    return rows, scales


def _bareiss_step(m: list[list[int]], k: int, prev: int, rows, hi: int):
    """Bareiss's step k on the integer rows m, in place: columns k+1..hi-1 of
    each of `rows` become (p x - f y) // prev, with p = m[k][k], f the row's
    entry in column k, y the pivot row's entry and prev the last step's pivot
    (1 at k = 0). The division is exact: each result is a minor of the
    starting rows."""
    p, pivot = m[k][k], m[k][k + 1:hi]
    for i in rows:
        row = m[i]
        f = row[k]
        row[k + 1:hi] = [(p * x - f * y) // prev for x, y in zip(row[k + 1:hi], pivot)]


def rational_invert(a) -> RatMatrix:
    """Exact inverse by fraction-free Gauss-Jordan elimination over Python ints.

    Row i of [A | I] is scaled by the lcm c_i of its denominators. The pivot
    is the first nonzero entry at or below the diagonal, swapped in. A row
    swap also swaps the two rows' columns of the right half, so that before
    step k the right half is nonzero only in its first k columns and on its
    diagonal, and step k rewrites columns k+1..n+k alone: the columns left
    of them are settled. At the end the left half is d I, d the last pivot,
    and the right half d A^{-1} with its columns permuted, so each entry of
    the inverse is one Fraction(x, d).
    """
    a = np.asarray(a, dtype=object)
    n = len(a)
    if a.shape != (n, n):
        raise SingularMatrixError("matrix is not square")
    m, scales = _scaled_rows(a)
    for i, (row, c) in enumerate(zip(m, scales)):
        row += [0] * n
        row[n + i] = c
    perm = list(range(n))      # column j of the right half is A^{-1}'s column perm[j]
    prev = 1
    for k in range(n):
        r = next((i for i in range(k, n) if m[i][k]), None)
        if r is None:
            raise SingularMatrixError(f"no nonzero pivot in column {k}")
        if r != k:
            m[k], m[r] = m[r], m[k]
            for row in (m[k], m[r]):
                row[n + k], row[n + r] = row[n + r], row[n + k]
            perm[k], perm[r] = perm[r], perm[k]
        # a row below the pivot has its own diagonal entry right of the
        # step's columns, where the pivot row is zero: it only scales
        p = m[k][k]
        for i in range(k + 1, n):
            m[i][n + i] = m[i][n + i] * p // prev
        _bareiss_step(m, k, prev, [i for i in range(n) if i != k], n + k + 1)
        prev = p
    inv = np.empty((n, n), dtype=object)
    inv[:, perm] = [[Fraction(x, prev) for x in row[n:]] for row in m]
    return inv


def rat_is_pd(a) -> bool:
    """Exact positive definiteness of a symmetric matrix.

    Bareiss's elimination without row exchanges on the row-scaled integers
    meets as its k-th pivot the k-th leading principal minor times the
    positive c_1 ... c_k. A symmetric matrix is positive definite exactly
    when every leading principal minor is positive (Sylvester's criterion).
    """
    m, _ = _scaled_rows(np.asarray(a, dtype=object))
    n = len(m)
    prev = 1
    for k in range(n):
        if m[k][k] <= 0:
            return False
        _bareiss_step(m, k, prev, range(k + 1, n), n)
        prev = m[k][k]
    return True


def rat_to_float(a) -> np.ndarray:
    # float(Fraction) divides numerator by denominator, correctly rounded
    return np.asarray(a, dtype=object).astype(float)
