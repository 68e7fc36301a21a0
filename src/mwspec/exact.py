"""Exact rational matrices: numpy object arrays of Fraction, and integer
matrices over a common denominator.

Used for the bit-exact golden path: entries of the worked 4-vertex example
have denominators up to 612184 and intermediate elimination values grow well
beyond 64 bits. Matrices go in as arbitrary-precision Fractions (or Python
ints); the eliminations run on Python ints: each row is scaled by the lcm
of its denominators, and Bareiss's fraction-free elimination (Math. Comp. 22,
1968) keeps every intermediate an exact minor, with no gcd per operation.
An inverse comes out as a pair (x, d), an object array x of Python ints and
its denominator d: the exact matrix is x / d. `as_fractions` views a pair as
Fractions, for callers that compare Fractions; `rel_error` rounds a pair to
floats by one correctly rounded int / int per entry, with no Fraction built.
numpy's `+`, `-`, `*`, `@` and `.T` work on these arrays entry by entry;
only the eliminations below are written out.

`PerturbedInverse` gets F(beta) = (D^{-1} - beta L)^{-1} from a distance
matrix D and a Laplacian L alone, as (I - beta D L)^{-1} D: every row of
I - beta L D is made integer with only its own denominators, so the
elimination's numbers stay far shorter than those of D^{-1} - beta L scaled
row by row.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction

import numpy as np

from .errors import ConfigError, InstanceSyntaxError, SingularMatrixError

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


def rat_matrix(rows) -> RatMatrix:
    """Object array of Fractions from rows of Python ints, floats or Fractions."""
    return np.array([[Fraction(x) for x in row] for row in rows], dtype=object)


def _scaled_rows(a: np.ndarray) -> tuple[list[list[int]], list[int]]:
    """Row i of `a` (Python ints and Fractions) times c_i, the lcm of its
    denominators, as a list of Python ints; and the c_i."""
    rows, scales = [], []
    for row in a:
        c = math.lcm(*(x.denominator for x in row))
        rows.append([x.numerator * (c // x.denominator) for x in row])
        scales.append(c)
    return rows, scales


def integer_matrix(a) -> tuple[np.ndarray, int]:
    """`a` (Python ints and Fractions) as a pair (e a, e), e the lcm of all
    its denominators: e a is an object array of Python ints."""
    a = np.asarray(a, dtype=object)
    e = math.lcm(*(x.denominator for x in a.flat))
    return np.frompyfunc(lambda x: x.numerator * (e // x.denominator), 1, 1)(a), e


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


def rational_invert(a, b=None) -> tuple[np.ndarray, int]:
    """Exact A^{-1}, or A^{-1} B when b is given, by fraction-free
    Gauss-Jordan elimination over Python ints, as a pair (x, d): an object
    array x of Python ints and a nonzero int d with A^{-1} (B) = x / d.

    Entries are Python ints or Fractions. Row i of [A | I] is scaled by the
    lcm c_i of its denominators. The pivot is the first nonzero entry at or
    below the diagonal, swapped in. A row swap also swaps the two rows'
    columns of the right half, so that before step k the right half is
    nonzero only in its first k columns and on its diagonal, and step k
    rewrites columns k+1..n+k alone: the columns left of them are settled.
    At the end the left half is d I, d the last pivot, and the right half
    d A^{-1} with its columns permuted: the pair is (d A^{-1}, d). With b,
    that integer d A^{-1} times e B, e the lcm of B's denominators, is
    d e A^{-1} B: the pair is (d e A^{-1} B, d e). d is the last pivot, and
    may be negative.
    """
    a = np.asarray(a, dtype=object)
    n = len(a)
    if a.shape != (n, n):
        raise SingularMatrixError("matrix is not square")
    if b is not None:
        b = np.asarray(b, dtype=object)
        if b.ndim != 2 or len(b) != n:
            raise ConfigError(f"right-hand side of shape {b.shape} for a {n} x {n} matrix")
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
    x = np.empty((n, n), dtype=object)
    x[:, perm] = [row[n:] for row in m]
    if b is None:
        return x, prev
    ints, e = integer_matrix(b)
    return x @ ints, prev * e


def as_fractions(x, d) -> RatMatrix:
    """The Fractions x / d of an integer array x over d, a nonzero int or an
    integer array that broadcasts against x (a column of row denominators):
    each in lowest terms with a positive denominator, whatever d's sign."""
    return np.frompyfunc(Fraction, 2, 1)(np.asarray(x, dtype=object),
                                          np.asarray(d, dtype=object))


class PerturbedInverse:
    """F(beta) = (D^{-1} - beta L)^{-1} of a symmetric D and L, from D and L
    alone: D^{-1} - beta L = D^{-1} (I - beta D L), so F(beta) is
    (I - beta D L)^{-1} D, and F(0) is D.

    What does not depend on beta is built once, in Python ints: dd D, dd the
    lcm of D's denominators; the rows l_i = c_i L_i of L, each times the lcm
    c_i of its denominators; and LD = l @ dd D.
    """

    def __init__(self, d: RatMatrix, l: RatMatrix):
        self.d_int, self.dd = integer_matrix(d)
        rows, self.scales = _scaled_rows(l)
        self.ld = (np.array(rows, dtype=object) @ self.d_int).tolist()

    def at(self, beta) -> tuple[np.ndarray, np.ndarray | int]:
        """F(beta) for beta = b_n / b_d >= 0, as a pair (x, q): an integer
        matrix x and positive denominators q, one per row (a column), with
        F = x / q. F(0) = D is (dd D, dd).

        Row i of I - beta L D times c_i dd b_d is the integer row
        a_i = c_i dd b_d e_i - b_n LD_i; divided by its content g_i it is
        s_i (I - beta L D)_i with s_i = c_i dd b_d / g_i. With A the matrix of
        those rows, A' = (I - beta D L) S, so F = S (A')^{-1} dd D / dd, and
        F_ij = c_i b_d Y_ij / g_i for Y = (A')^{-1} dd D = y / det: row i of
        F is c_i b_d y_i over g_i det. The sign of det goes to the numerators,
        so that every q_i is positive.
        """
        if not beta:
            return self.d_int, self.dd
        bn, bd = beta.as_integer_ratio()
        rows, factors, contents = [], [], []
        for i, (ld, c) in enumerate(zip(self.ld, self.scales)):
            row = [-bn * x for x in ld]
            row[i] += c * self.dd * bd
            g = math.gcd(*row) or 1      # a zero row is singular: the elimination says so
            rows.append([x // g for x in row])
            factors.append(c * bd)
            contents.append(g)
        y, det = rational_invert(list(zip(*rows)), self.d_int)
        sign = 1 if det > 0 else -1
        return (y * np.array([[sign * f] for f in factors], dtype=object),
                np.array([[g * abs(det)] for g in contents], dtype=object))


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


def round_ratio(num, den) -> np.ndarray:
    """The floats nearest num / den, for integer arrays or ints num and
    den > 0 that broadcast. Each entry is one int / int, which Python rounds
    correctly: the bits float(Fraction(num, den)) has, subnormals included,
    and the same OverflowError past float's range. No Fraction is built."""
    return (np.asarray(num, dtype=object) / np.asarray(den, dtype=object)).astype(float)


def rel_error(x: np.ndarray, num, den) -> float:
    """max |x - a'| / max |a'| of a float matrix x against the exact
    a = num / den, a' the correctly rounded a: how far a float route lands
    from the exact one, rounded by `round_ratio`."""
    want = round_ratio(num, den)
    return float(np.abs(x - want).max()) / float(np.abs(want).max())
