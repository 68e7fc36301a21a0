"""Embedded 4-vertex worked example and its golden reproduction checks.

Tree: edges (1,2), (2,3), (2,4) with weights W1, W2, W3.
Graph: edges (1,2), (2,3), (1,3), (3,4) with weights S1, S2, S3, S4.
All weights are 2x2 symmetric PD integer matrices, so the whole pipeline
runs bit-exact on rationals; the expected matrices below are frozen.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import exact as ex
from .exact import parse_rational, rat_matrix
from .linalg import REL_RESIDUAL, Inertia, inertia_of
from .model import Instance, MatrixWeightedGraph, MatrixWeightedTree
from .verifier import build_matrices, verify_exact_consistency


W1 = [[8, 6], [6, 5]]
W2 = [[1, 1], [1, 5]]
W3 = [[5, 0], [0, 5]]
S1 = [[2, 0], [0, 2]]
S2 = [[8, 0], [0, 8]]
S3 = [[5, -2], [-2, 1]]
S4 = [[5, -3], [-3, 5]]


def golden_instance() -> Instance:
    tree = [W1, W2, W3]
    graph = [S1, S3, S2, S4]
    return Instance(
        MatrixWeightedTree(4, 2, [(0, 1), (1, 2), (1, 3)], np.array(tree, dtype=float), tree),
        MatrixWeightedGraph(4, 2, [(0, 1), (0, 2), (1, 2), (2, 3)],
                            np.array(graph, dtype=float), graph))


EXPECTED_D = [
    [0, 0, 8, 6, 9, 7, 13, 6],
    [0, 0, 6, 5, 7, 10, 6, 10],
    [8, 6, 0, 0, 1, 1, 5, 0],
    [6, 5, 0, 0, 1, 5, 0, 5],
    [9, 7, 1, 1, 0, 0, 6, 1],
    [7, 10, 1, 5, 0, 0, 1, 10],
    [13, 6, 5, 0, 6, 1, 0, 0],
    [6, 10, 0, 5, 1, 10, 0, 0],
]

_L_ROWS = [
    "3/2 2 -1/2 0 -1 -2 0 0",
    "2 11/2 0 -1/2 -2 -5 0 0",
    "-1/2 0 5/8 0 -1/8 0 0 0",
    "0 -1/2 0 5/8 0 -1/8 0 0",
    "-1 -2 -1/8 0 23/16 35/16 -5/16 -3/16",
    "-2 -5 0 -1/8 35/16 87/16 -3/16 -5/16",
    "0 0 0 0 -5/16 -3/16 5/16 3/16",
    "0 0 0 0 -3/16 -5/16 3/16 5/16",
]

_F_ROWS = [
    "3419893/612184 2467937/612184 3525525/612184 2430433/612184"
    " 3944573/612184 2285161/612184 4731635/612184 1962623/612184",
    "2467937/612184 1957213/306092 2255293/612184 935945/153046"
    " 2218981/612184 1023631/153046 1853663/612184 2458795/306092",
    "3525525/612184 2255293/612184 3037701/612184 1985813/612184"
    " 3651821/612184 2212445/612184 4430931/612184 1803363/612184",
    "2430433/612184 935945/153046 1985813/612184 1566953/306092"
    " 2093885/612184 1966725/306092 1746783/612184 1159859/153046",
    "3944573/612184 2218981/612184 3651821/612184 2093885/612184"
    " 3655573/612184 2328197/612184 4622251/612184 1831995/612184",
    "2285161/612184 1023631/153046 2212445/612184 1966725/306092"
    " 2328197/612184 2026753/306092 1884375/612184 1242045/153046",
    "4731635/612184 1853663/612184 4430931/612184 1746783/612184"
    " 4622251/612184 1884375/612184 3647621/612184 2294033/612184",
    "1962623/612184 2458795/306092 1803363/612184 1159859/153046"
    " 1831995/612184 1242045/153046 2294033/612184 1968213/306092",
]


def _parse_rows(rows) -> ex.RatMatrix:
    return rat_matrix([[parse_rational(tok) for tok in row.split()] for row in rows])


def expected_l() -> ex.RatMatrix:
    return _parse_rows(_L_ROWS)


def expected_f() -> ex.RatMatrix:
    return _parse_rows(_F_ROWS)


def expected_d_exact() -> ex.RatMatrix:
    return rat_matrix(EXPECTED_D)


EXPECTED_INERTIA = Inertia(6, 0, 2)


@dataclass
class GoldenResult:
    ok: bool
    mismatches: list[str]


def _compare_exact(name: str, got: ex.RatMatrix, want: ex.RatMatrix,
                   mismatches: list[str]):
    bad = np.argwhere(got != want)
    if len(bad):
        i, j = bad[0]
        mismatches.append(f"{name}[{i + 1},{j + 1}]: expected {want[i, j]}, "
                          f"got {got[i, j]}")


def run_golden() -> GoldenResult:
    """Reproduce the worked example: D, L, and F(1) = (D^{-1} - L)^{-1}, as
    bit-exact rationals, and the float pipeline against them within
    REL_RESIDUAL relative: float F(1) is EXACT-CONSISTENCY at beta = 1."""
    inst = golden_instance()
    m = build_matrices(inst)
    mismatches: list[str] = []

    _compare_exact("D", m.exact_operators()[0], expected_d_exact(), mismatches)
    _compare_exact("L", m.exact_operators()[1], expected_l(), mismatches)
    _compare_exact("F", ex.as_fractions(*m.exact_f(1.0)), expected_f(), mismatches)

    want_d = np.array(EXPECTED_D, dtype=float)
    if not np.array_equal(m.d.array, want_d):
        mismatches.append("D (float): integer entries not reproduced exactly")
    rel = ex.rel_error(m.l.array, *ex.integer_matrix(expected_l()))
    if rel > REL_RESIDUAL:
        mismatches.append(f"L (float): max relative error {rel:.3e}")
    check = verify_exact_consistency(m, 1.0)
    if not check.passed:
        mismatches.append(f"F (float): {check.check_id} fails, {check.evidence}")
    got_in = inertia_of(m.pencil(1.0).f.array)
    if got_in != EXPECTED_INERTIA:
        mismatches.append(
            f"inertia: expected {tuple(EXPECTED_INERTIA)}, got {tuple(got_in)}"
        )

    return GoldenResult(not mismatches, mismatches)
