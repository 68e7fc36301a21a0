"""Count, for every check row of tools/report_set.py, how many noise draws
flip its verdict: the `near` column of tests/verdict_ledger.txt.

A draw replaces each report's bundle, right after build_matrices, by D^{-1}
and L scaled entrywise by 1 + 1e-13 * (R + R')/2, R uniform on [-1, 1] from
np.random.default_rng(seed), a fresh generator per bundle, R of D^{-1} drawn
first. A row flips when its (id, beta, pass, skipped, warning) differs from
the unperturbed report's.

    python tools/ledger_near.py            # seeds 0-4
    python tools/ledger_near.py 0 39       # seeds 0-39

prints one line per row, `line id beta flips`, in the ledger's row order,
then the number of draws.
"""

from __future__ import annotations

import dataclasses
import importlib.util
import signal
import sys
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
spec = importlib.util.spec_from_file_location("report_set", TOOLS / "report_set.py")
report_set = importlib.util.module_from_spec(spec)
spec.loader.exec_module(report_set)     # pins one BLAS thread and puts src/ on the path

import numpy as np  # noqa: E402

from mwspec import verifier  # noqa: E402
from mwspec.operators import BlockMatrix  # noqa: E402

NOISE = 1e-13


def rows():
    """Per report line, its rows as (id, beta, pass, skipped, warning)."""
    return [[(c.check_id, c.beta, c.passed, c.skipped, c.warning) for c in r.checks]
            for r in report_set.reports()]


def perturbed_rows(seed: int):
    """rows() with every bundle perturbed by the draw of this seed."""
    build = verifier.build_matrices

    def noisy_build(inst, corrupt=None):
        mats = build(inst, corrupt)
        rng = np.random.default_rng(seed)

        def noisy(a: BlockMatrix) -> BlockMatrix:
            r = rng.uniform(-1.0, 1.0, a.array.shape)
            with np.errstate(all="ignore"):
                return BlockMatrix(a.n, a.s, a.array * (1.0 + NOISE * (r + r.T) / 2.0))

        return dataclasses.replace(mats, d_inv=noisy(mats.d_inv), l=noisy(mats.l))

    verifier.build_matrices = noisy_build
    try:
        return rows()
    finally:
        verifier.build_matrices = build


def flips(first: int, last: int):
    """Per report line, each row with the number of draws, seeds first to
    last, that flip it."""
    base = rows()
    counts = [[0] * len(line) for line in base]
    for seed in range(first, last + 1):
        for k, (want, got) in enumerate(zip(base, perturbed_rows(seed))):
            for i, (a, b) in enumerate(zip(want, got)):
                counts[k][i] += a != b
    return [list(zip(line, c)) for line, c in zip(base, counts)]


def main(argv):
    first, last = (int(argv[0]), int(argv[1])) if argv else (0, 4)
    for k, line in enumerate(flips(first, last), start=1):
        for (cid, beta, *_), count in line:
            print(f"{k} {cid} {'-' if beta is None else beta} {count}")
    print(f"# draws: seeds {first}-{last}")


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)     # `| head` ends it quietly
    main(sys.argv[1:])
