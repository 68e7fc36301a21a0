"""Print the verdict-comparison set: 71 verification reports, one sort-keyed
JSON line each, `VerificationReport.to_json()` without `wall_time`.

Two checkouts verify the same instances bit for bit exactly when their
outputs are byte-identical:

    python tools/report_set.py > change.jsonl
    (cd ../parent && python tools/report_set.py) > parent.jsonl
    cmp parent.jsonl change.jsonl

The set, in print order:
  - 30 random float instances, (n, s) in {(2,1), (3,2), (5,3), (8,2), (12,4)}
    x seeds 0-5, with min(seed, (n-1)(n-2)/2) extra graph edges, at the
    default betas (0, 1/2, 1, 10);
  - 5 random rational instances, RATIONAL_CASES with n - 2 extra edges, in
    mode both at the default betas;
  - the two instances of the benchmark's verify-large workload at its seed 1
    (n = 60 and 80, s = 3, instance seed 1000 + n, n extra edges) at beta 0
    and 1;
  - a 20-instance campaign at seed 5 and a 5-instance campaign at seed 13
    with weight eigenvalues in [1e-8, 1e8];
  - the edge set: the float 2- and 3-vertex paths of weight [[1e308]], the
    rational 3-vertex paths of weight 1/10^308 and 1/10^300 in mode both, a
    float 3-vertex path of unit weights at beta = 1e300, and the golden
    instance with D's entry (1, 3) scaled by 1.1;
  - a large-beta case: the instance of `mwspec gen --n 6 --s 2 --seed 3
    --extra-edges 2` at beta 3e6, 1e7 and 1e10, where float P(beta) is
    ill-conditioned enough for theorem checks to fail;
  - the golden instance in mode both at beta 100 and 1000, where the float
    F(beta) is 1.0e-12 and 1.8e-11 from the exact one, relative to its
    largest entry;
  - the float 3-vertex path of unit weights at beta 0, 1 and 1e300: the
    per-beta objects of one verify are built as one stack, and the pencil
    solve that raises at 1e300 must fail only that beta's rows.

A report added to the end of the set leaves the earlier lines as they were,
so `head` of a longer set still compares with a shorter one.
"""

from __future__ import annotations

import json
import os
import signal
import sys
from fractions import Fraction
from pathlib import Path

# before numpy loads: one BLAS thread, and mwspec from this checkout
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from mwspec.golden import golden_instance
from mwspec.model import (
    Instance,
    MatrixWeightedGraph,
    MatrixWeightedTree,
    WeightProfile,
    random_instance,
)
from mwspec.verifier import (
    DEFAULT_BETAS,
    CampaignConfig,
    run_campaign,
    verify_instance,
)

FLOAT_CELLS = ((2, 1), (3, 2), (5, 3), (8, 2), (12, 4))
RATIONAL_CASES = ((3, 1, 0), (4, 2, 1), (5, 2, 2), (6, 3, 3), (8, 2, 4))   # (n, s, seed)


def _path(n: int, x: float | Fraction) -> Instance:
    """Path 1-2-...-n, s = 1; every tree and graph edge weighs [[x]], exactly
    when x is a Fraction."""
    uv = [(i, i + 1) for i in range(n - 1)]
    weights = np.full((n - 1, 1, 1), float(x))
    exact = np.full((n - 1, 1, 1), x) if isinstance(x, Fraction) else None
    return Instance(MatrixWeightedTree(n, 1, uv, weights, exact),
                    MatrixWeightedGraph(n, 1, uv, weights, exact))


def reports():
    betas = list(DEFAULT_BETAS)
    for n, s in FLOAT_CELLS:
        for seed in range(6):
            extra = min(seed, (n - 1) * (n - 2) // 2)
            yield verify_instance(random_instance(n, s, seed, extra), betas, seed=seed)
    for n, s, seed in RATIONAL_CASES:
        inst = random_instance(n, s, seed, n - 2, rational=True)
        yield verify_instance(inst, betas, seed=seed, kernel_mode="both")
    for n in (60, 80):
        yield verify_instance(random_instance(n, 3, 1000 + n, n), [0.0, 1.0])
    yield from run_campaign(CampaignConfig(count=20, seed=5))
    yield from run_campaign(CampaignConfig(count=5, seed=13, n_range=(4, 8), s_range=(2, 3),
                                           profile=WeightProfile(1e-8, 1e8)))
    yield verify_instance(_path(2, 1e308), betas)
    yield verify_instance(_path(3, 1e308), betas)
    for digits in (308, 300):
        yield verify_instance(_path(3, Fraction(1, 10**digits)), betas, kernel_mode="both")
    yield verify_instance(_path(3, 1.0), [1e300])
    yield verify_instance(golden_instance(), betas, corrupt=(1, 3, 1.1))
    yield verify_instance(random_instance(6, 2, 3, 2), [3e6, 1e7, 1e10])
    yield verify_instance(golden_instance(), [100.0, 1000.0], kernel_mode="both")
    yield verify_instance(_path(3, 1.0), [0.0, 1.0, 1e300])


def main():
    for report in reports():
        obj = report.to_json()
        del obj["wall_time"]
        print(json.dumps(obj, sort_keys=True))


if __name__ == "__main__":
    signal.signal(signal.SIGPIPE, signal.SIG_DFL)     # `| head` ends it quietly
    main()
