"""The four workloads: inputs made from a seed, one timed round, and the
correctness gate applied to each round's outputs.

Every round of a run repeats the same inputs, so round times are samples of
one quantity and their median is meaningful.  mwspec sees only the
generated instances; the seed never reaches it except as instance content.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass

import numpy as np

# Called through their modules, so that a tracer's patches are seen here.
from mwspec import cli, model, verifier

PRELIMINARY_IDS = ("P1", "P2", "P3", "P4", "COL-SPACE", "COR2.8")
THEOREM_IDS = ("THM.i", "THM.ii", "THM.iii", "THM.iv", "THM.iv.haynsworth",
               "THM.v", "THM.vi", "THM.vi.gx")
# D has zero diagonal blocks, so block positive definiteness is only
# asserted for beta > 0; these two are the only checks allowed to skip.
SKIPPED_AT_BETA_ZERO = frozenset({"THM.vi", "THM.vi.gx"})
CLI_BETAS = (0.0, 0.5, 1.0, 10.0)      # `mwspec verify` default grid
RESIDUAL_LIMIT = 1e-8                  # DEFAULT_TOL.rel_residual


@dataclass
class Outcome:
    """One instance's verdict rows (check_id, beta, pass, skipped) and any
    reason it fails the gate."""

    rows: list
    problems: list


def corruption(s: int) -> tuple[int, int, float]:
    """The negative control: scale the first entry of block (1, 2) of D.
    (Entry (1, 2) itself lies in the zero diagonal block when s > 1.)"""
    return 1, s + 1, 1.5


def expected_rows(betas, exact: bool) -> Counter:
    want = [(cid, None, False) for cid in PRELIMINARY_IDS]
    for beta in betas:
        want += [(cid, beta, beta == 0 and cid in SKIPPED_AT_BETA_ZERO)
                 for cid in THEOREM_IDS]
        want.append(("FM-nullity", beta, False))
        if exact:
            want.append(("EXACT-CONSISTENCY", beta, False))
    return Counter(want)


def judge(rows, betas, exact: bool) -> Outcome:
    """Gate one report: the exact multiset of check ids, every one passed."""
    problems = []
    got = Counter((cid, beta, skipped) for cid, beta, _, skipped in rows)
    want = expected_rows(betas, exact)
    if got != want:
        problems.append(f"check rows differ: missing {sorted(want - got, key=str)}"
                        f" unexpected {sorted(got - want, key=str)}")
    failed = sorted({cid for cid, _, passed, _ in rows if not passed})
    if failed:
        problems.append(f"checks failed: {failed}")
    return Outcome(rows, problems)


def report_rows(report) -> list:
    return [(c.check_id, c.beta, c.passed, c.skipped) for c in report.checks]


def crashed(exc: Exception) -> Outcome:
    return Outcome([], [f"raised {type(exc).__name__}: {exc}"])


def digest(outcomes) -> str:
    """sha256 over every verdict row of a round, evidence values excluded."""
    rows = [row for o in outcomes for row in o.rows]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


class Workload:
    """Base: subclasses make inputs in __init__ and implement run_round,
    which is timed, and check_round, which is not."""

    name = ""
    root = ""            # traced function whose call starts a new instance
    required = ()        # fnmatch patterns of traced names a traced run must hit
    shares = ()          # (names, low, high): inclusive share of round time

    def __init__(self, seed: int, toy: bool, corrupt: bool, workdir: str):
        self.seed, self.toy, self.corrupt, self.workdir = seed, toy, corrupt, workdir

    def warm_up(self):
        raise NotImplementedError

    def run_round(self):
        raise NotImplementedError

    def check_round(self, raw) -> list[Outcome]:
        raise NotImplementedError


_VERIFY_REQUIRED = (
    "verifier.build_matrices", "verifier.verify_preliminaries",
    "verifier.verify_theorem", "verifier.verify_fiedler_markham",
    "verifier.verify_instance",
    "perturbation.perturbed_pencil", "perturbation.principal_block_submatrix",
    "perturbation.haynsworth_check", "perturbation.gx_matrix",
    "linalg.inertia_of", "linalg.rank_of", "linalg.is_pd_quadratic_form",
    "linalg.pinv_psd", "lapack.*",
    "operators.build_distance_matrix", "operators.distance_inverse_closed_form",
    "operators.build_laplacian", "operators.distance_from_laplacian_pinv",
    "kernels.distance_fill",
)


class VerifyLarge(Workload):
    name = "verify-large"
    root = "verifier.verify_instance"
    required = _VERIFY_REQUIRED
    shares = ((("verifier.verify_theorem", "verifier.verify_fiedler_markham"), 0.5, 1.0),
              (("kernels.distance_fill",), 0.0, 0.05))
    betas = [0.0, 1.0]

    def __init__(self, *args):
        super().__init__(*args)
        s, sizes = (2, (6, 8)) if self.toy else (3, (60, 80))
        self.instances = [model.random_instance(n, s, self.seed * 1000 + n, n)
                          for n in sizes]

    def warm_up(self):
        verifier.verify_instance(model.random_instance(5, 3, self.seed, 2), self.betas)

    def run_round(self):
        out = []
        for k, inst in enumerate(self.instances):
            corrupt = corruption(inst.s) if self.corrupt and k == 0 else None
            try:
                out.append(verifier.verify_instance(inst, self.betas, corrupt=corrupt))
            except Exception as exc:  # a crash is a failed instance, not a dead run
                out.append(exc)
        return out

    def check_round(self, raw):
        return [crashed(r) if isinstance(r, Exception)
                else judge(report_rows(r), self.betas, exact=False) for r in raw]


class CampaignSmall(Workload):
    name = "campaign-small"
    root = "model.random_instance"
    required = tuple(n for n in _VERIFY_REQUIRED
                     if not n.startswith(("operators.", "kernels."))) + (
        "model.random_instance", "model.instance_hash")

    def __init__(self, *args):
        super().__init__(*args)
        # One campaign per cell keeps the acceptance distribution (n and s
        # uniform and independent) but fixes its (n, s) mix, so the seed
        # changes instance content and not how much work a round holds.
        n_hi, s_hi = (4, 2) if self.toy else (12, 4)
        self.configs = [
            verifier.CampaignConfig(count=1, n_range=(n, n), s_range=(s, s),
                                    seed=self.seed * 10007 + 100 * n + s)
            for n in range(2, n_hi + 1) for s in range(1, s_hi + 1)
        ]

    def warm_up(self):
        # a fixed cell: a size drawn from the seed would make set-up time vary
        verifier.run_campaign(verifier.CampaignConfig(count=1, n_range=(5, 5),
                                                      s_range=(2, 2), seed=self.seed))

    def run_round(self):
        out = []
        for cfg in self.configs:
            try:
                out.extend(verifier.run_campaign(cfg))
            except Exception as exc:  # a crash is a failed instance, not a dead run
                out.append(exc)
        if self.corrupt:
            n, s = 4, 2
            out[0] = verifier.verify_instance(model.random_instance(n, s, self.seed, 1),
                                              [0.0, 1.0], corrupt=corruption(s))
        return out

    def check_round(self, raw):
        return [crashed(r) if isinstance(r, Exception)
                else judge(report_rows(r), r.betas, exact=False) for r in raw]


class AssembleWide(Workload):
    name = "assemble-wide"
    root = "verifier.build_matrices"
    required = ("verifier.build_matrices", "kernels.distance_fill",
                "operators.build_distance_matrix",
                "operators.distance_inverse_closed_form", "operators.build_laplacian")
    shares = ((("kernels.distance_fill",), 0.5, 1.0),)

    def __init__(self, *args):
        super().__init__(*args)
        n = 40 if self.toy else 600
        self.instance = model.random_instance(n, 2, self.seed, n)
        self.vectors = np.random.default_rng(self.seed).standard_normal((2 * n, 4))

    def warm_up(self):
        verifier.build_matrices(model.random_instance(5, 2, self.seed, 2))

    def run_round(self):
        try:
            return [verifier.build_matrices(self.instance,
                                            corruption(2) if self.corrupt else None)]
        except Exception as exc:  # a crash is a failed instance, not a dead run
            return [exc]

    def check_round(self, raw):
        out = []
        for m in raw:
            if isinstance(m, Exception):
                out.append(crashed(m))
                continue
            # the closed-form inverse is an independent route to D
            d, d_inv, x = m.d.array, m.d_inv.array, self.vectors
            residual = float(np.abs(d_inv @ (d @ x) - x).max() / np.abs(x).max())
            rows = [("D-symmetric", None, bool(np.array_equal(d, d.T)), False),
                    ("D-inverse-residual", None, residual <= RESIDUAL_LIMIT, False),
                    ("shape", None, d.shape == d_inv.shape == m.l.array.shape, False)]
            problems = [f"{cid} failed (residual {residual:.3e})"
                        for cid, _, ok, _ in rows if not ok]
            out.append(Outcome(rows, problems))
        return out


class ExactRational(Workload):
    name = "exact-rational"
    root = "cli.main"
    required = ("cli.main", "model.parse_instance", "exact.rational_invert",
                "exact.rat_to_float", "verifier.verify_exact_consistency",
                "operators.*_exact")
    shares = ((("exact.rational_invert",), 0.5, 1.0),)

    def __init__(self, *args):
        super().__init__(*args)
        # two instances per (n, s): the cost of exact arithmetic varies from
        # instance to instance, and a round must hold the same work whatever
        # the seed
        sizes = ((3, 2), (4, 2)) if self.toy else ((8, 2), (9, 2), (10, 2), (8, 3)) * 2
        self.paths, self.argvs = [], []
        for k, (n, s) in enumerate(sizes):
            path = self._write(f"rational-{k}.json", n, s, self.seed * 1000 + k)
            argv = ["verify", "--in", path, "--out", path + ".report"]
            if self.corrupt and k == 0:
                argv += ["--corrupt-d", ",".join(map(str, corruption(s)))]
            self.paths.append(path)
            self.argvs.append(argv)

    def _write(self, name: str, n: int, s: int, seed: int) -> str:
        extra = min(n, (n - 1) * (n - 2) // 2)
        inst = model.random_instance(n, s, seed, extra, rational=True)
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(model.serialize_instance(inst))
        return path

    @staticmethod
    def _verify(argv) -> int:
        with contextlib.redirect_stdout(io.StringIO()):
            return cli.main(argv)

    def warm_up(self):
        path = self._write("warm-up.json", 3, 2, self.seed)
        self._verify(["verify", "--in", path, "--out", path + ".report"])

    def run_round(self):
        out = []
        for argv in self.argvs:
            try:
                out.append(self._verify(argv))
            except Exception as exc:  # a crash is a failed instance, not a dead run
                out.append(exc)
        return out

    def check_round(self, raw):
        out = []
        for path, code in zip(self.paths, raw):
            if isinstance(code, Exception):
                out.append(crashed(code))
                continue
            try:
                with open(path + ".report") as fh:
                    report = json.load(fh)
                os.unlink(path + ".report")
            except OSError as exc:
                out.append(Outcome([], [f"exit code {code}, no report: {exc}"]))
                continue
            rows = [(c["id"], c.get("beta"), c["pass"], c.get("skipped", False))
                    for c in report["checks"]]
            outcome = judge(rows, CLI_BETAS, exact=True)
            if code != 0:
                outcome.problems.append(f"exit code {code}")
            out.append(outcome)
        return out


WORKLOADS = {w.name: w for w in (VerifyLarge, CampaignSmall, AssembleWide, ExactRational)}
