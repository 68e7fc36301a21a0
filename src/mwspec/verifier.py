"""Bundles every preliminary and theorem check into a reproducible
verification run with a structured JSON-able report.

Check ids are a stable external contract:
  P1, P2, P3, P4, COL-SPACE, COR2.8,
  THM.i, THM.ii, THM.iii, THM.iv, THM.iv.haynsworth, THM.v,
  THM.vi, THM.vi.gx, FM-nullity, EXACT-CONSISTENCY.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MwspecError, NonFiniteError
from .exact import PerturbedInverse, rat_matrix, rel_error
from .linalg import (
    EIG_ZERO,
    NONZERO_FLOOR,
    REL_RESIDUAL,
    Inertia,
    inertia_of,
    inertia_of_spectrum,
    is_pd_quadratic_form,
    rank_of,
    sym_eigvals,
    zero_threshold,
)
from .model import Instance, WeightProfile, instance_hash, random_instance
from .operators import (
    BlockMatrix,
    build_distance_matrix,
    build_distance_matrix_exact,
    build_laplacian,
    build_laplacian_exact,
    build_U,
    distance_from_laplacian_pinv,
    distance_inverse_closed_form,
)
from .perturbation import (
    PerturbedPencil,
    bordered,
    gx_matrix,
    haynsworth_check,
    perturbed_pencil,
    principal_block_submatrix,
    require_beta,
)

ILL_CONDITIONED_WEIGHT = 1e6
DEFAULT_BETAS = (0.0, 0.5, 1.0, 10.0)


@dataclass
class CheckResult:
    check_id: str
    passed: bool
    beta: float | None = None
    skipped: bool = False
    warning: bool = False
    evidence: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        out = {"id": self.check_id, "pass": self.passed}
        if self.beta is not None:
            out["beta"] = self.beta
        if self.skipped:
            out["skipped"] = True
        if self.warning:
            out["warning"] = True
        out["evidence"] = self.evidence
        return out


@dataclass
class VerificationReport:
    instance_hash: str
    n: int
    s: int
    betas: list[float]
    seed: int | None
    kernel_mode: str
    checks: list[CheckResult]
    wall_time: float

    @property
    def summary(self) -> dict:
        passed = sum(1 for c in self.checks if c.passed and not c.skipped)
        skipped = sum(1 for c in self.checks if c.skipped)
        warnings = sum(1 for c in self.checks if c.warning and not c.passed)
        failed = len(self.checks) - passed - skipped - warnings
        return {"passed": passed, "failed": failed, "skipped": skipped,
                "warnings": warnings}

    @property
    def ok(self) -> bool:
        return self.summary["failed"] == 0

    def to_json(self) -> dict:
        return {
            "instance_hash": self.instance_hash,
            "n": self.n,
            "s": self.s,
            "betas": self.betas,
            "seed": self.seed,
            "kernel_mode": self.kernel_mode,
            "checks": [c.to_json() for c in self.checks],
            "summary": self.summary,
            "wall_time": self.wall_time,
        }


# a check body that overflows or makes a NaN raises FloatingPointError
_strict = functools.partial(np.errstate, over="raise", invalid="raise", divide="raise")
# what a check body may raise: a failing row, never a traceback
_FAILURES = (MwspecError, FloatingPointError)


def _guard(check_id: str, beta, fn) -> CheckResult:
    """Run a check body; any package error becomes a failing result."""
    try:
        with _strict():
            passed, evidence = fn()
    except _FAILURES as exc:
        evidence = {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(exc, (NonFiniteError, FloatingPointError)):
            evidence["non_finite"] = True     # no verdict: never a warning
        return CheckResult(check_id, False, beta, evidence=evidence)
    return CheckResult(check_id, bool(passed), beta, evidence=evidence)


def _rel(x: np.ndarray, ref: float) -> float:
    return float(np.abs(x).max(initial=0.0)) / max(1.0, ref)


def _null_compress(x: np.ndarray, n: int, s: int) -> np.ndarray:
    """B'XB, B = [(e_i - e_n) (x) I_s] (i < n) a basis of ker J, as blocks
    (X_ij - X_nj) - (X_in - X_nn): in that order, the bits of (B'X)B."""
    xb = x.reshape(n, s, n, s)
    btx = xb[:-1] - xb[-1:]
    return (btx[:, :, :-1] - btx[:, :, -1:]).reshape((n - 1) * s, (n - 1) * s)


@dataclass(frozen=True)
class DeletedBlocks:
    """In(P(alpha'_i)) of every vertex i, alpha' = all blocks but i, and the
    largest eigenvalue of each submatrix decomposed directly.

    route is "derived" (In(P) minus In(F_ii), confirmed by the sample),
    "direct" (In(P) has a zero or a derived count is negative) or
    "contradicted" (a sampled inertia differs from the derived one); on the
    last two every vertex is decomposed directly. On the derived route the
    inertias of the n - 2 vertices outside the sample are inferred, not
    measured.
    """

    inertia: np.ndarray          # (n, 3): n_minus, n_zero, n_plus per vertex
    route: str
    sampled: list[int]           # the 1-based vertices decomposed directly
    sampled_max: np.ndarray      # (len(sampled),)

    @property
    def inferred(self) -> int:
        """How many vertices' inertias were derived rather than measured."""
        return len(self.inertia) - len(self.sampled)


def _nearest_zero_threshold(w: np.ndarray) -> int:
    """Row of the stack of spectra w with the value nearest, in ratio, to its
    row's zero threshold: the block whose zero count is likeliest to differ
    from what a decomposition at another scale would count."""
    a, t = np.abs(w), zero_threshold(w)[:, None]
    return int(np.argmax((np.minimum(a, t) / np.maximum(a, t)).max(axis=-1)))


@dataclass
class InstanceMatrices:
    """Everything downstream checks need, built once per instance: the
    instance itself and its float operators.

    Objects that several checks read (the pencil, its spectra and the
    Haynsworth split of each beta, the exact F(beta), THM.vi.gx's vectors,
    the instance hash) are built on first use and kept in `_memo` under a
    name and beta, together with the error that building one raised.
    """

    inst: Instance
    d: BlockMatrix          # path-sum distance matrix
    d_inv: BlockMatrix      # closed-form inverse
    l: BlockMatrix          # graph Laplacian
    u: np.ndarray           # e (x) I_s
    _memo: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    @property
    def n(self) -> int:
        return self.inst.n

    @property
    def s(self) -> int:
        return self.inst.s

    def memo(self, key, make):
        """make(), computed once per key; a raised error is kept and re-raised."""
        if key not in self._memo:
            try:
                self._memo[key] = make()
            except _FAILURES as exc:
                self._memo[key] = exc
        if isinstance(self._memo[key], Exception):
            raise self._memo[key]
        return self._memo[key]

    def instance_hash(self) -> str:
        return self.memo("instance_hash", lambda: instance_hash(self.inst))

    def pencil(self, beta: float) -> PerturbedPencil:
        return self.memo(("pencil", beta),
                         lambda: perturbed_pencil(self.d_inv, self.l, beta))

    def p(self, beta: float) -> BlockMatrix:
        """P(beta); P(0) is D^{-1} itself, bit for bit, and needs no inverse."""
        return self.pencil(beta).p if beta else self.d_inv

    def p_spectrum(self, beta: float) -> np.ndarray:
        """Ascending eigenvalues of P(beta); at beta = 0 no pencil is built."""
        return self.memo(("p_eigs", beta),
                         lambda: sym_eigvals(self.p(beta).array))

    def block_spectra(self, beta: float) -> np.ndarray:
        """(n, s): ascending eigenvalues of each diagonal block F_ii of F(beta)."""
        def make():
            n, s = self.n, self.s
            f = self.pencil(beta).f.array.reshape(n, s, n, s)
            return sym_eigvals(f[np.arange(n), :, np.arange(n), :])

        return self.memo(("block_eigs", beta), make)

    def deleted_spectra(self, beta: float, vertices) -> np.ndarray:
        """The direct route: row k holds the ascending eigenvalues of P(alpha')
        for alpha' = all blocks but vertices[k] (1-based), one eigvalsh of an
        (n-1)s submatrix each."""
        p = self.p(beta)
        blocks = range(1, p.n + 1)
        return np.array([sym_eigvals(principal_block_submatrix(
            p, [k for k in blocks if k != i]).array) for i in vertices])

    def deleted_blocks(self, beta: float) -> DeletedBlocks:
        """In(P(alpha'_i)) for every vertex i, P = P(beta), from In(P) and the
        spectra of the blocks F_ii of F = P^{-1}.

        Haynsworth inertia additivity with the Fiedler-Markham nullity
        theorem gives, for a nonsingular P and nu = n_0(F_ii),
        n_-(P(alpha')) = n_-(P) - n_-(F_ii) - nu, n_0 = nu and
        n_+ = n_+(P) - n_+(F_ii) - nu. At beta = 0, F = D, whose diagonal
        blocks are exactly zero, so nu = s there, and F(0) is not read. Vertex
        1 and, of the others, the vertex whose F_ii has an eigenvalue nearest
        its zero threshold (where the two counts split first) are decomposed
        directly, as an independent sample of the derived counts; the other
        n - 2 counts are inferred.
        """
        def make():
            n, s = self.n, self.s
            p_in = inertia_of_spectrum(self.p_spectrum(beta))
            f_eigs = self.block_spectra(beta) if beta else np.zeros((n, s))
            f_in = inertia_of_spectrum(f_eigs)
            nu = f_in.n_zero
            inertia = np.column_stack([p_in.n_minus - f_in.n_minus - nu, nu,
                                       p_in.n_plus - f_in.n_plus - nu])
            route = "direct"
            if not p_in.n_zero and inertia.min() >= 0:
                sampled = [1, 2 + _nearest_zero_threshold(f_eigs[1:])]
                spectra = self.deleted_spectra(beta, sampled)
                measured = np.transpose(inertia_of_spectrum(spectra))
                if np.array_equal(measured, inertia[np.subtract(sampled, 1)]):
                    return DeletedBlocks(inertia, "derived", sampled, spectra[:, -1])
                route = "contradicted"
            every = list(range(1, n + 1))
            spectra = self.deleted_spectra(beta, every)
            return DeletedBlocks(np.transpose(inertia_of_spectrum(spectra)), route,
                                 every, spectra[:, -1])

        return self.memo(("deleted", beta), make)

    def haynsworth(self, beta: float) -> tuple[Inertia, Inertia, bool, np.ndarray]:
        """The Haynsworth split of [[F, U], [U', 0]] at the pivot F = P^{-1}:
        F is congruent to P, so In(F) is read from P's spectrum."""
        return self.memo(("haynsworth", beta), lambda: haynsworth_check(
            bordered(self.pencil(beta).f), self.n * self.s,
            inertia_of_spectrum(self.p_spectrum(beta))))

    def exact_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """The path-sum D and L in exact rationals (a rational instance)."""
        return self.memo("exact", lambda: (
            build_distance_matrix_exact(self.inst.tree),
            build_laplacian_exact(self.inst.graph)))

    def exact_f(self, beta: float) -> np.ndarray:
        """F(beta) in exact rationals, from D and L alone: F(0) = D, and for
        beta > 0 (I - beta D L)^{-1} D, solved in integers. No closed-form
        D^{-1} is read, so this is a route independent of the float F's."""
        def make():
            if not beta:
                return rat_matrix(self.exact_operators()[0])
            return self.memo("perturbed_inverse",
                             lambda: PerturbedInverse(*self.exact_operators())).at(beta)

        return self.memo(("exact_f", beta), make)


def build_matrices(inst: Instance,
                   corrupt: tuple[int, int, float] | None = None) -> InstanceMatrices:
    # an overflowing instance fails in the guarded checks, not while assembled
    with np.errstate(over="ignore", invalid="ignore"):
        d = build_distance_matrix(inst.tree)
        if corrupt is not None:
            i, j, factor = corrupt
            ns = inst.n * inst.s
            if not (1 <= i <= ns and 1 <= j <= ns and math.isfinite(factor)):
                raise ConfigError(f"corrupt entry needs 1 <= i, j <= {ns} and a "
                                  f"finite factor, got ({i}, {j}, {factor})")
            arr = d.array.copy()
            old = arr[i - 1, j - 1]
            arr[i - 1, j - 1] *= factor
            if arr[i - 1, j - 1] == old:
                raise ConfigError(f"scaling D's entry ({i}, {j}) = {old:g} by {factor} "
                                  f"leaves it unchanged")
            d = BlockMatrix(d.n, d.s, arr)
        return InstanceMatrices(
            inst=inst,
            d=d,
            d_inv=distance_inverse_closed_form(inst.tree),
            l=build_laplacian(inst.graph),
            u=build_U(inst.n, inst.s),
        )


def verify_preliminaries(mats: InstanceMatrices) -> list[CheckResult]:
    n, s = mats.n, mats.s
    d, d_inv, l = mats.d.array, mats.d_inv.array, mats.l.array
    d_scale = max(1.0, float(np.abs(d).max(initial=0.0)))
    l_scale = max(1.0, float(np.abs(l).max(initial=0.0)))
    checks = []

    def p1():
        d_pinv = distance_from_laplacian_pinv(mats.inst.tree).array
        res = _rel(d - d_pinv, d_scale)
        return res <= REL_RESIDUAL, {"residual": res}

    def p2():
        res = _rel(d_inv @ d - np.eye(n * s), 1.0)
        return res <= REL_RESIDUAL, {"residual": res}

    def p3():
        inert = inertia_of(d)
        btdb = _null_compress(d, n, s)
        max_eig = float(sym_eigvals(btdb)[-1])
        ok = (inert == (n * s - s, 0, s)
              and max_eig < -EIG_ZERO * d_scale)
        return ok, {"inertia": list(inert), "btdb_max_eig": max_eig}

    def p4():
        min_eig = float(sym_eigvals(l)[0])
        lu = _rel(l @ mats.u, l_scale)
        rank = rank_of(l)
        ok = (min_eig >= -EIG_ZERO * l_scale
              and lu <= NONZERO_FLOOR
              and rank == n * s - s)
        return ok, {"min_eig": min_eig, "lu_residual": lu, "rank": rank}

    def col_space():
        # every block row of JL = U U'L is U'L
        res = _rel(mats.u.T @ l, l_scale)
        return res <= NONZERO_FLOOR, {"jl_residual": res}

    def cor28():
        udu = mats.u.T @ d_inv @ mats.u
        min_eig = float(sym_eigvals(udu)[0])
        return min_eig > EIG_ZERO, {"min_eig": min_eig}

    for cid, fn in (("P1", p1), ("P2", p2), ("P3", p3), ("P4", p4),
                    ("COL-SPACE", col_space), ("COR2.8", cor28)):
        checks.append(_guard(cid, None, fn))
    return checks


def _gx_vectors(s: int, seed: int) -> np.ndarray:
    """(s + 10, s): the s unit vectors, then 10 random unit vectors."""
    rng = np.random.default_rng(seed)
    xs = [x / np.linalg.norm(x) for x in rng.standard_normal((10, s))]
    return np.vstack([np.eye(s), xs])


def verify_theorem(mats: InstanceMatrices, beta: float) -> list[CheckResult]:
    n, s = mats.n, mats.s
    # every body builds what it reads on first use, inside its own guard, so
    # a pencil that cannot be built fails each check of this beta
    pencil = lambda: mats.pencil(beta)
    p_scale = lambda: max(1.0, float(np.abs(pencil().p.array).max()))
    f_scale = lambda: max(1.0, float(np.abs(pencil().f.array).max()))

    def p_eigs():
        pencil()     # P(0) = D^{-1} needs no inverse, but the theorem does
        return mats.p_spectrum(beta)

    def thm_i():
        min_abs = float(np.abs(p_eigs()).min())
        return min_abs > EIG_ZERO * p_scale(), {"min_abs_eig": min_abs}

    def thm_ii():
        inert = inertia_of_spectrum(p_eigs())
        return inert == (n * s - s, 0, s), {"inertia": list(inert)}

    def thm_iii():
        # strictly negative definite for beta > 0; at beta = 0 the submatrix
        # is D^{-1}[[Delta]], which has nullity exactly s (D_ii = 0), so only
        # negative semidefiniteness can hold there. The sampled spectra meet
        # that bound, and every derived inertia is the one it implies.
        bound = EIG_ZERO * p_scale()
        blocks = mats.deleted_blocks(beta)
        worst = float(blocks.sampled_max.max())
        ok = worst < -bound if beta > 0 else worst <= bound
        if blocks.route == "derived":
            target = ((n - 1) * s, 0, 0) if beta > 0 else ((n - 2) * s, s, 0)
            ok = ok and np.all(blocks.inertia == target)
        return ok and blocks.route != "contradicted", {
            "max_eig_sampled": worst, "sampled": blocks.sampled,
            "inferred": blocks.inferred, "route": blocks.route}

    def thm_iv():
        # THM.iv's inertia is the left-hand side of the Haynsworth check
        inert = mats.haynsworth(beta)[0]
        return inert == (n * s, 0, s), {"inertia": list(inert)}

    def thm_iv_haynsworth():
        lhs, rhs, ok, gf = mats.haynsworth(beta)
        target = -mats.u.T @ mats.d_inv.array @ mats.u
        res = _rel(gf - target, max(1.0, float(np.abs(target).max())))
        return ok and res <= REL_RESIDUAL, {
            "lhs": list(lhs), "rhs": list(rhs), "schur_residual": res,
        }

    def thm_v():
        bfb = _null_compress(pencil().f.array, n, s)
        max_eig = float(sym_eigvals(bfb)[-1])
        return max_eig <= EIG_ZERO * f_scale(), {"max_eig": max_eig}

    checks = [_guard(cid, beta, fn) for cid, fn in (
        ("THM.i", thm_i), ("THM.ii", thm_ii), ("THM.iii", thm_iii), ("THM.iv", thm_iv),
        ("THM.iv.haynsworth", thm_iv_haynsworth), ("THM.v", thm_v))]

    if beta == 0:
        # D has zero diagonal blocks, so block positive definiteness is
        # asserted only for beta > 0
        return checks + [CheckResult(cid, True, beta, skipped=True)
                         for cid in ("THM.vi", "THM.vi.gx")]

    def thm_vi():
        # the (n, n, s, s) stack of blocks F_ij, row-major in (i, j)
        f = pencil().f
        pd = is_pd_quadratic_form(f.array.reshape(n, s, n, s).swapaxes(1, 2))
        bad = (np.argwhere(~pd) + 1).tolist()
        return not bad, {"non_pd_blocks": bad}

    def thm_vi_gx():
        floor = NONZERO_FLOOR * f_scale()
        xs = mats.memo("gx_vectors",
                       lambda: _gx_vectors(s, int(mats.instance_hash()[:8], 16)))
        gx = gx_matrix(pencil().f, xs)
        inert = inertia_of_spectrum(sym_eigvals(gx))
        off = np.abs(gx[:, ~np.eye(n, dtype=bool)])
        worst_offdiag = float(off.min(initial=np.inf))
        ok = (np.all(np.transpose(inert) == (n - 1, 0, 1))
              and not np.any(np.diagonal(gx, axis1=1, axis2=2) <= 0)
              and worst_offdiag > floor)
        return ok, {"min_offdiag": worst_offdiag, "floor": floor}

    return checks + [_guard("THM.vi", beta, thm_vi), _guard("THM.vi.gx", beta, thm_vi_gx)]


def verify_fiedler_markham(mats: InstanceMatrices, beta: float) -> CheckResult:
    """Nullity of a principal block of the inverse equals the nullity of the
    complementary principal submatrix, for every i; plus the distance-inverse
    instance where the complementary nullity is forced to s.

    The complementary nullities come from `InstanceMatrices.deleted_blocks`.
    On its derived route they are n_0(F_ii) by construction, so only the two
    sampled vertices are measured and the other n - 2 are inferred; the route
    is kept only while the sample agrees, otherwise every vertex is measured
    directly. `dinv_nullities` is the beta = 0 row. The evidence names the
    measured vertices and the number inferred, for the beta and the dinv row.
    """

    def body():
        null_blocks = inertia_of_spectrum(mats.block_spectra(beta)).n_zero.tolist()
        rows = {"beta": mats.deleted_blocks(beta), "dinv": mats.deleted_blocks(0.0)}
        null_subs = rows["beta"].inertia[:, 1].tolist()
        mismatches = [{"i": i, "nullity_sub": q, "nullity_block": b}
                      for i, (q, b) in enumerate(zip(null_subs, null_blocks), start=1)
                      if q != b]
        dinv_nullities = rows["dinv"].inertia[:, 1].tolist()
        ok = not mismatches and all(x == mats.s for x in dinv_nullities)
        return ok, {"mismatches": mismatches, "dinv_nullities": dinv_nullities,
                    "sampled": {k: r.sampled for k, r in rows.items()},
                    "inferred": {k: r.inferred for k, r in rows.items()}}

    return _guard("FM-nullity", beta, body)


def verify_exact_consistency(mats: InstanceMatrices, beta: float) -> CheckResult:
    """Float-kernel F against the exact rational kernel, within REL_RESIDUAL
    relative to the largest entry."""

    def body():
        rel = rel_error(mats.pencil(beta).f.array, mats.exact_f(beta))
        return rel <= REL_RESIDUAL, {"rel_error": rel}

    return _guard("EXACT-CONSISTENCY", beta, body)


def verify_instance(
    inst: Instance,
    betas: list[float],
    seed: int | None = None,
    kernel_mode: str = "float",
    corrupt: tuple[int, int, float] | None = None,
) -> VerificationReport:
    if kernel_mode not in ("float", "both"):
        raise ConfigError(f"kernel_mode must be float|both, got {kernel_mode!r}")
    exact = kernel_mode == "both"
    if exact and not inst.is_exact:
        raise ConfigError(f"mode {kernel_mode!r} needs a rational instance")
    for beta in betas:
        require_beta(beta)
    start = time.perf_counter()
    mats = build_matrices(inst, corrupt)
    checks = verify_preliminaries(mats)
    for beta in betas:
        checks.extend(verify_theorem(mats, beta))
        checks.append(verify_fiedler_markham(mats, beta))
        if exact:
            checks.append(verify_exact_consistency(mats, beta))
    ill = _weight_spectrum_ill_conditioned(inst)
    if ill:
        for c in checks:
            if not (c.passed or c.skipped or c.evidence.get("non_finite")):
                c.warning = True
                c.evidence["ill_conditioned"] = True
    return VerificationReport(
        instance_hash=mats.instance_hash(), n=inst.n, s=inst.s, betas=list(betas),
        seed=seed, kernel_mode=kernel_mode, checks=checks,
        wall_time=time.perf_counter() - start,
    )


def _weight_spectrum_ill_conditioned(inst: Instance) -> bool:
    """Whether float check failures should be treated as measurement noise.

    Triggers when the weight eigenvalues across the whole instance either
    spread by more than 1e6 or leave the [1e-6, 1e6] window; outside that
    regime the relative eigenvalue-classification thresholds lose meaning
    (e.g. D^{-1} - beta*L collapses to ~1e-8 scale when all weights are ~1e8).
    """
    eigs = np.linalg.eigvalsh(np.concatenate((inst.tree.weights, inst.graph.weights)))
    lo, hi = float(eigs[:, 0].min()), float(eigs[:, -1].max())
    return (hi / max(lo, 1e-300) > ILL_CONDITIONED_WEIGHT
            or hi > ILL_CONDITIONED_WEIGHT
            or lo < 1.0 / ILL_CONDITIONED_WEIGHT)


@dataclass
class CampaignConfig:
    count: int = 500
    n_range: tuple[int, int] = (2, 12)
    s_range: tuple[int, int] = (1, 4)
    seed: int = 2024
    profile: WeightProfile = field(default_factory=WeightProfile)

    def __post_init__(self):
        if self.count < 1:
            raise ConfigError(f"count must be >= 1, got {self.count}")
        for name, (lo, hi), floor in (("n_range", self.n_range, 2),
                                      ("s_range", self.s_range, 1)):
            if lo < floor or lo > hi:
                raise ConfigError(f"invalid {name}: ({lo}, {hi})")


def run_campaign(config: CampaignConfig) -> list[VerificationReport]:
    """Verify `count` seeded instances at DEFAULT_BETAS and one random beta."""
    master = np.random.default_rng(config.seed)
    reports = []
    for _ in range(config.count):
        n = int(master.integers(config.n_range[0], config.n_range[1] + 1))
        s = int(master.integers(config.s_range[0], config.s_range[1] + 1))
        max_extra = n * (n - 1) // 2 - (n - 1)
        extra = int(master.integers(0, max_extra + 1))
        inst_seed = int(master.integers(0, 2**63))
        betas = [*DEFAULT_BETAS, float(10.0 ** master.uniform(-2.0, 2.0))]
        inst = random_instance(n, s, inst_seed, extra, config.profile)
        reports.append(verify_instance(inst, betas, seed=inst_seed))
    return reports


def campaign_summary(reports: list[VerificationReport]) -> dict:
    total = {"passed": 0, "failed": 0, "skipped": 0, "warnings": 0}
    for r in reports:
        for k in total:
            total[k] += r.summary[k]
    total["instances"] = len(reports)
    return total
