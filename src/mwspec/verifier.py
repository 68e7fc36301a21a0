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

from .errors import ConfigError, MwspecError, NonFiniteError, NotSymmetricError
from .exact import PerturbedInverse, rel_error
from .linalg import (
    EIG_ZERO,
    NONZERO_FLOOR,
    REL_RESIDUAL,
    Bound,
    Inertia,
    certificate_shift,
    certify,
    inertia_of_spectrum,
    is_pd_quadratic_form,
    kernel_certificate,
    rank_of,
    sym_eigvals,
    sym_part,
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
    """Run a check body; any package error becomes a failing result. A Bound
    in the evidence is reported as a float under its key + "_bound"."""
    try:
        with _strict():
            passed, evidence = fn()
    except _FAILURES as exc:
        evidence = {"error": f"{type(exc).__name__}: {exc}"}
        if isinstance(exc, (NonFiniteError, FloatingPointError)):
            evidence["non_finite"] = True     # no verdict: never a warning
        return CheckResult(check_id, False, beta, evidence=evidence)
    for v in evidence.values():
        if isinstance(v, Bound):
            evidence = dict((k + "_bound", float(v)) if isinstance(v, Bound) else (k, v)
                            for k, v in evidence.items())
            break
    return CheckResult(check_id, bool(passed), beta, evidence=evidence)


def _rel(x: np.ndarray, ref: float) -> float:
    return float(np.abs(x).max(initial=0.0)) / max(1.0, ref)


def _null_compress(x: np.ndarray, n: int, s: int) -> np.ndarray:
    """B'XB, B = [(e_i - e_n) (x) I_s] (i < n) a basis of ker J, as blocks
    (X_ij - X_nj) - (X_in - X_nn): in that order, the bits of (B'X)B. A stack
    X (k, ns, ns) gives the stack of compressions."""
    lead = x.shape[:-2]
    xb = x.reshape(*lead, n, s, n, s)
    btx = xb[..., :-1, :, :, :] - xb[..., -1:, :, :, :]
    return (btx[..., :-1, :] - btx[..., -1:, :]).reshape(*lead, (n - 1) * s, (n - 1) * s)


def _split(x: np.ndarray, n: int, s: int, deleted=False):
    """The shift c of the symmetric X, or one per member of a stack, and the
    two certificates that together show In(X) = (ns - s, 0, s) with every
    eigenvalue at least c from zero: B'B = (I + J) (x) I_s has largest
    eigenvalue n and U'U = nI, so by Courant-Fischer -B'XB - ncI > 0 gives
    ns - s eigenvalues of X below -c, and U'XU - ncI > 0 gives s above c.
    Where deleted (one bool, or one per member), the first certificate is
    -X[s:, s:] - cI > 0 instead, a slice of X on the orthonormal basis of
    blocks 2..n: ns - s eigenvalues below -c again, and the deleted block
    X(alpha'_1) negative definite with every eigenvalue below -c. It needs
    X(alpha'_1) nonsingular, so D^{-1} (beta = 0, nullity s) reads B'XB.
    c is certificate_shift at max(1, ||X||_inf), which bounds X's spectral
    radius, so c exceeds every threshold scaled by max(1, max|X|); it is
    infinite where a row sum overflows. An X within the asymmetry bound is
    certified by its symmetric part, whose spectrum is taken; a stack with
    one beyond it gets no certificate."""
    with np.errstate(all="ignore"):
        try:
            x = sym_part(x)
        except NotSymmetricError:
            return np.full(x.shape[:-2], np.inf), []
        c = certificate_shift(np.maximum(1.0, np.abs(x).sum(axis=-1).max(axis=-1)))
        compressed = ~np.broadcast_to(deleted, x.shape[:-2])     # the members that read B'XB
        if compressed.all():
            low = -_null_compress(x, n, s)
        else:
            low = -x[..., s:, s:]
            if compressed.any():
                low[compressed] = -_null_compress(x[compressed], n, s)
        return c, [(low, np.where(compressed, n * c, c)),
                   (x.reshape(*x.shape[:-2], n, s, n, s).sum(axis=(-4, -2)), n * c)]


def _bordered_split(f: np.ndarray, u: np.ndarray, weights: np.ndarray, n: int, s: int) -> list:
    """The two certificates that together show In(G) = (ns, 0, s), with every
    eigenvalue at least c from zero, for G = [[F, U], [U', 0]], or for each
    member of a stack F, by a congruence over X- = [[B, U/t], [0, -I_s]] and
    X+ = [[U/t], [I_s]] (README): -X-'(G + cI)X- > 0 and X+'(G - cI)X+ > 0,
    each given as its matrix plus cI with shift c. c = certificate_shift at
    ||G||_inf = max(||F||_inf + 1, n); t = n ||R||_inf / 2, R the sum of the
    tree weights, exceeds the n lambda_max(R) / 4 the first one needs. An F
    beyond the asymmetry bound gets no certificate."""
    lead = f.shape[:-2]
    with np.errstate(all="ignore"):
        try:
            f = sym_part(f)
        except NotSymmetricError:
            return []
        t = n * np.abs(weights.sum(axis=0)).sum(axis=-1).max() / 2
        c = certificate_shift(np.maximum(np.abs(f).sum(axis=-1).max(axis=-1) + 1.0, n))
        fu = (f @ u).reshape(*lead, n, s, s) / t                   # FU/t, (..., n, s, s)
        btfu = fu[..., :-1, :, :] - fu[..., -1:, :, :]             # B'FU/t
        utfu = fu.sum(axis=-3) / t                                 # U'FU/t^2
        corner = (2 * n / t - c * n / t ** 2)[..., None, None] * np.eye(s)
        # in blocks of s, the last block row and column from X-'s last s columns
        low = np.empty((*lead, n, s, n, s))
        np.negative(_null_compress(f, n, s).reshape(*lead, n - 1, s, n - 1, s),
                    out=low[..., :-1, :, :-1, :])
        low[..., :-1, :, :-1, :] -= c[..., None, None, None, None] * np.eye(s)[:, None, :]
        low[..., :-1, :, -1, :] = -btfu
        low[..., -1, :, :-1, :] = -np.moveaxis(btfu, -1, -3)
        low[..., -1, :, -1, :] = corner - utfu
        return [(low.reshape(*lead, n * s, n * s), c), (corner + utfu, c)]


def _bounded(ok: np.ndarray, bounds: np.ndarray, measured: np.ndarray) -> list:
    """Per member of a stack, in member order: its bound as a Bound where
    certified, else the next measured value."""
    measured = iter(np.ravel(measured).tolist())
    return [Bound(b) if k else next(measured)
            for k, b in zip(ok.ravel().tolist(), np.ravel(bounds).tolist())]


# A stacked call takes as many betas as fit in this many bytes of its input,
# and at least one. Stacks pay off at the small orders where numpy's cost per
# call outweighs LAPACK's work; where it does not, each beta is a stack of its
# own and needs only one beta's transient memory.
STACK_BYTES = 1 << 18


def _stack(arrays) -> np.ndarray:
    """(k, ...) array of k equal-shape arrays; a lone one is viewed, not copied."""
    return arrays[0][None] if len(arrays) == 1 else np.stack(arrays)


def _members(inert: Inertia) -> list[Inertia]:
    """The Inertia of each member of a stack's (k,) counts, in Python ints."""
    return [Inertia(*map(int, c)) for c in zip(*inert)]


@dataclass(frozen=True)
class DeletedBlocks:
    """In(P(alpha'_i)) of every vertex i, alpha' = all blocks but i, the
    largest eigenvalue of each submatrix decomposed directly, and the
    nullity n_0(F_ii) of every diagonal block of F = P^{-1}, which
    FM-nullity compares with n_0(P(alpha'_i)).

    route is "derived" (In(P) minus In(F_ii), confirmed by the sample),
    "direct" (In(P) has a zero, a derived count is negative, or at beta > 0
    some F_ii has no margin) or "contradicted" (the sampled inertia differs
    from the derived one); on the last two every vertex is decomposed
    directly. On the derived route the sample is vertex 1, and the inertias
    of the other vertices are inferred, not measured. A Cholesky certificate
    may measure the sample instead: at beta > 0 the split that certified
    In(P) (_split), or else -P(alpha'_1) - cI when every derived inertia is
    ((n-1)s, 0, 0); at beta = 0 when every one is ((n-2)s, s, 0) and the
    sample's kernel residual is small (linalg.kernel_certificate). Its entry
    of sampled_max is then a Bound that its largest eigenvalue lies below.
    """

    inertia: np.ndarray          # (n, 3): n_minus, n_zero, n_plus per vertex
    route: str
    sampled: list[int]           # the 1-based vertices measured directly
    sampled_max: list[float]     # per sampled vertex
    block_nullity: np.ndarray    # (n,): n_0(F_ii) per vertex

    @property
    def inferred(self) -> int:
        """How many vertices' inertias were derived rather than measured."""
        return len(self.inertia) - len(self.sampled)


@dataclass
class InstanceMatrices:
    """Everything downstream checks need, built once per instance: the
    instance itself and its float operators.

    Objects that several checks read are built on first use and kept in
    `_memo` under a name, or a name and beta, together with the error that
    building one raised: the instance hash, U'D^{-1}U and D^{-1}U, the exact
    operators and F(beta), THM.vi.gx's vectors, and per beta the pencil and
    the spectra, scales, inertias and certificates the theorem checks share.

    `verify_instance` records its distinct betas under "betas". A per-beta
    object is then built for every recorded beta at once, on first use: one
    stack (k, m, m) and one numpy call per step, and at most STACK_BYTES of
    input per call. A beta that was not recorded is a stack of one. A stack
    whose build raises is redone beta by beta, as stacks of one, so a bad
    beta fails only its own rows, with the error it raises alone.
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
            self._keep(key, make)
        if isinstance(self._memo[key], Exception):
            raise self._memo[key]
        return self._memo[key]

    def _keep(self, key, make):
        """Keep make() under key, or the error it raised."""
        try:
            self._memo[key] = make()
        except _FAILURES as exc:
            self._memo[key] = exc

    def _stacked(self, name: str, beta: float, make, positive: bool = False):
        """The memo entry (name, beta). make(bs) returns one value per beta of
        bs; on a miss it fills the entry of every recorded beta that lacks
        one (every recorded beta > 0 when positive), or of beta alone when
        beta was not recorded."""
        if (name, beta) not in self._memo:
            todo = [b for b in self._memo.get("betas", ())
                    if (name, b) not in self._memo and (b or not positive)]
            if beta not in todo:
                todo = [beta]
            n, s = self.n, self.s
            # the largest input per beta: the bordered matrix, which exceeds
            # THM.iii's one sampled deleted block, or THM.vi.gx's s + 10
            # compressions
            member = 8 * max((n * s + s) ** 2, (s + 10) * n * n)
            size = max(1, STACK_BYTES // member)
            for i in range(0, len(todo), size):
                bs = todo[i:i + size]
                if len(bs) > 1:
                    try:
                        self._memo.update(zip([(name, b) for b in bs], make(bs)))
                        continue
                    except _FAILURES:
                        pass     # redone beta by beta below
                for b in bs:
                    self._keep((name, b), lambda b=b: make([b])[0])
        return self.memo((name, beta), lambda: make([beta])[0])

    def instance_hash(self) -> str:
        return self.memo("instance_hash", lambda: instance_hash(self.inst))

    def udu(self) -> np.ndarray:
        """U'D^{-1}U = 2R^{-1}: COR2.8's matrix, and minus the Schur complement
        of F in the bordered matrix at every beta, which haynsworth reads
        without solving with F."""
        return self.memo("udu", lambda: self.u.T @ self.d_inv.array @ self.u)

    def pencil(self, beta: float) -> PerturbedPencil:
        """P(beta) and F(beta) = P(beta)^{-1}, one stacked solve for the betas
        > 0. F(0) = D: P(0) is D^{-1} and F(0) is D, bit for bit, unsolved."""
        def make(bs):
            n, s = self.n, self.s
            pencil = perturbed_pencil(self.d_inv, self.l, bs)
            return [PerturbedPencil(BlockMatrix(n, s, p), BlockMatrix(n, s, f))
                    for p, f in zip(pencil.p.array, pencil.f.array)]

        if beta:
            return self._stacked("pencil", beta, make, positive=True)
        if not np.all(np.isfinite(self.d.array)):
            raise NonFiniteError("D has non-finite entries")
        return PerturbedPencil(self.d_inv, self.d)

    def _f(self, bs) -> BlockMatrix:
        """The stack of F(beta) over the betas bs."""
        return BlockMatrix(self.n, self.s, _stack([self.pencil(b).f.array for b in bs]))

    def scales(self, beta: float) -> tuple[float, float]:
        """max(1, max|P|) and max(1, max|F|) at beta: the theorem checks'
        threshold scales."""
        def make(bs):
            top = lambda a: np.maximum(1.0, np.abs(_stack(a)).max(axis=(1, 2))).tolist()
            pencils = [self.pencil(b) for b in bs]
            return list(zip(top([c.p.array for c in pencils]),
                            top([c.f.array for c in pencils])))

        return self._stacked("scales", beta, make)

    def p_eigs(self, beta: float) -> tuple[float, Inertia, float]:
        """min |eigenvalue| of P(beta) and In(P(beta)), read off P's
        spectrum; or, when the split certificate (_split) shows
        In(P) = (ns - s, 0, s), the Bound c and that inertia. Then the shift
        c of P's certificates. At beta > 0 the split's negative half is the
        deleted block -P(alpha'_1) - cI, so a certified P also certifies
        THM.iii's one sample, vertex 1 (deleted_blocks); at beta = 0, where
        D^{-1}(alpha'_1) has nullity s, it is -B'PB - ncI."""
        def make(bs):
            n, s = self.n, self.s
            p = _stack([self.pencil(b).p.array for b in bs])
            c, split = _split(p, n, s, deleted=np.array(bs) > 0)
            ok, w = certify(split, p)
            inert = iter(_members(inertia_of_spectrum(w)))
            return [(v, Inertia(n * s - s, 0, s) if isinstance(v, Bound) else next(inert), ck)
                    for v, ck in zip(_bounded(ok, c, np.abs(w).min(axis=-1)), c.tolist())]

        return self._stacked("p_eigs", beta, make)

    def deleted_blocks(self, beta: float) -> DeletedBlocks:
        """In(P(alpha'_i)) for every vertex i, P = P(beta), from In(P) and the
        spectra of the blocks F_ii of F = P^{-1}. The blocks of F(0) = D are
        exactly zero: the distance fill never writes them, and build_matrices
        refuses a corruption that leaves an entry unchanged.

        Haynsworth inertia additivity with the Fiedler-Markham nullity
        theorem gives, for a nonsingular P and nu = n_0(F_ii),
        n_-(P(alpha')) = n_-(P) - n_-(F_ii) - nu, n_0 = nu and
        n_+ = n_+(P) - n_+(F_ii) - nu. Vertex 1 is measured, as an
        independent sample of the derived counts: at beta > 0 by the split
        certificate of p_eigs, whose negative half is -P(alpha'_1) - cI, and
        at beta = 0 (or where that split fails) on its own submatrix; the
        other counts are inferred. At beta > 0, where some F_ii's least
        eigenvalue is not above certificate_shift(max(1, rho(F_ii))), a zero
        count has no margin and every vertex is decomposed directly; at
        beta = 0 F_ii = 0 exactly and it never is. The samples of a stack
        share one certify call, which may certify them (DeletedBlocks). The
        direct route decomposes one (n-1)s submatrix at a time, so it needs
        one submatrix's memory at a time.
        """
        def make(bs):
            n, s = self.n, self.s
            p_eigs = [self.p_eigs(b) for b in bs]
            p_in = np.transpose([e[1] for e in p_eigs])[..., None]           # (3, k, 1)
            f, ii = self._f(bs).array.reshape(len(bs), n, s, n, s), np.arange(n)
            f_eigs = sym_eigvals(f[:, ii, :, ii, :].swapaxes(0, 1))           # (k, n, s)
            f_in = np.stack(inertia_of_spectrum(f_eigs), axis=1)              # (k, 3, n)
            nu = f_in[:, 1]
            inertia = np.stack([p_in[0] - f_in[:, 0] - nu, nu,
                                p_in[2] - f_in[:, 2] - nu], axis=-1)         # (k, n, 3)
            # at beta > 0, where some F_ii's least eigenvalue lies within the
            # certificate shift of zero at its own scale, a zero count has no
            # margin, and every vertex is decomposed directly
            thin = (np.array(bs) > 0) & np.any(f_eigs[..., 0] <= certificate_shift(
                np.maximum(1.0, np.abs(f_eigs).max(axis=-1))), axis=-1)
            sample = np.flatnonzero((p_in[1, :, 0] == 0) & (inertia.min(axis=(1, 2)) >= 0)
                                    & ~thin).tolist()
            # the split that certified In(P) at beta > 0 certified vertex 1
            # too: inertia ((n-1)s, 0, 0), every eigenvalue below -c
            measured = {j: (np.all(inertia[j, 0] == ((n - 1) * s, 0, 0)), Bound(-p_eigs[j][2]))
                        for j in sample if bs[j] and isinstance(p_eigs[j][0], Bound)}
            items = [j for j in sample if j not in measured]
            if items:
                # one gather per submatrix, a stack of its own to be shifted,
                # gathered again for the spectrum of the ones left
                gather = lambda: np.stack([
                    principal_block_submatrix(self.pencil(bs[j]).p, range(2, n + 1)).array
                    for j in items])
                subs = gather()
                subs *= -1.0
                c, bound = np.full(len(items), np.inf), np.zeros(len(items))
                for i, j in enumerate(items):
                    # -P(alpha'_1) above P's shift c where ((n-1)s, 0, 0) is
                    # derived; at beta = 0, where ((n-2)s, s, 0) is, its
                    # deflated kernel certificate
                    if bs[j] and np.all(inertia[j] == ((n - 1) * s, 0, 0)):
                        c[i], bound[i] = p_eigs[j][2], -p_eigs[j][2]
                    elif not bs[j] and np.all(inertia[j] == ((n - 2) * s, s, 0)):
                        f0 = self.pencil(0.0).f.array.reshape(n, s, n, s)
                        q = np.linalg.qr(f0[1:, :, 0, :].reshape(-1, s))[0]
                        c[i], bound[i] = kernel_certificate(subs[i], q)
                ok, w = certify([(subs, c)] if np.isfinite(c).any() else [], gather)
                agree = ok.copy()
                if w is not None:
                    agree[~ok] = np.all(np.stack(inertia_of_spectrum(w), axis=-1)
                                        == inertia[np.array(items)[~ok], 0], axis=-1)
                tops = _bounded(ok, bound, () if w is None else w[:, -1])
                measured.update(zip(items, zip(agree.tolist(), tops)))
            out = {j: DeletedBlocks(inertia[j], "derived", [1], [measured[j][1]], nu[j])
                   for j in sample if measured[j][0]}
            for j in range(len(bs)):
                if j not in out:
                    p = self.pencil(bs[j]).p
                    spectra = np.array([sym_eigvals(principal_block_submatrix(
                        p, np.delete(np.arange(1, n + 1), i)).array) for i in range(n)])
                    out[j] = DeletedBlocks(np.transpose(inertia_of_spectrum(spectra)),
                                           "contradicted" if j in sample else "direct",
                                           list(range(1, n + 1)), spectra[:, -1].tolist(), nu[j])
            return [out[j] for j in range(len(bs))]

        return self._stacked("deleted", beta, make)

    def bordered_inertia(self, beta: float) -> tuple[Inertia, float | None]:
        """In(G), G = [[F, U], [U', 0]], F = F(beta): (ns, 0, s) where the
        certificates of _bordered_split hold, else read off G's spectrum.
        Then, where they hold, their shift c: the leading block
        -B'FB - cB'B > 0 of the first, with B'B >= I, puts every eigenvalue
        of B'FB below -c (THM.v); else None."""
        def make(bs):
            n, s = self.n, self.s
            f = self._f(bs)
            split = _bordered_split(f.array, self.u, self.inst.tree.weights, n, s)
            ok, w = certify(split, lambda: bordered(f))
            left = iter(() if w is None else _members(inertia_of_spectrum(w)))
            shifts = split[0][1].tolist() if split else [None] * len(bs)
            return [(Inertia(n * s, 0, s), c) if k else (next(left), None)
                    for k, c in zip(ok.tolist(), shifts)]

        return self._stacked("bordered", beta, make)

    def haynsworth(self, beta: float) -> tuple[Inertia, Inertia, bool, float]:
        """The Haynsworth split of G = [[F, U], [U', 0]] at the pivot
        F = P^{-1}: F is congruent to P, so In(F) is read from P's spectrum,
        and In(G) from bordered_inertia. The Schur complement G/F is
        -U'D^{-1}U, -udu(), at every beta, as F X = U for X = D^{-1}U.
        Returns In(G), In(P) + In(G/F), whether they agree, and that
        identity's residual max|F X - U| / max(1, max|F|)."""
        def make(bs):
            pivot = Inertia(*np.transpose([self.p_eigs(b)[1] for b in bs]))
            lhs = Inertia(*np.transpose([self.bordered_inertia(b)[0] for b in bs]))
            lhs, rhs, agree = haynsworth_check(-self.udu(), lhs, pivot)
            x = self.memo("dinv_u", lambda: self.d_inv.array @ self.u)
            res = np.abs(self._f(bs).array @ x - self.u).max(axis=(1, 2))
            res /= [self.scales(b)[1] for b in bs]
            return list(zip(_members(lhs), _members(rhs), agree.tolist(), res.tolist()))

        return self._stacked("haynsworth", beta, make)

    def block_pd(self, beta: float) -> np.ndarray:
        """(n, n) bools, row-major in (i, j): whether the quadratic form of
        each block F_ij of F(beta) is positive definite (THM.vi). Where the
        stack F is bitwise symmetric, F_ji = F_ij' has the symmetric part of
        F_ij bit for bit, so only the n(n+1)/2 blocks with i <= j are tested
        and their verdicts mirrored; elsewhere every block is."""
        def make(bs):
            n, s = self.n, self.s
            f = self._f(bs).array
            blocks = f.reshape(len(bs), n, s, n, s).swapaxes(2, 3)    # (k, n, n, s, s)
            if not np.array_equal(f, f.swapaxes(-1, -2)):
                return is_pd_quadratic_form(blocks)
            i, j = np.triu_indices(n)
            pd = np.empty((len(bs), n, n), dtype=bool)
            pd[:, i, j] = pd[:, j, i] = is_pd_quadratic_form(blocks[:, i, j])
            return pd

        return self._stacked("block_pd", beta, make, positive=True)

    def gx_spectra(self, beta: float) -> tuple[bool, float]:
        """THM.vi.gx's compressions G_x of F(beta), for the s unit vectors and
        10 random unit vectors seeded by the instance hash: whether each has
        inertia (n - 1, 0, 1) and a positive diagonal, and the least magnitude
        of an off-diagonal entry of any of them."""
        def make(bs):
            n = self.n
            xs = self.memo("gx_vectors",
                           lambda: _gx_vectors(self.s, int(self.instance_hash()[:8], 16)))
            gx = gx_matrix(self._f(bs), xs)                  # (k, s + 10, n, n)
            split, w = certify(_split(gx, n, 1)[1], gx)     # In(G_x) = (n - 1, 0, 1)
            split[~split] = np.all(np.stack(inertia_of_spectrum(w), axis=-1) == (n - 1, 0, 1),
                                   axis=-1)
            shaped = (split.all(axis=1)
                      & ~np.any(np.diagonal(gx, axis1=-2, axis2=-1) <= 0, axis=(1, 2)))
            off = np.abs(gx[..., ~np.eye(n, dtype=bool)])
            return list(zip(shaped.tolist(), off.min(axis=(1, 2), initial=np.inf).tolist()))

        return self._stacked("gx", beta, make, positive=True)

    def exact_operators(self) -> tuple[np.ndarray, np.ndarray]:
        """The path-sum D and L in exact rationals (a rational instance)."""
        return self.memo("exact", lambda: (
            build_distance_matrix_exact(self.inst.tree),
            build_laplacian_exact(self.inst.graph)))

    def exact_f(self, beta: float) -> tuple[np.ndarray, np.ndarray | int]:
        """F(beta) in exact rationals, from D and L alone, as a pair (x, q) of
        integer numerators and positive row denominators: F(0) = D, and for
        beta > 0 (I - beta D L)^{-1} D, solved in integers. No closed-form
        D^{-1} is read, so this is a route independent of the float F's."""
        return self.memo(("exact_f", beta), lambda: self.memo(
            "perturbed_inverse", lambda: PerturbedInverse(*self.exact_operators())).at(beta))


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
        # by the split, else on the spectra of D and then of B'DB, built only then
        c, split = _split(d, n, s)
        ok, w = certify(split, d)
        inert = Inertia(n * s - s, 0, s) if ok else inertia_of_spectrum(w[0])
        max_eig = Bound(-n * c) if ok else float(sym_eigvals(_null_compress(d, n, s))[-1])
        ok = inert == (n * s - s, 0, s) and max_eig < -EIG_ZERO * d_scale
        return ok, {"inertia": list(inert), "btdb_max_eig": max_eig}

    def p4():
        # L's kernel is U's column space: one certificate, or one spectrum
        rank, min_eig = rank_of(l, mats.u / math.sqrt(n))
        lu = _rel(l @ mats.u, l_scale)
        ok = lu <= NONZERO_FLOOR and rank == n * s - s and min_eig >= -EIG_ZERO * l_scale
        return ok, {"min_eig": min_eig, "lu_residual": lu, "rank": rank}

    def col_space():
        # every block row of JL = U U'L is U'L
        res = _rel(mats.u.T @ l, l_scale)
        return res <= NONZERO_FLOOR, {"jl_residual": res}

    def cor28():
        min_eig = float(sym_eigvals(mats.udu())[0])
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
    p_scale = lambda: mats.scales(beta)[0]
    f_scale = lambda: mats.scales(beta)[1]

    def thm_i():
        min_abs = mats.p_eigs(beta)[0]
        return min_abs > EIG_ZERO * p_scale(), {"min_abs_eig": min_abs}

    def thm_ii():
        inert = mats.p_eigs(beta)[1]
        return inert == (n * s - s, 0, s), {"inertia": list(inert)}

    def thm_iii():
        # strictly negative definite for beta > 0; at beta = 0 the submatrix
        # is D^{-1}[[Delta]], which has nullity exactly s (D_ii = 0), so only
        # negative semidefiniteness can hold there. The sampled spectra meet
        # that bound, and every derived inertia is the one it implies.
        bound = EIG_ZERO * p_scale()
        blocks = mats.deleted_blocks(beta)
        worst = max(blocks.sampled_max)
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
        # the Schur complement is -U'D^{-1}U at every beta, held to F D^{-1}U = U
        lhs, rhs, ok, res = mats.haynsworth(beta)
        return ok and res <= REL_RESIDUAL, {
            "lhs": list(lhs), "rhs": list(rhs), "schur_residual": res,
        }

    def thm_v():
        # THM.iv's congruence bounds B'FB where it holds; else B'FB's
        # spectrum, of F held to the asymmetry bound
        c = mats.bordered_inertia(beta)[1]
        max_eig = Bound(-c) if c is not None else float(sym_eigvals(
            _null_compress(sym_part(mats.pencil(beta).f.array), n, s))[-1])
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
        bad = (np.argwhere(~mats.block_pd(beta)) + 1).tolist()
        return not bad, {"non_pd_blocks": bad}

    def thm_vi_gx():
        floor = NONZERO_FLOOR * f_scale()
        shaped, worst_offdiag = mats.gx_spectra(beta)
        return shaped and worst_offdiag > floor, {"min_offdiag": worst_offdiag,
                                                  "floor": floor}

    return checks + [_guard("THM.vi", beta, thm_vi), _guard("THM.vi.gx", beta, thm_vi_gx)]


def verify_fiedler_markham(mats: InstanceMatrices, beta: float) -> CheckResult:
    """Nullity of a principal block of the inverse equals the nullity of the
    complementary principal submatrix, for every i; plus the distance-inverse
    instance where the complementary nullity is forced to s.

    The complementary nullities come from `InstanceMatrices.deleted_blocks`.
    On its derived route they are n_0(F_ii) by construction, so only the
    sampled vertex 1 is measured and the others inferred; the route is kept
    only while the sample agrees and, at beta > 0, every F_ii has margin,
    otherwise every vertex is measured directly. `dinv_nullities` is the
    beta = 0 row. The evidence names the measured vertices and the number
    inferred, for the beta and the dinv row.
    """

    def body():
        rows = {"beta": mats.deleted_blocks(beta), "dinv": mats.deleted_blocks(0.0)}
        null_blocks = rows["beta"].block_nullity.tolist()
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
        rel = rel_error(mats.pencil(beta).f.array, *mats.exact_f(beta))
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
    # the per-beta objects are built for all of them at once, on first use
    mats.memo("betas", lambda: list(dict.fromkeys(betas)))
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
