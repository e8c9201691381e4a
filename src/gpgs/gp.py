"""Exact Gaussian-process regression over pixel-to-point data.

Zero-mean GPs on shared inputs map normalized pixel coordinates to the
six target channels (x, y, z, r, g, b). x, y and z each have their own
hyperparameters; r, g and b share one set, fitted on the sum of their
NLLs: a multi-output GP with a shared kernel, the intrinsic
coregionalisation model with B = I (Bonilla et al. 2008). Outputs that
share hyperparameters share one Gram matrix, factored once, and one
posterior variance; groups whose fits start from one set of
hyperparameters share the evaluation there. Kernels are Matérn (closed
forms for half-integer smoothness) or RBF; hyperparameters live in log
space, inside a box, and are fitted by a projected Newton search with a
step radius (Nocedal & Wright, "Numerical Optimization", 2006, ch. 4) on
the negative log marginal likelihood plus an L2 penalty on the log
parameters, with its analytic gradient and exact Hessian (Rasmussen &
Williams, "Gaussian Processes for Machine Learning", 2006, §5.4.1). The
linear algebra follows their Algorithm 2.1 (Cholesky factorisation),
except that the predictive variance multiplies by the inverse factor
L^-1 (dtrtri) instead of solving against L: as accurate for triangular
factors (Du Croz & Higham, "Stability of methods for matrix inversion",
1992), and BLAS's triangular product runs faster than its triangular
solve. Every n x n matrix product
goes through scipy's BLAS, the library its LAPACK calls use, so that a
second BLAS thread pool (numpy's) does not contend with it.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import cache, partial

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.blas import dgemv, dsymm, dsymv, dtrmm
from scipy.linalg.lapack import dpotrf, dpotri, dtrtri
from scipy.spatial.distance import cdist

from .errors import DimensionMismatch, EmptyDataset, NotPositiveDefinite
from .sfm_io import PixelToPointDataset

MATERN = "matern"
RBF = "rbf"

SUPPORTED_NU = (0.5, 1.5, 2.5)

# Initial log-hyperparameters; inputs live in [0,1]^2 so a 0.1 lengthscale
# is a sensible starting neighbourhood.
INIT_LOG_SIGNAL_VAR = 0.0
INIT_LOG_LENGTHSCALE = math.log(0.1)
INIT_LOG_NOISE_VAR = math.log(1e-4)

NOISE_VAR_FLOOR = 1e-10
# Diagonal jitter that training starts every factorisation from; the
# Cholesky helper escalates it, up to MAX_JITTER, when a factorisation fails.
TRAIN_JITTER = 1e-8
MAX_JITTER = 1e-2

# The box of the log-parameters that training searches: signal variance
# and lengthscale within +-LOG_PARAM_BOUND, noise variance from
# NOISE_VAR_FLOOR to exp(LOG_PARAM_BOUND). Every exp() in it is finite,
# and so is the Gram matrix at every point of it.
LOG_PARAM_BOUND = 20.0
# The largest log-parameter whose exp() is a finite float.
_MAX_FINITE_LOG = math.log(sys.float_info.max)
_BOUNDS = (
    (-LOG_PARAM_BOUND, LOG_PARAM_BOUND),
    (-LOG_PARAM_BOUND, LOG_PARAM_BOUND),
    (math.log(NOISE_VAR_FLOOR), LOG_PARAM_BOUND),
)
_LOWER, _UPPER = np.array(_BOUNDS).T

# The Newton search's stopping tests, L-BFGS-B's defaults (Byrd et al.
# 1995): a relative reduction of the loss of at most factr * machine
# epsilon, with factr = 1e7, or a projected gradient of at most _PGTOL in
# every component.
_FTOL = 1e7 * np.finfo(float).eps
_PGTOL = 1e-5
# Sufficient decrease of an accepted step (Armijo), and the floor of the
# Hessian's eigenvalue magnitudes, relative to the largest.
_ARMIJO = 1e-4
_EIG_FLOOR = 1e-8

# The outputs whose hyperparameters training fits together, in the order
# it fits them: x, y and z alone, r, g and b as one group.
OUTPUT_GROUPS = ((0,), (1,), (2,), (3, 4, 5))

# Queries per posterior block: the (n, chunk) distance and covariance
# blocks bound the posterior's memory at O(n * chunk), besides the n x n
# inverse factors. At n = 2000, 2048 keeps the factor, an inverse and two
# blocks (about 4 n^2 doubles) below training's n x n workspace.
_QUERY_CHUNK = 2048


# ---------------------------------------------------------------------------
# Configuration types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelConfig:
    family: str = MATERN
    nu: float | None = 0.5
    log_signal_var: float = INIT_LOG_SIGNAL_VAR
    log_lengthscale: float = INIT_LOG_LENGTHSCALE
    log_noise_var: float = INIT_LOG_NOISE_VAR

    def __post_init__(self):
        if self.family not in (MATERN, RBF):
            raise ValueError(f"unknown kernel family {self.family!r}")
        if self.family == MATERN and self.nu not in SUPPORTED_NU:
            raise ValueError(f"nu must be one of {SUPPORTED_NU}, got {self.nu}")
        for name in ("log_signal_var", "log_lengthscale", "log_noise_var"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value <= _MAX_FINITE_LOG):
                raise ValueError(f"{name}={value} gives a non-finite parameter")
        # every kernel scales distances by c / l, c at most sqrt(5) (_SCALED_FACTOR)
        ell = math.exp(self.log_lengthscale)
        if ell == 0.0 or math.isinf(math.sqrt(5.0) / ell):
            raise ValueError(
                f"log_lengthscale={self.log_lengthscale} gives a non-finite kernel "
                "scaling sqrt(5)/lengthscale"
            )

    @property
    def signal_var(self) -> float:
        return math.exp(self.log_signal_var)

    @property
    def lengthscale(self) -> float:
        return math.exp(self.log_lengthscale)

    @property
    def noise_var(self) -> float:
        return math.exp(self.log_noise_var)

    def log_params(self) -> np.ndarray:
        return np.array([self.log_signal_var, self.log_lengthscale, self.log_noise_var])

    def with_log_params(self, theta) -> "KernelConfig":
        return replace(
            self,
            log_signal_var=float(theta[0]),
            log_lengthscale=float(theta[1]),
            log_noise_var=float(theta[2]),
        )


def default_kernel(
    family: str = KernelConfig.family, nu: float | None = KernelConfig.nu
) -> KernelConfig:
    """Kernel template at the standard initial hyperparameters."""
    return KernelConfig(family=family, nu=nu if family == MATERN else None)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 1000  # loss evaluations per output group, at most
    l2_weight: float = 1e-6
    max_train_points: int = 2000
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        corner_penalty = self.l2_weight * sum(max(lo * lo, hi * hi) for lo, hi in _BOUNDS)
        if not (self.l2_weight >= 0 and math.isfinite(corner_penalty)):
            raise ValueError(f"l2_weight must be >= 0 with a finite penalty, got {self.l2_weight}")
        if self.max_train_points < 1:
            raise ValueError(f"max_train_points must be >= 1, got {self.max_train_points}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")


@dataclass(frozen=True)
class OutputNormalizer:
    """Per-output standardisation of the six target channels.

    The stored means double as the constant GP mean functions: each output
    is modelled as a zero-mean GP on standardized targets, so the
    denormalized posterior mean reverts to the training-target mean far
    from data.
    """

    mean: np.ndarray  # (6,)
    std: np.ndarray   # (6,), floored so every entry is strictly positive

    @classmethod
    def fit(cls, targets: np.ndarray) -> "OutputNormalizer":
        mean = targets.mean(axis=0)
        std = np.maximum(targets.std(axis=0), 1e-12)
        return cls(mean, std)

    @classmethod
    def identity(cls, k: int = 6) -> "OutputNormalizer":
        return cls(np.zeros(k), np.ones(k))

    def normalize(self, targets: np.ndarray) -> np.ndarray:
        return (targets - self.mean) / self.std

    def denormalize_mean(self, z: np.ndarray) -> np.ndarray:
        return z * self.std + self.mean


# ---------------------------------------------------------------------------
# Kernel evaluation
# ---------------------------------------------------------------------------

def kernel_value(cfg: KernelConfig, a, b) -> float:
    """Covariance between two input vectors, with training's arithmetic."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"input shapes differ: {a.shape} vs {b.shape}")
    D = np.full((1, 1), np.linalg.norm(a - b))
    S, K = np.empty_like(D), np.empty_like(D)
    _fill_correlation(cfg.family, cfg.nu, cfg.lengthscale, D, S, S, K)
    return float(cfg.signal_var * K[0, 0])


def gram_matrix(cfg: KernelConfig, X: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """k(X, X) with noise variance and jitter added to the diagonal.

    Filled with the arithmetic that training and TrainedGP.fit factor.
    """
    ws = _Workspace(np.atleast_2d(np.asarray(X, dtype=float)))
    _fill_gram(cfg.log_params(), cfg.family, cfg.nu, ws, jitter)
    return ws.K


# ---------------------------------------------------------------------------
# Cholesky with jitter escalation
# ---------------------------------------------------------------------------

def _cholesky_in_place(K: np.ndarray, fill, jitter: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a Gram matrix plus jitter, in K's buffer.

    fill(j) writes the Gram matrix with jitter j on its diagonal into the
    Fortran-ordered K; dpotrf then factors it in place. A failed dpotrf
    has overwritten part of K, so each retry refills it, with the jitter
    multiplied by 10 (starting from 1e-10 when it is zero or below, so
    that every start reaches MAX_JITTER); past MAX_JITTER it gives up.
    Returns the factor (in the lower triangle; the upper one is zeroed)
    and the jitter used.
    """
    j = jitter
    while True:
        fill(j)
        L, info = dpotrf(K, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            return L, j
        nxt = 1e-10 if j <= 0.0 else j * 10.0
        if nxt > MAX_JITTER:
            raise NotPositiveDefinite("Gram matrix is not positive definite", j)
        j = nxt


def _solve_gram(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 y by two triangular solves against the lower factor L.

    y may be one column (n,) or a block (n, k); an (n, 1) block gives the
    bits of the single column.
    """
    w = solve_triangular(L, y, lower=True, check_finite=False)
    return solve_triangular(L, w, lower=True, trans="T", check_finite=False)


def _needs_scratch(cfg: KernelConfig) -> bool:
    """Whether _fill_correlation needs S and E apart from K (Matérn 1.5, 2.5)."""
    return cfg.family == MATERN and cfg.nu != 0.5


# ---------------------------------------------------------------------------
# Negative log marginal likelihood and its gradient
# ---------------------------------------------------------------------------

class _Workspace:
    """Preallocated n x n buffers for filling and factoring Gram matrices.

    Every evaluation touches several full matrices; reusing
    Fortran-ordered buffers keeps LAPACK in-place and avoids allocation
    churn. D holds the pairwise distances, S and E the scaled distances
    and the exponential factor (for a Hessian, E then holds
    d^2R/d(log l)^2), and dR and M (touched only by derivatives) dR/d(log l)
    and K^-1 dR. K holds the Gram matrix, then its Cholesky factor, then
    (for a gradient) its inverse. While K holds the factor at theta,
    theta and jitter record it; theta is None otherwise. A factor handed
    over (hand_over) stays with its holder: the next factorisation takes
    a new buffer for K.
    """

    def __init__(self, X: np.ndarray):
        n = X.shape[0]
        self.n = n
        self.D = cdist(X, X).T  # exactly symmetric, so this is a Fortran-ordered view of it
        self.S = np.empty((n, n), order="F")
        self.E = np.empty((n, n), order="F")
        self.dR = np.empty((n, n), order="F")
        self.M = np.empty((n, n), order="F")
        self.K = np.empty((n, n), order="F")
        self.theta = self.jitter = None
        self.held = False

    def hand_over(self) -> np.ndarray:
        """K, for the caller to keep; it is not written again."""
        self.held = True
        return self.K


_SCALED_FACTOR = {0.5: 1.0, 1.5: math.sqrt(3.0), 2.5: math.sqrt(5.0)}


def _fill_correlation(family, nu, ell, D, S, E, K) -> None:
    """Fill K with R at the distances D, leaving in S and E what
    _fill_derivatives reads.

    Works on the scaled distance s = c * D / l in S (t = D / l for RBF),
    where c folds the sqrt(2 nu) factor of the half-integer Matérn closed
    forms; E holds the exponential factor. All four arrays have one shape.
    S and E may be one buffer when the caller does not read them
    afterwards; for RBF and
    Matérn 0.5, K may be that buffer too. Training, kernel_value and the
    posterior's cross-covariance all fill through here, so their kernel
    values agree bit for bit.
    """
    if family == RBF:
        np.multiply(D, 1.0 / ell, out=S)
        np.multiply(S, S, out=E)
        np.multiply(E, -0.5, out=E)
        np.exp(E, out=E)  # E = exp(-t^2/2) = R
        np.copyto(K, E)
        return
    np.multiply(D, _SCALED_FACTOR[nu] / ell, out=S)
    if nu == 1.5:
        np.add(S, 1.0, out=K)  # 1 + s
    elif nu == 2.5:
        np.multiply(S, S, out=K)
        np.multiply(K, 1.0 / 3.0, out=K)
        np.add(K, S, out=K)
        np.add(K, 1.0, out=K)  # 1 + s + s^2/3
    np.negative(S, out=E)
    np.exp(E, out=E)  # E = exp(-s)
    if nu == 0.5:
        np.copyto(K, E)
    else:
        np.multiply(K, E, out=K)  # R = poly(s) exp(-s)


def _fill_gram(theta, family, nu, ws: _Workspace, jitter) -> None:
    """Fill ws.K with the Gram matrix at theta = (log sf2, log l, log sn2),
    with sn2 + jitter on its diagonal."""
    _fill_correlation(family, nu, math.exp(theta[1]), ws.D, ws.S, ws.E, ws.K)
    np.multiply(ws.K, math.exp(theta[0]), out=ws.K)
    np.einsum("ii->i", ws.K)[:] += math.exp(theta[2]) + jitter


def _factor(theta, family, nu, ws: _Workspace, jitter) -> None:
    """Factor the Gram matrix at theta in ws.K, in a new buffer if the
    current one has been handed over.

    The jitter escalates from jitter on a failed factorisation
    (_cholesky_in_place). Afterwards ws.K holds the lower factor and
    ws.theta and ws.jitter record it.
    """
    if ws.held:
        ws.K, ws.held = np.empty((ws.n, ws.n), order="F"), False
    _, ws.jitter = _cholesky_in_place(ws.K, partial(_fill_gram, theta, family, nu, ws), jitter)
    ws.theta = np.array(theta)


def _fill_derivatives(family, nu, ws: _Workspace) -> None:
    """Fill ws.dR with dR/d(log l), then ws.E with d^2R/d(log l)^2, from the
    S and E of _fill_correlation, using S as scratch.

    With s the scaled distance (t for RBF) and E the exponential factor,
    for RBF and Matérn 0.5, 1.5 and 2.5 dR is t^2 E, s E, s^2 E and
    (s^2/3)(1+s) E, and d^2R is t^2(t^2-2)E, s(s-1)E, s^2(s-2)E and
    (s^2/3)(s^2-2s-2)E: both zero on the diagonal, where D is zero.
    """
    S, E, dR = ws.S, ws.E, ws.dR
    if family == RBF:
        np.multiply(S, S, out=dR)
        np.multiply(dR, E, out=dR)
        np.multiply(S, S, out=S)
        np.multiply(E, S, out=E)
        np.subtract(S, 2.0, out=S)  # t^2 - 2
    elif nu == 0.5:
        np.multiply(S, E, out=dR)
        np.multiply(E, S, out=E)
        np.subtract(S, 1.0, out=S)  # s - 1
    elif nu == 1.5:
        np.multiply(S, S, out=dR)
        np.multiply(dR, E, out=dR)
        np.multiply(E, S, out=E)
        np.multiply(E, S, out=E)
        np.subtract(S, 2.0, out=S)  # s - 2
    else:  # nu == 2.5
        np.multiply(S, S, out=dR)
        np.multiply(dR, 1.0 / 3.0, out=dR)
        np.add(S, 1.0, out=S)
        np.multiply(dR, S, out=dR)
        np.multiply(dR, E, out=dR)
        np.subtract(S, 1.0, out=S)  # (1 + s) - 1, not always s's bits
        np.multiply(E, S, out=E)
        np.multiply(E, S, out=E)
        np.multiply(E, 1.0 / 3.0, out=E)
        np.subtract(S, 1.0, out=S)
        np.multiply(S, S, out=S)
        np.subtract(S, 3.0, out=S)  # (s - 1)^2 - 3 = s^2 - 2s - 2
    np.multiply(E, S, out=E)


def _objective(theta, family, nu, ws: _Workspace, ys, l2_weight, jitter):
    """Loss of each target block y in ys at theta = (log sf2, log l, log sn2),
    from one Gram matrix K at theta, with its gradient and Hessian on demand.

    A block y, (n, k) or (n,) for k = 1, holds columns y_1..y_k that share
    theta; its loss is
        sum_c (0.5 y_c^T K^-1 y_c + 0.5 log|K| + n/2 log(2 pi)) + l2 |theta|^2,
    the sum of the k single-column NLLs with the penalty counted once.
    With K_i = dK/dtheta_i, K_ij its second derivatives and a_c = K^-1 y_c,
    dL/dtheta_i = sum_c 0.5 tr((K^-1 - a_c a_c^T) K_i) + 2 l2 theta_i,
    d2L/dtheta_i dtheta_j = sum_c [0.5 tr(K^-1 K_ij - K^-1 K_i K^-1 K_j)
        + a_c^T K_i K^-1 K_j a_c - 0.5 a_c^T K_ij a_c] + 2 l2 [i = j]
    (Rasmussen & Williams 2006, §5.4.1), so the trace terms are k times a
    column's and the alpha terms are summed over the columns. Since
    K_0 = K - (sn2 + jitter) I and K_2 = sn2 I, every trace folds into tr
    K^-1, ||K^-1||_F^2, <K^-1, dR>, <K^-1, d2R>, tr(K^-1 M) and tr(M M),
    with M = K^-1 dR the one extra n x n product; they do not depend on
    y. Each block's own alpha and alpha terms keep the arithmetic of an
    evaluation of that block alone, so its bits do not depend on which
    blocks share the evaluation, and with k = 1 they are those of a single
    column. Returns one (loss, derivatives) pair per block; the losses take
    one factorisation, left in ws.K. The first derivatives() call of any
    block computes every block's (grad, hess) from one inversion of it and
    one pass of each trace, and later calls return them; a first call
    after ws has factored again or handed its factor over raises.
    """
    n = ws.n
    _factor(theta, family, nu, ws, jitter)
    L, factored = ws.K, ws.theta  # a new theta array per factorisation
    logdet_half = float(np.sum(np.log(np.einsum("ii->i", L))))
    penalty = l2_weight * float(theta @ theta)
    blocks = []  # (k, alpha, y^T alpha, loss) per block
    for y in ys:
        k = 1 if y.ndim == 1 else y.shape[1]
        alpha = _solve_gram(L, y)
        y_alpha = float(np.vdot(y, alpha))
        loss = 0.5 * y_alpha + k * logdet_half + 0.5 * k * n * math.log(2.0 * math.pi) + penalty
        blocks.append((k, alpha, y_alpha, loss))

    @cache
    def every_block():
        if ws.theta is not factored or ws.held:
            raise RuntimeError("derivatives asked after the workspace's factor was replaced")
        return _derivatives(theta, family, nu, ws, blocks, l2_weight)

    return [(loss, lambda b=b: every_block()[b]) for b, (*_, loss) in enumerate(blocks)]


def _derivatives(theta, family, nu, ws: _Workspace, blocks, l2_weight):
    """(grad, hess) of each _objective block, from the factor in ws.K, which
    dpotri turns into K^-1 (ws.theta is None then); dR and d^2R
    (_fill_derivatives) and M = K^-1 dR fill ws.dR, ws.E and ws.M."""
    n = ws.n
    L, j = ws.K, ws.jitter
    sf2, sn2 = math.exp(theta[0]), math.exp(theta[2])
    _fill_derivatives(family, nu, ws)
    dR, d2R = ws.dR, ws.E
    ws.theta = None
    inv, info = dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefinite("dpotri failed on the Cholesky factor", j)
    # inv holds K^-1 in its lower triangle and zeros above it (dpotrf's
    # clean). dR and d2R are symmetric with a zero diagonal, so their inner
    # products with K^-1 are twice the sums over the lower triangle; the
    # BLAS calls read K^-1 as a symmetric matrix from its lower triangle.
    tr_kinv = float(np.einsum("ii->", inv))
    tr_kinv_dr = 2.0 * float(np.einsum("ij,ij->", inv, dR))
    tr_kinv_d2r = 2.0 * float(np.einsum("ij,ij->", inv, d2R))
    diag_sq = float(np.einsum("ii,ii->", inv, inv))
    kinv_sq = 2.0 * float(np.einsum("ij,ij->", inv, inv)) - diag_sq
    M = dsymm(1.0, inv, dR, lower=1, c=ws.M, overwrite_c=1)
    # tr(K^-1 M) = <K^-1, M^T> over the whole symmetric K^-1
    tr_kinv_m = (
        float(np.einsum("ij,ij->", inv, M)) + float(np.einsum("ij,ji->", inv, M))
        - float(np.einsum("ii,ii->", inv, M))
    )
    tr_mm = float(np.einsum("ij,ji->", M, M))
    c_diag = sn2 + j
    # 0.5 tr(K^-1 K_ij - K^-1 K_i K^-1 K_j) of one column
    traces = 0.5 * _symmetric(
        c_diag * tr_kinv - c_diag**2 * kinv_sq,
        sf2 * c_diag * tr_kinv_m,
        -sn2 * (tr_kinv - c_diag * kinv_sq),
        sf2 * tr_kinv_d2r - sf2**2 * tr_mm,
        -sf2 * sn2 * tr_kinv_m,
        sn2 * tr_kinv - sn2**2 * kinv_sq,
    )
    out = []
    for k, alpha, y_alpha, _ in blocks:
        # per column a: a^T dR a, a^T K^-1 a, (dR a)^T K^-1 a,
        # (dR a)^T K^-1 (dR a) and a^T d2R a
        a_dr_a = a_kinv_a = dr_kinv_a = dr_kinv_dr = a_d2r_a = 0.0
        for a in alpha.reshape(n, k).T:
            v = dgemv(1.0, dR, a)
            w = dsymv(1.0, inv, a, lower=1)
            a_dr_a += float(np.vdot(a, v))
            a_kinv_a += float(np.vdot(a, w))
            dr_kinv_a += float(np.vdot(v, w))
            dr_kinv_dr += float(np.vdot(v, dsymv(1.0, inv, v, lower=1)))
            a_d2r_a += float(np.vdot(a, dsymv(1.0, d2R, a, lower=1)))
        alpha_sq = float(np.vdot(alpha, alpha))
        grad = np.array(
            [
                0.5 * (k * (n - c_diag * tr_kinv) - (y_alpha - c_diag * alpha_sq)),
                0.5 * sf2 * (k * tr_kinv_dr - a_dr_a),
                0.5 * sn2 * (k * tr_kinv - alpha_sq),
            ]
        )
        grad += 2.0 * l2_weight * np.asarray(theta)
        hess = k * traces + _symmetric(
            0.5 * y_alpha - 1.5 * c_diag * alpha_sq + c_diag**2 * a_kinv_a,
            sf2 * (0.5 * a_dr_a - c_diag * dr_kinv_a),
            sn2 * (alpha_sq - c_diag * a_kinv_a),
            sf2**2 * dr_kinv_dr - 0.5 * sf2 * a_d2r_a,
            sf2 * sn2 * dr_kinv_a,
            sn2**2 * a_kinv_a - 0.5 * sn2 * alpha_sq,
        )
        hess += 2.0 * l2_weight * np.eye(3)
        out.append((grad, hess))
    return out


def _symmetric(h00, h01, h02, h11, h12, h22) -> np.ndarray:
    """The symmetric 3 x 3 matrix with the given upper triangle."""
    return np.array([[h00, h01, h02], [h01, h11, h12], [h02, h12, h22]])


def _one_block(cfg: KernelConfig, X, y, l2_weight, jitter):
    """_objective's (loss, derivatives) at cfg for a column y or an (n, k) y."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float)
    [result] = _objective(
        cfg.log_params(), cfg.family, cfg.nu, _Workspace(X),
        (y if y.ndim == 2 else y.ravel(),), l2_weight, jitter,
    )
    return result


def nll(cfg: KernelConfig, X, y, l2_weight: float = 0.0, jitter: float = 0.0) -> float:
    """Training loss for one output, or for the columns of an (n, k) y that
    share cfg: the summed NLL plus the L2 log-parameter penalty (_objective)."""
    return _one_block(cfg, X, y, l2_weight, jitter)[0]


def nll_gradient(
    cfg: KernelConfig, X, y, l2_weight: float = 0.0, jitter: float = 0.0
) -> np.ndarray:
    """Analytic gradient of nll over the three log-hyperparameters."""
    return _one_block(cfg, X, y, l2_weight, jitter)[1]()[0]


# ---------------------------------------------------------------------------
# Trained model
# ---------------------------------------------------------------------------

def _alphas(factors, Z) -> tuple[np.ndarray, ...]:
    """(K + sn2 I)^-1 Z[:, j] for each output j against its factor, one column
    at a time, so that its bits do not depend on which outputs share it."""
    return tuple(_solve_gram(L, Z[:, j]) for j, L in enumerate(factors))


@dataclass(frozen=True)
class TrainedGP:
    """Conditioned GPs, one per output, sharing one set of inputs.

    Outputs with equal hyperparameters and jitter (after training, r, g
    and b) share one Gram matrix and so one Cholesky factor. train_gp
    hands over the factors training computed at the kept hyperparameters;
    fit computes them the same way from configs alone. Immutable after
    construction; posterior evaluation is a pure read and may run
    concurrently from many threads.
    """

    configs: tuple[KernelConfig, ...]      # one per output
    normalizer: OutputNormalizer
    X: np.ndarray                          # (n, d) training inputs
    Z: np.ndarray                          # (n, 6) normalized targets
    factors: tuple[np.ndarray, ...]        # per-output Cholesky factor of K + sn2 I (+ jitter),
                                           # Fortran-ordered, in the lower triangle (the
                                           # upper one is zero); outputs with equal config
                                           # and jitter hold the same array
    alphas: tuple[np.ndarray, ...]         # per-output (K + sn2 I)^-1 z
    jitters: tuple[float, ...]             # jitter actually used per output
    width: int
    height: int
    loss_curves: tuple[np.ndarray, ...] = ()  # train_gp: one per OUTPUT_GROUPS entry

    @property
    def n_outputs(self) -> int:
        return len(self.configs)

    @property
    def input_dim(self) -> int:
        return self.X.shape[1]

    @property
    def groups(self) -> list[list[int]]:
        """The outputs that share one factor, in order of their first output."""
        groups: dict[int, list[int]] = {}
        for j, L in enumerate(self.factors):
            groups.setdefault(id(L), []).append(j)
        return list(groups.values())

    @classmethod
    def fit(
        cls,
        X: np.ndarray,
        Z: np.ndarray,
        configs,
        normalizer: OutputNormalizer,
        width: int,
        height: int,
        jitter=0.0,
    ) -> "TrainedGP":
        """Condition one GP per column of Z on X at fixed hyperparameters.

        Z is already normalized. jitter may be a scalar or a per-output
        sequence; each output records the value escalation settled on.
        One Gram matrix is filled and factored (_factor) per distinct
        (config, jitter), the factor its outputs share, so a refit at the
        configs and jitters a training kept reproduces its factors, alphas
        and groups bit for bit. Configs need not repeat: a model file from
        separate fits of every output loads to six factors. The model has
        no loss curves.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] != X.shape[0]:
            raise DimensionMismatch(f"targets {Z.shape} do not match inputs {X.shape}")
        configs = tuple(configs)
        if len(configs) != Z.shape[1]:
            raise DimensionMismatch(f"{len(configs)} kernel configs for {Z.shape[1]} outputs")
        keys = list(zip(configs, jitter if np.ndim(jitter) else [float(jitter)] * len(configs)))
        ws, shared = _Workspace(X), {}  # (config, jitter) -> (factor, jitter used)
        for cfg, j0 in dict.fromkeys(keys):
            _factor(cfg.log_params(), cfg.family, cfg.nu, ws, j0)
            shared[cfg, j0] = (ws.hand_over(), ws.jitter)
        factors = tuple(shared[key][0] for key in keys)
        jitters = tuple(shared[key][1] for key in keys)
        return cls(configs, normalizer, X, Z, factors, _alphas(factors, Z), jitters, width, height)


@dataclass(frozen=True)
class PosteriorBatch:
    mean: np.ndarray      # (m, 6) denormalized
    var_norm: np.ndarray  # (m, 6) in standardized target space, clamped at zero;
                          # NaN in columns not asked for


def posterior(model: TrainedGP, Q, var_outputs=None) -> PosteriorBatch:
    """Predictive mean, in target units, and variance, in standardized
    target units, at query inputs Q (m, d).

    mu = k*^T alpha and var = k(q,q) - ||L^-1 k*||^2 per output, evaluated
    through the cached Cholesky factors (Rasmussen & Williams, Alg. 2.1).
    The outputs that share a factor (model.groups) share its
    cross-covariance k* and its variance. Each distinct factor L with an
    output in var_outputs (None: all) is inverted once per call (dtrtri,
    into a new array: the model is never written), and each block then
    costs one fill and one triangular product L^-1 k* (dtrmm); a factor
    whose variance is not asked costs the fill alone. Variance columns not
    asked for are NaN. Each mean is one k*^T alpha of its own, so it does
    not depend on which outputs share its factor. Queries are processed in
    blocks of _QUERY_CHUNK that share one distance block across the
    outputs, so memory is O(n * chunk + v * n^2) rather than O(n * m),
    with v the number of inverted factors. Each cross-covariance block is
    filled by _fill_correlation, the fill of the Gram matrices the factors
    came from, so k(x_i, q) is bit for bit the Gram entry training would
    compute for that pair. Results are deterministic for the same inputs,
    chunk size and BLAS threads, but a query's variance bits may depend
    on the width of its block and its place in it: BLAS splits a block's
    columns among threads and kernel panels by the width, and the panels
    can round differently in the last bits (relative 1e-16).
    """
    Q = np.atleast_2d(np.asarray(Q, dtype=float))
    if Q.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"query dimension {Q.shape[1]} != training dimension {model.input_dim}"
        )
    m = Q.shape[0]
    k = model.n_outputs
    var_outputs = set(range(k) if var_outputs is None else var_outputs)
    if not var_outputs <= set(range(k)):
        raise ValueError(f"variance outputs {sorted(var_outputs)} out of range for {k} outputs")
    mean = np.empty((m, k))  # standardized until the end
    var_norm = np.full((m, k), np.nan)
    # One distance buffer, one covariance block (and one scratch block, for
    # kernels that need it) serve every chunk and factor. The C-ordered
    # (chunk, n) distance rows transpose to Fortran-ordered (n, chunk)
    # views, as do the column prefixes of the Fortran-ordered blocks.
    n, chunk = model.X.shape[0], min(m, _QUERY_CHUNK)
    dist = np.empty((chunk, n))
    block = np.empty((n, chunk), order="F")
    scratch = np.empty((n, chunk), order="F") if any(map(_needs_scratch, model.configs)) else None
    groups = model.groups
    inverses = {}  # first output of a group -> L^-1, dtrtri's new array
    for outputs in groups:
        if var_outputs.intersection(outputs):
            Li, info = dtrtri(model.factors[outputs[0]], lower=1)
            if info != 0:
                raise NotPositiveDefinite("dtrtri failed on the Cholesky factor",
                                          model.jitters[outputs[0]])
            inverses[outputs[0]] = Li
    for start in range(0, m, _QUERY_CHUNK):
        rows = slice(start, min(start + _QUERY_CHUNK, m))
        width = rows.stop - start
        D = cdist(Q[rows], model.X, out=dist[:width]).T
        for outputs in groups:
            cfg = model.configs[outputs[0]]
            Ks = block[:, :width]
            tmp = scratch[:, :width] if _needs_scratch(cfg) else Ks
            _fill_correlation(cfg.family, cfg.nu, cfg.lengthscale, D, tmp, tmp, Ks)
            np.multiply(Ks, cfg.signal_var, out=Ks)
            for j in outputs:
                mean[rows, j] = dgemv(1.0, Ks, model.alphas[j], trans=1)
            asked = [j for j in outputs if j in var_outputs]
            if asked:
                # V = L^-1 k* and then V * V overwrite the covariance block in place.
                V = dtrmm(1.0, inverses[outputs[0]], Ks, lower=1, overwrite_b=1)
                np.multiply(V, V, out=V)
                var = np.maximum(cfg.signal_var - V.sum(axis=0), 0.0)
                var_norm[rows, asked] = var[:, None]
    return PosteriorBatch(model.normalizer.denormalize_mean(mean), var_norm)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

def _newton_step(theta, grad, hess, radius) -> np.ndarray:
    """The theta that a projected Newton step of length at most radius
    reaches from theta, inside the box _BOUNDS.

    A variable that sits on a bound with its gradient pointing out of the
    box stays fixed. On the free ones the step is -|H|^-1 g, with |H| their
    Hessian block with the magnitudes of its eigenvalues floored at
    _EIG_FLOOR times the largest, so that it descends where the Hessian is
    indefinite too (Nocedal & Wright 2006, §3.4). The step is shortened to
    radius, and theta plus it projected onto the box. Where that leaves no
    descent (or the Hessian is zero or not finite), the projected
    steepest-descent step of the same length is taken instead.
    """
    free = ~(((theta <= _LOWER) & (grad > 0)) | ((theta >= _UPPER) & (grad < 0)))
    g = grad[free]

    def projected(step):
        length = float(np.linalg.norm(step))
        full = np.zeros_like(theta)
        full[free] = step * (radius / length) if length > radius else step
        return np.clip(theta + full, _LOWER, _UPPER)

    block = hess[np.ix_(free, free)]
    if np.isfinite(block).all():
        lam, Q = np.linalg.eigh(block)
        mag = np.abs(lam)
        if mag.max() > 0.0:
            mag = np.maximum(mag, _EIG_FLOOR * mag.max())
            trial = projected(-dgemv(1.0, Q, dgemv(1.0, Q, g, trans=1) / mag))
            if np.dot(grad, trial - theta) < 0.0:
                return trial
    return projected(-g)


def _minimize_within(fun, theta0: np.ndarray, budget: int, first=None):
    """Minimise fun(theta) -> (loss, derivatives) over the box _BOUNDS by
    projected Newton steps, in at most budget evaluations.

    The search starts at theta0 clipped into the box, with a step radius
    of 1, so that its first step is at most 1 long: a longer one can leave
    the basin of the start for a corner of the box, where the loss is
    1e6 to 1e10. Each step is _newton_step's from the current theta. A
    step whose loss falls by at least _ARMIJO times the fall the gradient
    predicts is accepted, and the radius doubles; otherwise the current
    theta stays, and the radius becomes half the failed step's length.
    The search stops on L-BFGS-B's default tests: a projected gradient of
    at most _PGTOL in every component, or an accepted step that reduces
    the loss by a relative _FTOL or less (after a rejected one: a
    predicted fall that small). Otherwise it stops when budget
    evaluations are spent. A trial needs only its loss (Nocedal & Wright
    2006, ch. 3): derivatives(), the (grad, hess) at theta, is called only
    at the start, when budget remains, and after an accepted step that
    neither spends the budget nor stops on _FTOL. Returns the lowest-loss
    theta evaluated and the loss of every evaluation in order. first, when
    given, is fun(clipped theta0), already evaluated.
    """
    thetas, losses = [], []

    def evaluate(theta):
        result = first if not losses and first is not None else fun(theta)
        thetas.append(theta)
        losses.append(result[0])
        return result

    theta = np.clip(theta0, _LOWER, _UPPER)
    loss, derivatives = evaluate(theta)
    grad, radius = None, 1.0  # grad is None until derivatives() at theta
    while len(losses) < budget:
        if grad is None:
            grad, hess = derivatives()
        if np.abs(np.clip(theta - grad, _LOWER, _UPPER) - theta).max() <= _PGTOL:
            break
        trial = _newton_step(theta, grad, hess, radius)
        step = trial - theta
        fall = -float(np.dot(grad, step))
        trial_loss, trial_derivatives = evaluate(trial)
        if trial_loss <= loss - _ARMIJO * fall:
            reduction = (loss - trial_loss) / max(abs(loss), abs(trial_loss), 1.0)
            theta, loss, derivatives, grad = trial, trial_loss, trial_derivatives, None
            radius *= 2.0
            if reduction <= _FTOL:
                break
        elif fall <= _FTOL * max(abs(loss), 1.0):
            break
        else:
            radius = 0.5 * float(np.linalg.norm(step))
    best = int(np.argmin(losses))
    return thetas[best], np.array(losses)


def _fit_outputs(X, Z, kernel: KernelConfig, cfg: TrainConfig, starts):
    """Newton fit (_minimize_within) of each OUTPUT_GROUPS group of
    columns of Z on the inputs X, on the group's summed loss (_objective),
    from the log-parameters of the KernelConfig starts[j] of its first
    output j.

    Groups that start from one theta (clipped into the box) share their
    first evaluation: the first of them to be fitted evaluates theta once
    for all of them (one factorisation and, once a search asks for
    derivatives, one inversion), each group's bits those of its own.

    Returns, per group, the kept log-parameters, the Cholesky factor and
    jitter at them, and the loss curve. The factor is the workspace's K,
    handed over to the group: when K still holds the factor at the kept
    log-parameters (ws.theta says so: the search took no derivatives at
    its kept last evaluation, or kept the shared first one at a budget of
    1) it goes over as it is, to every group that kept them; otherwise it
    is factored once more. The other n x n buffers live only for the call.
    """
    ws = _Workspace(X)
    objective = partial(
        _objective, family=kernel.family, nu=kernel.nu, ws=ws,
        l2_weight=cfg.l2_weight, jitter=TRAIN_JITTER,
    )
    ys = [Z[:, outputs] for outputs in OUTPUT_GROUPS]
    # clipped into the box, as _minimize_within clips a start, so that a
    # shared first evaluation is at the theta each search evaluates first
    thetas0 = [np.clip(starts[outputs[0]].log_params(), _LOWER, _UPPER)
               for outputs in OUTPUT_GROUPS]
    firsts = {}  # group -> its (loss, derivatives) from a first evaluation it shares
    fits = []
    for g, (y, theta0) in enumerate(zip(ys, thetas0)):
        if g not in firsts:
            together = [h for h in range(g, len(ys)) if np.array_equal(thetas0[h], theta0)]
            if len(together) > 1:
                firsts.update(zip(together, objective(theta0, ys=[ys[h] for h in together])))

        def own(theta, y=y):
            return objective(theta, ys=(y,))[0]

        theta, curve = _minimize_within(own, theta0, cfg.iterations, firsts.get(g))
        if not np.array_equal(ws.theta, theta):
            _factor(theta, kernel.family, kernel.nu, ws, TRAIN_JITTER)
        fits.append((theta, ws.hand_over(), ws.jitter, curve))
    return fits


def train_gp(
    ds: PixelToPointDataset, kernel: KernelConfig, cfg: TrainConfig, starts=None
) -> TrainedGP:
    """Fit the six outputs' GPs to a pixel-to-point dataset by projected
    Newton steps on the exact Hessian.

    Targets are standardized per output. Each group of OUTPUT_GROUPS (x,
    y and z alone; r, g and b together, on the sum of their three NLLs)
    then minimises its loss over one set of log-parameters, inside the box
    _BOUNDS (signal variance and lengthscale within +-LOG_PARAM_BOUND,
    noise variance from NOISE_VAR_FLOOR to exp(LOG_PARAM_BOUND)), starting
    from the log-parameters of starts[j] for its first output j (one
    KernelConfig per output; None: the kernel's) with a first step of at
    most 1 (_minimize_within). Groups that start from one theta share the
    evaluation there (_fit_outputs). cfg.iterations is an exact budget of
    loss evaluations per group: the search ends when it converges or has
    spent the budget, and the group keeps the lowest-loss parameters
    evaluated (with a budget of 1, the starting ones). Only a theta the
    search steps from gets the gradient and the Hessian. The model's
    loss_curves hold one curve per group, every evaluation in order; a
    curve of cfg.iterations entries means the budget, not convergence,
    ended the search. Oversized datasets are first reduced to a seeded
    uniform subsample of max_train_points. The model keeps the factor each
    group's search handed over, the first group's where groups end at one
    (config, jitter): bit for bit the factors TrainedGP.fit computes there.
    """
    if len(ds) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    X, Y = ds.inputs, ds.targets
    n = X.shape[0]
    if n > cfg.max_train_points:
        rng = np.random.default_rng(cfg.seed)
        keep = np.sort(rng.choice(n, size=cfg.max_train_points, replace=False))
        X, Y = X[keep], Y[keep]

    normalizer = OutputNormalizer.fit(Y)
    Z = normalizer.normalize(Y)
    if starts is None:
        starts = [kernel] * Z.shape[1]
    elif len(starts) != Z.shape[1]:
        raise DimensionMismatch(f"{len(starts)} starting configs for {Z.shape[1]} outputs")
    k = Z.shape[1]
    configs, factors, jitters, curves, shared = [None] * k, [None] * k, [None] * k, [], {}
    for outputs, (theta, L, jitter, curve) in zip(
        OUTPUT_GROUPS, _fit_outputs(X, Z, kernel, cfg, starts)
    ):
        fitted = kernel.with_log_params(theta)
        L = shared.setdefault((fitted, jitter), L)  # groups that end equal share one factor
        for j in outputs:
            configs[j], factors[j], jitters[j] = fitted, L, jitter
        curves.append(curve)
    return TrainedGP(
        tuple(configs), normalizer, X, Z, tuple(factors), _alphas(factors, Z), tuple(jitters),
        ds.width, ds.height, tuple(curves),
    )
