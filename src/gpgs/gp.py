"""Exact Gaussian-process regression over pixel-to-point data.

Zero-mean GPs on shared inputs map normalized pixel coordinates to the
six target channels (x, y, z, r, g, b). x, y and z share one set of
hyperparameters, r, g and b another, each fitted on the sum of its three
NLLs: per group, a multi-output GP with a shared kernel, the intrinsic
coregionalisation model with B = I (Bonilla et al. 2008). Outputs that
share hyperparameters share one Gram matrix, factored once, and one
posterior variance; every group's fit starts from one set of
hyperparameters, and the groups share the evaluation there. Kernels are
Matérn (closed forms for half-integer smoothness) or RBF; hyperparameters live in log
space, inside a box, and are fitted by a projected Newton search with a
step radius (Nocedal & Wright, "Numerical Optimization", 2006, ch. 4) on
the negative log marginal likelihood plus an L2 penalty on the log
parameters, with its analytic gradient and exact Hessian (Rasmussen &
Williams, "Gaussian Processes for Machine Learning", 2006, §5.4.1). The
linear algebra follows their Algorithm 2.1 (Cholesky factorisation),
except that the predictive variance multiplies by the inverse factor
L^-1 (dtrtri), which a model keeps in place of L, instead of solving
against L: as accurate for triangular factors (Du Croz & Higham,
"Stability of methods for matrix inversion", 1992), and BLAS's
triangular product runs faster than its triangular solve. Every n x n
matrix product goes through scipy's BLAS, the library its LAPACK calls
use, so that a second BLAS thread pool (numpy's) does not contend with
it.
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
# Diagonal jitter that training starts every factorisation from; _factor
# escalates it, up to MAX_JITTER, when a factorisation fails.
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
# it fits them: position (x, y, z), then colour (r, g, b).
OUTPUT_GROUPS = ((0, 1, 2), (3, 4, 5))

# Queries per posterior block: the (n, chunk) distance and covariance
# blocks bound the posterior's memory at O(n * chunk), besides the model's
# n x n inverse factors. At n = 2000, a one-group model holds its inverse
# factor (32 MB) and one 4.1 MB block. Narrower blocks run slower: at 128,
# n = 2000, the posterior over 11,683 queries took 0.89 s against 0.63 s.
_QUERY_CHUNK = 256


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
    E, K = np.empty_like(D), np.empty_like(D)
    _fill_correlation(cfg.family, cfg.nu, cfg.lengthscale, D, E, K)
    return float(cfg.signal_var * K[0, 0])


def gram_matrix(cfg: KernelConfig, X: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """k(X, X) with noise variance and jitter added to the diagonal.

    Filled with the arithmetic that training and TrainedGP.fit factor.
    """
    ws = _Workspace(np.atleast_2d(np.asarray(X, dtype=float)))
    _fill_gram(cfg.log_params(), cfg.family, cfg.nu, ws, jitter)
    return ws.K


# ---------------------------------------------------------------------------
# Cholesky solves
# ---------------------------------------------------------------------------

def _solve_gram(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 y by two triangular solves against the lower factor L.

    y may be one column (n,) or a block (n, k); an (n, 1) block gives the
    bits of the single column.
    """
    w = solve_triangular(L, y, lower=True, check_finite=False)
    return solve_triangular(L, w, lower=True, trans="T", check_finite=False)


def _needs_scratch(family, nu) -> bool:
    """Whether _fill_correlation needs E apart from K (Matérn 1.5, 2.5)."""
    return family == MATERN and nu != 0.5


# ---------------------------------------------------------------------------
# Negative log marginal likelihood and its gradient
# ---------------------------------------------------------------------------

class _Workspace:
    """The n x n buffers for filling and factoring Gram matrices on the
    inputs X, each allocated only for a step that reads it.

    K holds the Gram matrix, then its Cholesky factor, then (for a
    gradient) its inverse. While K holds the factor at theta, theta and
    jitter record it; theta is None otherwise. Until its first
    derivatives, K is the only buffer: each fill computes the distances
    into K itself (_fill_gram), so a fit, and a search that never asks for
    derivatives, holds one n x n buffer. The first derivatives
    (_fill_derivatives) allocate the other three: the pairwise distances
    D, computed once, and S and dR, which each derivatives call fills from
    D with one exponential and which are scratch between calls. A search
    after them holds four. Later fills read D, with S as the scratch of
    Matérn 1.5 and 2.5.
    """

    def __init__(self, X: np.ndarray):
        n = X.shape[0]
        self.n, self.X = n, X
        self.K = np.empty((n, n), order="F")
        self.D = self.S = self.dR = None
        self.theta = self.jitter = None


_SCALED_FACTOR = {0.5: 1.0, 1.5: math.sqrt(3.0), 2.5: math.sqrt(5.0)}


def _scale(family, nu, ell) -> float:
    """c / l, the factor that scales distances to s (t for RBF, c = 1)."""
    return (1.0 if family == RBF else _SCALED_FACTOR[nu]) / ell


def _fill_exponential(family, nu, ell, D, E) -> None:
    """Fill E with the kernel's exponential factor at the distances D:
    exp(-t^2/2) for RBF, exp(-s) for Matérn. For RBF and Matérn 0.5 this is
    R itself (_fill_correlation). D may be E."""
    if family == RBF:
        np.multiply(D, _scale(family, nu, ell), out=E)
        np.multiply(E, E, out=E)
        np.multiply(E, -0.5, out=E)
    else:
        np.multiply(D, -_scale(family, nu, ell), out=E)
    np.exp(E, out=E)


def _fill_correlation(family, nu, ell, D, E, K) -> None:
    """Fill K with R at the distances D, with E as scratch.

    Works on the scaled distance s = c * D / l (t = D / l for RBF), where
    c folds the sqrt(2 nu) factor of the half-integer Matérn closed forms.
    All three arrays have one shape, and D is read only first, so it may
    share a buffer with E or K. For RBF and Matérn 0.5, R is the
    exponential factor (_fill_exponential), and E and K may be one
    buffer; Matérn 1.5 and 2.5 keep s in E while K takes the polynomial,
    so they need E apart from K. Training, TrainedGP.fit, kernel_value
    and the posterior's cross-covariance all fill through here, so their
    kernel values agree bit for bit.
    """
    if not _needs_scratch(family, nu):
        _fill_exponential(family, nu, ell, D, E)  # E = R
        if K is not E:
            np.copyto(K, E)
        return
    np.multiply(D, _scale(family, nu, ell), out=E)  # E = s
    if nu == 1.5:
        np.add(E, 1.0, out=K)  # 1 + s
    else:  # nu == 2.5
        np.multiply(E, E, out=K)
        np.multiply(K, 1.0 / 3.0, out=K)
        np.add(K, E, out=K)
        np.add(K, 1.0, out=K)  # 1 + s + s^2/3
    np.negative(E, out=E)
    np.exp(E, out=E)  # E = exp(-s)
    np.multiply(K, E, out=K)  # R = poly(s) exp(-s)


def _fill_gram(theta, family, nu, ws: _Workspace, jitter) -> None:
    """Fill ws.K with the Gram matrix at theta = (log sf2, log l, log sn2),
    with sn2 + jitter on its diagonal.

    A workspace that has taken derivatives fills from its distances D,
    with S as the scratch of Matérn 1.5 and 2.5. Before that, the
    distances are computed into K itself (cdist(X, X) is exactly
    symmetric, so its transpose is K) and the correlation is filled in
    place; Matérn 1.5 and 2.5 take one n x n scratch buffer for the fill
    alone. Both paths give the same bits.
    """
    ell = math.exp(theta[1])
    if ws.D is not None:
        _fill_correlation(family, nu, ell, ws.D,
                          ws.S if _needs_scratch(family, nu) else ws.K, ws.K)
    else:
        cdist(ws.X, ws.X, out=ws.K.T)
        E = np.empty((ws.n, ws.n), order="F") if _needs_scratch(family, nu) else ws.K
        _fill_correlation(family, nu, ell, ws.K, E, ws.K)
    np.multiply(ws.K, math.exp(theta[0]), out=ws.K)
    np.einsum("ii->i", ws.K)[:] += math.exp(theta[2]) + jitter


def _factor(theta, family, nu, ws: _Workspace, jitter) -> None:
    """Factor the Gram matrix at theta plus jitter in ws.K, in place
    (dpotrf).

    A failed dpotrf has overwritten part of K, so each retry refills it,
    with the jitter multiplied by 10 (starting from 1e-10 when it is zero
    or below, so that every start reaches MAX_JITTER); past MAX_JITTER it
    gives up. Afterwards ws.K holds the lower factor (the upper triangle
    is zeroed), and ws.theta and ws.jitter record it.
    """
    while True:
        _fill_gram(theta, family, nu, ws, jitter)
        _, info = dpotrf(ws.K, lower=1, clean=1, overwrite_a=1)
        if info == 0:
            break
        escalated = 1e-10 if jitter <= 0.0 else jitter * 10.0
        if escalated > MAX_JITTER:
            raise NotPositiveDefinite("Gram matrix is not positive definite", jitter)
        jitter = escalated
    ws.theta, ws.jitter = np.array(theta), jitter


def _fill_derivatives(family, nu, ell, ws: _Workspace, read_d2r) -> None:
    """Fill ws.S with d^2R/d(log l)^2 and call read_d2r(ws.S), then fill
    ws.dR with dR/d(log l); S is free afterwards. Each call computes the
    exponential factor E from D at ell once, and the first allocates D, S
    and dR and computes the distances into D.

    With s the scaled distance (t for RBF), dR = a E and d^2R = dR q,
    where (a, q) is (t^2, t^2 - 2) for RBF, (s, s - 1) for Matérn 0.5 and
    (s^2, s - 2) for 1.5. Matérn 2.5 reads d^2R = (s^2/3) E (s^2 - 2s - 2)
    first and then finishes dR = (s^2/3) E (1 + s). Both are zero on the
    diagonal, where D is zero.
    """
    if ws.D is None:
        ws.S, ws.dR = (np.empty((ws.n, ws.n), order="F") for _ in range(2))
        # cdist(X, X) is exactly symmetric, so its transpose is a
        # Fortran-ordered view of it
        ws.D = cdist(ws.X, ws.X).T
    D, S, dR, c = ws.D, ws.S, ws.dR, _scale(family, nu, ell)
    matern_nu = nu if family == MATERN else None
    _fill_exponential(family, nu, ell, D, dR)  # dR = E
    np.multiply(D, c, out=S)  # S = s
    if matern_nu is None:
        np.multiply(S, S, out=S)  # S = t^2
    np.multiply(dR, S, out=dR)
    if matern_nu in (1.5, 2.5):
        np.multiply(dR, S, out=dR)  # E s^2
    if matern_nu == 2.5:
        np.multiply(dR, 1.0 / 3.0, out=dR)
        np.subtract(S, 1.0, out=S)
        np.multiply(S, S, out=S)
        np.subtract(S, 3.0, out=S)  # (s - 1)^2 - 3 = s^2 - 2s - 2
    else:
        np.subtract(S, 1.0 if matern_nu == 0.5 else 2.0, out=S)  # q
    np.multiply(dR, S, out=S)  # d^2R
    read_d2r(S)
    if matern_nu == 2.5:
        np.multiply(D, c, out=S)
        np.add(S, 1.0, out=S)
        np.multiply(dR, S, out=dR)  # (s^2/3) E (1 + s)


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
    after ws has factored again raises.
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
        if ws.theta is not factored:
            raise RuntimeError("derivatives asked after the workspace's factor was replaced")
        return _derivatives(theta, family, nu, ws, blocks, l2_weight)

    return [(loss, lambda b=b: every_block()[b]) for b, (*_, loss) in enumerate(blocks)]


def _derivatives(theta, family, nu, ws: _Workspace, blocks, l2_weight):
    """(grad, hess) of each _objective block, from the factor in ws.K, which
    dpotri turns into K^-1 (ws.theta is None then). _fill_derivatives then
    fills d^2R into ws.S, where its two uses read it, and dR into ws.dR;
    M = K^-1 dR overwrites d^2R in ws.S."""
    n = ws.n
    L, j = ws.K, ws.jitter
    sf2, sn2 = math.exp(theta[0]), math.exp(theta[2])
    ws.theta = None
    inv, info = dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefinite("dpotri failed on the Cholesky factor", j)
    # inv holds K^-1 in its lower triangle and zeros above it (dpotrf's
    # clean). dR and d2R are symmetric with a zero diagonal, so their inner
    # products with K^-1 are twice the sums over the lower triangle; the
    # BLAS calls read K^-1 as a symmetric matrix from its lower triangle.
    d2r_terms = []  # <K^-1, d2R>, then each block's a^T d2R a summed over its columns

    def read_d2r(d2R):
        d2r_terms.append(2.0 * float(np.einsum("ij,ij->", inv, d2R)))
        for k, alpha, *_ in blocks:
            a_d2r_a = 0.0
            for a in alpha.reshape(n, k).T:
                a_d2r_a += float(np.vdot(a, dsymv(1.0, d2R, a, lower=1)))
            d2r_terms.append(a_d2r_a)

    _fill_derivatives(family, nu, math.exp(theta[1]), ws, read_d2r)
    tr_kinv_d2r, *a_d2r_as = d2r_terms
    dR = ws.dR
    tr_kinv = float(np.einsum("ii->", inv))
    tr_kinv_dr = 2.0 * float(np.einsum("ij,ij->", inv, dR))
    diag_sq = float(np.einsum("ii,ii->", inv, inv))
    kinv_sq = 2.0 * float(np.einsum("ij,ij->", inv, inv)) - diag_sq
    M = dsymm(1.0, inv, dR, lower=1, c=ws.S, overwrite_c=1)
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
    for (k, alpha, y_alpha, _), a_d2r_a in zip(blocks, a_d2r_as):
        # per column a: a^T dR a, a^T K^-1 a, (dR a)^T K^-1 a and
        # (dR a)^T K^-1 (dR a)
        a_dr_a = a_kinv_a = dr_kinv_a = dr_kinv_dr = 0.0
        for a in alpha.reshape(n, k).T:
            v = dgemv(1.0, dR, a)
            w = dsymv(1.0, inv, a, lower=1)
            a_dr_a += float(np.vdot(a, v))
            a_kinv_a += float(np.vdot(a, w))
            dr_kinv_a += float(np.vdot(v, w))
            dr_kinv_dr += float(np.vdot(v, dsymv(1.0, inv, v, lower=1)))
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

@dataclass(frozen=True)
class TrainedGP:
    """Conditioned GPs, one per output, sharing one set of inputs.

    Outputs with equal hyperparameters and jitter (after training, x, y, z
    and r, g, b) share one Gram matrix and so one Cholesky factor L. fit
    builds every model, train_gp's too: it solves the alphas against each
    distinct L and then inverts L in its own buffer, so the model keeps
    L^-1, all the posterior's variance reads, and not L. Immutable after
    construction; posterior evaluation is a pure read and may run
    concurrently from many threads.
    """

    configs: tuple[KernelConfig, ...]      # one per output
    normalizer: OutputNormalizer
    X: np.ndarray                          # (n, d) training inputs
    Z: np.ndarray                          # (n, 6) normalized targets
    inverse_factors: tuple[np.ndarray, ...]  # per-output L^-1, L the Cholesky factor of
                                           # K + sn2 I (+ jitter), Fortran-ordered, in the
                                           # lower triangle (the upper one is zero); outputs
                                           # with equal config and jitter hold the same array
    alphas: tuple[np.ndarray, ...]         # per-output (K + sn2 I)^-1 z
    jitters: tuple[float, ...]             # jitter actually used per output
    width: int
    height: int
    loss_curves: tuple[np.ndarray, ...] = ()  # train_gp: xyz's, then rgb's

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
        for j, Li in enumerate(self.inverse_factors):
            groups.setdefault(id(Li), []).append(j)
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
        Each distinct (config, jitter) takes a workspace of its own, whose
        one n x n buffer holds the factor its outputs share: the distances
        are computed into it and the correlation filled over them
        (_fill_gram without search; Matérn 1.5 and 2.5 take one scratch
        buffer for the fill), factored (_factor, where a jitter retry
        computes them again), solved against for each of its outputs'
        alphas, one column at a time so that an alpha's bits do not depend
        on which outputs share L, and then inverted in place (dtrtri): the
        lower triangle, with the upper one still zero. The fill is
        training's, so the factors are bit for bit those a search computes
        at the same config and jitter. Configs need not repeat: a model
        file from separate fits of every output loads to six factors, each
        inverted. train_gp and condition_gp condition at searched or given
        configs through here, from TRAIN_JITTER. The model has no loss
        curves.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] != X.shape[0]:
            raise DimensionMismatch(f"targets {Z.shape} do not match inputs {X.shape}")
        configs = tuple(configs)
        k = len(configs)
        if k != Z.shape[1]:
            raise DimensionMismatch(f"{k} kernel configs for {Z.shape[1]} outputs")
        shared = {}  # (config, jitter) -> the outputs that share its factor
        for j, key in enumerate(zip(configs, jitter if np.ndim(jitter) else [float(jitter)] * k)):
            shared.setdefault(key, []).append(j)
        inverse_factors, alphas, jitters = [None] * k, [None] * k, [None] * k
        for (cfg, j0), outputs in shared.items():
            ws = _Workspace(X)
            _factor(cfg.log_params(), cfg.family, cfg.nu, ws, j0)
            for j in outputs:
                alphas[j] = _solve_gram(ws.K, Z[:, j])
            Li, info = dtrtri(ws.K, lower=1, overwrite_c=1)
            if info != 0:
                raise NotPositiveDefinite("dtrtri failed on the Cholesky factor", ws.jitter)
            for j in outputs:
                inverse_factors[j], jitters[j] = Li, ws.jitter
        return cls(configs, normalizer, X, Z, tuple(inverse_factors), tuple(alphas),
                   tuple(jitters), width, height)


@dataclass(frozen=True)
class PosteriorBatch:
    mean: np.ndarray      # (m, 6) denormalized
    var_norm: np.ndarray  # (m, 6) in standardized target space, clamped at zero;
                          # NaN in columns not asked for


def posterior(model: TrainedGP, Q, var_outputs=None) -> PosteriorBatch:
    """Predictive mean, in target units, and variance, in standardized
    target units, at query inputs Q (m, d).

    mu = k*^T alpha and var = k(q,q) - ||L^-1 k*||^2 per output, evaluated
    through the model's alphas and inverse factors (Rasmussen & Williams,
    Alg. 2.1, with L^-1 in place of the solve against L). The outputs that
    share a factor (model.groups) share its cross-covariance k* and its
    variance. For each distinct factor with an output in var_outputs
    (None: all), each block costs one fill and one triangular product
    L^-1 k* (dtrmm) with the model's L^-1, which is never written; a
    factor whose variance is not asked costs the fill alone. Variance
    columns not asked for are NaN. Each mean is one k*^T alpha of its
    own, so it does not depend on which outputs share its factor. Queries
    are processed in blocks of _QUERY_CHUNK (256) that share one distance
    block across the outputs; the last group to read a block's distances
    fills its cross-covariance over them, and the groups before it fill
    one covariance block. So memory is O(n * chunk) rather than O(n * m),
    besides the model, with no n x n array, and a one-group model holds
    one (chunk, n) block, 4.1 MB at n = 2000 (two for Matérn 1.5 and 2.5,
    whose fill takes a scratch block). Each cross-covariance block is
    filled by _fill_correlation, the fill of the Gram matrices the factors
    came from, so k(x_i, q) is bit for bit the Gram entry training would
    compute for that pair. Results are deterministic for the same inputs,
    chunk size and BLAS threads, but a query's mean and variance bits may
    depend on the width of its block and its place in it: BLAS splits a
    block's columns among threads and kernel panels by the width, and the
    panels can round differently in the last bits (relative 1e-16).
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
    # One distance buffer serves every chunk; the last group to read a
    # chunk's distances fills its covariance over them, and the groups
    # before it fill one covariance block (kernels that need it fill
    # through one scratch block). The C-ordered (chunk, n) distance rows
    # transpose to Fortran-ordered (n, chunk) views, as do the column
    # prefixes of the Fortran-ordered blocks.
    n, chunk = model.X.shape[0], min(m, _QUERY_CHUNK)
    groups = model.groups
    dist = np.empty((chunk, n))
    block = np.empty((n, chunk), order="F") if len(groups) > 1 else None
    scratch = (np.empty((n, chunk), order="F")
               if any(_needs_scratch(c.family, c.nu) for c in model.configs) else None)
    for start in range(0, m, _QUERY_CHUNK):
        rows = slice(start, min(start + _QUERY_CHUNK, m))
        width = rows.stop - start
        D = cdist(Q[rows], model.X, out=dist[:width]).T
        for outputs in groups:
            cfg = model.configs[outputs[0]]
            Ks = D if outputs is groups[-1] else block[:, :width]
            E = scratch[:, :width] if _needs_scratch(cfg.family, cfg.nu) else Ks
            _fill_correlation(cfg.family, cfg.nu, cfg.lengthscale, D, E, Ks)
            np.multiply(Ks, cfg.signal_var, out=Ks)
            for j in outputs:
                mean[rows, j] = dgemv(1.0, Ks, model.alphas[j], trans=1)
            asked = [j for j in outputs if j in var_outputs]
            if asked:
                # V = L^-1 k* and then V * V overwrite the covariance block in place.
                V = dtrmm(1.0, model.inverse_factors[outputs[0]], Ks, lower=1, overwrite_b=1)
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


def _fit_outputs(X, Z, kernel: KernelConfig, cfg: TrainConfig):
    """Newton fit (_minimize_within) of each OUTPUT_GROUPS group of columns
    of Z (xyz, then rgb) on the inputs X, on the group's summed loss
    (_objective), from the kernel's log-parameters clipped into the box. The
    groups share the evaluation there: one factorisation and, once a search
    asks for derivatives, one inversion, each group's bits those of its own.

    Returns, per group, the kept log-parameters and the loss curve. The
    workspace's n x n buffers live only for the call: K alone at a budget
    of 1, and K, D, S and dR once a search asks for derivatives.
    """
    ws = _Workspace(X)
    objective = partial(
        _objective, family=kernel.family, nu=kernel.nu, ws=ws,
        l2_weight=cfg.l2_weight, jitter=TRAIN_JITTER,
    )
    ys = [Z[:, outputs] for outputs in OUTPUT_GROUPS]
    # clipped into the box, as _minimize_within clips a start, so that the
    # shared first evaluation is at the theta each search evaluates first
    theta0 = np.clip(kernel.log_params(), _LOWER, _UPPER)
    fits = []
    for y, first in zip(ys, objective(theta0, ys=ys)):

        def own(theta, y=y):
            return objective(theta, ys=(y,))[0]

        fits.append(_minimize_within(own, theta0, cfg.iterations, first))
    return fits


def _training_data(ds: PixelToPointDataset, cfg: TrainConfig):
    """The inputs X, normalized targets Z and normalizer that training fits
    on: the dataset, first reduced to a seeded uniform subsample of
    cfg.max_train_points when it is larger, with its targets standardized
    per output."""
    if len(ds) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    X, Y = ds.inputs, ds.targets
    n = X.shape[0]
    if n > cfg.max_train_points:
        rng = np.random.default_rng(cfg.seed)
        keep = np.sort(rng.choice(n, size=cfg.max_train_points, replace=False))
        X, Y = X[keep], Y[keep]
    normalizer = OutputNormalizer.fit(Y)
    return X, normalizer.normalize(Y), normalizer


def train_gp(ds: PixelToPointDataset, kernel: KernelConfig, cfg: TrainConfig) -> TrainedGP:
    """Fit the six outputs' GPs to a pixel-to-point dataset by projected
    Newton steps on the exact Hessian.

    The dataset is subsampled and its targets standardized first
    (_training_data). Each group of OUTPUT_GROUPS (x, y and z together,
    then r, g and b, each on the sum of its three NLLs) then minimises its
    loss over one set of log-parameters inside the box _BOUNDS, from the
    kernel's (_minimize_within); the groups share the evaluation there
    (_fit_outputs). cfg.iterations is an exact budget of loss evaluations
    per group: a search ends when it converges or has spent the budget,
    and keeps the lowest-loss parameters evaluated (with a budget of 1,
    the start). loss_curves hold one curve per group, every evaluation
    in order; a curve of cfg.iterations entries means the budget, not
    convergence, ended the search. The model is conditioned at the kept
    parameters by TrainedGP.fit, from TRAIN_JITTER, after the search's
    buffers are freed: condition_gp at the searched configs.
    """
    X, Z, normalizer = _training_data(ds, cfg)
    configs = [None] * Z.shape[1]
    fits = _fit_outputs(X, Z, kernel, cfg)
    for outputs, (theta, _) in zip(OUTPUT_GROUPS, fits):
        for j in outputs:
            configs[j] = kernel.with_log_params(theta)
    model = TrainedGP.fit(X, Z, configs, normalizer, ds.width, ds.height, jitter=TRAIN_JITTER)
    return replace(model, loss_curves=tuple(curve for _, curve in fits))


def condition_gp(ds: PixelToPointDataset, configs, cfg: TrainConfig) -> TrainedGP:
    """The GPs at fixed configs (one per output), conditioned on the data
    train_gp would fit on: the same subsample and normalisation
    (_training_data), factored from TRAIN_JITTER and inverted
    (TrainedGP.fit). No hyperparameter is searched, and the model has no
    loss curves."""
    X, Z, normalizer = _training_data(ds, cfg)
    return TrainedGP.fit(X, Z, configs, normalizer, ds.width, ds.height, jitter=TRAIN_JITTER)
