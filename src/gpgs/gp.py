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
space and are fitted by bounded L-BFGS-B (Byrd et al. 1995; the noise
variance bounded below only, so that the first step stays short) on the
negative log marginal likelihood plus an L2 penalty on the log
parameters, with the analytic gradient (Rasmussen & Williams, "Gaussian
Processes for Machine Learning", ch. 5). The linear algebra follows
their Algorithm 2.1 (Cholesky factorisation, no explicit inverses in the
prediction path).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from functools import partial

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf, dpotri
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

# Bounds of the log-parameters for L-BFGS-B. The noise variance is bounded
# below only: with every variable bounded on both sides, L-BFGS-B's first
# line search tries a unit step along -g, which with gradients of O(10-100)
# lands in the corner of the box, where the loss is 1e6 to 1e10; with one
# variable unbounded it tries a step of length at most 1 instead (Byrd et
# al. 1995). No probe with a log noise variance above LOG_PARAM_BOUND is
# evaluated (_minimize_within), so every exp() stays finite and the Gram
# matrix computable wherever the optimiser probes.
LOG_PARAM_BOUND = 20.0
# The largest log-parameter whose exp() is a finite float.
_MAX_FINITE_LOG = math.log(sys.float_info.max)
_BOUNDS = (
    (-LOG_PARAM_BOUND, LOG_PARAM_BOUND),
    (-LOG_PARAM_BOUND, LOG_PARAM_BOUND),
    (math.log(NOISE_VAR_FLOOR), None),
)

# The outputs whose hyperparameters training fits together, in the order
# it fits them: x, y and z alone, r, g and b as one group.
OUTPUT_GROUPS = ((0,), (1,), (2,), (3, 4, 5))

# Queries per posterior block: the (n, chunk) distance and covariance
# blocks bound the posterior's memory at O(n * chunk).
_QUERY_CHUNK = 4096


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


def default_kernel(family: str = MATERN, nu: float | None = 0.5) -> KernelConfig:
    """Kernel template at the standard initial hyperparameters."""
    return KernelConfig(family=family, nu=nu if family == MATERN else None)


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 1000  # loss evaluations per output group, at most
    l2_weight: float = 1e-6
    max_train_points: int | None = 2000
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.l2_weight < 0:
            raise ValueError(f"l2_weight must be >= 0, got {self.l2_weight}")
        if self.max_train_points is not None and self.max_train_points < 1:
            raise ValueError(f"max_train_points must be >= 1, got {self.max_train_points}")


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

    def denormalize_var(self, var: np.ndarray) -> np.ndarray:
        return var * self.std**2


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
    ws = _Workspace(np.atleast_2d(np.asarray(X, dtype=float)), grad=False)
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

    Every loss+gradient evaluation touches several full matrices; reusing
    Fortran-ordered buffers keeps LAPACK in-place and avoids allocation
    churn. D holds the pairwise distances, S and E the scaled distances
    and the exponential factor, and dR (allocated only with grad)
    dR/d(log l). K holds the Gram matrix, then its Cholesky factor, then
    (for a gradient) its inverse. While K holds the factor at theta,
    theta and jitter record it; theta is None otherwise. A factor handed
    over (hand_over) stays with its holder: the next factorisation takes
    a new buffer for K.
    """

    def __init__(self, X: np.ndarray, grad: bool = True):
        n = X.shape[0]
        self.n = n
        self.D = cdist(X, X).T  # exactly symmetric, so this is a Fortran-ordered view of it
        self.S = np.empty((n, n), order="F")
        self.E = np.empty((n, n), order="F")
        self.dR = np.empty((n, n), order="F") if grad else None
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
    _fill_gradient reads.

    Works on the scaled distance s = c * D / l in S, where c folds the
    sqrt(2 nu) factor of the half-integer Matérn closed forms; E holds the
    exponential factor. All four arrays have one shape. S and E may be one
    buffer when the caller does not read them afterwards; for RBF and
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


def _fill_gradient(family, nu, ws: _Workspace) -> None:
    """Fill ws.dR with dR/d(log l) from the S and E of _fill_correlation.

    dR is zero on the diagonal, where the distance is zero, for every kernel.
    """
    S, E, dR = ws.S, ws.E, ws.dR
    if family == RBF or nu == 1.5:
        np.multiply(S, S, out=dR)
        np.multiply(dR, E, out=dR)  # RBF: t^2 exp(-t^2/2); Matérn 1.5: 3 t^2 exp(-s)
    elif nu == 0.5:
        np.multiply(S, E, out=dR)  # dR = t exp(-t)
    else:  # nu == 2.5
        np.multiply(S, S, out=dR)
        np.multiply(dR, 1.0 / 3.0, out=dR)
        np.add(S, 1.0, out=S)
        np.multiply(dR, S, out=dR)
        np.multiply(dR, E, out=dR)  # dR = (s^2/3)(1+s) exp(-s)


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


def _objective(theta, family, nu, ws: _Workspace, ys, l2_weight, jitter, want_grad):
    """Loss (and gradient) at theta = (log sf2, log l, log sn2) of each
    target block y in ys, from one Gram matrix K at theta.

    A block y, (n, k) or (n,) for k = 1, holds columns y_1..y_k that share
    theta; its loss is
        sum_c (0.5 y_c^T K^-1 y_c + 0.5 log|K| + n/2 log(2 pi)) + l2 |theta|^2,
    the sum of the k single-column NLLs with the penalty counted once.
    The gradient uses the trace identity
    dL/dtheta_j = sum_c 0.5 tr((K^-1 - a_c a_c^T) dK/dtheta_j) + 2 l2 theta_j,
    so the trace terms are k times a column's and the alpha terms are
    summed over the columns. tr(K^-1 R) is folded through tr(K^-1 K) = n,
    so that only the lengthscale derivative needs an explicit elementwise
    pass. One factorisation (and, for gradients, one inversion and one
    pass of each trace) serves every block; each block's own alpha and
    alpha terms keep the arithmetic of an evaluation of that block alone,
    so its bits do not depend on which blocks share the evaluation, and
    with k = 1 they are those of a single column. Returns one (loss, grad)
    per block, grad None unless want_grad. A loss-only evaluation leaves
    its factor in ws.K; a gradient turns it into the inverse.
    """
    n = ws.n
    _factor(theta, family, nu, ws, jitter)
    L, j = ws.K, ws.jitter
    logdet_half = float(np.sum(np.log(np.einsum("ii->i", L))))
    penalty = l2_weight * float(theta @ theta)
    blocks = []  # (k, alpha, y^T alpha, loss) per block
    for y in ys:
        k = 1 if y.ndim == 1 else y.shape[1]
        alpha = _solve_gram(L, y)
        y_alpha = float(np.vdot(y, alpha))
        loss = 0.5 * y_alpha + k * logdet_half + 0.5 * k * n * math.log(2.0 * math.pi) + penalty
        blocks.append((k, alpha, y_alpha, loss))
    if not want_grad:
        return [(loss, None) for *_, loss in blocks]

    sf2 = math.exp(theta[0])
    sn2 = math.exp(theta[2])
    _fill_gradient(family, nu, ws)
    ws.theta = None
    inv, info = dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefinite("dpotri failed on the Cholesky factor", j)
    # inv holds K^-1 in its lower triangle and zeros above it (dpotrf's
    # clean). dR is symmetric with a zero diagonal, so tr(K^-1 dR) is twice
    # the sum over the lower triangle.
    tr_kinv = float(np.einsum("ii->", inv))
    tr_kinv_dr = 2.0 * float(np.einsum("ij,ij->", inv, ws.dR))
    c_diag = sn2 + j
    pairs = []
    for k, alpha, y_alpha, loss in blocks:
        alpha_dr_alpha = float(np.vdot(alpha, ws.dR @ alpha))
        alpha_sq = float(np.vdot(alpha, alpha))
        grad = np.array(
            [
                0.5 * (k * (n - c_diag * tr_kinv) - (y_alpha - c_diag * alpha_sq)),
                0.5 * sf2 * (k * tr_kinv_dr - alpha_dr_alpha),
                0.5 * sn2 * (k * tr_kinv - alpha_sq),
            ]
        )
        grad += 2.0 * l2_weight * np.asarray(theta)
        pairs.append((loss, grad))
    return pairs


def _targets(y) -> np.ndarray:
    """One target column (n,), or the columns of an (n, k) block."""
    y = np.asarray(y, dtype=float)
    return y if y.ndim == 2 else y.ravel()


def nll(cfg: KernelConfig, X, y, l2_weight: float = 0.0, jitter: float = 0.0) -> float:
    """Training loss for one output, or for the columns of an (n, k) y that
    share cfg: the summed NLL plus the L2 log-parameter penalty (_objective)."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = _targets(y)
    ws = _Workspace(X, grad=False)
    [(loss, _)] = _objective(
        cfg.log_params(), cfg.family, cfg.nu, ws, (y,), l2_weight, jitter, False
    )
    return loss


def nll_gradient(
    cfg: KernelConfig, X, y, l2_weight: float = 0.0, jitter: float = 0.0
) -> np.ndarray:
    """Analytic gradient of nll over the three log-hyperparameters."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = _targets(y)
    ws = _Workspace(X)
    [(_, grad)] = _objective(
        cfg.log_params(), cfg.family, cfg.nu, ws, (y,), l2_weight, jitter, True
    )
    return grad


# ---------------------------------------------------------------------------
# Trained model
# ---------------------------------------------------------------------------

def _condition(X, Z, configs, jitters, kept=None):
    """Factors, alphas and jitters of the outputs Z[:, j] at configs[j],
    with jitters[j] the jitter each factorisation starts from.

    Outputs with equal (config, jitter) share one factor, factored once
    with training's arithmetic (_cholesky_in_place) in its own buffer,
    unless kept maps that (config, jitter) to the (factor, jitter) a
    training already holds. Each alpha is solved column by column, so its
    bits do not depend on which outputs share its factor.
    """
    shared = dict(kept or {})
    ws = None
    factors, used = [], []
    for key in zip(configs, jitters):
        if key not in shared:
            cfg, j0 = key
            if ws is None:
                ws = _Workspace(X, grad=False)
            _factor(cfg.log_params(), cfg.family, cfg.nu, ws, j0)
            shared[key] = (ws.hand_over(), ws.jitter)
        factors.append(shared[key][0])
        used.append(shared[key][1])
    alphas = tuple(_solve_gram(L, Z[:, j]) for j, L in enumerate(factors))
    return tuple(factors), alphas, tuple(used)


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
        loss_curves=(),
    ) -> "TrainedGP":
        """Condition one GP per column of Z on X at fixed hyperparameters.

        Z is already normalized. jitter may be a scalar or a per-output
        sequence; each output records the value escalation settled on.
        One Gram matrix is filled and factored per distinct (config,
        jitter), with training's arithmetic, so a refit at the configs and
        jitters a training kept reproduces its factors and alphas bit for
        bit. Configs need not repeat: a model file from separate fits of
        every output loads to six factors.
        """
        X = np.atleast_2d(np.asarray(X, dtype=float))
        Z = np.asarray(Z, dtype=float)
        if Z.ndim != 2 or Z.shape[0] != X.shape[0]:
            raise DimensionMismatch(f"targets {Z.shape} do not match inputs {X.shape}")
        configs = tuple(configs)
        if len(configs) != Z.shape[1]:
            raise DimensionMismatch(f"{len(configs)} kernel configs for {Z.shape[1]} outputs")
        jitters_in = (
            tuple(jitter) if np.ndim(jitter) else (float(jitter),) * len(configs)
        )
        factors, alphas, jitters = _condition(X, Z, configs, jitters_in)
        return cls(
            configs, normalizer, X, Z, factors, alphas, jitters, width, height,
            tuple(loss_curves),
        )


@dataclass(frozen=True)
class PosteriorBatch:
    mean_norm: np.ndarray  # (m, 6) in standardized target space
    var_norm: np.ndarray   # (m, 6), clamped at zero; NaN in columns not asked for
    mean: np.ndarray       # (m, 6) denormalized
    var: np.ndarray        # (m, 6) denormalized (scaled by per-output std^2)


def posterior(model: TrainedGP, Q, var_outputs=None) -> PosteriorBatch:
    """Predictive mean and variance at query inputs Q (m, d).

    mu = k*^T alpha and var = k(q,q) - ||L^-1 k*||^2 per output, evaluated
    through the cached Cholesky factors (Rasmussen & Williams, Alg. 2.1).
    The outputs that share a factor (model.groups) share its
    cross-covariance k* and its variance, so each distinct factor costs
    one fill and, when any of its outputs is listed in var_outputs (None:
    all), one triangular solve. Variance columns not asked for are NaN.
    Each mean is one k*^T alpha of its own, so it does not depend on
    which outputs share its factor. Queries are processed in blocks of
    _QUERY_CHUNK that share one distance block across the outputs, so
    memory is O(n * chunk) rather than O(n * m). Each cross-covariance
    block is filled by _fill_correlation, the fill of the Gram matrices
    the factors came from, so k(x_i, q) is bit for bit the Gram entry
    training would compute for that pair.
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
    mean_norm = np.empty((m, k))
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
    for start in range(0, m, _QUERY_CHUNK):
        rows = slice(start, min(start + _QUERY_CHUNK, m))
        width = rows.stop - start
        D = cdist(Q[rows], model.X, out=dist[:width]).T
        for outputs in groups:
            cfg, L = model.configs[outputs[0]], model.factors[outputs[0]]
            Ks = block[:, :width]
            tmp = scratch[:, :width] if _needs_scratch(cfg) else Ks
            _fill_correlation(cfg.family, cfg.nu, cfg.lengthscale, D, tmp, tmp, Ks)
            np.multiply(Ks, cfg.signal_var, out=Ks)
            for j in outputs:
                mean_norm[rows, j] = Ks.T @ model.alphas[j]
            asked = [j for j in outputs if j in var_outputs]
            if asked:
                # V = L^-1 k* and then V * V overwrite the covariance block in place.
                V = solve_triangular(L, Ks, lower=True, check_finite=False, overwrite_b=True)
                np.multiply(V, V, out=V)
                var = np.maximum(cfg.signal_var - V.sum(axis=0), 0.0)
                var_norm[rows, asked] = var[:, None]
    mean = model.normalizer.denormalize_mean(mean_norm)
    var = model.normalizer.denormalize_var(var_norm)
    return PosteriorBatch(mean_norm, var_norm, mean, var)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class _BudgetSpent(Exception):
    """The optimiser asked for one evaluation more than the budget."""


def _minimize_within(
    fun, theta0: np.ndarray, bounds, budget: int, lift_noise_to: float, first=None
):
    """Minimise fun(theta, want_grad) -> (loss, grad) by L-BFGS-B in at most
    budget evaluations.

    scipy's maxfun is checked only between iterations, so the budget is
    enforced here: the call that would exceed it raises instead, which
    ends the search. Evaluation number budget is therefore the last one,
    and nothing can follow its gradient: it is computed loss-only
    (want_grad=False) and L-BFGS-B gets a zero gradient, after which it
    either stops or asks for the evaluation that raises. Returns the
    lowest-loss theta evaluated and the loss of every evaluation in order.

    The noise variance has no upper bound (_BOUNDS), and exp() of its log
    overflows past 709.78. A probe with a log noise variance above
    LOG_PARAM_BOUND is therefore answered with an infinite loss and a zero
    gradient, without a call to fun; L-BFGS-B backtracks from it, and it
    is never the one kept unless every evaluation is one.

    first, when given, is fun(theta0, want_grad=budget > 1), evaluated
    already; it is the first evaluation when L-BFGS-B's first theta is
    theta0, that is, when theta0 is inside the bounds.

    A fit that starts with a log noise variance below lift_noise_to can
    end on the plateau where so small a noise barely moves the loss, and
    where L-BFGS-B stops short of an optimum with more noise. If its kept
    noise is still below lift_noise_to and there the loss falls as the
    noise grows, the search goes on, within the same budget, from the kept
    theta with its log noise variance lifted to lift_noise_to.
    """
    # Imported here: scipy.optimize adds ~0.1 s and ~9 MB that only training needs.
    from scipy.optimize import minimize

    thetas, losses, grads = [], [], []

    def counted(theta):
        if len(losses) == budget:
            raise _BudgetSpent
        last = len(losses) + 1 == budget
        if theta[2] > LOG_PARAM_BOUND:
            loss, grad = math.inf, np.zeros_like(theta)
        elif not losses and first is not None and np.array_equal(theta, theta0):
            loss, grad = first
        else:
            loss, grad = fun(theta, want_grad=not last)
        thetas.append(np.array(theta))
        losses.append(loss)
        grads.append(grad)
        return loss, np.zeros_like(theta) if last else grad

    def search(start):
        try:
            minimize(
                counted, start, jac=True, method="L-BFGS-B", bounds=bounds,
                options={"maxfun": budget, "maxiter": budget},
            )
        except _BudgetSpent:
            pass
        return int(np.argmin(losses))

    best = search(theta0)
    kept, grad = thetas[best], grads[best]
    on_plateau = kept[2] < lift_noise_to and grad is not None and grad[2] < 0
    if theta0[2] < lift_noise_to and on_plateau:
        best = search(np.array([kept[0], kept[1], lift_noise_to]))
    return thetas[best], np.array(losses)


def _fit_outputs(X, Z, kernel: KernelConfig, cfg: TrainConfig, starts):
    """L-BFGS-B fit of each OUTPUT_GROUPS group of columns of Z on the
    inputs X, on the group's summed loss (_objective), from the
    log-parameters of the KernelConfig starts[j] of its first output j.

    Groups that start from one theta (clipped into the bounds) share their
    first evaluation: the first of them to be fitted evaluates theta once
    for all of them (one Gram fill and factorisation and, when a gradient
    is due, one inversion), and each takes its own loss and gradient from
    it, bit for bit those of an evaluation of its own.

    Returns, per group, the kept log-parameters, the Cholesky factor and
    jitter at them, and the loss curve. The factor is the workspace's K,
    handed over to the group: when K still holds the factor at the kept
    log-parameters (the last evaluation was loss-only and kept, or at a
    budget of 1, the shared first evaluation) it goes over as it is, to
    every group that kept them; otherwise it is factored once more. The
    workspace's other n x n buffers live only for the call.
    """
    ws = _Workspace(X)
    objective = partial(
        _objective, family=kernel.family, nu=kernel.nu, ws=ws,
        l2_weight=cfg.l2_weight, jitter=TRAIN_JITTER,
    )
    ys = [Z[:, outputs] for outputs in OUTPUT_GROUPS]
    # clipped into the bounds, as L-BFGS-B clips a start, so that a shared
    # first evaluation is at the theta each search evaluates first; the
    # noise, which has no upper bound, to at most LOG_PARAM_BOUND, above
    # which _minimize_within evaluates no probe
    lower = [low for low, _ in _BOUNDS]
    thetas0 = [
        np.clip(starts[outputs[0]].log_params(), lower, LOG_PARAM_BOUND)
        for outputs in OUTPUT_GROUPS
    ]
    firsts = {}  # group -> its (loss, grad) from a first evaluation it shares
    fits = []
    for g, (y, theta0) in enumerate(zip(ys, thetas0)):
        if g not in firsts:
            together = [h for h in range(g, len(ys)) if np.array_equal(thetas0[h], theta0)]
            if len(together) > 1:
                # with the gradient _minimize_within asks of a first evaluation
                pairs = objective(theta0, ys=[ys[h] for h in together],
                                  want_grad=cfg.iterations > 1)
                firsts.update(zip(together, pairs))

        def own(theta, want_grad, y=y):
            [pair] = objective(theta, ys=(y,), want_grad=want_grad)
            return pair

        theta, curve = _minimize_within(
            own, theta0, _BOUNDS, cfg.iterations, kernel.log_noise_var, firsts.get(g),
        )
        if not np.array_equal(ws.theta, theta):
            _factor(theta, kernel.family, kernel.nu, ws, TRAIN_JITTER)
        fits.append((theta, ws.hand_over(), ws.jitter, curve))
    return fits


def train_gp(
    ds: PixelToPointDataset, kernel: KernelConfig, cfg: TrainConfig, starts=None
) -> TrainedGP:
    """Fit the six outputs' GPs to a pixel-to-point dataset by L-BFGS-B.

    Targets are standardized per output. Each group of OUTPUT_GROUPS (x,
    y and z alone; r, g and b together, on the sum of their three NLLs)
    then minimises its loss over one set of log-parameters, inside the
    bounds (_BOUNDS: signal variance and lengthscale within
    +-LOG_PARAM_BOUND; noise variance at least NOISE_VAR_FLOOR and
    bounded below only, so that L-BFGS-B's first step is no longer than 1
    instead of a step into the corner of the box; a probe with a log noise
    variance above LOG_PARAM_BOUND gets an infinite loss and is never
    kept), starting from the log-parameters of starts[j] for its first
    output j (one KernelConfig per output; None: the kernel's). Groups
    that start from one theta share the evaluation there (_fit_outputs).
    cfg.iterations is an exact budget of loss evaluations per group: the
    search ends when L-BFGS-B converges or asks for one evaluation more,
    and the group keeps the lowest-loss parameters evaluated (with a
    budget of 1, the starting ones). Every evaluation but the one that
    spends the budget also computes the gradient; that last one is
    loss-only, since no step can follow it, which leaves the losses and
    the kept parameters unchanged. The model's loss_curves hold one curve
    per group, every evaluation in order; a curve of cfg.iterations
    entries means the budget, not convergence, ended the search.
    Oversized datasets are first reduced to a seeded uniform subsample of
    max_train_points. A start below the kernel's noise variance that ends
    on the low-noise plateau goes on from the kernel's noise variance
    (_minimize_within). The model keeps the Cholesky factors training
    computed at the kept parameters, one per distinct (config, jitter),
    bit for bit those TrainedGP.fit computes there.
    """
    if len(ds) == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    X, Y = ds.inputs, ds.targets
    n = X.shape[0]
    if cfg.max_train_points is not None and n > cfg.max_train_points:
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
    configs, jitters, kept, curves = [None] * k, [None] * k, {}, []
    for outputs, (theta, L, jitter, curve) in zip(
        OUTPUT_GROUPS, _fit_outputs(X, Z, kernel, cfg, starts)
    ):
        fitted = kernel.with_log_params(theta)
        for j in outputs:
            configs[j], jitters[j] = fitted, jitter
        kept.setdefault((fitted, jitter), (L, jitter))  # groups that end equal share one
        curves.append(curve)
    factors, alphas, jitters = _condition(X, Z, configs, jitters, kept)
    return TrainedGP(
        tuple(configs), normalizer, X, Z, factors, alphas, jitters, ds.width, ds.height,
        tuple(curves),
    )
