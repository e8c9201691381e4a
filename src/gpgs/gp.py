"""Exact Gaussian-process regression over pixel-to-point data.

Six independent single-output GPs map normalized pixel coordinates to the
six target channels (x, y, z, r, g, b). Kernels are Matérn (closed forms
for half-integer smoothness) or RBF; hyperparameters live in log space and
are fitted by bounded L-BFGS-B (Byrd et al. 1995) on the negative log
marginal likelihood plus an L2 penalty on the log parameters, with the
analytic gradient (Rasmussen & Williams, "Gaussian Processes for Machine
Learning", ch. 5). The linear algebra follows their Algorithm 2.1
(Cholesky factorisation, no explicit inverses in the prediction path).
"""

from __future__ import annotations

import math
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

# Box bounds of the log-parameters for L-BFGS-B, so that every exp() stays
# finite and the Gram matrix computable wherever the optimiser probes.
LOG_PARAM_BOUND = 20.0
_BOUNDS = (
    (-LOG_PARAM_BOUND, LOG_PARAM_BOUND),
    (-LOG_PARAM_BOUND, LOG_PARAM_BOUND),
    (math.log(NOISE_VAR_FLOOR), LOG_PARAM_BOUND),
)

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
            if not (np.isfinite(value) and np.isfinite(np.exp(value))):
                raise ValueError(f"{name}={value} gives a non-finite parameter")

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
    iterations: int = 1000  # loss evaluations per output, at most
    l2_weight: float = 1e-6
    max_train_points: int | None = 2000
    seed: int = 0

    def __post_init__(self):
        if self.iterations < 1:
            raise ValueError(f"iterations must be >= 1, got {self.iterations}")
        if self.l2_weight < 0:
            raise ValueError(f"l2_weight must be >= 0, got {self.l2_weight}")


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

def _correlation(family: str, nu: float | None, t: np.ndarray) -> np.ndarray:
    """Unit-variance kernel profile R(t) at scaled distance t = ||a-b|| / l."""
    if family == RBF:
        return np.exp(-0.5 * t * t)
    if nu == 0.5:
        return np.exp(-t)
    if nu == 1.5:
        s = math.sqrt(3.0) * t
        return (1.0 + s) * np.exp(-s)
    if nu == 2.5:
        s = math.sqrt(5.0) * t
        return (1.0 + s + s * s / 3.0) * np.exp(-s)
    raise ValueError(f"unsupported kernel ({family}, nu={nu})")


def kernel_value(cfg: KernelConfig, a, b) -> float:
    """Covariance between two input vectors."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape:
        raise DimensionMismatch(f"input shapes differ: {a.shape} vs {b.shape}")
    t = np.linalg.norm(a - b) / cfg.lengthscale
    return float(cfg.signal_var * _correlation(cfg.family, cfg.nu, np.asarray(t)))


def cross_covariance(cfg: KernelConfig, A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """Noise-free kernel matrix k(A, B), shape (len(A), len(B))."""
    t = cdist(A, B) / cfg.lengthscale
    return cfg.signal_var * _correlation(cfg.family, cfg.nu, t)


def gram_matrix(cfg: KernelConfig, X: np.ndarray, jitter: float = 0.0) -> np.ndarray:
    """k(X, X) with noise variance and jitter added to the diagonal."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    K = cross_covariance(cfg, X, X)
    K[np.diag_indices_from(K)] += cfg.noise_var + jitter
    return K


# ---------------------------------------------------------------------------
# Cholesky with jitter escalation
# ---------------------------------------------------------------------------

def _cholesky_in_place(K: np.ndarray, fill, jitter: float) -> tuple[np.ndarray, float]:
    """Lower Cholesky factor of a Gram matrix plus jitter, in K's buffer.

    fill(j) writes the Gram matrix with jitter j on its diagonal into the
    Fortran-ordered K; dpotrf then factors it in place. A failed dpotrf
    has overwritten part of K, so each retry refills it, with the jitter
    multiplied by 10 (starting from 1e-10 when it is zero); past
    MAX_JITTER it gives up. Returns the factor (in the lower triangle;
    the upper one is not referenced) and the jitter used.
    """
    j = jitter
    while True:
        fill(j)
        L, info = dpotrf(K, lower=1, clean=0, overwrite_a=1)
        if info == 0:
            return L, j
        nxt = 1e-10 if j == 0.0 else j * 10.0
        if nxt > MAX_JITTER:
            raise NotPositiveDefinite("Gram matrix is not positive definite", j)
        j = nxt


def _solve_gram(L: np.ndarray, y: np.ndarray) -> np.ndarray:
    """(L L^T)^-1 y by two triangular solves against the lower factor L."""
    w = solve_triangular(L, y, lower=True, check_finite=False)
    return solve_triangular(L, w, lower=True, trans="T", check_finite=False)


def _needs_scratch(cfg: KernelConfig) -> bool:
    return cfg.family == MATERN and cfg.nu != 0.5


def _kernel_block(cfg: KernelConfig, D: np.ndarray, out: np.ndarray, scratch) -> np.ndarray:
    """Fill out with sf2 * R(D / l) in place and return it.

    The values are bit for bit those of cross_covariance: the same
    operations in the same order (RBF forms -0.5 t t as (t t)(-0.5);
    scaling by -0.5 is exact, so both orders round alike). D and out have
    one shape; Matérn 1.5 and 2.5 also need a scratch array of that shape
    (see _needs_scratch).
    """
    np.divide(D, cfg.lengthscale, out=out)  # t
    if cfg.family == RBF:
        np.multiply(out, out, out=out)
        np.multiply(out, -0.5, out=out)
        np.exp(out, out=out)
    elif cfg.nu == 0.5:
        np.negative(out, out=out)
        np.exp(out, out=out)
    elif cfg.nu == 1.5:
        np.multiply(out, math.sqrt(3.0), out=out)  # s
        np.negative(out, out=scratch)
        np.exp(scratch, out=scratch)
        np.add(out, 1.0, out=out)
        np.multiply(out, scratch, out=out)  # (1 + s) exp(-s)
    else:  # Matérn 2.5
        root5 = math.sqrt(5.0)
        np.multiply(out, root5, out=out)  # s
        np.multiply(out, out, out=scratch)
        np.divide(scratch, 3.0, out=scratch)
        np.add(out, 1.0, out=out)
        np.add(out, scratch, out=scratch)  # 1 + s + s^2/3
        np.divide(D, cfg.lengthscale, out=out)  # s again, bit for bit
        np.multiply(out, root5, out=out)
        np.negative(out, out=out)
        np.exp(out, out=out)
        np.multiply(scratch, out, out=out)
    np.multiply(out, cfg.signal_var, out=out)
    return out


# ---------------------------------------------------------------------------
# Negative log marginal likelihood and its gradient
# ---------------------------------------------------------------------------

class _Workspace:
    """Preallocated n x n scratch buffers for the training loop.

    Every loss+gradient evaluation touches several full matrices; reusing
    Fortran-ordered buffers keeps LAPACK in-place and avoids allocation
    churn. `mask` weights the strict lower triangle by 2 and the
    diagonal by 1 so that symmetric trace sums can be taken directly from
    the lower-triangular dpotri output.
    """

    def __init__(self, D: np.ndarray):
        n = D.shape[0]
        self.n = n
        self.D = np.asfortranarray(D)
        self.S = np.empty((n, n), order="F")   # scaled distances
        self.E = np.empty((n, n), order="F")   # exponential factor
        self.K = np.empty((n, n), order="F")   # correlation -> Gram -> Cholesky -> inverse
        self.dR = np.empty((n, n), order="F")  # dR/d(log l)
        mask = np.full((n, n), 2.0, order="F")
        mask[np.triu_indices(n)] = 0.0
        np.einsum("ii->i", mask)[:] = 1.0
        self.mask = mask


_SCALED_FACTOR = {0.5: 1.0, 1.5: math.sqrt(3.0), 2.5: math.sqrt(5.0)}


def _fill_correlation(family, nu, ell, ws: _Workspace, want_grad: bool) -> None:
    """Fill ws.K with R and (optionally) ws.dR with dR/d(log l).

    Works on the scaled distance s = c * ||a-b|| / l, where c folds the
    sqrt(2 nu) factor of the half-integer Matérn closed forms.
    """
    S, E, K, dR = ws.S, ws.E, ws.K, ws.dR
    if family == RBF:
        np.multiply(ws.D, 1.0 / ell, out=S)
        np.multiply(S, S, out=E)
        np.multiply(E, -0.5, out=E)
        np.exp(E, out=E)  # E = exp(-t^2/2) = R
        np.copyto(K, E)
        if want_grad:
            np.multiply(S, S, out=dR)
            np.multiply(dR, E, out=dR)  # dR = t^2 exp(-t^2/2)
        return
    np.multiply(ws.D, _SCALED_FACTOR[nu] / ell, out=S)
    np.negative(S, out=E)
    np.exp(E, out=E)  # E = exp(-s)
    if nu == 0.5:
        np.copyto(K, E)
        if want_grad:
            np.multiply(S, E, out=dR)  # dR = t exp(-t)
    elif nu == 1.5:
        np.add(S, 1.0, out=K)
        np.multiply(K, E, out=K)  # R = (1+s) exp(-s)
        if want_grad:
            np.multiply(S, S, out=dR)
            np.multiply(dR, E, out=dR)  # dR = 3 t^2 exp(-s), s^2 = 3 t^2
    else:  # nu == 2.5
        np.multiply(S, S, out=K)
        np.multiply(K, 1.0 / 3.0, out=K)
        np.add(K, S, out=K)
        np.add(K, 1.0, out=K)
        np.multiply(K, E, out=K)  # R = (1+s+s^2/3) exp(-s)
        if want_grad:
            np.multiply(S, S, out=dR)
            np.multiply(dR, 1.0 / 3.0, out=dR)
            np.add(S, 1.0, out=S)
            np.multiply(dR, S, out=dR)
            np.multiply(dR, E, out=dR)  # dR = (s^2/3)(1+s) exp(-s)


def _objective(theta, family, nu, ws: _Workspace, y, l2_weight, jitter, want_grad):
    """Loss (and gradient) at theta = (log sf2, log l, log sn2).

    loss = 0.5 y^T K^-1 y + 0.5 log|K| + n/2 log(2 pi) + l2 |theta|^2.
    The gradient uses the trace identity
    dL/dtheta_j = 0.5 tr((K^-1 - aa^T) dK/dtheta_j) + 2 l2 theta_j,
    with tr(K^-1 R) folded through tr(K^-1 K) = n so that only the
    lengthscale derivative needs an explicit elementwise pass.
    """
    n = ws.n
    sf2 = math.exp(theta[0])
    ell = math.exp(theta[1])
    sn2 = math.exp(theta[2])

    def fill(j):
        _fill_correlation(family, nu, ell, ws, want_grad)
        np.multiply(ws.K, sf2, out=ws.K)
        np.einsum("ii->i", ws.K)[:] += sn2 + j

    L, j = _cholesky_in_place(ws.K, fill, jitter)
    diag_L = np.einsum("ii->i", L)
    logdet_half = float(np.sum(np.log(diag_L)))
    alpha = _solve_gram(L, y)
    y_alpha = float(y @ alpha)
    loss = (
        0.5 * y_alpha
        + logdet_half
        + 0.5 * n * math.log(2.0 * math.pi)
        + l2_weight * float(theta @ theta)
    )
    if not want_grad:
        return loss, None

    inv, info = dpotri(L, lower=1, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefinite("dpotri failed on the Cholesky factor", j)
    np.multiply(inv, ws.mask, out=inv)  # lower triangle now weighted for symmetric sums
    tr_kinv = float(np.einsum("ii->", inv))
    tr_kinv_dr = float(np.einsum("ij,ij->", inv, ws.dR))
    alpha_dr_alpha = float(alpha @ (ws.dR @ alpha))
    alpha_sq = float(alpha @ alpha)
    c_diag = sn2 + j

    grad = np.array(
        [
            0.5 * ((n - c_diag * tr_kinv) - (y_alpha - c_diag * alpha_sq)),
            0.5 * sf2 * (tr_kinv_dr - alpha_dr_alpha),
            0.5 * sn2 * (tr_kinv - alpha_sq),
        ]
    )
    grad += 2.0 * l2_weight * np.asarray(theta)
    return loss, grad


def nll(cfg: KernelConfig, X, y, l2_weight: float = 0.0, jitter: float = 0.0) -> float:
    """Training loss for one output: NLL plus the L2 log-parameter penalty."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    ws = _Workspace(cdist(X, X))
    loss, _ = _objective(cfg.log_params(), cfg.family, cfg.nu, ws, y, l2_weight, jitter, False)
    return loss


def nll_gradient(
    cfg: KernelConfig, X, y, l2_weight: float = 0.0, jitter: float = 0.0
) -> np.ndarray:
    """Analytic gradient of nll over the three log-hyperparameters."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    ws = _Workspace(cdist(X, X))
    _, grad = _objective(cfg.log_params(), cfg.family, cfg.nu, ws, y, l2_weight, jitter, True)
    return grad


# ---------------------------------------------------------------------------
# Trained model
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainedGP:
    """Six conditioned single-output GPs sharing one set of inputs.

    Immutable after construction; posterior evaluation is a pure read and
    may run concurrently from many threads.
    """

    configs: tuple[KernelConfig, ...]      # one per output
    normalizer: OutputNormalizer
    X: np.ndarray                          # (n, d) training inputs
    Z: np.ndarray                          # (n, 6) normalized targets
    factors: tuple[np.ndarray, ...]        # per-output Cholesky factor of K + sn2 I (+ jitter),
                                           # Fortran-ordered, in the lower triangle (the
                                           # upper one is not referenced)
    alphas: tuple[np.ndarray, ...]         # per-output (K + sn2 I)^-1 z
    jitters: tuple[float, ...]             # jitter actually used per output
    width: int
    height: int
    loss_curves: tuple[np.ndarray, ...] = ()

    @property
    def n_outputs(self) -> int:
        return len(self.configs)

    @property
    def input_dim(self) -> int:
        return self.X.shape[1]

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
        """Condition the six GPs on (X, Z) at fixed hyperparameters.

        Z is already normalized. jitter may be a scalar or a per-output
        sequence; each output records the value escalation settled on.
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
        n = X.shape[0]
        D = cdist(X, X).T  # exactly symmetric, so this is a Fortran-ordered view of it
        scratch = np.empty((n, n), order="F") if any(map(_needs_scratch, configs)) else None
        factors, alphas, jitters = [], [], []
        for j_out, (cfg, j0) in enumerate(zip(configs, jitters_in)):
            # Each output's Gram matrix is built, factored and kept in one
            # buffer; LAPACK reads the Fortran-ordered factor in place.
            K = np.empty((n, n), order="F")

            def fill(j, cfg=cfg, K=K):
                _kernel_block(cfg, D, K, scratch)
                diag = np.einsum("ii->i", K)
                diag += cfg.noise_var
                if j:
                    diag += j

            L, j = _cholesky_in_place(K, fill, j0)
            alphas.append(_solve_gram(L, Z[:, j_out]))
            factors.append(L)
            jitters.append(j)
        return cls(
            configs,
            normalizer,
            X,
            Z,
            tuple(factors),
            tuple(alphas),
            tuple(jitters),
            width,
            height,
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
    Only the outputs listed in var_outputs (None: all) get a variance,
    at one triangular solve each; the other variance columns are NaN.
    Queries are processed in blocks of _QUERY_CHUNK that share one
    distance block across the outputs, so memory is O(n * chunk) rather
    than O(n * m).
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
    # One covariance block (and one scratch block, for kernels that need
    # it) serves every chunk and output; chunk views of it stay Fortran-ordered.
    shape = (model.X.shape[0], min(m, _QUERY_CHUNK))
    block = np.empty(shape, order="F")
    scratch = np.empty(shape, order="F") if any(map(_needs_scratch, model.configs)) else None
    for start in range(0, m, _QUERY_CHUNK):
        rows = slice(start, min(start + _QUERY_CHUNK, m))
        width = rows.stop - start
        D = cdist(Q[rows], model.X).T  # (n, chunk), Fortran-ordered without a copy
        for j, (cfg, L, alpha) in enumerate(zip(model.configs, model.factors, model.alphas)):
            Ks = _kernel_block(
                cfg, D, block[:, :width], None if scratch is None else scratch[:, :width]
            )
            mean_norm[rows, j] = Ks.T @ alpha
            if j in var_outputs:
                # V = L^-1 k* and then V * V overwrite the covariance block in place.
                V = solve_triangular(L, Ks, lower=True, check_finite=False, overwrite_b=True)
                np.multiply(V, V, out=V)
                var_norm[rows, j] = np.maximum(cfg.signal_var - V.sum(axis=0), 0.0)
    mean = model.normalizer.denormalize_mean(mean_norm)
    var = model.normalizer.denormalize_var(var_norm)
    return PosteriorBatch(mean_norm, var_norm, mean, var)


# ---------------------------------------------------------------------------
# Training
# ---------------------------------------------------------------------------

class _BudgetSpent(Exception):
    """The optimiser asked for one evaluation more than the budget."""


def _minimize_within(fun, theta0: np.ndarray, bounds, budget: int, lift_noise_to: float):
    """Minimise fun(theta, want_grad) -> (loss, grad) by L-BFGS-B in at most
    budget calls.

    scipy's maxfun is checked only between iterations, so the budget is
    enforced here: the call that would exceed it raises instead, which
    ends the search. Evaluation number budget is therefore the last one,
    and nothing can follow its gradient: it is computed loss-only
    (want_grad=False) and L-BFGS-B gets a zero gradient, after which it
    either stops or asks for the evaluation that raises. Returns the
    lowest-loss theta evaluated and the loss of every evaluation in order.

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
    """L-BFGS-B fit of each column of Z on the inputs X, output j from the
    log-parameters of the KernelConfig starts[j].

    Returns the kept log-parameters and the loss curve of every output.
    The n x n buffers live only for the call.
    """
    ws = _Workspace(cdist(X, X))
    thetas, curves = [], []
    for j, start in enumerate(starts):
        loss_and_grad = partial(
            _objective, family=kernel.family, nu=kernel.nu, ws=ws,
            y=np.ascontiguousarray(Z[:, j]), l2_weight=cfg.l2_weight, jitter=TRAIN_JITTER,
        )
        theta, curve = _minimize_within(
            loss_and_grad, start.log_params(), _BOUNDS, cfg.iterations, kernel.log_noise_var
        )
        thetas.append(theta)
        curves.append(curve)
    return thetas, curves


def train_gp(
    ds: PixelToPointDataset, kernel: KernelConfig, cfg: TrainConfig, starts=None
) -> TrainedGP:
    """Fit six GPs to a pixel-to-point dataset by L-BFGS-B.

    Targets are standardized per output. Each output then minimises its
    loss over the log-parameters, inside the bounds (+-LOG_PARAM_BOUND,
    noise variance at least NOISE_VAR_FLOOR), starting from starts[j]'s
    log-parameters (one KernelConfig per output; None: the kernel's).
    cfg.iterations is an exact budget of loss evaluations per output: the
    search ends when L-BFGS-B converges or asks for one evaluation more,
    and the output keeps the lowest-loss parameters evaluated (with a
    budget of 1, the starting ones). Every evaluation but the one that
    spends the budget also computes the gradient; that last one is
    loss-only, since no step can follow it, which leaves the losses and
    the kept parameters unchanged. The loss curve records every
    evaluation in order; a curve of cfg.iterations entries means the
    budget, not convergence, ended the search. Oversized datasets are
    first reduced to a seeded uniform subsample of max_train_points. A
    start below the kernel's noise variance that ends on the low-noise
    plateau goes on from the kernel's noise variance (_minimize_within).
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
    thetas, curves = _fit_outputs(X, Z, kernel, cfg, starts)
    return TrainedGP.fit(
        X,
        Z,
        [kernel.with_log_params(theta) for theta in thetas],
        normalizer,
        ds.width,
        ds.height,
        jitter=TRAIN_JITTER,
        loss_curves=curves,
    )
