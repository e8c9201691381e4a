"""Point-cloud and regression evaluation metrics.

Chamfer distance uses Euclidean (not squared) nearest-neighbour distances,
computed brute force for desk-scale sets and through a uniform-grid
spatial hash for large ones; both paths agree to within floating-point
noise and are cross-checked in the tests.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial.distance import cdist

from .errors import ConstantTruth, EmptyDataset, EmptySet, ShapeMismatch
from .gp import TrainedGP, posterior
from .sfm_io import PixelToPointDataset

# Above this many pairwise distances the grid path takes over.
BRUTE_FORCE_PAIR_LIMIT = 5000 * 5000

OUTPUT_NAMES = ("x", "y", "z", "r", "g", "b")


@dataclass(frozen=True)
class MetricsBundle:
    r2: float
    rmse: float
    chamfer: float
    sample_count: int


@dataclass(frozen=True)
class OutputMetrics:
    name: str
    r2: Optional[float]  # None when the truth is constant for this output
    rmse: float


@dataclass(frozen=True)
class HoldoutReport:
    bundle: MetricsBundle
    per_output: tuple[OutputMetrics, ...]


# ---------------------------------------------------------------------------
# Chamfer distance
# ---------------------------------------------------------------------------

def _min_dists_brute(P: np.ndarray, G: np.ndarray, chunk: int = 512) -> np.ndarray:
    out = np.empty(len(P))
    for start in range(0, len(P), chunk):
        block = P[start : start + chunk]
        out[start : start + len(block)] = cdist(block, G).min(axis=1)
    return out


class _UniformGrid:
    """Spatial hash over 3D points supporting exact nearest-neighbour
    distance queries via expanding Chebyshev shells of cells."""

    def __init__(self, points: np.ndarray):
        self.points = points
        self.origin = points.min(axis=0)
        extent = points.max(axis=0) - self.origin
        diag = float(np.linalg.norm(extent))
        # Aim for O(1) points per cell; degenerate (single-cell) grids are fine.
        self.cell = diag / max(1.0, round(len(points) ** (1.0 / 3.0))) or 1.0
        keys = np.floor((points - self.origin) / self.cell).astype(np.int64)
        self.table: dict[tuple[int, int, int], list[int]] = {}
        for idx, key in enumerate(map(tuple, keys)):
            self.table.setdefault(key, []).append(idx)
        self.key_lo = keys.min(axis=0)
        self.key_hi = keys.max(axis=0)

    def _shell_cells(self, center: np.ndarray, k: int):
        lo = np.maximum(center - k, self.key_lo)
        hi = np.minimum(center + k, self.key_hi)
        for ix in range(lo[0], hi[0] + 1):
            for iy in range(lo[1], hi[1] + 1):
                for iz in range(lo[2], hi[2] + 1):
                    if max(abs(ix - center[0]), abs(iy - center[1]), abs(iz - center[2])) == k:
                        yield (ix, iy, iz)

    def nearest_distance(self, q: np.ndarray) -> float:
        center = np.floor((q - self.origin) / self.cell).astype(np.int64)
        k_max = int(
            max(
                np.abs(center - self.key_lo).max(),
                np.abs(center - self.key_hi).max(),
            )
        )
        best = math.inf
        k = 0
        while True:
            for key in self._shell_cells(center, k):
                idxs = self.table.get(key)
                if idxs:
                    d = np.linalg.norm(self.points[idxs] - q, axis=1).min()
                    if d < best:
                        best = float(d)
            # Any point beyond shell k sits at distance >= k * cell.
            if best <= k * self.cell or k >= k_max:
                return best
            k += 1


def _min_dists_grid(P: np.ndarray, G: np.ndarray) -> np.ndarray:
    grid = _UniformGrid(G)
    return np.array([grid.nearest_distance(q) for q in P])


def chamfer_distance(P, G, method: str = "auto") -> float:
    """Symmetric mean nearest-neighbour distance between two point sets.

    d = (1/|P|) sum_p min_g ||p-g|| + (1/|G|) sum_g min_p ||g-p||.
    method is "auto" (grid above BRUTE_FORCE_PAIR_LIMIT pairs), "brute",
    or "grid".
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if P.size == 0 or G.size == 0:
        raise EmptySet("chamfer distance needs two non-empty point sets")
    if P.shape[1] != 3 or G.shape[1] != 3:
        raise ShapeMismatch(f"points must be 3-vectors, got {P.shape} and {G.shape}")
    if method == "auto":
        method = "brute" if len(P) * len(G) <= BRUTE_FORCE_PAIR_LIMIT else "grid"
    if method == "brute":
        p_to_g = _min_dists_brute(P, G)
        g_to_p = _min_dists_brute(G, P)
    elif method == "grid":
        p_to_g = _min_dists_grid(P, G)
        g_to_p = _min_dists_grid(G, P)
    else:
        raise ValueError(f"unknown method {method!r}")
    return float(p_to_g.mean() + g_to_p.mean())


# ---------------------------------------------------------------------------
# Regression scores
# ---------------------------------------------------------------------------

def rmse(pred, truth) -> float:
    """Root mean squared error over all entries."""
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ShapeMismatch(f"shapes differ: {pred.shape} vs {truth.shape}")
    if pred.size == 0:
        raise EmptySet("rmse needs at least one value")
    return float(np.sqrt(np.mean((pred - truth) ** 2)))


def r2_score(pred, truth) -> float:
    """Coefficient of determination, 1 - SS_res / SS_tot.

    Accepts 1-D series or 2-D (n, k) arrays; in the 2-D case residual and
    total sums use squared row norms around the per-column truth mean.
    """
    pred = np.asarray(pred, dtype=float)
    truth = np.asarray(truth, dtype=float)
    if pred.shape != truth.shape:
        raise ShapeMismatch(f"shapes differ: {pred.shape} vs {truth.shape}")
    n = truth.shape[0]
    if n < 2:
        raise ConstantTruth(f"r2 needs at least 2 samples, got {n}")
    ss_res = float(np.sum((truth - pred) ** 2))
    ss_tot = float(np.sum((truth - truth.mean(axis=0)) ** 2))
    if ss_tot == 0.0:
        raise ConstantTruth("truth values are constant; r2 is undefined")
    return 1.0 - ss_res / ss_tot


# ---------------------------------------------------------------------------
# Held-out GP evaluation
# ---------------------------------------------------------------------------

def evaluate_holdout(model: TrainedGP, test: PixelToPointDataset) -> HoldoutReport:
    """Score posterior means on a held-out dataset.

    r2 and rmse cover all six denormalized outputs jointly plus
    per-output breakdowns (r2 absent where an output's truth is constant);
    chamfer compares the predicted and true (x, y, z) sets.
    """
    if len(test) == 0:
        raise EmptyDataset("cannot evaluate on an empty dataset")
    pred = posterior(model, test.input_matrix(), var_outputs=()).mean
    truth = test.target_matrix()

    per_output = []
    for j, name in enumerate(OUTPUT_NAMES):
        try:
            r2_j = r2_score(pred[:, j], truth[:, j])
        except ConstantTruth:
            r2_j = None
        per_output.append(OutputMetrics(name, r2_j, rmse(pred[:, j], truth[:, j])))

    bundle = MetricsBundle(
        r2=r2_score(pred, truth),
        rmse=rmse(pred, truth),
        chamfer=chamfer_distance(pred[:, :3], truth[:, :3]),
        sample_count=len(test),
    )
    return HoldoutReport(bundle, tuple(per_output))
