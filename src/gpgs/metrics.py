"""Point-cloud and regression evaluation metrics.

Chamfer distance uses Euclidean (not squared) nearest-neighbour distances,
found exactly by scipy's k-d tree and cross-checked in the tests against
a double-loop oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.spatial import cKDTree

from .errors import ConstantTruth, EmptyDataset, EmptySet, ShapeMismatch
from .gp import TrainedGP, posterior
from .sfm_io import PixelToPointDataset

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

def chamfer_distance(P, G) -> float:
    """Symmetric mean nearest-neighbour distance between two point sets.

    d = (1/|P|) sum_p min_g ||p-g|| + (1/|G|) sum_g min_p ||g-p||, with
    exact nearest neighbours from one k-d tree per set.
    """
    P = np.atleast_2d(np.asarray(P, dtype=float))
    G = np.atleast_2d(np.asarray(G, dtype=float))
    if P.size == 0 or G.size == 0:
        raise EmptySet("chamfer distance needs two non-empty point sets")
    if P.shape[1] != 3 or G.shape[1] != 3:
        raise ShapeMismatch(f"points must be 3-vectors, got {P.shape} and {G.shape}")
    p_to_g, _ = cKDTree(G).query(P)
    g_to_p, _ = cKDTree(P).query(G)
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
    pred = posterior(model, test.inputs, var_outputs=()).mean
    truth = test.targets

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
