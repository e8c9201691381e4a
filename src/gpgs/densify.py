"""Candidate generation, uncertainty filtering, and cloud merging.

Candidates are sampled on circles of radius beta * min(H, W) around each
training pixel, pushed through the trained GP, ranked by the mean of the
three colour-channel posterior variances, and cut at the configured
quantile. Retained predictions are appended to the sparse SfM points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import EmptyDataset, NonFinitePrediction
from .gp import TrainedGP, posterior
from .sfm_io import FLOAT32_MAX, DensifiedCloud, DepthMap, PointSource, SparseModel


@dataclass(frozen=True)
class SamplingConfig:
    beta: float = 0.25
    angular_resolution: int = 8

    def __post_init__(self):
        if not 0.0 < self.beta < 1.0:
            raise ValueError(f"beta must be in (0, 1), got {self.beta}")
        if self.angular_resolution < 1:
            raise ValueError(f"angular_resolution must be >= 1, got {self.angular_resolution}")


@dataclass(frozen=True)
class FilterConfig:
    quantile: float = 0.75

    def __post_init__(self):
        if not 0.0 < self.quantile <= 1.0:
            raise ValueError(f"quantile must be in (0, 1], got {self.quantile}")


@dataclass(frozen=True)
class PredictedPointSet:
    """GP inference results for a batch of candidate pixels.

    Row i of every array belongs to row i of the candidates. mean6 rows are
    denormalized (world position + [0,1] colours). mean_rgb_var is the
    mean of the three colour variances in normalized-target space, the
    uncertainty the filter ranks by.
    """

    mean6: np.ndarray         # (m, 6)
    mean_rgb_var: np.ndarray  # (m,)
    retained: np.ndarray      # (m,) bool

    def __len__(self) -> int:
        return len(self.mean_rgb_var)

    def retained_count(self) -> int:
        return int(np.count_nonzero(self.retained))


def generate_samples(
    train_pixels,
    width: int,
    height: int,
    cfg: SamplingConfig,
) -> np.ndarray:
    """Candidate pixels on circular neighbourhoods of the training pixels.

    For each training pixel, up to M samples at angles 2*pi*j/M and radius
    r = beta * min(H, W). Samples falling outside [0, W) x [0, H) are
    discarded, exact repeats are deduplicated (the first one kept), and the
    survivors are returned normalized to [0, 1] as an (m, 2) array, in
    training-pixel then angle order.
    """
    if width < 1 or height < 1:
        raise ValueError(f"image size must be positive, got {width}x{height}")
    train_pixels = np.atleast_2d(np.asarray(train_pixels, dtype=float))
    r = cfg.beta * min(width, height)
    m = cfg.angular_resolution
    angles = 2.0 * math.pi * np.arange(m) / m
    uu = (train_pixels[:, :1] + r * np.cos(angles)).ravel()
    vv = (train_pixels[:, 1:2] + r * np.sin(angles)).ravel()
    inside = (0.0 <= uu) & (uu < width) & (0.0 <= vv) & (vv < height)
    keys = np.stack([uu[inside] / width, vv[inside] / height], axis=1)
    _, first = np.unique(keys, axis=0, return_index=True)
    return keys[np.sort(first)]


def attach_depth(candidates: np.ndarray, depth: DepthMap, width: int, height: int) -> np.ndarray:
    """Depth-feature mode: append each candidate's depth as a third column,
    dropping candidates that land on an invalid depth value. The depth map
    must be width x height, the image the candidates were sampled in."""
    depth.check_size(width, height)
    d = depth.value_at(candidates[:, 0] * width, candidates[:, 1] * height)
    valid = ~np.isnan(d)
    return np.column_stack([candidates[valid], d[valid]])


def infer_dense(model: TrainedGP, candidates: np.ndarray) -> PredictedPointSet:
    """Run batch GP inference over (m, d) candidate inputs; retained flags
    start all False pending filtering. Only the colour variances, which
    the filter ranks by, are computed: one inverse of the colour factor
    per call and one triangular product by it per query block when r, g
    and b share a factor, as they do after train_gp. A model file whose
    r, g and b kernels differ still ranks by their mean. posterior checks
    d against the model's input_dim and answers m = 0 with an empty set."""
    post = posterior(model, candidates, var_outputs=(3, 4, 5))
    mean_rgb_var = post.var_norm[:, 3:6].mean(axis=1)
    return PredictedPointSet(post.mean, mean_rgb_var, np.zeros(len(candidates), dtype=bool))


def filter_by_variance(preds: PredictedPointSet, cfg: FilterConfig) -> PredictedPointSet:
    """Keep the lowest-variance quantile of the predictions.

    The threshold is the ceil(q * m)-th smallest mean RGB variance;
    predictions at or below it are retained (ties at the threshold kept),
    input order preserved.
    """
    m = len(preds)
    if m == 0:
        raise EmptyDataset("cannot filter an empty prediction set")
    k = math.ceil(cfg.quantile * m)
    tau = np.sort(preds.mean_rgb_var)[k - 1]
    return replace(preds, retained=preds.mean_rgb_var <= tau)


def merge_clouds(sparse: SparseModel, preds: PredictedPointSet) -> DensifiedCloud:
    """Union of the sparse SfM points and the retained predictions.

    Predicted colours are clamped to [0, 1] and quantized to 8 bits;
    every point carries its provenance tag. A retained prediction that is
    not finite in float32 raises NonFinitePrediction.
    """
    sparse_pos = sparse.points3d.xyz.astype(np.float32)
    sparse_col = sparse.points3d.rgb
    gp_mean = preds.mean6[preds.retained]
    bad = np.count_nonzero(~(np.abs(gp_mean) <= FLOAT32_MAX).all(axis=1))
    if bad:
        raise NonFinitePrediction(
            f"{bad} of {len(gp_mean)} retained predictions are not finite in float32; "
            "the model's hyperparameters or normalisation are out of range"
        )
    gp_pos = gp_mean[:, :3].astype(np.float32)
    gp_col = np.rint(np.clip(gp_mean[:, 3:6], 0.0, 1.0) * 255.0).astype(np.uint8)
    positions = np.concatenate([sparse_pos, gp_pos], axis=0)
    colors = np.concatenate([sparse_col, gp_col], axis=0)
    sources = np.concatenate(
        [
            np.full(len(sparse_pos), int(PointSource.SFM), dtype=np.uint8),
            np.full(len(gp_pos), int(PointSource.GP), dtype=np.uint8),
        ]
    )
    return DensifiedCloud(positions, colors, sources)


@dataclass(frozen=True)
class VarianceReport:
    """Mean of mean_rgb_var over all predictions and over the retained
    ones, and the percentage by which filtering reduced it."""

    original: float
    filtered: float
    reduction_pct: float


def variance_reduction_report(preds: PredictedPointSet) -> VarianceReport:
    """Compare mean variance over all predictions vs the retained subset."""
    if len(preds) == 0:
        raise EmptyDataset("cannot report on an empty prediction set")
    if preds.retained_count() == 0:
        raise EmptyDataset("no retained predictions; run filter_by_variance first")
    original = float(preds.mean_rgb_var.mean())
    filtered = float(preds.mean_rgb_var[preds.retained].mean())
    reduction = 0.0 if original == 0.0 else 100.0 * (original - filtered) / original
    return VarianceReport(original, filtered, reduction)
