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

from .errors import DimensionMismatch, EmptyPredictionSet
from .gp import TrainedGP, posterior
from .pointcloud import DensifiedCloud, PointSource
from .sfm_io import DepthMap, SparseModel


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

    Row i of every array belongs to row i of the candidates. var6 rows are
    posterior variances in normalized-target space; only the three colour
    entries (columns 3:6) are computed, the position entries are NaN. For
    a trained model, whose r, g and b share one kernel, the three colour
    entries are equal. mean_rgb_var is the arithmetic mean of the colour
    entries. mean6 rows are denormalized (world position + [0,1] colours).
    """

    mean6: np.ndarray         # (m, 6)
    var6: np.ndarray          # (m, 6)
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
    dropping candidates that land on an invalid depth value."""
    d = depth.value_at(candidates[:, 0] * width, candidates[:, 1] * height)
    valid = ~np.isnan(d)
    return np.column_stack([candidates[valid], d[valid]])


def infer_dense(model: TrainedGP, candidates: np.ndarray) -> PredictedPointSet:
    """Run batch GP inference over (m, d) candidate inputs; retained flags
    start all False pending filtering. Only the colour variances, which
    the filter ranks by, are computed: one triangular solve per query
    block when r, g and b share a factor, as they do after train_gp."""
    if candidates.shape[1] != model.input_dim:
        raise DimensionMismatch(
            f"candidates have {candidates.shape[1]} columns, the model takes {model.input_dim}"
        )
    m = len(candidates)
    if m == 0:
        return PredictedPointSet(
            np.zeros((0, 6)), np.zeros((0, 6)), np.zeros(0), np.zeros(0, dtype=bool)
        )
    post = posterior(model, candidates, var_outputs=(3, 4, 5))
    mean_rgb_var = post.var_norm[:, 3:6].mean(axis=1)
    return PredictedPointSet(post.mean, post.var_norm, mean_rgb_var, np.zeros(m, dtype=bool))


def filter_by_variance(preds: PredictedPointSet, cfg: FilterConfig) -> PredictedPointSet:
    """Keep the lowest-variance quantile of the predictions.

    The threshold is the ceil(q * m)-th smallest mean RGB variance;
    predictions at or below it are retained (ties at the threshold kept),
    input order preserved.
    """
    m = len(preds)
    if m == 0:
        raise EmptyPredictionSet("cannot filter an empty prediction set")
    k = math.ceil(cfg.quantile * m)
    tau = np.sort(preds.mean_rgb_var)[k - 1]
    return replace(preds, retained=preds.mean_rgb_var <= tau)


def merge_clouds(sparse: SparseModel, preds: PredictedPointSet) -> DensifiedCloud:
    """Union of the sparse SfM points and the retained predictions.

    Predicted colours are clamped to [0, 1] and quantized to 8 bits;
    every point carries its provenance tag.
    """
    sparse_pos = sparse.points3d.xyz.astype(np.float32)
    sparse_col = sparse.points3d.rgb
    keep = preds.retained
    gp_pos = preds.mean6[keep, :3].astype(np.float32)
    gp_col = np.rint(np.clip(preds.mean6[keep, 3:6], 0.0, 1.0) * 255.0).astype(np.uint8)
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
    """Mean predictive variance before/after filtering, per colour channel
    and for the RGB average, with percentage reductions. For a trained
    model, whose r, g and b share one kernel, the r, g, b and rgb_mean
    entries are equal (up to the rounding of the mean)."""

    original: dict[str, float]
    filtered: dict[str, float]
    reduction_pct: dict[str, float]

    CHANNELS = ("r", "g", "b", "rgb_mean")


def variance_reduction_report(preds: PredictedPointSet) -> VarianceReport:
    """Compare mean variance over all predictions vs the retained subset."""
    if len(preds) == 0:
        raise EmptyPredictionSet("cannot report on an empty prediction set")
    if preds.retained_count() == 0:
        raise EmptyPredictionSet("no retained predictions; run filter_by_variance first")
    series = {
        "r": preds.var6[:, 3],
        "g": preds.var6[:, 4],
        "b": preds.var6[:, 5],
        "rgb_mean": preds.mean_rgb_var,
    }
    original, filtered, reduction = {}, {}, {}
    for name, values in series.items():
        orig = float(values.mean())
        filt = float(values[preds.retained].mean())
        original[name] = orig
        filtered[name] = filt
        reduction[name] = 0.0 if orig == 0.0 else 100.0 * (orig - filt) / orig
    return VarianceReport(original, filtered, reduction)
