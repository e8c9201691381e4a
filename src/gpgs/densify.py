"""Candidate generation, uncertainty filtering, and cloud merging.

Candidates are sampled on circles of radius beta * min(H, W) around each
training pixel, pushed through the trained GP, ranked by the mean of the
three colour-channel posterior variances, and cut at the configured
quantile. Retained predictions are appended to the sparse SfM points.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Optional, Sequence

import numpy as np

from .errors import DimensionMismatch, EmptyPredictionSet
from .gp import TrainedGP, posterior
from .pointcloud import DensifiedCloud, PointSource
from .sfm_io import DepthMap, PixelSample, SparseModel


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

    var6 rows are posterior variances in normalized-target space; only
    the three colour entries (columns 3:6) are computed, the position
    entries are NaN. mean_rgb_var is the arithmetic mean of the colour
    entries. mean6 rows are denormalized (world position + [0,1] colours).
    """

    pixels: tuple[PixelSample, ...]
    mean6: np.ndarray         # (m, 6)
    var6: np.ndarray          # (m, 6)
    mean_rgb_var: np.ndarray  # (m,)
    retained: np.ndarray      # (m,) bool

    def __len__(self) -> int:
        return len(self.pixels)

    def retained_count(self) -> int:
        return int(np.count_nonzero(self.retained))


def generate_samples(
    train_pixels,
    width: int,
    height: int,
    cfg: SamplingConfig,
) -> list[PixelSample]:
    """Candidate pixels on circular neighbourhoods of the training pixels.

    For each training pixel, up to M samples at angles 2*pi*j/M and radius
    r = beta * min(H, W). Samples falling outside [0, W) x [0, H) are
    discarded, exact repeats are deduplicated, and the survivors are
    returned normalized to [0, 1].
    """
    if width < 1 or height < 1:
        raise ValueError(f"image size must be positive, got {width}x{height}")
    train_pixels = np.atleast_2d(np.asarray(train_pixels, dtype=float))
    r = cfg.beta * min(width, height)
    m = cfg.angular_resolution
    angles = 2.0 * math.pi * np.arange(m) / m
    dx, dy = r * np.cos(angles), r * np.sin(angles)

    out: list[PixelSample] = []
    seen: set[tuple[float, float]] = set()
    for u, v in train_pixels:
        for uu, vv in zip(u + dx, v + dy):
            if not (0.0 <= uu < width and 0.0 <= vv < height):
                continue
            key = (uu / width, vv / height)
            if key in seen:
                continue
            seen.add(key)
            out.append(PixelSample(u_norm=key[0], v_norm=key[1]))
    return out


def attach_depth(
    candidates: Sequence[PixelSample], depth: DepthMap, width: int, height: int
) -> list[PixelSample]:
    """Depth-feature mode: look up each candidate's depth, dropping pixels
    that land on an invalid depth value."""
    out = []
    for s in candidates:
        d = depth.value_at(s.u_norm * width, s.v_norm * height)
        if d is not None:
            out.append(replace(s, depth=d))
    return out


def infer_dense(model: TrainedGP, candidates: Sequence[PixelSample]) -> PredictedPointSet:
    """Run batch GP inference over candidate pixels; retained flags start
    all False pending filtering. Only the colour variances, which the
    filter ranks by, are computed."""
    m = len(candidates)
    if m and model.input_dim == 3:
        if any(s.depth is None for s in candidates):
            raise DimensionMismatch("model expects depth inputs but candidates carry none")
        Q = np.array([[s.u_norm, s.v_norm, s.depth] for s in candidates])
    else:
        if model.input_dim != 2 and m:
            raise DimensionMismatch(f"unsupported model input dimension {model.input_dim}")
        Q = np.array([[s.u_norm, s.v_norm] for s in candidates]).reshape(m, 2)
    if m == 0:
        return PredictedPointSet(
            (), np.zeros((0, 6)), np.zeros((0, 6)), np.zeros(0), np.zeros(0, dtype=bool)
        )
    post = posterior(model, Q, var_outputs=(3, 4, 5))
    mean_rgb_var = post.var_norm[:, 3:6].mean(axis=1)
    return PredictedPointSet(
        tuple(candidates), post.mean, post.var_norm, mean_rgb_var, np.zeros(m, dtype=bool)
    )


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
    sparse_pos = sparse.positions().astype(np.float32)
    sparse_col = sparse.colors()
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
    and for the RGB average, with percentage reductions."""

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
