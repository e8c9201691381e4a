"""Densified point-cloud container shared by the I/O and densification layers."""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum

import numpy as np


# The largest magnitude a PLY ``float`` coordinate holds: a position beyond
# it is not finite in float32.
FLOAT32_MAX = float(np.finfo(np.float32).max)


class PointSource(IntEnum):
    """Provenance tag stored per point (also the on-disk uchar value)."""

    SFM = 0
    GP = 1


@dataclass(frozen=True)
class DensifiedCloud:
    """Union of original SfM points and retained GP predictions.

    Positions are kept as float32 because that is the precision of the PLY
    ``float`` vertex properties; storing anything wider would make the
    binary round trip lossy.
    """

    positions: np.ndarray  # (n, 3) float32
    colors: np.ndarray     # (n, 3) uint8
    sources: np.ndarray    # (n,) uint8, values from PointSource

    def __post_init__(self):
        pos = np.ascontiguousarray(self.positions, dtype=np.float32)
        col = np.ascontiguousarray(self.colors, dtype=np.uint8)
        src = np.ascontiguousarray(self.sources, dtype=np.uint8)
        if pos.ndim != 2 or pos.shape[1] != 3:
            raise ValueError(f"positions must be (n, 3), got {pos.shape}")
        if col.shape != pos.shape:
            raise ValueError(f"colors shape {col.shape} != positions shape {pos.shape}")
        if src.shape != (pos.shape[0],):
            raise ValueError(f"sources shape {src.shape} != ({pos.shape[0]},)")
        object.__setattr__(self, "positions", pos)
        object.__setattr__(self, "colors", col)
        object.__setattr__(self, "sources", src)

    def __len__(self) -> int:
        return self.positions.shape[0]
