"""Shared synthetic fixtures: COLMAP text models and GP training scenes."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from gpgs.sfm_io import PixelToPointDataset

# ---------------------------------------------------------------------------
# Hand-written COLMAP fixture: 1 camera, 2 images (5 and 3 linked features),
# 6 points. Point 101 matches the worked dataset example: pixel (200, 100)
# in a 400x400 image -> position (1, 2, 3), colour (255, 0, 0).
# ---------------------------------------------------------------------------

CAMERAS_TXT = """\
# Camera list with one line of data per camera:
#   CAMERA_ID, MODEL, WIDTH, HEIGHT, PARAMS[]
1 PINHOLE 400 400 350 350 200 200
"""

IMAGES_TXT = """\
# Image list with two lines of data per image:
#   IMAGE_ID, QW, QX, QY, QZ, TX, TY, TZ, CAMERA_ID, NAME
#   POINTS2D[] as (X, Y, POINT3D_ID)
1 1 0 0 0 0 0 0 1 frame1.png
200 100 101 100 100 102 300 300 103 50 250 104 350 50 105 120 330 -1
2 1 0 0 0 0.5 0 0 1 frame2.png
210 110 101 110 105 102 305 295 106 10 20 -1
"""

POINTS3D_TXT = """\
# 3D point list with one line of data per point:
#   POINT3D_ID, X, Y, Z, R, G, B, ERROR, TRACK[] as (IMAGE_ID, POINT2D_IDX)
101 1 2 3 255 0 0 0.5 1 0 2 0
102 0.5 1.0 2.0 0 255 0 0.4 1 1 2 1
103 -1 0 4 0 0 255 0.3 1 2
104 2 -0.5 3.5 128 128 128 0.2 1 3
105 0 0 1 10 20 30 0.1 1 4
106 3 3 3 200 100 50 0.6 2 2
"""


def write_colmap_fixture(dir_path: Path) -> Path:
    dir_path.mkdir(parents=True, exist_ok=True)
    (dir_path / "cameras.txt").write_text(CAMERAS_TXT)
    (dir_path / "images.txt").write_text(IMAGES_TXT)
    (dir_path / "points3D.txt").write_text(POINTS3D_TXT)
    return dir_path


# ---------------------------------------------------------------------------
# Synthetic regression scenes
# ---------------------------------------------------------------------------

def smooth_targets(uv: np.ndarray) -> np.ndarray:
    """Smooth surface + smooth colour field over normalized pixels."""
    u, v = uv[:, 0], uv[:, 1]
    return np.stack(
        [
            u,
            v,
            0.3 * np.sin(2 * np.pi * u) * np.cos(2 * np.pi * v),
            0.5 + 0.4 * np.sin(2 * np.pi * u + 1.0),
            0.5 + 0.4 * np.cos(2 * np.pi * v),
            0.5 + 0.4 * np.sin(2 * np.pi * (u + v)),
        ],
        axis=1,
    )


def piecewise_targets(uv: np.ndarray) -> np.ndarray:
    """Terraced surface + checkerboard colours; discontinuous on purpose."""
    u, v = uv[:, 0], uv[:, 1]
    checker = (np.floor(3 * u) + np.floor(3 * v)) % 2
    z = 0.25 * (np.floor(3 * u) % 2) + 0.05 * v
    r = np.where(checker == 0, 0.9, 0.1)
    g = np.where(checker == 0, 0.15, 0.8)
    b = np.where(checker == 0, 0.1, 0.9)
    return np.stack([u, v, z, r, g, b], axis=1)


def dataset_from_arrays(
    uv: np.ndarray, targets: np.ndarray, width: int = 400, height: int = 400, image_id: int = 1
) -> PixelToPointDataset:
    return PixelToPointDataset(
        image_id, width, height, np.asarray(uv, dtype=float), np.asarray(targets, dtype=float)
    )


_SCENE_KINDS = {
    "smooth": smooth_targets,
    "piecewise": piecewise_targets,
}


def make_scene(
    kind: str, n: int, seed: int, noise: float = 0.01, width: int = 400, height: int = 400
) -> PixelToPointDataset:
    """Random scene of the given kind ('smooth' or 'piecewise')."""
    rng = np.random.default_rng(seed)
    uv = rng.uniform(0.02, 0.98, size=(n, 2))
    targets = _SCENE_KINDS[kind](uv)
    targets = targets + noise * rng.standard_normal(targets.shape)
    targets[:, 3:] = np.clip(targets[:, 3:], 0.0, 1.0)
    return dataset_from_arrays(uv, targets, width, height)


# ---------------------------------------------------------------------------
# Parametric-surface COLMAP model with dense ground truth
# ---------------------------------------------------------------------------

def surface_colmap_model(
    dir_path: Path,
    n_ground_truth: int = 5000,
    n_sparse: int = 300,
    seed: int = 0,
    width: int = 400,
    height: int = 400,
):
    """COLMAP text model whose features sample a textured surface.

    Returns (model_dir, ground_truth_positions, sparse_positions). The
    sparse model holds n_sparse features of one image, each linked to a 3D
    point on the surface; ground truth is a denser sample of the same
    surface.
    """
    rng = np.random.default_rng(seed)
    st_gt = rng.uniform(0.02, 0.98, size=(n_ground_truth, 2))
    gt = smooth_targets(st_gt)
    pick = rng.choice(n_ground_truth, size=n_sparse, replace=False)
    st_sparse = st_gt[pick]
    sparse = gt[pick]

    dir_path.mkdir(parents=True, exist_ok=True)
    (dir_path / "cameras.txt").write_text(
        f"1 PINHOLE {width} {height} 350 350 {width / 2} {height / 2}\n"
    )
    feature_tokens = []
    for i, (s, t) in enumerate(st_sparse):
        feature_tokens += [f"{s * width:.10g}", f"{t * height:.10g}", str(i + 1)]
    (dir_path / "images.txt").write_text(
        "1 1 0 0 0 0 0 0 1 surface.png\n" + " ".join(feature_tokens) + "\n"
    )
    point_lines = []
    for i, row in enumerate(sparse):
        rgb = np.rint(np.clip(row[3:6], 0.0, 1.0) * 255).astype(int)
        point_lines.append(
            f"{i + 1} {row[0]:.10g} {row[1]:.10g} {row[2]:.10g} "
            f"{rgb[0]} {rgb[1]} {rgb[2]} 0.1 1 {i}"
        )
    (dir_path / "points3D.txt").write_text("\n".join(point_lines) + "\n")
    return dir_path, gt[:, :3].copy(), sparse[:, :3].copy()
