"""Seeded synthetic COLMAP scenes for the benchmark workloads.

Every scene samples one smooth textured surface over (s, t) in [0, 1]^2:
position (s, t, z(s, t)) and a smooth colour field. The same seed always
writes the same files. Besides the COLMAP text model (cameras.txt,
images.txt, points3D.txt) each scene writes a dense ground-truth sample of
the surface (ground_truth.npy) and, for the multi-image scene, one `Pf`
depth map per image under depth/.

This module depends on numpy only, so the inputs cannot change when the
program under test or its test suite changes.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


def surface(st: np.ndarray) -> np.ndarray:
    """(n, 6) targets at surface parameters st: x, y, z, then r, g, b in [0, 1]."""
    s, t = st[:, 0], st[:, 1]
    return np.stack(
        [
            s,
            t,
            0.3 * np.sin(2 * np.pi * s) * np.cos(2 * np.pi * t),
            0.5 + 0.4 * np.sin(2 * np.pi * s + 1.0),
            0.5 + 0.4 * np.cos(2 * np.pi * t),
            0.5 + 0.4 * np.sin(2 * np.pi * (s + t)),
        ],
        axis=1,
    )


@dataclass(frozen=True)
class Scene:
    model_dir: Path
    depth_dir: Path | None
    n_points: int             # rows of points3D.txt
    sparse_xyz: np.ndarray    # (n_points, 3) positions as written to points3D.txt
    ground_truth: np.ndarray  # (g, 3) dense surface sample


def _rgb8(targets: np.ndarray) -> np.ndarray:
    return np.rint(np.clip(targets[:, 3:6], 0.0, 1.0) * 255).astype(np.int64)


def _write_points(path: Path, xyz: np.ndarray, rgb: np.ndarray, tracks: list[str]) -> np.ndarray:
    """Write points3D.txt; returns the positions as the file states them."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write("# 3D point list with one line of data per point:\n")
        fh.write("#   POINT3D_ID, X, Y, Z, R, G, B, ERROR, TRACK[] as (IMAGE_ID, POINT2D_IDX)\n")
        for i in range(len(xyz)):
            fh.write(
                "%d %.10g %.10g %.10g %d %d %d 0.1%s\n"
                % (i + 1, xyz[i, 0], xyz[i, 1], xyz[i, 2], rgb[i, 0], rgb[i, 1], rgb[i, 2], tracks[i])
            )
    return np.char.mod("%.10g", xyz).astype(float)


def _stratified(rng: np.random.Generator, n: int, lo: float = 0.02, hi: float = 0.98) -> np.ndarray:
    """n points in [lo, hi)^2, one per randomly chosen cell of a near-square
    grid and uniform within it, so coverage varies little between seeds."""
    g = int(np.ceil(np.sqrt(n)))
    cells = rng.choice(g * g, size=n, replace=False)
    ij = np.column_stack([cells % g, cells // g])
    return lo + (hi - lo) * (ij + rng.uniform(size=(n, 2))) / g


def single_image_scene(
    out: Path, seed: int, n_sparse: int, n_ground_truth: int = 20000,
    width: int = 400, height: int = 400,
) -> Scene:
    """One image whose n_sparse features each link to one surface point.

    Features and ground truth are stratified samples of the image.
    """
    rng = np.random.default_rng(seed)
    gt = surface(_stratified(rng, n_ground_truth))
    st_sparse = _stratified(rng, n_sparse)
    sparse = surface(st_sparse)

    model_dir = out / "model"
    model_dir.mkdir(parents=True, exist_ok=True)
    (model_dir / "cameras.txt").write_text(
        f"1 PINHOLE {width} {height} 350 350 {width / 2} {height / 2}\n"
    )
    feats = np.column_stack([st_sparse[:, 0] * width, st_sparse[:, 1] * height])
    ids = np.arange(1, n_sparse + 1)
    (model_dir / "images.txt").write_text(
        "1 1 0 0 0 0 0 0 1 surface.png\n"
        + " ".join("%.10g %.10g %d" % (u, v, i) for (u, v), i in zip(feats, ids))
        + "\n"
    )
    written = _write_points(model_dir / "points3D.txt", sparse[:, :3], _rgb8(sparse),
                            [f" 1 {i}" for i in range(n_sparse)])
    np.save(out / "ground_truth.npy", gt[:, :3])
    return Scene(model_dir, None, n_sparse, written, gt[:, :3].copy())


def _write_pfm(path: Path, grid: np.ndarray) -> None:
    """Little-endian single-channel PFM; rows are stored bottom-to-top."""
    h, w = grid.shape
    with open(path, "wb") as fh:
        fh.write(f"Pf\n{w} {h}\n-1.0\n".encode("ascii"))
        fh.write(np.ascontiguousarray(grid[::-1], dtype="<f4").tobytes())


def multi_image_scene(
    out: Path, seed: int, n_images: int, features_per_image: int, n_points: int,
    n_ground_truth: int = 20000, width: int = 320, height: int = 240, window: float = 0.35,
) -> Scene:
    """n_images views, each seeing a square window of the surface.

    Image i maps its window [a, a + window] x [b, b + window] affinely onto
    its pixels. Between half and three quarters of its features link to
    surface points inside the window (a different count per image, so the
    key-frame ranking has no ties); the rest are unlinked (-1). Each image
    has a depth map depth = 3 + z(s, t) over its window.
    """
    rng = np.random.default_rng(seed)
    st_pts = rng.uniform(0.0, 1.0, size=(n_points, 2))
    pts = surface(st_pts)
    gt = surface(rng.uniform(0.0, 1.0, size=(n_ground_truth, 2)))

    model_dir = out / "model"
    depth_dir = out / "depth"
    model_dir.mkdir(parents=True, exist_ok=True)
    depth_dir.mkdir(parents=True, exist_ok=True)
    (model_dir / "cameras.txt").write_text(
        f"1 PINHOLE {width} {height} 300 300 {width / 2} {height / 2}\n"
    )

    origins = rng.uniform(0.0, 1.0 - window, size=(n_images, 2))
    linked_counts = rng.permutation(
        np.linspace(0.5, 0.75, n_images) * features_per_image
    ).astype(int)
    tracks: list[list[str]] = [[] for _ in range(n_points)]
    px_u = (np.arange(width) + 0.5) / width
    px_v = (np.arange(height) + 0.5) / height
    with open(model_dir / "images.txt", "w", encoding="ascii") as fh:
        for i, ((a, b), k) in enumerate(zip(origins, linked_counts), start=1):
            inside = np.flatnonzero(
                (st_pts[:, 0] >= a) & (st_pts[:, 0] < a + window)
                & (st_pts[:, 1] >= b) & (st_pts[:, 1] < b + window)
            )
            linked = rng.choice(inside, size=min(k, len(inside)), replace=False)
            n_free = features_per_image - len(linked)
            uv = np.empty((features_per_image, 2))
            pid = np.full(features_per_image, -1, dtype=np.int64)
            order = rng.permutation(features_per_image)
            slots = order[: len(linked)]
            uv[slots, 0] = (st_pts[linked, 0] - a) / window * width
            uv[slots, 1] = (st_pts[linked, 1] - b) / window * height
            pid[slots] = linked + 1
            free = order[len(linked):]
            uv[free] = rng.uniform(0.0, 1.0, size=(n_free, 2)) * (width, height)
            for slot, p in zip(slots, linked):
                tracks[p].append(f" {i} {slot}")
            fh.write(f"{i} 1 0 0 0 {a:.6f} {b:.6f} 0 1 view{i:04d}.png\n")
            fh.write(" ".join("%.10g %.10g %d" % (u, v, p) for (u, v), p in zip(uv, pid)))
            fh.write("\n")

            ss, tt = np.meshgrid(a + px_u * window, b + px_v * window)
            z = surface(np.column_stack([ss.ravel(), tt.ravel()]))[:, 2]
            _write_pfm(depth_dir / f"view{i:04d}.pfm", (3.0 + z).reshape(height, width))

    written = _write_points(model_dir / "points3D.txt", pts[:, :3], _rgb8(pts),
                            ["".join(t) for t in tracks])
    np.save(out / "ground_truth.npy", gt[:, :3])
    return Scene(model_dir, depth_dir, n_points, written, gt[:, :3].copy())
