"""Independent reference implementations used to validate the fast paths.

Each oracle deliberately avoids the code path it checks: the Matérn
reference goes through Gamma/Bessel special functions, the posterior
oracle uses explicit dense solves, the lengthscale derivatives apply the
chain rule to the correlation's own s-derivatives in 40-digit mpmath
arithmetic, the chamfer oracle is a double loop,
the gradient oracle is central finite differences of the loss, the
masked-trace gradient sums the whole inverse under a triangle mask, the
per-group fit evaluates every output group's start on its own, the
COLMAP oracle parses one line and one token at a time into plain Python
values, the PLY reader reads back what write_ply writes, and the
candidate and depth oracles go one pixel at a time, deduplicating
candidates with a set.
"""

from __future__ import annotations

import math
from pathlib import Path

import mpmath
import numpy as np
from scipy.linalg.lapack import dpotrf, dpotri
from scipy.special import gamma, kv

from gpgs import gp
from gpgs.errors import DanglingReference, MalformedLine, MissingFile
from gpgs.sfm_io import DensifiedCloud


def matern_reference(nu: float, sf2: float, ell: float, d: float) -> float:
    """Matérn covariance evaluated directly from its Gamma/Bessel form."""
    if d == 0.0:
        return sf2
    s = math.sqrt(2.0 * nu) * d / ell
    return sf2 * (2.0 ** (1.0 - nu) / gamma(nu)) * s**nu * kv(nu, s)


def rbf_reference(sf2: float, ell: float, d: float) -> float:
    """RBF covariance via 50-digit mpmath arithmetic."""
    with mpmath.workdps(50):
        t = mpmath.mpf(d) / mpmath.mpf(ell)
        return float(mpmath.mpf(sf2) * mpmath.exp(-t * t / 2))


# R'(s) and R''(s) of each correlation R(s) over the scaled distance s:
# t = d / l for RBF, where R = exp(-t^2/2), and sqrt(2 nu) d / l for Matérn.
_CORRELATION_SLOPES = {
    None: (lambda t: -t * mpmath.exp(-t * t / 2), lambda t: (t * t - 1) * mpmath.exp(-t * t / 2)),
    0.5: (lambda s: -mpmath.exp(-s), lambda s: mpmath.exp(-s)),
    1.5: (lambda s: -s * mpmath.exp(-s), lambda s: (s - 1) * mpmath.exp(-s)),
    2.5: (
        lambda s: -s * (1 + s) / 3 * mpmath.exp(-s),
        lambda s: (s * s - s - 1) / 3 * mpmath.exp(-s),
    ),
}


def lengthscale_derivatives_reference(family, nu, ell, D):
    """dR/d(log l) and d^2R/d(log l)^2 at the distances D, as float arrays.

    s = c d / l gives ds/d(log l) = -s, so dR = -s R'(s) and
    d^2R = s R'(s) + s^2 R''(s), each element in 40-digit arithmetic.
    """
    slope, curvature = _CORRELATION_SLOPES[nu if family == gp.MATERN else None]
    c = 1 if family == gp.RBF else mpmath.sqrt(2 * mpmath.mpf(nu))
    dR, d2R = np.empty(D.shape), np.empty(D.shape)
    with mpmath.workdps(40):
        for i in np.ndindex(D.shape):
            s = c * mpmath.mpf(float(D[i])) / mpmath.mpf(ell)
            dR[i] = float(-s * slope(s))
            d2R[i] = float(s * slope(s) + s * s * curvature(s))
    return dR, d2R


def finite_difference_gradient(cfg, X, y, l2_weight, step=1e-5):
    """Central finite differences of gp.nll over the log-parameters."""
    theta = cfg.log_params()
    out = np.zeros(3)
    for i in range(3):
        delta = np.zeros(3)
        delta[i] = step
        hi = gp.nll(cfg.with_log_params(theta + delta), X, y, l2_weight)
        lo = gp.nll(cfg.with_log_params(theta - delta), X, y, l2_weight)
        out[i] = (hi - lo) / (2 * step)
    return out


def masked_trace_gradient(cfg, X, y, l2_weight=0.0, jitter=0.0) -> np.ndarray:
    """gp.nll_gradient with tr(K^-1 dR) taken as a mask-weighted sum.

    The factor keeps the Gram matrix in its upper triangle (dpotrf without
    clean), and a mask weights the dpotri inverse by 2 below the diagonal,
    1 on it and 0 above it, so the sum reads only the inverse and needs no
    assumption about dR's diagonal. The Gram matrix and dR come from gp's
    fills; jitter is not escalated.
    """
    X = np.atleast_2d(np.asarray(X, dtype=float))
    y = np.asarray(y, dtype=float).ravel()
    n = X.shape[0]
    theta = cfg.log_params()
    sf2, sn2 = cfg.signal_var, cfg.noise_var
    ws = gp._Workspace(X)
    gp._fill_gram(theta, cfg.family, cfg.nu, ws, jitter)
    L, info = dpotrf(ws.K, lower=1, clean=0, overwrite_a=1)
    assert info == 0
    alpha = gp._solve_gram(L, y)
    gp._fill_derivatives(cfg.family, cfg.nu, cfg.lengthscale, ws, lambda d2R: None)
    inv, info = dpotri(L, lower=1, overwrite_c=1)
    assert info == 0
    mask = np.full((n, n), 2.0, order="F")
    mask[np.triu_indices(n)] = 0.0
    np.einsum("ii->i", mask)[:] = 1.0
    np.multiply(inv, mask, out=inv)
    tr_kinv = float(np.einsum("ii->", inv))
    tr_kinv_dr = float(np.einsum("ij,ij->", inv, ws.dR))
    alpha_dr_alpha = float(alpha @ (ws.dR @ alpha))
    alpha_sq = float(alpha @ alpha)
    y_alpha = float(y @ alpha)
    c_diag = sn2 + jitter
    grad = np.array(
        [
            0.5 * ((n - c_diag * tr_kinv) - (y_alpha - c_diag * alpha_sq)),
            0.5 * sf2 * (tr_kinv_dr - alpha_dr_alpha),
            0.5 * sn2 * (tr_kinv - alpha_sq),
        ]
    )
    return grad + 2.0 * l2_weight * theta


def fit_outputs_per_group(X, Z, kernel, cfg, groups=gp.OUTPUT_GROUPS):
    """gp._fit_outputs with every output group fitted alone: each group
    evaluates the kernel's start, in a workspace of its own, with the Newton
    search of gp._minimize_within (which clips the start into the box).
    Returns (theta, curve) for each of groups."""
    fits = []
    for outputs in groups:
        ws = gp._Workspace(X)
        y = Z[:, outputs]

        def loss_and_derivatives(theta, ws=ws, y=y):
            [result] = gp._objective(
                theta, family=kernel.family, nu=kernel.nu, ws=ws, ys=(y,),
                l2_weight=cfg.l2_weight, jitter=gp.TRAIN_JITTER,
            )
            return result

        fits.append(gp._minimize_within(loss_and_derivatives, kernel.log_params(), cfg.iterations))
    return fits


def posterior_oracle(model: gp.TrainedGP, Q: np.ndarray):
    """Dense-solve posterior: explicit (K + sn2 I) alpha = z and per-query
    dot products, independent of the Cholesky code path."""
    n = model.X.shape[0]
    means = np.zeros((len(Q), model.n_outputs))
    variances = np.zeros((len(Q), model.n_outputs))
    for j, cfg in enumerate(model.configs):
        K = np.zeros((n, n))
        for a in range(n):
            for b in range(n):
                K[a, b] = gp.kernel_value(cfg, model.X[a], model.X[b])
        K[np.diag_indices(n)] += cfg.noise_var + model.jitters[j]
        alpha = np.linalg.solve(K, model.Z[:, j])
        for q_idx, q in enumerate(Q):
            ks = np.array([gp.kernel_value(cfg, x, q) for x in model.X])
            means[q_idx, j] = ks @ alpha
            variances[q_idx, j] = cfg.signal_var - ks @ np.linalg.solve(K, ks)
    return means, variances


def chamfer_oracle(P, G) -> float:
    """Double-loop symmetric mean nearest-neighbour distance."""
    P = np.asarray(P, dtype=float)
    G = np.asarray(G, dtype=float)
    p_term = np.mean([min(np.linalg.norm(p - g) for g in G) for p in P])
    g_term = np.mean([min(np.linalg.norm(g - p) for p in P) for g in G])
    return float(p_term + g_term)


# ---------------------------------------------------------------------------
# Candidates and depth lookups, one pixel at a time
# ---------------------------------------------------------------------------

def generate_samples_oracle(train_pixels, width, height, beta, angular_resolution) -> np.ndarray:
    """Circle candidates, looping over training pixels then angles; a set
    of the normalized pixels seen so far drops every later repeat."""
    r = beta * min(width, height)
    angles = 2.0 * math.pi * np.arange(angular_resolution) / angular_resolution
    dx, dy = r * np.cos(angles), r * np.sin(angles)
    out, seen = [], set()
    for u, v in np.atleast_2d(np.asarray(train_pixels, dtype=float)):
        for uu, vv in zip(u + dx, v + dy):
            if not (0.0 <= uu < width and 0.0 <= vv < height):
                continue
            key = (uu / width, vv / height)
            if key not in seen:
                seen.add(key)
                out.append(key)
    return np.array(out, dtype=float).reshape(len(out), 2)


def depth_value_oracle(depth, u: float, v: float):
    """Nearest-pixel depth at one unnormalized pixel: the floor of each
    coordinate, clamped to the grid; None for a non-finite or
    non-positive depth."""
    ix = min(max(int(np.floor(u)), 0), depth.width - 1)
    iy = min(max(int(np.floor(v)), 0), depth.height - 1)
    d = float(depth.values[iy, ix])
    if not np.isfinite(d) or d <= 0.0:
        return None
    return d


def attach_depth_oracle(candidates, depth, width, height) -> np.ndarray:
    """(u_norm, v_norm, depth) rows of the candidates on a valid depth."""
    rows = []
    for u, v in candidates:
        d = depth_value_oracle(depth, u * width, v * height)
        if d is not None:
            rows.append((u, v, d))
    return np.array(rows, dtype=float).reshape(len(rows), 3)


# ---------------------------------------------------------------------------
# COLMAP text model, one line at a time
# ---------------------------------------------------------------------------

def _data_lines(path):
    """(line_number, stripped_line) of every non-comment line; keeps blanks.
    The file is UTF-8, a byte-order mark is dropped and lines end as open()
    ends them (universal newlines)."""
    with open(path, "r", encoding="utf-8-sig", newline=None) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line.startswith("#"):
                yield lineno, line


def _oracle_cameras(path):
    cameras = []  # (camera_id, model, width, height, params)
    seen = set()
    for lineno, line in _data_lines(path):
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 4:
            raise MalformedLine(path, lineno, f"expected at least 4 fields, got {len(tokens)}")
        try:
            camera_id, width, height = int(tokens[0]), int(tokens[2]), int(tokens[3])
            params = tuple(float(t) for t in tokens[4:])
        except ValueError as exc:
            raise MalformedLine(path, lineno, str(exc)) from exc
        if camera_id in seen:
            raise MalformedLine(path, lineno, f"duplicate camera id {camera_id}")
        for key, side in (("width", width), ("height", height)):
            if side < 1:
                raise MalformedLine(path, lineno, f"{key}: {side} is below 1")
            if side > _MAX_SIDE:
                raise MalformedLine(path, lineno, f"{key}: above {_MAX_SIDE}")
        seen.add(camera_id)
        cameras.append((camera_id, tokens[1], width, height, params))
    return cameras


def _oracle_images(path):
    images = []  # (image_id, name, camera_id, qvec, tvec, xys, point3d_ids)
    seen = set()
    header = None
    last_lineno = 0
    for lineno, line in _data_lines(path):
        last_lineno = lineno
        tokens = line.split()
        if header is None:
            if not line:
                continue
            if len(tokens) < 10:
                raise MalformedLine(path, lineno, f"expected 10 header fields, got {len(tokens)}")
            try:
                image_id = int(tokens[0])
                qvec = tuple(float(t) for t in tokens[1:5])
                tvec = tuple(float(t) for t in tokens[5:8])
                camera_id = int(tokens[8])
            except ValueError as exc:
                raise MalformedLine(path, lineno, str(exc)) from exc
            if image_id < -(2**63):
                raise MalformedLine(path, lineno, f"image_id: {image_id} is below {-(2**63)}")
            if image_id >= 2**63:
                raise MalformedLine(path, lineno, f"image_id: above {2**63 - 1}")
            if image_id in seen:
                raise MalformedLine(path, lineno, f"duplicate image id {image_id}")
            seen.add(image_id)
            header = (image_id, " ".join(tokens[9:]), camera_id, qvec, tvec)
            continue
        if len(tokens) % 3 != 0:
            raise MalformedLine(
                path, lineno, f"feature line has {len(tokens)} fields, not a multiple of 3"
            )
        try:
            xys = [(float(tokens[i]), float(tokens[i + 1])) for i in range(0, len(tokens), 3)]
            ids = [int(tokens[i + 2]) for i in range(0, len(tokens), 3)]
        except ValueError as exc:
            raise MalformedLine(path, lineno, str(exc)) from exc
        if not all(math.isfinite(v) for xy in xys for v in xy):
            raise MalformedLine(path, lineno, "non-finite feature coordinate")
        if any(abs(v) > _FLOAT32_MAX for xy in xys for v in xy):
            raise MalformedLine(path, lineno, "feature coordinate beyond float32 range")
        images.append(header + (xys, ids))
        header = None
    if header is not None:
        raise MalformedLine(path, last_lineno, "image header without a feature line")
    return images


def _oracle_points(path):
    points = []  # (point3d_id, xyz, rgb, error, track)
    seen = set()
    for lineno, line in _data_lines(path):
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 8 or (len(tokens) - 8) % 2 != 0:
            raise MalformedLine(path, lineno, f"expected 8 + 2k fields, got {len(tokens)}")
        try:
            point3d_id = int(tokens[0])
            xyz = tuple(float(t) for t in tokens[1:4])
            rgb = tuple(int(t) for t in tokens[4:7])
            error = float(tokens[7])
            track = tuple(
                (int(tokens[i]), int(tokens[i + 1])) for i in range(8, len(tokens), 2)
            )
        except ValueError as exc:
            raise MalformedLine(path, lineno, str(exc)) from exc
        if not all(map(math.isfinite, xyz)):
            raise MalformedLine(path, lineno, "non-finite position")
        if any(abs(c) > _FLOAT32_MAX for c in xyz):
            raise MalformedLine(path, lineno, "position beyond float32 range")
        if point3d_id in seen:
            raise MalformedLine(path, lineno, f"duplicate point3d id {tokens[0]}")
        if any(c < 0 or c > 255 for c in rgb):
            raise MalformedLine(
                path, lineno, f"colour out of 8-bit range: {' '.join(tokens[4:7])}"
            )
        seen.add(point3d_id)
        points.append((point3d_id, xyz, rgb, error, track))
    return points


# The largest finite float32, (2 - 2^-23) * 2^127.
_FLOAT32_MAX = (2.0 - 2.0**-23) * 2.0**127

# The largest image side: an int32.
_MAX_SIDE = 2**31 - 1


def parse_colmap_oracle(dir_path):
    """(cameras, images, points) of a COLMAP text model as lists of tuples.

    Checks each feature's point id and each track entry with dict lookups,
    raising for the first offender in file order.
    """
    paths = {name: Path(dir_path) / f"{name}.txt" for name in ("cameras", "images", "points3D")}
    try:
        cameras = _oracle_cameras(paths["cameras"])
        images = _oracle_images(paths["images"])
        points = _oracle_points(paths["points3D"])
    except OSError as exc:
        raise MissingFile(f"cannot read {exc.filename}: {exc}") from exc

    point_ids = {p[0] for p in points}
    camera_ids = {c[0] for c in cameras}
    image_by_id = {img[0]: img for img in images}
    for image_id, _, camera_id, _, _, _, ids in images:
        if camera_id not in camera_ids:
            raise DanglingReference(f"image {image_id} cites nonexistent camera {camera_id}")
        for pid in ids:
            if pid != -1 and pid not in point_ids:
                raise DanglingReference(f"image {image_id} cites nonexistent point3d id {pid}")
    for point3d_id, _, _, _, track in points:
        for image_id, feat_idx in track:
            img = image_by_id.get(image_id)
            if img is None:
                raise DanglingReference(
                    f"point {point3d_id} track cites nonexistent image {image_id}"
                )
            if not 0 <= feat_idx < len(img[5]):
                raise DanglingReference(
                    f"point {point3d_id} track cites feature {feat_idx} "
                    f"outside image {image_id} ({len(img[5])} features)"
                )
    return cameras, images, points


_PLY_VERTEX = np.dtype(
    [("x", "<f4"), ("y", "<f4"), ("z", "<f4"),
     ("red", "u1"), ("green", "u1"), ("blue", "u1"), ("source", "u1")]
)


def read_ply_oracle(path) -> DensifiedCloud:
    """The cloud of a PLY file laid out as write_ply writes it: one vertex
    element of float x, y, z and uchar red, green, blue, source, in
    binary_little_endian or ASCII."""
    raw = Path(path).read_bytes()
    body = raw.index(b"end_header\n") + len(b"end_header\n")
    header = raw[:body].decode("ascii").splitlines()
    n = int(header[2].split()[2])
    if header[1].split()[1] == "ascii":
        values = np.array(raw[body:].decode("ascii").split(), dtype=np.float64).reshape(n, 7)
        table = np.empty(n, _PLY_VERTEX)
        for j, name in enumerate(_PLY_VERTEX.names):
            table[name] = values[:, j]
    else:
        table = np.frombuffer(raw, _PLY_VERTEX, count=n, offset=body)
    positions = np.stack([table["x"], table["y"], table["z"]], axis=1)
    colors = np.stack([table["red"], table["green"], table["blue"]], axis=1)
    return DensifiedCloud(positions, colors, table["source"].copy())
