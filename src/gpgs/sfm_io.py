"""SfM ingestion and file I/O.

Parses COLMAP text reconstructions, builds the pixel-to-point training
datasets, handles deterministic train/test splits, reads PFM depth maps
and writes PLY point clouds.

All parsers are pure functions over file contents; every returned value is
immutable after construction and safe to share across threads.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field, replace
from itertools import chain
from operator import itemgetter
from pathlib import Path
from typing import Optional

import numpy as np

from .errors import (
    BadDims,
    BadMagic,
    DanglingReference,
    DimensionMismatch,
    EmptyDataset,
    IoFailure,
    MalformedLine,
    MissingFile,
    NoCorrespondences,
    TruncatedPayload,
    UnknownImage,
)
from .pointcloud import DensifiedCloud

# Feature with no 3D track; COLMAP writes -1 in images.txt.
SENTINEL_NONE = -1

# Depth value marking an unusable pixel; any value <= 0 is treated as invalid.
INVALID_DEPTH = -1.0


# ---------------------------------------------------------------------------
# Domain types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CameraIntrinsics:
    camera_id: int
    model: str
    width: int
    height: int
    params: tuple[float, ...]


@dataclass(frozen=True)
class ImageRecord:
    image_id: int
    name: str
    camera_id: int
    qvec: np.ndarray        # (4,) wxyz
    tvec: np.ndarray        # (3,)
    xys: np.ndarray         # (n, 2) pixel coordinates
    point3d_ids: np.ndarray  # (n,) int64, SENTINEL_NONE where unlinked

    def linked_count(self) -> int:
        return int(np.count_nonzero(self.point3d_ids != SENTINEL_NONE))


@dataclass(frozen=True, eq=False)
class PointsTable:
    """The points of points3D.txt as read-only columns, in file order.

    Point i observes the (image_id, feature_index) rows
    ``track[track_offsets[i]:track_offsets[i + 1]]``.
    """

    ids: np.ndarray            # (n,) int64
    xyz: np.ndarray            # (n, 3) float64
    rgb: np.ndarray            # (n, 3) uint8
    error: np.ndarray          # (n,) float64
    track_offsets: np.ndarray  # (n + 1,) int64
    track: np.ndarray          # (t, 2) int64 (image_id, feature_index)
    _order: np.ndarray = field(init=False, repr=False)  # argsort of ids

    def __post_init__(self):
        n = len(self.ids)
        t = int(self.track_offsets[-1]) if len(self.track_offsets) else -1
        shapes = {
            "ids": (np.int64, (n,)), "xyz": (np.float64, (n, 3)), "rgb": (np.uint8, (n, 3)),
            "error": (np.float64, (n,)), "track_offsets": (np.int64, (n + 1,)),
            "track": (np.int64, (t, 2)),
        }
        for name, (dtype, shape) in shapes.items():
            column = np.asarray(getattr(self, name), dtype=dtype).view()
            if column.shape != shape:
                raise ValueError(f"points table {name} has shape {column.shape}, not {shape}")
            column.flags.writeable = False
            object.__setattr__(self, name, column)
        object.__setattr__(self, "_order", np.argsort(self.ids, kind="stable"))

    def __len__(self) -> int:
        return self.ids.shape[0]

    def track_of(self, row: int) -> np.ndarray:
        """(k, 2) track of the point in the given row."""
        return self.track[self.track_offsets[row] : self.track_offsets[row + 1]]

    def rows_of(self, point_ids) -> np.ndarray:
        """Row of each point id, -1 where the table has no such id."""
        return _index_of(self.ids, self._order, point_ids)


def _index_of(keys: np.ndarray, order: np.ndarray, queries) -> np.ndarray:
    """Index into keys of each query, -1 where absent; keys[order] is sorted."""
    queries = np.asarray(queries, dtype=np.int64)
    if keys.shape[0] == 0:
        return np.full(queries.shape, -1, dtype=np.int64)
    sorted_keys = keys[order]
    pos = np.minimum(np.searchsorted(sorted_keys, queries), keys.shape[0] - 1)
    return np.where(sorted_keys[pos] == queries, order[pos], -1)


def _owner(ends: np.ndarray, k: int) -> int:
    """Segment holding flat index k, given each segment's exclusive end."""
    return int(np.searchsorted(ends, k, side="right"))


@dataclass(frozen=True)
class SparseModel:
    cameras: tuple[CameraIntrinsics, ...]
    images: tuple[ImageRecord, ...]
    points3d: PointsTable

    def camera_by_id(self, camera_id: int) -> CameraIntrinsics:
        for cam in self.cameras:
            if cam.camera_id == camera_id:
                return cam
        raise KeyError(f"no camera with id {camera_id}")

    def image_by_id(self, image_id: int) -> ImageRecord:
        for img in self.images:
            if img.image_id == image_id:
                return img
        raise UnknownImage(f"no image with id {image_id}")


@dataclass(frozen=True)
class PixelToPointDataset:
    """One image's pixel-to-point regression data, one row per sample.

    inputs is (n, 2) normalized pixels (u_norm, v_norm), or (n, 3) with
    a depth column; targets is (n, 6): world position x y z, then colour
    r g b in [0, 1].
    """

    image_id: int
    width: int
    height: int
    inputs: np.ndarray   # (n, 2) or (n, 3)
    targets: np.ndarray  # (n, 6)

    def __post_init__(self):
        n = len(self.targets)
        if self.inputs.shape not in ((n, 2), (n, 3)) or self.targets.shape != (n, 6):
            raise DimensionMismatch(
                f"inputs {self.inputs.shape} and targets {self.targets.shape} "
                "are not (n, 2 or 3) and (n, 6)"
            )

    def __len__(self) -> int:
        return len(self.targets)

    @property
    def has_depth(self) -> bool:
        return self.inputs.shape[1] == 3


@dataclass(frozen=True)
class DepthMap:
    width: int
    height: int
    values: np.ndarray  # (height, width) float32, row-major top-to-bottom

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=np.float32)
        if vals.shape != (self.height, self.width):
            raise BadDims(
                f"depth grid shape {vals.shape} != (height={self.height}, width={self.width})"
            )
        object.__setattr__(self, "values", vals)

    def value_at(self, u, v) -> np.ndarray:
        """Nearest-pixel depths at finite unnormalized pixel coordinates.

        Uses the COLMAP half-pixel-centre convention, so the nearest pixel
        index is floor(u), clipped to the grid. Invalid (non-finite or
        non-positive) depths come back as NaN.
        """
        ix = np.clip(np.floor(u), 0, self.width - 1).astype(np.intp)
        iy = np.clip(np.floor(v), 0, self.height - 1).astype(np.intp)
        d = self.values[iy, ix].astype(np.float64)
        return np.where(np.isfinite(d) & (d > 0.0), d, np.nan)


@dataclass(frozen=True)
class SplitResult:
    train: PixelToPointDataset
    test: PixelToPointDataset
    degenerate: bool  # one side ended up empty


# ---------------------------------------------------------------------------
# COLMAP text parsing
# ---------------------------------------------------------------------------

def read_text(path) -> str:
    """The file's contents decoded as UTF-8.

    A byte that is not UTF-8 raises MalformedLine at its line: bad data,
    where the UnicodeDecodeError itself would pass for a bad argument.
    """
    raw = Path(path).read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = raw.count(b"\n", 0, exc.start) + 1
        raise MalformedLine(path, line, f"byte 0x{raw[exc.start]:02x} is not UTF-8") from exc


def _text_lines(path: Path):
    """Stream the lines of a UTF-8 text file; bad UTF-8 raises MalformedLine."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            yield from fh
        except UnicodeDecodeError:
            read_text(path)  # error path: raises MalformedLine at the bad byte's line
            raise


def _data_lines(path: Path):
    """Yield (line_number, stripped_line) skipping comments; keeps blanks."""
    for lineno, raw in enumerate(_text_lines(path), start=1):
        line = raw.strip()
        if line.startswith("#"):
            continue
        yield lineno, line


def _parse_cameras(path: Path) -> list[CameraIntrinsics]:
    cameras: list[CameraIntrinsics] = []
    seen: set[int] = set()
    for lineno, line in _data_lines(path):
        if not line:
            continue
        tokens = line.split()
        if len(tokens) < 4:
            raise MalformedLine(path, lineno, f"expected at least 4 fields, got {len(tokens)}")
        try:
            camera_id = int(tokens[0])
            width = int(tokens[2])
            height = int(tokens[3])
            params = tuple(float(t) for t in tokens[4:])
        except ValueError as exc:
            raise MalformedLine(path, lineno, str(exc)) from exc
        if camera_id in seen:
            raise MalformedLine(path, lineno, f"duplicate camera id {camera_id}")
        if width < 1 or height < 1:
            raise MalformedLine(path, lineno, f"non-positive image size {width}x{height}")
        seen.add(camera_id)
        cameras.append(CameraIntrinsics(camera_id, tokens[1], width, height, params))
    return cameras


def _parse_images(path: Path) -> list[ImageRecord]:
    images: list[ImageRecord] = []
    seen: set[int] = set()
    header = None  # pending image header awaiting its feature line
    last_lineno = 0
    for lineno, line in _data_lines(path):
        last_lineno = lineno
        if header is None:
            if not line:
                continue
            tokens = line.split()
            if len(tokens) < 10:
                raise MalformedLine(path, lineno, f"expected 10 header fields, got {len(tokens)}")
            try:
                image_id = int(tokens[0])
                qvec = np.array([float(t) for t in tokens[1:5]])
                tvec = np.array([float(t) for t in tokens[5:8]])
                camera_id = int(tokens[8])
            except ValueError as exc:
                raise MalformedLine(path, lineno, str(exc)) from exc
            name = " ".join(tokens[9:])
            if image_id in seen:
                raise MalformedLine(path, lineno, f"duplicate image id {image_id}")
            seen.add(image_id)
            header = (image_id, name, camera_id, qvec, tvec)
        else:
            tokens = line.split()
            if len(tokens) % 3 != 0:
                raise MalformedLine(
                    path, lineno, f"feature line has {len(tokens)} fields, not a multiple of 3"
                )
            n = len(tokens) // 3
            try:
                xy_tokens = chain.from_iterable(zip(tokens[0::3], tokens[1::3]))
                xys = np.fromiter(map(float, xy_tokens), np.float64, 2 * n).reshape(n, 2)
                ids = np.fromiter(map(int, tokens[2::3]), np.int64, n)
            except (ValueError, OverflowError) as exc:
                raise MalformedLine(path, lineno, str(exc)) from exc
            if not np.isfinite(xys).all():
                raise MalformedLine(path, lineno, "non-finite feature coordinate")
            image_id, name, camera_id, qvec, tvec = header
            images.append(ImageRecord(image_id, name, camera_id, qvec, tvec, xys, ids))
            header = None
    if header is not None:
        raise MalformedLine(path, last_lineno, "image header without a feature line")
    return images


def _data_rows(path: Path) -> tuple[list[list[str]], list[int]]:
    """Tokens and line number of every non-blank, non-comment line."""
    rows, linenos = [], []
    for lineno, line in enumerate(_text_lines(path), start=1):
        tokens = line.split()
        if tokens and not tokens[0].startswith("#"):
            rows.append(tokens)
            linenos.append(lineno)
    return rows, linenos


def _point_columns(rows: list[list[str]]):
    """(ids, xyz, rgb, error, track) of points3D rows of 8 + 2k tokens.

    Converts column by column with Python's int/float, so values match a
    per-token parse bit for bit; a bad token raises ValueError (or
    OverflowError for an integer beyond int64).
    """
    n = len(rows)
    ids = np.fromiter(map(int, map(itemgetter(0), rows)), np.int64, n)
    xyz = np.fromiter(
        map(float, chain.from_iterable(map(itemgetter(1, 2, 3), rows))), np.float64, 3 * n
    ).reshape(n, 3)
    rgb = np.fromiter(
        map(int, chain.from_iterable(map(itemgetter(4, 5, 6), rows))), np.int64, 3 * n
    ).reshape(n, 3)
    error = np.fromiter(map(float, map(itemgetter(7), rows)), np.float64, n)
    track = np.fromiter(
        map(int, chain.from_iterable(row[8:] for row in rows)), np.int64
    ).reshape(-1, 2)
    return ids, xyz, rgb, error, track


def _points_table(rows: list[list[str]]) -> PointsTable:
    """Points table of tokenised points3D rows; ValueError or
    OverflowError if any row is bad, without saying which."""
    lengths = np.fromiter(map(len, rows), np.int64, len(rows))
    if np.any((lengths < 8) | (lengths % 2 == 1)):
        raise ValueError("a row has the wrong number of fields")
    ids, xyz, rgb, error, track = _point_columns(rows)
    sorted_ids = np.sort(ids)
    if (
        np.any(sorted_ids[1:] == sorted_ids[:-1]) or np.any((rgb < 0) | (rgb > 255))
        or not np.isfinite(xyz).all()
    ):
        raise ValueError("duplicate point id, colour out of 8-bit range or non-finite xyz")
    offsets = np.zeros(len(rows) + 1, dtype=np.int64)
    np.cumsum((lengths - 8) // 2, out=offsets[1:])
    return PointsTable(ids, xyz, rgb.astype(np.uint8), error, offsets, track)


def _parse_points3d(path: Path) -> PointsTable:
    rows, linenos = _data_rows(path)
    try:
        return _points_table(rows)
    except (ValueError, OverflowError):
        _raise_first_bad_point(path, rows, linenos)


def _raise_first_bad_point(path: Path, rows: list[list[str]], linenos: list[int]):
    """Check the rows one at a time and raise for the first bad one.

    The error path of _parse_points3d: the bulk conversion says that some
    row is bad, this pass says which line and why.
    """
    seen: set[int] = set()
    for lineno, tokens in zip(linenos, rows):
        if len(tokens) < 8 or len(tokens) % 2 == 1:
            raise MalformedLine(path, lineno, f"expected 8 + 2k fields, got {len(tokens)}")
        try:
            ids, xyz, rgb, _, _ = _point_columns([tokens])
        except (ValueError, OverflowError) as exc:
            raise MalformedLine(path, lineno, str(exc)) from exc
        if not np.isfinite(xyz).all():
            raise MalformedLine(path, lineno, f"non-finite position: {tokens[1:4]}")
        point3d_id = int(ids[0])
        if point3d_id in seen:
            raise MalformedLine(path, lineno, f"duplicate point3d id {point3d_id}")
        if np.any(rgb < 0) or np.any(rgb > 255):
            raise MalformedLine(path, lineno, f"colour out of 8-bit range: {tokens[4:7]}")
        seen.add(point3d_id)
    raise RuntimeError(f"{path}: bulk parse rejected rows that pass one by one")


def parse_colmap_model(dir_path) -> SparseModel:
    """Parse a COLMAP text reconstruction (cameras/images/points3D.txt).

    Validates referential integrity: every feature's point id must exist in
    points3D.txt and every track entry must name an existing image and a
    feature index inside that image's feature list. Each check reports the
    first offender in file order.
    """
    dir_path = Path(dir_path)
    paths = {name: dir_path / f"{name}.txt" for name in ("cameras", "images", "points3D")}
    for name, path in paths.items():
        if not path.is_file():
            raise MissingFile(f"missing {path}")

    cameras = _parse_cameras(paths["cameras"])
    images = _parse_images(paths["images"])
    points = _parse_points3d(paths["points3D"])

    # feature -> point id
    feature_ids = np.concatenate(
        [np.zeros(0, np.int64)] + [img.point3d_ids for img in images]
    )
    feature_ends = np.cumsum([img.point3d_ids.shape[0] for img in images], dtype=np.int64)
    dangling = (feature_ids != SENTINEL_NONE) & (points.rows_of(feature_ids) < 0)
    first = int(np.argmax(dangling)) if dangling.any() else None
    bad_image = _owner(feature_ends, first) if first is not None else None
    camera_ids = {c.camera_id for c in cameras}
    for i, img in enumerate(images):
        if img.camera_id not in camera_ids:
            raise DanglingReference(
                f"image {img.image_id} cites nonexistent camera {img.camera_id}"
            )
        if i == bad_image:
            raise DanglingReference(
                f"image {img.image_id} cites nonexistent point3d id {int(feature_ids[first])}"
            )

    # track -> image id and feature index
    image_ids = np.array([img.image_id for img in images], dtype=np.int64)
    n_features = np.array([img.xys.shape[0] for img in images], dtype=np.int64)
    track_image, track_feature = points.track[:, 0], points.track[:, 1]
    image_rows = _index_of(image_ids, np.argsort(image_ids), track_image)
    known = image_rows >= 0
    limit = np.zeros_like(track_feature)
    limit[known] = n_features[image_rows[known]]
    bad = ~known | (track_feature < 0) | (track_feature >= limit)
    if bad.any():
        k = int(np.argmax(bad))
        point_id = int(points.ids[_owner(points.track_offsets[1:], k)])
        image_id, feat_idx = int(track_image[k]), int(track_feature[k])
        if not known[k]:
            raise DanglingReference(
                f"point {point_id} track cites nonexistent image {image_id}"
            )
        raise DanglingReference(
            f"point {point_id} track cites feature {feat_idx} "
            f"outside image {image_id} ({int(limit[k])} features)"
        )

    return SparseModel(tuple(cameras), tuple(images), points)


# ---------------------------------------------------------------------------
# Key frames and dataset construction
# ---------------------------------------------------------------------------

def select_key_frames(model: SparseModel, k: int) -> list[int]:
    """Image ids ranked by 2D-3D correspondence count, best first.

    Ties break towards the smaller image id. Returns min(k, #images) ids.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    counts = [(img.linked_count(), img.image_id) for img in model.images]
    if not any(c for c, _ in counts):
        raise NoCorrespondences("no image has a feature linked to a 3D point")
    ranked = sorted(counts, key=lambda ci: (-ci[0], ci[1]))
    return [image_id for _, image_id in ranked[: min(k, len(ranked))]]


def build_pixel_dataset(
    model: SparseModel, image_id: int, depth: Optional[DepthMap] = None
) -> PixelToPointDataset:
    """Pixel-to-point dataset for one image.

    One sample per feature with a valid track: input is the pixel divided by
    the camera width/height, target is the 3D position plus colour/255.
    When a depth map is supplied, each sample additionally carries the
    nearest-pixel depth, and features on an invalid depth are dropped.
    """
    img = model.image_by_id(image_id)
    cam = model.camera_by_id(img.camera_id)
    if depth is not None and (depth.width != cam.width or depth.height != cam.height):
        raise DimensionMismatch(
            f"depth map {depth.width}x{depth.height} vs camera {cam.width}x{cam.height}"
        )

    linked = img.point3d_ids != SENTINEL_NONE
    rows = model.points3d.rows_of(img.point3d_ids[linked])
    if np.any(rows < 0):
        raise DanglingReference(f"image {image_id} cites a point3d id missing from the model")
    uv = img.xys[linked]
    inputs = uv / (cam.width, cam.height)
    targets = np.hstack([model.points3d.xyz[rows], model.points3d.rgb[rows] / 255.0])
    if depth is not None:
        d = depth.value_at(uv[:, 0], uv[:, 1])
        valid = ~np.isnan(d)
        inputs = np.column_stack([inputs[valid], d[valid]])
        targets = targets[valid]
    return PixelToPointDataset(image_id, cam.width, cam.height, inputs, targets)


def split_dataset(ds: PixelToPointDataset, train_fraction: float, seed: int) -> SplitResult:
    """Deterministic shuffled split; train size = round(fraction * n)."""
    if not 0.0 < train_fraction < 1.0:
        raise ValueError(f"train_fraction must be in (0, 1), got {train_fraction}")
    n = len(ds)
    if n == 0:
        raise EmptyDataset("cannot split an empty dataset")
    rng = np.random.default_rng(seed)
    perm = rng.permutation(n)
    n_train = int(round(train_fraction * n))
    train_idx = np.sort(perm[:n_train])
    test_idx = np.sort(perm[n_train:])
    train = replace(ds, inputs=ds.inputs[train_idx], targets=ds.targets[train_idx])
    test = replace(ds, inputs=ds.inputs[test_idx], targets=ds.targets[test_idx])
    degenerate = len(train) == 0 or len(test) == 0
    if degenerate:
        warnings.warn(
            f"degenerate split: train={len(train)} test={len(test)}", stacklevel=2
        )
    return SplitResult(train, test, degenerate)


# ---------------------------------------------------------------------------
# PFM depth maps
# ---------------------------------------------------------------------------

def read_depth_pfm(path) -> DepthMap:
    """Read a single-channel 'Pf' PFM file.

    PFM stores rows bottom-to-top; the returned grid is top-to-bottom.
    The sign of the scale line selects endianness; its magnitude is not
    applied. Non-finite payload values become the invalid marker.
    """
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise MissingFile(f"cannot read {path}: {exc}") from exc

    def next_token(offset: int) -> tuple[bytes, int]:
        while offset < len(raw) and raw[offset : offset + 1].isspace():
            offset += 1
        start = offset
        while offset < len(raw) and not raw[offset : offset + 1].isspace():
            offset += 1
        return raw[start:offset], offset

    magic, off = next_token(0)
    if magic != b"Pf":
        raise BadMagic(f"{path}: expected 'Pf' magic, got {magic!r}")
    w_tok, off = next_token(off)
    h_tok, off = next_token(off)
    try:
        width, height = int(w_tok), int(h_tok)
    except ValueError as exc:
        raise BadDims(f"{path}: bad dimension tokens {w_tok!r} {h_tok!r}") from exc
    if width < 1 or height < 1:
        raise BadDims(f"{path}: non-positive dimensions {width}x{height}")
    scale_tok, off = next_token(off)
    try:
        scale = float(scale_tok)
    except ValueError as exc:
        raise BadDims(f"{path}: bad scale token {scale_tok!r}") from exc
    off += 1  # single whitespace byte terminates the header
    payload = raw[off : off + 4 * width * height]
    if len(payload) < 4 * width * height:
        raise TruncatedPayload(
            f"{path}: payload holds {len(payload)} bytes, need {4 * width * height}"
        )
    endian = "<" if scale < 0 else ">"
    grid = np.frombuffer(payload, dtype=endian + "f4").reshape(height, width)
    grid = np.ascontiguousarray(grid[::-1])  # bottom-to-top -> top-to-bottom
    grid = np.where(np.isfinite(grid), grid, np.float32(INVALID_DEPTH))
    return DepthMap(width, height, grid)


# ---------------------------------------------------------------------------
# PLY point clouds
# ---------------------------------------------------------------------------

_PLY_ASCII_ROW = "%.9g %.9g %.9g %d %d %d %d\n"


def write_ply(cloud: DensifiedCloud, path, binary: bool = True) -> None:
    """Write the cloud with x/y/z, red/green/blue, and the source tag."""
    if not np.all(np.isfinite(cloud.positions)):
        raise ValueError("cloud positions must be finite")
    path = Path(path)
    fmt = "binary_little_endian" if binary else "ascii"
    header_lines = [
        "ply",
        f"format {fmt} 1.0",
        f"element vertex {len(cloud)}",
        "property float x",
        "property float y",
        "property float z",
        "property uchar red",
        "property uchar green",
        "property uchar blue",
        "property uchar source",
        "end_header",
    ]
    header = ("\n".join(header_lines) + "\n").encode("ascii")
    try:
        with open(path, "wb") as fh:
            fh.write(header)
            if binary:
                rec = np.empty(
                    len(cloud),
                    dtype=[(n, "<f4") for n in ("x", "y", "z")]
                    + [(n, "u1") for n in ("red", "green", "blue", "source")],
                )
                rec["x"], rec["y"], rec["z"] = cloud.positions.T
                rec["red"], rec["green"], rec["blue"] = cloud.colors.T
                rec["source"] = cloud.sources
                fh.write(rec.tobytes())
            else:
                # %.9g round-trips float32 exactly
                columns = (*cloud.positions.T.tolist(), *cloud.colors.T.tolist(),
                           cloud.sources.tolist())
                rows = map(_PLY_ASCII_ROW.__mod__, zip(*columns))
                fh.write("".join(rows).encode("ascii"))
    except OSError as exc:
        raise IoFailure(f"cannot write {path}: {exc}") from exc


# ---------------------------------------------------------------------------
# Dataset CSV interchange
# ---------------------------------------------------------------------------

def write_dataset_csv(ds: PixelToPointDataset, path) -> None:
    """Write the dataset with '#'-prefixed metadata and a one-line header.

    Columns are u_norm,v_norm[,depth],x,y,z,r,g,b; the depth column is
    present when the inputs have one. 17 significant digits give exact
    float64 round trips.
    """
    cols = ["u_norm", "v_norm"] + (["depth"] if ds.has_depth else []) + list("xyzrgb")
    lines = [
        f"# image_id = {ds.image_id}",
        f"# width = {ds.width}",
        f"# height = {ds.height}",
        ",".join(cols),
    ]
    for row in np.hstack([ds.inputs, ds.targets]).tolist():
        lines.append(",".join(f"{v:.17g}" for v in row))
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


_DATASET_REQUIRED_COLUMNS = ("u_norm", "v_norm", "x", "y", "z", "r", "g", "b")


def read_dataset_csv(path) -> PixelToPointDataset:
    path = Path(path)
    if not path.is_file():
        raise MissingFile(f"missing dataset file {path}")
    meta = {"image_id": 0, "width": None, "height": None}
    header = None
    rows: list[list[float]] = []
    for lineno, line in enumerate(read_text(path).splitlines(), start=1):
        line = line.strip()
        if not line:
            continue
        if line.startswith("#"):
            key, _, value = line.lstrip("# ").partition("=")
            key = key.strip()
            if key in meta:
                try:
                    meta[key] = int(value.strip())
                except ValueError as exc:
                    raise MalformedLine(path, lineno, f"metadata {key}: {exc}") from exc
                if key != "image_id" and meta[key] < 1:
                    raise MalformedLine(path, lineno, f"{key} must be positive, got {meta[key]}")
            continue
        if header is None:
            header = line.split(",")
            missing = [c for c in _DATASET_REQUIRED_COLUMNS if c not in header]
            if missing:
                raise MalformedLine(path, lineno, f"header lacks columns {', '.join(missing)}")
            continue
        tokens = line.split(",")
        if len(tokens) != len(header):
            raise MalformedLine(path, lineno, f"expected {len(header)} columns, got {len(tokens)}")
        try:
            row = [float(t) for t in tokens]
        except ValueError as exc:
            raise MalformedLine(path, lineno, str(exc)) from exc
        if not all(map(math.isfinite, row)):
            raise MalformedLine(path, lineno, "non-finite value")
        rows.append(row)
    if header is None:
        raise MalformedLine(path, 0, "dataset file has no header line")
    if meta["width"] is None or meta["height"] is None:
        raise MalformedLine(path, 0, "dataset file lacks width/height metadata")
    # a repeated column name reads its last occurrence
    column = {name: i for i, name in enumerate(header)}
    input_names = ("u_norm", "v_norm") + (("depth",) if "depth" in column else ())
    table = np.array(rows, dtype=np.float64).reshape(len(rows), len(header))
    return PixelToPointDataset(
        meta["image_id"], meta["width"], meta["height"],
        table[:, [column[c] for c in input_names]],
        table[:, [column[c] for c in "xyzrgb"]],
    )
