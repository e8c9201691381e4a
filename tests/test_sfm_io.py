"""COLMAP parsing, key frames, dataset construction, PFM, and PLY."""

import struct
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from gpgs import errors, gp, model_io, sfm_io
from gpgs.sfm_io import DensifiedCloud
from gpgs.sfm_io import SENTINEL_NONE

from oracles import parse_colmap_oracle, read_ply_oracle
from synthdata import write_colmap_fixture


@pytest.fixture()
def model_dir(tmp_path):
    return write_colmap_fixture(tmp_path / "colmap")


@pytest.fixture()
def model(model_dir):
    return sfm_io.parse_colmap_model(model_dir)


# ---------------------------------------------------------------------------
# parse_colmap_model
# ---------------------------------------------------------------------------

class TestParseColmap:
    def test_fixture_counts(self, model):
        assert (len(model.cameras), len(model.images), len(model.points3d)) == (1, 2, 6)

    def test_linked_feature_counts(self, model):
        assert model.image_by_id(1).linked_count() == 5
        assert model.image_by_id(2).linked_count() == 3

    def test_sentinel_mapping(self, model):
        ids = model.image_by_id(1).point3d_ids
        assert ids[-1] == SENTINEL_NONE
        assert np.count_nonzero(ids == SENTINEL_NONE) == 1

    def test_point_fields(self, model):
        points = model.points3d
        (row,) = points.rows_of([101])
        assert points.ids[row] == 101
        assert np.allclose(points.xyz[row], [1, 2, 3])
        assert tuple(points.rgb[row]) == (255, 0, 0)

    def test_empty_points3d(self, tmp_path, model_dir):
        (model_dir / "points3D.txt").write_text("# empty\n")
        (model_dir / "images.txt").write_text(
            "1 1 0 0 0 0 0 0 1 a.png\n100 100 -1\n"
        )
        parsed = sfm_io.parse_colmap_model(model_dir)
        assert len(parsed.points3d) == 0

    def test_missing_file(self, model_dir):
        (model_dir / "points3D.txt").unlink()
        with pytest.raises(errors.MissingFile, match="points3D"):
            sfm_io.parse_colmap_model(model_dir)

    def test_dangling_feature_reference(self, model_dir):
        text = (model_dir / "images.txt").read_text().replace(" 106", " 999")
        (model_dir / "images.txt").write_text(text)
        with pytest.raises(errors.DanglingReference, match="999"):
            sfm_io.parse_colmap_model(model_dir)

    def test_dangling_track_reference(self, model_dir):
        text = (model_dir / "points3D.txt").read_text().replace("0.6 2 2", "0.6 7 2")
        (model_dir / "points3D.txt").write_text(text)
        with pytest.raises(errors.DanglingReference, match="image 7"):
            sfm_io.parse_colmap_model(model_dir)

    def test_track_feature_index_out_of_range(self, model_dir):
        text = (model_dir / "points3D.txt").read_text().replace("0.6 2 2", "0.6 2 9")
        (model_dir / "points3D.txt").write_text(text)
        with pytest.raises(errors.DanglingReference, match="feature 9"):
            sfm_io.parse_colmap_model(model_dir)

    @pytest.mark.parametrize("feat_idx", ["-1", "4"])  # image 2 has 4 features
    def test_track_feature_index_boundaries(self, model_dir, feat_idx):
        text = (model_dir / "points3D.txt").read_text().replace("0.6 2 2", f"0.6 2 {feat_idx}")
        (model_dir / "points3D.txt").write_text(text)
        with pytest.raises(errors.DanglingReference) as want:
            parse_colmap_oracle(model_dir)
        with pytest.raises(errors.DanglingReference) as got:
            sfm_io.parse_colmap_model(model_dir)
        assert str(got.value) == str(want.value)

    def test_malformed_line_reports_position(self, model_dir):
        (model_dir / "cameras.txt").write_text("1 PINHOLE 400\n")
        with pytest.raises(errors.MalformedLine) as exc_info:
            sfm_io.parse_colmap_model(model_dir)
        assert exc_info.value.line_number == 1
        assert "cameras.txt" in exc_info.value.path

    def test_duplicate_image_id(self, model_dir):
        text = (model_dir / "images.txt").read_text().replace(
            "2 1 0 0 0 0.5", "1 1 0 0 0 0.5"
        )
        (model_dir / "images.txt").write_text(text)
        with pytest.raises(errors.MalformedLine, match="duplicate image id"):
            sfm_io.parse_colmap_model(model_dir)

    @pytest.mark.parametrize("image_id", [2**63 - 1, -(2**63)])
    def test_image_id_at_int64_bounds_parses(self, model_dir, image_id):
        (model_dir / "images.txt").write_text(f"{image_id} 1 0 0 0 0 0 0 1 a.png\n\n")
        (model_dir / "points3D.txt").write_text("")
        assert sfm_io.parse_colmap_model(model_dir).image_by_id(image_id).image_id == image_id

    def test_image_with_empty_feature_line(self, model_dir):
        (model_dir / "images.txt").write_text("1 1 0 0 0 0 0 0 1 a.png\n\n")
        (model_dir / "points3D.txt").write_text("")
        parsed = sfm_io.parse_colmap_model(model_dir)
        assert parsed.image_by_id(1).xys.shape == (0, 2)


# ---------------------------------------------------------------------------
# Array parser against the line-by-line oracle
# ---------------------------------------------------------------------------

_coords = st.floats(-1e6, 1e6, allow_nan=False).map(repr) | st.integers(-999, 999).map(str)


@st.composite
def colmap_rows(draw):
    """Token rows of a random valid COLMAP model.

    Returns (images, points): images as [header tokens, feature tokens]
    pairs, points as token lists. Ids are random and unsorted; tracks run
    from empty to long; every reference resolves.
    """
    point_ids = draw(st.lists(st.integers(0, 2**40), unique=True, max_size=25))
    image_ids = draw(st.lists(st.integers(1, 10**6), unique=True, min_size=1, max_size=4))
    images, observations = [], []
    for image_id in image_ids:
        n_feat = draw(st.integers(0, 8))
        features = []
        for idx in range(n_feat):
            pid = draw(st.sampled_from(point_ids + [SENTINEL_NONE]))
            features += [draw(_coords), draw(_coords), str(pid)]
            observations.append((image_id, idx))
        header = [str(image_id)] + [draw(_coords) for _ in range(7)] + ["1", f"im{image_id}.png"]
        images.append([header, features])
    points = []
    for pid in point_ids:
        rgb = [str(draw(st.integers(0, 255))) for _ in range(3)]
        row = [str(pid)] + [draw(_coords) for _ in range(3)] + rgb + [draw(_coords)]
        if observations:
            track = draw(st.lists(st.sampled_from(observations), max_size=40))
            row += [str(v) for entry in track for v in entry]
        points.append(row)
    return images, points


def _write_colmap_text(dir_path: Path, images, points, draw_flags) -> Path:
    """Write the rows with comments and blank lines where draw_flags says."""
    flags = iter(draw_flags)
    image_lines, point_lines = ["# images"], ["# points"]
    for header, features in images:
        if next(flags):
            image_lines.append("")  # blank lines are skipped only before a header
        image_lines += [" ".join(header), "# between header and features", " ".join(features)]
    for row in points:
        if next(flags):
            point_lines += ["", "  # indented comment"]
        point_lines.append(" ".join(row))
    (dir_path / "cameras.txt").write_text("# cameras\n1 PINHOLE 400 300 350 350 200 150\n")
    (dir_path / "images.txt").write_text("\n".join(image_lines) + "\n")
    (dir_path / "points3D.txt").write_text("\n".join(point_lines) + "\n")
    return dir_path


def _parse_both(images, points, flags):
    """(array result or exception, oracle result or exception) for one model."""
    out = []
    with tempfile.TemporaryDirectory() as tmp:
        model_dir = _write_colmap_text(Path(tmp), images, points, flags)
        for parse in (sfm_io.parse_colmap_model, parse_colmap_oracle):
            try:
                out.append(parse(model_dir))
            except errors.InputDataError as exc:
                out.append(exc)
    return out


class TestParserMatchesOracle:
    @given(rows=colmap_rows(), flags=st.lists(st.booleans(), min_size=30, max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_valid_models_equal(self, rows, flags):
        model, (cameras, images, points) = _parse_both(*rows, flags)
        assert [(c.camera_id, c.model, c.width, c.height, c.params) for c in model.cameras] == cameras
        for img, (image_id, name, camera_id, qvec, tvec, xys, ids) in zip(model.images, images):
            assert (img.image_id, img.name, img.camera_id) == (image_id, name, camera_id)
            assert img.qvec.tobytes() == np.array(qvec).tobytes()
            assert img.tvec.tobytes() == np.array(tvec).tobytes()
            assert img.xys.tobytes() == np.array(xys, dtype=np.float64).reshape(-1, 2).tobytes()
            assert img.point3d_ids.tolist() == ids
        table = model.points3d
        assert len(table) == len(points)
        assert table.ids.tolist() == [p[0] for p in points]
        assert table.xyz.tobytes() == np.array([p[1] for p in points]).reshape(-1, 3).tobytes()
        assert table.rgb.tolist() == [list(p[2]) for p in points]
        for row, point in enumerate(points):
            assert table.rows_of([point[0]]).tolist() == [row]

    @given(
        rows=colmap_rows(),
        flags=st.lists(st.booleans(), min_size=30, max_size=30),
        edits=st.lists(
            st.tuples(
                st.sampled_from(
                    ["id", "rgb_token", "track_token", "odd_track", "duplicate", "rgb_256",
                     "feature_token", "track_image", "track_feature", "feature_point",
                     "feature_nan", "feature_float32", "xyz_nan", "xyz_float32",
                     "image_id_int64"]
                ),
                st.integers(0, 10**6),
            ),
            min_size=1, max_size=2,
        ),
    )
    @settings(max_examples=150, deadline=None)
    @example(
        rows=(
            [[["1", "1", "0", "0", "0", "0", "0", "0", "1", "im1.png"], ["0.5", "0.5", "7"]]],
            [["7", "0", "0", "0", "1", "2", "3", "0"]],
        ),
        flags=[False] * 30,
        edits=[("odd_track", 0), ("track_image", 0)],
    )
    def test_bad_models_raise_like_oracle(self, rows, flags, edits):
        images, points = rows
        for kind, pick in edits:
            _corrupt(images, points, kind, pick)
        got, want = _parse_both(images, points, flags)
        if not isinstance(want, Exception):
            assert not isinstance(got, Exception)
            return
        assert type(got) is type(want)
        assert str(got) == str(want)
        if isinstance(want, errors.MalformedLine):
            assert got.line_number == want.line_number


def _corrupt(images, points, kind, pick):
    """Break one row of the model in place; a no-op where the kind has no target."""
    if kind == "feature_token":
        features = images[pick % len(images)][1]
        if features:
            features[pick % len(features)] = "abc"
        return
    if kind == "feature_nan":
        features = images[pick % len(images)][1]
        if features:
            features[3 * (pick % (len(features) // 3)) + pick % 2] = ("nan", "inf")[pick % 2]
        return
    if kind == "feature_float32":
        features = images[pick % len(images)][1]
        if features:
            features[3 * (pick % (len(features) // 3)) + pick % 2] = (
                ("1e39", "-3.4028236e38", "1e200", "-1e308")[pick // 2 % 4]
            )
        return
    if kind == "image_id_int64":
        images[pick % len(images)][0][0] = str((2**63 + pick, -(2**63) - 1 - pick)[pick % 2])
        return
    if kind == "feature_point":
        features = images[pick % len(images)][1]
        if features:
            features[3 * (pick % (len(features) // 3)) + 2] = str(2**41 + pick)
        return
    if not points:
        return
    row = points[pick % len(points)]
    track_len = len(row) - 8
    if kind == "id":
        row[0] = "x" + row[0]
    elif kind == "rgb_token":
        row[4 + pick % 3] = "red"
    elif kind == "xyz_nan":
        row[1 + pick % 3] = ("nan", "inf", "-inf")[pick % 3]
    elif kind == "xyz_float32":
        row[1 + pick % 3] = ("1e39", "-3.4028236e38", "1e308")[pick % 3]
    elif kind == "rgb_256":
        row[4 + pick % 3] = "256"
    elif kind == "track_token":
        if track_len:
            row[8 + pick % track_len] = "1.5"
        else:
            row += ["1", "1.5"]
    elif kind == "odd_track":
        row.append("3")
    elif kind == "duplicate":
        other = points[(pick + 1) % len(points)]
        if other is not row:
            row[0] = other[0]
    elif kind == "track_image" and track_len >= 2:
        row[8 + 2 * (pick % (track_len // 2))] = str(10**6 + 1 + pick)
    elif kind == "track_feature" and track_len >= 2:
        entry = 8 + 2 * (pick % (track_len // 2))
        image = next((im for im in images if im[0][0] == row[entry]), None)
        if image is not None:
            n_feat = len(image[1]) // 3
            row[entry + 1] = str((n_feat, n_feat + 1, -1)[pick % 3])


# ---------------------------------------------------------------------------
# select_key_frames
# ---------------------------------------------------------------------------

class TestKeyFrames:
    def test_ranked_by_linked_count(self, model):
        assert sfm_io.select_key_frames(model, 1) == [1]
        assert sfm_io.select_key_frames(model, 2) == [1, 2]

    def test_clamped_to_image_count(self, model):
        assert len(sfm_io.select_key_frames(model, 10)) == 2

    def test_tie_breaks_to_smaller_id(self, model_dir):
        (model_dir / "images.txt").write_text(
            "5 1 0 0 0 0 0 0 1 b.png\n"
            "10 10 101 20 20 102 30 30 103 40 40 104\n"
            "3 1 0 0 0 0 0 0 1 a.png\n"
            "10 10 101 20 20 102 30 30 103 40 40 104\n"
        )
        (model_dir / "points3D.txt").write_text(
            "101 0 0 0 1 1 1 0.1 5 0 3 0\n"
            "102 1 0 0 1 1 1 0.1 5 1 3 1\n"
            "103 0 1 0 1 1 1 0.1 5 2 3 2\n"
            "104 0 0 1 1 1 1 0.1 5 3 3 3\n"
        )
        parsed = sfm_io.parse_colmap_model(model_dir)
        assert sfm_io.select_key_frames(parsed, 1) == [3]

    def test_no_correspondences(self, model_dir):
        (model_dir / "images.txt").write_text("1 1 0 0 0 0 0 0 1 a.png\n10 10 -1\n")
        (model_dir / "points3D.txt").write_text("")
        parsed = sfm_io.parse_colmap_model(model_dir)
        with pytest.raises(errors.NoCorrespondences):
            sfm_io.select_key_frames(parsed, 1)


# ---------------------------------------------------------------------------
# build_pixel_dataset
# ---------------------------------------------------------------------------

class TestBuildDataset:
    def test_normalization_and_targets(self, model):
        ds = sfm_io.build_pixel_dataset(model, 1)
        assert ds.inputs.shape == (5, 2) and ds.targets.shape == (5, 6)
        assert tuple(ds.inputs[0]) == (0.5, 0.25)
        assert ds.targets[0] == pytest.approx([1, 2, 3, 1, 0, 0])

    def test_sample_count_matches_linked_features(self, model):
        for image_id in (1, 2):
            ds = sfm_io.build_pixel_dataset(model, image_id)
            assert len(ds) == model.image_by_id(image_id).linked_count()

    def test_pixels_recoverable(self, model):
        ds = sfm_io.build_pixel_dataset(model, 1)
        img = model.image_by_id(1)
        linked = img.xys[img.point3d_ids != SENTINEL_NONE]
        assert np.allclose(ds.inputs * (ds.width, ds.height), linked, atol=1e-9)

    def test_sentinel_features_excluded(self, model):
        ds = sfm_io.build_pixel_dataset(model, 2)
        assert len(ds) == 3

    def test_unknown_image(self, model):
        with pytest.raises(errors.DanglingReference):
            sfm_io.build_pixel_dataset(model, 42)

    def test_zero_linked_features_gives_empty_dataset(self, model_dir):
        (model_dir / "images.txt").write_text("1 1 0 0 0 0 0 0 1 a.png\n10 10 -1\n")
        (model_dir / "points3D.txt").write_text("")
        parsed = sfm_io.parse_colmap_model(model_dir)
        assert len(sfm_io.build_pixel_dataset(parsed, 1)) == 0

    def test_depth_lookup(self, model):
        grid = np.full((400, 400), sfm_io.INVALID_DEPTH, dtype=np.float32)
        grid[100, 200] = 7.5  # row v=100, column u=200
        depth = sfm_io.DepthMap(400, 400, grid)
        ds = sfm_io.build_pixel_dataset(model, 1, depth)
        # the other four features sit on the invalid marker and are dropped
        assert ds.has_depth and len(ds) == 1
        assert ds.inputs[0].tolist() == [0.5, 0.25, 7.5]
        assert ds.targets[0] == pytest.approx([1, 2, 3, 1, 0, 0])

    def test_depth_dimension_mismatch(self, model):
        depth = sfm_io.DepthMap(10, 10, np.ones((10, 10), dtype=np.float32))
        with pytest.raises(errors.DimensionMismatch):
            sfm_io.build_pixel_dataset(model, 1, depth)


# ---------------------------------------------------------------------------
# split_dataset
# ---------------------------------------------------------------------------

class TestSplit:
    @pytest.fixture()
    def ds(self, model):
        return sfm_io.build_pixel_dataset(model, 1)

    def test_sizes(self, ds):
        result = sfm_io.split_dataset(ds, 0.8, seed=0)
        assert (len(result.train), len(result.test)) == (4, 1)

    def test_determinism(self, ds):
        a = sfm_io.split_dataset(ds, 0.8, seed=3)
        b = sfm_io.split_dataset(ds, 0.8, seed=3)
        for x, y in ((a.train, b.train), (a.test, b.test)):
            assert np.array_equal(x.inputs, y.inputs)
            assert np.array_equal(x.targets, y.targets)

    def test_partition_is_disjoint_and_exhaustive(self, ds):
        result = sfm_io.split_dataset(ds, 0.6, seed=1)
        train, test, original = (
            {tuple(row) for row in np.hstack([part.inputs, part.targets]).tolist()}
            for part in (result.train, result.test, ds)
        )
        assert len(original) == len(ds)
        assert train | test == original
        assert not train & test

    def test_single_sample_degenerate(self, ds):
        from dataclasses import replace

        one = replace(ds, inputs=ds.inputs[:1], targets=ds.targets[:1])
        result = sfm_io.split_dataset(one, 0.8, seed=0)
        assert (len(result.train), len(result.test)) == (1, 0)

    def test_empty_dataset_rejected(self, ds):
        from dataclasses import replace

        empty = replace(ds, inputs=ds.inputs[:0], targets=ds.targets[:0])
        with pytest.raises(errors.EmptyDataset):
            sfm_io.split_dataset(empty, 0.8, seed=0)

    @given(n=st.integers(2, 40), fraction=st.floats(0.05, 0.95), seed=st.integers(0, 99))
    @settings(max_examples=40, deadline=None)
    def test_split_property(self, n, fraction, seed):
        from synthdata import make_scene

        ds = make_scene("smooth", n, seed=5)
        result = sfm_io.split_dataset(ds, fraction, seed)
        assert len(result.train) == int(round(fraction * n))
        assert len(result.train) + len(result.test) == n
        train, test, original = (
            np.hstack([part.inputs, part.targets]).tolist()
            for part in (result.train, result.test, ds)
        )
        assert sorted(train + test) == sorted(original)


# ---------------------------------------------------------------------------
# PFM depth maps
# ---------------------------------------------------------------------------

def _pfm_bytes(width, height, scale, floats, magic=b"Pf"):
    endian = "<" if scale < 0 else ">"
    header = magic + f"\n{width} {height}\n{scale}\n".encode("ascii")
    return header + struct.pack(f"{endian}{len(floats)}f", *floats)


class TestPfm:
    def test_known_floats(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(_pfm_bytes(2, 1, -1.0, [1.5, 2.5]))
        depth = sfm_io.read_depth_pfm(path)
        assert (depth.width, depth.height) == (2, 1)
        assert depth.values.tolist() == [[1.5, 2.5]]

    def test_rows_flipped_to_top_down(self, tmp_path):
        # PFM payload is bottom-to-top: last-written row is the image top
        path = tmp_path / "d.pfm"
        path.write_bytes(_pfm_bytes(1, 2, -1.0, [10.0, 20.0]))
        depth = sfm_io.read_depth_pfm(path)
        assert depth.values[:, 0].tolist() == [20.0, 10.0]

    def test_big_endian(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(_pfm_bytes(2, 1, 1.0, [3.0, 4.0]))
        assert sfm_io.read_depth_pfm(path).values.tolist() == [[3.0, 4.0]]

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(_pfm_bytes(2, 1, -1.0, [1.0] * 6, magic=b"PF"))
        with pytest.raises(errors.BadMagic):
            sfm_io.read_depth_pfm(path)

    def test_truncated_payload(self, tmp_path):
        path = tmp_path / "d.pfm"
        data = _pfm_bytes(2, 2, -1.0, [1.0] * 4)
        path.write_bytes(data[:-5])
        with pytest.raises(errors.TruncatedPayload):
            sfm_io.read_depth_pfm(path)

    @pytest.mark.parametrize("data,held", [
        # the header's last separator is two bytes: one of them starts the payload
        (_pfm_bytes(2, 1, -1.0, [1.5, 2.5]).replace(b"-1.0\n", b"-1.0\r\n"), 9),
        (_pfm_bytes(2, 1, -1.0, [1.5, 2.5]) + b"\0", 9),  # a trailing byte
        (_pfm_bytes(2, 1, -1.0, [1.5, 2.5])[:-1], 7),
        (_pfm_bytes(2, 1, -1.0, [1.5, 2.5])[:-8], 0),
        (b"Pf\n2 1\n-1.0", 0),  # no byte ends the header
    ], ids=["two-byte-header-end", "trailing-byte", "one-byte-short", "no-payload",
            "no-header-end"])
    def test_payload_must_be_exactly_the_rest_of_the_file(self, tmp_path, data, held):
        path = tmp_path / "d.pfm"
        path.write_bytes(data)
        with pytest.raises(errors.TruncatedPayload,
                           match=f"holds {held} bytes after the header, need exactly 8"):
            sfm_io.read_depth_pfm(path)

    @pytest.mark.parametrize("scale", ["0", "-0.0", "nan", "inf", "-inf"])
    def test_scale_must_be_finite_and_non_zero(self, tmp_path, scale):
        # a zero or NaN scale would select big-endian without saying so
        path = tmp_path / "d.pfm"
        path.write_bytes(f"Pf\n2 1\n{scale}\n".encode() + struct.pack("<2f", 1.5, 2.5))
        with pytest.raises(errors.BadDims, match="not finite and non-zero"):
            sfm_io.read_depth_pfm(path)

    def test_non_finite_becomes_invalid_marker(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(_pfm_bytes(2, 1, -1.0, [float("nan"), 2.0]))
        depth = sfm_io.read_depth_pfm(path)
        assert depth.values[0, 0] == sfm_io.INVALID_DEPTH
        got = depth.value_at(np.array([0.0, 1.2]), np.array([0.0, 0.0]))
        assert np.isnan(got[0]) and got[1] == 2.0

    def test_bad_dims(self, tmp_path):
        path = tmp_path / "d.pfm"
        path.write_bytes(b"Pf\nx y\n-1.0\n" + b"\x00" * 8)
        with pytest.raises(errors.BadDims):
            sfm_io.read_depth_pfm(path)


# ---------------------------------------------------------------------------
# PLY round trips
# ---------------------------------------------------------------------------

def _sample_cloud():
    positions = np.array(
        [[0.1, 0.2, 0.3], [-1.5, 2.25, -3.125], [7.0, 8.5, 9.25]], dtype=np.float32
    )
    colors = np.array([[255, 0, 0], [0, 255, 0], [12, 34, 56]], dtype=np.uint8)
    sources = np.array([0, 1, 1], dtype=np.uint8)
    return DensifiedCloud(positions, colors, sources)


class TestPly:
    def test_binary_round_trip_identity(self, tmp_path):
        cloud = _sample_cloud()
        path = tmp_path / "c.ply"
        sfm_io.write_ply(cloud, path, binary=True)
        back = read_ply_oracle(path)
        assert np.array_equal(back.positions, cloud.positions)
        assert np.array_equal(back.colors, cloud.colors)
        assert np.array_equal(back.sources, cloud.sources)

    def test_ascii_round_trip(self, tmp_path):
        cloud = _sample_cloud()
        path = tmp_path / "c.ply"
        sfm_io.write_ply(cloud, path, binary=False)
        back = read_ply_oracle(path)
        # %.9g preserves float32 exactly, comfortably beyond 6 significant digits
        assert np.array_equal(back.positions, cloud.positions)
        assert np.array_equal(back.sources, cloud.sources)

    def test_binary_write_is_deterministic(self, tmp_path):
        cloud = _sample_cloud()
        sfm_io.write_ply(cloud, tmp_path / "a.ply", binary=True)
        sfm_io.write_ply(cloud, tmp_path / "b.ply", binary=True)
        assert (tmp_path / "a.ply").read_bytes() == (tmp_path / "b.ply").read_bytes()

    def test_truncated_binary_payload(self, tmp_path):
        cloud = _sample_cloud()
        path = tmp_path / "c.ply"
        sfm_io.write_ply(cloud, path, binary=True)
        data = path.read_bytes()
        # one packed record per vertex: float x, y, z and uchar red, green, blue, source
        body = data.index(b"end_header\n") + len(b"end_header\n")
        assert len(data) - body == len(cloud) * (3 * 4 + 4)
        # the round trips above read back a short payload as a failure, not a shorter cloud
        path.write_bytes(data[:-8])
        with pytest.raises(ValueError):
            read_ply_oracle(path)

    def test_ascii_bytes_match_per_vertex_formatting(self, tmp_path):
        rng = np.random.default_rng(3)
        n = 500
        scale = 10.0 ** rng.integers(-40, 38, size=(n, 3))
        positions = (rng.normal(size=(n, 3)) * scale).astype(np.float32)
        positions[0] = [-0.0, 1e-45, 3.4028235e38]
        cloud = DensifiedCloud(positions, rng.integers(0, 256, (n, 3)), rng.integers(0, 2, n))
        path = tmp_path / "c.ply"
        sfm_io.write_ply(cloud, path, binary=False)
        expected = "".join(
            f"{p[0]:.9g} {p[1]:.9g} {p[2]:.9g} {c[0]} {c[1]} {c[2]} {s}\n"
            for p, c, s in zip(cloud.positions, cloud.colors, cloud.sources)
        ).encode("ascii")
        data = path.read_bytes()
        assert data[data.index(b"end_header\n") + len(b"end_header\n"):] == expected
        assert np.array_equal(read_ply_oracle(path).positions, cloud.positions)

    def test_non_finite_positions_rejected(self, tmp_path):
        cloud = _sample_cloud()
        bad = DensifiedCloud(
            np.array([[np.nan, 0, 0]], dtype=np.float32),
            np.zeros((1, 3), dtype=np.uint8),
            np.zeros(1, dtype=np.uint8),
        )
        with pytest.raises(ValueError, match="finite"):
            sfm_io.write_ply(bad, tmp_path / "x.ply")


# ---------------------------------------------------------------------------
# Dataset CSV round trip
# ---------------------------------------------------------------------------

class TestDatasetCsv:
    def test_round_trip(self, model, tmp_path):
        ds = sfm_io.build_pixel_dataset(model, 1)
        path = tmp_path / "ds.csv"
        sfm_io.write_dataset_csv(ds, path)
        back = sfm_io.read_dataset_csv(path)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.targets, ds.targets)
        assert (back.image_id, back.width, back.height) == (1, 400, 400)

    def test_round_trip_with_depth(self, model, tmp_path):
        grid = np.full((400, 400), 2.0, dtype=np.float32)
        ds = sfm_io.build_pixel_dataset(model, 1, sfm_io.DepthMap(400, 400, grid))
        path = tmp_path / "ds.csv"
        sfm_io.write_dataset_csv(ds, path)
        back = sfm_io.read_dataset_csv(path)
        assert back.has_depth
        assert back.inputs.shape == (5, 3)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.targets, ds.targets)


# ---------------------------------------------------------------------------
# Atomic artifacts
# ---------------------------------------------------------------------------

class TestAtomicWrites:
    """Every artifact replaces its previous version whole or not at all."""

    @staticmethod
    def writers(tmp_path):
        """name -> (path, write(version)) of each artifact writer."""

        def model(version):
            X = np.array([[0.1, 0.2], [0.4, 0.3], [0.8, 0.9]])
            Z = np.full((3, 6), float(version)) + X[:, :1]
            cfg = gp.default_kernel()
            return gp.TrainedGP.fit(X, Z, [cfg] * 6, gp.OutputNormalizer.identity(), 8, 8,
                                    jitter=gp.TRAIN_JITTER)

        def cloud(version):
            base = _sample_cloud()
            return DensifiedCloud(base.positions + version, base.colors, base.sources)

        return {
            "lines": (tmp_path / "a.txt", lambda p, v: sfm_io.write_lines(p, [f"v{v}"] * 100)),
            "ply": (tmp_path / "a.ply", lambda p, v: sfm_io.write_ply(cloud(v), p)),
            "ascii ply": (tmp_path / "b.ply", lambda p, v: sfm_io.write_ply(cloud(v), p, False)),
            "model": (tmp_path / "m.txt", lambda p, v: model_io.save_model(model(v), p)),
        }

    @staticmethod
    def fail_mid_write(monkeypatch, error):
        """Make every file sfm_io opens write half of its first chunk, then raise."""
        real_open = open

        class HalfWritten:
            def __init__(self, fh):
                self.fh = fh

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.fh.close()
                return False

            def write(self, data):
                self.fh.write(data[: len(data) // 2])
                self.fh.flush()
                raise error

        monkeypatch.setattr(sfm_io, "open", lambda *a, **k: HalfWritten(real_open(*a, **k)),
                            raising=False)

    @pytest.mark.parametrize("error,raised", [
        (OSError(28, "No space left on device"), errors.IoFailure),
        (KeyboardInterrupt(), KeyboardInterrupt),
    ])
    @pytest.mark.parametrize("name", ["lines", "ply", "ascii ply", "model"])
    def test_failed_write_keeps_the_previous_file(self, tmp_path, monkeypatch, name, error,
                                                  raised):
        path, write = self.writers(tmp_path)[name]
        write(path, 1)
        before = path.read_bytes()
        self.fail_mid_write(monkeypatch, error)
        with pytest.raises(raised):
            write(path, 2)
        monkeypatch.undo()
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]
        write(path, 2)
        assert path.read_bytes() != before

    @pytest.mark.parametrize("name", ["lines", "ply", "model"])
    def test_failed_replace_keeps_the_previous_file(self, tmp_path, monkeypatch, name):
        path, write = self.writers(tmp_path)[name]
        write(path, 1)
        before = path.read_bytes()

        def refuse(src, dst):
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(sfm_io.os, "replace", refuse)
        with pytest.raises(errors.IoFailure, match=f"cannot write {path}"):
            write(path, 2)
        assert path.read_bytes() == before
        assert sorted(p.name for p in tmp_path.iterdir()) == [path.name]

    def test_new_file_written_whole(self, tmp_path):
        path, write = self.writers(tmp_path)["lines"]
        write(path, 3)
        assert path.read_text(encoding="utf-8") == "v3\n" * 100
        assert [p.name for p in tmp_path.iterdir()] == [path.name]
