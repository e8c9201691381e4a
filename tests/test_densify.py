"""Adaptive sampling, inference, variance filtering, and cloud merging."""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from gpgs import densify as dn
from gpgs import errors, gp, sfm_io
from oracles import attach_depth_oracle, depth_value_oracle, generate_samples_oracle
from synthdata import make_scene, write_colmap_fixture


def predictions_from_variances(variances) -> dn.PredictedPointSet:
    variances = np.asarray(variances, dtype=float)
    m = len(variances)
    var6 = np.zeros((m, 6))
    var6[:, 3] = var6[:, 4] = var6[:, 5] = variances
    return dn.PredictedPointSet(
        mean6=np.tile(np.arange(m, dtype=float)[:, None], (1, 6)),
        var6=var6,
        mean_rgb_var=variances.copy(),
        retained=np.zeros(m, dtype=bool),
    )


# ---------------------------------------------------------------------------
# generate_samples
# ---------------------------------------------------------------------------

class TestGenerateSamples:
    def test_first_angle_sample(self):
        cfg = dn.SamplingConfig(beta=0.25, angular_resolution=8)
        samples = dn.generate_samples([(100.0, 100.0)], 400, 400, cfg)
        assert samples.shape == (8, 2)
        assert tuple(samples[0]) == (0.5, 0.25)

    def test_corner_pixel_bounds_discard(self):
        cfg = dn.SamplingConfig(beta=0.25, angular_resolution=4)
        samples = dn.generate_samples([(0.0, 0.0)], 400, 400, cfg)
        pixels = {(round(u * 400, 6), round(v * 400, 6)) for u, v in samples}
        assert len(samples) == 2
        assert pixels == {(100.0, 0.0), (0.0, 100.0)}

    def test_single_angle_center_pixel(self):
        cfg = dn.SamplingConfig(beta=0.25, angular_resolution=1)
        samples = dn.generate_samples([(200.0, 200.0)], 400, 400, cfg)
        assert len(samples) == 1

    def test_all_samples_normalized_and_in_bounds(self):
        rng = np.random.default_rng(0)
        pixels = rng.uniform(0, 400, size=(50, 2))
        cfg = dn.SamplingConfig(beta=0.3, angular_resolution=8)
        for u, v in dn.generate_samples(pixels, 400, 300, cfg):
            assert 0.0 <= u <= 1.0 and 0.0 <= v <= 1.0
            assert 0.0 <= u * 400 < 400
            assert 0.0 <= v * 300 < 300

    def test_boundary_samples_at_exact_radius(self):
        rng = np.random.default_rng(1)
        w = h = 500
        cfg = dn.SamplingConfig(beta=0.1, angular_resolution=8)
        r = cfg.beta * min(w, h)
        for u, v in rng.uniform(100, 400, size=(10, 2)):
            for su, sv in dn.generate_samples([(u, v)], w, h, cfg):
                dist = math.hypot(su * w - u, sv * h - v)
                assert dist == pytest.approx(r, abs=1e-9)

    def test_exact_repeats_deduplicated(self):
        cfg = dn.SamplingConfig(beta=0.25, angular_resolution=4)
        samples = dn.generate_samples([(100.0, 100.0), (100.0, 100.0)], 400, 400, cfg)
        assert len(samples) == 4

    def test_count_bound(self):
        rng = np.random.default_rng(2)
        pixels = rng.uniform(50, 350, size=(100, 2))
        cfg = dn.SamplingConfig(beta=0.25, angular_resolution=8)
        samples = dn.generate_samples(pixels, 400, 400, cfg)
        assert len(samples) <= 800


# ---------------------------------------------------------------------------
# Array paths against the per-pixel oracles
# ---------------------------------------------------------------------------

def assert_same_bits(got: np.ndarray, want: np.ndarray) -> None:
    """Same shape, dtype and bytes: row order counts, and -0.0 != 0.0."""
    assert got.shape == want.shape and got.dtype == want.dtype
    assert got.tobytes() == want.tobytes()


@st.composite
def sampling_cases(draw):
    """(train pixels, width, height, beta, angular resolution). Pixels mix
    arbitrary floats, whole pixels (whose circles meet on exact values),
    -0.0 and the image border, and exact repeats, shuffled."""
    width, height = draw(st.integers(1, 64)), draw(st.integers(1, 64))
    beta = draw(st.sampled_from([0.05, 0.125, 0.25, 0.3, 0.5, 0.75]))
    angular_resolution = draw(st.integers(1, 16))
    r = beta * min(width, height)

    def coordinate(size):
        return st.one_of(
            st.floats(-r, size + r),
            st.integers(0, size).map(float),
            st.sampled_from([-0.0, 0.0, r, size - r, float(size)]),
        )

    pixels = draw(st.lists(st.tuples(coordinate(width), coordinate(height)), min_size=1,
                           max_size=12))
    pixels += draw(st.lists(st.sampled_from(pixels), max_size=6))
    pixels = draw(st.permutations(pixels))
    return np.array(pixels), width, height, beta, angular_resolution


_DEPTH_VALUES = st.one_of(
    st.floats(-10.0, 100.0, width=32),
    st.sampled_from([np.nan, np.inf, -np.inf, 0.0, -0.0, -1.0]),
)


@st.composite
def depth_maps(draw):
    width, height = draw(st.integers(1, 8)), draw(st.integers(1, 8))
    grid = draw(hnp.arrays(np.float32, (height, width), elements=_DEPTH_VALUES))
    return sfm_io.DepthMap(width, height, grid)


def _points(low, high):
    """(k, 2) float arrays with entries in [low, high] and -0.0."""
    return hnp.arrays(
        np.float64, st.tuples(st.integers(0, 30), st.just(2)),
        elements=st.one_of(st.floats(low, high), st.just(-0.0)),
    )


class TestArrayPathsMatchOracles:
    @given(case=sampling_cases())
    @example(case=(np.array([[6.0, 3.0]]), 8, 8, 0.25, 4))  # a sample lands on u == width
    @example(case=(np.array([[5.0, 5.0], [1.0, 1.0], [5.0, 5.0]]), 8, 8, 0.25, 4))
    @settings(max_examples=300, deadline=None)
    def test_generate_samples(self, case):
        pixels, width, height, beta, angular_resolution = case
        cfg = dn.SamplingConfig(beta=beta, angular_resolution=angular_resolution)
        assert_same_bits(
            dn.generate_samples(pixels, width, height, cfg),
            generate_samples_oracle(pixels, width, height, beta, angular_resolution),
        )

    @given(depth=depth_maps(), points=_points(-2.0, 10.0))
    @example(
        depth=sfm_io.DepthMap(2, 1, np.array([[1.0, 2.0]])), points=np.array([[0.6, 0.0]])
    )
    @settings(max_examples=300, deadline=None)
    def test_depth_value_at(self, depth, points):
        got = depth.value_at(points[:, 0], points[:, 1])
        want = [depth_value_oracle(depth, u, v) for u, v in points]
        assert np.isnan(got).tolist() == [d is None for d in want]
        assert_same_bits(got[~np.isnan(got)], np.array([d for d in want if d is not None]))

    @given(depth=depth_maps(), candidates=_points(0.0, 1.0))
    @settings(max_examples=300, deadline=None)
    def test_attach_depth(self, depth, candidates):
        assert_same_bits(
            dn.attach_depth(candidates, depth, depth.width, depth.height),
            attach_depth_oracle(candidates, depth, depth.width, depth.height),
        )


# ---------------------------------------------------------------------------
# infer_dense
# ---------------------------------------------------------------------------

class TestInferDense:
    @pytest.fixture()
    def interpolating_model(self):
        ds = make_scene("smooth", 40, seed=0, noise=0.0)
        X, Y = ds.inputs, ds.targets
        normalizer = gp.OutputNormalizer.fit(Y)
        configs = [
            gp.KernelConfig("matern", 0.5, 0.0, math.log(0.2), -700.0)
        ] * 6
        model = gp.TrainedGP.fit(
            X, normalizer.normalize(Y), configs, normalizer, 400, 400, jitter=0.0
        )
        return model, ds

    def test_candidate_at_training_pixel_interpolates(self, interpolating_model):
        model, ds = interpolating_model
        preds = dn.infer_dense(model, ds.inputs[:1])
        assert preds.mean6[0] == pytest.approx(ds.targets[0], abs=1e-4)
        assert preds.mean_rgb_var[0] == pytest.approx(0.0, abs=1e-8)
        assert not preds.retained.any()

    def test_empty_candidates(self, interpolating_model):
        model, _ = interpolating_model
        preds = dn.infer_dense(model, np.zeros((0, 2)))
        assert len(preds) == 0
        assert preds.mean6.shape == (0, 6)

    def test_variances_match_posterior(self, interpolating_model):
        model, _ = interpolating_model
        rng = np.random.default_rng(3)
        candidates = rng.random((5, 2))
        preds = dn.infer_dense(model, candidates)
        post = gp.posterior(model, candidates)
        # only the colour variances are computed; position columns are NaN
        assert np.array_equal(preds.var6[:, 3:6], post.var_norm[:, 3:6])
        assert np.isnan(preds.var6[:, 0:3]).all()
        assert preds.mean_rgb_var == pytest.approx(post.var_norm[:, 3:6].mean(axis=1))

    def test_mean_rgb_var_is_mean_of_colour_variances(self, interpolating_model):
        model, _ = interpolating_model
        rng = np.random.default_rng(4)
        preds = dn.infer_dense(model, rng.random((20, 2)))
        expected = (preds.var6[:, 3] + preds.var6[:, 4] + preds.var6[:, 5]) / 3.0
        assert np.max(np.abs(preds.mean_rgb_var - expected)) <= 1e-12

    def test_depth_model_requires_depth_candidates(self, interpolating_model):
        model, _ = interpolating_model
        ds3 = make_scene("smooth", 10, seed=1)
        X3 = np.column_stack([ds3.inputs, np.ones(10)])
        model3 = gp.TrainedGP.fit(
            X3, model.Z[:10], list(model.configs), model.normalizer, 400, 400, jitter=1e-8
        )
        with pytest.raises(errors.DimensionMismatch):
            dn.infer_dense(model3, np.array([[0.5, 0.5]]))
        with pytest.raises(errors.DimensionMismatch):
            dn.infer_dense(model, np.array([[0.5, 0.5, 1.0]]))


# ---------------------------------------------------------------------------
# filter_by_variance
# ---------------------------------------------------------------------------

class TestFilterByVariance:
    def test_hand_worked_quantile(self):
        preds = predictions_from_variances([4.0, 1.0, 3.0, 2.0])
        out = dn.filter_by_variance(preds, dn.FilterConfig(quantile=0.75))
        assert out.retained.tolist() == [False, True, True, True]

    def test_full_quantile_keeps_all(self):
        preds = predictions_from_variances([5.0, 0.1, 2.0])
        out = dn.filter_by_variance(preds, dn.FilterConfig(quantile=1.0))
        assert out.retained.all()

    def test_ties_at_threshold_kept(self):
        preds = predictions_from_variances([5.0, 5.0, 5.0, 5.0])
        out = dn.filter_by_variance(preds, dn.FilterConfig(quantile=0.5))
        assert out.retained.all()

    def test_input_order_preserved(self):
        preds = predictions_from_variances([4.0, 1.0, 3.0, 2.0])
        out = dn.filter_by_variance(preds, dn.FilterConfig(quantile=0.5))
        assert np.array_equal(out.mean6, preds.mean6)
        assert np.array_equal(out.mean_rgb_var, preds.mean_rgb_var)

    def test_empty_rejected(self):
        preds = predictions_from_variances([])
        with pytest.raises(errors.EmptyPredictionSet):
            dn.filter_by_variance(preds, dn.FilterConfig())

    @given(
        variances=st.lists(st.floats(0, 100, allow_nan=False), min_size=1, max_size=60),
        quantile=st.sampled_from([0.45, 0.5, 0.75, 0.85, 1.0]),
    )
    @settings(max_examples=120, deadline=None)
    def test_quantile_exactness_property(self, variances, quantile):
        preds = predictions_from_variances(variances)
        out = dn.filter_by_variance(preds, dn.FilterConfig(quantile=quantile))
        m = len(variances)
        kept = int(out.retained.sum())
        assert math.ceil(quantile * m) <= kept <= m
        if kept < m:
            assert out.mean_rgb_var[out.retained].max() <= out.mean_rgb_var[~out.retained].min()

    @given(
        variances=st.lists(
            st.floats(0, 100, allow_nan=False), min_size=2, max_size=60
        ).filter(lambda v: len(set(v)) > 1),
        quantile=st.floats(0.2, 0.9),
    )
    @settings(max_examples=120, deadline=None)
    def test_filtered_mean_never_above_original(self, variances, quantile):
        preds = predictions_from_variances(variances)
        out = dn.filter_by_variance(preds, dn.FilterConfig(quantile=quantile))
        filtered_mean = out.mean_rgb_var[out.retained].mean()
        assert filtered_mean <= out.mean_rgb_var.mean() + 1e-12


# ---------------------------------------------------------------------------
# merge_clouds
# ---------------------------------------------------------------------------

class TestMergeClouds:
    @pytest.fixture()
    def sparse(self, tmp_path):
        return sfm_io.parse_colmap_model(write_colmap_fixture(tmp_path / "colmap"))

    def test_counts_and_sources(self, sparse):
        preds = predictions_from_variances([1.0, 2.0, 3.0, 4.0])
        preds = dn.filter_by_variance(preds, dn.FilterConfig(quantile=0.75))
        cloud = dn.merge_clouds(sparse, preds)
        assert len(cloud) == 6 + 3
        assert cloud.sources.tolist() == [0] * 6 + [1] * 3

    def test_zero_retained_reproduces_sparse(self, sparse):
        preds = predictions_from_variances([1.0, 2.0])
        cloud = dn.merge_clouds(sparse, preds)
        assert len(cloud) == 6
        assert np.array_equal(cloud.positions, sparse.points3d.xyz.astype(np.float32))
        assert np.array_equal(cloud.colors, sparse.points3d.rgb)

    def test_sparse_points_preserved_bit_exactly(self, sparse):
        preds = predictions_from_variances([1.0])
        preds = dn.filter_by_variance(preds, dn.FilterConfig(quantile=1.0))
        cloud = dn.merge_clouds(sparse, preds)
        assert np.array_equal(cloud.positions[:6], sparse.points3d.xyz.astype(np.float32))
        assert np.array_equal(cloud.colors[:6], sparse.points3d.rgb)

    def test_colour_clamping_and_quantization(self, sparse):
        preds = predictions_from_variances([1.0])
        preds.mean6[0] = [0.0, 0.0, 0.0, -0.02, 0.5, 1.3]
        preds = dn.filter_by_variance(preds, dn.FilterConfig(quantile=1.0))
        cloud = dn.merge_clouds(sparse, preds)
        assert cloud.colors[-1].tolist() == [0, 128, 255]


# ---------------------------------------------------------------------------
# variance_reduction_report
# ---------------------------------------------------------------------------

class TestVarianceReport:
    def test_hand_worked_reduction(self):
        preds = predictions_from_variances([1.0, 2.0, 3.0, 4.0])
        preds = dn.filter_by_variance(preds, dn.FilterConfig(quantile=0.75))
        report = dn.variance_reduction_report(preds)
        assert report.original["rgb_mean"] == pytest.approx(2.5)
        assert report.filtered["rgb_mean"] == pytest.approx(2.0)
        assert report.reduction_pct["rgb_mean"] == pytest.approx(20.0)

    def test_keep_everything_gives_zero_reduction(self):
        preds = predictions_from_variances([1.0, 2.0, 3.0])
        preds = dn.filter_by_variance(preds, dn.FilterConfig(quantile=1.0))
        report = dn.variance_reduction_report(preds)
        for name in dn.VarianceReport.CHANNELS:
            assert report.reduction_pct[name] == pytest.approx(0.0)

    def test_zero_variance_reports_zero_reduction(self):
        preds = predictions_from_variances([0.0, 0.0])
        preds = dn.filter_by_variance(preds, dn.FilterConfig(quantile=0.5))
        report = dn.variance_reduction_report(preds)
        assert report.reduction_pct["r"] == 0.0

    def test_unfiltered_set_rejected(self):
        preds = predictions_from_variances([1.0, 2.0])
        with pytest.raises(errors.EmptyPredictionSet):
            dn.variance_reduction_report(preds)
