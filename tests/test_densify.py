"""Adaptive sampling, inference, variance filtering, and cloud merging."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgs import densify as dn
from gpgs import errors, gp, sfm_io
from synthdata import make_scene, write_colmap_fixture


def predictions_from_variances(variances) -> dn.PredictedPointSet:
    variances = np.asarray(variances, dtype=float)
    m = len(variances)
    pixels = tuple(dn.PixelSample(i / max(m, 1), 0.0) for i in range(m))
    var6 = np.zeros((m, 6))
    var6[:, 3] = var6[:, 4] = var6[:, 5] = variances
    return dn.PredictedPointSet(
        pixels=pixels,
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
        assert (samples[0].u_norm, samples[0].v_norm) == (0.5, 0.25)

    def test_corner_pixel_bounds_discard(self):
        cfg = dn.SamplingConfig(beta=0.25, angular_resolution=4)
        samples = dn.generate_samples([(0.0, 0.0)], 400, 400, cfg)
        pixels = {(round(s.u_norm * 400, 6), round(s.v_norm * 400, 6)) for s in samples}
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
        for s in dn.generate_samples(pixels, 400, 300, cfg):
            assert 0.0 <= s.u_norm <= 1.0 and 0.0 <= s.v_norm <= 1.0
            assert 0.0 <= s.u_norm * 400 < 400
            assert 0.0 <= s.v_norm * 300 < 300

    def test_boundary_samples_at_exact_radius(self):
        rng = np.random.default_rng(1)
        w = h = 500
        cfg = dn.SamplingConfig(beta=0.1, angular_resolution=8)
        r = cfg.beta * min(w, h)
        for u, v in rng.uniform(100, 400, size=(10, 2)):
            for s in dn.generate_samples([(u, v)], w, h, cfg):
                dist = math.hypot(s.u_norm * w - u, s.v_norm * h - v)
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
# infer_dense
# ---------------------------------------------------------------------------

class TestInferDense:
    @pytest.fixture()
    def interpolating_model(self):
        ds = make_scene("smooth", 40, seed=0, noise=0.0)
        X = ds.input_matrix()
        Y = ds.target_matrix()
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
        sample, target = ds.samples[0]
        preds = dn.infer_dense(model, [sample])
        assert preds.mean6[0] == pytest.approx(target.as_array(), abs=1e-4)
        assert preds.mean_rgb_var[0] == pytest.approx(0.0, abs=1e-8)
        assert not preds.retained.any()

    def test_empty_candidates(self, interpolating_model):
        model, _ = interpolating_model
        preds = dn.infer_dense(model, [])
        assert len(preds) == 0
        assert preds.mean6.shape == (0, 6)

    def test_variances_match_posterior(self, interpolating_model):
        model, _ = interpolating_model
        rng = np.random.default_rng(3)
        candidates = [dn.PixelSample(float(u), float(v)) for u, v in rng.random((5, 2))]
        preds = dn.infer_dense(model, candidates)
        Q = np.array([[c.u_norm, c.v_norm] for c in candidates])
        post = gp.posterior(model, Q)
        # only the colour variances are computed; position columns are NaN
        assert np.array_equal(preds.var6[:, 3:6], post.var_norm[:, 3:6])
        assert np.isnan(preds.var6[:, 0:3]).all()
        assert preds.mean_rgb_var == pytest.approx(post.var_norm[:, 3:6].mean(axis=1))

    def test_mean_rgb_var_is_mean_of_colour_variances(self, interpolating_model):
        model, _ = interpolating_model
        rng = np.random.default_rng(4)
        candidates = [dn.PixelSample(float(u), float(v)) for u, v in rng.random((20, 2))]
        preds = dn.infer_dense(model, candidates)
        expected = (preds.var6[:, 3] + preds.var6[:, 4] + preds.var6[:, 5]) / 3.0
        assert np.max(np.abs(preds.mean_rgb_var - expected)) <= 1e-12

    def test_depth_model_requires_depth_candidates(self, interpolating_model):
        model, _ = interpolating_model
        ds3 = make_scene("smooth", 10, seed=1)
        X3 = np.column_stack([ds3.input_matrix(), np.ones(10)])
        model3 = gp.TrainedGP.fit(
            X3, model.Z[:10], list(model.configs), model.normalizer, 400, 400, jitter=1e-8
        )
        with pytest.raises(errors.DimensionMismatch):
            dn.infer_dense(model3, [dn.PixelSample(0.5, 0.5)])


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
        assert out.pixels == preds.pixels
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
        assert np.array_equal(cloud.positions, sparse.positions().astype(np.float32))
        assert np.array_equal(cloud.colors, sparse.colors())

    def test_sparse_points_preserved_bit_exactly(self, sparse):
        preds = predictions_from_variances([1.0])
        preds = dn.filter_by_variance(preds, dn.FilterConfig(quantile=1.0))
        cloud = dn.merge_clouds(sparse, preds)
        assert np.array_equal(cloud.positions[:6], sparse.positions().astype(np.float32))
        assert np.array_equal(cloud.colors[:6], sparse.colors())

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
