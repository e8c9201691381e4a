"""Chamfer distance, RMSE, R2, and held-out evaluation."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gpgs import errors, gp, metrics
from oracles import chamfer_oracle
from synthdata import dataset_from_arrays, make_scene, smooth_targets


class TestChamfer:
    def test_identical_sets(self):
        P = np.random.default_rng(0).random((10, 3))
        assert metrics.chamfer_distance(P, P) == 0.0

    def test_singletons(self):
        assert metrics.chamfer_distance([[0, 0, 0]], [[1, 0, 0]]) == pytest.approx(2.0)

    def test_hand_worked_asymmetric_sizes(self):
        P = [[0, 0, 0], [2, 0, 0]]
        G = [[1, 0, 0]]
        assert metrics.chamfer_distance(P, G) == pytest.approx(2.0)

    def test_symmetry_exact(self):
        rng = np.random.default_rng(1)
        P, G = rng.random((30, 3)), rng.random((40, 3))
        assert metrics.chamfer_distance(P, G) == metrics.chamfer_distance(G, P)

    def test_euclidean_not_squared(self):
        # with squared distances this would be 8, not 4
        assert metrics.chamfer_distance([[0, 0, 0]], [[2, 0, 0]]) == pytest.approx(4.0)

    def test_uniform_sets_match_oracle(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            P = rng.random((int(rng.integers(1, 60)), 3))
            G = rng.random((int(rng.integers(1, 60)), 3))
            assert abs(metrics.chamfer_distance(P, G) - chamfer_oracle(P, G)) <= 1e-12

    def test_normal_sets_match_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            P = rng.normal(scale=rng.uniform(0.1, 10), size=(int(rng.integers(1, 200)), 3))
            G = rng.normal(scale=rng.uniform(0.1, 10), size=(int(rng.integers(1, 200)), 3))
            assert abs(metrics.chamfer_distance(P, G) - chamfer_oracle(P, G)) <= 1e-12

    def test_degenerate_sets_match_oracle(self):
        P = np.zeros((5, 3))
        G = np.ones((3, 3))
        assert metrics.chamfer_distance(P, G) == pytest.approx(2 * math.sqrt(3.0))
        assert abs(metrics.chamfer_distance(P, G) - chamfer_oracle(P, G)) <= 1e-12

    def test_clustered_sets_match_oracle(self):
        rng = np.random.default_rng(4)
        centers = rng.uniform(-100, 100, size=(4, 3))
        P = np.concatenate([c + 0.01 * rng.standard_normal((30, 3)) for c in centers])
        G = np.concatenate([c + 0.01 * rng.standard_normal((20, 3)) for c in centers[:2]])
        assert abs(metrics.chamfer_distance(P, G) - chamfer_oracle(P, G)) <= 1e-12

    def test_translation_invariance(self):
        rng = np.random.default_rng(5)
        P, G = rng.random((25, 3)), rng.random((35, 3))
        shift = np.array([10.0, -3.0, 7.5])
        a = metrics.chamfer_distance(P, G)
        b = metrics.chamfer_distance(P + shift, G + shift)
        assert abs(a - b) <= 1e-9

    def test_empty_set_rejected(self):
        with pytest.raises(errors.EmptySet):
            metrics.chamfer_distance(np.zeros((0, 3)), np.ones((2, 3)))

    def test_non_3d_rejected(self):
        with pytest.raises(errors.ShapeMismatch):
            metrics.chamfer_distance([[0.0, 1.0]], [[1.0, 0.0]])


class TestRmse:
    def test_perfect_prediction(self):
        assert metrics.rmse([1.0, 2.0], [1.0, 2.0]) == 0.0

    def test_hand_worked(self):
        assert metrics.rmse([0.0, 0.0], [3.0, 4.0]) == pytest.approx(math.sqrt(12.5))

    def test_homogeneity(self):
        rng = np.random.default_rng(6)
        pred, truth = rng.random(20), rng.random(20)
        base = metrics.rmse(pred, truth)
        scaled = metrics.rmse(truth + 2.5 * (pred - truth), truth)
        assert scaled == pytest.approx(2.5 * base, rel=1e-12)

    def test_2d_entrywise(self):
        pred = np.zeros((2, 3))
        truth = np.ones((2, 3))
        assert metrics.rmse(pred, truth) == pytest.approx(1.0)

    def test_shape_mismatch(self):
        with pytest.raises(errors.ShapeMismatch):
            metrics.rmse([1.0], [1.0, 2.0])


class TestR2:
    def test_perfect(self):
        assert metrics.r2_score([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == pytest.approx(1.0)

    def test_mean_prediction_scores_zero(self):
        truth = [0.0, 1.0, 2.0]
        assert metrics.r2_score([1.0, 1.0, 1.0], truth) == pytest.approx(0.0)

    def test_hand_worked_negative(self):
        assert metrics.r2_score([0.0, 0.0, 0.0], [0.0, 1.0, 2.0]) == pytest.approx(-1.5)

    def test_constant_truth_rejected(self):
        with pytest.raises(errors.ConstantTruth):
            metrics.r2_score([1.0, 2.0], [3.0, 3.0])

    @given(
        a=st.floats(-10, 10).filter(lambda x: abs(x) > 1e-3),
        b=st.floats(-10, 10),
        seed=st.integers(0, 50),
    )
    @settings(max_examples=60, deadline=None)
    def test_affine_invariance(self, a, b, seed):
        rng = np.random.default_rng(seed)
        truth = rng.random(12)
        truth[0] += 1.0  # guarantee non-constant
        pred = truth + 0.3 * rng.standard_normal(12)
        base = metrics.r2_score(pred, truth)
        mapped = metrics.r2_score(a * pred + b, a * truth + b)
        assert mapped == pytest.approx(base, rel=1e-9, abs=1e-9)


class TestEvaluateHoldout:
    def test_interpolating_model_scores_perfectly(self):
        ds = make_scene("smooth", 50, seed=0, noise=0.0)
        X, Y = ds.inputs, ds.targets
        normalizer = gp.OutputNormalizer.fit(Y)
        configs = [gp.KernelConfig("matern", 0.5, 0.0, math.log(0.2), -700.0)] * 6
        model = gp.TrainedGP.fit(
            X, normalizer.normalize(Y), configs, normalizer, 400, 400, jitter=0.0
        )
        from dataclasses import replace

        test = replace(ds, inputs=ds.inputs[:20], targets=ds.targets[:20])
        report = metrics.evaluate_holdout(model, test)
        assert report.bundle.r2 == pytest.approx(1.0, abs=1e-6)
        assert report.bundle.rmse == pytest.approx(0.0, abs=1e-6)
        assert report.bundle.chamfer == pytest.approx(0.0, abs=1e-6)
        assert report.bundle.sample_count == 20
        assert len(report.per_output) == 6

    def test_constant_output_reported_absent(self):
        rng = np.random.default_rng(7)
        uv = rng.random((30, 2))
        targets = smooth_targets(uv)
        targets[:, 5] = 0.5  # constant blue channel
        ds = dataset_from_arrays(uv, targets)
        model = gp.train_gp(ds, gp.default_kernel(), gp.TrainConfig(iterations=5))
        report = metrics.evaluate_holdout(model, ds)
        blue = report.per_output[5]
        assert blue.name == "b"
        assert blue.r2 is None
        assert all(om.r2 is not None for om in report.per_output[:5])

    def test_empty_test_set_rejected(self):
        ds = make_scene("smooth", 10, seed=1)
        model = gp.train_gp(ds, gp.default_kernel(), gp.TrainConfig(iterations=2))
        from dataclasses import replace

        empty = replace(ds, inputs=ds.inputs[:0], targets=ds.targets[:0])
        with pytest.raises(errors.EmptyDataset):
            metrics.evaluate_holdout(model, empty)
