"""Kernels, marginal likelihood, gradients, training, and posterior."""

import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dpotrf

from gpgs import errors, gp, metrics, model_io, sfm_io
from oracles import (
    finite_difference_gradient,
    fit_outputs_per_group,
    masked_trace_gradient,
    matern_reference,
    posterior_oracle,
)
from synthdata import dataset_from_arrays, make_scene, smooth_targets

NEAR_ZERO_NOISE = -700.0  # exp(-700) ~ 1e-304, numerically a zero noise floor


# ---------------------------------------------------------------------------
# kernel_value
# ---------------------------------------------------------------------------

class TestKernelValue:
    @pytest.mark.parametrize("name", ["log_signal_var", "log_lengthscale", "log_noise_var"])
    def test_overflowing_log_parameter_rejected(self, name):
        with pytest.raises(ValueError, match=f"{name}=800.0 gives a non-finite parameter"):
            gp.KernelConfig(**{name: 800.0})

    def test_at_zero_distance_equals_signal_var(self):
        cfg = gp.KernelConfig("matern", 0.5, math.log(2.5), 0.0, -5.0)
        assert gp.kernel_value(cfg, [1.0, 2.0], [1.0, 2.0]) == pytest.approx(2.5)

    def test_matern_half_closed_form(self):
        cfg = gp.KernelConfig("matern", 0.5, 0.0, 0.0, -5.0)
        assert gp.kernel_value(cfg, [0.0], [1.0]) == pytest.approx(math.exp(-1), abs=1e-12)

    def test_matern_three_halves_closed_form(self):
        cfg = gp.KernelConfig("matern", 1.5, 0.0, 0.0, -5.0)
        expected = (1 + math.sqrt(3)) * math.exp(-math.sqrt(3))
        assert gp.kernel_value(cfg, [0.0], [1.0]) == pytest.approx(expected, abs=1e-12)

    @pytest.mark.parametrize("nu", [0.5, 1.5, 2.5])
    def test_matches_bessel_reference(self, nu):
        rng = np.random.default_rng(7)
        cfg = gp.KernelConfig("matern", nu, math.log(1.7), math.log(0.4), -5.0)
        for d in rng.uniform(0.01, 3.0, size=10):
            got = gp.kernel_value(cfg, [0.0], [d])
            want = matern_reference(nu, 1.7, 0.4, d)
            assert got == pytest.approx(want, abs=1e-10)

    def test_rbf(self):
        cfg = gp.KernelConfig("rbf", None, 0.0, math.log(2.0), -5.0)
        assert gp.kernel_value(cfg, [0.0], [1.0]) == pytest.approx(math.exp(-1 / 8), abs=1e-12)

    def test_dimension_mismatch(self):
        cfg = gp.default_kernel()
        with pytest.raises(errors.DimensionMismatch):
            gp.kernel_value(cfg, [0.0, 1.0], [0.0])

    @given(
        ax=st.floats(-5, 5), ay=st.floats(-5, 5),
        bx=st.floats(-5, 5), by=st.floats(-5, 5),
        nu=st.sampled_from([0.5, 1.5, 2.5]),
    )
    @settings(max_examples=60, deadline=None)
    def test_symmetry_exact(self, ax, ay, bx, by, nu):
        cfg = gp.KernelConfig("matern", nu, 0.2, -0.5, -5.0)
        assert gp.kernel_value(cfg, [ax, ay], [bx, by]) == gp.kernel_value(
            cfg, [bx, by], [ax, ay]
        )

    def test_strictly_decreasing_in_distance(self):
        for family, nu in [("matern", 0.5), ("matern", 1.5), ("matern", 2.5), ("rbf", None)]:
            cfg = gp.KernelConfig(family, nu, 0.0, math.log(0.3), -5.0)
            dists = np.linspace(0.0, 2.0, 40)
            values = [gp.kernel_value(cfg, [0.0], [d]) for d in dists]
            assert all(a > b for a, b in zip(values, values[1:]))


# ---------------------------------------------------------------------------
# gram_matrix
# ---------------------------------------------------------------------------

class TestGramMatrix:
    def test_identical_inputs(self):
        cfg = gp.KernelConfig("matern", 0.5, 0.0, 0.0, math.log(0.1))
        K = gp.gram_matrix(cfg, [[0.0, 0.0], [0.0, 0.0]])
        assert np.allclose(K, [[1.1, 1.0], [1.0, 1.1]], atol=1e-15)

    def test_single_input(self):
        cfg = gp.KernelConfig("matern", 0.5, math.log(2.0), 0.0, math.log(0.5))
        K = gp.gram_matrix(cfg, [[3.0, 4.0]], jitter=0.25)
        assert K == pytest.approx(np.array([[2.75]]))

    def test_matches_entrywise_oracle(self):
        rng = np.random.default_rng(3)
        X = rng.random((3, 2))
        cfg = gp.KernelConfig("matern", 2.5, 0.1, -1.0, -3.0)
        K = gp.gram_matrix(cfg, X, jitter=1e-8)
        for a in range(3):
            for b in range(3):
                want = gp.kernel_value(cfg, X[a], X[b])
                if a == b:
                    want += cfg.noise_var + 1e-8
                assert K[a, b] == pytest.approx(want, abs=1e-14)

    def test_symmetric_and_psd(self):
        rng = np.random.default_rng(11)
        X = rng.random((20, 2))
        cfg = gp.KernelConfig("matern", 1.5, 0.0, -1.5, -8.0)
        K = gp.gram_matrix(cfg, X)
        assert np.max(np.abs(K - K.T)) <= 1e-12
        for _ in range(20):
            v = rng.standard_normal(20)
            v /= np.linalg.norm(v)
            assert v @ K @ v >= -1e-9

    def test_diagonal_value(self):
        cfg = gp.KernelConfig("rbf", None, math.log(3.0), 0.0, math.log(0.2))
        K = gp.gram_matrix(cfg, np.random.default_rng(0).random((4, 2)), jitter=0.01)
        assert np.allclose(np.diag(K), 3.0 + 0.2 + 0.01)


# ---------------------------------------------------------------------------
# nll
# ---------------------------------------------------------------------------

class TestNll:
    def test_unit_gram_zero_target(self):
        cfg = gp.KernelConfig("matern", 0.5, 0.0, 0.0, NEAR_ZERO_NOISE)
        assert gp.nll(cfg, [[0.0]], [0.0]) == pytest.approx(0.9189385332046727, abs=1e-9)

    def test_unit_gram_target_two(self):
        cfg = gp.KernelConfig("matern", 0.5, 0.0, 0.0, NEAR_ZERO_NOISE)
        assert gp.nll(cfg, [[0.0]], [2.0]) == pytest.approx(2.9189385332046727, abs=1e-9)

    def test_l2_term_is_additive(self):
        rng = np.random.default_rng(5)
        X = rng.random((6, 2))
        y = rng.standard_normal(6)
        cfg = gp.KernelConfig("matern", 1.5, 0.3, -1.2, -2.0)
        theta_sq = float(cfg.log_params() @ cfg.log_params())
        without = gp.nll(cfg, X, y, l2_weight=0.0)
        with_l2 = gp.nll(cfg, X, y, l2_weight=1e-6)
        assert with_l2 - without == pytest.approx(1e-6 * theta_sq, rel=1e-9)


# ---------------------------------------------------------------------------
# nll_gradient
# ---------------------------------------------------------------------------

class TestNllGradient:
    @pytest.mark.parametrize(
        "family,nu", [("matern", 0.5), ("matern", 1.5), ("matern", 2.5), ("rbf", None)]
    )
    def test_matches_finite_differences(self, family, nu):
        rng = np.random.default_rng(hash((family, nu)) % 2**32)
        for _ in range(6):
            n = int(rng.integers(2, 9))
            X = rng.random((n, 2))
            y = rng.standard_normal(n)
            cfg = gp.KernelConfig(
                family, nu, rng.uniform(-1, 1), rng.uniform(-2, 0.5), rng.uniform(-4, -1)
            )
            grad = gp.nll_gradient(cfg, X, y, l2_weight=1e-6)
            fd = finite_difference_gradient(cfg, X, y, 1e-6)
            rel = np.abs(grad - fd) / np.maximum(1e-12, np.abs(fd))
            assert rel.max() <= 1e-4

    @pytest.mark.parametrize(
        "family,nu", [("matern", 0.5), ("matern", 1.5), ("matern", 2.5), ("rbf", None)]
    )
    @pytest.mark.parametrize("seed", [0, 1, 2, 3])
    def test_bit_equal_to_masked_trace(self, family, nu, seed):
        # the lengthscale trace sums the lower triangle of the inverse once
        # and doubles the sum, since dR has a zero diagonal
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 60))
        X = rng.random((n, 2))
        y = rng.standard_normal(n)
        cfg = gp.KernelConfig(
            family, nu, rng.uniform(-1, 1), rng.uniform(-3, 0.5), rng.uniform(-8, -1)
        )
        want = masked_trace_gradient(cfg, X, y, 1e-6, gp.TRAIN_JITTER)
        assert np.array_equal(gp.nll_gradient(cfg, X, y, 1e-6, gp.TRAIN_JITTER), want)

    def test_l2_weight_shifts_gradient_linearly(self):
        rng = np.random.default_rng(9)
        X = rng.random((5, 2))
        y = rng.standard_normal(5)
        cfg = gp.KernelConfig("matern", 0.5, 0.4, -1.0, -2.5)
        delta = 1e-3
        g0 = gp.nll_gradient(cfg, X, y, l2_weight=1e-6)
        g1 = gp.nll_gradient(cfg, X, y, l2_weight=1e-6 + delta)
        assert g1 - g0 == pytest.approx(2 * delta * cfg.log_params(), rel=1e-9)

    def test_gradient_vanishes_at_converged_optimum(self):
        # find a stationary point by gradient descent, then polish and check
        rng = np.random.default_rng(2)
        X = rng.uniform(0, 1, size=(25, 2))
        y = np.sin(4 * X[:, 0]) + 0.05 * rng.standard_normal(25)
        cfg = gp.default_kernel()
        theta = cfg.log_params()
        for _ in range(2000):
            theta = theta - 0.01 * gp.nll_gradient(cfg.with_log_params(theta), X, y)
        from scipy.optimize import minimize

        result = minimize(
            lambda th: gp.nll(cfg.with_log_params(th), X, y),
            theta,
            jac=lambda th: gp.nll_gradient(cfg.with_log_params(th), X, y),
            method="L-BFGS-B",
        )
        grad_norm = np.linalg.norm(gp.nll_gradient(cfg.with_log_params(result.x), X, y))
        assert grad_norm <= 1e-3


class TestBlockObjective:
    """One theta for the k columns of an (n, k) target block: the loss is
    the sum of the k single-column losses, with the L2 penalty counted once."""

    KERNELS = [("matern", 0.5), ("matern", 1.5), ("matern", 2.5), ("rbf", None)]
    L2 = 1e-3

    @staticmethod
    def problem(family, nu, seed, k=3):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 30))
        X = rng.random((n, 2))
        Y = rng.standard_normal((n, k))
        cfg = gp.KernelConfig(
            family, nu, rng.uniform(-1, 1), rng.uniform(-2, 0.5), rng.uniform(-6, -1)
        )
        return cfg, X, Y

    @pytest.mark.parametrize("family,nu", KERNELS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_loss_is_sum_of_column_losses(self, family, nu, seed):
        cfg, X, Y = self.problem(family, nu, seed)
        theta = cfg.log_params()
        block = gp.nll(cfg, X, Y, self.L2, gp.TRAIN_JITTER)
        columns = sum(gp.nll(cfg, X, Y[:, c], self.L2, gp.TRAIN_JITTER) for c in range(3))
        penalty = self.L2 * float(theta @ theta)
        assert block == pytest.approx(columns - 2 * penalty, rel=1e-12, abs=1e-12)

    @pytest.mark.parametrize("family,nu", KERNELS)
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_gradient_is_sum_of_column_gradients(self, family, nu, seed):
        cfg, X, Y = self.problem(family, nu, seed)
        theta = cfg.log_params()
        block = gp.nll_gradient(cfg, X, Y, self.L2, gp.TRAIN_JITTER)
        columns = sum(
            gp.nll_gradient(cfg, X, Y[:, c], self.L2, gp.TRAIN_JITTER) for c in range(3)
        )
        want = columns - 2 * (2 * self.L2 * theta)
        np.testing.assert_allclose(block, want, rtol=1e-10, atol=1e-10 * np.abs(columns).max())

    @pytest.mark.parametrize("family,nu", KERNELS)
    def test_gradient_matches_finite_differences(self, family, nu):
        for seed in range(4):
            cfg, X, Y = self.problem(family, nu, 10 + seed)
            grad = gp.nll_gradient(cfg, X, Y, self.L2)
            fd = finite_difference_gradient(cfg, X, Y, self.L2)
            rel = np.abs(grad - fd) / np.maximum(1e-12, np.abs(fd))
            assert rel.max() <= 1e-4

    @pytest.mark.parametrize("family,nu", KERNELS)
    def test_one_column_block_is_the_column_bit_for_bit(self, family, nu):
        cfg, X, Y = self.problem(family, nu, 3, k=1)
        assert gp.nll(cfg, X, Y, self.L2) == gp.nll(cfg, X, Y[:, 0], self.L2)
        assert np.array_equal(
            gp.nll_gradient(cfg, X, Y, self.L2), gp.nll_gradient(cfg, X, Y[:, 0], self.L2)
        )


# ---------------------------------------------------------------------------
# Jitter escalation
# ---------------------------------------------------------------------------

class TestJitterEscalation:
    def test_duplicate_inputs_escalate_and_succeed(self):
        cfg = gp.KernelConfig("matern", 0.5, 0.0, 0.0, NEAR_ZERO_NOISE)
        X = np.zeros((3, 2))
        Z = np.array([[0.1], [0.2], [0.3]])
        model = gp.TrainedGP.fit(X, Z, [cfg], gp.OutputNormalizer.identity(1), 1, 1, jitter=0.0)
        assert 0.0 < model.jitters[0] <= gp.MAX_JITTER

    @pytest.mark.parametrize("start", [-10.0, 0.0])
    def test_escalation_from_zero_or_below_starts_at_the_floor(self, start):
        K = np.empty((1, 1), order="F")
        tried = []

        def fill(j):
            tried.append(j)
            assert len(tried) <= 20, "the escalation does not end"
            K[0, 0] = -1.0  # never positive definite

        with pytest.raises(errors.NotPositiveDefinite):
            gp._cholesky_in_place(K, fill, start)
        assert tried[:2] == [start, 1e-10]
        assert len(tried) == 10 and tried[-1] == pytest.approx(gp.MAX_JITTER)

    def test_hopeless_matrix_raises(self):
        cfg = gp.KernelConfig("matern", 0.5, 700.0, 0.0, NEAR_ZERO_NOISE)
        X = np.zeros((2, 2))
        Z = np.array([[0.1], [0.2]])
        with pytest.raises(errors.NotPositiveDefinite) as exc_info:
            gp.TrainedGP.fit(X, Z, [cfg], gp.OutputNormalizer.identity(1), 1, 1, jitter=0.0)
        assert exc_info.value.jitter == pytest.approx(gp.MAX_JITTER)


# ---------------------------------------------------------------------------
# train_gp
# ---------------------------------------------------------------------------

class TestTrainGp:
    def test_loss_decreases_on_smooth_scene(self):
        ds = make_scene("smooth", 150, seed=0, noise=0.01)
        model = gp.train_gp(ds, gp.default_kernel(), gp.TrainConfig(iterations=150))
        for curve in model.loss_curves:
            assert min(curve) < curve[0]

    def test_default_config_fits_640_smooth_points(self):
        # 640 training points: past where a fixed step size used to
        # overshoot and leave every lengthscale on its bound (r2 < 0).
        split = sfm_io.split_dataset(make_scene("smooth", 800, seed=0), 0.8, seed=0)
        assert len(split.train) == 640
        model = gp.train_gp(split.train, gp.default_kernel(), gp.TrainConfig())
        assert metrics.evaluate_holdout(model, split.test).bundle.r2 > 0.99
        lower = [-gp.LOG_PARAM_BOUND, -gp.LOG_PARAM_BOUND, math.log(gp.NOISE_VAR_FLOOR)]
        train = gp.TrainConfig()
        for cfg in model.configs:
            theta = cfg.log_params()
            assert np.all((theta > lower) & (theta < gp.LOG_PARAM_BOUND)), theta
        for outputs, curve in zip(gp.OUTPUT_GROUPS, model.loss_curves):
            cfg = model.configs[outputs[0]]
            assert all(model.configs[j] == cfg for j in outputs)
            # converged inside the budget, to a stationary point of the loss
            # the group minimises (of order 1e3 per output)
            assert len(curve) < train.iterations
            grad = gp.nll_gradient(
                cfg, model.X, model.Z[:, outputs], train.l2_weight, gp.TRAIN_JITTER
            )
            assert np.abs(grad).max() < 0.1

    @pytest.mark.parametrize("budget", [1, 2, 5])
    def test_exact_evaluation_budget(self, monkeypatch, budget):
        calls = []
        original = gp._objective

        def counted(theta, *args, **kwargs):
            calls.append([y[0].tolist() for y in kwargs["ys"]])
            return original(theta, *args, **kwargs)

        monkeypatch.setattr(gp, "_objective", counted)
        ds = make_scene("smooth", 60, seed=1)
        kernel = gp.default_kernel()
        cfg = gp.TrainConfig(iterations=budget)
        model = gp.train_gp(ds, kernel, cfg)
        monkeypatch.setattr(gp, "_objective", original)
        # the groups share their first evaluation, at their common start, then
        # train one after another, each on its own block of target columns
        assert gp.OUTPUT_GROUPS == ((0,), (1,), (2,), (3, 4, 5))
        rows = [model.Z[0, list(outputs)].tolist() for outputs in gp.OUTPUT_GROUPS]
        assert calls == [rows] + [[row] for row in rows for _ in range(budget - 1)]
        assert len(model.loss_curves) == len(gp.OUTPUT_GROUPS)
        for outputs, curve in zip(gp.OUTPUT_GROUPS, model.loss_curves):
            trained = model.configs[outputs[0]]
            assert all(model.configs[j] == trained for j in outputs)
            assert len(curve) == budget
            loss = gp.nll(
                trained, model.X, model.Z[:, outputs], cfg.l2_weight, gp.TRAIN_JITTER
            )
            assert loss == min(curve)
            if budget == 1:
                assert np.array_equal(trained.log_params(), kernel.log_params())

    @pytest.mark.parametrize("budget", [1, 2, 5, 40])
    @pytest.mark.parametrize("family,nu", [("matern", 0.5), ("matern", 1.5), ("matern", 2.5),
                                           ("rbf", None)])
    def test_loss_only_last_evaluation_changes_nothing(self, monkeypatch, family, nu, budget):
        ds = make_scene("smooth", 60, seed=1)
        kernel = gp.default_kernel(family, nu)
        cfg = gp.TrainConfig(iterations=budget)
        fast = gp.train_gp(ds, kernel, cfg)
        original = gp._objective

        def always_grad(theta, *args, **kwargs):
            return original(theta, *args, **{**kwargs, "want_grad": True})

        monkeypatch.setattr(gp, "_objective", always_grad)
        full = gp.train_gp(ds, kernel, cfg)
        for a, b in zip(fast.configs, full.configs):
            assert np.array_equal(a.log_params(), b.log_params())
        for a, b in zip(fast.loss_curves, full.loss_curves):
            assert np.array_equal(a, b)
        for a, b in zip(fast.alphas, full.alphas):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("budget", [1, 3, 200])
    def test_gradient_skipped_only_on_spending_evaluation(self, monkeypatch, budget):
        wants = []
        original = gp._objective

        def recorded(theta, *args, **kwargs):
            wants.append(kwargs["want_grad"])
            return original(theta, *args, **kwargs)

        monkeypatch.setattr(gp, "_objective", recorded)
        model = gp.train_gp(make_scene("smooth", 60, seed=1), gp.default_kernel(),
                            gp.TrainConfig(iterations=budget))
        assert len(model.loss_curves) == len(gp.OUTPUT_GROUPS)
        # the first evaluation, at the groups' common start, is every group's
        shared, *wants = wants
        assert len(wants) == sum(map(len, model.loss_curves)) - len(gp.OUTPUT_GROUPS)
        for curve in model.loss_curves:
            used, wants = [shared] + wants[:len(curve) - 1], wants[len(curve) - 1:]
            spent = len(curve) == budget
            assert used == [True] * (len(curve) - spent) + [False] * spent
        if budget == 200:  # the smooth scene converges well inside this budget
            assert all(len(curve) < budget for curve in model.loss_curves)

    def test_budget_of_one_never_inverts(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("dpotri called for a gradient nothing reads")

        monkeypatch.setattr(gp, "dpotri", refuse)
        model = gp.train_gp(make_scene("smooth", 60, seed=1), gp.default_kernel(),
                            gp.TrainConfig(iterations=1))
        assert [len(curve) for curve in model.loss_curves] == [1] * len(gp.OUTPUT_GROUPS)

    def test_zero_iterations_rejected(self):
        with pytest.raises(ValueError, match="iterations"):
            gp.TrainConfig(iterations=0)

    @pytest.mark.parametrize("points", [0, -3])
    def test_max_train_points_below_one_rejected(self, points):
        with pytest.raises(ValueError, match="max_train_points must be >= 1"):
            gp.TrainConfig(max_train_points=points)

    def test_deterministic_given_seed(self):
        ds = make_scene("smooth", 60, seed=1)
        cfg = gp.TrainConfig(iterations=40, seed=7)
        a = gp.train_gp(ds, gp.default_kernel(), cfg)
        b = gp.train_gp(ds, gp.default_kernel(), cfg)
        for ca, cb in zip(a.configs, b.configs):
            assert ca == cb
        assert len(a.loss_curves) == len(b.loss_curves) == len(gp.OUTPUT_GROUPS)
        for ca, cb in zip(a.loss_curves, b.loss_curves):
            assert np.array_equal(ca, cb)

    def test_empty_dataset(self):
        ds = dataset_from_arrays(np.zeros((0, 2)), np.zeros((0, 6)))
        with pytest.raises(errors.EmptyDataset):
            gp.train_gp(ds, gp.default_kernel(), gp.TrainConfig(iterations=1))

    def test_max_train_points_subsample(self):
        ds = make_scene("smooth", 80, seed=2)
        cfg = gp.TrainConfig(iterations=2, max_train_points=30, seed=0)
        model = gp.train_gp(ds, gp.default_kernel(), cfg)
        assert model.X.shape == (30, 2)
        again = gp.train_gp(ds, gp.default_kernel(), cfg)
        assert np.array_equal(model.X, again.X)

    def test_alpha_solves_linear_system(self):
        ds = make_scene("smooth", 50, seed=3)
        model = gp.train_gp(ds, gp.default_kernel(), gp.TrainConfig(iterations=30))
        for j, cfg in enumerate(model.configs):
            K = gp.gram_matrix(cfg, model.X, jitter=model.jitters[j])
            z = model.Z[:, j]
            residual = np.linalg.norm(K @ model.alphas[j] - z, np.inf)
            assert residual <= 1e-6 * max(np.linalg.norm(z, np.inf), 1e-12)

    def test_noise_variance_respects_floor(self):
        ds = make_scene("smooth", 40, seed=4, noise=0.0)
        model = gp.train_gp(ds, gp.default_kernel(), gp.TrainConfig(iterations=60))
        for cfg in model.configs:
            assert cfg.noise_var >= gp.NOISE_VAR_FLOOR * (1 - 1e-12)


class TestFactorHandover:
    """train_gp keeps the Cholesky factors training computed at the kept
    hyperparameters instead of factoring every Gram matrix again."""

    KERNELS = [("matern", 0.5), ("matern", 1.5), ("matern", 2.5), ("rbf", None)]

    @staticmethod
    def count_dpotrf(monkeypatch):
        calls = []
        original = gp.dpotrf

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gp, "dpotrf", counted)
        return calls

    @pytest.mark.parametrize("budget", [1, 5, 1000])
    @pytest.mark.parametrize("family,nu", KERNELS)
    def test_bit_equal_to_refit(self, family, nu, budget):
        model = gp.train_gp(make_scene("smooth", 60, seed=1), gp.default_kernel(family, nu),
                            gp.TrainConfig(iterations=budget))
        if budget == 1000:  # converged: every kept factor is factored once more
            assert all(len(curve) < budget for curve in model.loss_curves)
        refit = gp.TrainedGP.fit(model.X, model.Z, model.configs, model.normalizer,
                                 model.width, model.height, jitter=model.jitters)
        assert refit.jitters == model.jitters
        for a, b in zip(model.factors, refit.factors):
            assert np.array_equal(np.tril(a), np.tril(b))
        for a, b in zip(model.alphas, refit.alphas):
            assert np.array_equal(a, b)

    def test_budget_of_one_factors_once(self, monkeypatch):
        calls = self.count_dpotrf(monkeypatch)
        model = gp.train_gp(make_scene("smooth", 60, seed=1), gp.default_kernel(),
                            gp.TrainConfig(iterations=1))
        # every group evaluated and kept the one start: one factor serves all
        assert len(calls) == 1
        assert model.groups == [list(range(6))]

    @pytest.mark.parametrize("budget", [5, 1000])
    def test_refactors_only_when_the_kept_factor_is_gone(self, monkeypatch, budget):
        calls = self.count_dpotrf(monkeypatch)
        model = gp.train_gp(make_scene("smooth", 60, seed=1), gp.default_kernel(),
                            gp.TrainConfig(iterations=budget))
        assert model.jitters == (gp.TRAIN_JITTER,) * 6  # no escalation retries
        # K still holds the factor only when the last evaluation was the
        # loss-only one that spent the budget, and it was kept; the four
        # groups' first evaluations, at one start, are one
        held = sum(
            len(curve) == budget and int(np.argmin(curve)) == len(curve) - 1
            for curve in model.loss_curves
        )
        shared = len(gp.OUTPUT_GROUPS) - 1
        assert len(calls) == (
            sum(map(len, model.loss_curves)) - shared + len(gp.OUTPUT_GROUPS) - held
        )


class TestSharedFirstEvaluation:
    """Groups that start from one theta share their first evaluation, and
    every result is bit for bit that of fitting each group alone
    (oracles.fit_outputs_per_group)."""

    KERNELS = [("matern", 0.5), ("matern", 1.5), ("matern", 2.5), ("rbf", None)]
    A, B, C = [0.1, -1.0, -8.0], [0.3, -1.3, -6.0], [-0.2, -0.8, -9.0]
    STARTS = {  # log-parameters per output, None: the kernel's
        "cold": None,
        "distinct": [A, B, C, [0.2, -1.1, -7.0], [0.2, -1.1, -7.0], [0.2, -1.1, -7.0]],
        "x=y=rgb": [A, A, B, A, A, A],
        "x=y,z=rgb": [A, A, B, B, B, B],
        "clipped": [[25.0, -1.0, -30.0]] * 6,  # outside the bounds, all equal
    }

    @staticmethod
    def fits(monkeypatch, family, nu, budget, kind):
        """(train_gp, per-group oracle) models and their dpotrf counts."""
        kernel = gp.default_kernel(family, nu)
        logs = TestSharedFirstEvaluation.STARTS[kind]
        starts = None if logs is None else [kernel.with_log_params(t) for t in logs]
        ds, cfg = make_scene("smooth", 60, seed=1), gp.TrainConfig(iterations=budget)
        calls = TestFactorHandover.count_dpotrf(monkeypatch)
        models, counts = [], []
        for fit in (gp._fit_outputs, fit_outputs_per_group):
            monkeypatch.setattr(gp, "_fit_outputs", fit)
            calls.clear()
            models.append(gp.train_gp(ds, kernel, cfg, starts=starts))
            counts.append(len(calls))
        return models, counts

    @pytest.mark.parametrize("kind", list(STARTS))
    @pytest.mark.parametrize("budget", [1, 2, 5, 1000])
    @pytest.mark.parametrize("family,nu", KERNELS)
    def test_bit_equal_to_per_group_fits(self, monkeypatch, family, nu, budget, kind):
        (shared, alone), _ = self.fits(monkeypatch, family, nu, budget, kind)
        if budget == 1000:  # converged
            assert all(len(curve) < budget for curve in alone.loss_curves)
        assert shared.configs == alone.configs
        assert shared.jitters == alone.jitters
        for name in ("loss_curves", "factors", "alphas"):
            for a, b in zip(getattr(shared, name), getattr(alone, name), strict=True):
                assert np.array_equal(a, b), name

    @pytest.mark.parametrize("budget", [1, 2, 5, 1000])
    @pytest.mark.parametrize("family,nu", KERNELS)
    def test_cold_fit_factors_the_start_once(self, monkeypatch, family, nu, budget):
        (_, alone), (count, per_group) = self.fits(monkeypatch, family, nu, budget, "cold")
        evaluations = sum(map(len, alone.loss_curves))
        refactors = per_group - evaluations
        if budget == 1:
            assert count == 1 and refactors == 0
        else:
            # the four groups' first evaluations are one
            assert count == evaluations - 3 + refactors

    def test_distinct_starts_share_nothing(self, monkeypatch):
        _, (count, per_group) = self.fits(monkeypatch, "matern", 0.5, 5, "distinct")
        assert count == per_group


class TestStarts:
    """Warm starts: train_gp's starts."""

    @staticmethod
    def record_fits(monkeypatch):
        """(start, first evaluated theta) of every L-BFGS-B fit, in order."""
        fits = []
        original = gp._minimize_within

        def recorded(fun, theta0, *args):
            evaluated = []

            def spy(theta, **kwargs):
                evaluated.append(np.array(theta))
                return fun(theta, **kwargs)

            theta, curve = original(spy, theta0, *args)
            fits.append((np.array(theta0), evaluated[0]))
            return theta, curve

        monkeypatch.setattr(gp, "_minimize_within", recorded)
        return fits

    @staticmethod
    def assert_as_good(fit, cold, test):
        """Minimum losses within 1e-3 (relative) of the cold fit's, and a held-out
        r2 not lower beyond 1e-6, the scale at which fits to one optimum differ."""
        for a, b in zip(fit.loss_curves, cold.loss_curves):
            assert abs(a.min() - b.min()) <= 1e-3 * abs(b.min())
        r2 = [metrics.evaluate_holdout(m, test).bundle.r2 for m in (fit, cold)]
        assert r2[0] >= r2[1] - 1e-6

    def test_each_output_starts_from_its_config(self, monkeypatch):
        fits = self.record_fits(monkeypatch)
        kernel = gp.default_kernel()
        starts = [kernel.with_log_params([0.1 * j, -1.0 - 0.1 * j, -8.0]) for j in range(6)]
        gp.train_gp(make_scene("smooth", 60, seed=1), kernel,
                    gp.TrainConfig(iterations=5), starts=starts)
        # one fit per group, from the config of the group's first output
        assert len(fits) == len(gp.OUTPUT_GROUPS)
        for (theta0, first), outputs in zip(fits, gp.OUTPUT_GROUPS):
            assert np.array_equal(theta0, starts[outputs[0]].log_params())
            assert np.array_equal(first, starts[outputs[0]].log_params())

    def test_wrong_number_of_starts_rejected(self):
        with pytest.raises(errors.DimensionMismatch, match="5 starting configs"):
            gp.train_gp(make_scene("smooth", 20, seed=1), gp.default_kernel(),
                        gp.TrainConfig(iterations=1), starts=[gp.default_kernel()] * 5)

    def test_search_leaves_the_noise_plateau(self, monkeypatch):
        # x carries noise of standard deviation 0.05; from a start with almost
        # no noise the first search stops on the plateau where the noise
        # barely moves the loss, so the search goes on from its kept theta
        # with the kernel's noise variance
        thetas = []
        original = gp._objective

        def recorded(theta, *args, **kwargs):
            thetas.append(np.array(theta))
            return original(theta, *args, **kwargs)

        monkeypatch.setattr(gp, "_objective", recorded)
        kernel = gp.default_kernel()
        start = kernel.with_log_params([0.0, math.log(0.3), -18.0])
        model = gp.train_gp(make_scene("smooth", 60, seed=1, noise=0.05), kernel,
                            gp.TrainConfig(iterations=200), starts=[start] * 6)
        curve = model.loss_curves[0]
        x = thetas[:len(curve)]
        lifted = [i for i, theta in enumerate(x) if theta[2] == kernel.log_noise_var]
        assert len(lifted) == 1
        kept = x[int(np.argmin(curve[:lifted[0]]))]
        assert kept[2] < kernel.log_noise_var
        assert np.array_equal(x[lifted[0]][:2], kept[:2])
        assert curve.min() < curve[:lifted[0]].min()
        assert model.configs[0].log_noise_var > kernel.log_noise_var

    def test_cold_fit_never_lifts_the_noise(self, monkeypatch):
        ds = make_scene("smooth", 60, seed=1, noise=0.05)
        cfg = gp.TrainConfig(iterations=200)
        lifting = gp.train_gp(ds, gp.default_kernel(), cfg)
        original = gp._minimize_within
        monkeypatch.setattr(
            gp, "_minimize_within",
            lambda fun, theta0, bounds, budget, _, *first: original(
                fun, theta0, bounds, budget, -math.inf, *first
            ),
        )
        plain = gp.train_gp(ds, gp.default_kernel(), cfg)
        for a, b in zip(lifting.loss_curves, plain.loss_curves):
            assert np.array_equal(a, b)

    @pytest.mark.parametrize("seed", [1, 2, 5])
    def test_warm_start_as_good_as_cold_fit(self, seed):
        # pipeline's order: the evaluation fit on a train split, then the
        # fit on all the frame's data from the evaluation fit's kept configs
        split = sfm_io.split_dataset(make_scene("smooth", 375, seed=seed), 0.8, seed=1)
        data, fresh = split.train, split.test
        kernel, cfg = gp.default_kernel(), gp.TrainConfig()
        evaluation = gp.train_gp(sfm_io.split_dataset(data, 0.8, seed=0).train, kernel, cfg)
        warm = gp.train_gp(data, kernel, cfg, starts=evaluation.configs)
        cold = gp.train_gp(data, kernel, cfg)
        self.assert_as_good(warm, cold, fresh)
        assert sum(map(len, warm.loss_curves)) < sum(map(len, cold.loss_curves))


# ---------------------------------------------------------------------------
# posterior
# ---------------------------------------------------------------------------

def single_point_model(noise_log=NEAR_ZERO_NOISE):
    cfg = gp.KernelConfig("matern", 0.5, 0.0, 0.0, noise_log)
    return gp.TrainedGP.fit(
        np.array([[0.0]]), np.array([[2.0]]), [cfg],
        gp.OutputNormalizer.identity(1), 1, 1, jitter=0.0,
    )


class TestPosterior:
    def test_interpolates_single_training_point(self):
        post = gp.posterior(single_point_model(), np.array([[0.0]]))
        assert post.mean_norm[0, 0] == pytest.approx(2.0, abs=1e-12)
        assert post.var_norm[0, 0] == pytest.approx(0.0, abs=1e-12)

    def test_unit_distance_closed_form(self):
        post = gp.posterior(single_point_model(), np.array([[1.0]]))
        assert post.mean_norm[0, 0] == pytest.approx(2 * math.exp(-1), abs=1e-12)
        assert post.var_norm[0, 0] == pytest.approx(1 - math.exp(-2), abs=1e-12)

    def test_reverts_to_prior_far_away(self):
        post = gp.posterior(single_point_model(), np.array([[50.0]]))
        assert abs(post.mean_norm[0, 0]) < 1e-20
        assert post.var_norm[0, 0] == pytest.approx(1.0, abs=1e-12)

    def test_dimension_mismatch(self):
        with pytest.raises(errors.DimensionMismatch):
            gp.posterior(single_point_model(), np.array([[0.0, 1.0]]))

    def test_matches_dense_solve_oracle(self):
        rng = np.random.default_rng(21)
        for trial in range(4):
            n, m = int(rng.integers(5, 40)), int(rng.integers(1, 15))
            X = rng.random((n, 2))
            Z = rng.standard_normal((n, 3))
            configs = [
                gp.KernelConfig(
                    *(("matern", [0.5, 1.5, 2.5][j]) if trial % 2 else ("rbf", None)),
                    rng.uniform(-0.5, 0.5), rng.uniform(-2, 0), rng.uniform(-5, -2),
                )
                for j in range(3)
            ]
            model = gp.TrainedGP.fit(
                X, Z, configs, gp.OutputNormalizer.identity(3), 1, 1, jitter=0.0
            )
            Q = rng.random((m, 2))
            post = gp.posterior(model, Q)
            means, variances = posterior_oracle(model, Q)
            assert np.max(np.abs(post.mean_norm - means)) <= 1e-8
            assert np.max(np.abs(post.var_norm - np.maximum(variances, 0))) <= 1e-8

    def test_exact_interpolation_at_training_inputs(self):
        rng = np.random.default_rng(8)
        uv = rng.uniform(0, 1, size=(60, 2))
        targets = smooth_targets(uv)
        normalizer = gp.OutputNormalizer.fit(targets)
        Z = normalizer.normalize(targets)
        configs = [gp.KernelConfig("matern", 0.5, 0.0, math.log(0.2), NEAR_ZERO_NOISE)] * 6
        model = gp.TrainedGP.fit(uv, Z, configs, normalizer, 400, 400, jitter=0.0)
        post = gp.posterior(model, uv)
        assert np.max(np.abs(post.mean - targets)) <= 1e-6
        assert np.max(post.var_norm) <= 1e-8

    def test_variance_never_exceeds_prior(self):
        rng = np.random.default_rng(13)
        ds = make_scene("smooth", 50, seed=6)
        model = gp.train_gp(ds, gp.default_kernel(), gp.TrainConfig(iterations=50))
        Q = rng.uniform(-1, 2, size=(100, 2))
        post = gp.posterior(model, Q)
        priors = np.array([c.signal_var for c in model.configs])
        assert np.all(post.var_norm <= priors + 1e-9)

    def test_empty_query(self):
        post = gp.posterior(single_point_model(), np.zeros((0, 1)))
        assert post.mean.shape == (0, 1)


def six_output_model(n=30, seed=5):
    rng = np.random.default_rng(seed)
    configs = [
        gp.KernelConfig("matern", nu, 0.1 * j, math.log(0.3), -6.0)
        for j, nu in enumerate((0.5, 1.5, 2.5, 0.5, 1.5, 2.5))
    ]
    return gp.TrainedGP.fit(
        rng.random((n, 2)), rng.standard_normal((n, 6)), configs,
        gp.OutputNormalizer.identity(6), 1, 1, jitter=0.0,
    )


class TestPosteriorChunks:
    def test_multi_chunk_matches_oracle_and_single_chunk(self, monkeypatch):
        model = six_output_model()
        Q = np.random.default_rng(6).random((2 * 7 + 3, 2))
        single = gp.posterior(model, Q)
        monkeypatch.setattr(gp, "_QUERY_CHUNK", 7)
        chunked = gp.posterior(model, Q)
        means, variances = posterior_oracle(model, Q)
        assert np.max(np.abs(chunked.mean_norm - means)) <= 1e-8
        assert np.max(np.abs(chunked.var_norm - np.maximum(variances, 0))) <= 1e-8
        assert np.array_equal(chunked.var_norm[:, 3:6], single.var_norm[:, 3:6])

    @pytest.mark.parametrize("var_outputs", [(3, 4, 5), ()])
    def test_variance_subset(self, var_outputs):
        model = six_output_model()
        Q = np.random.default_rng(7).random((9, 2))
        full = gp.posterior(model, Q)
        part = gp.posterior(model, Q, var_outputs=var_outputs)
        asked = list(var_outputs)
        skipped = [j for j in range(6) if j not in var_outputs]
        assert np.array_equal(part.var_norm[:, asked], full.var_norm[:, asked])
        assert np.isnan(part.var_norm[:, skipped]).all()
        assert np.isnan(part.var[:, skipped]).all()
        assert np.array_equal(part.mean, full.mean)

    def test_out_of_range_output_rejected(self):
        with pytest.raises(ValueError):
            gp.posterior(six_output_model(), np.zeros((1, 2)), var_outputs=(6,))

    @pytest.mark.parametrize("var_outputs", [None, (), (3, 4, 5)])
    def test_empty_query(self, var_outputs):
        post = gp.posterior(six_output_model(), np.zeros((0, 2)), var_outputs=var_outputs)
        for arr in (post.mean_norm, post.var_norm, post.mean, post.var):
            assert arr.shape == (0, 6)


def test_posterior_keeps_one_distance_and_one_kernel_block(monkeypatch):
    n, chunk = 200, 50
    rng = np.random.default_rng(4)
    configs = [gp.KernelConfig("matern", 0.5, 0.1 * j, math.log(0.3), -6.0) for j in range(6)]
    model = gp.TrainedGP.fit(rng.random((n, 2)), rng.standard_normal((n, 6)), configs,
                             gp.OutputNormalizer.identity(6), 1, 1)
    Q = rng.random((3 * chunk + 7, 2))
    monkeypatch.setattr(gp, "_QUERY_CHUNK", chunk)
    gp.posterior(model, Q)  # warm-up: first-call allocations of numpy and scipy
    tracemalloc.start()
    try:
        gp.posterior(model, Q)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    block = n * chunk * 8
    outputs = 4 * Q.shape[0] * 6 * 8  # mean_norm, var_norm, mean, var
    assert peak < 2.5 * block + outputs


class TestSharedFactor:
    """Outputs with one config and jitter share a factor, its fill and its
    variance solve, without changing any output's bits."""

    @staticmethod
    def trained(iterations=20):
        return gp.train_gp(make_scene("smooth", 60, seed=1), gp.default_kernel(),
                           gp.TrainConfig(iterations=iterations))

    def test_colour_group_solves_once_per_chunk(self, monkeypatch):
        model = self.trained()
        assert model.configs[3] == model.configs[4] == model.configs[5]
        assert model.groups == [[0], [1], [2], [3, 4, 5]]
        calls = []
        original = gp.solve_triangular

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gp, "solve_triangular", counted)
        monkeypatch.setattr(gp, "_QUERY_CHUNK", 7)
        Q = np.random.default_rng(2).random((3 * 7 + 2, 2))
        post = gp.posterior(model, Q, var_outputs=(3, 4, 5))
        assert len(calls) == 4  # one per chunk
        var = post.var_norm[:, 3:6]
        assert np.array_equal(var[:, 0], var[:, 1]) and np.array_equal(var[:, 0], var[:, 2])

    @pytest.mark.parametrize("j", [0, 4])
    def test_output_bits_do_not_depend_on_sharing(self, j):
        model = self.trained()
        alone = gp.TrainedGP.fit(model.X, model.Z[:, [j]], [model.configs[j]],
                                 gp.OutputNormalizer.identity(1), 1, 1,
                                 jitter=model.jitters[j])
        Q = np.random.default_rng(3).random((30, 2))
        shared, single = gp.posterior(model, Q), gp.posterior(alone, Q)
        assert np.array_equal(model.alphas[j], alone.alphas[0])
        assert np.array_equal(shared.mean_norm[:, j], single.mean_norm[:, 0])
        assert np.array_equal(shared.var_norm[:, j], single.var_norm[:, 0])


class TestKernelBlock:
    """posterior and TrainedGP.fit build kernel blocks in place with the
    exact arithmetic of gram_matrix."""

    KERNELS = [("matern", 0.5), ("matern", 1.5), ("matern", 2.5), ("rbf", None)]

    @staticmethod
    def model(family, nu, n=40, seed=17):
        rng = np.random.default_rng(seed)
        cfg = gp.KernelConfig(family, nu, 0.3, math.log(0.2), -6.0)
        X = rng.random((n, 2))
        Z = rng.standard_normal((n, 1))
        return gp.TrainedGP.fit(X, Z, [cfg], gp.OutputNormalizer.identity(1), 1, 1), rng

    @pytest.mark.parametrize("family,nu", KERNELS)
    def test_posterior_bit_equal_to_gram_matrix(self, family, nu):
        model, rng = self.model(family, nu)
        cfg, L, alpha = model.configs[0], model.factors[0], model.alphas[0]
        n = model.X.shape[0]
        Q = rng.random((25, 2))
        post = gp.posterior(model, Q)
        Ks = gp.gram_matrix(cfg, np.vstack([model.X, Q]))[:n, n:]
        V = solve_triangular(L, Ks, lower=True, check_finite=False)
        assert np.array_equal(post.mean_norm[:, 0], Ks.T @ alpha)
        assert np.array_equal(
            post.var_norm[:, 0], np.maximum(cfg.signal_var - (V * V).sum(axis=0), 0.0)
        )

    @pytest.mark.parametrize("family,nu", KERNELS)
    def test_fit_factors_gram_matrix(self, family, nu):
        model, _ = self.model(family, nu)
        want, info = dpotrf(gp.gram_matrix(model.configs[0], model.X), lower=1)
        assert info == 0 and model.jitters[0] == 0.0
        assert np.array_equal(np.tril(model.factors[0]), np.tril(want))


class TestNormalizerEquivariance:
    def test_constant_shift_moves_means_exactly(self):
        # binary-fraction targets make every mean/std computation exact, so
        # the shifted run reproduces the baseline bit for bit
        rng = np.random.default_rng(31)
        n = 64
        uv = rng.uniform(0.05, 0.95, size=(n, 2))
        targets = rng.integers(0, 9, size=(n, 6)).astype(float) / 8.0
        targets[:, 2] += rng.integers(0, 5, size=n) / 4.0
        ds_base = dataset_from_arrays(uv, targets)
        shifted = targets.copy()
        shifted[:, 2] += 1.0
        ds_shift = dataset_from_arrays(uv, shifted)

        cfg = gp.TrainConfig(iterations=25, seed=0)
        model_base = gp.train_gp(ds_base, gp.default_kernel(), cfg)
        model_shift = gp.train_gp(ds_shift, gp.default_kernel(), cfg)
        Q = rng.uniform(0, 1, size=(20, 2))
        post_base = gp.posterior(model_base, Q)
        post_shift = gp.posterior(model_shift, Q)

        # the shifted normalizer mean is exact, but the final denormalizing
        # addition reassociates, so the means agree to the last ulp only
        np.testing.assert_allclose(
            post_shift.mean[:, 2], post_base.mean[:, 2] + 1.0, rtol=0, atol=1e-12
        )
        other = [0, 1, 3, 4, 5]
        assert np.array_equal(post_shift.mean[:, other], post_base.mean[:, other])
        assert np.array_equal(post_shift.var, post_base.var)


# ---------------------------------------------------------------------------
# Model file round trip
# ---------------------------------------------------------------------------

class TestModelIo:
    def test_posterior_bit_identical_after_reload(self, tmp_path):
        ds = make_scene("smooth", 40, seed=10)
        model = gp.train_gp(ds, gp.default_kernel(), gp.TrainConfig(iterations=30))
        path = tmp_path / "model.txt"
        model_io.save_model(model, path)
        loaded = model_io.load_model(path)
        rng = np.random.default_rng(0)
        Q = rng.uniform(0, 1, size=(25, 2))
        a = gp.posterior(model, Q)
        b = gp.posterior(loaded, Q)
        assert np.array_equal(a.mean, b.mean)
        assert np.array_equal(a.var, b.var)
        assert np.array_equal(a.mean_norm, b.mean_norm)

    def test_posterior_bit_identical_after_reload_when_groups_coincide(self, tmp_path):
        # at a budget of 1 every group keeps the same start: one factor in
        # the trained model, and one in the reloaded one
        model = gp.train_gp(make_scene("smooth", 40, seed=10), gp.default_kernel(),
                            gp.TrainConfig(iterations=1))
        path = tmp_path / "model.txt"
        model_io.save_model(model, path)
        loaded = model_io.load_model(path)
        assert model.groups == loaded.groups == [list(range(6))]
        Q = np.random.default_rng(0).uniform(0, 1, size=(25, 2))
        a, b = gp.posterior(model, Q), gp.posterior(loaded, Q)
        assert np.array_equal(a.mean_norm, b.mean_norm)
        assert np.array_equal(a.var_norm, b.var_norm)

    def test_six_distinct_configs_load_and_predict(self, tmp_path):
        # a file from separate fits of every output holds six configs
        model = six_output_model()
        path = tmp_path / "model.txt"
        model_io.save_model(model, path)
        loaded = model_io.load_model(path)
        assert loaded.configs == model.configs
        assert loaded.groups == [[j] for j in range(6)]
        Q = np.random.default_rng(1).random((12, 2))
        a, b = gp.posterior(model, Q), gp.posterior(loaded, Q)
        assert np.array_equal(a.mean_norm, b.mean_norm)
        assert np.array_equal(a.var_norm, b.var_norm)
        means, variances = posterior_oracle(loaded, Q)
        assert np.max(np.abs(b.mean_norm - means)) <= 1e-8
        assert np.max(np.abs(b.var_norm - np.maximum(variances, 0))) <= 1e-8

    def test_header_and_fields(self, tmp_path):
        ds = make_scene("smooth", 10, seed=11)
        model = gp.train_gp(
            ds, gp.default_kernel("matern", 1.5), gp.TrainConfig(iterations=5)
        )
        path = tmp_path / "model.txt"
        model_io.save_model(model, path)
        text = path.read_text()
        assert text.startswith("gpgs-model v1\n")
        assert "nu 1.5" in text
        loaded = model_io.load_model(path)
        assert loaded.configs[0].nu == 1.5
        assert (loaded.width, loaded.height) == (400, 400)

    def test_rbf_round_trip(self, tmp_path):
        ds = make_scene("smooth", 10, seed=12)
        model = gp.train_gp(ds, gp.default_kernel("rbf"), gp.TrainConfig(iterations=5))
        path = tmp_path / "model.txt"
        model_io.save_model(model, path)
        loaded = model_io.load_model(path)
        assert loaded.configs[0].family == "rbf"
        assert loaded.configs[0].nu is None

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("not-a-model\n")
        with pytest.raises(errors.MalformedLine):
            model_io.load_model(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(errors.MissingFile):
            model_io.load_model(tmp_path / "nope.txt")

    def test_truncated_matrix_rejected(self, tmp_path):
        ds = make_scene("smooth", 10, seed=13)
        model = gp.train_gp(ds, gp.default_kernel(), gp.TrainConfig(iterations=2))
        path = tmp_path / "model.txt"
        model_io.save_model(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-3]) + "\n")
        with pytest.raises(errors.MalformedLine):
            model_io.load_model(path)
