"""End-to-end acceptance checks.

Each test here states a headline property of the package: solver accuracy
statistics, the value of coarse-to-fine pyramids, gradient correctness of
the unrolled solver and the losses, the scale ambiguity of the objective
and its normalization fix, solver-mode comparisons in training, metric
oracles, and numerical hygiene. Finer-grained oracles live in the
per-module test files.
"""

import time

import numpy as np
import pytest

from dvokit import bundled, fileio
from dvokit.cli import main
from dvokit.ddvo import DdvoSettings, ddvo_backward, ddvo_forward
from dvokit.dvo import DvoSettings, solve_coarse_to_fine
from dvokit.geometry import Pose6D, so3_exp
from dvokit.imaging import downsample2_arr, pyramid_arr
from dvokit.losses import (
    LossWeights,
    Triplet,
    normalize_inverse_depth,
    normalize_inverse_depth_vjp,
    triplet_loss,
)
from dvokit.metrics import Trajectory, ate, depth_metrics
from dvokit.synth import SceneSpec, make_pair, make_triplet
from dvokit.training import TrainConfig, train_triplet


def rotation_error_deg(omega_a, omega_b):
    R = so3_exp(omega_a) @ so3_exp(omega_b).T
    c = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    return np.degrees(np.arccos(c))


class TestPoseRecoveryStatistics:
    def test_100_pairs_accuracy_and_runtime(self):
        # 160x128 pairs, |t| = 1% of scene depth, rotations <= 0.5 deg.
        start = time.monotonic()
        rot_errors = []
        trans_errors = []
        settings = DvoSettings()
        for seed in range(100):
            ref, depth, src, pose, k = bundled.small_motion_pair(seed)
            result = solve_coarse_to_fine(
                ref, depth, src, k, Pose6D.identity(), settings
            )
            rot_errors.append(rotation_error_deg(result.pose.omega, pose.omega))
            trans_errors.append(
                np.linalg.norm(result.pose.t - pose.t) / np.linalg.norm(pose.t)
            )
        elapsed = time.monotonic() - start
        assert float(np.median(rot_errors)) < 0.05
        assert float(np.median(trans_errors)) < 0.02
        assert elapsed < 60.0


class TestCoarseToFine:
    def test_large_motion_needs_pyramid(self):
        ref, depth, src, pose, k = bundled.large_motion_pair()
        fine_only = solve_coarse_to_fine(
            ref, depth, src, k, Pose6D.identity(), DvoSettings(levels=1)
        )
        pyramid = solve_coarse_to_fine(
            ref, depth, src, k, Pose6D.identity(), DvoSettings(levels=4)
        )
        assert pyramid.final_residual < 1e-4
        assert fine_only.final_residual > 10.0 * pyramid.final_residual


def small_instance(rng):
    spec = SceneSpec(
        kind="smooth-height-field",
        texture_seed=int(rng.integers(0, 2**31)),
        width=16,
        height=16,
        depth_range=(2.0, 4.0),
        texture_waves=6,
        texture_max_freq=3.0,
        texture_contrast=0.3,
    )
    pose = bundled.random_small_motion(rng, translation_frac=0.01, rotation_deg=0.5)
    ref, depth, src = make_pair(spec, pose)
    return ref.gray(), depth.values, src.gray(), spec.intrinsics


def rel_err(analytic, numeric):
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)


class TestSolverGradients:
    def test_50_instances_match_finite_differences(self):
        rng = np.random.default_rng(0)
        settings = DdvoSettings(unroll_iters=2, levels=1)
        worst = 0.0
        for _ in range(50):
            ref, depth, src, k = small_instance(rng)
            g_t, g_R = rng.normal(size=3), rng.normal(size=(3, 3))
            direction = rng.normal(size=depth.shape)
            direction /= np.linalg.norm(direction)
            _, tape = ddvo_forward(ref, depth, src, k, settings)
            analytic = float(np.sum(ddvo_backward(tape, (g_t, g_R)) * direction))
            h = 1e-6

            def forward(values):
                _, moved = ddvo_forward(ref, values, src, k, settings)
                return float(g_t @ moved.t_final + np.sum(g_R * moved.R_final))

            numeric = (
                forward(depth + h * direction)
                - forward(depth - h * direction)
            ) / (2.0 * h)
            worst = max(worst, rel_err(analytic, numeric))
        assert worst < 1e-3

    def test_loss_level_gradients(self):
        rng = np.random.default_rng(1)
        worst = 0.0
        for _ in range(5):
            spec = SceneSpec(
                kind="smooth-height-field",
                texture_seed=int(rng.integers(0, 2**31)),
                width=48,
                height=32,
                depth_range=(2.0, 4.0),
                texture_waves=6,
                texture_max_freq=3.0,
                texture_contrast=0.3,
            )
            p21 = bundled.random_small_motion(rng, 0.01, 0.3)
            p23 = bundled.random_small_motion(rng, 0.01, 0.3)
            data = make_triplet(spec, p21, p23)
            images = tuple(img.gray() for img in data["images"])
            # Away from the photometric optimum: at the exact depths the L1
            # residuals sit on their kink and finite differences misbehave.
            depths = tuple(1.1 * d.values for d in data["gt_inv_depths"])
            k = data["intrinsics"]
            bd = triplet_loss(Triplet(images, depths, p21.rt(), p23.rt()), k)
            direction = rng.normal(size=depths[1].shape)
            direction /= np.linalg.norm(direction)
            analytic = float(np.sum(np.asarray(bd.grad_depths[1]) * direction))
            h = 1e-6

            def at(values):
                moved = (depths[0], values, depths[2])
                return triplet_loss(Triplet(images, moved, p21.rt(), p23.rt()), k).total

            base = depths[1]
            numeric = (at(base + h * direction) - at(base - h * direction)) / (2 * h)
            worst = max(worst, rel_err(analytic, numeric))
        assert worst < 1e-4

    def test_normalization_chain_gradient(self):
        rng = np.random.default_rng(2)
        worst = 0.0
        for _ in range(10):
            d = rng.uniform(0.5, 2.0, size=(16, 16))
            w = rng.normal(size=d.shape)
            direction = rng.normal(size=d.shape)
            direction /= np.linalg.norm(direction)
            analytic = float(np.sum(normalize_inverse_depth_vjp(d, w) * direction))
            h = 1e-7

            def at(values):
                return float(np.sum(w * normalize_inverse_depth(values)))

            numeric = (at(d + h * direction) - at(d - h * direction)) / (2 * h)
            worst = max(worst, rel_err(analytic, numeric))
        assert worst < 1e-4


class TestScaleAmbiguity:
    def test_rescaling_strictly_lowers_loss(self):
        # A random iterate (not an optimum) with a strictly positive prior.
        data = bundled.training_triplet()
        images = tuple(img.gray() for img in data["images"])
        k = data["intrinsics"]
        rng = np.random.default_rng(3)
        depths = tuple(
            d.values * rng.uniform(0.8, 1.2, size=d.values.shape)
            for d in data["gt_inv_depths"]
        )
        (R21, t21), (R23, t23) = (p.rt() for p in data["poses"])
        base = triplet_loss(Triplet(images, depths, (R21, t21), (R23, t23)), k)
        assert sum(base.prior_per_scale) > 0.0
        s = 0.5
        rescaled = triplet_loss(
            Triplet(
                images,
                tuple(d * s for d in depths),
                (R21, t21 / s),
                (R23, t23 / s),
            ),
            k,
        )
        assert rescaled.total < base.total
        for a, b in zip(base.appearance_per_scale, rescaled.appearance_per_scale):
            assert abs(a - b) < 1e-10


DEMO_CFG = (
    "train.steps = 500\n"
    "train.lr = 0.06\n"
    "weights.lambda_prior = 0.01\n"
)


def read_trace(path):
    lines = path.read_text().strip().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    cols = lines[0].split(",")
    return {c: np.array([float(r[i]) for r in rows]) for i, c in enumerate(cols)}


class TestScaleDriftDemo:
    def test_unnormalized_depth_drifts(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(DEMO_CFG)
        out = tmp_path / "off.csv"
        start = time.monotonic()
        code = main(["train-demo", "--mode", "dvo-em", "--normalize", "off",
                     "--config", str(cfg), "--out", str(out)])
        elapsed = time.monotonic() - start
        assert code == 0
        trace = read_trace(out)
        assert len(trace["step"]) == 500
        assert trace["mean_inv_depth"][-1] < 0.5 * trace["mean_inv_depth"][0]
        assert elapsed < 300.0

    def test_normalization_pins_scale_and_improves_depth(self, tmp_path):
        cfg = tmp_path / "demo.cfg"
        cfg.write_text(DEMO_CFG)
        out = tmp_path / "on.csv"
        start = time.monotonic()
        code = main(["train-demo", "--mode", "dvo-em", "--normalize", "on",
                     "--config", str(cfg), "--out", str(out)])
        elapsed = time.monotonic() - start
        assert code == 0
        trace = read_trace(out)
        assert np.max(np.abs(trace["mean_inv_depth"] - 1.0)) < 1e-9
        assert trace["gt_error"][-1] <= 0.5 * trace["gt_error"][0]
        assert elapsed < 300.0


class TestSolverModeComparison:
    def test_differentiable_solver_trains_to_lower_loss(self):
        # Same seed and step budget; the unrolled solver's gradients flow
        # into the depth through the pose, the alternation's do not.
        data = bundled.training_triplet()

        def final_total(mode):
            cfg = TrainConfig(
                mode=mode,
                normalize_depth=True,
                steps=200,
                lr=0.01,
                weights=LossWeights(lambda_prior=0.01),
                ddvo=DdvoSettings(unroll_iters=6, levels=4),
                dvo=DvoSettings(levels=4),
                seed=0,
            )
            trace = train_triplet(
                data["images"], data["intrinsics"], cfg,
                gt_inv_depth=data["gt_inv_depths"][1],
            )
            return trace.records[-1].total

        assert final_total("ddvo") <= final_total("dvo-em")


class TestHybridInitialization:
    def test_hybrid_matches_or_beats_both_baselines(self):
        # Large-motion clip: the displacement exceeds the finest-scale
        # alignment basin, so the single-level solver run from identity
        # falls into a wrong minimum, while a pose warm start keeps the
        # refinement in the right one.
        data = bundled.large_motion_triplet()

        def final_gt_error(mode):
            cfg = TrainConfig(
                mode=mode,
                normalize_depth=True,
                steps=500,
                lr=0.01,
                weights=LossWeights(lambda_prior=0.01),
                ddvo=DdvoSettings(unroll_iters=3, levels=1),
                dvo=DvoSettings(levels=4),
                pose_warmup_steps=350,
                seed=0,
            )
            trace = train_triplet(
                data["images"], data["intrinsics"], cfg,
                gt_inv_depth=data["gt_inv_depths"][1],
            )
            return trace.records[-1].gt_error

        baseline = min(final_gt_error("pose-param"), final_gt_error("ddvo"))
        assert final_gt_error("ddvo-hybrid") <= 1.05 * baseline


class TestMetricOracles:
    def test_three_pixel_fixture(self):
        m = depth_metrics(
            np.array([[1.0, 1.0, 4.0]]), np.array([[1.0, 2.0, 4.0]]), align=False
        )
        assert m.abs_rel == pytest.approx(1.0 / 6.0, abs=1e-15)
        assert m.sq_rel == pytest.approx((1.0 / 2.0) / 3.0, abs=1e-15)
        assert m.delta1 == pytest.approx(2.0 / 3.0, abs=1e-15)

    def test_alignment_removes_global_scale_exactly(self):
        gt = np.random.default_rng(4).uniform(1.0, 5.0, size=(8, 8))
        pred = gt * np.random.default_rng(5).uniform(0.8, 1.2, size=(8, 8))
        assert depth_metrics(pred, gt, align=True) == depth_metrics(
            4.0 * pred, gt, align=True
        )

    def test_ate_zero_for_identical_and_transformed(self):
        rng = np.random.default_rng(6)
        poses = [Pose6D(rng.normal(size=3), rng.normal(size=3) * 0.1) for _ in range(8)]
        gt = Trajectory(tuple(poses))
        mean, std = ate(gt, gt)
        assert mean < 1e-9 and std < 1e-9
        R = so3_exp(np.array([0.2, -0.1, 0.3]))
        moved = Trajectory(
            tuple(
                Pose6D(1.7 * R @ p.t + np.array([1.0, -2.0, 0.5]), p.omega)
                for p in poses
            )
        )
        mean, std = ate(moved, gt)
        assert mean < 1e-9 and std < 1e-9


class TestNumericalHygiene:
    def test_rotation_orthonormality(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            R = so3_exp(rng.normal(size=3))
            assert np.max(np.abs(R @ R.T - np.eye(3))) < 1e-12
            assert abs(np.linalg.det(R) - 1.0) < 1e-12

    def test_prior_homogeneity(self):
        from dvokit.losses import smoothness_prior

        rng = np.random.default_rng(8)
        img = bundled.training_triplet()["images"][1].gray()
        d = rng.uniform(0.5, 2.0, size=(64, 80))
        base = smoothness_prior(d, img)
        scaled = smoothness_prior(3.0 * d, img)
        assert scaled[0] == pytest.approx(3.0 * base[0], rel=1e-12)

    def test_normalization_idempotence(self):
        rng = np.random.default_rng(9)
        d = rng.uniform(0.5, 2.0, size=(16, 16))
        once = normalize_inverse_depth(d)
        twice = normalize_inverse_depth(once)
        assert np.max(np.abs(twice - once)) < 1e-15
        assert abs(once.mean() - 1.0) < 1e-15

    def test_pyramid_recurrence(self):
        rng = np.random.default_rng(10)
        plane = rng.uniform(size=(64, 48))
        pyr = pyramid_arr(plane, 4)
        assert np.array_equal(pyr[0], plane)
        for lv in range(1, 4):
            assert np.array_equal(pyr[lv], downsample2_arr(pyr[lv - 1]))

    def test_training_bit_reproducibility(self):
        data = bundled.training_triplet()
        cfg = TrainConfig(
            mode="ddvo", steps=3, lr=1e-2,
            ddvo=DdvoSettings(unroll_iters=2, levels=2),
            dvo=DvoSettings(levels=2),
        )
        gt = data["gt_inv_depths"][1]
        a = train_triplet(data["images"], data["intrinsics"], cfg, gt_inv_depth=gt)
        b = train_triplet(data["images"], data["intrinsics"], cfg, gt_inv_depth=gt)
        assert a.records == b.records
        for da, db in zip(a.final_inv_depths, b.final_inv_depths):
            assert np.array_equal(da, db)
