import numpy as np
import pytest

from dvokit.errors import DegenerateDepth, LengthMismatch, NoValidPixels
from dvokit.geometry import Pose6D, so3_exp
from dvokit.metrics import (
    DepthMetrics,
    Trajectory,
    ate,
    depth_metrics,
    median_align,
    similarity_align,
)


class TestMedianAlign:
    def test_equal_maps_unchanged(self):
        gt = np.random.default_rng(0).uniform(1.0, 5.0, size=(8, 8))
        assert np.max(np.abs(median_align(gt, gt) - gt)) < 1e-12

    def test_half_scale_restored(self):
        gt = np.random.default_rng(1).uniform(1.0, 5.0, size=(8, 8))
        aligned = median_align(gt / 2.0, gt)
        assert np.max(np.abs(aligned - gt)) < 1e-12

    def test_median_matches_after_alignment(self):
        rng = np.random.default_rng(2)
        gt = rng.uniform(1.0, 5.0, size=(9, 9))
        pred = rng.uniform(0.5, 3.0, size=(9, 9))
        aligned = median_align(pred, gt)
        assert abs(np.median(aligned) - np.median(gt)) < 1e-12


class TestDepthMetrics:
    def test_perfect_prediction(self):
        gt = np.random.default_rng(3).uniform(1.0, 5.0, size=(8, 8))
        m = depth_metrics(gt, gt, align=False)
        assert m.abs_rel == 0.0
        assert m.sq_rel == 0.0
        assert m.rmse == 0.0
        assert m.rmse_log == 0.0
        assert m.delta1 == m.delta2 == m.delta3 == 1.0

    def test_global_scale_removed_by_alignment(self):
        gt = np.random.default_rng(4).uniform(1.0, 5.0, size=(8, 8))
        m = depth_metrics(2.0 * gt, gt, align=True)
        assert m.abs_rel < 1e-12
        assert m.rmse < 1e-12

    def test_three_pixel_hand_computed(self):
        gt = np.array([[1.0, 2.0, 4.0]])
        pred = np.array([[1.0, 1.0, 4.0]])
        m = depth_metrics(pred, gt, align=False)
        assert abs(m.abs_rel - 1.0 / 6.0) < 1e-15
        # Middle pixel ratio is 2 > 1.25, 1.25^2; within 1.25^3 = 1.953? No:
        # 2 > 1.953 as well, so all three thresholds count 2 of 3 pixels.
        assert abs(m.delta1 - 2.0 / 3.0) < 1e-15
        assert abs(m.sq_rel - (1.0 / 2.0) / 3.0) < 1e-15

    def test_delta_monotonicity(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            gt = rng.uniform(1.0, 5.0, size=(6, 6))
            pred = gt * rng.uniform(0.5, 2.0, size=(6, 6))
            m = depth_metrics(pred, gt, align=False)
            assert m.delta1 <= m.delta2 <= m.delta3

    def test_scale_invariance_with_alignment(self):
        rng = np.random.default_rng(6)
        gt = rng.uniform(1.0, 5.0, size=(7, 7))
        pred = gt * rng.uniform(0.8, 1.2, size=(7, 7))
        a = depth_metrics(pred, gt, align=True)
        b = depth_metrics(4.0 * pred, gt, align=True)
        assert a == b

    def test_cap_and_validity(self):
        gt = np.array([[1.0, 2.0, 100.0, -1.0]])
        pred = np.array([[1.0, 2.0, 50.0, 7.0]])
        m = depth_metrics(pred, gt, align=False, max_depth_cap=70.0)
        # The capped and invalid pixels drop out; the rest are exact.
        assert m.abs_rel == 0.0
        with pytest.raises(NoValidPixels):
            depth_metrics(pred, gt, align=False, max_depth_cap=0.5)

    def test_non_positive_or_non_finite_prediction_raises(self):
        # A negative depth used to pass every ratio threshold (delta1 = 1)
        # with a NaN rmse_log.
        with pytest.raises(DegenerateDepth):
            depth_metrics([[-1, 1, 2]], [[1, 1, 2]], align=False)
        for bad in (0.0, np.nan, np.inf):
            with pytest.raises(DegenerateDepth):
                depth_metrics([[bad, 1, 2]], [[1, 1, 2]], align=True)
        # Pixels without ground truth are not scored, so they may hold anything.
        m = depth_metrics([[-1, 1, 2]], [[0, 1, 2]], align=False)
        assert m.abs_rel == 0.0

    def test_invariant_validation(self):
        with pytest.raises(ValueError):
            DepthMetrics(-0.1, 0.0, 0.0, 0.0, 1.0, 1.0, 1.0)
        with pytest.raises(ValueError):
            DepthMetrics(0.0, 0.0, 0.0, 0.0, 0.9, 0.5, 1.0)


def straight_line(n, step=1.0):
    return Trajectory(
        tuple(Pose6D([step * i, 0.0, 0.0], np.zeros(3)) for i in range(n))
    )


class TestAte:
    def test_identical_trajectories(self):
        t = straight_line(8)
        mean, std = ate(t, t)
        assert mean < 1e-12
        assert std < 1e-12

    def test_global_similarity_absorbed(self):
        rng = np.random.default_rng(7)
        poses = [Pose6D(rng.normal(size=3), rng.normal(size=3) * 0.1) for _ in range(9)]
        gt = Trajectory(tuple(poses))
        s = 2.5
        R = so3_exp(np.array([0.2, -0.1, 0.3]))
        shift = np.array([1.0, -2.0, 0.5])
        moved = Trajectory(
            tuple(Pose6D(s * R @ p.t + shift, p.omega) for p in poses)
        )
        mean, std = ate(moved, gt)
        assert mean < 1e-9
        assert std < 1e-9

    def test_single_offset_matches_grid_search(self):
        n = 7
        gt = straight_line(n)
        positions = gt.positions().copy()
        positions[3, 1] += 0.1
        pred = Trajectory(
            tuple(Pose6D(positions[i], np.zeros(3)) for i in range(n))
        )
        mean, _ = ate(pred, gt)

        # Brute-force oracle: for each window, search scale, planar angle,
        # and 2-D shift on a refined grid (the geometry stays in-plane).
        def window_rmse(a, b):
            best = np.inf
            s_grid = np.linspace(0.9, 1.1, 41)
            ang_grid = np.linspace(-0.1, 0.1, 81)
            for s in s_grid:
                for ang in ang_grid:
                    c, si = np.cos(ang), np.sin(ang)
                    rot = np.array([[c, -si], [si, c]])
                    pa = s * (a[:, :2] @ rot.T)
                    shift = (b[:, :2] - pa).mean(axis=0)
                    resid = pa + shift - b[:, :2]
                    rmse = np.sqrt(np.mean(np.sum(resid ** 2, axis=1)))
                    best = min(best, rmse)
            return best

        pa = pred.positions()
        pb = gt.positions()
        oracle = np.mean(
            [window_rmse(pa[i:i + 5], pb[i:i + 5]) for i in range(n - 4)]
        )
        assert abs(mean - oracle) < 1e-3

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            ate(straight_line(6), straight_line(7))
        with pytest.raises(LengthMismatch):
            ate(straight_line(3), straight_line(3))

    def test_trajectory_validation(self):
        with pytest.raises(LengthMismatch):
            Trajectory((Pose6D.identity(),))


class TestSimilarityAlign:
    def test_recovers_known_transform(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(10, 3))
        s = 1.7
        R = so3_exp(np.array([0.3, 0.1, -0.2]))
        t = np.array([0.5, -1.0, 2.0])
        b = s * (a @ R.T) + t
        s2, R2, t2 = similarity_align(a, b)
        assert abs(s2 - s) < 1e-10
        assert np.max(np.abs(R2 - R)) < 1e-10
        assert np.max(np.abs(t2 - t)) < 1e-10
