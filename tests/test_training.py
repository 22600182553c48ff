import numpy as np
import pytest

from dvokit.bundled import training_triplet
from dvokit.ddvo import DdvoSettings
from dvokit.dvo import DvoSettings
from dvokit import training
from dvokit.errors import DegenerateOverlap, InvalidRaster, ShapeMismatch, SingularSystem
from dvokit.geometry import Pose6D
from dvokit.imaging import ImageBuffer
from dvokit.training import (
    AdamState,
    DepthParam,
    TrainConfig,
    adam_step,
    train_triplet,
)


def short_cfg(mode, **kw):
    defaults = dict(
        mode=mode,
        steps=5,
        lr=1e-2,
        ddvo=DdvoSettings(unroll_iters=2, levels=2),
        dvo=DvoSettings(levels=2, max_iters_per_level=10),
        pose_warmup_steps=2,
    )
    defaults.update(kw)
    return TrainConfig(**defaults)


class TestDepthParam:
    def test_decode_range(self):
        p = DepthParam(np.array([-30.0, 0.0, 30.0]))
        d = p.decode()
        assert np.all(d > 0.01)
        assert np.all(d < 10.01)

    def test_roundtrip(self):
        rng = np.random.default_rng(0)
        values = rng.uniform(0.1, 5.0, size=(6, 6))
        back = DepthParam.from_inverse_depth(values).decode()
        assert np.max(np.abs(back - values)) < 1e-9

    def test_initial_decodes_near_one(self):
        p = DepthParam.initial((16, 16), np.random.default_rng(1))
        assert np.max(np.abs(p.decode() - 1.0)) < 0.05

    def test_decode_grad_matches_finite_differences(self):
        logits = np.linspace(-3.0, 3.0, 13)
        p = DepthParam(logits)
        h = 1e-6
        fd = (DepthParam(logits + h).decode() - DepthParam(logits - h).decode()) / (2 * h)
        assert np.max(np.abs(fd - p.decode_grad())) < 1e-6


class TestAdam:
    def test_zero_gradient_no_move(self):
        state = AdamState.fresh((4,), lr=0.1)
        params = np.arange(4, dtype=float)
        out, _ = adam_step(state, params, np.zeros(4))
        assert np.array_equal(out, params)

    def test_first_step_magnitude_is_lr(self):
        for g in (0.01, 1.0, 100.0):
            state = AdamState.fresh((3,), lr=0.05)
            out, _ = adam_step(state, np.zeros(3), np.full(3, g))
            # Adam's first step is lr * g / (|g| + eps'), independent of |g|.
            assert np.max(np.abs(np.abs(out) - 0.05)) < 1e-6

    def test_ten_steps_match_reference(self):
        # Independent hand-coded Adam on f(x) = x^2 (gradient 2x).
        lr, b1, b2, eps = 1e-2, 0.9, 0.999, 1e-8
        x_ref, m, v = 1.0, 0.0, 0.0
        state = AdamState.fresh((1,), lr=lr)
        x = np.array([1.0])
        for k in range(1, 11):
            g = 2.0 * x_ref
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            x_ref -= lr * (m / (1 - b1 ** k)) / (np.sqrt(v / (1 - b2 ** k)) + eps)
            x, state = adam_step(state, x, 2.0 * x)
        assert abs(x[0] - x_ref) < 1e-12

    def test_shape_mismatch(self):
        state = AdamState.fresh((4,))
        with pytest.raises(ShapeMismatch):
            adam_step(state, np.zeros(4), np.zeros(5))


@pytest.fixture(scope="module")
def clip():
    data = training_triplet()
    return data["images"], data["intrinsics"], data["poses"], data["gt_inv_depths"][1]


class TestTrainTriplet:
    def test_config_validation(self):
        with pytest.raises(ValueError):
            TrainConfig(mode="cnn")
        with pytest.raises(ValueError):
            TrainConfig(steps=0)
        with pytest.raises(ValueError):
            TrainConfig(lr=0.0)

    def test_trace_shape_all_modes(self, clip):
        images, k, gt_poses, gt_d = clip
        for mode in ("fixed-pose-gt", "pose-param", "ddvo", "ddvo-hybrid", "dvo-em"):
            trace = train_triplet(
                images, k, short_cfg(mode), gt_poses=gt_poses, gt_inv_depth=gt_d
            )
            assert len(trace.records) == 5
            assert not trace.diverged
            for i, r in enumerate(trace.records):
                assert r.step == i
                assert np.isfinite(r.total)
                assert r.total >= 0.0
                assert np.isfinite(r.gt_error)

    def test_nan_initial_depth_is_an_invalid_raster(self, clip):
        images, k, gt_poses, gt_d = clip
        init = [gt_d.values.copy() for _ in range(3)]
        init[1][3, 4] = np.nan
        with pytest.raises(InvalidRaster):
            train_triplet(images, k, short_cfg("dvo-em"), init_inv_depths=init)

    def test_fixed_pose_needs_gt(self, clip):
        images, k, _, _ = clip
        with pytest.raises(ValueError):
            train_triplet(images, k, short_cfg("fixed-pose-gt"))

    def test_gt_init_stays_near_optimum(self, clip):
        # Depth initialized at ground truth with scale-consistent poses:
        # the loss starts near its floor and the depths barely move.
        images, k, gt_poses, gt_d = clip
        data = training_triplet()
        gt_depths = [d for d in data["gt_inv_depths"]]
        mean_gt = float(np.mean(gt_d.values))
        scaled_poses = (
            Pose6D(gt_poses[0].t * mean_gt, gt_poses[0].omega),
            Pose6D(gt_poses[1].t * mean_gt, gt_poses[1].omega),
        )
        cfg = short_cfg("fixed-pose-gt", steps=100, lr=1e-4, normalize_depth=True)
        trace = train_triplet(
            images, k, cfg, gt_poses=scaled_poses, gt_inv_depth=gt_d,
            init_inv_depths=[d.values for d in gt_depths],
        )
        first = np.stack([d.values for d in gt_depths])
        first = first / first.mean(axis=(1, 2), keepdims=True)
        final = np.stack(trace.final_inv_depths)
        mean_move = float(np.mean(np.abs(final - first)))
        assert mean_move < 0.01 * 10.0  # well under 1% of the decode range
        assert trace.records[-1].total < 1.5 * trace.records[0].total

    def test_normalized_mean_pinned(self, clip):
        images, k, gt_poses, _ = clip
        trace = train_triplet(
            images, k, short_cfg("pose-param", normalize_depth=True)
        )
        for r in trace.records:
            assert abs(r.mean_inv_depth - 1.0) < 1e-9

    def test_seeded_runs_bit_identical(self, clip):
        images, k, _, gt_d = clip
        a = train_triplet(images, k, short_cfg("ddvo"), gt_inv_depth=gt_d)
        b = train_triplet(images, k, short_cfg("ddvo"), gt_inv_depth=gt_d)
        for ra, rb in zip(a.records, b.records):
            assert ra == rb
        for da, db in zip(a.final_inv_depths, b.final_inv_depths):
            assert np.array_equal(da, db)

    def test_rescaling_lowers_loss_without_normalization(self, clip):
        # The analytic (s*D, t/s) substitution strictly lowers the total at
        # any iterate with a positive prior; checked by direct evaluation.
        from dvokit.losses import Triplet, triplet_loss

        images, k, _, _ = clip
        trace = train_triplet(images, k, short_cfg("pose-param", normalize_depth=False))
        grays = tuple(img.gray() for img in images)
        depths = trace.final_inv_depths
        (R21, t21), (R23, t23) = (p.rt() for p in trace.final_poses)
        base = triplet_loss(Triplet(grays, depths, (R21, t21), (R23, t23)), k)
        assert sum(base.prior_per_scale) > 0.0
        s = 0.5
        shrunk = Triplet(
            grays,
            tuple(v * s for v in depths),
            (R21, t21 / s),
            (R23, t23 / s),
        )
        other = triplet_loss(shrunk, k)
        assert other.total < base.total
        for a, b in zip(base.appearance_per_scale, other.appearance_per_scale):
            assert abs(a - b) < 1e-10

    def test_csv_export(self, clip, tmp_path):
        images, k, gt_poses, gt_d = clip
        trace = train_triplet(
            images, k, short_cfg("fixed-pose-gt"), gt_poses=gt_poses, gt_inv_depth=gt_d
        )
        out = tmp_path / "trace.csv"
        trace.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,total,appearance,prior,mean_inv_depth,gt_error"
        assert len(lines) == 6
        fields = lines[1].split(",")
        assert int(fields[0]) == 0
        assert abs(float(fields[1]) - trace.records[0].total) < 1e-15

    def test_failed_csv_export_leaves_no_file(self, tmp_path):
        # A total that cannot be formatted fails the export after the header.
        bad = training.TrainStepRecord(0, "total", 0.0, 0.0, 1.0, float("nan"))
        trace = training.TrainTrace((bad,), (), ())
        with pytest.raises(ValueError):
            trace.to_csv(tmp_path / "trace.csv")
        assert list(tmp_path.iterdir()) == []


def assert_same_run(a, b):
    """Bit-identical records, final depths and final poses."""
    assert a.records == b.records
    for x, y in zip(a.final_inv_depths, b.final_inv_depths, strict=True):
        assert np.array_equal(x, y)
    for x, y in zip(a.final_poses, b.final_poses, strict=True):
        assert np.array_equal(x.as_vector(), y.as_vector())


class TestPoseWarmup:
    # pose-param, ddvo and ddvo-hybrid are one schedule whose warmup is
    # every step, no step and pose_warmup_steps.
    def test_ddvo_is_hybrid_without_warmup(self, clip):
        images, k, _, gt_d = clip
        runs = [train_triplet(images, k, short_cfg(mode, pose_warmup_steps=0),
                              gt_inv_depth=gt_d)
                for mode in ("ddvo", "ddvo-hybrid")]
        assert_same_run(*runs)

    @pytest.mark.parametrize("warmup", [5, 9])
    def test_pose_param_is_hybrid_warming_up_throughout(self, clip, warmup):
        images, k, _, gt_d = clip
        runs = [train_triplet(images, k, short_cfg(mode, pose_warmup_steps=warmup),
                              gt_inv_depth=gt_d)
                for mode in ("pose-param", "ddvo-hybrid")]
        assert_same_run(*runs)


class TestFailedRunKeepsTrace:
    def test_overlap_failure_carries_trace(self, clip):
        # Inverse depth 5 pushes the ground-truth warp of the outer frames
        # mostly out of view, so the first loss evaluation fails.
        images, k, gt_poses, gt_d = clip
        init = [np.full((64, 80), 5.0)] * 3
        cfg = short_cfg("fixed-pose-gt", normalize_depth=False)
        with pytest.raises(DegenerateOverlap) as info:
            train_triplet(images, k, cfg, gt_poses=gt_poses, gt_inv_depth=gt_d,
                          init_inv_depths=init)
        trace = info.value.trace
        assert trace.records == ()
        assert not trace.diverged
        assert np.allclose(trace.final_inv_depths[1], 5.0)
        for got, want in zip(trace.final_poses, gt_poses):
            assert np.array_equal(got.as_vector(), want.as_vector())

    def test_mid_run_failure_keeps_completed_steps(self, clip, monkeypatch):
        images, k, gt_poses, gt_d = clip
        calls = []
        real_loss = training.triplet_loss

        def failing_at_step_3(*args, **kwargs):
            calls.append(None)
            if len(calls) == 4:
                raise SingularSystem("forced")
            return real_loss(*args, **kwargs)

        monkeypatch.setattr(training, "triplet_loss", failing_at_step_3)
        with pytest.raises(SingularSystem) as info:
            train_triplet(images, k, short_cfg("fixed-pose-gt"), gt_poses=gt_poses,
                          gt_inv_depth=gt_d)
        trace = info.value.trace
        assert [r.step for r in trace.records] == [0, 1, 2]
        assert all(np.isfinite(r.total) for r in trace.records)
        assert trace.final_inv_depths[1].shape == (64, 80)


class TestEmAlternation:
    def test_static_triplet_identity_pose(self):
        rng = np.random.default_rng(3)
        spec_img = ImageBuffer(rng.uniform(0.2, 0.8, size=(32, 40)))
        from dvokit.geometry import CameraIntrinsics

        k = CameraIntrinsics(40.0, 40.0, 19.5, 15.5)
        cfg = short_cfg("dvo-em", steps=2)
        trace = train_triplet([spec_img, spec_img, spec_img], k, cfg)
        p21, p23 = trace.final_poses
        assert np.max(np.abs(p21.as_vector())) < 1e-8
        assert np.max(np.abs(p23.as_vector())) < 1e-8

    def test_no_dvo_level_hits_the_cap(self, clip, monkeypatch):
        images, k, _, gt_d = clip
        results = []
        real_solve = training.solve_coarse_to_fine

        def recording(*args, **kwargs):
            results.append(real_solve(*args, **kwargs))
            return results[-1]

        monkeypatch.setattr(training, "solve_coarse_to_fine", recording)
        cfg = short_cfg("dvo-em", lr=0.06, normalize_depth=True, dvo=DvoSettings(levels=4))
        train_triplet(images, k, cfg, gt_inv_depth=gt_d)
        assert len(results) == 10
        for res in results:
            assert len(res.stop_reasons) == 4
            assert set(res.stop_reasons) <= {"converged", "stalled"}
