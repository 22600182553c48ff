import numpy as np
import pytest

from dvokit.bundled import large_motion_pair, small_motion_pair
from dvokit import dvo
from dvokit.ddvo import DdvoSettings, ddvo_forward
from dvokit.dvo import DvoResult, DvoSettings, build_jacobian, solve_coarse_to_fine
from dvokit.errors import DegenerateOverlap, GridTooSmall, ShapeMismatch, SingularSystem
from dvokit.geometry import CameraIntrinsics, Pose6D, so3_exp, so3_log
from dvokit.imaging import bilinear_many
from dvokit.synth import SceneSpec, make_pair, make_scene
from dvokit.warp import MIN_VALID_FRACTION, points, warp_and_sample


def rotation_error_deg(est: Pose6D, true: Pose6D):
    R_rel = so3_exp(est.omega) @ so3_exp(true.omega).T
    return np.rad2deg(np.linalg.norm(so3_log(R_rel)))


def translation_rel_error(est: Pose6D, true: Pose6D):
    return np.linalg.norm(est.t - true.t) / np.linalg.norm(true.t)


def solve_level(ref_img, ref_depth, src_img, k, init, settings):
    """One-level solve: the coarse-to-fine solver on the finest level only."""
    assert settings.levels == 1
    return solve_coarse_to_fine(ref_img, ref_depth, src_img, k, init, settings)


def scene_arrays(spec):
    """``make_scene(spec)`` as the solvers take it: gray image and inverse depth."""
    img, depth = make_scene(spec)
    return img.gray(), depth.values


class TestPrecomputeReferenceSystem:
    def test_constant_image_raises(self):
        img = np.full((16, 16), 0.5)
        depth = np.full((16, 16), 0.4)
        k = CameraIntrinsics(16.0, 16.0, 7.5, 7.5)
        with pytest.raises(SingularSystem):
            solve_coarse_to_fine(
                img, depth, img, k, Pose6D.identity(), DvoSettings(levels=1)
            )

    def test_jacobian_matches_finite_differences(self):
        # Row i of J is the derivative at p = 0 of the warped intensity
        # bilinear(ref, pixel(warp(x_i, p, d_i))).  Central differences of
        # that map at lattice points average the two adjacent bilinear cell
        # slopes, which is exactly the central-difference image gradient, so
        # interior rows must agree to the finite-difference truncation error.
        w, h = 8, 8
        k = CameraIntrinsics(8.0, 8.0, 3.5, 3.5)
        rng = np.random.default_rng(11)
        ref = rng.uniform(0.0, 1.0, size=(h, w))
        depth = rng.uniform(0.25, 0.5, size=(h, w))
        J, _ = build_jacobian(ref, points(k, depth), k)
        u, v = np.meshgrid(*k.normalized_axes(w, h))

        def warped_intensity(p_vec):
            pose = Pose6D.from_vector(p_vec)
            R = so3_exp(pose.omega)
            dirs = np.stack([u, v, np.ones_like(u)], axis=-1)
            P = dirs @ R.T + depth[..., None] * pose.t
            px = (P[..., 0] / P[..., 2]) * k.fx + k.cx
            py = (P[..., 1] / P[..., 2]) * k.fy + k.cy
            vals, _ = bilinear_many(ref, px, py)
            return vals.ravel()

        eps = 1e-6
        interior = np.zeros((h, w), dtype=bool)
        interior[1:-1, 1:-1] = True
        interior = interior.ravel()
        for j in range(6):
            step = np.zeros(6)
            step[j] = eps
            fd = (warped_intensity(step) - warped_intensity(-step)) / (2.0 * eps)
            assert np.max(np.abs(fd[interior] - J[interior, j])) < 1e-5


def finest_system(ref, depth, src, k):
    """``(src, k, LevelSystem)`` of the finest level alone."""
    return next(dvo.level_systems(ref, depth, src, k, 1))


class TestNormalMatrix:
    @pytest.mark.parametrize("fraction", [1.0, 0.97, 0.25])
    def test_downdate_matches_weighted_product(self, fraction):
        ref, depth, src, _, k = small_motion_pair(0)
        _, _, system = finest_system(ref, depth, src, k)
        J = system.J
        n = J.shape[0]
        mask = np.zeros(n, dtype=bool)
        mask[np.random.default_rng(7).permutation(n)[: round(fraction * n)]] = True
        _, H = dvo.gauss_newton_step(system, (system.ref_flat - src.ravel()) * mask, mask)
        expected = J.T @ (J * mask[:, None])
        assert np.max(np.abs(H - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_every_point_in_view_returns_the_level_matrix(self):
        ref, depth, src, _, k = small_motion_pair(0)
        _, _, system = finest_system(ref, depth, src, k)
        # The level matrix is J^T J as it stands.
        assert np.array_equal(system.H, system.J.T @ system.J)
        _, H = dvo.gauss_newton_step(system, system.ref_flat - src.ravel(),
                                     np.ones(ref.size, dtype=bool))
        assert np.array_equal(H, system.H)

    def test_singular_when_only_untextured_points_stay_in_view(self):
        # J^T W J is zero for these points; the downdate leaves at most the
        # rounding of the full matrix, which the conditioning check must
        # still read as singular.
        ref = np.full((16, 16), 0.5)
        ref[:, :6] = np.random.default_rng(3).uniform(size=(16, 6))
        depth = np.full((16, 16), 0.4)
        k = CameraIntrinsics(16.0, 16.0, 7.5, 7.5)
        _, _, system = finest_system(ref, depth, ref, k)
        untextured = ~system.J.any(axis=1)
        assert untextured.mean() >= MIN_VALID_FRACTION
        with pytest.raises(SingularSystem):
            dvo.gauss_newton_step(system, np.zeros(ref.size), untextured)

    def test_step_ignores_a_common_intensity_offset(self):
        # At the true pose the residual is small against the intensities.
        # The step is formed from W (ref - sampled), so adding 1e3 to both
        # moves it by rounding of the residual alone, not of J^T W ref.
        ref, depth, src, pose, k = small_motion_pair(0)
        src_level, k_level, system = finest_system(ref, depth, src, k)
        sampled, mask = warp_and_sample(src_level, system.X, so3_exp(pose.omega), pose.t,
                                        k_level)
        delta, _ = dvo.gauss_newton_step(system, (system.ref_flat - sampled) * mask, mask)
        shifted = (system.ref_flat + 1e3 - (sampled + 1e3)) * mask
        delta_shifted, _ = dvo.gauss_newton_step(system, shifted, mask)
        assert np.linalg.norm(delta_shifted - delta) <= 1e-9 * np.linalg.norm(delta)

    def test_too_small_level_raises_grid_too_small(self):
        # A 16x16 pair at 5 levels reaches a 1x1 coarsest level.
        spec = SceneSpec(kind="textured-plane", width=16, height=16)
        ref_img, ref_depth, src_img = make_pair(spec, Pose6D([0.01, 0.0, 0.0], [0.0, 0.0, 0.0]))
        arrays = (ref_img.gray(), ref_depth.values, src_img.gray(), spec.intrinsics)
        with pytest.raises(GridTooSmall):
            solve_coarse_to_fine(*arrays, Pose6D.identity(), DvoSettings(levels=5))
        with pytest.raises(GridTooSmall):
            ddvo_forward(*arrays, DdvoSettings(levels=5))


class TestSolveLevel:
    def test_zero_motion(self):
        spec = SceneSpec(kind="smooth-height-field", texture_seed=4, width=48, height=40)
        img, depth = scene_arrays(spec)
        res = solve_level(img, depth, img, spec.intrinsics, Pose6D.identity(), DvoSettings(levels=1))
        assert np.max(np.abs(res.pose.as_vector())) < 1e-10
        assert res.final_residual < 1e-20

    def test_small_motion_recovery(self):
        ref_img, ref_depth, src_img, true_pose, k = small_motion_pair(0)
        res = solve_level(ref_img, ref_depth, src_img, k, Pose6D.identity(), DvoSettings(levels=1))
        assert rotation_error_deg(res.pose, true_pose) < 0.05
        assert translation_rel_error(res.pose, true_pose) < 0.02

    def test_init_at_optimum_returns_immediately(self):
        # Fronto-parallel plane with an exact 2-pixel horizontal shift: the
        # source is the reference rolled by 2 columns, and the pose whose
        # warp is precisely that shift leaves a bit-exact zero residual on
        # every in-view pixel, so the first update is zero.
        w, h = 32, 24
        z0 = 3.0
        spec = SceneSpec(
            kind="textured-plane", texture_seed=6, width=w, height=h,
            depth_range=(z0, z0),
        )
        ref_img, ref_depth = scene_arrays(spec)
        src = np.roll(ref_img, 2, axis=1)
        k = spec.intrinsics
        tx = 2.0 * z0 / k.fx  # d * tx * fx = 2 pixels
        p_star = Pose6D([tx, 0.0, 0.0], np.zeros(3))
        res = solve_level(
            ref_img, ref_depth, src, k, p_star, DvoSettings(levels=1)
        )
        assert res.iterations_used == (1,)
        assert np.array_equal(res.pose.as_vector(), p_star.as_vector())
        assert res.final_residual == 0.0

    def test_determinism(self):
        ref_img, ref_depth, src_img, _, k = small_motion_pair(3)
        a = solve_level(ref_img, ref_depth, src_img, k, Pose6D.identity(), DvoSettings(levels=1))
        b = solve_level(ref_img, ref_depth, src_img, k, Pose6D.identity(), DvoSettings(levels=1))
        assert np.array_equal(a.pose.as_vector(), b.pose.as_vector())
        assert a.final_residual == b.final_residual
        assert a.residual_history == b.residual_history


class TestCoarseToFine:
    def test_levels_hand_over_matrix_poses(self, monkeypatch):
        # Each level passes (R, t) to the next; only the result is
        # converted to exponential coordinates.
        calls = []

        def counting_log(R):
            calls.append(R)
            return so3_log(R)

        monkeypatch.setattr(dvo, "so3_log", counting_log)
        ref_img, ref_depth, src_img, _, k = small_motion_pair(5)
        res = solve_coarse_to_fine(ref_img, ref_depth, src_img, k, Pose6D.identity(),
                                   DvoSettings(levels=4))
        assert len(res.iterations_used) == 4
        assert len(calls) == 1

    def test_large_motion_needs_pyramid(self):
        ref_img, ref_depth, src_img, true_pose, k = large_motion_pair()
        init = Pose6D.identity()
        single = solve_level(ref_img, ref_depth, src_img, k, init, DvoSettings(levels=1))
        multi = solve_coarse_to_fine(ref_img, ref_depth, src_img, k, init, DvoSettings(levels=4))
        assert multi.final_residual < 1e-4
        assert single.final_residual > 10.0 * multi.final_residual
        assert translation_rel_error(multi.pose, true_pose) < 0.02

    def test_zero_motion_any_levels(self):
        spec = SceneSpec(kind="smooth-height-field", texture_seed=4, width=64, height=48)
        img, depth = scene_arrays(spec)
        for levels in (1, 2, 3):
            res = solve_coarse_to_fine(
                img, depth, img, spec.intrinsics, Pose6D.identity(), DvoSettings(levels=levels)
            )
            assert np.max(np.abs(res.pose.as_vector())) < 1e-10


class TestPoseRecoverySuite:
    def test_hundred_random_pairs(self):
        rot_errors = []
        trans_errors = []
        settings = DvoSettings(levels=1)
        for seed in range(100):
            ref_img, ref_depth, src_img, true_pose, k = small_motion_pair(seed)
            res = solve_level(ref_img, ref_depth, src_img, k, Pose6D.identity(), settings)
            rot_errors.append(rotation_error_deg(res.pose, true_pose))
            trans_errors.append(translation_rel_error(res.pose, true_pose))
        assert np.median(rot_errors) < 0.05
        assert np.median(trans_errors) < 0.02

    def test_residuals_mostly_non_increasing(self):
        increases = 0
        steps = 0
        for seed in range(20):
            ref_img, ref_depth, src_img, _, k = small_motion_pair(seed)
            res = solve_level(
                ref_img, ref_depth, src_img, k, Pose6D.identity(), DvoSettings(levels=1)
            )
            hist = res.residual_history
            for a, b in zip(hist, hist[1:]):
                steps += 1
                # Increases below 1e-10 absolute are convergence-floor
                # dithering (initial residuals sit near 1e-4), not steps
                # that actually moved uphill.
                if b > a + 1e-10:
                    increases += 1
        assert increases <= 0.05 * steps

    def test_warm_start_dominates(self):
        settings = DvoSettings(levels=1)
        for seed in range(20):
            ref_img, ref_depth, src_img, true_pose, k = small_motion_pair(seed)
            cold = solve_level(ref_img, ref_depth, src_img, k, Pose6D.identity(), settings)
            warm = solve_level(ref_img, ref_depth, src_img, k, true_pose, settings)
            assert warm.final_residual <= cold.final_residual + 1e-10


class TestStopReasons:
    def test_stalled_level_returns_current_pose(self):
        # With residual_rel_tol = 1 a level may only continue past its first
        # step if that step drove the residual to zero, so it stalls at the
        # second residual: one step taken, and the pose and residual those
        # of a level capped at one step.
        ref_img, ref_depth, src_img, _, k = small_motion_pair(0)
        stalled = solve_level(ref_img, ref_depth, src_img, k, Pose6D.identity(),
                              DvoSettings(levels=1, residual_rel_tol=1.0))
        one_step = solve_level(ref_img, ref_depth, src_img, k, Pose6D.identity(),
                               DvoSettings(levels=1, max_iters_per_level=1))
        assert stalled.stop_reasons == ("stalled",)
        assert stalled.iterations_used == (1,)
        assert stalled.final_residual == stalled.residual_history[-1]
        assert stalled.residual_history[1] > 0.0
        assert one_step.stop_reasons == ("max_iters",)
        assert np.array_equal(stalled.pose.as_vector(), one_step.pose.as_vector())
        assert stalled.residual_history == one_step.residual_history
        assert stalled.valid_fraction == one_step.valid_fraction

    def test_returned_pose_out_of_view_raises(self, monkeypatch):
        # A level capped at one step warps twice: once for its step and
        # once at the pose it returns.  With no pixel in view there, the
        # level has no residual to report and must not hand back the one
        # of the pose before.
        ref_img, ref_depth, src_img, _, k = small_motion_pair(0)
        real = dvo.warp_and_sample
        calls = []

        def out_of_view_at_the_end(*args):
            sampled, mask = real(*args)
            calls.append(mask.mean())
            return sampled, mask if len(calls) == 1 else np.zeros_like(mask)

        monkeypatch.setattr(dvo, "warp_and_sample", out_of_view_at_the_end)
        with pytest.raises(DegenerateOverlap):
            solve_level(ref_img, ref_depth, src_img, k, Pose6D.identity(),
                        DvoSettings(levels=1, max_iters_per_level=1))
        assert len(calls) == 2 and calls[0] >= MIN_VALID_FRACTION

    def test_default_settings_never_hit_the_cap(self):
        for seed in range(20):
            ref_img, ref_depth, src_img, _, k = small_motion_pair(seed)
            res = solve_coarse_to_fine(ref_img, ref_depth, src_img, k, Pose6D.identity(),
                                       DvoSettings(levels=4))
            assert len(res.stop_reasons) == 4
            assert set(res.stop_reasons) <= {"converged", "stalled"}
            assert max(res.iterations_used) < DvoSettings().max_iters_per_level

    def test_converged_at_optimum(self):
        spec = SceneSpec(kind="smooth-height-field", texture_seed=4, width=48, height=40)
        img, depth = scene_arrays(spec)
        res = solve_coarse_to_fine(img, depth, img, spec.intrinsics, Pose6D.identity(),
                                   DvoSettings(levels=2))
        assert res.stop_reasons == ("converged", "converged")
        assert res.iterations_used == (1, 1)


class TestValidation:
    def test_result_invariants(self):
        with pytest.raises(ValueError):
            DvoResult(Pose6D.identity(), -1.0, (1,), 0.5)
        with pytest.raises(ValueError):
            DvoResult(Pose6D.identity(), 0.0, (1,), 1.5)

    def test_settings_invariants(self):
        with pytest.raises(ValueError):
            DvoSettings(levels=0)
        with pytest.raises(ValueError):
            DvoSettings(step_norm_tol=0.0)
        with pytest.raises(ValueError):
            DvoSettings(residual_rel_tol=-1.0)

    def test_grid_mismatch(self):
        spec = SceneSpec(kind="textured-plane", texture_seed=0, width=32, height=24)
        img, depth = scene_arrays(spec)
        for ref, d, src in ((img, depth, img[:16, :16]), (img, depth[:, :-1], img),
                            (img[..., None], depth, img)):
            with pytest.raises(ShapeMismatch) as dvo_error:
                solve_coarse_to_fine(
                    ref, d, src, spec.intrinsics, Pose6D.identity(), DvoSettings()
                )
            with pytest.raises(ShapeMismatch) as ddvo_error:
                ddvo_forward(ref, d, src, spec.intrinsics, DdvoSettings())
            assert str(ddvo_error.value) == str(dvo_error.value)
