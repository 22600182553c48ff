from dataclasses import replace

import numpy as np
import pytest

from dvokit import ddvo, training
from dvokit.bundled import small_motion_pair, training_triplet
from dvokit.ddvo import DdvoSettings, ddvo_backward, ddvo_forward, replay_frozen_jacobian
from dvokit.dvo import DvoSettings, solve_coarse_to_fine
from dvokit.errors import ShapeMismatch, SingularSystem, TapeMismatch
from dvokit.geometry import CameraIntrinsics, Pose6D
from dvokit.losses import LossWeights
from dvokit.synth import SceneSpec, make_pair
from dvokit.training import TrainConfig


def small_instance(seed, width=16, height=16):
    """Photometrically consistent pair on a tiny relief scene."""
    rng = np.random.default_rng(seed)
    spec = SceneSpec(
        kind="smooth-height-field",
        texture_seed=int(rng.integers(0, 2**31)),
        width=width,
        height=height,
    )
    t = rng.normal(size=3)
    t *= 0.03 / np.linalg.norm(t)
    w = rng.normal(size=3)
    w *= 0.004 / np.linalg.norm(w)
    pose = Pose6D(t, w)
    ref, depth, src = make_pair(spec, pose)
    return ref.gray(), depth.values, src.gray(), spec.intrinsics, pose


def random_seed(rng):
    """A pose seed ``(g_t, g_R)`` with an ambient, unprojected ``g_R``."""
    return rng.normal(size=3), rng.normal(size=(3, 3))


def seed_dot(g, R, t):
    """``g_t . t + <g_R, R>``: the pose function a seed ``g`` differentiates."""
    g_t, g_R = g
    return float(g_t @ t + np.sum(g_R * R))


def fd_directional(ref, depth, src, k, settings, g, delta, h=1e-5):
    """Central-difference directional derivative of g . (R, t)(d)."""

    def run(values):
        _, tape = ddvo_forward(ref, values, src, k, settings)
        return seed_dot(g, tape.R_final, tape.t_final)

    return (run(depth + h * delta) - run(depth - h * delta)) / (2.0 * h)


def full_sweep(tape, g, monkeypatch):
    """``ddvo_backward`` with the seed-contraction stop switched off."""
    with monkeypatch.context() as m:
        m.setattr(ddvo, "SEED_REL_TOL", 0.0)
        return ddvo_backward(tape, g)


def count_reversed_iterations(monkeypatch):
    """Patch ddvo's sampler to log each call's ``grad`` flag; the reverse
    sweep makes one ``grad=True`` call per iteration it reverses."""
    calls = []
    warp_and_sample = ddvo.warp_and_sample

    def counting(*args, grad=False, **kwargs):
        calls.append(grad)
        return warp_and_sample(*args, grad=grad, **kwargs)

    monkeypatch.setattr(ddvo, "warp_and_sample", counting)
    return calls


def rel_l2(a, b):
    return float(np.linalg.norm(a - b) / np.linalg.norm(b))


@pytest.fixture(scope="module")
def clip_tapes():
    """The two tapes and loss seeds of the first DDVO training step on the
    bundled clip, at the DDVO acceptance settings (unroll 6, levels 4)."""
    data = training_triplet()
    cfg = TrainConfig(mode="ddvo", lr=0.01, steps=1, weights=LossWeights(lambda_prior=0.01),
                      ddvo=DdvoSettings(unroll_iters=6, levels=4))
    recorded = []

    def record(tape, g):
        recorded.append((tape, tuple(np.array(a) for a in g)))
        return ddvo_backward(tape, g)

    with pytest.MonkeyPatch.context() as m:
        m.setattr(training, "ddvo_backward", record)
        training.train_triplet(data["images"], data["intrinsics"], cfg)
    assert len(recorded) == 2
    return recorded


def pose_entries(tape):
    """The 12 entries of the final pose: ``t``, then ``R`` row by row."""
    return np.concatenate([tape.t_final, tape.R_final.ravel()])


def pose_depth_jacobian(ref, depth, src, k, settings):
    """Dense 12 x N Jacobian of ``pose_entries`` by depth, one
    ``ddvo_backward`` per unit seed."""
    _, tape = ddvo_forward(ref, depth, src, k, settings)
    seeds = [(e[:3], e[3:].reshape(3, 3)) for e in np.eye(12)]
    return np.stack([ddvo_backward(tape, seed).ravel() for seed in seeds])


class TestForward:
    def test_zero_motion_identity(self):
        spec = SceneSpec(kind="smooth-height-field", texture_seed=2, width=32, height=24)
        ref, depth, src = make_pair(spec, Pose6D.identity())
        pose, tape = ddvo_forward(ref.gray(), depth.values, src.gray(), spec.intrinsics,
                                  DdvoSettings(unroll_iters=1))
        assert np.max(np.abs(pose.as_vector())) < 1e-10
        assert len(tape) == 1

    def test_matches_dvo_when_settings_coincide(self):
        ref, depth, src, k, _ = small_instance(0, width=32, height=32)
        for levels in (1, 3):
            dvo_res = solve_coarse_to_fine(
                ref, depth, src, k, Pose6D.identity(),
                DvoSettings(levels=levels, max_iters_per_level=3, step_norm_tol=1e-300,
                            residual_rel_tol=0.0),
            )
            pose, _ = ddvo_forward(
                ref, depth, src, k, DdvoSettings(unroll_iters=3, levels=levels)
            )
            assert np.max(np.abs(pose.as_vector() - dvo_res.pose.as_vector())) < 1e-12

    def test_three_iterations_near_true_pose(self):
        ref, depth, src, true_pose, k = small_motion_pair(0)
        pose, _ = ddvo_forward(ref, depth, src, k, DdvoSettings(unroll_iters=3))
        rel = np.linalg.norm(pose.as_vector() - true_pose.as_vector())
        rel /= np.linalg.norm(true_pose.as_vector())
        assert rel < 0.05

    def test_tape_length_and_determinism(self):
        ref, depth, src, k, _ = small_instance(1)
        s = DdvoSettings(unroll_iters=2, levels=2)
        a, tape_a = ddvo_forward(ref, depth, src, k, s)
        b, tape_b = ddvo_forward(ref, depth, src, k, s)
        assert len(tape_a) == 4
        assert np.array_equal(a.as_vector(), b.as_vector())
        assert np.array_equal(tape_a.R_final, tape_b.R_final)

    def test_settings_validation(self):
        with pytest.raises(ValueError):
            DdvoSettings(unroll_iters=0)
        with pytest.raises(ValueError):
            DdvoSettings(levels=0)

    def test_constant_image_raises(self):
        # Plain Gauss-Newton has no step on a textureless pair.
        img = np.full((16, 16), 0.5)
        depth = np.full((16, 16), 0.4)
        k = CameraIntrinsics(16.0, 16.0, 7.5, 7.5)
        with pytest.raises(SingularSystem):
            ddvo_forward(img, depth, img, k, DdvoSettings(unroll_iters=2))


class TestBackward:
    def test_zero_seed_zero_gradient(self):
        # A zero seed ends the reverse sweep before its first iteration.
        ref, depth, src, k, _ = small_instance(2)
        zero = (np.zeros(3), np.zeros((3, 3)))
        for s in (DdvoSettings(unroll_iters=2), DdvoSettings(unroll_iters=6, levels=2)):
            _, tape = ddvo_forward(ref, depth, src, k, s)
            assert np.array_equal(ddvo_backward(tape, zero), np.zeros(depth.shape))

    def test_bad_seed_length(self):
        ref, depth, src, k, _ = small_instance(3)
        _, tape = ddvo_forward(ref, depth, src, k, DdvoSettings(unroll_iters=1))
        # Among the wrong shapes is the 6-vector seed on (t, omega).
        for seed in (np.zeros(6), (np.zeros(3), np.zeros(3)),
                     (np.zeros((3, 3)), np.zeros(3)), (np.zeros(3),)):
            with pytest.raises(TapeMismatch):
                ddvo_backward(tape, seed)

    def test_tape_short_of_the_unroll(self):
        ref, depth, src, k, _ = small_instance(3)
        _, tape = ddvo_forward(ref, depth, src, k, DdvoSettings(unroll_iters=2, levels=2))
        coarse, fine = tape.levels
        seed = random_seed(np.random.default_rng(0))
        for levels in ((coarse,), (coarse, replace(fine, iters=fine.iters[:-1]))):
            with pytest.raises(TapeMismatch, match="does not cover the configured unroll"):
                ddvo_backward(replace(tape, levels=levels), seed)

    def test_finite_difference_single_instance(self):
        ref, depth, src, k, _ = small_instance(4)
        s = DdvoSettings(unroll_iters=2)
        _, tape = ddvo_forward(ref, depth, src, k, s)
        rng = np.random.default_rng(7)
        for _ in range(5):
            g = random_seed(rng)
            delta = rng.normal(size=depth.shape)
            fd = fd_directional(ref, depth, src, k, s, g, delta)
            analytic = float(np.sum(ddvo_backward(tape, g) * delta))
            assert abs(fd - analytic) <= 1e-3 * max(abs(fd), 1e-12)

    def test_finite_difference_fifty_instances(self):
        # A step of 1e-5 lets the central difference straddle changes of
        # the in-view mask: on trial 41 it then misses the exact gradient
        # by 1.4e-2, while at 1e-6 every trial agrees with it to 3e-6.
        rng = np.random.default_rng(2024)
        worst = 0.0
        for trial in range(50):
            ref, depth, src, k, _ = small_instance(100 + trial)
            levels = 1 + trial % 2
            s = DdvoSettings(unroll_iters=2, levels=levels)
            _, tape = ddvo_forward(ref, depth, src, k, s)
            g = random_seed(rng)
            delta = rng.normal(size=depth.shape)
            fd = fd_directional(ref, depth, src, k, s, g, delta, h=1e-6)
            analytic = float(np.sum(ddvo_backward(tape, g) * delta))
            rel = abs(fd - analytic) / max(abs(fd), 1e-12)
            worst = max(worst, rel)
        assert worst < 1e-3

    def test_partial_chain_matches_frozen_jacobian_replay(self):
        # With gradients through J switched off, the backward pass is the
        # exact derivative of the replay that keeps J and the normal
        # matrices frozen while warping with the perturbed depth.
        ref, depth, src, k, _ = small_instance(5)
        s = DdvoSettings(unroll_iters=2, grad_through_jacobian=False)
        _, tape = ddvo_forward(ref, depth, src, k, s)
        rng = np.random.default_rng(9)
        h = 1e-5
        for _ in range(3):
            g = random_seed(rng)
            delta = rng.normal(size=depth.shape)
            plus = replay_frozen_jacobian(tape, depth + h * delta).rt()
            minus = replay_frozen_jacobian(tape, depth - h * delta).rt()
            fd = (seed_dot(g, *plus) - seed_dot(g, *minus)) / (2.0 * h)
            analytic = float(np.sum(ddvo_backward(tape, g) * delta))
            assert abs(fd - analytic) <= 1e-3 * max(abs(fd), 1e-12)

    def test_partial_chain_differs_from_full(self):
        ref, depth, src, k, _ = small_instance(6)
        _, full_tape = ddvo_forward(ref, depth, src, k, DdvoSettings(unroll_iters=2))
        _, part_tape = ddvo_forward(
            ref, depth, src, k, DdvoSettings(unroll_iters=2, grad_through_jacobian=False)
        )
        g = (np.ones(3), np.arange(9.0).reshape(3, 3))
        assert np.max(np.abs(ddvo_backward(full_tape, g) - ddvo_backward(part_tape, g))) > 1e-12

    def test_replay_reproduces_forward_pose(self):
        ref, depth, src, k, _ = small_instance(7)
        s = DdvoSettings(unroll_iters=2, levels=2)
        pose, tape = ddvo_forward(ref, depth, src, k, s)
        replayed = replay_frozen_jacobian(tape, depth)
        assert np.array_equal(pose.as_vector(), replayed.as_vector())

    def test_replay_starts_from_the_forward_init(self):
        ref, depth, src, k, _ = small_instance(7)
        init = Pose6D(np.array([0.01, -0.02, 0.005]), np.array([0.002, 0.0, -0.003]))
        pose, tape = ddvo_forward(ref, depth, src, k, DdvoSettings(unroll_iters=2, levels=2),
                                  init)
        assert np.array_equal(tape.levels[0].iters[0].R, init.rt()[0])
        replayed = replay_frozen_jacobian(tape, depth)
        assert np.array_equal(pose.as_vector(), replayed.as_vector())

    def test_replay_rejects_a_depth_off_the_tape_grid(self):
        # A cropped depth and a transposed one with the same pixel count.
        ref, depth, src, _, k = small_motion_pair(0)
        _, tape = ddvo_forward(ref, depth, src, k, DdvoSettings(unroll_iters=2, levels=2))
        for bad in (depth[:-2], depth.T.copy()):
            with pytest.raises(ShapeMismatch):
                replay_frozen_jacobian(tape, bad)

    def test_backward_determinism(self):
        ref, depth, src, k, _ = small_instance(8)
        _, tape = ddvo_forward(ref, depth, src, k, DdvoSettings(unroll_iters=2))
        g = (np.arange(3.0), np.arange(9.0).reshape(3, 3))
        assert np.array_equal(ddvo_backward(tape, g), ddvo_backward(tape, g))


class TestDenseJacobian:
    def make_8x8(self, seed=0):
        # SceneSpec refuses grids this small, so build the instance by
        # hand: a smooth random texture, a gently varying depth, and a
        # source that is the reference under a small known warp.
        rng = np.random.default_rng(seed)
        coarse = rng.uniform(0.2, 0.8, size=(4, 4))
        ref = np.kron(coarse, np.ones((2, 2)))
        ref += 0.05 * rng.standard_normal((8, 8))
        ref = np.clip(ref, 0.0, 1.0)
        src = np.roll(ref, 1, axis=1) + 0.02 * rng.standard_normal((8, 8))
        src = np.clip(src, 0.0, 1.0)
        depth = 0.3 + 0.05 * rng.uniform(size=(8, 8))
        k = CameraIntrinsics(8.0, 8.0, 3.5, 3.5)
        return ref, depth, src, k

    def test_matrix_matches_column_finite_differences(self):
        ref, depth, src, k = self.make_8x8()
        s = DdvoSettings(unroll_iters=2)
        jac = pose_depth_jacobian(ref, depth, src, k, s)
        h = 1e-5
        fd = np.zeros_like(jac)
        for i in range(64):
            values = depth.copy().ravel()
            values[i] += h
            _, plus = ddvo_forward(ref, values.reshape(8, 8), src, k, s)
            values[i] -= 2.0 * h
            _, minus = ddvo_forward(ref, values.reshape(8, 8), src, k, s)
            fd[:, i] = (pose_entries(plus) - pose_entries(minus)) / (2.0 * h)
        scale = np.max(np.abs(fd))
        assert np.max(np.abs(jac - fd)) < 1e-3 * scale


class TestSeedContraction:
    """``ddvo_backward`` ends its reverse sweep once the pose seed's tangent
    part has contracted to ``SEED_REL_TOL`` of its initial norm."""

    def test_stops_early_on_the_clip(self, clip_tapes, monkeypatch):
        calls = count_reversed_iterations(monkeypatch)
        for tape, g in clip_tapes:
            calls.clear()
            ddvo_backward(tape, g)
            assert 1 <= sum(calls) <= 6
            calls.clear()
            full_sweep(tape, g, monkeypatch)
            assert sum(calls) == 24

    def test_close_to_full_sweep_on_the_clip(self, clip_tapes, monkeypatch):
        for tape, g in clip_tapes:
            assert rel_l2(ddvo_backward(tape, g), full_sweep(tape, g, monkeypatch)) < 1e-3

    def test_close_to_full_sweep_at_two_levels(self, monkeypatch):
        rng = np.random.default_rng(11)
        s = DdvoSettings(unroll_iters=6, levels=2)
        instances = [small_instance(100 + i)[:4] for i in range(6)]
        instances += [(r[0], r[1], r[2], r[4]) for r in map(small_motion_pair, range(4))]
        fired = 0
        for ref, depth, src, k in instances:
            _, tape = ddvo_forward(ref, depth, src, k, s)
            g = random_seed(rng)
            grad, full = ddvo_backward(tape, g), full_sweep(tape, g, monkeypatch)
            fired += not np.array_equal(grad, full)
            assert rel_l2(grad, full) < 1e-3
        assert fired > 0

    def test_ignores_the_normal_part_of_the_seed(self, monkeypatch):
        # dR/d depth lies in the tangent space at R_final, so adding
        # R_final @ S with S symmetric (a normal direction) to g_R changes
        # neither the gradient nor where the sweep stops.  S is large
        # enough that a stop threshold taken from the ambient norm of the
        # seed would move the stop point.
        calls = count_reversed_iterations(monkeypatch)
        rng = np.random.default_rng(14)
        s = DdvoSettings(unroll_iters=6, levels=2)
        for seed in range(4):
            ref, depth, src, _, k = small_motion_pair(seed)
            _, tape = ddvo_forward(ref, depth, src, k, s)
            g_t, g_R = random_seed(rng)
            S = rng.normal(size=(3, 3))
            S = 10.0 * (S + S.T)
            calls.clear()
            grad = ddvo_backward(tape, (g_t, g_R))
            reversed_plain = sum(calls)
            assert reversed_plain < 12  # the stop rule fired
            calls.clear()
            shifted = ddvo_backward(tape, (g_t, g_R + tape.R_final @ S))
            assert sum(calls) == reversed_plain
            assert rel_l2(shifted, grad) < 1e-12

    def test_single_level_short_unroll_is_exact(self, monkeypatch):
        rng = np.random.default_rng(12)
        instances = [small_instance(200 + i)[:4] for i in range(4)]
        instances += [(r[0], r[1], r[2], r[4]) for r in map(small_motion_pair, range(2))]
        for unroll in (1, 2, 3):
            for ref, depth, src, k in instances:
                _, tape = ddvo_forward(ref, depth, src, k, DdvoSettings(unroll_iters=unroll))
                g = random_seed(rng)
                assert np.array_equal(ddvo_backward(tape, g), full_sweep(tape, g, monkeypatch))

    def test_finite_difference_on_the_truncated_path(self, monkeypatch):
        # At 160x128 a step of 1e-5 lets the central difference straddle
        # changes of the in-view mask, and it then misses the full sweep's
        # exact gradient by up to 1.7e-3; at 1e-7 both agree with it to 1e-4.
        rng = np.random.default_rng(13)
        s = DdvoSettings(unroll_iters=6, levels=2)
        for seed in range(6):
            ref, depth, src, _, k = small_motion_pair(seed)
            _, tape = ddvo_forward(ref, depth, src, k, s)
            g = random_seed(rng)
            grad = ddvo_backward(tape, g)
            assert not np.array_equal(grad, full_sweep(tape, g, monkeypatch))
            delta = rng.normal(size=depth.shape)
            fd = fd_directional(ref, depth, src, k, s, g, delta, h=1e-7)
            analytic = float(np.sum(grad * delta))
            assert abs(fd - analytic) <= 1e-3 * max(abs(fd), 1e-12)
