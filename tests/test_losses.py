import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dvokit import losses
from dvokit.bundled import training_triplet
from dvokit.errors import DegenerateDepth, DegenerateOverlap, GridTooSmall, ShapeMismatch
from dvokit.geometry import CameraIntrinsics, Pose6D, so3_exp, so3_exp_vjp
from dvokit.losses import (
    SSIM_C1,
    SSIM_C2,
    LossBreakdown,
    LossWeights,
    Triplet,
    appearance_loss,
    normalize_inverse_depth,
    normalize_inverse_depth_vjp,
    _box3,
    _box3_adjoint,
    smoothness_prior,
    ssim,
    triplet_loss,
)
from dvokit.synth import SceneSpec, make_pair, make_triplet


def consistent_pair(seed=3, width=16, height=16):
    spec = SceneSpec(kind="smooth-height-field", texture_seed=seed, width=width, height=height)
    pose = Pose6D([0.02, -0.01, 0.01], [0.002, -0.003, 0.001])
    ref, depth, src = make_pair(spec, pose)
    return ref, depth, src, pose, spec.intrinsics


def consistent_triplet(seed=5, width=32, height=32):
    spec = SceneSpec(kind="smooth-height-field", texture_seed=seed, width=width, height=height)
    p21 = Pose6D([-0.05, 0.0, 0.02], [0.0, 0.004, 0.0])
    p23 = Pose6D([0.05, 0.0, -0.02], [0.0, -0.003, 0.001])
    data = make_triplet(spec, p21, p23)
    t = Triplet(tuple(img.gray() for img in data["images"]),
                tuple(d.values for d in data["gt_inv_depths"]), p21.rt(), p23.rt())
    return t, data["intrinsics"]


def appearance(ref, src, depth, pose, k, scale):
    """``appearance_loss`` with the pose gradient mapped to ``(t, omega)``."""
    R = so3_exp(pose.omega)
    loss, g_d, g_t, g_R = appearance_loss(ref, src, depth, R, pose.t, k, scale)
    return loss, g_d, np.concatenate([g_t, so3_exp_vjp(pose.omega, R, g_R)])


class TestNormalize:
    def test_constant(self):
        d = np.full((2, 2), 2.0)
        assert np.array_equal(normalize_inverse_depth(d), np.ones((2, 2)))

    def test_two_values(self):
        d = np.array([[1.0, 3.0]])
        assert np.array_equal(normalize_inverse_depth(d), np.array([[0.5, 1.5]]))

    def test_idempotent_and_unit_mean(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            d = rng.uniform(0.1, 2.0, size=(7, 9))
            once = normalize_inverse_depth(d)
            twice = normalize_inverse_depth(once)
            assert abs(np.mean(once) - 1.0) < 1e-12
            assert np.max(np.abs(once - twice)) < 1e-14

    def test_collapsed_depth_raises(self):
        d = np.full((4, 4), 1e-14)
        with pytest.raises(DegenerateDepth):
            normalize_inverse_depth(d)

    def test_vjp_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        values = rng.uniform(0.2, 1.5, size=(6, 6))
        g_out = rng.normal(size=(6, 6))
        delta = rng.normal(size=(6, 6))
        h = 1e-7
        n = values.size

        def eta(v):
            return n * v / np.sum(v)

        fd = np.sum(g_out * (eta(values + h * delta) - eta(values - h * delta))) / (2 * h)
        an = np.sum(normalize_inverse_depth_vjp(values, g_out) * delta)
        assert abs(fd - an) < 1e-6 * max(abs(fd), 1.0)


SINGLE_PASS = settings(max_examples=100, deadline=None, derandomize=True)


@st.composite
def ssim_pairs(draw):
    """A 3x3 to 40x40 pair ``(a, b)`` of intensities, and a map gradient.

    ``b`` is independent of ``a`` or ``a`` plus noise of at least 0.01.
    Where ``b`` equals ``a`` the gradient vanishes while its terms do not,
    so any two orders of its rounding differ by much more than 1e-12 of it.
    """
    h = draw(st.integers(3, 40))
    w = draw(st.integers(3, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    a = rng.uniform(0.0, 1.0, size=(h, w))
    noise = draw(st.sampled_from([None, 0.3, 0.05, 0.01]))
    b = rng.uniform(0.0, 1.0, size=(h, w)) if noise is None else a + rng.normal(
        scale=noise, size=(h, w))
    return a, b, rng.normal(size=(h - 2, w - 2))


class TestSsim:
    @SINGLE_PASS
    @given(st.integers(3, 40), st.integers(3, 40), st.sampled_from([(), (3,), (2, 2)]),
           st.integers(0, 2**32 - 1))
    def test_box_adjoint_is_the_transpose(self, h, w, lead, seed):
        # <_box3(x), g> == <x, _box3_adjoint(g)>, plane by plane when stacked.
        rng = np.random.default_rng(seed)
        x = rng.normal(size=(*lead, h, w))
        g = rng.normal(size=(*lead, h - 2, w - 2))
        boxed, back = _box3(x), _box3_adjoint(g)
        assert boxed.shape == g.shape and back.shape == x.shape
        lhs, rhs = boxed * g, x * back
        assert abs(np.sum(lhs) - np.sum(rhs)) <= 1e-12 * np.sum(np.abs(lhs))
        for i in np.ndindex(lead):
            assert np.array_equal(boxed[i], _box3(x[i]))
            assert np.array_equal(back[i], _box3_adjoint(g[i]))

    @SINGLE_PASS
    @given(ssim_pairs())
    def test_matches_plain_expressions(self, case):
        # The map is computed in place in the plain formulas' order, so its
        # bytes are theirs; the backward takes its three moment gradients
        # in another order, so it agrees to rounding.
        a, b, g = case
        s, backward = ssim(a, b)
        s_ref, backward_ref = oracles.ssim(a, b)
        assert s.tobytes() == s_ref.tobytes()
        g_b, g_ref = backward(g), backward_ref(g)
        assert g_b.shape == a.shape
        assert np.max(np.abs(g_b - g_ref)) <= 1e-12 * np.max(np.abs(g_ref))
        # The backward keeps its inputs: a second call returns the same.
        assert np.array_equal(backward(g), g_b)

    def test_appearance_loss_matches_the_plain_ssim(self, monkeypatch):
        # The finest-scale loss on the training clip, ground-truth poses and
        # depths: the warped samples nearly match, so this is the
        # cancelling case the loss meets in training.
        data = training_triplet()
        ref, src = (data["images"][i].gray() for i in (1, 0))
        depth = data["gt_inv_depths"][1].values
        R, t = data["poses"][0].rt()
        k = data["intrinsics"]
        for scale in (1.0, 0.9):
            got = appearance_loss(ref, src, depth * scale, R, t, k, 0)
            with monkeypatch.context() as m:
                m.setattr(losses, "ssim", oracles.ssim)
                ref_out = appearance_loss(ref, src, depth * scale, R, t, k, 0)
            assert got[0] == ref_out[0]
            for a, b in zip(got[1:], ref_out[1:]):
                assert np.max(np.abs(a - b)) <= 1e-12 * np.max(np.abs(b))

    def test_identical_images(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(0.0, 1.0, size=(8, 8))
        assert np.max(np.abs(ssim(a, a)[0] - 1.0)) < 1e-12

    def test_constant_equal(self):
        a = np.full((5, 5), 0.5)
        assert np.max(np.abs(ssim(a, a)[0] - 1.0)) < 1e-12

    def test_constant_unequal_closed_form(self):
        a = np.full((5, 5), 0.2)
        b = np.full((5, 5), 0.8)
        expected = (
            (2.0 * 0.2 * 0.8 + SSIM_C1) * SSIM_C2
            / ((0.04 + 0.64 + SSIM_C1) * SSIM_C2)
        )
        assert np.max(np.abs(ssim(a, b)[0] - expected)) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            a = rng.uniform(0.0, 1.0, size=(10, 10))
            b = rng.uniform(0.0, 1.0, size=(10, 10))
            s, _ = ssim(a, b)
            assert s.min() >= -1.0 - 1e-12
            assert s.max() <= 1.0 + 1e-12

    def test_grid_too_small(self):
        a = np.full((2, 5), 0.5)
        with pytest.raises(GridTooSmall):
            ssim(a, a)


class TestAppearanceLoss:
    def test_identity_zero(self):
        ref, depth, _, _, k = consistent_pair()
        for scale in range(4):
            loss, g_d, g_p = appearance(
                ref.gray(), ref.gray(), depth.values, Pose6D.identity(), k, scale
            )
            assert loss < 1e-12
            assert np.max(np.abs(g_d)) < 1e-12
            assert np.max(np.abs(g_p)) < 1e-12

    def test_constant_offset_l1(self):
        ref, depth, _, _, k = consistent_pair()
        shifted = ref.gray() + 0.1
        loss, _, _ = appearance(ref.gray(), shifted, depth.values, Pose6D.identity(), k, 1)
        assert abs(loss - 0.1) < 1e-12

    def test_gradients_match_finite_differences(self):
        ref, depth, src, pose, k = consistent_pair()
        ref, depth, src = ref.gray(), depth.values, src.gray()
        rng = np.random.default_rng(4)
        h = 1e-6
        for scale in (0, 2):
            loss, g_d, g_p = appearance(ref, src, depth, pose, k, scale)
            assert loss >= 0.0
            for _ in range(3):
                delta = rng.normal(size=depth.shape)
                lp = appearance(ref, src, depth + h * delta, pose, k, scale)[0]
                lm = appearance(ref, src, depth - h * delta, pose, k, scale)[0]
                fd = (lp - lm) / (2.0 * h)
                an = float(np.sum(g_d * delta))
                assert abs(fd - an) <= 1e-4 * max(abs(fd), 1e-10)
                dp = rng.normal(size=6)
                lp = appearance(
                    ref, src, depth, Pose6D.from_vector(pose.as_vector() + h * dp), k, scale
                )[0]
                lm = appearance(
                    ref, src, depth, Pose6D.from_vector(pose.as_vector() - h * dp), k, scale
                )[0]
                fd = (lp - lm) / (2.0 * h)
                an = float(g_p @ dp)
                assert abs(fd - an) <= 1e-4 * max(abs(fd), 1e-10)

    def test_degenerate_overlap(self):
        ref, depth, src, _, k = consistent_pair()
        runaway = Pose6D([20.0, 0.0, 0.0], np.zeros(3))
        with pytest.raises(DegenerateOverlap):
            appearance(ref.gray(), src.gray(), depth.values, runaway, k, 1)

    def test_reference_depth_shape_mismatch(self):
        ref, depth, src, pose, k = consistent_pair()
        with pytest.raises(ShapeMismatch):
            appearance(ref.gray(), src.gray(), depth.values[:-1], pose, k, 1)


class TestSmoothnessPrior:
    def test_affine_depth_zero(self):
        h, w = 10, 12
        y, x = np.mgrid[0:h, 0:w].astype(float)
        d = 0.3 + 0.01 * x + 0.02 * y
        img = np.random.default_rng(5).uniform(0.0, 1.0, size=(h, w))
        loss, grad = smoothness_prior(d, img)
        assert loss < 1e-12

    def test_quadratic_on_flat_image(self):
        h, w = 8, 8
        x = np.tile(np.arange(w, dtype=float), (h, 1))
        img = np.full((h, w), 0.5)
        loss, _ = smoothness_prior(x * x, img)
        assert abs(loss - 2.0) < 1e-12

    def test_positive_homogeneity(self):
        rng = np.random.default_rng(6)
        vals = rng.uniform(0.1, 1.0, size=(9, 9))
        img = rng.uniform(0.0, 1.0, size=(9, 9))
        base, _ = smoothness_prior(vals, img)
        scaled, _ = smoothness_prior(4.0 * vals, img)
        assert scaled == 4.0 * base

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(7)
        vals = rng.uniform(0.1, 1.0, size=(8, 8))
        img = rng.uniform(0.0, 1.0, size=(8, 8))
        _, grad = smoothness_prior(vals, img)
        h = 1e-7
        delta = rng.normal(size=(8, 8))
        lp, _ = smoothness_prior(vals + h * delta, img)
        lm, _ = smoothness_prior(vals - h * delta, img)
        fd = (lp - lm) / (2.0 * h)
        an = float(np.sum(grad * delta))
        assert abs(fd - an) <= 1e-6 * max(abs(fd), 1.0)

    def test_grid_too_small(self):
        d = np.full((2, 8), 0.5)
        img = np.full((2, 8), 0.5)
        with pytest.raises(GridTooSmall):
            smoothness_prior(d, img)


class TestTripletLoss:
    def test_static_triplet_zero(self):
        h, w = 24, 32
        rng = np.random.default_rng(8)
        img = rng.uniform(0.0, 1.0, size=(h, w))
        y, x = np.mgrid[0:h, 0:w].astype(float)
        d = 0.3 + 0.001 * x + 0.002 * y
        t = Triplet((img, img, img), (d, d, d), Pose6D.identity().rt(), Pose6D.identity().rt())
        k = CameraIntrinsics(float(w), float(w), (w - 1) / 2.0, (h - 1) / 2.0)
        bd = triplet_loss(t, k)
        assert bd.total < 1e-10

    def test_breakdown_invariant(self):
        t, k = consistent_triplet()
        w = LossWeights()
        bd = triplet_loss(t, k, w)
        recomputed = sum(bd.appearance_per_scale) + w.lambda_prior * sum(bd.prior_per_scale)
        assert abs(bd.total - recomputed) < 1e-12
        assert all(a >= 0.0 for a in bd.appearance_per_scale)
        assert all(p >= 0.0 for p in bd.prior_per_scale)

    def test_appearance_scale_invariance(self):
        t, k = consistent_triplet()
        base = triplet_loss(t, k)
        s = 0.7
        scaled = Triplet(
            t.images,
            tuple(d * s for d in t.inv_depths),
            (t.p21[0], t.p21[1] / s),
            (t.p23[0], t.p23[1] / s),
        )
        other = triplet_loss(scaled, k)
        for a, b in zip(base.appearance_per_scale, other.appearance_per_scale):
            assert abs(a - b) < 1e-10
        # Priors scale by s exactly, so the total strictly drops for s < 1.
        for a, b in zip(base.prior_per_scale, other.prior_per_scale):
            assert abs(b - s * a) < 1e-12 * max(1.0, a)
        assert other.total < base.total

    def test_normalization_removes_scale_sensitivity(self):
        t, k = consistent_triplet()

        def normalized_total(s):
            depths = tuple(normalize_inverse_depth(d * s) for d in t.inv_depths)
            return triplet_loss(Triplet(t.images, depths, t.p21, t.p23), k).total

        base = normalized_total(1.0)
        # Power-of-two scalings round identically, so equality is bitwise.
        assert normalized_total(2.0) == base
        assert normalized_total(0.25) == base
        assert abs(normalized_total(3.7) - base) < 1e-12

    def test_gradients_match_finite_differences(self):
        base, k = consistent_triplet()
        # Evaluate away from the photometric optimum so directional
        # derivatives are well above the finite-difference noise floor.
        t = Triplet(
            base.images,
            tuple(d * 1.1 for d in base.inv_depths),
            base.p21,
            base.p23,
        )
        bd = triplet_loss(t, k)
        rng = np.random.default_rng(9)
        # Small step: pixels whose photometric residual changes sign inside
        # the step contribute an O(h) kink error to the finite difference.
        h = 1e-7
        for i in range(3):
            delta = rng.normal(size=t.inv_depths[i].shape)

            def total(sign):
                depths = list(t.inv_depths)
                depths[i] = depths[i] + sign * h * delta
                return triplet_loss(Triplet(t.images, tuple(depths), t.p21, t.p23), k).total

            fd = (total(1.0) - total(-1.0)) / (2.0 * h)
            an = float(np.sum(bd.grad_depths[i] * delta))
            assert abs(fd - an) <= 1e-4 * max(abs(fd), 1e-10)
        # The loss is defined for any 3x3 R, so the ambient g_R is checked
        # along arbitrary, not only rotational, directions.
        for (R, tr), (g_t, g_R), slot in ((t.p21, bd.grad_p21, 0), (t.p23, bd.grad_p23, 1)):
            dR, dt = rng.normal(size=(3, 3)), rng.normal(size=3)

            def total(sign):
                poses = [t.p21, t.p23]
                poses[slot] = (R + sign * h * dR, tr + sign * h * dt)
                return triplet_loss(Triplet(t.images, t.inv_depths, *poses), k).total

            fd = (total(1.0) - total(-1.0)) / (2.0 * h)
            an = float(g_t @ dt + np.sum(g_R * dR))
            assert abs(fd - an) <= 1e-4 * max(abs(fd), 1e-10)

    def test_validation(self):
        with pytest.raises(ValueError):
            LossWeights(lambda_prior=-1.0)
        img = np.full((8, 8), 0.5)
        d_small = np.full((4, 4), 0.5)
        d = np.full((8, 8), 0.5)
        identity = Pose6D.identity().rt()
        with pytest.raises(ShapeMismatch):
            Triplet((img, img, img), (d, d, d_small), identity, identity)
        # An (H, W, 1) raster is not an (H, W) array.
        with pytest.raises(ShapeMismatch):
            Triplet((img, img[..., None], img), (d, d, d), identity, identity)
        # A Pose6D is not an (R, t) pair.
        with pytest.raises(ShapeMismatch):
            Triplet((img, img, img), (d, d, d), Pose6D.identity(), identity)
        with pytest.raises(ShapeMismatch):
            Triplet((img, img, img), (d, d, d), identity, (np.zeros(3), np.eye(3)))
