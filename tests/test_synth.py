import numpy as np
import pytest

import oracles
from dvokit import bundled
from dvokit.geometry import CameraIntrinsics, Pose6D
from dvokit.synth import (
    SceneSpec,
    _intersect_rays,
    _view_dirs,
    make_scene,
    make_triplet,
    render_scene_view,
)


class TestMakeScene:
    def test_plane_constant_inverse_depth(self):
        spec = SceneSpec(kind="textured-plane", depth_range=(2.0, 4.0))
        _, depth = make_scene(spec)
        assert np.allclose(depth.values, 1.0 / 3.0, atol=1e-15)

    def test_same_seed_bit_identical(self):
        a_img, a_d = make_scene(SceneSpec(texture_seed=5))
        b_img, b_d = make_scene(SceneSpec(texture_seed=5))
        assert np.array_equal(a_img.data, b_img.data)
        assert np.array_equal(a_d.values, b_d.values)

    def test_texture_in_unit_range(self):
        for seed in range(5):
            img, _ = make_scene(SceneSpec(texture_seed=seed, kind="smooth-height-field"))
            assert img.data.min() >= 0.0
            assert img.data.max() <= 1.0

    def test_two_plane_depths(self):
        spec = SceneSpec(kind="two-plane", depth_range=(2.0, 4.0))
        _, depth = make_scene(spec)
        assert set(np.round(1.0 / depth.values.ravel(), 12)) == {2.0, 4.0}

    def test_rejects_bad_spec(self):
        with pytest.raises(ValueError):
            SceneSpec(kind="cube")
        with pytest.raises(ValueError):
            SceneSpec(width=8)
        with pytest.raises(ValueError):
            SceneSpec(depth_range=(3.0, 2.0))

    @pytest.mark.parametrize("field, value", [
        ("texture_waves", 0),
        ("texture_waves", -2),
        ("texture_max_freq", 0.5),
        ("texture_max_freq", -4.0),
        ("texture_max_freq", float("nan")),
        ("height_amplitude", -3.0),
        ("height_amplitude", -0.01),
        ("height_amplitude", 1.0),
        ("height_amplitude", 5.0),
    ])
    def test_rejects_bad_texture_and_relief(self, field, value):
        with pytest.raises(ValueError, match=field):
            SceneSpec(kind="smooth-height-field", **{field: value})

    def test_accepts_the_edges_of_texture_and_relief(self):
        spec = SceneSpec(kind="smooth-height-field", width=32, height=32, texture_waves=1,
                         texture_max_freq=1.0, height_amplitude=0.0)
        img, depth = make_scene(spec)
        assert np.all(np.isfinite(img.gray())) and np.all(depth.values > 0.0)
        spec = SceneSpec(kind="smooth-height-field", width=32, height=32,
                         height_amplitude=0.99)
        assert np.all(make_scene(spec)[1].values > 0.0)


class TestRenderSceneView:
    def test_identity_pose_reproduces_reference(self):
        spec = SceneSpec(kind="smooth-height-field", texture_seed=2)
        ref, _ = make_scene(spec)
        img, depth = render_scene_view(spec, Pose6D.identity())
        assert np.all(depth.values > 0.0)
        assert np.max(np.abs(img.data - ref.data)) < 1e-9

    def test_z_translation_is_central_scaling(self):
        # Pushing toward a fronto-parallel plane scales the view about the
        # principal point; the same image falls out of make_scene with the
        # focal lengths divided by the scale factor.
        z0 = 3.0
        tz = 0.3
        spec = SceneSpec(kind="textured-plane", texture_seed=4, depth_range=(z0, z0))
        k = spec.intrinsics
        view, depth = render_scene_view(spec, Pose6D([0.0, 0.0, tz], np.zeros(3)))
        s = (z0 + tz) / z0
        scaled_spec = SceneSpec(
            kind="textured-plane",
            texture_seed=4,
            depth_range=(z0, z0),
            intrinsics=CameraIntrinsics(k.fx / s, k.fy / s, k.cx, k.cy),
        )
        oracle, _ = make_scene(scaled_spec)
        assert np.all(depth.values > 0.0)
        assert np.max(np.abs(view.data - oracle.data)) < 1e-9

    def test_view_depth_identity_matches_scene_depth(self):
        spec = SceneSpec(kind="smooth-height-field", texture_seed=3)
        _, gt = make_scene(spec)
        _, d = render_scene_view(spec, Pose6D.identity())
        assert np.max(np.abs(d.values - gt.values)) < 1e-12

    def test_height_field_intersection_consistency(self):
        # The returned view depth must place each pixel's 3D point exactly
        # on the analytic surface.
        spec = SceneSpec(kind="smooth-height-field", texture_seed=9)
        p = Pose6D([0.05, -0.02, 0.03], [0.004, 0.006, -0.002])
        _, d = render_scene_view(spec, p)
        from dvokit.geometry import so3_exp
        from dvokit.synth import _height_field, _view_dirs

        dirs = _view_dirs(spec)
        lam = 1.0 / d.values
        R = so3_exp(p.omega)
        X_ref = (dirs * lam[..., None] - p.t) @ R
        u = X_ref[..., 0] / X_ref[..., 2]
        v = X_ref[..., 1] / X_ref[..., 2]
        surface_z = _height_field(spec)(u, v)
        assert np.max(np.abs(X_ref[..., 2] - surface_z)) < 1e-10


# Ray-cast fixtures: a pose-recovery pair (rays settle or 2-cycle), the
# training clip's p21 (a few rays still move after 20 steps), a rotation
# of 1.2 rad on which some rays miss and some never repeat an iterate, and
# the two closed-form scenes.
RAY_CASTS = {
    "pose-recovery": (bundled.pose_recovery_spec(5), Pose6D([0.02, -0.01, 0.015], [0.004, -0.006, 0.003])),
    "training": (bundled.training_spec(), Pose6D([-0.15, 0.0, 0.045], [0.0, 0.006, 0.0])),
    "large-rotation": (
        SceneSpec(kind="smooth-height-field", texture_seed=3, width=40, height=32),
        Pose6D([0.2, 0.0, 0.1], [0.0, 1.2, 0.0]),
    ),
    "two-plane": (SceneSpec(kind="two-plane", width=40, height=32), Pose6D([0.3, 0.0, 0.1], [0.0, 0.4, 0.0])),
    "textured-plane": (SceneSpec(width=40, height=32), Pose6D([0.3, 0.0, 0.1], [0.0, 0.4, 0.0])),
}


class TestIntersectRays:
    @pytest.mark.parametrize("case", sorted(RAY_CASTS))
    def test_bit_identical_to_the_plain_loop(self, case):
        spec, p = RAY_CASTS[case]
        dirs = _view_dirs(spec)
        got = _intersect_rays(spec, p, dirs)
        want = oracles.intersect_rays(spec, p, dirs)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and g.shape == w.shape
            assert g.tobytes() == w.tobytes()

    def test_fixtures_cover_misses_and_rays_that_never_settle(self):
        spec, p = RAY_CASTS["large-rotation"]
        dirs = _view_dirs(spec)
        assert not oracles.intersect_rays(spec, p, dirs)[3].all()
        # lam after 0..60 steps; a ray whose 61 iterates are all distinct
        # stays live for the whole loop.
        lams = np.stack([oracles.intersect_rays(spec, p, dirs, steps=k)[0].ravel() for k in range(61)])
        distinct = 1 + np.count_nonzero(np.diff(np.sort(lams, axis=0), axis=0), axis=0)
        assert distinct.max() == 61


class TestMakeTriplet:
    def test_shapes_and_determinism(self):
        spec = SceneSpec(kind="smooth-height-field", texture_seed=8, width=32, height=24)
        p21 = Pose6D([-0.05, 0.0, 0.0], np.zeros(3))
        p23 = Pose6D([0.05, 0.0, 0.0], np.zeros(3))
        a = make_triplet(spec, p21, p23)
        b = make_triplet(spec, p21, p23)
        for ia, ib in zip(a["images"], b["images"]):
            assert np.array_equal(ia.data, ib.data)
        for da in a["gt_inv_depths"]:
            assert da.values.shape == (24, 32)
