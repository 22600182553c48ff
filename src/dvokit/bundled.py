"""Canonical synthetic fixtures shared by the CLI demos and the
verification suites.

Everything here is generated deterministically from fixed seeds; the
scene parameters were chosen once so that each fixture exhibits the
behavior its consumer asserts (for example, the large-motion pair has
enough high-frequency texture that a single-level solve fails while the
four-level pyramid converges).
"""

from __future__ import annotations

import numpy as np

from .geometry import Pose6D
from .synth import SceneSpec, make_pair, make_triplet

# Mean scene depth of the default fixtures (scene units).
SCENE_DEPTH = 3.0


def pose_recovery_spec(seed):
    """Scene for the small-motion pose-recovery suite."""
    return SceneSpec(
        kind="smooth-height-field",
        texture_seed=seed,
        width=160,
        height=128,
        depth_range=(2.0, 4.0),
    )


def random_small_motion(rng, translation_frac=0.01, rotation_deg=0.5):
    """Random pose with ``|t|`` a fraction of the scene depth."""
    t = rng.normal(size=3)
    t *= translation_frac * SCENE_DEPTH / np.linalg.norm(t)
    w = rng.normal(size=3)
    w *= np.deg2rad(rotation_deg) / np.linalg.norm(w)
    return Pose6D(t, w)


def solver_inputs(spec, pose):
    """``(ref_gray, ref_depth, src_gray, pose, k)``: a rendered pair as the
    (H, W) arrays the solvers take, its true pose and its camera."""
    ref_img, ref_depth, src_img = make_pair(spec, pose)
    return ref_img.gray(), ref_depth.values, src_img.gray(), pose, spec.intrinsics


def small_motion_pair(seed):
    """Solver inputs of one recovery trial (see ``solver_inputs``)."""
    rng = np.random.default_rng(seed)
    spec = pose_recovery_spec(int(rng.integers(0, 2**31)))
    return solver_inputs(spec, random_small_motion(rng))


def large_motion_spec():
    """High-frequency scene on which single-level alignment fails at 5% motion."""
    return SceneSpec(
        kind="smooth-height-field",
        texture_seed=1,
        width=160,
        height=128,
        depth_range=(2.0, 4.0),
        texture_waves=12,
        texture_max_freq=40.0,
    )


def large_motion_pose():
    return Pose6D(np.array([0.05 * SCENE_DEPTH, 0.0, 0.0]), np.zeros(3))


def large_motion_pair():
    return solver_inputs(large_motion_spec(), large_motion_pose())


def training_spec(width=80, height=64):
    """Small textured relief scene for the training demos.

    Pronounced relief (35% of the mean depth) makes the depth recoverable
    from parallax, and the moderate texture contrast keeps the smoothness
    prior competitive with the appearance term, which is what lets the
    un-normalized runs exhibit the scale-drift behavior the demos show.
    """
    return SceneSpec(
        kind="smooth-height-field",
        texture_seed=7,
        width=width,
        height=height,
        depth_range=(2.0, 4.0),
        texture_waves=14,
        texture_max_freq=20.0,
        texture_contrast=0.2,
        height_amplitude=0.35,
    )


def training_triplet(spec=None, translation_frac=0.05):
    """Three-frame clip with ground truth for the trainers: the bundled
    clip, or the same camera path over ``spec``, its steps scaled by the
    scene's mean depth."""
    spec = training_spec() if spec is None else spec
    mean_depth = float(np.mean(spec.depth_range))
    step = translation_frac * mean_depth
    p21 = Pose6D(np.array([-step, 0.0, 0.015 * mean_depth]), np.array([0.0, 0.006, 0.0]))
    p23 = Pose6D(np.array([step, 0.0, -0.012 * mean_depth]), np.array([0.0, -0.005, 0.002]))
    return make_triplet(spec, p21, p23)


def large_motion_triplet():
    """Clip whose baseline defeats finest-scale-only pose alignment.

    At 7.5% of the scene depth the inter-frame displacement is several
    texture wavelengths, so a single-level solver started from identity
    locks onto the wrong minimum; a pose warm start is needed for the
    finest-scale refinement to land in the right basin.
    """
    return training_triplet(translation_frac=0.075)
