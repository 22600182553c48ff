"""Scale equivariance of the solvers: ``(D, t) -> (s D, t / s)``.

The warp sees depth only through the product ``d * t``, so a solve on
``s D`` lands on ``(R, t / s)`` after the same iterations, and the depth
gradient of a pose seed scales by ``1 / s``.
"""

from functools import lru_cache

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from dvokit.bundled import small_motion_pair
from dvokit.ddvo import DdvoSettings, ddvo_backward, ddvo_forward
from dvokit.dvo import DvoSettings, solve_coarse_to_fine
from dvokit.geometry import Pose6D

SETTINGS = settings(max_examples=10, deadline=None, derandomize=True)
TOL = 1e-10
DDVO = DdvoSettings(unroll_iters=6, levels=4)

scales = st.floats(0.5, 3.0)
pairs = st.integers(0, 5)

pair = lru_cache(maxsize=None)(small_motion_pair)


def rel(a, b):
    return float(np.linalg.norm(np.asarray(a) - np.asarray(b)) / np.linalg.norm(b))


def assert_pose_scaled(scaled: Pose6D, base: Pose6D, s):
    """``scaled`` is ``base`` with its translation divided by ``s``."""
    assert rel(s * scaled.t, base.t) < TOL
    assert rel(scaled.omega, base.omega) < TOL


@SETTINGS
@given(pairs, scales)
def test_dvo_solve_is_scale_equivariant(seed, s):
    ref, depth, src, _, k = pair(seed)
    cfg = DvoSettings()
    base = solve_coarse_to_fine(ref, depth, src, k, Pose6D.identity(), cfg)
    scaled = solve_coarse_to_fine(ref, s * depth, src, k, Pose6D.identity(), cfg)
    assert_pose_scaled(scaled.pose, base.pose, s)
    assert scaled.iterations_used == base.iterations_used
    assert scaled.stop_reasons == base.stop_reasons


@SETTINGS
@given(pairs, scales)
def test_ddvo_forward_is_scale_equivariant(seed, s):
    ref, depth, src, _, k = pair(seed)
    base, _ = ddvo_forward(ref, depth, src, k, DDVO)
    scaled, _ = ddvo_forward(ref, s * depth, src, k, DDVO)
    assert_pose_scaled(scaled, base, s)


@SETTINGS
@given(pairs, scales)
def test_ddvo_backward_scales_by_one_over_s(seed, s):
    # g_t . t + <g_R, R> at D equals (s g_t) . t' + <g_R, R'> at s D.
    ref, depth, src, _, k = pair(seed)
    rng = np.random.default_rng(seed)
    g_t, g_R = rng.normal(size=3), rng.normal(size=(3, 3))
    _, tape = ddvo_forward(ref, depth, src, k, DDVO)
    _, scaled_tape = ddvo_forward(ref, s * depth, src, k, DDVO)
    grad = ddvo_backward(tape, (g_t, g_R))
    assert rel(ddvo_backward(scaled_tape, (s * g_t, g_R)), grad / s) < TOL
