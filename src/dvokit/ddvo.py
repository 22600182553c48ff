"""Differentiable direct visual odometry.

The forward pass unrolls a fixed number of Gauss-Newton iterations per
pyramid level (no early stopping, so the computation graph is identical
for every input) and records a tape.  The backward pass replays the tape
in reverse and produces the gradient of the output pose with respect to
the reference inverse-depth map, treating the in-view mask as a constant
(it is piecewise constant almost everywhere).

Each Gauss-Newton iteration contracts the pose it starts from, so the
pose seed that the reverse sweep carries back shrinks at every step.
The sweep ends once the seed's tangent part has fallen to
``SEED_REL_TOL`` of its initial norm; the iterations and levels before
that point are skipped.  Until then the result is the exact unrolled
gradient.  On training tapes (unroll 6, levels 4) the sweep stops on the
finest level and moves the depth gradient by a median 1.2e-4 of its
norm; see ``ddvo_backward``.

Depth enters the unrolled computation three ways:

(a) inside the warp that resamples the source image each iteration;
(b) inside the translational columns of the precomputed Jacobian J;
(c) through J inside the normal-equation solve (J^T W J)^-1, the
    pseudo-inverse path.

Paths (b) and (c) can be switched off (``grad_through_jacobian=False``)
to measure their contribution; path (a) is always active.

The forward pass takes the (H, W) arrays ``dvo.solve_coarse_to_fine``
takes and walks its levels (``dvo.level_systems``).  One unroll takes
``dvo``'s Gauss-Newton steps on each level and records the tape; the
frozen-Jacobian replay runs it over the tape's levels with new depths in
the warp.  The tape keeps each level's system (points, J, its depth
factor A and the normal matrix with every point in view) and
each iteration's downdated normal matrix H and step rotation, so the
backward pass rebuilds none of them.

All internal pose state is kept in matrix form (R, t); exponential
coordinates appear only at the pose update deltas and at the returned
``Pose6D``.  The backward pass takes its seed on the final ``(R, t)``
(``tape.R_final``, ``tape.t_final``), the form the loss returns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import TapeMismatch
from .dvo import (
    LevelSystem,
    gauss_newton_step,
    level_systems,
    update_pose,
)
from .geometry import CameraIntrinsics, Pose6D, so3_exp_vjp, so3_log, so3_tangent
from .imaging import check_grids, pyramid_arr, pyramid_grad_arr
from .warp import in_view, warp_and_sample, warp_vjp

# perfbench traces these under this module's name; the solver reaches them
# through the dvo and warp modules and Pose6D.rt.
from .dvo import build_jacobian  # noqa: F401
from .geometry import so3_exp  # noqa: F401
from .imaging import bilinear_grad_many, bilinear_many, gradient_arr  # noqa: F401

# ddvo_backward ends its reverse sweep once the pose seed's tangent part
# has fallen to this fraction of its initial norm.
SEED_REL_TOL = 1e-4


def _tangent_norm(R, g_R, g_t):
    """Norm of the tangent part ``(so3_tangent(R, g_R), g_t)`` of a pose
    seed at rotation ``R``."""
    v = so3_tangent(R, g_R)
    return float(np.sqrt(v @ v + g_t @ g_t))


@dataclass(frozen=True)
class DdvoSettings:
    """Unrolled-solver knobs.

    ``levels=1`` runs on the finest scale only; larger values run
    coarse-to-fine.  The start pose is a per-call input of
    ``ddvo_forward``, not a setting.
    """

    unroll_iters: int = 3
    levels: int = 1
    grad_through_jacobian: bool = True

    def __post_init__(self):
        if self.unroll_iters < 1 or self.levels < 1:
            raise ValueError("unroll_iters and levels must be >= 1")


@dataclass(frozen=True)
class _IterRecord:
    """Pose state entering one unrolled iteration, its normal matrix
    ``H``, the update it produced and that update's rotation."""

    R: np.ndarray
    t: np.ndarray
    H: np.ndarray
    delta: np.ndarray
    Rd: np.ndarray


@dataclass(frozen=True)
class _LevelRecord:
    """Per-level constants and the iteration trail at that level."""

    src_gray: np.ndarray
    k: CameraIntrinsics
    system: LevelSystem
    iters: tuple


@dataclass(frozen=True)
class DdvoTape:
    """Everything needed to replay the unrolled solve in reverse."""

    settings: DdvoSettings
    levels: tuple
    R_final: np.ndarray
    t_final: np.ndarray

    def __len__(self):
        return sum(len(lv.iters) for lv in self.levels)


def _unroll(levels, R, t, iters):
    """Take ``iters`` Gauss-Newton steps on each of ``levels``, the
    ``(src_gray, k, system)`` triples of ``dvo.level_systems``, from
    ``(R, t)``; returns the final ``(R, t)`` and the tape's level records."""
    records = []
    for src_gray, k, system in levels:
        trail = []
        for _ in range(iters):
            sampled, mask = warp_and_sample(src_gray, system.X, R, t, k)
            in_view(mask)
            delta, H = gauss_newton_step(system, (system.ref_flat - sampled) * mask, mask)
            R_next, t_next, Rd = update_pose(delta, R, t)
            trail.append(_IterRecord(R, t, H, delta, Rd))
            R, t = R_next, t_next
        records.append(_LevelRecord(src_gray, k, system, tuple(trail)))
    return R, t, tuple(records)


def ddvo_forward(ref_gray, ref_depth, src_gray, k: CameraIntrinsics,
                 settings: DdvoSettings, init: Pose6D = Pose6D.identity()):
    """Run the fixed unrolled solve on (H, W) arrays from ``init``;
    returns ``(pose, tape)``."""
    walk = level_systems(ref_gray, ref_depth, src_gray, k, settings.levels)
    R, t, levels = _unroll(walk, *init.rt(), settings.unroll_iters)
    return Pose6D(t, so3_log(R)), DdvoTape(settings, levels, R, t)


def ddvo_backward(tape: DdvoTape, seed) -> np.ndarray:
    """Vector-Jacobian product of the final pose with respect to depth.

    ``seed = (g_t, g_R)`` is the gradient on the output ``(tape.t_final,
    tape.R_final)``, with ``g_R`` the ambient (3, 3) gradient that the
    loss returns; it is used as it stands.  Returns the gradient on the
    finest (input) depth grid.  The tape is replayed level by level in
    reverse execution order; gradients picked up on coarser grids flow
    back through the area-average downsampling that produced them.

    Before each reverse iteration the sweep measures the seed ``(g_t,
    g_R)`` on the pose that iteration produced, ``R' = Rd R``, by its
    tangent part ``(so3_tangent(R', g_R), g_t)``.  ``R'`` is a product of
    exponentials, so ``dR'/d depth`` lies in the tangent space at ``R'``
    and any other component of ``g_R`` contributes nothing.  Once
    that norm is at most ``SEED_REL_TOL`` times its initial value, the
    sweep stops: the remaining iterations and levels contribute zero.  A
    zero seed stops at once and gives exact zeros.

    Measured against the full sweep (relative L2 change of the gradient):
    on 16x16 and 160x128 pairs with ``levels=1`` and ``unroll_iters <= 3``
    the rule never fired.  With 2-4 levels it moved the gradient by at
    most 3.0e-4.  On train-ddvo tapes (bundled clip, unroll 6, levels 4;
    240 tapes from steps 0-19 of six seeds) it reversed 4-6 of the 24
    iterations, all on the finest level, cut the backward time to about
    0.4x and moved the gradient by a median 1.2e-4 and at most 1.5e-3.
    """
    if not isinstance(seed, (tuple, list)) or [np.shape(g) for g in seed] != [(3,), (3, 3)]:
        raise TapeMismatch("pose seed must be a pair (g_t (3,), g_R (3, 3))")
    g_t, g_R = (np.asarray(g, dtype=float) for g in seed)
    if len(tape.levels) != tape.settings.levels or any(
        len(lv.iters) != tape.settings.unroll_iters for lv in tape.levels
    ):
        raise TapeMismatch("tape does not cover the configured unroll")

    stop = SEED_REL_TOL * _tangent_norm(tape.R_final, g_R, g_t)

    level_grads = []  # finest first
    through_j = tape.settings.grad_through_jacobian

    # Levels were executed coarsest -> finest and stored in that order.
    for level in reversed(tape.levels):
        # Only the translational columns of J carry depth, as d * A.T.
        J, X, A = level.system.J, level.system.X, level.system.A
        g_d_level = np.zeros(X.shape[1])

        for it in reversed(level.iters):
            R, t, H, delta, Rd = it.R, it.t, it.H, it.delta, it.Rd
            contracted = _tangent_norm(Rd @ R, g_R, g_t) <= stop
            if contracted:
                break
            sampled, mask, lin = warp_and_sample(level.src_gray, X, R, t, level.k,
                                                 grad=True)

            # Pose update (dvo.update_pose): t' = Rd t + dt, R' = Rd R.
            g_Rd = g_R @ R.T + np.outer(g_t, t)
            g_R_prev = Rd.T @ g_R
            g_t_prev = Rd.T @ g_t
            g_delta = np.concatenate([g_t, so3_exp_vjp(delta[3:], Rd, g_Rd)])

            # delta = H^-1 b with b = Jw^T r; reverse through the solve.
            q = np.linalg.solve(H, g_delta)
            Jq, Jd = (J @ np.column_stack((q, delta))).T
            if through_j:
                # g_J = W (r q^T - (J delta) q^T - (J q) delta^T), taken
                # only on the three depth-carrying columns.
                Aq, Ad = np.stack((q[:3], delta[:3])) @ A
                r = level.system.ref_flat - sampled
                g_d_level += mask * ((r - Jd) * Aq - Jq * Ad)

            # r = ref - warped source, so the samples see -W J q.
            g_d, g_t_warp, g_R_warp = warp_vjp(X, t, lin, -Jq)
            g_d_level += g_d
            g_R, g_t = g_R_prev + g_R_warp, g_t_prev + g_t_warp

        level_grads.append(g_d_level.reshape(level.src_gray.shape))
        if contracted:
            break

    # Lift the level gradients to the finest grid through the area-average
    # pyramid; levels the sweep never reached contribute zero.
    return pyramid_grad_arr(level_grads)


def replay_frozen_jacobian(tape: DdvoTape, depth_values) -> Pose6D:
    """Re-run the unroll warping with ``depth_values`` but keeping the
    tape's Jacobians and normal matrices fixed, from the tape's start pose.

    This is the forward map whose exact derivative the partial-chain
    backward (``grad_through_jacobian=False``) computes, so the two can
    be checked against each other by finite differences.  ``depth_values``
    must lie on the tape's finest grid (ShapeMismatch otherwise).
    """
    settings = tape.settings
    check_grids({"tape grid": tape.levels[-1].src_gray, "depth": depth_values})
    depth_pyr = pyramid_arr(np.asarray(depth_values, dtype=float), settings.levels)
    # Tape levels run coarsest first, pyramid levels finest first.
    walk = (
        (lv.src_gray, lv.k, lv.system._replace(X=np.vstack((lv.system.X[:3], d.ravel()))))
        for lv, d in zip(tape.levels, reversed(depth_pyr))
    )
    first = tape.levels[0].iters[0]
    R, t, _ = _unroll(walk, first.R, first.t, settings.unroll_iters)
    return Pose6D(t, so3_log(R))
