"""Inverse-compositional Gauss-Newton direct visual odometry.

Given a grayscale reference image, its inverse depth, and a source image,
the solver finds the pose minimizing the photometric error between the
reference and the inversely warped source, coarse-to-fine over image
pyramids.  All three are bare (H, W) float arrays on one grid
(``imaging.check_grids``); the validated raster types stay where data
enters (``fileio``, ``synth``, the CLI), which hand over
``ImageBuffer.gray()`` and ``InverseDepthMap.values``.  The Gauss-Newton
solver comes in three pieces that the unrolled solver in ``ddvo`` and
its frozen-Jacobian replay share:

* ``level_systems`` walks the pyramid levels, building each level's
  Jacobian ``J`` and its normal matrix ``H = J^T J`` once on the
  reference image (plain Gauss-Newton);
* ``gauss_newton_step`` subtracts the rows of the pixels out of view
  from ``H`` each iteration (an exact downdate: the weights ``W =
  diag(mask)`` are 0 or 1) and solves the 6x6 system, so masked-out
  pixels leave it entirely;
* ``update_pose`` applies the step to the pose, kept as a matrix pair
  ``(R, t)`` within a level.

Each caller warps the source itself, checks the in-view share of its
mask (``warp.in_view``), forms the weighted residual ``(ref - sampled) *
mask`` once and hands it to the step; DVO also takes its mean square
from it.

``solve_coarse_to_fine`` is the one DVO entry point.  It runs
``solve_level_arrays`` on each level of the walk, hands each level's
``(R, t)`` to the next, and builds the ``DvoResult`` (and its ``Pose6D``)
once, at the end.

DVO stops each level at the first of three rules, which ``DvoResult``
names per level, coarse to fine:

* ``converged``: the step just taken was shorter than ``step_norm_tol``;
* ``stalled``: the mean squared residual at the current pose is less than
  ``residual_rel_tol`` (relative) below the previous iteration's, the
  relative-decrease test of DVO (Kerl, Sturm & Cremers 2013) and DSO
  (Engel, Koltun & Cremers 2018).  The level returns the current pose
  without solving for another step.  At the coarse levels the in-view
  border moves with the pose, so the residual can cycle and never meet
  the step rule;
* ``max_iters``: the level took ``max_iters_per_level`` steps.

DDVO has no stop rule: it unrolls a fixed number of steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import SingularSystem
from .geometry import CameraIntrinsics, Pose6D, so3_exp, so3_log
from .imaging import check_grids, gradient_arr, pyramid_arr
# perfbench traces the sampler under this module's name; the solver
# reaches it through the warp module.
from .imaging import bilinear_many  # noqa: F401
from .warp import in_view, points, warp_and_sample

# Condition-number ceiling for the normal equations.
MAX_CONDITION = 1e12


@dataclass(frozen=True)
class DvoSettings:
    """Solver knobs; defaults follow standard practice for desk-scale inputs."""

    levels: int = 4
    max_iters_per_level: int = 20
    step_norm_tol: float = 1e-8
    residual_rel_tol: float = 1e-4  # 0 turns the stall rule off

    def __post_init__(self):
        if self.levels < 1 or self.max_iters_per_level < 1:
            raise ValueError("levels and max_iters_per_level must be >= 1")
        if not self.step_norm_tol > 0.0:
            raise ValueError("step_norm_tol must be positive")
        if not self.residual_rel_tol >= 0.0:
            raise ValueError("residual_rel_tol must be non-negative")


@dataclass(frozen=True)
class DvoResult:
    pose: Pose6D
    final_residual: float
    iterations_used: tuple
    valid_fraction: float
    residual_history: tuple = ()
    stop_reasons: tuple = ()  # per level: "converged", "stalled" or "max_iters"

    def __post_init__(self):
        if self.final_residual < 0.0:
            raise ValueError("residual cannot be negative")
        if not 0.0 <= self.valid_fraction <= 1.0:
            raise ValueError("valid_fraction must lie in [0, 1]")


class LevelSystem(NamedTuple):
    """The fixed part of one pyramid level's Gauss-Newton system."""

    X: np.ndarray  # (4, N) warp points [u, v, 1, d], see warp.points
    J: np.ndarray  # (N, 6) photometric Jacobian at the identity pose
    A: np.ndarray  # (3, N) depth factor of J: J[:, :3] = d * A.T
    H: np.ndarray  # J^T J, the normal matrix with every point in view
    ref_flat: np.ndarray  # reference intensities, one per point


def _well_conditioned(H):
    """Whether ``cond(H) <= MAX_CONDITION``.

    ``H`` is symmetric positive semi-definite, so its condition number is
    the ratio of its extreme eigenvalues.
    """
    if not np.all(np.isfinite(H)):
        return False
    lo, hi = np.linalg.eigvalsh(H)[[0, -1]]
    return lo > 0.0 and hi / lo <= MAX_CONDITION


def build_jacobian(ref_gray, X, k: CameraIntrinsics):
    """(N, 6) photometric Jacobian ``J`` at the identity pose, and ``A``.

    Row i is the image gradient at pixel i (in normalized coordinates)
    times the warp Jacobian for the warp point ``X[:, i]`` (see
    ``warp.points``).  The translational columns are the only ones that
    carry the inverse depth ``d``, and they are linear in it:
    ``J[:, :3] = d * A.T`` with the ``(3, N)`` coefficients ``A``.
    """
    gx, gy = gradient_arr(ref_gray)
    # Pixel-space gradient to normalized coordinates.
    gu = (gx * k.fx).ravel()
    gv = (gy * k.fy).ravel()
    uu, vv = X[0], X[1]
    A = np.stack((gu, gv, -(gu * uu + gv * vv)))
    # Each row of J^T is written whole, then J is copied out once.
    Jt = np.empty((6, uu.size))
    Jt[:3] = A * X[3]
    Jt[3] = -gu * uu * vv - gv * (1.0 + vv * vv)
    Jt[4] = gu * (1.0 + uu * uu) + gv * uu * vv
    Jt[5] = -gu * vv + gv * uu
    return np.ascontiguousarray(Jt.T), A


def level_systems(ref_gray, ref_depth, src_gray, k: CameraIntrinsics, levels):
    """Yield ``(src_gray, k_level, LevelSystem)`` per level, coarsest first.

    Checks the grids and builds the pyramids once; each level's Jacobian
    and normal matrix are built when the walk reaches it.  Raises
    SingularSystem when a level's normal equations are numerically
    singular (an untextured reference image).
    """
    check_grids({"reference": ref_gray, "depth": ref_depth, "source": src_gray})
    ref_pyr = pyramid_arr(ref_gray, levels)
    src_pyr = pyramid_arr(src_gray, levels)
    depth_pyr = pyramid_arr(ref_depth, levels)
    for level in reversed(range(levels)):
        k_level = k.at_level(level)
        X = points(k_level, depth_pyr[level])
        J, A = build_jacobian(ref_pyr[level], X, k_level)
        H = J.T @ J
        if not _well_conditioned(H):
            raise SingularSystem("reference image lacks texture for a 6-DoF solve")
        yield src_pyr[level], k_level, LevelSystem(X, J, A, H, ref_pyr[level].ravel())


def gauss_newton_step(system: LevelSystem, residual, mask):
    """One Gauss-Newton step from the weighted residual.

    ``residual`` is ``W r = (ref - sampled) * mask``, where ``sampled``
    and the boolean ``mask`` are what ``warp.warp_and_sample`` returns at
    the current pose.  Returns ``(delta, H)``: the step ``delta = (J^T W
    J)^-1 J^T W r`` on ``(t, omega)``, with ``W = diag(mask)``, and the
    normal matrix ``H``.

    The weights are 0 or 1, so ``H`` is the level's ``system.H`` less
    ``J_out^T J_out`` over the rows ``J_out`` of the points out of view,
    an exact downdate that costs only those rows.  The residual is
    formed before it meets ``J``, so the step carries the rounding of
    ``ref - sampled`` alone.
    """
    J = system.J
    J_out = J[~mask]
    H = system.H - J_out.T @ J_out
    if not _well_conditioned(H):
        raise SingularSystem("weighted normal equations became singular")
    delta = np.linalg.solve(H, J.T @ residual)
    return delta, H


def update_pose(delta, R, t):
    """``T(delta) @ T(p)`` for the pose ``p = (R, t)``, as ``(R', t', Rd)``.

    ``Rd = so3_exp(delta[3:])`` is the step's rotation, which the DDVO
    tape keeps for its reverse pass.

    This is the update all three solvers apply.  The residual is
    reference minus warped source, ``r(p) = I_ref(x) - I_src(<T(p) X>)``,
    and the solvers' Jacobian ``J`` is that of the reference warped by
    ``T(delta)``, at ``delta = 0`` (built once, as in Baker & Matthews
    2004).  Near alignment the source warped by ``T(delta) T(p)`` varies
    with ``delta`` as the reference warped by ``T(delta)`` does, up to the
    adjoint of ``T(p)``, so ``r(T(delta) T(p)) ~ r(p) - J delta``.  The
    Gauss-Newton step ``delta = (J^T W J)^-1 J^T W r`` lowers
    that as it stands, so it composes on the left without inversion;
    ``T(delta)^-1 T(p)`` would step by ``-delta``.
    """
    Rd = so3_exp(delta[3:])
    return Rd @ R, Rd @ t + delta[:3], Rd


def _mean_sq(residual, n_in):
    """Mean of the squared weighted residual over the ``n_in`` points in view."""
    return float(np.sum(residual * residual) / n_in)


def solve_level_arrays(system: LevelSystem, src_gray, k, R, t, settings: DvoSettings):
    """Single-level Gauss-Newton solve of ``system`` from the pose ``(R, t)``.

    Returns ``(R, t, residuals, reason, valid_fraction)``: the pose the
    level ends at, the mean squared residual before each step taken and,
    last, at that pose, the rule that ended the level (see the module
    docstring), and the in-view fraction at the end.
    """
    tol = settings.residual_rel_tol
    residuals = []
    for _ in range(settings.max_iters_per_level):
        sampled, mask = warp_and_sample(src_gray, system.X, R, t, k)
        n_in = in_view(mask)
        residual = (system.ref_flat - sampled) * mask
        mean_sq = _mean_sq(residual, n_in)
        if tol > 0.0 and residuals and residuals[-1] - mean_sq < tol * residuals[-1]:
            reason = "stalled"
            break
        residuals.append(mean_sq)
        delta, _ = gauss_newton_step(system, residual, mask)
        R, t, _ = update_pose(delta, R, t)
        if np.linalg.norm(delta) < settings.step_norm_tol:
            reason = "converged"
            break
    else:
        reason = "max_iters"

    if reason != "stalled":
        # Residual and validity at the returned pose.
        sampled, mask = warp_and_sample(src_gray, system.X, R, t, k)
        n_in = in_view(mask)
        mean_sq = _mean_sq((system.ref_flat - sampled) * mask, n_in)
    residuals.append(mean_sq)
    return R, t, residuals, reason, float(n_in / mask.size)


def solve_coarse_to_fine(ref_gray, ref_depth, src_gray, k: CameraIntrinsics,
                         init: Pose6D, settings: DvoSettings) -> DvoResult:
    """Coarse-to-fine solve on (H, W) arrays; each level warm-starts the
    next finer one from its ``(R, t)``.  ``DvoSettings(levels=1)`` solves
    the finest level alone."""
    R, t = init.rt()
    iters, history, reasons = [], [], []
    for src_level, k_level, system in level_systems(
        ref_gray, ref_depth, src_gray, k, settings.levels
    ):
        R, t, residuals, reason, valid_fraction = solve_level_arrays(
            system, src_level, k_level, R, t, settings
        )
        iters.append(len(residuals) - 1)
        history.extend(residuals)
        reasons.append(reason)
    return DvoResult(
        pose=Pose6D(t, so3_log(R)),
        final_residual=residuals[-1],
        iterations_used=tuple(iters),
        valid_fraction=valid_fraction,
        residual_history=tuple(history),
        stop_reasons=tuple(reasons),
    )
