"""Inverse-compositional Gauss-Newton direct visual odometry.

Given a grayscale reference image, its inverse depth, and a source image,
the solver finds the pose minimizing the photometric error between the
reference and the inversely warped source, coarse-to-fine over image
pyramids.  The Jacobian is built once per level on the reference image;
per iteration only the 6x6 weighted normal equations are re-solved so that
masked-out pixels leave the system entirely (a strengthening of re-using a
fixed pseudo-inverse, cheap because the Jacobian itself stays fixed).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateOverlap, SingularSystem
from .geometry import CameraIntrinsics, Pose6D, compose, so3_exp
from .imaging import ImageBuffer, InverseDepthMap, gradient_arr, pyramid_arr
# perfbench traces the sampler under this module's name; the solver
# reaches it through the warp module.
from .imaging import bilinear_many  # noqa: F401
from .warp import points, warp_and_sample

# Below this in-view fraction the level is considered degenerate.
MIN_VALID_FRACTION = 0.25

# Condition-number ceiling for the damped normal equations.
MAX_CONDITION = 1e12


@dataclass(frozen=True)
class DvoSettings:
    """Solver knobs; defaults follow standard practice for desk-scale inputs."""

    levels: int = 4
    max_iters_per_level: int = 20
    step_norm_tol: float = 1e-8
    damping: float | None = None  # None = 1e-6 * trace(J^T J) / 6 per level

    def __post_init__(self):
        if self.levels < 1 or self.max_iters_per_level < 1:
            raise ValueError("levels and max_iters_per_level must be >= 1")
        if self.step_norm_tol <= 0.0:
            raise ValueError("step_norm_tol must be positive")
        if self.damping is not None and self.damping < 0.0:
            raise ValueError("damping must be non-negative")


@dataclass(frozen=True)
class DvoResult:
    pose: Pose6D
    final_residual: float
    iterations_used: tuple
    valid_fraction: float
    residual_history: tuple = ()

    def __post_init__(self):
        if self.final_residual < 0.0:
            raise ValueError("residual cannot be negative")
        if not 0.0 <= self.valid_fraction <= 1.0:
            raise ValueError("valid_fraction must lie in [0, 1]")


def _well_conditioned(H):
    if not np.all(np.isfinite(H)):
        return False
    cond = np.linalg.cond(H)
    return np.isfinite(cond) and cond <= MAX_CONDITION


def translation_coefficients(ref_gray, X, k: CameraIntrinsics):
    """``(3, N)`` rows ``A`` with ``J[:, :3] = d * A.T``.

    The translational columns of the photometric Jacobian are the only
    ones that carry the inverse depth ``d``, and they are linear in it.
    """
    gx, gy = gradient_arr(ref_gray)
    # Pixel-space gradient to normalized coordinates.
    gu = (gx * k.fx).ravel()
    gv = (gy * k.fy).ravel()
    return np.stack((gu, gv, -(gu * X[0] + gv * X[1])))


def build_jacobian(ref_gray, X, k: CameraIntrinsics):
    """(N, 6) photometric Jacobian at the identity pose.

    Row i is the image gradient at pixel i (in normalized coordinates)
    times the warp Jacobian for the warp point ``X[:, i]`` (see
    ``warp.points``).
    """
    A = translation_coefficients(ref_gray, X, k)
    gu, gv = A[0], A[1]
    uu, vv = X[0], X[1]
    J = np.empty((uu.size, 6))
    J[:, :3] = (A * X[3]).T
    J[:, 3] = -gu * uu * vv - gv * (1.0 + vv * vv)
    J[:, 4] = gu * (1.0 + uu * uu) + gv * uu * vv
    J[:, 5] = -gu * vv + gv * uu
    return J


def default_damping(J):
    return 1e-6 * np.sum(J * J) / 6.0


def precompute_reference_system(ref_img: ImageBuffer, ref_depth: InverseDepthMap,
                                k: CameraIntrinsics, damping: float = 0.0):
    """Jacobian and its (damped) pseudo-inverse for a reference frame.

    Raises SingularSystem when the damped normal equations are numerically
    singular, which signals an untextured reference image.
    """
    if (ref_img.height, ref_img.width) != (ref_depth.height, ref_depth.width):
        raise ValueError("reference image and depth grids differ")
    J = build_jacobian(ref_img.gray(), points(k, ref_depth.values), k)
    H = J.T @ J + damping * np.eye(6)
    if not _well_conditioned(H):
        raise SingularSystem("reference image lacks texture for a 6-DoF solve")
    J_pinv = np.linalg.solve(H, J.T)
    return J, J_pinv


def solve_level_arrays(ref_gray, depth, src_gray, k, init: Pose6D,
                       settings: DvoSettings):
    """Single-level Gauss-Newton solve on bare arrays."""
    X = points(k, depth)
    J = build_jacobian(ref_gray, X, k)
    lam = settings.damping if settings.damping is not None else default_damping(J)
    damp = lam * np.eye(6)
    if not _well_conditioned(J.T @ J + damp):
        raise SingularSystem("reference image lacks texture for a 6-DoF solve")

    pose = init
    ref_flat = ref_gray.ravel()
    residuals = []
    valid_fraction = 0.0
    mean_sq = 0.0
    iters = 0
    for _ in range(settings.max_iters_per_level):
        R = so3_exp(pose.omega)
        sampled, mask = warp_and_sample(src_gray, X, R, pose.t, k)
        wvec = mask.astype(float)
        valid_fraction = float(wvec.mean())
        if valid_fraction < MIN_VALID_FRACTION:
            raise DegenerateOverlap(
                f"only {valid_fraction:.1%} of pixels remained in view"
            )
        r = (ref_flat - sampled) * wvec
        mean_sq = float(np.sum(r * r) / np.sum(wvec))
        residuals.append(mean_sq)
        Jw = J * wvec[:, None]
        H = J.T @ Jw + damp
        if not _well_conditioned(H):
            raise SingularSystem("weighted normal equations became singular")
        delta = np.linalg.solve(H, Jw.T @ ref_flat - Jw.T @ sampled)
        iters += 1
        pose = compose(Pose6D.from_vector(delta), pose)
        if np.linalg.norm(delta) < settings.step_norm_tol:
            break

    # Residual and validity at the returned pose.
    R = so3_exp(pose.omega)
    sampled, mask = warp_and_sample(src_gray, X, R, pose.t, k)
    wvec = mask.astype(float)
    if wvec.sum() > 0:
        r = (ref_flat - sampled) * wvec
        mean_sq = float(np.sum(r * r) / np.sum(wvec))
        valid_fraction = float(wvec.mean())
    residuals.append(mean_sq)
    return DvoResult(
        pose=pose,
        final_residual=mean_sq,
        iterations_used=(iters,),
        valid_fraction=valid_fraction,
        residual_history=tuple(residuals),
    )


def solve_level(ref_img: ImageBuffer, ref_depth: InverseDepthMap, src_img: ImageBuffer,
                k: CameraIntrinsics, init: Pose6D, settings: DvoSettings) -> DvoResult:
    """Solve for the pose on a single pyramid level."""
    if (ref_img.height, ref_img.width) != (ref_depth.height, ref_depth.width):
        raise ValueError("reference image and depth grids differ")
    if (ref_img.height, ref_img.width) != (src_img.height, src_img.width):
        raise ValueError("reference and source grids differ")
    return solve_level_arrays(
        ref_img.gray(), ref_depth.values, src_img.gray(), k, init, settings
    )


def solve_coarse_to_fine(ref_img: ImageBuffer, ref_depth: InverseDepthMap,
                         src_img: ImageBuffer, k: CameraIntrinsics, init: Pose6D,
                         settings: DvoSettings) -> DvoResult:
    """Coarse-to-fine solve; each level warm-starts the next finer one."""
    ref_pyr = pyramid_arr(ref_img.gray(), settings.levels)
    src_pyr = pyramid_arr(src_img.gray(), settings.levels)
    depth_pyr = pyramid_arr(ref_depth.values, settings.levels)
    pose = init
    iters = []
    history = []
    result = None
    for level in reversed(range(settings.levels)):
        result = solve_level_arrays(
            ref_pyr[level], depth_pyr[level], src_pyr[level],
            k.at_level(level), pose, settings,
        )
        pose = result.pose
        iters.append(result.iterations_used[0])
        history.extend(result.residual_history)
    return DvoResult(
        pose=pose,
        final_residual=result.final_residual,
        iterations_used=tuple(iters),
        valid_fraction=result.valid_fraction,
        residual_history=tuple(history),
    )
