"""Unsupervised photometric training objective with analytic gradients.

The objective over a three-frame clip combines, per pyramid scale, a
bidirectional appearance dissimilarity (plain L1 at the three coarser
scales; an L1 + SSIM blend at the finest) with an edge-aware
second-order smoothness prior on the inverse depths, collected from the
two coarsest scales only.  Every term returns exact gradients with
respect to the finest inverse-depth rasters and, where meaningful, the
two relative poses; training never needs numeric differentiation.

A structural property worth naming: the appearance terms are invariant
under the joint rescaling (D, t) -> (s*D, t/s) because the warp only
ever sees the product d*t, while the smoothness prior is positively
homogeneous of degree 1 in D.  Shrinking depth therefore strictly
lowers the total whenever the prior is positive, which is why
``normalize_inverse_depth`` exists: dividing by the mean quotients out
the scale direction entirely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDepth, DegenerateOverlap, GridTooSmall
from .geometry import CameraIntrinsics, Pose6D, skew, so3_exp, so3_exp_vjp, so3_right_jacobian
from .imaging import (
    ImageBuffer,
    InverseDepthMap,
    laplacian_arr,
    pyramid_arr,
    pyramid_grad_arr,
)
# perfbench traces the samplers under this module's name; the loss
# reaches them through the warp module.
from .imaging import bilinear_grad_many, bilinear_many  # noqa: F401
from .warp import points, warp_and_sample, warp_vjp

# Number of pyramid scales in the aggregate objective.
NUM_SCALES = 4

# Smoothness is collected from these (coarsest) scales only.
PRIOR_SCALES = (2, 3)

# Minimum fraction of reference pixels that must warp into the source.
MIN_VALID_FRACTION = 0.25


@dataclass(frozen=True)
class LossWeights:
    """Objective weights; defaults follow common practice."""

    lambda_prior: float = 0.01
    ssim_weight: float = 0.85
    ssim_c1: float = 0.01 ** 2
    ssim_c2: float = 0.03 ** 2

    def __post_init__(self):
        if self.lambda_prior < 0.0:
            raise ValueError("lambda_prior must be non-negative")
        if not 0.0 <= self.ssim_weight <= 1.0:
            raise ValueError("ssim_weight must lie in [0, 1]")
        if self.ssim_c1 <= 0.0 or self.ssim_c2 <= 0.0:
            raise ValueError("SSIM stabilizers must be positive")


@dataclass(frozen=True)
class Triplet:
    """Three sequential frames with per-frame inverse depth.

    ``p21`` and ``p23`` map middle-frame points into the first and third
    frames respectively.
    """

    images: tuple
    inv_depths: tuple
    p21: Pose6D
    p23: Pose6D

    def __post_init__(self):
        if len(self.images) != 3 or len(self.inv_depths) != 3:
            raise ValueError("a triplet needs exactly three frames")
        shape = (self.images[0].height, self.images[0].width)
        for img in self.images:
            if (img.height, img.width) != shape:
                raise ValueError("triplet image grids differ")
        for d in self.inv_depths:
            if (d.height, d.width) != shape:
                raise ValueError("triplet depth grids differ")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-scale terms and all gradients."""

    appearance_per_scale: tuple
    prior_per_scale: tuple
    total: float
    grad_depths: tuple  # gradients on the three finest inverse-depth rasters
    grad_p21: np.ndarray
    grad_p23: np.ndarray


def normalize_inverse_depth(d: InverseDepthMap) -> InverseDepthMap:
    """Divide an inverse-depth map by its mean (output mean is exactly 1)."""
    mean = float(np.mean(d.values))
    if mean <= 1e-12:
        raise DegenerateDepth(f"mean inverse depth {mean!r} has collapsed")
    return InverseDepthMap.from_array(d.values / mean)


def normalize_inverse_depth_vjp(values, grad_out):
    """Backward of ``normalize_inverse_depth`` on raw arrays.

    With S the sum over N pixels, eta_i = N d_i / S, so
    d eta_i / d d_j = N/S (delta_ij - d_i / S).
    """
    values = np.asarray(values, dtype=float)
    grad_out = np.asarray(grad_out, dtype=float)
    s = float(np.sum(values))
    n = values.size
    return (n / s) * grad_out - (n / (s * s)) * float(np.sum(grad_out * values))


def _box3(a):
    """3x3 box mean, valid region only: (H, W) -> (H-2, W-2)."""
    rows = a[:-2] + a[1:-1] + a[2:]
    return (rows[:, :-2] + rows[:, 1:-1] + rows[:, 2:]) / 9.0


def _box3_adjoint(g, shape):
    """Adjoint of ``_box3``: scatter each window mean back to its pixels."""
    out = np.zeros(shape)
    for i in range(3):
        for j in range(3):
            out[i:i + g.shape[0], j:j + g.shape[1]] += g
    return out / 9.0


def ssim(a: ImageBuffer, b: ImageBuffer, weights: LossWeights = LossWeights()):
    """Per-pixel SSIM map over 3x3 box statistics; shape (H-2, W-2)."""
    if (a.height, a.width) != (b.height, b.width):
        raise ValueError("SSIM inputs must share a grid")
    if a.height < 3 or a.width < 3:
        raise GridTooSmall("SSIM needs at least a 3x3 grid")
    s, _ = _ssim_with_grad(a.gray(), b.gray(), weights)
    return s


def _ssim_with_grad(a, b, weights: LossWeights):
    """SSIM map plus a closure mapping d loss/d SSIM to d loss/d b."""
    c1, c2 = weights.ssim_c1, weights.ssim_c2
    mu_a = _box3(a)
    mu_b = _box3(b)
    e_aa = _box3(a * a)
    e_bb = _box3(b * b)
    e_ab = _box3(a * b)
    var_a = e_aa - mu_a * mu_a
    var_b = e_bb - mu_b * mu_b
    cov = e_ab - mu_a * mu_b
    lum_n = 2.0 * mu_a * mu_b + c1
    lum_d = mu_a * mu_a + mu_b * mu_b + c1
    str_n = 2.0 * cov + c2
    str_d = var_a + var_b + c2
    s = (lum_n * str_n) / (lum_d * str_d)

    def backward(g_s):
        # Partials with respect to the b-side raw moments (a is constant).
        g_lum_n = g_s * str_n / (lum_d * str_d)
        g_str_n = g_s * lum_n / (lum_d * str_d)
        g_lum_d = -g_s * s / lum_d
        g_str_d = -g_s * s / str_d
        g_mu_b = (
            2.0 * mu_a * g_lum_n
            + 2.0 * mu_b * g_lum_d
            - 2.0 * mu_a * g_str_n  # cov = e_ab - mu_a mu_b
            - 2.0 * mu_b * g_str_d  # var_b = e_bb - mu_b^2
        )
        g_e_bb = g_str_d
        g_e_ab = 2.0 * g_str_n
        g_b = _box3_adjoint(g_mu_b, b.shape)
        g_b += _box3_adjoint(g_e_bb, b.shape) * 2.0 * b
        g_b += _box3_adjoint(g_e_ab, b.shape) * a
        return g_b

    return s, backward


def _warp_with_grads(src_gray, d, pose: Pose6D, k: CameraIntrinsics):
    """Warp the reference grid into the source and sample it.

    Returns ``(warped, mask, backward)`` where ``backward`` maps a
    per-pixel gradient on the warped intensities to gradients on the
    inverse depth and the 6-vector pose (t, omega).
    """
    h, w = d.shape
    X = points(k, d)
    R = so3_exp(pose.omega)
    warped, mask, lin = warp_and_sample(src_gray, X, R, pose.t, k, grad=True)

    def backward(g_warped):
        g_d, g_t, g_R = warp_vjp(X, pose.t, lin, g_warped.ravel())
        g_omega = so3_exp_vjp(pose.omega, R, g_R)
        return g_d.reshape(h, w), np.concatenate([g_t, g_omega])

    return warped.reshape(h, w), mask.reshape(h, w), backward


def appearance_loss(ref: ImageBuffer, src: ImageBuffer, d_ref: InverseDepthMap,
                    pose: Pose6D, k: CameraIntrinsics, scale_index: int,
                    weights: LossWeights = LossWeights()):
    """Photometric dissimilarity between ``ref`` and the warped ``src``.

    Plain L1 for ``scale_index`` 1..3; the finest scale (0) blends
    ``alpha * (1 - SSIM)/2`` with ``(1 - alpha) * L1`` over the interior
    window grid.  Returns ``(loss, grad_depth, grad_pose)``.
    """
    if scale_index not in range(NUM_SCALES):
        raise ValueError(f"scale_index must be in 0..{NUM_SCALES - 1}")
    ref_gray = ref.gray()
    if (ref.height, ref.width) != (d_ref.height, d_ref.width):
        raise ValueError("reference image and depth grids differ")
    warped, mask, backward = _warp_with_grads(src.gray(), d_ref.values, pose, k)
    if float(mask.mean()) < MIN_VALID_FRACTION:
        raise DegenerateOverlap(f"only {mask.mean():.1%} of pixels warp in view")

    if scale_index != 0:
        count = float(np.sum(mask))
        diff = (ref_gray - warped) * mask
        loss = float(np.sum(np.abs(diff))) / count
        g_warped = -np.sign(diff) / count
        g_d, g_pose = backward(g_warped)
        return loss, g_d, g_pose

    if ref.height < 3 or ref.width < 3:
        raise GridTooSmall("the SSIM scale needs at least a 3x3 grid")
    alpha = weights.ssim_weight
    # Out-of-view samples are replaced by the reference value so SSIM
    # windows stay well-defined; those pixels contribute nothing to L1
    # and are excluded from the mean below.
    filled = np.where(mask, warped, ref_gray)
    s_map, ssim_back = _ssim_with_grad(ref_gray, filled, weights)
    interior_mask = mask[1:-1, 1:-1]
    count = float(np.sum(interior_mask))
    if count == 0.0:
        raise DegenerateOverlap("no interior pixels warp in view")
    diff = (ref_gray - filled)[1:-1, 1:-1] * interior_mask
    per_pixel = alpha * 0.5 * (1.0 - s_map) + (1.0 - alpha) * np.abs(diff)
    loss = float(np.sum(per_pixel * interior_mask)) / count

    g_s = (-alpha * 0.5) * interior_mask / count
    g_filled = ssim_back(g_s)
    g_l1 = np.zeros_like(ref_gray)
    g_l1[1:-1, 1:-1] = -(1.0 - alpha) * np.sign(diff) / count
    g_d, g_pose = backward(g_filled + g_l1)
    return loss, g_d, g_pose


def smoothness_prior(d: InverseDepthMap, img: ImageBuffer):
    """Edge-aware second-order smoothness of an inverse-depth map.

    Mean over interior pixels of exp(-|Laplacian(I)|) times the summed
    absolute second differences of the depth; returns ``(loss, grad)``.
    """
    if d.height < 3 or d.width < 3:
        raise GridTooSmall("smoothness needs at least a 3x3 grid")
    if (d.height, d.width) != (img.height, img.width):
        raise ValueError("depth and image grids differ")
    vals = d.values
    weight = np.exp(-laplacian_arr(img.gray()))[1:-1, 1:-1]
    dxx = vals[1:-1, :-2] - 2.0 * vals[1:-1, 1:-1] + vals[1:-1, 2:]
    dyy = vals[:-2, 1:-1] - 2.0 * vals[1:-1, 1:-1] + vals[2:, 1:-1]
    dxy = (vals[2:, 2:] - vals[:-2, 2:] - vals[2:, :-2] + vals[:-2, :-2]) / 4.0
    count = float(dxx.size)
    loss = float(np.sum(weight * (np.abs(dxx) + np.abs(dxy) + np.abs(dyy)))) / count

    grad = np.zeros_like(vals)
    gxx = weight * np.sign(dxx) / count
    grad[1:-1, :-2] += gxx
    grad[1:-1, 1:-1] += -2.0 * gxx
    grad[1:-1, 2:] += gxx
    gyy = weight * np.sign(dyy) / count
    grad[:-2, 1:-1] += gyy
    grad[1:-1, 1:-1] += -2.0 * gyy
    grad[2:, 1:-1] += gyy
    gxy = weight * np.sign(dxy) / (4.0 * count)
    grad[2:, 2:] += gxy
    grad[:-2, 2:] -= gxy
    grad[2:, :-2] -= gxy
    grad[:-2, :-2] += gxy
    return loss, grad


def _inverse_pose_vjp(pose: Pose6D, g_inv):
    """Pull a gradient on ``pose.inverse()`` back to ``pose`` itself.

    The inverse is ``(-R^T t, -omega)``; the translation part couples to
    omega through R.
    """
    g_inv = np.asarray(g_inv, dtype=float)
    R = so3_exp(pose.omega)
    jr = so3_right_jacobian(pose.omega)
    g = np.zeros(6)
    g[:3] = -R @ g_inv[:3]
    # d(-R^T t) under dR = R [Jr dw]x is [R^T t]x Jr dw.
    g[3:] = jr.T @ (skew(R.T @ pose.t) @ g_inv[:3]) - g_inv[3:]
    return g


def triplet_loss(t: Triplet, k: CameraIntrinsics,
                 weights: LossWeights = LossWeights()) -> LossBreakdown:
    """Full multi-scale objective over a triplet, with all gradients.

    Four directed comparisons per scale: the outer frames warped toward
    the middle one (using the middle depth and the given poses), and the
    middle frame warped toward each outer one (using the outer depths
    and the exact inverse poses).
    """
    grays = [img.gray() for img in t.images]
    img_pyrs = [pyramid_arr(g, NUM_SCALES) for g in grays]
    depth_pyrs = [pyramid_arr(d.values, NUM_SCALES) for d in t.inv_depths]
    fine_shape = depth_pyrs[0][0].shape

    grad_depths = [np.zeros(fine_shape) for _ in range(3)]
    grad_p21 = np.zeros(6)
    grad_p23 = np.zeros(6)
    appearance_per_scale = []

    p12 = t.p21.inverse()
    p32 = t.p23.inverse()
    # (ref frame, src frame, depth frame, pose, pose slot, inverted?)
    comparisons = (
        (1, 0, 1, t.p21, 0, False),
        (1, 2, 1, t.p23, 1, False),
        (0, 1, 0, p12, 0, True),
        (2, 1, 2, p32, 1, True),
    )

    for s in range(NUM_SCALES):
        k_s = k.at_level(s)
        scale_total = 0.0
        for ref_i, src_i, d_i, pose, slot, inverted in comparisons:
            loss, g_d, g_pose = appearance_loss(
                ImageBuffer(img_pyrs[ref_i][s]),
                ImageBuffer(img_pyrs[src_i][s]),
                InverseDepthMap.from_array(depth_pyrs[d_i][s]),
                pose, k_s, s, weights,
            )
            scale_total += loss
            grad_depths[d_i] += pyramid_grad_arr(g_d, s, fine_shape)
            if inverted:
                g_pose = _inverse_pose_vjp(t.p21 if slot == 0 else t.p23, g_pose)
            if slot == 0:
                grad_p21 += g_pose
            else:
                grad_p23 += g_pose
        appearance_per_scale.append(scale_total)

    prior_per_scale = []
    lam = weights.lambda_prior
    for s in PRIOR_SCALES:
        scale_prior = 0.0
        for i in range(3):
            loss, g_d = smoothness_prior(
                InverseDepthMap.from_array(depth_pyrs[i][s]),
                ImageBuffer(img_pyrs[i][s]),
            )
            scale_prior += loss
            grad_depths[i] += lam * pyramid_grad_arr(g_d, s, fine_shape)
        prior_per_scale.append(scale_prior)

    total = float(sum(appearance_per_scale) + lam * sum(prior_per_scale))
    return LossBreakdown(
        appearance_per_scale=tuple(appearance_per_scale),
        prior_per_scale=tuple(prior_per_scale),
        total=total,
        grad_depths=tuple(grad_depths),
        grad_p21=grad_p21,
        grad_p23=grad_p23,
    )
