"""Unsupervised photometric training objective with analytic gradients.

The objective over a three-frame clip combines, per pyramid scale, a
bidirectional appearance dissimilarity (plain L1 at the three coarser
scales; an L1 + SSIM blend at the finest) with an edge-aware
second-order smoothness prior on the inverse depths, collected from the
two coarsest scales only.  Every term returns exact gradients with
respect to the finest inverse-depth rasters and, where meaningful, the
two relative poses; training never needs numeric differentiation.

The terms, ``Triplet`` and ``triplet_loss`` work on bare (H, W) gray and
inverse-depth arrays and on poses in matrix form ``(R, t)``, like the
solvers; the validated raster types stay where data enters (``fileio``,
``synth``, the CLI), and ``training.train_triplet`` takes its clip's
arrays once.  ``triplet_loss`` gathers the pose gradient of every
comparison on ``(R, t)`` (the two comparisons that use an inverse pose
are pulled back in matrix form) and returns it as ``(g_t, g_R)``,
the seed ``ddvo.ddvo_backward`` takes; a caller that optimizes exponential
coordinates converts with ``geometry.so3_exp_vjp``.  Depth gradients are
gathered per pyramid level and lifted to the finest grid once per frame.

The finest scale's SSIM (``ssim``) forms its map in place and keeps, for
its backward, only the map's derivatives with respect to the three box
means that depend on the warped image, stacked in one array; the
backward scales them by the incoming gradient and sends each back
through the adjoint box (``_box3_adjoint``), a column pass and a row pass.

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

from .errors import DegenerateDepth, DegenerateOverlap, GridTooSmall, ShapeMismatch
from .geometry import CameraIntrinsics
from .imaging import check_grids, laplacian_arr, pyramid_arr, pyramid_grad_arr
from .warp import in_view, points, warp_and_sample, warp_vjp

# perfbench traces these under this module's name; the loss reaches the
# samplers through the warp module and calls so3_exp nowhere.
from .geometry import so3_exp  # noqa: F401
from .imaging import bilinear_grad_many, bilinear_many  # noqa: F401

# Number of pyramid scales in the aggregate objective.
NUM_SCALES = 4

# Smoothness is collected from these (coarsest) scales only.
PRIOR_SCALES = (2, 3)

# The SSIM share of the finest scale's appearance blend, and SSIM's
# stabilizers; values follow common practice.
SSIM_WEIGHT = 0.85
SSIM_C1 = 0.01 ** 2
SSIM_C2 = 0.03 ** 2


@dataclass(frozen=True)
class LossWeights:
    """Objective weights."""

    lambda_prior: float = 0.01

    def __post_init__(self):
        if not self.lambda_prior >= 0.0:
            raise ValueError("lambda_prior must be non-negative")


@dataclass(frozen=True)
class Triplet:
    """Three sequential frames with per-frame inverse depth.

    ``images`` and ``inv_depths`` are three (H, W) gray and inverse-depth
    arrays on one grid; ``p21`` and ``p23`` are ``(R, t)`` pairs that map middle-frame points
    into the first and third frames respectively (``Pose6D.rt`` gives one).
    """

    images: tuple
    inv_depths: tuple
    p21: tuple
    p23: tuple

    def __post_init__(self):
        if len(self.images) != 3 or len(self.inv_depths) != 3:
            raise ValueError("a triplet needs exactly three frames")
        names = [f"{kind} {i}" for kind in ("image", "depth") for i in range(3)]
        check_grids(dict(zip(names, (*self.images, *self.inv_depths))))
        for p in (self.p21, self.p23):
            if not isinstance(p, (tuple, list)) or [np.shape(a) for a in p] != [(3, 3), (3,)]:
                raise ShapeMismatch("triplet poses must be pairs (R (3, 3), t (3,)), "
                                    f"got {type(p).__name__}")


@dataclass(frozen=True)
class LossBreakdown:
    """Per-scale terms and all gradients."""

    appearance_per_scale: tuple
    prior_per_scale: tuple
    total: float
    grad_depths: tuple  # gradients on the three finest inverse-depth rasters
    grad_p21: tuple  # (g_t, g_R), with g_R the ambient 3x3 gradient on R
    grad_p23: tuple


def normalize_inverse_depth(values):
    """Divide an inverse-depth raster by its mean (output mean is exactly 1)."""
    values = np.asarray(values, dtype=float)
    mean = float(np.mean(values))
    if mean <= 1e-12:
        raise DegenerateDepth(f"mean inverse depth {mean!r} has collapsed")
    return values / mean


def normalize_inverse_depth_vjp(values, grad_out):
    """Backward of ``normalize_inverse_depth``.

    With S the sum over N pixels, eta_i = N d_i / S, so
    d eta_i / d d_j = N/S (delta_ij - d_i / S).
    """
    values = np.asarray(values, dtype=float)
    grad_out = np.asarray(grad_out, dtype=float)
    s = float(np.sum(values))
    n = values.size
    return (n / s) * grad_out - (n / (s * s)) * float(np.sum(grad_out * values))


def _box3(a):
    """3x3 box mean over the last two axes, valid region only:
    (..., H, W) -> (..., H-2, W-2).  A row pass, then a column pass."""
    rows = a[..., :-2, :] + a[..., 1:-1, :]
    rows += a[..., 2:, :]
    out = rows[..., :-2] + rows[..., 1:-1]
    out += rows[..., 2:]
    out /= 9.0
    return out


def _box3_adjoint(g):
    """Adjoint of ``_box3``, (..., H-2, W-2) -> (..., H, W): each window
    mean goes back to its nine pixels.  The transpose of the column pass,
    then that of the row pass."""
    *lead, h, w = g.shape
    cols = np.empty((*lead, h, w + 2))
    cols[..., :-2] = g
    cols[..., -2:] = 0.0
    cols[..., 1:-1] += g
    cols[..., 2:] += g
    out = np.empty((*lead, h + 2, w + 2))
    out[..., :-2, :] = cols
    out[..., -2:, :] = 0.0
    out[..., 1:-1, :] += cols
    out[..., 2:, :] += cols
    out /= 9.0
    return out


def ssim(a, b):
    """Per-pixel SSIM map of two (H, W) arrays over 3x3 box statistics.

    Returns ``(map, backward)``: the map has shape (H-2, W-2), and
    ``backward`` maps d loss/d SSIM to d loss/d b (``a`` is held fixed).
    The map is formed in place, in the order of the plain formulas in the
    comments, so its values are theirs bit for bit.  Its derivatives with
    respect to the three box means that depend on ``b`` (of ``b``,
    ``b * b`` and ``a * b``) are formed here too, and they are all that
    ``backward`` keeps: it scales them by its input and sends each back
    through the adjoint box.
    """
    if a.shape != b.shape:
        raise ShapeMismatch("SSIM inputs must share a grid")
    if a.shape[0] < 3 or a.shape[1] < 3:
        raise GridTooSmall("SSIM needs at least a 3x3 grid")
    c1, c2 = SSIM_C1, SSIM_C2
    mu_a = _box3(a)
    mu_b = _box3(b)
    prod = a * a
    e_aa = _box3(prod)
    np.multiply(b, b, out=prod)
    e_bb = _box3(prod)
    np.multiply(a, b, out=prod)
    e_ab = _box3(prod)
    sq_a = mu_a * mu_a
    sq_b = mu_b * mu_b
    var_a = np.subtract(e_aa, sq_a, out=e_aa)  # e_aa - mu_a * mu_a
    var_b = np.subtract(e_bb, sq_b, out=e_bb)  # e_bb - mu_b * mu_b
    ab = mu_a * mu_b
    cov = np.subtract(e_ab, ab, out=e_ab)  # e_ab - mu_a * mu_b
    # lum_n = 2.0 * mu_a * mu_b + c1
    lum_n = np.multiply(mu_a, 2.0, out=ab)
    lum_n *= mu_b
    lum_n += c1
    # lum_d = mu_a * mu_a + mu_b * mu_b + c1
    lum_d = np.add(sq_a, sq_b, out=sq_a)
    lum_d += c1
    # str_n = 2.0 * cov + c2
    str_n = np.multiply(cov, 2.0, out=cov)
    str_n += c2
    # str_d = var_a + var_b + c2
    str_d = np.add(var_a, var_b, out=var_a)
    str_d += c2
    # s = (lum_n * str_n) / (lum_d * str_d)
    s = lum_n * str_n
    den = np.multiply(lum_d, str_d, out=sq_b)
    s /= den

    # d s / d (mu_b, e_bb, e_ab), with a held fixed:
    #   d_mu = 2 mu_a (str_n - lum_n) / den + 2 mu_b (s / str_d - s / lum_d)
    #   d_bb = -s / str_d
    #   d_ab = 2 lum_n / den
    coef = np.empty((3, *s.shape))
    d_mu, d_bb, d_ab = coef
    s_str = np.divide(s, str_d, out=d_bb)
    tmp = np.divide(s, lum_d, out=var_b)  # var_b is spent
    np.subtract(s_str, tmp, out=tmp)
    tmp *= mu_b
    np.subtract(str_n, lum_n, out=d_mu)
    d_mu /= den
    d_mu *= mu_a
    d_mu += tmp
    d_mu *= 2.0
    np.negative(s_str, out=d_bb)
    np.divide(lum_n, den, out=d_ab)
    d_ab *= 2.0

    def backward(g_s):
        # The box means came from (b, b * b, a * b), whose derivatives
        # with respect to b are (1, 2 b, a).  One adjoint box per mean: a
        # single box over the three stacked planes needs buffers three
        # planes large, which cost more in page faults than they save.
        g_b, g_bb, g_ab = (_box3_adjoint(d * g_s) for d in coef)
        g_bb *= 2.0
        g_bb *= b
        g_ab *= a
        g_b += g_bb
        g_b += g_ab
        return g_b

    return s, backward


def appearance_loss(ref_gray, src_gray, depth, R, t, k: CameraIntrinsics,
                    scale_index: int):
    """Photometric dissimilarity between ``ref_gray`` and the warped ``src_gray``.

    ``depth`` is the reference inverse depth and ``(R, t)`` maps reference
    points into the source.  Plain L1 for ``scale_index`` 1..3; the finest
    scale (0) blends ``alpha * (1 - SSIM)/2`` with ``(1 - alpha) * L1``,
    ``alpha = SSIM_WEIGHT``, over the interior window grid.  Returns
    ``(loss, g_depth, g_t, g_R)`` with ``g_R`` the ambient 3x3 gradient on
    ``R`` (see ``warp.warp_vjp``).
    """
    if scale_index not in range(NUM_SCALES):
        raise ValueError(f"scale_index must be in 0..{NUM_SCALES - 1}")
    if ref_gray.shape != depth.shape:
        raise ShapeMismatch("reference image and depth grids differ")
    h, w = depth.shape
    X = points(k, depth)
    warped, mask, lin = warp_and_sample(src_gray, X, R, t, k, grad=True)
    n_in = in_view(mask)
    warped = warped.reshape(h, w)
    mask = mask.reshape(h, w)

    if scale_index != 0:
        count = float(n_in)
        diff = (ref_gray - warped) * mask
        loss = float(np.sum(np.abs(diff))) / count
        g_warped = -np.sign(diff) / count
    else:
        alpha = SSIM_WEIGHT
        # Out-of-view samples are replaced by the reference value so SSIM
        # windows stay well-defined; those pixels contribute nothing to L1
        # and are excluded from the mean below.
        filled = np.where(mask, warped, ref_gray)
        s_map, ssim_back = ssim(ref_gray, filled)
        interior_mask = mask[1:-1, 1:-1]
        count = float(np.count_nonzero(interior_mask))
        if count == 0.0:
            raise DegenerateOverlap("no interior pixels warp in view")
        diff = (ref_gray - filled)[1:-1, 1:-1] * interior_mask
        per_pixel = alpha * 0.5 * (1.0 - s_map) + (1.0 - alpha) * np.abs(diff)
        loss = float(np.sum(per_pixel * interior_mask)) / count

        g_warped = ssim_back((-alpha * 0.5) * interior_mask / count)
        g_warped[1:-1, 1:-1] += -(1.0 - alpha) * np.sign(diff) / count
    g_d, g_t, g_R = warp_vjp(X, t, lin, g_warped.ravel())
    return loss, g_d.reshape(h, w), g_t, g_R


def smoothness_prior(depth, gray):
    """Edge-aware second-order smoothness of an (H, W) inverse-depth raster.

    Mean over interior pixels of exp(-|Laplacian(gray)|) times the summed
    absolute second differences of the depth; returns ``(loss, grad)``.
    """
    if depth.shape[0] < 3 or depth.shape[1] < 3:
        raise GridTooSmall("smoothness needs at least a 3x3 grid")
    if depth.shape != gray.shape:
        raise ShapeMismatch("depth and image grids differ")
    weight = np.exp(-laplacian_arr(gray))[1:-1, 1:-1]
    dxx = depth[1:-1, :-2] - 2.0 * depth[1:-1, 1:-1] + depth[1:-1, 2:]
    dyy = depth[:-2, 1:-1] - 2.0 * depth[1:-1, 1:-1] + depth[2:, 1:-1]
    dxy = (depth[2:, 2:] - depth[:-2, 2:] - depth[2:, :-2] + depth[:-2, :-2]) / 4.0
    count = float(dxx.size)
    loss = float(np.sum(weight * (np.abs(dxx) + np.abs(dxy) + np.abs(dyy)))) / count

    grad = np.zeros_like(depth)
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


def triplet_loss(t: Triplet, k: CameraIntrinsics,
                 weights: LossWeights = LossWeights()) -> LossBreakdown:
    """Full multi-scale objective over a triplet, with all gradients.

    Four directed comparisons per scale: the outer frames warped toward
    the middle one (using the middle depth and the given poses), and the
    middle frame warped toward each outer one (using the outer depths
    and the exact inverse poses).
    """
    img_pyrs = [pyramid_arr(img, NUM_SCALES) for img in t.images]
    depth_pyrs = [pyramid_arr(d, NUM_SCALES) for d in t.inv_depths]
    # Depth gradients per frame and pyramid level, finest first.
    g_levels = [[np.zeros(lv.shape) for lv in pyr] for pyr in depth_pyrs]

    # Pose slot 0 is p21, slot 1 is p23; gradients are gathered on (R, t).
    Rs, ts = zip(t.p21, t.p23)
    g_Rs = [np.zeros((3, 3)), np.zeros((3, 3))]
    g_ts = [np.zeros(3), np.zeros(3)]
    # (ref frame, src frame, pose slot, inverted?); the depth is the ref frame's.
    comparisons = ((1, 0, 0, False), (1, 2, 1, False), (0, 1, 0, True), (2, 1, 1, True))

    appearance_per_scale = []
    for s in range(NUM_SCALES):
        k_s = k.at_level(s)
        scale_total = 0.0
        for ref_i, src_i, slot, inverted in comparisons:
            R, tr = Rs[slot], ts[slot]
            if inverted:
                R, tr = R.T, -R.T @ tr
            loss, g_d, g_t, g_R = appearance_loss(
                img_pyrs[ref_i][s], img_pyrs[src_i][s], depth_pyrs[ref_i][s], R, tr, k_s, s
            )
            scale_total += loss
            g_levels[ref_i][s] += g_d
            if inverted:
                # The comparison saw (R^T, -R^T t); pull back onto (R, t).
                g_R = g_R.T - np.outer(ts[slot], g_t)
                g_t = -Rs[slot] @ g_t
            g_Rs[slot] += g_R
            g_ts[slot] += g_t
        appearance_per_scale.append(scale_total)

    prior_per_scale = []
    lam = weights.lambda_prior
    for s in PRIOR_SCALES:
        scale_prior = 0.0
        for i in range(3):
            loss, g_d = smoothness_prior(depth_pyrs[i][s], img_pyrs[i][s])
            scale_prior += loss
            g_levels[i][s] += lam * g_d
        prior_per_scale.append(scale_prior)

    total = float(sum(appearance_per_scale) + lam * sum(prior_per_scale))
    return LossBreakdown(
        appearance_per_scale=tuple(appearance_per_scale),
        prior_per_scale=tuple(prior_per_scale),
        total=total,
        grad_depths=tuple(pyramid_grad_arr(g) for g in g_levels),
        grad_p21=(g_ts[0], g_Rs[0]),
        grad_p23=(g_ts[1], g_Rs[1]),
    )
