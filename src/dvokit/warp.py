"""The inverse-depth warp with bilinear sampling, and its vector-Jacobian product.

DVO, the unrolled DDVO solver and the photometric losses all warp the
same way.  A reference pixel with normalized coordinates ``(u, v)`` and
inverse depth ``d`` is the homogeneous point ``X = [u, v, 1, d]``; the
source camera sees it at ``P = R @ [u, v, 1] + d * t = [R | t] @ X``
and the source image is sampled bilinearly where ``P`` projects.  The
points of a pyramid level are built once (``points``), so one warp is
one ``(3, 4) x (4, N)`` product, a division and one fused bilinear
lookup that also yields the image gradient when the VJP needs it.
``in_view`` is the one rule for a warp that leaves too few points in
view, shared by the solvers and the loss.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .errors import DegenerateOverlap
from .geometry import EPSILON_Z, CameraIntrinsics
from .imaging import bilinear_many

# Below this fraction of points warped in view, a solver level or a loss
# comparison is degenerate (DegenerateOverlap).
MIN_VALID_FRACTION = 0.25


class WarpLinearization(NamedTuple):
    """What ``warp_vjp`` needs from one warp, one entry per pixel."""

    mask: np.ndarray  # in front of the camera and inside the source
    up: np.ndarray  # projected normalized coordinates P_x / P_z
    vp: np.ndarray  # and P_y / P_z
    z: np.ndarray  # P_z, with 1 standing in behind the camera
    gu: np.ndarray  # source gradient in normalized coordinates: fx * d/dx
    gv: np.ndarray  # and fy * d/dy


def points(k: CameraIntrinsics, depth):
    """``(4, N)`` points ``[u, v, 1, d]`` of an (H, W) inverse-depth raster.

    ``(u, v)`` are the normalized coordinates of the pixel centers, and
    the N = H * W points run in row-major order.
    """
    h, w = depth.shape
    u, v = k.normalized_axes(w, h)
    X = np.empty((4, h, w))
    X[0] = u
    X[1] = v[:, None]
    X[2] = 1.0
    X[3] = depth
    return X.reshape(4, h * w)


def in_view(mask):
    """The number of points ``mask`` marks in view; DegenerateOverlap when
    that is below ``MIN_VALID_FRACTION`` of them."""
    # Counting is exact for a mask and cheaper than its mean or sum.
    n_in = np.count_nonzero(mask)
    if n_in / mask.size < MIN_VALID_FRACTION:
        raise DegenerateOverlap(f"only {n_in / mask.size:.1%} of pixels warp in view")
    return n_in


def warp_and_sample(plane, X, R, t, k: CameraIntrinsics, grad=False):
    """Warp the points ``X`` by ``(R, t)`` and sample the source ``plane``.

    Returns ``(values, mask)``, flat over the N points; ``mask`` marks
    points in front of the camera that land inside the source raster.
    With ``grad=True`` returns ``(values, mask, lin)``, where ``lin`` is
    the ``WarpLinearization`` that ``warp_vjp`` consumes.
    """
    Rt = np.empty((3, 4))
    Rt[:, :3] = R
    Rt[:, 3] = t
    P = Rt @ X
    # The rows of P are this call's own: z, the projection and, without
    # grad, the pixel coordinates are computed into them.
    z = P[2]
    front = z > EPSILON_Z
    np.copyto(z, 1.0, where=~front)
    up = np.divide(P[0], z, out=P[0])
    vp = np.divide(P[1], z, out=P[1])
    if grad:
        xs, ys = up * k.fx, vp * k.fy
    else:
        xs, ys = np.multiply(up, k.fx, out=up), np.multiply(vp, k.fy, out=vp)
    xs += k.cx
    ys += k.cy
    sampled = bilinear_many(plane, xs, ys, grad)
    mask = sampled[1]
    mask &= front
    if not grad:
        return sampled[0], mask
    values, _, gx, gy = sampled
    gx *= k.fx
    gy *= k.fy
    return values, mask, WarpLinearization(mask, up, vp, z, gx, gy)


def warp_vjp(X, t, lin: WarpLinearization, g):
    """Pull a gradient ``g`` on the masked samples back through the warp.

    Returns ``(g_depth, g_t, g_R)``: the gradient on each point's inverse
    depth, on ``t``, and on the matrix ``R`` (an ambient 3x3 gradient; see
    ``geometry.so3_exp_vjp`` for the step to exponential coordinates).
    Masked-out samples are constant and pass no gradient.
    """
    # g_P = d loss/d P; its last row holds the masked g until it is
    # needed for g_P's own.  The operations and their order are those of
    # the plain formulas in the comments.
    g_P = np.empty((3, g.size))
    tmp = np.empty(g.size)
    masked = g_P[2]
    masked.fill(0.0)
    np.copyto(masked, g, where=lin.mask)  # masked = where(mask, g, 0)
    # Projection u' = P_x / P_z and v' = P_y / P_z, then P = [R | t] @ X.
    np.multiply(masked, lin.gu, out=g_P[0])
    g_P[0] /= lin.z  # g_P[0] = masked * gu / z
    np.multiply(masked, lin.gv, out=g_P[1])
    g_P[1] /= lin.z  # g_P[1] = masked * gv / z
    np.multiply(lin.up, g_P[0], out=g_P[2])
    np.multiply(lin.vp, g_P[1], out=tmp)
    g_P[2] += tmp
    np.negative(g_P[2], out=g_P[2])  # g_P[2] = -(up * g_P[0] + vp * g_P[1])
    g_Rt = g_P @ X.T
    return t @ g_P, g_Rt[:, 3], g_Rt[:, :3]
