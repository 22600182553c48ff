"""Independent reference versions of library arithmetic, for tests only.

These keep the straightforward form the library once used, so that the
optimized code can be checked against them.
"""

import numpy as np


def bilinear_many(plane, xs, ys):
    """4-neighbor bilinear sampling by 2-D fancy indexing.

    Returns ``(values, in_view)``; out-of-view samples are 0.  Coordinates
    exactly on the last row/column are in view (the cell is shifted by one).
    """
    h, w = plane.shape
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    in_view = (xs >= 0.0) & (xs <= w - 1.0) & (ys >= 0.0) & (ys <= h - 1.0)
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(xc), w - 2).astype(np.intp)
    y0 = np.minimum(np.floor(yc), h - 2).astype(np.intp)
    fx = xc - x0
    fy = yc - y0
    v00 = plane[y0, x0]
    v01 = plane[y0, x0 + 1]
    v10 = plane[y0 + 1, x0]
    v11 = plane[y0 + 1, x0 + 1]
    top = v00 * (1.0 - fx) + v01 * fx
    bot = v10 * (1.0 - fx) + v11 * fx
    vals = top * (1.0 - fy) + bot * fy
    return np.where(in_view, vals, 0.0), in_view


def bilinear_grad_many(plane, xs, ys):
    """Exact (piecewise) derivative of ``bilinear_many`` values w.r.t. (x, y)."""
    h, w = plane.shape
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(xc), w - 2).astype(np.intp)
    y0 = np.minimum(np.floor(yc), h - 2).astype(np.intp)
    fx = xc - x0
    fy = yc - y0
    v00 = plane[y0, x0]
    v01 = plane[y0, x0 + 1]
    v10 = plane[y0 + 1, x0]
    v11 = plane[y0 + 1, x0 + 1]
    gx = (v01 - v00) * (1.0 - fy) + (v11 - v10) * fy
    gy = (v10 - v00) * (1.0 - fx) + (v11 - v01) * fx
    return gx, gy


def bilinear_many_fused(plane, xs, ys, grad=False):
    """``imaging.bilinear_many`` as plain expressions, one temporary per
    operation: one flat cell index and four ``take`` gathers serve the
    values and, with ``grad=True``, the derivatives ``(d/dx, d/dy)``."""
    h, w = plane.shape
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    xc = np.clip(xs, 0.0, w - 1.0)
    yc = np.clip(ys, 0.0, h - 1.0)
    in_view = (xc == xs) & (yc == ys)
    x0 = np.minimum(np.floor(xc), w - 2)
    y0 = np.minimum(np.floor(yc), h - 2)
    fx = xc - x0
    fy = yc - y0
    cell = (y0 * w + x0).astype(np.intp)
    flat = plane.ravel()
    v00 = flat.take(cell)
    v01 = flat[1:].take(cell)
    v10 = flat[w:].take(cell)
    v11 = flat[w + 1:].take(cell)
    wx0 = 1.0 - fx
    wy0 = 1.0 - fy
    top = v00 * wx0 + v01 * fx
    bot = v10 * wx0 + v11 * fx
    vals = top * wy0 + bot * fy
    vals *= in_view
    if not grad:
        return vals, in_view
    gx = (v01 - v00) * wy0 + (v11 - v10) * fy
    gy = (v10 - v00) * wx0 + (v11 - v01) * fx
    return vals, in_view, gx, gy


def warp_and_sample(plane, X, R, t, k, grad=False):
    """``warp.warp_and_sample`` as plain expressions, one temporary per
    operation, sampling through ``bilinear_many_fused``.  With ``grad=True``
    the linearization is the tuple ``(mask, up, vp, z, gu, gv)``."""
    from dvokit.geometry import EPSILON_Z

    P = np.column_stack((R, t)) @ X
    front = P[2] > EPSILON_Z
    z = np.where(front, P[2], 1.0)
    up = P[0] / z
    vp = P[1] / z
    sampled = bilinear_many_fused(plane, up * k.fx + k.cx, vp * k.fy + k.cy, grad)
    mask = front & sampled[1]
    if not grad:
        return sampled[0], mask
    values, _, gx, gy = sampled
    return values, mask, (mask, up, vp, z, gx * k.fx, gy * k.fy)


def warp_vjp(X, t, lin, g):
    """``warp.warp_vjp`` as plain expressions, one temporary per operation."""
    mask, up, vp, z, gu, gv = lin
    g = np.where(mask, g, 0.0)
    g_u = g * gu / z
    g_v = g * gv / z
    g_P = np.stack((g_u, g_v, -(up * g_u + vp * g_v)))
    g_Rt = g_P @ X.T
    return t @ g_P, g_Rt[:, 3], g_Rt[:, :3]


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


def ssim(a, b):
    """``losses.ssim`` as plain expressions: five separate box means, and
    a backward that sends each moment's gradient through its own adjoint
    box.  Returns ``(map, backward)``."""
    from dvokit.losses import SSIM_C1 as c1, SSIM_C2 as c2

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


def gradient(plane):
    """``imaging.gradient_arr`` through ``np.gradient``: ``(d/dx, d/dy)``."""
    gy, gx = np.gradient(plane)
    return gx, gy


def laplacian(plane):
    """``imaging.laplacian_arr`` on an ``np.pad`` replicate border."""
    p = np.pad(plane, 1, mode="edge")
    lap = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * p[1:-1, 1:-1]
    return np.abs(lap)


def downsample2(data):
    """``imaging.downsample2_arr`` as a mean over the 2x2 blocks of a 4-D view."""
    h2, w2 = data.shape[0] // 2, data.shape[1] // 2
    return data[: 2 * h2, : 2 * w2].reshape(h2, 2, w2, 2).mean(axis=(1, 3))


def intersect_rays(spec, p, dirs, steps=60):
    """``synth._intersect_rays`` as a plain loop: every ray takes all
    ``steps`` fixed-point steps."""
    from dvokit.geometry import EPSILON_Z, so3_exp
    from dvokit.synth import _height_field

    R = so3_exp(p.omega)
    a = dirs @ R
    b = -(R.T @ p.t)
    depth = _height_field(spec)
    lam = (spec.mean_depth - b[2]) / a[..., 2]
    for _ in range(steps):
        z_ref = lam * a[..., 2] + b[2]
        u = (lam * a[..., 0] + b[0]) / z_ref
        v = (lam * a[..., 1] + b[1]) / z_ref
        lam = (depth(u, v) - b[2]) / a[..., 2]
    z_ref = lam * a[..., 2] + b[2]
    valid = (lam > EPSILON_Z) & (z_ref > EPSILON_Z)
    safe = np.where(valid, z_ref, 1.0)
    u = (lam * a[..., 0] + b[0]) / safe
    v = (lam * a[..., 1] + b[1]) / safe
    return np.where(valid, lam, 1.0), u, v, valid
