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
