"""Raster containers, subpixel sampling, stencil operators, and pyramids.

``ImageBuffer`` stores an image as float64 of shape ``(height, width,
channels)`` with photometric values in [0, 1]; ``InverseDepthMap`` holds a
non-negative single-channel inverse depth.  They are the validated form
of a raster where it enters the library: ``fileio`` reads into them,
``synth`` renders into them and the CLI passes them on.  Past that
boundary everything computes on bare (H, W) float arrays,
``ImageBuffer.gray()`` and ``InverseDepthMap.values``: the solvers
(``dvo``, ``ddvo``), the loss (``losses``) and the operations below.
``check_grids`` is their one grid check.  The pyramid and its adjoint
are one pair, ``pyramid_arr`` and ``pyramid_grad_arr``.  The adjoint
takes one gradient per level and lifts their sum to the finest grid in a
single coarse-to-fine pass, so a caller gathers its gradients per level
first.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import GridTooSmall, InvalidRaster, ShapeMismatch

# Fixed grayscale weights; 8-bit sources are divided by 255 on load.
GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True)
class ImageBuffer:
    """K-channel raster with float64 storage, shape (height, width, channels)."""

    data: np.ndarray

    def __post_init__(self):
        # A copy, so the caller's array can neither change the checked
        # values nor be made read-only.
        data = np.array(self.data, dtype=float)
        if data.ndim == 2:
            data = data[:, :, None]
        if data.ndim != 3:
            raise InvalidRaster(f"expected 2D or 3D raster, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise InvalidRaster("raster contains non-finite values")
        data = np.ascontiguousarray(data)
        data.setflags(write=False)
        object.__setattr__(self, "data", data)

    @property
    def height(self):
        return self.data.shape[0]

    @property
    def width(self):
        return self.data.shape[1]

    @property
    def channels(self):
        return self.data.shape[2]

    def gray(self):
        """(H, W) intensity: pass-through for 1 channel, fixed RGB weights for 3."""
        if self.channels == 1:
            return self.data[:, :, 0]
        if self.channels == 3:
            return self.data @ GRAY_WEIGHTS
        return self.data.mean(axis=2)


@dataclass(frozen=True)
class InverseDepthMap:
    """Per-pixel inverse depth on an image grid (single channel, d >= 0)."""

    image: ImageBuffer

    def __post_init__(self):
        if self.image.channels != 1:
            raise InvalidRaster("inverse depth must be single-channel")
        if np.any(self.image.data < 0.0):
            raise InvalidRaster("inverse depth must be non-negative")

    @staticmethod
    def from_array(values):
        return InverseDepthMap(ImageBuffer(np.asarray(values, dtype=float)))

    @property
    def values(self):
        return self.image.data[:, :, 0]


def check_grids(planes):
    """Raise ShapeMismatch unless the planes of the dict ``{name: plane}``
    are (H, W) arrays on one grid; the message names the first misfit."""
    (first, shape), *rest = ((name, np.shape(p)) for name, p in planes.items())
    if len(shape) != 2:
        raise ShapeMismatch(f"{first} must be an (H, W) array, got shape {shape}")
    for name, other in rest:
        if other != shape:
            raise ShapeMismatch(f"{first} and {name} grids differ: {shape} vs {other}")


def bilinear_many(plane, xs, ys, grad=False):
    """Vectorized 4-neighbor bilinear sampling of a (H, W) plane.

    Returns ``(values, in_view)``; out-of-view samples are 0.  Coordinates
    exactly on the last row/column are in view (the cell is shifted by one).
    With ``grad=True`` also returns the exact (piecewise) derivatives
    ``(d/dx, d/dy)`` of the values, ``(values, in_view, gx, gy)``, from the
    same four neighbors: one flat cell index and four gathers serve both.
    """
    h, w = plane.shape
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    # Every temporary is a plane this call owns, and each result is
    # computed into one of them; the operations and their order are those
    # of the plain formulas in the comments.  The planes are separate
    # arrays: one buffer holding all of them cost more in page faults.
    fx, fy, x0, y0, vals, v01, v10, v11 = (np.empty(xs.shape) for _ in range(8))
    xc = np.clip(xs, 0.0, w - 1.0, out=fx)
    yc = np.clip(ys, 0.0, h - 1.0, out=fy)
    in_view = xc == xs
    in_view &= yc == ys
    np.floor(xc, out=x0)
    np.minimum(x0, w - 2, out=x0)
    np.floor(yc, out=y0)
    np.minimum(y0, h - 2, out=y0)
    fx -= x0  # fx = xc - x0
    fy -= y0  # fy = yc - y0
    # cell = y0 * w + x0
    y0 *= w
    y0 += x0
    cell = y0.astype(np.intp)
    flat = plane.ravel()
    # The cells are in range, so "clip" changes no index; it lets take
    # write into its output directly.
    flat.take(cell, out=vals, mode="clip")  # v00
    flat[1:].take(cell, out=v01, mode="clip")
    flat[w:].take(cell, out=v10, mode="clip")
    flat[w + 1:].take(cell, out=v11, mode="clip")
    # Keep the a*(1-f) + b*f form: it returns the stored value bit for bit
    # at lattice points, where a + (b-a)*f need not.
    wx0 = np.subtract(1.0, fx, out=x0)
    wy0 = np.subtract(1.0, fy, out=y0)
    if grad:
        gx, gy, tmp = (np.empty(xs.shape) for _ in range(3))
        # gx = (v01 - v00) * wy0 + (v11 - v10) * fy
        np.subtract(v11, v10, out=tmp)
        tmp *= fy
        np.subtract(v01, vals, out=gx)
        gx *= wy0
        gx += tmp
        # gy = (v10 - v00) * wx0 + (v11 - v01) * fx
        np.subtract(v11, v01, out=tmp)
        tmp *= fx
        np.subtract(v10, vals, out=gy)
        gy *= wx0
        gy += tmp
    # top = v00 * wx0 + v01 * fx; bot = v10 * wx0 + v11 * fx
    # vals = top * wy0 + bot * fy
    vals *= wx0
    v01 *= fx
    vals += v01
    v10 *= wx0
    v11 *= fx
    v10 += v11
    vals *= wy0
    v10 *= fy
    vals += v10
    vals *= in_view
    if not grad:
        return vals, in_view
    return vals, in_view, gx, gy


def bilinear_grad_many(plane, xs, ys):
    """Exact (piecewise) derivative of ``bilinear_many`` values w.r.t. (x, y)."""
    _, _, gx, gy = bilinear_many(plane, xs, ys, grad=True)
    return gx, gy


def gradient_arr(plane):
    """(d/dx, d/dy) of a (H, W) plane: central interior, one-sided borders.

    The values of ``np.gradient``, from direct slices.  GridTooSmall for a
    plane with fewer than 2 rows or columns.
    """
    h, w = plane.shape
    if h < 2 or w < 2:
        raise GridTooSmall(f"a gradient needs at least a 2x2 raster, got {h}x{w}")
    gx = np.empty((h, w))
    gy = np.empty((h, w))
    np.subtract(plane[:, 2:], plane[:, :-2], out=gx[:, 1:-1])
    gx[:, 1:-1] /= 2.0
    np.subtract(plane[:, 1], plane[:, 0], out=gx[:, 0])
    np.subtract(plane[:, -1], plane[:, -2], out=gx[:, -1])
    np.subtract(plane[2:], plane[:-2], out=gy[1:-1])
    gy[1:-1] /= 2.0
    np.subtract(plane[1], plane[0], out=gy[0])
    np.subtract(plane[-1], plane[-2], out=gy[-1])
    return gx, gy


def laplacian_arr(plane):
    """|4-neighbor Laplacian| with replicate padding at the borders.

    The padded plane is written from direct slices (the values of
    ``np.pad(plane, 1, mode="edge")``), and the sum is taken in place.
    """
    h, w = plane.shape
    p = np.empty((h + 2, w + 2))
    p[1:-1, 1:-1] = plane
    p[0, 1:-1] = plane[0]
    p[-1, 1:-1] = plane[-1]
    p[:, 0] = p[:, 1]
    p[:, -1] = p[:, -2]
    # lap = up + down + left + right - 4 * center
    lap = p[:-2, 1:-1] + p[2:, 1:-1]
    lap += p[1:-1, :-2]
    lap += p[1:-1, 2:]
    lap -= 4.0 * p[1:-1, 1:-1]
    return np.abs(lap, out=lap)


def downsample2_arr(data):
    """2x2 average pooling of a (H, W) plane; an odd trailing row/column is dropped."""
    h, w = data.shape
    if h < 2 or w < 2:
        raise GridTooSmall("2x2 pooling needs at least a 2x2 raster")
    he, we = h - h % 2, w - w % 2  # even extents
    top_left, top_right = data[0:he:2, 0:we:2], data[0:he:2, 1:we:2]
    bottom_left, bottom_right = data[1:he:2, 0:we:2], data[1:he:2, 1:we:2]
    # Each block is summed in the order numpy's mean over axes (1, 3) of the
    # (he/2, 2, we/2, 2) block view sums it, so the values are that mean's:
    # pairwise, but in sequence when the output has a single column.
    out = top_left + top_right
    if we == 2:
        out += bottom_left
        out += bottom_right
    else:
        out += bottom_left + bottom_right
    out /= 4.0
    return out


def upsample2_grad_arr(grad_coarse, fine_shape):
    """Adjoint of ``downsample2_arr`` for backpropagation.

    Each coarse gradient entry contributes a quarter to its four source
    pixels; dropped trailing rows/columns receive zero.
    """
    h, w = fine_shape
    out = np.zeros((h, w))
    h2, w2 = grad_coarse.shape
    g = np.repeat(np.repeat(grad_coarse, 2, axis=0), 2, axis=1) / 4.0
    out[: 2 * h2, : 2 * w2] = g
    return out


def pyramid_arr(plane, levels):
    """Pyramid of a bare (H, W) plane (list of arrays, finest first)."""
    out = [np.asarray(plane, dtype=float)]
    for _ in range(levels - 1):
        out.append(downsample2_arr(out[-1]))
    return out


def pyramid_grad_arr(grads):
    """Adjoint of ``pyramid_arr``: sum per-level gradients onto the finest grid.

    ``grads`` holds one gradient per level, finest first.  The running sum
    goes back through each 2x2 average coarse-to-fine and picks up each
    finer level's own gradient on the way.
    """
    acc = grads[-1]
    for g in reversed(grads[:-1]):
        acc = g + upsample2_grad_arr(acc, g.shape)
    return acc
