"""Raster containers, subpixel sampling, stencil operators, and pyramids.

Images are stored as float64 arrays of shape ``(height, width, channels)``
with photometric values in [0, 1]; inverse-depth rasters are unconstrained
non-negative single-channel buffers.  The vectorized ``*_many`` helpers
operate on bare arrays and are what the solvers use internally; the
scalar operations wrap the same arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import GridTooSmall

# Fixed grayscale weights; 8-bit sources are divided by 255 on load.
GRAY_WEIGHTS = np.array([0.299, 0.587, 0.114])


@dataclass(frozen=True)
class ImageBuffer:
    """K-channel raster with float64 storage, shape (height, width, channels)."""

    data: np.ndarray

    def __post_init__(self):
        data = np.asarray(self.data, dtype=float)
        if data.ndim == 2:
            data = data[:, :, None]
        if data.ndim != 3:
            raise ValueError(f"expected 2D or 3D raster, got shape {data.shape}")
        if not np.all(np.isfinite(data)):
            raise ValueError("raster contains non-finite values")
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

    def plane(self, c=0):
        """Single channel as a (H, W) array view."""
        return self.data[:, :, c]

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
            raise ValueError("inverse depth must be single-channel")
        if np.any(self.image.data < 0.0):
            raise ValueError("inverse depth must be non-negative")

    @staticmethod
    def from_array(values):
        return InverseDepthMap(ImageBuffer(np.asarray(values, dtype=float)))

    @property
    def values(self):
        return self.image.data[:, :, 0]

    @property
    def height(self):
        return self.image.height

    @property
    def width(self):
        return self.image.width


@dataclass(frozen=True)
class ImagePyramid:
    """Coarse-to-fine stack; level 0 is the finest, each level floor-halves."""

    levels: tuple

    def __post_init__(self):
        if len(self.levels) < 1:
            raise ValueError("pyramid needs at least one level")
        object.__setattr__(self, "levels", tuple(self.levels))

    def __len__(self):
        return len(self.levels)

    def __getitem__(self, i):
        return self.levels[i]


# A validity mask is a boolean (H, W) array: True where a warped coordinate
# landed inside the source image and in front of the camera.
ValidityMask = np.ndarray


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
    # Keep the a*(1-f) + b*f form: it returns the stored value bit for bit
    # at lattice points, where a + (b-a)*f need not.
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


def bilinear_grad_many(plane, xs, ys):
    """Exact (piecewise) derivative of ``bilinear_many`` values w.r.t. (x, y)."""
    _, _, gx, gy = bilinear_many(plane, xs, ys, grad=True)
    return gx, gy


def sample_bilinear(img: ImageBuffer, x):
    """Sample all channels at subpixel location ``x = (x, y)`` (pixels).

    Returns ``(value, in_view)``; the value is 0 when any of the four
    neighbors falls outside the raster.
    """
    px, py = float(x[0]), float(x[1])
    vals = np.empty(img.channels)
    in_view = True
    for c in range(img.channels):
        v, ok = bilinear_many(img.plane(c), np.array([px]), np.array([py]))
        vals[c] = v[0]
        in_view = bool(ok[0])
    return vals, in_view


def sample_bilinear_grad(img: ImageBuffer, x):
    """Per-channel (d/dx, d/dy) of the bilinear sample at an in-view point."""
    px, py = float(x[0]), float(x[1])
    out = np.empty((img.channels, 2))
    for c in range(img.channels):
        gx, gy = bilinear_grad_many(img.plane(c), np.array([px]), np.array([py]))
        out[c] = (gx[0], gy[0])
    return out


def gradient_arr(plane):
    """(d/dx, d/dy) of a (H, W) plane: central interior, one-sided borders."""
    gy, gx = np.gradient(plane)
    return gx, gy


def spatial_gradient(img: ImageBuffer) -> ImageBuffer:
    """Per-channel spatial gradient; output channels are (dx_c, dy_c) pairs."""
    if img.width < 3 or img.height < 3:
        raise GridTooSmall("spatial_gradient needs at least a 3x3 raster")
    planes = []
    for c in range(img.channels):
        gx, gy = gradient_arr(img.plane(c))
        planes.extend([gx, gy])
    return ImageBuffer(np.stack(planes, axis=2))


def laplacian_arr(plane):
    """|4-neighbor Laplacian| with replicate padding at the borders."""
    p = np.pad(plane, 1, mode="edge")
    lap = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4.0 * p[1:-1, 1:-1]
    return np.abs(lap)


def laplacian(img: ImageBuffer) -> ImageBuffer:
    """Absolute Laplacian of a single-channel image."""
    if img.channels != 1:
        raise ValueError("laplacian expects a single-channel image")
    if img.width < 3 or img.height < 3:
        raise GridTooSmall("laplacian needs at least a 3x3 raster")
    return ImageBuffer(laplacian_arr(img.plane()))


def downsample2_arr(data):
    """2x2 average pooling; an odd trailing row/column is dropped."""
    h, w = data.shape[:2]
    if h < 2 or w < 2:
        raise GridTooSmall("downsample2 needs at least a 2x2 raster")
    h2, w2 = h // 2, w // 2
    d = data[: 2 * h2, : 2 * w2]
    if d.ndim == 2:
        return d.reshape(h2, 2, w2, 2).mean(axis=(1, 3))
    return d.reshape(h2, 2, w2, 2, d.shape[2]).mean(axis=(1, 3))


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


def downsample2(img: ImageBuffer) -> ImageBuffer:
    return ImageBuffer(downsample2_arr(img.data))


def build_pyramid(img: ImageBuffer, levels: int) -> ImagePyramid:
    """Level 0 = input; each level is the factor-2 average of the previous."""
    if levels < 1:
        raise ValueError("levels must be >= 1")
    if img.width < 2 ** (levels - 1) or img.height < 2 ** (levels - 1):
        raise GridTooSmall(
            f"{img.width}x{img.height} raster cannot support {levels} pyramid levels"
        )
    out = [img]
    for _ in range(levels - 1):
        out.append(downsample2(out[-1]))
    return ImagePyramid(tuple(out))


def pyramid_arr(plane, levels):
    """Pyramid of a bare (H, W) plane (list of arrays, finest first)."""
    out = [np.asarray(plane, dtype=float)]
    for _ in range(levels - 1):
        out.append(downsample2_arr(out[-1]))
    return out
