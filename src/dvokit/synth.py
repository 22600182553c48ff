"""Deterministic synthetic scenes with exact depth and pose ground truth.

A scene is a surface in the reference camera frame carrying a band-limited
procedural texture (a seeded sum of sinusoids over the reference-view
projection coordinates).  Smooth textures keep bilinear-interpolation error
small, which is what makes the finite-difference and pose-recovery oracles
tight.

The reference view is evaluated directly on its pixel grid
(``make_scene``).  A view at another pose is rendered analytically by one
ray cast (``render_scene_view``): each view pixel's ray is intersected
with the surface exactly, which gives the view's inverse depth, and the
texture is evaluated in closed form at the hit, so a rendered pair is
photometrically consistent to machine precision.  On a height field the
intersection is 60 fixed-point steps per ray; a ray whose step returns its
depth unchanged leaves the loop, which leaves the result as it was.

Poses follow the package convention: a view's pose maps reference-frame
points into the view frame, ``X_view = R @ X_ref + t``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .geometry import EPSILON_Z, CameraIntrinsics, Pose6D, so3_exp
from .imaging import ImageBuffer, InverseDepthMap

SCENE_KINDS = ("textured-plane", "two-plane", "smooth-height-field")


@dataclass(frozen=True)
class SceneSpec:
    """Parameters of a procedural scene."""

    kind: str = "textured-plane"
    texture_seed: int = 0
    width: int = 160
    height: int = 128
    depth_range: tuple = (2.0, 4.0)
    intrinsics: CameraIntrinsics | None = None
    # Texture spectrum: wave count and maximum frequency in cycles per
    # normalized image unit.  Higher frequencies shrink the solver's
    # single-level convergence basin.
    texture_waves: int = 8
    texture_max_freq: float = 8.0
    # Peak-to-midpoint amplitude of the texture around 0.5; at most 0.45
    # so values stay inside [0.05, 0.95].
    texture_contrast: float = 0.45
    # Height-field relief as a fraction of the mean depth.
    height_amplitude: float = 0.15

    def __post_init__(self):
        if self.kind not in SCENE_KINDS:
            raise ValueError(f"unknown scene kind {self.kind!r}")
        if self.texture_seed < 0:
            raise ValueError("texture_seed must be non-negative")
        if self.width < 16 or self.height < 16:
            raise ValueError("scene grid must be at least 16x16")
        near, far = self.depth_range
        if not (0.0 < near <= far):
            raise ValueError("depth range must be positive and ordered")
        if not 0.0 < self.texture_contrast <= 0.45:
            raise ValueError("texture_contrast must lie in (0, 0.45]")
        if self.texture_waves < 1:
            raise ValueError("texture_waves must be >= 1")
        if not self.texture_max_freq >= 1.0:  # frequencies come from [1, max]
            raise ValueError("texture_max_freq must be >= 1")
        if not 0.0 <= self.height_amplitude < 1.0:  # keeps the relief's depth > 0
            raise ValueError("height_amplitude must lie in [0, 1)")
        if self.intrinsics is None:
            object.__setattr__(self, "intrinsics", grid_intrinsics(self.width, self.height))


def grid_intrinsics(width, height):
    """The default camera of a grid: fx = fy = width, principal point at
    the center."""
    return CameraIntrinsics(float(width), float(width), (width - 1) / 2.0, (height - 1) / 2.0)


def _texture(spec: SceneSpec):
    """Closure evaluating the procedural texture at normalized coords."""
    rng = np.random.default_rng(spec.texture_seed)
    n = spec.texture_waves
    freqs = rng.uniform(1.0, spec.texture_max_freq, size=n)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=n)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=n)
    # 1/f amplitudes give a natural spectrum; normalized so values stay
    # within [0.05, 0.95].
    amps = 1.0 / freqs
    amps = amps * (spec.texture_contrast / np.sum(amps))
    fu = freqs * np.cos(angles)
    fv = freqs * np.sin(angles)

    def tex(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        acc = np.full(u.shape, 0.5)
        for k in range(n):
            acc = acc + amps[k] * np.sin(2.0 * np.pi * (fu[k] * u + fv[k] * v) + phases[k])
        return acc

    return tex


def _height_field(spec: SceneSpec):
    """Closure z(u, v): surface depth along the reference ray (u, v, 1)."""
    near, far = spec.depth_range
    z0 = 0.5 * (near + far)
    rng = np.random.default_rng(spec.texture_seed + 1)

    if spec.kind == "textured-plane":
        def depth(u, v):
            return np.full(np.broadcast(u, v).shape, z0)

        return depth

    if spec.kind == "two-plane":
        def depth(u, v):
            u = np.asarray(u, dtype=float)
            return np.where(u < 0.0, near, far)

        return depth

    # smooth-height-field: low-frequency relief around the mean depth
    amp = spec.height_amplitude * z0
    freqs = rng.uniform(0.5, 2.0, size=3)
    angles = rng.uniform(0.0, 2.0 * np.pi, size=3)
    phases = rng.uniform(0.0, 2.0 * np.pi, size=3)

    def depth(u, v):
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        acc = np.zeros(np.broadcast(u, v).shape)
        for k in range(3):
            fu = freqs[k] * np.cos(angles[k])
            fv = freqs[k] * np.sin(angles[k])
            acc = acc + np.sin(2.0 * np.pi * (fu * u + fv * v) + phases[k])
        return z0 + amp * acc / 3.0

    return depth


def _pixel_grid(spec: SceneSpec):
    """Normalized coordinates (u, v) of every pixel center, as (H, W) arrays."""
    return np.meshgrid(*spec.intrinsics.normalized_axes(spec.width, spec.height))


def make_scene(spec: SceneSpec):
    """Reference image and ground-truth inverse depth for a scene."""
    u, v = _pixel_grid(spec)
    tex = _texture(spec)
    depth = _height_field(spec)
    img = ImageBuffer(tex(u, v))
    inv_depth = InverseDepthMap.from_array(1.0 / depth(u, v))
    return img, inv_depth


def _intersect_rays(spec: SceneSpec, p: Pose6D, dirs):
    """Intersect view-frame rays ``lambda * dirs`` with the scene surface.

    ``dirs`` has shape (..., 3).  Returns ``(lam, u_ref, v_ref, valid)``
    where ``lam`` is the view-frame depth of the hit and ``(u_ref, v_ref)``
    its reference-view projection.
    """
    R = so3_exp(p.omega)
    a = dirs @ R  # R^T applied to each direction
    b = -(R.T @ p.t)
    depth = _height_field(spec)
    near, far = spec.depth_range

    if spec.kind == "two-plane":
        best_lam = None
        best_uv = None
        best_score = None
        for z_plane, side in ((near, -1.0), (far, 1.0)):
            lam = (z_plane - b[2]) / a[..., 2]
            z_ref = lam * a[..., 2] + b[2]
            u = (lam * a[..., 0] + b[0]) / z_ref
            v = (lam * a[..., 1] + b[1]) / z_ref
            on_side = (u * side) >= 0.0
            ok = (lam > EPSILON_Z) & on_side
            # Prefer the membership-consistent hit; fall back to the nearer one.
            score = np.where(ok, lam, np.where(lam > EPSILON_Z, lam + 1e6, np.inf))
            if best_lam is None:
                best_lam, best_uv, best_score = lam, (u, v), score
            else:
                take = score < best_score
                best_lam = np.where(take, lam, best_lam)
                best_uv = (np.where(take, u, best_uv[0]), np.where(take, v, best_uv[1]))
                best_score = np.minimum(score, best_score)
        valid = np.isfinite(best_score)
        lam = np.where(valid, best_lam, 1.0)
        return lam, best_uv[0], best_uv[1], valid

    # The mean depth: the plane's depth, and the height field's first iterate.
    lam = (0.5 * (near + far) - b[2]) / a[..., 2]
    if spec.kind != "textured-plane":
        # Fixed-point iteration lam <- (z(u(lam), v(lam)) - b_z) / a_z, 60
        # steps; contraction ~ relief slope / mean depth, far below 1.  A ray
        # whose step returns its lam exactly keeps it for good, so it leaves
        # the live set and the result is still every ray's 60th iterate.
        shape = lam.shape
        lam = lam.ravel()
        ax, ay, az = a.reshape(-1, 3).T
        live = np.arange(lam.size)
        for _ in range(60):
            lv, az_l = lam[live], az[live]
            z_ref = lv * az_l + b[2]
            u = (lv * ax[live] + b[0]) / z_ref
            v = (lv * ay[live] + b[1]) / z_ref
            nxt = (depth(u, v) - b[2]) / az_l
            lam[live] = nxt
            live = live[nxt != lv]
            if live.size == 0:
                break
        lam = lam.reshape(shape)
    z_ref = lam * a[..., 2] + b[2]
    valid = (lam > EPSILON_Z) & (z_ref > EPSILON_Z)
    safe = np.where(valid, z_ref, 1.0)
    u = (lam * a[..., 0] + b[0]) / safe
    v = (lam * a[..., 1] + b[1]) / safe
    return np.where(valid, lam, 1.0), u, v, valid


def _view_dirs(spec: SceneSpec):
    u, v = _pixel_grid(spec)
    return np.stack([u, v, np.ones_like(u)], axis=-1)


def render_scene_view(spec: SceneSpec, p: Pose6D):
    """Analytic rendering of the scene from pose ``p``, by one ray cast.

    Returns ``(image, inv_depth)``.  A pixel whose ray misses the surface
    carries the texture midpoint and inverse depth 0, so the view's mask
    of hits is ``inv_depth.values > 0``.
    """
    lam, u, v, valid = _intersect_rays(spec, p, _view_dirs(spec))
    img = np.where(valid, _texture(spec)(u, v), 0.5)
    inv = np.where(valid, 1.0 / lam, 0.0)
    return ImageBuffer(img), InverseDepthMap.from_array(inv)


def make_pair(spec: SceneSpec, p: Pose6D):
    """Reference image/depth plus an analytically rendered source view.

    The returned tuple is ``(ref_img, ref_inv_depth, src_img)`` where
    ``p`` maps reference-frame points into the source frame.
    """
    ref_img, ref_depth = make_scene(spec)
    src_img, _ = render_scene_view(spec, p)
    return ref_img, ref_depth, src_img


def make_triplet(spec: SceneSpec, p21: Pose6D, p23: Pose6D):
    """Three photometrically consistent views with exact depths and poses.

    Frame 2 is the reference (identity pose); ``p21`` and ``p23`` map
    frame-2 points into frames 1 and 3.  Returns a dict with images,
    ground-truth inverse depths, and the two poses.
    """
    img2, d2 = make_scene(spec)
    img1, d1 = render_scene_view(spec, p21)
    img3, d3 = render_scene_view(spec, p23)
    return {
        "images": (img1, img2, img3),
        "gt_inv_depths": (d1, d2, d3),
        "poses": (p21, p23),
        "intrinsics": spec.intrinsics,
    }
