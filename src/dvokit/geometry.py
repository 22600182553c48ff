"""SE(3) poses, rotations via the exponential map, and pinhole intrinsics.

Conventions used throughout the package:

* A camera pose is the pair ``(t, omega)`` with ``t`` a translation and
  ``omega`` exponential (axis-angle) coordinates.  The associated rigid
  transform maps reference-frame points to source-frame points:
  ``X_src = R(omega) @ X_ref + t``.  ``Pose6D`` is this form, used at the
  package boundary; the solvers and the loss pass ``(R, t)`` between them
  and a pose gradient as ``(g_t, g_R)``, ``g_R`` ambient on ``R``.
* Image points live in normalized coordinates (pixel coordinates
  pre-multiplied by the inverse intrinsics), so the warp of a reference
  point ``x`` with inverse depth ``d`` is ``<R @ [x, 1] + d * t>`` where
  ``< . >`` divides by the third component (``warp`` implements it).
* The Gauss-Newton solvers solve the update ``delta`` on the reference
  image and apply it as ``T(delta) @ T(p)``, with no inversion;
  ``dvo.update_pose`` derives this from the residual sign (reference
  minus warped source).

All arithmetic is double precision; the normal equations downstream are
too ill-conditioned for float32.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# Warped points with depth (z) at or below this are masked as behind the camera.
EPSILON_Z = 1e-6

# Below this angle the closed-form Rodrigues terms 0/0; switch to Taylor.
SMALL_ANGLE = 1e-8


def skew(v):
    """Cross-product (hat) matrix of a 3-vector."""
    x, y, z = v
    return np.array([[0.0, -z, y], [z, 0.0, -x], [-y, x, 0.0]])


def so3_exp(omega):
    """Rotation matrix from exponential coordinates (Rodrigues' formula)."""
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    K = skew(omega)
    if theta < SMALL_ANGLE:
        # Second-order Taylor expansion of exp; error O(theta^3).
        return np.eye(3) + K + 0.5 * (K @ K)
    a = np.sin(theta) / theta
    b = (1.0 - np.cos(theta)) / (theta * theta)
    return np.eye(3) + a * K + b * (K @ K)


def so3_log(R):
    """Exponential coordinates of a rotation matrix, with ``|omega| <= pi``."""
    R = np.asarray(R, dtype=float)
    cos_theta = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    w = 0.5 * np.array([R[2, 1] - R[1, 2], R[0, 2] - R[2, 0], R[1, 0] - R[0, 1]])
    # atan2 of (|sin|, cos) stays well-conditioned near theta = pi, where
    # acos of the trace alone loses half the significant digits.
    theta = float(np.arctan2(np.linalg.norm(w), cos_theta))
    if theta < SMALL_ANGLE:
        # log(R) ~ vee(R - R^T)/2 * (1 + theta^2/6)
        return w * (1.0 + theta * theta / 6.0)
    if np.pi - theta < 1e-6:
        # Near pi the antisymmetric part vanishes; recover the axis from
        # (R + R^T)/2 = I + (1 - cos) (n n^T - I) and fix the sign with w.
        M = ((R + R.T) / 2.0 - cos_theta * np.eye(3)) / (1.0 - cos_theta)
        k = int(np.argmax(np.diag(M)))
        n = M[:, k] / np.sqrt(M[k, k])
        n = n / np.linalg.norm(n)
        if np.dot(n, w) < 0.0:
            n = -n
        return theta * n
    return w * (theta / np.sin(theta))


def so3_right_jacobian(omega):
    """Right Jacobian of SO(3): d exp(omega + e) = exp(omega) exp(Jr @ e)."""
    omega = np.asarray(omega, dtype=float)
    theta = float(np.linalg.norm(omega))
    K = skew(omega)
    if theta < SMALL_ANGLE:
        return np.eye(3) - 0.5 * K + (K @ K) / 6.0
    a = (1.0 - np.cos(theta)) / (theta * theta)
    b = (theta - np.sin(theta)) / (theta ** 3)
    return np.eye(3) - a * K + b * (K @ K)


def so3_tangent(R, g_R):
    """Tangent part ``vee(M - M^T)``, ``M = R^T g_R``, of an ambient gradient
    ``g_R`` at ``R``: ``<g_R, R [e]x> = e . vee(M - M^T)``, and every other
    component of ``g_R`` pairs to zero with a variation of the rotation."""
    M = R.T @ g_R
    return np.array([M[2, 1] - M[1, 2], M[0, 2] - M[2, 0], M[1, 0] - M[0, 1]])


def so3_exp_vjp(omega, R, g_R):
    """Gradient on ``omega`` from an ambient gradient ``g_R`` on ``R = so3_exp(omega)``.

    ``R(omega + e) = R exp([Jr e]x)``, so ``<g_R, dR> = (Jr e) .
    so3_tangent(R, g_R)``.
    """
    return so3_right_jacobian(omega).T @ so3_tangent(R, g_R)


def _canonical_omega(omega):
    """Reduce exponential coordinates to ``|omega| <= pi``."""
    theta = float(np.linalg.norm(omega))
    if theta <= np.pi:
        return omega
    reduced = theta - 2.0 * np.pi * np.round(theta / (2.0 * np.pi))
    return omega * (reduced / theta)


@dataclass(frozen=True)
class Pose6D:
    """Camera motion: translation ``t`` and exponential coordinates ``omega``."""

    t: np.ndarray
    omega: np.ndarray

    def __post_init__(self):
        t = np.array(self.t, dtype=float).reshape(3)
        omega = np.array(self.omega, dtype=float).reshape(3)
        if not (np.all(np.isfinite(t)) and np.all(np.isfinite(omega))):
            raise ValueError("Pose6D requires finite entries")
        omega = _canonical_omega(omega)
        t.setflags(write=False)
        omega.setflags(write=False)
        object.__setattr__(self, "t", t)
        object.__setattr__(self, "omega", omega)

    @staticmethod
    def identity():
        return Pose6D(np.zeros(3), np.zeros(3))

    def as_vector(self):
        """6-vector ``(t_x, t_y, t_z, w_x, w_y, w_z)``."""
        return np.concatenate([self.t, self.omega])

    @staticmethod
    def from_vector(v):
        v = np.asarray(v, dtype=float).reshape(6)
        return Pose6D(v[:3], v[3:])

    def rt(self):
        """The pair ``(R, t)`` that the solvers and the loss take."""
        return so3_exp(self.omega), self.t

    def matrix(self):
        """Homogeneous 4x4 transform ``[R t; 0 1]``."""
        T = np.eye(4)
        T[:3, :3] = so3_exp(self.omega)
        T[:3, 3] = self.t
        return T

    def inverse(self):
        R = so3_exp(self.omega)
        return Pose6D(-R.T @ self.t, -self.omega)


@dataclass(frozen=True)
class CameraIntrinsics:
    """Pinhole intrinsics in pixel units."""

    fx: float
    fy: float
    cx: float
    cy: float

    def __post_init__(self):
        if not (self.fx > 0.0 and self.fy > 0.0):
            raise ValueError("focal lengths must be positive")

    def normalized_axes(self, width, height):
        """Normalized coordinates ``(u, v)`` of the pixel centers of a
        ``width`` x ``height`` grid: the 1-D axes ``u[j] = (j - cx) / fx``
        and ``v[i] = (i - cy) / fy``."""
        return (np.arange(width) - self.cx) / self.fx, (np.arange(height) - self.cy) / self.fy

    def halved(self):
        """Intrinsics for a factor-2 downsampled image.

        The principal point follows the half-pixel grid shift of 2x2 average
        pooling: a pixel center c maps to (c + 0.5) / 2 - 0.5.
        """
        return CameraIntrinsics(
            self.fx / 2.0,
            self.fy / 2.0,
            (self.cx + 0.5) / 2.0 - 0.5,
            (self.cy + 0.5) / 2.0 - 0.5,
        )

    def at_level(self, level):
        k = self
        for _ in range(level):
            k = k.halved()
        return k


def pose_from_matrix(T) -> Pose6D:
    """Pose from a homogeneous 4x4 (or 3x4) rigid transform."""
    T = np.asarray(T, dtype=float)
    return Pose6D(T[:3, 3], so3_log(T[:3, :3]))
