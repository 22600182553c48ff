"""Depth-accuracy metrics with median scale alignment, and Absolute
Trajectory Error over sliding 5-frame snippets.

Monocular depth and trajectories are both scale-ambiguous, so every
comparison here offers a scale-removing alignment: a median ratio for
depth maps and a full 7-DoF (rotation, translation, scale) least-squares
fit for trajectory snippets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDepth, LengthMismatch, NoValidPixels, ShapeMismatch
from .geometry import pose_from_matrix


@dataclass(frozen=True)
class DepthMetrics:
    """Standard per-pixel depth error statistics."""

    abs_rel: float
    sq_rel: float
    rmse: float
    rmse_log: float
    delta1: float
    delta2: float
    delta3: float

    def __post_init__(self):
        for name in ("abs_rel", "sq_rel", "rmse", "rmse_log"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} cannot be negative")
        if not self.delta1 <= self.delta2 <= self.delta3:
            raise ValueError("threshold fractions must be non-decreasing")


@dataclass(frozen=True)
class Trajectory:
    """Ordered camera poses (world-from-camera)."""

    poses: tuple

    def __post_init__(self):
        if len(self.poses) < 2:
            raise LengthMismatch(
                f"a trajectory needs at least two poses, got {len(self.poses)}"
            )

    def positions(self):
        """(N, 3) camera centers."""
        return np.stack([p.t for p in self.poses], axis=0)

    @staticmethod
    def from_matrices(mats):
        return Trajectory(tuple(pose_from_matrix(m) for m in mats))


def median_align(pred, gt, validity=None):
    """Scale ``pred`` so its median over valid pixels matches ``gt``'s."""
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if validity is None:
        validity = gt > 0.0
    if not np.any(validity):
        raise NoValidPixels("no valid ground-truth pixels")
    med_pred = float(np.median(pred[validity]))
    if med_pred <= 0.0:
        raise DegenerateDepth("median of predicted depth is not positive")
    scale = float(np.median(gt[validity])) / med_pred
    return pred * scale


def depth_metrics(pred, gt, align=True, max_depth_cap=None) -> DepthMetrics:
    """Error statistics of a predicted depth map against ground truth.

    A pixel is scored where the ground truth is positive (and below
    ``max_depth_cap``, if given).  Every scored predicted depth must be
    positive and finite: a non-positive one has no log error and would pass
    every ratio threshold, so it raises DegenerateDepth rather than being
    scored or dropped.  ``align=True`` removes the global scale by the
    median ratio first.
    """
    pred = np.asarray(pred, dtype=float)
    gt = np.asarray(gt, dtype=float)
    if pred.shape != gt.shape:
        raise ShapeMismatch(f"prediction grid {pred.shape} and ground truth {gt.shape} differ")
    validity = gt > 0.0
    if max_depth_cap is not None:
        validity = validity & (gt < max_depth_cap)
    if not np.any(validity):
        raise NoValidPixels("no valid pixels to score")
    scored = pred[validity]
    if not np.all(np.isfinite(scored) & (scored > 0.0)):
        raise DegenerateDepth("a scored predicted depth is not positive and finite")
    if align:
        pred = median_align(pred, gt, validity)
    p = pred[validity]
    g = gt[validity]
    diff = p - g
    ratio = np.maximum(p / g, g / p)
    return DepthMetrics(
        abs_rel=float(np.mean(np.abs(diff) / g)),
        sq_rel=float(np.mean(diff * diff / g)),
        rmse=float(np.sqrt(np.mean(diff * diff))),
        rmse_log=float(np.sqrt(np.mean((np.log(p) - np.log(g)) ** 2))),
        delta1=float(np.mean(ratio < 1.25)),
        delta2=float(np.mean(ratio < 1.25 ** 2)),
        delta3=float(np.mean(ratio < 1.25 ** 3)),
    )


def similarity_align(points_a, points_b):
    """Least-squares similarity (scale, rotation, translation) mapping
    ``points_a`` onto ``points_b``; the Umeyama closed form.

    Returns ``(s, R, t)`` minimizing ``sum |s R a_i + t - b_i|^2``.
    """
    a = np.asarray(points_a, dtype=float)
    b = np.asarray(points_b, dtype=float)
    mu_a = a.mean(axis=0)
    mu_b = b.mean(axis=0)
    ac = a - mu_a
    bc = b - mu_b
    cov = bc.T @ ac / a.shape[0]
    U, D, Vt = np.linalg.svd(cov)
    S = np.eye(3)
    if np.linalg.det(U) * np.linalg.det(Vt) < 0.0:
        S[2, 2] = -1.0
    R = U @ S @ Vt
    var_a = float(np.mean(np.sum(ac * ac, axis=1)))
    if var_a <= 0.0:
        s = 1.0
    else:
        s = float(np.trace(np.diag(D) @ S)) / var_a
    t = mu_b - s * R @ mu_a
    return s, R, t


def ate(pred: Trajectory, gt: Trajectory, snippet_len: int = 5):
    """Absolute Trajectory Error over sliding snippets.

    Each window of ``snippet_len`` consecutive frames is aligned to the
    ground truth by a similarity transform, then the RMSE of the
    translational residuals is taken; returns ``(mean, std)`` across all
    windows (stride 1).
    """
    if len(pred.poses) != len(gt.poses):
        raise LengthMismatch(
            f"trajectory lengths differ: {len(pred.poses)} vs {len(gt.poses)}"
        )
    n = len(pred.poses)
    if n < snippet_len:
        raise LengthMismatch(f"need at least {snippet_len} frames, got {n}")
    pos_pred = pred.positions()
    pos_gt = gt.positions()
    errors = []
    for start in range(n - snippet_len + 1):
        a = pos_pred[start:start + snippet_len]
        b = pos_gt[start:start + snippet_len]
        s, R, t = similarity_align(a, b)
        resid = (s * (a @ R.T) + t) - b
        errors.append(float(np.sqrt(np.mean(np.sum(resid * resid, axis=1)))))
    errors = np.array(errors)
    return float(errors.mean()), float(errors.std())
