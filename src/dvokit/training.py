"""Desk-scale training loops over a three-frame clip.

The depth "network" is a per-pixel logit raster pushed through the
sigmoid decode ``d = 10 * sigmoid(l) + 0.01``.  The five modes of
``TRAIN_MODES`` take their poses as follows:

* ``fixed-pose-gt``: ground-truth poses, isolating the depth objective;
* ``pose-param``, ``ddvo`` and ``ddvo-hybrid``: one schedule over two
  6-vector pose parameters (a stand-in for a learned pose predictor).
  During a warmup the loss takes the parameters as the poses, and Adam
  trains them jointly with the depth.  After it, the differentiable
  solver runs from the (frozen) parameters each step, and gradients
  flow into the depth both directly through the loss and through the
  solver's pose output.  The warmup is every step for ``pose-param``,
  none for ``ddvo`` (the parameters stay zero, so the solver starts
  from the identity) and ``pose_warmup_steps`` for ``ddvo-hybrid``;
* ``dvo-em``: the non-differentiable solver re-run every step, its pose
  treated as a constant for the depth update (EM-style alternation).

Every run is seeded and bit-reproducible; traces capture the loss
split, the mean inverse depth entering the loss (the scale-drift
curve), and the ground-truth depth error when ground truth is given.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass, field, replace

import numpy as np

from .ddvo import DdvoSettings, ddvo_backward, ddvo_forward
from .dvo import DvoSettings, solve_coarse_to_fine
from .errors import DivergenceDetected, DvokitError, InvalidRaster, ShapeMismatch
from .fileio import _atomic_write
from .geometry import CameraIntrinsics, Pose6D, so3_exp_vjp
from .losses import (
    LossWeights,
    Triplet,
    normalize_inverse_depth,
    normalize_inverse_depth_vjp,
    triplet_loss,
)
from .metrics import depth_metrics

TRAIN_MODES = ("fixed-pose-gt", "pose-param", "ddvo", "ddvo-hybrid", "dvo-em")

# Decode range of the sigmoid depth parameterization.
DEPTH_SCALE = 10.0
DEPTH_OFFSET = 0.01

# Adam's moment decay rates and denominator guard (Kingma and Ba 2015).
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8


@dataclass(frozen=True)
class DepthParam:
    """Per-pixel unconstrained parameters for an inverse-depth raster."""

    logits: np.ndarray

    def decode(self):
        """Inverse depth in (0.01, 10.01)."""
        return DEPTH_SCALE / (1.0 + np.exp(-self.logits)) + DEPTH_OFFSET

    def decode_grad(self):
        """Elementwise d(decode)/d(logit)."""
        s = 1.0 / (1.0 + np.exp(-self.logits))
        return DEPTH_SCALE * s * (1.0 - s)

    @staticmethod
    def from_inverse_depth(values):
        """Logits whose decode reproduces ``values`` (clipped to range);
        InvalidRaster for a NaN, which no clip can place."""
        values = np.asarray(values, dtype=float)
        if np.isnan(values).any():
            raise InvalidRaster("initial inverse depth contains NaN")
        v = np.clip((values - DEPTH_OFFSET) / DEPTH_SCALE, 1e-9, 1.0 - 1e-9)
        return DepthParam(np.log(v / (1.0 - v)))

    @staticmethod
    def initial(shape, rng):
        """Constant logit decoding to d = 1, plus small seeded noise."""
        base = np.log(0.099 / 0.901)
        return DepthParam(base + rng.uniform(-0.01, 0.01, size=shape))


@dataclass(frozen=True)
class AdamState:
    """First/second moment accumulators for one parameter array."""

    step: int
    m: np.ndarray
    v: np.ndarray
    lr: float = 1e-4

    @staticmethod
    def fresh(shape, lr=1e-4):
        return AdamState(0, np.zeros(shape), np.zeros(shape), lr=lr)


def adam_step(state: AdamState, params, grads):
    """One bias-corrected Adam update; returns ``(params, state)``."""
    params = np.asarray(params, dtype=float)
    grads = np.asarray(grads, dtype=float)
    if params.shape != grads.shape or params.shape != state.m.shape:
        raise ShapeMismatch(
            f"parameter shape {params.shape}, gradient shape {grads.shape}, "
            f"state shape {state.m.shape}"
        )
    step = state.step + 1
    m = ADAM_BETA1 * state.m + (1.0 - ADAM_BETA1) * grads
    v = ADAM_BETA2 * state.v + (1.0 - ADAM_BETA2) * grads * grads
    m_hat = m / (1.0 - ADAM_BETA1 ** step)
    v_hat = v / (1.0 - ADAM_BETA2 ** step)
    new_params = params - state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return new_params, replace(state, step=step, m=m, v=v)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run."""

    mode: str = "fixed-pose-gt"
    normalize_depth: bool = True
    steps: int = 100
    lr: float = 1e-4
    weights: LossWeights = field(default_factory=LossWeights)
    ddvo: DdvoSettings = field(default_factory=lambda: DdvoSettings(unroll_iters=3, levels=4))
    dvo: DvoSettings = field(default_factory=DvoSettings)
    pose_warmup_steps: int = 200
    seed: int = 0

    def __post_init__(self):
        if self.mode not in TRAIN_MODES:
            raise ValueError(f"unknown training mode {self.mode!r}")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if not self.lr > 0.0:
            raise ValueError("lr must be positive")
        if self.pose_warmup_steps < 0:
            raise ValueError("pose_warmup_steps must be non-negative")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class TrainStepRecord:
    step: int
    total: float
    appearance: float
    prior: float
    mean_inv_depth: float
    gt_error: float  # NaN when no ground truth was supplied


@dataclass(frozen=True)
class TrainTrace:
    """Per-step records plus the final model state."""

    records: tuple
    final_inv_depths: tuple
    final_poses: tuple  # (p21, p23) used at the last step
    diverged: bool = False

    def to_csv(self, path):
        """Write the records as CSV; a failed write leaves no file behind."""
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(["step", "total", "appearance", "prior", "mean_inv_depth", "gt_error"])
        for r in self.records:
            values = (r.total, r.appearance, r.prior, r.mean_inv_depth, r.gt_error)
            writer.writerow([r.step] + [f"{v:.17g}" for v in values])
        _atomic_write(path, buf.getvalue().encode())


def _gt_abs_rel(pred_inv_depth, gt_inv_depth):
    """Median-aligned abs-rel error between depths (not inverse depths)."""
    pred = 1.0 / np.maximum(pred_inv_depth, 1e-9)
    gt = 1.0 / np.maximum(gt_inv_depth, 1e-9)
    return depth_metrics(pred, gt, align=True).abs_rel


def train_triplet(images, k: CameraIntrinsics, cfg: TrainConfig,
                  gt_poses=None, gt_inv_depth=None,
                  init_inv_depths=None) -> TrainTrace:
    """Optimize per-pixel inverse depth over a triplet.

    ``images`` are the three frames (``ImageBuffer``), taken once as gray
    arrays before the first step; ``gt_poses = (p21, p23)`` is required
    for ``fixed-pose-gt``.  ``gt_inv_depth`` (an ``InverseDepthMap``)
    scores ``gt_error`` of the middle frame.  ``init_inv_depths``
    overrides the default depth initialization (three arrays).

    Every ``DvokitError`` raised during the steps (``DivergenceDetected``
    when the loss turns non-finite, ``DegenerateOverlap``,
    ``SingularSystem``, ``DegenerateDepth``) carries the partial trace as
    ``.trace``: the records of the completed steps, with the depths and
    poses of the step that raised.  Its ``diverged`` flag is set for
    ``DivergenceDetected`` only.
    """
    if cfg.mode == "fixed-pose-gt" and gt_poses is None:
        raise ValueError("fixed-pose-gt mode requires ground-truth poses")
    rng = np.random.default_rng(cfg.seed)
    grays = tuple(img.gray() for img in images)
    shape = grays[0].shape
    if init_inv_depths is not None:
        logits = np.stack(
            [DepthParam.from_inverse_depth(d).logits for d in init_inv_depths]
        )
    else:
        logits = np.stack([DepthParam.initial(shape, rng).logits for _ in range(3)])
    depth_state = AdamState.fresh(logits.shape, lr=cfg.lr)
    pose_vec = np.zeros(12)  # (p21, p23) as stacked 6-vectors
    pose_state = AdamState.fresh(pose_vec.shape, lr=cfg.lr)
    # Steps that train the pose parameters (see the module docstring).
    pose_warmup = {"pose-param": cfg.steps, "ddvo": 0,
                   "ddvo-hybrid": cfg.pose_warmup_steps}.get(cfg.mode, 0)

    records = []
    last_poses = (Pose6D.identity(), Pose6D.identity())
    loss_depths = None
    try:
        for step in range(cfg.steps):
            param = DepthParam(logits)
            raw = param.decode()
            loss_depths = tuple(
                normalize_inverse_depth(d) if cfg.normalize_depth else d for d in raw
            )

            pose_params = (
                Pose6D.from_vector(pose_vec[:6]),
                Pose6D.from_vector(pose_vec[6:]),
            )
            train_pose_params = step < pose_warmup
            tapes = None
            if cfg.mode == "fixed-pose-gt":
                p21, p23 = gt_poses
            elif cfg.mode == "dvo-em":
                p21, p23 = (
                    solve_coarse_to_fine(grays[1], loss_depths[1], grays[s], k,
                                         Pose6D.identity(), cfg.dvo).pose
                    for s in (0, 2)
                )
            elif train_pose_params:
                p21, p23 = pose_params
            else:
                (p21, p23), tapes = zip(*(
                    ddvo_forward(grays[1], loss_depths[1], grays[s], k, cfg.ddvo, init)
                    for s, init in zip((0, 2), pose_params)
                ))
            last_poses = (p21, p23)
            if tapes is None:
                loss_poses = (p21.rt(), p23.rt())
            else:
                loss_poses = tuple((tape.R_final, tape.t_final) for tape in tapes)

            bd = triplet_loss(Triplet(grays, loss_depths, *loss_poses), k, cfg.weights)
            mean_inv = float(np.mean([d.mean() for d in loss_depths]))
            gt_error = float("nan")
            if gt_inv_depth is not None:
                gt_error = _gt_abs_rel(raw[1], gt_inv_depth.values)
            records.append(
                TrainStepRecord(step, bd.total, float(sum(bd.appearance_per_scale)),
                                float(sum(bd.prior_per_scale)), mean_inv, gt_error)
            )
            if not np.isfinite(bd.total):
                raise DivergenceDetected(f"loss became non-finite at step {step}")

            grad_loss_depths = list(bd.grad_depths)
            if tapes is not None:
                for tape, seed in zip(tapes, (bd.grad_p21, bd.grad_p23)):
                    grad_loss_depths[1] = grad_loss_depths[1] + ddvo_backward(tape, seed)
            grad_raw = np.stack([
                normalize_inverse_depth_vjp(d, g) if cfg.normalize_depth else g
                for d, g in zip(raw, grad_loss_depths)
            ])
            grad_logits = grad_raw * param.decode_grad()
            logits, depth_state = adam_step(depth_state, logits, grad_logits)
            if train_pose_params:
                pose_grad = np.concatenate([
                    np.concatenate([g_t, so3_exp_vjp(p.omega, R, g_R)])
                    for p, (R, _), (g_t, g_R) in zip(last_poses, loss_poses,
                                                     (bd.grad_p21, bd.grad_p23))
                ])
                pose_vec, pose_state = adam_step(pose_state, pose_vec, pose_grad)
    except DvokitError as err:
        err.trace = TrainTrace(tuple(records), loss_depths, last_poses,
                               diverged=isinstance(err, DivergenceDetected))
        raise

    return TrainTrace(tuple(records), loss_depths, last_poses)

