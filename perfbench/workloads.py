"""The benchmark's workloads, driven through dvokit's public API.

Importing this module imports numpy and dvokit, so the benchmark times
the import as part of set-up.  An op is one training step, or one
160x128 pair solve for ``odometry-160``; an episode is one
``train_triplet`` call, or one pass over the rendered pairs.  Every
episode of a run repeats the same inputs, so its outputs must repeat
bit for bit.
"""

from __future__ import annotations

import hashlib
import math
import time
from dataclasses import dataclass, field

import numpy as np

from dvokit import bundled, ddvo, dvo, geometry, losses, training
from dvokit.ddvo import DdvoSettings
from dvokit.dvo import DvoSettings
from dvokit.errors import DvokitError
from dvokit.geometry import Pose6D, so3_exp
from dvokit.losses import LossWeights
from dvokit.training import TrainConfig

clock = time.perf_counter

# Acceptance thresholds of the 100-pair pose-recovery test.
MAX_ROT_ERR_DEG_P50 = 0.05
MAX_TRANS_ERR_REL_P50 = 0.02

# Calls the traced run wraps: (module the caller looks the name up in,
# attribute, span name).  The benchmark calls train_triplet and
# solve_coarse_to_fine through their own modules, so they are rebound
# there.  Imaging functions are named by the module that calls them; the
# others by the layer that defines them, summed over their call sites.
TRACE_POINTS = (
    (training, "ddvo_forward", "ddvo.ddvo_forward"),
    (training, "ddvo_backward", "ddvo.ddvo_backward"),
    (training, "solve_coarse_to_fine", "dvo.solve_coarse_to_fine"),
    (dvo, "solve_coarse_to_fine", "dvo.solve_coarse_to_fine"),
    (dvo, "solve_level_arrays", "dvo.solve_level_arrays"),
    (dvo, "build_jacobian", "dvo.build_jacobian"),
    (ddvo, "build_jacobian", "dvo.build_jacobian"),
    (dvo, "warp_and_sample", "dvo.warp_and_sample"),
    (training, "triplet_loss", "losses.triplet_loss"),
    (losses, "appearance_loss", "losses.appearance_loss"),
    (losses, "smoothness_prior", "losses.smoothness_prior"),
    (training, "normalize_inverse_depth", "losses.normalize_inverse_depth"),
    (dvo, "bilinear_many", "imaging.dvo.bilinear_many"),
    (dvo, "gradient_arr", "imaging.dvo.gradient_arr"),
    (dvo, "pyramid_arr", "imaging.dvo.pyramid_arr"),
    (ddvo, "bilinear_many", "imaging.ddvo.bilinear_many"),
    (ddvo, "bilinear_grad_many", "imaging.ddvo.bilinear_grad_many"),
    (ddvo, "gradient_arr", "imaging.ddvo.gradient_arr"),
    (ddvo, "pyramid_arr", "imaging.ddvo.pyramid_arr"),
    (losses, "bilinear_many", "imaging.losses.bilinear_many"),
    (losses, "bilinear_grad_many", "imaging.losses.bilinear_grad_many"),
    (losses, "pyramid_arr", "imaging.losses.pyramid_arr"),
    (geometry, "so3_exp", "geometry.so3_exp"),
    (dvo, "so3_exp", "geometry.so3_exp"),
    (ddvo, "so3_exp", "geometry.so3_exp"),
    (losses, "so3_exp", "geometry.so3_exp"),
    (training, "adam_step", "training.adam_step"),
    (training, "depth_metrics", "metrics.depth_metrics"),
    (bundled, "make_pair", "synth.make_pair"),
    (bundled, "make_triplet", "synth.make_triplet"),
    (training, "train_triplet", "training.train_triplet"),
)

# Functions that run during set-up, not during ops.
SETUP_SPANS = ("synth.make_pair", "synth.make_triplet")

SPAN_NAMES = tuple(dict.fromkeys(p[2] for p in TRACE_POINTS))


@dataclass
class Episode:
    """What one episode measured and produced."""

    seconds: float
    latencies: list  # seconds per op that completed with finite outputs
    attempted: int
    failed: int
    quality: dict  # deterministic outputs, compared bit for bit across episodes
    fingerprint: str  # hash of every output of the episode
    problems: list = field(default_factory=list)


def rotation_error_deg(omega_a, omega_b):
    R = so3_exp(omega_a) @ so3_exp(omega_b).T
    c = np.clip((np.trace(R) - 1.0) / 2.0, -1.0, 1.0)
    return float(np.degrees(np.arccos(c)))


def _step_marked(base, on_step):
    """`base` whose `decode` calls `on_step` first.

    ``train_triplet`` calls ``DepthParam(logits).decode()`` exactly once,
    at the top of every step, so this marks where each op starts.
    """

    class StepMarked(base):
        def decode(self):
            on_step()
            return base.decode(self)

    return StepMarked


class TrainingWorkload:
    """Repeated ``train_triplet`` runs on the bundled 80x64 clip."""

    unit = "training step"

    def __init__(self, name, steps, **config):
        self.name = name
        self.steps = steps
        self.config = config
        self.dvo_settings = config.get("dvo", DvoSettings(levels=4))

    def setup(self, seed):
        data = bundled.training_triplet()
        cfg = TrainConfig(
            normalize_depth=True,
            steps=self.steps,
            weights=LossWeights(lambda_prior=0.01),
            seed=seed,
            **self.config,
        )
        return data, cfg

    def episode(self, inputs, on_op=None):
        data, cfg = inputs
        stamps = []

        def on_step():
            stamps.append(clock())
            if on_op is not None:
                on_op(len(stamps) - 1)

        base = training.DepthParam
        training.DepthParam = _step_marked(base, on_step)
        error = None
        start = clock()
        try:
            trace = training.train_triplet(
                data["images"], data["intrinsics"], cfg,
                gt_inv_depth=data["gt_inv_depths"][1],
            )
        except DvokitError as exc:
            error = exc
            trace = getattr(exc, "trace", None)
        finally:
            end = clock()
            training.DepthParam = base

        records = trace.records if trace is not None else ()
        # Op k runs from its mark to the next one; the last ends at return.
        bounds = [start] + stamps[1:] + [end]
        # The step that raised, and every step after it, failed.
        completed = len(stamps) - 1 if error is not None else len(stamps)
        latencies = [
            bounds[step + 1] - bounds[step]
            for step, r in enumerate(records[:completed])
            if math.isfinite(r.total) and math.isfinite(r.gt_error)
        ]
        problems = []
        if error is not None:
            problems.append(f"{type(error).__name__}: {error}")
        failed = self.steps - len(latencies)
        if failed:
            problems.append(f"{failed} of {self.steps} steps failed")
        quality = {}
        digest = hashlib.sha256()
        if records:
            first, last = records[0], records[-1]
            quality = {"final_loss": last.total, "gt_abs_rel": last.gt_error,
                       "first_loss": first.total}
            if not last.total < first.total:
                problems.append(
                    f"last-step loss {last.total!r} is not below the first {first.total!r}"
                )
            for r in records:
                digest.update(repr((r.total, r.appearance, r.prior,
                                    r.mean_inv_depth, r.gt_error)).encode())
        if trace is not None and not trace.diverged:
            for d in trace.final_inv_depths:
                if not np.all(np.isfinite(d)):
                    problems.append("final inverse depth is not finite")
                digest.update(np.ascontiguousarray(d).tobytes())
            for p in trace.final_poses:
                digest.update(p.as_vector().tobytes())
        return Episode(end - start, latencies, self.steps, failed, quality,
                       digest.hexdigest(), problems)


class OdometryWorkload:
    """Independent 160x128 small-motion pairs, each solved from identity."""

    unit = "pair solve"

    def __init__(self, name, pairs):
        self.name = name
        self.steps = pairs
        self.dvo_settings = DvoSettings()

    def setup(self, seed):
        rng = np.random.default_rng(seed)
        seeds = rng.integers(0, 2**31, size=self.steps)
        return [bundled.small_motion_pair(int(s)) for s in seeds]

    def episode(self, pairs, on_op=None):
        settings = self.dvo_settings
        identity = Pose6D.identity()
        stamps = []
        results = []
        for i, (ref, depth, src, _pose, k) in enumerate(pairs):
            stamps.append(clock())
            if on_op is not None:
                on_op(i)
            try:
                results.append(dvo.solve_coarse_to_fine(ref, depth, src, k, identity,
                                                        settings))
            except DvokitError as exc:
                results.append(exc)
        end = clock()
        stamps.append(end)
        start = stamps[0]

        latencies = []
        rot, trans = [], []
        problems = []
        digest = hashlib.sha256()
        for i, ((_ref, _depth, _src, pose, _k), result) in enumerate(zip(pairs, results)):
            if isinstance(result, DvokitError):
                problems.append(f"pair {i}: {type(result).__name__}: {result}")
                continue
            est = result.pose.as_vector()
            if not np.all(np.isfinite(est)):
                problems.append(f"pair {i}: non-finite pose")
                continue
            digest.update(est.tobytes())
            latencies.append(stamps[i + 1] - stamps[i])
            rot.append(rotation_error_deg(result.pose.omega, pose.omega))
            trans.append(float(np.linalg.norm(result.pose.t - pose.t)
                               / np.linalg.norm(pose.t)))
        failed = len(pairs) - len(latencies)
        quality = {}
        if rot:
            quality = {"rot_err_deg_p50": float(np.median(rot)),
                       "trans_err_rel_p50": float(np.median(trans))}
            if not quality["rot_err_deg_p50"] < MAX_ROT_ERR_DEG_P50:
                problems.append(f"rot_err_deg_p50 {quality['rot_err_deg_p50']!r} "
                                f">= {MAX_ROT_ERR_DEG_P50}")
            if not quality["trans_err_rel_p50"] < MAX_TRANS_ERR_REL_P50:
                problems.append(f"trans_err_rel_p50 {quality['trans_err_rel_p50']!r} "
                                f">= {MAX_TRANS_ERR_REL_P50}")
        return Episode(end - start, latencies, len(pairs), failed, quality,
                       digest.hexdigest(), problems)


def make(name, steps=None):
    """The workload called `name`; `steps` overrides the ops per episode."""
    if name == "train-ddvo":
        return TrainingWorkload(name, steps or 40, mode="ddvo", lr=0.01,
                                ddvo=DdvoSettings(unroll_iters=6, levels=4))
    if name == "train-dvo-em":
        return TrainingWorkload(name, steps or 40, mode="dvo-em", lr=0.06,
                                dvo=DvoSettings(levels=4))
    if name == "train-pose-param":
        return TrainingWorkload(name, steps or 100, mode="pose-param", lr=0.01)
    if name == "odometry-160":
        return OdometryWorkload(name, steps or 32)
    raise KeyError(name)


WORKLOADS = ("train-ddvo", "train-dvo-em", "train-pose-param", "odometry-160")

# Layers that must make no call on a workload (the benchmark checks this).
ZERO_CALLS = {
    "train-ddvo": ("dvo.solve_coarse_to_fine", "dvo.solve_level_arrays",
                   "dvo.warp_and_sample"),
    "train-dvo-em": ("ddvo.", "imaging.ddvo."),
    "train-pose-param": ("ddvo.", "imaging.ddvo.", "dvo.", "imaging.dvo."),
    "odometry-160": ("ddvo.", "imaging.ddvo.", "losses.", "imaging.losses.",
                     "training.", "metrics."),
}


def install_tracing(tracer, workload, counts):
    """Rebind every trace point; result counts accumulate into `counts`."""
    cap = workload.dvo_settings.max_iters_per_level

    def on_solve(result):
        iters = result.iterations_used
        counts["gn_iterations"] += sum(iters)
        counts["levels"] += len(iters)
        counts["capped_levels"] += sum(1 for n in iters if n >= cap)

    def on_unrolled(result):
        counts["unrolled_iters"] += len(result[1])

    observers = {"dvo.solve_coarse_to_fine": on_solve, "ddvo.ddvo_forward": on_unrolled}
    for module, attribute, name in TRACE_POINTS:
        tracer.rebind(module, attribute, name, observers.get(name))

