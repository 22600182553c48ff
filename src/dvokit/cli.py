"""Command-line entry points.

Subcommands wire the library to files: ``odometry`` aligns one frame
pair, ``gradcheck`` runs the finite-difference report, ``train-demo``
runs the triplet trainers and emits a CSV trace, ``eval`` / ``eval-ate``
score depth maps and trajectories, and ``synth`` generates fixture
scenes.  Numeric settings come from a ``section.key = value`` config
file; flags carry only modes and paths.  ``gradcheck`` reads no config:
it prints five fixed rows (full chain, frozen Jacobian, loss depth, loss
pose, normalization), each the worst of ``GRADCHECK_INSTANCES``
central-difference probes, ``_directional_error``, under ``SOLVER_TOL``
or ``LOSS_TOL``.

Exit codes: 0 success, 1 I/O, configuration, grid-mismatch or
invalid-raster errors, 2 usage errors (from argparse), 3 failed gradient
checks, 4 degenerate or diverged numeric runs and unusable trajectory
lengths.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import replace
from functools import partial

import numpy as np

from . import bundled, fileio, synth
from .config import load_config
from .ddvo import DdvoSettings, ddvo_backward, ddvo_forward, replay_frozen_jacobian
from .dvo import solve_coarse_to_fine
from .errors import ConfigError, DvokitError, FileFormatError, InvalidRaster, ShapeMismatch
from .geometry import Pose6D, so3_exp_vjp
from .losses import (
    LossWeights,
    Triplet,
    normalize_inverse_depth,
    normalize_inverse_depth_vjp,
    triplet_loss,
)
from .metrics import Trajectory, ate, depth_metrics
from .training import TRAIN_MODES, train_triplet

EXIT_OK = 0
EXIT_IO = 1
EXIT_GRADCHECK = 3
EXIT_DEGENERATE = 4

# The gradient check's fixed probes and gates; --seed is its one input.
GRADCHECK_INSTANCES = 10
GRADCHECK_SIZE = 16
GRADCHECK_UNROLL = 2
SOLVER_TOL = 1e-3
LOSS_TOL = 1e-4


def cmd_odometry(args) -> int:
    cfg = load_config(args.config)
    ref = fileio.read_image(args.ref)
    depth = fileio.read_inverse_depth(args.ref_depth)
    src = fileio.read_image(args.src)
    k = cfg.camera.resolve(ref.width, ref.height)
    result = solve_coarse_to_fine(ref.gray(), depth.values, src.gray(), k,
                                  Pose6D.identity(), cfg.train.dvo)
    print(fileio.format_pose_row(result.pose.matrix()))
    print(
        f"residual {result.final_residual:.17g} "
        f"iterations {'/'.join(str(i) for i in result.iterations_used)} "
        f"stops {'/'.join(result.stop_reasons)} "
        f"valid_fraction {result.valid_fraction:.6f}"
    )
    if args.trajectory is not None:
        fileio.write_trajectory(args.trajectory, [np.eye(4), result.pose.matrix()])
    return EXIT_OK


def _scene(rng, width, height):
    """A small textured height field whose texture seed is drawn from ``rng``."""
    return synth.SceneSpec(
        texture_seed=int(rng.integers(0, 2**31)),
        width=width,
        height=height,
        texture_waves=6,
        texture_max_freq=3.0,
        texture_contrast=0.3,
        height_amplitude=0.15,
    )


def _directional_error(rng, f, x, grad, h, toward_grad=False):
    """Relative error of ``grad`` along a random unit direction at ``x``
    against the central difference of ``f`` with step ``h``.  With
    ``toward_grad`` the direction is ``normalize(grad / |grad| + u)`` for
    the unit draw ``u``: on a dense raster ``u`` alone is nearly orthogonal
    to ``grad``, and the derivative along it drowns in the rounding noise
    of ``f``."""
    direction = rng.normal(size=np.shape(x))
    direction /= np.linalg.norm(direction)
    if toward_grad:
        direction += grad / np.linalg.norm(grad)
        direction /= np.linalg.norm(direction)
    analytic = float(np.sum(grad * direction))
    numeric = (f(x + h * direction) - f(x - h * direction)) / (2.0 * h)
    return abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-12)


def _solver_error(rng, full_chain):
    """``g_t . t + <g_R, R>`` of the unrolled solver's pose ``(R, t)`` as a
    function of depth: the full chain re-solves, the frozen-Jacobian row
    replays the tape (the map ``grad_through_jacobian=False`` differentiates)."""
    spec = _scene(rng, GRADCHECK_SIZE, GRADCHECK_SIZE)
    pose = bundled.random_small_motion(rng, translation_frac=0.01, rotation_deg=0.5)
    ref, depth, src, _, k = bundled.solver_inputs(spec, pose)
    settings = DdvoSettings(unroll_iters=GRADCHECK_UNROLL, levels=2,
                            grad_through_jacobian=full_chain)
    g_t, g_R = rng.normal(size=3), rng.normal(size=(3, 3))
    _, tape = ddvo_forward(ref, depth, src, k, settings)

    def f(values):
        if full_chain:
            out, _ = ddvo_forward(ref, values, src, k, settings)
        else:
            out = replay_frozen_jacobian(tape, values)
        R, t = out.rt()
        return float(g_t @ t + np.sum(g_R * R))

    return _directional_error(rng, f, depth, ddvo_backward(tape, (g_t, g_R)), 1e-6)


def _loss_triplet(rng):
    # Large enough that the coarsest loss scale keeps a valid interior for
    # any small random motion.
    spec = _scene(rng, 48, 32)
    p21 = bundled.random_small_motion(rng, 0.01, 0.3)
    p23 = bundled.random_small_motion(rng, 0.01, 0.3)
    data = synth.make_triplet(spec, p21, p23)
    # Evaluate away from the photometric optimum: at the exact depths the
    # L1 residuals sit on their kink and finite differences are unreliable.
    images = tuple(img.gray() for img in data["images"])
    depths = tuple(1.1 * d.values for d in data["gt_inv_depths"])
    return images, depths, p21, p23, data["intrinsics"]


def _loss_depth_error(rng):
    images, depths, p21, p23, k = _loss_triplet(rng)

    def loss(values):
        moved = (depths[0], values, depths[2])
        return triplet_loss(Triplet(images, moved, p21.rt(), p23.rt()), k, LossWeights())

    grad = loss(depths[1]).grad_depths[1]
    return _directional_error(rng, lambda v: loss(v).total, depths[1], grad, 1e-6,
                              toward_grad=True)


def _loss_pose_error(rng):
    images, depths, p21, p23, k = _loss_triplet(rng)

    def loss(vec):
        moved = Pose6D.from_vector(vec).rt()
        return triplet_loss(Triplet(images, depths, moved, p23.rt()), k, LossWeights())

    g_t, g_R = loss(p21.as_vector()).grad_p21
    grad = np.concatenate([g_t, so3_exp_vjp(p21.omega, p21.rt()[0], g_R)])
    return _directional_error(rng, lambda v: loss(v).total, p21.as_vector(), grad, 1e-7)


def _normalization_error(rng):
    d = rng.uniform(0.5, 2.0, size=(GRADCHECK_SIZE, GRADCHECK_SIZE))
    w = rng.normal(size=d.shape)
    return _directional_error(rng, lambda v: float(np.sum(w * normalize_inverse_depth(v))),
                              d, normalize_inverse_depth_vjp(d, w), 1e-7)


def cmd_gradcheck(args) -> int:
    rows = (
        ("solver depth (full chain)", partial(_solver_error, full_chain=True), SOLVER_TOL),
        ("solver depth (frozen Jacobian)", partial(_solver_error, full_chain=False),
         SOLVER_TOL),
        ("loss depth gradient", _loss_depth_error, LOSS_TOL),
        ("loss pose gradient", _loss_pose_error, LOSS_TOL),
        ("depth normalization chain", _normalization_error, LOSS_TOL),
    )
    width = max(len(name) for name, _, _ in rows)
    print(f"{'component'.ljust(width)}  max_rel_error  status")
    ok = True
    for name, check, tol in rows:
        # Each row draws its instances from a fresh generator on the seed.
        rng = np.random.default_rng(args.seed)
        worst = max(check(rng) for _ in range(GRADCHECK_INSTANCES))
        ok &= worst < tol
        print(f"{name.ljust(width)}  {worst:>13.3e}  {'pass' if worst < tol else 'FAIL'}")
    return EXIT_OK if ok else EXIT_GRADCHECK


def cmd_train_demo(args) -> int:
    cfg = load_config(args.config)
    data = bundled.training_triplet(cfg.scene if args.scene_from_config else None)
    train_cfg = replace(cfg.train, mode=args.mode, normalize_depth=(args.normalize == "on"))
    exit_code = EXIT_OK
    try:
        trace = train_triplet(
            data["images"],
            data["intrinsics"],
            train_cfg,
            gt_poses=data["poses"],
            gt_inv_depth=data["gt_inv_depths"][1],
        )
    except DvokitError as exc:
        # A failed run still hands back its partial trace; write it out.
        trace = getattr(exc, "trace", None)
        if trace is None:
            raise
        print(f"error: {exc}", file=sys.stderr)
        exit_code = EXIT_DEGENERATE
    trace.to_csv(args.out)
    depth_out = args.depth_out
    if depth_out is None:
        root, _ = os.path.splitext(str(args.out))
        depth_out = root + "_depth.pfm"
    fileio.write_pfm(depth_out, trace.final_inv_depths[1])
    if trace.records:
        final = trace.records[-1]
        print(
            f"steps {len(trace.records)} total {final.total:.17g} "
            f"mean_inv_depth {final.mean_inv_depth:.17g} gt_error {final.gt_error:.17g}"
        )
    return exit_code


def cmd_eval(args) -> int:
    pred = fileio.read_depth_pfm(args.pred)
    gt = fileio.read_depth_pfm(args.gt)
    m = depth_metrics(pred, gt, align=args.align, max_depth_cap=args.cap)
    print("abs_rel,sq_rel,rmse,rmse_log,delta1,delta2,delta3")
    print(
        ",".join(
            f"{v:.17g}"
            for v in (m.abs_rel, m.sq_rel, m.rmse, m.rmse_log, m.delta1, m.delta2, m.delta3)
        )
    )
    return EXIT_OK


def cmd_eval_ate(args) -> int:
    pred = Trajectory.from_matrices(fileio.read_trajectory(args.pred))
    gt = Trajectory.from_matrices(fileio.read_trajectory(args.gt))
    mean, std = ate(pred, gt)
    print("ate_mean,ate_std")
    print(f"{mean:.17g},{std:.17g}")
    return EXIT_OK


def cmd_synth(args) -> int:
    cfg = load_config(args.config)
    spec = cfg.scene
    if args.seed is not None:
        spec = replace(spec, texture_seed=args.seed)
    rng = np.random.default_rng(spec.texture_seed)
    p1 = bundled.random_small_motion(rng, args.translation_frac, args.rotation_deg)
    p2 = bundled.random_small_motion(rng, args.translation_frac, args.rotation_deg)
    ref_img, ref_depth = synth.make_scene(spec)
    view1, _ = synth.render_scene_view(spec, p1)
    view2, _ = synth.render_scene_view(spec, p2)
    out = args.out
    os.makedirs(out, exist_ok=True)
    # PGM copies are for quick viewing; the PFM rasters keep full float
    # precision so a generated pair round-trips through the solver.
    fileio.write_pgm(os.path.join(out, "ref.pgm"), ref_img)
    fileio.write_pgm(os.path.join(out, "view1.pgm"), view1)
    fileio.write_pgm(os.path.join(out, "view2.pgm"), view2)
    fileio.write_pfm(os.path.join(out, "ref.pfm"), ref_img.gray())
    fileio.write_pfm(os.path.join(out, "view1.pfm"), view1.gray())
    fileio.write_pfm(os.path.join(out, "view2.pfm"), view2.gray())
    fileio.write_pfm(os.path.join(out, "ref_depth.pfm"), ref_depth.values)
    fileio.write_trajectory(
        os.path.join(out, "poses.txt"), [p1.matrix(), p2.matrix()]
    )
    print(f"wrote scene fixtures to {out}")
    return EXIT_OK


def _seed(text):
    """A ``--seed`` value: a non-negative integer, as numpy's generators take."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"seed must be non-negative, got {value}")
    return value


def _in_range(limit, text):
    """A number in ``[0, limit]``, so nan (and inf, for a finite ``limit``)
    is a usage error rather than a non-finite pose or an empty score."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0.0 <= value <= limit:
        raise argparse.ArgumentTypeError(f"expected a number in [0, {limit:g}], got {text!r}")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="dvokit",
        description="Direct visual odometry, gradient checks, training demos, "
        "metrics, and synthetic fixtures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("odometry", help="align a frame pair and print the pose")
    p.add_argument("ref", help="reference image (PGM/PPM/PFM)")
    p.add_argument("ref_depth", help="reference inverse depth (PFM)")
    p.add_argument("src", help="source image")
    p.add_argument("--config", default=None)
    p.add_argument("--trajectory", default=None, help="also write a 2-pose file")
    p.set_defaults(handler=cmd_odometry)

    p = sub.add_parser("gradcheck", help="finite-difference gradient report")
    p.add_argument("--seed", type=_seed, default=0)
    p.set_defaults(handler=cmd_gradcheck)

    p = sub.add_parser("train-demo", help="run a triplet training demo")
    p.add_argument("--mode", required=True, choices=TRAIN_MODES)
    p.add_argument("--normalize", choices=("on", "off"), default="on")
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True, help="trace CSV path")
    p.add_argument("--depth-out", default=None, help="final inverse depth PFM path")
    p.add_argument("--scene-from-config", action="store_true",
                   help="synthesize the clip from the config's scene section "
                   "instead of the bundled one")
    p.set_defaults(handler=cmd_train_demo)

    p = sub.add_parser("eval", help="score a depth map against ground truth")
    p.add_argument("pred", help="predicted depth (PFM)")
    p.add_argument("gt", help="ground-truth depth (PFM)")
    p.add_argument("--align", action="store_true", help="median scale alignment")
    p.add_argument("--cap", type=partial(_in_range, math.inf), default=None,
                   help="max ground-truth depth, in [0, inf]")
    p.set_defaults(handler=cmd_eval)

    p = sub.add_parser("eval-ate", help="absolute trajectory error over 5-frame snippets")
    p.add_argument("pred", help="predicted trajectory (12 floats per line)")
    p.add_argument("gt", help="ground-truth trajectory")
    p.set_defaults(handler=cmd_eval_ate)

    p = sub.add_parser("synth", help="generate a synthetic scene fixture")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--config", default=None)
    p.add_argument("--seed", type=_seed, default=None, help="override scene.texture_seed")
    p.add_argument("--translation-frac", type=partial(_in_range, 1.0), default=0.01,
                   help="motion as a fraction of the scene depth, in [0, 1]")
    p.add_argument("--rotation-deg", type=partial(_in_range, 180.0), default=0.5,
                   help="rotation angle in degrees, in [0, 180]")
    p.set_defaults(handler=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except (FileFormatError, ConfigError, ShapeMismatch, InvalidRaster, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except DvokitError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DEGENERATE


if __name__ == "__main__":
    sys.exit(main())
