from dataclasses import replace

import numpy as np
import pytest

from dvokit import bundled, fileio
from dvokit import cli
from dvokit.cli import main
from dvokit.geometry import Pose6D, pose_from_matrix
from dvokit.imaging import ImageBuffer


@pytest.fixture()
def pair_files(tmp_path):
    ref_img, ref_depth, src_img, pose, k = bundled.small_motion_pair(11)
    ref = tmp_path / "ref.pgm"
    depth = tmp_path / "depth.pfm"
    src = tmp_path / "src.pgm"
    fileio.write_pgm(ref, ImageBuffer(ref_img))
    fileio.write_pfm(depth, ref_depth)
    fileio.write_pgm(src, ImageBuffer(src_img))
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"camera.fx = {k.fx}\ncamera.fy = {k.fy}\ncamera.cx = {k.cx}\ncamera.cy = {k.cy}\n")
    return ref, depth, src, pose, cfg


class TestOdometry:
    def test_identity_for_same_image(self, pair_files, capsys):
        ref, depth, _, _, cfg = pair_files
        code = main(["odometry", str(ref), str(depth), str(ref), "--config", str(cfg)])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[0]
        T = np.array([float(v) for v in row.split()]).reshape(3, 4)
        assert np.max(np.abs(T - np.eye(4)[:3])) < 1e-6

    def test_recovers_bundled_pose(self, pair_files, capsys):
        ref, depth, src, pose, cfg = pair_files
        code = main(["odometry", str(ref), str(depth), str(src), "--config", str(cfg)])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[0]
        T = np.array([float(v) for v in row.split()]).reshape(3, 4)
        got = pose_from_matrix(T)
        # 8-bit PGM quantization limits the accuracy; tolerances are loose
        # relative to the float-image solver checks.
        assert np.linalg.norm(got.t - pose.t) < 0.05 * np.linalg.norm(pose.t) + 1e-4
        assert np.linalg.norm(got.omega - pose.omega) < 2e-3

    def test_writes_trajectory_file(self, pair_files, tmp_path, capsys):
        ref, depth, src, _, cfg = pair_files
        out = tmp_path / "traj.txt"
        code = main(["odometry", str(ref), str(depth), str(src),
                     "--config", str(cfg), "--trajectory", str(out)])
        assert code == 0
        mats = fileio.read_trajectory(out)
        assert len(mats) == 2
        assert np.array_equal(mats[0], np.eye(4))

    def test_truncated_pfm_exit_1(self, pair_files, tmp_path, capsys):
        ref, depth, src, _, cfg = pair_files
        blob = depth.read_bytes()
        bad = tmp_path / "bad.pfm"
        bad.write_bytes(blob[: len(blob) // 2])
        code = main(["odometry", str(ref), str(bad), str(src), "--config", str(cfg)])
        assert code == 1
        err = capsys.readouterr().err
        assert "byte offset" in err
        assert "bad.pfm" in err

    def test_missing_file_exit_1(self, pair_files, capsys):
        ref, depth, _, _, cfg = pair_files
        assert main(["odometry", str(ref), str(depth), "/nonexistent.pgm"]) == 1

    def test_source_size_mismatch_exit_1(self, pair_files, tmp_path, capsys):
        ref, depth, src, _, cfg = pair_files
        small = tmp_path / "small.pgm"
        fileio.write_pgm(small, ImageBuffer(fileio.read_image(src).gray()[:-8, :-8]))
        code = main(["odometry", str(ref), str(depth), str(small), "--config", str(cfg)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "reference and source grids differ" in captured.err


    @pytest.mark.parametrize("value, message", [(-1.0, "non-negative"),
                                                (np.nan, "non-finite")])
    def test_invalid_depth_pixel_exit_1(self, pair_files, tmp_path, capsys, value, message):
        ref, depth, src, _, cfg = pair_files
        values = fileio.read_pfm(depth).copy()
        values[5, 7] = value
        bad = tmp_path / "bad_depth.pfm"
        fileio.write_pfm(bad, values)
        code = main(["odometry", str(ref), str(bad), str(src), "--config", str(cfg)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    def test_lone_focal_length_exit_1(self, pair_files, tmp_path, capsys):
        ref, depth, src, _, _ = pair_files
        cfg = tmp_path / "fx_only.cfg"
        cfg.write_text("camera.fx = 500\n")
        code = main(["odometry", str(ref), str(depth), str(src), "--config", str(cfg)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "fx and fy" in captured.err

    def test_prints_stop_reasons(self, pair_files, capsys):
        ref, depth, src, _, cfg = pair_files
        assert main(["odometry", str(ref), str(depth), str(src), "--config", str(cfg)]) == 0
        words = capsys.readouterr().out.splitlines()[1].split()
        assert words[2] == "iterations" and words[4] == "stops"
        reasons = words[5].split("/")
        assert len(reasons) == len(words[3].split("/")) == 4
        assert set(reasons) <= {"converged", "stalled"}


class TestGradcheck:
    def test_default_passes(self, capsys):
        code = main(["gradcheck", "--seed", "0"])
        out = capsys.readouterr().out
        assert code == 0
        assert "FAIL" not in out
        assert [line.split("  ")[0] for line in out.splitlines()[1:]] == [
            "solver depth (full chain)", "solver depth (frozen Jacobian)",
            "loss depth gradient", "loss pose gradient", "depth normalization chain",
        ]

    def test_takes_no_config(self, tmp_path, capsys):
        # The report's sizes and tolerances are constants, so no config
        # file can weaken it.
        cfg = tmp_path / "g.cfg"
        cfg.write_text("weights.lambda_prior = 0\n")
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--config", str(cfg)])
        assert exc.value.code == 2

    def test_wrong_solver_gradient_fails(self, capsys, monkeypatch):
        # A solver VJP 1% off fails both solver rows and only those.
        real = cli.ddvo_backward
        monkeypatch.setattr(cli, "ddvo_backward", lambda tape, g: 1.01 * real(tape, g))
        assert main(["gradcheck", "--seed", "0"]) == 3
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [row.split()[-1] for row in rows] == ["FAIL", "FAIL", "pass", "pass", "pass"]

    def test_negative_seed_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["gradcheck", "--seed", "-1"])
        assert exc.value.code == 2
        assert "seed must be non-negative" in capsys.readouterr().err

    def test_seeded_report_identical(self, capsys):
        main(["gradcheck", "--seed", "3"])
        first = capsys.readouterr().out
        main(["gradcheck", "--seed", "3"])
        second = capsys.readouterr().out
        assert first == second


def loss_depth_row(seed):
    """Worst error of gradcheck's loss-depth row at ``seed``, as the report
    computes it: a fresh generator on the seed, the fixed instance count."""
    rng = np.random.default_rng(seed)
    return max(cli._loss_depth_error(rng) for _ in range(cli.GRADCHECK_INSTANCES))


class TestLossDepthProbe:
    """The loss-depth row differences the loss total along a direction
    with a share of the gradient in it, so its pass holds at every seed."""

    @pytest.mark.parametrize("seed", range(10))
    def test_passes_at_every_seed(self, seed):
        assert loss_depth_row(seed) < cli.LOSS_TOL

    @pytest.mark.parametrize("seed", range(10))
    def test_catches_a_dropped_prior_term(self, seed, monkeypatch):
        # The gradient of the loss without its smoothness prior, checked
        # against the full loss.
        real = cli.triplet_loss

        def prior_dropped(triplet, k, weights):
            wrong = real(triplet, k, replace(weights, lambda_prior=0.0))
            return replace(real(triplet, k, weights), grad_depths=wrong.grad_depths)

        monkeypatch.setattr(cli, "triplet_loss", prior_dropped)
        assert loss_depth_row(seed) > 0.1


DEMO_CFG = (
    "train.steps = 3\n"
    "train.lr = 0.01\n"
    "ddvo.unroll_iters = 2\n"
    "ddvo.levels = 2\n"
    "dvo.levels = 2\n"
)


class TestTrainDemo:
    def test_writes_trace_and_depth(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(DEMO_CFG)
        out = tmp_path / "trace.csv"
        code = main(["train-demo", "--mode", "fixed-pose-gt", "--normalize", "on",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "step,total,appearance,prior,mean_inv_depth,gt_error"
        assert len(lines) == 4
        depth = fileio.read_pfm(tmp_path / "trace_depth.pfm")
        assert depth.shape == (64, 80)

    def test_normalized_mean_column_pinned(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(DEMO_CFG)
        out = tmp_path / "trace.csv"
        main(["train-demo", "--mode", "ddvo", "--normalize", "on",
              "--config", str(cfg), "--out", str(out)])
        for line in out.read_text().strip().splitlines()[1:]:
            mean = float(line.split(",")[4])
            assert abs(mean - 1.0) < 1e-9

    def test_seeded_runs_byte_identical(self, tmp_path, capsys):
        cfg = tmp_path / "t.cfg"
        cfg.write_text(DEMO_CFG)
        a = tmp_path / "a.csv"
        b = tmp_path / "b.csv"
        for out in (a, b):
            main(["train-demo", "--mode", "dvo-em", "--normalize", "off",
                  "--config", str(cfg), "--out", str(out)])
        assert a.read_bytes() == b.read_bytes()

    def test_failed_run_still_writes_trace_and_depth(self, tmp_path, capsys,
                                                     monkeypatch):
        # An inverse depth of 5 warps the outer frames mostly out of view.
        real_train = cli.train_triplet

        def train_from_near_depth(*args, **kwargs):
            init = [np.full((64, 80), 5.0)] * 3
            return real_train(*args, init_inv_depths=init, **kwargs)

        monkeypatch.setattr(cli, "train_triplet", train_from_near_depth)
        cfg = tmp_path / "t.cfg"
        cfg.write_text(DEMO_CFG)
        out = tmp_path / "trace.csv"
        code = main(["train-demo", "--mode", "fixed-pose-gt", "--normalize", "off",
                     "--config", str(cfg), "--out", str(out)])
        assert code == 4
        assert "warp in view" in capsys.readouterr().err
        lines = out.read_text().strip().splitlines()
        assert lines == ["step,total,appearance,prior,mean_inv_depth,gt_error"]
        depth = fileio.read_pfm(tmp_path / "trace_depth.pfm")
        assert np.allclose(depth, 5.0)

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(SystemExit):
            main(["train-demo", "--mode", "cnn", "--out", str(tmp_path / "x.csv")])


class TestEval:
    def make_pfms(self, tmp_path, pred, gt):
        p = tmp_path / "pred.pfm"
        g = tmp_path / "gt.pfm"
        fileio.write_pfm(p, pred)
        fileio.write_pfm(g, gt)
        return p, g

    def test_identical_depths_zero_row(self, tmp_path, capsys):
        gt = np.random.default_rng(0).uniform(1.0, 5.0, size=(8, 8)).astype(np.float32)
        p, g = self.make_pfms(tmp_path, gt, gt)
        assert main(["eval", str(p), str(g)]) == 0
        header, row = capsys.readouterr().out.strip().splitlines()
        assert header.startswith("abs_rel")
        vals = [float(v) for v in row.split(",")]
        assert vals[:4] == [0.0, 0.0, 0.0, 0.0]
        assert vals[4:] == [1.0, 1.0, 1.0]

    def test_align_removes_global_scale(self, tmp_path, capsys):
        gt = np.random.default_rng(1).uniform(1.0, 5.0, size=(8, 8)).astype(np.float32)
        p, g = self.make_pfms(tmp_path, 2.0 * gt, gt)
        assert main(["eval", str(p), str(g), "--align"]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        assert float(row.split(",")[0]) < 1e-6

    def test_three_pixel_fixture(self, tmp_path, capsys):
        p, g = self.make_pfms(
            tmp_path, np.array([[1.0, 1.0, 4.0]]), np.array([[1.0, 2.0, 4.0]])
        )
        assert main(["eval", str(p), str(g)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        vals = [float(v) for v in row.split(",")]
        assert abs(vals[0] - 1.0 / 6.0) < 1e-7
        assert abs(vals[4] - 2.0 / 3.0) < 1e-12

    def test_no_valid_pixels_exit_4(self, tmp_path, capsys):
        p, g = self.make_pfms(
            tmp_path, np.ones((2, 2)), np.full((2, 2), -1.0)
        )
        assert main(["eval", str(p), str(g)]) == 4

    @pytest.mark.parametrize("value", ["nan", "-1"])
    def test_bad_cap_is_usage_error(self, tmp_path, capsys, value):
        gt = np.random.default_rng(2).uniform(1.0, 5.0, size=(8, 8))
        p, g = self.make_pfms(tmp_path, gt, gt)
        with pytest.raises(SystemExit) as exc:
            main(["eval", str(p), str(g), "--cap", value])
        assert exc.value.code == 2
        assert "expected a number in [0, inf]" in capsys.readouterr().err

    def test_infinite_cap_scores_every_pixel(self, tmp_path, capsys):
        gt = np.random.default_rng(3).uniform(1.0, 5.0, size=(8, 8))
        p, g = self.make_pfms(tmp_path, 1.1 * gt, gt)
        assert main(["eval", str(p), str(g)]) == 0
        uncapped = capsys.readouterr().out
        assert main(["eval", str(p), str(g), "--cap", "inf"]) == 0
        assert capsys.readouterr().out == uncapped

    def test_infinite_ground_truth_pixel_not_scored(self, tmp_path, capsys):
        # An inf ground-truth pixel scores as one without ground truth, with
        # and without --cap inf.
        gt = np.random.default_rng(4).uniform(1.0, 5.0, size=(8, 8))
        pred = 1.1 * gt
        rows = []
        for value in (np.inf, 0.0):
            gt[3, 5] = value
            p, g = self.make_pfms(tmp_path, pred, gt)
            for cap in ([], ["--cap", "inf"]):
                assert main(["eval", str(p), str(g), *cap]) == 0
                rows.append(capsys.readouterr().out)
        assert len(set(rows)) == 1
        assert "nan" not in rows[0] and "inf" not in rows[0]

    @pytest.mark.parametrize("channels", [("pred",), ("gt",), ("pred", "gt")])
    def test_multi_channel_pfm_exit_1(self, tmp_path, capsys, channels):
        depth = np.random.default_rng(5).uniform(1.0, 5.0, size=(8, 8))
        rgb = np.repeat(depth[..., None], 3, axis=2)
        p, g = self.make_pfms(tmp_path, *(rgb if name in channels else depth
                                          for name in ("pred", "gt")))
        assert main(["eval", str(p), str(g)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "single-channel" in captured.err

    def test_negative_prediction_exit_4(self, tmp_path, capsys):
        p, g = self.make_pfms(tmp_path, np.array([[-1.0, 1.0, 2.0]]),
                              np.array([[1.0, 1.0, 2.0]]))
        assert main(["eval", str(p), str(g)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not positive and finite" in captured.err

    def test_size_mismatch_exit_1(self, tmp_path, capsys):
        p, g = self.make_pfms(tmp_path, np.ones((4, 4)), np.ones((4, 5)))
        assert main(["eval", str(p), str(g)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "grid" in captured.err


class TestEvalAte:
    def test_identical_trajectories(self, tmp_path, capsys):
        mats = [Pose6D(np.array([float(i), 0.0, 0.0]), np.zeros(3)).matrix()
                for i in range(6)]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        fileio.write_trajectory(a, mats)
        fileio.write_trajectory(b, mats)
        assert main(["eval-ate", str(a), str(b)]) == 0
        row = capsys.readouterr().out.strip().splitlines()[1]
        mean, std = (float(v) for v in row.split(","))
        assert mean < 1e-12
        assert std < 1e-12

    def test_length_mismatch_exit_4(self, tmp_path, capsys):
        mats = [Pose6D(np.array([float(i), 0.0, 0.0]), np.zeros(3)).matrix()
                for i in range(6)]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        fileio.write_trajectory(a, mats)
        fileio.write_trajectory(b, mats[:-1])
        assert main(["eval-ate", str(a), str(b)]) == 4

    def test_non_finite_entry_exit_1(self, tmp_path, capsys):
        mats = [Pose6D(np.array([float(i), 0.0, 0.0]), np.zeros(3)).matrix()
                for i in range(5)]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        fileio.write_trajectory(a, mats)
        fileio.write_trajectory(b, mats)
        lines = a.read_text().splitlines(keepends=True)
        row = lines[1].split()
        row[3] = "nan"  # t_x of the second pose
        a.write_text(lines[0] + " ".join(row) + "\n" + "".join(lines[2:]))
        assert main(["eval-ate", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert str(a) in captured.err
        assert f"byte offset {len(lines[0])}" in captured.err

    def test_non_rotation_block_exit_1(self, tmp_path, capsys):
        mats = [Pose6D(np.array([float(i), 0.0, 0.0]), np.zeros(3)).matrix()
                for i in range(5)]
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        fileio.write_trajectory(b, mats)
        mats[1][:3, :3] = -np.eye(3)
        fileio.write_trajectory(a, mats)
        assert main(["eval-ate", str(a), str(b)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "not a rotation" in captured.err
        assert f"byte offset {len(a.read_text().splitlines(keepends=True)[0])}" in captured.err

    def test_single_pose_exit_4(self, tmp_path, capsys):
        a = tmp_path / "a.txt"
        b = tmp_path / "b.txt"
        fileio.write_trajectory(a, [np.eye(4)])
        fileio.write_trajectory(b, [np.eye(4)])
        assert main(["eval-ate", str(a), str(b)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "two poses" in captured.err


# Round-trip recovery of a 1%-depth motion needs a reasonably wide field
# of view; smaller grids make translation/rotation poorly separable.
# Depth relief also matters: a fronto-parallel plane leaves translation
# and rotation nearly indistinguishable at this field of view.
SYNTH_CFG = (
    "scene.height_amplitude = 0.15\n"
    "scene.width = 128\n"
    "scene.height = 96\n"
)


class TestSynth:
    def test_deterministic_outputs(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SYNTH_CFG)
        d1 = tmp_path / "one"
        d2 = tmp_path / "two"
        for d in (d1, d2):
            assert main(["synth", "--out", str(d), "--config", str(cfg),
                         "--seed", "5"]) == 0
        for name in ("ref.pgm", "ref.pfm", "ref_depth.pfm", "view1.pfm",
                     "view2.pgm", "poses.txt"):
            assert (d1 / name).read_bytes() == (d2 / name).read_bytes()

    @pytest.mark.parametrize("line", [
        "scene.texture_max_freq = -4",
        "scene.texture_waves = -2",
        "scene.height_amplitude = 5",
        "scene.height_amplitude = -3",
        "scene.mean_depth = 0",
        "scene.kind = smooth-height-field",
        "scene.depth_range = 2.0, 4.0",
    ])
    def test_bad_scene_setting_is_a_config_error(self, tmp_path, capsys, line):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SYNTH_CFG + line + "\n")
        out = tmp_path / "scene"
        assert main(["synth", "--out", str(out), "--config", str(cfg)]) == 1
        assert line.split(" =")[0].split(".")[1] in capsys.readouterr().err
        assert not out.exists()

    def test_negative_seed_rejected(self, tmp_path, capsys):
        out = tmp_path / "scene"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(out), "--seed", "-4"])
        assert exc.value.code == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--translation-frac", "--rotation-deg"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-1", "1e308"])
    def test_non_finite_or_out_of_range_motion_rejected(self, tmp_path, capsys, flag, value):
        out = tmp_path / "scene"
        with pytest.raises(SystemExit) as exc:
            main(["synth", "--out", str(out), flag, value])
        assert exc.value.code == 2
        assert "expected a number in [0, " in capsys.readouterr().err
        assert not out.exists()

    def test_generated_pair_passes_odometry(self, tmp_path, capsys):
        cfg = tmp_path / "s.cfg"
        cfg.write_text(SYNTH_CFG)
        d = tmp_path / "scene"
        assert main(["synth", "--out", str(d), "--config", str(cfg),
                     "--seed", "2"]) == 0
        capsys.readouterr()
        gt = pose_from_matrix(fileio.read_trajectory(d / "poses.txt")[0])
        code = main(["odometry", str(d / "ref.pfm"), str(d / "ref_depth.pfm"),
                     str(d / "view1.pfm")])
        assert code == 0
        row = capsys.readouterr().out.splitlines()[0]
        got = pose_from_matrix(
            np.array([float(v) for v in row.split()]).reshape(3, 4)
        )
        assert np.linalg.norm(got.t - gt.t) < 0.1 * np.linalg.norm(gt.t)

