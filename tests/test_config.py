import math
import re
from dataclasses import fields

import pytest

from dvokit.config import (
    CameraSettings,
    RunConfig,
    _DEFAULTS,
    _section_fields,
    load_config,
    parse_config,
)
from dvokit.ddvo import DdvoSettings
from dvokit.dvo import DvoSettings
from dvokit.errors import ConfigError
from dvokit.losses import LossWeights
from dvokit.training import TrainConfig


def float_keys():
    """Every ``section.key`` whose default is a float or an optional float,
    read from the parser's own table of sections and keys."""
    keys = []
    for section, defaults in _DEFAULTS.items():
        for name in _section_fields(section):
            value = getattr(defaults, name)
            if value is None or isinstance(value, float):
                keys.append(f"{section}.{name}")
    return keys


FLOAT_KEYS = float_keys()


class TestParseConfig:
    def test_empty_gives_defaults(self):
        cfg = parse_config("")
        defaults = RunConfig()
        assert cfg.train.dvo == defaults.train.dvo
        assert cfg.train.weights == defaults.train.weights
        assert cfg.train.ddvo.unroll_iters == defaults.train.ddvo.unroll_iters
        assert cfg.train.steps == defaults.train.steps
        assert cfg.train.lr == defaults.train.lr

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("\n# a comment\n  \ndvo.levels = 2  # trailing\n")
        assert cfg.train.dvo.levels == 2

    def test_sections_route_to_settings(self):
        cfg = parse_config(
            "dvo.max_iters_per_level = 7\n"
            "ddvo.unroll_iters = 5\n"
            "weights.lambda_prior = 0.5\n"
            "train.steps = 42\n"
            "scene.mean_depth = 2.5\n"
            "scene.height_amplitude = 0.15\n"
            "camera.fx = 120\ncamera.fy = 120\ncamera.cx = 40\ncamera.cy = 30\n"
        )
        assert cfg.train.dvo.max_iters_per_level == 7
        assert cfg.train.ddvo.unroll_iters == 5
        assert cfg.train.weights.lambda_prior == 0.5
        assert cfg.train.steps == 42
        assert cfg.scene.mean_depth == 2.5
        assert cfg.scene.height_amplitude == 0.15
        assert cfg.camera.fx == 120.0

    def test_train_holds_nested_sections(self):
        cfg = parse_config("weights.lambda_prior = 0.25\nddvo.levels = 2\ntrain.lr = 0.5\n")
        tc = cfg.train
        assert tc.weights.lambda_prior == 0.25
        assert tc.ddvo.levels == 2
        assert tc.lr == 0.5

    def test_defaults_train_as_the_library(self):
        got, want = parse_config("").train, TrainConfig()
        for f in fields(TrainConfig):
            a, b = getattr(got, f.name), getattr(want, f.name)
            if f.name in ("dvo", "ddvo", "weights"):
                for g in fields(a):
                    x, y = getattr(a, g.name), getattr(b, g.name)
                    assert x == y, f"{f.name}.{g.name}"
            else:
                assert a == b, f.name

    def test_every_ddvo_setting_is_a_config_key(self):
        # The start pose is a per-call input of ddvo_forward, not a setting.
        for f in fields(DdvoSettings):
            value = getattr(DdvoSettings(), f.name)
            cfg = parse_config(f"ddvo.{f.name} = {str(value).lower()}\n")
            assert getattr(cfg.train.ddvo, f.name) == value, f.name

    def test_damping_keys_unknown(self):
        # Both solvers take plain Gauss-Newton steps; no key damps them.
        for section in ("dvo", "ddvo"):
            with pytest.raises(ConfigError, match=f"unknown key '{section}.damping'"):
                parse_config(f"{section}.damping = 0.5\n")

    def test_damping_none_rejected(self):
        for section in ("dvo", "ddvo"):
            with pytest.raises(ConfigError, match=f"unknown key '{section}.damping'"):
                parse_config(f"{section}.damping = none\n")

    def test_no_key_defaults_to_none(self):
        # parse_config converts by the type of each key's default, and no
        # value converts to None.
        for section, defaults in _DEFAULTS.items():
            for name in _section_fields(section):
                assert getattr(defaults, name) is not None, f"{section}.{name}"

    def test_unknown_section_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("nosuch.key = 1\n")

    def test_gradcheck_is_not_a_section(self):
        # dvokit gradcheck reads no config; its sizes are constants of cli.
        with pytest.raises(ConfigError, match="unknown section 'gradcheck'"):
            parse_config("gradcheck.instances = 3\n")

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("dvo.bogus = 1\n")
        # SSIM's weight and stabilizers are constants of the loss, not keys.
        for key in ("weights.ssim_weight", "weights.ssim_c1", "weights.ssim_c2"):
            with pytest.raises(ConfigError, match="unknown key"):
                parse_config(f"{key} = 1\n")

    def test_bad_value_types_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("dvo.levels = soon\n")
        with pytest.raises(ConfigError, match="expected a boolean"):
            parse_config("ddvo.grad_through_jacobian = maybe\n")
        with pytest.raises(ConfigError):
            parse_config("weights.lambda_prior = many\n")

    def test_normalize_depth_is_not_a_key(self):
        # --normalize is the one switch; a key the run ignored is rejected.
        with pytest.raises(ConfigError, match="unknown key"):
            parse_config("train.normalize_depth = off\n")

    def test_each_setting_has_one_home(self):
        assert [f.name for f in fields(RunConfig)] == ["train", "scene", "camera"]
        assert sum(len(_section_fields(section)) for section in _DEFAULTS) == 24

    @pytest.mark.parametrize("key", ["train.seed", "scene.texture_seed"])
    def test_negative_seed_rejected(self, key):
        with pytest.raises(ConfigError, match="seed must be non-negative"):
            parse_config(f"{key} = -1\n")

    def test_invariants_checked_at_load(self):
        with pytest.raises(ConfigError):
            parse_config("dvo.levels = 0\n")
        with pytest.raises(ConfigError):
            parse_config("weights.lambda_prior = -1\n")
        with pytest.raises(ConfigError, match="mean_depth"):
            parse_config("scene.mean_depth = 0\n")

    def test_float_keys_cover_every_section_with_floats(self):
        assert len(FLOAT_KEYS) == 12
        assert {key.split(".")[0] for key in FLOAT_KEYS} == {
            "dvo", "weights", "train", "scene", "camera"
        }

    @pytest.mark.parametrize("raw", ["nan", "inf", "-inf"])
    @pytest.mark.parametrize("key", FLOAT_KEYS)
    def test_non_finite_floats_rejected(self, key, raw):
        with pytest.raises(ConfigError, match=re.escape(key) + ".*finite"):
            parse_config(f"{key} = {raw}\n")

    @pytest.mark.parametrize("line", ["scene.kind = two-plane", "scene.depth_range = 2.0, 4.0"])
    def test_removed_scene_keys_unknown(self, line):
        # One scene model: a plane is a height field with zero relief, and
        # its mean depth is scene.mean_depth.
        with pytest.raises(ConfigError, match="unknown key 'scene.(kind|depth_range)'"):
            parse_config(line + "\n")

    def test_scene_intrinsics_follow_configured_size(self):
        cfg = parse_config("scene.width = 64\nscene.height = 48\n")
        k = cfg.scene.intrinsics
        assert (k.fx, k.fy) == (64.0, 64.0)
        assert (k.cx, k.cy) == (31.5, 23.5)

    def test_missing_section_prefix_rejected(self):
        with pytest.raises(ConfigError):
            parse_config("levels = 3\n")

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("train.seed = 9\n")
        assert load_config(path).train.seed == 9
        assert load_config(None).train.seed == RunConfig().train.seed


class TestCameraSettings:
    def test_resolve_explicit(self):
        k = CameraSettings(100.0, 90.0, 40.0, 30.0).resolve(80, 64)
        assert (k.fx, k.fy, k.cx, k.cy) == (100.0, 90.0, 40.0, 30.0)

    def test_resolve_derived_from_size(self):
        k = CameraSettings().resolve(80, 64)
        assert (k.fx, k.fy) == (80.0, 80.0)
        assert (k.cx, k.cy) == (39.5, 31.5)

    def test_principal_point_kept_without_focal_lengths(self):
        k = parse_config("camera.cx = 10\ncamera.cy = 5\n").camera.resolve(80, 64)
        assert (k.fx, k.fy, k.cx, k.cy) == (80.0, 80.0, 10.0, 5.0)

    def test_principal_point_derived_with_focal_lengths(self):
        k = parse_config("camera.fx = 80\ncamera.fy = 80\n").camera.resolve(80, 64)
        assert (k.fx, k.fy, k.cx, k.cy) == (80.0, 80.0, 39.5, 31.5)

    def test_negative_focal_rejected(self):
        with pytest.raises(ValueError):
            CameraSettings(fx=-1.0)

    @pytest.mark.parametrize("key", ["fx", "fy"])
    def test_lone_focal_length_rejected(self, key):
        with pytest.raises(ConfigError, match=r"camera.*fx and fy"):
            parse_config(f"camera.{key} = 500\n")


NAN_CHECKED = [
    (DvoSettings, "step_norm_tol"),
    (LossWeights, "lambda_prior"),
    (TrainConfig, "lr"),
    (CameraSettings, "fx"),
    (CameraSettings, "fy"),
]


@pytest.mark.parametrize(
    "settings, name", NAN_CHECKED, ids=[f"{c.__name__}.{n}" for c, n in NAN_CHECKED]
)
def test_settings_sign_checks_reject_nan(settings, name):
    with pytest.raises(ValueError):
        settings(**{name: math.nan})
