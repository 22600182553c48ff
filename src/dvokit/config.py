"""Run configuration parsed from flat ``section.key = value`` text files.

Numeric and structural settings live in config files; command-line flags
are reserved for mode switches and paths.  Every key maps onto a field of
one of the library's settings types, and the defaults are those types'
defaults.  The ``dvo``, ``ddvo`` and ``weights`` sections fill
``RunConfig.train``, the whole ``TrainConfig``, so each setting has one
home.  Depth normalization is ``dvokit train-demo --normalize``, not a
key, and ``dvokit gradcheck`` reads no config: its sizes and tolerances
are constants of ``cli``.  Every value is a boolean, an integer or a
finite number, by the type of the field's default.  Unknown sections and
keys are rejected, and values are validated by the settings types
themselves (their ``__post_init__`` checks run at load time).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

from .errors import ConfigError
from .synth import SceneSpec, grid_intrinsics
from .training import TrainConfig

# TrainConfig's settings objects; each is a section of its own.
_NESTED = ("dvo", "ddvo", "weights")
# mode and normalize_depth come from the command line.
_TRAIN_SKIP = ("mode", "normalize_depth") + _NESTED
_SCENE_SKIP = ("intrinsics",)


@dataclass(frozen=True)
class CameraSettings:
    """Pinhole intrinsics for file-based commands.

    A zero field means "derive it from the image size" with the rule the
    synthetic scenes use, ``synth.grid_intrinsics``; each field is taken
    or derived on its own.  Either both focal lengths are set or neither
    is.
    """

    fx: float = 0.0
    fy: float = 0.0
    cx: float = 0.0
    cy: float = 0.0

    def __post_init__(self):
        if not (self.fx >= 0.0 and self.fy >= 0.0):
            raise ValueError("focal lengths cannot be negative")
        if (self.fx == 0.0) != (self.fy == 0.0):
            raise ValueError("fx and fy must be set together")

    def resolve(self, width, height):
        grid = grid_intrinsics(width, height)
        return replace(grid, **{f.name: getattr(self, f.name)
                                for f in fields(self) if getattr(self, f.name) != 0.0})


@dataclass(frozen=True)
class RunConfig:
    """All file-configurable settings; the ``dvo``, ``ddvo`` and ``weights``
    sections are ``train.dvo``, ``train.ddvo`` and ``train.weights``."""

    train: TrainConfig = field(default_factory=TrainConfig)
    scene: SceneSpec = field(default_factory=SceneSpec)
    camera: CameraSettings = field(default_factory=CameraSettings)


def _section_fields(section):
    skip = ()
    if section == "train":
        skip = _TRAIN_SKIP
    elif section == "scene":
        skip = _SCENE_SKIP
    return {f.name: f for f in fields(type(_DEFAULTS[section])) if f.name not in skip}


_DEFAULTS = {
    **{name: getattr(RunConfig().train, name) for name in _NESTED},
    **{f.name: getattr(RunConfig(), f.name) for f in fields(RunConfig)},
}

_TRUE = ("true", "on", "yes", "1")
_FALSE = ("false", "off", "no", "0")


def _convert(section, key, raw, current):
    """Parse ``raw`` to the type of the field's current value."""
    where = f"{section}.{key}"
    if isinstance(current, bool):
        low = raw.lower()
        if low in _TRUE:
            return True
        if low in _FALSE:
            return False
        raise ConfigError(f"{where}: expected a boolean, got {raw!r}")
    if isinstance(current, int):
        try:
            return int(raw)
        except ValueError:
            raise ConfigError(f"{where}: expected an integer, got {raw!r}")
    try:
        value = float(raw)
    except ValueError:
        raise ConfigError(f"{where}: expected a number, got {raw!r}")
    if not math.isfinite(value):
        raise ConfigError(f"{where}: expected a finite number, got {raw!r}")
    return value


def parse_config(text) -> RunConfig:
    """Parse ``section.key = value`` lines; '#' starts a comment."""
    overrides = {name: {} for name in _DEFAULTS}
    # The scene's camera is derived from its configured size.
    overrides["scene"]["intrinsics"] = None
    for lineno, line in enumerate(str(text).splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'section.key = value'")
        lhs, raw = (part.strip() for part in stripped.split("=", 1))
        if "." not in lhs:
            raise ConfigError(f"line {lineno}: key {lhs!r} is missing its section")
        section, key = lhs.split(".", 1)
        if section not in _DEFAULTS:
            raise ConfigError(f"line {lineno}: unknown section {section!r}")
        known = _section_fields(section)
        if key not in known:
            raise ConfigError(f"line {lineno}: unknown key {lhs!r}")
        current = getattr(_DEFAULTS[section], key)
        overrides[section][key] = _convert(section, key, raw, current)

    built = {}
    for section, defaults in _DEFAULTS.items():
        try:
            built[section] = replace(defaults, **overrides[section])
        except ValueError as exc:
            raise ConfigError(f"section {section!r}: {exc}")
    nested = {name: built.pop(name) for name in _NESTED}
    return RunConfig(train=replace(built.pop("train"), **nested), **built)


def load_config(path) -> RunConfig:
    """Parse a configuration file; a missing path means all defaults."""
    if path is None:
        return RunConfig()
    with open(path, "r") as fh:
        return parse_config(fh.read())
