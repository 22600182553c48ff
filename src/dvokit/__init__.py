"""Direct visual odometry, a differentiable unrolled pose solver, and an
unsupervised inverse-depth training objective, verified on synthetic
scenes with exact ground truth.
"""

from .config import (
    CameraSettings,
    RunConfig,
    load_config,
    parse_config,
)
from .ddvo import (
    DdvoSettings,
    DdvoTape,
    ddvo_backward,
    ddvo_forward,
    replay_frozen_jacobian,
)
from .dvo import DvoResult, DvoSettings, solve_coarse_to_fine
from .errors import (
    ConfigError,
    DegenerateDepth,
    DegenerateOverlap,
    DivergenceDetected,
    DvokitError,
    FileFormatError,
    GridTooSmall,
    InvalidRaster,
    LengthMismatch,
    NoValidPixels,
    ShapeMismatch,
    SingularSystem,
    TapeMismatch,
)
from .geometry import CameraIntrinsics, Pose6D, pose_from_matrix, so3_exp, so3_log
from .imaging import ImageBuffer, InverseDepthMap
from .losses import (
    LossBreakdown,
    LossWeights,
    Triplet,
    appearance_loss,
    normalize_inverse_depth,
    smoothness_prior,
    ssim,
    triplet_loss,
)
from .metrics import (
    DepthMetrics,
    Trajectory,
    ate,
    depth_metrics,
    median_align,
    similarity_align,
)
from .synth import SceneSpec, make_pair, make_scene, make_triplet
from .training import (
    AdamState,
    DepthParam,
    TrainConfig,
    TrainTrace,
    adam_step,
    train_triplet,
)

__version__ = "0.1.0"

__all__ = [
    "AdamState",
    "CameraIntrinsics",
    "CameraSettings",
    "ConfigError",
    "DdvoSettings",
    "DdvoTape",
    "DegenerateDepth",
    "DegenerateOverlap",
    "DepthMetrics",
    "DepthParam",
    "DivergenceDetected",
    "DvoResult",
    "DvoSettings",
    "DvokitError",
    "FileFormatError",
    "GridTooSmall",
    "InvalidRaster",
    "ImageBuffer",
    "InverseDepthMap",
    "LengthMismatch",
    "LossBreakdown",
    "LossWeights",
    "NoValidPixels",
    "Pose6D",
    "RunConfig",
    "SceneSpec",
    "ShapeMismatch",
    "SingularSystem",
    "TapeMismatch",
    "TrainConfig",
    "TrainTrace",
    "Trajectory",
    "Triplet",
    "adam_step",
    "appearance_loss",
    "ate",
    "ddvo_backward",
    "ddvo_forward",
    "depth_metrics",
    "load_config",
    "make_pair",
    "make_scene",
    "make_triplet",
    "median_align",
    "normalize_inverse_depth",
    "parse_config",
    "pose_from_matrix",
    "replay_frozen_jacobian",
    "similarity_align",
    "smoothness_prior",
    "so3_exp",
    "so3_log",
    "solve_coarse_to_fine",
    "ssim",
    "train_triplet",
    "triplet_loss",
]
