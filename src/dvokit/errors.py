"""Exception types shared across the package."""


class DvokitError(Exception):
    """Base class for all errors raised by this package."""


class GridTooSmall(DvokitError):
    """An image operation received a raster below its minimum size."""


class SingularSystem(DvokitError):
    """The Gauss-Newton normal equations are numerically singular
    (typically an untextured reference image)."""


class DegenerateOverlap(DvokitError):
    """Too few warped pixels landed inside the source image."""


class TapeMismatch(DvokitError):
    """A backward pass received a seed or tape inconsistent with the forward."""


class DegenerateDepth(DvokitError):
    """An inverse-depth map collapsed to (near) zero mean or median."""


class NoValidPixels(DvokitError):
    """A metric was requested over an empty valid set."""


class LengthMismatch(DvokitError):
    """Two trajectories of different length were compared."""


class ShapeMismatch(DvokitError):
    """Arrays that must share a shape do not."""


class InvalidRaster(DvokitError, ValueError):
    """A raster has the wrong rank or channel count, a non-finite value,
    or (for inverse depth) a negative value."""


class DivergenceDetected(DvokitError):
    """A training run produced a non-finite loss."""


class ConfigError(DvokitError):
    """A run-configuration file had an unknown key or an invalid value."""


class FileFormatError(DvokitError):
    """A raster or trajectory file could not be parsed.

    Carries the offending path and, where known, the byte offset at which
    parsing failed.
    """

    def __init__(self, path, message, offset=None):
        self.path = str(path)
        self.offset = offset
        where = f"{self.path}" if offset is None else f"{self.path} (byte offset {offset})"
        super().__init__(f"{where}: {message}")
