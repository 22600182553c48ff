"""Readers and writers for PGM/PPM/PFM rasters and trajectory text files.

8-bit PNM values are mapped to [0, 1] on load.  PFM follows the usual
convention: 'Pf' grayscale / 'PF' color, a scale line whose sign encodes
endianness, rows stored bottom-to-top.  PFM round trips are bit-exact at
float32.  All writers go through a temporary file in the target directory
and rename on success, so a failed write never leaves a partial file.

Parse errors raise :class:`FileFormatError` carrying the byte offset at
which parsing failed.
"""

from __future__ import annotations

import math
import os
import tempfile

import numpy as np

from .errors import FileFormatError
from .imaging import ImageBuffer, InverseDepthMap

# Largest entry of |R^T R - I| a trajectory row's rotation may carry.
ROTATION_TOL = 1e-4


class _ByteCursor:
    """Byte-level scanner over a whole file kept in memory."""

    def __init__(self, path, blob):
        self.path = path
        self.blob = blob
        self.pos = 0

    def fail(self, message):
        raise FileFormatError(self.path, message, offset=self.pos)

    def skip_whitespace_and_comments(self):
        b = self.blob
        while self.pos < len(b):
            c = b[self.pos : self.pos + 1]
            if c.isspace():
                self.pos += 1
            elif c == b"#":
                while self.pos < len(b) and b[self.pos : self.pos + 1] != b"\n":
                    self.pos += 1
            else:
                return

    def token(self):
        self.skip_whitespace_and_comments()
        start = self.pos
        b = self.blob
        while self.pos < len(b) and not b[self.pos : self.pos + 1].isspace():
            self.pos += 1
        if self.pos == start:
            self.fail("unexpected end of header")
        return b[start : self.pos]

    def int_token(self, what):
        tok = self.token()
        try:
            return int(tok)
        except ValueError:
            self.pos -= len(tok)
            self.fail(f"invalid {what} {tok!r}")

    def raw(self, n, what):
        if self.pos + n > len(self.blob):
            self.pos = len(self.blob)
            self.fail(f"truncated {what}: wanted {n} bytes")
        out = self.blob[self.pos : self.pos + n]
        self.pos += n
        return out


def _atomic_write(path, payload: bytes):
    path = os.fspath(path)
    directory = os.path.dirname(path) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".dvokit-")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def read_image(path) -> ImageBuffer:
    """Read a PGM (P5), PPM (P6), or PFM (Pf/PF) raster."""
    with open(path, "rb") as f:
        blob = f.read()
    cur = _ByteCursor(path, blob)
    magic = cur.raw(2, "magic number")
    if magic in (b"P5", b"P6"):
        return _read_pnm_body(cur, magic)
    if magic in (b"Pf", b"PF"):
        return ImageBuffer(_read_pfm_body(cur, magic))
    cur.pos = 0
    cur.fail(f"unsupported magic number {magic!r}")


def _read_pnm_body(cur, magic):
    channels = 1 if magic == b"P5" else 3
    width = cur.int_token("width")
    height = cur.int_token("height")
    maxval = cur.int_token("maxval")
    if width <= 0 or height <= 0:
        cur.fail(f"invalid dimensions {width}x{height}")
    if maxval != 255:
        cur.fail(f"only 8-bit rasters supported, got maxval {maxval}")
    # Single whitespace byte separates the header from the payload.
    cur.raw(1, "header terminator")
    payload = cur.raw(width * height * channels, "pixel data")
    data = np.frombuffer(payload, dtype=np.uint8).astype(float) / 255.0
    return ImageBuffer(data.reshape(height, width, channels))


def _read_pfm_body(cur, magic):
    channels = 1 if magic == b"Pf" else 3
    width = cur.int_token("width")
    height = cur.int_token("height")
    scale_tok = cur.token()
    try:
        scale = float(scale_tok)
    except ValueError:
        cur.pos -= len(scale_tok)
        cur.fail(f"invalid scale {scale_tok!r}")
    if scale == 0.0 or not math.isfinite(scale):
        # The scale's sign gives the byte order and its size the units;
        # nan has no sign and inf no size.
        cur.fail(f"PFM scale must be finite and nonzero, got {scale_tok!r}")
    if width <= 0 or height <= 0:
        cur.fail(f"invalid dimensions {width}x{height}")
    cur.raw(1, "header terminator")
    count = width * height * channels
    payload = cur.raw(count * 4, "float data")
    dtype = "<f4" if scale < 0.0 else ">f4"
    data = np.frombuffer(payload, dtype=dtype).astype(np.float64)
    data = data.reshape(height, width, channels)
    # PFM rows run bottom-to-top.
    return data[::-1].copy()


def read_pfm(path) -> np.ndarray:
    """PFM raster as a (H, W) or (H, W, 3) float array."""
    with open(path, "rb") as f:
        blob = f.read()
    cur = _ByteCursor(path, blob)
    magic = cur.raw(2, "magic number")
    if magic not in (b"Pf", b"PF"):
        cur.pos = 0
        cur.fail(f"not a PFM file (magic {magic!r})")
    data = _read_pfm_body(cur, magic)
    return data[:, :, 0] if data.shape[2] == 1 else data


def read_depth_pfm(path) -> np.ndarray:
    """Single-channel PFM raster as a (H, W) float array."""
    data = read_pfm(path)
    if data.ndim != 2:
        raise FileFormatError(path, "a depth map must be single-channel")
    return data


def read_inverse_depth(path) -> InverseDepthMap:
    return InverseDepthMap.from_array(read_depth_pfm(path))


def write_pgm(path, img: ImageBuffer):
    if img.channels != 1:
        raise ValueError("PGM requires a single-channel image")
    _write_pnm(path, b"P5", img)


def write_ppm(path, img: ImageBuffer):
    if img.channels != 3:
        raise ValueError("PPM requires a 3-channel image")
    _write_pnm(path, b"P6", img)


def _write_pnm(path, magic, img):
    q = np.clip(np.rint(img.data * 255.0), 0, 255).astype(np.uint8)
    header = b"%s\n%d %d\n255\n" % (magic, img.width, img.height)
    _atomic_write(path, header + q.tobytes())


def write_pfm(path, data):
    """Write a (H, W) or (H, W, C<=3) array as little-endian float32 PFM."""
    data = np.asarray(data, dtype=np.float64)
    if data.ndim == 2:
        data = data[:, :, None]
    if data.shape[2] == 1:
        magic = b"Pf"
    elif data.shape[2] == 3:
        magic = b"PF"
    else:
        raise ValueError("PFM supports 1 or 3 channels")
    header = b"%s\n%d %d\n-1.0\n" % (magic, data.shape[1], data.shape[0])
    payload = data[::-1].astype("<f4").tobytes()
    _atomic_write(path, header + payload)


def read_trajectory(path):
    """KITTI-odometry style poses: one row-major 3x4 (12 floats) per line.

    Returns a list of 4x4 transforms.  Each 3x3 block must be a rotation,
    ``det > 0`` and ``max|R^T R - I| <= ROTATION_TOL``, which rows written to
    6 significant digits meet.
    """
    poses = []
    offset = 0
    with open(path, "rb") as f:
        for line in f:
            stripped = line.strip()
            if stripped:
                try:
                    vals = [float(v) for v in stripped.split()]
                except ValueError:
                    raise FileFormatError(path, f"bad pose line {stripped!r}", offset=offset)
                if len(vals) != 12:
                    raise FileFormatError(
                        path, f"pose line has {len(vals)} values, expected 12", offset=offset
                    )
                if not np.all(np.isfinite(vals)):
                    raise FileFormatError(path, "pose line has a non-finite value", offset=offset)
                T = np.eye(4)
                T[:3] = np.array(vals).reshape(3, 4)
                R = T[:3, :3]
                if not (np.linalg.det(R) > 0.0
                        and np.max(np.abs(R.T @ R - np.eye(3))) <= ROTATION_TOL):
                    raise FileFormatError(path, "pose line's 3x3 block is not a rotation",
                                          offset=offset)
                poses.append(T)
            offset += len(line)
    if not poses:
        raise FileFormatError(path, "no poses found")
    return poses


def format_pose_row(T):
    return " ".join(f"{v:.17g}" for v in np.asarray(T)[:3].reshape(12))


def write_trajectory(path, poses):
    text = "".join(format_pose_row(T) + "\n" for T in poses)
    _atomic_write(path, text.encode("ascii"))
