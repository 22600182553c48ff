import numpy as np
import pytest

from dvokit import fileio
from dvokit.errors import FileFormatError
from dvokit.imaging import ImageBuffer


class TestPnm:
    def test_pgm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(0)
        img = ImageBuffer(rng.integers(0, 256, size=(5, 7, 1)) / 255.0)
        path = tmp_path / "a.pgm"
        fileio.write_pgm(path, img)
        back = fileio.read_image(path)
        assert np.array_equal(back.data, img.data)

    def test_ppm_roundtrip(self, tmp_path):
        rng = np.random.default_rng(1)
        img = ImageBuffer(rng.integers(0, 256, size=(4, 6, 3)) / 255.0)
        path = tmp_path / "a.ppm"
        fileio.write_ppm(path, img)
        back = fileio.read_image(path)
        assert back.channels == 3
        assert np.array_equal(back.data, img.data)

    def test_comment_in_header(self, tmp_path):
        path = tmp_path / "c.pgm"
        path.write_bytes(b"P5\n# a comment\n2 2\n255\n\x00\x7f\xff\x01")
        img = fileio.read_image(path)
        assert img.gray()[0, 1] == 127 / 255.0

    def test_truncated_payload_reports_offset(self, tmp_path):
        path = tmp_path / "t.pgm"
        blob = b"P5\n4 4\n255\n" + b"\x00" * 7
        path.write_bytes(blob)
        with pytest.raises(FileFormatError) as e:
            fileio.read_image(path)
        assert e.value.offset == len(blob)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "b.pgm"
        path.write_bytes(b"P3\n1 1\n255\n0")
        with pytest.raises(FileFormatError):
            fileio.read_image(path)


class TestPfm:
    def test_bit_exact_roundtrip(self, tmp_path):
        rng = np.random.default_rng(2)
        data = rng.normal(size=(6, 5)).astype(np.float32).astype(np.float64)
        path = tmp_path / "d.pfm"
        fileio.write_pfm(path, data)
        back = fileio.read_pfm(path)
        assert back.shape == (6, 5)
        assert np.array_equal(back.astype(np.float32), data.astype(np.float32))

    def test_color_roundtrip(self, tmp_path):
        rng = np.random.default_rng(3)
        data = rng.normal(size=(3, 4, 3)).astype(np.float32).astype(np.float64)
        path = tmp_path / "c.pfm"
        fileio.write_pfm(path, data)
        back = fileio.read_pfm(path)
        assert np.array_equal(back.astype(np.float32), data.astype(np.float32))

    def test_big_endian_read(self, tmp_path):
        data = np.array([[1.5, -2.0], [0.25, 3.0]], dtype=">f4")
        # Bottom-to-top row order per the PFM convention.
        payload = data[::-1].tobytes()
        path = tmp_path / "be.pfm"
        path.write_bytes(b"Pf\n2 2\n1.0\n" + payload)
        back = fileio.read_pfm(path)
        assert np.array_equal(back, data.astype(np.float64))

    def test_truncated_floats_report_offset(self, tmp_path):
        path = tmp_path / "t.pfm"
        blob = b"Pf\n2 2\n-1.0\n" + b"\x00" * 9
        path.write_bytes(blob)
        with pytest.raises(FileFormatError) as e:
            fileio.read_pfm(path)
        assert e.value.offset == len(blob)

    def test_zero_scale_rejected(self, tmp_path):
        # A non-finite scale carries no byte order either: nan and inf
        # would otherwise read little-endian data as big-endian.
        path = tmp_path / "z.pfm"
        payload = np.ones(4, dtype="<f4").tobytes()
        for scale in (b"0.0", b"nan", b"inf", b"-inf"):
            path.write_bytes(b"Pf\n2 2\n" + scale + b"\n" + payload)
            with pytest.raises(FileFormatError, match="finite and nonzero"):
                fileio.read_pfm(path)

    def test_no_partial_file_on_failed_write(self, tmp_path):
        target = tmp_path / "out.pfm"
        with pytest.raises(ValueError):
            fileio.write_pfm(target, np.zeros((2, 2, 5)))
        assert not target.exists()
        assert list(tmp_path.iterdir()) == []


class TestTrajectory:
    def test_roundtrip(self, tmp_path):
        rng = np.random.default_rng(4)
        poses = []
        for _ in range(4):
            T = np.eye(4)
            T[:3, :3] = np.linalg.qr(rng.normal(size=(3, 3)))[0]
            T[:3, 3] = rng.normal(size=3)
            poses.append(T)
        path = tmp_path / "traj.txt"
        fileio.write_trajectory(path, poses)
        back = fileio.read_trajectory(path)
        assert len(back) == 4
        for a, b in zip(poses, back):
            assert np.max(np.abs(a - b)) < 1e-15

    def test_wrong_field_count_reports_offset(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 0 0 0 0 1 0 0 0 0 1 0\n1 2 3\n")
        with pytest.raises(FileFormatError) as e:
            fileio.read_trajectory(path)
        assert e.value.offset == 24
