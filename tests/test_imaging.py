import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dvokit.errors import GridTooSmall
from dvokit.imaging import (
    ImageBuffer,
    InverseDepthMap,
    bilinear_many,
    downsample2_arr,
    gradient_arr,
    laplacian_arr,
    pyramid_arr,
    pyramid_grad_arr,
    upsample2_grad_arr,
)


def sample(plane, x, y):
    """``bilinear_many`` at one point: ``(value, in_view)``."""
    v, ok = bilinear_many(plane, np.array([x]), np.array([y]))
    return v[0], bool(ok[0])


class TestSampleBilinear:
    def test_lattice_points_reproduce_stored_values(self):
        rng = np.random.default_rng(0)
        plane = rng.uniform(0.0, 1.0, size=(7, 9))
        xs, ys = np.meshgrid(np.arange(9.0), np.arange(7.0))
        v, ok = bilinear_many(plane, xs, ys)
        assert ok.all()
        assert np.array_equal(v, plane)

    def test_midpoint_of_horizontal_neighbors(self):
        v, ok = sample(np.array([[0.2, 0.8], [0.2, 0.8]]), 0.5, 0.0)
        assert ok
        assert v == pytest.approx(0.5, abs=1e-15)

    def test_out_of_bounds_is_zero_and_flagged(self):
        v, ok = sample(np.ones((4, 4)), -0.5, 0.0)
        assert not ok
        assert v == 0.0


class TestSampleBilinearGrad:
    def test_constant_image(self):
        _, _, gx, gy = bilinear_many(np.full((5, 5), 0.3), [2.3], [1.7], grad=True)
        assert np.array_equal(np.stack((gx, gy)), np.zeros((2, 1)))

    def test_horizontal_ramp(self):
        plane = np.tile(np.arange(6.0), (5, 1))
        _, _, gx, gy = bilinear_many(plane, [2.4], [2.6], grad=True)
        assert np.allclose((gx[0], gy[0]), (1.0, 0.0), atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(1)
        plane = rng.uniform(0.0, 1.0, size=(12, 12))
        h = 1e-5
        x, y = rng.uniform(1.1, 9.9, size=(1000, 2)).T
        # Interior, away from lattice lines so the FD stays in one cell.
        frac = np.stack((x % 1.0, 1.0 - x % 1.0, y % 1.0, 1.0 - y % 1.0))
        keep = frac.min(axis=0) >= 1e-3
        x, y = x[keep], y[keep]
        _, _, gx, gy = bilinear_many(plane, x, y, grad=True)
        fx = (bilinear_many(plane, x + h, y)[0] - bilinear_many(plane, x - h, y)[0]) / (2 * h)
        fy = (bilinear_many(plane, x, y + h)[0] - bilinear_many(plane, x, y - h)[0]) / (2 * h)
        worst = max(np.max(np.abs(gx - fx)), np.max(np.abs(gy - fy)))
        assert worst < 1e-6


@st.composite
def planes(draw):
    """A 2x2 to 40x40 plane, odd sizes included, whose entries span six
    decades, so that a different order of operations shows in the bits."""
    h = draw(st.integers(2, 40))
    w = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return rng.normal(size=(h, w)) * 10.0 ** rng.uniform(-3.0, 3.0, size=(h, w))


BYTE_IDENTITY = settings(max_examples=150, deadline=None, derandomize=True)


class TestSpatialGradient:
    @BYTE_IDENTITY
    @given(planes())
    def test_matches_np_gradient_bit_for_bit(self, plane):
        got_x, got_y = gradient_arr(plane)
        ref_x, ref_y = oracles.gradient(plane)
        assert np.array_equal(got_x, ref_x)
        assert np.array_equal(got_y, ref_y)

    @pytest.mark.parametrize("shape", [(1, 5), (5, 1), (1, 1)])
    def test_grid_too_small(self, shape):
        with pytest.raises(GridTooSmall):
            gradient_arr(np.ones(shape))

    def test_constant_image(self):
        gx, gy = gradient_arr(np.full((5, 5), 0.7))
        assert np.array_equal(np.stack((gx, gy)), np.zeros((2, 5, 5)))

    def test_ramp(self):
        x = np.tile(np.arange(8.0), (6, 1)) * 2.0
        gx, gy = gradient_arr(x)
        assert np.allclose(gx, 2.0)
        assert np.allclose(gy, 0.0)

    def test_matches_stencil_oracle(self):
        rng = np.random.default_rng(2)
        a = rng.uniform(size=(8, 8))
        got_x, got_y = gradient_arr(a)
        gx = np.empty_like(a)
        gy = np.empty_like(a)
        for y in range(8):
            for x in range(8):
                if 0 < x < 7:
                    gx[y, x] = (a[y, x + 1] - a[y, x - 1]) / 2.0
                else:
                    gx[y, x] = a[y, min(x + 1, 7)] - a[y, max(x - 1, 0)]
                if 0 < y < 7:
                    gy[y, x] = (a[y + 1, x] - a[y - 1, x]) / 2.0
                else:
                    gy[y, x] = a[min(y + 1, 7), x] - a[max(y - 1, 0), x]
        assert np.array_equal(got_x, gx)
        assert np.array_equal(got_y, gy)


class TestLaplacian:
    @BYTE_IDENTITY
    @given(planes())
    def test_matches_np_pad_border_bit_for_bit(self, plane):
        assert laplacian_arr(plane).tobytes() == oracles.laplacian(plane).tobytes()

    @pytest.mark.parametrize("shape", [(1, 1), (1, 6), (6, 1)])
    def test_thin_planes_match_np_pad_border(self, shape):
        plane = np.random.default_rng(4).normal(size=shape)
        assert laplacian_arr(plane).tobytes() == oracles.laplacian(plane).tobytes()

    def test_constant_image(self):
        out = laplacian_arr(np.full((5, 5), 0.4))
        assert np.array_equal(out, np.zeros((5, 5)))

    def test_affine_image_interior_zero(self):
        y, x = np.mgrid[0:7, 0:9].astype(float)
        out = laplacian_arr(0.1 + 0.02 * x + 0.03 * y)
        assert np.max(np.abs(out[1:-1, 1:-1])) < 1e-12

    def test_unit_impulse(self):
        a = np.zeros((5, 5))
        a[2, 2] = 1.0
        out = laplacian_arr(a)
        assert out[2, 2] == 4.0
        for dy, dx in ((1, 0), (-1, 0), (0, 1), (0, -1)):
            assert out[2 + dy, 2 + dx] == 1.0


class TestDownsample2:
    @BYTE_IDENTITY
    @given(planes())
    def test_matches_block_mean_bit_for_bit(self, plane):
        assert np.array_equal(downsample2_arr(plane), oracles.downsample2(plane))

    def test_constant(self):
        out = downsample2_arr(np.full((6, 6), 0.3))
        assert np.allclose(out, 0.3)

    def test_checkerboard_block(self):
        out = downsample2_arr(np.array([[1.0, 0.0], [0.0, 1.0]]))
        assert out.shape == (1, 1)
        assert out[0, 0] == 0.5

    def test_hand_computed_4x4(self):
        a = np.arange(16.0).reshape(4, 4)
        out = downsample2_arr(a)
        expected = np.array([[2.5, 4.5], [10.5, 12.5]])
        assert np.array_equal(out, expected)

    def test_mean_preserved_for_even_dims(self):
        rng = np.random.default_rng(3)
        a = rng.uniform(size=(8, 10))
        out = downsample2_arr(a)
        assert abs(out.mean() - a.mean()) < 1e-12

    def test_odd_trailing_dropped(self):
        a = np.arange(15.0).reshape(3, 5)
        out = downsample2_arr(a)
        assert out.shape == (1, 2)

    def test_upsample_grad_is_adjoint(self):
        rng = np.random.default_rng(4)
        a = rng.normal(size=(9, 7))
        g = rng.normal(size=(4, 3))
        lhs = np.sum(g * downsample2_arr(a))
        rhs = np.sum(upsample2_grad_arr(g, a.shape) * a)
        assert abs(lhs - rhs) < 1e-12


class TestPyramid:
    def test_single_level_is_input(self):
        plane = np.ones((4, 4))
        pyr = pyramid_arr(plane, 1)
        assert len(pyr) == 1
        assert pyr[0] is plane

    def test_16x16_three_levels(self):
        pyr = pyramid_arr(np.ones((16, 16)), 3)
        assert [lv.shape[1] for lv in pyr] == [16, 8, 4]

    def test_floor_halving_recurrence(self):
        pyr = pyramid_arr(np.ones((21, 13)), 3)
        assert [lv.shape for lv in pyr] == [(21, 13), (10, 6), (5, 3)]

    def test_constant_stays_constant(self):
        for lv in pyramid_arr(np.full((16, 16), 0.6), 4):
            assert np.allclose(lv, 0.6)

    def test_grid_too_small(self):
        # The third halving of a 4x4 plane meets a 1x1 raster.
        with pytest.raises(GridTooSmall):
            pyramid_arr(np.ones((4, 4)), 4)

    def test_grad_is_adjoint(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(21, 13))
        pyr = pyramid_arr(a, 3)
        gs = [rng.normal(size=lv.shape) for lv in pyr]
        lhs = sum(np.sum(g * lv) for g, lv in zip(gs, pyr))
        rhs = np.sum(pyramid_grad_arr(gs) * a)
        assert abs(lhs - rhs) < 1e-12


class TestInverseDepthMap:
    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            InverseDepthMap.from_array(np.array([[-0.1]]))

    def test_values_roundtrip(self):
        d = InverseDepthMap.from_array(np.full((3, 3), 0.5))
        assert np.array_equal(d.values, np.full((3, 3), 0.5))

    def test_holds_a_copy_of_the_callers_array(self):
        # A later write to the caller's array cannot bring back a negative
        # value the check rejected, and the caller's array stays writable.
        d = np.full((3, 3), 0.5)
        m = InverseDepthMap.from_array(d)
        d[0, 0] = -1.0
        assert m.values.min() == 0.5
        a = np.full((3, 3, 1), 0.5)
        ImageBuffer(a)
        assert a.flags.writeable
        a[0, 0, 0] = 1.0
