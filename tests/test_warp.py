"""Property tests for the fused bilinear sampler and the shared warp VJP."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from dvokit.errors import DegenerateOverlap
from dvokit.geometry import CameraIntrinsics, so3_exp, so3_exp_vjp
from dvokit.imaging import bilinear_many
from dvokit.warp import in_view, points, warp_and_sample, warp_vjp

SETTINGS = settings(max_examples=60, deadline=None, derandomize=True)


@st.composite
def planes_and_coordinates(draw):
    """A random plane and coordinates that mix generic points, lattice
    points, the last row and column, and points just outside the raster."""
    h = draw(st.integers(2, 9))
    w = draw(st.integers(2, 9))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    plane = rng.uniform(-1.0, 1.0, size=(h, w))
    n = 64

    def axis(size):
        special = np.array([0.0, size - 1.0, size - 1.0 - 1e-12, -1e-12,
                            size - 1.0 + 1e-12, size - 2.0, -0.5, size - 0.5])
        generic = rng.uniform(-1.5, size + 0.5, size=n)
        lattice = rng.integers(0, size, size=n).astype(float)
        return np.where(rng.random(n) < 0.3, rng.choice(special, size=n),
                        np.where(rng.random(n) < 0.3, lattice, generic))

    return plane, axis(w), axis(h)


class TestFusedSampler:
    @SETTINGS
    @given(planes_and_coordinates())
    def test_matches_reference(self, case):
        plane, xs, ys = case
        vals, in_view, gx, gy = bilinear_many(plane, xs, ys, grad=True)
        ref_vals, ref_in_view = oracles.bilinear_many(plane, xs, ys)
        ref_gx, ref_gy = oracles.bilinear_grad_many(plane, xs, ys)
        assert np.array_equal(in_view, ref_in_view)
        assert np.max(np.abs(vals - ref_vals)) <= 1e-12
        assert np.max(np.abs(gx - ref_gx)) <= 1e-12
        assert np.max(np.abs(gy - ref_gy)) <= 1e-12
        plain_vals, plain_in_view = bilinear_many(plane, xs, ys)
        assert np.array_equal(plain_vals, vals)
        assert np.array_equal(plain_in_view, in_view)

    @SETTINGS
    @given(planes_and_coordinates())
    def test_matches_fused_expressions_bit_for_bit(self, case):
        # The sampler computes into its own temporaries; the values are
        # those of the plain expressions, and the caller's coordinates stay.
        plane, xs, ys = case
        xs_in, ys_in = xs.copy(), ys.copy()
        for grad in (False, True):
            got = bilinear_many(plane, xs, ys, grad)
            ref = oracles.bilinear_many_fused(plane, xs, ys, grad)
            assert len(got) == len(ref)
            assert all(np.array_equal(a, b) for a, b in zip(got, ref))
        assert np.array_equal(xs, xs_in) and np.array_equal(ys, ys_in)

    @SETTINGS
    @given(planes_and_coordinates())
    def test_out_of_view_is_zero_and_flagged(self, case):
        plane, xs, ys = case
        h, w = plane.shape
        vals, in_view = bilinear_many(plane, xs, ys)
        outside = (xs < 0.0) | (xs > w - 1.0) | (ys < 0.0) | (ys > h - 1.0)
        assert np.array_equal(in_view, ~outside)
        assert np.all(vals[outside] == 0.0)

    @SETTINGS
    @given(st.integers(2, 9), st.integers(2, 9), st.integers(0, 2**32 - 1))
    def test_every_lattice_point_is_exact(self, h, w, seed):
        # Includes the last row and column, where the cell shifts by one.
        plane = np.random.default_rng(seed).uniform(-1.0, 1.0, size=(h, w))
        ys, xs = np.mgrid[0:h, 0:w].astype(float)
        vals, in_view = bilinear_many(plane, xs.ravel(), ys.ravel())
        assert np.all(in_view)
        assert np.array_equal(vals, plane.ravel())


def _cells(X, R, t, k, shape):
    """Bilinear cell and validity of every warped point (the kinks of the warp)."""
    h, w = shape
    P = np.column_stack((R, t)) @ X
    z = np.where(P[2] > 1e-6, P[2], 1.0)
    px = np.clip(P[0] / z * k.fx + k.cx, 0.0, w - 1.0)
    py = np.clip(P[1] / z * k.fy + k.cy, 0.0, h - 1.0)
    x0 = np.minimum(np.floor(px), w - 2)
    y0 = np.minimum(np.floor(py), h - 2)
    _, mask = warp_and_sample(np.zeros(shape), X, R, t, k)
    return np.stack((x0, y0, mask))


@st.composite
def warp_cases(draw):
    h = draw(st.integers(4, 10))
    w = draw(st.integers(4, 10))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = CameraIntrinsics(float(w), float(w), (w - 1) / 2.0, (h - 1) / 2.0)
    plane = rng.uniform(0.0, 1.0, size=(h, w))
    depth = rng.uniform(0.2, 1.0, size=(h, w))
    t = rng.uniform(-0.1, 0.1, size=3)
    omega = rng.uniform(-0.05, 0.05, size=3)
    g = rng.normal(size=h * w)
    return plane, depth, t, omega, k, g, rng


def _check_direction(f, theta, direction, analytic, kinks):
    """Central difference of ``f`` along ``direction`` against ``analytic``.

    Samples whose bilinear cell or validity changes inside the step sit on
    a kink of the warp, where no derivative exists; they are left out.
    """
    step = 1e-6
    plus, minus = theta + step * direction, theta - step * direction
    keep = np.all(kinks(plus) == kinks(minus), axis=0) & np.all(
        kinks(plus) == kinks(theta), axis=0)
    numeric = (f(plus, keep) - f(minus, keep)) / (2.0 * step)
    exact = analytic(keep)
    assert abs(numeric - exact) <= 1e-4 * max(abs(numeric), abs(exact), 1e-8)


class TestSinglePassWarp:
    @SETTINGS
    @given(warp_cases())
    def test_warp_and_vjp_match_plain_expressions_bit_for_bit(self, case):
        # The warp and its VJP compute into their own buffers; the samples,
        # the linearization and the VJP are those of the plain expressions.
        plane, depth, t, omega, k, g, rng = case
        R = so3_exp(omega)
        X = points(k, depth)
        if rng.random() < 0.5:
            # Push part of the points behind the camera or out of view.
            X = X * rng.choice([1.0, -1.0, 4.0], size=X.shape[1])
        for grad in (False, True):
            got = warp_and_sample(plane, X, R, t, k, grad)
            ref = oracles.warp_and_sample(plane, X, R, t, k, grad)
            assert all(a.tobytes() == b.tobytes() for a, b in zip(got[:2], ref[:2]))
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got[2], ref[2]))
        # Samples out of view may carry anything; they pass no gradient.
        g = np.where(got[1] | (rng.random(g.size) < 0.5), g, np.nan)
        got_vjp = warp_vjp(X, t, got[2], g)
        ref_vjp = oracles.warp_vjp(X, t, ref[2], g)
        assert all(a.tobytes() == b.tobytes() for a, b in zip(got_vjp, ref_vjp))


class TestWarpVjp:
    @SETTINGS
    @given(warp_cases())
    def test_depth_gradient(self, case):
        plane, depth, t, omega, k, g, rng = case
        R = so3_exp(omega)

        def f(d, keep):
            vals, mask = warp_and_sample(plane, points(k, d), R, t, k)
            return np.sum(np.where(keep & mask, g, 0.0) * vals)

        def analytic(keep):
            X = points(k, depth)
            _, _, lin = warp_and_sample(plane, X, R, t, k, grad=True)
            g_depth, _, _ = warp_vjp(X, t, lin, np.where(keep, g, 0.0))
            return float(g_depth @ direction.ravel())

        direction = rng.normal(size=depth.shape)
        _check_direction(
            f, depth, direction, analytic,
            lambda d: _cells(points(k, d), R, t, k, plane.shape),
        )

    @SETTINGS
    @given(warp_cases())
    def test_translation_gradient(self, case):
        plane, depth, t, omega, k, g, rng = case
        R = so3_exp(omega)
        X = points(k, depth)

        def f(tt, keep):
            vals, mask = warp_and_sample(plane, X, R, tt, k)
            return np.sum(np.where(keep & mask, g, 0.0) * vals)

        def analytic(keep):
            _, _, lin = warp_and_sample(plane, X, R, t, k, grad=True)
            _, g_t, _ = warp_vjp(X, t, lin, np.where(keep, g, 0.0))
            return float(g_t @ direction)

        direction = rng.normal(size=3)
        _check_direction(f, t, direction, analytic,
                         lambda tt: _cells(X, R, tt, k, plane.shape))

    @SETTINGS
    @given(warp_cases())
    def test_rotation_gradient(self, case):
        plane, depth, t, omega, k, g, rng = case
        X = points(k, depth)

        def f(w, keep):
            vals, mask = warp_and_sample(plane, X, so3_exp(w), t, k)
            return np.sum(np.where(keep & mask, g, 0.0) * vals)

        def analytic(keep):
            R = so3_exp(omega)
            _, _, lin = warp_and_sample(plane, X, R, t, k, grad=True)
            _, _, g_R = warp_vjp(X, t, lin, np.where(keep, g, 0.0))
            return float(so3_exp_vjp(omega, R, g_R) @ direction)

        direction = rng.normal(size=3)
        _check_direction(f, omega, direction, analytic,
                         lambda w: _cells(X, so3_exp(w), t, k, plane.shape))


def test_in_view_counts_the_points_in_view():
    assert in_view(np.array([True, False, True, True])) == 3
    with pytest.raises(DegenerateOverlap, match="only 20.0% of pixels warp in view"):
        in_view(np.array([True, False, False, False, False]))
