import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dvokit.dvo import build_jacobian, update_pose
from dvokit.geometry import (
    EPSILON_Z,
    CameraIntrinsics,
    Pose6D,
    pose_from_matrix,
    skew,
    so3_exp,
    so3_log,
)
from dvokit.warp import warp_and_sample

SETTINGS = settings(max_examples=200, deadline=None, derandomize=True)

# Unit intrinsics: normalized and pixel coordinates coincide.
UNIT_K = CameraIntrinsics(1.0, 1.0, 0.0, 0.0)


def series_exp(omega, terms=30):
    """Truncated Taylor-series matrix exponential, the independent oracle."""
    K = skew(omega)
    out = np.eye(3)
    term = np.eye(3)
    for k in range(1, terms):
        term = term @ K / k
        out = out + term
    return out


def warp(X, R=np.eye(3), t=np.zeros(3), plane=np.zeros((4, 4))):
    """``(up, vp, mask)`` of the points ``X`` (4, N) warped by ``(R, t)``.

    ``up`` and ``vp`` are the projected normalized coordinates that
    ``warp_and_sample`` hands to the sampler (through ``UNIT_K``).
    """
    _, mask, lin = warp_and_sample(plane, np.asarray(X, dtype=float), R, t, UNIT_K,
                                   grad=True)
    return lin.up, lin.vp, mask


def warp_jacobian(X, shape, k):
    """(N, 2, 6) warp Jacobians at the identity pose, read off ``build_jacobian``.

    ``np.gradient`` of a unit ramp is exactly 1 along it and 0 across it,
    so ``J / fx`` on a horizontal ramp and ``J / fy`` on a vertical one
    are the two rows of the 2x6 warp Jacobian.  ``shape`` is any (H, W)
    with H * W equal to the number of points.
    """
    h, w = shape
    ramp_x = np.tile(np.arange(float(w)), (h, 1))
    ramp_y = np.tile(np.arange(float(h))[:, None], (1, w))
    Jx, _ = build_jacobian(ramp_x, X, k)
    Jy, _ = build_jacobian(ramp_y, X, k)
    return np.stack((Jx / k.fx, Jy / k.fy), axis=1)


def homogeneous(R, t):
    T = np.eye(4)
    T[:3, :3] = R
    T[:3, 3] = t
    return T


def updated(delta: Pose6D, p: Pose6D):
    """4x4 matrix of ``update_pose(delta, p)``."""
    R, t, _ = update_pose(delta.as_vector(), so3_exp(p.omega), p.t)
    return homogeneous(R, t)


class TestRodrigues:
    def test_zero_rotation_is_identity(self):
        assert np.array_equal(so3_exp(np.zeros(3)), np.eye(3))

    def test_half_turn_about_z(self):
        R = so3_exp([0.0, 0.0, np.pi])
        assert np.allclose(R, np.diag([-1.0, -1.0, 1.0]), atol=1e-12)

    def test_matches_series_oracle(self):
        R = so3_exp([0.1, 0.2, 0.3])
        assert np.max(np.abs(R - series_exp([0.1, 0.2, 0.3]))) < 1e-12

    def test_orthonormal_unit_determinant(self):
        rng = np.random.default_rng(7)
        for _ in range(10_000):
            R = so3_exp(rng.normal(size=3))
            assert np.max(np.abs(R.T @ R - np.eye(3))) < 1e-10
            assert abs(np.linalg.det(R) - 1.0) < 1e-10

    def test_inverse_is_negated_coordinates(self):
        rng = np.random.default_rng(8)
        for _ in range(100):
            w = rng.normal(size=3)
            assert np.max(np.abs(so3_exp(w) @ so3_exp(-w) - np.eye(3))) < 1e-10

    def test_small_angle_branch(self):
        w = np.array([1e-9, -2e-9, 1.5e-9])
        assert np.max(np.abs(so3_exp(w) - series_exp(w))) < 1e-15


class TestProject:
    # With R = I, t = 0 and X = [P, 0] the warp projects the point P itself.
    def test_forced_arithmetic(self):
        up, vp, _ = warp([[2.0, 3.0], [4.0, -6.0], [2.0, 3.0], [0.0, 0.0]])
        assert (up[0], vp[0]) == (1.0, 2.0)
        assert (up[1], vp[1]) == (1.0, -2.0)

    def test_optical_axis(self):
        up, vp, mask = warp([[0.0], [0.0], [1.0], [0.0]])
        assert (up[0], vp[0]) == (0.0, 0.0)
        assert mask[0]

    def test_behind_camera(self):
        # All five points lie on the line through the camera center and the
        # in-view pixel (1, 1); only the first is in front of the camera.
        z = [1.0, 0.0, 1e-7, EPSILON_Z, -2.0]
        up, vp, mask = warp([z, z, z, np.zeros(5)])
        assert mask.tolist() == [True, False, False, False, False]
        assert np.all(np.isfinite(up)) and np.all(np.isfinite(vp))


class TestWarpPoint:
    def test_identity_pose_fixes_everything(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            u, v = rng.uniform(-1, 1, size=2)
            d = float(rng.uniform(0, 3))
            up, vp, _ = warp([[u], [v], [1.0], [d]])
            assert (up[0], vp[0]) == (u, v)

    def test_point_at_infinity_ignores_translation(self):
        up, vp, _ = warp([[0.3], [-0.2], [1.0], [0.0]], t=np.array([5.0, -2.0, 1.0]))
        assert (up[0], vp[0]) == (0.3, -0.2)

    def test_forced_arithmetic(self):
        up, vp, _ = warp([[0.0], [0.0], [1.0], [2.0]], t=np.array([0.1, 0.0, 0.0]))
        assert np.allclose([up[0], vp[0]], [0.2, 0.0], atol=1e-15)


class TestWarpJacobianIdentity:
    def test_translation_block_at_optical_axis(self):
        k = CameraIntrinsics(8.0, 6.0, 0.0, 0.0)
        X = np.array([[0.0], [0.0], [1.0], [1.5]])
        J = warp_jacobian(np.repeat(X, 4, axis=1), (2, 2), k)
        assert np.allclose(J[:, :, :3], 1.5 * np.array([[1, 0, 0], [0, 1, 0]], dtype=float))

    def test_zero_depth_kills_translation_block(self):
        X = np.array([[0.4], [-0.7], [1.0], [0.0]])
        J = warp_jacobian(np.repeat(X, 4, axis=1), (2, 2), UNIT_K)
        assert np.array_equal(J[:, :, :3], np.zeros((4, 2, 3)))

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(2)
        draws = [(rng.uniform(-0.8, 0.8, size=2), rng.uniform(0.0, 2.0)) for _ in range(1000)]
        X = np.array([[u, v, 1.0, d] for (u, v), d in draws]).T
        J = warp_jacobian(X, (25, 40), CameraIntrinsics(2.0, 3.0, 0.5, -1.0))
        h = 1e-6
        worst = 0.0
        for k in range(6):
            e = np.zeros(6)
            e[k] = h
            plus = warp(X, so3_exp(e[3:]), e[:3])
            minus = warp(X, so3_exp(-e[3:]), -e[:3])
            fd = np.stack((plus[0] - minus[0], plus[1] - minus[1]), axis=1) / (2 * h)
            worst = max(worst, np.max(np.abs(fd - J[:, :, k])))
        assert worst < 1e-6


class TestComposeLeft:
    # update_pose applies T(delta) @ T(p); the 4x4 product is the oracle.
    def test_identity_delta_keeps_pose(self):
        p = Pose6D([0.1, -0.2, 0.3], [0.2, 0.1, -0.3])
        T = updated(Pose6D.identity(), p)
        assert np.allclose(pose_from_matrix(T).as_vector(), p.as_vector(), atol=1e-12)

    def test_self_delta_gives_identity(self):
        p = Pose6D([0.1, -0.2, 0.3], [0.2, 0.1, -0.3])
        T = updated(p.inverse(), p)
        assert np.allclose(pose_from_matrix(T).as_vector(), np.zeros(6), atol=1e-12)

    def test_matches_matrix_product_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            a = Pose6D(rng.normal(size=3), rng.normal(size=3))
            b = Pose6D(rng.normal(size=3), rng.normal(size=3))
            T = updated(a, b)
            oracle = a.matrix() @ b.matrix()
            assert np.max(np.abs(T - oracle)) < 1e-10
            _, _, Rd = update_pose(a.as_vector(), np.eye(3), np.zeros(3))
            assert np.array_equal(Rd, so3_exp(a.omega))

    def test_associativity_with_transform_composition(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a, b, c = (Pose6D(rng.normal(size=3), rng.normal(size=3)) for _ in range(3))
            T = updated(a, pose_from_matrix(updated(b, c)))
            chained = a.matrix() @ b.matrix() @ c.matrix()
            assert np.max(np.abs(T - chained)) < 1e-9


class TestPoseTypes:
    def test_identity_constants(self):
        p = Pose6D.identity()
        assert np.array_equal(p.t, np.zeros(3))
        assert np.array_equal(p.omega, np.zeros(3))

    def test_omega_reduced_into_canonical_range(self):
        w = np.array([0.0, 0.0, 2.0 * np.pi + 0.3])
        p = Pose6D(np.zeros(3), w)
        assert np.linalg.norm(p.omega) <= np.pi
        assert np.max(np.abs(so3_exp(p.omega) - so3_exp(w))) < 1e-12

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            Pose6D([np.nan, 0, 0], np.zeros(3))

    def test_intrinsics_require_positive_focal(self):
        with pytest.raises(ValueError):
            CameraIntrinsics(0.0, 1.0, 0.0, 0.0)

    def test_pose_inverse_matches_matrix_inverse(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            p = Pose6D(rng.normal(size=3), rng.normal(size=3))
            assert np.max(np.abs(p.inverse().matrix() - np.linalg.inv(p.matrix()))) < 1e-12

    def test_pose_matrix_roundtrip(self):
        rng = np.random.default_rng(6)
        for _ in range(50):
            p = Pose6D(rng.normal(size=3), rng.normal(size=3))
            q = pose_from_matrix(p.matrix())
            assert np.allclose(q.as_vector(), p.as_vector(), atol=1e-10)


@st.composite
def rotations(draw):
    """Exponential coordinates with |omega| from 1e-12 to within 1e-12 of pi,
    with extra weight at both ends."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    axis = rng.normal(size=3)
    axis /= np.linalg.norm(axis)
    theta = draw(st.one_of(
        st.floats(1e-12, np.pi - 1e-12),
        st.floats(-12.0, 0.0).map(lambda e: 10.0 ** e),
        st.floats(-12.0, 0.0).map(lambda e: np.pi - 10.0 ** e),
    ))
    return theta * axis


@st.composite
def poses(draw):
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    return Pose6D(rng.uniform(-10.0, 10.0, size=3), draw(rotations()))


class TestGeometryProperties:
    @SETTINGS
    @given(rotations())
    def test_log_inverts_exp(self, omega):
        # so3_log switches to its near-pi branch at pi - theta < 1e-6; just
        # above it the general branch divides by sin(theta) and loses digits.
        R = so3_exp(omega)
        tol = 1e-12 if np.linalg.norm(omega) <= 3.0 else 1e-9
        assert np.max(np.abs(so3_exp(so3_log(R)) - R)) < tol

    @SETTINGS
    @given(poses())
    def test_inverse_matches_matrix_inverse(self, p):
        assert np.max(np.abs(p.inverse().matrix() - np.linalg.inv(p.matrix()))) < 1e-12

    @SETTINGS
    @given(poses(), poses())
    def test_update_pose_matches_matrix_product(self, delta, p):
        assert np.max(np.abs(updated(delta, p) - delta.matrix() @ p.matrix())) < 1e-12
