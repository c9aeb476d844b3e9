"""Camera model, pose math, and equirectangular mapping tests.

The mapping convention under test: theta = atan2(x, -z) wrapped to
[0, 2pi), phi = acos(y), px = (floor(theta/(2pi) * W) + W/2) mod W so the
-Z (forward) axis lands at the map center column.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litfield.errors import InvalidDepthError, PixelBoundsError
from litfield.geometry import (
    CameraFrame,
    ColorImage,
    DepthImage,
    Intrinsics,
    Observation,
    Pose,
    SphericalDir,
    classify_observation,
    dir_to_equirect,
    equirect_pixel_dirs,
    project,
    unproject,
)

K64 = Intrinsics(fx=50.0, fy=50.0, cx=32.0, cy=24.0, width=64, height=48)


def _rot_y(deg: float) -> np.ndarray:
    a = math.radians(deg)
    return np.array([[math.cos(a), 0, math.sin(a)],
                     [0, 1, 0],
                     [-math.sin(a), 0, math.cos(a)]])


def _unit(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v)


# ── Intrinsics / Pose invariants ─────────────────────────────────────────

class TestIntrinsics:
    def test_rejects_nonpositive_focal(self):
        with pytest.raises(ValueError):
            Intrinsics(0.0, 50.0, 32.0, 24.0, 64, 48)
        with pytest.raises(ValueError):
            Intrinsics(50.0, -1.0, 32.0, 24.0, 64, 48)

    def test_rejects_principal_point_outside(self):
        with pytest.raises(ValueError):
            Intrinsics(50.0, 50.0, 64.0, 24.0, 64, 48)
        with pytest.raises(ValueError):
            Intrinsics(50.0, 50.0, 32.0, -0.5, 64, 48)


class TestPose:
    def test_rejects_non_orthonormal(self):
        bad = np.eye(3)
        bad[0, 0] = 1.1
        with pytest.raises(ValueError):
            Pose(bad, np.zeros(3))

    def test_rejects_reflection(self):
        refl = np.diag([1.0, 1.0, -1.0])
        with pytest.raises(ValueError):
            Pose(refl, np.zeros(3))

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_rejects_non_finite_translation(self, value):
        for axis in range(3):
            t = np.zeros(3)
            t[axis] = value
            with pytest.raises(ValueError, match="translation must be finite"):
                Pose(np.eye(3), t)

    def test_compose_inverse_is_identity(self):
        p = Pose(_rot_y(33.0), np.array([0.4, -0.2, 1.0]))
        q = p.compose(p.inverse())
        assert np.allclose(q.rotation, np.eye(3), atol=1e-12)
        assert np.allclose(q.translation, 0.0, atol=1e-12)

    def test_matrix_round_trip(self):
        p = Pose(_rot_y(-71.0), np.array([1.0, 2.0, 3.0]))
        q = Pose.from_matrix(p.matrix())
        assert np.allclose(q.rotation, p.rotation)
        assert np.allclose(q.translation, p.translation)

    @pytest.mark.parametrize("shape", [(3,), (1000, 3), (7, 11, 3)])
    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_transform_is_the_matrix_product_bit_for_bit(self, shape, dtype):
        rng = np.random.default_rng(5)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        if np.linalg.det(q) < 0:
            q[:, 0] = -q[:, 0]
        p = Pose(q, rng.normal(size=3) * 10.0)
        points = (rng.normal(size=shape) * 3.0).astype(dtype)
        got = p.transform(points)
        want = points @ p.rotation.T + p.translation
        assert got.shape == shape and got.dtype == want.dtype
        assert np.array_equal(got, want)


# ── SphericalDir ─────────────────────────────────────────────────────────

class TestSphericalDir:
    @pytest.mark.parametrize("vec", [
        (0, 0, -1), (0, 0, 1), (1, 0, 0), (-1, 0, 0),
        (0, 1, 0), (0, -1, 0), (0.3, 0.5, -0.8),
    ])
    def test_unit_round_trip(self, vec):
        d = SphericalDir.from_unit(_unit(vec))
        assert 0.0 <= d.theta < 2.0 * math.pi
        assert 0.0 <= d.phi <= math.pi
        assert np.allclose(d.to_unit(), _unit(vec), atol=1e-9)


# ── unproject ────────────────────────────────────────────────────────────

class TestUnproject:
    def test_principal_ray(self):
        p = unproject(K64.cx, K64.cy, 1.0, K64, Pose.identity())
        assert np.allclose(p, (0.0, 0.0, -1.0), atol=1e-12)

    def test_translation_additivity(self):
        pose = Pose(np.eye(3), np.array([1.0, 0.0, 0.0]))
        p = unproject(K64.cx, K64.cy, 2.0, K64, pose)
        assert np.allclose(p, (1.0, 0.0, -2.0), atol=1e-12)

    def test_one_focal_length_right_of_center(self):
        # (u - cx)/fx = 1 at u = cx + fx, so the camera-space ray is
        # (1, 0, -1) and depth 1 lands exactly there. Wide FoV keeps the
        # pixel in bounds.
        k = Intrinsics(fx=20.0, fy=20.0, cx=32.0, cy=24.0, width=64, height=48)
        p = unproject(k.cx + k.fx, k.cy, 1.0, k, Pose.identity())
        assert np.allclose(p, (1.0, 0.0, -1.0), atol=1e-12)

    def test_rejects_nonpositive_depth(self):
        with pytest.raises(InvalidDepthError):
            unproject(K64.cx, K64.cy, 0.0, K64, Pose.identity())
        with pytest.raises(InvalidDepthError):
            unproject(K64.cx, K64.cy, -1.0, K64, Pose.identity())

    def test_rejects_out_of_bounds_pixel(self):
        with pytest.raises(PixelBoundsError):
            unproject(-1.0, 0.0, 1.0, K64, Pose.identity())
        with pytest.raises(PixelBoundsError):
            unproject(0.0, K64.height + 1.0, 1.0, K64, Pose.identity())

    @given(u=st.floats(0, 63), v=st.floats(0, 47),
           d=st.floats(0.01, 50.0))
    @settings(max_examples=200, deadline=None)
    def test_reprojection_recovers_pixel(self, u, v, d):
        pose = Pose(_rot_y(40.0), np.array([0.3, 0.1, -0.2]))
        world = unproject(u, v, d, K64, pose)
        pu, pv, depth = project(world, K64, pose)
        assert abs(pu - u) < 1e-6
        assert abs(pv - v) < 1e-6
        assert depth == pytest.approx(d, abs=1e-9)


# ── classify_observation ─────────────────────────────────────────────────

class TestClassifyObservation:
    def test_point_on_principal_ray_is_near(self):
        rec = np.array([0.0, 0.0, -1.0])
        assert classify_observation(Pose.identity(), K64, rec) \
            is Observation.NEAR_FIELD

    def test_point_behind_camera_is_far(self):
        rec = np.array([0.0, 0.0, 1.0])
        assert classify_observation(Pose.identity(), K64, rec) \
            is Observation.FAR_FIELD

    def test_image_edge_ray_inclusive(self):
        # A point on the exact u=0 edge ray: camera x/z slope = -cx/fx.
        rec = np.array([-K64.cx / K64.fx, 0.0, -1.0])
        assert classify_observation(Pose.identity(), K64, rec) \
            is Observation.NEAR_FIELD

    @given(angle=st.floats(-180, 180),
           tx=st.floats(-5, 5), ty=st.floats(-5, 5), tz=st.floats(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_invariant_under_joint_rigid_transform(self, angle, tx, ty, tz):
        rec = np.array([0.2, -0.1, -2.0])
        base = Pose(_rot_y(10.0), np.array([0.0, 0.1, 0.3]))
        before = classify_observation(base, K64, rec)
        rig = Pose(_rot_y(angle), np.array([tx, ty, tz]))
        moved_pose = rig.compose(base)
        moved_rec = rig.transform(rec)
        assert classify_observation(moved_pose, K64, moved_rec) == before


# ── dir_to_equirect ──────────────────────────────────────────────────────

class TestDirToEquirect:
    def test_forward_maps_to_center(self):
        assert dir_to_equirect(np.array([0.0, 0.0, -1.0]), 1024, 512) \
            == (512, 256)

    def test_up_maps_to_top_row_col0(self):
        assert dir_to_equirect(np.array([0.0, 1.0, 0.0]), 1024, 512) == (0, 0)

    def test_down_maps_to_bottom_row_col0(self):
        px, py = dir_to_equirect(np.array([0.0, -1.0, 0.0]), 1024, 512)
        assert (px, py) == (0, 511)

    def test_plus_x_maps_to_three_quarters(self):
        # theta = atan2(1, 0) = pi/2 -> theta/(2pi)*W = 256; +W/2 -> 768.
        assert dir_to_equirect(np.array([1.0, 0.0, 0.0]), 1024, 512) \
            == (768, 256)

    def test_rejects_non_unit(self):
        with pytest.raises(ValueError):
            dir_to_equirect(np.array([0.0, 0.0, -2.0]), 1024, 512)


class TestEquirectPixelDirs:
    def test_shapes_and_unit_norm(self):
        d = equirect_pixel_dirs(64, 32)
        assert d.shape == (32, 64, 3)
        assert np.allclose(np.linalg.norm(d, axis=2), 1.0, atol=1e-12)

    def test_inverse_of_forward_mapping(self):
        # The center direction of each pixel must map back to that pixel.
        w, h = 64, 32
        dirs = equirect_pixel_dirs(w, h).reshape(-1, 3)
        got = [py * w + px for px, py in (dir_to_equirect(d, w, h) for d in dirs)]
        assert got == list(range(h * w))


# ── frame containers ─────────────────────────────────────────────────────

class TestImages:
    def test_color_image_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            ColorImage(4, 4, np.full((4, 4, 3), 1.5))

    def test_depth_image_rejects_negative(self):
        with pytest.raises(ValueError):
            DepthImage(4, 4, np.full((4, 4), -1.0),
                       np.full((4, 4), 2, np.uint8))

    def test_depth_image_confidence_range(self):
        conf = np.full((4, 4), 2, np.uint8)
        DepthImage(4, 4, np.ones((4, 4)), conf)
        conf[1, 2] = 3
        with pytest.raises(ValueError, match="confidence"):
            DepthImage(4, 4, np.ones((4, 4)), conf)

    @pytest.mark.parametrize("value", [np.nan, np.inf, 1.5])
    @pytest.mark.parametrize("pixel", [(0, 0, 0), (-1, -1, -1)])
    def test_color_image_rejects_non_finite_and_above_one(self, value, pixel):
        px = np.full((4, 6, 3), 0.5)
        px[pixel] = value
        with pytest.raises(ValueError, match="pixel values"):
            ColorImage(6, 4, px)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf, -1.0])
    @pytest.mark.parametrize("pixel", [(0, 0), (-1, -1)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_depth_image_rejects_non_finite_and_negative(self, value, pixel,
                                                         dtype):
        d = np.ones((4, 6), dtype)
        d[pixel] = value
        with pytest.raises(ValueError, match="depth values must be finite"):
            DepthImage(6, 4, d, np.full((4, 6), 2, np.uint8))

    @pytest.mark.parametrize("value", [3, 255])
    @pytest.mark.parametrize("pixel", [(0, 0), (-1, -1)])
    def test_depth_image_rejects_confidence_above_two(self, value, pixel):
        conf = np.full((4, 6), 2, np.uint8)
        conf[pixel] = value
        with pytest.raises(ValueError, match="confidence"):
            DepthImage(6, 4, np.ones((4, 6)), conf)

    def test_depth_image_keeps_float32_depth(self):
        d = np.ones((4, 6), np.float32)
        depth = DepthImage(6, 4, d, np.full((4, 6), 2, np.uint8))
        assert depth.depth is d
        assert DepthImage(6, 4, np.ones((4, 6), int),
                          np.full((4, 6), 2, np.uint8)).depth.dtype == np.float64

    def test_camera_frame_holds_parts(self):
        color = ColorImage(8, 4, np.zeros((4, 8, 3)))
        depth = DepthImage(8, 4, np.ones((4, 8)), np.full((4, 8), 2, np.uint8))
        k = Intrinsics(5.0, 5.0, 4.0, 2.0, 8, 4)
        f = CameraFrame(color=color, depth=depth, intrinsics=k,
                        pose=Pose.identity())
        assert f.color.width == 8 and f.depth.height == 4
