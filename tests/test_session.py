"""Session lifecycle tests: presets, near/far ingestion, and composition.

Pipeline-level tests run on a deliberately small custom configuration so
each ingest stays in the millisecond range; preset tables are checked
against their exact published values.
"""

from __future__ import annotations

import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from litfield import farfield, protocol
from litfield import session as session_mod
from litfield.capture import plan_guided_movement
from litfield.errors import ConfigurationError, InvalidDepthError, PointCapacityError
from litfield.geometry import (CameraFrame, ColorImage, DepthImage, Intrinsics, Pose,
                               camera_ray)
from litfield.harness.scene import (
    SyntheticScene,
    FaceAppearance,
    default_scene,
    ground_truth_envmap,
    look_at,
    render_rgbd,
)
from litfield import nearfield
from litfield.nearfield import (
    BOUNDARY_SIDE,
    EnvMapLayer,
    PointCloud,
    filter_boundary,
    merge_multires,
    project_multires,
    resample_nearest,
)
from litfield.session import (
    FAR_CAPTURE_RES,
    EnvironmentMap,
    Preset,
    SessionConfig,
    create_session,
    preset_config,
)

GRAY = np.array([0.5, 0.5, 0.5])

K_SMALL = Intrinsics(fx=40.0, fy=40.0, cx=32.0, cy=24.0, width=64, height=48)
K_FAR = Intrinsics(fx=20.0, fy=15.0, cx=16.0, cy=12.0, width=32, height=24)
# Half a step of 8-bit color, and a float64 ulp of slack: a near color is
# its point color quantized, read back as k/255.
LSB_HALF = 0.5 / 255.0 + 1e-12


def _small_room() -> SyntheticScene:
    """Six-color room small enough to sit inside the 2 m near-field box."""
    colors = {
        "floor": (0.55, 0.35, 0.15), "ceiling": (0.95, 0.95, 0.9),
        "x_min": (0.8, 0.2, 0.2), "x_max": (0.2, 0.8, 0.2),
        "z_min": (0.2, 0.2, 0.8), "z_max": (0.8, 0.8, 0.2),
    }
    return SyntheticScene(
        np.array([-0.9, 0.5, -0.9]), np.array([0.9, 2.3, 0.9]),
        {name: FaceAppearance(color=c) for name, c in colors.items()})


def _small_config(**overrides):
    base = dict(num_views=3, near_capture_res=(64, 48),
                multires_levels=((128, 64), (64, 32)), envmap_res=(128, 64))
    return SessionConfig(**(base | overrides))


def _small_session(scene=None, rec_pos=(0.0, 1.4, 0.0), **overrides):
    sess = create_session(np.asarray(rec_pos, dtype=float),
                          _small_config(**overrides), (64, 48), GRAY)
    return sess


def _frame(scene, eye, target, view_id=0, k=K_SMALL):
    return render_rgbd(scene, look_at(eye, target), k, view_id=view_id)


# ── presets and configuration ────────────────────────────────────────────

class TestPresets:
    def test_low(self):
        cfg = preset_config(Preset.LOW)
        assert cfg.num_views == 3
        assert cfg.near_capture_res == (256, 192)
        assert cfg.multires_levels == ((512, 256), (256, 128), (64, 32))
        assert cfg.envmap_res == (512, 256)

    def test_medium(self):
        cfg = preset_config(Preset.MEDIUM)
        assert cfg.num_views == 4
        assert cfg.near_capture_res == (512, 384)
        assert cfg.multires_levels == ((768, 384), (384, 192))
        assert cfg.envmap_res == (512, 256)

    def test_high(self):
        cfg = preset_config(Preset.HIGH)
        assert cfg.num_views == 5
        assert cfg.near_capture_res == (1024, 768)
        assert cfg.multires_levels == ((1024, 512), (512, 256))
        assert cfg.envmap_res == (1024, 512)

    def test_shared_defaults(self):
        assert FAR_CAPTURE_RES == (32, 24)
        assert farfield.DEFAULT_ANCHOR_COUNT == 1280
        assert farfield.DEFAULT_EXPONENT == 128
        assert BOUNDARY_SIDE == 2.0

    def test_custom_has_no_table_entry(self):
        with pytest.raises(ConfigurationError):
            preset_config(Preset.CUSTOM)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _small_config(num_views=0)
        with pytest.raises(ConfigurationError):
            _small_config(envmap_res=(128, 128))
        with pytest.raises(ConfigurationError):
            _small_config(multires_levels=())
        with pytest.raises(ConfigurationError, match="does not tile"):
            _small_config(multires_levels=((128, 64), (48, 24)))


class TestEnvironmentMap:
    def test_to_uint8_rounds_half_up(self):
        vals = np.array([0.0, 0.5 / 255.0, 0.49 / 255.0, 1.0, 1.5, -0.2])
        px = np.zeros((1, 6, 3))
        px[0, :, 0] = vals
        m = EnvironmentMap(6, 1, px)
        assert list(m.to_uint8()[0, :, 0]) == [0, 1, 0, 255, 255, 0]

    @pytest.mark.parametrize("dtype", [np.float64, np.float32])
    def test_to_uint8_ties_and_out_of_range(self, dtype):
        # 0.5 * 255 = 127.5 exactly: the tie rounds up. Every other value
        # quantizes exactly as the reference formula does in float64,
        # whatever the input's dtype, including the ties k + 0.5 as that
        # dtype stores them.
        ties = (np.arange(255) + 0.5) / 255.0
        near = np.nextafter(ties, [[-1.0], [2.0]]).ravel()
        extremes = [-np.inf, -1e30, -0.2, -0.0, 1.0 + 1e-7, 1.5, 255.0, 1e30, np.inf]
        vals = np.concatenate([[0.5], ties, near, extremes]).astype(dtype)
        m = EnvironmentMap(len(vals), 1, np.repeat(vals[None, :, None], 3, axis=2))
        out = m.to_uint8()
        assert out[0, 0, 0] == 128
        wide = vals.astype(np.float64)
        expect = np.floor(np.clip(wide, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        assert np.array_equal(out[0, :, 0], expect)
        if dtype is np.float32:  # the formula in float32 rounds some of them up
            narrow = np.floor(np.clip(vals, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
            assert not np.array_equal(narrow, expect)
        assert out.dtype == np.uint8 and np.array_equal(out[..., 0], out[..., 2])

    def test_uint8_round_trip(self):
        rng = np.random.default_rng(3)
        data = rng.integers(0, 256, size=(4, 8, 3), dtype=np.uint8)
        m = EnvironmentMap.from_uint8(data)
        assert np.array_equal(m.to_uint8(), data)


# ── create_session ───────────────────────────────────────────────────────

class TestCreateSession:
    def test_high_preset_buffer_capacity(self):
        sess = create_session(np.zeros(3), preset_config(Preset.HIGH), (1024, 768),
                              GRAY)
        assert sess.buffer.num_views == 5
        assert sess.buffer.slot_capacity == 1024 * 768

    def test_initial_compose_is_uniform_ambient(self):
        sess = _small_session()
        composed = sess.compose()
        assert composed.pixels.shape == (64, 128, 3)
        assert np.allclose(composed.pixels, 0.5, atol=1e-9)

    def test_initial_near_map_fully_invalid(self):
        sess = _small_session()
        assert not sess.near_map.valid.any()
        assert np.all(np.isinf(sess.near_map.distance))

    def test_distinct_session_ids(self):
        a = _small_session()
        b = _small_session()
        assert a.session_id != b.session_id

    @pytest.mark.parametrize("rec_pos, ambient", [
        ((np.nan, 1.4, 0.0), GRAY), ((0.0, np.inf, 0.0), GRAY),
        ((0.0, 1.4, 0.0), (0.5, np.nan, 0.5)), ((0.0, 1.4, 0.0), (np.inf, 0.5, 0.5)),
        ((0.0, 1.4, 0.0), (0.5, 0.5, 1.01)), ((0.0, 1.4, 0.0), (-0.01, 0.5, 0.5)),
    ])
    def test_invalid_position_or_ambient_rejected(self, rec_pos, ambient):
        with pytest.raises(ConfigurationError):
            create_session(np.array(rec_pos), _small_config(), (64, 48),
                           np.array(ambient))

    def test_native_res_must_fit_a_slot(self):
        # _small_config captures 64x48 = 3072 pixels per view
        sess = create_session(np.zeros(3), _small_config(), (48, 64), GRAY)
        assert sess.native_res == (48, 64)
        for native_res in ((64, 49), (128, 25), (2048, 1536)):
            with pytest.raises(ConfigurationError, match="native_res"):
                create_session(np.zeros(3), _small_config(), native_res, GRAY)

    def test_ambient_bounds_inclusive(self):
        for ambient in (np.zeros(3), np.ones(3)):
            sess = create_session(np.zeros(3), _small_config(), (64, 48), ambient)
            assert np.allclose(sess.compose().pixels, ambient)

    def test_explicit_session_id_kept(self):
        sess = create_session(np.zeros(3), _small_config(), (64, 48), GRAY,
                              session_id=777)
        assert sess.session_id == 777


# ── ingest_near ──────────────────────────────────────────────────────────

class TestIngestNear:
    def test_first_frame_validates_pixels(self):
        scene = _small_room()
        sess = _small_session()
        near = sess.ingest_near(_frame(scene, (0.3, 1.4, 0.3), sess.rec_pos))
        assert near.valid.sum() > 0
        assert sess.anchors.observed.any()

    def test_missing_depth_rejected(self):
        sess = _small_session()
        color = ColorImage(64, 48, np.zeros((48, 64, 3)))
        frame = CameraFrame(color, K_SMALL, Pose.identity())
        with pytest.raises(InvalidDepthError):
            sess.ingest_near(frame)

    def test_idempotent_per_view_id(self):
        scene = _small_room()
        sess = _small_session()
        frame = _frame(scene, (0.3, 1.4, 0.3), sess.rec_pos, view_id=4)
        first = sess.ingest_near(frame)
        snapshot = (first.color.copy(), first.distance.copy(),
                    first.valid.copy())
        again = sess.ingest_near(frame)
        assert np.array_equal(again.color, snapshot[0])
        assert np.array_equal(again.distance, snapshot[1])
        assert np.array_equal(again.valid, snapshot[2])

    def test_oldest_view_evicted(self):
        scene = _small_room()
        sess = _small_session()  # num_views = 3
        eyes = [(0.4, 1.4, 0.0), (0.0, 1.4, 0.4), (-0.4, 1.4, 0.0),
                (0.0, 1.4, -0.4)]
        for vid, eye in enumerate(eyes):
            sess.ingest_near(_frame(scene, eye, sess.rec_pos, view_id=vid))
        assert sorted(sess.buffer.view_ids()) == [1, 2, 3]

    def test_frame_over_slot_capacity_rejected(self):
        cfg = preset_config(Preset.LOW)
        cw, ch = cfg.near_capture_res
        sess = create_session(np.zeros(3), cfg, (cw, ch), GRAY)
        tall = Intrinsics(200.0, 200.0, cw / 2, ch / 2, cw, ch + 1)
        frame = CameraFrame(
            ColorImage(cw, ch + 1, np.full((ch + 1, cw, 3), 0.25)), tall,
            Pose.identity(),
            DepthImage(cw, ch + 1, np.ones((ch + 1, cw)),
                       np.full((ch + 1, cw), 2, dtype=np.uint8)))
        with pytest.raises(PointCapacityError):
            sess.ingest_near(frame)
        assert len(sess.buffer) == 0
        assert not sess.anchors.observed.any()

    def test_all_low_confidence_updates_far_only(self):
        scene = _small_room()
        sess = _small_session()
        frame = _frame(scene, (0.3, 1.4, 0.3), sess.rec_pos)
        lowconf = CameraFrame(
            frame.color, frame.intrinsics, frame.pose,
            DepthImage(64, 48, frame.depth.depth,
                       np.zeros((48, 64), dtype=np.uint8)),
            view_id=frame.view_id)
        observed_before = int(sess.anchors.observed.sum())
        near = sess.ingest_near(lowconf)
        assert near.valid.sum() == 0
        assert len(sess.buffer) == 0
        assert int(sess.anchors.observed.sum()) > observed_before


    def test_unkept_keyframe_builds_one_cloud_and_projects_nothing(self, monkeypatch):
        scene = _small_room()
        sess = _small_session()
        for vid, eye in enumerate([(0.3, 1.4, 0.3), (-0.3, 1.4, 0.3)]):
            sess.ingest_near(_frame(scene, eye, sess.rec_pos, view_id=vid))
        frame = _frame(scene, (0.0, 1.4, -0.4), sess.rec_pos, view_id=2)
        lowconf = CameraFrame(
            frame.color, frame.intrinsics, frame.pose,
            DepthImage(64, 48, frame.depth.depth, np.zeros((48, 64), dtype=np.uint8)),
            view_id=frame.view_id)
        near = sess.near_map
        before = (near.color.copy(), near.distance.copy(), near.valid.copy())
        near_reply = sess.reply[near.valid]
        observed_before = int(sess.anchors.observed.sum())
        clouds = []
        generate = nearfield.generate_dense_cloud

        def counted_generate(*args):
            clouds.append(generate(*args))
            return clouds[-1]

        def no_project(buffer):
            raise AssertionError("the unchanged buffer was projected")

        monkeypatch.setattr(nearfield, "generate_dense_cloud", counted_generate)
        monkeypatch.setattr(nearfield.DensePointCloudBuffer, "project", no_project)
        sess.ingest_near(lowconf)
        assert len(clouds) == 1 and len(clouds[0]) == 0
        for got, want in zip((sess.near_map.color, sess.near_map.distance,
                              sess.near_map.valid), before):
            assert got.tobytes() == want.tobytes()
        assert sess.reply[before[2]].tobytes() == near_reply.tobytes()
        assert int(sess.anchors.observed.sum()) > observed_before
        assert np.array_equal(sess.reply, sess.compose().to_uint8())


def _hand_splat(sess, frame, mask):
    """Splat every stride-th pixel of mask, one per far-capture pixel, at
    its per-pixel unprojection in float32 and in the frame's float color."""
    fw, fh = FAR_CAPTURE_RES
    pixels = np.flatnonzero(mask)
    pixels = pixels[::max(1, len(pixels) // (fw * fh))]
    v, u = np.divmod(pixels, frame.depth.width)
    d = frame.depth.depth.astype(np.float64).reshape(-1)[pixels][:, None]
    positions = (d * camera_ray(u, v, frame.intrinsics)) @ frame.pose.rotation.T \
        + frame.pose.translation
    rel = positions.astype(np.float32) - sess.rec_pos
    dist = np.linalg.norm(rel, axis=1)
    keep = dist > 0
    farfield.splat_to_anchors(sess.anchors, rel[keep] / dist[keep, None],
                              frame.color.pixels.reshape(-1, 3)[pixels[keep]])


class TestNearSampleSet:
    """The far splat of a near keyframe samples its kept pixels, or its
    pixels with depth when none is kept, at a fixed stride."""

    @pytest.mark.parametrize("case", ["all kept", "some below threshold",
                                      "none kept", "no depth"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_anchors_equal_a_hand_splat(self, case, dtype):
        rendered = _frame(_small_room(), (0.3, 1.4, 0.3), (0.0, 1.4, 0.0), view_id=3)
        rng = np.random.default_rng(43)
        depth = rendered.depth.depth.astype(dtype)
        confidence = rendered.depth.confidence.copy()
        if case == "some below threshold":
            confidence[rng.random(confidence.shape) < 0.3] = 1
            confidence[rng.random(confidence.shape) < 0.1] = 0
        elif case == "none kept":
            confidence[:] = 0
            depth[rng.random(depth.shape) < 0.1] = 0.0
        elif case == "no depth":
            depth[:] = 0.0
        frame = CameraFrame(rendered.color, rendered.intrinsics, rendered.pose,
                            DepthImage(64, 48, depth, confidence), view_id=3)
        kept = (confidence >= nearfield.MIN_CONFIDENCE) & (depth > 0)
        mask = kept if kept.any() else depth > 0
        a, b = _small_session(), _small_session()
        a.ingest_near(frame)
        _hand_splat(b, frame, mask)
        assert a.anchors.colors.tobytes() == b.anchors.colors.tobytes()
        assert a.anchors.weights.tobytes() == b.anchors.weights.tobytes()
        assert np.array_equal(a.anchors.observed, b.anchors.observed)
        assert a.anchors.observed.any() == (case != "no depth")
        if case == "no depth":
            fresh = _small_session()
            assert a.far_map.color.tobytes() == fresh.far_map.color.tobytes()
            assert np.array_equal(a.reply, fresh.reply)
            assert not a.near_map.valid.any()


class TestWireFrameFarPath:
    """A wire near frame decodes to bytes, but its far splat reads the
    float decode at the sampled pixels, so anchors, far map and reply are
    bit for bit those of the same frame in float colors."""

    @pytest.mark.parametrize("case", ["all kept", "some low confidence", "none kept"])
    def test_equals_the_float_decode(self, case):
        rendered = _frame(_small_room(), (0.3, 1.4, 0.3), (0.0, 1.4, 0.0), view_id=3)
        rng = np.random.default_rng(41)
        depth = rendered.depth.depth.astype(np.float32)
        confidence = rendered.depth.confidence.copy()
        if case == "some low confidence":
            confidence[rng.random(confidence.shape) < 0.3] = 1
        elif case == "none kept":
            # the splat falls back to the pixels with depth, so it still
            # drops the zero depths
            confidence[:] = 0
            depth[rng.random(depth.shape) < 0.1] = 0.0
        packet = protocol.NearKeyframe(
            1, 3, rendered.pose, K_SMALL, protocol.rgb_to_ycbcr420(rendered.color),
            depth, confidence)
        wire = packet.to_camera_frame()
        assert wire.color.pixels.dtype == np.uint8
        floats = CameraFrame(protocol.ycbcr420_to_rgb(packet.color), wire.intrinsics,
                             wire.pose, wire.depth, view_id=wire.view_id)
        a, b = _small_session(), _small_session()
        a.ingest_near(wire)
        b.ingest_near(floats)
        assert a.anchors.observed.any()
        assert a.near_map.valid.any() == (case != "none kept")
        assert a.anchors.colors.tobytes() == b.anchors.colors.tobytes()
        assert a.far_map.color.tobytes() == b.far_map.color.tobytes()
        assert np.array_equal(a.reply, b.reply)
        assert np.array_equal(a.reply, a.compose().to_uint8())


# ── ingest_far ───────────────────────────────────────────────────────────

def _one_red_wall_scene() -> SyntheticScene:
    faces = {name: FaceAppearance(color=(0.5, 0.5, 0.5))
             for name in ("floor", "ceiling", "x_min", "x_max", "z_max")}
    faces["z_min"] = FaceAppearance(color=(1.0, 0.0, 0.0))
    return SyntheticScene(np.array([-3.0, 0.0, -3.0]),
                          np.array([3.0, 3.0, 3.0]), faces)


class TestIngestFar:
    def test_resolution_enforced(self):
        sess = _small_session()
        frame = render_rgbd(default_scene(),
                            look_at((0.5, 1.4, 0.5), (0, 1.4, 0)), K_SMALL)
        with pytest.raises(ConfigurationError):
            sess.ingest_far(frame)

    def test_red_wall_colors_forward_sector(self):
        # Camera looks down -Z at the red z_min wall; the center of the
        # far map (the -Z sector) must turn red-dominant while the back
        # sector stays at the gray ambient.
        scene = _one_red_wall_scene()
        sess = _small_session(scene)
        frame = render_rgbd(scene, look_at((0.0, 1.4, 0.0), (0.0, 1.4, -3.0)),
                            K_FAR)
        far = sess.ingest_far(frame)
        h, w = far.color.shape[:2]
        center = far.color[h // 2, w // 2]
        back = far.color[h // 2, 0]
        assert center[0] > 0.8 and center[1] < 0.2
        assert np.allclose(back, 0.5, atol=0.05)

    def test_more_frames_observe_more_anchors(self):
        scene = default_scene()
        one = _small_session(scene)
        one.ingest_far(render_rgbd(
            scene, look_at((0.0, 1.4, 0.0), (0.0, 1.4, -3.0)), K_FAR))
        nine = _small_session(scene)
        for dx in (-1.0, 0.0, 1.0):
            for dy in (-1.0, 0.0, 1.0):
                nine.ingest_far(render_rgbd(
                    scene, look_at((0.0, 1.4, 0.0), (2 * dx, 1.4 + 2 * dy, -3.0)),
                    K_FAR))
        assert nine.anchors.observed.sum() > one.anchors.observed.sum()

    def test_zero_frames_is_ambient(self):
        sess = _small_session()
        assert np.allclose(sess.far_map.color, 0.5, atol=1e-9)


# ── compose ──────────────────────────────────────────────────────────────

class TestCompose:
    def test_near_invalid_yields_far(self):
        sess = _small_session()
        assert np.allclose(sess.compose().pixels, sess.far_map.color)

    def test_near_valid_yields_near(self):
        sess = _small_session()
        w, h = sess.config.envmap_res
        color = np.full((h, w, 3), 64, dtype=np.uint8)
        sess.near_map = EnvMapLayer(w, h, color, np.ones((h, w)),
                                    np.ones((h, w), dtype=bool))
        assert np.array_equal(sess.compose().pixels, np.full((h, w, 3), 64 / 255.0))

    def test_checker_mask_selection(self):
        sess = _small_session()
        w, h = sess.config.envmap_res
        yy, xx = np.mgrid[0:h, 0:w]
        mask = (yy + xx) % 2 == 0
        color = np.full((h, w, 3), 230, dtype=np.uint8)
        dist = np.where(mask, 1.0, np.inf)
        sess.near_map = EnvMapLayer(w, h, color, dist, mask)
        expect = np.where(mask[:, :, None], color / 255.0, sess.far_map.color)
        assert np.allclose(sess.compose().pixels,
                           np.clip(expect, 0.0, 1.0))

    def test_out_of_range_colors_clipped_bit_exactly(self):
        sess = _small_session()
        w, h = sess.config.envmap_res
        rng = np.random.default_rng(8)
        # near colors are bytes, k/255; far colors may leave [0, 1]
        color = rng.integers(0, 256, (h, w, 3), dtype=np.uint8)
        sess.far_map.color = rng.uniform(-0.5, 1.5, (h, w, 3)).astype(np.float32)
        mask = rng.random((h, w)) < 0.5
        sess.near_map = EnvMapLayer(w, h, color, np.where(mask, 1.0, np.inf), mask)
        expect = np.clip(np.where(mask[:, :, None], color / 255.0, sess.far_map.color),
                         0.0, 1.0)
        assert np.array_equal(sess.compose().pixels, expect)

    def test_compose_is_total(self):
        scene = _small_room()
        sess = _small_session()
        sess.ingest_near(_frame(scene, (0.3, 1.4, 0.3), sess.rec_pos))
        pixels = sess.compose().pixels
        assert np.all(np.isfinite(pixels))
        assert pixels.min() >= 0.0 and pixels.max() <= 1.0

    def test_valid_near_pixels_match_ground_truth(self):
        # Exact-depth rendering + exact reprojection: valid near pixels
        # agree with the analytic panorama, up to the 8-bit quantization
        # of near colors, except where coarse-level hole filling lands on
        # the far side of a face boundary.
        scene = _small_room()
        sess = _small_session()
        sess.ingest_near(_frame(scene, (0.3, 1.4, 0.3), sess.rec_pos))
        truth = ground_truth_envmap(scene, sess.rec_pos, (128, 64))
        valid = sess.near_map.valid
        err = np.abs(sess.compose().pixels - truth.pixels)[valid]
        exact = np.all(err <= LSB_HALF, axis=1)
        assert exact.mean() > 0.95
        # Even the mismatched pixels must carry a genuine face color
        # (hard projection, never a blend).
        palette = np.array([[0.55, 0.35, 0.15], [0.95, 0.95, 0.9],
                            [0.8, 0.2, 0.2], [0.2, 0.8, 0.2],
                            [0.2, 0.2, 0.8], [0.8, 0.8, 0.2]])
        got = sess.compose().pixels[valid]
        d = np.abs(got[:, None, :] - palette[None, :, :]).max(axis=2)
        assert np.all(d.min(axis=1) <= LSB_HALF)


# ── incremental near map and registration ────────────────────────────────

INCREMENTAL_CONFIGS = {
    "low": preset_config(Preset.LOW),
    "medium": preset_config(Preset.MEDIUM),
    "high": preset_config(Preset.HIGH),
}
REC_EXACT = np.array([0.25, 1.5, -0.125])  # exact in float32


def _whole_buffer_near_map(sess):
    """The near map of one projection of all buffered points."""
    cfg = sess.config
    points = filter_boundary(sess.buffer.all_points(), sess.rec_pos)
    layers = project_multires(points, sess.rec_pos, list(cfg.multires_levels))
    merged = merge_multires(layers, cfg.multires_levels[0])
    return resample_nearest(merged, *cfg.envmap_res)


class TestIncrementalNearMap:
    @pytest.mark.parametrize("name", list(INCREMENTAL_CONFIGS) + ["high-split"])
    def test_bit_identical_to_whole_buffer_projection(self, name, monkeypatch):
        if name == "high-split":
            # each view's key pass and the layer fill in three parts
            monkeypatch.setattr(nearfield, "_MIN_PART", 512)
            monkeypatch.setattr(nearfield, "PROJECTION_WORKERS", 3)
        cfg = INCREMENTAL_CONFIGS[name.removesuffix("-split")]
        sess = create_session(REC_EXACT, cfg, (64, 48), GRAY)
        rng = np.random.default_rng(11)
        dirs = rng.normal(size=(300, 3))
        shared = REC_EXACT + dirs / np.linalg.norm(dirs, axis=1)[:, None] \
            * rng.uniform(0.05, 0.3, (300, 1))

        def view():
            """20k points straddling the boundary cube: 50 at the
            reconstruction position, 300 near ones at the same places in
            every view (exact ties across slots, in colors that differ by
            view) and 50 duplicated within the view."""
            pos = REC_EXACT + rng.uniform(-1.0, 1.0, (20_000, 3)) * BOUNDARY_SIDE
            pos[:50] = REC_EXACT
            pos[50:350] = shared
            pos[350:400] = pos[400:450]
            return PointCloud(pos, rng.random((len(pos), 3)))

        def check(step):
            got = sess.reproject_near()
            want = _whole_buffer_near_map(sess)
            for attr in ("color", "distance", "valid"):
                assert np.array_equal(getattr(got, attr), getattr(want, attr)), \
                    (step, attr)

        views = cfg.num_views
        for vid in range(views):
            sess.buffer.insert_view(vid, view())
            check(f"insert {vid}")
        sess.buffer.insert_view(1, view())
        check("overwrite 1")
        sess.buffer.insert_view(views, view())
        assert 0 not in sess.buffer.view_ids()
        check(f"insert {views}, evicting 0")
        sess.buffer.insert_view(0, view())
        check("re-insert 0")
        source = sess.buffer.get_view(1)
        moved = Pose(np.eye(3), np.array([0.01, -0.02, 0.005]))
        assert sess.apply_registration(1, moved, source)
        check("registration of 1")
        assert not sess.apply_registration(1, moved, source)
        check("stale registration of 1")

    def test_near_keyframe_projects_only_the_new_view(self, monkeypatch):
        projected = []
        key_pass = nearfield._project_keys

        def counting(positions, *args):
            projected.append(len(positions))
            return key_pass(positions, *args)

        monkeypatch.setattr(nearfield, "_project_keys", counting)
        scene = _small_room()  # inside the boundary: every point is kept
        sess = _small_session()  # num_views = 3
        eyes = [(0.4, 1.4, 0.0), (0.0, 1.4, 0.4), (-0.4, 1.4, 0.0),
                (0.0, 1.4, -0.4), (0.4, 1.4, 0.0)]
        for vid, eye in enumerate(eyes):
            projected.clear()
            sess.ingest_near(_frame(scene, eye, sess.rec_pos, view_id=vid % 4))
            assert projected == [len(sess.buffer.get_view(vid % 4))]


class TestRegistration:
    MOVE = Pose(np.eye(3), np.array([0.02, 0.0, -0.01]))

    def test_keeps_eviction_order(self):
        scene = _small_room()
        sess = _small_session()  # num_views = 3
        eyes = [(0.4, 1.4, 0.0), (0.0, 1.4, 0.4), (-0.4, 1.4, 0.0),
                (0.0, 1.4, -0.4)]
        for vid, eye in enumerate(eyes[:3]):
            sess.ingest_near(_frame(scene, eye, sess.rec_pos, view_id=vid))
        source = sess.buffer.get_view(0)
        assert sess.apply_registration(0, self.MOVE, source)
        assert np.allclose(sess.buffer.get_view(0).positions,
                           source.positions + self.MOVE.translation, atol=1e-6)
        sess.ingest_near(_frame(scene, eyes[3], sess.rec_pos, view_id=3))
        assert sorted(sess.buffer.view_ids()) == [1, 2, 3]

    def test_correction_for_a_replaced_view_is_dropped(self):
        scene = _small_room()
        sess = _small_session()
        sess.ingest_near(_frame(scene, (0.4, 1.4, 0.0), sess.rec_pos, view_id=0))
        source = sess.buffer.get_view(0)
        sess.ingest_near(_frame(scene, (0.0, 1.4, 0.4), sess.rec_pos, view_id=0))
        current = sess.buffer.get_view(0)
        before = sess.near_map
        assert not sess.apply_registration(0, self.MOVE, source)
        assert sess.buffer.get_view(0) is current
        after = sess.reproject_near()
        assert np.array_equal(after.color, before.color)
        assert np.array_equal(after.valid, before.valid)

    def test_correction_out_of_the_cube_keeps_only_in_cube_points(self):
        scene = _small_room()
        sess = _small_session()
        sess.ingest_near(_frame(scene, (0.4, 1.4, 0.0), sess.rec_pos, view_id=0))
        source = sess.buffer.get_view(0)
        move = Pose(np.eye(3), np.array([-0.2, 0.0, 0.0]))
        assert sess.apply_registration(0, move, source)
        aligned = PointCloud(move.transform(source.positions), source.colors)
        inside = np.abs(aligned.positions - sess.rec_pos).max(axis=1) <= BOUNDARY_SIDE / 2
        assert 0 < inside.sum() < len(source)
        view = sess.buffer.get_view(0)
        assert np.array_equal(view.positions, aligned.positions[inside])
        assert np.array_equal(view.colors, source.colors[inside])
        got = sess.reproject_near()
        want = _whole_buffer_near_map(sess)
        for attr in ("color", "distance", "valid"):
            assert np.array_equal(getattr(got, attr), getattr(want, attr)), attr


# ── isolation ────────────────────────────────────────────────────────────

class TestSessionIsolation:
    def test_ingest_does_not_leak_between_sessions(self):
        scene = _small_room()
        a = _small_session()
        b = _small_session()
        before = (b.near_map.color.tobytes(), b.far_map.color.tobytes(),
                  b.anchors.colors.tobytes())
        a.ingest_near(_frame(scene, (0.3, 1.4, 0.3), a.rec_pos))
        after = (b.near_map.color.tobytes(), b.far_map.color.tobytes(),
                 b.anchors.colors.tobytes())
        assert before == after


# ── incremental far map ──────────────────────────────────────────────────

def _far_product(sess):
    return (sess._table.operator @ sess.anchors.colors.astype(np.float32)).reshape(
        sess.far_map.color.shape)


class TestIncrementalFarMap:
    def test_far_keyframe_that_changes_no_anchor_recomputes_no_row(self, monkeypatch):
        # Gray samples onto gray anchors: weights grow, colors stay.
        sess = _small_session()
        rows = []
        apply = farfield._apply

        def spy(op, colors, out, subset=None):
            rows.append(len(out) if subset is None else len(subset))
            apply(op, colors, out, subset)

        monkeypatch.setattr(farfield, "_apply", spy)
        gray = ColorImage(*FAR_CAPTURE_RES, np.full((24, 32, 3), 0.5))
        sess.ingest_far(CameraFrame(gray, K_FAR, look_at((0.0, 1.4, 0.0), (0.0, 1.4, -3.0))))
        assert sess.anchors.weights.sum() == 32 * 24
        assert sum(rows) == 0
        red = ColorImage(*FAR_CAPTURE_RES, np.full((24, 32, 3), (0.9, 0.1, 0.1)))
        sess.ingest_far(CameraFrame(red, K_FAR, look_at((0.0, 1.4, 0.0), (0.0, 1.4, -3.0))))
        assert 0 < sum(rows) < 128 * 64
        assert np.array_equal(sess.far_map.color, _far_product(sess))

    # 200x100 is not a multiple of the tile size, so its edge tiles are clipped.
    @pytest.mark.parametrize("envmap_res", [(128, 64), (200, 100)])
    def test_two_sessions_share_a_table_on_two_threads(self, envmap_res):
        w, h = envmap_res
        levels = ((w, h), (w // 2, h // 2))
        sessions = [_small_session(envmap_res=envmap_res, multires_levels=levels)
                    for _ in range(2)]
        assert sessions[0]._table is sessions[1]._table
        scene = _small_room()
        barrier = threading.Barrier(2, timeout=60.0)
        failures = []

        def play(sess, seed):
            rng = np.random.default_rng(seed)
            try:
                for step in range(6):
                    target = sess.rec_pos + rng.normal(size=3)
                    barrier.wait()
                    if step == 3:
                        eye = sess.rec_pos + np.array([0.3, 0.0, 0.3]) * (seed + 1)
                        sess.ingest_near(_frame(scene, eye, sess.rec_pos, view_id=step))
                    else:
                        sess.ingest_far(render_rgbd(scene, look_at(sess.rec_pos, target),
                                                    K_FAR))
                    if not np.array_equal(sess.far_map.color, _far_product(sess)):
                        failures.append((seed, step))
            except Exception as e:  # reported by the main thread
                failures.append((seed, repr(e)))
                barrier.abort()

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=play, args=(s, i))
                       for i, s in enumerate(sessions)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert not np.array_equal(sessions[0].far_map.color, sessions[1].far_map.color)

    def test_guided_high_session_bit_identical_after_every_keyframe(self):
        config = preset_config(Preset.HIGH)
        rec = np.array([0.0, 1.4, 0.0])
        sess = create_session(rec, config, (64, 48), GRAY)
        assert np.array_equal(sess.far_map.color, _far_product(sess))
        scene = default_scene()
        for d in plan_guided_movement(np.array([0.0, 0.0, -1.0]), 9).directions:
            sess.ingest_far(render_rgbd(scene, look_at(rec, rec + d.to_unit()), K_FAR))
            assert np.array_equal(sess.far_map.color, _far_product(sess))


class TestFarTables:
    def test_racing_first_inits_of_a_size_build_one_table(self, monkeypatch):
        # An empty cache of the module's own kind: this size is new to it.
        monkeypatch.setattr(session_mod, "_tables", type(session_mod._tables)())
        built = []
        both_building = threading.Barrier(2, timeout=1.0)
        precompute = farfield.precompute_table

        def slow_precompute(*args, **kwargs):
            # Builds that race meet here; a lone build waits out the timeout.
            built.append(args[:2])
            try:
                both_building.wait()
            except threading.BrokenBarrierError:
                pass
            return precompute(*args, **kwargs)

        monkeypatch.setattr(farfield, "precompute_table", slow_precompute)
        start = threading.Barrier(2, timeout=10.0)
        sessions = [None, None]

        def init(i):
            start.wait()
            sessions[i] = _small_session()

        threads = [threading.Thread(target=init, args=(i,)) for i in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60.0)
        assert built == [(128, 64)]
        assert sessions[0]._table is sessions[1]._table is session_mod._tables[(128, 64)]


# ── kept reply ───────────────────────────────────────────────────────────

class TestKeptReply:
    # 0.5 lies exactly on a rounding tie (0.5 * 255 + 0.5 = 128.0), and
    # 254.5 / 255 just below one that float32 arithmetic rounds onto.
    @pytest.mark.parametrize("ambient", [0.5, 254.5 / 255.0])
    @pytest.mark.parametrize("preset", [Preset.MEDIUM, Preset.HIGH])
    def test_equals_the_composed_map_after_every_update(self, preset, ambient):
        config = preset_config(preset)
        sess = create_session(REC_EXACT, config, (64, 48), np.full(3, ambient))
        rng = np.random.default_rng(23)
        scene = default_scene()

        def check(step):
            assert sess.reply.dtype == np.uint8, step
            assert np.array_equal(sess.reply, sess.compose().to_uint8()), step

        def far(color=None):
            target = REC_EXACT + rng.normal(size=3)
            if color is None:
                return render_rgbd(scene, look_at(REC_EXACT, target), K_FAR)
            return CameraFrame(ColorImage(*FAR_CAPTURE_RES, np.full((24, 32, 3), color)),
                               K_FAR, look_at(REC_EXACT, target))

        def view():
            """20k points inside the boundary cube, in colors outside [0, 1]."""
            pos = REC_EXACT + rng.uniform(-0.5, 0.5, (20_000, 3)) * BOUNDARY_SIDE
            return PointCloud(pos, rng.uniform(-0.5, 1.5, (len(pos), 3)))

        check("create")
        before = (sess.anchors.colors.astype(np.float32), sess.reply.copy())
        sess.ingest_far(far(ambient))  # ambient samples onto ambient anchors
        assert np.array_equal(sess.anchors.colors.astype(np.float32), before[0])
        assert np.array_equal(sess.reply, before[1])
        check("far that changes no anchor")
        for step in range(3):
            sess.ingest_far(far())
            check(f"far {step}")

        views = config.num_views
        for vid in range(views):
            sess.buffer.insert_view(vid, view())
            sess.reproject_near()
            check(f"insert {vid}")
        assert sess.near_map.valid.any() and not sess.near_map.valid.all()
        for step in range(3):
            sess.ingest_far(far())
            check(f"far {step} over the near map")
        sess.buffer.insert_view(1, view())
        sess.reproject_near()
        check("overwrite 1")
        sess.buffer.insert_view(views, view())
        assert 0 not in sess.buffer.view_ids()
        sess.reproject_near()
        check(f"insert {views}, evicting 0")
        eye = REC_EXACT + np.array([0.3, 0.0, 0.3])
        sess.ingest_near(_frame(_small_room(), eye, REC_EXACT, view_id=2))
        check("near keyframe")

        source = sess.buffer.get_view(1)
        moved = Pose(np.eye(3), np.array([0.01, -0.02, 0.005]))
        assert sess.apply_registration(1, moved, source)
        check("registration of 1")
        sess.reproject_near()
        check("reprojection after the registration of 1")


# Imports litfield first, as `litfield serve` does, runs one far splat (its
# 768x1280 cosine product is the one BLAS call on the serving path that
# OpenBLAS would thread), then prints the thread setting and the CPU the
# process spends while its main thread sleeps for 50 ms.
_BLAS_PROBE = """
import os, time
import litfield
import numpy as np
from litfield import farfield
dirs = np.random.default_rng(0).normal(size=(768, 3))
dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
farfield.splat_to_anchors(farfield.UnitSphereAnchorSet.create(), dirs,
                          np.ones((768, 3)))
start = time.process_time()
time.sleep(0.05)
print(os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
      (time.process_time() - start) * 1e3)
"""


def _blas_probe(threads: str | None) -> tuple[str, float]:
    """The thread setting and the sleep's CPU ms of _BLAS_PROBE in a fresh
    interpreter, started with OPENBLAS_NUM_THREADS unset or set to threads."""
    src = os.path.dirname(os.path.dirname(farfield.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, os.environ.get("PYTHONPATH", "")]))
    env.pop("OPENBLAS_NUM_THREADS", None)
    if threads is not None:
        env["OPENBLAS_NUM_THREADS"] = threads
    out = subprocess.run([sys.executable, "-c", _BLAS_PROBE], env=env, check=True,
                         capture_output=True, text=True, timeout=120)
    setting, cpu_ms = out.stdout.split()
    return setting, float(cpu_ms)


class TestBlasThreads:
    """The projection pool is a serving process's only parallelism:
    importing litfield pins OpenBLAS to one thread unless the operator
    chose a count."""

    @pytest.mark.skipif(nearfield.PROJECTION_WORKERS < 2,
                        reason="OpenBLAS starts no worker threads on one core")
    def test_import_pins_blas_to_one_thread(self):
        setting, cpu_ms = _blas_probe(None)
        assert setting == "1"
        # a threaded product leaves its workers spinning: ~48 ms of CPU
        # during the 50 ms sleep on a 2-core host, against ~0.1 ms pinned
        assert cpu_ms <= 10.0

    def test_operator_setting_is_kept(self):
        assert _blas_probe("2")[0] == "2"

    @pytest.mark.skipif(nearfield.PROJECTION_WORKERS < 2,
                        reason="OpenBLAS starts no worker threads on one core")
    def test_test_process_runs_pinned(self):
        # tests/conftest.py imports litfield before any test module loads
        # numpy, so the timed criteria run under the serving policy.
        assert os.environ.get("OPENBLAS_NUM_THREADS") == "1"
        dirs = np.random.default_rng(0).normal(size=(768, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        farfield.splat_to_anchors(farfield.UnitSphereAnchorSet.create(), dirs,
                                  np.ones((768, 3)))
        start = time.process_time()
        time.sleep(0.05)
        assert (time.process_time() - start) * 1e3 <= 10.0
