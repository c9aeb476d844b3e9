"""Session lifecycle tests: presets, near/far ingestion, and composition.

Pipeline-level tests run on a deliberately small custom configuration so
each ingest stays in the millisecond range; preset tables are checked
against their exact published values.
"""

from __future__ import annotations

import sys
import threading

import numpy as np
import pytest

from litfield import farfield
from litfield.capture import plan_guided_movement
from litfield.errors import ConfigurationError, InvalidDepthError, PointCapacityError
from litfield.geometry import CameraFrame, ColorImage, DepthImage, Intrinsics, Pose
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
    NearFieldBoundary,
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
        # quantizes exactly as the reference formula does, in the input's
        # dtype, including the ties k + 0.5 as that dtype computes them.
        ties = (np.arange(255) + 0.5) / 255.0
        near = np.nextafter(ties, [[-1.0], [2.0]]).ravel()
        extremes = [-np.inf, -1e30, -0.2, -0.0, 1.0 + 1e-7, 1.5, 255.0, 1e30, np.inf]
        vals = np.concatenate([[0.5], ties, near, extremes]).astype(dtype)
        m = EnvironmentMap(len(vals), 1, np.repeat(vals[None, :, None], 3, axis=2))
        out = m.to_uint8()
        assert out[0, 0, 0] == 128
        expect = np.floor(np.clip(vals, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
        assert np.array_equal(out[0, :, 0], expect)
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
        color = np.full((h, w, 3), 0.25)
        sess.near_map = EnvMapLayer(w, h, color, np.ones((h, w)),
                                    np.ones((h, w), dtype=bool))
        assert np.allclose(sess.compose().pixels, 0.25)

    def test_checker_mask_selection(self):
        sess = _small_session()
        w, h = sess.config.envmap_res
        yy, xx = np.mgrid[0:h, 0:w]
        mask = (yy + xx) % 2 == 0
        color = np.full((h, w, 3), 0.9)
        dist = np.where(mask, 1.0, np.inf)
        sess.near_map = EnvMapLayer(w, h, color, dist, mask)
        expect = np.where(mask[:, :, None], color, sess.far_map.color)
        assert np.allclose(sess.compose().pixels,
                           np.clip(expect, 0.0, 1.0))

    def test_out_of_range_colors_clipped_bit_exactly(self):
        sess = _small_session()
        w, h = sess.config.envmap_res
        rng = np.random.default_rng(8)
        color = rng.uniform(-0.5, 1.5, (h, w, 3))
        mask = rng.random((h, w)) < 0.5
        sess.near_map = EnvMapLayer(w, h, color, np.where(mask, 1.0, np.inf), mask)
        expect = np.clip(np.where(mask[:, :, None], color, sess.far_map.color), 0.0, 1.0)
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
        # agree with the analytic panorama except where coarse-level hole
        # filling lands on the far side of a face boundary.
        scene = _small_room()
        sess = _small_session()
        sess.ingest_near(_frame(scene, (0.3, 1.4, 0.3), sess.rec_pos))
        truth = ground_truth_envmap(scene, sess.rec_pos, (128, 64))
        valid = sess.near_map.valid
        err = np.abs(sess.compose().pixels - truth.pixels)[valid]
        exact = np.all(err < 1e-6, axis=1)
        assert exact.mean() > 0.95
        # Even the mismatched pixels must carry a genuine face color
        # (hard projection, never a blend).
        palette = np.array([[0.55, 0.35, 0.15], [0.95, 0.95, 0.9],
                            [0.8, 0.2, 0.2], [0.2, 0.8, 0.2],
                            [0.2, 0.2, 0.8], [0.8, 0.8, 0.2]])
        got = sess.compose().pixels[valid]
        d = np.abs(got[:, None, :] - palette[None, :, :]).max(axis=2)
        assert np.all(d.min(axis=1) < 1e-6)


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
    boundary = NearFieldBoundary(sess.rec_pos)
    points = filter_boundary(sess.buffer.all_points(), boundary)
    layers = project_multires(points, sess.rec_pos, list(cfg.multires_levels))
    merged = merge_multires(layers, cfg.multires_levels[0])
    return resample_nearest(merged, *cfg.envmap_res)


class TestIncrementalNearMap:
    @pytest.mark.parametrize("name", list(INCREMENTAL_CONFIGS) + ["high-split"])
    def test_bit_identical_to_whole_buffer_projection(self, name, monkeypatch):
        if name == "high-split":
            # each view's boundary-index key pass and the layer fill in
            # three parts
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
