"""Dense point-cloud pipeline tests: cloud generation, the multi-view
buffer, boundary filtering, multi-resolution projection/merging, ICP."""

from __future__ import annotations

import math
import os
import signal
import sys
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litfield import nearfield
from litfield.errors import DegenerateGeometryError, NoOverlapError, PointCapacityError
from litfield.farfield import UnitSphereAnchorSet, extrapolate, precompute_table
from litfield.geometry import (ColorImage, DepthImage, Intrinsics, Pose,
                               camera_ray, equirect_pixel_dirs, unproject)
from litfield.nearfield import (
    BOUNDARY_SIDE,
    DensePointCloudBuffer,
    EnvMapLayer,
    PointCloud,
    filter_boundary,
    generate_dense_cloud,
    merge_multires,
    project_multires,
    quantize,
    register_icp,
    resample_nearest,
)

K2 = Intrinsics(fx=2.0, fy=2.0, cx=1.0, cy=1.0, width=2, height=2)


def _frame_2x2(depths=1.0, confidence=2):
    color = ColorImage(2, 2, np.linspace(0, 1, 12).reshape(2, 2, 3))
    depth = DepthImage(2, 2, np.full((2, 2), depths, dtype=float),
                       np.full((2, 2), confidence, dtype=np.uint8))
    return color, depth


def _cloud(positions, colors=None):
    positions = np.asarray(positions, dtype=float)
    if colors is None:
        colors = np.zeros_like(positions)
    return PointCloud(positions, colors)


def _rot_y(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), 0, math.sin(a)],
                     [0, 1, 0],
                     [-math.sin(a), 0, math.cos(a)]])


# ── generate_dense_cloud ─────────────────────────────────────────────────

class TestGenerateDenseCloud:
    def test_all_high_confidence_unprojects_every_pixel(self):
        color, depth = _frame_2x2()
        cloud = generate_dense_cloud(color, depth, K2, Pose.identity())
        assert len(cloud) == 4
        # Row-major order; each point on its pixel's unprojection ray.
        i = 0
        for v in range(2):
            for u in range(2):
                expect = unproject(u, v, 1.0, K2, Pose.identity())
                assert np.allclose(cloud.positions[i], expect, atol=1e-6)
                assert np.array_equal(cloud.colors[i], quantize(color.pixels[v, u]))
                i += 1

    def test_all_low_confidence_empty(self):
        color, depth = _frame_2x2(confidence=0)
        cloud = generate_dense_cloud(color, depth, K2, Pose.identity())
        assert len(cloud) == 0

    def test_zero_depth_pixel_omitted(self):
        color, depth = _frame_2x2()
        depth.depth[0, 0] = 0.0
        cloud = generate_dense_cloud(color, depth, K2, Pose.identity())
        assert len(cloud) == 3

    def test_dimension_mismatch_rejected(self):
        color, _ = _frame_2x2()
        bad_depth = DepthImage(3, 3, np.ones((3, 3)),
                               np.full((3, 3), 2, np.uint8))
        with pytest.raises(ValueError):
            generate_dense_cloud(color, bad_depth, K2, Pose.identity())


def _ray_cloud(color, depth, k, pose):
    """The per-kept-pixel unprojection: rays of the kept pixels only, the
    depth in float64, colors gathered by the keep mask. The reference for
    generate_dense_cloud's full-grid pass."""
    keep = (depth.confidence >= 2) & (depth.depth > 0)
    if not keep.any():
        return PointCloud.empty()
    v, u = np.nonzero(keep)
    rays = camera_ray(u, v, k)
    d = depth.depth.astype(np.float64)[keep][:, None]
    positions = (d * rays) @ pose.rotation.T + pose.translation
    return PointCloud(positions, color.pixels[keep])


class TestDenseCloudMatchesRays:
    # 102-row bands: one full band and a partial one
    W, H = 160, 120
    K = Intrinsics(fx=151.7, fy=149.2, cx=61.3, cy=77.9, width=W, height=H)

    def _frame(self, kind, dtype):
        rng = np.random.default_rng(23)
        color = ColorImage(self.W, self.H, rng.random((self.H, self.W, 3)))
        d = rng.uniform(0.05, 4.0, (self.H, self.W)).astype(dtype)
        conf = np.full((self.H, self.W), 2, np.uint8)
        if kind == "mixed":
            d[rng.random(d.shape) < 0.1] = 0.0
            conf = rng.integers(0, 3, d.shape).astype(np.uint8)
        elif kind == "none":
            d[::2] = 0.0
            conf[1::2] = 0
        return color, DepthImage(self.W, self.H, d, conf)

    @pytest.mark.parametrize("kind", ["all", "mixed", "none"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_bit_equal_to_per_pixel_rays(self, kind, dtype):
        color, depth = self._frame(kind, dtype)
        assert depth.depth.dtype == dtype
        r = np.linalg.qr(np.random.default_rng(5).normal(size=(3, 3)))[0]
        pose = Pose(r * np.sign(np.linalg.det(r)), np.array([0.7, -1.3, 2.1]))
        got = generate_dense_cloud(color, depth, self.K, pose)
        want = _ray_cloud(color, depth, self.K, pose)
        if kind == "none":
            assert len(want) == 0
        assert got.positions.dtype == want.positions.dtype == np.float32
        assert got.colors.dtype == want.colors.dtype == np.uint8
        assert got.positions.shape == want.positions.shape
        assert got.positions.tobytes() == want.positions.tobytes()
        assert got.colors.tobytes() == want.colors.tobytes()

    def test_row_bands_match_one_matmul_at_full_size(self):
        # 1024 x 768 unprojects in 48 bands of 16 rows; the reference
        # transforms all 786432 points in one matmul.
        w, h = 1024, 768
        rng = np.random.default_rng(29)
        k = Intrinsics(fx=886.8, fy=886.8, cx=511.3, cy=383.9, width=w, height=h)
        color = ColorImage(w, h, rng.random((h, w, 3)))
        depth = DepthImage(w, h, rng.uniform(0.05, 4.0, (h, w)).astype(np.float32),
                           np.full((h, w), 2, np.uint8))
        pose = Pose(_rot_y(37.0), np.array([0.2, 1.1, -0.4]))
        got = generate_dense_cloud(color, depth, k, pose)
        want = _ray_cloud(color, depth, k, pose)
        assert got.positions.tobytes() == want.positions.tobytes()

    def test_colors_share_the_image_when_every_pixel_is_kept(self):
        color, depth = self._frame("all", np.float32)
        color = ColorImage(self.W, self.H, quantize(color.pixels))
        cloud = generate_dense_cloud(color, depth, self.K, Pose.identity())
        assert len(cloud) == self.W * self.H
        assert np.shares_memory(cloud.colors, color.pixels)

    def test_float_colors_are_quantized_once(self):
        color, depth = self._frame("mixed", np.float64)
        cloud = generate_dense_cloud(color, depth, self.K, Pose.identity())
        keep = nearfield.kept_pixels(depth)
        assert np.array_equal(cloud.colors, quantize(color.pixels[keep]))


# ── DensePointCloudBuffer ────────────────────────────────────────────────

def _buffer(num_views, slot_capacity=1 << 16):
    return DensePointCloudBuffer(num_views, np.zeros(3), [(8, 4)], slot_capacity)


class TestBuffer:
    def _one_point(self, x=0.0):
        return _cloud([[x, 0, 0]])

    def test_evicts_oldest(self):
        buf = _buffer(3)
        for vid in (1, 2, 3, 4):
            buf.insert_view(vid, self._one_point(vid))
        assert sorted(buf.view_ids()) == [2, 3, 4]

    def test_same_id_overwrites_and_refreshes(self):
        buf = _buffer(3)
        for vid in (1, 2, 1):
            buf.insert_view(vid, self._one_point(vid))
        assert sorted(buf.view_ids()) == [1, 2]
        # id 1 is now newest: inserting 3 and 4 must evict 2 first.
        buf.insert_view(3, self._one_point())
        buf.insert_view(4, self._one_point())
        assert sorted(buf.view_ids()) == [1, 3, 4]

    def test_capacity_one(self):
        buf = _buffer(1)
        buf.insert_view(7, self._one_point())
        buf.insert_view(8, self._one_point())
        assert buf.view_ids() == [8]

    def test_slot_capacity_enforced(self):
        buf = _buffer(2, slot_capacity=2)
        buf.insert_view(0, _cloud([[0, 0, 0], [1, 0, 0]]))
        with pytest.raises(PointCapacityError):
            buf.insert_view(1, _cloud([[0, 0, 0], [1, 0, 0], [2, 0, 0]]))
        assert buf.view_ids() == [0]

    def test_rejects_empty_view(self):
        buf = _buffer(1)
        with pytest.raises(ValueError):
            buf.insert_view(0, PointCloud.empty())

    def test_rejects_a_level_set_that_does_not_tile(self):
        with pytest.raises(ValueError, match="does not tile"):
            DensePointCloudBuffer(1, np.zeros(3), [(96, 48), (40, 20)], 1)

    @given(st.lists(st.tuples(st.integers(0, 5), st.booleans()), min_size=1, max_size=24))
    @settings(max_examples=200, deadline=None)
    def test_eviction_order_matches_model(self, inserts):
        """Reference model: dict preserving insertion order, re-insert
        moves to newest, overflow drops the oldest. A view with no point
        inside the boundary cube takes a slot like any other, and its slot
        holds no point."""
        buf = _buffer(3)
        model: dict[int, bool] = {}
        for vid, outside in inserts:
            positions = ([[0.0, 0.0, 1.5], [0.0, -2.0, 0.25]] if outside
                         else [[0.5, vid / 8, -0.25]])
            buf.insert_view(vid, _cloud(positions, np.full((len(positions), 3), vid / 5)))
            model.pop(vid, None)
            model[vid] = outside
            if len(model) > 3:
                model.pop(next(iter(model)))
            assert sorted(buf.view_ids()) == sorted(model)
            assert [len(buf.get_view(v)) for v in model] == [0 if out else 1
                                                               for out in model.values()]
            want = merge_multires(project_multires(buf.all_points(), np.zeros(3), [(8, 4)]),
                                  (8, 4))
            _assert_same_layers([buf.project()], [want])

    def test_replace_view_keeps_recency(self):
        buf = _buffer(3)
        for vid in (1, 2, 3):
            buf.insert_view(vid, self._one_point(vid / 4))
        old = buf.get_view(1)
        new = self._one_point(0.9)
        assert buf.replace_view(1, old, new)
        assert buf.get_view(1) is new
        # view 1 is still the oldest, so it goes first
        buf.insert_view(4, self._one_point())
        assert sorted(buf.view_ids()) == [2, 3, 4]

    def test_replace_view_of_a_replaced_cloud_is_dropped(self):
        buf = _buffer(3)
        buf.insert_view(1, self._one_point(0.25))
        old = buf.get_view(1)
        newer = self._one_point(0.5)
        buf.insert_view(1, newer)
        assert not buf.replace_view(1, old, self._one_point(0.75))
        assert buf.get_view(1) is newer
        assert not buf.replace_view(5, old, self._one_point(0.75))

    def test_insert_keeps_the_float64_boundary_rule(self):
        # rec_pos x = -1.5 * 2**-24 and the edge point's x = 1 - 2**-24 are
        # exact in float32. Their offset is 1 + 2**-25 in float64, just
        # outside the cube; in float32 it rounds to 1.0, on its face.
        rec = np.array([-1.5 * 2.0 ** -24, 0.0, 0.0])
        levels = [(16, 8)]
        cloud = _cloud([[0.0, 0.5, 0.0], [1.0 - 2.0 ** -24, 0.0, 0.0], [0.0, 0.0, -0.5]],
                       [[1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        edge = cloud.positions[1]
        assert edge[0] - np.float32(rec[0]) == np.float32(1.0)
        edge_hit = project_multires(cloud.select([1]), rec, levels)[0].valid
        buf = DensePointCloudBuffer(1, rec, levels, len(cloud))
        buf.insert_view(0, cloud)
        kept = cloud.select([0, 2])
        assert np.array_equal(buf.get_view(0).positions, kept.positions)
        assert np.array_equal(buf.get_view(0).colors, kept.colors)
        got = buf.project()
        want = merge_multires(project_multires(kept, rec, levels), levels[0])
        _assert_same_layers([got], [want])
        assert got.valid.sum() == 2 and not got.valid[edge_hit].any()

    def _views(self, count, n=100, seed=0):
        rng = np.random.default_rng(seed)
        return [PointCloud(rng.uniform(-0.9, 0.9, (n, 3)), rng.random((n, 3)))
                for _ in range(count)]

    def test_equal_distance_across_levels_goes_to_the_finer_level(self):
        # Two points at exactly the same float32 distance (dyadic
        # coordinates, so every square and sum is exact), in different
        # fine pixels of one 2x2 block. The block's coarse winner is the
        # lower index, yet each fine pixel keeps its own point: levels
        # compare distances, not whole keys (distance and index).
        levels = [(16, 8), (8, 4)]
        rec = np.zeros(3)
        cloud = _cloud([[0.75, 0.25, 0.5], [0.75, 0.5, 0.25]],
                       [[1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
        own = [tuple(np.argwhere(project_multires(cloud.select([i]), rec,
                                                  levels[:1])[0].valid)[0])
               for i in range(2)]
        assert own[0] != own[1]
        assert own[0][0] // 2 == own[1][0] // 2 and own[0][1] // 2 == own[1][1] // 2
        buf = DensePointCloudBuffer(1, rec, levels, len(cloud))
        buf.insert_view(0, cloud)
        got = buf.project()
        want = merge_multires(project_multires(cloud, rec, levels), levels[0])
        _assert_same_layers([got], [want])
        for i, pixel in enumerate(own):
            assert np.array_equal(got.color[pixel], cloud.colors[i])

    def test_project_over_key_capacity_raises_typed_error(self, monkeypatch):
        monkeypatch.setattr(nearfield, "_MAX_POINTS", 150)
        first, second = self._views(2)
        buf = _buffer(3)
        buf.insert_view(0, first)
        buf.project()
        buf.insert_view(1, second)
        with pytest.raises(PointCapacityError):
            buf.project()
        with pytest.raises(PointCapacityError):
            project_multires(buf.all_points(), np.zeros(3), [(8, 4)])


# ── filter_boundary ──────────────────────────────────────────────────────

class TestFilterBoundary:
    B = np.zeros(3)

    def test_center_retained(self):
        out = filter_boundary(_cloud([[0, 0, 0]]), self.B)
        assert len(out) == 1

    def test_outside_excluded(self):
        out = filter_boundary(_cloud([[1.01, 0, 0]]), self.B)
        assert len(out) == 0

    def test_face_inclusive(self):
        out = filter_boundary(_cloud([[1.0, 0, 0], [0, -1.0, 0]]), self.B)
        assert len(out) == 2

    def test_chebyshev_not_euclidean(self):
        # Corner point: Euclidean norm sqrt(3) > 1 but max-norm exactly 1.
        out = filter_boundary(_cloud([[1.0, 1.0, 1.0]]), self.B)
        assert len(out) == 1

    def test_all_inside_returns_the_cloud_itself(self):
        cloud = _cloud([[0.5, -1.0, 0.0], [0, 0, 1.0]])
        assert filter_boundary(cloud, self.B) is cloud

    def test_matches_max_formula_on_faces(self):
        # An off-centre cube whose faces are exact in float32, points on
        # the faces, one float32 step to either side of them, and beyond.
        rng = np.random.default_rng(4)
        center = np.array([0.25, -1.5, 0.125])
        half = BOUNDARY_SIDE / 2.0
        n = 30_000
        pos = (center + rng.uniform(-1.5, 1.5, (n, 3))).astype(np.float32)
        axis = rng.integers(0, 3, n)
        face = (center[axis] + rng.choice([-half, half], n)).astype(np.float32)
        step = rng.integers(-1, 2, n)
        face[step > 0] = np.nextafter(face[step > 0], np.float32(np.inf))
        face[step < 0] = np.nextafter(face[step < 0], np.float32(-np.inf))
        on_face = rng.random(n) < 0.5
        pos[on_face, axis[on_face]] = face[on_face]
        cloud = PointCloud(pos, rng.random((n, 3)))
        keep = np.max(np.abs(cloud.positions - center), axis=1) <= half
        assert 0 < keep.sum() < n
        out = filter_boundary(cloud, center)
        assert np.array_equal(out.positions, cloud.positions[keep])
        assert np.array_equal(out.colors, cloud.colors[keep])


# ── project_multires ─────────────────────────────────────────────────────

class TestProjectMultires:
    def test_single_point_center_pixel_every_level(self):
        cloud = _cloud([[0, 0, -1.0]], [[1, 0, 0]])
        levels = [(64, 32), (32, 16), (8, 4)]
        layers = project_multires(cloud, np.zeros(3), levels)
        for layer, (w, h) in zip(layers, levels):
            assert layer.valid.sum() == 1
            assert layer.valid[h // 2, w // 2]
            assert np.array_equal(layer.color[h // 2, w // 2], (255, 0, 0))

    def test_occlusion_keeps_nearest(self):
        cloud = _cloud([[0, 0, -2.0], [0, 0, -1.0]],
                       [[1, 0, 0], [0, 1, 0]])
        layer = project_multires(cloud, np.zeros(3), [(64, 32)])[0]
        assert layer.valid.sum() == 1
        assert np.array_equal(layer.color[16, 32], (0, 255, 0))
        assert layer.distance[16, 32] == pytest.approx(1.0)

    def test_empty_cloud_all_invalid(self):
        layers = project_multires(PointCloud.empty(), np.zeros(3),
                                  [(8, 4), (4, 2)])
        for layer in layers:
            assert not layer.valid.any()
            assert np.all(np.isinf(layer.distance))

    def test_zero_distance_point_scatters_nothing(self):
        cloud = _cloud([[0, 0, 0], [0, 0, -1.0]], [[1, 0, 0], [0, 1, 0]])
        layer = project_multires(cloud, np.zeros(3), [(8, 4)])[0]
        assert layer.valid.sum() == 1
        assert np.array_equal(layer.color[2, 4], [0, 255, 0])

    def test_levels_validation(self):
        cloud = _cloud([[0, 0, -1.0]])
        with pytest.raises(ValueError):
            project_multires(cloud, np.zeros(3), [])
        with pytest.raises(ValueError):
            project_multires(cloud, np.zeros(3), [(10, 4)])  # not 2:1
        with pytest.raises(ValueError):
            project_multires(cloud, np.zeros(3), [(8, 4), (8, 4)])
        with pytest.raises(ValueError, match="does not tile"):
            project_multires(cloud, np.zeros(3), [(96, 48), (40, 20)])

    def test_no_blending_and_valid_bound(self):
        rng = np.random.default_rng(3)
        n = 5000
        cloud = PointCloud(rng.uniform(-2, 2, (n, 3)),
                           rng.uniform(0, 1, (n, 3)))
        layer = project_multires(cloud, np.zeros(3), [(32, 16)])[0]
        assert layer.valid.sum() <= min(n, 32 * 16)
        # Every valid pixel's color is copied from some input point.
        palette = {tuple(c) for c in np.round(cloud.colors, 12)}
        for c in layer.color[layer.valid]:
            assert tuple(np.round(c, 12)) in palette

    # A float32 distance of +inf, or a NaN or infinite coordinate, gives no
    # finite direction: such a point gets the key of a miss, with no
    # out-of-range pixel and no invalid float->int cast.
    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    @pytest.mark.filterwarnings("error:invalid value encountered:RuntimeWarning")
    def test_point_at_infinite_float32_distance_scatters_nothing(self):
        for far in ([3e38, 0, -3e38],
                    [np.nan, 0, -1], [0, np.nan, -1], [0, 0, np.nan],
                    [np.inf, 0, -1], [-np.inf, 0, -1], [0, np.inf, -1],
                    [0, -np.inf, -1], [0, 0, np.inf], [0, 0, -np.inf]):
            cloud = _cloud([far, [0, 0, -1.0]], [[1, 0, 0], [0, 1, 0]])
            layer = project_multires(cloud, np.zeros(3), [(8, 4)])[0]
            assert layer.valid.sum() == 1, far
            assert np.array_equal(layer.color[2, 4], [0, 255, 0]), far

    def test_poles_land_in_column_zero(self):
        cloud = _cloud([[0, 1.0, 0], [0, -1.0, 0]], [[1, 1, 1], [1, 1, 1]])
        layer = project_multires(cloud, np.zeros(3), [(8, 4)])[0]
        assert layer.valid[0, 0] and layer.valid[3, 0]


# ── project_multires: the per-point pass split over threads ─────────────

SPLIT_REC = np.array([0.1, -0.2, 0.3])
# 48x24 and 24x12 are block reductions of 96x48.
SPLIT_LEVELS = [(96, 48), (48, 24), (24, 12)]


def _grid_cloud(n, seed):
    """n points on the pixel-center directions of 3000 cells of a 480x240
    grid, which refines every level of SPLIT_LEVELS with each center half
    a cell away from their pixel edges. Each cell has a base distance
    1 + k/1000 and its points sit at base + 0, 5 or 10 m, so points of one
    cell and class coincide (exact distance ties), while any other two
    points differ in distance by at least 1 mm. Point 0 is nearer than
    all others, at 0.5 m, and point n-1 duplicates it.

    Returns the cloud and each point's grid cell."""
    rng = np.random.default_rng(seed)
    dirs = equirect_pixel_dirs(480, 240).reshape(-1, 3)
    cells = rng.choice(len(dirs), 3000, replace=False)
    pick = rng.integers(0, len(cells), n)
    dist = 1.0 + pick / 1000.0 + 5.0 * rng.integers(0, 3, n)
    dist[0] = 0.5
    pick[-1], dist[-1] = pick[0], dist[0]
    cell = cells[pick]
    positions = SPLIT_REC + dirs[cell] * dist[:, None]
    return PointCloud(positions, rng.uniform(0, 1, (n, 3))), cell


def _oracle_winners(cloud, cell, w, h, skip=()):
    """Per pixel of a w x h level, the point that is nearest to
    SPLIT_REC, the lowest index among equally near ones: a lexsort by
    (pixel, distance, index), over every point but those skip names.
    Returns the hit pixels and their winners."""
    gy, gx = np.divmod(cell, 480)
    pixel = (gy * h // 240) * w + gx * w // 480
    dist = np.linalg.norm(cloud.positions.astype(np.float64) - SPLIT_REC,
                          axis=1)
    order = np.lexsort((np.arange(len(cell)), dist, pixel))
    order = order[~np.isin(order, skip)]
    first = order[np.r_[True, pixel[order][1:] != pixel[order][:-1]]]
    return pixel[first], first


def _split_size(parts):
    return parts * nearfield._MIN_PART + 1001


def _assert_same_layers(got, want):
    for a, b in zip(got, want, strict=True):
        assert np.array_equal(a.color, b.color)
        assert np.array_equal(a.distance, b.distance)
        assert np.array_equal(a.valid, b.valid)


class TestSplitProjection:
    def test_matches_oracle_and_unsplit_projection(self, monkeypatch):
        monkeypatch.setattr(nearfield, "PROJECTION_WORKERS", 3)
        n = _split_size(3)
        cloud, cell = _grid_cloud(n, seed=5)
        layers = project_multires(cloud, SPLIT_REC, SPLIT_LEVELS)
        for layer, (w, h) in zip(layers, SPLIT_LEVELS):
            pixels, winners = _oracle_winners(cloud, cell, w, h)
            valid = np.zeros(w * h, dtype=bool)
            valid[pixels] = True
            assert np.array_equal(layer.valid.reshape(-1), valid)
            assert np.array_equal(layer.color.reshape(-1, 3)[pixels],
                                  cloud.colors[winners])
            assert np.all(layer.color.reshape(-1, 3)[~valid] == 0.0)
            assert np.allclose(layer.distance.reshape(-1)[pixels],
                               np.linalg.norm(cloud.positions[winners]
                                              - SPLIT_REC, axis=1),
                               rtol=1e-6, atol=0.0)
            # the exact tie between the first and the last point, which
            # fall in different parts, goes to the lower index
            assert 0 in winners and n - 1 not in winners
        monkeypatch.setattr(nearfield, "PROJECTION_WORKERS", 1)
        _assert_same_layers(project_multires(cloud, SPLIT_REC, SPLIT_LEVELS),
                            layers)

    def test_layer_fill_and_merge_do_not_depend_on_split(self, monkeypatch):
        # Small parts split the layer fill and the merge's row bands too.
        cloud, _ = _grid_cloud(20_000, seed=8)
        monkeypatch.setattr(nearfield, "_MIN_PART", 500)
        results = []
        for workers in (3, 1):
            monkeypatch.setattr(nearfield, "PROJECTION_WORKERS", workers)
            layers = project_multires(cloud, SPLIT_REC, SPLIT_LEVELS)
            results.append(layers + [merge_multires(layers, SPLIT_LEVELS[0])])
        _assert_same_layers(*results)

    def test_concurrent_callers_get_their_own_results(self, monkeypatch):
        # The service's handler and registration threads both project.
        # Run two callers at once, each split over more threads than the
        # host may have cores, with frequent thread switches.
        monkeypatch.setattr(nearfield, "PROJECTION_WORKERS", 3)
        clouds = [_grid_cloud(_split_size(3), seed)[0] for seed in (6, 7)]
        want = [project_multires(c, SPLIT_REC, SPLIT_LEVELS) for c in clouds]
        got = [[], []]
        errors = []
        start = threading.Barrier(2)

        def project(i):
            try:
                start.wait(timeout=30.0)
                for _ in range(3):
                    got[i].append(project_multires(clouds[i], SPLIT_REC,
                                                   SPLIT_LEVELS))
            except Exception as exc:  # reported by the main thread
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=project, args=(i,))
                       for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        for i in range(2):
            assert len(got[i]) == 3
            for layers in got[i]:
                _assert_same_layers(layers, want[i])

    def test_live_callers_hold_no_scratch(self, monkeypatch):
        # The key pass's temporaries, six float32 and two int32 arrays and
        # one uint64 key per point of a chunk, are freed with the chunk:
        # callers that wait, holding their layers, hold nothing else.
        set_bytes_per_point = 40
        workers = nearfield.PROJECTION_WORKERS
        part = 1 << 15
        monkeypatch.setattr(nearfield, "_MIN_PART", part)
        cloud, _ = _grid_cloud(workers * part, seed=12)
        levels = [(64, 32)]
        callers = 4
        results = [None] * callers
        projected = threading.Barrier(callers + 1)
        release = threading.Event()

        def project(i):
            results[i] = project_multires(cloud, SPLIT_REC, levels)
            projected.wait(timeout=60.0)
            release.wait(timeout=60.0)

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            threads = [threading.Thread(target=project, args=(i,))
                       for i in range(callers)]
            for t in threads:
                t.start()
            projected.wait(timeout=60.0)
            held = tracemalloc.get_traced_memory()[0] - before
            release.set()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            release.set()
            tracemalloc.stop()
        # a layer's float32 distance is a view of its uint64 key map
        held -= sum(layer.color.nbytes + 2 * layer.distance.nbytes + layer.valid.nbytes
                    for layers in results for layer in layers)
        one_set = set_bytes_per_point * part
        assert held <= one_set // 4

    def test_key_pass_peaks_at_one_key_map_and_a_chunk_per_worker(self, monkeypatch):
        # A HIGH view's key pass in two parts: one key map for the whole
        # pass, and at any time one chunk of temporaries (40 bytes a point,
        # see above) per worker, whatever the part's size.
        workers = 2
        monkeypatch.setattr(nearfield, "PROJECTION_WORKERS", workers)
        n, level = 1024 * 768, (1024, 512)
        assert nearfield._parts(n) == workers
        rng = np.random.default_rng(14)
        positions = rng.uniform(-0.9, 0.9, (n, 3)).astype(np.float32)
        rec = np.float32([0.0, 0.3, 0.0])
        tracemalloc.start()
        try:
            keys = nearfield._project_keys(positions, rec, level)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        one_set = 40 * nearfield._CHUNK
        assert keys.nbytes == 8 * 1024 * 512
        assert peak <= keys.nbytes + workers * one_set + one_set // 4

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_forked_child_projects(self, monkeypatch):
        monkeypatch.setattr(nearfield, "PROJECTION_WORKERS", 2)
        cloud, _ = _grid_cloud(_split_size(2), seed=13)
        want = project_multires(cloud, SPLIT_REC, SPLIT_LEVELS)
        pid = os.fork()
        if pid == 0:  # the child; the parent's pool workers are not in it
            code = 1
            try:
                signal.signal(signal.SIGALRM, signal.SIG_DFL)
                signal.alarm(10)  # a hang ends the child
                got = project_multires(cloud, SPLIT_REC, SPLIT_LEVELS)
                _assert_same_layers(got, want)
                code = 0
            finally:
                os._exit(code)
        _, status = os.waitpid(pid, 0)
        assert os.waitstatus_to_exitcode(status) == 0



# ── per-point passes and chunk boundaries ───────────────────────────────

CHUNK = 1000  # small chunks, so a few thousand points cross several


class TestChunkBoundaries:
    def test_key_map_matches_oracle_across_chunks(self, monkeypatch):
        # Two parts of 1678 and 1679 points, each scattered in chunks of
        # 1000 from its own start: the chunks end at 1000, 1678, 2678 and
        # 3357, no multiple of the chunk size.
        monkeypatch.setattr(nearfield, "_CHUNK", CHUNK)
        monkeypatch.setattr(nearfield, "_MIN_PART", 1500)
        monkeypatch.setattr(nearfield, "PROJECTION_WORKERS", 2)
        n = 3 * CHUNK + 357
        cloud, cell = _grid_cloud(n, seed=15)
        dirs = equirect_pixel_dirs(480, 240).reshape(-1, 3)
        # Exact ties nearer than any other point of their pixel, the two
        # of each pair on either side of a chunk end.
        for first in (CHUNK - 1, 2677):
            cell[first + 1] = cell[first]
            cloud.positions[first:first + 2] = SPLIT_REC + dirs[cell[first]] * 0.25
        # Points on the reconstruction position, inside chunks, scatter
        # nothing.
        zero = [CHUNK // 2, 2 * CHUNK + 5]
        cloud.positions[zero] = SPLIT_REC
        rec = SPLIT_REC.astype(np.float32)
        chunked = [nearfield._project_keys(cloud.positions, rec, level)
                   for level in SPLIT_LEVELS]
        for keys, (w, h) in zip(chunked, SPLIT_LEVELS):
            pixels, winners = _oracle_winners(cloud, cell, w, h, skip=zero)
            assert np.array_equal(np.flatnonzero(keys < nearfield._NO_POINT), pixels)
            assert np.array_equal(keys[pixels] & 0xFFFFFFFF, winners)
            assert {CHUNK - 1, 2677} <= set(winners)
            assert not {CHUNK, 2678} & set(winners)
        # one part of one chunk gives the same keys, distances included
        monkeypatch.setattr(nearfield, "_CHUNK", n)
        monkeypatch.setattr(nearfield, "PROJECTION_WORKERS", 1)
        for keys, level in zip(chunked, SPLIT_LEVELS):
            assert np.array_equal(keys, nearfield._project_keys(cloud.positions, rec, level))

    def test_boundary_test_covers_every_chunk(self, monkeypatch):
        monkeypatch.setattr(nearfield, "_CHUNK", CHUNK)
        rng = np.random.default_rng(16)
        n = 3 * CHUNK + 357
        center = np.array([0.1, -0.2, 0.3])
        positions = (center + rng.uniform(-1.5, 1.5, (n, 3))).astype(np.float32)
        # each chunk, the tail included, starts inside and ends outside
        positions[::CHUNK] = center
        positions[CHUNK - 1::CHUNK] = center + 1.25
        positions[-1] = center - 1.25
        want = np.abs(positions.astype(np.float64) - center).max(axis=1) <= 1.0
        assert 0 < want.sum() < n
        assert np.array_equal(nearfield._inside(positions, center), want)
        assert not nearfield._inside(positions[:0], center).size


# ── layer distances ──────────────────────────────────────────────────────

class TestLayerDistance:
    def _layers(self):
        """Every kind of layer, with a split key pass and layer fill."""
        cloud, _ = _grid_cloud(20_000, seed=17)
        buf = DensePointCloudBuffer(3, SPLIT_REC, SPLIT_LEVELS, 1 << 16)
        empty = DensePointCloudBuffer(3, SPLIT_REC, SPLIT_LEVELS, 1 << 16)
        buf.insert_view(0, cloud.select(slice(0, 12_000)))
        buf.insert_view(1, cloud.select(slice(12_000, None)))
        near = project_multires(cloud, SPLIT_REC, SPLIT_LEVELS)
        return {"project_multires": near,
                "empty project_multires": project_multires(
                    PointCloud.empty(), SPLIT_REC, SPLIT_LEVELS),
                "buffer": [buf.project()], "empty buffer": [empty.project()],
                "merge_multires": [merge_multires(near, SPLIT_LEVELS[0])],
                "EnvMapLayer.empty": [EnvMapLayer.empty(8, 4)]}

    def test_every_layer_distance_is_float32(self, monkeypatch):
        monkeypatch.setattr(nearfield, "_MIN_PART", 500)
        monkeypatch.setattr(nearfield, "PROJECTION_WORKERS", 2)
        layers = self._layers()
        anchors = UnitSphereAnchorSet.create(64)
        table = precompute_table(32, 16, anchors, k=16)
        layers["far map"] = [extrapolate(anchors, (32, 16)),
                             extrapolate(anchors, (32, 16), table=table)]
        for name, group in layers.items():
            for layer in group:
                assert layer.distance.dtype == np.float32, name
                assert layer.distance.shape == (layer.height, layer.width), name

    def test_distance_is_inf_exactly_where_invalid(self, monkeypatch):
        monkeypatch.setattr(nearfield, "_MIN_PART", 500)
        monkeypatch.setattr(nearfield, "PROJECTION_WORKERS", 2)
        for name, group in self._layers().items():
            for layer in group:
                assert np.array_equal(np.isposinf(layer.distance), ~layer.valid), name
                assert np.isfinite(layer.distance[layer.valid]).all(), name

    def test_near_distance_is_the_winning_keys_upper_half(self):
        cloud, _ = _grid_cloud(20_000, seed=18)
        rec = SPLIT_REC.astype(np.float32)
        finest = nearfield._project_keys(cloud.positions, rec, SPLIT_LEVELS[0])
        layers = project_multires(cloud, SPLIT_REC, SPLIT_LEVELS)
        for layer, r in zip(layers, (1, 2, 4)):
            w, h = layer.width, layer.height
            keys = finest if r == 1 else nearfield._block_min(finest, w, h, r)
            upper = (keys >> np.uint64(32)).astype(np.uint32)
            assert np.array_equal(layer.distance.reshape(-1).view(np.uint32), upper)
        # and that half is the winner's float32 distance
        layer = layers[0]
        winners = (finest & np.uint64(0xFFFFFFFF))[layer.valid.reshape(-1)]
        rel = cloud.positions[winners.astype(np.intp)] - rec
        want = np.sqrt((rel * rel).sum(axis=1, dtype=np.float32))
        assert np.allclose(layer.distance[layer.valid], want, rtol=1e-6, atol=0.0)

# ── merge_multires ───────────────────────────────────────────────────────

def _layer(w, h, fill_color=None, distance=None):
    """A layer of float colors: merge_multires keeps its layers' dtype."""
    layer = EnvMapLayer.empty(w, h)
    layer.color = layer.color.astype(np.float64)
    if fill_color is not None:
        layer.color[:] = fill_color
        layer.distance[:] = 1.0 if distance is None else distance
        layer.valid[:] = True
    return layer


class TestMergeMultires:
    def test_single_layer_identity(self):
        src = _layer(8, 4, (0.2, 0.4, 0.6), 2.0)
        out = merge_multires([src], (8, 4))
        assert np.array_equal(out.color, src.color)
        assert np.array_equal(out.distance, src.distance)
        assert np.array_equal(out.valid, src.valid)

    def test_low_layer_fills_high_holes(self):
        high = EnvMapLayer.empty(8, 4)
        low = _layer(4, 2, (0.5, 0.5, 0.5), 3.0)
        out = merge_multires([high, low], (8, 4))
        assert out.valid.all()
        assert np.allclose(out.color, 0.5)

    def test_equal_distance_tie_goes_to_high_res(self):
        high = _layer(8, 4, (1.0, 0.0, 0.0), 2.0)
        low = _layer(4, 2, (0.0, 0.0, 1.0), 2.0)
        out = merge_multires([high, low], (8, 4))
        assert np.allclose(out.color, (1.0, 0.0, 0.0))

    def test_min_distance_wins(self):
        far_high = _layer(8, 4, (1.0, 0.0, 0.0), 5.0)
        near_low = _layer(4, 2, (0.0, 0.0, 1.0), 1.0)
        out = merge_multires([far_high, near_low], (8, 4))
        assert np.allclose(out.color, (0.0, 0.0, 1.0))
        assert np.all(out.distance == 1.0)

    def test_valid_union_and_min_distance_invariants(self):
        rng = np.random.default_rng(11)
        cloud = PointCloud(rng.uniform(-2, 2, (4000, 3)),
                           rng.uniform(0, 1, (4000, 3)))
        levels = [(32, 16), (16, 8), (8, 4)]
        layers = project_multires(cloud, np.zeros(3), levels)
        out = merge_multires(layers, (32, 16))
        scaled = [resample_nearest(l, 32, 16) for l in layers]
        union = np.logical_or.reduce([l.valid for l in scaled])
        assert np.array_equal(out.valid, union)
        stack = np.stack([l.distance for l in scaled])
        assert np.array_equal(out.distance, stack.min(axis=0))

    def test_target_must_match_largest_layer(self):
        with pytest.raises(ValueError):
            merge_multires([_layer(8, 4)], (16, 8))

    def test_layers_must_tile_the_first(self):
        with pytest.raises(ValueError, match="does not tile"):
            merge_multires([_layer(96, 48), _layer(40, 20)], (96, 48))


# ── register_icp ─────────────────────────────────────────────────────────

def _box_cloud(n=500, seed=0):
    rng = np.random.default_rng(seed)
    return PointCloud(rng.uniform(-0.5, 0.5, (n, 3)),
                      rng.uniform(0, 1, (n, 3)))


class TestRegisterIcp:
    def test_identity_for_identical_clouds(self):
        cloud = _box_cloud()
        result = register_icp(cloud, cloud)
        assert np.allclose(result.pose.rotation, np.eye(3), atol=1e-9)
        assert np.allclose(result.pose.translation, 0.0, atol=1e-9)
        assert result.converged

    def test_recovers_small_rigid_transform(self):
        cloud = _box_cloud(2000)
        true = Pose(_rot_y(5.0), np.array([0.05, 0.0, -0.02]))
        moved = PointCloud(true.transform(cloud.positions), cloud.colors)
        result = register_icp(cloud, moved)
        # Recovered transform should map source onto reference.
        err_t = np.linalg.norm(result.pose.translation - true.translation)
        cos_ang = (np.trace(result.pose.rotation @ true.rotation.T) - 1) / 2
        err_deg = math.degrees(math.acos(np.clip(cos_ang, -1, 1)))
        assert err_t <= 1e-3
        assert err_deg <= 0.1

    def test_disjoint_clouds_no_overlap_error(self):
        a = _box_cloud(100, seed=1)
        b = PointCloud(a.positions + 100.0, a.colors)
        with pytest.raises(NoOverlapError):
            register_icp(a, b)

    def test_degenerate_cloud_rejected(self):
        line = _cloud(np.outer(np.linspace(0, 1, 50), [1.0, 0, 0]))
        with pytest.raises(DegenerateGeometryError):
            register_icp(line, _box_cloud())
        with pytest.raises(DegenerateGeometryError):
            register_icp(_box_cloud(), _cloud([[0, 0, 0], [1, 1, 1]]))

    def test_residual_non_increasing(self):
        cloud = _box_cloud(1500, seed=2)
        true = Pose(_rot_y(4.0), np.array([0.03, 0.01, 0.0]))
        moved = PointCloud(true.transform(cloud.positions), cloud.colors)
        result = register_icp(cloud, moved)
        res = np.array(result.residuals)
        assert np.all(np.diff(res) <= 1e-12)

    def test_iteration_cap_respected(self, monkeypatch):
        # this pair converges in 4 iterations uncapped
        cloud = _box_cloud(300, seed=3)
        true = Pose(_rot_y(4.0), np.array([0.03, 0.01, 0.0]))
        moved = PointCloud(true.transform(cloud.positions), cloud.colors)
        monkeypatch.setattr(nearfield, "ICP_MAX_ITERATIONS", 2)
        result = register_icp(cloud, moved)
        assert result.iterations == 2
        assert not result.converged
