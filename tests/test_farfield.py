"""Far-field anchor tests: Fibonacci lattice, splatting, the nearest-K
extrapolation table, and cosine-power extrapolation in both modes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litfield.farfield import (
    ExtrapolationMode,
    ExtrapolationTable,
    UnitSphereAnchorSet,
    extrapolate,
    fill_unobserved,
    generate_anchors,
    precompute_table,
    sparse_directions,
    splat_to_anchors,
)
from litfield.geometry import (ColorImage, Intrinsics, Pose,
                               equirect_pixel_dirs)


def _rot_y(deg):
    a = math.radians(deg)
    return np.array([[math.cos(a), 0, math.sin(a)],
                     [0, 1, 0],
                     [-math.sin(a), 0, math.cos(a)]])


def _gray_anchors(n=64, value=0.5):
    a = UnitSphereAnchorSet.create(n)
    fill_unobserved(a, np.full(3, value))
    return a


# ── generate_anchors ─────────────────────────────────────────────────────

class TestGenerateAnchors:
    def test_default_count_unit_norm(self):
        dirs = generate_anchors(1280)
        assert dirs.shape == (1280, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-9)

    def test_small_count_no_duplicates(self):
        dirs = generate_anchors(4)
        assert dirs.shape == (4, 3)
        for i in range(4):
            for j in range(i + 1, 4):
                assert np.linalg.norm(dirs[i] - dirs[j]) > 1e-6

    def test_rejects_tiny_counts(self):
        with pytest.raises(ValueError):
            generate_anchors(3)

    def test_deterministic(self):
        assert np.array_equal(generate_anchors(1280), generate_anchors(1280))

    def test_nearest_neighbor_angle_regression(self):
        # Brute-force nearest-neighbor angle over the 1280-point lattice;
        # the mean spacing is a frozen regression value in [4, 7] degrees.
        dirs = generate_anchors(1280)
        cos = dirs @ dirs.T
        np.fill_diagonal(cos, -1.0)
        nn_deg = np.degrees(np.arccos(np.clip(cos.max(axis=1), -1, 1)))
        assert 4.0 <= nn_deg.mean() <= 7.0


# ── sparse_directions ────────────────────────────────────────────────────

K32 = Intrinsics(fx=26.0, fy=26.0, cx=16.0, cy=12.0, width=32, height=24)


def _flat_color(w=32, h=24, rgb=(0.5, 0.5, 0.5)):
    return ColorImage(w, h, np.broadcast_to(np.asarray(rgb, dtype=float),
                                            (h, w, 3)).copy())


class TestSparseDirections:
    def test_center_pixel_identity_pose_faces_forward(self):
        dirs, _ = sparse_directions(_flat_color(), K32, Pose.identity())
        center = 12 * 32 + 16  # pixel (16, 12), the principal point
        assert np.allclose(dirs[center], (0, 0, -1), atol=1e-9)

    def test_default_res_produces_768_directions(self):
        dirs, colors = sparse_directions(_flat_color(), K32, Pose.identity())
        assert dirs.shape == (768, 3)
        assert colors.shape == (768, 3)
        assert np.allclose(np.linalg.norm(dirs, axis=1), 1.0, atol=1e-12)

    def test_rotation_equivariance(self):
        pose = Pose(_rot_y(90.0), np.zeros(3))
        base, _ = sparse_directions(_flat_color(), K32, Pose.identity())
        rotated, _ = sparse_directions(_flat_color(), K32, pose)
        assert np.allclose(rotated, base @ pose.rotation.T, atol=1e-12)

    def test_rejects_high_resolution(self):
        big = ColorImage(80, 60, np.zeros((60, 80, 3)))
        with pytest.raises(ValueError):
            sparse_directions(big, K32.scaled(80, 60), Pose.identity())


# ── splat_to_anchors ─────────────────────────────────────────────────────

class TestSplatToAnchors:
    def test_single_sample_on_anchor(self):
        a = UnitSphereAnchorSet.create(16)
        splat_to_anchors(a, a.directions[0:1], np.array([[1.0, 1.0, 1.0]]))
        assert np.allclose(a.colors[0], 1.0)
        assert a.weights[0] == 1.0
        assert a.observed[0]
        assert not a.observed[1:].any()
        assert np.all(a.weights[1:] == 0)

    def test_running_mean(self):
        a = UnitSphereAnchorSet.create(16)
        d = a.directions[3:4]
        splat_to_anchors(a, d, np.array([[1.0, 1.0, 1.0]]))
        splat_to_anchors(a, d, np.array([[0.0, 0.0, 0.0]]))
        assert np.allclose(a.colors[3], 0.5)
        assert a.weights[3] == 2.0

    def test_empty_sample_list_noop(self):
        a = _gray_anchors()
        before = a.colors.copy()
        splat_to_anchors(a, np.zeros((0, 3)), np.zeros((0, 3)))
        assert np.array_equal(a.colors, before)

    @given(seed=st.integers(0, 1000))
    @settings(max_examples=25, deadline=None)
    def test_permutation_invariance(self, seed):
        rng = np.random.default_rng(seed)
        dirs = rng.normal(size=(200, 3))
        dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
        colors = rng.uniform(0, 1, (200, 3))
        perm = rng.permutation(200)
        a = UnitSphereAnchorSet.create(32)
        b = UnitSphereAnchorSet.create(32)
        splat_to_anchors(a, dirs, colors)
        splat_to_anchors(b, dirs[perm], colors[perm])
        assert np.allclose(a.colors, b.colors, atol=1e-6)
        assert np.array_equal(a.weights, b.weights)


class TestFillUnobserved:
    def test_all_unobserved_get_ambient(self):
        a = UnitSphereAnchorSet.create(16)
        fill_unobserved(a, np.array([0.3, 0.3, 0.3]))
        assert np.allclose(a.colors, 0.3)
        assert np.all(a.weights == 0)

    def test_observed_untouched(self):
        a = UnitSphereAnchorSet.create(16)
        splat_to_anchors(a, a.directions[:8], np.ones((8, 3)))
        fill_unobserved(a, np.zeros(3))
        assert np.allclose(a.colors[:8], 1.0)
        assert np.allclose(a.colors[8:], 0.0)
        assert a.observed.sum() == 8


# ── precompute_table ─────────────────────────────────────────────────────

class TestPrecomputeTable:
    def test_k_equals_n_contains_all_anchors(self):
        a = _gray_anchors(16)
        table = precompute_table(32, 16, a, k=16)
        for row in table.indices:
            assert sorted(row) == list(range(16))

    def test_first_entry_is_nearest_anchor(self):
        a = _gray_anchors(64)
        table = precompute_table(64, 32, a, k=8)
        normals = equirect_pixel_dirs(64, 32).reshape(-1, 3)
        best = np.argmax(normals @ a.directions.T, axis=1)
        assert np.array_equal(table.indices[:, 0], best)

    def test_cosines_descending_and_clamped(self):
        a = _gray_anchors(128)
        table = precompute_table(64, 32, a, k=16)
        assert np.all(np.diff(table.cosines, axis=1) <= 1e-6)
        assert np.all(table.cosines >= 0.0)

    def test_excluded_anchors_never_beat_kth_cosine(self):
        # Brute-force check on a small map: every anchor left out of the
        # table has clamped cosine <= the K-th stored one.
        a = _gray_anchors(256)
        k = 32
        table = precompute_table(32, 16, a, k=k)
        normals = equirect_pixel_dirs(32, 16).reshape(-1, 3)
        all_cos = np.maximum(normals @ a.directions.T, 0.0)
        for p in range(len(normals)):
            stored = set(table.indices[p])
            kth = table.cosines[p, -1]
            for j in range(a.count):
                if j not in stored:
                    assert all_cos[p, j] <= kth + 1e-6

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            precompute_table(33, 16, _gray_anchors(16), k=4)
        with pytest.raises(ValueError):
            precompute_table(32, 16, _gray_anchors(16), k=17)


# ── extrapolate ──────────────────────────────────────────────────────────

class TestExtrapolate:
    def test_constant_field_preserved_in_normalized_mode(self):
        a = _gray_anchors(256, value=0.25)
        for w in (1, 16, 128):
            layer = extrapolate(a, (64, 32), w=w,
                                mode=ExtrapolationMode.NORMALIZED)
            assert np.allclose(layer.color, 0.25, atol=1e-9)
            assert layer.valid.all()
            assert np.all(np.isinf(layer.distance))

    def test_literal_mode_matches_brute_force_scale(self):
        # As written, the literal sum scales a constant field by
        # s = (2/N) * sum_j max(p_j . n_i, 0)^w per pixel, with s << 1 at
        # w=128; verify against direct summation.
        n = 1280
        a = UnitSphereAnchorSet.create(n)
        fill_unobserved(a, np.ones(3))
        layer = extrapolate(a, (64, 32), w=128, mode=ExtrapolationMode.LITERAL)
        normals = equirect_pixel_dirs(64, 32).reshape(-1, 3)
        cos = np.maximum(normals @ a.directions.T, 0.0)
        s = (2.0 / n) * (cos ** 128).sum(axis=1)
        assert np.allclose(layer.color.reshape(-1, 3),
                           s[:, None] * np.ones(3), atol=1e-9)
        assert s.max() < 1.0

    def test_single_bright_anchor_peak_location(self):
        a = UnitSphereAnchorSet.create(256)
        fill_unobserved(a, np.zeros(3))
        a.colors[100] = 1.0
        layer = extrapolate(a, (128, 64), w=128,
                            mode=ExtrapolationMode.NORMALIZED)
        lum = layer.color.sum(axis=2)
        py, px = np.unravel_index(np.argmax(lum), lum.shape)
        normals = equirect_pixel_dirs(128, 64)
        nearest = np.argmax(normals.reshape(-1, 3) @ a.directions.T, axis=1)
        assert nearest.reshape(64, 128)[py, px] == 100

    def test_support_shrinks_with_w(self):
        a = UnitSphereAnchorSet.create(1280)
        normals = equirect_pixel_dirs(64, 32).reshape(-1, 3)
        cos = np.maximum(normals @ a.directions.T, 0.0)
        prev = None
        for w in (8, 32, 128):
            wts = cos ** w
            support = (wts > 1e-6 * wts.max(axis=1, keepdims=True)).sum(axis=1)
            if prev is not None:
                assert np.all(support <= prev)
            prev = support

    def test_linearity_both_modes(self):
        rng = np.random.default_rng(5)
        a = UnitSphereAnchorSet.create(128)
        splat_to_anchors(a, a.directions, rng.uniform(0, 1, (128, 3)))
        for mode in ExtrapolationMode:
            base = extrapolate(a, (64, 32), w=16, mode=mode)
            scaled_anchors = UnitSphereAnchorSet(
                a.directions.copy(), 0.5 * a.colors, a.weights.copy(),
                a.observed.copy())
            half = extrapolate(scaled_anchors, (64, 32), w=16, mode=mode)
            assert np.allclose(half.color, 0.5 * base.color, atol=1e-6)

    def test_rotational_equivariance(self):
        # Rotate anchors by 90 deg about Y: the map shifts by a quarter
        # width (the parameterization's azimuth period / 4).
        rng = np.random.default_rng(9)
        a = UnitSphereAnchorSet.create(256)
        splat_to_anchors(a, a.directions, rng.uniform(0, 1, (256, 3)))
        base = extrapolate(a, (64, 32), w=64)
        r = _rot_y(90.0)
        rotated = UnitSphereAnchorSet(a.directions @ r.T, a.colors.copy(),
                                      a.weights.copy(), a.observed.copy())
        turned = extrapolate(rotated, (64, 32), w=64)
        # +90 deg about Y moves -Z toward -X: a quarter-width roll.
        assert np.allclose(turned.color, np.roll(base.color, -16, axis=1),
                           atol=1e-6)

    def test_table_acceleration_fidelity(self):
        rng = np.random.default_rng(21)
        a = UnitSphereAnchorSet.create(1280)
        splat_to_anchors(a, a.directions, rng.uniform(0, 1, (1280, 3)))
        table = precompute_table(128, 64, a, k=32)
        fast = extrapolate(a, (128, 64), w=128, table=table)
        slow = extrapolate(a, (128, 64), w=128)
        assert np.abs(fast.color - slow.color).max() <= 1e-3

    def test_zero_weight_pixels_fall_back_to_nearest_anchor(self):
        # One lonely observed anchor at +Y with w huge: pixels near -Y get
        # zero weight and must fall back to their nearest anchor's color.
        a = UnitSphereAnchorSet.create(16)
        fill_unobserved(a, np.full(3, 0.5))
        layer = extrapolate(a, (16, 8), w=128)
        assert np.all(np.isfinite(layer.color))
        assert np.allclose(layer.color, 0.5, atol=1e-12)

    def test_cached_operator_per_exponent_and_mode(self):
        # One table serves every (w, mode): alternate between them twice,
        # so the second round runs on the operators the first one cached.
        # K = 130 is the smallest table, at this size, that holds every
        # anchor whose cos^64 weight is at least 1e-6 of its pixel's largest.
        rng = np.random.default_rng(23)
        a = UnitSphereAnchorSet.create(1280)
        splat_to_anchors(a, a.directions, rng.uniform(0, 1, (1280, 3)))
        table = precompute_table(128, 64, a, k=130)
        for _ in range(2):
            for w in (64, 128):
                for mode in (ExtrapolationMode.NORMALIZED,
                             ExtrapolationMode.LITERAL):
                    fast = extrapolate(a, (128, 64), w=w, mode=mode,
                                       table=table)
                    slow = extrapolate(a, (128, 64), w=w, mode=mode)
                    assert np.abs(fast.color - slow.color).max() <= 1e-3

    def test_cached_operator_follows_anchor_colors(self):
        rng = np.random.default_rng(29)
        a = UnitSphereAnchorSet.create(1280)
        splat_to_anchors(a, a.directions, rng.uniform(0, 1, (1280, 3)))
        table = precompute_table(128, 64, a, k=32)
        before = extrapolate(a, (128, 64), table=table).color
        splat_to_anchors(a, a.directions[:400], np.ones((400, 3)))
        after = extrapolate(a, (128, 64), table=table).color
        assert np.abs(after - before).max() > 0.1
        slow = extrapolate(a, (128, 64)).color
        assert np.abs(after - slow).max() <= 1e-3

    def test_zero_weight_pixels_fall_back_through_table(self):
        # With 16 anchors and w = 4096, the float32 weights of every
        # tabled anchor vanish at pixels whose nearest anchor is more than
        # ~13 degrees away; those pixels take their nearest anchor's color.
        rng = np.random.default_rng(31)
        a = UnitSphereAnchorSet.create(16)
        a.colors[:] = rng.uniform(0, 1, (16, 3))
        w = 4096
        table = precompute_table(32, 16, a, k=4)
        color = extrapolate(a, (32, 16), w=w, table=table).color.reshape(-1, 3)
        normals = equirect_pixel_dirs(32, 16).reshape(-1, 3)
        cos = normals @ a.directions.T
        # far below float32's smallest subnormal, 1.4e-45
        vanished = np.max(cos, axis=1) ** w < 1e-50
        assert vanished.sum() >= 64
        nearest = np.argmax(cos, axis=1)
        assert np.all(np.isfinite(color))
        assert np.allclose(color[vanished], a.colors[nearest[vanished]],
                           rtol=1e-6, atol=0.0)

    def test_validation(self):
        a = _gray_anchors(16)
        with pytest.raises(ValueError):
            extrapolate(a, (30, 16))
        with pytest.raises(ValueError):
            extrapolate(a, (32, 16), w=0.5)
        bad_table = precompute_table(32, 16, _gray_anchors(32), k=4)
        with pytest.raises(ValueError):
            extrapolate(a, (32, 16), table=bad_table)
