"""Far-field anchor tests: Fibonacci lattice, splatting, the nearest-K
extrapolation table, and cosine-power extrapolation in both modes."""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litfield import farfield
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
            sparse_directions(big, Intrinsics(65.0, 65.0, 40.0, 30.0, 80, 60),
                              Pose.identity())


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

    @pytest.mark.parametrize("res", [(200, 100), (512, 256)])
    def test_weights_match_float64_cosine_power(self, res):
        # The operator's float32 weights against cos^w of the stored
        # cosines, normalized in float64 (no row falls back at these sizes)
        table = precompute_table(*res, UnitSphereAnchorSet.create())
        wts = table.cosines.astype(np.float64) ** farfield.DEFAULT_EXPONENT
        wts /= wts.sum(axis=1, keepdims=True)
        assert np.abs(table.operator.data - wts.reshape(-1)).max() <= 1e-7

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

    @pytest.mark.parametrize("n", [16, 64])
    @pytest.mark.parametrize("k", [1, 4, "n"])
    def test_small_inputs_match_brute_force_top_k(self, n, k):
        # Small maps and k >= N/4 take the same cell-grid path as serving
        # maps. Against a float64 brute force, every stored anchor is
        # distinct and no left-out anchor beats the k-th stored one (ties
        # at the k-th may go either way; at k = 1 the one stored anchor is
        # the max-cosine one), and the stored cosines are the anchors'
        # clamped cosines, in descending order.
        k = n if k == "n" else k
        a = _gray_anchors(n)
        table = precompute_table(32, 16, a, k=k)
        normals = equirect_pixel_dirs(32, 16).reshape(-1, 3)
        cos = normals @ a.directions.T
        kth = -np.sort(-cos, axis=1)[:, k - 1]
        assert table.indices.shape == (len(normals), k)
        for p, row in enumerate(table.indices):
            assert len(set(row)) == k
            assert np.all(cos[p, row] >= kth[p] - 1e-6)
        stored = np.take_along_axis(cos, table.indices.astype(np.intp), axis=1)
        assert np.allclose(table.cosines, np.maximum(stored, 0.0), atol=1e-6)
        assert np.all(np.diff(table.cosines, axis=1) <= 1e-6)

    def test_resolution_validation(self):
        with pytest.raises(ValueError):
            precompute_table(33, 16, _gray_anchors(16), k=4)
        with pytest.raises(ValueError):
            precompute_table(32, 16, _gray_anchors(16), k=17)
        with pytest.raises(ValueError):
            precompute_table(32, 16, _gray_anchors(16), k=0)


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

    def test_table_serves_only_normalized_at_default_exponent(self):
        a = _gray_anchors(64)
        table = precompute_table(32, 16, a, k=8)
        with pytest.raises(ValueError, match="NORMALIZED"):
            extrapolate(a, (32, 16), w=64, table=table)
        with pytest.raises(ValueError, match="NORMALIZED"):
            extrapolate(a, (32, 16), mode=ExtrapolationMode.LITERAL, table=table)
        layer = extrapolate(a, (32, 16), w=128.0, table=table)
        assert np.allclose(layer.color, 0.5, atol=1e-6)

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
        # With 4 anchors and w = 128, the float32 weights of every tabled
        # anchor vanish at pixels whose nearest anchor is more than ~64
        # degrees away; those pixels take their nearest anchor's color.
        rng = np.random.default_rng(31)
        a = UnitSphereAnchorSet.create(4)
        a.colors[:] = rng.uniform(0, 1, (4, 3))
        table = precompute_table(32, 16, a, k=4)
        color = extrapolate(a, (32, 16), table=table).color.reshape(-1, 3)
        normals = equirect_pixel_dirs(32, 16).reshape(-1, 3)
        cos = normals @ a.directions.T
        vanished = (np.maximum(cos, 0.0).astype(np.float32) ** 128).sum(axis=1) == 0
        assert vanished.sum() == 28
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


# ── incremental extrapolation ────────────────────────────────────────────

def _full_product(a, table):
    return (table.operator @ a.colors.astype(np.float32)).reshape(
        table.height, table.width, 3)


class TestIncrementalExtrapolate:
    # 200x100 is not a multiple of the tile size, so its edge tiles are clipped.
    @pytest.mark.parametrize("size", [(128, 64), (200, 100)])
    def test_bit_identical_to_full_product(self, size):
        rng = np.random.default_rng(41)
        a = _gray_anchors(1280)
        table = precompute_table(*size, a)
        layer = extrapolate(a, size, table=table)
        assert np.array_equal(layer.color, _full_product(a, table))
        for step in range(8):
            before = a.colors.astype(np.float32)
            n = int(rng.integers(1, 40))
            splat_to_anchors(a, rng.normal(size=(n, 3)), rng.uniform(0, 1, (n, 3)))
            if step == 5:
                fill_unobserved(a, np.full(3, 0.25))  # colors change, weights do not
            result = extrapolate(a, size, table=table, previous=(layer, before))
            assert result is layer
            assert np.array_equal(layer.color, _full_product(a, table))

    @pytest.mark.parametrize("size", [(128, 64), (200, 100)])
    def test_every_row_holding_a_changed_anchor_is_recomputed(self, size, monkeypatch):
        # One anchor at a time, so a row missed by the tile index or by the
        # tile edges cannot hide behind rows another anchor brings in.
        a = _gray_anchors(1280)
        table = precompute_table(*size, a)
        layer = extrapolate(a, size, table=table)
        calls = []
        apply = farfield._apply

        def spy(op, colors, out, rows=None):
            calls.append(np.arange(len(out)) if rows is None else np.array(rows))
            apply(op, colors, out, rows)

        monkeypatch.setattr(farfield, "_apply", spy)
        for anchor in range(0, 1280, 7):
            before = a.colors.astype(np.float32)
            a.colors[anchor] = 0.9 if a.colors[anchor, 0] != 0.9 else 0.1
            calls.clear()
            extrapolate(a, size, table=table, previous=(layer, before))
            recomputed = np.concatenate(calls)
            needed = np.flatnonzero((table.indices == anchor).any(axis=1))
            assert np.isin(needed, recomputed).all(), anchor
            assert len(recomputed) < table.width * table.height
        assert np.array_equal(layer.color, _full_product(a, table))

    @pytest.mark.parametrize("size", [(128, 64), (200, 100)])
    def test_tile_index_holds_exactly_each_tiles_anchors(self, size):
        width, height = size
        table = precompute_table(width, height, _gray_anchors(1280))
        y, x = np.divmod(np.arange(width * height), width)
        expect = np.zeros((1280, -(-height // 16), -(-width // 16)), dtype=bool)
        for ty in range(expect.shape[1]):
            for tx in range(expect.shape[2]):
                tile = (y // 16 == ty) & (x // 16 == tx)
                expect[np.unique(table.indices[tile]), ty, tx] = True
        assert np.array_equal(table.tile_anchors, expect)

    def test_previous_validation(self):
        a = _gray_anchors(1280)
        table = precompute_table(64, 32, a)
        layer = extrapolate(a, (64, 32), table=table)
        colors = a.colors.astype(np.float32)
        with pytest.raises(ValueError, match="table"):
            extrapolate(a, (64, 32), previous=(layer, colors))
        small = extrapolate(a, (32, 16), table=precompute_table(32, 16, a))
        with pytest.raises(ValueError, match="previous layer"):
            extrapolate(a, (64, 32), table=table, previous=(small, colors))
        untabled = extrapolate(a, (64, 32))  # float64 colors
        with pytest.raises(ValueError, match="previous layer"):
            extrapolate(a, (64, 32), table=table, previous=(untabled, colors))
        with pytest.raises(ValueError, match="previous colors"):
            extrapolate(a, (64, 32), table=table, previous=(layer, colors[:-1]))
        other = _gray_anchors(64)
        with pytest.raises(ValueError, match="anchor count"):
            extrapolate(other, (64, 32), table=table, previous=(layer, colors))
