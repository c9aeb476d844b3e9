"""Dense point-cloud pipeline for near-field observations.

Covers cloud generation from RGB-D frames, the fixed-slot multi-view
buffer, the near-field boundary filter, multi-resolution projection with
per-pixel occlusion, layer merging, and point-to-point ICP registration.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np
from scipy.spatial import cKDTree

from .errors import DegenerateGeometryError, NoOverlapError, PointCapacityError
from .geometry import ColorImage, DepthImage, Intrinsics, Pose


def quantize(pixels: np.ndarray) -> np.ndarray:
    """8-bit export of linear colors: clipped to [0, 1], round half up.

    The arithmetic is float64 whatever the input's dtype. In float32, a
    color just below a rounding tie would round onto the tie and land one
    step up; far colors extrapolated from ambient 0.5 (0.5 * 255 + 0.5 =
    128.0) sit that close to one."""
    scaled = np.clip(pixels, 0.0, 1.0, dtype=np.float64)
    scaled *= 255.0
    scaled += 0.5
    return np.floor(scaled, out=scaled).astype(np.uint8)


def _by_pixel(a: np.ndarray) -> np.ndarray:
    """A C-contiguous (..., 3) array as a flat view of one record per
    pixel: NumPy gathers and scatters whole records two to three times
    faster than the rows of an (n, 3) array."""
    return a.reshape(-1, 3).view(np.dtype((np.void, 3 * a.itemsize))).reshape(-1)


@dataclass
class PointCloud:
    """Columnar world-space point store: positions (N, 3) meters, colors
    (N, 3) uint8 RGB, byte k standing for the linear value k/255. A near
    pixel's color is only ever copied, never blended, so it is quantized
    once, here: float colors go through quantize."""

    positions: np.ndarray
    colors: np.ndarray

    def __post_init__(self):
        # float32 positions keep the multi-million-point projection path
        # inside its latency budget; sub-micrometer precision is ample.
        self.positions = np.asarray(self.positions, dtype=np.float32).reshape(-1, 3)
        colors = np.asarray(self.colors)
        if colors.dtype != np.uint8:
            colors = quantize(colors)
        self.colors = np.ascontiguousarray(colors).reshape(-1, 3)
        if len(self.positions) != len(self.colors):
            raise ValueError("positions and colors must have equal length")

    def __len__(self) -> int:
        return len(self.positions)

    @staticmethod
    def empty() -> "PointCloud":
        return PointCloud(np.zeros((0, 3)), np.zeros((0, 3), dtype=np.uint8))

    def select(self, mask_or_idx) -> "PointCloud":
        return PointCloud(self.positions[mask_or_idx], self.colors[mask_or_idx])

    @staticmethod
    def concatenate(clouds: list["PointCloud"]) -> "PointCloud":
        if not clouds:
            return PointCloud.empty()
        return PointCloud(np.concatenate([c.positions for c in clouds]),
                          np.concatenate([c.colors for c in clouds]))


@dataclass
class _ViewSlot:
    view_id: int
    sequence: int
    cloud: PointCloud  # the points of the view inside the boundary cube
    # the hit pixels of the finest level's flat key map of cloud, indexed
    # by each point's position in cloud, and their keys; None until
    # projected
    keys: tuple[np.ndarray, np.ndarray] | None = None


class DensePointCloudBuffer:
    """Fixed-capacity multi-view point store with least-recently-observed
    slot replacement.

    Re-inserting an existing view_id overwrites its slot in place
    (spatial consistency); a new view_id fills a free slot or evicts the
    slot with the smallest insertion sequence number (temporal
    consistency).

    A buffer projects for one reconstruction position rec_pos and one
    level list, both fixed when it is built. A slot holds only the points
    of its view inside the boundary cube centered on rec_pos, the only
    ones that project; the empty and slot-capacity checks see the view as
    given, so a view wholly outside the cube still takes a slot. Each
    slot caches the projection of its cloud, so `project` projects a view
    only when its cloud changes.
    """

    def __init__(self, num_views: int, rec_pos: np.ndarray,
                 levels: list[tuple[int, int]], slot_capacity: int):
        if num_views < 1:
            raise ValueError("num_views must be >= 1")
        self.num_views = num_views
        self.slot_capacity = slot_capacity  # points per view
        self._center = np.asarray(rec_pos, dtype=np.float64).reshape(3)
        self._rec = self._center.astype(np.float32)
        levels = list(levels)
        self._size = levels[0]  # of the first level, and of the merged map
        # (level, r) pairs, coarsest first: the order the levels merge in
        self._merge_order = list(zip(levels, _level_ratios(levels)))[::-1]
        self._slots: list[_ViewSlot] = []
        self._next_seq = 0

    def insert_view(self, view_id: int, cloud: PointCloud) -> None:
        if len(cloud) == 0:
            raise ValueError("cannot insert an empty view")
        if len(cloud) > self.slot_capacity:
            raise PointCapacityError(
                f"view of {len(cloud)} points exceeds the slot capacity "
                f"of {self.slot_capacity}")
        cloud = filter_boundary(cloud, self._center)
        seq = self._next_seq
        self._next_seq += 1
        for slot in self._slots:
            if slot.view_id == view_id:
                slot.cloud, slot.sequence, slot.keys = cloud, seq, None
                return
        if len(self._slots) >= self.num_views:
            oldest = min(self._slots, key=lambda s: s.sequence)
            self._slots.remove(oldest)
        self._slots.append(_ViewSlot(view_id, seq, cloud))

    def replace_view(self, view_id: int, old: PointCloud, new: PointCloud) -> bool:
        """Put the points of new inside the boundary cube in place of the
        cloud old of view view_id, keeping the slot's recency. Returns
        False, changing nothing, if the view no longer holds old."""
        for slot in self._slots:
            if slot.view_id == view_id and slot.cloud is old:
                slot.cloud, slot.keys = filter_boundary(new, self._center), None
                return True
        return False

    def project(self) -> EnvMapLayer:
        """merge_multires(project_multires(self.all_points(), rec_pos,
        levels), levels[0]) for the buffer's rec_pos and levels, bit for
        bit, projecting only the views whose cloud changed since the last
        call.

        A view's key map holds each point's index in its own cloud; the
        view's offset in the concatenation is added at merge time. The
        levels are merged on keys, and colors are gathered once, for the
        merged map.
        """
        w, h = self._size
        total = sum(len(slot.cloud) for slot in self._slots)
        if total > _MAX_POINTS:
            raise PointCapacityError(f"buffered views hold over {_MAX_POINTS} points")
        if total == 0:
            return EnvMapLayer.empty(w, h)
        finest = np.full(w * h, _NO_POINT)
        sources = []
        offset = 0
        for slot in self._slots:
            if slot.keys is None:
                keys = _project_keys(slot.cloud.positions, self._rec, (w, h))
                # a view hits a fraction of the map: keep only those pixels
                pixels = np.flatnonzero(keys < _NO_POINT).astype(np.uint32)
                slot.keys = (pixels, keys[pixels])
            pixels, keys = slot.keys
            finest[pixels] = np.minimum(finest[pixels], keys + np.uint64(offset))
            sources.append((offset, slot.cloud.colors))
            offset += len(slot.cloud)
        # Bands of rows that are whole pixel blocks of every level merge
        # independently, in parts on several threads.
        merged = np.empty_like(finest)
        step = math.lcm(*(r for _, r in self._merge_order))
        blocks = h // step
        parts = min(_parts(w * h), blocks)
        _run_parts(self._merge_rows, [
            (finest, merged, step * (blocks * i // parts),
             step * (blocks * (i + 1) // parts)) for i in range(parts)])
        return _layer(merged, w, h, sources)

    def _merge_rows(self, finest: np.ndarray, merged: np.ndarray, r0: int, r1: int) -> None:
        """Merge rows r0..r1-1 of every level's key map, taken from the flat
        finest one, into the flat key map merged.

        floor(x / r) == floor(floor(x) / r) for integer r, and the
        half-width centering offset divides through, so a level whose
        pixels are r x r blocks of the first level's takes its key map as
        a block-min of the first one. The levels merge coarsest first, each
        broadcast over its pixel blocks; a finer level wins on its keys'
        upper halves (distances) alone, so it takes an exact tie even when
        its index is the higher one."""
        w = self._size[0]
        band = finest[r0 * w:r1 * w]
        out = merged[r0 * w:r1 * w]
        for i, ((lw, _), r) in enumerate(self._merge_order):
            lh = (r1 - r0) // r
            level = (band if r == 1 else _block_min(band, lw, lh, r)).reshape(lh, 1, lw, 1)
            blocks = out.reshape(lh, r, lw, r)
            if i == 0:
                blocks[...] = level
            else:
                np.copyto(blocks, level, where=(level >> 32) <= (blocks >> 32))

    def view_ids(self) -> list[int]:
        return [s.view_id for s in self._slots]

    def get_view(self, view_id: int) -> PointCloud | None:
        for s in self._slots:
            if s.view_id == view_id:
                return s.cloud
        return None

    def all_points(self) -> PointCloud:
        return PointCloud.concatenate([s.cloud for s in self._slots])

    def __len__(self) -> int:
        return len(self._slots)


BOUNDARY_SIDE = 2.0  # meters, edge of every near-field boundary cube
MIN_CONFIDENCE = 2  # the confidence byte a dense-cloud pixel needs


@dataclass
class EnvMapLayer:
    """One projected equirectangular layer: color, per-pixel float32
    distance to the reconstruction position, and validity. Invalid pixels
    carry distance +inf and color 0. A near layer's colors are the uint8
    colors of its points; the far map's are float32."""

    width: int
    height: int
    color: np.ndarray     # (height, width, 3)
    distance: np.ndarray  # (height, width) float32, +inf where invalid
    valid: np.ndarray     # (height, width) bool

    @staticmethod
    def empty(width: int, height: int) -> "EnvMapLayer":
        """The near layer no point reached."""
        return EnvMapLayer(width, height,
                           np.zeros((height, width, 3), dtype=np.uint8),
                           np.full((height, width), np.inf, dtype=np.float32),
                           np.zeros((height, width), dtype=bool))


# Pixels per band of generate_dense_cloud: a band's float64 points and
# their rotation (384 KB each) stay in cache between the passes over them.
_BAND_PIXELS = 1 << 14


def kept_pixels(depth: DepthImage) -> np.ndarray:
    """The (height, width) mask of the pixels generate_dense_cloud keeps:
    confidence >= MIN_CONFIDENCE and depth > 0."""
    return (depth.confidence >= MIN_CONFIDENCE) & (depth.depth > 0)


def generate_dense_cloud(color: ColorImage, depth: DepthImage, k: Intrinsics,
                         pose: Pose) -> PointCloud:
    """Unproject every pixel of kept_pixels(depth) into world space.
    Output order is row-major over kept pixels. When every pixel is kept
    and color is uint8, the cloud's colors share color.pixels."""
    if (color.width, color.height) != (depth.width, depth.height):
        raise ValueError("color and depth dimensions must match")
    keep = kept_pixels(depth)
    if not keep.any():
        return PointCloud.empty()
    # d * camera_ray, rotated and translated in float64 over the whole
    # grid, a band of rows at a time. Each point gets the bits of its own
    # pixel's unprojection: float32 depth promotes exactly, and the matmul
    # rounds a row alike in any band (a column-by-column sum would not).
    d = depth.depth
    h, w = d.shape
    x = (np.arange(w, dtype=np.float64) - k.cx) / k.fx
    y = -(np.arange(h, dtype=np.float64) - k.cy) / k.fy
    rows = min(h, max(1, _BAND_PIXELS // w))
    points = np.empty((rows, w, 3))
    positions = np.empty((h * w, 3), dtype=np.float32)
    for top in range(0, h, rows):
        band_d = d[top:top + rows]
        band = points[:len(band_d)]
        np.multiply(band_d, x, out=band[..., 0])
        np.multiply(band_d, y[top:top + rows, None], out=band[..., 1])
        np.negative(band_d, out=band[..., 2])
        rotated = band.reshape(-1, 3) @ pose.rotation.T
        out = positions[top * w:top * w + len(rotated)]
        for axis in range(3):
            np.add(rotated[:, axis], pose.translation[axis], out=out[:, axis])
    cloud = PointCloud(positions, color.pixels.reshape(-1, 3))
    return cloud if keep.all() else cloud.select(keep.ravel())


def _inside(positions: np.ndarray, center) -> np.ndarray:
    """Per point, whether it lies inside the cube of side BOUNDARY_SIDE
    centered on center (Chebyshev distance <= BOUNDARY_SIDE/2, inclusive,
    in float64)."""
    center = np.asarray(center, dtype=np.float64).reshape(3)
    half = BOUNDARY_SIDE / 2.0
    # One float64 coordinate of one _CHUNK of points at a time: the same
    # arithmetic as the max of |positions - center| over the axes, with
    # temporaries of one chunk.
    n = len(positions)
    d = np.empty(min(n, _CHUNK))
    inside = np.ones(n, dtype=bool)
    for start in range(0, n, _CHUNK):
        stop = min(start + _CHUNK, n)
        dc, ok = d[:stop - start], inside[start:stop]
        for axis in range(3):
            np.subtract(positions[start:stop, axis], center[axis], out=dc,
                        dtype=np.float64)
            np.abs(dc, out=dc)
            ok &= dc <= half
    return inside


def filter_boundary(cloud: PointCloud, center) -> PointCloud:
    """Keep, in order, the points inside the cube of side BOUNDARY_SIDE
    centered on center (see _inside). Returns cloud itself when every
    point is inside."""
    inside = _inside(cloud.positions, center)
    # An index select copies a partial cloud faster than a mask select:
    # 3.8 against 8.6 ms for 196k points, 66 % inside (2-core host).
    return cloud if inside.all() else cloud.select(np.flatnonzero(inside))


# Key-map value of a pixel no point landed on: the bits of float32 +inf
# above index 0. Its upper half is above the bits of every finite
# distance, so it is above every point's key, and a key is a hit exactly
# when it is below _NO_POINT; a miss's distance reads +inf and its index
# 0 gathers from a nonempty source.
_NO_POINT = np.uint64(0x7F800000_00000000)
# A key's lower half holds a point index, so one projection takes at most
# this many points.
_MAX_POINTS = 1 << 32

# Projections and merges of large inputs are split into up to one part
# per core, each of at least _MIN_PART items (points or pixels). Every
# part runs on the process's projection pool of PROJECTION_WORKERS
# threads, whichever thread asks for the split.
PROJECTION_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
                      else os.cpu_count() or 1)
_MIN_PART = 1 << 17
# A per-point pass (the key pass, the boundary test) runs over _CHUNK
# points at a time: its temporaries take one chunk, whatever the view's
# size (the key pass's 40 bytes a point, about 1.3 MB), and its ~25
# passes over a chunk stay in cache.
_CHUNK = 1 << 15


def _new_pool() -> None:
    """Give this process a projection pool. A forked child needs its own,
    as the parent's workers do not exist in it to run what it queues."""
    global _pool
    _pool = ThreadPoolExecutor(PROJECTION_WORKERS, thread_name_prefix="projection")


_new_pool()
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_new_pool)


def _parts(items: int) -> int:
    return max(1, min(PROJECTION_WORKERS, items // _MIN_PART))


def _run_parts(fn, jobs: list[tuple]) -> list:
    """fn(*job) for every job, on the projection pool; the results in job
    order. The caller waits for them, so a job must not split again."""
    futures = [_pool.submit(fn, *job) for job in jobs]
    return [f.result() for f in futures]


def _scatter_keys(positions: np.ndarray, start: int, stop: int, rec_pos: np.ndarray,
                  level: tuple[int, int], best: np.ndarray,
                  lock: threading.Lock) -> None:
    """Scatter-min the keys of points start..stop-1 into the flat key map
    best of the level (w, h), holding lock for the scatter.

    A key is the point's float32 distance bits above its index, so one
    scatter-min resolves both the winning distance and which point
    produced it, and equal distances break toward the lower index.
    Distances are non-negative, so the float32 bit pattern orders like
    the value. Because indices are global and a scatter-min does not
    depend on order, chunks of disjoint parts scatter into one map.
    A point coincident with rec_pos or with a NaN coordinate has no
    direction, and one at a float32 distance of +inf none that is finite:
    none of them scatters anything.
    """
    n = stop - start
    pos = positions[start:stop]
    x, y, z, dist, tmpf = np.empty((5, n), dtype=np.float32)
    np.subtract(pos[:, 0], rec_pos[0], out=x)
    np.subtract(pos[:, 1], rec_pos[1], out=y)
    np.subtract(pos[:, 2], rec_pos[2], out=z)
    np.multiply(x, x, out=dist)
    np.multiply(y, y, out=tmpf)
    dist += tmpf
    np.multiply(z, z, out=tmpf)
    dist += tmpf
    np.sqrt(dist, out=dist)

    # Two little-endian uint32 halves avoid widening and shifting passes.
    halves = np.empty((n, 2), dtype=np.uint32)
    halves[:, 0] = np.arange(start, stop, dtype=np.uint32)
    halves[:, 1] = dist.view(np.uint32)
    key = halves.view(np.uint64).reshape(n)
    # a NaN distance fails every comparison, so it takes this branch too
    if not (0.0 < float(dist.min()) and float(dist.max()) < np.inf):
        bad = ~((dist > 0.0) & (dist < np.inf))
        key[bad] = _NO_POINT
        for c in (x, y, z):  # any finite direction; their key scatters nothing
            c[bad] = 0.0
        dist[bad] = 1.0

    np.negative(z, out=z)
    theta_frac = np.empty(n, dtype=np.float32)
    np.arctan2(x, z, out=theta_frac)
    theta_frac *= np.float32(0.5 / np.pi)
    theta_frac += np.float32(1.0)
    # Mathematically (0.5, 1.5]; the clamp guards against float32 rounding
    # at the seam dropping just below 0.5 (the seam belongs to column 0).
    np.maximum(theta_frac, np.float32(0.5), out=theta_frac)

    cos_phi = y
    np.divide(y, dist, out=cos_phi)
    np.clip(cos_phi, -1.0, 1.0, out=cos_phi)
    np.multiply(cos_phi, cos_phi, out=tmpf)
    pole = tmpf == np.float32(1.0)
    any_pole = bool(pole.any())
    phi_frac = cos_phi  # in-place arccos: [0, 1]
    np.arccos(cos_phi, out=phi_frac)
    phi_frac *= np.float32(1.0 / np.pi)

    w, h = level
    px, flat = np.empty((2, n), dtype=np.int32)
    # theta_frac*w floors into [w/2, 3w/2]; subtracting w/2 centers the
    # forward direction, and the single value that lands on w is the wrap
    # back to column 0.
    np.multiply(theta_frac, np.float32(w), out=tmpf)
    px[:] = tmpf  # C float->int cast truncates; values are >= 0
    px -= np.int32(w // 2)
    px[px == w] = 0
    if any_pole:
        px[pole] = 0
    np.multiply(phi_frac, np.float32(h), out=tmpf)
    flat[:] = tmpf
    np.minimum(flat, np.int32(h - 1), out=flat)
    flat *= np.int32(w)
    flat += px
    with lock:
        np.minimum.at(best, flat, key)


def _block_min(keys: np.ndarray, w: int, h: int, r: int) -> np.ndarray:
    """The flat w x h key map of the minima of the r x r pixel blocks of
    the flat (r*w) x (r*h) key map keys."""
    blocks = keys.reshape(h, r, w, r)
    out = blocks[:, 0, :, 0].copy()
    for i in range(r):
        for j in range(r):
            if i or j:
                # far faster than a min() reduction over the block axes
                np.minimum(out, blocks[:, i, :, j], out=out)
    return out.reshape(-1)


def _gather(sources: list[tuple[int, np.ndarray]], idx: np.ndarray,
            out: np.ndarray) -> None:
    """out[i] = row idx[i] of the concatenation of the (n, 3) uint8 color
    arrays of sources, given as (start row, colors) in row order; rows
    past the end clip to the last one. Rows move as whole 3-byte records
    (see _by_pixel)."""
    out = _by_pixel(out)
    if len(sources) == 1:
        _by_pixel(sources[0][1]).take(idx, out=out, mode="clip")
        return
    which = np.zeros(len(idx), dtype=np.int32)
    for start, _ in sources[1:]:
        which += idx >= start
    for i, (start, colors) in enumerate(sources):
        sel = np.flatnonzero(which == i)
        out[sel] = _by_pixel(colors).take(idx[sel] - idx.dtype.type(start), mode="clip")


def _layer(keys: np.ndarray, w: int, h: int,
           sources: list[tuple[int, np.ndarray]]) -> EnvMapLayer:
    """The w x h layer of the flat key map keys: a hit pixel takes its
    winning point's color (gathered from sources, see _gather). The
    distance is a float32 view of the keys' upper halves, +inf at a miss.
    The colors are filled in parts on several threads."""
    halves = keys.view(np.uint32).reshape(-1, 2)
    layer = EnvMapLayer(w, h, np.empty((h, w, 3), dtype=np.uint8),
                        halves[:, 1].view(np.float32).reshape(h, w),
                        np.empty((h, w), dtype=bool))
    color = layer.color.reshape(-1, 3)
    valid = layer.valid.reshape(-1)

    def fill(s: int, e: int) -> None:
        np.less(keys[s:e], _NO_POINT, out=valid[s:e])
        _gather(sources, halves[s:e, 0], color[s:e])
        miss = ~valid[s:e]
        if miss.any():
            color[s:e][miss] = 0

    parts = _parts(w * h)
    _run_parts(fill, [(w * h * i // parts, w * h * (i + 1) // parts) for i in range(parts)])
    return layer


def _level_ratios(levels: list[tuple[int, int]]) -> list[int]:
    """Check a level list and return, per level, the r for which its
    pixels are r x r blocks of the first level's pixels. The first level
    is 2:1, so every level is."""
    if not levels:
        raise ValueError("levels must be nonempty")
    top_w, top_h = levels[0]
    if top_w != 2 * top_h:
        raise ValueError(f"level {top_w}x{top_h} is not 2:1 equirectangular")
    ratios = [top_w // w for w, _ in levels]
    for (w, h), r in zip(levels, ratios):
        if (r * w, r * h) != (top_w, top_h):
            raise ValueError(f"level {w}x{h} does not tile {top_w}x{top_h}")
    if sorted(set(ratios)) != ratios:
        raise ValueError("levels must have strictly decreasing resolutions")
    return ratios


def _project_keys(positions: np.ndarray, rec_pos: np.ndarray,
                  level: tuple[int, int]) -> np.ndarray:
    """The key pass: the flat key map of the level (w, h) of the points
    positions, indexed 0..n-1; points coinciding with rec_pos (float32)
    scatter nothing.

    Large inputs are split in parts on several threads, and each part
    scatters a _CHUNK of points at a time into the one key map; because
    keys carry the index and a scatter-min does not depend on order, the
    result does not depend on the split. The scatters take turns under a
    lock.
    """
    n = len(positions)
    if n > _MAX_POINTS:
        raise PointCapacityError(f"cannot project {n} points, over {_MAX_POINTS}")
    w, h = level
    keys = np.full(w * h, _NO_POINT)
    lock = threading.Lock()

    def scatter(start: int, stop: int) -> None:
        for s in range(start, stop, _CHUNK):
            _scatter_keys(positions, s, min(s + _CHUNK, stop), rec_pos, level, keys, lock)

    parts = _parts(n)
    bounds = [n * i // parts for i in range(parts + 1)]
    _run_parts(scatter, list(zip(bounds, bounds[1:])))
    return keys


def project_multires(cloud: PointCloud, rec_pos: np.ndarray,
                     levels: list[tuple[int, int]]) -> list[EnvMapLayer]:
    """Project one point cloud at every resolution level, keeping the
    closest point to rec_pos per pixel; exact distance ties go to the
    point with the lower index. Every level must tile the first: its
    pixels are r x r blocks of the first level's, for an integer r.

    Points coincident with rec_pos have no direction and are skipped.
    Large clouds are projected in parts on several threads; the result
    does not depend on the split.
    """
    ratios = _level_ratios(levels)
    if len(cloud) == 0:
        return [EnvMapLayer.empty(w, h) for w, h in levels]
    rec_pos = np.asarray(rec_pos, dtype=np.float32).reshape(3)
    finest = _project_keys(cloud.positions, rec_pos, levels[0])
    sources = [(0, cloud.colors)]
    return [_layer(finest if r == 1 else _block_min(finest, w, h, r), w, h, sources)
            for (w, h), r in zip(levels, ratios)]


def resample_nearest(layer: EnvMapLayer, width: int, height: int) -> EnvMapLayer:
    if (layer.width, layer.height) == (width, height):
        return layer
    ys = (np.arange(height) * layer.height) // height
    xs = (np.arange(width) * layer.width) // width
    return EnvMapLayer(width, height,
                       layer.color[np.ix_(ys, xs)],
                       layer.distance[np.ix_(ys, xs)],
                       layer.valid[np.ix_(ys, xs)])


def _merge_rows(tiled: list[tuple[EnvMapLayer, int]], color: np.ndarray,
                distance: np.ndarray, valid: np.ndarray, r0: int, r1: int) -> None:
    """Merge rows r0..r1-1 of the target map, whole pixel blocks of every
    layer, into its color, distance and valid arrays. Coarse layers
    broadcast over their pixel blocks instead of being upsampled."""
    out_c, out_d, out_v = color[r0:r1], distance[r0:r1], valid[r0:r1]
    for i, (layer, r) in enumerate(reversed(tiled)):
        rows = slice(r0 // r, r1 // r)
        shape = ((r1 - r0) // r, r, layer.width, r)
        c = layer.color[rows, None, :, None]
        d = layer.distance[rows, None, :, None]
        v = layer.valid[rows, None, :, None]
        blk_c = out_c.reshape(*shape, 3)
        blk_d = out_d.reshape(shape)
        blk_v = out_v.reshape(shape)
        if i == 0:
            blk_c[...], blk_d[...], blk_v[...] = c, d, v
            continue
        closer = d <= blk_d
        np.copyto(blk_c, c, where=closer[..., None])
        np.copyto(blk_d, d, where=closer)
        blk_v |= v
    if not out_v.all():
        invalid = ~out_v
        out_c[invalid] = 0.0
        out_d[invalid] = np.inf


def merge_multires(layers: list[EnvMapLayer], target: tuple[int, int]) -> EnvMapLayer:
    """Upscale all layers to the target resolution (nearest pixel) and keep,
    per pixel, the candidate with minimum distance; exact ties go to the
    higher-resolution layer. Every layer must tile the first, as in
    project_multires."""
    if not layers:
        raise ValueError("layers must be nonempty")
    width, height = target
    if (layers[0].width, layers[0].height) != (width, height):
        raise ValueError("target must equal the largest layer resolution")
    # Running minimum back to front; <= on earlier (higher resolution)
    # layers makes exact ties go to the higher resolution. Bands of rows
    # that are whole pixel blocks of every layer merge independently.
    ratios = _level_ratios([(layer.width, layer.height) for layer in layers])
    tiled = list(zip(layers, ratios))
    step = math.lcm(*ratios)
    last = layers[-1]
    color = np.empty((height, width, 3), last.color.dtype)
    distance = np.empty((height, width), last.distance.dtype)
    valid = np.empty((height, width), dtype=bool)
    blocks = height // step
    parts = min(_parts(width * height), blocks)
    _run_parts(_merge_rows, [
        (tiled, color, distance, valid, step * (blocks * i // parts),
         step * (blocks * (i + 1) // parts)) for i in range(parts)])
    return EnvMapLayer(width, height, color, distance, valid)


ICP_MAX_ITERATIONS = 50
ICP_CONVERGENCE_TOL = 1e-7  # meters, change in mean residual
ICP_MAX_CORRESPONDENCE_DIST = 0.1  # meters


@dataclass
class IcpResult:
    pose: Pose                     # maps source points onto the reference
    residuals: list[float] = field(default_factory=list)
    iterations: int = 0
    converged: bool = False


def _check_rank(points: np.ndarray, name: str) -> None:
    if len(points) < 3:
        raise DegenerateGeometryError(f"{name} cloud has fewer than 3 points")
    centered = points - points.mean(axis=0)
    sv = np.linalg.svd(centered, compute_uv=False)
    if sv[2] <= max(1e-12, 1e-9 * sv[0]):
        raise DegenerateGeometryError(f"{name} cloud covariance has rank < 3")


def _rigid_fit(src: np.ndarray, dst: np.ndarray) -> Pose:
    cs, cd = src.mean(axis=0), dst.mean(axis=0)
    h = (src - cs).T @ (dst - cd)
    u, _, vt = np.linalg.svd(h)
    d = np.sign(np.linalg.det(vt.T @ u.T))
    r = vt.T @ np.diag([1.0, 1.0, d]) @ u.T
    return Pose(r, cd - r @ cs)


def register_icp(source: PointCloud, reference: PointCloud) -> IcpResult:
    """Point-to-point ICP: alternate nearest-neighbor correspondence with a
    closed-form rigid fit until the mean residual stops improving."""
    _check_rank(source.positions, "source")
    _check_rank(reference.positions, "reference")
    tree = cKDTree(reference.positions)
    transform = Pose.identity()
    result = IcpResult(transform)
    prev_residual = np.inf
    for it in range(ICP_MAX_ITERATIONS):
        moved = source.positions @ transform.rotation.T + transform.translation
        d, idx = tree.query(moved, distance_upper_bound=ICP_MAX_CORRESPONDENCE_DIST)
        matched = np.isfinite(d)
        if not matched.any():
            raise NoOverlapError(
                f"no correspondences within {ICP_MAX_CORRESPONDENCE_DIST} m")
        residual = float(d[matched].mean())
        result.residuals.append(residual)
        result.iterations = it + 1
        if residual == 0.0 or abs(prev_residual - residual) < ICP_CONVERGENCE_TOL:
            result.converged = True
            break
        prev_residual = residual
        step = _rigid_fit(moved[matched], reference.positions[idx[matched]])
        transform = step.compose(transform)
        result.pose = transform
    return result
