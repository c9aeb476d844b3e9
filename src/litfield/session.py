"""Reconstruction session lifecycle: presets, near/far ingestion, and
final environment-map composition."""

from __future__ import annotations

import enum
import itertools
import threading
import time
from dataclasses import dataclass

import numpy as np

from . import farfield, nearfield
from .errors import ConfigurationError, InvalidDepthError
from .farfield import FAR_CAPTURE_RES, UnitSphereAnchorSet
from .geometry import CameraFrame, Pose, camera_ray
from .nearfield import DensePointCloudBuffer, EnvMapLayer, _by_pixel, quantize

_session_ids = itertools.count(1)
_session_ids_lock = threading.Lock()

# Extrapolation tables, keyed by map size, each built once and kept for the
# life of the process. Every session's anchors are the same Fibonacci
# lattice, so the map size is the whole key, and the presets reach two
# sizes. The build runs under the lock, so no size is built twice; a table
# never changes once built, so sessions on any thread use it without a lock.
_tables: dict[tuple[int, int], farfield.ExtrapolationTable] = {}
_tables_lock = threading.Lock()


def _extrapolation_table(envmap_res: tuple[int, int]) -> farfield.ExtrapolationTable:
    """The table of this map size, built on its first use."""
    with _tables_lock:
        if envmap_res not in _tables:
            _tables[envmap_res] = farfield.precompute_table(
                *envmap_res, UnitSphereAnchorSet.create())
        return _tables[envmap_res]


class Preset(enum.Enum):
    LOW = "low"
    MEDIUM = "medium"
    HIGH = "high"
    CUSTOM = "custom"


@dataclass(frozen=True)
class SessionConfig:
    """The quality/performance knobs of one reconstruction session. The
    far field (anchor count, exponent, capture size) and the near-field
    boundary are fixed for every session."""

    num_views: int = 5
    near_capture_res: tuple[int, int] = (1024, 768)
    multires_levels: tuple[tuple[int, int], ...] = ((1024, 512), (512, 256))
    envmap_res: tuple[int, int] = (1024, 512)

    def __post_init__(self):
        if self.num_views < 1:
            raise ConfigurationError("num_views must be >= 1")
        w, h = self.envmap_res
        if w != 2 * h:
            raise ConfigurationError("envmap_res must be 2:1")
        try:
            nearfield._level_ratios(list(self.multires_levels))
        except ValueError as e:
            raise ConfigurationError(f"multires_levels: {e}") from None


_PRESETS = {
    Preset.LOW: dict(num_views=3, near_capture_res=(256, 192),
                     multires_levels=((512, 256), (256, 128), (64, 32)),
                     envmap_res=(512, 256)),
    Preset.MEDIUM: dict(num_views=4, near_capture_res=(512, 384),
                        multires_levels=((768, 384), (384, 192)),
                        envmap_res=(512, 256)),
    Preset.HIGH: dict(num_views=5, near_capture_res=(1024, 768),
                      multires_levels=((1024, 512), (512, 256)),
                      envmap_res=(1024, 512)),
}


def preset_config(preset: Preset) -> SessionConfig:
    """Session configuration for one of the three named presets."""
    if preset not in _PRESETS:
        raise ConfigurationError(f"no preset table entry for {preset}")
    return SessionConfig(**_PRESETS[preset])


@dataclass
class EnvironmentMap:
    """Final composed equirectangular map, linear float internally."""

    width: int
    height: int
    pixels: np.ndarray  # (height, width, 3) float in [0, 1]

    def to_uint8(self) -> np.ndarray:
        """8-bit export with round-half-up quantization."""
        return quantize(self.pixels)

    @staticmethod
    def from_uint8(data: np.ndarray) -> "EnvironmentMap":
        data = np.asarray(data, dtype=np.uint8)
        h, w, _ = data.shape
        return EnvironmentMap(w, h, data.astype(np.float64) / 255.0)


class ReconstructionSession:
    """Owns all mutable state of one reconstruction task: the dense view
    buffer, the anchor set, the latest near/far maps, and the reply.
    Threads that share a session hold its `lock` around every call into
    it, and around every read of `reply`.

    `reply` is the uint8 (height, width, 3) map `compose().to_uint8()`
    returns, kept up to date by each update of either map instead of
    being rebuilt for every keyframe. Every reply byte depends only on
    its pixel's near-valid bit, near color and far color."""

    def __init__(self, session_id: int, rec_pos: np.ndarray, config: SessionConfig,
                 native_res: tuple[int, int], ambient: np.ndarray):
        self.session_id = session_id
        self.lock = threading.Lock()
        self.rec_pos = np.asarray(rec_pos, dtype=np.float64).reshape(3)
        self.config = config
        self.native_res = native_res
        self.ambient = np.asarray(ambient, dtype=np.float64).reshape(3)
        if not np.isfinite(self.rec_pos).all():
            raise ConfigurationError("rec_pos must be finite")
        if not ((self.ambient >= 0.0) & (self.ambient <= 1.0)).all():
            raise ConfigurationError("ambient must be finite and in [0, 1]")
        # a near frame is native_res and a buffer slot holds one
        # near_capture_res frame: refuse at init the frames no slot can hold
        cw, ch = config.near_capture_res
        if native_res[0] * native_res[1] > cw * ch:
            raise ConfigurationError(
                f"native_res {native_res[0]}x{native_res[1]} has more pixels than "
                f"the near capture size {cw}x{ch}")
        self.buffer = DensePointCloudBuffer(config.num_views, self.rec_pos,
                                            list(config.multires_levels), cw * ch)
        self.anchors = UnitSphereAnchorSet.create()
        farfield.fill_unobserved(self.anchors, self.ambient)
        self._table = _extrapolation_table(config.envmap_res)
        w, h = config.envmap_res
        self.near_map = EnvMapLayer.empty(w, h)
        # the float32 anchor colors the far map was last computed from
        self._far_colors = self.anchors.colors.astype(np.float32)
        self.far_map = farfield.extrapolate(self.anchors, config.envmap_res,
                                            table=self._table)
        self._far_bytes = quantize(self.far_map.color)  # the far map, quantized
        self.reply = self._far_bytes.copy()  # no near pixel is valid yet
        # cumulative wall time in seconds of each stage of ingest_near and
        # ingest_far, in pipeline order
        self.timings = dict.fromkeys(("unproject", "insert", "near_splat", "far_splat",
                                      "far_update", "reproject"), 0.0)

    def _update_far_map(self) -> None:
        """Bring the far map up to date with the anchors, computing again
        only the pixels whose anchors changed, and the reply with it,
        quantizing only those pixels."""
        colors = self.anchors.colors.astype(np.float32)
        self.far_map, rows = farfield.extrapolate(
            self.anchors, self.config.envmap_res, table=self._table,
            previous=(self.far_map, self._far_colors))
        self._far_colors = colors
        recomputed = _by_pixel(self.far_map.color)[rows].view(np.float32)
        far = _by_pixel(self._far_bytes)
        far[rows] = _by_pixel(quantize(recomputed))
        rows = rows[~self.near_map.valid.reshape(-1)[rows]]
        _by_pixel(self.reply)[rows] = far[rows]

    def _splat_near_sample(self, frame: CameraFrame, kept: np.ndarray) -> None:
        # Splat a 32x24-equivalent sample (one pixel per far-capture-pixel
        # stratum) of the frame's kept pixels, the flat indices kept, or of
        # its pixels with depth when none is kept: color alone is still
        # evidence. Each sampled pixel lands where generate_dense_cloud
        # puts it, and brings the frame's float color.
        fw, fh = FAR_CAPTURE_RES
        if not len(kept):
            kept = np.flatnonzero(frame.depth.depth > 0)
        pixels = kept[::max(1, len(kept) // (fw * fh))]
        v, u = np.divmod(pixels, frame.depth.width)
        d = frame.depth.depth.reshape(-1)[pixels, None]
        positions = frame.pose.transform(d * camera_ray(u, v, frame.intrinsics))
        rel = positions.astype(np.float32) - self.rec_pos
        dist = np.linalg.norm(rel, axis=1)
        keep = dist > 0
        farfield.splat_to_anchors(self.anchors, rel[keep] / dist[keep, None],
                                  frame.color.colors_at(pixels[keep]))

    def ingest_near(self, frame: CameraFrame) -> EnvMapLayer:
        """Run the full near-field pipeline for one RGB-D frame and return
        the updated near map. Also feeds a sparse sample of the frame into
        the far-field anchors. A frame with no kept pixel inserts no view,
        so the near map stays as it was.

        A frame whose points could overflow float32 is refused before any
        work, with InvalidDepthError. Its reach, the largest translation
        component plus the largest depth times the longest ray (a corner
        pixel's), bounds every coordinate and must lie below float32's
        largest value."""
        if frame.depth is None:
            raise InvalidDepthError("near-field ingestion requires depth")
        w, h = frame.depth.width, frame.depth.height
        corners = camera_ray([0, w - 1, 0, w - 1], [0, 0, h - 1, h - 1], frame.intrinsics)
        reach = (np.abs(frame.pose.translation).max() + float(frame.depth.depth.max())
                 * np.linalg.norm(corners, axis=1).max())
        if not reach < np.finfo(np.float32).max:
            raise InvalidDepthError(f"the frame's points reach {reach:.3g} m, past float32")
        t0 = time.perf_counter()
        # the view's colors are read from the frame for its winners alone
        cloud = nearfield.unproject_frame(
            frame.color, frame.depth, frame.intrinsics, frame.pose)
        self.timings["unproject"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        if len(cloud):  # the insert filters, projects and compacts the view
            self.buffer.insert_view(frame.view_id, cloud)
        self.timings["insert"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        self._splat_near_sample(frame, cloud.pixels)
        self.timings["near_splat"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        self._update_far_map()
        self.timings["far_update"] += time.perf_counter() - t0
        # The near map depends only on the buffer, and the far update has
        # already written every reply pixel the near map leaves free.
        if len(cloud):
            t0 = time.perf_counter()
            self.reproject_near()
            self.timings["reproject"] += time.perf_counter() - t0
        return self.near_map

    def ingest_far(self, frame: CameraFrame) -> EnvMapLayer:
        """Splat one FAR_CAPTURE_RES color-only frame into the anchors and
        re-extrapolate the far map."""
        t0 = time.perf_counter()
        dirs, colors = farfield.sparse_directions(frame.color, frame.intrinsics,
                                                  frame.pose)
        farfield.splat_to_anchors(self.anchors, dirs, colors)
        self.timings["far_splat"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        self._update_far_map()
        self.timings["far_update"] += time.perf_counter() - t0
        return self.far_map

    def reproject_near(self) -> EnvMapLayer:
        """Recompute the near map from the current buffer contents (used
        after asynchronous registration updates the buffered points) by
        merging the slots' key maps: no view is projected again. The reply
        is rebuilt from the near map's bytes where it is valid and the
        quantized far map's elsewhere. The select is near & m | far & ~m
        for a byte mask m, 0xFF on valid pixels: 1.3-1.8 ms over a
        1024x512 map, against 4.6-7 ms per half of it for np.where
        broadcasting an (h, w, 1) mask (2 cores). Split over the pool it
        is no faster, so it runs on the calling thread."""
        w, h = self.config.envmap_res
        self.near_map = nearfield.resample_nearest(self.buffer.project(), w, h)
        mask = np.repeat(self.near_map.valid.reshape(-1), 3).view(np.uint8)
        np.negative(mask, out=mask)  # 1 -> 0xFF
        out = self.reply.reshape(-1)
        np.bitwise_and(self.near_map.color.reshape(-1), mask, out=out)
        np.invert(mask, out=mask)
        mask &= self._far_bytes.reshape(-1)
        out |= mask
        return self.near_map

    def apply_registration(self, view_id: int, correction: Pose,
                           source: nearfield.PointCloud) -> bool:
        """Move the points of one view by correction, the registration of
        its cloud source. The view keeps its slot and its recency. Returns
        False, changing nothing, if the view no longer holds source."""
        aligned = nearfield.PointCloud(correction.transform(source.positions),
                                       source.colors)
        return self.buffer.replace_view(view_id, source, aligned)

    def compose(self) -> EnvironmentMap:
        """Per-pixel hard override: near map where valid, far map elsewhere.
        A near byte k reads as k/255."""
        w, h = self.config.envmap_res
        pixels = np.where(self.near_map.valid[:, :, None],
                          self.near_map.color / 255.0, self.far_map.color)
        return EnvironmentMap(w, h, np.clip(pixels, 0.0, 1.0, out=pixels))


def create_session(rec_pos, config: SessionConfig, native_res: tuple[int, int],
                   ambient, session_id: int | None = None) -> ReconstructionSession:
    """Initialize a session: empty view buffer, ambient-filled anchors, a
    uniform far map, and a fully invalid near map."""
    if session_id is None:
        with _session_ids_lock:
            session_id = next(_session_ids)
    return ReconstructionSession(session_id, rec_pos, config, native_res, ambient)
