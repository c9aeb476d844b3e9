"""Reconstruction session lifecycle: presets, near/far ingestion, and
final environment-map composition."""

from __future__ import annotations

import enum
import itertools
import threading
import time
import weakref
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import farfield, nearfield
from .errors import ConfigurationError, InvalidDepthError
from .farfield import UnitSphereAnchorSet
from .geometry import CameraFrame, Pose
from .nearfield import DensePointCloudBuffer, EnvMapLayer

FAR_CAPTURE_RES = (32, 24)

_session_ids = itertools.count(1)
_session_ids_lock = threading.Lock()

# Extrapolation tables of live sessions, keyed by map size. Every session's
# anchors are the same Fibonacci lattice, so sessions with equal map sizes
# have equal tables and share one; a table never changes once built, so
# sessions on any thread use it without a lock. A table is freed with the
# last session that uses it.
_tables: "weakref.WeakValueDictionary[tuple, farfield.ExtrapolationTable]" = \
    weakref.WeakValueDictionary()
_tables_lock = threading.Lock()


def _extrapolation_table(envmap_res: tuple[int, int],
                         anchors: UnitSphereAnchorSet) -> farfield.ExtrapolationTable:
    """The shared table of a live session with this map size, or a new one."""
    with _tables_lock:
        table = _tables.get(envmap_res)
    if table is None:
        table = farfield.precompute_table(*envmap_res, anchors)
        with _tables_lock:
            table = _tables.setdefault(envmap_res, table)
    return table


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
        scaled = np.clip(self.pixels, 0.0, 1.0)
        scaled *= 255.0
        scaled += 0.5
        return np.floor(scaled, out=scaled).astype(np.uint8)

    @staticmethod
    def from_uint8(data: np.ndarray) -> "EnvironmentMap":
        data = np.asarray(data, dtype=np.uint8)
        h, w, _ = data.shape
        return EnvironmentMap(w, h, data.astype(np.float64) / 255.0)


class ReconstructionSession:
    """Owns all mutable state of one reconstruction task: the dense view
    buffer, the anchor set, and the latest near/far maps. Threads that
    share a session hold its `lock` around every call into it."""

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
        self._table = _extrapolation_table(config.envmap_res, self.anchors)
        w, h = config.envmap_res
        self.near_map = EnvMapLayer.empty(w, h)
        # the float32 anchor colors the far map was last computed from
        self._far_colors = self.anchors.colors.astype(np.float32)
        self.far_map = farfield.extrapolate(self.anchors, config.envmap_res,
                                            table=self._table)
        # cumulative per-stage wall time in seconds, for the CLI timing table
        self.timings: dict[str, float] = defaultdict(float)

    def _update_far_map(self) -> None:
        """Bring the far map up to date with the anchors, computing again
        only the pixels whose anchors changed."""
        colors = self.anchors.colors.astype(np.float32)
        self.far_map = farfield.extrapolate(
            self.anchors, self.config.envmap_res, table=self._table,
            previous=(self.far_map, self._far_colors))
        self._far_colors = colors

    def _splat_near_sample(self, cloud: nearfield.PointCloud) -> None:
        # Downsample the dense cloud to a 32x24-equivalent sample (one
        # point per far-capture-pixel stratum) before anchor splatting.
        fw, fh = FAR_CAPTURE_RES
        stride = max(1, len(cloud) // (fw * fh))
        sample = cloud.select(slice(0, None, stride))
        rel = sample.positions - self.rec_pos
        dist = np.linalg.norm(rel, axis=1)
        keep = dist > 0
        farfield.splat_to_anchors(self.anchors,
                                  rel[keep] / dist[keep, None],
                                  sample.colors[keep])

    def ingest_near(self, frame: CameraFrame) -> EnvMapLayer:
        """Run the full near-field pipeline for one RGB-D frame and return
        the updated near map. Also feeds a sparse sample of the dense
        cloud into the far-field anchors."""
        if frame.depth is None:
            raise InvalidDepthError("near-field ingestion requires depth")
        t0 = time.perf_counter()
        cloud = nearfield.generate_dense_cloud(
            frame.color, frame.depth, frame.intrinsics, frame.pose)
        self.timings["dense_cloud"] += time.perf_counter() - t0
        if len(cloud):
            self.buffer.insert_view(frame.view_id, cloud)
        # The far-field splat keeps working even when every depth sample
        # failed the confidence filter: color alone is still evidence.
        splat_cloud = cloud if len(cloud) else nearfield.generate_dense_cloud(
            frame.color, frame.depth, frame.intrinsics, frame.pose, 0)
        if len(splat_cloud):
            t0 = time.perf_counter()
            self._splat_near_sample(splat_cloud)
            self.timings["sparse_cloud"] += time.perf_counter() - t0
            t0 = time.perf_counter()
            self._update_far_map()
            self.timings["anchor_extrapolation"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        self.reproject_near()
        self.timings["multires_projection"] += time.perf_counter() - t0
        return self.near_map

    def ingest_far(self, frame: CameraFrame) -> EnvMapLayer:
        """Splat one low-resolution color-only frame into the anchors and
        re-extrapolate the far map."""
        fw, fh = FAR_CAPTURE_RES
        if (frame.color.width, frame.color.height) != (fw, fh):
            raise ConfigurationError(
                f"far-field frames must be {fw}x{fh}, "
                f"got {frame.color.width}x{frame.color.height}")
        t0 = time.perf_counter()
        dirs, colors = farfield.sparse_directions(frame.color, frame.intrinsics,
                                                  frame.pose)
        farfield.splat_to_anchors(self.anchors, dirs, colors)
        self.timings["sparse_cloud"] += time.perf_counter() - t0
        t0 = time.perf_counter()
        self._update_far_map()
        self.timings["anchor_extrapolation"] += time.perf_counter() - t0
        return self.far_map

    def reproject_near(self) -> EnvMapLayer:
        """Recompute the near map from the current buffer contents (used
        after asynchronous registration updates the buffered points).
        Only views whose points changed since the last call are
        projected again."""
        self.near_map = nearfield.resample_nearest(self.buffer.project(),
                                                   *self.config.envmap_res)
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
        """Per-pixel hard override: near map where valid, far map elsewhere."""
        w, h = self.config.envmap_res
        pixels = np.where(self.near_map.valid[:, :, None],
                          self.near_map.color, self.far_map.color)
        return EnvironmentMap(w, h, np.clip(pixels, 0.0, 1.0, out=pixels))


def create_session(rec_pos, config: SessionConfig, native_res: tuple[int, int],
                   ambient, session_id: int | None = None) -> ReconstructionSession:
    """Initialize a session: empty view buffer, ambient-filled anchors, a
    uniform far map, and a fully invalid near map."""
    if session_id is None:
        with _session_ids_lock:
            session_id = next(_session_ids)
    return ReconstructionSession(session_id, rec_pos, config, native_res, ambient)
