"""Far-field lighting state: unit-sphere anchors, splatting, and
cosine-power anchor extrapolation to an equirectangular map."""

from __future__ import annotations

import enum
import math
import threading
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .geometry import ColorImage, Intrinsics, Pose, camera_ray, equirect_pixel_dirs
from .nearfield import EnvMapLayer

DEFAULT_ANCHOR_COUNT = 1280
DEFAULT_EXPONENT = 128
DEFAULT_TABLE_K = 32
_CHUNK = 16384  # pixels per block of the no-table extrapolation

_GOLDEN_ANGLE = math.pi * (3.0 - math.sqrt(5.0))


def generate_anchors(n: int) -> np.ndarray:
    """Deterministic Fibonacci-lattice sampling of n unit directions.

    The lattice axis is world +Y so anchor density is uniform over the
    sphere independent of the equirectangular parameterization.
    """
    if n < 4:
        raise ValueError(f"anchor count must be >= 4, got {n}")
    i = np.arange(n, dtype=np.float64)
    y = 1.0 - 2.0 * (i + 0.5) / n
    r = np.sqrt(1.0 - y * y)
    ang = _GOLDEN_ANGLE * i
    return np.stack([r * np.cos(ang), y, r * np.sin(ang)], axis=1)


@dataclass
class UnitSphereAnchorSet:
    """N uniformly distributed unit directions with accumulated colors.

    colors hold the running mean of all samples ever assigned to each
    anchor; weights count those samples; unobserved anchors carry the
    ambient fill color at weight 0.
    """

    directions: np.ndarray  # (N, 3) unit vectors
    colors: np.ndarray      # (N, 3) linear RGB
    weights: np.ndarray     # (N,) sample counts
    observed: np.ndarray    # (N,) bool

    @staticmethod
    def create(n: int = DEFAULT_ANCHOR_COUNT) -> "UnitSphereAnchorSet":
        return UnitSphereAnchorSet(generate_anchors(n),
                                   np.zeros((n, 3)),
                                   np.zeros(n),
                                   np.zeros(n, dtype=bool))

    @property
    def count(self) -> int:
        return len(self.directions)


def sparse_directions(color_lowres: ColorImage, k: Intrinsics, pose: Pose):
    """Unit world-space viewing directions and colors for every pixel of a
    low-resolution far-field frame, assuming unit depth."""
    if color_lowres.width > 64 or color_lowres.height > 48:
        raise ValueError("far-field frames must be at most 64x48")
    v, u = np.mgrid[0:color_lowres.height, 0:color_lowres.width]
    rays = camera_ray(u.ravel(), v.ravel(), k)
    world = rays @ pose.rotation.T  # unit-depth points minus camera origin
    dirs = world / np.linalg.norm(world, axis=1, keepdims=True)
    return dirs, color_lowres.pixels.reshape(-1, 3)


def splat_to_anchors(anchors: UnitSphereAnchorSet, dirs: np.ndarray,
                     colors: np.ndarray) -> None:
    """Assign each sample to its maximum-cosine anchor and fold it into
    that anchor's running mean. Mutates the anchor set in place."""
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    colors = np.asarray(colors, dtype=np.float64).reshape(-1, 3)
    if len(dirs) == 0:
        return
    idx = np.argmax(dirs @ anchors.directions.T, axis=1)
    sums = np.zeros_like(anchors.colors)
    counts = np.zeros(anchors.count)
    np.add.at(sums, idx, colors)
    np.add.at(counts, idx, 1.0)
    touched = counts > 0
    total = anchors.weights[touched] + counts[touched]
    anchors.colors[touched] = (anchors.colors[touched]
                               * anchors.weights[touched, None]
                               + sums[touched]) / total[:, None]
    anchors.weights[touched] = total
    anchors.observed[touched] = True


def fill_unobserved(anchors: UnitSphereAnchorSet, ambient: np.ndarray) -> None:
    """Color every never-observed anchor with the ambient estimate."""
    ambient = np.asarray(ambient, dtype=np.float64).reshape(3)
    anchors.colors[~anchors.observed] = ambient


@dataclass
class ExtrapolationTable:
    """Per-pixel cache of the K nearest anchors and their clamped cosines,
    stored in descending cosine order.

    The table also caches, per (w, mode), the sparse operator that maps
    anchor colors to map pixels, so indices and cosines must not change
    once the table is in use. Threads may share a table.
    """

    width: int
    height: int
    anchor_count: int
    indices: np.ndarray  # (height*width, K) int32
    cosines: np.ndarray  # (height*width, K) float32, >= 0, descending
    _operators: dict = field(default_factory=dict, init=False, repr=False,
                             compare=False)
    _operators_lock: threading.Lock = field(default_factory=threading.Lock,
                                            init=False, repr=False, compare=False)

    def operator(self, w: float, mode: "ExtrapolationMode") -> sparse.csr_array:
        """(height*width, anchor_count) CSR matrix W of float32 weights such
        that the table-path extrapolated map is W @ anchor colors.

        Row p holds the cos^w weights of pixel p's K anchors: scaled by 2/N
        in LITERAL mode, divided by their sum in NORMALIZED mode, where a
        row whose weights all vanish falls back to weight 1 on its nearest
        anchor. Built once per (w, mode) and cached; the column indices
        share the table's memory.
        """
        key = (float(w), mode)
        with self._operators_lock:
            op = self._operators.get(key)
            if op is None:
                wts = _clamped_pow(self.cosines, w)  # (P, K) float32, fresh
                if mode is ExtrapolationMode.LITERAL:
                    wts *= np.float32(2.0 / self.anchor_count)
                else:
                    den = wts.sum(axis=1)
                    zero = den <= 0.0
                    den[zero] = 1.0
                    wts /= den[:, None]
                    wts[zero, 0] = 1.0
                p, k = self.indices.shape
                idx_dtype = np.int32 if p * k < 2**31 else np.int64
                indptr = np.arange(0, p * k + 1, k, dtype=idx_dtype)
                indices = self.indices.reshape(-1).astype(idx_dtype, copy=False)
                op = self._operators[key] = sparse.csr_array(
                    (wts.reshape(-1), indices, indptr),
                    shape=(p, self.anchor_count))
        return op


def precompute_table(width: int, height: int, anchors: UnitSphereAnchorSet,
                     k: int = DEFAULT_TABLE_K) -> ExtrapolationTable:
    """Precompute, for every pixel, the k anchors maximizing the dot
    product with the pixel normal."""
    if width != 2 * height:
        raise ValueError("equirectangular maps must be 2:1")
    if k > anchors.count:
        raise ValueError("k cannot exceed the anchor count")
    normals = equirect_pixel_dirs(width, height).reshape(-1, 3)
    indices, cosines = _knn_by_cosine(normals, anchors.directions, k)
    np.maximum(cosines, np.float32(0.0), out=cosines)
    return ExtrapolationTable(width, height, anchors.count, indices, cosines)


def _knn_by_cosine(normals: np.ndarray, directions: np.ndarray, k: int,
                   grid_height: int = 24) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-nearest anchors (descending cosine) for every query normal.

    Euclidean KNN on unit vectors orders by descending cosine
    (|p - n|^2 = 2 - 2 p.n). Queries are bucketed into a coarse
    equirectangular grid of cells; each cell's candidate set is every
    anchor within (32-NN radius of the cell center) + 2 x (max chord from
    the cell center to a query in the cell), which by the triangle
    inequality contains the true k nearest anchors of every query in the
    cell. Top-k over the padded candidate lists is then a small
    argpartition instead of one over all anchors.

    Returns (indices int32, cosines float32), both (P, k), cosine-descending.
    """
    n_anchors = len(directions)
    if k >= n_anchors // 4 or len(normals) < 4096:
        tree = cKDTree(directions)
        _, idx = tree.query(normals, k=k, workers=-1)
        idx = np.ascontiguousarray(np.atleast_2d(idx), dtype=np.int32)
        cos = np.einsum("pkj,pj->pk", directions[idx], normals).astype(np.float32)
        return idx, cos

    gh, gw = grid_height, 2 * grid_height
    theta = np.arctan2(normals[:, 0], -normals[:, 2])  # (-pi, pi]
    phi = np.arccos(np.clip(normals[:, 1], -1.0, 1.0))
    cx = np.clip(((theta + math.pi) / (2.0 * math.pi) * gw).astype(np.int64), 0, gw - 1)
    cy = np.clip((phi / math.pi * gh).astype(np.int64), 0, gh - 1)
    cell = cy * gw + cx

    tc = (np.arange(gw) + 0.5) / gw * 2.0 * math.pi - math.pi
    pc = (np.arange(gh) + 0.5) / gh * math.pi
    sp = np.sin(pc)[:, None]
    centers = np.stack([(sp * np.sin(tc)[None, :]).ravel(),
                        np.repeat(np.cos(pc), gw),
                        (-sp * np.cos(tc)[None, :]).ravel()], axis=1)

    tree = cKDTree(directions)
    d_k, _ = tree.query(centers, k=k, workers=-1)
    radius_k = d_k[:, -1]

    order = np.argsort(cell, kind="stable")
    sorted_cell = cell[order]
    starts = np.searchsorted(sorted_cell, np.arange(gh * gw))
    ends = np.searchsorted(sorted_cell, np.arange(gh * gw), side="right")

    out_idx = np.empty((len(normals), k), dtype=np.int32)
    out_cos = np.empty((len(normals), k), dtype=np.float32)
    dirs32 = directions.astype(np.float32)
    for c in range(gh * gw):
        s, e = starts[c], ends[c]
        if s == e:
            continue
        rows = order[s:e]
        pts = normals[rows]
        chord = np.sqrt(np.maximum(
            ((pts - centers[c]) ** 2).sum(axis=1), 0.0)).max()
        cand = tree.query_ball_point(centers[c], radius_k[c] + 2.0 * chord + 1e-9)
        cand = np.asarray(cand, dtype=np.int32)
        if len(cand) <= k:
            cand = np.arange(n_anchors, dtype=np.int32)
        cos = pts.astype(np.float32) @ dirs32[cand].T
        part = np.argpartition(cos, len(cand) - k, axis=1)[:, -k:]
        vals = np.take_along_axis(cos, part, axis=1)
        sort = np.argsort(-vals, axis=1)
        out_idx[rows] = cand[np.take_along_axis(part, sort, axis=1)]
        out_cos[rows] = np.take_along_axis(vals, sort, axis=1)
    return out_idx, out_cos


class ExtrapolationMode(enum.Enum):
    LITERAL = "literal"       # (2/N) * sum of cos^w-weighted anchor colors
    NORMALIZED = "normalized"  # cos^w-weighted mean of anchor colors


def _clamped_pow(x: np.ndarray, w: float) -> np.ndarray:
    """x**w for x >= 0, using binary exponentiation for integer w."""
    if float(w) == int(w) and w >= 1:
        e = int(w)
        result = None
        base = x
        while e:
            if e & 1:
                result = base.copy() if result is None else result * base
            e >>= 1
            if e:
                base = base * base
        return result
    return np.power(x, w)


def extrapolate(anchors: UnitSphereAnchorSet, target: tuple[int, int],
                w: float = DEFAULT_EXPONENT,
                mode: ExtrapolationMode = ExtrapolationMode.NORMALIZED,
                table: ExtrapolationTable | None = None) -> EnvMapLayer:
    """Fill an equirectangular map from anchor colors.

    Every output pixel is valid; distances are +inf (far field carries no
    geometry). With a table, the map is the table's cached sparse
    operator applied to the anchor colors, summing over the K cached
    anchors only; otherwise sums run over all N, _CHUNK pixels at a time.
    """
    width, height = target
    if width != 2 * height:
        raise ValueError("equirectangular maps must be 2:1")
    if w < 1:
        raise ValueError("exponent w must be >= 1")
    npix = width * height

    if table is not None:
        if (table.width, table.height) != (width, height):
            raise ValueError("table resolution does not match target")
        if table.anchor_count != anchors.count:
            raise ValueError("table anchor count does not match anchor set")
        out = table.operator(w, mode) @ anchors.colors.astype(np.float32)
    else:
        out = np.empty((npix, 3))
        normals = equirect_pixel_dirs(width, height).reshape(-1, 3)
        for start in range(0, npix, _CHUNK):
            raw = normals[start:start + _CHUNK] @ anchors.directions.T
            cos = np.maximum(raw, 0.0)
            wts = _clamped_pow(cos, w)
            num = wts @ anchors.colors
            if mode is ExtrapolationMode.LITERAL:
                out[start:start + _CHUNK] = (2.0 / anchors.count) * num
            else:
                den = wts.sum(axis=1)
                zero = den <= 0.0
                den[zero] = 1.0
                block = num / den[:, None]
                if zero.any():
                    block[zero] = anchors.colors[np.argmax(raw[zero], axis=1)]
                out[start:start + _CHUNK] = block

    return EnvMapLayer(width, height,
                       out.reshape(height, width, 3),
                       np.full((height, width), np.inf),
                       np.ones((height, width), dtype=bool))
