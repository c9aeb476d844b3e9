"""Far-field lighting state: unit-sphere anchors, splatting, and
cosine-power anchor extrapolation to an equirectangular map."""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.spatial import cKDTree

from .errors import ConfigurationError
from .geometry import ColorImage, Intrinsics, Pose, camera_ray, equirect_pixel_dirs
from .nearfield import EnvMapLayer, _by_pixel, _parts, _run_parts

DEFAULT_ANCHOR_COUNT = 1280
DEFAULT_EXPONENT = 128
DEFAULT_TABLE_K = 32
FAR_CAPTURE_RES = (32, 24)  # width, height of every far-field frame
TILE = 16  # side of the square pixel tiles of a table's change index
_KNN_GRID_HEIGHT = 24  # rows of the query cell grid of _knn_by_cosine
_CHUNK = 16384  # pixels per block of the no-table extrapolation
# Operator rows per chunk of a partial product: each pool worker copies
# one chunk of rows (about 2 MB at K = 32) at a time.
_ROW_CHUNK = 1 << 13

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
    FAR_CAPTURE_RES far-field frame, assuming unit depth."""
    size = (color_lowres.width, color_lowres.height)
    if size != FAR_CAPTURE_RES:
        raise ConfigurationError(f"far frame size {size} != {FAR_CAPTURE_RES}")
    v, u = np.mgrid[0:color_lowres.height, 0:color_lowres.width]
    rays = camera_ray(u.ravel(), v.ravel(), k)
    world = rays @ pose.rotation.T  # unit-depth points minus camera origin
    dirs = world / np.linalg.norm(world, axis=1, keepdims=True)
    return dirs, color_lowres.pixels.reshape(-1, 3)


def splat_to_anchors(anchors: UnitSphereAnchorSet, dirs: np.ndarray,
                     colors: np.ndarray) -> None:
    """Assign each sample to its maximum-cosine anchor and fold it into
    that anchor's running mean. Mutates the anchor set in place. A sample
    whose direction is not finite has no nearest anchor, and is dropped."""
    dirs = np.asarray(dirs, dtype=np.float64).reshape(-1, 3)
    colors = np.asarray(colors, dtype=np.float64).reshape(-1, 3)
    finite = np.isfinite(dirs).all(axis=1)
    dirs, colors = dirs[finite], colors[finite]
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


@dataclass(frozen=True, eq=False)
class ExtrapolationTable:
    """Per-pixel cache of the K nearest anchors and their clamped cosines,
    stored in descending cosine order, and the one operator a table
    serves: NORMALIZED mode at w = DEFAULT_EXPONENT.

    operator is the (height*width, anchor_count) CSR matrix W of float32
    weights such that the table-path extrapolated map is W @ anchor
    colors. Row p holds the cos^w weights of pixel p's K anchors divided
    by their sum; a row whose weights all vanish has weight 1 on its
    nearest anchor. _apply computes W @ colors as three per-channel
    sparse products, bit-identical to scipy's multi-vector product, and
    its docstring says why, which tests pin it and what it costs.

    tile_anchors indexes the map in TILE x TILE pixel tiles (edge tiles
    clipped): tile_anchors[a, ty, tx] holds if anchor a occurs in the
    K-list of some pixel of tile (ty, tx), so a change of anchor a
    reaches only the pixels of its tiles.

    A table never changes once built, so threads share it without a lock.
    """

    width: int
    height: int
    anchor_count: int
    indices: np.ndarray       # (height*width, K) int32
    cosines: np.ndarray       # (height*width, K) float32, >= 0, descending
    tile_anchors: np.ndarray  # (anchor_count, tiles down, tiles across) bool
    operator: sparse.csr_array  # column indices share the memory of indices


def precompute_table(width: int, height: int, anchors: UnitSphereAnchorSet,
                     k: int = DEFAULT_TABLE_K) -> ExtrapolationTable:
    """Precompute, for every pixel, the k anchors maximizing the dot
    product with the pixel normal, and the operator built from them."""
    if width != 2 * height:
        raise ValueError("equirectangular maps must be 2:1")
    if not 1 <= k <= anchors.count:
        raise ValueError(f"k must be in 1..{anchors.count} (the anchor count), got {k}")
    normals = equirect_pixel_dirs(width, height).reshape(-1, 3)
    indices, cosines = _knn_by_cosine(normals, anchors.directions, k)
    np.maximum(cosines, np.float32(0.0), out=cosines)
    wts = np.power(cosines, np.float32(DEFAULT_EXPONENT))  # (P, K) float32, fresh
    den = wts.sum(axis=1)
    zero = den <= 0.0
    den[zero] = 1.0
    wts /= den[:, None]
    wts[zero, 0] = 1.0
    idx_dtype = np.int32 if wts.size < 2**31 else np.int64
    operator = sparse.csr_array(
        (wts.reshape(-1), indices.reshape(-1).astype(idx_dtype, copy=False),
         np.arange(0, wts.size + 1, k, dtype=idx_dtype)),
        shape=(len(indices), anchors.count))
    return ExtrapolationTable(width, height, anchors.count, indices, cosines,
                              _tile_anchors(indices, width, height, anchors.count),
                              operator)


def _tile_anchors(indices: np.ndarray, width: int, height: int,
                  anchor_count: int) -> np.ndarray:
    """(anchor_count, tiles down, tiles across) bool: which anchors occur
    in the K-lists of each TILE x TILE pixel tile. Built one band of
    tiles at a time, so no index temporary spans the whole map."""
    k = indices.shape[1]
    out = np.zeros((anchor_count, -(-height // TILE), -(-width // TILE)), dtype=bool)
    tile_x = (np.arange(width) // TILE)[None, :, None]
    for ty, y0 in enumerate(range(0, height, TILE)):
        band = indices[y0 * width:(y0 + TILE) * width].reshape(-1, width, k)
        out[band, ty, tile_x] = True
    return out


def _tile_pixels(hit: np.ndarray, width: int, height: int) -> np.ndarray:
    """Row-major indices of the pixels that lie in the tiles hit marks."""
    mask = np.repeat(np.repeat(hit, TILE, axis=0)[:height], TILE, axis=1)
    return np.flatnonzero(mask[:, :width])


def _apply(op: sparse.csr_array, colors: np.ndarray, out: np.ndarray,
           rows: np.ndarray | None = None) -> None:
    """out[rows] = (op @ colors)[rows], or every row if rows is None.

    The product is three single-vector CSR products, one per channel of
    a contiguous (3, N) copy of colors: scipy's single-vector loop sums a
    row in a register, its multi-vector loop adds one 3-wide axpy per
    entry. Both sum a row's K products in stored order in float32 from
    zero, so the result is bit-identical to op @ colors: the
    TestServedSizes and TestIncrementalExtrapolate tests compare it with
    the multi-vector product, and TestChunkedRows compares row subsets
    with the full product. On a 2-core host the per-channel products cut
    a HIGH session start from 53 to 37 ms and a HIGH far keyframe from 19
    to 16 ms (perfbench medians).

    op has a fixed number of entries per row, so the CSR of any row
    subset is a gather of those rows' slices, and each row is summed
    exactly as in the full product. The rows are split into parts, one
    per core, since the CSR product releases the GIL. A part of rows
    gathers and multiplies _ROW_CHUNK of them at a time and scatters
    them into out as whole pixel records; the full product takes each
    part's rows as views.
    """
    k = int(op.indptr[1])
    data = op.data.reshape(-1, k)
    indices = op.indices.reshape(-1, k)
    channels = np.ascontiguousarray(colors.T)
    n = len(out) if rows is None else len(rows)

    def product(sub_data: np.ndarray, sub_indices: np.ndarray, dest: np.ndarray) -> None:
        m = len(sub_data)
        sub = sparse.csr_array((sub_data.reshape(-1), sub_indices.reshape(-1),
                                op.indptr[:m + 1]), shape=(m, op.shape[1]))
        for c, channel in enumerate(channels):
            dest[:, c] = sub @ channel

    def part(start: int, stop: int) -> None:
        if rows is None:
            sel = slice(start, stop)
            product(data[sel], indices[sel], out[sel])
            return
        for s in range(start, stop, _ROW_CHUNK):
            sel = rows[s:min(s + _ROW_CHUNK, stop)]
            block = np.empty((len(sel), 3), dtype=out.dtype)
            # take, unlike fancy indexing, releases the GIL
            product(data.take(sel, axis=0), indices.take(sel, axis=0), block)
            _by_pixel(out)[sel] = _by_pixel(block)

    parts = _parts(n * k)
    _run_parts(part, [(n * i // parts, n * (i + 1) // parts) for i in range(parts)])


def _knn_by_cosine(normals: np.ndarray, directions: np.ndarray,
                   k: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact k-nearest anchors (descending cosine) for every query normal.

    Euclidean KNN on unit vectors orders by descending cosine
    (|p - n|^2 = 2 - 2 p.n). Queries are bucketed into a coarse
    equirectangular grid of cells; each cell's candidate set is every
    anchor within (k-NN radius of the cell center) + 2 x (max chord from
    the cell center to a query in the cell), which by the triangle
    inequality contains the true k nearest anchors of every query in the
    cell. Top-k over the padded candidate lists is then a small
    argpartition instead of one over all anchors.

    Returns (indices int32, cosines float32), both (P, k), cosine-descending.
    """
    n_anchors = len(directions)
    gh, gw = _KNN_GRID_HEIGHT, 2 * _KNN_GRID_HEIGHT
    theta = np.arctan2(normals[:, 0], -normals[:, 2])  # (-pi, pi]
    phi = np.arccos(np.clip(normals[:, 1], -1.0, 1.0))
    cx = np.clip(((theta + math.pi) / (2.0 * math.pi) * gw).astype(np.int64), 0, gw - 1)
    cy = np.clip((phi / math.pi * gh).astype(np.int64), 0, gh - 1)
    cell = cy * gw + cx

    centers = equirect_pixel_dirs(gw, gh).reshape(-1, 3)

    tree = cKDTree(directions)
    d_k, _ = tree.query(centers, k=[k], workers=-1)  # k=[k]: (cells, 1) even at k = 1
    radius_k = d_k[:, 0]

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


def extrapolate(anchors: UnitSphereAnchorSet, target: tuple[int, int],
                w: float = DEFAULT_EXPONENT,
                mode: ExtrapolationMode = ExtrapolationMode.NORMALIZED,
                table: ExtrapolationTable | None = None,
                previous: tuple[EnvMapLayer, np.ndarray] | None = None
                ) -> EnvMapLayer | tuple[EnvMapLayer, np.ndarray]:
    """Fill an equirectangular map from anchor colors.

    Every output pixel is valid and +inf away (far field carries no
    geometry), in read-only broadcast views. With a table, the map is the
    table's sparse operator applied to the float32 anchor colors, over
    the K cached anchors only, and only NORMALIZED mode at
    w = DEFAULT_EXPONENT is served; otherwise over all N, _CHUNK pixels
    at a time, in either mode and at any w.

    previous, table path only, is (layer, colors): a layer this function
    returned for the same table, and the float32 anchor colors it was
    computed from. Only the pixels of tiles whose K-lists hold an anchor
    whose float32 color differs from colors are computed again; they are
    written into layer, and (layer, the row-major indices of the pixels
    computed again) is returned. The result is bit-identical to the full
    product.
    """
    width, height = target
    if width != 2 * height:
        raise ValueError("equirectangular maps must be 2:1")
    if w < 1:
        raise ValueError("exponent w must be >= 1")
    if previous is not None and table is None:
        raise ValueError("previous needs the table it was computed with")
    npix = width * height

    if table is not None:
        if (table.width, table.height) != (width, height):
            raise ValueError("table resolution does not match target")
        if table.anchor_count != anchors.count:
            raise ValueError("table anchor count does not match anchor set")
        if w != DEFAULT_EXPONENT or mode is not ExtrapolationMode.NORMALIZED:
            raise ValueError("a table serves only NORMALIZED mode at "
                             f"w = {DEFAULT_EXPONENT}")
        colors = anchors.colors.astype(np.float32)
        op = table.operator
        if previous is None:
            out = np.empty((npix, 3), dtype=np.float32)
            _apply(op, colors, out)
        else:
            layer, before = previous
            if (layer.width, layer.height) != (width, height) or \
                    layer.color.shape != (height, width, 3) or \
                    layer.color.dtype != np.float32 or \
                    not layer.color.flags.c_contiguous:
                raise ValueError("previous layer does not match the table")
            if np.shape(before) != colors.shape:
                raise ValueError("previous colors do not match the table")
            changed = np.flatnonzero((colors != before).any(axis=1))
            if not len(changed):
                return layer, np.empty(0, dtype=np.intp)
            rows = _tile_pixels(table.tile_anchors[changed].any(axis=0), width, height)
            _apply(op, colors, layer.color.reshape(npix, 3), rows)
            return layer, rows
    else:
        out = np.empty((npix, 3))
        normals = equirect_pixel_dirs(width, height).reshape(-1, 3)
        for start in range(0, npix, _CHUNK):
            raw = normals[start:start + _CHUNK] @ anchors.directions.T
            cos = np.maximum(raw, 0.0)
            wts = np.power(cos, w)
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
                       np.broadcast_to(np.float32(np.inf), (height, width)),
                       np.broadcast_to(True, (height, width)))
