"""Per-layer metrics from the traced server's spans and the load
generator's request timings.

Each client request is the root span: from its first byte sent to its
reply's last byte received. Server spans are matched to it by connection
and request ordinal; both processes stamp time with the host's monotonic
clock, so the two sides share one timeline. A span's self time is its
duration minus the time its child spans cover.

Times are per keyframe (near and far keyframes together); counts of the
near field are per near keyframe, and set-up work done while answering
SessionInit is per session. README.md says what each metric measures.
"""

from __future__ import annotations

from collections import defaultdict

_FRAME_IO = ("service.read_frame", "service.write_frame")
# span name -> the per-keyframe time metric its duration adds to
_MS_OF = {
    "protocol.decode_packet": "protocol.decode_ms",
    "protocol.to_camera_frame": "protocol.decode_ms",
    "protocol.encode_packet": "protocol.encode_ms",
    "session.compose": "session.compose_ms",
    "session.to_uint8": "session.compose_ms",
    "nearfield.generate_dense_cloud": "nearfield.dense_cloud_ms",
    "nearfield.all_points": "nearfield.all_points_ms",
    "nearfield.filter_boundary": "nearfield.filter_boundary_ms",
    "nearfield.project_multires": "nearfield.project_ms",
    "nearfield.resample_nearest": "nearfield.resample_ms",
    "farfield.sparse_directions": "farfield.splat_ms",
    "farfield.splat_to_anchors": "farfield.splat_ms",
    "farfield.extrapolate": "farfield.extrapolate_ms",
}


def _clip(start: float, end: float, lo: float, hi: float) -> float:
    return max(0.0, min(end, hi) - max(start, lo))


def per_layer(requests: list[dict], spans: list[list]) -> dict[str, float]:
    """requests: the generator's successful requests, each with keys conn,
    seq, kind, t0, t1. spans: the launcher's span records."""
    by_request = defaultdict(list)
    children = defaultdict(float)
    for span_id, name, start, end, parent, conn, seq, counts in spans:
        by_request[conn, seq].append((span_id, name, start, end, parent, counts))
        if parent >= 0:
            children[parent] += end - start  # children of one span never overlap

    # summed over keyframes; a layer never called reads 0
    ms = dict.fromkeys([*_MS_OF.values(), "service.frame_io_ms", "service.self_ms",
                        "nearfield.merge_ms"], 0.0)
    count = defaultdict(float)   # summed over keyframes
    setup = defaultdict(float)   # summed over SessionInit requests
    keyframes = near = sessions = 0
    for req in requests:
        mine = by_request.get((req["conn"], req["seq"]), [])
        if req["kind"] == "init":
            sessions += 1
            for _, name, start, end, _, counts in mine:
                if name == "session.create_session":
                    setup["create"] += end - start
                elif name == "farfield.precompute_table":
                    setup["table"] += end - start
                    setup["table_bytes"] += counts["bytes"]
            continue
        keyframes += 1
        near += req["kind"] == "near"
        t0, t1 = req["t0"], req["t1"]
        covered = 0.0
        for span_id, name, start, end, parent, counts in mine:
            if parent < 0:
                covered += _clip(start, end, t0, t1)
            if name in _FRAME_IO:
                ms["service.frame_io_ms"] += _clip(start, end, t0, t1)
                count["protocol.bytes_in"] += counts.get("bytes", 0)
                continue
            dur = end - start
            key = _MS_OF.get(name)
            if key:
                ms[key] += dur
            if name == "nearfield.merge_multires":
                ms["nearfield.merge_ms"] += dur - children[span_id]
            elif name == "protocol.encode_packet":
                count["protocol.bytes_out"] += counts["bytes"]
            elif name == "nearfield.generate_dense_cloud":
                count["nearfield.points_generated"] += counts["points"]
            elif name == "nearfield.all_points":
                count["nearfield.buffered_points"] += counts["points"]
            elif name == "nearfield.filter_boundary":
                count["tested"] += counts["tested"]
                count["kept"] += counts["kept"]
            elif name == "nearfield.project_multires":
                count["nearfield.points_projected"] += counts["points"]
            elif name == "session.reproject_near":
                count["nearfield.views_projected"] += counts["views"]
            elif name == "farfield.splat_to_anchors":
                count["farfield.anchors_touched"] += counts["anchors"]
            elif name == "farfield.extrapolate":
                count["farfield.extrapolate_calls"] += 1
        ms["service.self_ms"] += (t1 - t0) - covered

    if not (keyframes and near and sessions):
        raise RuntimeError("traced run answered no near keyframe, far keyframe or session")
    out = {name: total * 1e3 / keyframes for name, total in ms.items()}
    for name in ("protocol.bytes_in", "protocol.bytes_out", "farfield.anchors_touched",
                 "farfield.extrapolate_calls"):
        out[name] = count[name] / keyframes
    for name in ("nearfield.points_generated", "nearfield.buffered_points",
                 "nearfield.points_projected", "nearfield.views_projected"):
        out[name] = count[name] / near
    out["nearfield.boundary_keep_ratio"] = count["kept"] / max(count["tested"], 1)
    out["session.create_ms"] = setup["create"] * 1e3 / sessions
    out["farfield.table_ms"] = setup["table"] * 1e3 / sessions
    out["farfield.table_mb"] = setup["table_bytes"] / 2**20 / sessions
    return out
