"""Launch `litfield serve` with spans recorded around each serving-path
layer.

Before the server starts, the public functions of the protocol, service,
session, nearfield and farfield modules are replaced, on their module or
class, by wrappers that record one span per call: name, start, end, the
enclosing span on the same thread, and the request it served. A request
is identified by its connection (the session id of the first packet the
connection sent) and its ordinal on that connection; `read_frame`
returning a payload starts the next request. Some wrappers also record
counts measured at the same boundary (bytes, points, anchors touched).
The program's source is not modified.

Spans stay in memory and are written as JSON to SPANS_PATH when the
server stops (SIGINT or SIGTERM).

Usage: python3 traced_serve.py SPANS_PATH serve --bind HOST:PORT
"""

from __future__ import annotations

import functools
import itertools
import json
import signal
import sys
import threading
import time

from litfield import cli, farfield, nearfield, protocol, service, session

_spans: list[list] = []  # [id, name, start, end, parent, conn, seq, counts]
_ids = itertools.count()
_local = threading.local()


def _trace(owner, attr: str, name: str, post=None, pre=None,
           starts_request: bool = False) -> None:
    """Replace owner.attr by a span-recording wrapper.

    post(args, result, state) returns the span's counts; state is what
    pre(args) returned before the call. Both run outside the span.
    """
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        stack = _local.__dict__.setdefault("stack", [])
        span_id = next(_ids)
        parent = stack[-1] if stack else -1
        state = pre(args) if pre else None
        stack.append(span_id)
        start = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
        if starts_request and result is not None:
            if getattr(_local, "conn", None) is None:
                _local.conn = int.from_bytes(result[1:5], "little")
            _local.seq = getattr(_local, "seq", 0) + 1
        _spans.append([span_id, name, start, end, parent, getattr(_local, "conn", None),
                       getattr(_local, "seq", 0), post(args, result, state) if post else {}])
        return result

    setattr(owner, attr, wrapper)


def _bytes(args, result, state):
    return {"bytes": len(result) if result is not None else 0}


def _points(args, result, state):
    return {"points": len(result)}


def _points_in(args, result, state):
    return {"points": len(args[0])}


def _kept(args, result, state):
    return {"tested": len(args[0]), "kept": len(result)}


def _views(args, result, state):
    return {"views": len(args[0].buffer)}


def _table_bytes(args, result, state):
    return {"bytes": result.indices.nbytes + result.cosines.nbytes}


def _weights(args):
    return args[0].weights.copy()


def _touched(args, result, before):
    return {"anchors": int((args[0].weights != before).sum())}


def install() -> None:
    Session = session.ReconstructionSession
    _trace(service, "read_frame", "service.read_frame", _bytes, starts_request=True)
    _trace(service, "write_frame", "service.write_frame")
    _trace(protocol, "decode_packet", "protocol.decode_packet")
    _trace(protocol.NearKeyframe, "to_camera_frame", "protocol.to_camera_frame")
    _trace(protocol.FarKeyframe, "to_camera_frame", "protocol.to_camera_frame")
    _trace(protocol, "encode_packet", "protocol.encode_packet", _bytes)
    _trace(session, "create_session", "session.create_session")
    _trace(Session, "ingest_near", "session.ingest_near")
    _trace(Session, "ingest_far", "session.ingest_far")
    _trace(Session, "reproject_near", "session.reproject_near", _views)
    _trace(Session, "compose", "session.compose")
    _trace(session.EnvironmentMap, "to_uint8", "session.to_uint8")
    _trace(nearfield, "generate_dense_cloud", "nearfield.generate_dense_cloud", _points)
    _trace(nearfield.DensePointCloudBuffer, "all_points", "nearfield.all_points", _points)
    _trace(nearfield, "filter_boundary", "nearfield.filter_boundary", _kept)
    _trace(nearfield, "project_multires", "nearfield.project_multires", _points_in)
    _trace(nearfield, "merge_multires", "nearfield.merge_multires")
    _trace(nearfield, "resample_nearest", "nearfield.resample_nearest")
    _trace(farfield, "precompute_table", "farfield.precompute_table", _table_bytes)
    _trace(farfield, "sparse_directions", "farfield.sparse_directions")
    _trace(farfield, "splat_to_anchors", "farfield.splat_to_anchors", _touched,
           pre=_weights)
    _trace(farfield, "extrapolate", "farfield.extrapolate")


def _interrupt(signum, frame):
    raise KeyboardInterrupt


def main(argv: list[str]) -> None:
    spans_path, cli_args = argv[0], argv[1:]
    install()
    signal.signal(signal.SIGTERM, _interrupt)
    try:
        cli.main(cli_args, standalone_mode=False)
    finally:
        with open(spans_path, "w") as f:
            json.dump(list(_spans), f)


if __name__ == "__main__":
    main(sys.argv[1:])
