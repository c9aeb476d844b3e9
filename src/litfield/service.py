"""Length-prefixed framed stream server and client for the session pipeline.

Each frame is a u32 little-endian payload length followed by one encoded
packet. Every inbound keyframe (including session init) is answered with
exactly one EnvMapResponse frame; malformed input is answered with an
error frame (kind 0xFF) and the connection stays open. When ICP is
enabled, an additional unsolicited EnvMapResponse may follow a near
keyframe's primary response once registration completes; registration
starts only after the primary response is written.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import struct
import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import protocol, session as session_mod
from .errors import LitFieldError, ProtocolError
from .nearfield import register_icp
from .session import EnvironmentMap, Preset, ReconstructionSession, preset_config

log = logging.getLogger(__name__)

FRAME_CAP = 64 * 1024 * 1024  # bytes
# Live sessions per connection: a SessionInit for a new id past it evicts
# the least recently used one. A bare HIGH session holds about 16 MB
# besides the far table it shares (15.8 MB by tracemalloc, MEDIUM 4.0 MB).
MAX_SESSIONS = 8

# The preset byte of a SessionInit; CUSTOM asks for the server's default.
PRESET_TO_BYTE = {Preset.LOW: 0, Preset.MEDIUM: 1, Preset.HIGH: 2, Preset.CUSTOM: 3}


def preset_of_byte(value: int) -> Preset:
    """The preset that a SessionInit preset byte names."""
    for preset, byte in PRESET_TO_BYTE.items():
        if byte == value:
            return preset
    raise ProtocolError(f"unknown preset byte {value}")


def write_frame(sock: socket.socket, payload: bytes) -> None:
    if len(payload) > FRAME_CAP:
        raise ProtocolError(f"frame of {len(payload)} bytes exceeds cap")
    sock.sendall(struct.pack("<I", len(payload)) + payload)


def read_frame(sock: socket.socket) -> memoryview | None:
    """Read one frame's payload into a buffer of its declared length; None
    on clean EOF at a frame boundary."""
    header = bytearray(4)
    if not _read_into(sock, memoryview(header), eof_ok=True):
        return None
    (length,) = struct.unpack("<I", header)
    if length > FRAME_CAP:
        raise ProtocolError(f"declared frame length {length} exceeds cap")
    # np.empty, unlike bytearray(length), does not zero-fill: its pages
    # become resident only as recv_into writes them, so a declared but
    # unsent length reserves no memory.
    payload = memoryview(np.empty(length, dtype=np.uint8))
    _read_into(sock, payload)
    return payload


def _read_into(sock: socket.socket, buf: memoryview, eof_ok: bool = False) -> bool:
    """Fill buf from sock; False on EOF before its first byte if eof_ok."""
    got = 0
    while got < len(buf):
        n = sock.recv_into(buf[got:])
        if not n:
            if eof_ok and got == 0:
                return False
            raise ProtocolError("connection closed mid-frame")
        got += n
    return True


@dataclass
class ServerConfig:
    host: str = "127.0.0.1"
    port: int = 0  # 0 = ephemeral
    max_connections: int = 32  # more get one error frame and are closed
    icp_enabled: bool = False
    default_preset: Preset = Preset.HIGH


class _ConnectionState:
    """Per-connection session map, least recently used first, plus a lock
    serializing socket writes (the ICP worker thread shares the socket
    with the request loop)."""

    def __init__(self):
        self.sessions: OrderedDict[int, ReconstructionSession] = OrderedDict()
        self.send_lock = threading.Lock()
        self.icp_threads: list[threading.Thread] = []
        # the registration of the frame being answered, started once its
        # reply is written
        self.pending_icp: threading.Thread | None = None


class _Handler(socketserver.BaseRequestHandler):
    def handle(self):
        state = _ConnectionState()
        cfg: ServerConfig = self.server.cfg
        if not self.server.slots.acquire(blocking=False):
            self._send(state, protocol.ErrorPacket(
                f"server at its limit of {cfg.max_connections} connections"))
            return
        try:
            while True:
                try:
                    payload = read_frame(self.request)
                except (ProtocolError, ConnectionError, OSError):
                    break
                if payload is None:
                    break
                try:
                    reply = self._dispatch(state, cfg, payload)
                except LitFieldError as e:
                    reply = protocol.ErrorPacket(str(e))
                except Exception as e:  # noqa: BLE001 - the server must survive fuzzing
                    log.exception("unexpected error handling frame")
                    reply = protocol.ErrorPacket(f"internal error: {e}")
                if not self._send(state, reply):
                    break
                if state.pending_icp is not None:
                    state.icp_threads = [t for t in state.icp_threads if t.is_alive()]
                    state.icp_threads.append(state.pending_icp)
                    state.pending_icp.start()
                    state.pending_icp = None
            for t in state.icp_threads:
                t.join(timeout=1.0)
        finally:
            self.server.slots.release()

    def _send(self, state: _ConnectionState, packet: protocol.Packet) -> bool:
        """Write one packet frame; False if the connection is gone."""
        try:
            with state.send_lock:
                write_frame(self.request, protocol.encode_packet(packet))
        except (ConnectionError, OSError):
            return False
        return True

    def _dispatch(self, state: _ConnectionState, cfg: ServerConfig,
                  payload: memoryview) -> protocol.Packet:
        packet = protocol.decode_packet(payload)
        if isinstance(packet, protocol.SessionInit):
            preset = preset_of_byte(packet.preset)
            if preset is Preset.CUSTOM:
                preset = cfg.default_preset
            sess = session_mod.create_session(
                packet.rec_pos, preset_config(preset), packet.native_res,
                packet.ambient, session_id=packet.session_id)
            state.sessions.pop(packet.session_id, None)
            if len(state.sessions) >= MAX_SESSIONS:
                state.sessions.popitem(last=False)
            state.sessions[packet.session_id] = sess
            return _map_response(sess)
        if isinstance(packet, (protocol.NearKeyframe, protocol.FarKeyframe)):
            sess = state.sessions.get(packet.session_id)
            if sess is None:
                return protocol.ErrorPacket(f"unknown session {packet.session_id}")
            state.sessions.move_to_end(packet.session_id)
            size = (packet.intrinsics.width, packet.intrinsics.height)
            if isinstance(packet, protocol.NearKeyframe) and size != sess.native_res:
                raise ProtocolError(f"near frame size {size} != native_res {sess.native_res}")
            try:
                frame = packet.to_camera_frame()
            except ValueError as e:
                raise ProtocolError(f"invalid keyframe: {e}") from None
            if isinstance(packet, protocol.FarKeyframe):
                with sess.lock:
                    sess.ingest_far(frame)
                    return _map_response(sess)
            icp = cfg.icp_enabled
            with sess.lock:
                prior = sess.buffer.all_points() if icp else None
                sess.ingest_near(frame)
                source = sess.buffer.get_view(packet.view_id)
                reply = _map_response(sess)
            if icp and source is not None and len(prior) >= 3:
                state.pending_icp = self._registration(state, sess, packet.view_id,
                                                       source, prior)
            return reply
        return protocol.ErrorPacket(
            f"unexpected packet type {type(packet).__name__}")

    def _registration(self, state: _ConnectionState, sess: ReconstructionSession,
                      view_id: int, source, reference) -> threading.Thread:
        """A worker thread, not yet started, that registers the cloud
        source of view view_id against reference, then applies it and
        sends the updated map, unless the view has received another cloud
        meanwhile."""

        def worker():
            try:
                result = register_icp(source, reference)
            except LitFieldError as e:
                log.debug("registration skipped for view %d: %s", view_id, e)
                return
            with sess.lock:
                if not sess.apply_registration(view_id, result.pose, source):
                    return
                sess.reproject_near()
                reply = _map_response(sess)
            self._send(state, reply)

        return threading.Thread(target=worker, daemon=True)


def _map_response(sess: ReconstructionSession) -> protocol.EnvMapResponse:
    """A snapshot of the session's kept reply. The caller holds sess.lock:
    a registration thread rewrites the reply once the lock is free, while
    the response is encoded outside it."""
    h, w, _ = sess.reply.shape
    return protocol.EnvMapResponse(sess.session_id, w, h, sess.reply.copy())


class _Server(socketserver.ThreadingTCPServer):
    allow_reuse_address = True
    daemon_threads = True


class Server:
    """Running server handle; use as a context manager or call shutdown()."""

    def __init__(self, cfg: ServerConfig = ServerConfig()):
        self._tcp = _Server((cfg.host, cfg.port), _Handler)
        self._tcp.cfg = cfg
        self._tcp.slots = threading.BoundedSemaphore(cfg.max_connections)
        self._thread = threading.Thread(target=self._tcp.serve_forever, daemon=True)

    @property
    def address(self) -> tuple[str, int]:
        return self._tcp.server_address[:2]

    def start(self) -> "Server":
        self._thread.start()
        return self

    def shutdown(self) -> None:
        self._tcp.shutdown()
        self._tcp.server_close()

    def __enter__(self) -> "Server":
        return self.start()

    def __exit__(self, *exc) -> None:
        self.shutdown()


def serve(cfg: ServerConfig = ServerConfig()) -> Server:
    """Start a server in a background thread and return its handle."""
    return Server(cfg).start()


class Client:
    """Synchronous client: one request, one matched response per send."""

    def __init__(self, addr: tuple[str, int], timeout: float = 5.0):
        self._sock = socket.create_connection(addr, timeout=timeout)
        self._sock.settimeout(timeout)

    def close(self) -> None:
        self._sock.close()

    def __enter__(self) -> "Client":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def send(self, packet: protocol.Packet) -> EnvironmentMap:
        """Send one keyframe packet and return the resulting environment
        map; raises ProtocolError on an error reply and TimeoutError on a
        response timeout."""
        write_frame(self._sock, protocol.encode_packet(packet))
        return self._read_map()

    def poll_update(self, timeout: float = 0.1) -> EnvironmentMap | None:
        """Wait briefly for an unsolicited map update (ICP refinement);
        returns None if none arrives within the timeout."""
        old = self._sock.gettimeout()
        self._sock.settimeout(timeout)
        try:
            return self._read_map()
        except (TimeoutError, socket.timeout):
            return None
        finally:
            self._sock.settimeout(old)

    def _read_map(self) -> EnvironmentMap:
        try:
            payload = read_frame(self._sock)
        except socket.timeout as e:
            raise TimeoutError("timed out waiting for server response") from e
        if payload is None:
            raise ProtocolError("server closed the connection")
        reply = protocol.decode_packet(payload)
        if isinstance(reply, protocol.ErrorPacket):
            raise ProtocolError(reply.message)
        if not isinstance(reply, protocol.EnvMapResponse):
            raise ProtocolError(f"unexpected reply {type(reply).__name__}")
        rgb = np.asarray(reply.rgb, dtype=np.uint8)
        return EnvironmentMap.from_uint8(rgb)


def client_connect(addr: tuple[str, int], timeout: float = 5.0) -> Client:
    return Client(addr, timeout)
