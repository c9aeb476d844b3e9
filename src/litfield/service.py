"""Length-prefixed framed stream server and client for the session pipeline.

Each frame is a u32 little-endian payload length followed by one encoded
packet. Every inbound keyframe (including session init) is answered with
exactly one EnvMapResponse frame; malformed input is answered with an
error frame (kind 0xFF) and the connection stays open. A connection that
sends nothing for IDLE_TIMEOUT_S, or stalls inside a frame, is closed.
When ICP is enabled, an additional unsolicited EnvMapResponse may follow
a near keyframe's primary response once registration completes;
registration starts only after the primary response is written.
"""

from __future__ import annotations

import logging
import socket
import socketserver
import struct
import threading
import time
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from . import protocol, session as session_mod
from .errors import LitFieldError, ProtocolError
from .nearfield import PointCloud, register_icp
from .session import EnvironmentMap, Preset, ReconstructionSession, preset_config

log = logging.getLogger(__name__)

# The largest valid frame, in bytes: a near keyframe of the largest preset
# capture size, which no session's native_res exceeds. Past its ids, pose,
# intrinsics and size, such a frame holds 6.5 bytes a pixel: YCbCr 4:2:0
# color (1.5), float32 depth (4) and confidence (1). That is 5,111,901 B
# at HIGH's 1024x768; a HIGH reply is 1,572,873 B.
FRAME_CAP = struct.calcsize("<BII16f4f2H") + 13 * max(
    w * h for w, h in (preset_config(p).near_capture_res
                       for p in (Preset.LOW, Preset.MEDIUM, Preset.HIGH))) // 2
# Live sessions per connection: a SessionInit for a new id past it evicts
# the least recently used one. A bare HIGH session holds about 16 MB
# besides the far table it shares (15.8 MB by tracemalloc, MEDIUM 4.0 MB).
MAX_SESSIONS = 8
# Live connections per server: more get one error frame and are closed.
MAX_CONNECTIONS = 32
# Live sessions per server, counted over every connection: a SessionInit
# that would open one more gets an error reply and opens none. A session
# stops counting when it is evicted, re-initialized or its connection
# closes. Without it the two caps above allow 256 sessions; 32 bare HIGH
# sessions take about 470 MB, and a server holding them peaks at about
# 753 MB (TestServerMemory holds it under 900 MB).
MAX_LIVE_SESSIONS = 32
# A connection is closed when no byte arrives for IDLE_TIMEOUT_S between
# frames, or when a frame is not complete FRAME_TIMEOUT_S after its length
# prefix, so silent or stalled clients cannot hold every slot. The idle
# limit sits well above a pause in capture, and the frame limit lets a
# 5.1 MB HIGH near keyframe arrive over a 0.25 Mbit/s uplink. The idle
# limit also bounds each reply write to a client that stops reading.
IDLE_TIMEOUT_S = 300.0
FRAME_TIMEOUT_S = 180.0

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


def read_frame(sock: socket.socket,
               frame_timeout: float | None = None) -> memoryview | None:
    """Read one frame's payload into a buffer of its declared length; None
    on clean EOF at a frame boundary. The prefix waits as long as the
    socket's timeout allows. Given frame_timeout, the payload must complete
    within that many seconds of the prefix, else TimeoutError; the
    socket's timeout is restored once it has."""
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
    if frame_timeout is None:
        _read_into(sock, payload)
    else:
        timeout = sock.gettimeout()
        _read_into(sock, payload, deadline=time.monotonic() + frame_timeout)
        sock.settimeout(timeout)
    return payload


def _read_into(sock: socket.socket, buf: memoryview, eof_ok: bool = False,
               deadline: float | None = None) -> bool:
    """Fill buf from sock; False on EOF before its first byte if eof_ok.
    Given a time.monotonic() deadline, raise TimeoutError once it passes."""
    got = 0
    while got < len(buf):
        if deadline is not None:
            left = deadline - time.monotonic()
            if left <= 0.0:
                raise TimeoutError("frame not complete in time")
            sock.settimeout(left)
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
    icp_enabled: bool = False
    default_preset: Preset = Preset.HIGH


class _Handler(socketserver.BaseRequestHandler):
    """One connection: its sessions, least recently used first, and a lock
    serializing socket writes (a registration thread shares the socket
    with the request loop, and checks its session is live under it)."""

    def setup(self):
        self.sessions: OrderedDict[int, ReconstructionSession] = OrderedDict()
        self.send_lock = threading.RLock()
        self.icp_threads: list[threading.Thread] = []
        # the registration of the frame being answered, started once its
        # reply is written
        self.pending_icp: threading.Thread | None = None

    def handle(self):
        cfg: ServerConfig = self.server.cfg
        self.request.settimeout(IDLE_TIMEOUT_S)
        if not self.server.slots.acquire(blocking=False):
            self._send(protocol.ErrorPacket(
                f"server at its limit of {MAX_CONNECTIONS} connections"))
            return
        try:
            while True:
                try:
                    payload = read_frame(self.request, FRAME_TIMEOUT_S)
                except (ProtocolError, OSError):
                    break
                if payload is None:
                    break
                try:
                    reply = self._dispatch(cfg, payload)
                except LitFieldError as e:
                    reply = protocol.ErrorPacket(str(e))
                except Exception as e:  # noqa: BLE001 - the server must survive fuzzing
                    log.exception("unexpected error handling frame")
                    reply = protocol.ErrorPacket(f"internal error: {e}")
                if not self._send(reply):
                    break
                if self.pending_icp is not None:
                    self.icp_threads = [t for t in self.icp_threads if t.is_alive()]
                    self.icp_threads.append(self.pending_icp)
                    self.pending_icp.start()
                    self.pending_icp = None
            for t in self.icp_threads:
                t.join(timeout=1.0)
        finally:
            for _ in self.sessions:
                self.server.session_slots.release()
            self.server.slots.release()

    def _send(self, packet: protocol.Packet) -> bool:
        """Write one packet frame; False if the connection is gone. A write
        that fails, on a timeout too, may leave part of a frame on the
        stream, so it also shuts the connection down; that ends the request
        loop even when a registration thread made the write."""
        try:
            with self.send_lock:
                write_frame(self.request, protocol.encode_packet(packet))
        except OSError:
            try:
                self.request.shutdown(socket.SHUT_RDWR)
            except OSError:
                pass
            return False
        return True

    def _dispatch(self, cfg: ServerConfig, payload: memoryview) -> protocol.Packet:
        packet = protocol.decode_packet(payload)
        if isinstance(packet, protocol.SessionInit):
            preset = preset_of_byte(packet.preset)
            if preset is Preset.CUSTOM:
                preset = cfg.default_preset
            config = preset_config(preset)
            if tuple(packet.envmap_res) != config.envmap_res:
                (w, h), (pw, ph) = packet.envmap_res, config.envmap_res
                raise ProtocolError(
                    f"envmap_res {w}x{h} is not the {preset.value} preset's {pw}x{ph}")
            nw, nh = packet.native_res
            if nw % 2 or nh % 2:
                raise ProtocolError(
                    f"native_res {nw}x{nh} is odd; YCbCr 4:2:0 frames have even sides")
            # A new id takes a server-wide slot unless it evicts one of this
            # connection's sessions; re-initializing an id keeps its slot.
            fresh = (packet.session_id not in self.sessions
                     and len(self.sessions) < MAX_SESSIONS)
            if fresh and not self.server.session_slots.acquire(blocking=False):
                return protocol.ErrorPacket(
                    f"server at its limit of {MAX_LIVE_SESSIONS} sessions")
            try:
                sess = session_mod.create_session(
                    packet.rec_pos, config, packet.native_res,
                    packet.ambient, session_id=packet.session_id)
            except BaseException:
                if fresh:
                    self.server.session_slots.release()
                raise
            self.sessions.pop(packet.session_id, None)
            if len(self.sessions) >= MAX_SESSIONS:
                self.sessions.popitem(last=False)
            self.sessions[packet.session_id] = sess
            return _map_response(sess)
        if isinstance(packet, (protocol.NearKeyframe, protocol.FarKeyframe)):
            sess = self.sessions.get(packet.session_id)
            if sess is None:
                return protocol.ErrorPacket(f"unknown session {packet.session_id}")
            self.sessions.move_to_end(packet.session_id)
            size = (packet.intrinsics.width, packet.intrinsics.height)
            # a frame of the wrong size is refused before it is decoded
            if isinstance(packet, protocol.NearKeyframe) and size != sess.native_res:
                raise ProtocolError(f"near frame size {size} != native_res {sess.native_res}")
            if isinstance(packet, protocol.FarKeyframe) and size != session_mod.FAR_CAPTURE_RES:
                raise ProtocolError(
                    f"far frame size {size} != {session_mod.FAR_CAPTURE_RES}")
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
                # the slots' clouds, not a copy: they are replaced, never changed
                prior = sess.buffer.clouds() if icp else None
                before = sess.buffer.get_view(packet.view_id)
                sess.ingest_near(frame)
                source = sess.buffer.get_view(packet.view_id)
                reply = _map_response(sess)
            # a frame that inserted no view leaves source as it was
            if icp and source is not before and sum(map(len, prior)) >= 3:
                self.pending_icp = threading.Thread(
                    target=self._register, args=(sess, packet.view_id, source, prior),
                    daemon=True)
            return reply
        return protocol.ErrorPacket(
            f"unexpected packet type {type(packet).__name__}")

    def _register(self, sess: ReconstructionSession, view_id: int, source,
                  reference: list) -> None:
        """Register the cloud source of view view_id against the
        concatenation of the clouds reference, then apply it and send the
        updated map, unless sess has been re-initialized or evicted or the
        view has received another cloud meanwhile. Runs on a thread of its
        own."""
        try:
            result = register_icp(source, PointCloud.concatenate(reference))
        except LitFieldError as e:
            log.debug("registration skipped for view %d: %s", view_id, e)
            return
        # Under the reply lock, no reply of a new session for this id comes
        # between the check and the update; the request loop takes it only
        # after releasing sess.lock, so this lock order cannot deadlock.
        with self.send_lock, sess.lock:
            if (self.sessions.get(sess.session_id) is not sess
                    or not sess.apply_registration(view_id, result.pose, source)):
                return
            sess.reproject_near()
            self._send(_map_response(sess))


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
        self._tcp.slots = threading.BoundedSemaphore(MAX_CONNECTIONS)
        self._tcp.session_slots = threading.BoundedSemaphore(MAX_LIVE_SESSIONS)
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
        returns None if none begins within the timeout. An update once
        begun is read to its end under the client's own timeout, so no
        part of a frame is left on the stream."""
        old = self._sock.gettimeout()
        self._sock.settimeout(timeout)
        try:
            self._sock.recv(1, socket.MSG_PEEK)
        except TimeoutError:
            return None
        finally:
            self._sock.settimeout(old)
        return self._read_map()

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
