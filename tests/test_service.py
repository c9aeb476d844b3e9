"""Framed-stream server/client tests over a loopback socket.

Each test starts an ephemeral-port server; near keyframes are kept at
64x48 so a full request cycle stays fast.
"""

from __future__ import annotations

import dataclasses
import logging
import math
import os
import signal
import socket
import struct
import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from litfield import farfield, nearfield, protocol, service
from litfield import session as session_mod
from litfield.errors import ProtocolError
from litfield.geometry import CameraFrame, ColorImage, Intrinsics, Pose
from litfield.harness.scene import (
    FaceAppearance,
    SyntheticScene,
    look_at,
    render_rgbd,
)
from litfield.service import (
    FRAME_CAP,
    Client,
    Server,
    ServerConfig,
    client_connect,
    read_frame,
    serve,
    write_frame,
)
from litfield.session import Preset, ReconstructionSession, create_session, preset_config

K_NEAR = Intrinsics(fx=40.0, fy=40.0, cx=32.0, cy=24.0, width=64, height=48)
K_FAR = Intrinsics(fx=20.0, fy=15.0, cx=16.0, cy=12.0, width=32, height=24)
REC = np.array([0.0, 1.4, 0.0])


def _room() -> SyntheticScene:
    colors = {
        "floor": (0.55, 0.35, 0.15), "ceiling": (0.95, 0.95, 0.9),
        "x_min": (0.8, 0.2, 0.2), "x_max": (0.2, 0.8, 0.2),
        "z_min": (0.2, 0.2, 0.8), "z_max": (0.8, 0.8, 0.2),
    }
    return SyntheticScene(
        np.array([-0.9, 0.5, -0.9]), np.array([0.9, 2.3, 0.9]),
        {name: FaceAppearance(color=c) for name, c in colors.items()})


def _init_packet(session_id=1, preset=0, envmap_res=(512, 256)):
    return protocol.SessionInit(session_id, REC, preset, envmap_res, K_NEAR,
                                (64, 48), np.array([0.5, 0.5, 0.5]))


def _closed_by_server(sock) -> bool:
    """True once the server closes sock; TimeoutError if it does not."""
    try:
        return read_frame(sock) is None
    except ConnectionResetError:  # closed with bytes of ours unread
        return True


def _near_packet(scene, eye, session_id=1, view_id=0):
    frame = render_rgbd(scene, look_at(eye, REC), K_NEAR, view_id=view_id)
    return protocol.NearKeyframe(
        session_id, view_id, frame.pose, K_NEAR,
        protocol.rgb_to_ycbcr420(frame.color),
        frame.depth.depth.astype(np.float32),
        frame.depth.confidence)


def _far_packet(scene, eye, target, session_id=1):
    frame = render_rgbd(scene, look_at(eye, target), K_FAR)
    return protocol.FarKeyframe(session_id, frame.pose, K_FAR,
                                protocol.rgb_to_ycbcr420(frame.color))


@pytest.fixture()
def server():
    with Server(ServerConfig()) as srv:
        yield srv


class TestTranscripts:
    def test_init_then_far_is_two_frames_each_way(self, server):
        scene = _room()
        raw = socket.create_connection(server.address, timeout=5.0)
        raw.settimeout(5.0)
        try:
            for pkt in (_init_packet(),
                        _far_packet(scene, (0.0, 1.4, 0.0), (0.0, 1.4, -3.0))):
                write_frame(raw, protocol.encode_packet(pkt))
            replies = [protocol.decode_packet(read_frame(raw)) for _ in range(2)]
        finally:
            raw.close()
        assert all(isinstance(r, protocol.EnvMapResponse) for r in replies)
        assert [r.session_id for r in replies] == [1, 1]
        # The init ack is the ambient map (to within one quantization level).
        assert np.abs(replies[0].rgb.astype(int) - 128).max() <= 1
        assert np.abs(replies[1].rgb.astype(int) - 128).max() > 1

    def test_responses_preserve_request_order(self, server):
        scene = _room()
        raw = socket.create_connection(server.address, timeout=5.0)
        raw.settimeout(5.0)
        try:
            write_frame(raw, protocol.encode_packet(_init_packet()))
            targets = [(0.0, 1.4, -3.0), (3.0, 1.4, 0.0), (0.0, 1.4, 3.0)]
            for t in targets:
                write_frame(raw, protocol.encode_packet(
                    _far_packet(scene, (0.0, 1.4, 0.0), t)))
            replies = [protocol.decode_packet(read_frame(raw)) for _ in range(4)]
        finally:
            raw.close()
        assert len(replies) == 4
        # Coverage only grows, so non-ambient pixel counts must be
        # non-decreasing in arrival order.
        counts = [int(np.sum(np.any(np.abs(r.rgb.astype(int) - 128) > 1,
                                    axis=2))) for r in replies]
        assert counts == sorted(counts)

    def test_near_keyframe_round_trip(self, server):
        scene = _room()
        with client_connect(server.address) as client:
            client.send(_init_packet())
            env = client.send(_near_packet(scene, (0.3, 1.4, 0.3)))
        assert (env.width, env.height) == (512, 256)
        assert not np.allclose(env.pixels, 0.5, atol=1e-3)


class TestErrors:
    def test_keyframe_before_init_keeps_connection(self, server):
        scene = _room()
        with client_connect(server.address) as client:
            with pytest.raises(ProtocolError, match="unknown session"):
                client.send(_far_packet(scene, (0.0, 1.4, 0.0), (0.0, 1.4, -3.0)))
            # Same connection still works once initialized.
            env = client.send(_init_packet())
            assert np.allclose(env.pixels, 0.5, atol=1.1 / 255.0)

    def test_garbage_frame_gets_error_reply(self, server):
        raw = socket.create_connection(server.address, timeout=5.0)
        raw.settimeout(5.0)
        try:
            write_frame(raw, b"\xde\xad\xbe\xef")
            reply = protocol.decode_packet(read_frame(raw))
            assert isinstance(reply, protocol.ErrorPacket)
            # and the connection is still alive
            write_frame(raw, protocol.encode_packet(_init_packet()))
            reply = protocol.decode_packet(read_frame(raw))
            assert isinstance(reply, protocol.EnvMapResponse)
        finally:
            raw.close()

    def test_unknown_preset_byte(self, server):
        with client_connect(server.address) as client:
            for byte in (4, 7, 9, 255):
                with pytest.raises(ProtocolError, match=f"unknown preset byte {byte}"):
                    client.send(_init_packet(preset=byte))
            env = client.send(_init_packet(preset=0))
            assert (env.width, env.height) == (512, 256)

    @pytest.mark.parametrize("rec_pos, ambient, match", [
        ((np.nan, 1.4, 0.0), (0.5, 0.5, 0.5), "rec_pos"),
        ((0.0, np.inf, 0.0), (0.5, 0.5, 0.5), "rec_pos"),
        ((0.0, 1.4, 0.0), (0.5, np.nan, 0.5), "ambient"),
        ((0.0, 1.4, 0.0), (np.inf, 0.5, 0.5), "ambient"),
        ((0.0, 1.4, 0.0), (0.5, 0.5, 1.5), "ambient"),
    ])
    def test_invalid_session_init_gets_error_reply(self, server, rec_pos,
                                                   ambient, match):
        bad = protocol.SessionInit(1, np.array(rec_pos), 0, (512, 256), K_NEAR,
                                   (64, 48), np.array(ambient))
        with client_connect(server.address) as client:
            with pytest.raises(ProtocolError, match=match):
                client.send(bad)
            with pytest.raises(ProtocolError, match="unknown session"):
                client.send(_near_packet(_room(), (0.3, 1.4, 0.3)))
            env = client.send(_init_packet())
            assert np.allclose(env.pixels, 0.5, atol=1.1 / 255.0)

    def test_native_res_over_the_slot_capacity_gets_error_reply(self, server):
        # LOW captures 256x192; a 2048x1536 session could only ever be fed
        # frames that its buffer refuses after decoding them
        low = service.PRESET_TO_BYTE[Preset.LOW]
        assert _init_packet().preset == low
        k_big = Intrinsics(fx=1000.0, fy=1000.0, cx=1024.0, cy=768.0,
                           width=2048, height=1536)
        bad = protocol.SessionInit(1, REC, low, (512, 256), k_big, (2048, 1536),
                                   np.array([0.5, 0.5, 0.5]))
        with client_connect(server.address) as client:
            with pytest.raises(ProtocolError, match="native_res 2048x1536"):
                client.send(bad)
            with pytest.raises(ProtocolError, match="unknown session"):
                client.send(_near_packet(_room(), (0.3, 1.4, 0.3)))
            env = client.send(_init_packet())
            assert np.allclose(env.pixels, 0.5, atol=1.1 / 255.0)
            env = client.send(_near_packet(_room(), (0.3, 1.4, 0.3)))
            assert not np.allclose(env.pixels, 0.5, atol=1e-3)

    def test_envmap_res_other_than_the_presets_gets_error_reply(self, server):
        low = service.PRESET_TO_BYTE[Preset.LOW]
        custom = service.PRESET_TO_BYTE[Preset.CUSTOM]  # the server default, HIGH

        def far(sid):
            return _far_packet(_room(), (0.0, 1.4, 0.0), (0.0, 1.4, -3.0), session_id=sid)

        with client_connect(server.address) as client:
            client.send(_init_packet(session_id=1, preset=low))
            with pytest.raises(ProtocolError,
                               match="envmap_res 1024x512 is not the low preset's 512x256"):
                client.send(_init_packet(session_id=2, preset=low, envmap_res=(1024, 512)))
            with pytest.raises(ProtocolError,
                               match="envmap_res 512x256 is not the high preset's 1024x512"):
                client.send(_init_packet(session_id=1, preset=custom))
            # neither opened nor replaced a session
            with pytest.raises(ProtocolError, match="unknown session 2"):
                client.send(far(2))
            env = client.send(far(1))
            assert (env.width, env.height) == (512, 256)

    def test_odd_native_res_gets_error_reply(self, server):
        # YCbCr 4:2:0 frames have even sides, so no near frame could match
        low = service.PRESET_TO_BYTE[Preset.LOW]
        k_odd = Intrinsics(fx=200.0, fy=200.0, cx=127.5, cy=95.5, width=255, height=191)
        odd = protocol.SessionInit(1, REC, low, (512, 256), k_odd, (255, 191),
                                   np.array([0.5, 0.5, 0.5]))
        with client_connect(server.address) as client:
            with pytest.raises(ProtocolError, match="native_res 255x191 is odd"):
                client.send(odd)
            with pytest.raises(ProtocolError, match="unknown session 1"):
                client.send(_near_packet(_room(), (0.3, 1.4, 0.3)))
            client.send(_init_packet())
            env = client.send(_near_packet(_room(), (0.3, 1.4, 0.3)))
            assert not np.allclose(env.pixels, 0.5, atol=1e-3)

    def test_near_frame_of_another_size_than_native_res(self, server):
        # The session was opened for 64x48 frames; a 32x24 near frame fits
        # its slot but is refused, and the session keeps working.
        k_small = Intrinsics(fx=20.0, fy=20.0, cx=16.0, cy=12.0, width=32, height=24)
        frame = render_rgbd(_room(), look_at((0.3, 1.4, 0.3), REC), k_small)
        small = protocol.NearKeyframe(
            1, 0, frame.pose, k_small, protocol.rgb_to_ycbcr420(frame.color),
            frame.depth.depth.astype(np.float32), frame.depth.confidence)
        with client_connect(server.address) as client:
            client.send(_init_packet())
            with pytest.raises(ProtocolError, match=r"near frame size \(32, 24\)"):
                client.send(small)
            env = client.send(_near_packet(_room(), (0.3, 1.4, 0.3)))
            assert not np.allclose(env.pixels, 0.5, atol=1e-3)

    @pytest.mark.parametrize("field, value, match", [
        ("depth", np.nan, "depth values must be finite"),
        ("depth", -1.0, "depth values must be finite"),
        ("confidence", 3, "confidence values must be 0, 1 or 2"),
        ("confidence", 7, "confidence values must be 0, 1 or 2"),
    ])
    def test_bad_near_depth_or_confidence_gets_error_reply(self, server, caplog,
                                                           field, value, match):
        # Such a frame decodes; building its depth image refuses it, and
        # the reply names the reason without a logged traceback.
        good = _near_packet(_room(), (0.3, 1.4, 0.3))
        bad = _near_packet(_room(), (0.3, 1.4, 0.3))
        setattr(bad, field, getattr(bad, field).copy())
        getattr(bad, field)[20, 30] = value
        decoded = protocol.decode_packet(protocol.encode_packet(bad))
        assert np.array_equal(getattr(decoded, field), getattr(bad, field),
                              equal_nan=True)
        with caplog.at_level(logging.DEBUG, logger="litfield.service"), \
                client_connect(server.address) as client:
            client.send(_init_packet())
            with pytest.raises(ProtocolError, match=f"invalid keyframe: {match}"):
                client.send(bad)
            env = client.send(good)
        assert not np.allclose(env.pixels, 0.5, atol=1e-3)
        assert caplog.records == []

    def test_bad_value_at_either_end_of_a_near_frame_gets_error_reply(self, server):
        # The checks are reductions over the whole frame, so a bad first or
        # last pixel is found like any other; every refusal leaves the
        # connection serving.
        good = _near_packet(_room(), (0.3, 1.4, 0.3))
        cases = [("depth", v, "depth values must be finite")
                 for v in (np.nan, np.inf, -np.inf, -1.0)]
        cases += [("confidence", v, "confidence values must be 0, 1 or 2")
                  for v in (3, 255)]
        with client_connect(server.address) as client:
            client.send(_init_packet())
            for field, value, match in cases:
                for pixel in ((0, 0), (-1, -1)):
                    bad = dataclasses.replace(good)
                    setattr(bad, field, getattr(good, field).copy())
                    getattr(bad, field)[pixel] = value
                    with pytest.raises(ProtocolError,
                                       match=f"invalid keyframe: {match}"):
                        client.send(bad)
                    env = client.send(good)
                    assert not np.allclose(env.pixels, 0.5, atol=1e-3)

    def test_non_finite_pose_translation_gets_error_reply(self, server):
        # A client can no longer build such a Pose, so the NaN is written
        # into the encoded translation floats (column 3 of the
        # column-major float32 matrix after kind, session and view ids).
        scene = _room()
        near = protocol.encode_packet(_near_packet(scene, (0.3, 1.4, 0.3)))
        bad = bytearray(near)
        bad[9 + 48:9 + 52] = struct.pack("<f", np.nan)
        far = protocol.encode_packet(_far_packet(scene, (0.0, 1.4, 0.0),
                                                 (0.0, 1.4, -3.0)))

        def replies(frames):
            raw = socket.create_connection(server.address, timeout=30.0)
            raw.settimeout(30.0)
            try:
                out = []
                for frame in frames:
                    write_frame(raw, frame)
                    out.append(protocol.decode_packet(read_frame(raw)))
                return out
            finally:
                raw.close()

        init = protocol.encode_packet(_init_packet())
        want = replies([init, near, far])
        got = replies([init, near, bytes(bad), far])
        assert isinstance(got[2], protocol.ErrorPacket)
        assert "translation must be finite" in got[2].message
        # the connection keeps serving, and the refused frame changed
        # nothing: the next reply is the one without it
        assert isinstance(got[3], protocol.EnvMapResponse)
        assert np.array_equal(got[3].rgb, want[2].rgb)

    def test_oversized_frame_rejected_client_side(self, server):
        raw = socket.create_connection(server.address, timeout=5.0)
        try:
            with pytest.raises(ProtocolError):
                write_frame(raw, b"\x00" * (FRAME_CAP + 1))
        finally:
            raw.close()

    def test_oversized_declared_length_closes_connection(self, server):
        raw = socket.create_connection(server.address, timeout=5.0)
        raw.settimeout(5.0)
        try:
            raw.sendall(struct.pack("<I", FRAME_CAP + 1))
            assert raw.recv(1) == b""  # server hangs up instead of allocating
        finally:
            raw.close()

    def test_frame_longer_than_any_keyframe_closes_connection(self, server):
        raw = socket.create_connection(server.address, timeout=5.0)
        raw.settimeout(5.0)
        try:
            raw.sendall(struct.pack("<I", 6 * 1024 * 1024))
            assert raw.recv(1) == b""
        finally:
            raw.close()

    def test_full_size_high_near_keyframe_is_answered(self, server):
        # the largest valid frame is exactly the cap
        high = service.PRESET_TO_BYTE[Preset.HIGH]
        k = Intrinsics(fx=640.0, fy=640.0, cx=512.0, cy=384.0, width=1024, height=768)
        init = protocol.SessionInit(1, REC, high, (1024, 512), k, (1024, 768),
                                    np.array([0.5, 0.5, 0.5]))
        frame = render_rgbd(_room(), look_at((0.3, 1.4, 0.3), REC), k)
        near = protocol.NearKeyframe(
            1, 0, frame.pose, k, protocol.rgb_to_ycbcr420(frame.color),
            frame.depth.depth.astype(np.float32), frame.depth.confidence)
        assert len(protocol.encode_packet(near)) == FRAME_CAP
        with client_connect(server.address, timeout=60.0) as client:
            client.send(init)
            env = client.send(near)
        assert (env.width, env.height) == (1024, 512)
        assert not np.allclose(env.pixels, 0.5, atol=1e-3)

    def test_far_frame_of_another_size_is_refused_before_decoding(self, server,
                                                                  monkeypatch):
        decoded = []
        decode = protocol.ycbcr420_to_rgb

        def spy(img):
            decoded.append((img.width, img.height))
            return decode(img)

        monkeypatch.setattr(protocol, "ycbcr420_to_rgb", spy)
        frame = render_rgbd(_room(), look_at(REC, (0.0, 1.4, -3.0)), K_NEAR)
        big = protocol.FarKeyframe(1, frame.pose, K_NEAR,
                                   protocol.rgb_to_ycbcr420(frame.color))
        with client_connect(server.address) as client:
            client.send(_init_packet())
            with pytest.raises(ProtocolError) as refused:
                client.send(big)
            assert decoded == []
            assert str(refused.value) == "far frame size (64, 48) != (32, 24)"
            env = client.send(_far_packet(_room(), REC, (0.0, 1.4, -3.0)))
        assert decoded == [(32, 24)]
        assert not np.allclose(env.pixels, 0.5, atol=1.1 / 255.0)

    def test_near_frame_whose_points_overflow_float32_is_refused(self, server):
        # fx = fy = 1e-45 (a float32 subnormal) is a positive focal length,
        # but it sends every ray off the principal point past float32. The
        # frame gets an error reply and leaves the session as it was.
        near = _near_packet(_room(), (0.3, 1.4, 0.3))
        hostile = dataclasses.replace(
            near, intrinsics=dataclasses.replace(K_NEAR, fx=1e-45, fy=1e-45))
        with client_connect(server.address) as client, \
                client_connect(server.address) as fresh:
            client.send(_init_packet())
            with pytest.raises(ProtocolError, match="float32"):
                client.send(hostile)
            after = client.send(near)
            fresh.send(_init_packet())
            expected = fresh.send(near)
        assert np.array_equal(after.to_uint8(), expected.to_uint8())

    def test_far_frame_with_infinite_focal_length_is_refused(self, server):
        # fx = inf would splat every sample onto one anchor. A FarKeyframe
        # cannot hold it, since its Intrinsics refuse it, so the fx field of
        # a valid packet's bytes is overwritten: after the kind, the session
        # id and the 64-byte pose.
        far = protocol.encode_packet(_far_packet(_room(), REC, (0.0, 1.4, -3.0)))
        hostile = bytearray(far)
        struct.pack_into("<f", hostile, 5 + 64, math.inf)
        replies = []
        with socket.create_connection(server.address, timeout=10.0) as raw, \
                socket.create_connection(server.address, timeout=10.0) as fresh:
            for sock, payloads in ((raw, (hostile, far)), (fresh, (far,))):
                write_frame(sock, protocol.encode_packet(_init_packet()))
                assert isinstance(protocol.decode_packet(read_frame(sock)),
                                  protocol.EnvMapResponse)
                for payload in payloads:
                    write_frame(sock, payload)
                    replies.append(protocol.decode_packet(read_frame(sock)))
        refused, after, expected = replies
        assert isinstance(refused, protocol.ErrorPacket)
        assert "focal lengths must be positive and finite" in refused.message
        # the connection keeps serving, and the session is as it was
        assert isinstance(after, protocol.EnvMapResponse)
        assert np.array_equal(after.rgb, expected.rgb)

    def test_read_frame_fills_one_buffer_of_the_declared_length(self):
        payload = bytes(range(256)) * 1000  # over several recv calls

        def send(sock):
            write_frame(sock, payload)
            sock.sendall(struct.pack("<I", 10) + payload[:4])
            sock.shutdown(socket.SHUT_WR)

        a, b = socket.socketpair()
        with a, b:
            writer = threading.Thread(target=send, args=(a,))
            writer.start()
            got = read_frame(b)
            writer.join(timeout=10.0)
            assert not writer.is_alive()
            assert len(got) == len(payload) and got == payload
            assert got[1:5] == payload[1:5]
            with pytest.raises(ProtocolError, match="mid-frame"):
                read_frame(b)  # 4 of 10 declared bytes, then EOF
        a, b = socket.socketpair()
        with a, b:
            a.sendall(struct.pack("<I", 0)[:2])
            a.shutdown(socket.SHUT_WR)
            with pytest.raises(ProtocolError, match="mid-frame"):
                read_frame(b)  # EOF inside the length prefix
        a, b = socket.socketpair()
        with a, b:
            a.shutdown(socket.SHUT_WR)
            assert read_frame(b) is None  # EOF at a frame boundary

    def test_server_down_is_connection_error(self):
        probe = socket.socket()
        probe.bind(("127.0.0.1", 0))
        addr = probe.getsockname()
        probe.close()
        with pytest.raises(OSError):
            client_connect(addr, timeout=0.5)


class TestConnectionLimit:
    def test_connection_over_the_limit_is_refused(self, monkeypatch):
        monkeypatch.setattr(service, "MAX_CONNECTIONS", 1)
        with Server(ServerConfig()) as srv:
            first = client_connect(srv.address)
            try:
                first.send(_init_packet())  # its handler holds the slot
                raw = socket.create_connection(srv.address, timeout=5.0)
                raw.settimeout(5.0)
                try:
                    reply = protocol.decode_packet(read_frame(raw))
                    assert isinstance(reply, protocol.ErrorPacket)
                    assert "limit of 1 connections" in reply.message
                    assert read_frame(raw) is None  # and closed
                finally:
                    raw.close()
                # the refusal did not take the slot
                assert first.send(_init_packet(session_id=2)).width == 512
            finally:
                first.close()
            # The slot is released once the first handler sees the close.
            for _ in range(100):
                raw = socket.create_connection(srv.address, timeout=5.0)
                try:
                    raw.settimeout(0.2)
                    try:
                        reply = protocol.decode_packet(read_frame(raw))
                    except TimeoutError:  # accepted: the server awaits a frame
                        raw.settimeout(30.0)
                        write_frame(raw, protocol.encode_packet(_init_packet()))
                        reply = protocol.decode_packet(read_frame(raw))
                finally:
                    raw.close()
                if not isinstance(reply, protocol.ErrorPacket):
                    break
                time.sleep(0.05)
            assert isinstance(reply, protocol.EnvMapResponse)


class TestIdleAndStalledConnections:
    def test_silent_connections_do_not_keep_a_client_out(self, monkeypatch):
        monkeypatch.setattr(service, "MAX_CONNECTIONS", 2)
        monkeypatch.setattr(service, "IDLE_TIMEOUT_S", 0.5)
        with Server(ServerConfig()) as srv:
            silent = [socket.create_connection(srv.address, timeout=10.0)
                      for _ in range(2)]
            try:
                for raw in silent:
                    assert _closed_by_server(raw)
            finally:
                for raw in silent:
                    raw.close()
            # the closes released both slots
            with client_connect(srv.address) as client:
                assert client.send(_init_packet()).width == 512

    def test_frame_that_stalls_after_its_prefix_closes_its_connection(self, monkeypatch):
        monkeypatch.setattr(service, "FRAME_TIMEOUT_S", 0.5)
        with Server(ServerConfig()) as srv, \
                socket.create_connection(srv.address, timeout=10.0) as raw:
            raw.sendall(struct.pack("<I", 1000) + bytes(10))
            assert _closed_by_server(raw)

    def test_frame_that_trickles_in_is_closed_at_the_frame_limit(self, monkeypatch):
        # every gap is under both limits; the frame as a whole is not
        monkeypatch.setattr(service, "IDLE_TIMEOUT_S", 1.0)
        monkeypatch.setattr(service, "FRAME_TIMEOUT_S", 0.5)
        with Server(ServerConfig()) as srv, \
                socket.create_connection(srv.address, timeout=10.0) as raw:
            raw.sendall(struct.pack("<I", 1000))
            for _ in range(100):  # 10 s of one byte per 0.1 s
                try:
                    raw.sendall(b"\0")
                except OSError:
                    break
                time.sleep(0.1)
            assert _closed_by_server(raw)

    def test_client_that_stops_reading_is_closed(self, monkeypatch):
        monkeypatch.setattr(service, "MAX_CONNECTIONS", 1)
        monkeypatch.setattr(service, "IDLE_TIMEOUT_S", 0.5)
        payload = protocol.encode_packet(_init_packet())  # a 384 KB reply each
        frame = struct.pack("<I", len(payload)) + payload
        with Server(ServerConfig()) as srv:
            with socket.socket() as raw:
                raw.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 65536)
                raw.settimeout(10.0)
                raw.connect(srv.address)
                raw.sendall(frame * 100)  # far more replies than the buffers hold
                time.sleep(2.0)  # and read none of them meanwhile
                while not _closed_by_server(raw):
                    pass
            # the close released the only slot
            with client_connect(srv.address) as client:
                assert client.send(_init_packet()).width == 512

    def test_client_that_keeps_sending_frames_is_never_closed(self, monkeypatch):
        monkeypatch.setattr(service, "IDLE_TIMEOUT_S", 0.5)
        monkeypatch.setattr(service, "FRAME_TIMEOUT_S", 0.5)
        payload = protocol.encode_packet(
            _far_packet(_room(), (0.0, 1.4, 0.0), (0.0, 1.4, -3.0)))
        frame = struct.pack("<I", len(payload)) + payload
        with Server(ServerConfig()) as srv, \
                socket.create_connection(srv.address, timeout=10.0) as raw:
            write_frame(raw, protocol.encode_packet(_init_packet()))
            replies = [protocol.decode_packet(read_frame(raw))]
            # 4 s in all, each gap and each frame under both limits
            for _ in range(10):
                time.sleep(0.2)
                raw.sendall(frame[:100])
                time.sleep(0.2)
                raw.sendall(frame[100:])
                replies.append(protocol.decode_packet(read_frame(raw)))
        assert all(isinstance(r, protocol.EnvMapResponse) for r in replies)


class TestFarTables:
    def test_alternating_presets_build_each_table_once(self, server, monkeypatch):
        # An empty cache of the module's own kind, so earlier tests' tables
        # do not count.
        monkeypatch.setattr(session_mod, "_tables", type(session_mod._tables)())
        built = []
        precompute = farfield.precompute_table

        def counted(*args, **kwargs):
            built.append(args[:2])
            return precompute(*args, **kwargs)

        monkeypatch.setattr(farfield, "precompute_table", counted)
        high = service.PRESET_TO_BYTE[Preset.HIGH]
        with client_connect(server.address, timeout=60.0) as client:
            for _ in range(3):
                client.send(_init_packet(0, high, (1024, 512)))
                # the last of these evicts the HIGH session
                for sid in range(1, service.MAX_SESSIONS + 1):
                    client.send(_init_packet(sid))
        assert sorted(built) == [(512, 256), (1024, 512)]


class TestPresetBytes:
    @pytest.mark.parametrize("default, byte, preset", [
        (Preset.LOW, 3, Preset.LOW),
        (Preset.HIGH, 3, Preset.HIGH),
        (Preset.LOW, 2, Preset.HIGH),
        (Preset.HIGH, 0, Preset.LOW),
    ])
    def test_custom_takes_the_server_default(self, default, byte, preset):
        with Server(ServerConfig(default_preset=default)) as srv, \
                client_connect(srv.address, timeout=30.0) as client:
            env = client.send(_init_packet(preset=byte,
                                           envmap_res=preset_config(preset).envmap_res))
        assert (env.width, env.height) == preset_config(preset).envmap_res

    def test_byte_codec_round_trips(self):
        assert service.PRESET_TO_BYTE == {Preset.LOW: 0, Preset.MEDIUM: 1,
                                          Preset.HIGH: 2, Preset.CUSTOM: 3}
        for preset, byte in service.PRESET_TO_BYTE.items():
            assert service.preset_of_byte(byte) is preset
        with pytest.raises(ProtocolError):
            service.preset_of_byte(4)


class TestIsolation:
    def test_two_clients_do_not_share_state(self, server):
        scene = _room()
        with client_connect(server.address) as a, \
                client_connect(server.address) as b:
            a.send(_init_packet(session_id=1))
            b.send(_init_packet(session_id=2))
            a.send(_near_packet(scene, (0.3, 1.4, 0.3), session_id=1))
            # B's map must still be the pristine ambient ack.
            env_b = b.send(_far_packet(scene, (0.0, 1.4, 0.0), (0.0, 1.4, -3.0),
                                       session_id=2))
            # B only saw one far frame: most of its map is still ambient.
            ambient = np.isclose(env_b.pixels, 0.5, atol=1.1 / 255.0)
            assert ambient.all(axis=2).mean() > 0.5

    def test_same_connection_two_sessions(self, server):
        scene = _room()
        with client_connect(server.address) as client:
            client.send(_init_packet(session_id=1))
            client.send(_init_packet(session_id=2))
            client.send(_near_packet(scene, (0.3, 1.4, 0.3), session_id=1))
            env2 = client.send(_far_packet(scene, (0.0, 1.4, 0.0),
                                           (0.0, 1.4, -3.0), session_id=2))
            ambient = np.isclose(env2.pixels, 0.5, atol=1.1 / 255.0)
            assert ambient.all(axis=2).mean() > 0.5


class TestSessionCap:
    def test_least_recently_used_session_is_evicted(self, server):
        scene = _room()
        cap = service.MAX_SESSIONS

        def far(sid):
            return _far_packet(scene, (0.0, 1.4, 0.0), (0.0, 1.4, -3.0),
                               session_id=sid)

        with client_connect(server.address) as client:
            for sid in range(cap):
                client.send(_init_packet(session_id=sid))
            client.send(far(0))  # 0 is now the most recently used
            # re-initialising a live id replaces it and evicts nothing
            client.send(_init_packet(session_id=1))
            client.send(_init_packet(session_id=cap))  # evicts 2
            with pytest.raises(ProtocolError, match="unknown session 2"):
                client.send(far(2))
            for sid in [0, 1, *range(3, cap + 1)]:
                env = client.send(far(sid))
                assert not np.allclose(env.pixels, 0.5, atol=1.1 / 255.0)


class TestServerSessionCap:
    def test_sessions_are_counted_over_every_connection(self, monkeypatch):
        monkeypatch.setattr(service, "MAX_LIVE_SESSIONS", 3)
        monkeypatch.setattr(service, "MAX_SESSIONS", 2)
        k_big = Intrinsics(fx=1000.0, fy=1000.0, cx=1024.0, cy=768.0,
                           width=2048, height=1536)
        too_big = protocol.SessionInit(12, REC, 0, (512, 256), k_big, (2048, 1536),
                                       np.array([0.5, 0.5, 0.5]))

        def far(sid):
            return _far_packet(_room(), (0.0, 1.4, 0.0), (0.0, 1.4, -3.0), session_id=sid)

        with Server(ServerConfig()) as srv:
            with client_connect(srv.address) as a, client_connect(srv.address) as b:
                a.send(_init_packet(session_id=1))
                a.send(_init_packet(session_id=2))
                # a session that fails to open does not count
                with pytest.raises(ProtocolError, match="native_res 2048x1536"):
                    b.send(too_big)
                b.send(_init_packet(session_id=10))
                with pytest.raises(ProtocolError, match="limit of 3 sessions"):
                    b.send(_init_packet(session_id=11))
                with pytest.raises(ProtocolError, match="unknown session 11"):
                    b.send(far(11))
                # re-initializing a live id and evicting on a full connection
                # open no more sessions, so both pass at the cap
                b.send(_init_packet(session_id=10))
                a.send(_init_packet(session_id=3))  # evicts 1
                with pytest.raises(ProtocolError, match="unknown session 1"):
                    a.send(far(1))
                with pytest.raises(ProtocolError, match="limit of 3 sessions"):
                    b.send(_init_packet(session_id=11))
                a.send(far(3))
                b.send(far(10))
                a.close()
                # A's two sessions stop counting once its handler sees the close
                for _ in range(100):
                    try:
                        b.send(_init_packet(session_id=11))
                        break
                    except ProtocolError:
                        time.sleep(0.05)
                b.send(far(11))
                b.send(_init_packet(session_id=12))  # evicts 10: B holds 2
                with client_connect(srv.address) as c:
                    c.send(_init_packet(session_id=20))
                    with pytest.raises(ProtocolError, match="limit of 3 sessions"):
                        c.send(_init_packet(session_id=21))


def _peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise AssertionError("VmHWM missing from /proc status")


class TestServerMemory:
    @pytest.mark.skipif(not os.path.exists("/proc/self/status"),
                        reason="reads the server's peak RSS from /proc")
    def test_a_full_server_of_high_sessions_stays_under_900_mb(self):
        # A `litfield serve` process of its own, so its peak RSS is the
        # server's alone: four connections open MAX_SESSIONS bare HIGH
        # sessions each, MAX_LIVE_SESSIONS in all (753 MB on a 2-core
        # host), and a fifth connection is refused one more.
        src = os.path.dirname(os.path.dirname(service.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        proc = subprocess.Popen(
            [sys.executable, "-m", "litfield.cli", "serve", "--bind", "127.0.0.1:0"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env, text=True)
        try:
            line = proc.stdout.readline()
            assert line.startswith("listening on "), line
            host, _, port = line.split()[-1].rpartition(":")
            addr = (host, int(port))

            def init(sid):
                return protocol.SessionInit(sid, REC, 2, (1024, 512), K_NEAR, (64, 48),
                                            np.array([0.5, 0.5, 0.5]))

            assert service.MAX_SESSIONS * 4 == service.MAX_LIVE_SESSIONS == 32
            clients = [client_connect(addr, timeout=60.0) for _ in range(5)]
            try:
                for c, client in enumerate(clients[:4]):
                    for i in range(service.MAX_SESSIONS):
                        env_map = client.send(init(c * service.MAX_SESSIONS + i))
                        assert (env_map.width, env_map.height) == (1024, 512)
                with pytest.raises(ProtocolError, match="limit of 32 sessions"):
                    clients[4].send(init(99))
                assert _peak_rss_mb(proc.pid) <= 900.0
            finally:
                for client in clients:
                    client.close()
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


class TestMapResponse:
    def test_is_a_snapshot_of_the_kept_reply(self):
        sess = create_session(REC, preset_config(Preset.LOW), (64, 48), np.full(3, 0.5))
        sess.ingest_near(render_rgbd(_room(), look_at((0.3, 1.4, 0.3), REC), K_NEAR))
        reply = service._map_response(sess)
        sent = reply.rgb.copy()
        assert (reply.width, reply.height) == (512, 256)
        assert np.array_equal(sent, sess.compose().to_uint8())
        for kept in (sess.reply, sess._far_bytes, sess.near_map.color,
                     sess.far_map.color):
            assert not np.shares_memory(reply.rgb, kept)
        frame = render_rgbd(_room(), look_at(REC, (0.0, 1.4, -3.0)), K_FAR)
        sess.ingest_far(frame)  # a later update leaves the sent response as it was
        assert not np.array_equal(sess.reply, sent)
        assert np.array_equal(reply.rgb, sent)

    def test_responses_hold_while_other_threads_update_the_session(self):
        # Two threads take responses while three update the session, each
        # under its lock, as the request loop and a registration thread do.
        config = dataclasses.replace(preset_config(Preset.LOW), num_views=2,
                                     near_capture_res=(64, 48),
                                     multires_levels=((128, 64), (64, 32)),
                                     envmap_res=(128, 64))
        sess = create_session(REC, config, (64, 48), np.full(3, 0.5))
        scene = _room()
        rng = np.random.default_rng(4)
        nears = [render_rgbd(scene, look_at(eye, REC), K_NEAR, view_id=i)
                 for i, eye in enumerate([(0.3, 1.4, 0.3), (-0.3, 1.4, 0.3),
                                          (0.0, 1.4, -0.4)])]
        moved = Pose(np.eye(3), np.array([0.002, 0.0, -0.001]))
        deadline = time.monotonic() + 2.0
        failures = []
        far_updates = [0]

        def far(i):  # every frame moves some anchors
            sess.ingest_far(CameraFrame(ColorImage(32, 24, rng.random((24, 32, 3))),
                                        K_FAR, look_at(REC, REC + rng.normal(size=3))))
            far_updates[0] += 1

        def register(i):
            for view in sess.buffer.view_ids()[:1]:
                if sess.apply_registration(view, moved, sess.buffer.get_view(view)):
                    sess.reproject_near()

        def read(i):
            with sess.lock:
                reply = service._map_response(sess)
                expect = sess.compose().to_uint8()
                seen = far_updates[0]
            while far_updates[0] == seen and time.monotonic() < deadline:
                time.sleep(0.001)  # until the session has changed
            if not np.array_equal(reply.rgb, expect):
                failures.append("a response changed after the lock was released")

        def run(step):
            try:
                i = 0
                while time.monotonic() < deadline and not failures:
                    if step is read:
                        read(i)
                    else:
                        with sess.lock:
                            step(i)
                    i += 1
            except Exception as e:  # reported by the main thread
                failures.append(repr(e))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [threading.Thread(target=run, args=(step,)) for step in (
                far, lambda i: sess.ingest_near(nears[i % len(nears)]),
                register, read, read)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []


class TestIcpUpdates:
    def test_no_reply_is_composed_or_quantized_whole(self, monkeypatch):
        def whole_map(*args):
            raise AssertionError("the serving path rebuilt a whole reply")

        monkeypatch.setattr(ReconstructionSession, "compose", whole_map)
        monkeypatch.setattr(service.EnvironmentMap, "to_uint8", whole_map)
        scene = _room()
        with Server(ServerConfig(icp_enabled=True)) as srv, \
                client_connect(srv.address) as client:
            client.send(_init_packet())
            client.send(_far_packet(scene, REC, (0.0, 1.4, -3.0)))
            client.send(_near_packet(scene, (0.3, 1.4, 0.3), view_id=0))
            client.send(_near_packet(scene, (0.0, 1.4, 0.4), view_id=1))
            assert client.poll_update(2.0) is not None

    def test_unsolicited_update_follows_primary_response(self):
        scene = _room()
        with Server(ServerConfig(icp_enabled=True)) as srv, \
                client_connect(srv.address) as client:
            client.send(_init_packet())
            client.send(_near_packet(scene, (0.3, 1.4, 0.3), view_id=0))
            assert client.poll_update(0.2) is None  # nothing to align yet
            primary = client.send(_near_packet(scene, (0.0, 1.4, 0.4),
                                               view_id=1))
            assert primary is not None
            update = client.poll_update(2.0)
            assert update is not None
            assert (update.width, update.height) == (512, 256)

    def test_update_is_written_after_the_primary_reply(self, monkeypatch):
        # The request thread holds the reply to the second near keyframe,
        # the first that registers, outside the send lock until the
        # registration update has been written or 1 s has passed. An
        # update that could start before its primary reply is written
        # would get ahead of it.
        send = service._Handler._send
        request_thread = []
        writes = []
        update_written = threading.Event()

        def held_send(handler, packet):
            if not request_thread:  # the SessionInit reply
                request_thread.append(threading.get_ident())
            request = threading.get_ident() == request_thread[0]
            if request and len(writes) == 2:
                update_written.wait(1.0)
            ok = send(handler, packet)
            writes.append("reply" if request else "update")
            if not request:
                update_written.set()
            return ok

        monkeypatch.setattr(service._Handler, "_send", held_send)
        scene = _room()
        with Server(ServerConfig(icp_enabled=True)) as srv, \
                client_connect(srv.address) as client:
            client.send(_init_packet())
            client.send(_near_packet(scene, (0.3, 1.4, 0.3), view_id=0))
            client.send(_near_packet(scene, (0.0, 1.4, 0.4), view_id=1))
            assert client.poll_update(5.0) is not None
        assert writes == ["reply", "reply", "reply", "update"]

    def test_correction_for_a_replaced_view_is_dropped(self, monkeypatch):
        # Registrations wait until view 1 has been sent twice, so the one
        # computed for its first cloud finds the slot holding the second:
        # it is dropped, and only the second one sends an update.
        release = threading.Event()
        register = service.register_icp
        apply = ReconstructionSession.apply_registration
        applied = []

        def held_register(*args):
            assert release.wait(10.0)
            return register(*args)

        def recorded_apply(*args):
            applied.append(apply(*args))
            return applied[-1]

        monkeypatch.setattr(service, "register_icp", held_register)
        monkeypatch.setattr(ReconstructionSession, "apply_registration",
                            recorded_apply)
        scene = _room()
        with Server(ServerConfig(icp_enabled=True)) as srv, \
                client_connect(srv.address) as client:
            client.send(_init_packet())
            client.send(_near_packet(scene, (0.3, 1.4, 0.3), view_id=0))
            client.send(_near_packet(scene, (0.0, 1.4, 0.4), view_id=1))
            client.send(_near_packet(scene, (-0.3, 1.4, 0.3), view_id=1))
            release.set()
            assert client.poll_update(5.0) is not None
            assert client.poll_update(0.5) is None
        assert sorted(applied) == [False, True]

    @pytest.mark.parametrize("how", ["re-initialized", "evicted"])
    def test_update_of_a_session_that_has_left_is_dropped(self, how, monkeypatch):
        # The registration of session 1's view 1 waits until session 1 has
        # been re-initialized, or evicted by session 2's init. Its update
        # would carry the old session's map under the id, so it does no
        # work: it neither applies its correction nor re-projects.
        release, done = threading.Event(), threading.Event()
        register, run = service.register_icp, service._Handler._register
        apply = ReconstructionSession.apply_registration
        reproject = ReconstructionSession.reproject_near
        applied, reprojected = [], []

        def held_register(*args):
            assert release.wait(10.0)
            return register(*args)

        def recorded_apply(*args):
            applied.append(apply(*args))
            return applied[-1]

        def recorded_reproject(sess):
            if release.is_set():  # every keyframe has been answered
                reprojected.append(sess.session_id)
            return reproject(sess)

        def finished_run(*args):
            run(*args)
            done.set()

        monkeypatch.setattr(service, "register_icp", held_register)
        monkeypatch.setattr(ReconstructionSession, "apply_registration", recorded_apply)
        monkeypatch.setattr(ReconstructionSession, "reproject_near", recorded_reproject)
        monkeypatch.setattr(service._Handler, "_register", finished_run)
        monkeypatch.setattr(service, "MAX_SESSIONS", 1)
        scene = _room()
        with Server(ServerConfig(icp_enabled=True)) as srv, \
                client_connect(srv.address) as client:
            client.send(_init_packet())
            client.send(_near_packet(scene, (0.3, 1.4, 0.3), view_id=0))
            client.send(_near_packet(scene, (0.0, 1.4, 0.4), view_id=1))
            client.send(_init_packet(session_id=1 if how == "re-initialized" else 2))
            release.set()
            assert done.wait(10.0)
            assert client.poll_update(1.0) is None
        assert applied == []
        assert reprojected == []

    def test_finished_registrations_are_dropped(self, monkeypatch):
        # Each registration's update arrives before the next keyframe is
        # sent, so when a registration starts every earlier one has sent
        # its update; only the one that may still be returning is kept.
        handlers = []
        setup = service._Handler.setup

        def recorded_setup(handler):
            setup(handler)
            handlers.append(handler)

        monkeypatch.setattr(service._Handler, "setup", recorded_setup)
        scene = _room()
        eyes = [(0.3, 1.4, 0.3), (0.0, 1.4, 0.4), (-0.3, 1.4, 0.3),
                (-0.4, 1.4, 0.0), (-0.3, 1.4, -0.3)]
        with Server(ServerConfig(icp_enabled=True)) as srv, \
                client_connect(srv.address) as client:
            client.send(_init_packet())
            for view_id, eye in enumerate(eyes):
                client.send(_near_packet(scene, eye, view_id=view_id))
                # the first keyframe has nothing to align with
                update = client.poll_update(5.0 if view_id else 0.2)
                assert (update is None) == (view_id == 0)
            (handler,) = handlers
            assert len(handler.icp_threads) <= 2

    def test_near_keyframe_that_inserts_no_view_starts_no_registration(self):
        scene = _room()
        with Server(ServerConfig(icp_enabled=True)) as srv, \
                client_connect(srv.address) as client:
            client.send(_init_packet())
            client.send(_near_packet(scene, (0.3, 1.4, 0.3), view_id=0))
            near = _near_packet(scene, (0.0, 1.4, 0.4), view_id=1)
            client.send(near)
            assert client.poll_update(5.0) is not None
            # no pixel is confident enough to keep: view 1 keeps its cloud
            client.send(dataclasses.replace(near, confidence=np.zeros_like(near.confidence)))
            assert client.poll_update(0.5) is None

    def test_buffer_is_concatenated_only_by_a_registration(self, monkeypatch):
        # The request loop takes the slots' clouds without copying them; a
        # registration concatenates them on its own thread, and a keyframe
        # that starts none concatenates nothing.
        concatenate = nearfield.PointCloud.concatenate
        ingest = ReconstructionSession.ingest_near
        calls, request_threads = [], set()

        def spied_concatenate(clouds):
            calls.append(threading.get_ident())
            return concatenate(clouds)

        def spied_ingest(sess, frame):
            request_threads.add(threading.get_ident())
            return ingest(sess, frame)

        monkeypatch.setattr(nearfield.PointCloud, "concatenate",
                            staticmethod(spied_concatenate))
        monkeypatch.setattr(ReconstructionSession, "ingest_near", spied_ingest)
        scene = _room()
        with Server(ServerConfig(icp_enabled=True)) as srv, \
                client_connect(srv.address) as client:
            client.send(_init_packet())
            client.send(_near_packet(scene, (0.3, 1.4, 0.3), view_id=0))
            assert client.poll_update(0.2) is None
            assert calls == []  # an empty buffer starts no registration
            near = _near_packet(scene, (0.0, 1.4, 0.4), view_id=1)
            client.send(near)
            assert client.poll_update(5.0) is not None
            assert len(calls) == 1 and calls[0] not in request_threads
            client.send(dataclasses.replace(near, confidence=np.zeros_like(near.confidence)))
            assert client.poll_update(0.5) is None
            assert len(calls) == 1

    def test_no_updates_when_disabled(self, server):
        scene = _room()
        with client_connect(server.address) as client:
            client.send(_init_packet())
            client.send(_near_packet(scene, (0.3, 1.4, 0.3), view_id=0))
            client.send(_near_packet(scene, (0.0, 1.4, 0.4), view_id=1))
            assert client.poll_update(0.3) is None


class TestClient:
    def test_update_that_arrives_in_parts_is_read_whole(self):
        # The first update's first 6 bytes come at once and its rest 0.4 s
        # later, with a second update, both over the first poll's timeout.
        frames = b""
        for value in (10, 20):
            payload = protocol.encode_packet(protocol.EnvMapResponse(
                1, 8, 4, np.full((4, 8, 3), value, dtype=np.uint8)))
            frames += struct.pack("<I", len(payload)) + payload
        with socket.create_server(("127.0.0.1", 0)) as listener, \
                client_connect(listener.getsockname()) as client:
            conn, _ = listener.accept()
            with conn:
                conn.sendall(frames[:6])
                rest = threading.Timer(0.4, conn.sendall, args=(frames[6:],))
                rest.start()
                try:
                    maps = [client.poll_update(0.1), client.poll_update(1.0)]
                finally:
                    rest.join(timeout=10.0)
            assert not rest.is_alive()
        assert [None if m is None else int(m.to_uint8().max()) for m in maps] == [10, 20]


class TestServeHelper:
    def test_serve_returns_running_handle(self):
        srv = serve(ServerConfig())
        try:
            with client_connect(srv.address) as client:
                env = client.send(_init_packet())
            assert env.width == 512
        finally:
            srv.shutdown()
