"""Bit-exact binary keyframe protocol and YCbCr 4:2:0 color conversion.

All multi-byte values are little-endian. Packet layouts:

  SessionInit   (0x01): kind u8 | session_id u32 | rec_pos 3*f32 | preset u8
                        | envmap w,h u16*2 | fx,fy,cx,cy f32*4
                        | native w,h u16*2 | ambient 3*f32
  NearKeyframe  (0x02): kind u8 | session_id u32 | view_id u32
                        | pose 16*f32 (column-major 4x4) | fx,fy,cx,cy f32*4
                        | w,h u16*2 | YCbCr420 planes | depth w*h*f32
                        | confidence w*h*u8
  FarKeyframe   (0x03): kind u8 | session_id u32 | pose 16*f32
                        | fx,fy,cx,cy f32*4 | w,h u16*2 | YCbCr420 planes
  EnvMapResponse(0x10): kind u8 | session_id u32 | w,h u16*2 | RGB u8*(3*w*h)
  ErrorPacket   (0xFF): kind u8 | UTF-8 message
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, fields, is_dataclass

import numpy as np

from .errors import ProtocolError, TruncatedPacketError, UnknownPacketKindError
from .geometry import CameraFrame, ColorImage, DepthImage, Intrinsics, Pose

KIND_SESSION_INIT = 0x01
KIND_NEAR_KEYFRAME = 0x02
KIND_FAR_KEYFRAME = 0x03
KIND_ENVMAP_RESPONSE = 0x10
KIND_ERROR = 0xFF

FAR_KEYFRAME_SIZE = 1 + 4 + 64 + 16 + 4 + (32 * 24 * 3) // 2  # = 1241


def _fields_equal(a, b) -> bool:
    """Whether a and b have the same type and equal fields: arrays by
    value, dataclass fields (Pose, Intrinsics, images) by recursion,
    anything else by ==."""
    if type(a) is not type(b):
        return False
    for f in fields(a):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray) or isinstance(y, np.ndarray):
            same = np.array_equal(x, y)
        elif is_dataclass(x):
            same = _fields_equal(x, y)
        else:
            same = x == y
        if not same:
            return False
    return True


# --- YCbCr 4:2:0, full-range BT.601 -----------------------------------------

@dataclass
class YCbCr420Image:
    """Planar YCbCr with 2x2-subsampled chroma; dimensions must be even."""

    width: int
    height: int
    y: np.ndarray   # (height, width) uint8
    cb: np.ndarray  # (height//2, width//2) uint8
    cr: np.ndarray  # (height//2, width//2) uint8

    def __post_init__(self):
        if self.width % 2 or self.height % 2:
            raise ValueError("YCbCr 4:2:0 dimensions must be even")
        self.y = np.asarray(self.y, dtype=np.uint8).reshape(self.height, self.width)
        half = (self.height // 2, self.width // 2)
        self.cb = np.asarray(self.cb, dtype=np.uint8).reshape(half)
        self.cr = np.asarray(self.cr, dtype=np.uint8).reshape(half)

    __eq__ = _fields_equal


def _box2x2(plane: np.ndarray) -> np.ndarray:
    h, w = plane.shape
    return plane.reshape(h // 2, 2, w // 2, 2).mean(axis=(1, 3))


def rgb_to_ycbcr420(img: ColorImage) -> YCbCr420Image:
    if img.width % 2 or img.height % 2:
        raise ValueError("image dimensions must be even for 4:2:0 subsampling")
    rgb = img.pixels * 255.0
    r, g, b = rgb[:, :, 0], rgb[:, :, 1], rgb[:, :, 2]
    y = 0.299 * r + 0.587 * g + 0.114 * b
    cb = 128.0 - 0.168736 * r - 0.331264 * g + 0.5 * b
    cr = 128.0 + 0.5 * r - 0.418688 * g - 0.081312 * b

    def q(x):
        return np.clip(np.round(x), 0, 255).astype(np.uint8)

    return YCbCr420Image(img.width, img.height, q(y), q(_box2x2(cb)), q(_box2x2(cr)))


def ycbcr420_to_rgb(img: YCbCr420Image) -> ColorImage:
    y = img.y.astype(np.float64)
    cb = np.repeat(np.repeat(img.cb.astype(np.float64), 2, 0), 2, 1) - 128.0
    cr = np.repeat(np.repeat(img.cr.astype(np.float64), 2, 0), 2, 1) - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    rgb = np.clip(np.stack([r, g, b], axis=-1), 0.0, 255.0) / 255.0
    return ColorImage(img.width, img.height, rgb)


# --- packets -----------------------------------------------------------------

@dataclass
class SessionInit:
    session_id: int
    rec_pos: np.ndarray
    preset: int           # byte value, see session.Preset ordering
    envmap_res: tuple[int, int]
    intrinsics: Intrinsics
    native_res: tuple[int, int]
    ambient: np.ndarray

    __eq__ = _fields_equal


@dataclass
class NearKeyframe:
    session_id: int
    view_id: int
    pose: Pose
    intrinsics: Intrinsics
    color: YCbCr420Image
    depth: np.ndarray       # (h, w) float32
    confidence: np.ndarray  # (h, w) uint8

    __eq__ = _fields_equal

    def to_camera_frame(self) -> CameraFrame:
        k = self.intrinsics
        depth = DepthImage(k.width, k.height, self.depth.astype(np.float64),
                           self.confidence)
        return CameraFrame(ycbcr420_to_rgb(self.color), k, self.pose,
                           depth, view_id=self.view_id)


@dataclass
class FarKeyframe:
    session_id: int
    pose: Pose
    intrinsics: Intrinsics
    color: YCbCr420Image

    __eq__ = _fields_equal

    def to_camera_frame(self) -> CameraFrame:
        return CameraFrame(ycbcr420_to_rgb(self.color), self.intrinsics, self.pose)


@dataclass
class EnvMapResponse:
    session_id: int
    width: int
    height: int
    rgb: np.ndarray  # (height, width, 3) uint8

    __eq__ = _fields_equal


@dataclass
class ErrorPacket:
    message: str


Packet = SessionInit | NearKeyframe | FarKeyframe | EnvMapResponse | ErrorPacket


class _Reader:
    def __init__(self, buf: bytes):
        self.buf = buf
        self.pos = 0

    def take(self, n: int) -> bytes:
        if self.pos + n > len(self.buf):
            raise TruncatedPacketError(len(self.buf))
        out = self.buf[self.pos:self.pos + n]
        self.pos += n
        return out

    def unpack(self, fmt: str):
        return struct.unpack("<" + fmt, self.take(struct.calcsize("<" + fmt)))

    def f32s(self, n: int) -> np.ndarray:
        return np.frombuffer(self.take(4 * n), dtype="<f4").astype(np.float64)

    def expect_end(self) -> None:
        if self.pos != len(self.buf):
            raise TruncatedPacketError(
                self.pos, f"{len(self.buf) - self.pos} trailing bytes after packet")


def _encode_pose(pose: Pose) -> bytes:
    return pose.matrix().astype("<f4").tobytes(order="F")


def _decode_pose(r: _Reader) -> Pose:
    m = np.frombuffer(r.take(64), dtype="<f4").astype(np.float64).reshape(4, 4, order="F")
    return Pose.from_matrix(m)


def _encode_intrinsics(k: Intrinsics) -> bytes:
    return struct.pack("<4f", k.fx, k.fy, k.cx, k.cy)


def _encode_ycbcr(img: YCbCr420Image) -> bytes:
    return img.y.tobytes() + img.cb.tobytes() + img.cr.tobytes()


def _decode_ycbcr(r: _Reader, w: int, h: int) -> YCbCr420Image:
    y = np.frombuffer(r.take(w * h), dtype=np.uint8).reshape(h, w)
    cb = np.frombuffer(r.take(w * h // 4), dtype=np.uint8).reshape(h // 2, w // 2)
    cr = np.frombuffer(r.take(w * h // 4), dtype=np.uint8).reshape(h // 2, w // 2)
    return YCbCr420Image(w, h, y, cb, cr)


def encode_packet(p: Packet) -> bytes:
    if isinstance(p, SessionInit):
        return (struct.pack("<BI3fB", KIND_SESSION_INIT, p.session_id,
                            *np.asarray(p.rec_pos, dtype=np.float64), p.preset)
                + struct.pack("<2H", *p.envmap_res)
                + _encode_intrinsics(p.intrinsics)
                + struct.pack("<2H", *p.native_res)
                + struct.pack("<3f", *np.asarray(p.ambient, dtype=np.float64)))
    if isinstance(p, NearKeyframe):
        k = p.intrinsics
        return (struct.pack("<BII", KIND_NEAR_KEYFRAME, p.session_id, p.view_id)
                + _encode_pose(p.pose) + _encode_intrinsics(k)
                + struct.pack("<2H", k.width, k.height)
                + _encode_ycbcr(p.color)
                + np.ascontiguousarray(p.depth, dtype="<f4").tobytes()
                + np.ascontiguousarray(p.confidence, dtype=np.uint8).tobytes())
    if isinstance(p, FarKeyframe):
        k = p.intrinsics
        return (struct.pack("<BI", KIND_FAR_KEYFRAME, p.session_id)
                + _encode_pose(p.pose) + _encode_intrinsics(k)
                + struct.pack("<2H", k.width, k.height)
                + _encode_ycbcr(p.color))
    if isinstance(p, EnvMapResponse):
        return (struct.pack("<BI2H", KIND_ENVMAP_RESPONSE, p.session_id,
                            p.width, p.height)
                + np.ascontiguousarray(p.rgb, dtype=np.uint8).tobytes())
    if isinstance(p, ErrorPacket):
        return bytes([KIND_ERROR]) + p.message.encode("utf-8")
    raise TypeError(f"not a packet: {type(p).__name__}")


def decode_packet(buf: bytes) -> Packet:
    """The packet buf encodes. Raises a LitFieldError for any buffer that
    does not encode one: ProtocolError when a field's value is invalid
    (odd image size, non-rigid pose, bad intrinsics)."""
    try:
        return _decode(buf)
    except ValueError as e:
        raise ProtocolError(f"malformed packet: {e}") from e


def _decode(buf: bytes) -> Packet:
    r = _Reader(buf)
    (kind,) = r.unpack("B")
    if kind == KIND_SESSION_INIT:
        session_id, rx, ry, rz, preset = r.unpack("I3fB")
        ew, eh = r.unpack("2H")
        fx, fy, cx, cy = r.unpack("4f")
        nw, nh = r.unpack("2H")
        ambient = r.f32s(3)
        r.expect_end()
        return SessionInit(session_id, np.array([rx, ry, rz]), preset, (ew, eh),
                           Intrinsics(fx, fy, cx, cy, nw, nh), (nw, nh), ambient)
    if kind == KIND_NEAR_KEYFRAME:
        session_id, view_id = r.unpack("II")
        pose = _decode_pose(r)
        fx, fy, cx, cy = r.unpack("4f")
        w, h = r.unpack("2H")
        color = _decode_ycbcr(r, w, h)
        depth = np.frombuffer(r.take(4 * w * h), dtype="<f4").reshape(h, w)
        conf = np.frombuffer(r.take(w * h), dtype=np.uint8).reshape(h, w)
        r.expect_end()
        return NearKeyframe(session_id, view_id, pose,
                            Intrinsics(fx, fy, cx, cy, w, h), color, depth, conf)
    if kind == KIND_FAR_KEYFRAME:
        (session_id,) = r.unpack("I")
        pose = _decode_pose(r)
        fx, fy, cx, cy = r.unpack("4f")
        w, h = r.unpack("2H")
        color = _decode_ycbcr(r, w, h)
        r.expect_end()
        return FarKeyframe(session_id, pose, Intrinsics(fx, fy, cx, cy, w, h), color)
    if kind == KIND_ENVMAP_RESPONSE:
        session_id, w, h = r.unpack("I2H")
        rgb = np.frombuffer(r.take(3 * w * h), dtype=np.uint8).reshape(h, w, 3)
        r.expect_end()
        return EnvMapResponse(session_id, w, h, rgb)
    if kind == KIND_ERROR:
        return ErrorPacket(buf[1:].decode("utf-8", errors="replace"))
    raise UnknownPacketKindError(f"unknown packet kind 0x{kind:02X}")
