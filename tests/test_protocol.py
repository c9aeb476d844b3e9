"""Wire-format tests: packet codec identity and YCbCr 4:2:0 conversion.

Round-trip equality is bit-exact, so every float field is drawn from
values that are exactly representable in float32.
"""

from __future__ import annotations

import copy
import dataclasses
import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from litfield.errors import (LitFieldError, ProtocolError, TruncatedPacketError,
                             UnknownPacketKindError)
from litfield.geometry import ColorImage, Intrinsics, Pose
from litfield.protocol import (
    FAR_KEYFRAME_SIZE,
    EnvMapResponse,
    ErrorPacket,
    FarKeyframe,
    NearKeyframe,
    SessionInit,
    YCbCr420Image,
    decode_packet,
    encode_packet,
    rgb_to_ycbcr420,
    ycbcr420_to_rgb,
    ycbcr420_to_rgb8,
)
from litfield.nearfield import quantize

f32 = st.floats(-100.0, 100.0, allow_nan=False, allow_infinity=False,
                width=32).map(float)
u32 = st.integers(0, 2**32 - 1)


def _f32_pose(yaw: float, pitch: float, t) -> Pose:
    """A pose whose matrix entries are exactly float32-representable."""
    cy, sy = math.cos(yaw), math.sin(yaw)
    cp, sp = math.cos(pitch), math.sin(pitch)
    ry = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]])
    rx = np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    p = Pose(ry @ rx, np.asarray(t, dtype=np.float64))
    return Pose.from_matrix(p.matrix().astype(np.float32).astype(np.float64))


poses = st.builds(_f32_pose, st.floats(-3.0, 3.0), st.floats(-1.5, 1.5),
                  st.tuples(f32, f32, f32))


def _intrinsics(w, h, fx, fy, cxf, cyf):
    return Intrinsics(fx, fy, float(np.float32(cxf * w)),
                      float(np.float32(cyf * h)), w, h)


def intrinsics_for(w, h):
    pos_f32 = st.floats(1.0, 500.0, allow_nan=False, width=32).map(float)
    frac = st.floats(0.0, 0.99)
    return st.builds(_intrinsics, st.just(w), st.just(h), pos_f32, pos_f32,
                     frac, frac)


def ycbcr_images(w, h):
    return st.builds(
        lambda y, cb, cr: YCbCr420Image(w, h, np.array(y, np.uint8).reshape(h, w),
                                        np.array(cb, np.uint8),
                                        np.array(cr, np.uint8)),
        st.lists(st.integers(0, 255), min_size=w * h, max_size=w * h),
        st.lists(st.integers(0, 255), min_size=w * h // 4, max_size=w * h // 4),
        st.lists(st.integers(0, 255), min_size=w * h // 4, max_size=w * h // 4))


session_inits = st.builds(
    lambda sid, pos, preset, res, k, amb: SessionInit(
        sid, np.array(pos), preset, res, k, (k.width, k.height), np.array(amb)),
    u32, st.tuples(f32, f32, f32), st.integers(0, 3),
    st.sampled_from([(512, 256), (1024, 512)]), intrinsics_for(64, 48),
    st.tuples(f32, f32, f32))

near_keyframes = st.builds(
    lambda sid, vid, pose, k, color, depth, conf: NearKeyframe(
        sid, vid, pose, k, color,
        np.array(depth, np.float32).reshape(6, 8),
        np.array(conf, np.uint8).reshape(6, 8)),
    u32, u32, poses, intrinsics_for(8, 6), ycbcr_images(8, 6),
    st.lists(st.floats(0, 10, width=32), min_size=48, max_size=48),
    st.lists(st.integers(0, 2), min_size=48, max_size=48))

far_keyframes = st.builds(FarKeyframe, u32, poses, intrinsics_for(32, 24),
                          ycbcr_images(32, 24))

envmap_responses = st.builds(
    lambda sid, rgb: EnvMapResponse(sid, 8, 4,
                                    np.array(rgb, np.uint8).reshape(4, 8, 3)),
    u32, st.lists(st.integers(0, 255), min_size=96, max_size=96))


# ── codec identity ───────────────────────────────────────────────────────

class TestRoundTrip:
    @given(p=session_inits)
    @settings(max_examples=100, deadline=None)
    def test_session_init(self, p):
        assert decode_packet(encode_packet(p)) == p

    @given(p=near_keyframes)
    @settings(max_examples=100, deadline=None)
    def test_near_keyframe(self, p):
        assert decode_packet(encode_packet(p)) == p

    @given(p=far_keyframes)
    @settings(max_examples=100, deadline=None)
    def test_far_keyframe(self, p):
        assert decode_packet(encode_packet(p)) == p

    @given(p=envmap_responses)
    @settings(max_examples=100, deadline=None)
    def test_envmap_response(self, p):
        assert decode_packet(encode_packet(p)) == p

    @given(msg=st.text(max_size=200))
    @settings(max_examples=50, deadline=None)
    def test_error_packet(self, msg):
        assert decode_packet(encode_packet(ErrorPacket(msg))).message == msg

    @given(p=far_keyframes)
    @settings(max_examples=25, deadline=None)
    def test_bytes_fixed_point(self, p):
        buf = encode_packet(p)
        assert encode_packet(decode_packet(buf)) == buf


class TestBufferTypes:
    def test_bytes_bytearray_and_memoryview_decode_alike(self):
        # service.read_frame hands the decoder a memoryview of a writable
        # buffer; files and tests hand it bytes.
        for packet in _equality_samples()[1:] + [ErrorPacket("h\u00e9llo")]:
            buf = encode_packet(packet)
            writable = memoryview(np.frombuffer(buf, np.uint8).copy())
            for form in (buf, bytearray(buf), memoryview(buf), writable):
                assert decode_packet(form) == packet, (type(packet), type(form))

    def test_near_frame_arrays_are_views_of_the_buffer(self):
        near = _equality_samples()[2]
        buf = np.frombuffer(encode_packet(near), np.uint8).copy()
        got = decode_packet(memoryview(buf))
        for plane in (got.color.y, got.color.cb, got.color.cr, got.depth, got.confidence):
            assert np.shares_memory(plane, buf)


# ── equality ─────────────────────────────────────────────────────────────

def _gray(w, h):
    return YCbCr420Image(w, h, np.full((h, w), 90, np.uint8),
                         np.full((h // 2, w // 2), 128, np.uint8),
                         np.full((h // 2, w // 2), 128, np.uint8))


def _equality_samples():
    """One object of each type that defines its equality field by field."""
    k = Intrinsics(4.0, 4.0, 4.0, 3.0, 8, 6)
    pose = _f32_pose(0.5, 0.25, (1.0, 2.0, 3.0))
    return [
        _gray(8, 6),
        SessionInit(1, np.array([0.0, 1.5, 0.0]), 2, (512, 256), k, (8, 6),
                    np.array([0.5, 0.5, 0.5])),
        NearKeyframe(1, 3, pose, k, _gray(8, 6), np.ones((6, 8), np.float32),
                     np.full((6, 8), 2, np.uint8)),
        FarKeyframe(1, pose, Intrinsics(20.0, 15.0, 16.0, 12.0, 32, 24), _gray(32, 24)),
        EnvMapResponse(1, 8, 4, np.zeros((4, 8, 3), np.uint8)),
    ]


def _one_change(value):
    """value with one element, one pose entry or one scalar changed."""
    if isinstance(value, np.ndarray):
        out = value.copy()
        out.flat[len(out.flat) // 2] += 1
        return out
    if isinstance(value, Pose):
        translation = value.translation.copy()
        translation[1] += 0.5
        return Pose(value.rotation, translation)
    if isinstance(value, Intrinsics):
        return dataclasses.replace(value, cy=value.cy + 0.5)
    if isinstance(value, YCbCr420Image):
        return dataclasses.replace(value, cr=_one_change(value.cr))
    if isinstance(value, tuple):
        return value[:-1] + (value[-1] + 2,)
    return value + 1


class TestEquality:
    @pytest.mark.parametrize("obj, name", [
        (obj, f.name) for obj in _equality_samples() for f in dataclasses.fields(obj)],
        ids=lambda v: v if isinstance(v, str) else type(v).__name__)
    def test_one_changed_field_compares_unequal(self, obj, name):
        same = copy.deepcopy(obj)
        assert same == obj
        changed = copy.copy(obj)
        setattr(changed, name, _one_change(getattr(obj, name)))
        assert changed != obj
        assert obj != changed

    def test_other_types_compare_unequal(self):
        samples = _equality_samples()
        for i, a in enumerate(samples):
            for j, b in enumerate(samples):
                assert (a == b) == (i == j)
            assert a != ErrorPacket("x")
            assert a != None  # noqa: E711


class TestSizes:
    def _far(self):
        gray = YCbCr420Image(32, 24, np.full((24, 32), 90, np.uint8),
                             np.full((12, 16), 128, np.uint8),
                             np.full((12, 16), 128, np.uint8))
        k = Intrinsics(20.0, 15.0, 16.0, 12.0, 32, 24)
        return FarKeyframe(7, Pose.identity(), k, gray)

    def test_far_keyframe_is_1241_bytes(self):
        assert FAR_KEYFRAME_SIZE == 1241
        assert len(encode_packet(self._far())) == 1241

    def test_near_keyframe_dwarfs_far(self):
        w, h = 1024, 768
        near = NearKeyframe(
            7, 0, Pose.identity(), Intrinsics(800.0, 800.0, 512.0, 384.0, w, h),
            YCbCr420Image(w, h, np.zeros((h, w), np.uint8),
                          np.zeros((h // 2, w // 2), np.uint8),
                          np.zeros((h // 2, w // 2), np.uint8)),
            np.ones((h, w), np.float32), np.full((h, w), 2, np.uint8))
        assert len(encode_packet(near)) >= 200 * FAR_KEYFRAME_SIZE

    def test_camera_frame_reconstruction(self):
        frame = self._far().to_camera_frame()
        assert (frame.color.width, frame.color.height) == (32, 24)
        assert frame.depth is None


# ── malformed input ──────────────────────────────────────────────────────

class TestMalformed:
    def test_truncated_five_bytes(self):
        with pytest.raises(TruncatedPacketError) as e:
            decode_packet(b"\x01\x00\x00\x00\x00")
        assert e.value.offset == 5

    def test_empty_buffer(self):
        with pytest.raises(TruncatedPacketError):
            decode_packet(b"")

    def test_unknown_kind(self):
        with pytest.raises(UnknownPacketKindError):
            decode_packet(b"\x7e" + b"\x00" * 64)

    def test_trailing_garbage_rejected(self):
        buf = encode_packet(TestSizes()._far()) + b"\x00"
        with pytest.raises(TruncatedPacketError):
            decode_packet(buf)

    @staticmethod
    def _far_bytes(matrix=np.eye(4), fx=20.0, w=32, h=24):
        """A FarKeyframe's bytes, field by field, with zero pixels."""
        return (struct.pack("<BI", 0x03, 1)
                + np.asarray(matrix, "<f4").tobytes(order="F")
                + struct.pack("<4f2H", fx, 15.0, 1.0, 1.0, w, h)
                + bytes(w * h + 2 * ((w // 2) * (h // 2))))

    @staticmethod
    def _translated(x):
        m = np.eye(4)
        m[0, 3] = x
        return m

    @pytest.mark.parametrize("case", ["odd size", "scaled pose", "zero fx",
                                      "nan translation", "inf translation"])
    def test_invalid_field_values_are_protocol_errors(self, case):
        buf = {"odd size": self._far_bytes(w=3, h=2),
               "scaled pose": self._far_bytes(matrix=2.0 * np.eye(4)),
               "zero fx": self._far_bytes(fx=0.0),
               "nan translation": self._far_bytes(matrix=self._translated(np.nan)),
               "inf translation": self._far_bytes(matrix=self._translated(-np.inf))}[case]
        decode_packet(self._far_bytes())  # the unaltered bytes decode
        with pytest.raises(ProtocolError):
            decode_packet(buf)

    @given(data=st.binary(max_size=300))
    @settings(max_examples=300, deadline=None)
    def test_decode_never_crashes(self, data):
        try:
            decode_packet(data)
        except LitFieldError:
            pass  # structured rejection only


# ── YCbCr 4:2:0 ──────────────────────────────────────────────────────────

def _formula_rgb(img: YCbCr420Image) -> np.ndarray:
    """The BT.601 decode evaluated per pixel in float64, the reference
    for every table-driven decode: the whole frame's and pixels_at's and
    colors_at's."""
    y = img.y.astype(np.float64)
    cb = np.repeat(np.repeat(img.cb.astype(np.float64), 2, 0), 2, 1) - 128.0
    cr = np.repeat(np.repeat(img.cr.astype(np.float64), 2, 0), 2, 1) - 128.0
    r = y + 1.402 * cr
    g = y - 0.344136 * cb - 0.714136 * cr
    b = y + 1.772 * cb
    return np.clip(np.stack([r, g, b], axis=-1), 0.0, 255.0) / 255.0


def _every_triple():
    """One 256x256 image per cb value, with the (y, cb, cr) triple of
    each pixel as y << 16 | cb << 8 | cr. Chroma sample (i, j) has
    cr = 2i + j // 64, so each cr value owns 64 samples, the 2x2 blocks
    of image rows 2i and 2i + 1; their y values are 0..255."""
    cr = np.repeat(np.arange(256, dtype=np.uint8), 64).reshape(128, 128)
    y = (np.arange(256)[None, :] % 128 + 128 * (np.arange(256)[:, None] % 2))
    y = y.astype(np.uint8)
    cr_full = np.repeat(np.repeat(cr, 2, 0), 2, 1).astype(np.int64)
    for cb_value in range(256):
        cb = np.full((128, 128), cb_value, dtype=np.uint8)
        yield (YCbCr420Image(256, 256, y, cb, cr),
               (y.astype(np.int64) << 16) | (cb_value << 8) | cr_full)


class TestYCbCr:
    def test_every_triple_decodes_as_the_formula(self):
        seen = np.zeros(1 << 24, dtype=bool)
        for img, triples in _every_triple():
            got = ycbcr420_to_rgb(img).pixels
            want = _formula_rgb(img)
            # bit patterns, so that -0.0 and 0.0 count as different
            assert np.array_equal(got.view(np.uint64), want.view(np.uint64)), img.cb[0, 0]
            seen[triples] = True
        assert seen.all()

    def test_every_triple_decodes_to_bytes_as_the_quantized_formula(self):
        seen = np.zeros(1 << 24, dtype=bool)
        for img, triples in _every_triple():
            got = ycbcr420_to_rgb8(img)
            assert got.dtype == np.uint8
            assert np.array_equal(got, quantize(_formula_rgb(img))), img.cb[0, 0]
            seen[triples] = True
        assert seen.all()

    def test_near_frame_colors_at_are_the_float_decode(self):
        rng = np.random.default_rng(31)
        w, h = 34, 22  # odd numbers of chroma rows and columns
        img = YCbCr420Image(w, h, rng.integers(0, 256, (h, w), dtype=np.uint8),
                            rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
                            rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8))
        near = NearKeyframe(1, 0, Pose.identity(), Intrinsics(30.0, 30.0, 17.0, 11.0, w, h),
                            img, np.ones((h, w), np.float32), np.full((h, w), 2, np.uint8))
        color = near.to_camera_frame().color
        floats = _formula_rgb(img)
        assert color.pixels.dtype == np.uint8
        assert np.array_equal(color.pixels, quantize(floats))
        index = rng.permutation(w * h)[:200]
        got = color.colors_at(index)
        assert got.dtype == np.float64
        assert got.tobytes() == floats.reshape(-1, 3)[index].tobytes()

    def test_pixels_at_are_a_slice_of_the_whole_decode(self):
        rng = np.random.default_rng(37)
        w, h = 34, 22  # odd numbers of chroma rows and columns
        img = YCbCr420Image(w, h, rng.integers(0, 256, (h, w), dtype=np.uint8),
                            rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
                            rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8))
        whole = quantize(_formula_rgb(img)).reshape(-1, 3)
        near = NearKeyframe(1, 0, Pose.identity(), Intrinsics(30.0, 30.0, 17.0, 11.0, w, h),
                            img, np.ones((h, w), np.float32), np.full((h, w), 2, np.uint8))
        color = near.to_camera_frame().color
        for index in (rng.permutation(w * h)[:300], np.arange(w * h),
                      np.array([w * h - 1, 0, w, w - 1]), np.zeros(0, dtype=np.int64)):
            got = color.pixels_at(index)
            assert got.dtype == np.uint8 and got.shape == (len(index), 3)
            assert got.tobytes() == whole[index].tobytes()
        assert "pixels" not in vars(color)  # nothing decoded the whole frame

    def test_neutral_chroma_is_gray(self):
        img = YCbCr420Image(2, 2, np.full((2, 2), 128, np.uint8),
                            np.full((1, 1), 128, np.uint8),
                            np.full((1, 1), 128, np.uint8))
        rgb = ycbcr420_to_rgb(img)
        assert np.allclose(rgb.pixels, 128.0 / 255.0, atol=1e-12)

    def test_y255_neutral_is_white(self):
        img = YCbCr420Image(2, 2, np.full((2, 2), 255, np.uint8),
                            np.full((1, 1), 128, np.uint8),
                            np.full((1, 1), 128, np.uint8))
        assert np.allclose(ycbcr420_to_rgb(img).pixels, 1.0, atol=1e-12)

    def test_pure_red_round_trip(self):
        img = ColorImage(4, 4, np.broadcast_to([1.0, 0.0, 0.0], (4, 4, 3)).copy())
        back = ycbcr420_to_rgb(rgb_to_ycbcr420(img))
        assert np.abs(back.pixels - img.pixels).max() <= 2.0 / 255.0 + 1e-12

    def test_gray_images_round_trip_exactly(self):
        rng = np.random.default_rng(11)
        gray = rng.integers(0, 256, size=(6, 8, 1)) / 255.0
        img = ColorImage(8, 6, np.repeat(gray, 3, axis=2))
        back = ycbcr420_to_rgb(rgb_to_ycbcr420(img))
        assert np.abs(back.pixels - img.pixels).max() <= 1.0 / 255.0

    def test_subsampled_chroma_is_box_average(self):
        # A half-red/half-blue 2x2 block averages its chroma.
        px = np.zeros((2, 2, 3))
        px[:, 0, 0] = 1.0  # left column red
        px[:, 1, 2] = 1.0  # right column blue
        enc = rgb_to_ycbcr420(ColorImage(2, 2, px))
        red = rgb_to_ycbcr420(ColorImage(2, 2, np.broadcast_to(
            [1.0, 0.0, 0.0], (2, 2, 3)).copy()))
        blue = rgb_to_ycbcr420(ColorImage(2, 2, np.broadcast_to(
            [0.0, 0.0, 1.0], (2, 2, 3)).copy()))
        mid_cb = (int(red.cb[0, 0]) + int(blue.cb[0, 0])) / 2.0
        assert abs(float(enc.cb[0, 0]) - mid_cb) <= 1.0

    def test_odd_dimensions_rejected(self):
        with pytest.raises(ValueError):
            rgb_to_ycbcr420(ColorImage(3, 2, np.zeros((2, 3, 3))))
        with pytest.raises(ValueError):
            YCbCr420Image(3, 3, np.zeros((3, 3), np.uint8),
                          np.zeros((1, 1), np.uint8), np.zeros((1, 1), np.uint8))

    @given(data=st.lists(st.integers(0, 255), min_size=48, max_size=48))
    @settings(max_examples=50, deadline=None)
    def test_round_trip_bounded_error(self, data):
        px = np.array(data, dtype=np.float64).reshape(4, 4, 3) / 255.0
        back = ycbcr420_to_rgb(rgb_to_ycbcr420(ColorImage(4, 4, px)))
        # 2x2 box averaging bounds chroma drift by the in-block spread;
        # a loose global bound still catches matrix/offset mistakes.
        assert np.abs(back.pixels - px).max() <= 1.0
        assert back.pixels.min() >= 0.0 and back.pixels.max() <= 1.0
