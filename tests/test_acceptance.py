"""Acceptance gate: ten end-to-end criteria covering fidelity, coverage,
guided movement, extrapolation accuracy/speed, projection throughput,
capture gating, registration, the wire protocol, the service, and the
extrapolation math.

Criteria 4 and 5 measure steady-state cost, not allocator or cache cold
starts: criterion 4 takes the best of three runs after one warm-up run,
criterion 5 the best of five after one warm-up run. Criteria 1 and 9
time a single cold run. Each test prints one summary line.
"""

from __future__ import annotations

import math
import socket
import struct
import threading
import time

import numpy as np
import pytest

from litfield import farfield, nearfield, protocol
from litfield.capture import CapturePolicyConfig, GateDecision, MotionGate, PoseSample
from litfield.farfield import ExtrapolationMode, UnitSphereAnchorSet
from litfield.geometry import Intrinsics, Pose, equirect_pixel_dirs
from litfield.harness.metrics import psnr, ssim
from litfield.harness.scene import (
    FaceAppearance,
    SyntheticScene,
    ground_truth_envmap,
    look_at,
    orbit_trajectory,
    render_rgbd,
)
from litfield.nearfield import PointCloud, register_icp
from litfield.service import Server, ServerConfig, read_frame, write_frame
from litfield.session import Preset, create_session, preset_config

AMBIENT = np.array([0.5, 0.5, 0.5])


def _intrinsics(width: int, height: int, fov_deg: float = 60.0) -> Intrinsics:
    f = (width / 2.0) / math.tan(math.radians(fov_deg) / 2.0)
    return Intrinsics(f, f, width / 2.0, height / 2.0, width, height)


def _six_color_room() -> SyntheticScene:
    """Desk-scale six-color room; every wall lies inside the 2 m
    near-field boundary of a reconstruction point near the floor."""
    colors = {
        "floor": (0.55, 0.35, 0.15), "ceiling": (0.95, 0.95, 0.9),
        "x_min": (0.8, 0.2, 0.2), "x_max": (0.2, 0.8, 0.2),
        "z_min": (0.2, 0.2, 0.8), "z_max": (0.8, 0.8, 0.2),
    }
    return SyntheticScene(
        np.array([-0.9, 0.0, -0.9]), np.array([0.9, 2.3, 0.9]),
        {name: FaceAppearance(color=c) for name, c in colors.items()})


def _masked_psnr(composed: np.ndarray, truth: np.ndarray,
                 mask: np.ndarray) -> float:
    err = (composed - truth)[mask]
    mse = float(np.mean(err ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


@pytest.fixture(scope="module")
def orbit_run():
    """One High-preset reconstruction advanced along the orbit, with
    metrics snapshotted after views 1, 3, and 5 (shared by criteria 1-2)."""
    scene = _six_color_room()
    rec = np.array([0.0, 0.3, 0.0])
    config = preset_config(Preset.HIGH)
    k = _intrinsics(*config.near_capture_res)
    orbit = orbit_trajectory(rec, 170.0, 1.0)
    frames = [render_rgbd(scene, orbit.poses[i], k, view_id=i)
              for i in range(5)]
    truth = ground_truth_envmap(scene, rec, config.envmap_res).pixels

    t0 = time.perf_counter()
    sess = create_session(rec, config, config.near_capture_res, AMBIENT)
    sess.ingest_near(frames[0])
    composed = sess.compose().pixels
    first_view_s = time.perf_counter() - t0

    snapshots = {1: (int(sess.near_map.valid.sum()), composed,
                     sess.near_map.valid.copy())}
    for i in range(1, 5):
        sess.ingest_near(frames[i])
        if i + 1 in (3, 5):
            snapshots[i + 1] = (int(sess.near_map.valid.sum()),
                                sess.compose().pixels,
                                sess.near_map.valid.copy())
    return {"truth": truth, "first_view_s": first_view_s,
            "snapshots": snapshots}


def test_criterion_01_near_field_oracle_fidelity(orbit_run):
    count, composed, valid = orbit_run["snapshots"][1]
    assert count > 0
    score = _masked_psnr(composed, orbit_run["truth"], valid)
    assert score >= 30.0
    assert orbit_run["first_view_s"] <= 5.0
    print(f"[PASS] criterion 1: masked PSNR {score:.1f} dB over {count} valid "
          f"pixels, single-view runtime {orbit_run['first_view_s']:.2f} s")


def test_criterion_02_coverage_monotonicity(orbit_run):
    truth = orbit_run["truth"]
    counts, ssims = [], []
    for views in (1, 3, 5):
        count, composed, valid = orbit_run["snapshots"][views]
        counts.append(count)
        masked = np.where(valid[:, :, None], composed, truth)
        ssims.append(ssim(masked, truth))
    assert counts[0] <= counts[1] <= counts[2]
    assert ssims[1] >= ssims[0] - 0.005
    assert ssims[2] >= ssims[1] - 0.005
    print(f"[PASS] criterion 2: valid counts {counts}, masked SSIM "
          f"{[round(s, 4) for s in ssims]}")


def test_criterion_03_guided_movement_benefit():
    # Two-tone room: a bright back wall in the guided (+z) sector, dark
    # everywhere else. More guided frames must observe more anchors and
    # reconstruct the full far map strictly better.
    faces = {n: (0.1, 0.1, 0.1)
             for n in ("floor", "ceiling", "x_min", "x_max", "z_min")}
    faces["z_max"] = (1.0, 1.0, 1.0)
    scene = SyntheticScene(
        np.array([-3.0, 0.0, -3.0]), np.array([3.0, 3.0, 3.0]),
        {n: FaceAppearance(color=c) for n, c in faces.items()})
    rec = np.array([0.0, 1.5, 0.0])
    truth = ground_truth_envmap(scene, rec, (512, 256)).pixels
    k_far = _intrinsics(32, 24)
    v_obj = np.array([0.0, 0.0, -1.0])  # user views the object from +z

    from litfield.capture import plan_guided_movement

    table = farfield.precompute_table(
        512, 256, UnitSphereAnchorSet.create(), farfield.DEFAULT_TABLE_K)

    def reconstruct_far(n):
        anchors = UnitSphereAnchorSet.create()
        farfield.fill_unobserved(anchors, AMBIENT)
        for d in plan_guided_movement(v_obj, n).directions:
            pose = look_at(rec, rec + d.to_unit())
            frame = render_rgbd(scene, pose, k_far)
            dirs, colors = farfield.sparse_directions(frame.color, k_far, pose)
            farfield.splat_to_anchors(anchors, dirs, colors)
        layer = farfield.extrapolate(anchors, (512, 256), table=table)
        return layer.color, float(anchors.observed.mean())

    map_1, frac_1 = reconstruct_far(1)
    map_9, frac_9 = reconstruct_far(9)
    psnr_1 = psnr(map_1, truth)
    psnr_9 = psnr(map_9, truth)
    assert psnr_9 > psnr_1
    assert frac_9 >= 2.0 * frac_1
    print(f"[PASS] criterion 3: PSNR {psnr_1:.2f} -> {psnr_9:.2f} dB, "
          f"observed anchors {frac_1:.3f} -> {frac_9:.3f} "
          f"({frac_9 / frac_1:.1f}x)")


def test_criterion_04_table_acceleration_fidelity_and_speed():
    rng = np.random.default_rng(42)
    anchors = UnitSphereAnchorSet.create()
    dirs = rng.normal(size=(20000, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    farfield.splat_to_anchors(anchors, dirs, rng.random((20000, 3)))
    farfield.fill_unobserved(anchors, AMBIENT)

    table = farfield.precompute_table(512, 256, anchors,
                                      farfield.DEFAULT_TABLE_K)
    accel = farfield.extrapolate(anchors, (512, 256), 128.0,
                                 ExtrapolationMode.NORMALIZED, table)
    full = farfield.extrapolate(anchors, (512, 256), 128.0,
                                ExtrapolationMode.NORMALIZED)
    err = float(np.abs(accel.color - full.color).max())
    assert err <= 1e-3

    times = []
    for _ in range(4):  # first run is the warm-up
        t0 = time.perf_counter()
        farfield.extrapolate(anchors, (512, 256), 128.0,
                             ExtrapolationMode.NORMALIZED, table)
        times.append(time.perf_counter() - t0)
    best = min(times[1:])
    assert best <= 0.100
    print(f"[PASS] criterion 4: K=32 table max error {err:.2e}, "
          f"extrapolation {best * 1e3:.1f} ms")


def test_criterion_05_projection_throughput():
    rng = np.random.default_rng(7)
    n = 5 * 1024 * 768
    positions = rng.uniform(-1.0, 1.0, size=(n, 3))
    cloud = PointCloud(positions.astype(np.float32),
                       rng.random((n, 3), dtype=np.float32))
    rec = np.zeros(3)
    levels = [(1024, 512), (512, 256)]

    import gc

    gc.collect()
    times = []
    for _ in range(6):  # the first run warms the pool and the allocator
        t0 = time.perf_counter()
        layers = nearfield.project_multires(cloud, rec, levels)
        merged = nearfield.merge_multires(layers, levels[0])
        times.append(time.perf_counter() - t0)
    best = min(times[1:])
    assert merged.valid.any()
    assert best <= 0.200
    print(f"[PASS] criterion 5: {n} points at {levels} in "
          f"{best * 1e3:.1f} ms")


def _gate_oracle(samples, cfg):
    """Independent restatement of the capture policy: after the check
    period has elapsed, capture iff the current pose is within both
    thresholds of every sample in the K-deep window."""
    window: list[PoseSample] = []
    last_capture = -math.inf
    decisions = []
    for s in samples:
        ok = s.timestamp_ms - last_capture >= cfg.check_period_ms
        if ok:
            for past in window:
                d = np.linalg.norm(s.position - past.position)
                dot = abs(float(np.clip(np.dot(s.orientation,
                                               past.orientation), -1.0, 1.0)))
                ang = math.degrees(2.0 * math.acos(dot))
                if d > cfg.pos_threshold_m or ang > cfg.rot_threshold_deg:
                    ok = False
                    break
        decisions.append(GateDecision.CAPTURE if ok else GateDecision.SKIP)
        if ok:
            last_capture = s.timestamp_ms
        window.append(s)
        if len(window) > cfg.window_size:
            window.pop(0)
    return decisions


def test_criterion_06_motion_gate_determinism():
    cfg = CapturePolicyConfig()  # K=5, 300 ms, 10 cm, 10 degrees

    def yaw_sample(t, pos, yaw_deg):
        half = math.radians(yaw_deg) / 2.0
        return PoseSample(t, np.asarray(pos, dtype=float),
                          np.array([math.cos(half), 0.0, math.sin(half), 0.0]))

    scripts = {
        "static": [yaw_sample(i * 16.0, (0, 0, 0), 0.0) for i in range(80)],
        "jog": [yaw_sample(i * 16.0, (i * 0.2, 0, 0), 0.0) for i in range(80)],
        "twist": [yaw_sample(i * 16.0, (0, 0, 0), (i % 2) * 15.0)
                  for i in range(80)],
        "stop_and_go": (
            [yaw_sample(i * 16.0, (i * 0.2, 0, 0), 0.0) for i in range(25)]
            + [yaw_sample((25 + i) * 16.0, (24 * 0.2, 0, 0), 0.0)
               for i in range(55)]),
    }
    captures = {}
    for name, samples in scripts.items():
        gate = MotionGate(cfg)
        got = [gate.update(s) for s in samples]
        assert got == _gate_oracle(samples, cfg), name
        captures[name] = sum(d is GateDecision.CAPTURE for d in got)
    # Qualitative shape: a static stream keeps capturing on the timer,
    # sustained motion never captures after the first frame, and a
    # stop-and-go stream resumes once the window settles.
    assert captures["static"] >= 4
    assert captures["jog"] == 1
    assert captures["twist"] == 1
    assert captures["stop_and_go"] >= 2
    print(f"[PASS] criterion 6: capture counts {captures}")


def test_criterion_07_icp_recovery():
    rng = np.random.default_rng(123)
    # 10k points on the surface of a box: full-rank geometry with
    # unambiguous rigid structure.
    n = 10_000
    face = rng.integers(0, 6, size=n)
    uv = rng.uniform(-0.5, 0.5, size=(n, 2))
    pts = np.zeros((n, 3))
    axis, side = np.divmod(face, 2)
    for a in range(3):
        m = axis == a
        others = [i for i in range(3) if i != a]
        pts[np.ix_(m, others)] = uv[m]
        pts[m, a] = np.where(side[m] == 1, 0.5, -0.5)
    reference = PointCloud(pts, np.zeros((n, 3)))

    angle = math.radians(5.0)
    ax = rng.normal(size=3)
    ax /= np.linalg.norm(ax)
    k_mat = np.array([[0, -ax[2], ax[1]], [ax[2], 0, -ax[0]],
                      [-ax[1], ax[0], 0]])
    rot = np.eye(3) + math.sin(angle) * k_mat + (1 - math.cos(angle)) * k_mat @ k_mat
    t = rng.uniform(-1.0, 1.0, size=3)
    t *= 0.05 / np.linalg.norm(t)
    perturb = Pose(rot, t)
    source = PointCloud(perturb.transform(pts), np.zeros((n, 3)))

    result = register_icp(source, reference)
    assert result.iterations <= 50
    diffs = np.diff(result.residuals)
    assert np.all(diffs <= 1e-9)

    recovered = result.pose.compose(perturb)
    t_err = float(np.linalg.norm(recovered.translation))
    cos_a = (np.trace(recovered.rotation) - 1.0) / 2.0
    a_err = math.degrees(math.acos(float(np.clip(cos_a, -1.0, 1.0))))
    assert t_err <= 1e-3
    assert a_err <= 0.1
    print(f"[PASS] criterion 7: recovered to {t_err * 1e3:.3f} mm / "
          f"{a_err:.4f} deg in {result.iterations} iterations")


def _random_pose(rng) -> Pose:
    yaw, pitch = rng.uniform(-math.pi, math.pi), rng.uniform(-1.0, 1.0)
    cy, sy, cp, sp = math.cos(yaw), math.sin(yaw), math.cos(pitch), math.sin(pitch)
    r = np.array([[cy, 0, sy], [0, 1, 0], [-sy, 0, cy]]) @ \
        np.array([[1, 0, 0], [0, cp, -sp], [0, sp, cp]])
    p = Pose(r, rng.uniform(-10, 10, size=3))
    return Pose.from_matrix(p.matrix().astype(np.float32).astype(np.float64))


def _random_intrinsics(rng, w, h) -> Intrinsics:
    fx, fy = np.float32(rng.uniform(1, 500)), np.float32(rng.uniform(1, 500))
    return Intrinsics(float(fx), float(fy),
                      float(np.float32(rng.uniform(0, w - 0.01))),
                      float(np.float32(rng.uniform(0, h - 0.01))), w, h)


def _random_ycbcr(rng, w, h) -> protocol.YCbCr420Image:
    return protocol.YCbCr420Image(
        w, h, rng.integers(0, 256, (h, w), dtype=np.uint8),
        rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8),
        rng.integers(0, 256, (h // 2, w // 2), dtype=np.uint8))


def test_criterion_08_protocol_round_trip_and_fuzz():
    rng = np.random.default_rng(2024)
    n = 10_000
    f32v = lambda k: rng.uniform(-50, 50, size=k).astype(np.float32).astype(np.float64)

    sizes = set()
    for i in range(n):
        packets = [
            protocol.SessionInit(int(rng.integers(2**32)), f32v(3),
                                 int(rng.integers(4)), (512, 256),
                                 _random_intrinsics(rng, 64, 48), (64, 48),
                                 f32v(3)),
            protocol.NearKeyframe(int(rng.integers(2**32)),
                                  int(rng.integers(2**32)), _random_pose(rng),
                                  _random_intrinsics(rng, 8, 6),
                                  _random_ycbcr(rng, 8, 6),
                                  rng.random((6, 8)).astype(np.float32),
                                  rng.integers(0, 3, (6, 8), dtype=np.uint8)),
            protocol.FarKeyframe(int(rng.integers(2**32)), _random_pose(rng),
                                 _random_intrinsics(rng, 32, 24),
                                 _random_ycbcr(rng, 32, 24)),
            protocol.EnvMapResponse(int(rng.integers(2**32)), 16, 8,
                                    rng.integers(0, 256, (8, 16, 3),
                                                 dtype=np.uint8)),
        ]
        for p in packets:
            buf = protocol.encode_packet(p)
            assert decode_eq(buf, p)
            if isinstance(p, protocol.FarKeyframe):
                sizes.add(len(buf))
    assert sizes == {protocol.FAR_KEYFRAME_SIZE} == {1241}

    fuzz_count = 100_000
    with Server(ServerConfig()) as srv:
        sock = socket.create_connection(srv.address, timeout=60.0)
        sock.settimeout(60.0)
        replies = [0]

        def drain():
            while replies[0] < fuzz_count:
                if read_frame(sock) is None:
                    return
                replies[0] += 1

        reader = threading.Thread(target=drain)
        reader.start()
        batch = []
        for i in range(fuzz_count):
            payload = rng.bytes(int(rng.integers(0, 64)))
            batch.append(struct.pack("<I", len(payload)) + payload)
            if len(batch) == 2000:
                sock.sendall(b"".join(batch))
                batch.clear()
        sock.sendall(b"".join(batch))
        reader.join(timeout=120.0)
        assert replies[0] == fuzz_count
        # the connection still serves well-formed traffic
        init = protocol.SessionInit(1, np.zeros(3), 0, (512, 256),
                                    _intrinsics(64, 48), (64, 48), AMBIENT)
        write_frame(sock, protocol.encode_packet(init))
        reply = protocol.decode_packet(read_frame(sock))
        assert isinstance(reply, protocol.EnvMapResponse)
        sock.close()
    print(f"[PASS] criterion 8: {4 * n} packets bit-exact, FarKeyframe "
          f"constant at 1241 bytes, {fuzz_count} fuzz frames survived")


def decode_eq(buf: bytes, p) -> bool:
    return protocol.decode_packet(buf) == p


def test_criterion_09_service_transcript_medium():
    scene = _six_color_room()
    rec = np.array([0.0, 0.3, 0.0])
    config = preset_config(Preset.MEDIUM)
    k_near = _intrinsics(*config.near_capture_res)
    k_far = _intrinsics(32, 24)
    orbit = orbit_trajectory(rec, 170.0, 1.0)

    from litfield.capture import plan_guided_movement

    v_obj = rec - orbit.poses[0].translation
    v_obj /= np.linalg.norm(v_obj)
    frames = []
    for d in plan_guided_movement(v_obj, 9).directions:
        pose = look_at(rec, rec + d.to_unit())
        f = render_rgbd(scene, pose, k_far)
        frames.append(protocol.FarKeyframe(1, pose, k_far,
                                           protocol.rgb_to_ycbcr420(f.color)))
    for i in range(3):
        f = render_rgbd(scene, orbit.poses[i], k_near, view_id=i)
        frames.append(protocol.NearKeyframe(
            1, i, f.pose, k_near, protocol.rgb_to_ycbcr420(f.color),
            f.depth.depth.astype(np.float32), f.depth.confidence))
    init = protocol.SessionInit(1, rec, 1, config.envmap_res, k_near,
                                config.near_capture_res, AMBIENT)

    with Server(ServerConfig()) as srv:
        t0 = time.perf_counter()
        sock = socket.create_connection(srv.address, timeout=30.0)
        sock.settimeout(30.0)
        for pkt in [init] + frames:
            write_frame(sock, protocol.encode_packet(pkt))
        replies = [protocol.decode_packet(read_frame(sock)) for _ in range(13)]
        elapsed = time.perf_counter() - t0
        sock.close()

    assert len(replies) == 13
    assert all(isinstance(r, protocol.EnvMapResponse) for r in replies)
    assert all(r.session_id == 1 for r in replies)
    assert all((r.width, r.height) == config.envmap_res for r in replies)
    # responses arrive in request order: coverage never shrinks
    nonambient = [int(np.sum(np.any(np.abs(r.rgb.astype(int) - 128) > 1,
                                    axis=2))) for r in replies]
    assert nonambient == sorted(nonambient)
    assert elapsed <= 3.0
    print(f"[PASS] criterion 9: 13 ordered responses in {elapsed:.2f} s")


def test_criterion_10_extrapolation_invariants():
    rng = np.random.default_rng(77)
    anchors = UnitSphereAnchorSet.create()
    res = (64, 32)

    # constant preservation (Normalized)
    for w in (1.0, 16.0, 128.0):
        const = UnitSphereAnchorSet.create()
        farfield.fill_unobserved(const, np.array([0.3, 0.6, 0.9]))
        out = farfield.extrapolate(const, res, w, ExtrapolationMode.NORMALIZED)
        assert np.abs(out.color - [0.3, 0.6, 0.9]).max() <= 1e-6

    # Literal mode vs brute-force oracle
    anchors.colors[:] = rng.random((anchors.count, 3))
    lit = farfield.extrapolate(anchors, res, 128.0, ExtrapolationMode.LITERAL)
    normals = equirect_pixel_dirs(*res).reshape(-1, 3)
    cos = np.clip(normals @ anchors.directions.T, 0.0, None)
    brute = (2.0 / anchors.count) * (cos ** 128.0 @ anchors.colors)
    assert np.abs(lit.color.reshape(-1, 3) - brute).max() <= 1e-9

    # linearity in anchor colors (both modes)
    x = rng.random((anchors.count, 3))
    y = rng.random((anchors.count, 3))
    a, b = 0.3, 0.7
    for mode in (ExtrapolationMode.LITERAL, ExtrapolationMode.NORMALIZED):
        def run(colors):
            anchors.colors[:] = colors
            return farfield.extrapolate(anchors, res, 128.0, mode).color
        combined = run(a * x + b * y)
        assert np.abs(combined - (a * run(x) + b * run(y))).max() <= 1e-9

    # rotational equivariance: a quarter turn about +y rolls the map by
    # a quarter of its width
    anchors.colors[:] = rng.random((anchors.count, 3))
    base = farfield.extrapolate(anchors, res, 128.0,
                                ExtrapolationMode.NORMALIZED).color
    rot = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [-1.0, 0.0, 0.0]])
    turned = UnitSphereAnchorSet(anchors.directions @ rot.T,
                                 anchors.colors.copy(),
                                 anchors.weights.copy(),
                                 anchors.observed.copy())
    rolled = farfield.extrapolate(turned, res, 128.0,
                                  ExtrapolationMode.NORMALIZED).color
    w = res[0]
    candidates = [np.abs(rolled - np.roll(base, s, axis=1)).max()
                  for s in (-w // 4, w // 4)]
    assert min(candidates) <= 1e-9
    print("[PASS] criterion 10: constant preservation, Literal oracle, "
          "linearity, and rotational equivariance all hold")
