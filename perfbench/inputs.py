"""Seeded keyframe inputs for the benchmark workloads, cached on disk.

Inputs are rendered with the program's own synthetic harness (analytic
cuboid rooms, exact RGB-D frames, ray-cast ground-truth panoramas) and
encoded with its wire codec. The seed moves the orbit's starting azimuth
and jitters the reconstruction position inside the room; nothing else
about a workload depends on it. Generation is never timed: a run loads
the cached packets, or renders and caches them before the server starts.

Every packet carries its session id at byte offset 1 (u32 LE), so one
rendered session is re-addressed to several session ids by patching
those bytes.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import struct
from dataclasses import dataclass

import numpy as np

from litfield import protocol, service
from litfield.capture import plan_guided_movement
from litfield.geometry import Intrinsics
from litfield.harness.scene import (FaceAppearance, SyntheticScene, default_scene,
                                    ground_truth_envmap, look_at, render_rgbd)
from litfield.session import Preset, preset_config

FOV_DEG = 60.0
FAR_RES = (32, 24)

SIX_COLORS = {
    "floor": (0.55, 0.35, 0.15), "ceiling": (0.95, 0.95, 0.9),
    "x_min": (0.8, 0.2, 0.2), "x_max": (0.2, 0.8, 0.2),
    "z_min": (0.2, 0.2, 0.8), "z_max": (0.8, 0.8, 0.2),
}


def desk_scene() -> SyntheticScene:
    """A 1.8 m x 1.25 m x 1.8 m room: with the reconstruction position
    jittered at most 0.1 m from (0, 0.3, 0), every wall lies inside the
    2 m near-field boundary cube, so no dense point is discarded."""
    return SyntheticScene(np.array([-0.9, 0.0, -0.9]), np.array([0.9, 1.25, 0.9]),
                          {n: FaceAppearance(color=c) for n, c in SIX_COLORS.items()})


@dataclass(frozen=True)
class Spec:
    """How one workload's inputs are made."""

    preset: Preset
    scene: str              # "desk" or "default" (the built-in 6 m room)
    rec_jitter: tuple[float, float, float]  # max |offset| from (0, 0.3, 0), m
    eye_height: float       # camera height above the floor, m
    orbit_radius: float     # m
    orbit_positions: int    # one near keyframe per pose, view id = pose index
    rounds: int             # distinct session ids a connection cycles through


SPECS = {
    # One HIGH session; 9 guided far keyframes, then 6 near keyframes with
    # fresh view ids so the 5-slot buffer fills and then evicts. Six, not
    # more, so that two rounds (14-22 s each) fit in a 48 s run: session
    # start and far latency are then sampled at least twice per run.
    "high-orbit": Spec(Preset.HIGH, "desk", (0.1, 0.05, 0.1), 1.04, 0.39, 6, 1),
    # Back-to-back MEDIUM sessions on one connection, cycling 4 session ids
    # so the connection holds 4 live sessions. Each sends 9 guided far
    # keyframes and a single closing near keyframe.
    "far-churn": Spec(Preset.MEDIUM, "default", (0.3, 0.1, 0.3), 1.36, 0.51, 1, 4),
}


def intrinsics_for(width: int, height: int) -> Intrinsics:
    f = (width / 2.0) / math.tan(math.radians(FOV_DEG) / 2.0)
    return Intrinsics(f, f, width / 2.0, height / 2.0, width, height)


@dataclass
class WorkloadInputs:
    """Everything the connection sends and checks, for session id 0."""

    envmap_res: tuple[int, int]
    ambient: np.ndarray      # (3,) float32, as sent in SessionInit
    ground_truth: np.ndarray  # (H, W, 3) float32, ray-cast at rec_pos
    packets: list[tuple[str, bytes]]  # ("init"|"near"|"far", payload), sid 0


def readdress(payload: bytes, session_id: int) -> bytes:
    return payload[:1] + struct.pack("<I", session_id) + payload[5:]


def _render(spec: Spec, rng: np.random.Generator) -> WorkloadInputs:
    scene = desk_scene() if spec.scene == "desk" else default_scene()
    config = preset_config(spec.preset)
    rec = np.array([0.0, 0.3, 0.0]) + rng.uniform(-1.0, 1.0, 3) * spec.rec_jitter
    rec = rec.astype(np.float32).astype(np.float64)  # as the wire carries it
    az0 = rng.uniform(0.0, 2.0 * math.pi)
    k_near = intrinsics_for(*config.near_capture_res)
    k_far = intrinsics_for(*FAR_RES)

    eyes = []
    for i in range(spec.orbit_positions):
        az = az0 + 2.0 * math.pi * i / spec.orbit_positions
        eyes.append(np.array([rec[0] + spec.orbit_radius * math.cos(az), spec.eye_height,
                              rec[2] + spec.orbit_radius * math.sin(az)]))

    # Guided far bootstrap, planned on the client as the phone would:
    # directions opposite the first orbit view.
    v_obj = rec - eyes[0]
    v_obj /= np.linalg.norm(v_obj)
    far = []
    for d in plan_guided_movement(v_obj, 9).directions:
        pose = look_at(rec, rec + d.to_unit())
        frame = render_rgbd(scene, pose, k_far)
        far.append(protocol.encode_packet(protocol.FarKeyframe(
            0, pose, k_far, protocol.rgb_to_ycbcr420(frame.color))))

    near = []
    for view_id, eye in enumerate(eyes):
        frame = render_rgbd(scene, look_at(eye, rec), k_near)
        near.append(protocol.encode_packet(protocol.NearKeyframe(
            0, view_id, frame.pose, k_near, protocol.rgb_to_ycbcr420(frame.color),
            frame.depth.depth.astype(np.float32), frame.depth.confidence)))

    gt = ground_truth_envmap(scene, rec, config.envmap_res).pixels.astype(np.float32)
    ambient = gt.reshape(-1, 3).mean(axis=0).astype(np.float32)
    init = protocol.encode_packet(protocol.SessionInit(
        0, rec, service.PRESET_TO_BYTE[spec.preset], config.envmap_res, k_near,
        config.near_capture_res, ambient))

    packets = [("init", init)] + [("far", p) for p in far] + [("near", p) for p in near]
    return WorkloadInputs(config.envmap_res, ambient, gt, packets)


def _source_digest(src_dir: str) -> str:
    """Digest of the program's sources and this file: a change to the
    renderer or the wire codec invalidates cached inputs."""
    h = hashlib.sha256()
    paths = [os.path.abspath(__file__)]
    for root, _, files in os.walk(src_dir):
        paths += [os.path.join(root, f) for f in files if f.endswith(".py")]
    for path in sorted(paths):
        with open(path, "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def _save(directory: str, inputs: WorkloadInputs) -> None:
    tmp = directory + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    np.save(os.path.join(tmp, "gt.npy"), inputs.ground_truth)
    names = []
    for i, (kind, payload) in enumerate(inputs.packets):
        name = f"{i:03d}_{kind}.bin"
        with open(os.path.join(tmp, name), "wb") as f:
            f.write(payload)
        names.append([kind, name])
    with open(os.path.join(tmp, "meta.json"), "w") as f:
        json.dump({"envmap_res": list(inputs.envmap_res),
                   "ambient": inputs.ambient.tolist(), "packets": names}, f)
    os.replace(tmp, directory)


def _load(directory: str) -> WorkloadInputs:
    with open(os.path.join(directory, "meta.json")) as f:
        meta = json.load(f)
    packets = []
    for kind, name in meta["packets"]:
        with open(os.path.join(directory, name), "rb") as f:
            packets.append((kind, f.read()))
    return WorkloadInputs(tuple(meta["envmap_res"]),
                            np.array(meta["ambient"], dtype=np.float32),
                            np.load(os.path.join(directory, "gt.npy")), packets)


def load_inputs(workload: str, seed: int, src_dir: str, cache_dir: str) -> WorkloadInputs:
    """The workload's inputs for this seed, from the cache when present;
    otherwise rendered now and cached."""
    spec = SPECS[workload]
    directory = os.path.join(cache_dir, f"{workload}-{seed}-{_source_digest(src_dir)}")
    if not os.path.isdir(directory):
        rng = np.random.default_rng([seed, list(SPECS).index(workload)])
        os.makedirs(cache_dir, exist_ok=True)
        _save(directory, _render(spec, rng))
    return _load(directory)
