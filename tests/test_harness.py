"""Synthetic-scene harness tests: analytic rendering, ground-truth maps,
orbit trajectories, metrics, dataset files, and the CLI."""

from __future__ import annotations

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from click.testing import CliRunner

from litfield import protocol
from litfield.cli import main as cli_main
from litfield.errors import SceneError
from litfield.geometry import Intrinsics, Pose, unproject
from litfield.harness import dataset as ds
from litfield.harness.metrics import psnr, ssim
from litfield.harness.scene import (
    Box,
    FaceAppearance,
    SyntheticScene,
    Trajectory,
    default_scene,
    ground_truth_envmap,
    look_at,
    orbit_trajectory,
    render_rgbd,
)
from litfield.session import EnvironmentMap

K64 = Intrinsics(fx=55.0, fy=55.0, cx=32.0, cy=24.0, width=64, height=48)

SIX = {
    "floor": (1.0, 0.0, 0.0), "ceiling": (0.0, 1.0, 0.0),
    "x_min": (0.0, 0.0, 1.0), "x_max": (1.0, 1.0, 0.0),
    "z_min": (1.0, 0.0, 1.0), "z_max": (0.0, 1.0, 1.0),
}


def _cube(half=1.0, faces=None):
    faces = faces or SIX
    return SyntheticScene(
        np.array([-half, -half, -half]), np.array([half, half, half]),
        {name: FaceAppearance(color=c) for name, c in faces.items()})


# ── render_rgbd ──────────────────────────────────────────────────────────

class TestRenderRgbd:
    def test_solid_face_color_and_depth(self):
        # Camera at the origin facing -z: every ray exits through z_min,
        # and the unnormalized-ray depth parameter is exactly the plane
        # distance (dz = -1).
        frame = render_rgbd(_cube(3.0), Pose.identity(), K64)
        assert np.all(frame.color.pixels == SIX["z_min"])
        assert np.all(frame.depth.depth == 3.0)
        assert np.all(frame.depth.confidence == 2)

    def test_depth_matches_analytic_plane_distance(self):
        eye = np.array([0.4, -0.2, 0.7])
        frame = render_rgbd(_cube(3.0), Pose(np.eye(3), eye), K64)
        # facing -z from z=0.7 the hit plane is z=-3: t = 0.7 + 3
        assert np.abs(frame.depth.depth - 3.7).max() < 1e-6

    def test_checker_face_matches_analytic_lookup(self):
        faces = dict(SIX)
        scene = SyntheticScene(
            np.array([-3.0, -3.0, -3.0]), np.array([3.0, 3.0, 3.0]),
            {n: FaceAppearance(color=c) for n, c in faces.items()}
            | {"z_min": FaceAppearance(checker=((1.0, 1.0, 1.0),
                                                (0.0, 0.0, 0.0)), cell=0.5)})
        frame = render_rgbd(scene, Pose.identity(), K64)
        for (v, u) in [(0, 0), (24, 32), (47, 63), (10, 50)]:
            d = frame.depth.depth[v, u]
            p = unproject(float(u), float(v), float(d), K64, Pose.identity())
            parity = (math.floor(p[0] / 0.5) + math.floor(p[1] / 0.5)) % 2
            expect = (1.0, 1.0, 1.0) if parity == 0 else (0.0, 0.0, 0.0)
            assert tuple(frame.color.pixels[v, u]) == expect

    def test_interior_box_occludes_wall(self):
        scene = _cube(3.0)
        scene.boxes.append(Box(np.array([-0.5, -0.5, -2.0]),
                               np.array([0.5, 0.5, -1.0]),
                               {n: FaceAppearance(color=(0.1, 0.2, 0.3))
                                for n in SIX}))
        frame = render_rgbd(scene, Pose.identity(), K64)
        center = frame.color.pixels[24, 32]
        assert tuple(center) == (0.1, 0.2, 0.3)
        assert frame.depth.depth[24, 32] == pytest.approx(1.0)
        assert tuple(frame.color.pixels[0, 0]) == SIX["z_min"]

    def test_camera_outside_room_rejected(self):
        with pytest.raises(SceneError):
            render_rgbd(_cube(1.0), Pose(np.eye(3), np.array([5.0, 0.0, 0.0])),
                        K64)

    def test_unproject_reproduces_hit_points(self):
        # Round trip: rendered depth + unproject puts every pixel back on
        # a wall plane of the cube.
        frame = render_rgbd(_cube(1.0), Pose.identity(), K64)
        on_wall = 0
        for (v, u) in [(0, 0), (47, 63), (24, 32), (5, 40)]:
            p = unproject(float(u), float(v), float(frame.depth.depth[v, u]),
                          K64, Pose.identity())
            if np.any(np.isclose(np.abs(p), 1.0, atol=1e-9)):
                on_wall += 1
        assert on_wall == 4


# ── ground_truth_envmap ──────────────────────────────────────────────────

class TestGroundTruth:
    def test_six_face_solid_angles(self):
        # From the cube center each face subtends exactly 4*pi/6; the
        # sin(phi)-weighted pixel area of each color region must agree
        # within 1%.
        m = ground_truth_envmap(_cube(), (0.0, 0.0, 0.0), (512, 256))
        phi = (np.arange(256) + 0.5) / 256.0 * math.pi
        weight = np.broadcast_to(np.sin(phi)[:, None], (256, 512))
        total = weight.sum()
        for color in SIX.values():
            mask = np.all(m.pixels == color, axis=2)
            frac = weight[mask].sum() / total
            assert abs(frac - 1.0 / 6.0) < 0.01 / 6.0

    def test_gray_room_is_uniform(self):
        faces = {n: (0.5, 0.5, 0.5) for n in SIX}
        m = ground_truth_envmap(_cube(faces=faces), (0.2, -0.1, 0.3), (64, 32))
        assert np.all(m.pixels == 0.5)

    def test_approaching_a_face_grows_its_region(self):
        near = ground_truth_envmap(_cube(), (0.0, 0.0, -0.8), (256, 128))
        far = ground_truth_envmap(_cube(), (0.0, 0.0, 0.8), (256, 128))
        count_near = np.all(near.pixels == SIX["z_min"], axis=2).sum()
        count_far = np.all(far.pixels == SIX["z_min"], axis=2).sum()
        assert count_near > count_far

    def test_position_outside_rejected(self):
        with pytest.raises(SceneError):
            ground_truth_envmap(_cube(), (2.0, 0.0, 0.0), (64, 32))


# ── orbit_trajectory ─────────────────────────────────────────────────────

class TestOrbitTrajectory:
    REC = np.array([0.4, 0.3, -0.2])

    def test_height_and_radius_for_170cm(self):
        traj = orbit_trajectory(self.REC, 170.0, 1.0)
        for pose in traj.poses:
            assert pose.translation[1] == pytest.approx(1.36)
            r = np.linalg.norm((pose.translation - [self.REC[0], 0, self.REC[2]])
                               [[0, 2]])
            assert r == pytest.approx(0.51)

    def test_eight_positions_45_degrees_apart(self):
        traj = orbit_trajectory(self.REC, 170.0, 1.0)
        assert len(traj.poses) == 8
        az = [math.atan2(p.translation[2] - self.REC[2],
                         p.translation[0] - self.REC[0]) for p in traj.poses]
        diffs = np.diff(np.unwrap(az))
        assert np.allclose(np.abs(diffs), math.pi / 4.0, atol=1e-12)

    def test_principal_ray_hits_rec_pos(self):
        traj = orbit_trajectory(self.REC, 180.0, 1.5)
        for pose in traj.poses:
            fwd = pose.rotation @ np.array([0.0, 0.0, -1.0])
            to_rec = self.REC - pose.translation
            # distance from rec_pos to the principal ray
            miss = np.linalg.norm(to_rec - np.dot(to_rec, fwd) * fwd)
            assert miss < 1e-6

    def test_deterministic(self):
        a = orbit_trajectory(self.REC, 160.0, 0.5)
        b = orbit_trajectory(self.REC, 160.0, 0.5)
        for pa, pb in zip(a.poses, b.poses):
            assert np.array_equal(pa.matrix(), pb.matrix())

    def test_timestamps_increase(self):
        traj = orbit_trajectory(self.REC, 170.0, 1.0, interval_ms=350.0)
        assert traj.timestamps_ms == [i * 350.0 for i in range(8)]
        with pytest.raises(ValueError):
            Trajectory(traj.poses, list(reversed(traj.timestamps_ms)))


# ── metrics ──────────────────────────────────────────────────────────────

class TestMetrics:
    def test_identical_maps(self):
        rng = np.random.default_rng(5)
        px = rng.random((32, 64, 3))
        m = EnvironmentMap(64, 32, px)
        assert psnr(m, m) == math.inf
        assert ssim(m, m) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_offset_psnr(self):
        a = EnvironmentMap(64, 32, np.zeros((32, 64, 3)))
        b = EnvironmentMap(64, 32, np.full((32, 64, 3), 0.5))
        assert psnr(a, b) == pytest.approx(10.0 * math.log10(1.0 / 0.25),
                                           abs=1e-9)
        assert psnr(a, b) == pytest.approx(6.0206, abs=1e-4)

    def test_single_inverted_pixel_ssim(self):
        rng = np.random.default_rng(9)
        px = rng.random((512, 1024, 3)) * 0.5 + 0.25
        other = px.copy()
        other[256, 512] = 1.0 - other[256, 512]
        s = ssim(EnvironmentMap(1024, 512, px), EnvironmentMap(1024, 512, other))
        assert 0.99 < s < 1.0

    def test_resolution_mismatch_rejected(self):
        a = EnvironmentMap(64, 32, np.zeros((32, 64, 3)))
        b = EnvironmentMap(32, 16, np.zeros((16, 32, 3)))
        with pytest.raises(ValueError):
            psnr(a, b)
        with pytest.raises(ValueError):
            ssim(a, b)

    def test_psnr_symmetry(self):
        rng = np.random.default_rng(2)
        a = EnvironmentMap(16, 8, rng.random((8, 16, 3)))
        b = EnvironmentMap(16, 8, rng.random((8, 16, 3)))
        assert psnr(a, b) == pytest.approx(psnr(b, a))


# ── dataset files ────────────────────────────────────────────────────────

class TestDatasetFiles:
    def test_ppm_round_trip(self, tmp_path):
        rng = np.random.default_rng(1)
        rgb = rng.integers(0, 256, size=(6, 9, 3), dtype=np.uint8)
        path = str(tmp_path / "img.ppm")
        ds.write_ppm(path, rgb)
        assert np.array_equal(ds.read_ppm(path), rgb)

    def test_envmap_round_trip(self, tmp_path):
        rng = np.random.default_rng(4)
        env = EnvironmentMap.from_uint8(
            rng.integers(0, 256, size=(8, 16, 3), dtype=np.uint8))
        path = str(tmp_path / "env.ppm")
        ds.write_envmap(path, env)
        back = ds.read_envmap(path)
        assert np.array_equal(back.to_uint8(), env.to_uint8())

    def test_dataset_round_trip(self, tmp_path):
        k_far = Intrinsics(20.0, 15.0, 16.0, 12.0, 32, 24)
        gray = protocol.YCbCr420Image(
            32, 24, np.full((24, 32), 77, np.uint8),
            np.full((12, 16), 128, np.uint8), np.full((12, 16), 128, np.uint8))
        init = protocol.SessionInit(
            3, np.array([0.0, 0.25, 0.0], dtype=np.float32).astype(np.float64),
            2, (1024, 512), Intrinsics(800.0, 800.0, 512.0, 384.0, 1024, 768),
            (1024, 768), np.array([0.5, 0.5, 0.5]))
        frames = [protocol.FarKeyframe(3, Pose.identity(), k_far, gray)
                  for _ in range(3)]
        gt = ground_truth_envmap(_cube(), (0.0, 0.0, 0.0), (64, 32))
        out = str(tmp_path / "data")
        ds.write_dataset(out, init, frames, gt, meta={"preset": "high"})
        data = ds.load_dataset(out)
        assert data.init_packet() == init
        loaded = list(data.frames())
        assert loaded == frames
        assert np.array_equal(data.ground_truth().to_uint8(), gt.to_uint8())
        assert data.meta["preset"] == "high"


# ── CLI ──────────────────────────────────────────────────────────────────

class TestCli:
    def test_simulate_reconstruct_evaluate(self, tmp_path):
        runner = CliRunner()
        data_dir = str(tmp_path / "data")
        out_dir = str(tmp_path / "out")
        r = runner.invoke(cli_main, ["simulate", "--preset", "low",
                                     "--views", "1", "--guided", "1",
                                     "--out", data_dir])
        assert r.exit_code == 0, r.output
        assert os.path.exists(os.path.join(data_dir, "manifest.txt"))

        r = runner.invoke(cli_main, ["reconstruct", "--data", data_dir,
                                     "--out", out_dir])
        assert r.exit_code == 0, r.output
        assert "multi-resolution projection" in r.output
        assert os.path.exists(os.path.join(out_dir, "composed.ppm"))

        r = runner.invoke(cli_main, ["evaluate", "--data", data_dir,
                                     "--maps", out_dir])
        assert r.exit_code == 0, r.output
        header, *rows = [ln for ln in r.output.splitlines() if ln.strip()]
        assert header.split("\t") == ["map", "psnr_db", "ssim"]
        assert any(row.startswith("composed.ppm\t") for row in rows)

    def test_replay_against_live_server(self, tmp_path):
        from litfield.service import Server, ServerConfig

        runner = CliRunner()
        data_dir = str(tmp_path / "data")
        maps_dir = str(tmp_path / "maps")
        r = runner.invoke(cli_main, ["simulate", "--preset", "low",
                                     "--views", "1", "--guided", "1",
                                     "--out", data_dir])
        assert r.exit_code == 0, r.output
        with Server(ServerConfig()) as srv:
            bind = f"{srv.address[0]}:{srv.address[1]}"
            r = runner.invoke(cli_main, ["replay", "--data", data_dir,
                                         "--bind", bind, "--out", maps_dir])
        assert r.exit_code == 0, r.output
        written = sorted(os.listdir(maps_dir))
        assert "map_init.ppm" in written
        assert sum(n.startswith("map_0") for n in written) == 2  # 1 far + 1 near

    def test_cli_import_leaves_out_the_harness(self):
        # `litfield serve` should not pay for the synthetic harness or the
        # scipy.ndimage its metrics import
        code = ("import sys, litfield.cli; "
                "print(sorted(m for m in ('litfield.harness', 'scipy.ndimage') "
                "if m in sys.modules))")
        src = os.path.dirname(os.path.dirname(protocol.__file__))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            [src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                             capture_output=True, text=True, timeout=120)
        assert out.stdout.strip() == "[]"

    def test_bind_env_var(self, monkeypatch):
        from litfield.cli import _resolve_bind
        monkeypatch.setenv("LITFIELD_BIND", "0.0.0.0:4242")
        assert _resolve_bind(None) == ("0.0.0.0", 4242)
        assert _resolve_bind("127.0.0.1:1") == ("127.0.0.1", 1)
