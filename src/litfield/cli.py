"""Command-line interface: dataset simulation, offline reconstruction,
the network service, a streaming replay client, and evaluation.

The synthetic harness (and scipy.ndimage, which its metrics need) is
imported only by the commands that use it, so `serve` starts without it.
"""

from __future__ import annotations

import os
import sys
import time

import click
import numpy as np

from . import protocol, service
from .capture import plan_guided_movement
from .geometry import Intrinsics
from .session import (FAR_CAPTURE_RES, EnvironmentMap, Preset, create_session,
                      preset_config)

DEFAULT_BIND = "127.0.0.1:9876"


def _parse_bind(value: str) -> tuple[str, int]:
    host, _, port = value.rpartition(":")
    return host or "127.0.0.1", int(port)


def _parse_vec3(value: str) -> np.ndarray:
    parts = [float(x) for x in value.split(",")]
    if len(parts) != 3:
        raise click.BadParameter(f"expected x,y,z, got {value!r}")
    return np.array(parts)


def _preset(name: str) -> Preset:
    return Preset(name.lower())


def _intrinsics_for(width: int, height: int, fov_deg: float = 60.0) -> Intrinsics:
    f = (width / 2.0) / np.tan(np.radians(fov_deg) / 2.0)
    return Intrinsics(f, f, width / 2.0, height / 2.0, width, height)


bind_option = click.option(
    "--bind", default=None, metavar="HOST:PORT",
    help=f"Server address (env LITFIELD_BIND, default {DEFAULT_BIND}).")


def _resolve_bind(value: str | None) -> tuple[str, int]:
    return _parse_bind(value or os.environ.get("LITFIELD_BIND", DEFAULT_BIND))


@click.group()
def main():
    """Lighting reconstruction from posed RGB-D observations."""


@main.command()
@click.option("--scene", "scene_path", type=click.Path(exists=True),
              help="Scene JSON file (default: built-in six-color room).")
@click.option("--preset", default="high", type=click.Choice(["low", "medium", "high"]))
@click.option("--views", default=None, type=int,
              help="Number of near-field views along the orbit (default: preset).")
@click.option("--guided", default="9", type=click.Choice(["1", "3", "5", "9"]),
              show_default=True, help="Guided far-field observation count.")
@click.option("--rec-pos", default="0,0.3,0", show_default=True,
              help="Reconstruction position x,y,z in meters.")
@click.option("--height", default=170.0, show_default=True,
              help="User height in cm (orbit geometry).")
@click.option("--steps", default=1.0, show_default=True,
              help="Orbit radius in steps of 0.3 x height.")
@click.option("--fov", default=60.0, show_default=True, help="Camera FoV in degrees.")
@click.option("--out", "out_dir", required=True, type=click.Path())
def simulate(scene_path, preset, views, guided, rec_pos, height, steps, fov,
             out_dir):
    """Render a synthetic dataset: keyframe packets + ground truth."""
    from .harness import dataset as ds
    from .harness.scene import (default_scene, ground_truth_envmap, load_scene,
                                look_at, orbit_trajectory, render_rgbd)

    scene = load_scene(scene_path) if scene_path else default_scene()
    guided = int(guided)
    preset_e = _preset(preset)
    config = preset_config(preset_e)
    rec = _parse_vec3(rec_pos)
    session_id = 1

    cw, ch = config.near_capture_res
    near_k = _intrinsics_for(cw, ch, fov)
    far_k = _intrinsics_for(*FAR_CAPTURE_RES, fov)

    n_views = views if views is not None else config.num_views
    orbit = orbit_trajectory(rec, height, steps)
    frames = []

    # Far-field bootstrap: guided directions opposite the first orbit view.
    v_obj = rec - orbit.poses[0].translation
    v_obj /= np.linalg.norm(v_obj)
    for d in plan_guided_movement(v_obj, guided).directions:
        pose = look_at(rec, rec + d.to_unit())
        frame = render_rgbd(scene, pose, far_k)
        frames.append(protocol.FarKeyframe(
            session_id, pose, far_k, protocol.rgb_to_ycbcr420(frame.color)))

    for i in range(n_views):
        pose = orbit.poses[i % len(orbit.poses)]
        frame = render_rgbd(scene, pose, near_k, view_id=i)
        frames.append(protocol.NearKeyframe(
            session_id, i, pose, near_k, protocol.rgb_to_ycbcr420(frame.color),
            frame.depth.depth.astype(np.float32), frame.depth.confidence))

    init = protocol.SessionInit(
        session_id, rec, service.PRESET_TO_BYTE[preset_e], config.envmap_res,
        _intrinsics_for(*config.near_capture_res, fov), config.near_capture_res,
        np.array([0.5, 0.5, 0.5]))
    gt = ground_truth_envmap(scene, rec, config.envmap_res)
    ds.write_dataset(out_dir, init, frames, gt, meta={
        "preset": preset, "rec_pos": rec_pos, "guided": str(guided),
        "views": str(n_views), "height_cm": str(height), "steps": str(steps),
    })
    click.echo(f"wrote {len(frames)} keyframes to {out_dir}")


_TIMING_ROWS = [
    ("data decode", "data_decode"),
    ("dense cloud", "dense_cloud"),
    ("multi-resolution projection", "multires_projection"),
    ("sparse cloud", "sparse_cloud"),
    ("anchor extrapolation", "anchor_extrapolation"),
]


@main.command()
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@click.option("--out", "out_dir", required=True, type=click.Path())
def reconstruct(data_dir, out_dir):
    """Run the full pipeline offline over a dataset directory."""
    from .harness import dataset as ds

    data = ds.load_dataset(data_dir)
    init = data.init_packet()
    config = preset_config(service.preset_of_byte(init.preset))
    sess = create_session(init.rec_pos, config, init.native_res, init.ambient,
                          session_id=init.session_id)

    decode_time = 0.0
    for name in data.frame_files:
        with open(os.path.join(data_dir, name), "rb") as f:
            raw = f.read()
        t0 = time.perf_counter()
        packet = protocol.decode_packet(raw)
        frame = packet.to_camera_frame()
        decode_time += time.perf_counter() - t0
        if isinstance(packet, protocol.NearKeyframe):
            sess.ingest_near(frame)
        else:
            sess.ingest_far(frame)
    sess.timings["data_decode"] = decode_time

    os.makedirs(out_dir, exist_ok=True)
    ds.write_envmap(os.path.join(out_dir, "composed.ppm"), sess.compose())
    for name, layer in (("near.ppm", sess.near_map), ("far.ppm", sess.far_map)):
        ds.write_envmap(os.path.join(out_dir, name),
                        EnvironmentMap(layer.width, layer.height, layer.color))

    click.echo(f"{'stage':<30}{'total ms':>10}")
    for label, key in _TIMING_ROWS:
        click.echo(f"{label:<30}{sess.timings.get(key, 0.0) * 1e3:>10.2f}")
    click.echo(f"maps written to {out_dir}")


@main.command()
@bind_option
@click.option("--preset", default="high", type=click.Choice(["low", "medium", "high"]),
              help="Preset used when clients request CUSTOM.")
@click.option("--icp", is_flag=True, help="Enable asynchronous registration.")
def serve(bind, preset, icp):
    """Run the framed-stream reconstruction service."""
    host, port = _resolve_bind(bind)
    cfg = service.ServerConfig(host=host, port=port, icp_enabled=icp,
                               default_preset=_preset(preset))
    server = service.serve(cfg)
    click.echo(f"listening on {server.address[0]}:{server.address[1]}")
    try:
        while True:
            time.sleep(1.0)
    except KeyboardInterrupt:
        server.shutdown()


@main.command()
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True))
@bind_option
@click.option("--out", "out_dir", required=True, type=click.Path())
def replay(data_dir, bind, out_dir):
    """Stream a dataset to a server and store the returned maps."""
    from .harness import dataset as ds

    data = ds.load_dataset(data_dir)
    os.makedirs(out_dir, exist_ok=True)
    with service.client_connect(_resolve_bind(bind)) as client:
        env = client.send(data.init_packet())
        ds.write_envmap(os.path.join(out_dir, "map_init.ppm"), env)
        for i, packet in enumerate(data.frames()):
            env = client.send(packet)
            ds.write_envmap(os.path.join(out_dir, f"map_{i:03d}.ppm"), env)
    click.echo(f"stored maps in {out_dir}")


@main.command()
@click.option("--data", "data_dir", required=True, type=click.Path(exists=True),
              help="Dataset directory holding the ground truth.")
@click.option("--maps", "maps_dir", required=True, type=click.Path(exists=True),
              help="Directory of reconstructed .ppm maps.")
def evaluate(data_dir, maps_dir):
    """PSNR/SSIM of reconstructed maps against the ground truth (TSV)."""
    from .harness import dataset as ds
    from .harness import metrics

    gt = ds.load_dataset(data_dir).ground_truth()
    names = sorted(n for n in os.listdir(maps_dir) if n.endswith(".ppm"))
    if not names:
        click.echo("no .ppm maps found", err=True)
        sys.exit(1)
    click.echo("map\tpsnr_db\tssim")
    for name in names:
        env = ds.read_envmap(os.path.join(maps_dir, name))
        p = metrics.psnr(env, gt)
        s = metrics.ssim(env, gt)
        click.echo(f"{name}\t{p:.4f}\t{s:.6f}")


if __name__ == "__main__":
    main()
