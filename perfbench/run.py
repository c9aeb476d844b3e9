#!/usr/bin/env python3
"""Keyframe-streaming benchmark for `litfield serve`.

Runs the server as its own process on loopback and drives it from this
process over one connection in a closed loop: it sends its next packet
only after the reply to the previous one has arrived, as the phone does. A
packet is timed from the first byte sent to the last reply byte
received. Every reply is checked (see `check_reply`); a check that does
not hold, an error reply or a timeout counts the packet as failed.

The client plays whole rounds of its workload (README.md): it always
plays the first, and starts another only if, at the pace of the longest
round so far, it would end within --seconds of the start. So every run
attempts whole rounds and ends within --seconds, unless a single round
takes longer.

    python3 perfbench/run.py --workload high-orbit --seed 1 --seconds 48 --trace 0

Run from the root of a litfield checkout. The last line of standard
output is one JSON object: correct, attempted, failed and metrics, the
end-to-end metrics with --trace 0 and the per-layer metrics (layers.py)
with --trace 1, where the server starts through traced_serve.py. The
metric names and units are those of BENCHMARK.json.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import select
import signal
import socket
import statistics
import struct
import subprocess
import sys
import time

import numpy as np

import layers

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
HERE = os.path.dirname(os.path.abspath(__file__))
CACHE = os.path.join(ROOT, ".bench_cache")

SETUP_LAUNCHES = 5         # server launches per run; setup_s is their median
START_TIMEOUT_S = 60.0
REPLY_TIMEOUT_S = 60.0
PSNR_FLOOR_DB = 12.0       # every session's last map stays above this
KIND_ENVMAP_RESPONSE = 0x10
KIND_ERROR = 0xFF


class Server:
    """One `litfield serve` process bound to an ephemeral loopback port."""

    def __init__(self, traced: bool, spans_path: str | None = None):
        args = ["serve", "--bind", "127.0.0.1:0"]
        if traced:
            cmd = [sys.executable, os.path.join(HERE, "traced_serve.py"), spans_path] + args
        else:
            cmd = [sys.executable, "-m", "litfield.cli"] + args
        env = dict(os.environ, PYTHONPATH=SRC)
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(cmd, stdout=subprocess.PIPE,
                                     stderr=subprocess.DEVNULL, env=env, cwd=ROOT)
        try:
            ready, _, _ = select.select([self.proc.stdout], [], [], START_TIMEOUT_S)
            line = self.proc.stdout.readline().decode() if ready else ""
            if not line.startswith("listening on "):
                raise RuntimeError(f"server did not start: {line!r}")
            host, _, port = line.split()[-1].rpartition(":")
            self.address = (host, int(port))
            socket.create_connection(self.address, timeout=START_TIMEOUT_S).close()
        except BaseException:
            self.stop()
            raise
        self.setup_s = time.perf_counter() - t0

    def cpu_s(self) -> float:
        with open(f"/proc/{self.proc.pid}/stat") as f:
            fields = f.read().rpartition(")")[2].split()
        return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")

    def peak_rss_mb(self) -> float:
        with open(f"/proc/{self.proc.pid}/status") as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise RuntimeError("VmHWM missing from /proc status")

    def stop(self) -> None:
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=20.0)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()


def recv_exact(sock: socket.socket, n: int) -> bytearray:
    buf = bytearray(n)
    view = memoryview(buf)
    got = 0
    while got < n:
        k = sock.recv_into(view[got:])
        if not k:
            raise ConnectionError("server closed the connection")
        got += k
    return buf


def psnr(u8: np.ndarray, truth: np.ndarray) -> float:
    mse = float(np.mean((u8.astype(np.float32) / np.float32(255.0) - truth) ** 2))
    return math.inf if mse == 0.0 else 10.0 * math.log10(1.0 / mse)


class Client:
    """The phone: one connection playing whole rounds until the deadline."""

    def __init__(self, inputs, rounds: list[list[tuple[str, int, bytes]]],
                 address, deadline: float):
        self.inputs = inputs
        self.rounds = rounds            # (kind, session id, framed packet)
        self.address = address
        self.deadline = deadline
        self.records: list[dict] = []   # one per packet attempted
        self.psnrs: list[float] = []    # last map of every session
        self.errors: list[str] = []
        self.incorrect = False
        w, h = inputs.envmap_res
        self.reply_len = 9 + 3 * w * h
        ambient_u8 = np.floor(np.clip(inputs.ambient.astype(np.float64), 0, 1) * 255 + 0.5)
        self.ambient_u8 = ambient_u8.astype(np.int16)
        self.ambient_psnr = psnr(np.broadcast_to(ambient_u8.astype(np.uint8),
                                                 inputs.ground_truth.shape),
                                 inputs.ground_truth)

    def run(self) -> None:
        sock = None
        seq = 0
        n = 0
        longest = 0.0
        try:
            while n == 0 or time.perf_counter() + longest <= self.deadline:
                round_start = time.perf_counter()
                packets = self.rounds[n % len(self.rounds)]
                n += 1
                if sock is None:
                    sock = socket.create_connection(self.address, timeout=REPLY_TIMEOUT_S)
                    sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
                    # The traced server names a connection by its first session id.
                    conn_key, seq = packets[0][1], 0
                for i, (kind, sid, frame) in enumerate(packets):
                    seq += 1
                    rec = {"conn": conn_key, "seq": seq, "kind": kind, "ok": False}
                    self.records.append(rec)
                    if sock is None:
                        continue  # the rest of a broken round counts as failed
                    try:
                        rec["t0"] = time.perf_counter()
                        sock.sendall(frame)
                        (length,) = struct.unpack("<I", recv_exact(sock, 4))
                        reply = recv_exact(sock, length)
                        rec["t1"] = time.perf_counter()
                    except OSError as e:
                        self.errors.append(f"{kind} packet: {e!r}")
                        sock.close()
                        sock = None
                        continue
                    rec["ok"] = self.check_reply(kind, sid, reply, i == len(packets) - 1)
                longest = max(longest, time.perf_counter() - round_start)
        finally:
            if sock is not None:
                sock.close()

    def check_reply(self, kind: str, sid: int, reply: bytearray, last: bool) -> bool:
        """Every reply is an EnvMapResponse for the request's session at the
        preset's map size; a SessionInit reply is the uniform ambient color
        within 1 LSB (normalized extrapolation preserves constants); the
        last map of a session beats the ambient-only map and the floor in
        PSNR against the ray-cast ground truth."""
        if reply[:1] == bytes([KIND_ERROR]):
            self.errors.append(f"{kind} packet: error reply {bytes(reply[1:200])!r}")
            return False
        w, h = self.inputs.envmap_res
        header = struct.pack("<BI2H", KIND_ENVMAP_RESPONSE, sid, w, h)
        if len(reply) != self.reply_len or reply[:9] != header:
            self.errors.append(f"{kind} packet: bad reply header {bytes(reply[:9]).hex()}"
                               f" of {len(reply)} bytes")
            self.incorrect = True
            return False
        rgb = np.frombuffer(reply, dtype=np.uint8, offset=9).reshape(h, w, 3)
        if kind == "init" and np.abs(rgb.astype(np.int16) - self.ambient_u8).max() > 1:
            self.errors.append("SessionInit reply is not the uniform ambient color")
            self.incorrect = True
            return False
        if last:
            p = psnr(rgb, self.inputs.ground_truth)
            if not (p > self.ambient_psnr and p > PSNR_FLOOR_DB):
                self.errors.append(f"last map PSNR {p:.2f} dB, ambient-only "
                                   f"{self.ambient_psnr:.2f} dB, floor {PSNR_FLOOR_DB} dB")
                self.incorrect = True
                return False
            self.psnrs.append(p)
        return True


def end_to_end(client: Client, start: float, cpu_s: float) -> dict[str, float]:
    ok = [r for r in client.records if r["ok"]]
    ms = {kind: [(r["t1"] - r["t0"]) * 1e3 for r in ok if r["kind"] == kind]
          for kind in ("init", "near", "far")}
    for kind, values in ms.items():
        if not values:
            sys.exit(f"perfbench: no {kind} packet was answered correctly")
    keyframes = len(ms["near"]) + len(ms["far"])
    wall = max(r["t1"] for r in ok) - start
    return {
        "session_start_ms_p50": statistics.median(ms["init"]),
        "near_ms_p50": statistics.median(ms["near"]),
        "far_ms_p50": statistics.median(ms["far"]),
        "keyframes_per_s": keyframes / wall,
        "server_cpu_ms_per_keyframe": cpu_s * 1e3 / keyframes,
        "final_psnr_db": statistics.mean(client.psnrs),
    }


def main() -> None:
    if not os.path.isfile(os.path.join(SRC, "litfield", "service.py")):
        sys.exit("perfbench: src/litfield is missing; run from the root of a "
                 "litfield checkout")
    sys.path.insert(0, SRC)
    import inputs as inputs_mod

    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(inputs_mod.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)

    spec = inputs_mod.SPECS[args.workload]
    inputs = inputs_mod.load_inputs(args.workload, args.seed,
                                    os.path.join(SRC, "litfield"), CACHE)
    spans_path = os.path.join(CACHE, f"spans-{os.getpid()}.json")
    # Framed bytes of every round, built before timing starts; round i
    # carries session id i + 1.
    framed = [[(kind, sid, struct.pack("<I", len(p)) + inputs_mod.readdress(p, sid))
               for kind, p in inputs.packets]
              for sid in range(1, spec.rounds + 1)]

    servers = []
    try:
        launches = 1 if args.trace else SETUP_LAUNCHES
        for i in range(launches):
            servers.append(Server(bool(args.trace), spans_path))
            if i < launches - 1:
                servers[-1].stop()
        server = servers[-1]
        cpu0 = server.cpu_s()
        start = time.perf_counter()
        client = Client(inputs, framed, server.address, start + args.seconds)
        client.run()
        cpu_s = server.cpu_s() - cpu0
        peak_rss = server.peak_rss_mb()
    finally:
        for s in servers:
            s.stop()

    records = client.records
    for err in client.errors[:5]:
        print(err, file=sys.stderr)
    metrics = end_to_end(client, start, cpu_s)
    metrics["server_peak_rss_mb"] = peak_rss
    if args.trace:
        with open(spans_path) as f:
            spans = json.load(f)
        os.remove(spans_path)
        print("traced end-to-end: " + json.dumps(metrics))
        values = layers.per_layer([r for r in records if r["ok"]], spans)
        declared = bench["per_layer"]
    else:
        metrics["setup_s"] = statistics.median(s.setup_s for s in servers)
        values = metrics
        declared = bench["end_to_end"]
    print(json.dumps({
        "correct": not client.incorrect,
        "attempted": len(records),
        "failed": sum(not r["ok"] for r in records),
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in declared},
    }))


if __name__ == "__main__":
    main()
