#!/usr/bin/env python3
"""Digests of the replies `litfield serve` gives to one benchmark workload.

Loads the packets of a workload and seed through perfbench/inputs.py
(cached in .bench_cache/, rendered first if missing), plays them in order
to an in-process server over loopback, one connection, and prints one
JSON line per variant:

- as-sent: the packets as the benchmark sends them;
- low-confidence: every other near keyframe, starting with the first,
  with all its confidence bytes 0, so it inserts no view.

Each line holds the variant, the reply count, the SHA-256 of the packets
sent and the SHA-256 of every reply frame. Two builds answer alike exactly
when they print the same lines. Exits nonzero on an error reply.

The cache is keyed on a digest of the program's sources, so every source
edit renders the inputs again (36 MB per `high-orbit` seed). Before
loading, this tool deletes the cached entries of the same workload and
seed rendered from other sources.

    python3 tools/reply_digest.py --workload high-orbit --seed 1

Run from anywhere; the program's sources are taken from this checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import re
import shutil
import socket
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [os.path.join(ROOT, "src"), os.path.join(ROOT, "perfbench")]

# litfield before inputs, which loads numpy: importing litfield first sets
# the BLAS thread policy that `litfield serve` runs with
from litfield import protocol  # noqa: E402
from litfield.service import Server, ServerConfig, read_frame, write_frame  # noqa: E402
import inputs as inputs_mod  # noqa: E402


def low_confidence(packets: list[tuple[str, bytes]]) -> list[tuple[str, bytes]]:
    """packets with the confidence plane, the last w*h bytes of a near
    keyframe, zeroed in every other near keyframe from the first."""
    out = []
    near = 0
    for kind, payload in packets:
        if kind == "near":
            if near % 2 == 0:
                k = protocol.decode_packet(payload).intrinsics
                payload = payload[:-k.width * k.height] + bytes(k.width * k.height)
            near += 1
        out.append((kind, payload))
    return out


def play(packets: list[tuple[str, bytes]]) -> list[str]:
    """The SHA-256 of every reply frame, in order, from a fresh server."""
    digests = []
    with Server(ServerConfig()) as srv, \
            socket.create_connection(srv.address, timeout=600.0) as sock:
        for _, payload in packets:
            write_frame(sock, payload)
            reply = read_frame(sock)
            if reply is None:
                sys.exit("reply_digest: the server closed the connection")
            packet = protocol.decode_packet(reply)
            if isinstance(packet, protocol.ErrorPacket):
                sys.exit(f"reply_digest: error reply: {packet.message}")
            digests.append(hashlib.sha256(reply).hexdigest())
    return digests


def prune_cache(cache_dir: str, workload: str, seed: int, src_dir: str) -> None:
    """Delete the cache entries <workload>-<seed>-<digest> of cache_dir
    whose digest is not that of the sources in src_dir."""
    if not os.path.isdir(cache_dir):
        return
    current = inputs_mod._source_digest(src_dir)
    entry = re.compile(re.escape(f"{workload}-{seed}-") + "([0-9a-f]{16})")
    for name in os.listdir(cache_dir):
        match = entry.fullmatch(name)
        if match and match.group(1) != current:
            shutil.rmtree(os.path.join(cache_dir, name))


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=list(inputs_mod.SPECS))
    ap.add_argument("--seed", type=int, required=True)
    args = ap.parse_args()
    src_dir = os.path.join(ROOT, "src", "litfield")
    cache_dir = os.path.join(ROOT, ".bench_cache")
    prune_cache(cache_dir, args.workload, args.seed, src_dir)
    packets = inputs_mod.load_inputs(args.workload, args.seed, src_dir, cache_dir).packets
    for variant, sent in (("as-sent", packets), ("low-confidence", low_confidence(packets))):
        sent_digest = hashlib.sha256()
        for _, payload in sent:
            sent_digest.update(payload)
        replies = play(sent)
        print(json.dumps({"variant": variant, "replies": len(replies),
                          "packets_sha256": sent_digest.hexdigest(),
                          "replies_sha256": replies}), flush=True)


if __name__ == "__main__":
    main()
