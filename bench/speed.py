"""Wall time scaled to a reference interpreter speed.

On a shared 2-vCPU virtual machine (Xeon at 2.0 GHz) the same pure-Python
loop alternates between speeds up to 1.7x apart within seconds, which
would swamp any change worth measuring. So the benchmark runs a small
fixed pure-Python probe between operations and scales each operation's
wall time by REFERENCE_PROBE_S / (mean probe time around it).
A scaled second is the time the operation would take at the speed at which
the probe runs in REFERENCE_PROBE_S. The probe is benchmark code only; a
change to redlab cannot move it.

This module imports nothing but the standard library, so it can time the
redlab import itself.
"""

from __future__ import annotations

import gc
import time

# Probe time at the reference speed; about the slow state of a 2.0 GHz
# Xeon vCPU under Python 3.11, so scaled and wall seconds read alike there.
REFERENCE_PROBE_S = 0.0011


def _probe_once() -> float:
    start = time.perf_counter()
    adj: dict[int, list[int]] = {}
    for i in range(1200):
        adj.setdefault(i % 127, []).append((i * 7919) % 131)
    seen: set[int] = set()
    stack = [0]
    while stack:
        v = stack.pop()
        if v not in seen:
            seen.add(v)
            stack.extend(adj.get(v, ()))
    edges = sorted((b, a) for a, bs in adj.items() for b in bs)
    "\n".join(f"e {a} {b}" for a, b in edges)
    return time.perf_counter() - start


def probe() -> float:
    """Fastest of three probe runs, with the cyclic collector held off so
    garbage left by the measured code is not collected inside the probe."""
    gc.disable()
    try:
        return min(_probe_once() for _ in range(3))
    finally:
        gc.enable()


class Clock:
    """Scales consecutive wall-time laps by the probe time around each."""

    def __init__(self):
        self.last = probe()

    def lap(self, wall_s: float) -> float:
        now = probe()
        scaled = wall_s * REFERENCE_PROBE_S / ((self.last + now) / 2)
        self.last = now
        return scaled
