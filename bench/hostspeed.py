"""Host-speed probe for expressing CPU time in reference seconds.

The benchmark's reference machine is a shared 2-vCPU host whose speed for
interpreted Python swings by up to 2x within seconds as other tenants come
and go. `HostProbe` times a fixed piece of stdlib-only work (dicts, JSON,
SHA-256, a regex scan, a keyed sort: the operations medsum's hot path is
made of). Probing just before and just after a measured piece of work and
scaling its wall time by `PROBE_REF_S / mean probe time` gives the time the
work would have taken with the host at reference speed. No change to medsum
can move the probe, so ratios between commits survive the scaling while the
host's swings cancel.
"""

from __future__ import annotations

import gc
import hashlib
import json
import random
import re
import time

# The probe's time at reference speed: about its median time on the
# reference machine over the runs in baseline.json, so that a rate in
# reference seconds is the program's rate at that host's median speed.
# Only a unit: any constant keeps the ratios between commits.
PROBE_REF_S = 0.013

_PATTERN = re.compile(r"\b(abc|bad|cafe|jig)\w*")


class HostProbe:
    def __init__(self) -> None:
        rng = random.Random(1)
        self.words = [
            "".join(rng.choice("abcdefghij") for _ in range(rng.randint(3, 9))) for _ in range(600)
        ]
        self.text = " ".join(self.words)

    def __call__(self) -> float:
        """Seconds the fixed work took now. The collector is paused so that
        garbage the measured program left behind is not charged here."""
        words = self.words
        enabled = gc.isenabled()
        gc.disable()
        try:
            start = time.perf_counter()
            for _ in range(3):
                table = {f"{w}{i}": {"k": w, "n": i, "l": words[i % 50: i % 50 + 5]}
                         for i, w in enumerate(words)}
                json.loads(json.dumps(table, sort_keys=True))
                for w in words[:300]:
                    hashlib.sha256((w * 20).encode()).hexdigest()
                _PATTERN.findall(self.text)
                sorted(words, key=lambda x: (len(x), x))
            return time.perf_counter() - start
        finally:
            if enabled:
                gc.enable()


class ReferenceClock:
    """Times calls between probes and converts them to reference seconds."""

    def __init__(self) -> None:
        self.probe = HostProbe()
        self.last = self.probe()

    def run(self, fn):
        """Run fn; return (result, wall seconds, scale to reference seconds)."""
        start = time.perf_counter()
        result = fn()
        wall = time.perf_counter() - start
        now = self.probe()
        scale = PROBE_REF_S / ((self.last + now) / 2)
        self.last = now
        return result, wall, scale


class WallClock:
    """ReferenceClock's interface for work timed in wall seconds."""

    def run(self, fn):
        start = time.perf_counter()
        result = fn()
        return result, time.perf_counter() - start, 1.0
