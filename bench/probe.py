"""Host-speed probe: a fixed pure-Python loop timed next to every measurement.

The machines this benchmark runs on are shared, and their speed drifts by
tens of percent within seconds (see NOTES.md, "Noise").  The probe runs in
the measuring process right before and right after each timed region.  A
measurement is reported as ``raw * PROBE_REFERENCE_S / mean(before, after)``:
the time it would have taken on a host where the probe takes exactly
``PROBE_REFERENCE_S``.  The probe calls nothing in chsurf.
"""

from __future__ import annotations

import math
import time

PROBE_STEPS = 10_000
PROBE_REFERENCE_S = 0.002


def speed_probe() -> float:
    """Seconds taken by the fixed loop now."""
    start = time.perf_counter()
    total = 0.0
    slots = {}
    for k in range(1, PROBE_STEPS):
        total += math.sqrt(k) * 1.0000001
        slots[k & 255] = total
    return time.perf_counter() - start


def at_reference_speed(raw_s: float, probe_before_s: float, probe_after_s: float) -> float:
    """``raw_s`` rescaled to the reference host speed."""
    return raw_s * PROBE_REFERENCE_S * 2 / (probe_before_s + probe_after_s)
