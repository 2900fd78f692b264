"""Print the seconds this fresh interpreter takes to import chsurf.cli.

Prints ``raw probe_before probe_after`` on one line; ``run.py`` starts it
with ``PYTHONPATH=src`` and rescales the time with ``probe.at_reference_speed``.
"""

import time

from probe import speed_probe

before = speed_probe()
start = time.perf_counter()
import chsurf.cli  # noqa: E402,F401

raw = time.perf_counter() - start
after = speed_probe()
print(raw, before, after)
