"""Reference work that reads the host's speed beside each timed part.

The host this benchmark runs on is a share of a machine: its speed
swings by up to ~1.7x over seconds to minutes, and one CPU's swings do
not follow the other's.  Each worker reads a :class:`SpeedProbe` before
the first timed part and after every part, on the same CPU, and
``run.py`` divides each part's time by the mean of the two readings
around it.  The reference is fixed benchmark code that imports nothing
from ``repro``, so a change to the program moves the normalised time and
never the reference.

A reading times three kinds of work, each about a third of it: an
interpreter loop, deep copies of nested dicts and lists (like plan-cache
manifests) and numpy gathers and scatters (like hash-table batches).
Any one kind alone tracked some workload worse than the three together.
"""

from __future__ import annotations

import copy
from time import perf_counter

import numpy as np

#: a reading's median on the host the bounds were set on (2-vCPU Intel
#: Xeon VM, CPython 3.11.7, numpy 2.4.6); normalised times are stated in
#: seconds at this speed.
NOMINAL_S = 0.08

#: a few MB in all, so the probe barely adds to ``peak_rss_mb``.
_ARRAY_SIZE = 1 << 17


class SpeedProbe:
    """Fixed reference work; :meth:`read` times one round of it."""

    def __init__(self) -> None:
        rng = np.random.default_rng(12345)
        self.keys = rng.integers(0, _ARRAY_SIZE, size=_ARRAY_SIZE)
        self.values = rng.random(_ARRAY_SIZE)
        self.scattered = np.zeros(_ARRAY_SIZE)
        self.tree = {
            f"run-{i}": {
                "phases": [
                    {"label": f"p{j}", "seconds": j * 0.5, "bytes": j << 20,
                     "occupancy": {"link": 0.5, "gpu": 0.25}}
                    for j in range(4)
                ],
                "meta": {"tenant": "t", "cache_hit": bool(i % 2)},
            }
            for i in range(40)
        }
        self.read()  # warm-up

    def read(self) -> float:
        """Seconds one round of the reference work takes now."""
        start = perf_counter()
        total = 0
        for i in range(300_000):
            total += i * i % 7
        for _ in range(20):
            copy.deepcopy(self.tree)
        for _ in range(20):
            self.scattered[self.keys] = self.values[self.keys]
        return perf_counter() - start
