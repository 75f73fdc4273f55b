"""A fixed reference loop that reads how fast the host runs Python right now.

Some hosts run their virtual CPUs at speeds up to about 1.7x apart and
switch between them every few seconds, at times staying slow for minutes.
The guest cannot see it: CPU time slows with wall time and no steal time is
reported.  The benchmark times this loop next to the work it measures and
rescales each time it reports to the speed at which the loop takes
``REF_S`` seconds.  The loop mixes what the measured code does most (tuple
keys, dict and set updates, small frozensets, a sort), because a bare
integer loop slows less than that code in the host's slow spells.
"""

from __future__ import annotations

import time

#: The loop's time at the reference speed, by definition.
REF_S = 1e-3


def _loop() -> int:
    counts: dict[tuple, int] = {}
    seen = set()
    for i in range(800):
        key = (i & 7, i >> 2, i)
        counts[key] = counts.get(key[:2], 0) + 1
        seen.add(frozenset((i & 15, i >> 4)))
    return len(sorted(counts.items())) + len(seen)


def reference() -> float:
    """The loop's best time of three, in seconds."""
    best = float("inf")
    for _ in range(3):
        start = time.perf_counter()
        _loop()
        best = min(best, time.perf_counter() - start)
    return best
