"""Host-speed probe: a fixed piece of interpreter work, timed.

The benchmark runs on shared hosts whose speed drifts: busy neighbours
slow every instruction, by up to 1.7x, for seconds to minutes at a time.
The fastest of a run's repeats does not see past a slow spell that covers
the whole run, so each sample also times this fixed work in blocks
placed all through it (after set-up, between requests, at the end), and
its times are reported at the probe's nominal speed::

    reported = measured * PROBE_NOMINAL_S / median(probe times of the sample)

One factor per sample: its dozens to hundreds of probes average out the
sub-second noise that a single block next to a request would carry into
it, and take out the drift from one sample to the next. The median
matches a request that lasts a tenth of a second or more, which the
host's sub-second spells slow in part. A sub-millisecond request
repeated many times is another matter: its fastest repeat runs between
spells, a floor, so it is matched by the probe's floor, its tenth
percentile, against ``FLOOR_NOMINAL_S``. The probe runs on the sample's
main thread, between requests and never during one. It is pure Python
and does not touch the program, so a change to the program moves the
reported time exactly as it moves the measured one. The probe must
never change: that would shift every time metric.
"""

from __future__ import annotations

import statistics
import time
from typing import List

#: Median and tenth-percentile probe time (s) on a quiet 2-vCPU
#: Firecracker VM (x86-64, CPython 3): reported times read as seconds on
#: such a host.
PROBE_NOMINAL_S = 0.0014
FLOOR_NOMINAL_S = 0.0012

#: Probes in a block between two requests, and in the blocks that open
#: and close a pass.
BLOCK = 15
BRACKET = 30


def _work() -> int:
    acc = 0
    table = {}
    for i in range(12_000):
        acc += (i * i) % 7
        table[i & 255] = acc
    return acc + len(table)


def block(probes: int = BLOCK) -> List[float]:
    """Time the probe ``probes`` times; seconds each."""
    times = []
    for _ in range(probes):
        start = time.perf_counter()
        _work()
        times.append(time.perf_counter() - start)
    return times


def scale(times: List[float], floor: bool = False) -> float:
    """Factor that turns a time measured along with ``times`` into nominal.

    With ``floor``, for the fastest repeat of a sub-millisecond request.
    """
    if floor:
        return FLOOR_NOMINAL_S / statistics.quantiles(times, n=10)[0]
    return PROBE_NOMINAL_S / statistics.median(times)
