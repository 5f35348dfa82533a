"""The host's speed, measured next to the program, to scale its times to a fixed reference.

The benchmark gets a few cores of a shared host whose speed drifts by a
third within a minute.  CPU time does not hide that drift: the same pass
over the same documents reads 2.1 s in one stretch and 4.2 s in the next.
So a fixed burst of work in the benchmark's own code (exact rational
inverses, like the program's linear algebra, from gen.py and never from
modclass) is timed between requests.  It slows with the host and never
with the program; over passes of 2-4 s its time followed the program's
with a correlation of 0.96-0.97, and dividing by it cut the passes'
coefficient of variation from 17% to 5%.  The speed changes within a pass
too, so each request is scaled by the bursts on either side of it: that cut
a request's variation from pass to pass from 21% to 10%, where the pass's
mean burst cut it to 13%.  Doubling the burst to about 30 ms cut it from
11% to 8% on groupoid-wide.

``factor(bursts)`` turns the CPU seconds of the stretch those bursts
bracket into reference seconds: seconds on a host where one burst takes
``REF_BURST_S``.
"""

from __future__ import annotations

import gc
import random
import time

import gen

REF_BURST_S = 0.030  # CPU seconds of one burst on the reference host
_rng = random.Random(150206253)
_MATRICES = [gen.rand_matrix(_rng, 9, 9) for _ in range(6)]


def burst() -> float:
    """CPU seconds of one burst.  The collector is off meanwhile, so that the
    size of the program's heap cannot reach the burst's time."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.process_time()
        for m in _MATRICES:
            gen.inverse(m)
        return time.process_time() - start
    finally:
        if enabled:
            gc.enable()


def factor(bursts) -> float:
    """Reference seconds per CPU second, over the stretch the bursts bracket."""
    return REF_BURST_S * len(bursts) / sum(bursts)
