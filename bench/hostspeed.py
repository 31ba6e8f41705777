"""Host-speed probe: how fast the machine runs engine-like Python right now.

On a shared machine the speed of pure-Python code moves by up to 2x from
one second to the next and from one hour to the next, as other tenants
come and go, and the engine's op latencies move with it.  ``probe()``
times a fixed piece of pure-Python work shaped like the engine's inner
loop -- the product of two sparse polynomials held as a dict keyed by
(exponents, odd mask), with ``Fraction`` coefficients -- and calls no
engine code, so no change to the engine changes the work it does.

The worker runs one probe just before each op, untimed for the op.  The
host factor of an op is the mean of the probes of the ``2 * HALF_WINDOW +
1`` ops around it, over ``PROBE_REF_S``: 1.0 when the host runs at the
reference machine's speed, 1.7 when it runs 1.7 times slower.  A long op
lives through many of the host's short spells, so its window also takes
in every op that started within one of its own durations before or after
it.  Each latency is divided by its op's factor, so that the timing
metrics read as on the reference machine.
"""

from __future__ import annotations

import gc
import statistics
import time
from fractions import Fraction

# the probe's time on the reference machine (see BASELINE.md) in its
# fastest spells; any fixed value would do, it only sets the scale
PROBE_REF_S = 150e-6
HALF_WINDOW = 3

# (even exponents, odd mask, coefficient)
_P = (((0, 1), 0b000, Fraction(1, 2)), ((1, 0), 0b001, Fraction(-3, 4)),
      ((2, 1), 0b010, Fraction(5, 3)), ((0, 0), 0b011, Fraction(-2)),
      ((1, 1), 0b100, Fraction(7, 6)), ((3, 0), 0b101, Fraction(-1, 3)),
      ((0, 2), 0b110, Fraction(4, 5)), ((1, 2), 0b111, Fraction(3)))
_Q = (((1, 0), 0b000, Fraction(-5, 2)), ((0, 0), 0b100, Fraction(2, 3)),
      ((0, 1), 0b001, Fraction(-7, 4)), ((2, 0), 0b010, Fraction(1, 6)),
      ((1, 1), 0b000, Fraction(-4)), ((0, 2), 0b011, Fraction(3, 5)),
      ((2, 2), 0b100, Fraction(-1, 2)), ((3, 1), 0b001, Fraction(5)))


def probe() -> float:
    """Seconds taken by one fixed sparse product with Fraction coefficients.
    The garbage collector is off meanwhile, so that collecting the engine's
    garbage is charged to the engine's next op, as it would be without the
    probe, and never to the probe."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        out = {}
        for ea, oa, ca in _P:
            for eb, ob, cb in _Q:
                if oa & ob:
                    continue
                key = ((ea[0] + eb[0], ea[1] + eb[1]), oa | ob)
                out[key] = out.get(key, 0) + ca * cb
        {k: c for k, c in out.items() if c}
        return time.perf_counter() - t0
    finally:
        gc.enable()


def factors(probes: list[float], starts: list[float],
            lat: list[float]) -> list[float]:
    """The host factor of each op of a pass, from the probe run just before
    each op, the ops' start times and their latencies, in seconds."""
    n = len(probes)
    out = []
    for i in range(n):
        lo, hi = max(0, i - HALF_WINDOW), min(n, i + HALF_WINDOW + 1)
        while lo and starts[lo - 1] >= starts[i] - lat[i]:
            lo -= 1
        while hi < n and starts[hi] <= starts[i] + 2 * lat[i]:
            hi += 1
        out.append(statistics.fmean(probes[lo:hi]) / PROBE_REF_S)
    return out


def factor_now() -> float:
    """The host factor from 25 probes taken now."""
    return statistics.median(probe() for _ in range(25)) / PROBE_REF_S
