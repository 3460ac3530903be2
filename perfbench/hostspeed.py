"""Host-speed calibration: scale wall times to a host of fixed speed.

On a shared VM the interpreter's speed drifts by a third or more within
minutes, and every pure-Python workload slows and recovers together.  A pass
therefore times a fixed reference computation every `EVERY_S` seconds,
between problems and never inside a timed region, and divides each problem's
wall time by the reference time around it.  Scaled times read in seconds on a
host where the reference takes `REF_S`.

The reference is sparse polynomial multiplication over F_5 in plain dicts
keyed by exponent tuples, the same mix of tuple hashing, dict updates and
small-integer arithmetic as qfsplit's polynomials.  It uses only the
standard library and nothing of qfsplit, so no change to the program moves it.
The cyclic garbage collector is off while it runs: a collection there would
scan the program's live objects, and the reference would slow as the
program's heap grows.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

REF_S = 0.010  # nominal reference time: scaled seconds are seconds on such a host
EVERY_S = 0.1  # wall time between samples during a pass
_P = 5
_REPEATS = 30


def _operand(rng: random.Random) -> dict[tuple[int, int, int], int]:
    return {(rng.randrange(5), rng.randrange(5), rng.randrange(5)): rng.randrange(1, _P) for _ in range(40)}


_RNG = random.Random(7)
_A, _B = _operand(_RNG), _operand(_RNG)


def reference() -> int:
    """The fixed computation; returns the size of the last product."""
    for _ in range(_REPEATS):
        out: dict[tuple[int, int, int], int] = {}
        for ea, ca in _A.items():
            for eb, cb in _B.items():
                e = (ea[0] + eb[0], ea[1] + eb[1], ea[2] + eb[2])
                c = (out.get(e, 0) + ca * cb) % _P
                if c:
                    out[e] = c
                else:
                    out.pop(e, None)
    return len(out)


class HostSpeed:
    """Reference timings taken during one pass, in order."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self._last = float("-inf")

    def sample(self) -> int:
        """Time the reference once; returns the sample's index."""
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            reference()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.samples.append(t1 - t0)
        self._last = t1
        return len(self.samples) - 1

    def due(self) -> int:
        """Sample if `EVERY_S` has passed since the last sample; returns the
        index of the latest sample, which opens the segment that follows."""
        if time.perf_counter() - self._last >= EVERY_S:
            return self.sample()
        return len(self.samples) - 1

    def segment_scale(self, k: int) -> float:
        """Scale for the work between samples k and k+1: `REF_S` over their
        mean.  The pass takes a closing sample, so k+1 exists."""
        return REF_S / statistics.fmean(self.samples[k : k + 2])

    def steady_scale(self, count: int = 3) -> float:
        """Scale from `count` samples in a row, their median; for set-up,
        which happens before the pass samples."""
        return REF_S / statistics.median(self.samples[self.sample()] for _ in range(count))
