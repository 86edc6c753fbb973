"""Host-speed normalisation for the untraced run's timings.

On a shared host the processor's speed drifts by tens of percent over
seconds and minutes, whatever the program does.  A SIGALRM timer runs a
fixed pure-Python chunk (the README product over fixed elements, from
reference.py, so it never changes with the program) every `interval_s`
while the workload runs, and records how long each chunk took.  A round's
timings are then scaled by REF_CHUNK_S times the round's mean chunk speed
(1 / chunk time): a round at the reference speed keeps its time, one on a
host running at half speed has it halved.  The time the handler itself
takes is subtracted from every timing it falls into.
"""

import signal
import statistics
import time

import reference as ref
from workloads import SPEC

CONF = SPEC["host_speed"]
REF_CHUNK_S = CONF["chunk_ref_s"]
_ELEMS = [(i, j, b) for i in range(4) for j in range(4) for b in range(2)]
_XS, _ZS = _ELEMS[:CONF["chunk_x"]], _ELEMS[:6]


def chunk():
    """Run the fixed calibration chunk once; return its seconds."""
    t0 = time.perf_counter()
    for x in _XS:
        for y in _ELEMS:
            for z in _ZS:
                if ref.product(ref.product(x, y), z) != ref.product(x, ref.product(y, z)):
                    raise AssertionError("README product is not associative")
    return time.perf_counter() - t0


def boundary_scale(n=5):
    """Scale factor from n chunks run now; for timings too short to sample."""
    return REF_CHUNK_S / statistics.median(chunk() for _ in range(n))


class Sampler:
    """Samples chunk speed on a timer; `paused` is the handler's total time."""

    def __init__(self):
        self.speeds = []
        self.paused = 0.0
        self._busy = False
        self._old = None

    def _handler(self, signum, frame):
        if self._busy:
            return
        self._busy = True
        t0 = time.perf_counter()
        self.speeds.append(1.0 / chunk())
        self.paused += time.perf_counter() - t0
        self._busy = False

    def __enter__(self):
        self._old = signal.signal(signal.SIGALRM, self._handler)
        signal.setitimer(signal.ITIMER_REAL, CONF["interval_s"], CONF["interval_s"])
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, self._old)

    def clock(self):
        """perf_counter without the time spent sampling."""
        return time.perf_counter() - self.paused

    def mark(self):
        return len(self.speeds)

    def scale_since(self, mark):
        """Scale factor for the timings made since `mark`; a span too short
        to hold a sample is scaled by chunks run now."""
        speeds = self.speeds[mark:]
        if not speeds:
            return boundary_scale()
        return REF_CHUNK_S * statistics.fmean(speeds)
