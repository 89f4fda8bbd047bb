"""Machine-speed probe that takes co-tenant noise out of the reported times.

On a shared virtual machine the speed of a vCPU drifts by up to ~1.8x in
phases of tens of seconds, longer than a run, while CPU time tracks wall
time.  Medians over passes cannot remove that, so every reported time is
normalised: while the timed code runs, a wall-clock interval timer
interrupts it every ``INTERVAL_S`` and the handler times two fixed
pure-Python snippets, a cache-resident tuple loop and a cache-missing
pointer chase.  A measured time ``t`` is reported as

    t * (REF_TUPLE_S / median(tuple times)) ** 0.75
      * (REF_CHASE_S / median(chase times)) ** 0.25

that is, the seconds it would have taken at a speed where the snippets take
their reference durations.  The weights fit the measured sensitivity of the
three workloads: the tuple loop alone over-corrects ``tower_plain`` and
``cube_3`` (their time moves with about 0.7 of its power), the pointer chase
alone over-corrects everything the other way.  The handler's own time is
taken out of ``t``.  Raw wall times are reported beside the normalised ones.
"""

from __future__ import annotations

import random
import signal
import statistics
import time

INTERVAL_S = 0.04
REF_TUPLE_S = 0.0005  # reference durations of the two snippets
REF_CHASE_S = 0.0005
TUPLE_WEIGHT = 0.75

_PERM = tuple((i * 7 + 3) % 61 for i in range(61))


def tuple_snippet():
    """Tuple composition and dict stores on a few cache lines."""
    seen = {}
    g = tuple(range(61))
    for i in range(120):
        g = tuple(_PERM[x] for x in g)
        seen[g] = i
    return len(seen)


def _single_cycle(n, seed):
    order = list(range(n))
    random.Random(seed).shuffle(order)
    succ = [0] * n
    for i in range(n):
        succ[order[i]] = order[(i + 1) % n]
    return succ


_CHAIN = _single_cycle(1 << 17, 1)


def chase_snippet():
    """Pointer chase round one random cycle through 2^17 list slots (a few
    MB with the int objects): lookups that miss the caches."""
    seen = {}
    x = 0
    for i in range(3000):
        x = _CHAIN[x]
        seen[x] = i
    return len(seen)


def _time(snippet):
    t0 = time.perf_counter()
    snippet()
    return time.perf_counter() - t0


class SpeedProbe:
    """Samples both snippets between ``start`` and ``stop`` (pairs nest)."""

    def __init__(self):
        self.tuple_s = []
        self.chase_s = []
        self.spent = 0.0  # seconds spent in the handler
        self.depth = 0
        signal.signal(signal.SIGALRM, self._sample)

    def _sample(self, signum, frame):
        t0 = time.perf_counter()
        self.tuple_s.append(_time(tuple_snippet))
        self.chase_s.append(_time(chase_snippet))
        self.spent += time.perf_counter() - t0

    def start(self):
        self.depth += 1
        if self.depth == 1:
            signal.setitimer(signal.ITIMER_REAL, INTERVAL_S, INTERVAL_S)

    def stop(self):
        self.depth -= 1
        if self.depth == 0:
            signal.setitimer(signal.ITIMER_REAL, 0)

    def clear(self):
        self.tuple_s.clear()
        self.chase_s.clear()

    def normalise(self, wall_s):
        """``wall_s`` at the reference speed, from the samples taken since
        ``clear``; with fewer than five, both snippets are timed again now."""
        tuple_s, chase_s = list(self.tuple_s), list(self.chase_s)
        while len(tuple_s) < 5:
            tuple_s.append(_time(tuple_snippet))
            chase_s.append(_time(chase_snippet))
        return (wall_s * (REF_TUPLE_S / statistics.median(tuple_s)) ** TUPLE_WEIGHT
                * (REF_CHASE_S / statistics.median(chase_s)) ** (1 - TUPLE_WEIGHT))
