"""Host speed probes, so that timings do not follow the other tenants.

On a shared host the same fixed work drifts by 20 to 40 % within a run
and between runs (a 30-ms pure-Python loop took 26 to 39 ms from one
second to the next), beyond the bounds in ``BENCHMARK.json``. A *probe*
times a fixed pure-Python tree walk in the benchmark's own code (dicts,
small objects, ``random``, ``math``, as the search does), with the
garbage collector off so that the program's heap does not change its
cost. A *mark* of one or more probes is taken at the start of every
round, after every episode and, through ``install``, before every
``merge_states`` call of an episode, outside the program's timing of
``plan_move``; their time is taken out of the round.

A timing is reported at the reference speed: multiplied by
``REFERENCE_PROBE_S`` over the mean probe time of the same round, each
mark standing for the program time around it (trapezoid rule); a plan
call by the marks within ``WINDOW_S`` of its step. A change to the
program leaves the probes as they are, so it shows in full; a slower
host shows much less (README, "Host speed").
"""
from __future__ import annotations

import gc
import math
import time
from random import Random

# the probe's median time on the reference box (2 vCPUs at 2.0 GHz,
# CPython 3.11.7); it only sets the scale of the reported figures
REFERENCE_PROBE_S = 1.6e-3
# one probe per this much program time since the last mark, at most
# MAX_PROBES at one mark: about 1.6 % of the run
PROBE_EVERY_S = 0.1
MAX_PROBES = 10
# a step's plan calls are scaled by the marks within this much time of it
WINDOW_S = 1.0


class _Node:
    __slots__ = ("visits", "total", "children")

    def __init__(self):
        self.visits = 0
        self.total = 0.0
        self.children = {}


def reference_work(descents=150, depth=6, width=5):
    """A fixed tree walk: descend by random keys, expand, back up a value."""
    rng = Random(7)
    root = _Node()
    acc = 0.0
    for _ in range(descents):
        node = root
        path = [node]
        for d in range(depth):
            key = (rng.randrange(width), d)
            child = node.children.get(key)
            if child is None:
                child = node.children[key] = _Node()
            node = child
            path.append(node)
        value = rng.random()
        for n in path:
            n.visits += 1
            n.total += value
        acc += math.sqrt(math.log(root.visits + 1) / node.visits)
    return acc


class Speed:
    """Marks taken during a run, in time order.

    A mark is a few probes back to back: its start, its end and the mean
    time of one probe. The longer the program ran since the last mark,
    the more probes the next one takes.
    """

    def __init__(self):
        self.start = []
        self.end = []
        self.probe_s = []
        self._saved = None

    def probe(self):
        gap = time.perf_counter() - self.end[-1] if self.end else 0.0
        n = min(MAX_PROBES, max(1, int(gap / PROBE_EVERY_S)))
        enabled = gc.isenabled()
        gc.disable()
        try:
            t0 = time.perf_counter()
            for _ in range(n):
                reference_work()
            t1 = time.perf_counter()
        finally:
            if enabled:
                gc.enable()
        self.start.append(t0)
        self.end.append(t1)
        self.probe_s.append((t1 - t0) / n)

    def install(self, coordinator):
        """Probe before each merge step of ``coordinator.run_episode``."""
        merge = coordinator.merge_states

        def probed(*args, **kwargs):
            self.probe()
            return merge(*args, **kwargs)

        self._saved = (coordinator, merge)
        coordinator.merge_states = probed

    def uninstall(self):
        if self._saved is not None:
            coordinator, merge = self._saved
            coordinator.merge_states = merge
            self._saved = None

    def mark(self):
        return len(self.start)

    def probe_seconds(self, first, last):
        """Time spent in marks first..last-1."""
        return sum(e - s for s, e in zip(self.start[first:last], self.end[first:last]))

    def scale(self, first, last):
        """Reference over measured probe time for marks first..last-1.

        Each gap of program time between two marks is weighted by the
        mean of the probe times on either side.
        """
        if last - first < 2:
            raise RuntimeError("a round needs at least two speed marks")
        num = den = 0.0
        for i in range(first, last - 1):
            gap = self.start[i + 1] - self.end[i]
            num += gap * (self.probe_s[i] + self.probe_s[i + 1]) / 2
            den += gap
        return REFERENCE_PROBE_S / (num / den)

    def local_scale(self, i, first, last, window=WINDOW_S):
        """Scale of the program time between marks i and i + 1.

        Takes the marks first..last-1 that lie within ``window`` seconds
        of that time, so that short gaps are not scaled by one probe.
        """
        a, b = i, i + 1
        while a > first and self.start[i] - self.end[a - 1] < window:
            a -= 1
        while b < last - 1 and self.start[b + 1] - self.end[i + 1] < window:
            b += 1
        return self.scale(a, b + 1)
