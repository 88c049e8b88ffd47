"""Spans around the package's public calls, recorded from outside.

``Tracer.install`` rebinds each traced function in every ``gridmcts``
module that holds it under its own name, so the program's own calls
(``coordinator.run_episode`` calling ``plan_move`` and ``merge_states``,
``mcts.plan_move`` calling ``select``, ``backpropagate`` and, through
``_distance_shaping``, ``goal_walled_distances``) go through a wrapper
that records one span. No file under ``src/`` is edited; ``uninstall``
puts the originals back.

A span is (name, start, end, parent span, episode id), kept in flat
arrays in memory and written out by ``write`` once the run is over.
"""
from __future__ import annotations

import functools
import time
from array import array

# span names: "<module that defines the function>.<function>"
NAMES = (
    "coordinator.run_episode",
    "coordinator.merge_states",
    "mcts.plan_move",
    "mcts.select",
    "mcts.backpropagate",
    "grid.goal_walled_distances",
    "oracle.exact_joint_search",
)


class Tracer:
    """In-memory span recorder plus the merge counters."""

    def __init__(self, modules):
        self.modules = modules
        self.name = array("b")
        self.parent = array("q")
        self.episode_of = array("q")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.episode = -1
        self.proposals = 0
        self.forced_stays = 0
        self._saved = []

    def _wrap(self, name_id, fn):
        names, parents, eps = self.name, self.parent, self.episode_of
        starts, ends, stack = self.start, self.end, self.stack
        clock = time.perf_counter_ns
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            eps.append(tracer.episode)
            ends.append(0)
            stack.append(i)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()

        return traced

    def _wrap_merge(self, fn):
        inner = self._wrap(NAMES.index("coordinator.merge_states"), fn)
        stay = self.modules["grid"].Move.STAY
        tracer = self

        @functools.wraps(fn)
        def merge(state, proposals):
            out = inner(state, proposals)
            # a forced stay: a live agent proposed a step and did not move
            for i, m in enumerate(proposals):
                if not state.captured[i] and m != stay:
                    tracer.proposals += 1
                    if out.agent_pos[i] == state.agent_pos[i]:
                        tracer.forced_stays += 1
            return out

        return merge

    def install(self):
        for name_id, full in enumerate(NAMES):
            home, attr = full.split(".")
            original = getattr(self.modules[home], attr)
            if full == "coordinator.merge_states":
                wrapper = self._wrap_merge(original)
            else:
                wrapper = self._wrap(name_id, original)
            for mod in self.modules.values():
                if getattr(mod, attr, None) is original:
                    self._saved.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def uninstall(self):
        for mod, attr, original in reversed(self._saved):
            setattr(mod, attr, original)
        self._saved.clear()

    def layer_totals(self):
        """Per span name: (calls, total ns, self ns).

        Self time is a span's duration minus the durations of its
        direct children.
        """
        count = len(self.name)
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * count
        for i, p in enumerate(self.parent):
            if p >= 0:
                child[p] += dur[i]
        calls = [0] * len(NAMES)
        total = [0] * len(NAMES)
        own = [0] * len(NAMES)
        for i, nid in enumerate(self.name):
            calls[nid] += 1
            total[nid] += dur[i]
            own[nid] += dur[i] - child[i]
        return {NAMES[k]: (calls[k], total[k], own[k]) for k in range(len(NAMES))}

    def write(self, path):
        """Write the spans as tab-separated text, one line per span."""
        with open(path, "w", encoding="ascii") as f:
            f.write("span\tparent\tepisode\tname\tstart_ns\tend_ns\n")
            rows = zip(self.parent, self.episode_of, self.name, self.start, self.end)
            for i, (p, ep, nid, s, e) in enumerate(rows):
                f.write(f"{i}\t{p}\t{ep}\t{NAMES[nid]}\t{s}\t{e}\n")
