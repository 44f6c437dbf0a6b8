"""Host-speed normalization of the benchmark's timings.

On a shared 2-core host the speed of the same pure-Python loop swings
by up to 2x within minutes, so one timing says as much about the host
at that moment as about the analyzer.  Every one-shot op is therefore
bracketed by a fixed reference computation that uses no analyzer code,
and its seconds are rescaled to a host on which the reference takes
``REFERENCE_S``::

    scaled = seconds * REFERENCE_S / mean(reference before, reference after)

A change to the analyzer moves the scaled time by the same share as the
wall time; a slow spell of the host slows the item and the references
around it alike.  The raw wall times are reported next to the scaled
ones.
"""

from __future__ import annotations

import gc
import time

#: The unit of the scaled timings: seconds on a nominal host on which
#: the reference takes this long.  On a 2-core x86-64 VM it took
#: 0.25-0.5 s as the host's speed changed.
REFERENCE_S = 0.25

_ROUNDS = 150
_NODES = 2000


class _Node:
    __slots__ = ("key", "kids")

    def __init__(self, key: int) -> None:
        self.key = key
        self.kids: list[_Node] = []


def reference() -> float:
    """Seconds taken by a fixed interpreter-bound computation shaped
    like the analyzer's work: an object graph, tuple-keyed dict updates,
    a graph search and string joins.  The cyclic collector is off while
    it runs, so the analyzer's live heap does not change its cost."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        started = time.perf_counter()
        total = 0
        for r in range(_ROUNDS):
            nodes = [_Node(i) for i in range(_NODES)]
            for i, node in enumerate(nodes):
                node.kids.append(nodes[(i * 7 + r) % _NODES])
            table: dict[tuple, int] = {}
            for node in nodes:
                key = ("v", node.key % 97, node.kids[0].key)
                table[key] = table.get(key, 0) + 1
            seen: set[int] = set()
            stack = [nodes[0]]
            while stack:
                node = stack.pop()
                if node.key not in seen:
                    seen.add(node.key)
                    stack.extend(node.kids)
            total += len(seen) + len(",".join(str(k[1]) for k in list(table)[:200]))
            for node in nodes:
                node.kids.clear()  # break the cycles: the collector is off
        seconds = time.perf_counter() - started
    finally:
        if enabled:
            gc.enable()
    if total <= 0:
        raise AssertionError("reference computation went wrong")
    return seconds


class HostClock:
    """The reference samples of one run, taken between its timed items."""

    def __init__(self) -> None:
        self.samples = [reference()]

    def scale(self, seconds: float) -> float:
        """``seconds`` of an item that ran since the last sample: takes a
        new sample and scales by the mean of the two around the item."""
        before = self.samples[-1]
        self.samples.append(reference())
        return seconds * REFERENCE_S / ((before + self.samples[-1]) / 2)
