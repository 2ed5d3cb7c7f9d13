"""Deterministic discrete-event engine on an integer-microsecond clock.

All simulation state advances through Engine.schedule / Engine.run_until.
Two runs with the same callbacks, delays and master seed execute events
in exactly the same order: ties on the virtual timestamp are broken by
scheduling sequence number (FIFO), and every random draw comes from a
named substream derived from the master seed, so adding draws on one
label never perturbs another.
"""

from __future__ import annotations

import hashlib
import heapq
import random
from collections.abc import Callable

US_PER_MS = 1_000
US_PER_S = 1_000_000


def substream_seed(master_seed: int, label: str) -> int:
    """Stable 64-bit seed for the (master seed, label) substream."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Engine:
    """Event scheduler with cancellation and named RNG substreams."""

    def __init__(self, master_seed: int = 0):
        self.master_seed = master_seed
        self.now: int = 0
        self._heap: list = []
        self._seq: int = 0
        self._cancelled: set = set()
        self._rngs: dict = {}

    def schedule(self, delay_us: int, action: Callable, *args) -> int:
        """Schedule action(*args) at now + delay_us; returns an event id."""
        if delay_us < 0:
            raise ValueError(f"negative delay: {delay_us}")
        seq = self._seq
        self._seq += 1
        # one flat entry per event: no separate args tuple stays queued
        heapq.heappush(self._heap, (self.now + int(delay_us), seq, action)
                       + args)
        return seq

    def schedule_at(self, at_us: int, action: Callable, *args) -> int:
        """Schedule action at an absolute virtual time (>= now)."""
        return self.schedule(at_us - self.now, action, *args)

    def cancel(self, event_id: int) -> None:
        """Cancel a pending event; cancelling a fired event is a no-op."""
        self._cancelled.add(event_id)

    def run_until(self, t_end_us: int) -> int:
        """Execute all events with fire time <= t_end_us in (time, seq) order.

        Events scheduled by executing events are interleaved into the same
        run when they fall inside the horizon.  Returns the number of
        events executed; the clock finishes at t_end_us.
        """
        if t_end_us < self.now:
            raise ValueError("cannot run backwards")
        executed = 0
        heap = self._heap
        while heap and heap[0][0] <= t_end_us:
            event = heapq.heappop(heap)
            seq = event[1]
            if seq in self._cancelled:
                self._cancelled.discard(seq)
                continue
            self.now = event[0]
            event[2](*event[3:])
            executed += 1
        self.now = t_end_us
        return executed

    def pending(self) -> int:
        """Number of events still queued (cancelled ones included)."""
        return len(self._heap)

    def rng(self, label: str) -> random.Random:
        """Named RNG substream; draws on one label never affect another."""
        r = self._rngs.get(label)
        if r is None:
            r = random.Random(substream_seed(self.master_seed, label))
            self._rngs[label] = r
        return r

    def rng_draw(self, label: str) -> float:
        """One uniform [0, 1) draw from the labelled substream."""
        return self.rng(label).random()
