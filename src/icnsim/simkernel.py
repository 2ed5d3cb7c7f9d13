"""Deterministic discrete-event engine on an integer-microsecond clock.

All simulation state advances through Engine.schedule / Engine.run_until.
Two runs with the same callbacks and delays execute events in exactly
the same order: ties on the virtual timestamp are broken by scheduling
sequence number (FIFO).  The engine draws no random numbers; a component
that needs them seeds its own generator with substream_seed, so draws on
one label never perturb another.
"""

from __future__ import annotations

import hashlib
import heapq
from collections.abc import Callable

US_PER_MS = 1_000
US_PER_S = 1_000_000


def substream_seed(master_seed: int, label: str) -> int:
    """Stable 64-bit seed for the (master seed, label) substream."""
    digest = hashlib.sha256(f"{master_seed}:{label}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class Engine:
    """Event scheduler with cancellation."""

    def __init__(self):
        self.now: int = 0
        self._heap: list = []
        self._seq: int = 0
        self._cancelled: set = set()

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
