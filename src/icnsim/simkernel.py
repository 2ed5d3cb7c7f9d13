"""Deterministic discrete-event engine on an integer-microsecond clock.

All simulation state advances through Engine.schedule / Engine.run_until.
Two runs with the same callbacks and delays execute events in exactly
the same order: ties on the virtual timestamp are broken by scheduling
sequence number (FIFO).  One int orders the heap: an event's key is
(time << _SEQ_BITS) | seq, which sorts exactly as the pair (time, seq)
does, in one int object instead of two.  The engine draws no random
numbers; a component that needs them seeds its own generator with
substream_seed, so draws on one label never perturb another.
"""

from __future__ import annotations

import hashlib
import heapq
from collections.abc import Callable

US_PER_MS = 1_000
US_PER_S = 1_000_000

# Bits of an event key below its time.  2**32 events take hours of host
# time to schedule, and with 32 bits a key stays below 2**60, one 32 B
# int, in any run shorter than 2**28 us (about 268 s) of virtual time.
_SEQ_BITS = 32
_SEQ_MASK = (1 << _SEQ_BITS) - 1


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
        if seq > _SEQ_MASK:
            # a wider seq would spill into the time and misorder events
            raise OverflowError(f"more than 2**{_SEQ_BITS} events scheduled")
        self._seq = seq + 1
        # one flat entry per event: no separate args tuple stays queued
        heapq.heappush(self._heap,
                       (((self.now + int(delay_us)) << _SEQ_BITS) | seq,
                        action) + args)
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
        cancelled = self._cancelled
        limit = (t_end_us + 1) << _SEQ_BITS
        while heap and heap[0][0] < limit:
            event = heapq.heappop(heap)
            key = event[0]
            if cancelled and key & _SEQ_MASK in cancelled:
                cancelled.discard(key & _SEQ_MASK)
                continue
            self.now = key >> _SEQ_BITS
            event[1](*event[2:])
            executed += 1
        self.now = t_end_us
        return executed

    def pending(self) -> int:
        """Number of events still queued (cancelled ones included)."""
        return len(self._heap)
