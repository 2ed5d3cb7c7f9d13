"""Store-and-forward data plane over the shared topology.

Links serialize packets through an unbounded FIFO (optionally capped in
bytes); a packet occupies a link for size/capacity seconds and arrives one
propagation latency later.  Forwarding nodes in the ICN core hold no
per-flow state at all: the forwarding decision tests each egress link's
identifier against the bit vector carried by the packet, so rerouting
never touches them.  Every injected, forwarded, duplicated, delivered and
dropped byte is logged; byte conservation is recomputable from the log.
The fabric keeps no counters of its own: flush_counters reduces the log.
"""

from __future__ import annotations

import hashlib
from collections import Counter, namedtuple
from collections.abc import Callable

from .fid import FID, should_forward
from .simkernel import Engine
from .telemetry import EventLog, Telemetry
from .topology import Link, TopologyEvent, TopologyGraph


class Packet(namedtuple("Packet", "pid kind name size fid src dst payload",
                        defaults=(None, None, None, ()))):
    """Immutable packet description; per-copy state (TTL) travels separately.

    kind is the traffic class used by the reducers ("chunk", "playlist",
    "error", "request", "stream", "igmp"); name identifies the content or
    group.
    ICN packets carry fid; IP packets carry src and dst (dst may be a
    multicast group name).
    """

    __slots__ = ()


def segment_sizes(size: int, mtu: int) -> list:
    """The packet sizes of a size-byte response cut at mtu bytes: full
    segments, then the rest; an empty response is one empty packet."""
    return [min(mtu, size - sent) for sent in range(0, size, mtu)] or [0]


class FidNode:
    """Stateless forwarding element: routing state lives in the packet.

    The only attributes are the static link attachment (and its egress
    link identifier ints) and an optional local sink callback for gateway
    nodes; there is nothing a topology change could update.  A decision
    is one pass over the (link, pattern) pairs fixed at construction, in
    link order, with no per-packet checks: FID guarantees its bits fit
    its width.
    """

    def __init__(self, name: str, egress_links: list[Link],
                 link_ids: dict[str, FID],
                 sink: Callable | None = None):
        self.name = name
        self.egress_links = list(egress_links)
        self.link_ids = [link_ids[l.key] for l in self.egress_links]
        self._pairs = tuple((link, lid.bits) for link, lid
                            in zip(self.egress_links, self.link_ids))
        self.sink = sink

    def process(self, packet: Packet, ttl: int, in_link, t: int):
        fid = packet.fid
        if fid is not None:
            bits = fid.bits
            # never back out of the reverse of the arrival link, which a
            # Bloom identifier may cover along with the link itself
            back = in_link.reverse if in_link is not None else None
            egress = [link for link, p in self._pairs
                      if p & bits == p and link.up and link.key != back]
        else:
            egress = []
        consumers = self.sink(packet, t) if self.sink is not None else None
        reason = None
        if not egress:
            if fid is not None and fid.bits == 0 and not consumers:
                # an all-zeros identifier forwards nowhere: dropped at
                # source, never a spurious delivery
                consumers = None
                reason = "zero_fid"
            elif consumers is None:
                reason = "no_egress"
        return egress, consumers, reason

    def routing_digest(self) -> str:
        """Digest of this node's routing state: static link identifiers only."""
        h = hashlib.sha256()
        for link, lid in zip(self.egress_links, self.link_ids):
            h.update(link.key.encode())
            h.update(lid.to_bytes())
        return h.hexdigest()


class Fabric:
    """Event-driven packet transport shared by both data planes."""

    def __init__(self, engine: Engine, topo: TopologyGraph, log: EventLog,
                 telemetry: Telemetry, params):
        self.engine = engine
        self.topo = topo
        self.log = log
        self.telemetry = telemetry
        self.params = params
        self.handlers: dict[str, object] = {}
        self.topology_listeners: list[Callable] = []
        self._next_pid = 0

    def next_pid(self) -> int:
        pid = self._next_pid
        self._next_pid += 1
        return pid

    def add_handler(self, node: str, handler) -> None:
        self.handlers[node] = handler

    def add_topology_listener(self, listener: Callable) -> None:
        self.topology_listeners.append(listener)

    # -- data path ----------------------------------------------------------

    def inject(self, node: str, packet: Packet) -> None:
        t = self.engine.now
        self.log.write("pkt_inject", t, node, packet.pid, packet.kind,
                       packet.name, packet.size)
        self._process(node, packet, self.params.ttl, None)

    def _process(self, node: str, packet: Packet, ttl: int, in_link) -> None:
        t = self.engine.now
        if ttl <= 0:
            self._drop(node, packet, "ttl_exceeded")
            return
        handler = self.handlers[node]
        egress, consumers, reason = handler.process(packet, ttl, in_link, t)
        if egress:
            # one incoming copy fans out to len(egress) forwarded copies,
            # plus one delivered locally when the handler also consumed it
            tapped = consumers is not None and consumers > 0
            surplus = len(egress) - 1 + (1 if tapped else 0)
            if surplus > 0:
                self.log.write("pkt_branch", t, node, packet.pid, packet.size,
                               surplus)
            for link in egress:
                self._send(node, link, packet, ttl - 1)
            if tapped:
                self.log.write("pkt_deliver", t, node, packet.pid, packet.kind,
                               packet.size, consumers, False)
        elif consumers is not None:
            self.log.write("pkt_deliver", t, node, packet.pid, packet.kind,
                           packet.size, consumers, consumers == 0)
        else:
            self._drop(node, packet, reason or "no_egress")

    def _send(self, node: str, link: Link, packet: Packet, ttl: int) -> None:
        engine = self.engine
        t = engine.now
        busy = link.busy_until
        capacity = link.capacity_bps
        cap = self.params.queue_cap_bytes
        if cap is not None:
            backlog_bytes = max(0, busy - t) * capacity // 8_000_000
            if backlog_bytes + packet.size > cap:
                self._drop(node, packet, "queue_cap")
                return
        start = busy if busy > t else t
        busy = link.busy_until = (
            start + (packet.size * 8_000_000 + capacity - 1) // capacity)
        arrive = busy + link.latency_us
        self.log.write("pkt_fwd", t, node, packet.pid, packet.kind, link.key,
                       packet.size, start, arrive)
        # the plain function, made once, rather than a new bound method
        # per queued copy
        engine.schedule(arrive - t, Fabric._arrive, self, link, packet, ttl,
                        start)

    def _arrive(self, link: Link, packet: Packet, ttl: int, start: int) -> None:
        # a link that went down (or bounced) while the packet was on the
        # wire loses the packet
        if not link.up or link.up_since > start:
            self._drop(link.dst, packet, "link_down", link.key)
            return
        self._process(link.dst, packet, ttl, link)

    def _drop(self, node: str, packet: Packet, reason: str, *link) -> None:
        self.log.write(("pkt_drop", reason), self.engine.now, node,
                       packet.pid, packet.kind, packet.size, *link)

    # -- control path -------------------------------------------------------

    def set_link_state(self, physical: str, up: bool) -> TopologyEvent:
        """Fail or restore a physical link; listeners hear about it after
        the failure-detection delay."""
        t = self.engine.now
        event = self.topo.set_link_state(physical, up, t)
        self.log.append(t, physical, "link_state", up=up, epoch=self.topo.epoch)
        for listener in self.topology_listeners:
            self.engine.schedule(self.params.detection_delay_us, listener, event)
        return event

    def flush_counters(self) -> None:
        """Reduce the event log to counter samples: bytes and packets sent
        per link, the peak queueing delay per link (only links that ever
        queued), and drops per node.  Reads the log's pkt_fwd and pkt_drop
        columns."""
        if not self.telemetry.enabled:
            return
        log = self.log
        tx_bytes, tx_pkts, queue_peak = {}, {}, {}
        for t, key, size, start in zip(*(log.column("pkt_fwd", name) for name
                                         in ("t", "link", "size", "start"))):
            tx_bytes[key] = tx_bytes.get(key, 0) + size
            tx_pkts[key] = tx_pkts.get(key, 0) + 1
            backlog_us = start - t
            if backlog_us > queue_peak.get(key, 0):
                queue_peak[key] = backlog_us
        drops = Counter(log.column("pkt_drop", "el"))
        t = self.engine.now
        for key in sorted(tx_bytes):
            self.telemetry.record(t, key, "tx_bytes", tx_bytes[key])
            self.telemetry.record(t, key, "tx_pkts", tx_pkts[key])
        for key in sorted(queue_peak):
            self.telemetry.record(t, key, "queue_peak_us", queue_peak[key])
        for node in sorted(drops):
            self.telemetry.record(t, node, "drops", drops[node])


# ---------------------------------------------------------------------------
# pure traversal (no event loop): used by invariant checks and tests

class DeliveryTrace:
    __slots__ = ("links_used", "sink_nodes", "dead_ends", "hops")

    def __init__(self):
        self.links_used, self.sink_nodes, self.dead_ends = set(), set(), set()
        self.hops = 0


def trace_delivery(topo: TopologyGraph, link_ids: dict[str, FID],
                   fid: FID, origin: str, ttl: int,
                   sinks: set) -> DeliveryTrace:
    """Walk a FID through the topology without the event loop.

    Follows every up link whose identifier is covered by the FID, except
    the reverse of the link a copy arrived on, exactly like the per-packet
    forwarding decision, for at most ttl hops, and reports the links used
    and the nodes where copies terminated: a terminating node in sinks is
    a delivery, any other a dead end.
    """
    trace = DeliveryTrace()
    frontier = [(origin, ttl, None)]
    while frontier:
        node, hops_left, back = frontier.pop()
        egress = []
        if hops_left > 0:
            for link in topo.egress(node):
                if (link.up and link.key != back
                        and should_forward(fid, link_ids[link.key])):
                    egress.append(link)
        if not egress:
            if node in sinks:
                trace.sink_nodes.add(node)
            else:
                trace.dead_ends.add(node)
            continue
        for link in egress:
            trace.links_used.add(link.key)
            trace.hops += 1
            frontier.append((link.dst, hops_left - 1, link.reverse))
    return trace
