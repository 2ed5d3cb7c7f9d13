"""Centralized rendezvous and path computation.

All routing intelligence of the ICN mode lives here: name registrations
(publish/subscribe matching), shortest-path computation over the live
topology, a path cache keyed by gateway pair, and multicast tree
composition by ORing cached unicast encodings.  When the fabric reports
a link event the cache entries that used the link are discarded, trees of
affected streams are recomputed, and only the entry-point gateways whose
forwarding identifier actually changed are told about it; forwarding
nodes are never touched.
"""

from __future__ import annotations

import hashlib
import heapq
from collections import namedtuple

from .fid import FID, FidConfig, combine_trees, encode_path, zero_fid
from .simkernel import Engine
from .telemetry import EventLog
from .topology import TopologyEvent, TopologyGraph


class UnreachableError(RuntimeError):
    """No path exists between the requested gateways."""


class PathResult(namedtuple("PathResult", "links fid cost")):
    __slots__ = ()


class Pce:
    """Rendezvous + topology manager, co-located as one control element."""

    name = "pce"

    def __init__(self, engine: Engine, topo: TopologyGraph,
                 link_ids: dict[str, FID], fid_config: FidConfig,
                 log: EventLog, params):
        self.engine = engine
        self.topo = topo
        self.link_ids = link_ids
        self.fid_config = fid_config
        self.log = log
        self.params = params
        self.naps: dict[str, object] = {}
        # scope -> insertion-ordered publisher gateways;
        # name -> subscriber gateway -> (kind, context)
        self._pubs: dict[str, dict] = {}
        self._subs: dict[str, dict] = {}
        # (src, dst) -> (path, topology epoch it was last valid at)
        self._cache: dict[tuple, tuple[PathResult, int]] = {}
        # durable stream trees: (name, snap) -> last issued FID
        self._issued: dict[tuple, FID] = {}
        self._stream_entry: dict[str, str] = {}
        self.cache_hits = 0
        self.cache_misses = 0
        self.invalidations = 0

    def attach_nap(self, nap) -> None:
        self.naps[nap.name] = nap

    # -- path computation ----------------------------------------------------

    def compute_path(self, src: str, dst: str) -> PathResult:
        """Deterministic shortest path by hop count over up links.

        Nodes are expanded in (distance, node index) order and parallel
        links in insertion order, so equal-cost ties always resolve to
        the lowest-index alternative.
        """
        if src not in self.topo.nodes or dst not in self.topo.nodes:
            raise KeyError(f"unknown node in ({src!r}, {dst!r})")
        if src == dst:
            return PathResult((), zero_fid(self.fid_config.m), 0)
        dist = {src: 0}
        parent: dict[str, tuple] = {}
        heap = [(0, self.topo.nodes[src].index, src)]
        while heap:
            d, _, u = heapq.heappop(heap)
            if d > dist.get(u, 1 << 60):
                continue
            if u == dst:
                break
            for link in self.topo.egress(u):
                if not link.up:
                    continue
                v = link.dst
                if d + 1 < dist.get(v, 1 << 60):
                    dist[v] = d + 1
                    parent[v] = (u, link.key)
                    heapq.heappush(heap, (d + 1, self.topo.nodes[v].index, v))
        if dst not in parent:
            raise UnreachableError(f"no path {src} -> {dst}")
        links = []
        node = dst
        while node != src:
            prev, key = parent[node]
            links.append(key)
            node = prev
        links.reverse()
        fid = encode_path([self.link_ids[k] for k in links], width=self.fid_config.m)
        return PathResult(tuple(links), fid, len(links))

    def cached_path(self, src: str, dst: str) -> PathResult:
        """Path cache keyed by gateway pair, validated by topology epoch."""
        key = (src, dst)
        entry = self._cache.get(key)
        if entry is not None and entry[1] == self.topo.epoch:
            self.cache_hits += 1
            return entry[0]
        self.cache_misses += 1
        result = self.compute_path(src, dst)
        self._cache[key] = (result, self.topo.epoch)
        return result

    def build_multicast_fid(self, snap: str, receivers, name: str) -> FID:
        """OR the cached unicast paths from snap to every receiver.  When
        some receivers are unreachable, logs them as the partial tree of
        `name` and returns the tree of the reachable ones."""
        fids = []
        failures = []
        for receiver in receivers:
            try:
                fids.append(self.cached_path(snap, receiver).fid)
            except UnreachableError:
                failures.append(receiver)
        if failures:
            self.log.append(self.engine.now, self.name, "ctrl",
                            msg="partial_tree", name=name, failures=failures)
        return combine_trees(fids, width=self.fid_config.m)

    def select_publisher(self, name: str, subscriber: str) -> str:
        """Anycast choice: reachable publisher with the cheapest path to
        the subscriber; cost ties go to the lowest node index."""
        from .nap import scope_key
        pubs = self._pubs.get(scope_key(name))
        if not pubs:
            raise UnreachableError(f"no publisher for {name!r}")
        best = None
        for pub in pubs:
            try:
                cost = self.cached_path(pub, subscriber).cost
            except UnreachableError:
                continue
            rank = (cost, self.topo.nodes[pub].index)
            if best is None or rank < best[0]:
                best = (rank, pub)
        if best is None:
            raise UnreachableError(f"no reachable publisher for {name!r}")
        return best[1]

    # -- rendezvous ----------------------------------------------------------

    def register_publisher(self, scope: str, nap: str) -> None:
        """Advertise a publisher gateway for a scope; pending
        subscriptions under the scope are re-matched immediately."""
        from .nap import scope_key
        self.log.append(self.engine.now, self.name, "ctrl", msg="publish",
                        name=scope, nap=nap)
        self._pubs.setdefault(scope, {})[nap] = True
        for name in list(self._subs):
            if scope_key(name) != scope:
                continue
            for subscriber, (kind, context) in list(self._subs[name].items()):
                try:
                    snap = self.select_publisher(name, subscriber)
                except UnreachableError:
                    continue
                if kind == "igmp":
                    self._stream_entry[name] = snap
                    self._push_stream_tree(name, snap)
                else:
                    self._notify_match(name, snap, subscriber, context)

    def unregister_publisher(self, scope: str, nap: str) -> None:
        self.log.append(self.engine.now, self.name, "ctrl", msg="unpublish",
                        name=scope, nap=nap)
        self._pubs.get(scope, {}).pop(nap, None)

    def subscribe(self, name: str, subscriber: str, kind: str,
                  context) -> None:
        """Register a subscription and, if a publisher exists, notify the
        selected publisher's gateway of the match."""
        self.log.append(self.engine.now, self.name, "ctrl", msg="subscribe",
                        name=name, nap=subscriber, kind=kind)
        subs = self._subs.setdefault(name, {})
        already = subscriber in subs
        subs[subscriber] = (kind, context)
        try:
            snap = self.select_publisher(name, subscriber)
        except UnreachableError:
            return
        if kind == "igmp":
            self._stream_entry[name] = snap
            if not already:
                self._push_stream_tree(name, snap)
        else:
            self._notify_match(name, snap, subscriber, context)

    def unsubscribe(self, name: str, subscriber: str) -> None:
        self.log.append(self.engine.now, self.name, "ctrl", msg="unsubscribe",
                        name=name, nap=subscriber)
        subs = self._subs.get(name, {})
        entry = subs.pop(subscriber, None)
        if entry is not None and entry[0] == "igmp":
            snap = self._stream_entry.get(name)
            if snap is not None:
                self._push_stream_tree(name, snap)

    def _stream_receivers(self, name: str) -> list:
        return [nap for nap, (kind, _) in self._subs.get(name, {}).items()
                if kind == "igmp"]

    def _notify_match(self, name: str, snap: str, subscriber: str, context) -> None:
        self.log.append(self.engine.now, self.name, "ctrl", msg="match",
                        name=name, nap=snap, subscriber=subscriber)
        self.engine.schedule(self.params.control_latency_us,
                             self.naps[snap].on_match, name, subscriber, context)

    def _push_stream_tree(self, name: str, snap: str) -> None:
        fid = self.build_multicast_fid(snap, self._stream_receivers(name),
                                       name)
        if self._issued.get((name, snap)) == fid:
            return
        self._issued[(name, snap)] = fid
        self.log.append(self.engine.now, self.name, "ctrl", msg="fid_update",
                        name=name, nap=snap, fid=fid.to_bytes().hex(),
                        epoch=self.topo.epoch)
        self.engine.schedule(self.params.control_latency_us,
                             self.naps[snap].update_fid, name, fid,
                             self.topo.epoch)

    # -- one-shot tree requests (response multicast) --------------------------

    def request_tree(self, name: str, snap: str, receivers: tuple,
                     reply) -> None:
        """Build a delivery tree for an explicit receiver set and hand the
        FID back to the requesting gateway after one control hop."""
        self.log.append(self.engine.now, self.name, "ctrl", msg="tree_request",
                        name=name, nap=snap, receivers=list(receivers))
        fid = self.build_multicast_fid(snap, receivers, name)
        self.log.append(self.engine.now, self.name, "ctrl", msg="tree_reply",
                        name=name, nap=snap, fid=fid.to_bytes().hex(),
                        epoch=self.topo.epoch)
        self.engine.schedule(self.params.control_latency_us, reply, name, fid,
                             self.topo.epoch)

    # -- topology events ------------------------------------------------------

    def on_topology_event(self, event: TopologyEvent) -> None:
        """Fabric notification, already delayed by failure detection."""
        self.log.append(self.engine.now, self.name, "topo_event",
                        physical=event.physical, up=event.up,
                        epoch=self.topo.epoch)
        self.engine.schedule(self.params.pce_processing_us,
                             self._reroute, event)

    def _reroute(self, event: TopologyEvent) -> None:
        # a restored link can only improve paths: recompute everything.
        # Entries a failure did not touch stay valid at the new epoch;
        # between the event and this reroute the epoch check already
        # forced fresh computation
        affected = set(event.directed_keys)
        kept = {} if event.up else {
            key: (path, self.topo.epoch)
            for key, (path, _) in self._cache.items()
            if not affected.intersection(path.links)}
        stale = len(self._cache) - len(kept)
        self._cache = kept
        self.invalidations += stale
        self.log.append(self.engine.now, self.name, "ctrl", msg="invalidate",
                        physical=event.physical, entries=stale,
                        epoch=self.topo.epoch)
        # recompute durable stream trees; push only the FIDs that changed,
        # and only to the entry-point gateways
        for name, snap in list(self._stream_entry.items()):
            self._push_stream_tree(name, snap)

    # -- introspection ---------------------------------------------------------

    def routing_digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.topo.epoch).encode())
        for key in sorted(self._cache):
            path, epoch = self._cache[key]
            h.update(repr((key, path.links, epoch)).encode())
            h.update(path.fid.to_bytes())
        for key in sorted(self._issued):
            h.update(repr(key).encode())
            h.update(self._issued[key].to_bytes())
        return h.hexdigest()
