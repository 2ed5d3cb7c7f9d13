"""Network attachment points: the IP-to-ICN gateways.

A client-side gateway turns HTTP requests into name subscriptions (and
IGMP membership into channel subscriptions); a server-side gateway turns
match notifications into coalescing groups, fetches once from its
attached server per group, and multicasts the response over a delivery
tree built from the member gateways.  Gateways are the only ICN elements
holding routing state: a table of forwarding identifiers written solely
by control-plane notifications.
"""

from __future__ import annotations

import hashlib

from .fabric import Fabric, Packet, segment_sizes
from .fid import FID, zero_fid
from .simkernel import Engine
from .telemetry import EventLog


def _h64(text: str) -> str:
    return hashlib.blake2b(text.encode(), digest_size=8).hexdigest()


def http_name(host: str, path: str) -> str:
    """Flat name for an HTTP resource: scope from the host, item from
    the path."""
    return f"http:{_h64(host)}/{_h64(path)}"


def http_scope(host: str) -> str:
    return f"http:{_h64(host)}"


def channel_name(channel: str) -> str:
    return f"ch:{channel}"


def scope_key(name: str) -> str:
    """Publisher registrations attach to the scope part of a name."""
    return name.rsplit("/", 1)[0]


class _Pending:
    """Requests from local clients awaiting one named response."""

    __slots__ = ("clients", "received")

    def __init__(self, clients: list):
        self.clients = clients
        self.received = {}


class _Group:
    """Coalescing group: identical requests within one window."""

    __slots__ = ("name", "fingerprint", "members")

    def __init__(self, name: str, fingerprint: tuple, members: dict):
        self.name = name
        self.fingerprint = fingerprint
        self.members = members


class Nap:
    """One gateway; client-side and server-side behaviour in one element."""

    def __init__(self, name: str, engine: Engine, fabric: Fabric, pce,
                 log: EventLog, params):
        self.name = name
        self.engine = engine
        self.fabric = fabric
        self.pce = pce
        self.log = log
        self.params = params
        self.fid_table: dict[str, tuple[FID, int]] = {}
        self._pending: dict[str, _Pending] = {}
        self._members: dict[str, dict] = {}
        # open coalescing groups only; a group leaves when it closes
        self._groups: dict[tuple, _Group] = {}
        self._servers: dict[str, object] = {}
        self._rid = 0

    # -- routing state ---------------------------------------------------

    def update_fid(self, name: str, fid: FID, epoch: int) -> None:
        """Control-plane notification: the only writer of the FID table."""
        self.fid_table[name] = (fid, epoch)
        self.log.append(self.engine.now, self.name, "fid_write", name=name,
                        fid=fid.to_bytes().hex(), epoch=epoch)

    def routing_digest(self) -> str:
        h = hashlib.sha256()
        for name in sorted(self.fid_table):
            fid, epoch = self.fid_table[name]
            h.update(name.encode())
            h.update(fid.to_bytes())
            h.update(str(epoch).encode())
        return h.hexdigest()

    # -- client side: HTTP -------------------------------------------------

    def handle_http(self, handle, fetch_id: int, host: str,
                    path: str) -> None:
        """Request from an attached client; merges with an in-flight
        fetch of the same name, otherwise subscribes at the control
        plane."""
        name = http_name(host, path)
        pending = self._pending.get(name)
        if pending is not None:
            pending.clients.append((handle, fetch_id))
            self.log.append(self.engine.now, self.name, "cnap_merge",
                            name=name, clients=len(pending.clients))
            return
        pending = _Pending(clients=[(handle, fetch_id)])
        self._pending[name] = pending
        self.engine.schedule(self.params.control_latency_us,
                             self.pce.subscribe, name, self.name, "http",
                             (host, path))

    def cancel_fetch(self, handle, fetch_id: int, host: str,
                     path: str) -> None:
        """Client timed out; drop its pending record (and the
        subscription if nobody else is waiting)."""
        name = http_name(host, path)
        pending = self._pending.get(name)
        if pending is None:
            return
        pending.clients = [(h, f) for h, f in pending.clients
                           if not (h is handle and f == fetch_id)]
        if not pending.clients:
            del self._pending[name]
            self.engine.schedule(self.params.control_latency_us,
                                 self.pce.unsubscribe, name, self.name)

    # -- client side: IGMP --------------------------------------------------

    def handle_igmp(self, handle, action: str, channel: str) -> None:
        """Membership update from an attached set-top box; the gateway
        aggregates it into one channel subscription."""
        stb_name = handle.name
        name = channel_name(channel)
        members = self._members.setdefault(name, {})
        t = self.engine.now
        if action == "join":
            if stb_name in members:
                self.log.append(t, self.name, "igmp", action="join",
                                channel=channel, stb=stb_name, dup=True)
                return
            members[stb_name] = handle
            self.log.append(t, self.name, "igmp", action="join",
                            channel=channel, stb=stb_name, dup=False)
            if len(members) == 1:
                self.engine.schedule(self.params.control_latency_us,
                                     self.pce.subscribe, name, self.name,
                                     "igmp", None)
        elif action == "leave":
            if stb_name not in members:
                return
            del members[stb_name]
            self.log.append(t, self.name, "igmp", action="leave",
                            channel=channel, stb=stb_name)
            if not members:
                self.engine.schedule(self.params.control_latency_us,
                                     self.pce.unsubscribe, name, self.name)
        else:
            raise ValueError(f"unknown igmp action {action!r}")

    # -- packet sink (registered with the fabric) -----------------------------

    def demux(self, packet: Packet, t: int) -> int:
        """Deliver an arriving packet to local consumers; returns how
        many consumed it (0 = spurious arrival)."""
        if packet.kind == "stream":
            members = self._members.get(packet.name, {})
            t_host = t + self.params.access_latency_us
            for handle in members.values():
                handle.on_stream_packet(packet.name, t_host, packet.size)
            return len(members)
        pending = self._pending.get(packet.name)
        if pending is None:
            return 0
        rid, total, status, meta = packet.payload
        got = pending.received.get(rid, 0) + packet.size
        pending.received[rid] = got
        if got >= total:
            for handle, fetch_id in pending.clients:
                self.engine.schedule(self.params.access_latency_us,
                                     handle.on_response, fetch_id, status,
                                     total, meta)
            consumers = len(pending.clients)
            del self._pending[packet.name]
            self.engine.schedule(self.params.control_latency_us,
                                 self.pce.unsubscribe, packet.name, self.name)
            return consumers
        return len(pending.clients)

    # -- server side -----------------------------------------------------------

    def attach_server(self, host: str, server) -> None:
        self._servers[host] = server

    def on_match(self, name: str, subscriber: str, context) -> None:
        """Control-plane match notification: join an open coalescing
        group or open a new one anchored at this request.  context is the
        (host, path) that handle_http subscribed with."""
        group = self._groups.get(context)
        t = self.engine.now
        if group is not None:
            group.members[subscriber] = True
            self.log.append(t, self.name, "group_join", name=name,
                            members=len(group.members))
            return
        group = _Group(name=name, fingerprint=context,
                       members={subscriber: True})
        self._groups[context] = group
        self.log.append(t, self.name, "group_open", name=name,
                        window_us=self.params.coalesce_window_us)
        if self.params.coalesce_window_us == 0:
            self._close_group(group)
        else:
            self.engine.schedule(self.params.coalesce_window_us,
                                 self._close_group, group)

    def _close_group(self, group: _Group) -> None:
        del self._groups[group.fingerprint]
        host, path = group.fingerprint
        self.log.append(self.engine.now, self.name, "group_close",
                        name=group.name, members=len(group.members))
        server = self._servers.get(host)
        if server is None:
            self.log.append(self.engine.now, self.name, "no_server", host=host)
            return
        self.engine.schedule(
            self.params.access_latency_us, server.handle_request, path,
            lambda status, size, kind, meta:
                self.on_server_response(group, status, size, kind, meta))

    def on_server_response(self, group: _Group, status: int, size: int,
                           kind: str, meta) -> None:
        """One upstream response fans out to every member gateway over a
        single multicast tree requested from the control plane."""
        self._rid += 1
        rid = self._rid
        receivers = tuple(group.members)
        self.engine.schedule(
            self.params.control_latency_us, self.pce.request_tree,
            group.name, self.name, receivers,
            lambda name, fid, epoch:
                self._respond(group, rid, status, size, kind, meta, fid,
                              epoch))

    def _respond(self, group: _Group, rid: int, status: int, size: int,
                 kind: str, meta, fid: FID, epoch: int) -> None:
        self.update_fid(group.name, fid, epoch)
        segments = segment_sizes(size, self.params.mtu)
        self.log.append(self.engine.now, self.name, "snap_respond",
                        name=group.name, rid=rid, size=size,
                        segments=len(segments), members=len(group.members))
        payload = (rid, size, status, meta)
        for seg in segments:
            pkt = Packet(pid=self.fabric.next_pid(), kind=kind,
                         name=group.name, size=seg, fid=fid,
                         payload=payload)
            self.fabric.inject(self.name, pkt)

    def inject_stream(self, channel: str, size: int) -> None:
        """Emit one stream packet using the current channel tree (the
        all-zeros identifier, dropped at source, when nobody joined)."""
        name = channel_name(channel)
        entry = self.fid_table.get(name)
        fid = entry[0] if entry is not None else zero_fid(self.pce.fid_config.m)
        pkt = Packet(pid=self.fabric.next_pid(), kind="stream", name=name,
                     size=size, fid=fid)
        self.fabric.inject(self.name, pkt)


class IcnHttpTransport:
    """Client-to-gateway glue: requests cross the access link, then ride
    the control plane as subscriptions."""

    def __init__(self, engine: Engine, nap: Nap):
        self.engine = engine
        self.nap = nap

    def fetch(self, handle, fetch_id: int, host: str, path: str) -> None:
        self.engine.schedule(self.nap.params.access_latency_us,
                             self.nap.handle_http, handle, fetch_id, host,
                             path)

    def cancel(self, handle, fetch_id: int, host: str, path: str) -> None:
        self.engine.schedule(self.nap.params.access_latency_us,
                             self.nap.cancel_fetch, handle, fetch_id, host,
                             path)


class IcnIgmpAdapter:
    """Membership messages from a set-top box to its gateway."""

    def __init__(self, engine: Engine, nap: Nap):
        self.engine = engine
        self.nap = nap

    def act(self, stb, action: str, channel: str) -> None:
        self.engine.schedule(self.nap.params.access_latency_us,
                             self.nap.handle_igmp, stb, action, channel)


class IcnStreamSender:
    """Head-end feed into its server-side gateway."""

    def __init__(self, nap: Nap):
        self.nap = nap

    def send_stream(self, channel: str, size: int) -> None:
        self.nap.inject_stream(channel, size)
