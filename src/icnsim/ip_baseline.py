"""Conventional IP/Ethernet data plane used as the comparison baseline.

Switches learn MAC addresses, snoop group membership, and flood unknown
destinations along a spanning tree.  A link event triggers a fixed
reconvergence window during which redundant core links stop forwarding;
completion installs the new tree and flushes every learned table.  HTTP
clients resolve a server address list and fail over by timeout, never
failing back.  All tables are insertion-ordered dicts so the event
stream is identical across processes.
"""

from __future__ import annotations

from .fabric import Fabric, Packet, segment_sizes
from .simkernel import Engine
from .telemetry import EventLog
from .topology import Link, TopologyEvent, TopologyGraph

HOST_PORT = "host"


def group_address(channel: str) -> str:
    return f"g:{channel}"


class StpController:
    """Spanning tree with a fixed reconvergence window.

    The tree roots at the lowest-index node and prefers earlier-inserted
    links, so a primary trunk listed before its backup carries traffic
    whenever it is up.  While any reconvergence window is open, core
    links (both endpoints have at least two physical attachments) stay
    blocked; access links keep forwarding.
    """

    name = "stp"

    def __init__(self, engine: Engine, topo: TopologyGraph, log: EventLog,
                 params):
        self.engine = engine
        self.topo = topo
        self.log = log
        self.params = params
        self.switches: dict[str, IpSwitch] = {}
        self.active: dict[str, bool] = {}
        self._pending = 0
        degree: dict[str, int] = {}
        for phys, (key_ab, _) in topo.physical.items():
            link = topo.links[key_ab]
            degree[link.src] = degree.get(link.src, 0) + 1
            degree[link.dst] = degree.get(link.dst, 0) + 1
        self.core: dict[str, bool] = {}
        for phys, (key_ab, _) in topo.physical.items():
            link = topo.links[key_ab]
            if degree.get(link.src, 0) >= 2 and degree.get(link.dst, 0) >= 2:
                self.core[phys] = True
        self._recompute()

    def add_switch(self, switch: "IpSwitch") -> None:
        self.switches[switch.name] = switch

    def _recompute(self) -> None:
        """Breadth-first tree over up links from the root switch."""
        nodes = self.topo.node_list()
        self.active = {}
        if not nodes:
            return
        root = nodes[0].name
        seen = {root: True}
        queue = [root]
        while queue:
            node = queue.pop(0)
            for link in self.topo.egress(node):
                if not link.up or link.dst in seen:
                    continue
                seen[link.dst] = True
                self.active[link.physical] = True
                queue.append(link.dst)
        self.log.append(self.engine.now, self.name, "stp_tree", root=root,
                        active=sorted(self.active))

    def link_allowed(self, link: Link) -> bool:
        if link.physical not in self.active or not link.up:
            return False
        if self._pending and link.physical in self.core:
            return False
        return True

    def on_topology_event(self, event: TopologyEvent) -> None:
        self.log.append(self.engine.now, self.name, "stp_reconverge",
                        physical=event.physical, up=event.up,
                        window_us=self.params.stp_reconvergence_us)
        self._pending += 1
        self.engine.schedule(self.params.stp_reconvergence_us, self._complete)

    def _complete(self) -> None:
        self._pending -= 1
        if self._pending:
            return
        self._recompute()
        flushed = 0
        for name in self.switches:
            flushed += self.switches[name].flush()
        self.log.append(self.engine.now, self.name, "stp_converged",
                        active=sorted(self.active), flushed_entries=flushed)


class IpSwitch:
    """Learning/snooping switch; one per forwarding node.

    Ports are directed link keys plus a host port per attached device.
    Group membership is tracked per port as an ordered set of device
    names, so a leave prunes exactly one receiver from the tree.
    """

    def __init__(self, name: str, engine: Engine, topo: TopologyGraph,
                 stp: StpController, log: EventLog, params):
        self.name = name
        self.engine = engine
        self.topo = topo
        self.stp = stp
        self.log = log
        self.params = params
        self.hosts: dict[str, object] = {}
        self.mac: dict[str, object] = {}
        # group -> port -> ordered set of member device names
        self.snoop: dict[str, dict] = {}
        stp.add_switch(self)

    def attach_host(self, host_id: str, endpoint) -> None:
        if host_id in self.hosts:
            raise ValueError(f"duplicate host {host_id!r} on {self.name}")
        self.hosts[host_id] = endpoint

    def flush(self) -> int:
        """Reconvergence wipes every learned entry; returns the count."""
        n = len(self.mac) + sum(len(p) for p in self.snoop.values())
        self.mac.clear()
        self.snoop.clear()
        return n

    # -- forwarding ---------------------------------------------------------

    def process(self, packet: Packet, ttl: int, in_link, t: int):
        # the port a packet came in on is the egress link pointing back
        # toward its sender
        if in_link is None:
            port_in = (HOST_PORT, packet.src)
        else:
            port_in = in_link.reverse
        if packet.src:
            self.mac[packet.src] = port_in
        if packet.kind == "igmp":
            return self._process_igmp(packet, in_link, port_in)
        if packet.dst is not None and packet.dst.startswith("g:"):
            return self._process_group(packet, in_link, t)
        return self._process_unicast(packet, in_link, t)

    def _tree_flood(self, in_link) -> list[Link]:
        out = []
        for link in self.topo.egress(self.name):
            if in_link is not None and link.physical == in_link.physical:
                continue
            if self.stp.link_allowed(link):
                out.append(link)
        return out

    def _process_igmp(self, packet: Packet, in_link, port_in):
        ports = self.snoop.setdefault(packet.dst, {})
        members = ports.setdefault(port_in, {})
        if packet.payload == "join":
            members[packet.src] = True
        else:
            members.pop(packet.src, None)
            if not members:
                del ports[port_in]
            if not ports:
                del self.snoop[packet.dst]
        egress = self._tree_flood(in_link)
        # the last switch on the tree consumes the membership report
        return (egress, None, None) if egress else ([], 1, None)

    def _process_group(self, packet: Packet, in_link, t: int):
        ports = self.snoop.get(packet.dst)
        if not ports:
            return [], None, "no_snoop"
        egress = []
        consumers = 0
        t_host = t + self.params.access_latency_us
        for port in ports:
            if isinstance(port, tuple):
                for device in ports[port]:
                    endpoint = self.hosts.get(device)
                    if endpoint is not None:
                        endpoint.on_stream_packet(packet.name, t_host,
                                                  packet.size)
                        consumers += 1
                continue
            link = self.topo.links[port]
            if in_link is not None and link.physical == in_link.physical:
                continue
            if self.stp.link_allowed(link):
                egress.append(link)
        if not egress and consumers == 0:
            return [], None, "blocked"
        return egress, consumers if consumers else None, None

    def _process_unicast(self, packet: Packet, in_link, t: int):
        endpoint = self.hosts.get(packet.dst)
        if endpoint is not None:
            endpoint.on_packet(packet, t)
            return [], 1, None
        port = self.mac.get(packet.dst)
        if isinstance(port, str):
            link = self.topo.links[port]
            if self.stp.link_allowed(link) and (
                    in_link is None or link.physical != in_link.physical):
                return [link], None, None
        egress = self._tree_flood(in_link)
        if not egress:
            return [], None, "no_route"
        return egress, None, None


class DnsDirectory:
    """Static name service: every address of a host, in failover order."""

    def __init__(self):
        self.records: dict[str, list] = {}

    def add(self, hostname: str, addresses) -> None:
        self.records[hostname] = list(addresses)

    def lookup(self, hostname: str) -> list:
        try:
            return self.records[hostname]
        except KeyError:
            raise KeyError(f"no DNS record for {hostname!r}") from None


class IpHttpTransport:
    """Per-client HTTP-over-IP stack with sticky DNS failover.

    Each timed-out fetch counts against the currently selected address;
    after params.dns_attempts_per_address of them the client advances to
    the next address and stays there (no fail-back).
    """

    def __init__(self, client_id: str, node: str, fabric: Fabric,
                 dns: DnsDirectory, engine: Engine, log: EventLog,
                 params):
        self.client_id = client_id
        self.node = node
        self.fabric = fabric
        self.dns = dns
        self.engine = engine
        self.log = log
        self.params = params
        self._addr_idx: dict[str, int] = {}
        self._failures: dict[str, int] = {}
        self._rid = 0
        self._pending: dict[int, list] = {}

    def _address(self, host: str) -> str:
        addresses = self.dns.lookup(host)
        idx = min(self._addr_idx.get(host, 0), len(addresses) - 1)
        return addresses[idx]

    def fetch(self, handle, fetch_id: int, host: str, path: str) -> None:
        self._rid += 1
        rid = self._rid
        self._pending[rid] = [handle, fetch_id, 0, host]
        addr = self._address(host)
        self.engine.schedule(self.params.access_latency_us, self._send, rid,
                             host, path, addr)

    def _send(self, rid: int, host: str, path: str, addr: str) -> None:
        if rid not in self._pending:
            return
        pkt = Packet(pid=self.fabric.next_pid(), kind="request",
                     name=f"{host}{path}", size=self.params.request_bytes,
                     src=self.client_id, dst=addr, payload=(rid, path))
        self.fabric.inject(self.node, pkt)

    def cancel(self, handle, fetch_id: int, host: str, path: str) -> None:
        for rid in list(self._pending):
            ph, pf = self._pending[rid][0], self._pending[rid][1]
            if ph is handle and pf == fetch_id:
                del self._pending[rid]
        failures = self._failures.get(host, 0) + 1
        if failures < self.params.dns_attempts_per_address:
            self._failures[host] = failures
            return
        self._failures[host] = 0
        addresses = self.dns.lookup(host)
        idx = self._addr_idx.get(host, 0) + 1
        if idx >= len(addresses):
            idx = 0
            self.log.append(self.engine.now, self.client_id, "dns_exhausted",
                            host=host)
        else:
            self.log.append(self.engine.now, self.client_id, "dns_failover",
                            host=host, addr=addresses[idx])
        self._addr_idx[host] = idx

    def on_packet(self, packet: Packet, t: int) -> None:
        rid, total, status, meta = packet.payload
        entry = self._pending.get(rid)
        if entry is None:
            return
        entry[2] += packet.size
        if entry[2] < total:
            return
        handle, fetch_id, _, host = entry
        del self._pending[rid]
        self._failures[host] = 0
        self.engine.schedule(self.params.access_latency_us,
                             handle.on_response, fetch_id, status, total, meta)


class IpServerEndpoint:
    """Server host: answers request packets with segmented responses."""

    def __init__(self, server, host_id: str, node: str, fabric: Fabric,
                 engine: Engine, params):
        self.server = server
        self.host_id = host_id
        self.node = node
        self.fabric = fabric
        self.engine = engine
        self.params = params

    def on_packet(self, packet: Packet, t: int) -> None:
        rid, path = packet.payload
        self.engine.schedule(
            self.params.access_latency_us, self.server.handle_request, path,
            lambda status, size, kind, meta:
                self._reply(packet, rid, status, size, kind, meta))

    def _reply(self, request: Packet, rid: int, status: int, size: int,
               kind: str, meta) -> None:
        # every segment of the response shares the request's name and one
        # payload
        payload = (rid, size, status, meta)
        for seg in segment_sizes(size, self.params.mtu):
            pkt = Packet(pid=self.fabric.next_pid(), kind=kind,
                         name=request.name, size=seg,
                         src=self.host_id, dst=request.src,
                         payload=payload)
            self.fabric.inject(self.node, pkt)


class IpIgmpAdapter:
    """Set-top-box membership reports as flooded packets."""

    def __init__(self, node: str, fabric: Fabric, engine: Engine, params):
        self.node = node
        self.fabric = fabric
        self.engine = engine
        self.params = params

    def act(self, stb, action: str, channel: str) -> None:
        self.engine.schedule(self.params.access_latency_us, self._send,
                             stb.name, action, channel)

    def _send(self, stb_name: str, action: str, channel: str) -> None:
        group = group_address(channel)
        pkt = Packet(pid=self.fabric.next_pid(), kind="igmp", name=group,
                     size=self.params.igmp_bytes, src=stb_name, dst=group,
                     payload=action)
        self.fabric.inject(self.node, pkt)


class IpStreamSender:
    """Head-end feed: emits group-addressed packets at its switch."""

    def __init__(self, source_id: str, node: str, fabric: Fabric):
        self.source_id = source_id
        self.node = node
        self.fabric = fabric

    def send_stream(self, channel: str, size: int) -> None:
        group = group_address(channel)
        pkt = Packet(pid=self.fabric.next_pid(), kind="stream", name=group,
                     size=size, src=self.source_id, dst=group)
        self.fabric.inject(self.node, pkt)
