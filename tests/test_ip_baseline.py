"""IP data plane: spanning tree, snooping switches, DNS failover."""

from conftest import PARAMS
from icnsim.fabric import Fabric, Packet
from icnsim.ip_baseline import (DnsDirectory, IpHttpTransport, IpIgmpAdapter,
                                IpServerEndpoint, IpStreamSender, IpSwitch,
                                StpController, group_address)
from icnsim.simkernel import Engine
from icnsim.telemetry import EventLog, Telemetry, drops_by_reason
from icnsim.topology import TopologyGraph


class RecordingHost:
    """Attached device that records stream packets and unicast arrivals."""

    def __init__(self, name):
        self.name = name
        self.streams = []
        self.packets = []

    def on_stream_packet(self, name, t, size):
        self.streams.append((t, name, size))

    def on_packet(self, packet, t):
        self.packets.append((t, packet))


class StubServer:
    def __init__(self, engine, size=3000):
        self.engine = engine
        self.size = size
        self.calls = []

    def handle_request(self, path, reply):
        self.calls.append((self.engine.now, path))
        self.engine.schedule(2_000, reply, 200, self.size, "chunk", None)


class StubFetchHandle:
    def __init__(self):
        self.responses = []

    def on_response(self, fetch_id, status, size, meta):
        self.responses.append((fetch_id, status, size))


def ip_world(topo, reconvergence_us=100_000):
    engine = Engine()
    log = EventLog()
    fabric = Fabric(engine, topo, log, Telemetry(True), PARAMS)
    stp = StpController(engine, topo, log, PARAMS._replace(
        stp_reconvergence_us=reconvergence_us))
    switches = {}
    for node in topo.node_list():
        switch = IpSwitch(node.name, engine, topo, stp, log, PARAMS)
        switches[node.name] = switch
        fabric.add_handler(node.name, switch)
    fabric.add_topology_listener(stp.on_topology_event)
    return engine, log, fabric, stp, switches


def redundant_pair():
    """Two switches joined by a primary and a backup trunk."""
    topo = TopologyGraph()
    topo.add_node("sw_a", "fn")
    topo.add_node("sw_b", "fn")
    topo.add_link("tp", "sw_a", "sw_b", 1_000_000_000, 100)
    topo.add_link("tb", "sw_a", "sw_b", 1_000_000_000, 100)
    return topo


def star():
    """Hub with three single-attached edge switches."""
    topo = TopologyGraph()
    for name in ("swm", "swl", "swr", "swx"):
        topo.add_node(name, "fn")
    topo.add_link("al", "swm", "swl", 1_000_000_000, 100)
    topo.add_link("ar", "swm", "swr", 1_000_000_000, 100)
    topo.add_link("ax", "swm", "swx", 1_000_000_000, 100)
    return topo


def test_tree_prefers_earlier_inserted_trunk():
    topo = redundant_pair()
    engine, log, fabric, stp, switches = ip_world(topo)
    assert sorted(stp.active) == ["tp"]
    assert stp.link_allowed(topo.links["tp:sw_a->sw_b"])
    assert not stp.link_allowed(topo.links["tb:sw_a->sw_b"])


def stp_windows(log):
    """Opened and completed reconvergence windows, in log order."""
    return [r["ev"] for r in log
            if r["ev"] in ("stp_reconverge", "stp_converged")]


def test_tree_recomputes_after_reconvergence_window():
    topo = redundant_pair()
    engine, log, fabric, stp, switches = ip_world(topo)
    stp.on_topology_event(topo.set_link_state("tp", False, 0))
    assert stp_windows(log) == ["stp_reconverge"]  # window open
    assert sorted(stp.active) == ["tp"]  # old tree until the window closes
    engine.run_until(200_000)
    assert stp_windows(log) == ["stp_reconverge", "stp_converged"]
    assert sorted(stp.active) == ["tb"]
    assert stp.link_allowed(topo.links["tb:sw_a->sw_b"])


def test_core_links_block_during_reconvergence_access_links_do_not():
    topo = TopologyGraph()
    for name in ("sw1", "sw2", "leaf"):
        topo.add_node(name, "fn")
    topo.add_link("t1", "sw1", "sw2", 1_000_000_000, 100)
    topo.add_link("t2", "sw1", "sw2", 1_000_000_000, 100)
    topo.add_link("acc", "sw2", "leaf", 1_000_000_000, 100)
    engine, log, fabric, stp, switches = ip_world(topo)
    assert sorted(stp.core) == ["t1", "t2"]
    stp.on_topology_event(topo.set_link_state("t1", False, 0))
    assert not stp.link_allowed(topo.links["t2:sw1->sw2"])  # core, blocked
    assert stp.link_allowed(topo.links["acc:sw2->leaf"])  # access, open
    engine.run_until(200_000)
    assert stp.link_allowed(topo.links["t2:sw1->sw2"])


def test_snooped_group_reaches_only_members():
    topo = star()
    engine, log, fabric, stp, switches = ip_world(topo)
    stb = RecordingHost("stb1")
    switches["swl"].attach_host("stb1", stb)
    adapter = IpIgmpAdapter("swl", fabric, engine, PARAMS)
    sender = IpStreamSender("src1", "swr", fabric)
    engine.schedule_at(1_000, adapter.act, stb, "join", "ch1")
    engine.schedule_at(10_000, sender.send_stream, "ch1", 1400)
    engine.run_until(1_000_000)
    assert len(stb.streams) == 1
    # the stream crossed hub and member leg only, never the idle leg
    stream_links = {r["link"] for r in log
                    if r["ev"] == "pkt_fwd" and r["kind"] == "stream"}
    assert stream_links == {"ar:swr->swm", "al:swm->swl"}
    # every membership report is consumed at the tree edge, never dropped
    igmp_drops = [r for r in log if r["ev"] == "pkt_drop"
                  and r["kind"] == "igmp"]
    assert igmp_drops == []


def test_leave_prunes_single_receiver():
    topo = star()
    engine, log, fabric, stp, switches = ip_world(topo)
    stb1, stb2 = RecordingHost("stb1"), RecordingHost("stb2")
    switches["swl"].attach_host("stb1", stb1)
    switches["swx"].attach_host("stb2", stb2)
    adapter1 = IpIgmpAdapter("swl", fabric, engine, PARAMS)
    adapter2 = IpIgmpAdapter("swx", fabric, engine, PARAMS)
    sender = IpStreamSender("src1", "swr", fabric)
    engine.schedule_at(1_000, adapter1.act, stb1, "join", "ch1")
    engine.schedule_at(2_000, adapter2.act, stb2, "join", "ch1")
    engine.schedule_at(10_000, sender.send_stream, "ch1", 1400)
    engine.schedule_at(20_000, adapter1.act, stb1, "leave", "ch1")
    engine.schedule_at(30_000, sender.send_stream, "ch1", 1400)
    engine.run_until(1_000_000)
    assert len(stb1.streams) == 1  # pruned before the second packet
    assert len(stb2.streams) == 2
    # the host port is gone; the uplink entry learned from stb2's flooded
    # report stays, which is harmless because traffic arrives on it
    ports = switches["swl"].snoop[group_address("ch1")]
    assert ("host", "stb1") not in ports


def test_stream_without_members_drops_at_ingress():
    topo = star()
    engine, log, fabric, stp, switches = ip_world(topo)
    sender = IpStreamSender("src1", "swr", fabric)
    engine.schedule_at(1_000, sender.send_stream, "ch1", 1400)
    engine.run_until(1_000_000)
    assert drops_by_reason(log) == {"no_snoop": 1}


def test_unicast_floods_until_reverse_path_learned():
    topo = star()
    engine, log, fabric, stp, switches = ip_world(topo)
    dns = DnsDirectory()
    dns.add("video.test", ["s1"])
    server = StubServer(engine)
    endpoint = IpServerEndpoint(server, "s1", "swr", fabric, engine, PARAMS)
    switches["swr"].attach_host("s1", endpoint)
    transport = IpHttpTransport("c1", "swl", fabric, dns, engine, log, PARAMS)
    switches["swl"].attach_host("c1", transport)
    handle = StubFetchHandle()
    engine.schedule_at(1_000, transport.fetch, handle, 1, "video.test",
                       "/x")
    engine.run_until(1_000_000)
    assert handle.responses == [(1, 200, 3000)]
    # the request floods both remote legs; only one copy finds the server
    request_links = [r["link"] for r in log
                     if r["ev"] == "pkt_fwd" and r["kind"] == "request"]
    assert sorted(request_links) == ["al:swl->swm", "ar:swm->swr",
                                     "ax:swm->swx"]
    assert drops_by_reason(log) == {"no_route": 1}
    # responses ride the learned reverse path, never the idle leg
    response_links = {r["link"] for r in log
                      if r["ev"] == "pkt_fwd" and r["kind"] == "chunk"}
    assert response_links == {"ar:swr->swm", "al:swm->swl"}


def test_segments_of_one_response_share_name_and_payload():
    """_reply builds a response's name and payload once; every segment
    carries the same two objects."""
    topo = star()
    engine, log, fabric, stp, switches = ip_world(topo)
    endpoint = IpServerEndpoint(StubServer(engine, size=5000), "s1", "swr",
                                fabric, engine, PARAMS)
    switches["swr"].attach_host("s1", endpoint)
    client = RecordingHost("c1")
    switches["swl"].attach_host("c1", client)
    request = Packet(pid=fabric.next_pid(), kind="request",
                     name="video.test/x", size=PARAMS.request_bytes,
                     src="c1", dst="s1", payload=(1, "/x"))
    engine.schedule_at(1_000, endpoint.on_packet, request, 1_000)
    engine.run_until(1_000_000)
    segments = [p for _, p in client.packets]
    assert [p.size for p in segments] == [1400, 1400, 1400, 800]
    assert len({p.pid for p in segments}) == 4
    assert segments[0].name == "video.test/x"
    assert len({id(p.name) for p in segments}) == 1
    assert len({id(p.payload) for p in segments}) == 1


def test_dns_failover_is_sticky_and_budgeted():
    topo = star()
    engine, log, fabric, stp, switches = ip_world(topo)
    dns = DnsDirectory()
    dns.add("video.test", ["primary", "surrogate"])
    transport = IpHttpTransport("c1", "swl", fabric, dns, engine, log, PARAMS)
    handle = StubFetchHandle()
    assert transport._address("video.test") == "primary"
    # one timeout stays on the primary; the second advances
    transport.fetch(handle, 1, "video.test", "/x")
    transport.cancel(handle, 1, "video.test", "/x")
    assert transport._address("video.test") == "primary"
    transport.fetch(handle, 2, "video.test", "/x")
    transport.cancel(handle, 2, "video.test", "/x")
    assert transport._address("video.test") == "surrogate"
    failovers = [r for r in log if r["ev"] == "dns_failover"]
    assert len(failovers) == 1 and failovers[0]["addr"] == "surrogate"
    # success resets the failure budget but never fails back
    transport.fetch(handle, 3, "video.test", "/x")
    rid = max(transport._pending)
    transport.on_packet(Packet(pid=1, kind="chunk", name="video.test/x",
                               size=500, src="surrogate",
                               dst="c1",
                               payload=(rid, 500, 200, None)),
                        engine.now)
    assert transport._failures["video.test"] == 0
    assert transport._address("video.test") == "surrogate"
    # two more timeouts wrap the rotation back to the first address
    transport.fetch(handle, 4, "video.test", "/x")
    transport.cancel(handle, 4, "video.test", "/x")
    transport.fetch(handle, 5, "video.test", "/x")
    transport.cancel(handle, 5, "video.test", "/x")
    assert [r["ev"] for r in log
            if r["ev"] in ("dns_failover", "dns_exhausted")] \
        == ["dns_failover", "dns_exhausted"]
    assert transport._address("video.test") == "primary"


def test_trunk_failure_needs_reconvergence_and_reannouncement():
    """Stream delivery pauses from link failure until the tree reconverges
    and the receiver re-announces membership."""
    topo = redundant_pair()
    engine, log, fabric, stp, switches = ip_world(topo)
    stb = RecordingHost("stb1")
    switches["sw_b"].attach_host("stb1", stb)
    adapter = IpIgmpAdapter("sw_b", fabric, engine, PARAMS)
    sender = IpStreamSender("src1", "sw_a", fabric)

    engine.schedule_at(0, adapter.act, stb, "join", "ch1")

    def emit():
        if engine.now < 150_000:
            sender.send_stream("ch1", 1400)
            engine.schedule(5_600, emit)

    engine.schedule_at(2_000, emit)
    engine.schedule_at(20_000, fabric.set_link_state, "tp", False)
    engine.schedule_at(139_000, adapter.act, stb, "join", "ch1")
    engine.run_until(300_000)

    arrivals = [t for t, _, _ in stb.streams]
    assert arrivals[0] < 20_000
    gap_start = max(t for t in arrivals if t < 20_000)
    gap_end = min(t for t in arrivals if t > 20_000)
    # silent until the window closed (at 130 ms) and the join re-flooded
    assert gap_end > 140_000
    assert gap_end - gap_start > 100_000
    reasons = drops_by_reason(log)
    assert reasons["blocked"] > 0  # snooped port dead or core frozen
    assert reasons["no_snoop"] > 0  # tables flushed at convergence
    converged = [r for r in log if r["ev"] == "stp_converged"]
    assert len(converged) == 1
    assert converged[0]["flushed_entries"] > 0
    assert converged[0]["active"] == ["tb"]
    # traffic after recovery rides the backup trunk
    late_links = {r["link"] for r in log
                  if r["ev"] == "pkt_fwd" and r["kind"] == "stream"
                  and r["t"] > 140_000}
    assert late_links == {"tb:sw_a->sw_b"}


def test_switch_flush_counts_learned_state():
    topo = star()
    engine, log, fabric, stp, switches = ip_world(topo)
    stb = RecordingHost("stb1")
    switches["swl"].attach_host("stb1", stb)
    adapter = IpIgmpAdapter("swl", fabric, engine, PARAMS)
    engine.schedule_at(1_000, adapter.act, stb, "join", "ch1")
    engine.run_until(100_000)
    hub = switches["swm"]
    assert hub.mac["stb1"] == "al:swm->swl"
    assert group_address("ch1") in hub.snoop
    assert hub.flush() == 2
    assert hub.mac == {} and hub.snoop == {}
