"""Data plane: serialization timing, queueing, loss, byte conservation."""

import random
import tracemalloc

import pytest

from conftest import PARAMS
from icnsim.fabric import Fabric, FidNode, Packet, trace_delivery
from icnsim.fid import (FID, FidConfig, assign_link_ids, encode_path,
                        should_forward, zero_fid)
from icnsim.simkernel import Engine
from icnsim.telemetry import EventLog, Telemetry, conservation_from_events
from icnsim.topology import TopologyGraph


class RecordingSink:
    """Terminal consumer usable as a node handler or as a gateway sink."""

    def __init__(self, consumers=1):
        self.consumers = consumers
        self.arrivals = []

    def consume(self, packet, t):
        self.arrivals.append((t, packet.pid))
        return self.consumers

    def process(self, packet, ttl, in_link, t):
        return [], self.consume(packet, t), None


class StaticForwarder:
    """Forwards every packet on a fixed link list (ignores the FID)."""

    def __init__(self, links):
        self.links = links

    def process(self, packet, ttl, in_link, t):
        up = [l for l in self.links if l.up]
        if not up:
            return [], None, "no_egress"
        return up, None, None


def chain_topology(capacity_bps=8_000_000, latency_us=500):
    topo = TopologyGraph()
    for name in ("a", "b", "c"):
        topo.add_node(name, "fn")
    topo.add_link("ab", "a", "b", capacity_bps, latency_us)
    topo.add_link("bc", "b", "c", capacity_bps, latency_us)
    return topo


def make_fabric(topo, **params):
    engine = Engine()
    log = EventLog()
    fabric = Fabric(engine, topo, log, Telemetry(True),
                    PARAMS._replace(**params))
    return engine, log, fabric


def wire_exact(topo, fabric, sink_node=None, sink=None):
    lids = assign_link_ids(
        topo, FidConfig(m=len(topo.links), k=5, mode="exact"), 1)
    for name in topo.nodes:
        cb = sink if name == sink_node else None
        fabric.add_handler(name, FidNode(name, topo.egress(name), lids, sink=cb))
    return lids


def fid_for(lids, keys, m):
    return encode_path([lids[k] for k in keys], width=m)


def packet(fabric, fid=None, size=1000, kind="chunk", **kw):
    return Packet(pid=fabric.next_pid(), kind=kind, name="x", size=size,
                  fid=fid, **kw)


def test_transmission_time_integer_ceiling():
    # 1000 bytes at 8 Mb/s is exactly 1 ms on the wire
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo)
    sink = RecordingSink()
    lids = wire_exact(topo, fabric, "c", sink.consume)
    fid = fid_for(lids, ["ab:a->b", "bc:b->c"], len(topo.links))
    fabric.inject("a", packet(fabric, fid))
    engine.run_until(10_000_000)
    fwd = [r for r in log if r["ev"] == "pkt_fwd"]
    assert [r["link"] for r in fwd] == ["ab:a->b", "bc:b->c"]
    assert fwd[0]["start"] == 0 and fwd[0]["arrive"] == 1500
    assert fwd[1]["start"] == 1500 and fwd[1]["arrive"] == 3000
    assert sink.arrivals == [(3000, 0)]


def test_transmission_time_rounds_up():
    topo = TopologyGraph()
    topo.add_node("a", "fn")
    topo.add_node("b", "fn")
    topo.add_link("ab", "a", "b", 3, 0)  # 3 bit/s: 1 byte is ceil(8e6/3) us
    engine, log, fabric = make_fabric(topo)
    sink = RecordingSink()
    fabric.add_handler("a", StaticForwarder(topo.egress("a")))
    fabric.add_handler("b", sink)
    fabric.inject("a", packet(fabric, size=1))
    engine.run_until(10_000_000)
    assert sink.arrivals[0][0] == (8_000_000 + 2) // 3


def test_serialization_queue_backlog():
    """Back-to-back packets share the link one at a time."""
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo)
    sink = RecordingSink()
    fabric.add_handler("a", StaticForwarder(topo.egress("a")))
    fabric.add_handler("b", sink)
    for _ in range(3):
        fabric.inject("a", packet(fabric))
    engine.run_until(10_000_000)
    fwd = [r for r in log if r["ev"] == "pkt_fwd"]
    assert [r["start"] for r in fwd] == [0, 1000, 2000]
    assert [t for t, _ in sink.arrivals] == [1500, 2500, 3500]


def test_queue_cap_drops_excess():
    # the in-service packet counts toward the cap: 2500 bytes admit two
    # 1000-byte packets and reject the third
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo, queue_cap_bytes=2500)
    sink = RecordingSink()
    fabric.add_handler("a", StaticForwarder(topo.egress("a")))
    fabric.add_handler("b", sink)
    for _ in range(3):
        fabric.inject("a", packet(fabric))
    engine.run_until(10_000_000)
    drops = [r for r in log if r["ev"] == "pkt_drop"]
    assert len(drops) == 1 and drops[0]["reason"] == "queue_cap"
    assert len(sink.arrivals) == 2
    assert conservation_from_events(log)["balanced"]


def test_packet_over_the_cap_is_dropped_on_an_idle_link():
    """The backlog of an idle link counts as zero, never as negative: a
    packet larger than the cap is dropped even when the link has been
    idle for a long time, and one exactly at the cap is sent."""
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo, queue_cap_bytes=1000)
    sink = RecordingSink()
    fabric.add_handler("a", StaticForwarder(topo.egress("a")))
    fabric.add_handler("b", sink)
    fabric.inject("a", packet(fabric, size=1001))
    fabric.inject("a", packet(fabric, size=1000))
    # the link is busy until 1000 us; at 50 ms it has long been idle
    engine.schedule_at(50_000, fabric.inject, "a", packet(fabric, size=1001))
    engine.run_until(1_000_000)
    drops = [(r["t"], r["pid"], r["reason"]) for r in log
             if r["ev"] == "pkt_drop"]
    assert drops == [(0, 0, "queue_cap"), (50_000, 2, "queue_cap")]
    assert [r["pid"] for r in log if r["ev"] == "pkt_fwd"] == [1]
    assert sink.arrivals == [(1500, 1)]
    assert conservation_from_events(log)["balanced"]


def test_packet_lost_when_link_fails_mid_flight():
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo)
    sink = RecordingSink()
    fabric.add_handler("a", StaticForwarder(topo.egress("a")))
    fabric.add_handler("b", sink)
    fabric.inject("a", packet(fabric))
    engine.schedule(700, fabric.set_link_state, "ab", False)
    engine.run_until(10_000_000)
    drops = [r for r in log if r["ev"] == "pkt_drop"]
    assert len(drops) == 1 and drops[0]["reason"] == "link_down"
    assert sink.arrivals == []
    assert conservation_from_events(log)["balanced"]


def test_packet_lost_when_link_bounces_mid_flight():
    """Down-then-up while on the wire still loses the packet."""
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo)
    sink = RecordingSink()
    fabric.add_handler("a", StaticForwarder(topo.egress("a")))
    fabric.add_handler("b", sink)
    fabric.inject("a", packet(fabric))
    engine.schedule(600, fabric.set_link_state, "ab", False)
    engine.schedule(700, fabric.set_link_state, "ab", True)
    engine.run_until(10_000_000)
    assert sink.arrivals == []
    assert [r["reason"] for r in log if r["ev"] == "pkt_drop"] == ["link_down"]


@pytest.mark.parametrize("up_at, delivered", [(1000, True), (1001, False)])
def test_queued_copy_judged_by_when_it_went_on_the_wire(up_at, delivered):
    """A copy queued behind another goes on the wire at 1000 us, after it
    was sent at 0.  The link fails at 200 us: a restore at that start
    loses only the first copy; a restore 1 us later loses both."""
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo)
    sink = RecordingSink()
    fabric.add_handler("a", StaticForwarder(topo.egress("a")))
    fabric.add_handler("b", sink)
    fabric.inject("a", packet(fabric))
    fabric.inject("a", packet(fabric))
    engine.schedule(200, fabric.set_link_state, "ab", False)
    engine.schedule(up_at, fabric.set_link_state, "ab", True)
    engine.run_until(10_000_000)
    assert [r["start"] for r in log if r["ev"] == "pkt_fwd"] == [0, 1000]
    drops = [(r["t"], r["pid"], r["reason"]) for r in log
             if r["ev"] == "pkt_drop"]
    if delivered:
        assert sink.arrivals == [(2500, 1)]
        assert drops == [(1500, 0, "link_down")]
    else:
        assert sink.arrivals == []
        assert drops == [(1500, 0, "link_down"), (2500, 1, "link_down")]
    assert conservation_from_events(log)["balanced"]


def test_ttl_stops_forwarding_loops():
    topo = TopologyGraph()
    topo.add_node("a", "fn")
    topo.add_node("b", "fn")
    topo.add_link("ab", "a", "b", 1_000_000_000, 10)
    engine, log, fabric = make_fabric(topo, ttl=8)
    fabric.add_handler("a", StaticForwarder(topo.egress("a")))
    fabric.add_handler("b", StaticForwarder(topo.egress("b")))
    fabric.inject("a", packet(fabric))
    engine.run_until(10_000_000)
    drops = [r for r in log if r["ev"] == "pkt_drop"]
    assert [r["reason"] for r in drops] == ["ttl_exceeded"]
    fwd = [r for r in log if r["ev"] == "pkt_fwd"]
    assert len(fwd) == 8
    assert conservation_from_events(log)["balanced"]


def test_branch_surplus_accounts_every_copy():
    """A fan-out logs surplus copies so conservation stays exact."""
    topo = TopologyGraph()
    for name in ("root", "left", "right"):
        topo.add_node(name, "fn")
    topo.add_link("l1", "root", "left", 1_000_000_000, 10)
    topo.add_link("l2", "root", "right", 1_000_000_000, 10)
    engine, log, fabric = make_fabric(topo)
    left, right = RecordingSink(), RecordingSink()
    lids = assign_link_ids(
        topo, FidConfig(m=len(topo.links), k=5, mode="exact"), 1)
    fabric.add_handler("root", FidNode("root", topo.egress("root"), lids))
    fabric.add_handler("left", FidNode("left", topo.egress("left"), lids,
                                       sink=left.consume))
    fabric.add_handler("right", FidNode("right", topo.egress("right"), lids,
                                        sink=right.consume))
    fid = fid_for(lids, ["l1:root->left", "l2:root->right"], len(topo.links))
    fabric.inject("root", packet(fabric, fid, size=700))
    engine.run_until(1_000_000)
    branches = [r for r in log if r["ev"] == "pkt_branch"]
    assert len(branches) == 1 and branches[0]["extra"] == 1
    cons = conservation_from_events(log)
    assert cons["balanced"]
    assert cons["injected_bytes"] == 700
    assert cons["branch_extra_bytes"] == 700
    assert cons["delivered_bytes"] == 1400


def test_local_tap_plus_forwarding_counts_both_copies():
    """A gateway that consumes and forwards creates one extra copy."""
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo)
    tap, end = RecordingSink(), RecordingSink()
    lids = assign_link_ids(
        topo, FidConfig(m=len(topo.links), k=5, mode="exact"), 1)
    fabric.add_handler("a", FidNode("a", topo.egress("a"), lids))
    fabric.add_handler("b", FidNode("b", topo.egress("b"), lids,
                                    sink=tap.consume))
    fabric.add_handler("c", FidNode("c", topo.egress("c"), lids,
                                    sink=end.consume))
    fid = fid_for(lids, ["ab:a->b", "bc:b->c"], len(topo.links))
    fabric.inject("a", packet(fabric, fid, size=500))
    engine.run_until(1_000_000)
    assert len(tap.arrivals) == 1 and len(end.arrivals) == 1
    branches = [r for r in log if r["ev"] == "pkt_branch"]
    assert [r["extra"] for r in branches] == [1]
    cons = conservation_from_events(log)
    assert cons["balanced"]
    assert cons["delivered_pkts"] == 2


def test_zero_fid_dropped_at_source_never_spurious():
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo)
    lids = wire_exact(topo, fabric)
    fabric.inject("a", packet(fabric, zero_fid(len(topo.links))))
    engine.run_until(1_000_000)
    drops = [r for r in log if r["ev"] == "pkt_drop"]
    assert [r["reason"] for r in drops] == ["zero_fid"]
    assert not any(r["ev"] == "pkt_deliver" for r in log)


def test_spurious_delivery_flagged():
    """A sink that recognizes nobody still terminates the packet."""
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo)
    nobody = RecordingSink(consumers=0)
    lids = wire_exact(topo, fabric, "b", nobody.consume)
    fabric.inject("a", packet(fabric, fid_for(lids, ["ab:a->b"], len(topo.links))))
    engine.run_until(1_000_000)
    deliveries = [r for r in log if r["ev"] == "pkt_deliver"]
    assert len(deliveries) == 1
    assert deliveries[0]["spurious"] is True
    assert deliveries[0]["consumers"] == 0


def test_listeners_hear_link_events_after_detection_delay():
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo, detection_delay_us=10_000)
    heard = []
    fabric.add_topology_listener(lambda ev: heard.append((engine.now, ev.physical,
                                                          ev.up)))
    engine.schedule(500, fabric.set_link_state, "ab", False)
    engine.run_until(1_000_000)
    assert heard == [(10_500, "ab", False)]
    assert topo.epoch == 1


def test_flush_counters_match_event_log():
    # 250 bytes take 250 us at 8 Mb/s, so a burst of four queues behind
    # itself; a 750-byte cap admits three; a later packet finds the link
    # idle; a packet with no egress at c adds a drop at a second node
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo, queue_cap_bytes=750)
    sink = RecordingSink()
    fabric.add_handler("a", StaticForwarder(topo.egress("a")))
    fabric.add_handler("b", sink)
    fabric.add_handler("c", StaticForwarder([]))
    for _ in range(4):
        fabric.inject("a", packet(fabric, size=250))
    engine.schedule_at(10_000, fabric.inject, "a", packet(fabric, size=250))
    fabric.inject("c", packet(fabric))
    engine.run_until(1_000_000)
    fabric.flush_counters()
    samples = {(s["el"], s["metric"]): s["value"]
               for s in fabric.telemetry.samples}
    expected = {}
    for r in log:
        if r["ev"] == "pkt_fwd":
            for metric, value in (("tx_bytes", r["size"]), ("tx_pkts", 1)):
                key = (r["link"], metric)
                expected[key] = expected.get(key, 0) + value
            if r["start"] > r["t"]:
                key = (r["link"], "queue_peak_us")
                expected[key] = max(expected.get(key, 0), r["start"] - r["t"])
        elif r["ev"] == "pkt_drop":
            expected[(r["el"], "drops")] = expected.get((r["el"], "drops"), 0) + 1
    assert samples == expected == {
        ("ab:a->b", "tx_bytes"): 1000, ("ab:a->b", "tx_pkts"): 4,
        ("ab:a->b", "queue_peak_us"): 500,
        ("a", "drops"): 1, ("c", "drops"): 1}


def test_trace_delivery_reports_dead_ends():
    topo = chain_topology()
    lids = assign_link_ids(
        topo, FidConfig(m=len(topo.links), k=5, mode="exact"), 1)
    fid = encode_path([lids["ab:a->b"], lids["bc:b->c"]], width=len(topo.links))
    trace = trace_delivery(topo, lids, fid, "a", ttl=64, sinks={"c"})
    assert trace.sink_nodes == {"c"}
    assert trace.dead_ends == set()
    # without c as a recognized sink the same walk is a dead end
    trace2 = trace_delivery(topo, lids, fid, "a", ttl=64, sinks=set())
    assert trace2.dead_ends == {"c"}


def test_fid_covering_a_link_and_its_reverse_never_bounces_back():
    """A Bloom identifier can cover a link and its reverse; a copy must
    still never leave on the reverse of the link it arrived on, in the
    data plane and in the reference walk alike."""
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo)
    sink = RecordingSink()
    lids = wire_exact(topo, fabric, "c", sink.consume)
    fid = fid_for(lids, ["ab:a->b", "ab:b->a", "bc:b->c", "bc:c->b"],
                  len(topo.links))
    fabric.inject("a", packet(fabric, fid))
    engine.run_until(10_000_000)
    assert [r["link"] for r in log if r["ev"] == "pkt_fwd"] == [
        "ab:a->b", "bc:b->c"]
    assert [r for r in log if r["ev"] in ("pkt_drop", "pkt_branch")] == []
    assert sink.arrivals == [(3000, 0)]
    assert conservation_from_events(log)["balanced"]
    trace = trace_delivery(topo, lids, fid, "a", ttl=64, sinks={"c"})
    assert trace.links_used == {"ab:a->b", "bc:b->c"}
    assert trace.hops == 2
    assert trace.sink_nodes == {"c"} and trace.dead_ends == set()


def test_copy_arriving_at_the_horizon_is_delivered_not_undrained():
    """The run executes every event at the horizon itself, so only a copy
    whose pkt_fwd arrives after the horizon counts as undrained."""
    topo = chain_topology()
    engine, log, fabric = make_fabric(topo)
    sink = RecordingSink()
    lids = wire_exact(topo, fabric, "c", sink.consume)
    fid = fid_for(lids, ["ab:a->b", "bc:b->c"], len(topo.links))
    fabric.inject("a", packet(fabric, fid))
    # 1 ms on the wire plus 0.5 ms latency per hop: at b at 1500 us, at c
    # at 3000 us
    engine.run_until(1_500)
    cons = conservation_from_events(log, 1_500)
    assert cons["undrained_bytes"] == 1000 and cons["balanced"]
    engine.run_until(2_999)
    cons = conservation_from_events(log, 2_999)
    assert cons["undrained_bytes"] == cons["in_flight_bytes"] == 1000
    assert cons["balanced"]
    # without a horizon nothing may be left on a link
    assert not conservation_from_events(log)["balanced"]
    engine.run_until(3_000)
    assert sink.arrivals == [(3_000, 0)]
    cons = conservation_from_events(log, 3_000)
    assert cons["undrained_bytes"] == cons["in_flight_bytes"] == 0
    assert cons["balanced"] and conservation_from_events(log)["balanced"]


class _NoLog:
    """A log that keeps nothing, so only the queued copies are measured."""

    def write(self, *values):
        pass


def test_queued_copy_costs_one_flat_heap_entry():
    """Copies of one packet queued behind each other on a slow link hold
    one flat heap entry each, (key, fabric._arrival, link, packet, ttl):
    one int key, no args tuple, no bound method made per copy, no stored
    start and no fabric.  Traced bytes per pending copy (Python 3.11):
    about 319 with a separate args tuple and a bound _arrive per copy,
    about 215 with (time, seq, Fabric._arrive, fabric, ..., start), and
    about 124 now (less in a long session, whose tuple free list is
    warm)."""
    topo = TopologyGraph()
    topo.add_node("a", "fn")
    topo.add_node("b", "fn")
    topo.add_link("ab", "a", "b", 1_000, 0)
    engine = Engine()
    fabric = Fabric(engine, topo, _NoLog(), Telemetry(True), PARAMS)
    fabric.add_handler("a", StaticForwarder(topo.egress("a")))
    pkt = Packet(pid=0, kind="chunk", name="x", size=1400)
    fabric.inject("a", pkt)
    copies = 4_000
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for _ in range(copies):
            fabric.inject("a", pkt)
        per_copy = (tracemalloc.get_traced_memory()[0] - before) / copies
    finally:
        tracemalloc.stop()
    assert engine.pending() == copies + 1
    assert 90 < per_copy < 140


@pytest.mark.parametrize("mode", ["exact", "bloom"])
def test_forwarding_decision_matches_the_reference_rule(topo_factory, mode):
    """On random topologies with random links down, for every node and
    every arrival link, FidNode picks exactly the up links the FID covers,
    minus the reverse of the arrival link, in link order: the rule that
    trace_delivery walks.  An all-zeros FID is dropped as zero_fid."""
    rng = random.Random(f"forwarding-{mode}")
    checked = chosen = 0
    for _ in range(40):
        topo = topo_factory(rng, max_nodes=12, extra_links=6)
        m = len(topo.links) if mode == "exact" else rng.choice((8, 16, 32))
        lids = assign_link_ids(topo, FidConfig(m=m, k=3, mode=mode),
                               rng.randrange(1 << 30))
        for physical in rng.sample(sorted(topo.physical),
                                   rng.randint(0, len(topo.physical) // 2)):
            topo.set_link_state(physical, False, 0)
        keys = topo.sorted_link_keys()
        fids = [zero_fid(m), FID(rng.randrange(1 << m), m)]
        fids += [encode_path([lids[k] for k in rng.sample(keys, n)], width=m)
                 for n in (1, 2, len(keys) // 2, len(keys))]
        for name in topo.nodes:
            egress = topo.egress(name)
            node = FidNode(name, egress, lids)
            arrivals = [None] + [l for l in topo.links.values()
                                 if l.dst == name]
            for fid in fids:
                pkt = Packet(pid=0, kind="chunk", name="x", size=1, fid=fid)
                for in_link in arrivals:
                    back = in_link.reverse if in_link is not None else None
                    expected = [l for l in egress if l.up and l.key != back
                                and should_forward(fid, lids[l.key])]
                    got, consumers, reason = node.process(pkt, 8, in_link, 0)
                    assert got == expected
                    assert consumers is None
                    if fid.bits == 0:
                        assert reason == "zero_fid"
                    else:
                        assert reason == (None if got else "no_egress")
                    checked += 1
                    chosen += len(got)
    assert checked > 1000 and chosen > 0
