"""Gateways: request coalescing, response demux, membership handling."""

from conftest import PARAMS
from icnsim.fabric import Fabric, FidNode
from icnsim.fid import FidConfig, assign_link_ids
from icnsim.nap import Nap, channel_name, http_name, http_scope, scope_key
from icnsim.pce import Pce
from icnsim.simkernel import Engine, US_PER_MS
from icnsim.telemetry import EventLog, Telemetry, conservation_from_events
from icnsim.topology import TopologyGraph

HOST = "video.test"


class StubServer:
    """Counts upstream fetches and answers after a fixed delay."""

    def __init__(self, engine, size=7000, delay_us=2_000):
        self.engine = engine
        self.size = size
        self.delay_us = delay_us
        self.calls = []

    def handle_request(self, path, reply):
        self.calls.append((self.engine.now, path))
        self.engine.schedule(self.delay_us, reply, 200, self.size, "chunk",
                             None)


class StubClient:
    """Records completed fetches."""

    def __init__(self, engine):
        self.engine = engine
        self.responses = []

    def on_response(self, fetch_id, status, size, meta):
        self.responses.append((self.engine.now, fetch_id, status, size))


class StubStb:
    def __init__(self, name):
        self.name = name
        self.packets = []

    def on_stream_packet(self, name, t, size):
        self.packets.append((t, name, size))


def star_world(n_cnaps=3, window_ms=100):
    """One server gateway and n client gateways around a single core node."""
    engine = Engine()
    log = EventLog()
    topo = TopologyGraph()
    topo.add_node("snap", "nap")
    topo.add_node("sw", "fn")
    topo.add_link("uplink", "snap", "sw", 1_000_000_000, 100)
    for i in range(n_cnaps):
        topo.add_node(f"cnap{i}", "nap")
        topo.add_link(f"acc{i}", "sw", f"cnap{i}", 1_000_000_000, 100)
    fabric = Fabric(engine, topo, log, Telemetry(True), PARAMS)
    cfg = FidConfig(m=len(topo.links), k=5, mode="exact")
    lids = assign_link_ids(topo, cfg, 1)
    pce = Pce(engine, topo, lids, cfg, log, PARAMS)
    fabric.add_topology_listener(pce.on_topology_event)
    params = PARAMS._replace(coalesce_window_us=window_ms * US_PER_MS)
    naps = {}
    for node in topo.node_list():
        if node.role == "nap":
            nap = Nap(node.name, engine, fabric, pce, log, params)
            naps[node.name] = nap
            pce.attach_nap(nap)
            handler = FidNode(node.name, topo.egress(node.name), lids,
                              sink=nap.demux)
        else:
            handler = FidNode(node.name, topo.egress(node.name), lids)
        fabric.add_handler(node.name, handler)
    return engine, log, topo, fabric, pce, naps


def test_requests_within_window_coalesce_to_one_fetch():
    """Ten near-simultaneous identical requests cost one server fetch."""
    engine, log, topo, fabric, pce, naps = star_world(n_cnaps=10)
    server = StubServer(engine)
    naps["snap"].attach_server(HOST, server)
    pce.register_publisher(http_scope(HOST), "snap")
    clients = []
    for i in range(10):
        client = StubClient(engine)
        clients.append(client)
        engine.schedule_at(1_000 + i * 900, naps[f"cnap{i}"].handle_http,
                           client, 1, HOST, "/live/2/0")
    engine.run_until(5_000_000)
    assert len(server.calls) == 1
    for client in clients:
        assert len(client.responses) == 1
        assert client.responses[0][2:] == (200, 7000)
    closes = [r for r in log if r["ev"] == "group_close"]
    assert len(closes) == 1 and closes[0]["members"] == 10
    # the shared uplink carries the response bytes exactly once
    uplink_bytes = sum(r["size"] for r in log
                      if r["ev"] == "pkt_fwd" and r["link"] == "uplink:snap->sw"
                      and r["kind"] == "chunk")
    assert uplink_bytes == 7000
    assert conservation_from_events(log)["balanced"]


def test_request_after_window_opens_new_group():
    engine, log, topo, fabric, pce, naps = star_world(n_cnaps=2)
    server = StubServer(engine)
    naps["snap"].attach_server(HOST, server)
    pce.register_publisher(http_scope(HOST), "snap")
    c0, c1 = StubClient(engine), StubClient(engine)
    engine.schedule_at(1_000, naps["cnap0"].handle_http, c0, 1, HOST,
                       "/live/2/0")
    # well past the 100 ms window of the first group
    engine.schedule_at(400_000, naps["cnap1"].handle_http, c1, 1, HOST,
                       "/live/2/0")
    engine.run_until(5_000_000)
    assert len(server.calls) == 2
    opens = [r for r in log if r["ev"] == "group_open"]
    assert len(opens) == 2
    assert len(c0.responses) == 1 and len(c1.responses) == 1
    # a closed group is not kept
    assert naps["snap"]._groups == {}


def test_zero_window_serves_immediately():
    engine, log, topo, fabric, pce, naps = star_world(n_cnaps=1, window_ms=0)
    server = StubServer(engine)
    naps["snap"].attach_server(HOST, server)
    pce.register_publisher(http_scope(HOST), "snap")
    client = StubClient(engine)
    engine.schedule_at(1_000, naps["cnap0"].handle_http, client, 1, HOST,
                       "/x")
    engine.run_until(1_000_000)
    assert len(server.calls) == 1
    assert len(client.responses) == 1


def test_same_gateway_requests_merge_locally():
    """Two clients behind one gateway make one subscription."""
    engine, log, topo, fabric, pce, naps = star_world(n_cnaps=1)
    server = StubServer(engine)
    naps["snap"].attach_server(HOST, server)
    pce.register_publisher(http_scope(HOST), "snap")
    a, b = StubClient(engine), StubClient(engine)
    engine.schedule_at(1_000, naps["cnap0"].handle_http, a, 1, HOST, "/x")
    engine.schedule_at(1_500, naps["cnap0"].handle_http, b, 2, HOST, "/x")
    engine.run_until(5_000_000)
    merges = [r for r in log if r["ev"] == "cnap_merge"]
    assert len(merges) == 1
    subscribes = [r for r in log
                  if r["ev"] == "ctrl" and r["msg"] == "subscribe"]
    assert len(subscribes) == 1
    assert len(a.responses) == 1 and len(b.responses) == 1
    deliveries = [r for r in log if r["ev"] == "pkt_deliver"]
    # the last response segment is consumed by both waiting clients
    assert deliveries[-1]["consumers"] == 2


def test_segmented_response_reassembled():
    """Responses larger than the MTU arrive as one completed fetch."""
    engine, log, topo, fabric, pce, naps = star_world(n_cnaps=1)
    server = StubServer(engine, size=10_000)
    naps["snap"].attach_server(HOST, server)
    pce.register_publisher(http_scope(HOST), "snap")
    client = StubClient(engine)
    engine.schedule_at(1_000, naps["cnap0"].handle_http, client, 1, HOST,
                       "/x")
    engine.run_until(5_000_000)
    segments = [r for r in log if r["ev"] == "pkt_inject"]
    assert len(segments) == 8  # ceil(10000 / 1400)
    assert sum(r["size"] for r in segments) == 10_000
    assert client.responses[0][3] == 10_000


def test_segments_of_one_response_share_one_payload():
    """_respond builds a response's payload once; every segment carries
    the same payload and name objects."""
    engine, log, topo, fabric, pce, naps = star_world(n_cnaps=1)
    naps["snap"].attach_server(HOST, StubServer(engine, size=5_000))
    pce.register_publisher(http_scope(HOST), "snap")
    sent = []
    inject = fabric.inject

    def recording_inject(node, packet):
        sent.append(packet)
        inject(node, packet)

    fabric.inject = recording_inject
    client = StubClient(engine)
    engine.schedule_at(1_000, naps["cnap0"].handle_http, client, 1, HOST,
                       "/x")
    engine.run_until(5_000_000)
    segments = [p for p in sent if p.kind == "chunk"]
    assert [p.size for p in segments] == [1400, 1400, 1400, 800]
    assert len({id(p.payload) for p in segments}) == 1
    assert len({id(p.name) for p in segments}) == 1
    assert client.responses[0][3] == 5_000


def test_cancel_releases_pending_and_unsubscribes():
    engine, log, topo, fabric, pce, naps = star_world(n_cnaps=1)
    client = StubClient(engine)
    # no publisher registered: the fetch stays pending until cancelled
    engine.schedule_at(1_000, naps["cnap0"].handle_http, client, 7, HOST,
                       "/x")
    engine.schedule_at(50_000, naps["cnap0"].cancel_fetch, client, 7,
                       HOST, "/x")
    engine.run_until(1_000_000)
    name = http_name(HOST, "/x")
    assert name not in naps["cnap0"]._pending
    unsubscribes = [r for r in log
                    if r["ev"] == "ctrl" and r["msg"] == "unsubscribe"]
    assert len(unsubscribes) == 1
    assert client.responses == []


def test_igmp_membership_aggregates_per_gateway():
    """Only the first join subscribes; only the last leave unsubscribes."""
    engine, log, topo, fabric, pce, naps = star_world(n_cnaps=1)
    nap = naps["cnap0"]
    s1, s2 = StubStb("stb1"), StubStb("stb2")
    engine.schedule_at(1_000, nap.handle_igmp, s1, "join", "ch1")
    engine.schedule_at(2_000, nap.handle_igmp, s2, "join", "ch1")
    engine.schedule_at(3_000, nap.handle_igmp, s1, "join", "ch1")
    engine.schedule_at(4_000, nap.handle_igmp, s1, "leave", "ch1")
    engine.run_until(1_000_000)
    ctrl = [(r["msg"], r["name"]) for r in log if r["ev"] == "ctrl"]
    name = channel_name("ch1")
    assert ctrl.count(("subscribe", name)) == 1
    assert ctrl.count(("unsubscribe", name)) == 0
    joins = [r for r in log if r["ev"] == "igmp" and r["action"] == "join"]
    assert [r["dup"] for r in joins] == [False, False, True]

    engine.schedule_at(1_100_000, nap.handle_igmp, s2, "leave", "ch1")
    engine.run_until(2_000_000)
    ctrl = [(r["msg"], r["name"]) for r in log if r["ev"] == "ctrl"]
    assert ctrl.count(("unsubscribe", name)) == 1


def test_stream_tree_reaches_every_member():
    """One injected stream packet lands on every joined set-top box."""
    engine, log, topo, fabric, pce, naps = star_world(n_cnaps=3)
    pce.register_publisher(channel_name("ch1"), "snap")
    stbs = [StubStb(f"stb{i}") for i in range(3)]
    for i, stb in enumerate(stbs):
        engine.schedule_at(1_000 + i, naps[f"cnap{i}"].handle_igmp, stb,
                           "join", "ch1")
    engine.schedule_at(100_000, naps["snap"].inject_stream, "ch1", 1400)
    engine.run_until(1_000_000)
    for stb in stbs:
        assert len(stb.packets) == 1
    # shared uplink crossed once despite three receivers
    uplink = [r for r in log if r["ev"] == "pkt_fwd"
              and r["link"] == "uplink:snap->sw"]
    assert len(uplink) == 1
    assert conservation_from_events(log)["balanced"]


def test_stream_without_members_dropped_at_source():
    engine, log, topo, fabric, pce, naps = star_world(n_cnaps=1)
    engine.schedule_at(1_000, naps["snap"].inject_stream, "ch1", 1400)
    engine.run_until(1_000_000)
    drops = [r for r in log if r["ev"] == "pkt_drop"]
    assert [r["reason"] for r in drops] == ["zero_fid"]
    assert not any(r["ev"] == "pkt_deliver" for r in log)


def test_fid_table_written_only_by_control_updates():
    engine, log, topo, fabric, pce, naps = star_world(n_cnaps=1)
    nap = naps["snap"]
    before = nap.routing_digest()
    pce.register_publisher(channel_name("ch1"), "snap")
    stb = StubStb("stb1")
    engine.schedule_at(1_000, naps["cnap0"].handle_igmp, stb, "join",
                       "ch1")
    engine.run_until(100_000)
    after = nap.routing_digest()
    assert before != after
    assert channel_name("ch1") in nap.fid_table


def test_name_hashing_is_stable():
    assert http_name(HOST, "/a") == http_name(HOST, "/a")
    assert http_name(HOST, "/a") != http_name(HOST, "/b")
    assert scope_key(http_name(HOST, "/a")) == http_scope(HOST)
    assert scope_key(channel_name("ch1")) == channel_name("ch1")
