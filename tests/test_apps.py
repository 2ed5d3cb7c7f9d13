"""Application models: live HLS catalog, adaptive client, IPTV endpoints."""

import pytest

from conftest import PARAMS
from icnsim.apps import (HlsCatalog, HlsClient, HlsServer, IptvSource, Stb,
                         SurrogateAgent)
from icnsim.fid import FidConfig, assign_link_ids
from icnsim.harness import MODES, build_world, load_scenario, validate_config
from icnsim.pce import Pce
from icnsim.simkernel import Engine, US_PER_MS, US_PER_S
from icnsim.telemetry import EventLog
from icnsim.topology import TopologyGraph

# one live stream: 2 s chunks at 2 or 8 Mb/s, a five-chunk playlist window
CATALOG = HlsCatalog(host="video.test", path_prefix="/live",
                     chunk_duration_us=2_000_000, bitrates_mbps=(2, 8),
                     playlist_window=5)
# a server behind a 1 ms access link that answers 2 ms after a request
SERVER_PARAMS = PARAMS._replace(server_latency_us=1_000)


class ScriptedTransport:
    """Answers fetches from the catalog after a fixed delay; paths queued
    in ``mute`` get no answer at all."""

    def __init__(self, engine, catalog, delay_us=100_000):
        self.engine = engine
        self.catalog = catalog
        self.delay_us = delay_us
        self.requests = []
        self.cancels = []
        self.mute = 0

    def fetch(self, handle, fetch_id, host, path):
        self.requests.append((self.engine.now, path))
        if self.mute > 0:
            self.mute -= 1
            return
        if path == self.catalog.playlist_path():
            def answer():
                handle.on_response(fetch_id, 200, PARAMS.playlist_bytes,
                                   self.catalog.edge_index(self.engine.now))
            self.engine.schedule(self.delay_us, answer)
        else:
            bitrate = int(path.rsplit("/", 2)[1])
            size = self.catalog.chunk_bytes(bitrate)
            self.engine.schedule(self.delay_us, handle.on_response, fetch_id,
                                 200, size, None)

    def cancel(self, handle, fetch_id, host, path):
        self.cancels.append((self.engine.now, path))


def make_client(chunks=4, delay_us=100_000, start_us=2_500_000, **overrides):
    engine = Engine()
    log = EventLog()
    catalog = CATALOG
    transport = ScriptedTransport(engine, catalog, delay_us)
    client = HlsClient("c1", transport, catalog, PARAMS._replace(**overrides),
                       start_us, chunks, engine, log)
    return engine, log, catalog, transport, client


def stall_us(log):
    """A client's total stall time: the sum of its stall records."""
    return sum(r["dur_us"] for r in log if r["ev"] == "stall")


def test_catalog_arithmetic():
    cat = CATALOG
    assert cat.chunk_bytes(2) == 500_000
    assert cat.chunk_bytes(8) == 2_000_000
    assert cat.playlist_path() == "/live/playlist.m3u8"
    assert cat.chunk_path(8, 3) == "/live/8/3"
    assert cat.edge_index(1_999_999) == -1
    assert cat.edge_index(2_000_000) == 0
    assert cat.edge_index(12_000_000) == 5
    # rolling window of five finished chunks
    assert cat.available(5, 12_000_000)
    assert cat.available(1, 12_000_000)
    assert not cat.available(0, 12_000_000)
    assert not cat.available(6, 12_000_000)
    assert not cat.available(-1, 1_000_000)


def run_server(path, now_us=12_000_000, up=True):
    engine = Engine()
    log = EventLog()
    catalog = CATALOG
    server = HlsServer("origin", "snap", catalog, engine, log, SERVER_PARAMS)
    if not up:
        server.set_up(False)
    replies = []
    engine.schedule_at(now_us, server.handle_request, path,
                       lambda *a: replies.append((engine.now, *a)))
    engine.run_until(now_us + US_PER_S)
    return log, replies


def test_server_serves_playlist_with_edge():
    log, replies = run_server("/live/playlist.m3u8")
    assert replies == [(12_002_000, 200, 500, "playlist", 5)]


def test_server_serves_available_chunk():
    log, replies = run_server("/live/8/4")
    assert replies == [(12_002_000, 200, 2_000_000, "chunk", None)]


def test_server_rejects_stale_future_and_bad_paths():
    for path in ("/live/8/0", "/live/8/6", "/live/4/4", "/live/8/x", "/nope"):
        log, replies = run_server(path)
        assert replies[0][1:] == (404, 64, "error", None), path
        resp = [r for r in log if r["ev"] == "server_resp"]
        assert resp[0]["kind"] == "error", path


def test_server_down_never_replies():
    log, replies = run_server("/live/playlist.m3u8", up=False)
    assert replies == []
    assert any(r["ev"] == "server_noreply" for r in log)


def test_client_steady_playback_without_stalls():
    engine, log, catalog, transport, client = make_client(chunks=4)
    engine.run_until(20 * US_PER_S)
    assert client.done
    assert client.chunks_done == 4
    assert stall_us(log) == 0
    assert not any(r["ev"] == "stall" for r in log)
    # each period fetches the playlist, then the newest chunk
    kinds = [r["kind"] for r in log if r["ev"] == "http_req"]
    assert kinds == ["playlist", "chunk"] * 4


def test_client_upshifts_after_streak():
    """Fast chunks raise the estimate; the switch waits for the streak."""
    engine, log, catalog, transport, client = make_client(chunks=4)
    engine.run_until(20 * US_PER_S)
    switches = [r for r in log if r["ev"] == "bitrate_switch"]
    assert len(switches) == 1
    assert switches[0]["direction"] == "up"
    assert (switches[0]["from_mbps"], switches[0]["to_mbps"]) == (2, 8)
    done_before = [r for r in log if r["ev"] == "chunk_done"
                   and r["t"] <= switches[0]["t"]]
    assert len(done_before) == 3  # the upshift streak
    chunk_paths = [r["path"] for r in log if r["ev"] == "http_req"
                   and r["kind"] == "chunk"]
    assert chunk_paths[:3] == [p for p in chunk_paths[:3] if "/2/" in p]
    assert "/8/" in chunk_paths[3]


def test_slow_chunks_never_upshift():
    # 2.5 s per 500 kB chunk is 1.6 Mb/s, below the 8 Mb/s step
    engine, log, catalog, transport, client = make_client(
        chunks=3, delay_us=2_500_000, client_timeout_us=3_000_000)
    engine.run_until(30 * US_PER_S)
    assert client.chunks_done == 3
    assert not any(r["ev"] == "bitrate_switch" for r in log)
    assert stall_us(log) > 0


def test_timeout_downshifts_cancels_and_refetches_playlist():
    engine, log, catalog, transport, client = make_client(chunks=4)
    # silence one fetch after the client has climbed to the top rate
    engine.schedule_at(8_600_000, setattr, transport, "mute", 1)
    engine.run_until(40 * US_PER_S)
    timeouts = [r for r in log if r["ev"] == "http_timeout"]
    assert len(timeouts) == 1
    assert len(transport.cancels) == 1
    switches = [(r["direction"], r["to_mbps"]) for r in log
                if r["ev"] == "bitrate_switch"]
    assert ("down", 2) in switches
    # retry restarts from the playlist with the attempt counter advanced
    t_timeout = timeouts[0]["t"]
    retry = [r for r in log if r["ev"] == "http_req"
             and r["t"] == t_timeout]
    assert retry[0]["kind"] == "playlist" and retry[0]["attempt"] == 1
    assert client.done
    assert stall_us(log) > 0


def test_fetch_abandoned_after_max_attempts():
    engine, log, catalog, transport, client = make_client(
        chunks=2, max_attempts_per_fetch=3, client_timeout_us=1_000_000)
    transport.mute = 3
    engine.run_until(30 * US_PER_S)
    abandoned = [r for r in log if r["ev"] == "fetch_abandoned"]
    assert len(abandoned) == 1
    attempts = [r["attempt"] for r in log if r["ev"] == "http_timeout"]
    assert attempts == [0, 1, 2]
    # the next period starts over and playback completes
    assert client.done


def test_stall_clock_arithmetic():
    engine, log, catalog, transport, client = make_client(chunks=8)
    client._record_arrival(1_000)
    assert client._play_start == 751_000
    client._record_arrival(2_751_000)  # exactly on time
    assert stall_us(log) == 0
    client._record_arrival(5_800_000)  # due at 4_751_000
    assert stall_us(log) == 1_049_000
    stalls = [r for r in log if r["ev"] == "stall"]
    assert stalls == [{"t": 5_800_000, "el": "c1", "ev": "stall",
                       "start": 4_751_000, "dur_us": 1_049_000}]


def test_rate_selection_gates():
    engine, log, catalog, transport, client = make_client(chunks=1)
    client.ewma_bps = 9_000_000  # 0.8x covers 2 but not 8 Mb/s
    assert client._candidate_idx() == 0
    client.ewma_bps = 10_000_000  # exactly 8 Mb/s after safety margin
    assert client._candidate_idx() == 1
    client.good_streak = 2
    client._maybe_upshift()
    assert client.bitrate_idx == 0  # streak too short
    client.good_streak = 3
    client._maybe_upshift()
    assert client.bitrate_idx == 1
    # a collapsed estimate downshifts immediately, streak or not
    client.ewma_bps = 1_000_000
    client.good_streak = 9
    client._maybe_upshift()
    assert client.bitrate_idx == 0


class RecordingSender:
    def __init__(self, engine):
        self.engine = engine
        self.sent = []

    def send_stream(self, channel, size):
        self.sent.append((self.engine.now, channel, size))


def test_iptv_source_paces_and_stops():
    engine = Engine()
    sender = RecordingSender(engine)
    source = IptvSource("ch1", sender, bitrate_mbps=2, pkt_bytes=1400,
                        start_us=500, stop_us=28_500, engine=engine)
    assert source.interval_us == 5_600
    engine.run_until(US_PER_S)
    assert [t for t, _, _ in sender.sent] == [500, 6_100, 11_700, 17_300,
                                              22_900]
    assert all(c == "ch1" and s == 1400 for _, c, s in sender.sent)


class RecordingAdapter:
    def __init__(self, engine):
        self.engine = engine
        self.acts = []

    def act(self, stb, action, channel):
        self.acts.append((self.engine.now, action, channel))


def test_stb_joins_refreshes_and_expires():
    engine = Engine()
    log = EventLog()
    adapter = RecordingAdapter(engine)
    Stb("stb1", adapter, "ch1", join_us=1_000, active_until_us=20_000_000,
        params=PARAMS._replace(igmp_query_us=5_000_000), engine=engine,
        log=log)
    engine.run_until(40 * US_PER_S)
    joins = [t for t, action, _ in adapter.acts if action == "join"]
    assert joins == [1_000, 5_001_000, 10_001_000, 15_001_000]


def test_stb_zap_switches_membership_and_times_acquisition():
    engine = Engine()
    log = EventLog()
    adapter = RecordingAdapter(engine)
    stb = Stb("stb1", adapter, "ch1", join_us=1_000,
              active_until_us=60_000_000,
              params=PARAMS._replace(igmp_query_us=50_000_000),
              engine=engine, log=log)
    engine.schedule_at(4_000, stb.on_stream_packet, "ch:ch1", 4_000, 1400)
    engine.schedule_at(9_000, stb.on_stream_packet, "ch:ch1", 9_000, 1400)
    engine.schedule_at(20_000, stb.zap, "ch2")
    engine.schedule_at(26_300, stb.on_stream_packet, "ch:ch2", 26_300, 1400)
    engine.run_until(US_PER_S)
    assert [(t, a, c) for t, a, c in adapter.acts[:3]] == [
        (1_000, "join", "ch1"), (20_000, "leave", "ch1"),
        (20_000, "join", "ch2")]
    acq = [(r["channel"], r["dur_us"]) for r in log
           if r["ev"] == "acquisition"]
    # one measurement per switch: the second ch1 packet is not a switch
    assert acq == [("ch1", 3_000), ("ch2", 6_300)]


def test_surrogate_toggle_drives_publisher_registration():
    engine = Engine()
    log = EventLog()
    topo = TopologyGraph()
    topo.add_node("snap_a", "nap")
    topo.add_node("snap_b", "nap")
    topo.add_link("l1", "snap_a", "snap_b", 10_000_000, 100)
    cfg = FidConfig(m=2, k=5, mode="exact")
    pce = Pce(engine, topo, assign_link_ids(topo, cfg, 1), cfg, log, PARAMS)
    catalog = CATALOG
    server = HlsServer("surrogate", "snap_b", catalog, engine, log,
                       SERVER_PARAMS)
    agent = SurrogateAgent(server, pce, "scope", engine, log, PARAMS,
                           registered=False)
    assert pce._pubs.get("scope") is None or "snap_b" not in pce._pubs["scope"]
    engine.schedule_at(5_000, agent.toggle, True)
    engine.run_until(10_000)
    assert "snap_b" in pce._pubs["scope"]
    engine.schedule_at(20_000, agent.toggle, False)
    engine.run_until(30_000)
    assert "snap_b" not in pce._pubs["scope"]
    toggles = [r["on"] for r in log if r["ev"] == "surrogate_toggle"]
    assert toggles == [True, False]


def test_surrogate_toggle_without_control_plane_is_inert():
    engine = Engine()
    log = EventLog()
    catalog = CATALOG
    server = HlsServer("origin", "snap", catalog, engine, log, SERVER_PARAMS)
    agent = SurrogateAgent(server, None, "scope", engine, log, PARAMS,
                           registered=False)
    agent.toggle(True)
    agent.toggle(False)
    assert [r["on"] for r in log if r["ev"] == "surrogate_toggle"] \
        == [True, False]


class RecordingHandle:
    def __init__(self):
        self.responses = []

    def on_response(self, fetch_id, status, size, meta):
        self.responses.append((fetch_id, status, size))


@pytest.mark.parametrize("mode", MODES)
def test_both_planes_ship_a_catalog_miss_as_error(mode):
    """The server alone classes a response, so a catalog miss crosses
    either plane as "error"."""
    w = build_world(validate_config(load_scenario("hls_failover")), mode, 1)
    client = w.clients["client1"]
    cat = client.catalog
    handle = RecordingHandle()
    # a chunk far past the live edge; every client starts at 2 s
    w.engine.schedule_at(1_000, client.transport.fetch, handle, 1, cat.host,
                         cat.chunk_path(cat.bitrates_mbps[0], 10**6))
    w.engine.run_until(US_PER_S)
    assert handle.responses == [(1, 404, 64)]
    for ev in ("pkt_inject", "pkt_fwd"):
        kinds = {r["kind"] for r in w.log if r["ev"] == ev}
        assert kinds - {"request"} == {"error"}, ev
