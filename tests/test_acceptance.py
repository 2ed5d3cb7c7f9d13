"""Acceptance gate: one test per headline claim, run on the shipped
scenarios at fixed seeds with frozen expected values.

The criteria, in test order:

1. Coincidental multicast serves ten identical viewers with one tenth of
   the trunk payload the IP baseline needs.
2. A surrogate takes over an HLS session with zero stalls and zero
   quality drops, while the IP baseline stalls past the client timeout,
   downshifts, and only recovers after DNS failover.
3. A trunk failure interrupts an IPTV stream for at most 60 ms, and the
   restore is hitless; the IP baseline is silent for the whole spanning
   tree reconvergence window at both transitions.
4. Rerouting rewrites forwarding state at the traffic entry points only;
   transit elements keep their tables byte-identical.
5. Path-identifier algebra is exact: encoded trees traverse to exactly
   their link sets, identifiers compose by union, and probabilistic
   identifiers never drop a member while staying near the analytic
   false-positive rate.
6. Computed paths are provably minimal and publisher selection matches
   an exhaustive scan.
7. Every scenario replays byte-identically, with metric sampling on or
   off.
8. Byte conservation holds exactly, recomputable from the exported event
   log alone.
"""

import hashlib
import random
import time

import pytest

from icnsim.fabric import trace_delivery
from icnsim.fid import (FidConfig, assign_link_ids, combine_trees,
                        encode_path, false_positive_rate, should_forward)
from icnsim.harness import load_scenario, run_scenario
from icnsim.pce import Pce, PceParams, UnreachableError
from icnsim.simkernel import Engine
from icnsim.telemetry import (EVENT_FIELDS, EVENTS_FILE, VARIANT_FIELD,
                              EventLog, conservation_from_events, events_hash,
                              export, import_artifacts, link_bytes_from_events,
                              summarize)

SCENARIOS = ("coincidental_multicast", "hls_failover", "iptv_failover",
             "trial_topology")
MODES = ("icn", "ip")

# events_hash of every shipped run.  A change that claims to keep
# behaviour must leave each of these byte-identical.
PINNED_EVENTS_HASH = {
    ("coincidental_multicast", "icn"):
        "fca49f97ae99ebb05ef3058c17cfb65d824d6fb7e38d08ac77e56e30f790d7b3",
    ("coincidental_multicast", "ip"):
        "98f24704c8778a2fb23c780e44f8af3ead8838b31d602617c96a827b9a3b99c1",
    ("hls_failover", "icn"):
        "b51d79b91a5f904bd4f011a20f25f44ba4fe88cf84934a91c479b5b231ea2250",
    ("hls_failover", "ip"):
        "53ef76fa5bdd28aaffd2e35153595e25d725244d91eca0a8516b8855064e3e63",
    ("iptv_failover", "icn"):
        "6be118fb6ea14a0c4caa3358f3490a6fcfb0693eb5ad9ad1e727f2393da1df60",
    ("iptv_failover", "ip"):
        "9a7c9c52adaa691c78297909f6c57f7a5b14dd6152fc5618556b7e7a7009ad91",
    ("trial_topology", "icn"):
        "0a8fa9d1344dd29db41f022e58a1ed99b722f3c8f116b6b7a487cc7a2f1d8036",
    ("trial_topology", "ip"):
        "0bbc331d0e0da0974367f6917db7167fa16f4365d8d5ba75c892e0fbdee7c466",
}

# samples_hash of every shipped run.  Between them the runs emit all four
# sample metrics, so a change to how any of them is counted shows here.
PINNED_SAMPLES_HASH = {
    ("coincidental_multicast", "icn"):
        "10f2c13388a8c7e1bb520b2b735ed458db2f4ba623151bb9c71611fa5cabbeb6",
    ("coincidental_multicast", "ip"):
        "d80385aa48ae1a67b03170babc56ff7db75f0b3e6631207f5dc3f7ffe43ae90f",
    ("hls_failover", "icn"):
        "cec4ea951ffcfd96aab1a67f982508405426a330f53721ebed05531e3e337647",
    ("hls_failover", "ip"):
        "7fccb40f4018d14924c7d088b9fca1c41391e34c034c2aa1eb5e799c16d1c408",
    ("iptv_failover", "icn"):
        "0742c8f6217fe68fc4f050f84f37870403e28f916d4c55096a43bbc572f4ff85",
    ("iptv_failover", "ip"):
        "301b9f1c100c346ffed6d4ce5c1e5a2a59620034513c170bbc8e4ebe35f845d7",
    ("trial_topology", "icn"):
        "994b6556a3358c42e5f6142585895b4e149b869fa7aab0d949f1d3fc63bf180d",
    ("trial_topology", "ip"):
        "7deda4e2d5cb473cf4415418e3efb4580a0b8c9aa329ccaea82b7d9851c2bfed",
}


@pytest.fixture(scope="module")
def suite():
    """Every shipped scenario in both modes, with per-run wall time."""
    runs, elapsed = {}, {}
    for name in SCENARIOS:
        config = load_scenario(name)
        for mode in MODES:
            t0 = time.perf_counter()
            runs[(name, mode)] = run_scenario(config, mode)
            elapsed[(name, mode)] = time.perf_counter() - t0
    return {"runs": runs, "elapsed": elapsed}


def directional_class_bytes(artifacts, physical):
    """Bytes per traffic class over one physical link, forward direction."""
    by_class = link_bytes_from_events(artifacts.events)["by_class"]
    out = {}
    for key, classes in by_class.items():
        if key.split(":", 1)[0] != physical:
            continue
        for kind, size in classes.items():
            out.setdefault(kind, {})[key] = size
    return out


def test_c1_coincidental_multicast_bandwidth_saving(suite):
    icn = suite["runs"][("coincidental_multicast", "icn")]
    ip = suite["runs"][("coincidental_multicast", "ip")]

    merge_icn = summarize(icn)["merge_ratios"]
    merge_ip = summarize(ip)["merge_ratios"]
    assert merge_icn["chunk"] == {"server_tx": 3, "client_rx": 30,
                                  "ratio": 10.0}
    assert merge_icn["playlist"]["ratio"] == 10.0
    assert merge_ip["chunk"] == {"server_tx": 30, "client_rx": 30,
                                 "ratio": 1.0}
    assert merge_ip["playlist"]["ratio"] == 1.0

    # the shared trunk carries each chunk once: exactly the bytes the
    # server transmitted, and a tenth of what the baseline moves
    icn_trunk = directional_class_bytes(icn, "trunk")
    ip_trunk = directional_class_bytes(ip, "trunk")
    icn_chunk = sum(icn_trunk["chunk"].values())
    ip_chunk = sum(ip_trunk["chunk"].values())
    server_tx_bytes = sum(r["size"] for r in icn.events
                          if r["ev"] == "server_resp" and r["kind"] == "chunk")
    assert icn_chunk == server_tx_bytes == 3 * 500_000
    assert ip_chunk == 10 * icn_chunk
    assert sum(ip_trunk["playlist"].values()) \
        == 10 * sum(icn_trunk["playlist"].values())

    assert suite["elapsed"][("coincidental_multicast", "icn")] < 5.0
    assert suite["elapsed"][("coincidental_multicast", "ip")] < 5.0


def test_c2_hls_server_failover_stalls(suite):
    icn = suite["runs"][("hls_failover", "icn")]
    ip = suite["runs"][("hls_failover", "ip")]
    clients = ("client1", "client2", "client3")
    timeout_us = icn.config["params"]["client_timeout_ms"] * 1_000
    failure_us = next(e["at_ms"] for e in icn.config["events"]
                      if e["kind"] == "server_down") * 1_000

    # seamless handover: no stalls, no downshifts, all chunks played
    icn_stalls = summarize(icn)["stalls"]
    for client in clients:
        assert icn_stalls[client] == {"total_us": 0, "events": 0}
    assert not any(r["ev"] == "bitrate_switch" and r["direction"] == "down"
                   for r in icn.events)
    icn_done = {r["el"]: r["n"] for r in icn.events if r["ev"] == "chunk_done"}
    assert icn_done == {c: 8 for c in clients}

    # the baseline stalls at least one client timeout, drops quality,
    # fails over via DNS, and climbs back afterwards
    ip_stalls = summarize(ip)["stalls"]
    for client in clients:
        assert ip_stalls[client]["events"] >= 1
        client_stalls = [r["dur_us"] for r in ip.events
                         if r["ev"] == "stall" and r["el"] == client]
        assert max(client_stalls) >= timeout_us
        downs = [r["t"] for r in ip.events if r["ev"] == "bitrate_switch"
                 and r["el"] == client and r["direction"] == "down"]
        assert len(downs) == 1 and downs[0] == 14_000_000
        ups = [r["t"] for r in ip.events if r["ev"] == "bitrate_switch"
               and r["el"] == client and r["direction"] == "up"
               and r["to_mbps"] == 8]
        assert any(t > downs[0] for t in ups)
        failovers = [r["t"] for r in ip.events if r["ev"] == "dns_failover"
                     and r["el"] == client]
        assert failovers == [18_000_000]
    ip_done = {r["el"]: r["n"] for r in ip.events if r["ev"] == "chunk_done"}
    assert ip_done == {c: 8 for c in clients}
    # nothing answers from the failed server, and the first substitute
    # answer arrives at least one timeout after the failure
    last_primary = max(r["t"] for r in ip.events
                       if r["ev"] == "server_resp" and r["el"] == "hls_primary")
    assert last_primary < failure_us
    first_surrogate = min(r["t"] for r in ip.events
                          if r["ev"] == "server_resp"
                          and r["el"] == "hls_surrogate")
    assert first_surrogate - failure_us >= timeout_us

    assert suite["elapsed"][("hls_failover", "icn")] < 5.0
    assert suite["elapsed"][("hls_failover", "ip")] < 5.0


def test_c3_iptv_link_failover_disruption(suite):
    icn = suite["runs"][("iptv_failover", "icn")]
    ip = suite["runs"][("iptv_failover", "ip")]
    fail_us, restore_us = 15_000_000, 55_000_000
    reconvergence_us = icn.config["params"]["stp_reconvergence_ms"] * 1_000
    query_us = icn.config["params"]["igmp_query_ms"] * 1_000
    interval_us = 5_600  # 1400-byte packets at 2 Mb/s

    icn_gaps = summarize(icn)["disruptions"]
    ip_gaps = summarize(ip)["disruptions"]
    for stb in ("stb1", "stb2"):
        # one short interruption at the failure, none at the restore
        gaps = icn_gaps[stb]
        assert len(gaps) == 1
        assert fail_us <= gaps[0]["start"] < fail_us + 2 * interval_us
        assert gaps[0]["us"] == 22_400
        assert gaps[0]["us"] <= 60_000

        # the baseline goes dark for the reconvergence window plus the
        # wait for the next membership refresh, at both transitions
        gaps = ip_gaps[stb]
        assert len(gaps) == 2
        lo = reconvergence_us
        hi = reconvergence_us + query_us + interval_us
        assert fail_us <= gaps[0]["start"] < fail_us + 2 * interval_us
        assert lo <= gaps[0]["us"] <= hi
        assert restore_us <= gaps[1]["start"] < restore_us + 2 * interval_us
        assert lo <= gaps[1]["us"] <= hi

    assert suite["elapsed"][("iptv_failover", "icn")] < 5.0
    assert suite["elapsed"][("iptv_failover", "ip")] < 5.0


def test_c4_reroute_touches_entry_points_only(suite):
    icn = suite["runs"][("iptv_failover", "icn")]
    probes = {}
    for r in icn.events:
        if r["ev"] == "digest":
            probes.setdefault(r["tag"], {})[r["el"]] = r["value"]
    assert sorted(probes) == ["after_0", "after_1", "before_0", "before_1"]
    for i in (0, 1):
        before, after = probes[f"before_{i}"], probes[f"after_{i}"]
        assert sorted(before) == sorted(after)
        changed = {el for el in before if before[el] != after[el]}
        # the path computation element and the stream's entry gateway
        # rewrite state; every transit node keeps its tables verbatim
        assert changed == {"pce", "snap_iptv"}
        assert {"sw1", "sw2", "cnap1", "cnap2"}.isdisjoint(changed)


def _layered_tree(topo, rng, src, take=0.4):
    """Random shortest-path tree from src: every tree link goes one
    breadth-first layer further out, so unions of such trees stay
    acyclic, exactly like trees composed from computed paths."""
    dist = {src: 0}
    frontier = [src]
    while frontier:
        nxt = []
        for node in frontier:
            for link in topo.egress(node):
                if link.dst not in dist:
                    dist[link.dst] = dist[node] + 1
                    nxt.append(link.dst)
        frontier = nxt
    links = set()
    for node in dist:
        if node == src or rng.random() > take:
            continue
        while node != src:
            preds = [l for l in topo.links.values()
                     if l.dst == node and dist.get(l.src) == dist[node] - 1]
            link = rng.choice(preds)
            if link.key in links:
                break
            links.add(link.key)
            node = link.src
    return links


def test_c5_fid_encoding_algebra(topo_factory):
    t0 = time.perf_counter()
    rng = random.Random(2024)

    # exact identifiers over a thousand random topologies
    for _ in range(1_000):
        topo = topo_factory(rng, max_nodes=30)
        cfg = FidConfig(m=2 * len(topo.physical), mode="exact")
        lids = assign_link_ids(topo, cfg, 1)
        src = rng.choice([n.name for n in topo.node_list()])
        t1_links = _layered_tree(topo, rng, src)
        t2_links = _layered_tree(topo, rng, src)
        fid1 = encode_path([lids[k] for k in sorted(t1_links)], cfg.m)
        fid2 = encode_path([lids[k] for k in sorted(t2_links)], cfg.m)
        assert trace_delivery(topo, lids, fid1, src).links_used == t1_links
        combined = combine_trees([fid1, fid2], cfg.m)
        assert trace_delivery(topo, lids, combined, src).links_used \
            == t1_links | t2_links

    # probabilistic identifiers: no member ever dropped, false positives
    # within twice the analytic rate
    m, k, n = 64, 3, 10
    cfg = FidConfig(m=m, k=k, mode="bloom")
    keys = [f"edge{i}" for i in range(2_000)]
    lids = assign_link_ids(keys, cfg, seed=7)
    false_positives = 0
    probes = 0
    for round_no in range(100):
        members = rng.sample(keys, n)
        fid = encode_path([lids[key] for key in members], m)
        for key in members:
            assert should_forward(fid, lids[key])  # never a false negative
        outside = [key for key in rng.sample(keys, 1_010)
                   if key not in members][:1_000]
        for key in outside:
            probes += 1
            if should_forward(fid, lids[key]):
                false_positives += 1
    assert probes == 100_000
    analytic = false_positive_rate(m, k, n)
    assert false_positives / probes <= 2 * analytic

    assert time.perf_counter() - t0 < 30.0


def test_c6_path_computation_optimality(topo_factory, bfs_oracle):
    t0 = time.perf_counter()
    rng = random.Random(777)
    checked = 0
    for _ in range(1_000):
        topo = topo_factory(rng, max_nodes=30)
        names = [n.name for n in topo.node_list()]
        cfg = FidConfig(m=2 * len(topo.physical), mode="exact")
        lids = assign_link_ids(topo, cfg, 1)
        pce = Pce(Engine(1), topo, lids, cfg, EventLog(), PceParams())

        src, dst = rng.choice(names), rng.choice(names)
        expected = bfs_oracle(topo, src, dst)
        if expected is None:
            with pytest.raises(UnreachableError):
                pce.compute_path(src, dst)
        else:
            assert pce.compute_path(src, dst).cost == expected

        pubs = rng.sample(names, min(3, len(names)))
        for pub in pubs:
            pce.register_publisher("scope", pub)
        subscriber = rng.choice(names)
        ranked = [(bfs_oracle(topo, pub, subscriber),
                   topo.nodes[pub].index, pub) for pub in pubs]
        best = min((r for r in ranked if r[0] is not None), default=None)
        if best is None:
            with pytest.raises(UnreachableError):
                pce.select_publisher("scope/x", subscriber)
        else:
            assert pce.select_publisher("scope/x", subscriber) == best[2]
        checked += 1
    assert checked == 1_000
    assert time.perf_counter() - t0 < 30.0


def test_c7_deterministic_replay(suite):
    t0 = time.perf_counter()
    for name in SCENARIOS:
        config = load_scenario(name)
        for mode in MODES:
            first = suite["runs"][(name, mode)]
            again = run_scenario(config, mode, telemetry_enabled=False)
            assert again.meta["events_hash"] == first.meta["events_hash"], \
                (name, mode)
            assert again.samples == []
    # the metric stream itself replays byte-identically too
    trial = run_scenario(load_scenario("trial_topology"), "icn")
    assert trial.meta["samples_hash"] \
        == suite["runs"][("trial_topology", "icn")].meta["samples_hash"]
    assert time.perf_counter() - t0 < 10.0


def test_c8_byte_conservation(suite, tmp_path):
    for (name, mode), artifacts in suite["runs"].items():
        assert artifacts.meta["violations"] == [], (name, mode)
        cons = conservation_from_events(artifacts.events)
        assert cons["balanced"], (name, mode)
        assert cons["injected_bytes"] > 0, (name, mode)
    # the balance is recomputable from the exported log alone
    for name, mode in (("iptv_failover", "icn"),
                       ("coincidental_multicast", "ip")):
        outdir = tmp_path / f"{name}_{mode}"
        export(suite["runs"][(name, mode)], str(outdir))
        back = import_artifacts(str(outdir))
        assert events_hash(back.events) == back.meta["events_hash"]
        assert conservation_from_events(back.events)["balanced"]


def test_pinned_events_hashes_match_exported_bytes(suite, tmp_path):
    """Every shipped run keeps its pinned events_hash, and that hash is
    the sha256 of the event lines of the exported events.jsonl exactly as
    written, not of a re-encoding."""
    assert set(suite["runs"]) == set(PINNED_EVENTS_HASH)
    for (name, mode), artifacts in suite["runs"].items():
        assert artifacts.meta["events_hash"] \
            == PINNED_EVENTS_HASH[(name, mode)], (name, mode)
        outdir = tmp_path / f"{name}_{mode}"
        export(artifacts, str(outdir), fmt="jsonl")
        raw = (outdir / EVENTS_FILE).read_bytes()
        event_lines = b"".join(line for line in raw.splitlines(keepends=True)
                               if b'"ev":"sample"' not in line)
        assert hashlib.sha256(event_lines).hexdigest() \
            == artifacts.meta["events_hash"] \
            == PINNED_EVENTS_HASH[(name, mode)], (name, mode)


def test_pinned_samples_hashes(suite):
    """Every shipped run keeps its pinned samples_hash, and the runs
    together cover every sample metric."""
    assert set(suite["runs"]) == set(PINNED_SAMPLES_HASH)
    metrics = set()
    for (name, mode), artifacts in suite["runs"].items():
        assert artifacts.meta["samples_hash"] \
            == PINNED_SAMPLES_HASH[(name, mode)], (name, mode)
        metrics.update(s["metric"] for s in artifacts.samples)
    assert metrics == {"tx_bytes", "tx_pkts", "queue_peak_us", "drops"}


def test_every_record_matches_declared_vocabulary(suite):
    """Every record of every shipped run has a declared kind and exactly
    the declared fields, in the declared order."""
    for (name, mode), artifacts in suite["runs"].items():
        for rec in artifacts.events:
            kind = rec["ev"]
            assert kind in EVENT_FIELDS, (name, mode, rec)
            fields = EVENT_FIELDS[kind]
            if kind in VARIANT_FIELD:
                fields = fields.get(rec.get(VARIANT_FIELD[kind]))
                assert fields is not None, (name, mode, rec)
            assert tuple(rec) == ("t", "el", "ev") + fields, (name, mode, rec)
