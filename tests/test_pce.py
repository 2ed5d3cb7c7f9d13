"""Path computation: costs, caching, invalidation, publisher selection."""

import random

import pytest

from conftest import PARAMS
from icnsim.fabric import Fabric, FidNode, trace_delivery
from icnsim.fid import FidConfig, assign_link_ids
from icnsim.pce import Pce, UnreachableError
from icnsim.simkernel import Engine
from icnsim.telemetry import EventLog, Telemetry
from icnsim.topology import TopologyGraph


def make_pce(topo, seed=1):
    engine = Engine()
    log = EventLog()
    cfg = FidConfig(m=max(2, len(topo.links)), k=5, mode="exact")
    lids = assign_link_ids(topo, cfg, seed)
    pce = Pce(engine, topo, lids, cfg, log, PARAMS)
    return engine, log, lids, pce


def diamond():
    """a reaches d through b (index 1) or c (index 2), both two hops."""
    topo = TopologyGraph()
    for name in ("a", "b", "c", "d"):
        topo.add_node(name, "fn")
    topo.add_link("ab", "a", "b", 10_000_000, 100)
    topo.add_link("ac", "a", "c", 10_000_000, 100)
    topo.add_link("bd", "b", "d", 10_000_000, 100)
    topo.add_link("cd", "c", "d", 10_000_000, 100)
    return topo


def test_cost_matches_breadth_first_search(topo_factory, bfs_oracle):
    rng = random.Random(42)
    checked = 0
    for _ in range(100):
        topo = topo_factory(rng)
        names = [n.name for n in topo.node_list()]
        engine, log, lids, pce = make_pce(topo)
        for _ in range(10):
            src, dst = rng.choice(names), rng.choice(names)
            expected = bfs_oracle(topo, src, dst)
            if expected is None:
                with pytest.raises(UnreachableError):
                    pce.compute_path(src, dst)
            else:
                result = pce.compute_path(src, dst)
                assert result.cost == expected
                assert len(result.links) == expected
                checked += 1
    assert checked > 500


def test_path_links_form_a_walk():
    rng = random.Random(7)
    topo = TopologyGraph()
    for i in range(8):
        topo.add_node(f"n{i}", "fn")
    for i in range(1, 8):
        topo.add_link(f"l{i}", f"n{rng.randrange(i)}", f"n{i}",
                      10_000_000, 100)
    engine, log, lids, pce = make_pce(topo)
    result = pce.compute_path("n0", "n7")
    at = "n0"
    for key in result.links:
        link = topo.links[key]
        assert link.src == at
        at = link.dst
    assert at == "n7"


def test_equal_cost_tie_breaks_by_node_index():
    topo = diamond()
    engine, log, lids, pce = make_pce(topo)
    result = pce.compute_path("a", "d")
    assert result.links == ("ab:a->b", "bd:b->d")


def test_parallel_links_prefer_insertion_order():
    topo = TopologyGraph()
    topo.add_node("x", "fn")
    topo.add_node("y", "fn")
    topo.add_link("primary", "x", "y", 10_000_000, 100)
    topo.add_link("backup", "x", "y", 10_000_000, 100)
    engine, log, lids, pce = make_pce(topo)
    assert pce.compute_path("x", "y").links == ("primary:x->y",)


def test_self_path_is_empty_with_zero_identifier():
    topo = diamond()
    engine, log, lids, pce = make_pce(topo)
    result = pce.compute_path("a", "a")
    assert result.links == ()
    assert result.cost == 0
    assert result.fid.popcount() == 0


def test_unknown_node_raises_key_error():
    topo = diamond()
    engine, log, lids, pce = make_pce(topo)
    with pytest.raises(KeyError):
        pce.compute_path("a", "nowhere")


def test_down_links_are_not_used():
    topo = diamond()
    engine, log, lids, pce = make_pce(topo)
    topo.set_link_state("ab", False, 0)
    result = pce.compute_path("a", "d")
    assert result.links == ("ac:a->c", "cd:c->d")
    topo.set_link_state("ac", False, 0)
    with pytest.raises(UnreachableError):
        pce.compute_path("a", "d")


def test_cached_path_hits_until_topology_changes():
    topo = diamond()
    engine, log, lids, pce = make_pce(topo)
    first = pce.cached_path("a", "d")
    assert (pce.cache_misses, pce.cache_hits) == (1, 0)
    again = pce.cached_path("a", "d")
    assert again.links == first.links
    assert (pce.cache_misses, pce.cache_hits) == (1, 1)
    topo.set_link_state("ab", False, 10)
    rerouted = pce.cached_path("a", "d")
    assert pce.cache_misses == 2
    assert rerouted.links == ("ac:a->c", "cd:c->d")


def run_reroute(engine, pce, event):
    """Deliver a topology event and let the control plane settle."""
    pce.on_topology_event(event)
    engine.run_until(engine.now + 1_000_000)


def test_failure_invalidates_only_affected_entries():
    topo = diamond()
    engine, log, lids, pce = make_pce(topo)
    pce.cached_path("a", "d")  # uses ab, bd
    pce.cached_path("c", "d")  # uses cd only
    event = topo.set_link_state("bd", False, engine.now)
    run_reroute(engine, pce, event)
    assert ("a", "d") not in pce._cache
    survivor, _ = pce._cache[("c", "d")]
    assert survivor.links == ("cd:c->d",)
    # the survivor was revalidated: next lookup is a hit at the new epoch
    hits = pce.cache_hits
    pce.cached_path("c", "d")
    assert pce.cache_hits == hits + 1
    invalidations = [r for r in log
                     if r["ev"] == "ctrl" and r["msg"] == "invalidate"]
    assert len(invalidations) == 1 and invalidations[0]["entries"] == 1


def test_restore_invalidates_everything():
    """A recovered link can shorten any path, so the whole cache goes."""
    topo = diamond()
    engine, log, lids, pce = make_pce(topo)
    topo.set_link_state("ab", False, 0)
    pce.cached_path("a", "d")
    pce.cached_path("c", "d")
    event = topo.set_link_state("ab", True, engine.now)
    run_reroute(engine, pce, event)
    assert pce._cache == {}
    rerouted = pce.cached_path("a", "d")
    assert rerouted.links == ("ab:a->b", "bd:b->d")


def test_cached_paths_avoid_down_links_across_churn(topo_factory, bfs_oracle):
    """Random fail/restore churn never leaves a cached path on a dead link."""
    rng = random.Random(99)
    topo = topo_factory(rng, max_nodes=12, extra_links=6)
    names = [n.name for n in topo.node_list()]
    physicals = sorted({l.physical for l in topo.links.values()})
    engine, log, lids, pce = make_pce(topo)
    down = set()
    for round_no in range(40):
        phys = rng.choice(physicals)
        restore = phys in down
        event = topo.set_link_state(phys, restore, engine.now)
        (down.discard if restore else down.add)(phys)
        run_reroute(engine, pce, event)
        for _ in range(4):
            src, dst = rng.choice(names), rng.choice(names)
            expected = bfs_oracle(topo, src, dst)
            if expected is None:
                with pytest.raises(UnreachableError):
                    pce.cached_path(src, dst)
            else:
                result = pce.cached_path(src, dst)
                assert result.cost == expected
                for key in result.links:
                    assert topo.links[key].up
        for path, _ in pce._cache.values():
            assert all(topo.links[key].up for key in path.links)


def test_multicast_tree_shares_trunk_bits():
    """Two receivers behind one trunk OR into a single-copy tree."""
    topo = TopologyGraph()
    for name in ("src", "mid", "r1", "r2"):
        topo.add_node(name, "fn")
    topo.add_link("trunk", "src", "mid", 10_000_000, 100)
    topo.add_link("t1", "mid", "r1", 10_000_000, 100)
    topo.add_link("t2", "mid", "r2", 10_000_000, 100)
    engine, log, lids, pce = make_pce(topo)
    fid = pce.build_multicast_fid("src", ("r1", "r2"), "ch")
    assert fid.popcount() == 3  # trunk counted once, not twice
    assert len(log) == 0  # every receiver reachable: no partial tree
    trace = trace_delivery(topo, lids, fid, "src", ttl=64,
                           sinks=("r1", "r2"))
    assert trace.sink_nodes == {"r1", "r2"}
    assert trace.links_used == {"trunk:src->mid", "t1:mid->r1", "t2:mid->r2"}


def test_multicast_tree_carries_one_trunk_copy_in_fabric():
    topo = TopologyGraph()
    for name in ("src", "mid", "r1", "r2"):
        topo.add_node(name, "nap" if name != "mid" else "fn")
    topo.add_link("trunk", "src", "mid", 10_000_000, 100)
    topo.add_link("t1", "mid", "r1", 10_000_000, 100)
    topo.add_link("t2", "mid", "r2", 10_000_000, 100)
    engine, log, lids, pce = make_pce(topo)
    fabric = Fabric(engine, topo, log, Telemetry(True), PARAMS)
    hits = []
    for node in topo.node_list():
        sink = (lambda n: lambda pkt, t: hits.append(n) or 1)(node.name) \
            if node.name in ("r1", "r2") else None
        fabric.add_handler(node.name, FidNode(
            node.name, topo.egress(node.name), lids, sink=sink))
    fid = pce.build_multicast_fid("src", ("r1", "r2"), "ch")
    from icnsim.fabric import Packet
    fabric.inject("src", Packet(pid=1, kind="stream", name="ch", size=1000,
                                fid=fid))
    engine.run_until(1_000_000)
    trunk = [r for r in log if r["ev"] == "pkt_fwd"
             and r["link"] == "trunk:src->mid"]
    assert len(trunk) == 1
    assert sorted(hits) == ["r1", "r2"]


def test_unreachable_receiver_yields_partial_tree():
    topo = diamond()
    topo.add_node("island", "fn")
    engine, log, lids, pce = make_pce(topo)
    fid = pce.build_multicast_fid("a", ("d", "island"), "ch")
    assert list(log) == [{"t": 0, "el": "pce", "ev": "ctrl",
                          "msg": "partial_tree", "name": "ch",
                          "failures": ["island"]}]
    trace = trace_delivery(topo, lids, fid, "a", ttl=64, sinks=("d",))
    assert trace.sink_nodes == {"d"}


def test_publisher_selection_minimizes_cost(topo_factory, bfs_oracle):
    rng = random.Random(5)
    for _ in range(30):
        topo = topo_factory(rng)
        names = [n.name for n in topo.node_list()]
        engine, log, lids, pce = make_pce(topo)
        pubs = rng.sample(names, min(3, len(names)))
        for pub in pubs:
            pce.register_publisher("scope", pub)
        subscriber = rng.choice(names)
        reachable = [(bfs_oracle(topo, pub, subscriber), topo.nodes[pub].index, pub)
                     for pub in pubs
                     if bfs_oracle(topo, pub, subscriber) is not None]
        if not reachable:
            with pytest.raises(UnreachableError):
                pce.select_publisher("scope/x", subscriber)
            continue
        best = min(reachable)
        assert pce.select_publisher("scope/x", subscriber) == best[2]


def test_closer_publisher_wins_after_registration():
    """Registering a nearer copy redirects selection to it."""
    topo = TopologyGraph()
    for name in ("origin", "m1", "m2", "edge", "surrogate"):
        topo.add_node(name, "fn")
    topo.add_link("l1", "origin", "m1", 10_000_000, 100)
    topo.add_link("l2", "m1", "m2", 10_000_000, 100)
    topo.add_link("l3", "m2", "edge", 10_000_000, 100)
    topo.add_link("l4", "surrogate", "m2", 10_000_000, 100)
    engine, log, lids, pce = make_pce(topo)
    pce.register_publisher("scope", "origin")
    assert pce.select_publisher("scope/x", "edge") == "origin"
    pce.register_publisher("scope", "surrogate")
    assert pce.select_publisher("scope/x", "edge") == "surrogate"
    pce.unregister_publisher("scope", "surrogate")
    assert pce.select_publisher("scope/x", "edge") == "origin"


def test_no_publisher_raises():
    topo = diamond()
    engine, log, lids, pce = make_pce(topo)
    with pytest.raises(UnreachableError):
        pce.select_publisher("scope/x", "a")


def test_routing_digest_tracks_issued_state():
    topo = diamond()
    engine, log, lids, pce = make_pce(topo)
    d0 = pce.routing_digest()
    assert pce.routing_digest() == d0
    pce.cached_path("a", "d")
    d1 = pce.routing_digest()
    assert d1 != d0
    event = topo.set_link_state("ab", False, engine.now)
    run_reroute(engine, pce, event)
    assert pce.routing_digest() != d1
