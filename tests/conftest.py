"""Shared helpers: default run parameters, random topology generation
and the acceptance summary.

The terminal summary hook prints one PASS/FAIL line per acceptance
criterion after the run, so the gate's verdict is readable without
scrolling through the full test listing.
"""

import random

import pytest

from icnsim.harness import DEFAULT_PARAMS, run_params
from icnsim.topology import TopologyGraph

# the run parameters at their defaults, for building single elements; a
# test that needs another value passes PARAMS._replace(...)
PARAMS = run_params(DEFAULT_PARAMS)


def random_connected_topology(rng: random.Random, max_nodes: int = 30,
                              extra_links: int = 4) -> TopologyGraph:
    """Random connected multigraph: a spanning tree plus a few extras.

    Node i >= 1 attaches to a uniformly chosen earlier node, which keeps
    the graph connected; extra links (parallel ones allowed) add the
    redundancy that makes path ties and reroutes interesting.
    """
    n = rng.randint(2, max_nodes)
    topo = TopologyGraph()
    for i in range(n):
        topo.add_node(f"n{i:02d}", "fn")
    serial = 0
    for i in range(1, n):
        j = rng.randrange(i)
        topo.add_link(f"l{serial}", f"n{j:02d}", f"n{i:02d}", 1_000_000_000, 100)
        serial += 1
    for _ in range(rng.randint(0, extra_links)):
        a, b = rng.randrange(n), rng.randrange(n)
        if a == b:
            continue
        topo.add_link(f"l{serial}", f"n{a:02d}", f"n{b:02d}", 1_000_000_000, 100)
        serial += 1
    return topo


def chain_topology(directed_links: int) -> TopologyGraph:
    """A path of directed_links // 2 physical links, which gives that
    many directed links for an even count: a topology to label when only
    the number of link identifiers matters."""
    topo = TopologyGraph()
    topo.add_node("n0", "fn")
    for i in range(1, directed_links // 2 + 1):
        topo.add_node(f"n{i}", "fn")
        topo.add_link(f"l{i}", f"n{i - 1}", f"n{i}", 1_000_000_000, 100)
    return topo


def bfs_hops(topo: TopologyGraph, src: str, dst: str):
    """Brute-force hop count over up links; None when unreachable."""
    if src == dst:
        return 0
    dist = {src: 0}
    queue = [src]
    while queue:
        node = queue.pop(0)
        for link in topo.egress(node):
            if link.up and link.dst not in dist:
                dist[link.dst] = dist[node] + 1
                queue.append(link.dst)
    return dist.get(dst)


def assert_fwd_start_identity(artifacts) -> int:
    """Every pkt_fwd record of a run went on the wire exactly one
    serialization (ceil(size * 8e6 / capacity) us) and one latency before
    it arrives, on the link it names: the fabric derives a queued copy's
    start from its arrival by this identity.  Returns the records checked."""
    links = {}
    for l in artifacts.config["topology"]["links"]:
        spec = (l["latency_us"], int(l["capacity_mbps"] * 1_000_000))
        links[f"{l['name']}:{l['a']}->{l['b']}"] = spec
        links[f"{l['name']}:{l['b']}->{l['a']}"] = spec
    log = artifacts.events
    checked = 0
    for key, size, start, arrive in zip(*(log.column("pkt_fwd", name) for name
                                          in ("link", "size", "start",
                                              "arrive"))):
        latency_us, capacity_bps = links[key]
        tx_us = -(-size * 8_000_000 // capacity_bps)  # rounded up
        assert start == arrive - latency_us - tx_us, key
        checked += 1
    return checked


@pytest.fixture
def topo_factory():
    return random_connected_topology


@pytest.fixture
def chain_factory():
    return chain_topology


@pytest.fixture
def bfs_oracle():
    return bfs_hops


# ---------------------------------------------------------------------------
# acceptance criteria summary

_ACCEPTANCE = []


def pytest_runtest_logreport(report):
    if report.when != "call":
        return
    name = report.nodeid.rsplit("::", 1)[-1]
    if "test_acceptance" in report.nodeid and name.startswith("test_c"):
        _ACCEPTANCE.append((name, report.outcome))


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not _ACCEPTANCE:
        return
    status_word = {"passed": "PASS", "failed": "FAIL", "skipped": "SKIP"}
    terminalreporter.section("acceptance criteria")
    for name, outcome in sorted(_ACCEPTANCE):
        label = name[len("test_"):].replace("_", " ")
        word = status_word.get(outcome, outcome.upper())
        terminalreporter.write_line(f"{word}  {label}")
