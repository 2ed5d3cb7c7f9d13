"""Forwarding identifier algebra: assignment, composition, matching."""

import random

import pytest

from icnsim import _bitops
from icnsim.fabric import trace_delivery
from icnsim.fid import (CapacityError, FID, FidConfig, assign_link_ids,
                        combine_trees, encode_path, false_positive_rate,
                        should_forward, zero_fid)


def test_config_validation():
    with pytest.raises(ValueError):
        FidConfig(m=256, k=5, mode="hash")
    with pytest.raises(ValueError):
        FidConfig(m=0, k=5, mode="exact")
    with pytest.raises(ValueError):
        FidConfig(m=8, k=8, mode="bloom")


def test_fid_width_checked():
    with pytest.raises(ValueError):
        FID(1 << 64, 64)
    with pytest.raises(ValueError):
        FID(-1, 8)
    with pytest.raises(ValueError):
        FID(1 << 8, 8)
    assert zero_fid(64).popcount() == 0


def test_wire_format_is_little_endian_whole_bytes():
    assert FID((1 << 0) | (1 << 9), 20).to_bytes().hex() == "010200"
    assert FID(1 << 300, 512).to_bytes().hex() == "00" * 37 + "10" + "00" * 26


@pytest.mark.parametrize("width", [1, 8, 20, 256, 257, 1024])
def test_bit_primitives_at_width(width):
    rng = random.Random(width)
    wbytes = (width + 7) // 8
    ones = (1 << width) - 1
    for _ in range(200):
        fid = FID(rng.getrandbits(width), width)
        # half the patterns are drawn from the FID's own bits, so both
        # outcomes of the forwarding decision occur at every width
        lids = [FID(rng.getrandbits(width) & rng.choice((fid.bits, ones)),
                    width)
                for _ in range(rng.randrange(12))]
        patterns = tuple(lid.bits for lid in lids)
        assert _bitops.select_covered(fid.bits, patterns, len(lids), wbytes) == [
            i for i, lid in enumerate(lids) if should_forward(fid, lid)]
        expect = 0
        for p in patterns:
            expect |= p
        assert encode_path(lids, width=width).bits == expect
        assert _bitops.is_subset(0, fid.bits)
    zero, all_ones = FID(0, width), FID(ones, width)
    assert all_ones.popcount() == width
    assert _bitops.is_subset(zero.bits, zero.bits)
    assert _bitops.is_subset(zero.bits, all_ones.bits)
    assert _bitops.is_subset(all_ones.bits, all_ones.bits)
    assert not _bitops.is_subset(all_ones.bits, zero.bits)

    wider = FID(1, width + 1)
    with pytest.raises(ValueError):
        should_forward(zero, wider)
    with pytest.raises(ValueError):
        encode_path([FID(1, width), wider], width)
    with pytest.raises(ValueError):
        encode_path([FID(1, width)], width=width + 1)
    with pytest.raises(ValueError):
        combine_trees([zero, FID(0, width + 1)], width)
    with pytest.raises(ValueError):
        combine_trees([zero], width=width + 1)
    with pytest.raises(ValueError):
        _bitops.select_covered(ones, (1, 1), 3, wbytes)
    with pytest.raises(ValueError):
        _bitops.select_covered(1 << (8 * wbytes), (1,), 1, wbytes)
    with pytest.raises(ValueError):
        _bitops.select_covered(-1, (1,), 1, wbytes)


def test_exact_assignment_unique_single_bits(topo_factory):
    rng = random.Random(11)
    topo = topo_factory(rng)
    m = len(topo.links)
    lids = assign_link_ids(topo, FidConfig(m=m, k=5, mode="exact"), seed=1)
    assert len(lids) == len(topo.links)
    seen = set()
    for lid in lids.values():
        assert lid.popcount() == 1
        assert lid.bits not in seen
        seen.add(lid.bits)


def test_exact_assignment_capacity_error(chain_factory):
    with pytest.raises(CapacityError):
        assign_link_ids(chain_factory(10), FidConfig(m=8, k=5, mode="exact"),
                        seed=1)


def test_assignment_stable_across_runs(topo_factory):
    rng = random.Random(12)
    topo = topo_factory(rng)
    cfg = FidConfig(m=64, k=3, mode="bloom")
    a = assign_link_ids(topo, cfg, seed=5)
    b = assign_link_ids(topo, cfg, seed=5)
    assert {k: v.bits for k, v in a.items()} == {k: v.bits for k, v in b.items()}
    c = assign_link_ids(topo, cfg, seed=6)
    assert any(a[k].bits != c[k].bits for k in a)


def test_bloom_assignment_sets_k_bits(chain_factory):
    lids = assign_link_ids(chain_factory(50),
                           FidConfig(m=64, k=3, mode="bloom"), seed=2)
    assert len(lids) == 50
    for lid in lids.values():
        assert lid.popcount() == 3


def test_encode_path_is_or_of_members(chain_factory):
    topo = chain_factory(4)
    a, b, c, _ = topo.sorted_link_keys()
    lids = assign_link_ids(topo, FidConfig(m=16, k=5, mode="exact"), seed=0)
    fid = encode_path([lids[a], lids[c]], 16)
    assert should_forward(fid, lids[a])
    assert should_forward(fid, lids[c])
    assert not should_forward(fid, lids[b])
    assert fid.popcount() == 2


def test_encode_empty_path_forwards_nowhere():
    fid = encode_path([], width=32)
    assert fid.popcount() == 0


def test_encode_width_mismatch_rejected(chain_factory):
    topo = chain_factory(2)
    key = topo.sorted_link_keys()[0]
    a = assign_link_ids(topo, FidConfig(m=8, k=5, mode="exact"), seed=0)[key]
    b = assign_link_ids(topo, FidConfig(m=16, k=5, mode="exact"), seed=0)[key]
    with pytest.raises(ValueError):
        encode_path([a, b], 8)
    with pytest.raises(ValueError):
        should_forward(zero_fid(8), b)


def test_combine_trees_idempotent_union(chain_factory):
    topo = chain_factory(4)
    trunk, left, right, _ = topo.sorted_link_keys()
    lids = assign_link_ids(topo, FidConfig(m=16, k=5, mode="exact"), seed=0)
    to_left = encode_path([lids[trunk], lids[left]], 16)
    to_right = encode_path([lids[trunk], lids[right]], 16)
    tree = combine_trees([to_left, to_right], 16)
    # the shared trunk contributes its bit once
    assert tree.popcount() == 3
    for k in (trunk, left, right):
        assert should_forward(tree, lids[k])
    assert combine_trees([], width=16).popcount() == 0


def _random_out_tree(rng, topo, root):
    """Directed tree of egress links reachable from root."""
    chosen = []
    seen = {root}
    frontier = [root]
    while frontier:
        node = frontier.pop(rng.randrange(len(frontier)))
        for link in topo.egress(node):
            if link.dst not in seen and rng.random() < 0.8:
                seen.add(link.dst)
                chosen.append(link.key)
                frontier.append(link.dst)
    return chosen


def test_exact_traversal_matches_encoded_set(topo_factory):
    """Walking a FID through the graph uses exactly the encoded links."""
    rng = random.Random(21)
    for _ in range(50):
        topo = topo_factory(rng)
        lids = assign_link_ids(
            topo, FidConfig(m=len(topo.links), k=5, mode="exact"), seed=3)
        root = f"n{rng.randrange(len(topo.nodes)):02d}"
        tree = _random_out_tree(rng, topo, root)
        fid = encode_path([lids[k] for k in tree], width=len(topo.links))
        trace = trace_delivery(topo, lids, fid, root, ttl=64, sinks=set())
        assert trace.links_used == set(tree)


def _random_shortest_tree(rng, topo, root):
    """Random shortest-path tree to a random receiver subset.

    Links always step one hop further from the root, the same discipline
    path computation uses; unions of such trees therefore stay acyclic,
    which is what keeps OR-composed multicast identifiers loop-free.
    """
    dist = {root: 0}
    order = [root]
    i = 0
    while i < len(order):
        u = order[i]
        i += 1
        for link in topo.egress(u):
            if link.dst not in dist:
                dist[link.dst] = dist[u] + 1
                order.append(link.dst)
    parent = {}
    for node in order[1:]:
        candidates = [l.key for u in order for l in topo.egress(u)
                      if l.dst == node and dist[u] + 1 == dist[node]]
        parent[node] = rng.choice(candidates)
    chosen = set()
    for node in order[1:]:
        if rng.random() < 0.4:
            cur = node
            while cur != root:
                key = parent[cur]
                if key in chosen:
                    break
                chosen.add(key)
                cur = topo.links[key].src
    return chosen


def test_exact_combination_traversal_is_union(topo_factory):
    rng = random.Random(22)
    for _ in range(50):
        topo = topo_factory(rng)
        m = len(topo.links)
        lids = assign_link_ids(topo, FidConfig(m=m, k=5, mode="exact"), seed=4)
        root = f"n{rng.randrange(len(topo.nodes)):02d}"
        t1 = _random_shortest_tree(rng, topo, root)
        t2 = _random_shortest_tree(rng, topo, root)
        f1 = encode_path([lids[k] for k in t1], width=m)
        f2 = encode_path([lids[k] for k in t2], width=m)
        both = combine_trees([f1, f2], m)
        trace = trace_delivery(topo, lids, both, root, ttl=64, sinks=set())
        used1 = trace_delivery(topo, lids, f1, root, ttl=64,
                               sinks=set()).links_used
        used2 = trace_delivery(topo, lids, f2, root, ttl=64,
                               sinks=set()).links_used
        assert trace.links_used == t1 | t2
        assert trace.links_used >= used1 | used2


def test_false_positive_rate_formula():
    assert false_positive_rate(64, 3, 0) == 0.0
    # one encoded link: chance an unrelated id is covered
    m, k = 64, 3
    expect = (1 - (1 - 1 / m) ** k) ** k
    assert false_positive_rate(m, k, 1) == pytest.approx(expect)
    # monotone in n
    rates = [false_positive_rate(64, 3, n) for n in range(1, 20)]
    assert rates == sorted(rates)


def test_bloom_monte_carlo_matches_analytic(chain_factory):
    """Empirical false-positive rate within 2x of the formula; members
    are always covered (no false negatives)."""
    m, k, n = 64, 3, 10
    rng = random.Random(31)
    topo = chain_factory(2000)
    keys = topo.sorted_link_keys()
    lids = assign_link_ids(topo, FidConfig(m=m, k=k, mode="bloom"), seed=7)
    hits = 0
    probes = 10_000
    per_round = 100
    rounds = probes // per_round
    for _ in range(rounds):
        member_keys = rng.sample(keys, n)
        fid = encode_path([lids[key] for key in member_keys], width=m)
        members = set(member_keys)
        for key in member_keys:
            assert should_forward(fid, lids[key])
        for _ in range(per_round):
            probe = rng.choice(keys)
            while probe in members:
                probe = rng.choice(keys)
            if should_forward(fid, lids[probe]):
                hits += 1
    analytic = false_positive_rate(m, k, n)
    empirical = hits / probes
    assert empirical <= 2 * analytic
    assert empirical >= analytic / 4
