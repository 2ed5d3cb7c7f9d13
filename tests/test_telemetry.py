"""Event log reducers, export round-trips, hashing."""

import hashlib
import io
import json
import random
import tracemalloc
from array import array
from itertools import repeat

import pytest

from conftest import PARAMS
from icnsim.apps import IptvSource
from icnsim.fabric import Fabric
from icnsim.harness import load_scenario, run_scenario
from icnsim.simkernel import Engine
from icnsim.telemetry import (_BATCH, _READ_BATCH, _SCHEMAS, EVENT_FIELDS,
                              VARIANT_FIELD, EventLog, RunArtifacts,
                              Telemetry, canonical_json,
                              conservation_from_events, disruption_intervals,
                              drops_by_reason, encode_lines, events_hash,
                              export, export_csv, import_artifacts,
                              link_bytes_from_events,
                              merge_ratios, render_summary,
                              stalls_from_events, summarize)
from icnsim.topology import TopologyGraph


# the meta fields import_artifacts requires, as every export writes them
META = {"mode": "icn", "seed": 1, "scenario": "tiny", "config_hash": "0" * 64}


def ev(t, el, event, **fields):
    return {"t": t, "el": el, "ev": event, **fields}


def log_of(records):
    """An EventLog of record dicts, each checked as import checks it."""
    log = EventLog()
    log.extend(records)
    return log


def streamed(log):
    """The bytes log.hash(out) writes; checks they are what it hashes."""
    buf = io.BytesIO()
    digest = log.hash(buf)
    data = buf.getvalue()
    assert hashlib.sha256(data).hexdigest() == digest
    return data


def test_canonical_json_is_key_sorted_and_compact():
    rec = {"b": 2, "a": 1, "c": [1, 2]}
    assert canonical_json(rec) == '{"a":1,"b":2,"c":[1,2]}'
    assert canonical_json(rec) == canonical_json({"c": [1, 2], "a": 1, "b": 2})


def test_event_log_hash_is_order_sensitive():
    inject = dict(pid=1, kind="data", name="n", size=10)
    deliver = dict(pid=1, kind="data", size=10, consumers=1, spurious=False)
    a, b = EventLog(), EventLog()
    a.append(1, "x", "pkt_inject", **inject)
    a.append(2, "y", "pkt_deliver", **deliver)
    b.append(2, "y", "pkt_deliver", **deliver)
    b.append(1, "x", "pkt_inject", **inject)
    assert a.hash() != b.hash()
    c = EventLog()
    c.append(1, "x", "pkt_inject", **inject)
    c.append(2, "y", "pkt_deliver", **deliver)
    assert a.hash() == c.hash()
    assert events_hash(a) == a.hash()


def test_encode_lines_matches_json_dumps_across_batches():
    values = [0, -7, 2**70, True, False, None, 0.1, -2.5e-300, float("nan"),
              float("inf"), float("-inf"), "caf\u00e9 \u2603 \U0001f4fa",
              "tab\tnl\nnul\x00\x1f\"q\"\\", [1, [None, "x"], []], {}]
    log = [{"t": i, "v": values[i % len(values)], "el": f"e{i % 3}",
            "b": [values[(i + 1) % len(values)], {"z": i, "a": None}]}
           for i in range(2 * _BATCH + 1)]
    assert encode_lines(log) == "".join(
        json.dumps(r, sort_keys=True, separators=(",", ":")) + "\n"
        for r in log).encode()
    assert encode_lines([]) == b""
    loop = {"t": 1}
    loop["self"] = loop
    with pytest.raises(ValueError):
        json.dumps(loop)
    with pytest.raises(ValueError):
        encode_lines([{"t": 0}, loop])
    with pytest.raises(TypeError):
        encode_lines([{"t": 0, "members": {"a"}}])


def pkt_fwd_log(batches):
    log = EventLog()
    for i in range(batches * _BATCH):
        log.append(i, f"sw{i % 7}", "pkt_fwd", pid=i, kind="stream",
                   link=f"l{i % 5}:sw{i % 7}->sw{i % 3}", size=1400,
                   start=i, arrive=i + 112)
    return log


def test_encode_lines_peaks_at_output_plus_one_batch():
    """encode_lines peaks at its output plus one batch's working memory:
    under 6 batches of output, where encoding all records at once takes
    over 11."""
    batches = 8
    records = list(pkt_fwd_log(batches))
    tracemalloc.start()
    try:
        size = len(encode_lines(records))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - size < 6 * size // batches


class ByteCounter:
    """A binary file that keeps only the number of bytes written to it."""

    def __init__(self):
        self.size = 0

    def write(self, data):
        self.size += len(data)


def test_hash_streams_the_encoding_and_keeps_none_of_it():
    """hash(), with or without a file to write to, peaks under 5 batches
    of text (one batch's lines, their join and its bytes), not at the
    whole encoding of 8 batches, and keeps no copy of it: under a quarter
    batch is still allocated when it returns."""
    batches = 8
    log = pkt_fwd_log(batches)
    size = len(streamed(log))
    for out in (None, ByteCounter()):
        tracemalloc.start()
        try:
            digest = log.hash(out)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert digest == hashlib.sha256(encode_lines(list(log))).hexdigest()
        assert peak < 5 * size // batches
        assert kept < size // (4 * batches)
        if out is not None:
            assert out.size == size


def test_disabled_telemetry_records_nothing():
    """The fabric's counter flush is the one writer of samples; with
    telemetry off it records none, however much the log holds."""
    topo = TopologyGraph()
    topo.add_node("a", "fn")
    topo.add_node("b", "fn")
    topo.add_link("ab", "a", "b", 8_000_000, 500)
    log = EventLog()
    log.write("pkt_fwd", 0, "a", 1, "chunk", "ab:a->b", 1000, 0, 1500)
    log.write(("pkt_drop", "no_egress"), 2, "b", 2, "chunk", 10)
    tel = Telemetry(enabled=False)
    empty = tel.hash()
    Fabric(Engine(), topo, log, tel, PARAMS).flush_counters()
    assert tel.samples == []
    assert tel.hash() == empty


def test_conservation_balances_branch_surplus():
    events = [
        ev(0, "a", "pkt_inject", pid=1, kind="chunk", name="n", size=1000),
        ev(1, "b", "pkt_branch", pid=1, size=1000, extra=1),
        ev(2, "c", "pkt_deliver", pid=1, kind="chunk", size=1000,
           consumers=1, spurious=False),
        ev(2, "d", "pkt_deliver", pid=1, kind="chunk", size=1000,
           consumers=1, spurious=False),
    ]
    cons = conservation_from_events(log_of(events))
    assert cons["balanced"]
    assert cons["injected_bytes"] == 1000
    assert cons["branch_extra_bytes"] == 1000
    assert cons["delivered_bytes"] == 2000
    lost = conservation_from_events(log_of(events[:-1]))
    assert not lost["balanced"]
    assert lost["in_flight_bytes"] == 1000


def test_link_bytes_split_by_class():
    events = [
        ev(0, "a", "pkt_fwd", pid=1, kind="chunk", link="l1:a->b", size=100,
           start=0, arrive=9),
        ev(1, "a", "pkt_fwd", pid=2, kind="stream", link="l1:a->b", size=50,
           start=1, arrive=9),
        ev(2, "b", "pkt_fwd", pid=1, kind="chunk", link="l2:b->c", size=70,
           start=2, arrive=9),
    ]
    out = link_bytes_from_events(log_of(events))
    assert out["total"] == {"l1:a->b": 150, "l2:b->c": 70}
    assert out["by_class"]["l1:a->b"] == {"chunk": 100, "stream": 50}


def test_drops_grouped_by_reason():
    events = [
        ev(0, "a", "pkt_drop", pid=1, kind="chunk", size=1, reason="queue_cap"),
        ev(1, "a", "pkt_drop", pid=2, kind="chunk", size=1, reason="queue_cap"),
        ev(2, "a", "pkt_drop", pid=3, kind="chunk", size=1, reason="zero_fid"),
    ]
    assert drops_by_reason(log_of(events)) == {
        "queue_cap": 2, "zero_fid": 1}


def test_a_reducer_called_again_after_more_appends_sees_the_whole_log():
    log = EventLog()
    log.write(("pkt_drop", "queue_cap"), 0, "a", 1, "chunk", 1)
    log.write("pkt_inject", 0, "a", 1, "chunk", "n", 5)
    assert drops_by_reason(log) == {"queue_cap": 1}
    assert conservation_from_events(log)["dropped_bytes"] == 1
    log.write(("pkt_drop", "zero_fid"), 1, "a", 2, "chunk", 2)
    log.write(("pkt_drop", "link_down"), 2, "b", 3, "chunk", 4, "l:a->b")
    log.append(3, "c", "pkt_deliver", pid=1, kind="chunk", size=5,
               consumers=1, spurious=False)
    assert drops_by_reason(log) == {"queue_cap": 1, "zero_fid": 1,
                                    "link_down": 1}
    cons = conservation_from_events(log)
    assert (cons["dropped_bytes"], cons["dropped_pkts"]) == (7, 3)
    assert cons["delivered_pkts"] == 1


def test_columns_and_counts():
    """A plain kind's column is in log order; a variant kind's column
    holds every variant's values, in no set order."""
    log = EventLog()
    log.write("pkt_fwd", 0, "a", 1, "chunk", "l:a->b", 100, 0, 9)
    log.write(("pkt_drop", "link_down"), 1, "a", 2, "chunk", 7, "l:a->b")
    log.write(("pkt_drop", "queue_cap"), 2, "a", 3, "chunk", 5)
    log.write("pkt_fwd", 3, "b", 1, "chunk", "m:b->c", 200, 3, 12)
    log.write(("pkt_drop", "link_down"), 4, "a", 4, "chunk", 3, "l:a->b")
    log.write("pkt_fwd", 5, "c", 1, "chunk", "n:c->d", 300, 5, 14)
    fwd = [rec for rec in log if rec["ev"] == "pkt_fwd"]
    for name in EVENT_FIELDS["pkt_fwd"] + ("t", "el"):
        assert list(log.column("pkt_fwd", name)) == [r[name] for r in fwd]
    assert list(log.column("pkt_fwd", "link")) == ["l:a->b", "m:b->c",
                                                   "n:c->d"]
    assert sorted(log.column("pkt_drop", "size")) == [3, 5, 7]
    assert list(log.column("stb_rx", "size")) == []
    assert (log.count("pkt_fwd"), log.count("pkt_drop"),
            log.count("pkt_drop", "link_down"), log.count("stb_rx")) == (
                3, 3, 2, 0)
    # ev and the variant field are not stored; link is not in every variant
    for kind, name in (("pkt_fwd", "ev"), ("pkt_drop", "reason"),
                       ("pkt_drop", "link"), ("pkt_fwd", "nope")):
        with pytest.raises(ValueError):
            log.column(kind, name)


def test_column_and_count_of_an_undeclared_kind_raise():
    """A misspelled kind or variant raises instead of reading as no
    traffic; a declared kind with no records reads as empty."""
    log = EventLog()
    log.write("stb_rx", 0, "stb", "ch:a", 1400)
    for kind in ("stb_rxx", "", ("pkt_drop", "queue_cap")):
        with pytest.raises(ValueError, match="undeclared event kind"):
            log.column(kind, "t")
        with pytest.raises(ValueError, match="undeclared event kind"):
            log.count(kind)
    for kind, variant in (("pkt_drop", "meteor"), ("stb_rx", "x"),
                          ("stb_rxx", None)):
        with pytest.raises(ValueError, match="undeclared event kind"):
            log.count(kind, variant)
    assert (log.count("stb_rx"), log.count("pkt_fwd"),
            log.count("pkt_drop", "queue_cap")) == (1, 0, 0)
    assert list(log.column("pkt_fwd", "t")) == []


def test_merge_ratios_for_fetches_and_streams():
    events = []
    for _ in range(2):
        events.append(ev(0, "srv", "server_resp", kind="chunk", path="/x",
                         status=200, size=1))
    for _ in range(20):
        events.append(ev(1, "c", "http_resp", kind="chunk", path="/x",
                         status=200, size=1, elapsed_us=1))
    for _ in range(3):
        events.append(ev(2, "snap", "pkt_inject", pid=1, kind="stream",
                         name="ch:ch1", size=1400))
    for _ in range(30):
        events.append(ev(3, "stb", "stb_rx", name="ch:ch1", size=1400))
    ratios = merge_ratios(log_of(events))
    assert ratios["chunk"] == {"server_tx": 2, "client_rx": 20, "ratio": 10.0}
    assert ratios["stream"] == {"server_tx": 3, "client_rx": 30, "ratio": 10.0}


def test_merge_ratio_without_transmissions_is_undefined():
    ratios = merge_ratios(log_of([
        ev(0, "c", "http_resp", kind="chunk", path="/x", status=200, size=1,
           elapsed_us=1)]))
    assert ratios["chunk"]["ratio"] is None


def one_sink(times, start, end, gaps):
    """disruption_intervals of one sink's arrivals and span."""
    arrivals = zip(repeat("stb"), times, gaps)
    return disruption_intervals(arrivals, {"stb": (start, end)})["stb"]


def test_disruption_intervals_report_large_gaps_only():
    times = [100, 200, 300, 1000, 1100]
    assert one_sink(times, 0, 2000, [500] * 5) == [(300, 1000)]
    # any real threshold, not only an int
    assert one_sink(times, 0, 2000, [699.5] * 5) == [(300, 1000)]
    assert one_sink(times, 0, 2000, [700.0] * 5) == []
    # each gap is judged by the threshold of the arrival that ends it
    assert one_sink(times, 0, 2000, [0, 0, 0, 700, 0]) == [
        (100, 200), (200, 300), (1000, 1100)]
    # a gap exactly at the threshold is normal jitter
    assert one_sink([0, 500], 0, 1000, [500, 500]) == []
    # arrivals outside the active span are ignored
    assert one_sink([5, 700, 2500], 600, 800, [50] * 3) == []


def test_no_arrivals_count_as_whole_span_disruption():
    assert one_sink([], 10, 50, []) == [(10, 50)]
    assert one_sink([], 10, 10, []) == []


def sorted_disruption_intervals(arrival_times, active_start, active_end,
                                max_gap_us):
    """The reference: every in-span arrival as a (time, gap) pair, sorted,
    then each consecutive pair judged by the later one's gap."""
    arrivals = sorted((t, gap) for t, gap in zip(arrival_times, max_gap_us)
                      if active_start <= t <= active_end)
    if not arrivals:
        if active_end > active_start:
            return [(active_start, active_end)]
        return []
    return [(prev, nxt) for (prev, _), (nxt, gap)
            in zip(arrivals, arrivals[1:]) if nxt - prev > gap]


def log_order_intervals(arrival_times, active_start, active_end,
                        max_gap_us):
    """The rule a fold that takes ties in log order would follow: a gap
    ending at a tie judged by the threshold first logged at that time."""
    firsts = {}
    for t, gap in zip(arrival_times, max_gap_us):
        if active_start <= t <= active_end:
            firsts.setdefault(t, gap)
    return sorted_disruption_intervals(list(firsts), active_start,
                                       active_end, list(firsts.values()))


# channel -> bitrate (Mb/s); at MTU 1400 each is judged by twice its
# packet interval: 22,400, 11,200, 5,600 and 2,800 us
CHANNELS = {"c1": 1, "c2": 2, "c4": 4, "c8": 8}
THRESHOLD = {name: 2 * 1400 * 8 // mbps for name, mbps in CHANNELS.items()}


def random_arrivals(rng):
    """Set-top boxes interleaved in one log: (box, time, channel) in time
    order, with ties at one time on different channels, zaps that change
    a box's channel, and active spans that start after some arrivals,
    end before others, are empty, or are missing."""
    boxes = [f"stb{i}" for i in range(rng.randrange(1, 5))]
    channel = {box: rng.choice(list(CHANNELS)) for box in boxes}
    t, arrivals = 0, []
    box = boxes[0]
    for _ in range(rng.randrange(60)):
        step = rng.choice((0, 0, 1_000, 2_800, 3_000, 5_600, 6_000, 11_200,
                           12_000, 22_400, 25_000))
        t += step
        # a tie is most often the same box, across a zap
        if step or rng.random() < 0.3:
            box = rng.choice(boxes)
        if rng.random() < (0.7 if step == 0 else 0.15):
            channel[box] = rng.choice(list(CHANNELS))
        arrivals.append((box, t, channel[box]))
    spans = {}
    for box in boxes:
        pick = rng.randrange(6)
        if pick == 0:
            continue
        if pick == 1:
            start = rng.randrange(t + 1)
            spans[box] = (start, start)
        else:
            spans[box] = tuple(sorted(rng.randrange(-5_000, t + 5_000)
                                      for _ in range(2)))
    return arrivals, spans


def reference(arrivals, spans, rule=sorted_disruption_intervals):
    """Each spanned box's intervals by rule, from its own arrivals."""
    out = {}
    for box, (start, end) in spans.items():
        mine = [(t, THRESHOLD[ch]) for b, t, ch in arrivals if b == box]
        out[box] = rule([t for t, _ in mine], start, end,
                        [gap for _, gap in mine])
    return out


def test_disruption_intervals_match_the_sorted_reference():
    """Random interleaved boxes: the fold gives each box the intervals of
    sorting its in-span arrivals as (time, threshold) pairs, so a gap
    ending at a tie is judged by the tie's smallest threshold, and
    summarize of a log of the same records reports the same intervals.
    A fold that took ties in log order would fail: that rule differs on
    some of these cases."""
    rng = random.Random(3)
    config = {"params": {"mtu": 1400},
              "apps": {"iptv": {"channels": [
                  {"name": name, "bitrate_mbps": mbps}
                  for name, mbps in CHANNELS.items()]}}}
    differs = empty = silent = 0
    for _ in range(400):
        arrivals, spans = random_arrivals(rng)
        want = reference(arrivals, spans)
        got = disruption_intervals(
            ((box, t, THRESHOLD[ch]) for box, t, ch in arrivals), spans)
        assert got == want
        differs += want != reference(arrivals, spans, log_order_intervals)
        empty += any(start == end for start, end in spans.values())
        silent += any(box not in {b for b, _, _ in arrivals}
                      for box in spans)
        records = [ev(start, box, "stb_active", until=end)
                   for box, (start, end) in spans.items()]
        records += [ev(t, box, "stb_rx", name=f"ch:{ch}", size=1400)
                    for box, t, ch in arrivals]
        records.sort(key=lambda r: r["t"])
        summary = summarize(RunArtifacts(config=config, mode="icn", seed=1,
                                         events=log_of(records), samples=[],
                                         meta={}))
        assert summary.get("disruptions", {}) == {
            box: [{"start": s, "end": e, "us": e - s} for s, e in ivs]
            for box, ivs in sorted(want.items())}
    assert differs > 10 and empty > 10 and silent > 10


def test_disruption_intervals_refuse_an_arrival_back_in_time():
    """The fold keeps no arrival, so it takes each sink's arrivals in
    time order, as a log holds them, and refuses one that goes back."""
    with pytest.raises(ValueError, match="stb: arrival at 5 after one at 9"):
        one_sink([1, 9, 5], 0, 10, [3, 3, 3])
    # another sink's later arrival is no reason to refuse
    assert disruption_intervals([("a", 9, 3), ("b", 5, 3)],
                                {"a": (0, 10), "b": (0, 10)}) == {
        "a": [], "b": []}


def test_disruption_intervals_in_order_build_no_pair_per_arrival():
    """Arrivals are folded as they come: 100,000 of them allocate under
    100 kB, where sorting them as pairs takes about 7 MB."""
    times = list(range(0, 10_000_000, 100))
    gaps = [150] * len(times)
    times[5000] += 60
    tracemalloc.start()
    try:
        out = one_sink(times, 0, times[-1], gaps)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert out == [(times[4999], times[5000])]
    assert peak < 100_000


def test_summarize_adds_no_memory_per_arrival():
    """summarize folds the disruptions from the log's columns in one
    pass: on a log of two boxes and 50,000 stb_rx records it adds under
    64 kB, where keeping each box's arrival times and thresholds in
    int arrays added about 16 B per arrival."""
    config = {"params": {"mtu": 1400},
              "apps": {"iptv": {"channels": [{"name": "c2",
                                              "bitrate_mbps": 2}]}}}
    log = EventLog()
    for box in ("stb1", "stb2"):
        log.append(0, box, "stb_active", until=10**9)
    n = 50_000
    for i in range(n):
        # every 997th arrival is late by more than the 11,200 us threshold
        t = 5_600 * i + 20_000 * (i // 997)
        log.write("stb_rx", t, f"stb{i % 2 + 1}", "ch:c2", 1400)
    assert log.count("stb_rx") == n
    art = RunArtifacts(config=config, mode="icn", seed=1, events=log,
                       samples=[], meta={})
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        summary = summarize(art)
        added = tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()
    assert [len(summary["disruptions"][box]) for box in ("stb1", "stb2")] \
        == [50, 50]
    assert added < 64 * 1024


def test_stall_replay_matches_live_accounting():
    events = [
        ev(1_000, "c1", "chunk_done", path="/live/2/0", size=1, ewma_bps=1, n=1),
        ev(2_751_000, "c1", "chunk_done", path="/live/2/1", size=1,
           ewma_bps=1, n=2),
        ev(5_800_000, "c1", "chunk_done", path="/live/2/2", size=1,
           ewma_bps=1, n=3),
    ]
    out = stalls_from_events(log_of(events),
                             chunk_duration_us=2_000_000,
                             startup_hold_us=750_000)
    assert out == {"c1": {"total_us": 1_049_000, "events": 1}}


def test_disruption_threshold_follows_each_packets_channel():
    """An 8 Mb/s and a 2 Mb/s channel: each gap is judged by the packet
    interval of the channel that ends it, across a zap, in both planes."""
    config = {"params": {"mtu": 1400},
              "apps": {"iptv": {"channels": [
                  {"name": "hd", "bitrate_mbps": 8},
                  {"name": "sd", "bitrate_mbps": 2}]}}}
    # sd packets every 5600 us, zap, then hd packets every 1400 us with
    # one late packet 4000 us after its predecessor
    sd = [5_600 * i for i in range(10)]
    hd = [52_000 + 1_400 * i for i in range(10)] + [68_600, 70_000, 71_400]
    events = []
    for stb, prefix in (("stb_icn", "ch"), ("stb_ip", "g")):
        events.append(ev(0, stb, "stb_active", until=80_000))
        events += [ev(t, stb, "stb_rx", name=f"{prefix}:sd", size=1400)
                   for t in sd]
        events.append(ev(51_000, stb, "zap", from_channel="sd",
                         to_channel="hd"))
        events += [ev(t, stb, "stb_rx", name=f"{prefix}:hd", size=1400)
                   for t in hd]
    events.sort(key=lambda r: r["t"])
    summary = summarize(RunArtifacts(config=config, mode="icn", seed=1,
                                     events=log_of(events), samples=[],
                                     meta={}))
    assert summary["disruption_gap_threshold_us"] == {"hd": 2_800,
                                                      "sd": 11_200}
    late = [{"start": 64_600, "end": 68_600, "us": 4_000}]
    assert summary["disruptions"] == {"stb_icn": late, "stb_ip": late}


def test_gap_threshold_is_twice_the_sources_packet_interval():
    """At 6 Mb/s and MTU 1400 the source sends every 1866 us (rounded
    down), so a 3732 us gap is on time and a 3733 us gap is not."""
    source = IptvSource("ch", None, bitrate_mbps=6, pkt_bytes=1400,
                        start_us=0, stop_us=0, engine=Engine())
    assert source.interval_us == 1_866
    config = {"params": {"mtu": 1400},
              "apps": {"iptv": {"channels": [{"name": "ch",
                                              "bitrate_mbps": 6}]}}}
    events = [ev(0, "stb", "stb_active", until=10_000)]
    events += [ev(t, "stb", "stb_rx", name="ch:ch", size=1400)
               for t in (0, 3_732, 7_465)]
    summary = summarize(RunArtifacts(config=config, mode="icn", seed=1,
                                     events=log_of(events), samples=[],
                                     meta={}))
    assert summary["disruption_gap_threshold_us"] == {"ch": 3_732}
    assert summary["disruptions"] == {
        "stb": [{"start": 3_732, "end": 7_465, "us": 3_733}]}


def make_artifacts():
    events = [
        ev(0, "snap", "pkt_inject", pid=1, kind="chunk", name="n", size=1000),
        ev(5, "cnap", "pkt_deliver", pid=1, kind="chunk", size=1000,
           consumers=1, spurious=False),
    ]
    samples = [{"t": 10, "el": "sw", "metric": "tx_bytes", "value": 1000}]
    config = {"scenario": "tiny", "params": {"seed": 1}}
    log = log_of(events)
    meta = {**META, "events_hash": events_hash(log)}
    return RunArtifacts(config=config, mode="icn", seed=1, events=log,
                        samples=samples, meta=meta)


def test_export_import_round_trip(tmp_path):
    artifacts = make_artifacts()
    paths = export(artifacts, str(tmp_path / "out"))
    assert sorted(paths) == ["effective_config.json", "events.jsonl",
                             "meta.json", "metrics.csv", "summary.txt"]
    back = import_artifacts(str(tmp_path / "out"))
    assert back.events == artifacts.events
    assert back.samples == artifacts.samples
    assert back.config == artifacts.config
    assert back.meta == artifacts.meta
    assert events_hash(back.events) == artifacts.meta["events_hash"]
    # events.jsonl holds events only: the sample lines older exports
    # appended there are refused
    with open(paths["events.jsonl"], "ab") as fh:
        fh.write(b'{"el":"sw","ev":"sample","metric":"tx_bytes","t":10,'
                 b'"value":1000}\n')
    with pytest.raises(ValueError, match="unknown event kind 'sample'"):
        import_artifacts(str(tmp_path / "out"))


def test_import_across_batches_skips_blank_lines(tmp_path):
    events = [ev(i, f"sw{i % 5}", "pkt_fwd", pid=i, kind="chunk",
                 link=f"l{i % 9}:a->b", size=1400, start=i, arrive=i + 9)
              for i in range(20_000)]
    samples = [{"t": i, "el": "sw", "metric": "tx_bytes", "value": i}
               for i in range(100)]
    artifacts = RunArtifacts(config={"name": "big"}, mode="icn", seed=1,
                             events=log_of(events), samples=samples,
                             meta=dict(META))
    export(artifacts, str(tmp_path))
    path = tmp_path / "events.jsonl"
    data = path.read_bytes()
    assert len(data) > 2 << 20
    # a run of blank lines that covers the end of the first read batch, so
    # one batch ends and the next starts inside it; more blank lines
    # mid-file and at the end
    mark = _READ_BATCH
    start = data.rindex(b"\n", 0, mark) + 1
    data = data[:start] + b"\n" * (mark - start + 8) + data[start:]
    mid = data.index(b"\n", 3 << 19) + 1
    data = data[:mid] + b"\n  \n" + data[mid:] + b"\n\n"
    path.write_bytes(data)
    back = import_artifacts(str(tmp_path))
    assert list(back.events) == events
    assert back.samples == samples
    assert events_hash(back.events) == artifacts.meta["events_hash"]


def test_export_writes_the_hashed_bytes_of_the_same_events_only(tmp_path):
    log = EventLog()
    log.append(1, "x", "pkt_inject", pid=1, kind="data", name="n", size=10)
    log.append(2, "y", "pkt_deliver", pid=1, kind="data", size=10,
               consumers=1, spurious=False)
    digest = log.hash()
    artifacts = RunArtifacts(config={"name": "t"}, mode="icn", seed=1,
                             events=log, samples=[],
                             meta={"events_hash": digest})
    export(artifacts, str(tmp_path / "all"))
    with open(tmp_path / "all" / "events.jsonl", "rb") as fh:
        hashed = fh.read()
    assert hashed == streamed(log) == encode_lines(list(log))
    assert hashlib.sha256(hashed).hexdigest() == digest
    assert artifacts.meta["events_hash"] == digest
    # a replaced event list is encoded afresh, not taken from the old
    # bytes, and meta.json carries the hash of what was written
    kept = [r for r in log if r["ev"] == "pkt_inject"]
    replaced = RunArtifacts(config=artifacts.config, mode=artifacts.mode,
                            seed=artifacts.seed, events=log_of(kept),
                            samples=artifacts.samples,
                            meta=dict(artifacts.meta))
    export(replaced, str(tmp_path / "kept"))
    with open(tmp_path / "kept" / "events.jsonl", "rb") as fh:
        assert fh.read() == encode_lines(kept)
    with open(tmp_path / "kept" / "meta.json") as fh:
        assert json.load(fh)["events_hash"] == events_hash(
            log_of(kept)) != digest
    # and a log that grew after hashing is encoded again
    log.append(3, "y", "stb_rx", name="ch:a", size=10)
    assert streamed(log) == encode_lines(list(log)) != hashed
    assert log.hash() != digest


def test_export_csv_layout():
    text = export_csv([{"t": 1, "el": "sw", "metric": "m", "value": 2}])
    assert text == "t,el,metric,value\n1,sw,m,2\n"


def test_summary_renders_every_section():
    artifacts = make_artifacts()
    summary = summarize(artifacts)
    assert summary["conservation"]["balanced"]
    assert summary["merge_ratios"] == {}
    text = render_summary(summary)
    assert "mode: icn" in text
    assert "conservation: injected=1000" in text
    assert "balanced=True" in text


# -- the typed log ------------------------------------------------------------

def random_value(rng):
    """A value of any type a record field may hold."""
    pick = rng.randrange(8)
    if pick == 0:
        return rng.choice([0, 1, -7, 2**63, 2**64 + 3, -(2**70)])
    if pick == 1:
        return rng.randrange(-10**12, 10**12)
    if pick == 2:
        return rng.choice([True, False, None])
    if pick == 3:
        return rng.choice([0.5, -0.0, -2.5e-300, 1e300, float("nan"),
                           float("inf"), float("-inf"), rng.random()])
    if pick == 4:
        return rng.choice(["", "café ☃ \U0001f4fa", "\ud800",
                           "tab\tnl\nnul\x00\x1f\x7f \"q\" \\ / %s %% %d"])
    if pick == 5:
        return "".join(chr(rng.choice([rng.randrange(0x20),
                                       rng.randrange(0x20, 0x80),
                                       rng.randrange(0x80, 0x110000)]))
                       for _ in range(rng.randrange(6)))
    if pick == 6:
        return [random_value(rng) for _ in range(rng.randrange(4))]
    return rng.choice(["ch:ch1", "l1:a->b", "/live/2/7"])


def random_log(rng, per_schema=20):
    """A log holding records of every schema in EVENT_FIELDS, interleaved,
    with random values in every field but the variant one; returns the
    log and its records as dicts.  Each field of each schema holds values
    of any type, or of one type only (int, str or bool), since the encoder
    renders a field of one type apart."""
    one_type = {"int": lambda: rng.randrange(-2**70, 2**70),
                "str": lambda: "".join(rng.choice("ab\"\\\x01\u00e9%")
                                       for _ in range(rng.randrange(4))),
                "bool": lambda: rng.random() < 0.5,
                "any": lambda: random_value(rng)}
    schemas = []
    for kind, decl in EVENT_FIELDS.items():
        if kind in VARIANT_FIELD:
            schemas += [(kind, fields, {VARIANT_FIELD[kind]: variant})
                        for variant, fields in decl.items()]
        else:
            schemas.append((kind, decl, {}))
    styles = {(kind, tuple(fixed.items())):
              {f: one_type[rng.choice(sorted(one_type))]
               for f in ("el",) + fields}
              for kind, fields, fixed in schemas}
    log, records = EventLog(), []
    for _ in range(per_schema):
        rng.shuffle(schemas)
        for kind, fields, fixed in schemas:
            style = styles[kind, tuple(fixed.items())]
            values = {f: fixed.get(f) or style[f]() for f in fields}
            t, el = rng.randrange(10**9), style["el"]()
            log.append(t, el, kind, **values)
            records.append({"t": t, "el": el, "ev": kind, **values})
    return log, records


def test_compiled_encoder_matches_json_dumps_for_every_schema():
    rng = random.Random(6)
    for _ in range(5):
        log, records = random_log(rng)
        lines = streamed(log).splitlines(keepends=True)
        assert len(lines) == len(records)
        for line, rec in zip(lines, records):
            assert line == (json.dumps(rec, sort_keys=True,
                                       separators=(",", ":")) + "\n").encode()
        assert streamed(log) == encode_lines(records)
        assert log.hash() == events_hash(log_of(records))


def test_random_log_round_trips_through_export_and_import(tmp_path):
    log, records = random_log(random.Random(7))
    meta = {**META, "events_hash": log.hash()}
    (tmp_path / "effective_config.json").write_text("{}")
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    samples = [{"t": 1, "el": "sw", "metric": "tx_bytes", "value": 5}]
    with open(tmp_path / "events.jsonl", "wb") as fh:
        assert log.hash(fh) == meta["events_hash"]
    (tmp_path / "metrics.csv").write_text(export_csv(samples))
    back = import_artifacts(str(tmp_path))
    assert events_hash(back.events) == meta["events_hash"]
    encoded = streamed(log)
    assert streamed(back.events) == encoded
    assert back.samples == samples
    # NaN is not equal to itself, so compare the NaN-free records
    plain = [i for i, line in enumerate(encoded.splitlines())
             if b"NaN" not in line]
    back_records = list(back.events)
    assert [back_records[i] for i in plain] == [records[i] for i in plain]


def test_log_reads_as_a_sequence_of_record_dicts():
    log = EventLog()
    log.write("pkt_inject", 0, "a", 7, "chunk", "n", 1000)
    log.write("pkt_fwd", 1, "a", 7, "chunk", "ab:a->b", 1000, 1, 9)
    log.write(("pkt_drop", "link_down"), 9, "b", 7, "chunk", 1000, "ab:a->b")
    log.append(9, "x", "stb_active", until=50)
    records = [
        ev(0, "a", "pkt_inject", pid=7, kind="chunk", name="n", size=1000),
        ev(1, "a", "pkt_fwd", pid=7, kind="chunk", link="ab:a->b",
           size=1000, start=1, arrive=9),
        ev(9, "b", "pkt_drop", pid=7, kind="chunk", size=1000,
           reason="link_down", link="ab:a->b"),
        ev(9, "x", "stb_active", until=50),
    ]
    assert len(log) == 4
    assert list(log) == records
    assert tuple(list(log)[2]) == ("t", "el", "ev") + EVENT_FIELDS[
        "pkt_drop"]["link_down"]
    # the dicts are built on access: changing one leaves the log alone
    next(iter(log))["size"] = 0
    assert list(log) == records
    assert log == log_of(records)


def stored_values(rec):
    """The key and stored values of a record dict, as write takes them."""
    kind = rec["ev"]
    field = VARIANT_FIELD.get(kind)
    key = kind if field is None else (kind, rec[field])
    return key, [v for k, v in rec.items() if k not in ("ev", field)]


def test_write_is_checked_and_atomic():
    """write of each record's stored values makes the log append makes,
    for every schema; a wrong value count, an unknown kind and an unknown
    variant raise and leave the log as it was."""
    appended, records = random_log(random.Random(13), per_schema=3)
    written = EventLog()
    for rec in records:
        key, values = stored_values(rec)
        written.write(key, *values)
    assert written == appended and written.hash() == appended.hash()
    assert list(written) == records
    before = log_of(records)
    key, values = stored_values(records[-1])
    bad = [(TypeError, key, values[:-1]), (TypeError, key, values + [1]),
           (TypeError, "stb_rx", [0, "x", "ch:a"]),
           (TypeError, ("pkt_drop", "queue_cap"), [0, "x", 1, "k", 1, "l"]),
           (KeyError, "no_such_kind", [0, "x"]),
           (KeyError, ("pkt_drop", "meteor"), [0, "x", 1, "k", 1]),
           (KeyError, "pkt_drop", [0, "x", 1, "k", 1]),
           (KeyError, ("stb_rx", "x"), [0, "x", "ch:a", 1])]
    for error, key, values in bad:
        with pytest.raises(error):
            written.write(key, *values)
        assert len(written) == len(records)
        assert written == before and written.hash() == before.hash()
    # a schema key is no event kind
    with pytest.raises(ValueError, match="unknown event kind"):
        written.append(0, "x", ("pkt_drop", "queue_cap"), pid=1, kind="k",
                        size=1, reason="queue_cap")
    assert written == before


def drop_mix():
    """pkt_drop records of the link_down and queue_cap variants,
    interleaved, as dicts."""
    out = []
    for i in range(30):
        fields = dict(pid=i, kind="chunk", size=100 + i)
        if i % 3:
            out.append(ev(i, f"n{i % 4}", "pkt_drop", **fields,
                          reason="queue_cap"))
        else:
            out.append(ev(i, f"n{i % 4}", "pkt_drop", **fields,
                          reason="link_down", link=f"l{i}:a->b"))
    return out


def test_log_reads_its_records_in_log_order():
    """Iteration and == follow log order across every schema, variants
    included, whichever way the records were appended."""
    rng = random.Random(11)
    log, records = random_log(rng, per_schema=4)
    mix = drop_mix()
    for rec in mix:
        key, values = stored_values(rec)
        log.write(key, *values)
    records += mix
    assert len(log) == len(records)
    assert list(log) == records
    # the same records make an equal log, however they are appended
    again = log_of(records)
    assert again == log and again.hash() == log.hash()
    swapped = records[:]
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    assert log_of(swapped) != log
    assert log_of(records[:-1]) != log
    changed = records[:-1] + [{**records[-1], "size": -1}]
    assert log_of(changed) != log


def test_export_then_import_returns_an_equal_log(tmp_path):
    log, records = random_log(random.Random(12), per_schema=5)
    # a parsed NaN is not equal to itself: keep the records JSON keeps
    records = [r for r in records + drop_mix()
               if json.loads(canonical_json(r)) == r]
    log = log_of(records)
    (tmp_path / "effective_config.json").write_text("{}")
    (tmp_path / "meta.json").write_text(json.dumps(META))
    with open(tmp_path / "events.jsonl", "wb") as fh:
        log.hash(fh)
    (tmp_path / "metrics.csv").write_text(export_csv([]))
    back = import_artifacts(str(tmp_path)).events
    assert back == log and back.hash() == log.hash()
    assert list(back) == records


def test_log_bytes_per_record():
    """The log's own memory per record, its values being shared objects
    made beforehand, so that neither ints nor encoded text count: about
    13 B with str fields as one-byte codes and ints at their narrowest
    width, about 50 B in one flat list per schema, about 105 B as one
    tuple per record."""
    n = 25_000
    ints = list(range(1000, 1000 + n + 200))
    links = [f"l{i}:sw1->sw2" for i in range(8)]
    tracemalloc.start()
    try:
        log = EventLog()
        for i in range(n):
            t = ints[i]
            log.write("pkt_fwd", t, "sw1", t, "stream", links[i % 8], 1400,
                      t, ints[i + 200])
            log.write("stb_rx", t, "stb1", "ch:ch1", 1400)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(log) == 2 * n
    assert size / len(log) < 30


def test_log_bytes_per_record_with_distinct_ints():
    """The same records with t, pid, start and arrive made afresh for each
    record, as a run makes them: each is 4 bytes in its column and its int
    object is freed, and each str field is one code byte, so the log stays
    under 30 B per record, where one object per value takes about 130 B
    and array('q') columns with str lists about 53 B."""
    n = 25_000
    links = [f"l{i}:sw1->sw2" for i in range(8)]
    tracemalloc.start()
    try:
        log = EventLog()
        for i in range(n):
            t = 1_000_000 + 3 * i
            log.write("pkt_fwd", t, "sw1", t + 7, "stream", links[i % 8],
                      1400, t + 1, t + 112)
            log.write("stb_rx", t + 2, "stb1", "ch:ch1", 1400)
        size = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(log) == 2 * n
    assert size / len(log) < 30


def stored_column(log, key, name):
    """The column that holds field `name` of schema `key`, packed."""
    log._pack()
    s = _SCHEMAS[key]
    return log._cols[s.sid][s.stored.index(name)]


def is_coded(col):
    return col.__class__ is array and col.typecode in "BHI"


@pytest.mark.parametrize("mode", ["icn", "ip"])
def test_a_runs_fields_are_coded_and_at_their_narrowest_width(mode):
    log = run_scenario(load_scenario("trial_topology"), mode).events
    assert log.count("pkt_fwd") > _BATCH
    for name in ("el", "kind", "link"):
        assert is_coded(stored_column(log, "pkt_fwd", name))
    size = stored_column(log, "pkt_fwd", "size")
    assert size.__class__ is array and size.typecode == "h"
    for name in ("t", "start", "arrive"):
        col = stored_column(log, "pkt_fwd", name)
        assert col.typecode in "bhi" and col.itemsize <= 4


def fwd(i, size=1400, link="l:a->b", kind="chunk"):
    return ev(i, "sw1", "pkt_fwd", pid=i, kind=kind, link=link, size=size,
              start=i, arrive=i)


def build(records, route):
    """A log of records, written one by one or extended in two parts."""
    log = EventLog()
    if route == "write":
        for rec in records:
            key, values = stored_values(rec)
            log.write(key, *values)
    else:
        log.extend(records[:len(records) // 3])
        log.extend(records[len(records) // 3:])
    return log


@pytest.mark.parametrize("route", ["write", "extend"])
def test_an_int_column_widens_across_packs_and_turns_into_a_list_past_64_bits(
        route):
    """Each pack widens the size column as far as its values need, and no
    further; 2**63 fits no array, so the column becomes a list."""
    steps = [(0, "b"), (-2**7, "b"), (2**7 - 1, "b"), (2**7, "h"),
             (-2**7 - 1, "h"), (2**15, "i"), (-2**15 - 1, "i"),
             (2**31, "q"), (-2**31 - 1, "q"), (2**63 - 1, "q"),
             (-2**63, "q")]
    records, widths = [], []
    for value, typecode in steps:
        records += [fwd(i, size=5) for i in range(len(records),
                                                  len(records) + _BATCH - 1)]
        records.append(fwd(len(records), size=value))
        widths.append((len(records), typecode))
    log = EventLog()
    done = 0
    for stop, typecode in widths:
        log.extend(records[done:stop])
        done = stop
        assert stored_column(log, "pkt_fwd", "size").typecode == typecode
    assert streamed(log) == encode_lines(records)
    log = build(records + [fwd(len(records), size=2**63)], route)
    col = stored_column(log, "pkt_fwd", "size")
    assert col.__class__ is list and col[-1] == 2**63
    assert col[:len(records)] == [r["size"] for r in records]
    assert stored_column(log, "pkt_fwd", "pid").typecode == "h"


@pytest.mark.parametrize("route", ["write", "extend"])
@pytest.mark.parametrize("odd", [None, True, 7], ids=repr)
def test_a_coded_column_that_meets_another_value_becomes_a_list(odd, route):
    records = [fwd(i, link=f"l{i % 3}:a->b") for i in range(_BATCH + 5)]
    records.append(fwd(_BATCH + 5, link=odd))
    records += [fwd(i, link="l9:a->b")
                for i in range(_BATCH + 6, 2 * _BATCH + 9)]
    log = build(records, route)
    col = stored_column(log, "pkt_fwd", "link")
    assert col.__class__ is list
    assert is_coded(stored_column(log, "pkt_fwd", "kind"))
    links = list(log.column("pkt_fwd", "link"))
    assert links == [r["link"] for r in records]
    assert [type(v) for v in links] == [type(r["link"]) for r in records]
    assert streamed(log) == encode_lines(records)
    assert list(log) == records
    # more strs after the list turned stay in the list
    log.write("pkt_fwd", 0, "sw1", 0, "chunk", "l0:a->b", 9, 0, 0)
    assert stored_column(log, "pkt_fwd", "link")[-2:] == ["l9:a->b", "l0:a->b"]


@pytest.mark.parametrize("strs, typecode", [(256, "B"), (257, "H"),
                                            (65_536, "H"), (65_537, "I")])
def test_codes_widen_with_the_number_of_distinct_strings(strs, typecode):
    """A coded column widens once its codes pass what its typecode holds,
    256 strs in B and 65,536 in H; every distinct str is kept once in the
    table, the other coded columns stay narrow, and the encoding does not
    change."""
    # "sw1" and "chunk" take the first two codes
    records = [fwd(i, link=f"l{i}") for i in range(strs - 2)]
    records += [fwd(i, link=f"l{i % 7}") for i in range(_BATCH)]
    log = log_of(records)
    assert len(log._table.strs) == strs
    assert stored_column(log, "pkt_fwd", "link").typecode == typecode
    assert stored_column(log, "pkt_fwd", "kind").typecode == "B"
    assert streamed(log) == encode_lines(records)
    assert list(log.column("pkt_fwd", "link")) == [r["link"]
                                                   for r in records]


def test_logs_of_the_same_records_are_equal_whatever_the_write_splits():
    """Codes follow the order strs are first packed in, which depends on
    where the packs fall; logs of the same records compare equal anyway,
    and unequal when one str differs."""
    rng = random.Random(3)
    names = [f"n{i}" for i in range(5000)]
    records = [rng.choice([
        ev(i, rng.choice(names), "stb_rx", name=rng.choice(names), size=1),
        fwd(i, link=rng.choice(names), kind=rng.choice(names))])
        for i in range(3 * _BATCH)]
    logs = [build(records, "write"), build(records, "extend")]
    late = EventLog()
    for part in (records[:_BATCH // 3], records[_BATCH // 3:_BATCH + 5],
                 records[_BATCH + 5:]):
        late.extend(part)
    logs.append(late)
    assert len({tuple(log._table.strs) for log in logs}) == len(logs)
    assert all(a == b for a in logs for b in logs)
    assert len({log.hash() for log in logs}) == 1
    changed = records[:]
    changed[_BATCH + 1] = {**changed[_BATCH + 1], "el": "other"}
    assert log_of(changed) != logs[0]
    assert logs[1] != log_of(changed)


def test_an_imported_log_shares_one_str_per_distinct_value(tmp_path):
    """Imported records pass through the same packing, so each distinct
    str of the coded columns is one object, the one the table holds, and
    the summary equals the run's own."""
    art = run_scenario(load_scenario("trial_topology"), "icn")
    export(art, str(tmp_path))
    back = import_artifacts(str(tmp_path))
    log = back.events
    log._pack()
    strs = {id(value) for cols in log._cols for col in cols
            if is_coded(col) for value in log._values(col)}
    assert len(strs) == len(log._table.strs) > 1
    assert summarize(back) == summarize(art)
    assert log == art.events


ODD_INTS = [True, False, 1.0, "7", 2**70, -(2**63) - 1, None]


@pytest.mark.parametrize("route", ["write", "extend"])
@pytest.mark.parametrize("odd", ODD_INTS, ids=repr)
def test_an_int_column_that_meets_another_value_becomes_a_list(odd, route):
    """Ints fill an array over more than one pack; one value that is no
    int in 64 bits, written or extended in, turns that column into a list
    for good, and the log still streams the bytes of its dicts."""
    records = [ev(i, "sw1", "pkt_fwd", pid=i, kind="chunk", link="l:a->b",
                  size=1400, start=i, arrive=2**63 - 1 - i)
               for i in range(_BATCH + 5)]
    records.append(ev(_BATCH + 5, "sw1", "pkt_fwd", pid=_BATCH + 5,
                      kind="chunk", link="l:a->b", size=odd, start=0,
                      arrive=-(2**63)))
    records += [ev(i, "sw1", "pkt_fwd", pid=i, kind="chunk", link="l:a->b",
                   size=1400, start=i, arrive=i)
                for i in range(_BATCH + 6, 2 * _BATCH + 9)]
    log = EventLog()
    if route == "write":
        for rec in records:
            key, values = stored_values(rec)
            log.write(key, *values)
    else:
        log.extend(records[:_BATCH // 2])
        log.extend(records[_BATCH // 2:])
    assert stored_column(log, "pkt_fwd", "size").__class__ is list
    for name in ("t", "pid", "start", "arrive"):
        assert stored_column(log, "pkt_fwd", name).__class__ is array
    assert streamed(log) == encode_lines(records)
    assert list(log) == records
    assert [type(v) for v in log.column("pkt_fwd", "size")] == [
        type(r["size"]) for r in records]
    # more ints after the list turned stay in the list
    log.write("pkt_fwd", 0, "sw1", 0, "chunk", "l:a->b", 9, 0, 0)
    assert stored_column(log, "pkt_fwd", "size")[-2:] == [1400, 9]


def deliver(i, spurious):
    return ev(i, "cnap", "pkt_deliver", pid=i, kind="stream", size=1400,
              consumers=1, spurious=spurious)


@pytest.mark.parametrize("route", ["write", "extend"])
def test_a_bool_column_is_a_bytearray_that_reads_back_as_bools(route,
                                                                tmp_path):
    """A field whose values are all bools is stored one byte per value,
    and every read gives the True and False objects back: column(),
    iteration, ==, the encoding (true and false, never 1 and 0) and an
    export and import."""
    rng = random.Random(7)
    records = [deliver(i, rng.random() < 0.3) for i in range(2 * _BATCH + 9)]
    log = build(records, route)
    col = stored_column(log, "pkt_deliver", "spurious")
    assert col.__class__ is bytearray and set(col) == {0, 1}
    assert stored_column(log, "pkt_deliver", "consumers").__class__ is array
    values = list(log.column("pkt_deliver", "spurious"))
    assert values == [r["spurious"] for r in records]
    assert all(v is True or v is False for v in values)
    assert list(log) == records
    assert all(rec["spurious"] is r["spurious"]
               for rec, r in zip(log, records))
    assert log == log_of(records)
    data = streamed(log)
    assert data == encode_lines(records)
    assert data.count(b'"spurious":true') == values.count(True)
    assert data.count(b'"spurious":false') == values.count(False)
    assert b'"spurious":1' not in data and b'"spurious":0' not in data
    art = RunArtifacts(config={}, mode="icn", seed=1, events=log, samples=[],
                       meta=dict(META))
    export(art, str(tmp_path))
    back = import_artifacts(str(tmp_path)).events
    assert stored_column(back, "pkt_deliver", "spurious").__class__ \
        is bytearray
    assert back == log and back.hash() == art.meta["events_hash"]
    assert all(v is r["spurious"]
               for v, r in zip(back.column("pkt_deliver", "spurious"),
                               records))


@pytest.mark.parametrize("route", ["write", "extend"])
@pytest.mark.parametrize("odd", [1, 0, None], ids=repr)
def test_a_bool_column_that_meets_another_value_becomes_a_list(odd, route):
    """An int (1 and 0 included) or None among the bools turns the column
    into a list for good, each value keeping its type, and the log still
    streams the bytes of its dicts."""
    records = [deliver(i, i % 3 == 0) for i in range(_BATCH + 5)]
    records.append(deliver(_BATCH + 5, odd))
    records += [deliver(i, i % 2 == 0)
                for i in range(_BATCH + 6, 2 * _BATCH + 9)]
    log = build(records, route)
    col = stored_column(log, "pkt_deliver", "spurious")
    assert col.__class__ is list
    assert [type(v) for v in col] == [type(r["spurious"]) for r in records]
    assert [type(v) for v in log.column("pkt_deliver", "spurious")] == [
        type(r["spurious"]) for r in records]
    assert streamed(log) == encode_lines(records)
    assert list(log) == records
    # more bools after the list turned stay in the list
    log.write("pkt_deliver", 0, "cnap", 0, "stream", 1400, 1, True)
    assert stored_column(log, "pkt_deliver", "spurious")[-1] is True


def test_a_bool_column_costs_about_one_byte_per_value():
    """10,000 bools written as a run writes them hold at most 1.1 B each
    (traced), where a list of them held one 8 B pointer each."""
    s = _SCHEMAS["pkt_deliver"]
    j = s.stored.index("spurious")
    tracemalloc.start()
    try:
        log = EventLog()
        for i in range(10_000):
            log.write("pkt_deliver", i, "cnap", i, "stream", 1400, 1,
                      i % 7 == 0)
        assert log.count("pkt_deliver") == 10_000
        held = tracemalloc.get_traced_memory()[0]
        log._cols[s.sid][j] = None
        freed = held - tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert 10_000 <= freed <= 11_000


READS = {
    "column": lambda log: {(kind, name): list(log.column(kind, name))
                           for kind in ("pkt_fwd", "stb_rx", "pkt_drop")
                           for name in ("t", "el", "size")},
    "count": lambda log: ([log.count(kind)
                           for kind in ("pkt_fwd", "stb_rx", "pkt_drop")],
                          log.count("pkt_drop", "link_down")),
    "hash": lambda log: log.hash(),
    "dicts": list,
}


def test_reads_between_writes_across_pack_boundaries_see_the_whole_log():
    """Reads interleaved with writes and appends, on both sides of the
    batch boundaries where the log packs its buffers, equal the reads of
    a log built from the same records in one go."""
    rng = random.Random(5)
    records = []
    for i in range(3 * _BATCH + 5):
        pick = rng.randrange(10)
        if pick < 5:
            records.append(ev(i, f"sw{i % 3}", "pkt_fwd", pid=i,
                              kind="stream", link=f"l{i % 4}:a->b",
                              size=1400, start=i + 1, arrive=i + 99))
        elif pick < 8:
            records.append(ev(i, "stb", "stb_rx", name="ch:a", size=1316))
        elif pick < 9:
            records.append(ev(i, "n", "pkt_drop", pid=i, kind="stream",
                              size=i % 1500, reason="queue_cap"))
        else:
            records.append(ev(i, "n", "pkt_drop", pid=i, kind="stream",
                              size=1400, reason="link_down", link="l0:a->b"))
    stops = sorted({1, _BATCH - 1, _BATCH, _BATCH + 1, 3 * _BATCH // 2,
                    2 * _BATCH - 1, 2 * _BATCH, 2 * _BATCH + 7,
                    3 * _BATCH + 1, len(records)})
    log = EventLog()
    done = 0
    for k, stop in enumerate(stops):
        for j in range(done, stop):
            rec = records[j]
            if j % 11 == 0:
                log.append(**{"t": rec["t"], "element": rec["el"],
                              "event": rec["ev"],
                              **{k: v for k, v in rec.items()
                                 if k not in ("t", "el", "ev")}})
            else:
                key, values = stored_values(rec)
                log.write(key, *values)
        done = stop
        whole = log_of(records[:stop])
        # each kind of read, == included, comes first after some writes,
        # while values written since the last pack are still buffered
        first = [*READS, "=="][k % (len(READS) + 1)]
        if first == "==":
            assert log == whole
        for name in sorted(READS, key=lambda name: name != first):
            assert READS[name](log) == READS[name](whole), name
        assert log == whole and whole == log
        assert len(log) == len(whole) == stop
        assert log != log_of(records[:stop - 1])


UNDECLARED = [
    ("no_such_kind", {"size": 1}, "unknown event kind 'no_such_kind'"),
    ("ctrl", {"msg": "gossip", "name": "n"}, "ctrl: unknown msg 'gossip'"),
    ("pkt_drop", {"pid": 1, "kind": "k", "size": 1, "reason": "meteor"},
     "pkt_drop: unknown reason 'meteor'"),
    ("stb_rx", {"name": "ch:a"}, "stb_rx record needs exactly the fields"),
    ("stb_rx", {"name": "ch:a", "size": 1, "extra": 2},
     "stb_rx record needs exactly the fields"),
    ("stb_rx", {"name": "ch:a", "bytes": 1},
     "stb_rx record needs exactly the fields"),
    ("pkt_drop", {"pid": 1, "kind": "k", "size": 1, "reason": "queue_cap",
                  "link": "l"}, "pkt_drop record needs exactly the fields"),
]


def test_append_rejects_a_field_named_like_the_record_head():
    log = EventLog()
    with pytest.raises(ValueError, match="are not fields"):
        log.append(0, "x", "stb_rx", name="ch:a", size=1, el="y")
    assert len(log) == 0


@pytest.mark.parametrize("kind, fields, message", UNDECLARED)
def test_append_rejects_undeclared_records(kind, fields, message):
    log = EventLog()
    log.append(0, "x", "stb_rx", name="ch:a", size=1)
    with pytest.raises(ValueError, match=message):
        log.append(1, "x", kind, **fields)
    assert len(log) == 1


@pytest.mark.parametrize("kind, fields, message", UNDECLARED)
def test_import_rejects_undeclared_records(kind, fields, message, tmp_path):
    (tmp_path / "effective_config.json").write_text("{}")
    (tmp_path / "meta.json").write_text(json.dumps(META))
    good = canonical_json(ev(0, "x", "stb_rx", name="ch:a", size=1))
    bad = canonical_json(ev(1, "x", kind, **fields))
    (tmp_path / "events.jsonl").write_text(good + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=message):
        import_artifacts(str(tmp_path))
    log = EventLog()
    with pytest.raises(ValueError, match=message):
        log.extend([json.loads(good), json.loads(bad)])
    assert len(log) == 0


@pytest.mark.parametrize("bad, message", [
    (5, "record is not an object: 5"),
    (["stb_rx"], "record is not an object"),
    (ev(1, "x", ["stb_rx"]), r"unknown event kind \['stb_rx'\]"),
    (ev(1, "x", "pkt_drop", reason=["meteor"], pid=1, kind="chunk", size=1),
     r"pkt_drop: unknown reason \['meteor'\]"),
])
def test_extend_rejects_a_record_that_is_not_a_declared_object(bad, message):
    """A parsed line that is not an object, or whose kind or variant is
    not even hashable, is refused like an undeclared record."""
    log = EventLog()
    with pytest.raises(ValueError, match=message):
        log.extend([ev(0, "x", "stb_rx", name="ch:a", size=1), bad])
    assert len(log) == 0
