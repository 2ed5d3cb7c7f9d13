"""Event log reducers, export round-trips, hashing."""

import dataclasses
import hashlib
import io
import json
import random
import tracemalloc

import pytest

from icnsim.apps import IptvSource
from icnsim.simkernel import Engine
from icnsim.telemetry import (_BATCH, _READ_BATCH, EVENT_FIELDS,
                              VARIANT_FIELD, EventLog, RunArtifacts,
                              Telemetry, canonical_json,
                              conservation_from_events, disruption_intervals,
                              drops_by_reason, encode_lines, events_hash,
                              export, export_csv, export_jsonl,
                              import_artifacts, link_bytes_from_events,
                              merge_ratios, render_summary,
                              stalls_from_events, summarize)


def ev(t, el, event, **fields):
    return {"t": t, "el": el, "ev": event, **fields}


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
    assert events_hash(list(a)) == a.hash()


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
    tel = Telemetry(enabled=False)
    empty = tel.hash()
    tel.record(1, "sw", "tx_bytes", 100)
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
    cons = conservation_from_events(EventLog.from_records(events))
    assert cons["balanced"]
    assert cons["injected_bytes"] == 1000
    assert cons["branch_extra_bytes"] == 1000
    assert cons["delivered_bytes"] == 2000
    lost = conservation_from_events(EventLog.from_records(events[:-1]))
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
    out = link_bytes_from_events(EventLog.from_records(events))
    assert out["total"] == {"l1:a->b": 150, "l2:b->c": 70}
    assert out["by_class"]["l1:a->b"] == {"chunk": 100, "stream": 50}


def test_drops_grouped_by_reason():
    events = [
        ev(0, "a", "pkt_drop", pid=1, kind="chunk", size=1, reason="queue_cap"),
        ev(1, "a", "pkt_drop", pid=2, kind="chunk", size=1, reason="queue_cap"),
        ev(2, "a", "pkt_drop", pid=3, kind="chunk", size=1, reason="zero_fid"),
    ]
    assert drops_by_reason(EventLog.from_records(events)) == {
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
    ratios = merge_ratios(EventLog.from_records(events))
    assert ratios["chunk"] == {"server_tx": 2, "client_rx": 20, "ratio": 10.0}
    assert ratios["stream"] == {"server_tx": 3, "client_rx": 30, "ratio": 10.0}


def test_merge_ratio_without_transmissions_is_undefined():
    ratios = merge_ratios(EventLog.from_records([
        ev(0, "c", "http_resp", kind="chunk", path="/x", status=200, size=1,
           elapsed_us=1)]))
    assert ratios["chunk"]["ratio"] is None


def test_disruption_intervals_report_large_gaps_only():
    times = [100, 200, 300, 1000, 1100]
    assert disruption_intervals(times, 0, 2000, 500) == [(300, 1000)]
    # any real threshold, not only an int
    assert disruption_intervals(times, 0, 2000, 699.5) == [(300, 1000)]
    assert disruption_intervals(times, 0, 2000, 700.0) == []
    # a gap exactly at the threshold is normal jitter
    assert disruption_intervals([0, 500], 0, 1000, 500) == []
    # arrivals outside the active span are ignored
    assert disruption_intervals([5, 700, 2500], 600, 800, 50) == []


def test_no_arrivals_count_as_whole_span_disruption():
    assert disruption_intervals([], 10, 50, 5) == [(10, 50)]
    assert disruption_intervals([], 10, 10, 5) == []


def test_stall_replay_matches_live_accounting():
    events = [
        ev(1_000, "c1", "chunk_done", path="/live/2/0", size=1, ewma_bps=1, n=1),
        ev(2_751_000, "c1", "chunk_done", path="/live/2/1", size=1,
           ewma_bps=1, n=2),
        ev(5_800_000, "c1", "chunk_done", path="/live/2/2", size=1,
           ewma_bps=1, n=3),
    ]
    out = stalls_from_events(EventLog.from_records(events),
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
                                     events=events))
    assert summary["disruption_gap_threshold_us"] == {"hd": 2_800,
                                                      "sd": 11_200}
    late = [{"start": 64_600, "end": 68_600, "us": 4_000}]
    assert summary["disruptions"] == {"stb_icn": late, "stb_ip": late}


def test_gap_threshold_is_twice_the_sources_packet_interval():
    """At 6 Mb/s and MTU 1400 the source sends every 1866 us (rounded
    down), so a 3732 us gap is on time and a 3733 us gap is not."""
    source = IptvSource("ch", None, bitrate_mbps=6, pkt_bytes=1400,
                        start_us=0, stop_us=0, engine=Engine(1))
    assert source.interval_us == 1_866
    config = {"params": {"mtu": 1400},
              "apps": {"iptv": {"channels": [{"name": "ch",
                                              "bitrate_mbps": 6}]}}}
    events = [ev(0, "stb", "stb_active", until=10_000)]
    events += [ev(t, "stb", "stb_rx", name="ch:ch", size=1400)
               for t in (0, 3_732, 7_465)]
    summary = summarize(RunArtifacts(config=config, mode="icn", seed=1,
                                     events=events))
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
    meta = {"mode": "icn", "seed": 1, "events_hash": events_hash(events)}
    return RunArtifacts(config=config, mode="icn", seed=1, events=events,
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


def test_import_across_batches_skips_blank_lines(tmp_path):
    events = [ev(i, f"sw{i % 5}", "pkt_fwd", pid=i, kind="chunk",
                 link=f"l{i % 9}:a->b", size=1400, start=i, arrive=i + 9)
              for i in range(20_000)]
    samples = [{"t": i, "el": "sw", "metric": "tx_bytes", "value": i}
               for i in range(100)]
    artifacts = RunArtifacts(config={"name": "big"}, mode="icn", seed=1,
                             events=events, samples=samples,
                             meta={"mode": "icn", "seed": 1})
    export(artifacts, str(tmp_path), fmt="jsonl")
    path = tmp_path / "events.jsonl"
    data = path.read_bytes()
    assert len(data) > 2 << 20
    # a run of blank lines that covers the end of the first read batch, so
    # one batch ends and the next starts inside it; more blank lines
    # mid-file and before the samples
    mark = _READ_BATCH
    start = data.rindex(b"\n", 0, mark) + 1
    data = data[:start] + b"\n" * (mark - start + 8) + data[start:]
    mid = data.index(b"\n", 3 << 19) + 1
    first_sample = data.index(b'{"el":"sw","ev":"sample"')
    data = (data[:mid] + b"\n  \n" + data[mid:first_sample] + b"\n"
            + data[first_sample:] + b"\n")
    path.write_bytes(data)
    back = import_artifacts(str(tmp_path))
    assert back.events == events
    assert back.samples == samples
    assert events_hash(back.events) == events_hash(events)


def test_export_writes_the_hashed_bytes_of_the_same_events_only(tmp_path):
    log = EventLog()
    log.append(1, "x", "pkt_inject", pid=1, kind="data", name="n", size=10)
    log.append(2, "y", "pkt_deliver", pid=1, kind="data", size=10,
               consumers=1, spurious=False)
    digest = log.hash()
    artifacts = RunArtifacts(config={"name": "t"}, mode="icn", seed=1,
                             events=log, meta={"events_hash": digest})
    export(artifacts, str(tmp_path / "all"))
    with open(tmp_path / "all" / "events.jsonl", "rb") as fh:
        hashed = fh.read()
    assert hashed == streamed(log) == encode_lines(list(log))
    assert hashlib.sha256(hashed).hexdigest() == digest
    assert artifacts.meta["events_hash"] == digest
    # a replaced event list is encoded afresh, not taken from the old
    # bytes, and meta.json carries the hash of what was written
    kept = [r for r in log if r["ev"] == "pkt_inject"]
    replaced = dataclasses.replace(artifacts, events=kept,
                                   meta=dict(artifacts.meta))
    export(replaced, str(tmp_path / "kept"))
    with open(tmp_path / "kept" / "events.jsonl", "rb") as fh:
        assert fh.read() == encode_lines(kept)
    with open(tmp_path / "kept" / "meta.json") as fh:
        assert json.load(fh)["events_hash"] == events_hash(kept) != digest
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
        assert log.hash() == events_hash(records)


def test_random_log_round_trips_through_export_and_import(tmp_path):
    log, records = random_log(random.Random(7))
    meta = {"mode": "icn", "seed": 1, "events_hash": log.hash()}
    (tmp_path / "effective_config.json").write_text("{}")
    (tmp_path / "meta.json").write_text(json.dumps(meta))
    samples = [{"t": 1, "el": "sw", "metric": "tx_bytes", "value": 5}]
    with open(tmp_path / "events.jsonl", "wb") as fh:
        assert export_jsonl(RunArtifacts(config={}, mode="icn", seed=1,
                                         events=log, samples=samples),
                            fh) == meta["events_hash"]
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
    assert log == records and records == log
    assert log != records[:3] and log != records[::-1]
    assert list(log) == records
    assert tuple(list(log)[2]) == ("t", "el", "ev") + EVENT_FIELDS[
        "pkt_drop"]["link_down"]
    # the dicts are built on access: changing one leaves the log alone
    next(iter(log))["size"] = 0
    assert list(log) == records
    assert log == EventLog.from_records(records)
    assert RunArtifacts(config={}, mode="icn", seed=1,
                        events=records).events == log


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
    before = EventLog.from_records(records)
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
    assert list(log) == records and log == records
    # the same records make an equal log, however they are appended
    again = EventLog.from_records(records)
    assert again == log and again.hash() == log.hash()
    swapped = records[:]
    swapped[0], swapped[-1] = swapped[-1], swapped[0]
    assert EventLog.from_records(swapped) != log
    assert EventLog.from_records(records[:-1]) != log
    changed = records[:-1] + [{**records[-1], "size": -1}]
    assert EventLog.from_records(changed) != log


def test_export_then_import_returns_an_equal_log(tmp_path):
    log, records = random_log(random.Random(12), per_schema=5)
    # a parsed NaN is not equal to itself: keep the records JSON keeps
    records = [r for r in records + drop_mix()
               if json.loads(canonical_json(r)) == r]
    log = EventLog.from_records(records)
    (tmp_path / "effective_config.json").write_text("{}")
    (tmp_path / "meta.json").write_text('{"mode": "icn", "seed": 1}')
    with open(tmp_path / "events.jsonl", "wb") as fh:
        export_jsonl(RunArtifacts(config={}, mode="icn", seed=1, events=log),
                     fh)
    back = import_artifacts(str(tmp_path)).events
    assert back == log and back.hash() == log.hash()
    assert list(back) == records


def test_log_bytes_per_record():
    """The log's own memory per record, its values being shared objects
    made beforehand, so that neither ints nor encoded text count: about
    50 B in one flat list per schema, about 105 B as one tuple per
    record."""
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
    assert size / len(log) < 80


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
    (tmp_path / "meta.json").write_text('{"mode": "icn", "seed": 1}')
    good = canonical_json(ev(0, "x", "stb_rx", name="ch:a", size=1))
    bad = canonical_json(ev(1, "x", kind, **fields))
    (tmp_path / "events.jsonl").write_text(good + "\n" + bad + "\n")
    with pytest.raises(ValueError, match=message):
        import_artifacts(str(tmp_path))
    with pytest.raises(ValueError, match=message):
        RunArtifacts(config={}, mode="icn", seed=1,
                     events=[json.loads(good), json.loads(bad)])
