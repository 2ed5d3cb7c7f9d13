"""Event log, metric sampling, reducers and artifact serialization.

The append-only event log is the only record of what the data plane
did (the data plane keeps no counters), and summarize() here recomputes
everything from the exported records alone.  Metric samples are a separate,
optional stream reduced from the log; disabling them must not change the
event log in any way (the determinism suite checks exactly that).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from dataclasses import dataclass, field


# One shared encoder: the same text as json.dumps(record, sort_keys=True,
# separators=(",", ":")), without building an encoder per record.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# Records encoded per step of encode_lines; bounds its transient memory.
_BATCH = 4096


def encode_lines(records) -> bytearray:
    """Canonical JSONL: one canonical record per line, each line ending in
    a newline; empty for no records.  Canonical JSON escapes control
    characters, so a raw newline only ever separates records.

    Encodes _BATCH records at a time into one growing buffer, so memory
    peaks at the output plus one batch's text."""
    out = bytearray()
    for i in range(0, len(records), _BATCH):
        out += ("\n".join(map(canonical_json, records[i:i + _BATCH]))
                + "\n").encode()
    return out


# The event vocabulary: every kind the simulator logs, mapped to the
# fields its records carry after the common "t", "el" and "ev", in record
# order.  The kinds in VARIANT_FIELD carry different fields depending on
# the value of one field; they map each value of that field to its
# fields.  append() does not check records against this table; the tests
# check every record of every shipped run.
EVENT_FIELDS = {
    "acquisition": ("channel", "dur_us"),
    "begin": ("scenario", "mode", "seed"),
    "bitrate_switch": ("direction", "from_mbps", "to_mbps"),
    "chunk_done": ("path", "size", "ewma_bps", "n"),
    "cnap_merge": ("name", "clients"),
    "ctrl": {
        "fid_update": ("msg", "name", "nap", "fid", "epoch"),
        "invalidate": ("msg", "physical", "entries", "epoch"),
        "match": ("msg", "name", "nap", "subscriber"),
        "partial_tree": ("msg", "name", "failures"),
        "publish": ("msg", "name", "nap"),
        "subscribe": ("msg", "name", "nap", "kind"),
        "tree_reply": ("msg", "name", "nap", "fid", "epoch"),
        "tree_request": ("msg", "name", "nap", "receivers"),
        "unpublish": ("msg", "name", "nap"),
        "unsubscribe": ("msg", "name", "nap"),
    },
    "digest": ("tag", "value"),
    "dns_exhausted": ("host",),
    "dns_failover": ("host", "addr"),
    "fetch_abandoned": ("kind", "path"),
    "fid_write": ("name", "fid", "epoch"),
    "group_close": ("name", "members"),
    "group_join": ("name", "members"),
    "group_open": ("name", "window_us"),
    "http_req": ("kind", "path", "attempt"),
    "http_resp": ("kind", "path", "status", "size", "elapsed_us"),
    "http_timeout": ("kind", "path", "attempt"),
    "igmp": {
        "join": ("action", "channel", "stb", "dup"),
        "leave": ("action", "channel", "stb"),
    },
    "link_state": ("up", "epoch"),
    "no_server": ("host",),
    "pkt_branch": ("pid", "size", "extra"),
    "pkt_deliver": ("pid", "kind", "size", "consumers", "spurious"),
    "pkt_drop": {
        **dict.fromkeys(("blocked", "no_egress", "no_route", "no_snoop",
                         "queue_cap", "ttl_exceeded", "zero_fid"),
                        ("pid", "kind", "size", "reason")),
        "link_down": ("pid", "kind", "size", "reason", "link"),
    },
    "pkt_fwd": ("pid", "kind", "link", "size", "start", "arrive"),
    "pkt_inject": ("pid", "kind", "name", "size"),
    "server_noreply": ("path",),
    "server_resp": ("kind", "path", "status", "size"),
    "server_state": ("up",),
    "snap_respond": ("name", "rid", "size", "segments", "members"),
    "stall": ("start", "dur_us"),
    "stb_active": ("until",),
    "stb_rx": ("name", "size"),
    "stp_converged": ("active", "flushed_entries"),
    "stp_reconverge": ("physical", "up", "window_us"),
    "stp_tree": ("root", "active"),
    "surrogate_toggle": ("on",),
    "topo_event": ("physical", "up", "epoch"),
    "zap": ("from_channel", "to_channel"),
}
VARIANT_FIELD = {"ctrl": "msg", "igmp": "action", "pkt_drop": "reason"}


class EventLog:
    """Append-only record stream with a stable canonical encoding."""

    def __init__(self):
        self.records: list[dict] = []
        # encode_lines(records) as of the last hash(), for export
        self.jsonl: bytearray | None = None

    def append(self, t: int, element: str, event: str, **fields) -> None:
        rec = {"t": t, "el": element, "ev": event}
        rec.update(fields)
        self.records.append(rec)

    def hash(self) -> str:
        """sha256 of the canonical JSONL encoding of the records; the
        encoded bytes are kept in self.jsonl, so export need not encode
        the log again."""
        self.jsonl = encode_lines(self.records)
        return hashlib.sha256(self.jsonl).hexdigest()


class Telemetry:
    """Optional metric sample stream (counters, gauges)."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.samples: list[dict] = []

    def record(self, t: int, element: str, metric: str, value) -> None:
        if not self.enabled:
            return
        self.samples.append({"t": t, "el": element, "metric": metric, "value": value})

    def hash(self) -> str:
        return hashlib.sha256(encode_lines(self.samples)).hexdigest()


@dataclass
class RunArtifacts:
    """Everything one simulation run produces."""

    config: dict
    mode: str
    seed: int
    events: list = field(default_factory=list)
    samples: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)
    # (events, encode_lines(events)) when the producer has already encoded
    # the log.  export writes these bytes only while artifacts.events is
    # that very list, so artifacts made by dataclasses.replace(...,
    # events=...) are encoded afresh; the list must not change in place.
    encoded_events: tuple | None = field(default=None, repr=False,
                                         compare=False)


# ---------------------------------------------------------------------------
# reducers

def conservation_from_events(events) -> dict:
    """Recompute byte conservation from the event log alone.

    Each multicast branch point logs the surplus copies it creates, so
    injected + branch surplus must equal delivered + dropped bytes once
    the network has drained (in_flight == 0).
    """
    injected = delivered = dropped = branch_extra = 0
    injected_pkts = delivered_pkts = dropped_pkts = 0
    for rec in events:
        ev = rec["ev"]
        if ev == "pkt_inject":
            injected += rec["size"]
            injected_pkts += 1
        elif ev == "pkt_deliver":
            delivered += rec["size"]
            delivered_pkts += 1
        elif ev == "pkt_drop":
            dropped += rec["size"]
            dropped_pkts += 1
        elif ev == "pkt_branch":
            branch_extra += rec["size"] * rec["extra"]
    in_flight = injected + branch_extra - delivered - dropped
    return {
        "injected_bytes": injected,
        "branch_extra_bytes": branch_extra,
        "delivered_bytes": delivered,
        "dropped_bytes": dropped,
        "in_flight_bytes": in_flight,
        "injected_pkts": injected_pkts,
        "delivered_pkts": delivered_pkts,
        "dropped_pkts": dropped_pkts,
        "balanced": in_flight == 0,
    }


def link_bytes_from_events(events) -> dict:
    """Per-link transmitted bytes, total and split by traffic class."""
    totals: dict[str, int] = {}
    by_class: dict[str, dict[str, int]] = {}
    for rec in events:
        if rec["ev"] != "pkt_fwd":
            continue
        link = rec["link"]
        size = rec["size"]
        kind = rec.get("kind", "other")
        totals[link] = totals.get(link, 0) + size
        cls = by_class.setdefault(link, {})
        cls[kind] = cls.get(kind, 0) + size
    return {"total": totals, "by_class": by_class}


def drops_by_reason(events) -> dict:
    out: dict[str, int] = {}
    for rec in events:
        if rec["ev"] == "pkt_drop":
            out[rec["reason"]] = out.get(rec["reason"], 0) + 1
    return out


def merge_ratios(events) -> dict:
    """Client deliveries divided by server transmissions, per traffic class.

    For request/response traffic the numerator counts completed client
    fetches and the denominator server responses; for continuous streams
    it counts sink packet deliveries against source emissions.
    """
    server_tx: dict[str, int] = {}
    client_rx: dict[str, int] = {}
    for rec in events:
        ev = rec["ev"]
        if ev == "server_resp":
            k = rec["kind"]
            server_tx[k] = server_tx.get(k, 0) + 1
        elif ev == "http_resp":
            k = rec["kind"]
            client_rx[k] = client_rx.get(k, 0) + 1
        elif ev == "pkt_inject" and rec.get("kind") == "stream":
            server_tx["stream"] = server_tx.get("stream", 0) + 1
        elif ev == "stb_rx":
            client_rx["stream"] = client_rx.get("stream", 0) + 1
    out = {}
    for k in sorted(set(server_tx) | set(client_rx)):
        tx = server_tx.get(k, 0)
        rx = client_rx.get(k, 0)
        out[k] = {"server_tx": tx, "client_rx": rx,
                  "ratio": (rx / tx) if tx else None}
    return out


def disruption_intervals(arrival_times, active_start: int, active_end: int,
                         max_gap_us) -> list:
    """Maximal delivery gaps larger than their threshold.

    Gaps are measured between consecutive deliveries inside the active
    period; a sink with no deliveries at all counts one disruption
    spanning its whole active period.  max_gap_us is one threshold for
    every gap, or a list parallel to arrival_times that gives the
    threshold of the gap ending at each arrival.
    """
    if not isinstance(max_gap_us, (list, tuple)):
        max_gap_us = [max_gap_us] * len(arrival_times)
    arrivals = sorted((t, gap) for t, gap in zip(arrival_times, max_gap_us)
                      if active_start <= t <= active_end)
    if not arrivals:
        if active_end > active_start:
            return [(active_start, active_end)]
        return []
    out = []
    for (prev, _), (nxt, gap) in zip(arrivals, arrivals[1:]):
        if nxt - prev > gap:
            out.append((prev, nxt))
    return out


def stalls_from_events(events, chunk_duration_us: int, startup_hold_us: int) -> dict:
    """Replay playback from chunk arrival records and recompute stalls.

    Playback of the first arrived chunk starts startup_hold after its
    arrival; every later chunk is due one chunk duration after the
    previous one began; lateness beyond the due time is stall time.
    Cross-checks the stall events the clients logged live.
    """
    arrivals: dict[str, list[int]] = {}
    for rec in events:
        if rec["ev"] == "chunk_done":
            arrivals.setdefault(rec["el"], []).append(rec["t"])
    out = {}
    for client in sorted(arrivals):
        times = arrivals[client]
        total = 0
        count = 0
        play_start = times[0] + startup_hold_us
        for t in times[1:]:
            due = play_start + chunk_duration_us
            if t > due:
                total += t - due
                count += 1
            play_start = max(due, t)
        out[client] = {"total_us": total, "events": count}
    return out


def summarize(artifacts: RunArtifacts) -> dict:
    """Independent reduction of the event log into the run summary."""
    events = artifacts.events
    params = artifacts.config.get("params", {})
    hls = artifacts.config.get("apps", {}).get("hls")
    summary = {
        "mode": artifacts.mode,
        "seed": artifacts.seed,
        "conservation": conservation_from_events(events),
        "link_bytes": link_bytes_from_events(events),
        "drops_by_reason": drops_by_reason(events),
        "merge_ratios": merge_ratios(events),
        "spurious_deliveries": sum(
            1 for r in events if r["ev"] == "pkt_deliver" and r.get("spurious")),
    }

    # playback stalls (HLS clients)
    if hls:
        chunk_us = hls["chunk_duration_ms"] * 1000
        hold_us = params["startup_hold_ms"] * 1000
        summary["stalls"] = stalls_from_events(events, chunk_us, hold_us)

    # channel acquisition after a join or zap
    acquisitions = [
        {"el": r["el"], "channel": r["channel"], "us": r["dur_us"]}
        for r in events if r["ev"] == "acquisition"
    ]
    if acquisitions:
        summary["acquisitions"] = acquisitions

    # per-sink stream disruption intervals; a gap is judged by the packet
    # interval of the channel that ends it, so thresholds follow zaps
    from .apps import packet_interval_us
    iptv = artifacts.config.get("apps", {}).get("iptv") or {}
    max_gap = {ch["name"]: 2 * packet_interval_us(params["mtu"],
                                                  ch["bitrate_mbps"])
               for ch in iptv.get("channels") or []}
    stb_rx: dict[str, list[int]] = {}
    stb_gap: dict[str, list[int]] = {}
    stb_span: dict[str, list[int]] = {}
    for rec in events:
        if rec["ev"] == "stb_rx":
            el = rec["el"]
            stb_rx.setdefault(el, []).append(rec["t"])
            # stream names are "<plane prefix>:<channel>" in both modes
            stb_gap.setdefault(el, []).append(
                max_gap[rec["name"].split(":", 1)[1]])
        elif rec["ev"] == "stb_active":
            stb_span[rec["el"]] = [rec["t"], rec["until"]]
    if stb_rx or stb_span:
        disruptions = {}
        for stb in sorted(set(stb_rx) | set(stb_span)):
            span = stb_span.get(stb)
            if span is None:
                continue
            ivs = disruption_intervals(stb_rx.get(stb, []), span[0], span[1],
                                       stb_gap.get(stb, []))
            disruptions[stb] = [
                {"start": s, "end": e, "us": e - s} for s, e in ivs]
        summary["disruptions"] = disruptions
        summary["disruption_gap_threshold_us"] = max_gap
    return summary


# ---------------------------------------------------------------------------
# artifact serialization

EVENTS_FILE = "events.jsonl"
METRICS_FILE = "metrics.csv"
CONFIG_FILE = "effective_config.json"
SUMMARY_FILE = "summary.txt"
META_FILE = "meta.json"


def export_jsonl(artifacts: RunArtifacts, fh) -> None:
    """Write events, then samples, one canonical JSON record per line, to
    the binary file fh."""
    encoded = artifacts.encoded_events
    if encoded is not None and encoded[0] is artifacts.events:
        fh.write(encoded[1])
    else:
        fh.write(encode_lines(artifacts.events))
    fh.write(encode_lines([{"ev": "sample", **r} for r in artifacts.samples]))


def export_csv(samples) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["t", "el", "metric", "value"])
    for rec in samples:
        writer.writerow([rec["t"], rec["el"], rec["metric"], rec["value"]])
    return buf.getvalue()


def render_summary(summary: dict) -> str:
    """Human-readable summary; data identical to the summary dict."""
    lines = [f"mode: {summary['mode']}", f"seed: {summary['seed']}"]
    cons = summary["conservation"]
    lines.append(
        "conservation: injected=%d branch_extra=%d delivered=%d dropped=%d "
        "in_flight=%d balanced=%s" % (
            cons["injected_bytes"], cons["branch_extra_bytes"],
            cons["delivered_bytes"], cons["dropped_bytes"],
            cons["in_flight_bytes"], cons["balanced"]))
    for link in sorted(summary["link_bytes"]["total"]):
        lines.append(f"link {link}: {summary['link_bytes']['total'][link]} bytes")
    for kind, row in summary["merge_ratios"].items():
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.4f}"
        lines.append(f"merge {kind}: tx={row['server_tx']} rx={row['client_rx']} "
                     f"ratio={ratio}")
    for reason, n in sorted(summary["drops_by_reason"].items()):
        lines.append(f"drops {reason}: {n}")
    for client, row in sorted(summary.get("stalls", {}).items()):
        lines.append(f"stalls {client}: total_us={row['total_us']} "
                     f"events={row['events']}")
    for row in summary.get("acquisitions", []):
        lines.append(f"acquisition {row['el']} {row['channel']}: {row['us']} us")
    for stb, ivs in sorted(summary.get("disruptions", {}).items()):
        for iv in ivs:
            lines.append(f"disruption {stb}: [{iv['start']}, {iv['end']}] "
                         f"{iv['us']} us")
        if not ivs:
            lines.append(f"disruption {stb}: none")
    return "\n".join(lines) + "\n"


def export(artifacts: RunArtifacts, outdir: str, fmt: str = "both",
           summary: dict | None = None) -> dict:
    """Write the artifact directory; returns the path map.

    fmt selects "jsonl", "csv" or "both" payload files; the effective
    config, summary and meta files are always written.  summary is
    summarize(artifacts), when the caller has already computed it.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {}

    def write(name: str, text: str) -> None:
        p = os.path.join(outdir, name)
        with open(p, "w") as fh:
            fh.write(text)
        paths[name] = p

    write(CONFIG_FILE, json.dumps(artifacts.config, sort_keys=True, indent=2) + "\n")
    if fmt in ("jsonl", "both"):
        paths[EVENTS_FILE] = os.path.join(outdir, EVENTS_FILE)
        with open(paths[EVENTS_FILE], "wb") as fh:
            export_jsonl(artifacts, fh)
    if fmt in ("csv", "both"):
        write(METRICS_FILE, export_csv(artifacts.samples))
    if summary is None:
        summary = summarize(artifacts)
    write(SUMMARY_FILE, render_summary(summary))
    write(META_FILE, json.dumps(artifacts.meta, sort_keys=True, indent=2) + "\n")
    return paths


def import_artifacts(outdir: str) -> RunArtifacts:
    """Rebuild RunArtifacts from an exported directory."""
    with open(os.path.join(outdir, CONFIG_FILE)) as fh:
        config = json.load(fh)
    with open(os.path.join(outdir, META_FILE)) as fh:
        meta = json.load(fh)
    # one json.loads per batch of about 1 MiB of lines: a raw newline only
    # ever separates records, so the non-blank lines joined by commas form
    # one JSON array
    events, samples = [], []
    with open(os.path.join(outdir, EVENTS_FILE), "rb") as fh:
        for lines in iter(lambda: fh.readlines(1 << 20), []):
            batch = b",".join([line for line in lines if line.strip()])
            for rec in json.loads(b"[" + batch + b"]"):
                if rec.get("ev") == "sample":
                    rec.pop("ev")
                    samples.append(rec)
                else:
                    events.append(rec)
    return RunArtifacts(config=config, mode=meta["mode"], seed=meta["seed"],
                        events=events, samples=samples, meta=meta)


def events_hash(events) -> str:
    """sha256 of the canonical JSONL encoding of a record list."""
    return hashlib.sha256(encode_lines(events)).hexdigest()
