"""Event log, metric sampling, reducers and artifact serialization.

The append-only event log is the only record of what the data plane
did (the data plane keeps no counters), and summarize() here recomputes
everything from the exported records alone.

EVENT_FIELDS is the log's schema, compiled once at import.  EventLog
keeps, for each schema (a plain kind, or one variant of a variant kind),
one flat list of its records' stored values, record after record (all
fields but ev and the variant field, which are constant per schema),
plus one schema id byte per record in log order.  The hot data-plane
kinds are written with log.write(key, t, el, *values), which checks the
number of values; the generic append() rejects any record dict the
schema does not declare.  Reducers read a field with log.column(kind,
name), an iterator in log order for a plain kind and in no set order for
a variant kind, and count records with log.count(kind).  The canonical
encoding (one sorted-key JSON object per line) is rendered through one
"%" template per schema, a batch of records at a time, and streamed:
log.hash(out) feeds each batch's bytes to sha256 and, when exporting, to
events.jsonl, so a run encodes its log once and keeps none of the
encoding.  Readers that want dicts iterate the log and get them built on
access.

Metric samples are a separate, optional stream reduced from the log;
disabling them must not change the event log in any way (the
determinism suite checks exactly that).
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
from collections import Counter
from dataclasses import dataclass, field
from itertools import chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter, mul


# One shared encoder: the same text as json.dumps(record, sort_keys=True,
# separators=(",", ":")), without building an encoder per record.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# Records encoded per step of encode_lines and of the log's encoder
# (one chunk of EventLog.hash); bounds their transient memory.
_BATCH = 4096

# Bytes of lines import_artifacts parses per json.loads.  Each batch's
# dicts are dropped once their values are in the log, so a
# batch small enough to stay in cache makes both parsing and storing
# faster.
_READ_BATCH = 1 << 16


def encode_lines(records) -> bytearray:
    """Canonical JSONL of a list of dicts: one canonical record per line,
    each line ending in a newline; empty for no records.  Canonical JSON
    escapes control characters, so a raw newline only ever separates
    records.  Used for the metric samples; the event log has its own
    compiled encoder that gives the same bytes.

    Encodes _BATCH records at a time into one growing buffer, so memory
    peaks at the output plus one batch's text."""
    out = bytearray()
    for i in range(0, len(records), _BATCH):
        out += ("\n".join(map(canonical_json, records[i:i + _BATCH]))
                + "\n").encode()
    return out


# The event vocabulary and the log's schema: every kind the simulator
# logs, mapped to the fields its records carry after the common "t", "el"
# and "ev", in record (and row) order.  The kinds in VARIANT_FIELD carry
# different fields depending on the value of one field; they map each
# value of that field to its fields, and that field sits at the same
# position in every variant.  EventLog.append() and import_artifacts()
# reject records this table does not declare; adding a kind is one entry
# here.
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

_HEAD = ("t", "el", "ev")


class _Schema:
    """One record layout, compiled: its kind and id, its names in record
    order, the names the log stores (all but ev and the variant field,
    which are constant) and their number, the "%" template of its
    canonical JSON (keys sorted; the constants are text in it), the
    positions among the stored values of those the template takes, in
    key order, its record dict with the constants filled in, and the
    getter of the stored values of a record dict."""

    __slots__ = ("kind", "sid", "names", "stored", "width", "template",
                 "pick", "blank", "read")

    def __init__(self, sid: int, kind: str, fields: tuple, variant=None):
        names = _HEAD + fields
        if len(set(names)) != len(names):
            raise ValueError(f"{kind}: duplicate field in {names}")
        fixed = {"ev": kind}
        if variant is not None:
            fixed[VARIANT_FIELD[kind]] = variant
        stored = tuple(name for name in names if name not in fixed)
        parts, picked = [], []
        for name in sorted(names):
            if name in fixed:
                value = encode_basestring_ascii(fixed[name]).replace("%", "%%")
            else:
                value = "%s"
                picked.append(stored.index(name))
            parts.append(encode_basestring_ascii(name).replace("%", "%%")
                         + ":" + value)
        self.kind = kind
        self.sid = sid
        self.names = names
        self.stored = stored
        self.width = len(stored)
        self.template = "{" + ",".join(parts) + "}"
        self.pick = picked
        self.blank = {**dict.fromkeys(names), **fixed}
        # t and el are always stored, so read returns a tuple
        self.read = itemgetter(*stored)

    def record(self, values) -> dict:
        """The record dict of one record's stored values."""
        rec = self.blank.copy()
        rec.update(zip(self.stored, values))
        return rec


def _compile() -> dict:
    """EVENT_FIELDS compiled: each plain kind, and each (kind, variant) of
    a variant kind, mapped to its _Schema.  Ids follow the declaration
    order; an EventLog keeps one id byte per record."""
    table = {}
    for kind, decl in EVENT_FIELDS.items():
        variants = decl.items() if isinstance(decl, dict) else [(None, decl)]
        for variant, fields in variants:
            key = kind if variant is None else (kind, variant)
            table[key] = _Schema(len(table), kind, fields, variant)
    assert len(table) <= 256, "more schemas than an id byte holds"
    return table


_SCHEMAS = _compile()
_BY_SID = tuple(_SCHEMAS.values())
# the variant field of each declared kind, None for a plain kind
_VARIANT_OF = {**dict.fromkeys(EVENT_FIELDS), **VARIANT_FIELD}


def _reject(rec: dict) -> ValueError:
    """The error for a record dict the schema does not declare."""
    kind = rec.get("ev")
    if kind not in EVENT_FIELDS:
        return ValueError(f"unknown event kind {kind!r}")
    key = kind
    if kind in VARIANT_FIELD:
        key = kind, rec.get(VARIANT_FIELD[kind])
        if key not in _SCHEMAS:
            return ValueError(f"{kind}: unknown {VARIANT_FIELD[kind]} "
                              f"{key[1]!r}")
    return ValueError(f"{kind} record needs exactly the fields "
                      f"{_SCHEMAS[key].names}, got {tuple(rec)}")


class _Strings(dict):
    """Memo of the JSON text of the strings one encode meets."""

    def __missing__(self, s: str) -> str:
        text = self[s] = encode_basestring_ascii(s)
        return text


_BOOLS = {True: "true", False: "false"}


def _render(values: list, strings: _Strings):
    """One template field's values, as the template takes them: an int as
    itself, a str through the memo, any other value (bool, None, float,
    list) through canonical_json.  Values of one type are rendered in a
    single C-level pass."""
    types = set(map(type, values))
    if types == {int}:
        return values
    if types == {str}:
        return map(strings.__getitem__, values)
    if types == {bool}:
        return map(_BOOLS.__getitem__, values)
    return [x if x.__class__ is int
            else strings[x] if x.__class__ is str else canonical_json(x)
            for x in values]


def _encode(seq: bytearray, values: list):
    """Canonical JSONL of a log's records, yielded as one bytes chunk per
    _BATCH records; joined, the same bytes as encode_lines of their dicts.
    Each batch is encoded a schema at a time: each field the template
    takes is sliced from the schema's values where its previous batch
    ended, rendered field by field and formatted into lines, and one
    cursor per schema then takes the lines back in log order.  A chunk is
    dropped once the consumer moves on, so memory peaks at one batch's
    text whatever the log's length."""
    strings = _Strings()
    done = [0] * len(values)
    for i in range(0, len(seq), _BATCH):
        sids = seq[i:i + _BATCH]
        lines = {}
        for sid in set(sids):
            s, vals = _BY_SID[sid], values[sid]
            lo = done[sid]
            hi = done[sid] = lo + sids.count(sid) * s.width
            rendered = [_render(vals[lo + j:hi:s.width], strings)
                        for j in s.pick]
            lines[sid] = map(s.template.__mod__, zip(*rendered))
        yield ("\n".join(map(next, map(lines.__getitem__, sids)))
               + "\n").encode()


class EventLog:
    """Append-only record stream with a stable canonical encoding.

    Each schema (a plain kind, or one variant of a variant kind) keeps one
    flat list of its records' stored values, record after record in log
    order; ev and the variant field are constant per schema and are not
    stored.  A bytearray holds the schema id of each record, in log
    order.  Nothing is changed once appended.  Iterated, the log reads as
    record dicts, built on access; column() and count() are what the
    reducers read.  The encoding is streamed from the values by hash(),
    which keeps none of it.
    """

    def __init__(self):
        self._seq = bytearray()
        # schema id -> the stored values of that schema's records
        self._values = [[] for _ in _BY_SID]

    def write(self, key, *row) -> None:
        """Append one record, as write(key, t, el, *values): `key` is its
        kind, or (kind, variant) for a variant kind, and the values are
        its fields in declared order, the variant field left out.  Raises
        KeyError for an unknown key and TypeError for a wrong number of
        values, before it appends anything.  The hot data-plane kinds are
        written through here."""
        s = _SCHEMAS[key]
        if len(row) != s.width:
            raise TypeError(f"{key}: needs the values {s.stored}, "
                            f"got {len(row)}")
        self._values[s.sid].extend(row)
        self._seq.append(s.sid)

    def append(self, t: int, element: str, event: str, **fields) -> None:
        """Append any declared record; raises ValueError for an unknown
        kind or variant and for a missing or extra field."""
        rec = {"t": t, "el": element, "ev": event, **fields}
        if len(rec) != len(_HEAD) + len(fields):
            raise ValueError(f"{event}: {_HEAD} are not fields")
        self.extend((rec,))

    def extend(self, records) -> None:
        """Append record dicts, each checked against the schema; when one
        is not declared, none is appended.  The checked values are grouped
        by schema, then added to the log's values one schema at a time."""
        schemas = _SCHEMAS
        variant_of = _VARIANT_OF
        groups: dict[int, list] = {}
        sids = bytearray()
        add_sid = sids.append
        try:
            for rec in records:
                kind = rec["ev"]
                field = variant_of[kind]
                s = schemas[kind if field is None else (kind, rec[field])]
                values = s.read(rec)
                if len(rec) != len(s.names):
                    raise KeyError
                try:
                    groups[s.sid].extend(values)
                except KeyError:
                    groups[s.sid] = list(values)
                add_sid(s.sid)
        except KeyError:
            raise _reject(rec) from None
        for sid, values in groups.items():
            self._values[sid] += values
        self._seq += sids

    @classmethod
    def from_records(cls, records) -> "EventLog":
        log = cls()
        log.extend(records)
        return log

    # -- what the reducers read

    def column(self, kind: str, name: str):
        """Field `name` of every record of `kind`, as an iterator to read
        once.  For a plain kind it is in log order.  For a variant kind it
        runs through its variants one after another, so it is not in log
        order: its readers only sum or count it.  Raises ValueError when a
        schema of the kind has no such stored field."""
        parts = [islice(self._values[s.sid], s.stored.index(name), None,
                        s.width)
                 for s in _BY_SID if s.kind == kind]
        return parts[0] if len(parts) == 1 else chain(*parts)

    def count(self, kind: str, variant=None) -> int:
        """The number of records of `kind`, or of one variant of it."""
        schemas = ([s for s in _BY_SID if s.kind == kind] if variant is None
                   else [_SCHEMAS[kind, variant]])
        return sum(len(self._values[s.sid]) // s.width for s in schemas)

    # -- encoding

    def hash(self, out=None) -> str:
        """sha256 of the canonical JSONL encoding of the records.  The log
        is encoded one batch at a time and each chunk is fed to the hash
        and, when `out` is a binary file, written there, so the file gets
        exactly the hashed bytes from the same pass.  No chunk is kept."""
        h = hashlib.sha256()
        for chunk in _encode(self._seq, self._values):
            h.update(chunk)
            if out is not None:
                out.write(chunk)
        return h.hexdigest()

    # -- the records as dicts

    def __len__(self) -> int:
        return len(self._seq)

    def __iter__(self):
        """Record dicts in log order, built on access: one cursor per
        schema takes that schema's values width at a time."""
        cursors = [map(s.record, zip(*[iter(vals)] * s.width))
                   for s, vals in zip(_BY_SID, self._values)]
        return map(next, map(cursors.__getitem__, self._seq))

    def __eq__(self, other) -> bool:
        if isinstance(other, EventLog):
            return self._seq == other._seq and self._values == other._values
        if isinstance(other, list):
            return len(other) == len(self._seq) and all(
                a == b for a, b in zip(self, other))
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventLog(<{len(self._seq)} records>)"


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
    """Everything one simulation run produces.  events is an EventLog; a
    list of record dicts given here is checked and stored as one."""

    config: dict
    mode: str
    seed: int
    events: EventLog = field(default_factory=EventLog)
    samples: list = field(default_factory=list)
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not isinstance(self.events, EventLog):
            self.events = EventLog.from_records(self.events)


# ---------------------------------------------------------------------------
# reducers
#
# Each reducer takes an EventLog and reads the fields it needs with
# events.column(), each once, or counts records with events.count(); the
# fabric's counters, the invariant check and the summary all read the
# log's stored values in place, so none of them groups or copies it.

def conservation_from_events(events: EventLog,
                             horizon_us: int | None = None) -> dict:
    """Recompute byte conservation from the event log alone.

    Each multicast branch point logs the surplus copies it creates, so
    injected + branch surplus = delivered + dropped + undrained bytes,
    where undrained are the copies still on a link at the horizon: those
    whose last pkt_fwd arrives after horizon_us (the run executes every
    event at the horizon itself).  Without a horizon nothing may be left
    undrained.  in_flight is the left side minus delivered and dropped.
    """
    injected = sum(events.column("pkt_inject", "size"))
    delivered = sum(events.column("pkt_deliver", "size"))
    dropped = sum(events.column("pkt_drop", "size"))
    branch_extra = sum(map(mul, events.column("pkt_branch", "size"),
                           events.column("pkt_branch", "extra")))
    undrained = 0
    if horizon_us is not None:
        undrained = sum(size for size, arrive in zip(
            events.column("pkt_fwd", "size"),
            events.column("pkt_fwd", "arrive")) if arrive > horizon_us)
    in_flight = injected + branch_extra - delivered - dropped
    return {
        "injected_bytes": injected,
        "branch_extra_bytes": branch_extra,
        "delivered_bytes": delivered,
        "dropped_bytes": dropped,
        "in_flight_bytes": in_flight,
        "undrained_bytes": undrained,
        "injected_pkts": events.count("pkt_inject"),
        "delivered_pkts": events.count("pkt_deliver"),
        "dropped_pkts": events.count("pkt_drop"),
        "balanced": in_flight == undrained,
    }


def link_bytes_from_events(events: EventLog) -> dict:
    """Per-link transmitted bytes, total and split by traffic class."""
    totals: dict[str, int] = {}
    by_class: dict[str, dict[str, int]] = {}
    # packet sizes take few values, so counting (link, kind, size) first
    # leaves few sums to add up
    columns = (events.column("pkt_fwd", f) for f in ("link", "kind", "size"))
    for (link, kind, size), n in Counter(zip(*columns)).items():
        totals[link] = totals.get(link, 0) + size * n
        cls = by_class.setdefault(link, {})
        cls[kind] = cls.get(kind, 0) + size * n
    return {"total": totals, "by_class": by_class}


def drops_by_reason(events: EventLog) -> dict:
    """The number of drops of each reason that occurs."""
    counts = {reason: events.count("pkt_drop", reason)
              for reason in EVENT_FIELDS["pkt_drop"]}
    return {reason: n for reason, n in counts.items() if n}


def merge_ratios(events: EventLog) -> dict:
    """Client deliveries divided by server transmissions, per traffic class.

    For request/response traffic the numerator counts completed client
    fetches and the denominator server responses; for continuous streams
    it counts sink packet deliveries against source emissions.
    """
    server_tx = Counter(events.column("server_resp", "kind"))
    client_rx = Counter(events.column("http_resp", "kind"))
    streams = Counter(events.column("pkt_inject", "kind"))["stream"]
    if streams:
        server_tx["stream"] += streams
    received = events.count("stb_rx")
    if received:
        client_rx["stream"] += received
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


def stalls_from_events(events: EventLog, chunk_duration_us: int,
                       startup_hold_us: int) -> dict:
    """Replay playback from chunk arrival records and recompute stalls.

    Playback of the first arrived chunk starts startup_hold after its
    arrival; every later chunk is due one chunk duration after the
    previous one began; lateness beyond the due time is stall time.
    Cross-checks the stall events the clients logged live.
    """
    arrivals: dict[str, list[int]] = {}
    for t, client in zip(events.column("chunk_done", "t"),
                         events.column("chunk_done", "el")):
        arrivals.setdefault(client, []).append(t)
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
    config = artifacts.config
    params = config.get("params", {})
    hls = config.get("apps", {}).get("hls")
    horizon_us = (config["duration_ms"] * 1000 if "duration_ms" in config
                  else None)
    summary = {
        "mode": artifacts.mode,
        "seed": artifacts.seed,
        "conservation": conservation_from_events(events, horizon_us),
        "link_bytes": link_bytes_from_events(events),
        "drops_by_reason": drops_by_reason(events),
        "merge_ratios": merge_ratios(events),
        "spurious_deliveries": sum(
            1 for spurious in events.column("pkt_deliver", "spurious")
            if spurious),
    }

    # playback stalls (HLS clients)
    if hls:
        chunk_us = hls["chunk_duration_ms"] * 1000
        hold_us = params["startup_hold_ms"] * 1000
        summary["stalls"] = stalls_from_events(events, chunk_us, hold_us)

    # channel acquisition after a join or zap
    acquisitions = [{"el": el, "channel": channel, "us": us}
                    for el, channel, us in zip(
                        *(events.column("acquisition", f)
                          for f in ("el", "channel", "dur_us")))]
    if acquisitions:
        summary["acquisitions"] = acquisitions

    # per-sink stream disruption intervals; a gap is judged by the packet
    # interval of the channel that ends it, so thresholds follow zaps
    from .apps import packet_interval_us
    iptv = config.get("apps", {}).get("iptv") or {}
    max_gap = {ch["name"]: 2 * packet_interval_us(params["mtu"],
                                                  ch["bitrate_mbps"])
               for ch in iptv.get("channels") or []}
    stb_rx: dict[str, list[int]] = {}
    stb_gap: dict[str, list[int]] = {}
    stb_span: dict[str, list[int]] = {}
    stream_gap: dict[str, int] = {}
    for el, t, stream in zip(*(events.column("stb_rx", f)
                               for f in ("el", "t", "name"))):
        gap = stream_gap.get(stream)
        if gap is None:
            # stream names are "<plane prefix>:<channel>" in both modes
            gap = stream_gap[stream] = max_gap[stream.split(":", 1)[1]]
        stb_rx.setdefault(el, []).append(t)
        stb_gap.setdefault(el, []).append(gap)
    for el, t, until in zip(*(events.column("stb_active", f)
                              for f in ("el", "t", "until"))):
        stb_span[el] = [t, until]
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


def export_jsonl(artifacts: RunArtifacts, fh) -> str:
    """Write events, then samples, one canonical JSON record per line, to
    the binary file fh; returns the events' events_hash.  The events are
    streamed through EventLog.hash(fh), so the pass that writes them is
    the one that hashes them."""
    digest = artifacts.events.hash(fh)
    fh.write(encode_lines([{"ev": "sample", **r} for r in artifacts.samples]))
    return digest


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
        "in_flight=%d undrained=%d balanced=%s" % (
            cons["injected_bytes"], cons["branch_extra_bytes"],
            cons["delivered_bytes"], cons["dropped_bytes"],
            cons["in_flight_bytes"], cons["undrained_bytes"],
            cons["balanced"]))
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


def export(artifacts: RunArtifacts, outdir: str, fmt: str = "both") -> dict:
    """Write the artifact directory; returns the path map.

    fmt selects "jsonl", "csv" or "both" payload files; the effective
    config, summary and meta files are always written.  The events are
    encoded once, by the pass that writes events.jsonl or, for "csv", by
    hash() alone; its digest is set as artifacts.meta's events_hash,
    which meta.json carries.
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
            digest = export_jsonl(artifacts, fh)
    else:
        digest = artifacts.events.hash()
    artifacts.meta["events_hash"] = digest
    if fmt in ("csv", "both"):
        write(METRICS_FILE, export_csv(artifacts.samples))
    write(SUMMARY_FILE, render_summary(summarize(artifacts)))
    write(META_FILE, json.dumps(artifacts.meta, sort_keys=True, indent=2) + "\n")
    return paths


def import_artifacts(outdir: str) -> RunArtifacts:
    """Rebuild RunArtifacts from an exported directory; every event record
    is checked against the schema."""
    with open(os.path.join(outdir, CONFIG_FILE)) as fh:
        config = json.load(fh)
    with open(os.path.join(outdir, META_FILE)) as fh:
        meta = json.load(fh)
    # one json.loads per batch of about _READ_BATCH bytes of lines: a raw
    # newline only ever separates records, so the non-blank lines joined by
    # commas form one JSON array
    log, samples = EventLog(), []
    with open(os.path.join(outdir, EVENTS_FILE), "rb") as fh:
        for lines in iter(lambda: fh.readlines(_READ_BATCH), []):
            batch = b",".join([line for line in lines if line.strip()])
            recs = json.loads(b"[" + batch + b"]")
            events = [rec for rec in recs if rec.get("ev") != "sample"]
            log.extend(events)
            if len(events) != len(recs):
                for rec in recs:
                    if rec.get("ev") == "sample":
                        rec.pop("ev")
                        samples.append(rec)
    return RunArtifacts(config=config, mode=meta["mode"], seed=meta["seed"],
                        events=log, samples=samples, meta=meta)


def events_hash(events) -> str:
    """sha256 of the canonical JSONL encoding of an EventLog or a list of
    record dicts."""
    if not isinstance(events, EventLog):
        events = EventLog.from_records(events)
    return events.hash()
