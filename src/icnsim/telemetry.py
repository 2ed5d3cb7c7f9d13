"""Event log, metric sampling, reducers and artifact serialization.

The append-only event log is the only record of what the data plane
did (the data plane keeps no counters), and summarize() here recomputes
everything from the exported records alone.

EVENT_FIELDS is the log's schema, compiled once at import.  EventLog
keeps, for each schema (a plain kind, or one variant of a variant kind),
one column per stored field (all fields but ev and the variant field,
which are constant per schema), plus one schema id byte per record in
log order.  A column is as compact as its content allows, and its type
follows from that content: while every value in it is an int (never a
bool), its first value and an array of the differences between
consecutive values, of the narrowest signed typecode that holds them;
an unsigned array of codes into the log's one string table while every
value is a str; a bytearray of one byte per value while every value is
a bool; else a list.  The hot data-plane kinds are written with
log.write(key, t, el, *values), which checks the number of values and
extends the schema's flat buffer; the generic append() rejects any
record dict the schema does not declare.  The buffered values are moved
into the columns in bulk, every _BATCH records and before any read.
Reducers read a field with log.column(kind, name), an iterator in log
order for a plain kind and in no set order for a variant kind, and
count records with log.count(kind).  The canonical encoding (one
sorted-key JSON object per line) is rendered through one "%" template
per schema, from one lazy cursor per schema over its columns, and
streamed: log.hash(out) feeds each chunk of _CHUNK lines to sha256 and,
when exporting, to events.jsonl, so a run encodes its log once and
keeps none of the encoding.  Readers that want dicts iterate the log
and get them built on access.

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
from array import array
from collections import Counter
from itertools import accumulate, chain, islice
from json.encoder import encode_basestring_ascii
from operator import itemgetter, mul, sub


# One shared encoder: the same text as json.dumps(record, sort_keys=True,
# separators=(",", ":")), without building an encoder per record.
canonical_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode

# Records encoded per step of encode_lines, and records an EventLog
# buffers before it packs them into its columns; bounds their transient
# memory.  The log's encoder emits chunks of _CHUNK lines (one chunk of
# EventLog.hash), and a pack appends _CHUNK values per fromlist.
_BATCH = 1024
_CHUNK = _BATCH // 4

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
    which are constant), their number and the index of the first of them
    among the stored fields of every schema, in id order (the log's
    per-field state is indexed so), the "%" template of its
    canonical JSON (keys sorted; the constants are text in it), the
    positions among the stored values of those the template takes, in
    key order, its record dict with the constants filled in, and the
    getter of the stored values of a record dict."""

    __slots__ = ("kind", "sid", "names", "stored", "width", "base",
                 "template", "pick", "blank", "read")

    def __init__(self, sid: int, base: int, kind: str, fields: tuple,
                 variant=None):
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
        self.base = base
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
    base = 0
    for kind, decl in EVENT_FIELDS.items():
        variants = decl.items() if isinstance(decl, dict) else [(None, decl)]
        for variant, fields in variants:
            key = kind if variant is None else (kind, variant)
            s = table[key] = _Schema(len(table), base, kind, fields, variant)
            base += s.width
    assert len(table) <= 256, "more schemas than an id byte holds"
    return table


_SCHEMAS = _compile()
_BY_SID = tuple(_SCHEMAS.values())
# the stored fields of every schema
_FIELDS = _BY_SID[-1].base + _BY_SID[-1].width
# the schemas of each declared kind
_KINDS = {kind: tuple(s for s in _BY_SID if s.kind == kind)
          for kind in EVENT_FIELDS}
# the variant field of each declared kind, None for a plain kind
_VARIANT_OF = {**dict.fromkeys(EVENT_FIELDS), **VARIANT_FIELD}


def _group(kind, variant=None) -> tuple:
    """The schemas of a declared kind, or of one variant of it."""
    try:
        return (_KINDS[kind] if variant is None
                else (_SCHEMAS[kind, variant],))
    except KeyError:
        key = kind if variant is None else (kind, variant)
        raise ValueError(f"undeclared event kind {key!r}") from None


def _reject(rec) -> ValueError:
    """The error for a record the schema does not declare."""
    if not isinstance(rec, dict):
        return ValueError(f"record is not an object: {rec!r}")
    kind = rec.get("ev")
    if not isinstance(kind, str) or kind not in EVENT_FIELDS:
        return ValueError(f"unknown event kind {kind!r}")
    key = kind
    if kind in VARIANT_FIELD:
        key = kind, rec.get(VARIANT_FIELD[kind])
        if not isinstance(key[1], str) or key not in _SCHEMAS:
            return ValueError(f"{kind}: unknown {VARIANT_FIELD[kind]} "
                              f"{key[1]!r}")
    return ValueError(f"{kind} record needs exactly the fields "
                      f"{_SCHEMAS[key].names}, got {tuple(rec)}")


class _Table(dict):
    """A log's string table: each str its coded columns hold, mapped to
    its code, the index of the str in .strs.  A str gets the next code
    the first time it is looked up, so codes follow first-pack order and
    one map(table.__getitem__, values) codes a batch in C, calling back
    into Python once per new str only."""

    def __init__(self):
        super().__init__()
        self.strs: list[str] = []

    def __missing__(self, s: str) -> int:
        code = self[s] = len(self.strs)
        self.strs.append(s)
        return code


# The typecode an int column (signed) or a coded str column (unsigned)
# widens to when its values overflow; a column starts at the narrowest.
_WIDER = {"b": "h", "h": "i", "i": "q", "B": "H", "H": "I"}
_CODED = frozenset("BHI")


def _fill(col: array, values):
    """col with the values of an iterator appended, _CHUNK at a time,
    widened by one typecode each time a chunk overflows it (fromlist
    appends nothing then, and the chunk is tried again); None when the
    widest overflows too, col then holding the chunks before.  So no list
    of all the values is built."""
    chunk = list(islice(values, _CHUNK))
    while chunk:
        try:
            col.fromlist(chunk)
        except OverflowError:
            wider = _WIDER.get(col.typecode)
            if wider is None:
                return None
            col = array(wider, col)
        else:
            chunk = list(islice(values, _CHUNK))
    return col


def _ints(diffs, before: int):
    """The values of an int column: its differences summed onto `before`,
    its first value, lazily."""
    values = accumulate(diffs, initial=before)
    next(values)
    return values


# A bool column's byte decoded, and rendered as JSON; a bool indexes
# both as 0 or 1
_BOOL = (False, True)
_BOOL_TEXT = ("false", "true")


def _text(value):
    """One value as the template takes it: an int as itself, any other
    value through canonical_json."""
    return value if value.__class__ is int else canonical_json(value)


def _render(col, first, texts: list):
    """A column's values, lazily, as the template takes them: an int as
    itself, a str as its JSON text, any other value (bool, None, float,
    list) through canonical_json.  An int column is summed from `first`,
    its first value, a coded column is one index per value into texts,
    the JSON text of each str of the log's table, and a bool column one
    index per byte into _BOOL_TEXT; a list's values of one type are
    rendered in a single C-level pass."""
    if col.__class__ is array:
        if col.typecode in _CODED:
            return map(texts.__getitem__, col)
        return _ints(col, first)
    if col.__class__ is bytearray:
        return map(_BOOL_TEXT.__getitem__, col)
    types = set(map(type, col))
    if types == {int}:
        return col
    if types == {str}:
        return map(encode_basestring_ascii, col)
    if types == {bool}:
        return map(_BOOL_TEXT.__getitem__, col)
    return map(_text, col)


def _encode(seq: bytearray, columns: list, firsts: list, table: _Table):
    """Canonical JSONL of a log's records, yielded as one bytes chunk per
    _CHUNK records; joined, the same bytes as encode_lines of their dicts.
    Each str of the table is encoded once, up front.  One cursor per
    schema renders its columns lazily and formats each record's values
    into a line through the schema's template, and the schema ids take
    the lines back in log order, _CHUNK lines per chunk.  A chunk is
    dropped once the consumer moves on, and nothing else of the encoding
    is built, so memory peaks at one chunk's text whatever the log's
    length."""
    texts = list(map(encode_basestring_ascii, table.strs))
    lines = [map(s.template.__mod__,
                 zip(*[_render(cols[j], firsts[s.base + j], texts)
                       for j in s.pick]))
             if cols[0] else None
             for s, cols in zip(_BY_SID, columns)]
    ordered = map(next, map(lines.__getitem__, seq))
    for _ in range(0, len(seq), _CHUNK):
        yield ("\n".join(islice(ordered, _CHUNK)) + "\n").encode()


class EventLog:
    """Append-only record stream with a stable canonical encoding.

    Each schema (a plain kind, or one variant of a variant kind) keeps one
    column per stored field, in log order; ev and the variant field are
    constant per schema and are not stored.  A column takes the most
    compact form its content allows, and its type follows from that
    content alone:
    - an int column, while every value in it is an int (never a bool):
      its first value, kept beside the columns, and an array of the
      difference of each value from the one before (0 for the first), of
      the narrowest signed typecode that holds them, widened
      b -> h -> i -> q as the differences need;
    - a coded column, while every value in it is a str: an unsigned array
      (B -> H -> I, as the codes need) of codes into the log's one string
      table, which holds each distinct str once;
    - a bool column, while every value in it is a bool: a bytearray of
      one 0 or 1 byte per value, read back through (False, True); bools
      stay out of the string table, whose keys 1 and True would collide;
    - otherwise a list of the values, which stays one.
    A column is () until its first values are packed.  Written records go
    to the schema's flat buffer first, record after record, and _pack()
    moves them into the columns in bulk.  A bytearray
    holds the schema id of each record, in log order.  Nothing is changed
    once appended.  Iterated, the log reads as record dicts, built on
    access; column() and count() are what the reducers read.  The
    encoding is streamed from the columns by hash(), which keeps none of
    it.
    """

    def __init__(self):
        self._seq = bytearray()
        # schema id -> the values written since the last pack
        self._buf = [[] for _ in _BY_SID]
        # schema id -> one column per stored field, () while it is empty
        self._cols = [[()] * s.width for s in _BY_SID]
        # per stored field of every schema (schema.base + index): the first
        # and the last value of an int column
        self._first = [0] * _FIELDS
        self._last = [0] * _FIELDS
        self._table = _Table()

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
        self._buf[s.sid].extend(row)
        seq = self._seq
        seq.append(s.sid)
        if not len(seq) % _BATCH:
            self._pack()

    def _pack(self) -> None:
        """Move every buffered value into its column, a field at a time.
        A column holds one type of value: an int column ints (bool
        excluded), as differences, widened as they need, a coded column
        strs, as codes, and a bool column bools, one byte each.  An empty
        column takes the form of the type of its first value, and an int
        column takes that value as its first.  A column takes a field's
        values when all of them are of its type; one that meets any other
        value, or a difference beyond 64 bits, turns into a list of its
        values, so a None, float or larger int keeps the type it is
        encoded by."""
        table = self._table
        first, last = self._first, self._last
        for s, buf, cols in zip(_BY_SID, self._buf, self._cols):
            if not buf:
                continue
            width = s.width
            for j, col in enumerate(cols):
                part = buf[j::width]
                if col.__class__ is list:
                    col += part
                    continue
                kinds = list(map(type, part))
                if not col:
                    held = kinds[0]
                elif col.__class__ is bytearray:
                    held = bool
                else:
                    held = str if col.typecode in _CODED else int
                packed = None
                k = s.base + j
                n = len(col)
                if kinds.count(held) == len(part):
                    if held is int:
                        if not col:
                            first[k] = last[k] = part[0]
                        packed = _fill(col if col else array("b"),
                                       map(sub, part, chain((last[k],), part)))
                        last[k] = part[-1]
                    elif held is str:
                        packed = _fill(col if col else array("B"),
                                       map(table.__getitem__, part))
                    elif held is bool:
                        packed = col if col else bytearray()
                        packed += bytes(part)
                # a failed _fill may have appended to col past its n values
                cols[j] = (packed if packed is not None else
                           [*islice(self._values(col, first[k]), n), *part])
            buf.clear()

    def _values(self, col, first=None):
        """A column's values: an int one's differences summed from
        `first`, its first value, a coded one decoded through the table
        and a bool one through _BOOL."""
        if col.__class__ is bytearray:
            return map(_BOOL.__getitem__, col)
        if col.__class__ is array:
            if col.typecode in _CODED:
                return map(self._table.strs.__getitem__, col)
            return _ints(col, first)
        return col

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
        by schema and added to the schemas' buffers, which are packed when
        the log passes a multiple of _BATCH records, as in write()."""
        schemas = _SCHEMAS
        variant_of = _VARIANT_OF
        groups: dict[int, list] = {}
        sids = bytearray()
        add_sid = sids.append
        records = iter(records)  # a non-iterable raises here, not below
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
        except (KeyError, TypeError):
            # TypeError: a record that is not a dict, or an unhashable kind
            raise _reject(rec) from None
        for sid, values in groups.items():
            self._buf[sid] += values
        before = len(self._seq)
        self._seq += sids
        if before // _BATCH != len(self._seq) // _BATCH:
            self._pack()

    # -- what the reducers read

    def column(self, kind: str, name: str):
        """Field `name` of every record of `kind`, as an iterator to read
        once.  For a plain kind it is in log order.  For a variant kind it
        runs through its variants one after another, so it is not in log
        order: its readers only sum or count it.  Raises ValueError for an
        undeclared kind, and when a schema of the kind has no such stored
        field."""
        self._pack()
        parts = []
        for s in _group(kind):
            j = s.stored.index(name)
            parts.append(self._values(self._cols[s.sid][j],
                                      self._first[s.base + j]))
        return iter(parts[0]) if len(parts) == 1 else chain(*parts)

    def count(self, kind: str, variant=None) -> int:
        """The number of records of `kind`, or of one variant of it.
        Raises ValueError for an undeclared kind or variant."""
        self._pack()
        return sum(len(self._cols[s.sid][0]) for s in _group(kind, variant))

    # -- encoding

    def hash(self, out=None) -> str:
        """sha256 of the canonical JSONL encoding of the records.  The log
        is encoded one chunk of _CHUNK records at a time and each chunk
        is fed to the hash and, when `out` is a binary file, written
        there, so the file gets exactly the hashed bytes from the same
        pass.  No chunk is kept."""
        self._pack()
        h = hashlib.sha256()
        for chunk in _encode(self._seq, self._cols, self._first,
                             self._table):
            h.update(chunk)
            if out is not None:
                out.write(chunk)
            # drop it before the next chunk is encoded, so one chunk
            # is held at a time, not two
            del chunk
        return h.hexdigest()

    # -- the records as dicts

    def __len__(self) -> int:
        return len(self._seq)

    def __iter__(self):
        """Record dicts in log order, built on access: one cursor per
        schema walks its columns together."""
        self._pack()
        firsts = self._first
        cursors = [map(s.record, zip(*map(self._values, cols,
                                          firsts[s.base:s.base + s.width])))
                   for s, cols in zip(_BY_SID, self._cols)]
        return map(next, map(cursors.__getitem__, self._seq))

    def __eq__(self, other) -> bool:
        if isinstance(other, EventLog):
            self._pack()
            other._pack()
            # codes follow first-pack order, so compare what they stand for
            return self._seq == other._seq and all(
                list(self._values(a, fa)) == list(other._values(b, fb))
                for a, fa, b, fb in zip(
                    chain.from_iterable(self._cols), self._first,
                    chain.from_iterable(other._cols), other._first))
        return NotImplemented

    def __repr__(self) -> str:
        return f"EventLog(<{len(self._seq)} records>)"


class Telemetry:
    """Optional metric sample stream (counters, gauges).  Its one writer,
    Fabric.flush_counters, records no sample while enabled is false."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.samples: list[dict] = []

    def record(self, t: int, element: str, metric: str, value) -> None:
        self.samples.append({"t": t, "el": element, "metric": metric, "value": value})

    def hash(self) -> str:
        return hashlib.sha256(encode_lines(self.samples)).hexdigest()


class RunArtifacts:
    """Everything one simulation run produces: its effective config, mode
    and seed, its EventLog, its metric samples and its meta dict."""

    __slots__ = ("config", "mode", "seed", "events", "samples", "meta")

    def __init__(self, config: dict, mode: str, seed: int, events: EventLog,
                 samples: list, meta: dict):
        self.config = config
        self.mode = mode
        self.seed = seed
        self.events = events
        self.samples = samples
        self.meta = meta


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


def disruption_intervals(arrivals, spans: dict) -> dict:
    """Maximal delivery gaps larger than their threshold, per sink.

    arrivals are (sink, time, threshold) triples in log order, so in time
    order for each sink; spans maps each sink to its active period
    (start, end), and only sinks with a span are reported.  Gaps are
    measured between consecutive deliveries inside the active period,
    and each is judged by the threshold of the arrival that ends it.
    Arrivals at one time are taken in threshold order, so a gap that ends
    at a tie is judged by the tie's smallest threshold; thresholds are
    not negative, so a tie is never a gap itself.  A sink with no
    deliveries at all counts one disruption spanning its whole active
    period.

    One pass: per sink it keeps the time of its last arrival, the time
    before it, the smallest threshold at the last time, and the
    intervals found, never the arrivals.  Raises ValueError for an
    arrival earlier than its sink's last one.
    """
    out = {sink: [] for sink in spans}
    # sink -> [time before last, last time, smallest threshold at last]
    state: dict[str, list] = {}
    for sink, t, gap in arrivals:
        span = spans.get(sink)
        if span is None or not span[0] <= t <= span[1]:
            continue
        s = state.get(sink)
        if s is None:
            state[sink] = [None, t, gap]
        elif t > s[1]:
            prev, last, least = s
            if prev is not None and last - prev > least:
                out[sink].append((prev, last))
            s[0] = last
            s[1] = t
            s[2] = gap
        elif t == s[1]:
            if gap < s[2]:
                s[2] = gap
        else:
            raise ValueError(f"{sink}: arrival at {t} after one at {s[1]}")
    for sink, (prev, last, least) in state.items():
        if prev is not None and last - prev > least:
            out[sink].append((prev, last))
    for sink, (start, end) in spans.items():
        if sink not in state and end > start:
            out[sink].append((start, end))
    return out


class _Thresholds(dict):
    """The disruption threshold of each stream name, looked up once per
    name: stream names are "<plane prefix>:<channel>" in both modes."""

    def __init__(self, by_channel: dict):
        super().__init__()
        self.by_channel = by_channel

    def __missing__(self, stream: str) -> int:
        gap = self[stream] = self.by_channel[stream.split(":", 1)[1]]
        return gap


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
    """Independent reduction of the event log into the run summary.

    It reads the log's columns in place and keeps state per element, not
    per record: the disruptions are folded from one pass over the stb_rx
    records, with the set-top boxes' active spans read first, so what it
    adds on top of the log does not grow with the number of arrivals."""
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
    # interval of the channel that ends it, so thresholds follow zaps.
    # The spans come first, so the arrivals are folded in one pass
    from .apps import packet_interval_us
    iptv = config.get("apps", {}).get("iptv") or {}
    max_gap = {ch["name"]: 2 * packet_interval_us(params["mtu"],
                                                  ch["bitrate_mbps"])
               for ch in iptv.get("channels") or []}
    spans = {el: (t, until) for el, t, until in zip(
        *(events.column("stb_active", f) for f in ("el", "t", "until")))}
    if events.count("stb_rx") or spans:
        arrivals = zip(events.column("stb_rx", "el"),
                       events.column("stb_rx", "t"),
                       map(_Thresholds(max_gap).__getitem__,
                           events.column("stb_rx", "name")))
        intervals = disruption_intervals(arrivals, spans)
        summary["disruptions"] = {
            stb: [{"start": s, "end": e, "us": e - s} for s, e in ivs]
            for stb, ivs in sorted(intervals.items())}
        summary["disruption_gap_threshold_us"] = max_gap
    return summary


# ---------------------------------------------------------------------------
# artifact serialization

EVENTS_FILE = "events.jsonl"
METRICS_FILE = "metrics.csv"
CONFIG_FILE = "effective_config.json"
SUMMARY_FILE = "summary.txt"
META_FILE = "meta.json"
SAMPLE_FIELDS = ("t", "el", "metric", "value")


def export_csv(samples) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(SAMPLE_FIELDS)
    writer.writerows(map(itemgetter(*SAMPLE_FIELDS), samples))
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


def export(artifacts: RunArtifacts, outdir: str) -> dict:
    """Write the artifact directory, always the same five files; returns
    the path map.

    events.jsonl holds the events alone, streamed through
    EventLog.hash(fh), so the pass that writes the file is the one that
    hashes it and the file's sha256 is its events_hash, which is set in
    artifacts.meta and carried by meta.json.  The samples go to
    metrics.csv only.  effective_config.json is streamed into its file
    by json.dump, the same bytes as json.dumps, so no text of the config
    is held beside the log.
    """
    os.makedirs(outdir, exist_ok=True)
    paths = {}

    def write(name: str, text: str) -> None:
        p = os.path.join(outdir, name)
        with open(p, "w") as fh:
            fh.write(text)
        paths[name] = p

    paths[CONFIG_FILE] = os.path.join(outdir, CONFIG_FILE)
    with open(paths[CONFIG_FILE], "w") as fh:
        json.dump(artifacts.config, fh, sort_keys=True, indent=2)
        fh.write("\n")
    paths[EVENTS_FILE] = os.path.join(outdir, EVENTS_FILE)
    with open(paths[EVENTS_FILE], "wb") as fh:
        artifacts.meta["events_hash"] = artifacts.events.hash(fh)
    write(METRICS_FILE, export_csv(artifacts.samples))
    write(SUMMARY_FILE, render_summary(summarize(artifacts)))
    write(META_FILE, json.dumps(artifacts.meta, sort_keys=True, indent=2) + "\n")
    return paths


def import_artifacts(outdir: str) -> RunArtifacts:
    """Rebuild RunArtifacts from an exported directory.  Every line of
    events.jsonl is an event record, checked against the schema; the
    samples are read back from metrics.csv, t and value as ints.  Raises
    OSError for a file that cannot be read and ValueError for one that
    does not parse, is not the JSON object it should be, lacks a meta
    field that compare reads (mode, seed, scenario, config_hash) or holds
    a record the schema does not declare."""
    with open(os.path.join(outdir, CONFIG_FILE)) as fh:
        config = json.load(fh)
    with open(os.path.join(outdir, META_FILE)) as fh:
        meta = json.load(fh)
    for name, value in ((CONFIG_FILE, config), (META_FILE, meta)):
        if not isinstance(value, dict):
            raise ValueError(f"{name}: not a JSON object")
    for key in ("mode", "seed", "scenario", "config_hash"):
        if key not in meta:
            raise ValueError(f"{META_FILE}: no {key!r}")
    # one json.loads per batch of about _READ_BATCH bytes of lines: a raw
    # newline only ever separates records, so the non-blank lines joined by
    # commas form one JSON array
    log = EventLog()
    with open(os.path.join(outdir, EVENTS_FILE), "rb") as fh:
        for lines in iter(lambda: fh.readlines(_READ_BATCH), []):
            batch = b",".join([line for line in lines if line.strip()])
            log.extend(json.loads(b"[" + batch + b"]"))
    with open(os.path.join(outdir, METRICS_FILE), newline="") as fh:
        rows = csv.reader(fh)
        if next(rows, None) != list(SAMPLE_FIELDS):
            raise ValueError(f"{METRICS_FILE}: header is not "
                             f"{','.join(SAMPLE_FIELDS)}")
        samples = [{"t": int(t), "el": el, "metric": metric,
                    "value": int(value)} for t, el, metric, value in rows]
    return RunArtifacts(config=config, mode=meta["mode"], seed=meta["seed"],
                        events=log, samples=samples, meta=meta)


def events_hash(events: EventLog) -> str:
    """sha256 of the canonical JSONL encoding of an EventLog."""
    return events.hash()
