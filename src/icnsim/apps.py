"""Application models: live HLS video and multicast IPTV.

The same client, server, source and set-top-box code runs over both data
planes; only the injected transport adapters differ.  Client behaviour is
driven by the virtual clock (fixed request schedule, fixed chunk offset),
so the request trace is identical across modes until a scripted failure
makes the planes diverge.
"""

from __future__ import annotations

from collections import namedtuple

from .simkernel import Engine
from .telemetry import EventLog


class HlsCatalog(namedtuple(
        "HlsCatalog", "host path_prefix chunk_duration_us bitrates_mbps "
        "playlist_window")):
    """One live stream: rolling playlist over constant-duration chunks."""

    __slots__ = ()

    def chunk_bytes(self, bitrate_mbps: int) -> int:
        # bitrate (Mb/s) x duration (us) gives bits exactly
        return bitrate_mbps * self.chunk_duration_us // 8

    def playlist_path(self) -> str:
        return f"{self.path_prefix}/playlist.m3u8"

    def chunk_path(self, bitrate_mbps: int, index: int) -> str:
        return f"{self.path_prefix}/{bitrate_mbps}/{index}"

    def edge_index(self, now_us: int) -> int:
        """Newest finished chunk; -1 before the first chunk completes."""
        return now_us // self.chunk_duration_us - 1

    def available(self, index: int, now_us: int) -> bool:
        edge = self.edge_index(now_us)
        return edge - self.playlist_window < index <= edge and index >= 0


class HlsServer:
    """Origin or surrogate web server behind a gateway.

    The playlist is rewritten as the live edge advances, so two fetches
    straddling a chunk boundary see different chunk lists.  A downed
    server never answers; the client timeout is the only recovery.  A
    reply is back at the server's gateway or switch server_latency_us
    plus access_latency_us after the request reached the server.
    """

    def __init__(self, name: str, nap: str, catalog: HlsCatalog,
                 engine: Engine, log: EventLog, params):
        self.name = name
        self.nap = nap
        self.catalog = catalog
        self.engine = engine
        self.log = log
        self.params = params
        self.up = True

    def set_up(self, up: bool) -> None:
        self.up = up
        self.log.append(self.engine.now, self.name, "server_state", up=up)

    def handle_request(self, path: str, reply) -> None:
        """Answer after the reply delay with reply(status, size, kind,
        meta); kind, the response's traffic class, is decided only here."""
        if not self.up:
            self.log.append(self.engine.now, self.name, "server_noreply",
                            path=path)
            return
        status, size, kind, meta = self._resolve(path)
        self.log.append(self.engine.now, self.name, "server_resp", kind=kind,
                        path=path, status=status, size=size)
        self.engine.schedule(
            self.params.server_latency_us + self.params.access_latency_us,
            reply, status, size, kind, meta)

    def _resolve(self, path: str):
        cat = self.catalog
        if path == cat.playlist_path():
            return (200, self.params.playlist_bytes, "playlist",
                    cat.edge_index(self.engine.now))
        parts = path.rsplit("/", 2)
        if len(parts) == 3 and parts[0] == cat.path_prefix:
            try:
                bitrate, index = int(parts[1]), int(parts[2])
            except ValueError:
                return 404, 64, "error", None
            if bitrate in cat.bitrates_mbps and cat.available(index, self.engine.now):
                return 200, cat.chunk_bytes(bitrate), "chunk", None
            return 404, 64, "error", None
        return 404, 64, "error", None


class HlsClient:
    """Live player: one playlist fetch plus one chunk fetch per period.

    Rate selection follows the throughput estimate: pick the highest
    bitrate not exceeding the safety fraction of the estimate, moving
    down immediately and up only after a run of good chunks.  A fetch
    timeout drops the rate to the lowest tier and retries from a fresh
    playlist.  Stalls are computed against the playback schedule: chunk
    n+1 is due one chunk duration after chunk n started playing.
    """

    def __init__(self, name: str, transport, catalog: HlsCatalog, params,
                 start_us: int, chunks: int, engine: Engine, log: EventLog):
        self.name = name
        self.transport = transport
        self.catalog = catalog
        self.params = params
        self.start_us = start_us
        self.chunks = chunks
        self.engine = engine
        self.log = log
        self.done = False
        self.busy = False
        self.ewma_bps = 0.0
        self.good_streak = 0
        self.bitrate_idx = 0
        self.chunks_done = 0
        self.last_index = -1
        self._fetch_seq = 0
        self._fetch = None  # (fetch_id, kind, path, t_req, attempts, timeout_ev)
        self._play_start = None
        self._period = 0
        engine.schedule_at(start_us, self._tick)

    # -- request schedule ---------------------------------------------------

    def _tick(self) -> None:
        if self.done:
            return
        period = self._period
        self._period += 1
        self.engine.schedule_at(
            self.start_us + self._period * self.catalog.chunk_duration_us,
            self._tick)
        if self.busy:
            return
        self.busy = True
        self._chunk_slot = (self.start_us
                            + period * self.catalog.chunk_duration_us
                            + self.params.chunk_offset_us)
        self._start_fetch("playlist", self.catalog.playlist_path(), attempts=0)

    def _start_fetch(self, kind: str, path: str, attempts: int) -> None:
        self._fetch_seq += 1
        fetch_id = self._fetch_seq
        t = self.engine.now
        timeout_ev = self.engine.schedule(self.params.client_timeout_us,
                                          self._on_timeout, fetch_id)
        self._fetch = (fetch_id, kind, path, t, attempts, timeout_ev)
        self.log.append(t, self.name, "http_req", kind=kind, path=path,
                        attempt=attempts)
        self.transport.fetch(self, fetch_id, self.catalog.host, path)

    # -- transport callbacks --------------------------------------------------

    def on_response(self, fetch_id: int, status: int, size: int, meta) -> None:
        if self._fetch is None or self._fetch[0] != fetch_id:
            return
        _, kind, path, t_req, attempts, timeout_ev = self._fetch
        self.engine.cancel(timeout_ev)
        self._fetch = None
        t = self.engine.now
        elapsed = t - t_req
        self.log.append(t, self.name, "http_resp", kind=kind, path=path,
                        status=status, size=size, elapsed_us=elapsed)
        if kind == "playlist":
            self._after_playlist(status, meta)
        else:
            self._after_chunk(status, size, elapsed, path)

    def _after_playlist(self, status: int, edge) -> None:
        if status != 200 or edge is None or edge <= self.last_index:
            self.busy = False
            return
        at = max(self._chunk_slot, self.engine.now)
        self.engine.schedule_at(at, self._fetch_chunk, edge)

    def _fetch_chunk(self, index: int) -> None:
        bitrate = self.catalog.bitrates_mbps[self.bitrate_idx]
        self.last_index = index
        self._start_fetch("chunk", self.catalog.chunk_path(bitrate, index),
                          attempts=0)

    def _after_chunk(self, status: int, size: int, elapsed_us: int,
                     path: str) -> None:
        if status != 200:
            self.busy = False
            return
        sample_bps = size * 8 * 1_000_000 / max(1, elapsed_us)
        w = self.params.ewma_weight
        self.ewma_bps = sample_bps if self.ewma_bps == 0.0 else (
            (1 - w) * self.ewma_bps + w * sample_bps)
        self.good_streak += 1
        self._record_arrival(self.engine.now)
        self.chunks_done += 1
        self.log.append(self.engine.now, self.name, "chunk_done", path=path,
                        size=size, ewma_bps=round(self.ewma_bps),
                        n=self.chunks_done)
        self._maybe_upshift()
        if self.chunks_done >= self.chunks:
            self.done = True
        self.busy = False

    def _on_timeout(self, fetch_id: int) -> None:
        if self._fetch is None or self._fetch[0] != fetch_id:
            return
        _, kind, path, t_req, attempts, _ = self._fetch
        self._fetch = None
        t = self.engine.now
        self.log.append(t, self.name, "http_timeout", kind=kind, path=path,
                        attempt=attempts)
        self.transport.cancel(self, fetch_id, self.catalog.host, path)
        # a timeout is a throughput collapse: fall to the lowest tier now
        if self.bitrate_idx != 0:
            self._switch_bitrate(0)
        self.good_streak = 0
        self.ewma_bps = 0.0
        if attempts + 1 >= self.params.max_attempts_per_fetch:
            self.log.append(t, self.name, "fetch_abandoned", kind=kind, path=path)
            self.busy = False
            return
        # retry from a fresh playlist so the fetch lands on the live edge
        self._chunk_slot = self.engine.now
        self._start_fetch("playlist", self.catalog.playlist_path(),
                          attempts=attempts + 1)

    # -- rate selection --------------------------------------------------------

    def _candidate_idx(self) -> int:
        limit = self.params.abr_safety * self.ewma_bps
        best = 0
        for i, rate in enumerate(self.catalog.bitrates_mbps):
            if rate * 1_000_000 <= limit:
                best = i
        return best

    def _maybe_upshift(self) -> None:
        cand = self._candidate_idx()
        if cand > self.bitrate_idx and self.good_streak >= self.params.abr_upshift_chunks:
            self._switch_bitrate(cand)
        elif cand < self.bitrate_idx:
            self._switch_bitrate(cand)

    def _switch_bitrate(self, idx: int) -> None:
        old = self.catalog.bitrates_mbps[self.bitrate_idx]
        new = self.catalog.bitrates_mbps[idx]
        direction = "up" if idx > self.bitrate_idx else "down"
        self.bitrate_idx = idx
        self.log.append(self.engine.now, self.name, "bitrate_switch",
                        direction=direction, from_mbps=old, to_mbps=new)

    # -- playback bookkeeping ----------------------------------------------------

    def _record_arrival(self, t: int) -> None:
        if self._play_start is None:
            self._play_start = t + self.params.startup_hold_us
            return
        due = self._play_start + self.catalog.chunk_duration_us
        if t > due:
            stall = t - due
            self.log.append(t, self.name, "stall", start=due, dur_us=stall)
        self._play_start = max(due, t)


def packet_interval_us(pkt_bytes: int, bitrate_mbps: int) -> int:
    """Whole microseconds between the packets of a constant-rate stream
    (bits / (Mb/s) = us, rounded down); 0 when the rate needs more than
    one packet per microsecond."""
    return pkt_bytes * 8 // bitrate_mbps


class IptvSource:
    """Constant-rate stream: one maximum-size packet per interval."""

    def __init__(self, channel: str, sender, bitrate_mbps: int, pkt_bytes: int,
                 start_us: int, stop_us: int, engine: Engine):
        self.channel = channel
        self.sender = sender
        self.pkt_bytes = pkt_bytes
        self.interval_us = packet_interval_us(pkt_bytes, bitrate_mbps)
        self.stop_us = stop_us
        self.engine = engine
        engine.schedule_at(start_us, self._emit)

    def _emit(self) -> None:
        if self.engine.now >= self.stop_us:
            return
        self.sender.send_stream(self.channel, self.pkt_bytes)
        self.engine.schedule(self.interval_us, self._emit)


class Stb:
    """Set-top box: joins a channel, re-announces membership periodically,
    and can zap; measures how long each switch takes to show video."""

    def __init__(self, name: str, adapter, channel: str, join_us: int,
                 active_until_us: int, params, engine: Engine, log: EventLog):
        self.name = name
        self.adapter = adapter
        self.channel = channel
        self.active_until_us = active_until_us
        self.params = params
        self.engine = engine
        self.log = log
        self._awaiting_since = None
        engine.schedule_at(join_us, self._join)

    def _join(self) -> None:
        t = self.engine.now
        self.log.append(t, self.name, "stb_active", until=self.active_until_us)
        self._awaiting_since = t
        self.adapter.act(self, "join", self.channel)
        self.engine.schedule(self.params.igmp_query_us, self._refresh)

    def _refresh(self) -> None:
        if self.engine.now >= self.active_until_us:
            return
        self.adapter.act(self, "join", self.channel)
        self.engine.schedule(self.params.igmp_query_us, self._refresh)

    def zap(self, channel: str) -> None:
        t = self.engine.now
        self.log.append(t, self.name, "zap", from_channel=self.channel,
                        to_channel=channel)
        self.adapter.act(self, "leave", self.channel)
        self.channel = channel
        self._awaiting_since = t
        self.adapter.act(self, "join", channel)

    def on_stream_packet(self, name: str, t_arrive: int, size: int) -> None:
        self.log.write("stb_rx", t_arrive, self.name, name, size)
        if self._awaiting_since is not None:
            self.log.append(t_arrive, self.name, "acquisition",
                            channel=self.channel,
                            dur_us=t_arrive - self._awaiting_since)
            self._awaiting_since = None


class SurrogateAgent:
    """Operator hook that introduces or withdraws a surrogate server.

    Over the ICN plane this toggles the publisher registration of the
    server's gateway; the IP plane needs no action because the DNS record
    carries every server address for the whole run.
    """

    def __init__(self, server: HlsServer, pce, scope: str,
                 engine: Engine, log: EventLog, params, registered: bool):
        self.server = server
        self.pce = pce
        self.scope = scope
        self.engine = engine
        self.log = log
        self.params = params
        self.registered = registered
        if pce is not None and registered:
            pce.register_publisher(scope, server.nap)

    def toggle(self, on: bool) -> None:
        self.log.append(self.engine.now, self.server.name, "surrogate_toggle",
                        on=on)
        if self.pce is None or on == self.registered:
            return
        self.registered = on
        if on:
            self.engine.schedule(self.params.control_latency_us,
                                 self.pce.register_publisher, self.scope,
                                 self.server.nap)
        else:
            self.engine.schedule(self.params.control_latency_us,
                                 self.pce.unregister_publisher, self.scope,
                                 self.server.nap)
