"""Scenario harness: validate a config, build a world, run it, compare runs.

A scenario file fully specifies topology, workload and scripted events;
the same file runs over either data plane ("icn" or "ip").  The merged
effective config is hashed so two runs are only ever compared when they
simulated exactly the same scenario.
"""

from __future__ import annotations

import copy
import hashlib
import json
import os

from . import telemetry
from .apps import (HlsCatalog, HlsClient, HlsClientParams, HlsServer,
                   IptvSource, Stb, SurrogateAgent, packet_interval_us)
from .fabric import Fabric, FabricParams, FidNode, trace_delivery
from .fid import FidConfig, assign_link_ids
from .ip_baseline import (DnsDirectory, IpEndpointParams, IpHttpTransport,
                          IpIgmpAdapter, IpServerEndpoint, IpStreamSender,
                          IpSwitch, StpController)
from .nap import (IcnHttpTransport, IcnIgmpAdapter, IcnStreamSender, Nap,
                  NapParams, channel_name, http_scope)
from .pce import Pce, PceParams
from .simkernel import Engine, US_PER_MS
from .telemetry import (EventLog, RunArtifacts, Telemetry, canonical_json,
                        conservation_from_events)
from .topology import ROLE_FN, ROLE_NAP, TopologyGraph

MODES = ("icn", "ip")

EVENT_KINDS = ("link_down", "link_up", "server_down", "server_up",
               "surrogate_on", "surrogate_off", "zap")

DEFAULT_FID = {"m": 256, "k": 5, "mode": "exact"}

DEFAULT_PARAMS = {
    "seed": 1,
    "mtu": 1400,
    "ttl": 64,
    "queue_cap_bytes": None,
    "coalesce_window_ms": 100,
    "client_timeout_ms": 4000,
    "detection_delay_ms": 10,
    "pce_processing_ms": 5,
    "control_latency_ms": 1,
    "access_latency_ms": 1,
    "server_latency_ms": 2,
    "stp_reconvergence_ms": 30000,
    "igmp_query_ms": 5000,
    "dns_attempts_per_address": 2,
    "abr_safety": 0.8,
    "abr_upshift_chunks": 3,
    "ewma_weight": 0.5,
    "startup_hold_ms": 750,
    "chunk_offset_ms": 500,
    "request_bytes": 400,
    "playlist_bytes": 500,
    "igmp_bytes": 64,
    "max_attempts_per_fetch": 6,
}

HLS_DEFAULTS = {"path_prefix": "/live", "chunk_duration_ms": 2000,
                "bitrates_mbps": [2, 8], "playlist_window": 5}


def _is_num(v, types=int) -> bool:
    """v is a config value of types (int, or int and float); JSON true and
    false are bools, never numbers."""
    return isinstance(v, types) and not isinstance(v, bool)


class ConfigError(ValueError):
    """Invalid scenario configuration; carries every problem found."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


# ---------------------------------------------------------------------------
# scenario loading and validation

_SCENARIOS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                          "scenarios")


def list_scenarios() -> list:
    """Names of the scenario files shipped inside the package."""
    return sorted(name[:-5] for name in os.listdir(_SCENARIOS)
                  if name.endswith(".json"))


def load_scenario(ref: str) -> dict:
    """Load a scenario by shipped name or by file path.

    A ref without a path separator or .json suffix is always a shipped
    name; resolution never depends on the working directory.
    """
    if not ref.endswith(".json") and os.sep not in ref:
        path = os.path.join(_SCENARIOS, f"{ref}.json")
        if not os.path.isfile(path):
            raise ConfigError(
                [f"unknown scenario {ref!r}; shipped: {', '.join(list_scenarios())}"])
        ref = path
    try:
        with open(ref) as fh:
            return json.load(fh)
    except (FileNotFoundError, IsADirectoryError):
        raise ConfigError([f"scenario file not found: {ref}"]) from None
    except OSError as exc:
        raise ConfigError(
            [f"cannot read scenario file {ref}: {exc.strerror}"]) from None
    except ValueError as exc:  # not JSON, or not even text
        raise ConfigError([f"scenario file is not valid JSON: {exc}"]) from None


def _part(parent: dict, key: str, where: str, errors: list, kind=dict):
    """parent[key] when it is a kind (dict or list), an empty one when it
    is absent or null; any other value is one more error."""
    value = parent.get(key)
    if value is not None and not isinstance(value, kind):
        errors.append(f"{where}: must be an object" if kind is dict
                      else f"{where}: must be a list")
        value = None
    return kind() if value is None else value


def _entries(parent: dict, key: str, where: str, errors: list) -> list:
    """The (index, object) pairs of the list parent[key]; each item that
    is not an object is one more error."""
    items = list(enumerate(_part(parent, key, where, errors, list)))
    errors += [f"{where}[{i}]: must be an object" for i, item in items
               if not isinstance(item, dict)]
    return [(i, item) for i, item in items if isinstance(item, dict)]


def _is_name(v) -> bool:
    return isinstance(v, str) and v != ""


def _known(v, names) -> bool:
    """v is a str in names; a list, say, cannot even be looked up."""
    return isinstance(v, str) and v in names


def validate_config(raw: dict) -> dict:
    """Merge defaults and check everything; raises ConfigError listing
    every problem rather than stopping at the first."""
    if not isinstance(raw, dict):
        raise ConfigError(["scenario: must be a JSON object"])
    errors = []
    cfg = copy.deepcopy(raw)

    if not _is_name(cfg.get("name")):
        errors.append("name: required non-empty string")
    duration = cfg.get("duration_ms")
    if not _is_num(duration) or duration <= 0:
        errors.append("duration_ms: required positive integer")
        duration = 1

    params = dict(DEFAULT_PARAMS)
    for key, value in _part(cfg, "params", "params", errors).items():
        if key not in DEFAULT_PARAMS:
            errors.append(f"params.{key}: unknown parameter")
            continue
        params[key] = value
    _check_params(params, errors)
    cfg["params"] = params

    fid = dict(DEFAULT_FID)
    fid.update(_part(cfg, "fid", "fid", errors))
    cfg["fid"] = fid

    nodes, links = _check_topology(cfg, errors)
    m, k = fid.get("m"), fid.get("k")
    if not _is_num(m) or m < 1:
        errors.append("fid.m: positive integer required")
    elif fid.get("mode") == "exact":
        if 2 * len(links) > m:
            errors.append(
                f"fid.m: {m} bits cannot give unique identifiers to "
                f"{2 * len(links)} directed links")
    elif fid.get("mode") == "bloom":
        if not (_is_num(k) and 1 <= k < m):
            errors.append("fid.k: bloom mode requires an integer 1 <= k < m")
    if fid.get("mode") not in ("exact", "bloom"):
        errors.append(f"fid.mode: must be 'exact' or 'bloom', got {fid.get('mode')!r}")

    events = _entries(cfg, "events", "events", errors)
    cfg["events"] = [ev for _, ev in events]
    cfg["apps"] = _part(cfg, "apps", "apps", errors)
    server_names, stb_names, channel_names = _check_apps(
        cfg, nodes, duration, errors)

    for i, ev in events:
        where = f"events[{i}]"
        kind = ev.get("kind")
        if kind not in EVENT_KINDS:
            errors.append(f"{where}.kind: unknown kind {kind!r}")
            continue
        at = ev.get("at_ms")
        if not _is_num(at) or not 0 < at < duration:
            errors.append(f"{where}.at_ms: must lie inside (0, duration_ms)")
        if kind in ("link_down", "link_up") and not _known(ev.get("link"), links):
            errors.append(f"{where}.link: unknown link {ev.get('link')!r}")
        if kind in ("server_down", "server_up", "surrogate_on",
                    "surrogate_off") and not _known(ev.get("server"),
                                                    server_names):
            errors.append(f"{where}.server: unknown server {ev.get('server')!r}")
        if kind == "zap":
            if not _known(ev.get("stb"), stb_names):
                errors.append(f"{where}.stb: unknown set-top box {ev.get('stb')!r}")
            if not _known(ev.get("channel"), channel_names):
                errors.append(f"{where}.channel: unknown channel {ev.get('channel')!r}")

    if errors:
        raise ConfigError(errors)
    return cfg


def _check_params(params: dict, errors: list) -> None:
    non_negative = ("coalesce_window_ms", "detection_delay_ms",
                    "pce_processing_ms", "control_latency_ms",
                    "access_latency_ms", "server_latency_ms",
                    "stp_reconvergence_ms", "chunk_offset_ms",
                    "startup_hold_ms")
    positive = ("mtu", "ttl", "client_timeout_ms", "igmp_query_ms",
                "dns_attempts_per_address", "abr_upshift_chunks",
                "request_bytes", "playlist_bytes", "igmp_bytes",
                "max_attempts_per_fetch")
    for key in non_negative:
        if not _is_num(params[key]) or params[key] < 0:
            errors.append(f"params.{key}: must be a non-negative integer")
    for key in positive:
        if not _is_num(params[key]) or params[key] <= 0:
            errors.append(f"params.{key}: must be a positive integer")
    for key in ("abr_safety", "ewma_weight"):
        v = params[key]
        if not _is_num(v, (int, float)) or not 0 < v <= 1:
            errors.append(f"params.{key}: must lie in (0, 1]")
    cap = params["queue_cap_bytes"]
    if cap is not None and (not _is_num(cap) or cap <= 0):
        errors.append("params.queue_cap_bytes: must be null or a positive integer")
    if not _is_num(params["seed"]):
        errors.append("params.seed: must be an integer")


def _check_topology(cfg: dict, errors: list):
    topo_cfg = _part(cfg, "topology", "topology", errors)
    nodes = {}
    for i, n in _entries(topo_cfg, "nodes", "topology.nodes", errors):
        nname, role = n.get("name"), n.get("role")
        if not _is_name(nname):
            errors.append(f"topology.nodes[{i}]: missing name")
            continue
        if nname in nodes:
            errors.append(f"topology.nodes[{i}]: duplicate node {nname!r}")
        if role not in (ROLE_FN, ROLE_NAP):
            errors.append(f"topology.nodes[{i}]: role must be 'fn' or 'nap' "
                          f"(the control element is implicit), got {role!r}")
        nodes[nname] = role
    if not nodes:
        errors.append("topology.nodes: at least one node required")
    links = {}
    linked = set()
    for i, l in _entries(topo_cfg, "links", "topology.links", errors):
        lname = l.get("name")
        if not _is_name(lname):
            errors.append(f"topology.links[{i}]: missing name")
            continue
        if lname in links:
            errors.append(f"topology.links[{i}]: duplicate link {lname!r}")
        a, b = l.get("a"), l.get("b")
        if not (_known(a, nodes) and _known(b, nodes)):
            errors.append(f"topology.links[{i}]: endpoints must be known nodes")
        elif a == b:
            errors.append(f"topology.links[{i}]: self-loop on {a!r}")
        else:
            linked.add(a)
            linked.add(b)
        cap = l.get("capacity_mbps")
        if not _is_num(cap, (int, float)) or cap <= 0:
            errors.append(f"topology.links[{i}]: capacity_mbps must be positive")
        lat = l.get("latency_us")
        if not _is_num(lat) or lat < 0:
            errors.append(f"topology.links[{i}]: latency_us must be a "
                          "non-negative integer")
        links[lname] = l
    for nname in nodes:
        if nname not in linked and links:
            errors.append(f"topology: node {nname!r} has no links")
    return nodes, links


def _check_apps(cfg: dict, nodes: dict, duration: int, errors: list):
    apps = cfg["apps"]
    naps = {name for name, role in nodes.items() if role == ROLE_NAP}
    server_names, stb_names, channel_names = set(), set(), set()
    hls = apps.get("hls")
    if hls is not None and not isinstance(hls, dict):
        errors.append("apps.hls: must be an object")
    elif hls is not None:
        merged = dict(HLS_DEFAULTS)
        merged.update(hls)
        apps["hls"] = hls = merged
        if not _is_name(hls.get("host")):
            errors.append("apps.hls.host: required")
        rates = hls.get("bitrates_mbps")
        if (not isinstance(rates, list) or not rates
                or any(not _is_num(r) or r <= 0 for r in rates)
                or sorted(set(rates)) != rates):
            errors.append("apps.hls.bitrates_mbps: strictly increasing "
                          "positive integers required")
        if not _is_num(hls.get("chunk_duration_ms")) or hls["chunk_duration_ms"] <= 0:
            errors.append("apps.hls.chunk_duration_ms: positive integer required")
        if not _is_num(hls.get("playlist_window")) or hls["playlist_window"] <= 0:
            errors.append("apps.hls.playlist_window: positive integer required")
        servers = _entries(hls, "servers", "apps.hls.servers", errors)
        if not hls.get("servers"):
            errors.append("apps.hls.servers: at least one server required")
        for i, s in servers:
            if not _is_name(s.get("name")):
                errors.append(f"apps.hls.servers[{i}]: missing name")
            elif s["name"] in server_names:
                errors.append(f"apps.hls.servers[{i}]: duplicate name {s['name']!r}")
            else:
                server_names.add(s["name"])
            if not _known(s.get("nap"), naps):
                errors.append(f"apps.hls.servers[{i}].nap: must be a nap node")
            s.setdefault("registered", True)
        registered = any(s.get("registered") for _, s in servers)
        turns_on = any(e.get("kind") == "surrogate_on" for e in cfg["events"])
        if servers and not registered and not turns_on:
            errors.append("apps.hls.servers: no server starts registered and "
                          "no surrogate_on event ever registers one")
        for i, c in _entries(hls, "clients", "apps.hls.clients", errors):
            if not _is_name(c.get("name")):
                errors.append(f"apps.hls.clients[{i}]: missing name")
            if not _known(c.get("nap"), naps):
                errors.append(f"apps.hls.clients[{i}].nap: must be a nap node")
            if not _is_num(c.get("start_ms")) or not 0 <= c["start_ms"] < duration:
                errors.append(f"apps.hls.clients[{i}].start_ms: must lie in "
                              "[0, duration_ms)")
            if not _is_num(c.get("chunks")) or c["chunks"] < 1:
                errors.append(f"apps.hls.clients[{i}].chunks: positive integer required")
    iptv = apps.get("iptv")
    if iptv is not None and not isinstance(iptv, dict):
        errors.append("apps.iptv: must be an object")
    elif iptv is not None:
        mtu = cfg["params"]["mtu"]
        channels = _entries(iptv, "channels", "apps.iptv.channels", errors)
        if not iptv.get("channels"):
            errors.append("apps.iptv.channels: at least one channel required")
        for i, ch in channels:
            if not _is_name(ch.get("name")):
                errors.append(f"apps.iptv.channels[{i}]: missing name")
            elif ch["name"] in channel_names:
                errors.append(f"apps.iptv.channels[{i}]: duplicate name {ch['name']!r}")
            else:
                channel_names.add(ch["name"])
            if not _known(ch.get("nap"), naps):
                errors.append(f"apps.iptv.channels[{i}].nap: must be a nap node")
            rate = ch.get("bitrate_mbps")
            if not _is_num(rate) or rate <= 0:
                errors.append(f"apps.iptv.channels[{i}].bitrate_mbps: positive "
                              "integer required")
            elif (_is_num(mtu) and mtu > 0
                  and packet_interval_us(mtu, rate) < 1):
                errors.append(f"apps.iptv.channels[{i}].bitrate_mbps: at most "
                              f"{8 * mtu} (8 * params.mtu), so that packets "
                              "are at least 1 us apart")
            start, stop = ch.get("start_ms"), ch.get("stop_ms")
            if (not _is_num(start) or not _is_num(stop)
                    or not 0 <= start < stop <= duration):
                errors.append(f"apps.iptv.channels[{i}]: need "
                              "0 <= start_ms < stop_ms <= duration_ms")
        for i, s in _entries(iptv, "stbs", "apps.iptv.stbs", errors):
            if not _is_name(s.get("name")):
                errors.append(f"apps.iptv.stbs[{i}]: missing name")
            elif s["name"] in stb_names:
                errors.append(f"apps.iptv.stbs[{i}]: duplicate name {s['name']!r}")
            else:
                stb_names.add(s["name"])
            if not _known(s.get("nap"), naps):
                errors.append(f"apps.iptv.stbs[{i}].nap: must be a nap node")
            if not _known(s.get("channel"), channel_names):
                errors.append(f"apps.iptv.stbs[{i}].channel: unknown channel "
                              f"{s.get('channel')!r}")
            if not _is_num(s.get("join_ms")) or not 0 <= s["join_ms"] < duration:
                errors.append(f"apps.iptv.stbs[{i}].join_ms: must lie in "
                              "[0, duration_ms)")
            if "active_until_ms" in s:
                if not _is_num(s["active_until_ms"]) or s["active_until_ms"] < 0:
                    errors.append(f"apps.iptv.stbs[{i}].active_until_ms: "
                                  "non-negative integer required")
            elif _known(s.get("channel"), channel_names):
                stops = {c["name"]: c.get("stop_ms") for _, c in channels
                         if _is_name(c.get("name"))}
                s["active_until_ms"] = stops.get(s["channel"], duration)
    return server_names, stb_names, channel_names


def config_hash(effective: dict) -> str:
    return hashlib.sha256(canonical_json(effective).encode()).hexdigest()


# ---------------------------------------------------------------------------
# world building

def _build_topology(cfg: dict) -> TopologyGraph:
    topo = TopologyGraph()
    for n in cfg["topology"]["nodes"]:
        topo.add_node(n["name"], n["role"])
    for l in cfg["topology"]["links"]:
        topo.add_link(l["name"], l["a"], l["b"],
                      int(l["capacity_mbps"] * 1_000_000), l["latency_us"])
    return topo


class World:
    """Everything built for one run; kept for tests and invariants."""

    def __init__(self):
        self.engine = None
        self.log = None
        self.telemetry = None
        self.topo = None
        self.fabric = None
        self.pce = None
        self.link_ids = None
        self.naps = {}
        self.fid_nodes = {}
        self.stp = None
        self.switches = {}
        self.dns = None
        self.servers = {}
        self.agents = {}
        self.clients = {}
        self.stbs = {}
        self.sources = {}


def build_world(effective: dict, mode: str, seed: int,
                telemetry_enabled: bool = True) -> World:
    params = effective["params"]
    w = World()
    w.engine = Engine()
    w.log = EventLog()
    w.telemetry = Telemetry(telemetry_enabled)
    w.topo = _build_topology(effective)
    w.fabric = Fabric(w.engine, w.topo, w.log, w.telemetry, FabricParams(
        detection_delay_us=params["detection_delay_ms"] * US_PER_MS,
        queue_cap_bytes=params["queue_cap_bytes"],
        default_ttl=params["ttl"]))
    if mode == "icn":
        _wire_icn(w, effective, seed)
    else:
        _wire_ip(w, effective)
    _wire_apps(w, effective, mode)
    _schedule_events(w, effective, mode)
    return w


def _wire_icn(w: World, effective: dict, seed: int) -> None:
    params = effective["params"]
    fid_cfg = FidConfig(effective["fid"]["m"], effective["fid"]["k"],
                        effective["fid"]["mode"])
    w.link_ids = assign_link_ids(w.topo, fid_cfg, seed)
    w.pce = Pce(w.engine, w.topo, w.link_ids, fid_cfg, w.log, PceParams(
        control_latency_us=params["control_latency_ms"] * US_PER_MS,
        processing_delay_us=params["pce_processing_ms"] * US_PER_MS))
    w.fabric.add_topology_listener(w.pce.on_topology_event)
    nap_params = NapParams(
        coalesce_window_us=params["coalesce_window_ms"] * US_PER_MS,
        access_latency_us=params["access_latency_ms"] * US_PER_MS,
        control_latency_us=params["control_latency_ms"] * US_PER_MS,
        mtu=params["mtu"])
    for node in w.topo.node_list():
        if node.role == ROLE_NAP:
            nap = Nap(node.name, w.engine, w.fabric, w.pce, w.log, nap_params)
            w.naps[node.name] = nap
            w.pce.attach_nap(nap)
            handler = FidNode(node.name, w.topo.egress(node.name), w.link_ids,
                              sink=nap.demux)
        else:
            handler = FidNode(node.name, w.topo.egress(node.name), w.link_ids)
        w.fid_nodes[node.name] = handler
        w.fabric.add_handler(node.name, handler)


def _wire_ip(w: World, effective: dict) -> None:
    params = effective["params"]
    w.stp = StpController(
        w.engine, w.topo, w.log,
        reconvergence_us=params["stp_reconvergence_ms"] * US_PER_MS)
    w.fabric.add_topology_listener(w.stp.on_topology_event)
    for node in w.topo.node_list():
        sw = IpSwitch(node.name, w.engine, w.topo, w.stp, w.log,
                      access_latency_us=params["access_latency_ms"] * US_PER_MS)
        w.switches[node.name] = sw
        w.fabric.add_handler(node.name, sw)
    w.dns = DnsDirectory()


def _endpoint_params(params: dict) -> IpEndpointParams:
    return IpEndpointParams(
        access_latency_us=params["access_latency_ms"] * US_PER_MS,
        mtu=params["mtu"],
        request_bytes=params["request_bytes"],
        igmp_bytes=params["igmp_bytes"],
        attempts_per_address=params["dns_attempts_per_address"])


def _wire_apps(w: World, effective: dict, mode: str) -> None:
    params = effective["params"]
    ep_params = _endpoint_params(params)
    ctrl_us = params["control_latency_ms"] * US_PER_MS
    reply_delay_us = (params["server_latency_ms"]
                      + params["access_latency_ms"]) * US_PER_MS

    hls = effective["apps"].get("hls")
    if hls:
        catalog = HlsCatalog(
            host=hls["host"], path_prefix=hls["path_prefix"],
            chunk_duration_us=hls["chunk_duration_ms"] * US_PER_MS,
            bitrates_mbps=tuple(hls["bitrates_mbps"]),
            playlist_window=hls["playlist_window"],
            playlist_bytes=params["playlist_bytes"])
        scope = http_scope(hls["host"])
        for s in hls["servers"]:
            server = HlsServer(s["name"], s["nap"], catalog, w.engine, w.log,
                               reply_delay_us=reply_delay_us)
            w.servers[s["name"]] = server
            if mode == "icn":
                w.naps[s["nap"]].attach_server(hls["host"], server)
                agent = SurrogateAgent(server, w.pce, scope, w.engine, w.log,
                                       ctrl_us, registered=s["registered"])
            else:
                endpoint = IpServerEndpoint(server, s["name"], s["nap"],
                                            w.fabric, w.engine, ep_params)
                w.switches[s["nap"]].attach_host(s["name"], endpoint)
                agent = SurrogateAgent(server, None, scope, w.engine, w.log,
                                       ctrl_us, registered=s["registered"])
            w.agents[s["name"]] = agent
        if mode == "ip":
            w.dns.add(hls["host"], [s["name"] for s in hls["servers"]])
        for c in hls.get("clients") or []:
            cp = HlsClientParams(
                start_us=c["start_ms"] * US_PER_MS,
                chunks=c["chunks"],
                timeout_us=params["client_timeout_ms"] * US_PER_MS,
                abr_safety=params["abr_safety"],
                abr_upshift_chunks=params["abr_upshift_chunks"],
                ewma_weight=params["ewma_weight"],
                startup_hold_us=params["startup_hold_ms"] * US_PER_MS,
                chunk_offset_us=params["chunk_offset_ms"] * US_PER_MS,
                max_attempts=params["max_attempts_per_fetch"])
            if mode == "icn":
                transport = IcnHttpTransport(w.engine, w.naps[c["nap"]])
            else:
                transport = IpHttpTransport(c["name"], c["nap"], w.fabric,
                                            w.dns, w.engine, w.log, ep_params)
                w.switches[c["nap"]].attach_host(c["name"], transport)
            w.clients[c["name"]] = HlsClient(c["name"], transport, catalog,
                                             cp, w.engine, w.log)

    iptv = effective["apps"].get("iptv")
    if iptv:
        for ch in iptv["channels"]:
            if mode == "icn":
                sender = IcnStreamSender(w.naps[ch["nap"]])
                w.pce.register_publisher(channel_name(ch["name"]), ch["nap"])
            else:
                sender = IpStreamSender(f"{ch['name']}_src", ch["nap"], w.fabric)
            w.sources[ch["name"]] = IptvSource(
                ch["name"], sender, ch["bitrate_mbps"], params["mtu"],
                ch["start_ms"] * US_PER_MS, ch["stop_ms"] * US_PER_MS, w.engine)
        for s in iptv.get("stbs") or []:
            if mode == "icn":
                adapter = IcnIgmpAdapter(w.engine, w.naps[s["nap"]])
            else:
                adapter = IpIgmpAdapter(s["nap"], w.fabric, w.engine, ep_params)
            stb = Stb(s["name"], adapter, s["channel"],
                      s["join_ms"] * US_PER_MS,
                      s["active_until_ms"] * US_PER_MS,
                      params["igmp_query_ms"] * US_PER_MS, w.engine, w.log)
            w.stbs[s["name"]] = stb
            if mode == "ip":
                w.switches[s["nap"]].attach_host(s["name"], stb)


def _schedule_events(w: World, effective: dict, mode: str) -> None:
    link_events = []
    for ev in effective["events"]:
        at = ev["at_ms"] * US_PER_MS
        kind = ev["kind"]
        if kind == "link_down":
            w.engine.schedule_at(at, w.fabric.set_link_state, ev["link"], False)
            link_events.append(at)
        elif kind == "link_up":
            w.engine.schedule_at(at, w.fabric.set_link_state, ev["link"], True)
            link_events.append(at)
        elif kind == "server_down":
            w.engine.schedule_at(at, w.servers[ev["server"]].set_up, False)
        elif kind == "server_up":
            w.engine.schedule_at(at, w.servers[ev["server"]].set_up, True)
        elif kind == "surrogate_on":
            w.engine.schedule_at(at, w.agents[ev["server"]].toggle, True)
        elif kind == "surrogate_off":
            w.engine.schedule_at(at, w.agents[ev["server"]].toggle, False)
        elif kind == "zap":
            w.engine.schedule_at(at, w.stbs[ev["stb"]].zap, ev["channel"])
    if mode == "icn" and link_events:
        _schedule_digest_probes(w, effective, link_events)


def _schedule_digest_probes(w: World, effective: dict, times_us: list) -> None:
    """Log routing-state digests of every element just before each link
    event and again once the control plane has settled."""
    params = effective["params"]
    settle_us = (params["detection_delay_ms"] + params["pce_processing_ms"]
                 + 2 * params["control_latency_ms"] + 2) * US_PER_MS

    def probe(tag: str) -> None:
        t = w.engine.now
        w.log.append(t, w.pce.name, "digest", tag=tag,
                     value=w.pce.routing_digest())
        for name in sorted(w.fid_nodes):
            element = w.naps.get(name) or w.fid_nodes[name]
            w.log.append(t, name, "digest", tag=tag,
                         value=element.routing_digest())

    for i, t in enumerate(sorted(times_us)):
        w.engine.schedule_at(max(0, t - US_PER_MS), probe, f"before_{i}")
        w.engine.schedule_at(t + settle_us, probe, f"after_{i}")


# ---------------------------------------------------------------------------
# running

def run_scenario(config: dict, mode: str, seed: int = None,
                 telemetry_enabled: bool = True,
                 out: str | None = None) -> RunArtifacts:
    """Validate, build, run and check one scenario in one mode.  With
    `out`, the run's artifact directory is exported there (see
    telemetry.export)."""
    if mode not in MODES:
        raise ConfigError([f"mode: must be one of {MODES}, got {mode!r}"])
    effective = validate_config(config)
    params = effective["params"]
    if seed is None:
        seed = params["seed"]
    duration_us = effective["duration_ms"] * US_PER_MS

    w = build_world(effective, mode, seed, telemetry_enabled)
    w.log.append(0, "run", "begin", scenario=effective["name"], mode=mode,
                 seed=seed)
    executed = w.engine.run_until(duration_us)
    w.fabric.flush_counters()

    violations = _check_invariants(w, effective, mode)
    meta = {
        "scenario": effective["name"],
        "mode": mode,
        "seed": seed,
        "config_hash": config_hash(effective),
        "samples_hash": w.telemetry.hash(),
        "telemetry_enabled": telemetry_enabled,
        "engine_events": executed,
        "violations": violations,
    }
    artifacts = RunArtifacts(config=effective, mode=mode, seed=seed,
                             events=w.log, samples=w.telemetry.samples,
                             meta=meta)
    # one streamed pass encodes the log: it yields events_hash and, when
    # exporting, writes events.jsonl; the encoding is not kept.  export is
    # looked up on the module, so a wrapped telemetry.export is the one run
    if out is None:
        meta["events_hash"] = w.log.hash()
    else:
        telemetry.export(artifacts, out)
    _release(w)
    return artifacts


def _release(w: World) -> None:
    """Break a finished world's reference cycles, so reference counting
    frees it, and its log with the artifacts; the PCE's counters stay."""
    w.engine._heap.clear()
    w.fabric.handlers.clear()
    w.fabric.topology_listeners.clear()
    if w.pce is not None:
        w.pce.naps.clear()
    if w.stp is not None:
        w.stp.switches.clear()
    # a gateway or transport holds the clients and boxes it still serves
    for client in w.clients.values():
        client.transport = None
    for stb in w.stbs.values():
        stb.adapter = None


def _check_invariants(w: World, effective: dict, mode: str) -> list:
    """End-of-run checks; a violation fails the run (exit code 1)."""
    violations = []
    cons = conservation_from_events(w.log,
                                    effective["duration_ms"] * US_PER_MS)
    if not cons["balanced"]:
        violations.append(
            "byte conservation violated: injected=%d branch_extra=%d "
            "delivered=%d dropped=%d in_flight=%d undrained=%d" % (
                cons["injected_bytes"], cons["branch_extra_bytes"],
                cons["delivered_bytes"], cons["dropped_bytes"],
                cons["in_flight_bytes"], cons["undrained_bytes"]))
    if mode == "icn":
        # every issued stream tree must reach its receivers; a Bloom
        # identifier may also reach non-receivers, which the summary
        # counts as spurious deliveries, so only an exact one must not
        exact = effective["fid"]["mode"] == "exact"
        naps = {n.name for n in w.topo.node_list() if n.role == ROLE_NAP}
        for (name, snap), fid in w.pce._issued.items():
            receivers = set(w.pce._stream_receivers(name))
            trace = trace_delivery(w.topo, w.link_ids, fid, snap,
                                   ttl=effective["params"]["ttl"], sinks=naps)
            reached = {snap} | {w.topo.links[key].dst
                                for key in trace.links_used}
            missing = receivers - reached
            spurious = trace.sink_nodes - receivers - {snap}
            if missing:
                violations.append(
                    f"stream tree {name}: receivers unreachable via issued "
                    f"identifier: {sorted(missing)}")
            if spurious and exact:
                violations.append(
                    f"stream tree {name}: identifier reaches non-receivers: "
                    f"{sorted(spurious)}")
    return violations


# ---------------------------------------------------------------------------
# comparison

def compare_artifacts(a: RunArtifacts, b: RunArtifacts) -> dict:
    """Paired comparison of two runs of the same scenario and seed."""
    from .telemetry import summarize
    if a.meta["config_hash"] != b.meta["config_hash"]:
        raise ConfigError(
            ["refusing to compare runs of different configurations: "
             f"{a.meta['config_hash'][:12]} != {b.meta['config_hash'][:12]}"])
    if a.seed != b.seed:
        raise ConfigError(
            [f"refusing to compare runs with different seeds: {a.seed} != {b.seed}"])
    sa, sb = summarize(a), summarize(b)
    out = {
        "scenario": a.meta["scenario"],
        "config_hash": a.meta["config_hash"],
        "seed": a.seed,
        "modes": [a.mode, b.mode],
        "identical_modes": a.mode == b.mode,
        "links": {},
        "merge_ratios": {"a": sa["merge_ratios"], "b": sb["merge_ratios"]},
        "stalls": {"a": sa.get("stalls", {}), "b": sb.get("stalls", {})},
        "disruptions": {"a": sa.get("disruptions", {}),
                        "b": sb.get("disruptions", {})},
        "acquisitions": {"a": sa.get("acquisitions", []),
                         "b": sb.get("acquisitions", [])},
    }
    # both directions of a physical link, summed per side in one pass
    totals: dict[str, list[int]] = {}
    for side, summary in enumerate((sa, sb)):
        for key, n in summary["link_bytes"]["total"].items():
            totals.setdefault(key.split(":", 1)[0], [0, 0])[side] += n
    for phys in sorted(totals):
        ta, tb = totals[phys]
        out["links"][phys] = {"a_bytes": ta, "b_bytes": tb, "delta": tb - ta,
                              "ratio": (tb / ta) if ta else None}
    return out


def render_comparison(cmp: dict) -> str:
    lines = [f"scenario: {cmp['scenario']}",
             f"modes: {cmp['modes'][0]} (a) vs {cmp['modes'][1]} (b)",
             f"seed: {cmp['seed']}"]
    for phys, row in cmp["links"].items():
        ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
        lines.append(f"link {phys}: a={row['a_bytes']} b={row['b_bytes']} "
                     f"delta={row['delta']} ratio={ratio}")
    for side in ("a", "b"):
        for kind, row in cmp["merge_ratios"][side].items():
            ratio = "n/a" if row["ratio"] is None else f"{row['ratio']:.3f}"
            lines.append(f"merge[{side}] {kind}: tx={row['server_tx']} "
                         f"rx={row['client_rx']} ratio={ratio}")
        for client, row in sorted(cmp["stalls"][side].items()):
            lines.append(f"stalls[{side}] {client}: total_us={row['total_us']} "
                         f"events={row['events']}")
        for stb, ivs in sorted(cmp["disruptions"][side].items()):
            spans = ", ".join(str(iv["us"]) for iv in ivs) or "none"
            lines.append(f"disruptions[{side}] {stb}: {spans}")
    return "\n".join(lines) + "\n"
