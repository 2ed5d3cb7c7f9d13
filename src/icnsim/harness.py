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
import math
import os
import re
from collections import namedtuple

from . import telemetry
from .apps import (HlsCatalog, HlsClient, HlsServer, IptvSource, Stb,
                   SurrogateAgent, packet_interval_us)
from .fabric import Fabric, FidNode, trace_delivery
from .fid import FidConfig, assign_link_ids
from .ip_baseline import (DnsDirectory, IpHttpTransport, IpIgmpAdapter,
                          IpServerEndpoint, IpStreamSender, IpSwitch,
                          StpController)
from .nap import (IcnHttpTransport, IcnIgmpAdapter, IcnStreamSender, Nap,
                  channel_name, http_scope)
from .pce import Pce
from .simkernel import Engine, US_PER_MS
from .telemetry import (EventLog, RunArtifacts, Telemetry, canonical_json,
                        conservation_from_events)
from .topology import ROLE_FN, ROLE_NAP, TopologyGraph

MODES = ("icn", "ip")

# every scripted event kind: the fields that name what it acts on, with
# the namespace each of those names must be in, and the call it schedules
# on a built world, as (action, *args)
EVENTS = {
    "link_down": ({"link": "link"},
                  lambda w, ev: (w.fabric.set_link_state, ev["link"], False)),
    "link_up": ({"link": "link"},
                lambda w, ev: (w.fabric.set_link_state, ev["link"], True)),
    "server_down": ({"server": "server"},
                    lambda w, ev: (w.servers[ev["server"]].set_up, False)),
    "server_up": ({"server": "server"},
                  lambda w, ev: (w.servers[ev["server"]].set_up, True)),
    "surrogate_on": ({"server": "server"},
                     lambda w, ev: (w.agents[ev["server"]].toggle, True)),
    "surrogate_off": ({"server": "server"},
                      lambda w, ev: (w.agents[ev["server"]].toggle, False)),
    "zap": ({"stb": "set-top box", "channel": "channel"},
            lambda w, ev: (w.stbs[ev["stb"]].zap, ev["channel"])),
}

# the namespace each kind of named object's name is unique in: servers,
# HLS clients and set-top boxes are all hosts on some gateway
NAMESPACE = {"node": "node", "link": "link", "channel": "channel",
             "server": "host", "client": "host", "set-top box": "host"}

DEFAULT_FID = {"m": 256, "k": 5, "mode": "exact"}

# number rules (lo, hi, types, what): a number v of types with
# lo < v <= hi, which an error describes as "must <what>"
POSITIVE = (0, math.inf, int, "be a positive integer")
NON_NEGATIVE = (-1, math.inf, int, "be a non-negative integer")
FRACTION = (0, 1, (int, float), "lie in (0, 1]")

# every parameter, the seed first, with its default and its number rule
PARAMS = {
    "seed": (1, (-math.inf, math.inf, int, "be an integer")),
    "mtu": (1400, POSITIVE),
    "ttl": (64, POSITIVE),
    "queue_cap_bytes": (None, (0, math.inf, int,
                               "be null or a positive integer")),
    "coalesce_window_ms": (100, NON_NEGATIVE),
    "client_timeout_ms": (4000, POSITIVE),
    "detection_delay_ms": (10, NON_NEGATIVE),
    "pce_processing_ms": (5, NON_NEGATIVE),
    "control_latency_ms": (1, NON_NEGATIVE),
    "access_latency_ms": (1, NON_NEGATIVE),
    "server_latency_ms": (2, NON_NEGATIVE),
    "stp_reconvergence_ms": (30000, NON_NEGATIVE),
    "igmp_query_ms": (5000, POSITIVE),
    "dns_attempts_per_address": (2, POSITIVE),
    "abr_safety": (0.8, FRACTION),
    "abr_upshift_chunks": (3, POSITIVE),
    "ewma_weight": (0.5, FRACTION),
    "startup_hold_ms": (750, NON_NEGATIVE),
    "chunk_offset_ms": (500, NON_NEGATIVE),
    "request_bytes": (400, POSITIVE),
    "playlist_bytes": (500, POSITIVE),
    "igmp_bytes": (64, POSITIVE),
    "max_attempts_per_fetch": (6, POSITIVE),
}
DEFAULT_PARAMS = {key: default for key, (default, _) in PARAMS.items()}


class RunParams(namedtuple(
        "RunParams", [re.sub("_ms$", "_us", key) for key in PARAMS][1:])):
    """The parameters as every element of a run reads them: each one but
    the seed, which --seed may override, under its own name, except that a
    time in ms (*_ms) is held in us (*_us)."""

    __slots__ = ()


def run_params(params: dict) -> RunParams:
    """Validated params as a RunParams: the one place a parameter is
    converted."""
    return RunParams(*[params[key] * US_PER_MS if key.endswith("_ms")
                       else params[key] for key in PARAMS][1:])


HLS_DEFAULTS = {"path_prefix": "/live", "chunk_duration_ms": 2000,
                "bitrates_mbps": [2, 8], "playlist_window": 5}


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


# The rules below each check one value and report it as one more error,
# named by its place: `where` is the path of the object that holds it
# ("" for the scenario itself).

def _label(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


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
    """The (where[i], object) pairs of the list parent[key]; each item
    that is not an object is one more error."""
    items = [(f"{where}[{i}]", item) for i, item
             in enumerate(_part(parent, key, where, errors, list))]
    errors += [f"{at}: must be an object" for at, item in items
               if not isinstance(item, dict)]
    return [(at, item) for at, item in items if isinstance(item, dict)]


def _named(parent: dict, key: str, where: str, errors: list, ns: dict,
           noun: str, required: bool = False) -> list:
    """The objects of the list parent[key], as _entries gives them.  Each
    needs a name that is unique in its namespace (NAMESPACE[noun]); a
    named one joins it, and ns[noun] maps the name to the object."""
    items = _entries(parent, key, where, errors)
    if required and not items:
        errors.append(f"{where}: at least one {noun} required")
    space = NAMESPACE[noun]
    for at, item in items:
        if not _text(item, "name", at, errors):
            continue
        name = item["name"]
        if name in ns[space]:
            errors.append(f"{at}.name: duplicate {space} {name!r}")
        else:
            ns[space][name] = ns[noun][name] = item
    return items


def _text(obj: dict, key: str, where: str, errors: list,
          empty: bool = False) -> bool:
    """obj[key] is a str, and not "" unless empty is allowed."""
    value = obj.get(key)
    if isinstance(value, str) and (empty or value):
        return True
    errors.append(f"{_label(where, key)}: must be a "
                  f"{'string' if empty else 'non-empty string'}")
    return False


def _known(value, names) -> bool:
    """value is a str in names; a list, say, cannot even be looked up."""
    return isinstance(value, str) and value in names


def _ref(obj: dict, key: str, where: str, errors: list, names,
         noun: str) -> bool:
    """obj[key] is the name of one of names, of kind noun."""
    if _known(obj.get(key), names):
        return True
    errors.append(f"{_label(where, key)}: unknown {noun} {obj.get(key)!r}")
    return False


def _number(value, lo=0, hi=math.inf, types=int) -> bool:
    """value is a number of types with lo < value <= hi; JSON true and
    false are bools, never numbers, and infinity is in no range."""
    return (isinstance(value, types) and not isinstance(value, bool)
            and lo < value <= hi and value != math.inf)


def _check(obj: dict, key: str, where: str, errors: list, rule):
    """obj[key] when it keeps the number rule (lo, hi, types, what), else
    None."""
    lo, hi, types, what = rule
    if _number(obj.get(key), lo, hi, types):
        return obj[key]
    errors.append(f"{_label(where, key)}: must {what}")
    return None


def _starts(duration: int) -> tuple:
    """The number rule of a time at which something starts in the run."""
    return (-1, duration - 1, int, "lie in [0, duration_ms)")


def validate_config(raw: dict) -> dict:
    """Merge defaults and check everything; raises ConfigError listing
    every problem rather than stopping at the first."""
    if not isinstance(raw, dict):
        raise ConfigError(["scenario: must be a JSON object"])
    errors = []
    cfg = copy.deepcopy(raw)
    _text(cfg, "name", "", errors)
    duration = _check(cfg, "duration_ms", "", errors, POSITIVE) or 1

    params = dict(DEFAULT_PARAMS)
    for key, value in _part(cfg, "params", "params", errors).items():
        if key in PARAMS:
            params[key] = value
        else:
            errors.append(f"params.{key}: unknown parameter")
    for key, (_, rule) in PARAMS.items():
        if params[key] is not None or key != "queue_cap_bytes":
            _check(params, key, "params", errors, rule)
    cfg["params"] = params

    ns = {noun: {} for noun in ("host", *NAMESPACE)}
    topo = _part(cfg, "topology", "topology", errors)
    _check_topology(topo, ns, errors)
    fid = cfg["fid"] = {**DEFAULT_FID, **_part(cfg, "fid", "fid", errors)}
    m = _check(fid, "m", "fid", errors, POSITIVE)
    if fid["mode"] not in ("exact", "bloom"):
        errors.append("fid.mode: must be 'exact' or 'bloom', "
                      f"got {fid['mode']!r}")
    elif m and fid["mode"] == "bloom":
        _check(fid, "k", "fid", errors, (0, m - 1, int, "lie in [1, fid.m)"))
    elif m and 2 * len(ns["link"]) > m:
        errors.append(f"fid.m: {m} bits cannot give unique identifiers to "
                      f"{2 * len(ns['link'])} directed links")

    events = _entries(cfg, "events", "events", errors)
    cfg["events"] = [ev for _, ev in events]
    apps = cfg["apps"] = _part(cfg, "apps", "apps", errors)
    naps = {name for name, node in ns["node"].items()
            if node.get("role") == ROLE_NAP}
    for key, check in (("hls", _check_hls), ("iptv", _check_iptv)):
        if isinstance(apps.get(key), dict):
            check(cfg, ns, naps, duration, errors)
        else:  # absent, null, or one more error
            _part(apps, key, f"apps.{key}", errors)

    for at, ev in events:
        _check(ev, "at_ms", at, errors,
               (0, duration - 1, int, "lie in (0, duration_ms)"))
        if _ref(ev, "kind", at, errors, EVENTS, "kind"):
            for key, noun in EVENTS[ev["kind"]][0].items():
                _ref(ev, key, at, errors, ns[noun], noun)

    if errors:
        raise ConfigError(errors)
    return cfg


def _check_topology(topo: dict, ns: dict, errors: list) -> None:
    for at, node in _named(topo, "nodes", "topology.nodes", errors, ns,
                           "node", required=True):
        if node.get("role") not in (ROLE_FN, ROLE_NAP):
            errors.append(f"{at}: role must be 'fn' or 'nap' (the control "
                          f"element is implicit), got {node.get('role')!r}")
    links = _named(topo, "links", "topology.links", errors, ns, "link")
    # an absent or null link list is an empty one, in the run too
    topo["links"] = [link for _, link in links]
    linked = set()
    for at, link in links:
        a, b = link.get("a"), link.get("b")
        if not (_known(a, ns["node"]) and _known(b, ns["node"])):
            errors.append(f"{at}: endpoints must be known nodes")
        elif a == b:
            errors.append(f"{at}: self-loop on {a!r}")
        else:
            linked.update((a, b))
        _check(link, "capacity_mbps", at, errors,
               (0, math.inf, (int, float), "be a positive number"))
        _check(link, "latency_us", at, errors, NON_NEGATIVE)
    for name in ns["node"]:
        if links and name not in linked:
            errors.append(f"topology: node {name!r} has no links")


def _check_hls(cfg: dict, ns: dict, naps: set, duration: int,
               errors: list) -> None:
    hls = cfg["apps"]["hls"] = {**HLS_DEFAULTS, **cfg["apps"]["hls"]}
    _text(hls, "host", "apps.hls", errors)
    _text(hls, "path_prefix", "apps.hls", errors, empty=True)
    rates = hls["bitrates_mbps"]
    # each rate a positive integer above the one before it
    if not (isinstance(rates, list) and rates and all(
            _number(rate, lo) for lo, rate in zip([0] + rates, rates))):
        errors.append("apps.hls.bitrates_mbps: must be strictly increasing "
                      "positive integers")
    _check(hls, "chunk_duration_ms", "apps.hls", errors, POSITIVE)
    _check(hls, "playlist_window", "apps.hls", errors, POSITIVE)
    servers = _named(hls, "servers", "apps.hls.servers", errors, ns,
                     "server", required=True)
    for at, server in servers:
        _ref(server, "nap", at, errors, naps, "gateway")
        server.setdefault("registered", True)
    if servers and not any(s["registered"] for _, s in servers) and not any(
            ev.get("kind") == "surrogate_on" for ev in cfg["events"]):
        errors.append("apps.hls.servers: no server starts registered and "
                      "no surrogate_on event ever registers one")
    for at, client in _named(hls, "clients", "apps.hls.clients", errors, ns,
                             "client"):
        _ref(client, "nap", at, errors, naps, "gateway")
        _check(client, "start_ms", at, errors, _starts(duration))
        _check(client, "chunks", at, errors, POSITIVE)


def _check_iptv(cfg: dict, ns: dict, naps: set, duration: int,
                errors: list) -> None:
    iptv, mtu = cfg["apps"]["iptv"], cfg["params"]["mtu"]
    for at, ch in _named(iptv, "channels", "apps.iptv.channels", errors, ns,
                         "channel", required=True):
        _ref(ch, "nap", at, errors, naps, "gateway")
        rate = _check(ch, "bitrate_mbps", at, errors, POSITIVE)
        if rate and _number(mtu) and packet_interval_us(mtu, rate) < 1:
            errors.append(f"{at}.bitrate_mbps: at most {8 * mtu} (8 * "
                          "params.mtu), so that packets are at least 1 us "
                          "apart")
        start = _check(ch, "start_ms", at, errors, _starts(duration))
        _check(ch, "stop_ms", at, errors,
               (start or 0, duration, int, "lie in (start_ms, duration_ms]"))
    for at, stb in _named(iptv, "stbs", "apps.iptv.stbs", errors, ns,
                          "set-top box"):
        _ref(stb, "nap", at, errors, naps, "gateway")
        _check(stb, "join_ms", at, errors, _starts(duration))
        known = _ref(stb, "channel", at, errors, ns["channel"], "channel")
        if "active_until_ms" in stb:
            _check(stb, "active_until_ms", at, errors, NON_NEGATIVE)
        elif known:
            # a set-top box stays active until its channel stops
            channel = ns["channel"][stb["channel"]]
            stb["active_until_ms"] = channel.get("stop_ms")


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
        self.params = None
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


def build_world(effective: dict, mode: str, seed: int,
                telemetry_enabled: bool = True) -> World:
    w = World()
    w.engine = Engine()
    w.log = EventLog()
    w.telemetry = Telemetry(telemetry_enabled)
    w.params = run_params(effective["params"])
    w.topo = _build_topology(effective)
    w.fabric = Fabric(w.engine, w.topo, w.log, w.telemetry, w.params)
    if mode == "icn":
        _wire_icn(w, effective, seed)
    else:
        _wire_ip(w)
    _wire_apps(w, effective, mode)
    _schedule_events(w, effective, mode)
    return w


def _wire_icn(w: World, effective: dict, seed: int) -> None:
    fid_cfg = FidConfig(effective["fid"]["m"], effective["fid"]["k"],
                        effective["fid"]["mode"])
    w.link_ids = assign_link_ids(w.topo, fid_cfg, seed)
    w.pce = Pce(w.engine, w.topo, w.link_ids, fid_cfg, w.log, w.params)
    w.fabric.add_topology_listener(w.pce.on_topology_event)
    for node in w.topo.node_list():
        if node.role == ROLE_NAP:
            nap = Nap(node.name, w.engine, w.fabric, w.pce, w.log, w.params)
            w.naps[node.name] = nap
            w.pce.attach_nap(nap)
            handler = FidNode(node.name, w.topo.egress(node.name), w.link_ids,
                              sink=nap.demux)
        else:
            handler = FidNode(node.name, w.topo.egress(node.name), w.link_ids)
        w.fid_nodes[node.name] = handler
        w.fabric.add_handler(node.name, handler)


def _wire_ip(w: World) -> None:
    w.stp = StpController(w.engine, w.topo, w.log, w.params)
    w.fabric.add_topology_listener(w.stp.on_topology_event)
    for node in w.topo.node_list():
        sw = IpSwitch(node.name, w.engine, w.topo, w.stp, w.log, w.params)
        w.switches[node.name] = sw
        w.fabric.add_handler(node.name, sw)
    w.dns = DnsDirectory()


def _wire_apps(w: World, effective: dict, mode: str) -> None:
    hls = effective["apps"].get("hls")
    if hls:
        catalog = HlsCatalog(
            host=hls["host"], path_prefix=hls["path_prefix"],
            chunk_duration_us=hls["chunk_duration_ms"] * US_PER_MS,
            bitrates_mbps=tuple(hls["bitrates_mbps"]),
            playlist_window=hls["playlist_window"])
        scope = http_scope(hls["host"])
        for s in hls["servers"]:
            server = HlsServer(s["name"], s["nap"], catalog, w.engine, w.log,
                               w.params)
            w.servers[s["name"]] = server
            if mode == "icn":
                w.naps[s["nap"]].attach_server(hls["host"], server)
            else:
                endpoint = IpServerEndpoint(server, s["name"], s["nap"],
                                            w.fabric, w.engine, w.params)
                w.switches[s["nap"]].attach_host(s["name"], endpoint)
            # w.pce is None over IP, where the agent has nothing to toggle
            w.agents[s["name"]] = SurrogateAgent(
                server, w.pce, scope, w.engine, w.log, w.params,
                registered=s["registered"])
        if mode == "ip":
            w.dns.add(hls["host"], [s["name"] for s in hls["servers"]])
        for c in hls.get("clients") or []:
            if mode == "icn":
                transport = IcnHttpTransport(w.engine, w.naps[c["nap"]])
            else:
                transport = IpHttpTransport(c["name"], c["nap"], w.fabric,
                                            w.dns, w.engine, w.log, w.params)
                w.switches[c["nap"]].attach_host(c["name"], transport)
            w.clients[c["name"]] = HlsClient(
                c["name"], transport, catalog, w.params,
                c["start_ms"] * US_PER_MS, c["chunks"], w.engine, w.log)

    iptv = effective["apps"].get("iptv")
    if iptv:
        for ch in iptv["channels"]:
            if mode == "icn":
                sender = IcnStreamSender(w.naps[ch["nap"]])
                w.pce.register_publisher(channel_name(ch["name"]), ch["nap"])
            else:
                sender = IpStreamSender(f"{ch['name']}_src", ch["nap"], w.fabric)
            # the engine holds the source through its scheduled emissions
            IptvSource(ch["name"], sender, ch["bitrate_mbps"], w.params.mtu,
                       ch["start_ms"] * US_PER_MS, ch["stop_ms"] * US_PER_MS,
                       w.engine)
        for s in iptv.get("stbs") or []:
            if mode == "icn":
                adapter = IcnIgmpAdapter(w.engine, w.naps[s["nap"]])
            else:
                adapter = IpIgmpAdapter(s["nap"], w.fabric, w.engine, w.params)
            stb = Stb(s["name"], adapter, s["channel"],
                      s["join_ms"] * US_PER_MS,
                      s["active_until_ms"] * US_PER_MS, w.params, w.engine,
                      w.log)
            w.stbs[s["name"]] = stb
            if mode == "ip":
                w.switches[s["nap"]].attach_host(s["name"], stb)


def _schedule_events(w: World, effective: dict, mode: str) -> None:
    link_events = []
    for ev in effective["events"]:
        at = ev["at_ms"] * US_PER_MS
        refs, call = EVENTS[ev["kind"]]
        w.engine.schedule_at(at, *call(w, ev))
        if "link" in refs:
            link_events.append(at)
    if mode == "icn":
        _schedule_digest_probes(w, link_events)


def _schedule_digest_probes(w: World, times_us: list) -> None:
    """Log routing-state digests of every element just before each link
    event and again once the control plane has settled."""
    p = w.params
    settle_us = (p.detection_delay_us + p.pce_processing_us
                 + 2 * p.control_latency_us + 2 * US_PER_MS)

    def probe(tag: str) -> None:
        t = w.engine.now
        w.log.append(t, w.pce.name, "digest", tag=tag,
                     value=w.pce.routing_digest())
        for name in sorted(w.fid_nodes):
            element = w.naps.get(name, w.fid_nodes[name])
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
    # hashed before the world and its log exist, so the config's text
    # never stacks on top of a full log
    digest = config_hash(effective)

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
        "config_hash": digest,
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
        for (name, snap), fid in w.pce._issued.items():
            receivers = set(w.pce._stream_receivers(name))
            trace = trace_delivery(w.topo, w.link_ids, fid, snap,
                                   ttl=w.params.ttl,
                                   sinks=w.naps.keys())
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
    # the summaries read each run's config: it must be the one it ran
    for run in (a, b):
        if config_hash(run.config) != run.meta["config_hash"]:
            raise ConfigError(
                [f"refusing to compare runs: the {run.mode} run's "
                 "effective config does not hash to its config_hash"])
    if a.meta["config_hash"] != b.meta["config_hash"]:
        raise ConfigError(
            ["refusing to compare runs of different configurations: "
             f"{a.meta['config_hash'][:12]} != {b.meta['config_hash'][:12]}"])
    if a.seed != b.seed:
        raise ConfigError(
            [f"refusing to compare runs with different seeds: {a.seed} != {b.seed}"])
    summaries = []
    for run in (a, b):
        try:
            summaries.append(summarize(run))
        except ValueError as exc:
            # a log no run writes, such as arrivals that go back in time
            raise ConfigError([f"refusing to compare runs: the {run.mode} "
                               f"run's log does not reduce: {exc}"]) from None
    sa, sb = summaries
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
