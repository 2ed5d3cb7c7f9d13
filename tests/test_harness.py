"""Scenario loading, validation, world running, run comparison."""

import copy
import gc
import json
import os
import sys
import weakref

import pytest

from icnsim import harness, telemetry
from icnsim.fid import FID
from icnsim.harness import (DEFAULT_PARAMS, MODES, PARAMS, ConfigError,
                            RunParams, _check_invariants, build_world,
                            compare_artifacts, config_hash, list_scenarios,
                            load_scenario, render_comparison, run_params,
                            run_scenario, validate_config)
from icnsim.telemetry import (drops_by_reason, export, import_artifacts,
                              summarize)

MINIMAL = {
    "name": "mini",
    "duration_ms": 1000,
    "topology": {
        "nodes": [
            {"name": "snap", "role": "nap"},
            {"name": "cnap", "role": "nap"},
        ],
        "links": [
            {"name": "l1", "a": "snap", "b": "cnap", "capacity_mbps": 100,
             "latency_us": 100},
        ],
    },
    "apps": {
        "iptv": {
            "channels": [{"name": "ch1", "bitrate_mbps": 2, "nap": "snap",
                          "start_ms": 10, "stop_ms": 900}],
            "stbs": [{"name": "stb1", "nap": "cnap", "channel": "ch1",
                      "join_ms": 5}],
        },
    },
}


def test_shipped_scenarios():
    assert list_scenarios() == ["coincidental_multicast", "hls_failover",
                                "iptv_failover", "trial_topology"]
    cfg = load_scenario("trial_topology")
    assert cfg["name"] == "trial_topology"


@pytest.mark.parametrize("m, k", [(64, 3), (16, 4)])
def test_bloom_stream_trees_are_checked(m, k):
    """Bloom mode traces every issued stream tree too: the trial's trees
    reach their receivers (the non-receivers a Bloom identifier also
    reaches are no violation), and an all-zero identifier of the same
    width reaches none of them."""
    config = copy.deepcopy(load_scenario("trial_topology"))
    config["fid"] = {"mode": "bloom", "m": m, "k": k}
    effective = validate_config(config)
    w = build_world(effective, "icn", effective["params"]["seed"])
    w.engine.run_until(effective["duration_ms"] * 1000)
    assert w.pce._issued
    assert _check_invariants(w, effective, "icn") == []
    for key, fid in w.pce._issued.items():
        w.pce._issued[key] = FID(0, fid.width)
    violations = _check_invariants(w, effective, "icn")
    assert violations and all("receivers unreachable" in v
                              for v in violations)


def log_outlives_artifacts(config: dict, mode: str) -> bool:
    """Whether a run's log is still alive after `del` of its artifacts,
    with the cycle collector off."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        artifacts = run_scenario(config, mode)
        log = weakref.ref(artifacts.events)
        del artifacts
        return log() is not None
    finally:
        if was_enabled:
            gc.enable()


@pytest.mark.parametrize("mode", ["icn", "ip"])
@pytest.mark.parametrize("name", list_scenarios())
def test_finished_run_frees_its_log_without_the_cycle_collector(name, mode):
    """run_scenario breaks its world's reference cycles, so a run's log
    dies as soon as its artifacts are deleted."""
    assert not log_outlives_artifacts(load_scenario(name), mode)


def test_run_cut_mid_fetch_frees_its_log():
    """At 3.5 s the trial's client has a fetch in flight in ip mode: its
    transport holds the client, which holds the transport."""
    cfg = load_scenario("trial_topology")
    cfg["duration_ms"] = 3_500
    cfg["events"] = []
    for channel in cfg["apps"]["iptv"]["channels"]:
        channel["stop_ms"] = 3_500
    log = run_scenario(cfg, "ip").events
    assert log.count("http_req") > (log.count("http_resp")
                                    + log.count("http_timeout"))
    del log
    assert not log_outlives_artifacts(cfg, "ip")


def test_unknown_scenario_name_lists_alternatives():
    with pytest.raises(ConfigError) as err:
        load_scenario("nope")
    assert "trial_topology" in err.value.errors[0]


def test_bare_names_resolve_shipped_regardless_of_cwd(tmp_path, monkeypatch):
    # a local file or directory named like a scenario must not shadow it
    monkeypatch.chdir(tmp_path)
    (tmp_path / "trial_topology").mkdir()
    (tmp_path / "hls_failover").write_text("{}")
    assert load_scenario("trial_topology")["name"] == "trial_topology"
    assert load_scenario("hls_failover")["name"] == "hls_failover"
    with pytest.raises(ConfigError) as err:
        load_scenario(os.path.join(".", "trial_topology"))
    assert "not found" in err.value.errors[0]


def test_validation_reports_every_problem_at_once():
    bad = copy.deepcopy(MINIMAL)
    bad["params"] = {"warp_speed": 9, "mtu": -5}
    bad["topology"]["nodes"].append({"name": "ctrl", "role": "pce"})
    bad["topology"]["links"].append(
        {"name": "loop", "a": "snap", "b": "snap", "capacity_mbps": 10,
         "latency_us": 1})
    bad["topology"]["links"].append(
        {"name": "dangling", "a": "snap", "b": "ghost", "capacity_mbps": 10,
         "latency_us": 1})
    bad["fid"] = {"m": 4, "mode": "exact"}
    bad["apps"]["iptv"]["stbs"][0]["channel"] = "ch9"
    bad["events"] = [{"kind": "meteor", "at_ms": 10}]
    with pytest.raises(ConfigError) as err:
        validate_config(bad)
    text = "\n".join(err.value.errors)
    assert "params.warp_speed: unknown parameter" in text
    assert "params.mtu" in text
    assert "role must be 'fn' or 'nap'" in text
    assert "self-loop" in text
    assert "endpoints must be known nodes" in text
    assert "fid.m: 4 bits" in text
    assert "unknown channel 'ch9'" in text
    assert "unknown kind 'meteor'" in text
    assert len(err.value.errors) >= 8


def test_validation_fills_defaults():
    effective = validate_config(copy.deepcopy(MINIMAL))
    assert effective["params"]["mtu"] == 1400
    assert effective["params"]["seed"] == 1
    assert effective["fid"] == {"m": 256, "k": 5, "mode": "exact"}
    # a set-top box stays active until its channel stops by default
    assert effective["apps"]["iptv"]["stbs"][0]["active_until_ms"] == 900


def test_validation_rejects_channel_faster_than_a_packet_per_us():
    """At MTU 100 a 1000 Mb/s channel would send its packets 0 us apart
    and never let the clock advance; 800 Mb/s is the fastest allowed."""
    cfg = copy.deepcopy(MINIMAL)
    cfg["params"] = {"mtu": 100}
    cfg["apps"]["iptv"]["channels"][0]["bitrate_mbps"] = 1000
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.errors == [
        "apps.iptv.channels[0].bitrate_mbps: at most 800 (8 * params.mtu), "
        "so that packets are at least 1 us apart"]
    cfg["apps"]["iptv"]["channels"][0]["bitrate_mbps"] = 800
    validate_config(cfg)


# MINIMAL plus an HLS session and a scripted event, so that every
# numeric key validate_config checks is present
FULL = copy.deepcopy(MINIMAL)
FULL["apps"]["hls"] = {
    "host": "tv.example", "bitrates_mbps": [1, 2],
    "servers": [{"name": "srv", "nap": "snap"}],
    "clients": [{"name": "c1", "nap": "cnap", "start_ms": 20, "chunks": 1}]}
FULL["apps"]["iptv"]["stbs"][0]["active_until_ms"] = 900
FULL["events"] = [{"kind": "link_down", "at_ms": 500, "link": "l1"}]
FULL["fid"] = {"mode": "bloom", "m": 64, "k": 3}

NUMERIC_KEYS = [
    ("duration_ms",),
    *(("params", key) for key in (
        "seed", "mtu", "ttl", "queue_cap_bytes", "coalesce_window_ms",
        "client_timeout_ms", "detection_delay_ms", "pce_processing_ms",
        "control_latency_ms", "access_latency_ms", "server_latency_ms",
        "stp_reconvergence_ms", "igmp_query_ms", "dns_attempts_per_address",
        "abr_safety", "abr_upshift_chunks", "ewma_weight", "startup_hold_ms",
        "chunk_offset_ms", "request_bytes", "playlist_bytes", "igmp_bytes",
        "max_attempts_per_fetch")),
    ("fid", "m"), ("fid", "k"),
    ("topology", "links", 0, "capacity_mbps"),
    ("topology", "links", 0, "latency_us"),
    ("apps", "hls", "bitrates_mbps", 0),
    ("apps", "hls", "chunk_duration_ms"),
    ("apps", "hls", "playlist_window"),
    ("apps", "hls", "clients", 0, "start_ms"),
    ("apps", "hls", "clients", 0, "chunks"),
    ("apps", "iptv", "channels", 0, "bitrate_mbps"),
    ("apps", "iptv", "channels", 0, "start_ms"),
    ("apps", "iptv", "channels", 0, "stop_ms"),
    ("apps", "iptv", "stbs", 0, "join_ms"),
    ("apps", "iptv", "stbs", 0, "active_until_ms"),
    ("events", 0, "at_ms"),
]


@pytest.mark.parametrize("path", NUMERIC_KEYS,
                         ids=[".".join(map(str, p)) for p in NUMERIC_KEYS])
@pytest.mark.parametrize("value", [True, False])
def test_validation_rejects_bools_as_numbers(path, value):
    """JSON true and false are not numbers: each numeric key holding one
    is reported by name."""
    validate_config(copy.deepcopy(FULL))
    cfg = copy.deepcopy(FULL)
    cfg.setdefault("params", {})
    owner = cfg
    for part in path[:-1]:
        owner = owner[part]
    owner[path[-1]] = value
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    key = next(p for p in reversed(path) if isinstance(p, str))
    assert any(key in e for e in err.value.errors), err.value.errors


def test_validation_rejects_true_mtu_and_ttl():
    """Once accepted and run as MTU 1 and TTL 1."""
    cfg = copy.deepcopy(MINIMAL)
    cfg["params"] = {"mtu": True, "ttl": True, "abr_safety": True}
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.errors == [
        "params.mtu: must be a positive integer",
        "params.ttl: must be a positive integer",
        "params.abr_safety: must lie in (0, 1]"]


@pytest.mark.parametrize("prefix", [5, None, ["/live"]])
def test_validation_rejects_a_path_prefix_that_is_not_a_string(prefix):
    """Once accepted: every chunk request then missed the catalog and
    got a 404, with no violation reported."""
    cfg = copy.deepcopy(FULL)
    cfg["apps"]["hls"]["path_prefix"] = prefix
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.errors == ["apps.hls.path_prefix: must be a string"]
    for prefix in ("/tv", ""):
        cfg["apps"]["hls"]["path_prefix"] = prefix
        validate_config(cfg)


@pytest.mark.parametrize("capacity", [float("inf"), float("nan")])
def test_validation_rejects_a_capacity_that_is_not_finite(capacity):
    """json reads Infinity and NaN; either once failed the run when the
    link's bit rate was made an int."""
    cfg = copy.deepcopy(MINIMAL)
    cfg["topology"]["links"][0]["capacity_mbps"] = capacity
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.errors == [
        "topology.links[0].capacity_mbps: must be a positive number"]


# (list, index, name): each gives one host the name another host on the
# same or another gateway already has; a duplicated client is one too
HOST_CLASHES = {
    "client_twice": ("clients", None, "c1"),
    "client_named_like_server": ("clients", 0, "srv"),
    "box_named_like_client": ("stbs", 0, "c1"),
    "box_named_like_server": ("stbs", 0, "srv"),
}


@pytest.mark.parametrize("case", sorted(HOST_CLASHES))
def test_host_names_are_unique_across_servers_clients_and_boxes(case):
    """Servers, HLS clients and set-top boxes are all hosts, named in
    one namespace; a clash once crashed the ip run (duplicate host on
    one gateway, or a reply delivered to the wrong kind of host)."""
    key, index, name = HOST_CLASHES[case]
    cfg = copy.deepcopy(FULL)
    hosts = cfg["apps"]["iptv" if key == "stbs" else "hls"][key]
    if index is None:
        hosts.append(copy.deepcopy(hosts[0]))
    else:
        hosts[index]["name"] = name
    with pytest.raises(ConfigError) as err:
        validate_config(cfg)
    assert err.value.errors == [
        f"apps.{'iptv' if key == 'stbs' else 'hls'}.{key}"
        f"[{len(hosts) - 1 if index is None else index}].name: "
        f"duplicate host {name!r}"]


@pytest.mark.parametrize("links", ["absent", None])
def test_an_absent_or_null_link_list_is_an_empty_one(links):
    """A one-node scenario needs no links: without the list (once a
    KeyError in the run) it runs like one with an empty list."""
    cfg = copy.deepcopy(MINIMAL)
    cfg["topology"] = {"nodes": [{"name": "snap", "role": "nap"}]}
    cfg["apps"]["iptv"]["stbs"][0]["nap"] = "snap"
    empty = copy.deepcopy(cfg)
    empty["topology"]["links"] = []
    if links is None:
        cfg["topology"]["links"] = None
    assert validate_config(cfg) == validate_config(empty)
    for mode in ("icn", "ip"):
        art = run_scenario(cfg, mode)
        assert art.meta["violations"] == []
        assert art.meta["config_hash"] == config_hash(validate_config(empty))


@pytest.mark.parametrize("mode", ["icn", "ip"])
def test_traffic_on_the_wire_at_the_horizon_is_undrained_not_lost(
        mode, tmp_path):
    """A 50 ms link and a channel that runs to the end of the run: the
    packets still on the link at the horizon are undrained, the books
    balance exactly, from the exported artifacts too."""
    cfg = copy.deepcopy(MINIMAL)
    cfg["topology"]["links"][0]["latency_us"] = 50_000
    cfg["apps"]["iptv"]["channels"][0]["stop_ms"] = cfg["duration_ms"]
    art = run_scenario(cfg, mode)
    assert art.meta["violations"] == []
    horizon = cfg["duration_ms"] * 1000
    on_wire = sum(r["size"] for r in art.events
                  if r["ev"] == "pkt_fwd" and r["arrive"] > horizon)
    assert on_wire >= 8 * 1400
    export(art, str(tmp_path))
    cons = summarize(import_artifacts(str(tmp_path)))["conservation"]
    assert cons["undrained_bytes"] == cons["in_flight_bytes"] == on_wire
    assert cons["balanced"]
    assert (cons["injected_bytes"] + cons["branch_extra_bytes"]
            == cons["delivered_bytes"] + cons["dropped_bytes"] + on_wire)


def run_field(key):
    """The name of a parameter's field in RunParams."""
    return key[:-3] + "_us" if key.endswith("_ms") else key


@pytest.mark.parametrize("params", [
    DEFAULT_PARAMS, {key: i + 1 for i, key in enumerate(PARAMS)}],
    ids=["defaults", "distinct"])
def test_run_params_converts_each_time_once_and_keeps_the_rest(params):
    """RunParams holds every parameter but the seed, in PARAMS's order:
    a *_ms one as *_us at exactly 1000 times its value, any other under
    its own name, unchanged."""
    expected = {}
    for key, value in params.items():
        expected[run_field(key)] = value * 1000 if key.endswith("_ms") \
            else value
    del expected["seed"]
    run = run_params(params)
    assert isinstance(run, RunParams)
    assert list(RunParams._fields) == list(expected)
    assert run._asdict() == expected


@pytest.mark.parametrize("mode", MODES)
def test_build_world_hands_every_element_one_run_params(mode):
    """One RunParams per world, and every element that reads a parameter
    holds that very object."""
    w = build_world(validate_config(copy.deepcopy(FULL)), mode, seed=1)
    assert isinstance(w.params, RunParams)
    elements = [w.fabric, *w.servers.values(), *w.clients.values(),
                *w.stbs.values(), *w.agents.values()]
    if mode == "icn":
        elements += [w.pce, *w.naps.values()]
    else:
        # each switch's hosts: server endpoints, client transports, boxes
        hosts = [h for sw in w.switches.values() for h in sw.hosts.values()]
        assert len(hosts) == 3
        elements += [w.stp, *w.switches.values(), *hosts,
                     *(stb.adapter for stb in w.stbs.values())]
    assert [e for e in elements if e.params is not w.params] == []


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("key", [key for key in PARAMS if key != "seed"])
def test_each_parameter_reaches_the_worlds_run_params(key, mode):
    """A value other than the default, of each parameter, is the one the
    world's RunParams holds."""
    default = DEFAULT_PARAMS[key]
    if default is None:
        value = 1000
    elif isinstance(default, float):
        value = default / 2
    else:
        value = default + 1
    config = copy.deepcopy(FULL)
    config["params"] = {key: value}
    w = build_world(validate_config(config), mode, seed=1)
    scale = 1000 if key.endswith("_ms") else 1
    assert getattr(w.params, run_field(key)) == value * scale


def test_config_hash_covers_defaults_and_overrides():
    a = validate_config(copy.deepcopy(MINIMAL))
    b = validate_config(copy.deepcopy(MINIMAL))
    assert config_hash(a) == config_hash(b)
    tweaked = copy.deepcopy(MINIMAL)
    tweaked["params"] = {"mtu": 1200}
    assert config_hash(validate_config(tweaked)) != config_hash(a)


@pytest.mark.parametrize("export_to", [None, "out"])
def test_run_scenario_serializes_the_config_only_before_the_world(
        export_to, tmp_path, monkeypatch):
    """The effective config is encoded once, by config_hash, before
    build_world, so no text of it is held beside the run's full log; the
    export streams it into effective_config.json with json.dump, which
    gives the bytes json.dumps would."""
    calls, seen = [], {}
    validate = harness.validate_config
    monkeypatch.setattr(harness, "validate_config",
                        lambda raw: seen.setdefault("config", validate(raw)))

    def spy(owner, name, label=None, of_config=False):
        fn = getattr(owner, name)

        def hooked(*args, **kw):
            if not of_config or args and args[0] is seen.get("config"):
                calls.append(label or name)
            return fn(*args, **kw)
        monkeypatch.setattr(owner, name, hooked)

    spy(harness, "config_hash")
    spy(harness, "build_world")
    for module in (harness, telemetry):
        spy(module, "canonical_json", "encode(config)", of_config=True)
    spy(json, "dumps", "json.dumps(config)", of_config=True)
    spy(json, "dump", "json.dump(config)", of_config=True)
    out = None if export_to is None else str(tmp_path / export_to)
    art = run_scenario(load_scenario("trial_topology"), "icn", out=out)
    assert calls == ["config_hash", "encode(config)", "build_world"] + (
        [] if out is None else ["json.dump(config)"])
    assert art.meta["config_hash"] == config_hash(art.config)
    if out is not None:
        with open(os.path.join(out, "effective_config.json")) as fh:
            assert fh.read() == json.dumps(art.config, sort_keys=True,
                                           indent=2) + "\n"


def test_rejects_unknown_mode():
    with pytest.raises(ConfigError):
        run_scenario(copy.deepcopy(MINIMAL), "quantum")


def test_minimal_scenario_runs_clean_in_both_modes():
    for mode in ("icn", "ip"):
        art = run_scenario(copy.deepcopy(MINIMAL), mode)
        assert art.meta["violations"] == []
        assert art.meta["scenario"] == "mini"
        assert summarize(art)["conservation"]["balanced"]
        assert any(r["ev"] == "stb_rx" for r in art.events)


def test_trial_run_is_reproducible_and_telemetry_neutral():
    cfg = load_scenario("trial_topology")
    one = run_scenario(cfg, "icn")
    two = run_scenario(cfg, "icn")
    assert one.meta["events_hash"] == two.meta["events_hash"]
    assert one.meta["samples_hash"] == two.meta["samples_hash"]
    silent = run_scenario(cfg, "icn", telemetry_enabled=False)
    assert silent.meta["events_hash"] == one.meta["events_hash"]
    assert silent.samples == []
    assert one.samples != []


def test_trial_delivers_identical_stream_counts_in_both_modes():
    """Both planes deliver every stream packet sent while the viewer is
    joined; only the pre-join emissions drop, at the source."""
    cfg = load_scenario("trial_topology")
    counts = {}
    for mode in ("icn", "ip"):
        art = run_scenario(cfg, mode)
        counts[mode] = sum(1 for r in art.events
                           if r["ev"] == "stb_rx" and r["el"] == "stb1")
        if mode == "icn":
            # nothing is lost in flight: the only drops are tree-less
            # emissions suppressed at the gateway
            assert set(drops_by_reason(art.events)) == {"zero_fid"}
    assert counts["icn"] == counts["ip"] == 1785


def test_trial_zap_switches_cleanly():
    cfg = load_scenario("trial_topology")
    art = run_scenario(cfg, "icn")
    stb2_ch1 = [r["t"] for r in art.events
                if r["ev"] == "stb_rx" and r["el"] == "stb2"
                and r["name"] == "ch:ch1"]
    stb2_ch2 = [r["t"] for r in art.events
                if r["ev"] == "stb_rx" and r["el"] == "stb2"
                and r["name"] == "ch:ch2"]
    # the zap at 6 s stops the old channel and starts the new one
    assert max(stb2_ch1) < 6_000_000
    assert min(stb2_ch2) == 6_008_060
    acquisitions = [(r["el"], r["channel"], r["dur_us"]) for r in art.events
                    if r["ev"] == "acquisition"]
    assert acquisitions == [("stb1", "ch1", 7_248), ("stb2", "ch1", 11_248),
                            ("stb2", "ch2", 8_060)]


def test_trial_disruptions_track_shared_link_contention():
    """The viewer sharing its access link with chunk fetches sees delivery
    gaps exactly while chunks transfer; the other viewer only pauses to
    zap."""
    cfg = load_scenario("trial_topology")
    art = run_scenario(cfg, "icn")
    summary = summarize(art)
    chunk_times = [r["t"] for r in art.events if r["ev"] == "chunk_done"]
    assert len(chunk_times) == 3
    stb1_gaps = summary["disruptions"]["stb1"]
    for gap in stb1_gaps[:3]:
        assert any(gap["start"] < t <= gap["end"] + 100_000
                   for t in chunk_times)
    stb2_gaps = summary["disruptions"]["stb2"]
    assert len(stb2_gaps) == 1
    assert 5_900_000 < stb2_gaps[0]["start"] < 6_100_000


def test_digest_probes_only_surround_link_events():
    trial = run_scenario(load_scenario("trial_topology"), "icn")
    assert not any(r["ev"] == "digest" for r in trial.events)
    failover = run_scenario(load_scenario("iptv_failover"), "icn")
    tags = sorted({r["tag"] for r in failover.events if r["ev"] == "digest"})
    assert tags == ["after_0", "after_1", "before_0", "before_1"]


def test_compare_refuses_different_configs_or_seeds():
    cfg = load_scenario("trial_topology")
    a = run_scenario(cfg, "icn")
    other = copy.deepcopy(cfg)
    other["duration_ms"] += 1
    b = run_scenario(other, "ip")
    with pytest.raises(ConfigError):
        compare_artifacts(a, b)
    reseeded = run_scenario(cfg, "ip", seed=2)
    with pytest.raises(ConfigError):
        compare_artifacts(a, reseeded)


def test_compare_same_run_has_zero_deltas():
    cfg = load_scenario("trial_topology")
    a = run_scenario(cfg, "icn")
    b = run_scenario(cfg, "icn")
    cmp = compare_artifacts(a, b)
    assert cmp["identical_modes"]
    assert all(row["delta"] == 0 for row in cmp["links"].values())


def test_compare_across_modes_reports_link_ratios():
    cfg = load_scenario("trial_topology")
    a = run_scenario(cfg, "icn")
    b = run_scenario(cfg, "ip")
    cmp = compare_artifacts(a, b)
    assert cmp["modes"] == ["icn", "ip"]
    assert "trunk_primary" in cmp["links"]
    text = render_comparison(cmp)
    assert "scenario: trial_topology" in text
    assert "link trunk_primary:" in text
