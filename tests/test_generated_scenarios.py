"""Whole runs of generated scenarios, in both modes.

generate_scenario(rng) draws a small random network: a connected core of
switches, maybe with loops, whose first trunk is doubled by a parallel
backup; gateways hanging off it; an IPTV source with set-top boxes;
optionally an HLS origin with clients, a trunk failure and restore, and
a zap; and exact or Bloom identifiers.  Every config the validator
accepts must run clean.
"""

import io
import random

import pytest

from icnsim.harness import ConfigError, run_scenario, validate_config
from icnsim.telemetry import export, import_artifacts, summarize

SEEDS = range(8)
DURATION_MS = 2000


def _link(name, a, b, capacity_mbps, latency_us):
    return {"name": name, "a": a, "b": b, "capacity_mbps": capacity_mbps,
            "latency_us": latency_us}


def generate_scenario(rng: random.Random) -> dict:
    """A scenario of at most 12 nodes, drawn from rng."""
    switches = [f"sw{i}" for i in range(rng.randint(2, 4))]
    nodes = [{"name": sw, "role": "fn"} for sw in switches]
    links = [_link("trunk_primary", switches[0], switches[1], 1000, 1000),
             _link("trunk_backup", switches[0], switches[1], 1000, 1000)]
    for i, sw in enumerate(switches[2:], 2):
        links.append(_link(f"core_{i}", rng.choice(switches[:i]), sw, 1000,
                           rng.randrange(100, 1000)))
    for i in range(rng.randint(0, 2)):
        a, b = rng.sample(switches, 2)
        links.append(_link(f"extra_{i}", a, b, 1000, rng.randrange(100, 1000)))

    def gateway(name):
        nodes.append({"name": name, "role": "nap"})
        links.append(_link(f"access_{name}", name, rng.choice(switches),
                           rng.choice([50, 100, 1000]),
                           rng.randrange(100, 1000)))

    gateway("snap_iptv")
    channels = [{"name": f"ch{i}", "bitrate_mbps": rng.choice([1, 2, 4]),
                 "nap": "snap_iptv", "start_ms": rng.randrange(50, 300),
                 "stop_ms": DURATION_MS - rng.randrange(0, 300)}
                for i in range(rng.randint(1, 2))]
    cnaps = [f"cnap{i}" for i in range(rng.randint(1, 4))]
    for cnap in cnaps:
        gateway(cnap)
    stbs = [{"name": f"stb{i}", "nap": rng.choice(cnaps),
             "channel": rng.choice(channels)["name"],
             "join_ms": rng.randrange(100, 600)}
            for i in range(rng.randint(1, 4))]
    apps = {"iptv": {"channels": channels, "stbs": stbs}}
    events = []
    if rng.random() < 0.5:
        gateway("snap_hls")
        apps["hls"] = {
            "host": "tv.example.net", "chunk_duration_ms": 500,
            "bitrates_mbps": [1, 2],
            "servers": [{"name": "origin", "nap": "snap_hls",
                         "registered": True}],
            "clients": [{"name": f"client{i}", "nap": rng.choice(cnaps),
                         "start_ms": rng.randrange(200, 800),
                         "chunks": rng.randint(1, 3)}
                        for i in range(rng.randint(1, 2))]}
    if rng.random() < 0.5:
        down = rng.randrange(500, 1200)
        events += [{"kind": "link_down", "at_ms": down,
                    "link": "trunk_primary"},
                   {"kind": "link_up", "at_ms": down + rng.randrange(100, 600),
                    "link": "trunk_primary"}]
    if len(channels) > 1 and rng.random() < 0.5:
        stb = rng.choice(stbs)
        other = next(c["name"] for c in channels
                     if c["name"] != stb["channel"])
        events.append({"kind": "zap", "at_ms": rng.randrange(700, 1500),
                       "stb": stb["name"], "channel": other})
    events.sort(key=lambda e: e["at_ms"])
    fid = rng.choice([{"mode": "exact"},
                      {"mode": "bloom", "m": rng.choice([64, 128, 256]),
                       "k": rng.randint(2, 4)}])
    assert len(nodes) <= 12
    return {"name": "generated", "duration_ms": DURATION_MS,
            "params": {"seed": rng.randrange(1 << 16)}, "fid": fid,
            "topology": {"nodes": nodes, "links": links}, "apps": apps,
            "events": events}


def accepted(seed: int) -> dict:
    config = generate_scenario(random.Random(f"generated:{seed}"))
    try:
        validate_config(config)
    except ConfigError as exc:
        pytest.skip(f"the validator rejects seed {seed}: {exc}")
    return config


@pytest.mark.parametrize("seed", SEEDS)
def test_generated_scenario_runs_clean_in_both_modes(seed, tmp_path):
    config = accepted(seed)
    for mode in ("icn", "ip"):
        art = run_scenario(config, mode)
        assert art.meta["violations"] == []
        summary = summarize(art)
        assert summary["conservation"]["balanced"]
        stbs = {stb["name"] for stb in config["apps"]["iptv"]["stbs"]}
        assert set(art.events.column("stb_rx", "el")) == stbs
        quiet = run_scenario(config, mode, telemetry_enabled=False)
        quiet_bytes, art_bytes = io.BytesIO(), io.BytesIO()
        quiet.events.hash(quiet_bytes)
        art.events.hash(art_bytes)
        assert quiet_bytes.getvalue() == art_bytes.getvalue()
        assert quiet.meta["events_hash"] == art.meta["events_hash"]
        export(art, str(tmp_path / mode))
        back = import_artifacts(str(tmp_path / mode))
        assert back.events == art.events
        assert back.events.hash() == art.meta["events_hash"]
        assert back.meta == art.meta
        assert summarize(back) == summary
