"""One measured step of the benchmark, run in a fresh process.

    child.py warmup  --scenario FILE --mode MODE
    child.py run     --scenario FILE --mode MODE --out DIR --result FILE
                     [--trace] [--headline]
    child.py compare --a DIR --b DIR --result FILE [--verify]

``run`` is ``icnsim run --scenario FILE --mode MODE --out DIR`` executed
through ``icnsim.cli.main`` in this process; ``compare`` is ``icnsim
compare A B``.  Times are host seconds (time.perf_counter).  Memory is
this process's peak resident set (ru_maxrss) above its value right after
``import icnsim``.  The result goes to a JSON file; the command's own
output goes to stdout.
"""

from __future__ import annotations

import argparse
import collections
import functools
import hashlib
import json
import os
import resource
import sys
import time


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _hook(owner, attr: str, timers: dict = None, key: str = None,
          captured: dict = None):
    """Add the call time of owner.attr to timers[key] and keep its last
    return value in captured[attr]."""
    fn = getattr(owner, attr)

    @functools.wraps(fn)
    def hooked(*args, **kw):
        t0 = time.perf_counter()
        result = fn(*args, **kw)
        if timers is not None:
            timers[key] += time.perf_counter() - t0
        if captured is not None:
            captured[attr] = result
        return result
    setattr(owner, attr, hooked)


def headline(summary: dict) -> dict:
    """The model outputs a speed-only change must leave identical."""
    trunk = collections.Counter()
    for key, nbytes in summary["link_bytes"]["total"].items():
        phys = key.split(":", 1)[0]
        if phys.startswith("trunk"):
            trunk[phys] += nbytes
    stalls = summary.get("stalls", {})
    windows = [iv["us"] for ivs in summary.get("disruptions", {}).values()
               for iv in ivs]
    acq = [row["us"] for row in summary.get("acquisitions", [])]
    return {
        "trunk_bytes": dict(sorted(trunk.items())),
        "merge_ratios": {k: row["ratio"] for k, row in summary["merge_ratios"].items()},
        "stall_total_us": sum(r["total_us"] for r in stalls.values()),
        "stall_events": sum(r["events"] for r in stalls.values()),
        "disruption_windows": len(windows),
        "disruption_total_us": sum(windows),
        "disruption_max_us": max(windows, default=0),
        "acquisitions": len(acq),
        "acquisition_mean_us": round(sum(acq) / len(acq)) if acq else 0,
        "acquisition_max_us": max(acq, default=0),
    }


def layer_metrics(tracer, split: dict, artifacts, world) -> dict:
    """The per-layer metrics of one traced run, named <layer>.<metric>."""
    by, self_s = split["by_name"], split["layer_self_s"]

    def calls(*names):
        return sum(by[n]["calls"] for n in names if n in by)

    def total(*names):
        return sum(by[n]["total_s"] for n in names if n in by)

    ev = collections.Counter(rec["ev"] for rec in artifacts.events)
    m = {
        "simkernel.events": artifacts.meta["engine_events"],
        "simkernel.scheduled": tracer.scheduled,
        "simkernel.cancelled": tracer.cancelled,
        "simkernel.peak_pending": tracer.peak_pending,
        "simkernel.self_s": self_s["simkernel"],
        "topology.egress_calls": calls("topology.TopologyGraph.egress"),
        "topology.self_s": self_s["topology"],
        "fabric.injects": ev["pkt_inject"],
        "fabric.hops": ev["pkt_fwd"],
        "fabric.drops": ev["pkt_drop"],
        "fabric.self_s": self_s["fabric"],
        "apps.fetches": ev["http_req"],
        "apps.timeouts": ev["http_timeout"],
        "apps.stb_rx": ev["stb_rx"],
        "apps.self_s": self_s["apps"],
        "telemetry.records": len(artifacts.events),
        "telemetry.append_s": total("telemetry.EventLog.append"),
        "telemetry.hash_s": total("telemetry.EventLog.hash", "telemetry.Telemetry.hash"),
        "telemetry.summarize_s": total("telemetry.summarize"),
        "telemetry.export_s": total("telemetry.export"),
        "harness.validate_s": total("harness.validate_config"),
        "harness.build_s": total("harness.build_world"),
        "harness.check_s": total("harness.check.conservation_from_events",
                                 "harness.check.trace_delivery"),
    }
    if artifacts.mode == "icn":
        decisions = calls("fabric.FidNode.process")
        trees = calls("pce.Pce.build_multicast_fid")
        lookups = world.pce.cache_hits + world.pce.cache_misses
        upstream = calls("apps.HlsServer.handle_request")
        http = calls("nap.Nap.handle_http")
        m.update({
            "fabric.fwd_decisions": decisions,
            "fabric.fwd_self_s": by.get("fabric.FidNode.process", {}).get("self_s", 0.0),
            "fabric.links_tested_per_decision":
                tracer.links_tested / decisions if decisions else 0.0,
            "fabric.fwd_hit_ratio":
                tracer.links_chosen / tracer.links_tested if tracer.links_tested else 0.0,
            "_bitops.calls": sum(v["calls"] for k, v in by.items()
                                 if k.startswith("_bitops.")),
            "_bitops.self_s": self_s["_bitops"],
            "_bitops.bytes_scanned": tracer.bytes_scanned,
            "fid.encodes": calls("fid.encode_path", "fid.combine_trees"),
            "fid.self_s": self_s["fid"],
            "pce.paths_computed": calls("pce.Pce.compute_path"),
            "pce.cache_hit_ratio": world.pce.cache_hits / lookups if lookups else 0.0,
            "pce.trees_built": trees,
            "pce.receivers_per_tree": tracer.tree_receivers / trees if trees else 0.0,
            "pce.invalidations": world.pce.invalidations,
            "pce.self_s": self_s["pce"],
            "nap.http_requests": http,
            "nap.merge_ratio": http / upstream if upstream else 0.0,
            "nap.demux_calls": calls("nap.Nap.demux"),
            "nap.segments_sent": sum(rec["segments"] for rec in artifacts.events
                                     if rec["ev"] == "snap_respond"),
            "nap.self_s": self_s["nap"],
        })
    else:
        m.update({
            "ip_baseline.switch_decisions": calls("ip_baseline.IpSwitch.process"),
            "ip_baseline.floods": tracer.floods,
            "ip_baseline.table_flushes": calls("ip_baseline.IpSwitch.flush"),
            "ip_baseline.self_s": self_s["ip_baseline"],
        })
    return m


def _dir_bytes(path: str) -> int:
    return sum(os.path.getsize(os.path.join(path, f)) for f in os.listdir(path))


def cmd_warmup(args) -> dict:
    """Compile every module to .pyc and build one world; nothing timed."""
    import icnsim.cli  # noqa: F401
    from icnsim import harness
    import tracer  # noqa: F401
    effective = harness.validate_config(harness.load_scenario(args.scenario))
    harness.build_world(effective, args.mode, effective["params"]["seed"])
    return {"rc": 0}


def cmd_run(args) -> dict:
    t0 = time.perf_counter()
    import icnsim  # noqa: F401
    from icnsim import _bitops, cli, harness, simkernel, telemetry
    import_s = time.perf_counter() - t0
    rss0 = _maxrss_mb()

    timers = {"validate_s": 0.0, "build_s": 0.0, "run_until_s": 0.0}
    captured = {}
    trace = None
    if args.trace:
        from tracer import Tracer
        trace = Tracer()
        trace.install()
        _hook(harness, "build_world", captured=captured)
    else:
        _hook(harness, "validate_config", timers, "validate_s")
        _hook(harness, "build_world", timers, "build_s", captured)
        _hook(simkernel.Engine, "run_until", timers, "run_until_s")
    _hook(harness, "run_scenario", captured=captured)

    t1 = time.perf_counter()
    rc = cli.main(["run", "--scenario", args.scenario, "--mode", args.mode,
                   "--out", args.out])
    wall = time.perf_counter() - t1
    rss_mb = _maxrss_mb() - rss0
    sys.stdout.flush()
    if trace is not None:
        trace.uninstall()

    art = captured["run_scenario"]
    with open(os.path.join(args.out, telemetry.SUMMARY_FILE), "rb") as fh:
        summary_sha = hashlib.sha256(fh.read()).hexdigest()
    res = {
        "rc": rc,
        "mode": args.mode,
        "backend": _bitops.BACKEND,
        "events_hash": art.meta["events_hash"],
        "violations": art.meta["violations"],
        "engine_events": art.meta["engine_events"],
        "records": len(art.events),
        "summary_sha256": summary_sha,
        "export_bytes": _dir_bytes(args.out),
        "import_s": import_s,
        "wall_s": wall,
        "rss_mb": rss_mb,
    }
    if trace is None:
        res.update(timers)
        res["setup_s"] = import_s + timers["validate_s"] + timers["build_s"]
        res["run_s"] = wall - timers["validate_s"] - timers["build_s"]
    else:
        split = trace.split()
        res["layers"] = layer_metrics(trace, split, art, captured["build_world"])
        res["layers"]["telemetry.export_bytes"] = res["export_bytes"]
        res["spans"] = split["spans"]
        res["top_level_s"] = split["top_level_s"]
        res["layer_self_s"] = split["layer_self_s"]
        res["root_spans"] = sum(v["calls"] for k, v in split["by_name"].items()
                                if ".event." in k)
        res["by_name"] = split["by_name"]
        trace.dump(args.out.rstrip("/") + ".spans.bin")
    if args.headline:
        res["headline"] = headline(telemetry.summarize(art))
    return res


def cmd_compare(args) -> dict:
    import icnsim  # noqa: F401
    from icnsim import cli, telemetry
    imported = []
    import_s = []
    load = telemetry.import_artifacts

    def timed_import(outdir):
        t0 = time.perf_counter()
        art = load(outdir)
        import_s.append(time.perf_counter() - t0)
        imported.append(art)
        return art
    telemetry.import_artifacts = timed_import

    t1 = time.perf_counter()
    rc = cli.main(["compare", args.a, args.b])
    compare_s = time.perf_counter() - t1
    sys.stdout.flush()
    res = {"rc": rc, "compare_s": compare_s, "import_s": import_s}
    if args.verify:
        res["roundtrip"] = [telemetry.events_hash(a.events) == a.meta["events_hash"]
                            for a in imported]
    return res


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="child.py")
    parser.add_argument("command", choices=("warmup", "run", "compare"))
    parser.add_argument("--scenario")
    parser.add_argument("--mode", choices=("icn", "ip"))
    parser.add_argument("--out")
    parser.add_argument("--a")
    parser.add_argument("--b")
    parser.add_argument("--result")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--headline", action="store_true")
    parser.add_argument("--verify", action="store_true")
    args = parser.parse_args(argv)
    res = {"warmup": cmd_warmup, "run": cmd_run, "compare": cmd_compare}[
        args.command](args)
    if args.result:
        with open(args.result, "w") as fh:
            json.dump(res, fh, indent=1, sort_keys=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
