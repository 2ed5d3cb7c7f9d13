"""End-to-end benchmark of icnsim: one workload in both modes.

Run from the repository root:

    python3 e2ebench/run.py --workload iptv_failover --seed 1 --seconds 30 --trace 0

One repetition runs ``icnsim run`` in icn mode, then in ip mode, then
``icnsim compare`` of the two exported directories, each in a fresh child
process, one at a time.  Repetitions run for about --seconds; every
end-to-end metric is the median over repetitions.  With
--trace 1 the two modes are then run once more under the span tracer and
the per-layer metrics are reported instead.  The last line of stdout is
one JSON object: correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
CHILD = os.path.join(HERE, "child.py")
MODES = ("icn", "ip")
CHILD_TIMEOUT_S = 150
# The whole run, traced passes included, must end well inside 180 s.
BUDGET_S = 160

END_TO_END_UNITS = {"setup_s": "s", "icn_run_s": "s", "ip_run_s": "s",
                    "compare_s": "s", "icn_rss_mb": "MB", "ip_rss_mb": "MB"}


def unit_of(name: str) -> str:
    """Unit of a per-layer metric, from its name."""
    if name.endswith("us_per_event"):
        return "us"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_bytes", "_b", "bytes_scanned")):
        return "B"
    if name.endswith("ratio"):
        return "ratio"
    return "count"


def environment() -> dict:
    """What a result depends on besides the code under test."""
    commit = None
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    pkg = os.path.join(SRC, "icnsim")
    for dirpath, dirnames, filenames in os.walk(pkg):
        dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
        for name in sorted(filenames):
            path = os.path.join(dirpath, name)
            digest.update(os.path.relpath(path, pkg).encode())
            with open(path, "rb") as fh:
                digest.update(fh.read())
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "loadavg_start": os.getloadavg(),
    }


class Bench:
    """Runs children for one (workload, seed) and keeps their results."""

    def __init__(self, workload: str, seed: int, out: str):
        self.workload = workload
        self.seed = seed
        self.out = out
        self.scenario = os.path.join(out, f"{workload}-seed{seed}.json")
        path = os.environ.get("PYTHONPATH")
        self.env = dict(os.environ,
                        PYTHONPATH=SRC + (os.pathsep + path if path else ""))
        self.attempted = 0
        self.failed: set = set()
        self.failures: list[str] = []

    def fail(self, label: str, message: str) -> None:
        self.failed.add(label)
        self.failures.append(f"{label}: {message}")

    def child(self, tag: str, label: str, argv: list, measured: bool = True):
        """Run one child; returns its result dict, or None if it failed.
        Files are named by tag, which later repetitions reuse; failures
        are counted by label, which is unique per run."""
        result = os.path.join(self.out, f"{tag}.json")
        if os.path.exists(result):
            os.remove(result)
        if measured:
            self.attempted += 1
        try:
            with open(os.path.join(self.out, f"{tag}.log"), "w") as log:
                proc = subprocess.run(
                    [sys.executable, CHILD] + argv + ["--result", result],
                    stdout=log, stderr=subprocess.STDOUT, env=self.env,
                    cwd=ROOT, timeout=CHILD_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            self.fail(label, f"timed out after {CHILD_TIMEOUT_S} s")
            return None
        if proc.returncode != 0 or not os.path.exists(result):
            self.fail(label, f"exit code {proc.returncode}, see {tag}.log")
            return None
        with open(result) as fh:
            res = json.load(fh)
        res["label"] = label
        if res["rc"] != 0:
            self.fail(label, f"icnsim exit code {res['rc']}")
            return None
        return res

    def run_mode(self, tag: str, label: str, mode: str, extra: list):
        res = self.child(tag, label, [
            "run", "--scenario", self.scenario, "--mode", mode,
            "--out", os.path.join(self.out, tag)] + extra)
        if res is not None and res["violations"]:
            self.fail(label, f"invariant violations {res['violations']}")
            return None
        return res

    def repetition(self, i: int) -> dict:
        rep = {}
        for mode in MODES:
            rep[mode] = self.run_mode(mode, f"rep{i}.{mode}", mode,
                                      ["--headline"] if i == 0 else [])
        rep["compare"] = None
        if rep["icn"] is not None and rep["ip"] is not None:
            label = f"rep{i}.compare"
            res = self.child("compare", label, [
                "compare", "--a", os.path.join(self.out, "icn"),
                "--b", os.path.join(self.out, "ip")]
                + (["--verify"] if i == 0 else []))
            if res is not None and not all(res.get("roundtrip", [True])):
                self.fail(label, "exported events_hash does not survive import")
                res = None
            rep["compare"] = res
        return rep

    def check_hashes(self, reps: list, traced: dict, expected: dict) -> None:
        """Pinned hashes, agreement of repeats, traced equals untraced."""
        by_seed = expected.get(self.workload, {})
        pinned = by_seed.get(str(self.seed), by_seed.get("any", {}))
        for mode in MODES:
            runs = [r[mode] for r in reps if r[mode] is not None]
            runs += [traced[mode]] if traced.get(mode) else []
            if not runs:
                continue
            first = runs[0]
            for r in runs:
                if mode in pinned and r["events_hash"] != pinned[mode]:
                    self.fail(r["label"], f"events_hash {r['events_hash'][:12]}"
                              f" != pinned {pinned[mode][:12]}")
                if r["events_hash"] != first["events_hash"]:
                    self.fail(r["label"], "events_hash differs from "
                              f"{first['label']} on the same input")
                if r["summary_sha256"] != first["summary_sha256"]:
                    self.fail(r["label"], "summary differs from "
                              f"{first['label']} on the same input")
            t = traced.get(mode)
            if t is not None and t["root_spans"] != t["engine_events"]:
                self.fail(t["label"], f"tracer saw {t['root_spans']} events, "
                          f"engine ran {t['engine_events']}")


def median(values):
    return statistics.median(values) if values else None


def samples_by_metric(reps: list) -> dict:
    """Every sample of every end-to-end metric, one per repetition."""
    ok = [r for r in reps if r["icn"] and r["ip"]]
    return {
        "setup_s": [r["icn"]["setup_s"] + r["ip"]["setup_s"] for r in ok],
        "icn_run_s": [r["icn"]["run_s"] for r in reps if r["icn"]],
        "ip_run_s": [r["ip"]["run_s"] for r in reps if r["ip"]],
        "compare_s": [r["compare"]["compare_s"] for r in reps if r["compare"]],
        "icn_rss_mb": [r["icn"]["rss_mb"] for r in reps if r["icn"]],
        "ip_rss_mb": [r["ip"]["rss_mb"] for r in reps if r["ip"]],
    }


def per_layer(reps: list, traced: dict) -> dict:
    """Traced-run metrics plus those taken from the untraced repetitions."""
    out = {}
    for idx, mode in enumerate(MODES):
        t = traced.get(mode)
        runs = [r[mode] for r in reps if r[mode]]
        imports = [r["compare"]["import_s"][idx] for r in reps if r["compare"]]
        if t is None or not runs:
            continue
        layers = dict(t["layers"])
        layers["simkernel.us_per_event"] = (
            median([r["run_until_s"] for r in runs]) / t["engine_events"] * 1e6)
        layers["telemetry.rss_per_record_b"] = (
            median([r["rss_mb"] for r in runs]) * 2**20 / t["records"])
        if imports:
            layers["telemetry.import_s"] = median(imports)
        layers["trace.overhead_s"] = t["wall_s"] - median([r["wall_s"] for r in runs])
        for name, value in layers.items():
            out[f"{mode}.{name}"] = value
    return out


def main(argv=None) -> int:
    sys.path.insert(0, HERE)
    import workloads
    parser = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.GENERATORS))
    parser.add_argument("--seed", type=int, default=workloads.DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "icnsim", "__init__.py")):
        print(f"error: icnsim sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)

    # Children inherit this: every measured process runs on one CPU, the
    # highest-numbered one, where the system's own work is least likely.
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    t_start = time.monotonic()
    out = os.path.join(HERE, "out", f"{args.workload}-seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    bench = Bench(args.workload, args.seed, out)
    workloads.write_scenario(args.workload, args.seed, bench.scenario)
    env = environment()
    with open(os.path.join(HERE, "expected.json")) as fh:
        expected = json.load(fh)

    bench.child("warmup", "warmup", ["warmup", "--scenario", bench.scenario,
                                        "--mode", "icn"], measured=False)
    reps = []
    t0 = time.monotonic()
    while True:
        t_rep = time.monotonic()
        reps.append(bench.repetition(len(reps)))
        now = time.monotonic()
        rep_s = now - t_rep
        reserve = 3 * rep_s if args.trace else 0.0
        # another repetition starts only while half of one fits the window
        if (now - t0 + rep_s / 2 >= args.seconds
                or now - t_start + rep_s + reserve > BUDGET_S):
            break
    measured_s = time.monotonic() - t0
    traced = {}
    if args.trace:
        for mode in MODES:
            traced[mode] = bench.run_mode(f"traced_{mode}", f"traced.{mode}",
                                          mode, ["--trace"])
    bench.check_hashes(reps, traced, expected)

    backends = {r[m]["backend"] for r in reps for m in MODES if r[m]}
    env.update(backend=sorted(backends), cpu=cpu, loadavg_end=os.getloadavg(),
               repetitions=len(reps), measured_s=measured_s)
    samples = samples_by_metric(reps)
    if args.trace:
        values = per_layer(reps, traced)
        metrics = {k: {"value": v, "unit": unit_of(k)} for k, v in values.items()}
    else:
        metrics = {k: {"value": median(v), "unit": END_TO_END_UNITS[k]}
                   for k, v in samples.items() if v}

    print(f"workload {args.workload} seed {args.seed}: {workloads.WHY[args.workload]}")
    print(f"env {json.dumps(env, sort_keys=True)}")
    if backends != {expected.get('backend')}:
        print(f"WARNING: bit kernel backend {sorted(backends)} differs from the "
              f"'{expected.get('backend')}' backend of the pinned results; "
              "do not compare these timings with theirs")
    for name, vals in samples.items():
        if vals:
            q = statistics.quantiles(vals, n=4) if len(vals) > 1 else [vals[0]] * 3
            print(f"{name}: median {median(vals):.4f} {END_TO_END_UNITS[name]} "
                  f"q1 {q[0]:.4f} q3 {q[2]:.4f} n {len(vals)}")
    for mode in MODES:
        first = next((r[mode] for r in reps if r[mode]), None)
        if first is not None:
            print(f"events_hash[{mode}] {first['events_hash']}")
            if "headline" in first:
                print(f"headline[{mode}] {json.dumps(first['headline'], sort_keys=True)}")
    if args.trace:
        for name in sorted(metrics):
            print(f"{name}: {metrics[name]['value']:.6g} {metrics[name]['unit']}")
    for failure in bench.failures:
        print(f"FAILED {failure}")

    result = {"correct": not bench.failures, "attempted": bench.attempted,
              "failed": len(bench.failed), "metrics": metrics}
    record = dict(result, workload=args.workload, seed=args.seed,
                  trace=args.trace, env=env, samples=samples,
                  failures=bench.failures,
                  headline={m: r[m].get("headline") for m in MODES
                            for r in reps[:1] if r[m]},
                  traced={m: t["by_name"] for m, t in traced.items() if t})
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    with open(os.path.join(HERE, "out", "trajectory.jsonl"), "a") as fh:
        fh.write(json.dumps({k: v for k, v in record.items() if k != "traced"},
                            sort_keys=True) + "\n")
    if not metrics:
        print("error: no run succeeded", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
