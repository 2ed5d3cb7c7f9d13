"""Tests of the benchmark itself.

Run from the repository root:  python3 -m pytest e2ebench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path[:0] = [HERE, SRC]

import run  # noqa: E402
import workloads  # noqa: E402
from icnsim import harness  # noqa: E402

SEEDS = (workloads.DEFAULT_SEED, 2, workloads.HELD_OUT_SEED)
# Share of a traced run's wall time that spans may leave unattributed:
# argument parsing, scenario loading and result assembly in the cli.
UNATTRIBUTED_TOLERANCE = 0.03


def declared():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env():
    return dict(os.environ, PYTHONPATH=SRC)


@pytest.mark.parametrize("workload", sorted(workloads.GENERATORS))
def test_generator_is_reproducible_and_valid(workload, tmp_path):
    for seed in SEEDS:
        config = workloads.generate(workload, seed)
        assert config == workloads.generate(workload, seed)
        harness.validate_config(config)
        path = str(tmp_path / f"{workload}-{seed}.json")
        assert workloads.write_scenario(workload, seed, path) == config
        assert harness.load_scenario(path) == config
    differs = workloads.generate(workload, 1) != workloads.generate(workload, 2)
    assert differs == (workload != "iptv_failover")


def test_iptv_scale_has_wide_identifiers():
    effective = harness.validate_config(workloads.generate("iptv_scale", 1))
    directed = 2 * len(effective["topology"]["links"])
    assert effective["fid"]["mode"] == "exact"
    assert effective["fid"]["m"] >= 2 * directed
    assert effective["fid"]["m"] > 256


def test_workloads_match_declaration():
    names = [w["name"] for w in declared()["workloads"]]
    assert sorted(names) == sorted(workloads.GENERATORS) == sorted(workloads.WHY)


@pytest.mark.parametrize("mode", ["icn", "ip"])
def test_layer_self_times_sum_to_traced_wall_time(mode, tmp_path):
    scenario = str(tmp_path / "scenario.json")
    workloads.write_scenario("hls_crowd", 1, scenario)
    results = {}
    for kind in ("plain", "traced"):
        result = str(tmp_path / f"{kind}.json")
        argv = [sys.executable, os.path.join(HERE, "child.py"), "run",
                "--scenario", scenario, "--mode", mode,
                "--out", str(tmp_path / kind), "--result", result]
        subprocess.run(argv + (["--trace"] if kind == "traced" else []),
                       check=True, env=child_env(), cwd=ROOT,
                       stdout=subprocess.DEVNULL, timeout=120)
        with open(result) as fh:
            results[kind] = json.load(fh)
    traced = results["traced"]
    assert traced["events_hash"] == results["plain"]["events_hash"]
    assert traced["root_spans"] == traced["engine_events"]
    self_sum = sum(traced["layer_self_s"].values())
    assert self_sum == pytest.approx(traced["top_level_s"], rel=1e-6)
    assert abs(traced["wall_s"] - self_sum) <= UNATTRIBUTED_TOLERANCE * traced["wall_s"]
    assert all(v >= 0 for v in traced["layer_self_s"].values())


def test_tracer_spans_round_trip(tmp_path):
    from tracer import Tracer, read_spans
    t = Tracer()
    outer = t.wrap(lambda: inner(), "harness.outer")
    inner = t.wrap(lambda: None, "fabric.inner")
    outer()
    split = t.split()
    assert split["by_name"]["harness.outer"]["calls"] == 1
    assert split["layer_self_s"]["harness"] + split["layer_self_s"]["fabric"] \
        == pytest.approx(split["top_level_s"])
    path = str(tmp_path / "spans.bin")
    t.dump(path)
    spans = read_spans(path)
    assert list(spans["parent"]) == [-1, 0]
    assert [spans["names"][i] for i in spans["name"]] == ["harness.outer", "fabric.inner"]
    assert spans["end"][0] >= spans["end"][1] >= spans["start"][1] >= spans["start"][0]


def test_wrong_hash_fails_the_run(tmp_path):
    bench = run.Bench("hls_crowd", 1, str(tmp_path))
    good = {"events_hash": "a" * 64, "summary_sha256": "s"}
    reps = [{"icn": dict(good, label="rep0.icn"), "ip": dict(good, label="rep0.ip")},
            {"icn": dict(good, label="rep1.icn"),
             "ip": dict(good, label="rep1.ip", events_hash="b" * 64)}]
    bench.check_hashes(reps, {}, {"hls_crowd": {"1": {"icn": "c" * 64}}})
    assert bench.failed == {"rep0.icn", "rep1.icn", "rep1.ip"}


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_are_declared(trace):
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", "hls_crowd",
         "--seed", "3", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, cwd=ROOT, timeout=170, check=True)
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    table = declared()["per_layer" if trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in table}
    assert set(result["metrics"]) == set(units)
    for name, metric in result["metrics"].items():
        assert metric["unit"] == units[name]
        assert isinstance(metric["value"], (int, float))
    printed = {line.split(":", 1)[0] for line in lines[:-1]
               if line.split(":", 1)[0] in units or line.startswith(("icn.", "ip."))}
    assert printed <= set(units)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "hls_crowd",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        capture_output=True, text=True, cwd=tmp_path, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
