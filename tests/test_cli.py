"""Command line behavior: exit codes, exports, cross-process determinism."""

import hashlib
import json
import os
import subprocess
import sys
import weakref

import pytest

from icnsim import harness, telemetry
from icnsim.cli import main


def test_list_prints_shipped_scenarios(capsys):
    assert main(["list"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out == ["coincidental_multicast", "hls_failover", "iptv_failover",
                   "trial_topology"]


def test_validate_reports_config_hash(capsys):
    assert main(["validate", "--scenario", "trial_topology"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("ok: trial_topology config_hash=")


def test_unknown_scenario_exits_2(capsys):
    assert main(["run", "--scenario", "missing"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error:")


def test_invalid_scenario_file_lists_errors(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({
        "name": "bad",
        "duration_ms": 100,
        "topology": {"nodes": [{"name": "a", "role": "starship"}]},
    }))
    assert main(["validate", "--scenario", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "role must be 'fn' or 'nap'" in err


def test_run_single_mode_prints_summary_and_hash(capsys):
    assert main(["run", "--scenario", "trial_topology", "--mode", "icn"]) == 0
    out = capsys.readouterr().out
    assert "mode: icn" in out
    assert "balanced=True" in out
    assert "[icn] events_hash=" in out


def test_run_both_modes_exports_artifact_dirs(tmp_path, capsys):
    out_root = tmp_path / "out"
    assert main(["run", "--scenario", "trial_topology", "--out",
                 str(out_root)]) == 0
    for mode in ("icn", "ip"):
        entries = sorted(os.listdir(out_root / mode))
        assert entries == ["effective_config.json", "events.jsonl",
                           "meta.json", "metrics.csv", "summary.txt"]


def test_no_telemetry_skips_samples_but_not_events(tmp_path, capsys):
    out_dir = tmp_path / "solo"
    assert main(["run", "--scenario", "trial_topology", "--mode", "icn",
                 "--out", str(out_dir), "--no-telemetry",
                 "--format", "csv"]) == 0
    csv_text = (out_dir / "metrics.csv").read_text()
    assert csv_text == "t,el,metric,value\n"
    assert "[icn] events_hash=" in capsys.readouterr().out


@pytest.mark.parametrize("fmt", ["both", "jsonl", "csv"])
def test_run_out_encodes_each_mode_once(fmt, tmp_path, capsys, monkeypatch):
    """With --out, one pass per mode encodes the log: it gives the
    events_hash in meta.json, which is the hash of a run without --out
    and of the exported event lines, and stdout is that of a run without
    --out plus the lines naming the artifact directories."""
    assert main(["run", "--scenario", "trial_topology"]) == 0
    plain = capsys.readouterr().out
    hashes = dict(line.split(" events_hash=")
                  for line in plain.splitlines() if " events_hash=" in line)
    calls = []
    encode = telemetry._encode

    def counted(*args):
        calls.append(args)
        return encode(*args)
    monkeypatch.setattr(telemetry, "_encode", counted)
    assert main(["run", "--scenario", "trial_topology", "--out",
                 str(tmp_path), "--format", fmt]) == 0
    assert len(calls) == 2
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out
            if " artifacts written to " not in line] == plain.splitlines()
    for mode in ("icn", "ip"):
        meta = json.loads((tmp_path / mode / "meta.json").read_text())
        assert meta["events_hash"] == hashes[f"[{mode}]"]
        events = tmp_path / mode / "events.jsonl"
        if fmt == "csv":
            assert not events.exists()
            continue
        lines = [line for line in events.read_bytes().splitlines(True)
                 if b'"ev":"sample"' not in line]
        assert hashlib.sha256(b"".join(lines)).hexdigest() \
            == meta["events_hash"]


def test_run_both_frees_the_first_log_before_the_second_run(monkeypatch,
                                                            capsys):
    logs = []
    run_scenario = harness.run_scenario

    def tracked(*args, **kw):
        assert [ref() for ref in logs] == [None] * len(logs)
        artifacts = run_scenario(*args, **kw)
        logs.append(weakref.ref(artifacts.events))
        return artifacts
    monkeypatch.setattr(harness, "run_scenario", tracked)
    assert main(["run", "--scenario", "trial_topology"]) == 0
    assert len(logs) == 2


def test_compare_command_round_trips_exports(tmp_path, capsys):
    root = tmp_path / "runs"
    assert main(["run", "--scenario", "trial_topology", "--out",
                 str(root)]) == 0
    capsys.readouterr()
    assert main(["compare", str(root / "icn"), str(root / "ip")]) == 0
    out = capsys.readouterr().out
    assert "scenario: trial_topology" in out
    assert "modes: icn (a) vs ip (b)" in out
    assert "link trunk_primary:" in out


def test_compare_refuses_mismatched_exports(tmp_path, capsys):
    root = tmp_path / "runs"
    main(["run", "--scenario", "trial_topology", "--mode", "icn", "--out",
          str(root / "s1")])
    main(["run", "--scenario", "trial_topology", "--mode", "icn", "--seed",
          "7", "--out", str(root / "s7")])
    capsys.readouterr()
    assert main(["compare", str(root / "s1"), str(root / "s7")]) == 2
    assert "different seeds" in capsys.readouterr().err


def _hash_in_subprocess(hashseed: str) -> str:
    env = dict(os.environ)
    env["PYTHONHASHSEED"] = hashseed
    proc = subprocess.run(
        [sys.executable, "-m", "icnsim.cli", "run", "--scenario",
         "trial_topology", "--mode", "icn"],
        capture_output=True, text=True, env=env, check=True)
    lines = [l for l in proc.stdout.splitlines()
             if l.startswith("[icn] events_hash=")]
    assert len(lines) == 1
    return lines[0].split("=", 1)[1]


def test_event_stream_identical_across_hash_randomization():
    """The run must not depend on interpreter hash order."""
    h0 = _hash_in_subprocess("0")
    h1 = _hash_in_subprocess("12345")
    assert h0 == h1
