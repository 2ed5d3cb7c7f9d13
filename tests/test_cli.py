"""Command line behavior: exit codes, exports, cross-process determinism."""

import hashlib
import json
import os
import shutil
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


# (where in trial_topology, the mistyped value it gets): each is a JSON
# value of the wrong type for its place, and each is one more config error
MISTYPED = {
    "top_level_list": ((), [1]),
    "params_list": (("params",), [1]),
    "fid_list": (("fid",), [1]),
    "apps_list": (("apps",), [1]),
    "events_not_a_list": (("events",), 5),
    "event_number": (("events",), [5]),
    "topology_list": (("topology",), [1]),
    "nodes_object": (("topology", "nodes"), {"a": 1}),
    "node_number": (("topology", "nodes", 0), 7),
    "node_name_list": (("topology", "nodes", 0, "name"), ["x"]),
    "link_number": (("topology", "links", 0), 7),
    "link_end_list": (("topology", "links", 0, "a"), ["x"]),
    "hls_list": (("apps", "hls"), [1]),
    "hls_host_list": (("apps", "hls", "host"), ["x"]),
    "hls_bitrates_nested": (("apps", "hls", "bitrates_mbps"), [[2]]),
    "hls_bitrates_number": (("apps", "hls", "bitrates_mbps"), 5),
    "server_number": (("apps", "hls", "servers", 0), 7),
    "server_nap_list": (("apps", "hls", "servers", 0, "nap"), ["x"]),
    "client_number": (("apps", "hls", "clients", 0), 7),
    "client_name_list": (("apps", "hls", "clients", 0, "name"), ["x"]),
    "iptv_number": (("apps", "iptv"), 5),
    "channel_number": (("apps", "iptv", "channels", 0), 7),
    "channel_name_list": (("apps", "iptv", "channels", 0, "name"), ["x"]),
    "stb_number": (("apps", "iptv", "stbs", 0), 7),
    "stb_channel_list": (("apps", "iptv", "stbs", 0, "channel"), ["x"]),
}


@pytest.mark.parametrize("command", ["validate", "run"])
@pytest.mark.parametrize("case", sorted(MISTYPED))
def test_mistyped_scenario_structure_is_a_config_error(tmp_path, capsys,
                                                       case, command):
    """A scenario file that is valid JSON of the wrong shape exits 2 with
    config errors, never with a traceback and exit 1, which the CLI keeps
    for invariant violations."""
    path, value = MISTYPED[case]
    scenario = harness.load_scenario("trial_topology")
    if path:
        place = scenario
        for key in path[:-1]:
            place = place[key]
        place[path[-1]] = value
    else:
        scenario = value
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(scenario))
    assert main([command, "--scenario", str(bad)]) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("config error:")
    assert "Traceback" not in captured.err
    assert captured.out == ""


def test_unreadable_scenario_file_is_a_config_error(tmp_path, capsys):
    """An OSError other than a missing file, here a name too long for the
    file system, is a config error too."""
    assert main(["validate", "--scenario",
                 str(tmp_path / ("x" * 300 + ".json"))]) == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: cannot read scenario file ")


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
                 "--out", str(out_dir), "--no-telemetry"]) == 0
    csv_text = (out_dir / "metrics.csv").read_text()
    assert csv_text == "t,el,metric,value\n"
    assert "[icn] events_hash=" in capsys.readouterr().out


@pytest.mark.parametrize("checked", ["both", "jsonl", "csv"])
def test_run_out_encodes_each_mode_once(checked, tmp_path, capsys,
                                        monkeypatch):
    """With --out, one pass per mode encodes the log: it gives the
    events_hash in meta.json, which is the hash of a run without --out,
    and stdout is that of a run without --out plus the lines naming the
    artifact directories.  Each case then checks the exported files that
    it names against meta.json: the whole events.jsonl against
    events_hash, the samples read back from metrics.csv against
    samples_hash, or both."""
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
                 str(tmp_path)]) == 0
    assert len(calls) == 2
    out = capsys.readouterr().out.splitlines()
    assert [line for line in out
            if " artifacts written to " not in line] == plain.splitlines()
    for mode in ("icn", "ip"):
        meta = json.loads((tmp_path / mode / "meta.json").read_text())
        assert meta["events_hash"] == hashes[f"[{mode}]"]
        if checked in ("both", "jsonl"):
            events = (tmp_path / mode / "events.jsonl").read_bytes()
            assert hashlib.sha256(events).hexdigest() == meta["events_hash"]
        if checked in ("both", "csv"):
            back = telemetry.import_artifacts(str(tmp_path / mode))
            assert hashlib.sha256(telemetry.encode_lines(back.samples)) \
                .hexdigest() == meta["samples_hash"]


def test_run_refuses_the_removed_format_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["run", "--scenario", "trial_topology", "--format", "csv"])
    assert exc.value.code == 2
    assert "--format" in capsys.readouterr().err


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


def remove_dir(outdir):
    shutil.rmtree(outdir)


def remove_metrics(outdir):
    (outdir / "metrics.csv").unlink()


def append_partial_record(outdir):
    with open(outdir / "events.jsonl", "ab") as fh:
        fh.write(b'{"t":1,\n')


def append_sample_record(outdir):
    # the layout of older exports, which appended the samples as records
    with open(outdir / "events.jsonl", "ab") as fh:
        fh.write(b'{"el":"sw","ev":"sample","metric":"drops","t":1,'
                 b'"value":2}\n')


def append_float_sample(outdir):
    with open(outdir / "metrics.csv", "a") as fh:
        fh.write("1,sw,drops,2.5\n")


def empty_metrics(outdir):
    (outdir / "metrics.csv").write_text("")


def append_non_object_record(outdir):
    with open(outdir / "events.jsonl", "ab") as fh:
        fh.write(b"5\n")


def not_an_object(name):
    def damage(outdir):
        (outdir / name).write_text("[5]")
    damage.__name__ = f"{name.split('.')[0]}_not_an_object"
    return damage


def meta_without(key):
    def damage(outdir):
        meta = json.loads((outdir / "meta.json").read_text())
        del meta[key]
        (outdir / "meta.json").write_text(json.dumps(meta))
    damage.__name__ = f"meta_without_{key}"
    return damage


@pytest.fixture(scope="module")
def exported(tmp_path_factory):
    root = tmp_path_factory.mktemp("exported")
    assert main(["run", "--scenario", "trial_topology", "--out",
                 str(root)]) == 0
    return root


@pytest.mark.parametrize("damage", [
    remove_dir, remove_metrics, append_partial_record, append_sample_record,
    append_float_sample, empty_metrics, append_non_object_record,
    meta_without("mode"), meta_without("seed"), meta_without("scenario"),
    meta_without("config_hash"), not_an_object("meta.json"),
    not_an_object("effective_config.json")])
def test_compare_refuses_a_directory_it_cannot_import(damage, exported,
                                                      tmp_path, capsys):
    """compare exits 2 with one config error naming the directory, not
    with a traceback."""
    root = tmp_path / "runs"
    shutil.copytree(exported, root)
    capsys.readouterr()
    damage(root / "ip")
    assert main(["compare", str(root / "icn"), str(root / "ip")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    err = captured.err.splitlines()
    assert len(err) == 1
    assert err[0].startswith(f"config error: cannot import {root / 'ip'}: ")


def without_params(config):
    del config["params"]


def one_more_ms(config):
    config["duration_ms"] += 1


@pytest.fixture(scope="module")
def exported_failover(tmp_path_factory):
    root = tmp_path_factory.mktemp("failover")
    assert main(["run", "--scenario", "iptv_failover", "--out",
                 str(root)]) == 0
    return root


@pytest.mark.parametrize("edit", [without_params, one_more_ms])
def test_compare_refuses_a_config_edited_after_export(
        edit, exported_failover, tmp_path, capsys):
    """The summaries read each run's effective_config.json, so one that
    no longer hashes to its meta.json config_hash is refused with one
    config error, not summarized (a config without params once raised
    KeyError: 'mtu')."""
    root = tmp_path / "runs"
    shutil.copytree(exported_failover, root)
    capsys.readouterr()
    assert main(["compare", str(root / "icn"), str(root / "ip")]) == 0
    intact = capsys.readouterr().out
    path = root / "ip" / "effective_config.json"
    config = json.loads(path.read_text())
    edit(config)
    path.write_text(json.dumps(config))
    assert main(["compare", str(root / "icn"), str(root / "ip")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: refusing to compare runs: the ip run's effective "
        "config does not hash to its config_hash"]
    assert intact.startswith("scenario: iptv_failover\n")


def test_compare_refuses_a_log_whose_arrivals_go_back_in_time(
        exported_failover, tmp_path, capsys):
    """The disruption fold takes each box's arrivals in time order, as a
    run logs them; a log edited to break that is refused with one config
    error, not a traceback."""
    root = tmp_path / "runs"
    shutil.copytree(exported_failover, root)
    path = root / "ip" / "events.jsonl"
    lines = path.read_text().splitlines(keepends=True)
    last = json.loads(next(line for line in reversed(lines)
                           if '"ev":"stb_rx"' in line))
    late = {**last, "t": last["t"] - 1}
    path.write_text("".join(lines) + telemetry.canonical_json(late) + "\n")
    capsys.readouterr()
    assert main(["compare", str(root / "icn"), str(root / "ip")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [
        "config error: refusing to compare runs: the ip run's log does not "
        f"reduce: {last['el']}: arrival at {last['t'] - 1} after one at "
        f"{last['t']}"]


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
