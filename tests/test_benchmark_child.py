"""The benchmark's child process (e2ebench/child.py) reads what a run
returns: the event log as record dicts, its length, the events_hash of
an imported log.  The events_hash it pins is the sha256 of the exported
events.jsonl.  Tier-1 does not run the benchmark, so this runs the
unedited child, traced and untraced, on a small shipped scenario."""

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from test_acceptance import PINNED_EVENTS_HASH

ROOT = Path(__file__).resolve().parents[1]
CHILD = ROOT / "e2ebench" / "child.py"
SCENARIO = "trial_topology"


def child(tmp_path, name, *args) -> dict:
    result = tmp_path / f"{name}.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, str(CHILD), *args, "--result", str(result)],
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(result.read_text())


def events_file(outdir: Path) -> tuple:
    """The line count and sha256 of the exported events.jsonl."""
    data = (outdir / "events.jsonl").read_bytes()
    return data.count(b"\n"), hashlib.sha256(data).hexdigest()


def test_child_runs_and_compares_the_shipped_scenario(tmp_path):
    runs = {}
    for mode, traced in (("icn", False), ("ip", True)):
        out = tmp_path / mode
        res = child(tmp_path, mode, "run", "--scenario", SCENARIO,
                    "--mode", mode, "--out", str(out), "--headline",
                    *(["--trace"] if traced else []))
        assert res["rc"] == 0, (mode, res)
        assert res["violations"] == []
        assert res["events_hash"] == PINNED_EVENTS_HASH[(SCENARIO, mode)]
        lines, digest = events_file(out)
        assert res["records"] == lines > 0
        assert digest == res["events_hash"]
        assert res["headline"]["merge_ratios"]
        if traced:
            assert res["layers"]["telemetry.records"] == res["records"]
            assert res["layers"]["fabric.hops"] > 0
        runs[mode] = out
    res = child(tmp_path, "compare", "compare", "--a", str(runs["icn"]),
                "--b", str(runs["ip"]), "--verify")
    assert res["rc"] == 0
    assert res["roundtrip"] == [True, True]
