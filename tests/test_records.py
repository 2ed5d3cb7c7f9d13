"""Record types: value semantics, and a start-up that needs no dataclasses."""

import os
import subprocess
import sys

import pytest

import icnsim
from icnsim.fabric import Packet
from icnsim.fid import FID, FidConfig
from icnsim.harness import DEFAULT_PARAMS, run_params
from icnsim.pce import PathResult
from icnsim.topology import TopologyGraph


def test_cli_and_harness_import_without_dataclasses_or_inspect():
    """Every icnsim process imports these two; dataclasses (which pulls in
    inspect, ast, dis and tokenize) would add its import and code
    generation to each process's start-up, importlib.resources (with
    pathlib, tempfile and zipfile) its import, and typing its import for
    annotations nothing reads at run time."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(icnsim.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    code = ("import sys, icnsim.cli, icnsim.harness; "
            "print(sorted({'dataclasses', 'inspect', 'importlib.resources',"
            " 'typing'} & set(sys.modules)))")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert proc.stdout.strip() == "[]"


@pytest.mark.parametrize("value, field", [
    (Packet(pid=1, kind="chunk", name="x", size=10), "size"),
    (FID(5, 8), "bits"),
    (FidConfig(m=16, k=5, mode="exact"), "m"),
    (PathResult(("a->b",), FID(1, 8), 1), "cost"),
    # one object is shared by every element of a run: none may change it
    (run_params(DEFAULT_PARAMS), "mtu"),
])
def test_immutable_records_refuse_assignment(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        value.extra = 0


def test_fid_compares_and_hashes_by_value():
    a, b = FID(0b1010, 8), FID(0b1010, 8)
    assert a == b and hash(a) == hash(b)
    assert len({a, b}) == 1
    assert FID(0b1010, 16) != a


def test_link_state_stays_assignable():
    topo = TopologyGraph()
    topo.add_node("a", "fn")
    topo.add_node("b", "fn")
    key, _ = topo.add_link("l", "a", "b", 1_000_000, 10)
    link = topo.links[key]
    link.up = False
    link.busy_until = 42
    assert (link.up, link.busy_until) == (False, 42)
    assert topo.egress("a") == (link,)
