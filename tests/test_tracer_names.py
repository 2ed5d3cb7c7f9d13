"""The benchmark's span tracer (e2ebench/tracer.py) patches the package by
name; every name it patches must still exist, or a deletion here breaks
the benchmark, which tier-1 does not run."""

import importlib
import importlib.util
from pathlib import Path

from icnsim import _bitops

TRACER = Path(__file__).resolve().parents[1] / "e2ebench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("e2ebench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_resolves():
    tracer = load_tracer()
    missing = []
    for layer, path in tracer.ENTRY_POINTS:
        owner = importlib.import_module(f"icnsim.{layer}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        # the tracer reads owner.__dict__, so inherited names do not count
        if attr not in getattr(owner, "__dict__", {}):
            missing.append(f"{layer}.{path}")
    harness = importlib.import_module("icnsim.harness")
    missing += [f"harness.{name}" for name in tracer.HARNESS_CHECKS
                if name not in harness.__dict__]
    assert missing == []
    assert _bitops.BACKEND == "pure"


def test_tracer_installs_and_uninstalls():
    tracer = load_tracer().Tracer()
    engine_cls = importlib.import_module("icnsim.simkernel").Engine
    schedule = engine_cls.__dict__["schedule"]
    try:
        tracer.install()
        assert engine_cls.__dict__["schedule"] is not schedule
    finally:
        tracer.uninstall()
    assert engine_cls.__dict__["schedule"] is schedule
