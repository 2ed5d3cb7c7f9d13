"""Seeded mutants of shipped scenarios: the validator's boundary.

Each mutant changes one thing in trial_topology or iptv_failover: it
renames a node, link, channel or host to another existing name,
duplicates an item of a list, deletes a key, points a reference at an
unknown or non-gateway name, or gives a section the wrong JSON type.
Every mutant must either be rejected with a ConfigError or run both
modes with no raise and no violation.
"""

import copy
import random

import pytest

from icnsim.harness import (MODES, ConfigError, load_scenario, run_scenario,
                            validate_config)
from icnsim.telemetry import canonical_json

MUTANTS_PER_SCENARIO = {"trial_topology": 400, "iptv_failover": 60}

# each list of named objects, and the namespace its names are in
NAMED = {
    ("topology", "nodes"): "node",
    ("topology", "links"): "link",
    ("apps", "iptv", "channels"): "channel",
    ("apps", "hls", "servers"): "host",
    ("apps", "hls", "clients"): "host",
    ("apps", "iptv", "stbs"): "host",
}

# each list of objects, and the fields of its objects that name something
REFS = {
    ("topology", "links"): ("a", "b"),
    ("apps", "hls", "servers"): ("nap",),
    ("apps", "hls", "clients"): ("nap",),
    ("apps", "iptv", "channels"): ("nap",),
    ("apps", "iptv", "stbs"): ("nap", "channel"),
    ("events",): ("link", "server", "stb", "channel"),
}

# one value of each JSON type a section can be given in place of its own
WRONG_TYPES = (5, "x", [1], {"x": 1}, True)


def places(value, path=()):
    """(path, value) of value and of everything inside it, depth first."""
    yield path, value
    if isinstance(value, dict):
        for key in value:
            yield from places(value[key], path + (key,))
    elif isinstance(value, list):
        for i, item in enumerate(value):
            yield from places(item, path + (i,))


def at(config, path):
    for key in path:
        config = config[key]
    return config


def objects(config, path):
    """The objects of the list at path, or none when it is not there."""
    try:
        items = at(config, path)
    except (KeyError, TypeError):
        return []
    return [item for item in items if isinstance(item, dict)]


def rename(rng, config):
    names = {}
    for path, space in NAMED.items():
        for item in objects(config, path):
            names.setdefault(space, []).append((item, item["name"]))
    pairs = names[rng.choice(sorted(s for s in names if len(names[s]) > 1))]
    item, own = rng.choice(pairs)
    other = rng.choice([name for _, name in pairs if name != own])
    item["name"] = other
    return f"rename {own!r} to {other!r}"


def duplicate(rng, config):
    lists = [(path, value) for path, value in places(config)
             if isinstance(value, list) and value]
    path, items = rng.choice(lists)
    i = rng.randrange(len(items))
    items.insert(i + 1, copy.deepcopy(items[i]))
    return f"duplicate {path + (i,)}"


def delete(rng, config):
    keys = [(path, key) for path, value in places(config)
            if isinstance(value, dict) for key in value]
    path, key = rng.choice(keys)
    del at(config, path)[key]
    return f"delete {path + (key,)}"


def misref(rng, config):
    non_gateways = [n["name"] for n in config["topology"]["nodes"]
                    if n["role"] != "nap"]
    fields = [(path, i, field) for path, keys in REFS.items()
              for i, item in enumerate(objects(config, path))
              for field in keys if field in item]
    path, i, field = rng.choice(fields)
    name = rng.choice(["nowhere"] + non_gateways)
    objects(config, path)[i][field] = name
    return f"point {path + (i, field)} at {name!r}"


def mistype(rng, config):
    sections = [path for path, value in places(config)
                if path and isinstance(value, (dict, list))]
    path = rng.choice(sections)
    value = rng.choice([v for v in WRONG_TYPES
                        if type(v) is not type(at(config, path))])
    at(config, path[:-1])[path[-1]] = value
    return f"set {path} to {value!r}"


MUTATIONS = (rename, duplicate, delete, misref, mistype)


def mutants(name, count):
    """The distinct (description, mutant) pairs among count seeded
    mutants of the shipped scenario name."""
    rng = random.Random(f"mutants:{name}")
    original = load_scenario(name)
    seen = set()
    for _ in range(count):
        config = copy.deepcopy(original)
        what = rng.choice(MUTATIONS)(rng, config)
        key = canonical_json(config)
        if key not in seen:
            seen.add(key)
            yield what, config


@pytest.mark.parametrize("name", sorted(MUTANTS_PER_SCENARIO))
def test_every_mutant_is_rejected_or_runs_clean(name):
    for what, config in mutants(name, MUTANTS_PER_SCENARIO[name]):
        try:
            validate_config(config)
        except ConfigError:
            continue
        for mode in MODES:
            try:
                art = run_scenario(config, mode)
            except Exception as exc:
                pytest.fail(f"{what}: {mode} run raised {exc!r}")
            assert art.meta["violations"] == [], f"{what}: {mode}"
