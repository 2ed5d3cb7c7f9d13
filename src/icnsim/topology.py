"""Directed multigraph of forwarding elements.

A physical link between two nodes is modelled as two independent directed
links that fail together.  Parallel physical links between the same node
pair are allowed (e.g. a primary and a backup trunk); deterministic
tie-breaks therefore order links by insertion index, and nodes by their
insertion index as well.  Each node's egress links are one tuple, built
as links are added; egress() returns it without copying.  Nodes and
topology events are immutable tuples; a Link's state (up, up_since,
busy_until) changes in place.
"""

from __future__ import annotations

from collections import namedtuple

ROLE_FN = "fn"
ROLE_NAP = "nap"
ROLES = (ROLE_FN, ROLE_NAP)


class Node(namedtuple("Node", "name role index")):
    __slots__ = ()


class Link:
    """One direction of a physical link.

    reverse is the key of the opposite direction of the same physical
    link.  A link starts up and idle; up_since is the time it last came
    up (packets whose transmission started before it are lost in flight);
    busy_until is the serialization queue tail (absolute virtual time).
    """

    __slots__ = ("key", "physical", "src", "dst", "capacity_bps",
                 "latency_us", "index", "reverse", "up", "up_since",
                 "busy_until")

    def __init__(self, key: str, physical: str, src: str, dst: str,
                 capacity_bps: int, latency_us: int, index: int,
                 reverse: str):
        self.key = key
        self.physical = physical
        self.src = src
        self.dst = dst
        self.capacity_bps = capacity_bps
        self.latency_us = latency_us
        self.index = index
        self.reverse = reverse
        self.up = True
        self.up_since = 0
        self.busy_until = 0


class TopologyEvent(namedtuple("TopologyEvent", "physical up directed_keys")):
    """State change of a physical link, as reported to control planes."""

    __slots__ = ()


class TopologyGraph:
    """Mutable topology with an epoch counter bumped on every link event."""

    def __init__(self):
        self.nodes: dict[str, Node] = {}
        self.links: dict[str, Link] = {}
        self.physical: dict[str, tuple[str, str]] = {}
        # node -> its egress links in insertion order, built by add_link
        self._egress: dict[str, tuple[Link, ...]] = {}
        self.epoch: int = 0

    def add_node(self, name: str, role: str) -> Node:
        if role not in ROLES:
            raise ValueError(f"unknown role {role!r}")
        if name in self.nodes:
            raise ValueError(f"duplicate node {name!r}")
        node = Node(name, role, len(self.nodes))
        self.nodes[name] = node
        self._egress[name] = ()
        return node

    def add_link(self, physical: str, a: str, b: str,
                 capacity_bps: int, latency_us: int) -> tuple[str, str]:
        """Add a bidirectional physical link as two directed links."""
        if physical in self.physical:
            raise ValueError(f"duplicate link {physical!r}")
        for end in (a, b):
            if end not in self.nodes:
                raise ValueError(f"link {physical!r} references unknown node {end!r}")
        if capacity_bps <= 0 or latency_us < 0:
            raise ValueError(f"link {physical!r} has invalid capacity/latency")
        key_ab = f"{physical}:{a}->{b}"
        key_ba = f"{physical}:{b}->{a}"
        for key, reverse, src, dst in ((key_ab, key_ba, a, b),
                                       (key_ba, key_ab, b, a)):
            link = Link(key, physical, src, dst, capacity_bps, latency_us,
                        index=len(self.links), reverse=reverse)
            self.links[key] = link
            self._egress[src] += (link,)
        self.physical[physical] = (key_ab, key_ba)
        return key_ab, key_ba

    def egress(self, node: str) -> tuple[Link, ...]:
        """Egress links of a node, in insertion order."""
        return self._egress[node]

    def set_link_state(self, physical: str, up: bool, at_us: int) -> TopologyEvent:
        """Flip both directions of a physical link; bumps the epoch."""
        keys = self.physical.get(physical)
        if keys is None:
            raise KeyError(f"unknown physical link {physical!r}")
        for k in keys:
            link = self.links[k]
            if up and not link.up:
                link.up_since = at_us
            link.up = up
        self.epoch += 1
        return TopologyEvent(physical, up, keys)

    def sorted_link_keys(self) -> list[str]:
        """Directed link keys in index order, which is insertion order."""
        return list(self.links)

    def node_list(self) -> list[Node]:
        """Nodes in index order, which is insertion order."""
        return list(self.nodes.values())
