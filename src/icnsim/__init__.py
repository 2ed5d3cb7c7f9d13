"""icnsim: deterministic simulator of an IP-over-ICN edge network.

The package models two data planes over one shared topology and workload:

* an information-centric core where a central path computation element
  encodes forwarding state into per-packet bit vectors, gateways translate
  IP/HTTP/IGMP traffic into publish/subscribe operations, and identical
  concurrent requests merge into multicast deliveries; and
* a conventional IP baseline with spanning-tree switches, IGMP snooping
  and DNS-based server failover.

Runs are discrete-event simulations on an integer-microsecond clock and
are bit-reproducible for a fixed (scenario, seed, mode) triple.
"""

__version__ = "0.1.0"
