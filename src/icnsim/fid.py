"""Forwarding identifiers: bit-vector encodings of link sets.

Every directed link carries a fixed-width link identifier.  In exact mode
each link owns one globally unique bit, so a forwarding identifier (FID)
built by ORing link identifiers matches exactly the encoded link set.  In
Bloom mode each link sets k of m bits; OR-composition then admits false
positives (a link not on the path whose bits happen to be covered) but
never false negatives.  Forwarding state lives entirely in the packet:
a node forwards on a link iff the link's bits are a subset of the FID.
"""

from __future__ import annotations

import random
from collections import namedtuple

from . import _bitops
from .simkernel import substream_seed


class CapacityError(ValueError):
    """Exact mode needs at least as many bits as directed links."""


class FidConfig(namedtuple("FidConfig", "m k mode")):
    __slots__ = ()

    def __new__(cls, m: int, k: int, mode: str):
        if mode not in ("exact", "bloom"):
            raise ValueError(f"unknown fid mode {mode!r}")
        if m < 1:
            raise ValueError("m must be positive")
        if mode == "bloom" and not 1 <= k < m:
            raise ValueError("bloom mode requires 1 <= k < m")
        return super().__new__(cls, m, k, mode)


class FID(namedtuple("FID", "bits width")):
    """OR-combination of link identifiers; all-zeros forwards nowhere.

    bits is an int whose bit i is link bit i; it must fit in width bits.
    """

    __slots__ = ()

    def __new__(cls, bits: int, width: int):
        if not 0 <= bits < 1 << width:
            raise ValueError("bits do not fit width")
        return super().__new__(cls, bits, width)

    def popcount(self) -> int:
        return _bitops.popcount(self.bits)

    def to_bytes(self) -> bytes:
        """Wire format: (width + 7) // 8 bytes, little-endian."""
        return self.bits.to_bytes((self.width + 7) // 8, "little")


def zero_fid(width: int) -> FID:
    return FID(0, width)


def assign_link_ids(topology, config: FidConfig, seed: int) -> dict[str, FID]:
    """Assign a link identifier to every directed link of a TopologyGraph,
    in link insertion order.  The same (topology, config, seed) always
    yields the same assignment.
    """
    keys = topology.sorted_link_keys()
    if config.mode == "exact":
        if len(keys) > config.m:
            raise CapacityError(
                f"exact mode with m={config.m} cannot label {len(keys)} links")
        return {key: FID(1 << i, config.m) for i, key in enumerate(keys)}
    rng = random.Random(substream_seed(seed, "link_ids"))
    out = {}
    for key in keys:
        positions = rng.sample(range(config.m), config.k)
        out[key] = FID(_bitops.or_many(1 << p for p in positions), config.m)
    return out


def encode_path(fids, width: int) -> FID:
    """OR FIDs of the given width into one: the link identifiers of a path,
    or the paths of a multicast delivery tree.  Raises ValueError for a FID
    of another width.  Empty input yields the all-zeros FID, which forwards
    nowhere.
    """
    items = list(fids)
    if not items:
        return zero_fid(width)
    for f in items:
        if f.width != width:
            raise ValueError("width mismatch")
    return FID(_bitops.or_many([f.bits for f in items]), width)


def should_forward(fid: FID, lid: FID) -> bool:
    """Forwarding decision: does the FID cover every bit of the link id?"""
    if fid.width != lid.width:
        raise ValueError("width mismatch")
    return _bitops.is_subset(lid.bits, fid.bits)


# ORing paths into a multicast delivery tree is the same operation
combine_trees = encode_path


def false_positive_rate(m: int, k: int, n: int) -> float:
    """Analytic false-positive probability for n links ORed into one FID.

    Probability that all k bits of an unrelated link are covered:
    (1 - (1 - 1/m)^(k*n))^k.  Zero encoded links can cover nothing.
    """
    if n == 0:
        return 0.0
    return (1.0 - (1.0 - 1.0 / m) ** (k * n)) ** k
