"""Bit-vector primitives on Python ints.

A vector of w bits is an int in [0, 2**w); bit i is link bit i.  A
pattern is covered by a vector when every set bit of the pattern is also
set in the vector, which is one AND per test.
"""

from __future__ import annotations

BACKEND = "pure"


def or_many(vectors) -> int:
    """OR an iterable of vectors; empty input yields zero."""
    acc = 0
    for v in vectors:
        acc |= v
    return acc


def is_subset(sub: int, sup: int) -> bool:
    """True iff every set bit of sub is also set in sup."""
    return sub & sup == sub


def popcount(a: int) -> int:
    return a.bit_count()


def select_covered(fid: int, patterns, n: int, width_bytes: int) -> list:
    """Indices i in [0, n) whose patterns[i] is a subset of fid.

    patterns must hold exactly n vectors, and fid must fit in width_bytes
    bytes.  Off the data path: FidNode makes its decision in one pass of
    its own, so this stays only for the benchmark's tracer and
    tests/test_fid.py until they are re-pointed (ROADMAP item 9, which
    item 15 unblocks).
    """
    if len(patterns) != n:
        raise ValueError("pattern count mismatch")
    if not 0 <= fid < 1 << (8 * width_bytes):
        raise ValueError("width mismatch")
    return [i for i, p in enumerate(patterns) if p & fid == p]
