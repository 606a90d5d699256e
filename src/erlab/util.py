"""Shared helpers: seed derivation and bitmask iteration."""

from __future__ import annotations

import hashlib
import random


def derive_seed(*parts) -> int:
    """Derive a stable 63-bit seed from an arbitrary tuple of parts.

    Stable across processes and platforms (sha256 of the repr), so every
    pipeline stage and worker can get an independent, reproducible stream.
    """
    digest = hashlib.sha256(repr(parts).encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "big") >> 1


def make_rng(*parts) -> random.Random:
    return random.Random(derive_seed(*parts))


def iter_bits(mask: int):
    """Yield set bit positions of ``mask`` in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low

