"""SplitMix64 stream keys for the sampling oracle.

A stream key is a pure function of (master seed, stream index), mixed with
SplitMix64, so every oracle stream can be regenerated in isolation and
generation order is irrelevant. The oracle seeds numpy's Philox with these
keys (see lrsim.oracle); case generation keys Philox by the seed directly
(see lrsim.genmodel).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ACTIVE_BACKEND", "stream_key"]

# Recorded in the benchmark's run metadata by perfbench/probe.py.
ACTIVE_BACKEND = "numpy"

_GOLD = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_STREAM_SALT = 0xD6E8FEB86659FD93
_U64 = (1 << 64) - 1


def _mix64_int(z: int) -> int:
    """SplitMix64 finalizer on plain python integers."""
    z &= _U64
    z = ((z ^ (z >> 30)) * _MIX1) & _U64
    z = ((z ^ (z >> 27)) * _MIX2) & _U64
    return z ^ (z >> 31)


def stream_key(master_seed: int, index: int) -> np.uint64:
    """Derive the 64-bit key of stream `index` under `master_seed`."""
    a = _mix64_int((int(master_seed) + _GOLD) & _U64)
    b = _mix64_int((int(index) + _STREAM_SALT) & _U64)
    return np.uint64(_mix64_int(a ^ b))
