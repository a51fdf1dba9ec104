"""Counter-based SplitMix64 streams for the sampling oracle.

Every draw here is addressed, not sequenced: a draw is a pure function of
(stream key, slot index). Stream keys are derived from a master seed plus a
stream index with SplitMix64 mixing, so any path set or bootstrap replicate
can be regenerated in isolation and generation order is irrelevant. Case
generation draws from numpy's Philox instead (see lrsim.genmodel).
"""

from __future__ import annotations

import numpy as np

__all__ = ["ACTIVE_BACKEND", "normals", "stream_key"]

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


def _mix_u64(z: np.ndarray) -> np.ndarray:
    with np.errstate(over="ignore"):
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
        return z ^ (z >> np.uint64(31))


def stream_key(master_seed: int, index: int) -> np.uint64:
    """Derive the 64-bit key of stream `index` under `master_seed`."""
    a = _mix64_int((int(master_seed) + _GOLD) & _U64)
    b = _mix64_int((int(index) + _STREAM_SALT) & _U64)
    return np.uint64(_mix64_int(a ^ b))


def _unit(w: np.ndarray) -> np.ndarray:
    """Open-interval (0, 1) uniforms from the top 53 bits of each word."""
    return ((w >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53


def normals(key: np.uint64, start: int, n: int) -> np.ndarray:
    """Box-Muller standard normals; normal j consumes the 64-bit words at
    slots start+2j and start+2j+1 of the stream."""
    idx = np.arange(int(start) + 1, int(start) + 1 + 2 * int(n), dtype=np.uint64)
    with np.errstate(over="ignore"):
        w = _mix_u64(np.uint64(key) + idx * np.uint64(_GOLD))
    return np.sqrt(-2.0 * np.log(_unit(w[0::2]))) * np.cos(2.0 * np.pi * _unit(w[1::2]))
