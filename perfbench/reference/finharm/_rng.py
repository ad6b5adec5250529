"""Counter-based random stream, stable across platforms and numpy versions.

Every random quantity in the package is a pure function of a 64-bit stream
seed plus a counter, produced by the splitmix64 finalizer. Library
bit-generators are avoided on purpose: the (seed, index...) keying contract
is part of the report-determinism guarantee, so the mixing function is spelled
out here and pinned by a regression test.
"""

from __future__ import annotations

import numpy as np

_MASK = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1 = 0xBF58476D1CE4E5B9
_MIX2 = 0x94D049BB133111EB
_KEY1 = 0xD1B54A32D192ED03
_KEY2 = 0x8CB92BA72F3D8DD7


def _mix_int(x: int) -> int:
    """splitmix64 finalizer on a plain Python integer."""
    x &= _MASK
    x ^= x >> 30
    x = (x * _MIX1) & _MASK
    x ^= x >> 27
    x = (x * _MIX2) & _MASK
    x ^= x >> 31
    return x


def _mix_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer; x must be uint64."""
    x = x.astype(np.uint64, copy=True)
    with np.errstate(over="ignore"):  # mod-2^64 wraparound is the algorithm
        x ^= x >> np.uint64(30)
        x *= np.uint64(_MIX1)
        x ^= x >> np.uint64(27)
        x *= np.uint64(_MIX2)
        x ^= x >> np.uint64(31)
    return x


def derive_stream_seed(seed: int, *indices: int) -> int:
    """Fold integer indices into a seed, one mixing round per index.

    Used to key independent substreams, e.g. (seed, function index, 0) for
    real parts and (seed, function index, 1) for imaginary parts.
    """
    h = _mix_int((int(seed) + _GOLDEN) & _MASK)
    for ix in indices:
        h = _mix_int(h ^ ((int(ix) * _KEY1 + _KEY2) & _MASK))
    return h


def unit_uniforms(stream_seed: int, count: int) -> np.ndarray:
    """`count` float64 values uniform in [-1, 1), keyed by (stream_seed, k)."""
    if count < 0:
        raise ValueError("count must be nonnegative")
    ctr = np.arange(1, count + 1, dtype=np.uint64)
    x = ctr * np.uint64(_GOLDEN)
    x += np.uint64(int(stream_seed) & _MASK)
    x = _mix_u64(x)
    # top 53 bits give a dyadic rational in [0, 2), shifted to [-1, 1)
    return (x >> np.uint64(11)).astype(np.float64) * 2.0**-52 - 1.0
