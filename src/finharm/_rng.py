"""Counter-based random stream, stable across platforms and numpy versions.

Every random quantity in the package is a pure function of a 64-bit stream
seed plus a counter, produced by the splitmix64 finalizer. Library
bit-generators are avoided on purpose: the (seed, index...) keying contract
is part of the report-determinism guarantee, so the mixing function is spelled
out here and pinned by a regression test.
"""

from __future__ import annotations

from typing import Any, Sequence

import numpy as np

from .groups import FiniteGroup, _index, row_blocks

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_KEY1 = np.uint64(0xD1B54A32D192ED03)
_KEY2 = np.uint64(0x8CB92BA72F3D8DD7)


def _mix_in_place(x: np.ndarray, shift: np.ndarray) -> None:
    """splitmix64 finalizer of the uint64 array x, in place and wrapping mod
    2^64; shift is a uint64 buffer of x's shape."""
    x ^= np.right_shift(x, np.uint64(30), out=shift)
    x *= _MIX1
    x ^= np.right_shift(x, np.uint64(27), out=shift)
    x *= _MIX2
    x ^= np.right_shift(x, np.uint64(31), out=shift)


def _mix_u64(x: np.ndarray) -> np.ndarray:
    """Vectorized splitmix64 finalizer of a copy of x, which must be uint64;
    a numpy scalar gives a numpy scalar."""
    x = np.array(x, dtype=np.uint64)
    _mix_in_place(x, np.empty_like(x))
    return x[()]


def _uint64(name: str, value: Any) -> np.ndarray:
    """value, an integer in [0, 2^64) or an integer array, range, list or
    tuple of them, as uint64; ValueError for anything else. A list or tuple
    is read element by element, and an integer by groups._index."""
    if isinstance(value, (list, tuple)):  # numpy reads [0, 2**63] as float
        return np.array([_uint64(name, v) for v in value], dtype=np.uint64)
    if not isinstance(value, (range, np.ndarray)):
        value = _index(name, value)
    array = np.asarray(value)  # an int of 2^64 or more gives an object array
    if array.size and (array.dtype.kind not in "iu" or (array < 0).any()):  # empty: of float type
        raise ValueError(f"{name} must be an integer in [0, 2^64) or an array of them")
    return array.astype(np.uint64)


def derive_stream_seed(seed: Any, *indices: Any) -> np.uint64 | np.ndarray:
    """Fold integer indices into a seed, one mixing round per index.

    Used to key independent substreams, e.g. (seed, function index, 0) for
    real parts and (seed, function index, 1) for imaginary parts. The seed
    and the indices may be integer arrays; they broadcast, giving an array
    of stream seeds. Every seed of the package is read here, by _uint64.
    """
    with np.errstate(over="ignore"):
        h = _mix_u64(_uint64("seed", seed) + _GOLDEN)
        for ix in indices:
            h = _mix_u64(h ^ (_uint64("index", ix) * _KEY1 + _KEY2))
    return h


def unit_uniforms(stream_seed: int | np.ndarray, count: int) -> np.ndarray:
    """`count` float64 values uniform in [-1, 1), keyed by (stream_seed, k).

    An array of stream seeds gives one row of `count` values per seed.
    """
    seeds = _uint64("stream seed", stream_seed)[..., None]
    out = np.empty(seeds.shape[:-1] + (_index("count", count),))  # ValueError below 0
    x = np.empty(out.shape, dtype=np.uint64)
    _uniforms_into(out, seeds, x, np.empty_like(x))
    return out


def _uniforms_into(out: np.ndarray, seeds: np.ndarray, x: np.ndarray, shift: np.ndarray) -> None:
    """unit_uniforms(seeds[..., 0], n), written into the float64 array out
    whose last axis has length n; x and shift are uint64 buffers of out's
    shape."""
    np.multiply(np.arange(1, out.shape[-1] + 1, dtype=np.uint64), _GOLDEN, out=x)
    x += seeds
    _mix_in_place(x, shift)
    # top 53 bits give a dyadic rational in [0, 2), shifted to [-1, 1); both
    # float steps are exact
    x >>= np.uint64(11)
    np.multiply(x, 2.0**-52, out=out)
    out -= 1.0


def test_functions(
    G: FiniteGroup, seed: int | np.ndarray, indices: Sequence[int] | np.ndarray
) -> np.ndarray:
    """Test functions number `indices` of stream `seed`, as a read-only
    complex array of shape indices.shape + (|G|,). indices has one or more
    axes, and seed, one stream seed or an array of them, broadcasts against
    it. Real and imaginary parts are uniform in [-1, 1), keyed by (seed,
    index, 0) and (seed, index, 1). Both must be integers in [0, 2^64), read
    as derive_stream_seed reads them."""
    idx = _uint64("index", indices)
    if idx.ndim < 1:
        raise ValueError("indices must be an array of nonnegative integers with at least one axis")
    part = np.arange(2).reshape((2,) + (1,) * idx.ndim)  # on a new leading axis
    keys = np.broadcast_to(derive_stream_seed(seed, idx, part), (2,) + idx.shape).reshape(2, -1)
    n = G.order
    F = np.empty(idx.shape + (n,), dtype=np.complex128)
    flat = F.reshape(-1, n)
    # each part is written straight into F's rows, one after the other,
    # through two uint64 buffers of the first (largest) block
    buffers = None
    for rows in row_blocks(len(flat), n):
        block = flat[rows]
        if buffers is None:
            buffers = np.empty((2,) + block.shape, dtype=np.uint64)
        x, shift = buffers[:, :len(block)]
        for out, part_keys in zip((block.real, block.imag), keys):
            _uniforms_into(out, part_keys[rows, None], x, shift)
    F.setflags(write=False)
    return F
