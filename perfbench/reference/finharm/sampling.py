"""Seeded test functions: complex values with real and imaginary parts
uniform in [-1, 1), keyed by (seed, function index, element index) so two
runs on any platform produce the same corpus."""

from __future__ import annotations

from ._rng import derive_stream_seed, unit_uniforms
from .groups import FiniteGroup
from .harmonic import GroupFunction


def keyed_test_function(G: FiniteGroup, seed: int, index: int) -> GroupFunction:
    """Test function number `index` of stream `seed`."""
    re = unit_uniforms(derive_stream_seed(int(seed), int(index), 0), G.order)
    im = unit_uniforms(derive_stream_seed(int(seed), int(index), 1), G.order)
    return GroupFunction(G, re + 1j * im)


def random_test_functions(G: FiniteGroup, count: int, seed: int = 0) -> list[GroupFunction]:
    if count < 1:
        raise ValueError("count must be at least 1")
    return [keyed_test_function(G, seed, i) for i in range(count)]
