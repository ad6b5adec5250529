"""Deterministic stream derivation and seeded test functions."""

from __future__ import annotations

import tracemalloc

import numpy as np
import pytest

import finharm.groups
from finharm import make_named_group
from finharm import test_functions as draw_test_functions
from finharm._rng import derive_stream_seed, unit_uniforms


def test_stream_seed_frozen_values():
    # regression pins: any change to the mixing constants shows up here
    assert derive_stream_seed(0) == 16294208416658607535
    assert derive_stream_seed(0, 0) == 11207422961820079421
    assert derive_stream_seed(7, 3) == 3521237430759086908


def test_unit_uniforms_frozen_values():
    u = unit_uniforms(derive_stream_seed(0, 0), 4)
    expected = [
        0.6156755078715608,
        0.8054360669722336,
        -0.5035454948735367,
        0.4295818108050702,
    ]
    assert np.allclose(u, expected, atol=0, rtol=0)


def test_unit_uniforms_range_and_dtype():
    u = unit_uniforms(derive_stream_seed(123, 4), 4096)
    assert u.dtype == np.float64
    assert float(u.min()) >= -1.0
    assert float(u.max()) < 1.0
    assert abs(float(u.mean())) < 0.05  # crude uniformity sanity


def test_array_indices_match_scalar_calls():
    idx = np.array([0, 1, 5, 2**40])
    seeds = derive_stream_seed(7, idx[:, None], np.arange(2))
    assert seeds.shape == (4, 2)
    assert seeds.dtype == np.uint64
    for i, ix in enumerate(idx.tolist()):
        for part in (0, 1):
            assert seeds[i, part] == derive_stream_seed(7, ix, part)
    rows = unit_uniforms(seeds, 5)
    assert rows.shape == (4, 2, 5)
    for i in range(4):
        for part in (0, 1):
            assert np.array_equal(rows[i, part], unit_uniforms(seeds[i, part], 5))


def test_streams_are_independent():
    a = unit_uniforms(derive_stream_seed(0, 0), 16)
    b = unit_uniforms(derive_stream_seed(0, 1), 16)
    c = unit_uniforms(derive_stream_seed(1, 0), 16)
    assert not np.allclose(a, b)
    assert not np.allclose(a, c)
    assert derive_stream_seed(0, 1, 2) != derive_stream_seed(0, 2, 1)


def test_test_functions_reproducible(s3):
    f1 = draw_test_functions(s3, 99, [5])[0]
    f2 = draw_test_functions(s3, 99, [5])[0]
    assert np.array_equal(f1, f2)
    f3 = draw_test_functions(s3, 99, [6])[0]
    assert not np.array_equal(f1, f3)
    assert f1.shape == (6,)
    assert f1.dtype == np.complex128
    # genuinely complex-valued
    assert float(np.abs(f1.imag).max()) > 0


def test_test_functions_batch(s3, monkeypatch):
    F = draw_test_functions(s3, 3, range(7))
    assert F.shape == (7, 6)
    assert not F.flags.writeable
    assert np.array_equal(F, draw_test_functions(s3, 3, range(7)))
    # row k matches the single function of index k
    assert np.array_equal(F[4], draw_test_functions(s3, 3, [4])[0])
    # rows drawn in blocks of two functions match rows drawn in one block
    monkeypatch.setattr(finharm.groups, "_BLOCK_ELEMENTS", 12)
    assert np.array_equal(draw_test_functions(s3, 3, range(7)), F)
    with pytest.raises(ValueError):
        draw_test_functions(s3, 0, [-1])
    with pytest.raises(ValueError):
        draw_test_functions(s3, 0, 0)  # a scalar index: no axis to lay rows along


def test_test_functions_with_array_seeds(s3, monkeypatch):
    seeds = derive_stream_seed(11, np.array([0, 1, 1, 2, 0]))
    idx = np.array([3, 0, 9, 2**40, 3])
    F = draw_test_functions(s3, seeds, idx)
    assert F.shape == (5, 6)
    for row, seed, index in zip(F, seeds, idx.tolist()):
        assert np.array_equal(row, draw_test_functions(s3, seed, [index])[0])
    monkeypatch.setattr(finharm.groups, "_BLOCK_ELEMENTS", 12)
    assert np.array_equal(draw_test_functions(s3, seeds, idx), F)
    with pytest.raises(ValueError):
        draw_test_functions(s3, seeds[:2], idx)


@pytest.mark.parametrize("shape", [(4, 3), (3, 2, 2), (2, 0), (0, 3)])
@pytest.mark.parametrize("block_elements", [12, 1 << 16])
def test_index_grids_equal_row_by_row_draws(s3, monkeypatch, shape, block_elements):
    # a grid of indices, with one stream seed per leading row broadcast along
    # the other axes, draws what each row of it draws as a 1-D call, bit for
    # bit, in blocks that cut across rows or in one block
    monkeypatch.setattr(finharm.groups, "_BLOCK_ELEMENTS", block_elements)
    idx = (np.arange(np.prod(shape), dtype=np.uint64) * 7 + 2**63).reshape(shape)
    seeds = derive_stream_seed(11, np.arange(shape[0])).reshape(shape[:1] + (1,) * (len(shape) - 1))
    for per_row in (True, False):
        F = draw_test_functions(s3, seeds if per_row else 5, idx)
        assert F.shape == shape + (6,) and not F.flags.writeable
        for row in np.ndindex(shape[:-1]):
            seed = seeds[row[0]].item() if per_row else 5
            assert F[row].tobytes() == draw_test_functions(s3, seed, idx[row]).tobytes()


@pytest.mark.parametrize("indices", [range(0), []])
def test_no_indices_give_an_empty_block(s3, indices):
    F = draw_test_functions(s3, 0, indices)
    assert F.shape == (0, 6) and F.dtype == np.complex128
    assert not F.flags.writeable


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
def test_seed_outside_uint64_is_refused(s3, seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        draw_test_functions(s3, seed, [0])


def test_uint64_seed_arrays_draw_the_same_bits(s3):
    # stream seeds from derive_stream_seed are uint64, those past 2^63 included
    seeds = np.array([0, 5, 2**64 - 1], dtype=np.uint64)
    indices = np.array([0, 7, 2**63], dtype=np.uint64)
    F = draw_test_functions(s3, seeds, indices)
    for row, seed, index in zip(F, seeds.tolist(), indices.tolist()):
        assert row.tobytes() == draw_test_functions(s3, seed, [index])[0].tobytes()


def test_test_function_rows_frozen(s3):
    # regression pins: the first three values of three rows of the stream
    expected = {
        (0, 0): [
            -0.771198302763155 + 0.9750586448073855j,
            -0.4949498411792377 + 0.5612392037519305j,
            -0.3679021555203208 + 0.03915734752285638j,
        ],
        (5, 7): [
            0.28181637850919006 - 0.9486823767377635j,
            0.3670790748783219 - 0.024411529171078916j,
            -0.4919086790389364 + 0.8774153742532442j,
        ],
        (2**64 - 1, 2**63): [
            -0.03727895481943988 - 0.20709514374257698j,
            0.2086089708563248 - 0.30939983155712136j,
            -0.8718421502544373 + 0.3620448635117015j,
        ],
    }
    for (seed, index), values in expected.items():
        assert draw_test_functions(s3, seed, [index])[0, :3].tolist() == values


@pytest.mark.parametrize("block_elements", [1, 12, 1 << 16])
def test_test_functions_are_unit_uniforms_of_each_part(s3, monkeypatch, block_elements):
    # the in-place mixing reproduces unit_uniforms bit for bit, the last
    # partial block included
    monkeypatch.setattr(finharm.groups, "_BLOCK_ELEMENTS", block_elements)
    for seed in (0, 7, 2**63 + 5):
        F = draw_test_functions(s3, seed, range(5))
        parts = unit_uniforms(derive_stream_seed(seed, np.arange(5)[:, None], np.arange(2)), 6)
        assert F.real.tobytes() == np.ascontiguousarray(parts[:, 0]).tobytes()
        assert F.imag.tobytes() == np.ascontiguousarray(parts[:, 1]).tobytes()


def test_test_functions_peak_near_the_block_they_return():
    # 512 functions on 128 elements are one block of 1.05 MB of complex128;
    # the counter and shift buffers add one more, and no float temporaries
    G = make_named_group("dihedral:64")
    draw_test_functions(G, 0, range(512))
    tracemalloc.start()
    try:
        draw_test_functions(G, 0, range(512))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 2.5e6
