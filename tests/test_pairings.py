"""The batched pairings against their per-row scalar forms, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

import finharm.induction
from finharm import (
    character_table,
    conjecture_probe,
    enumerate_subgroups,
    frobenius_multiplicities,
    generalized_plancherel_check_batch,
    linear_characters,
    make_named_group,
    pair_spectrum,
    plancherel_invert_at_identity,
)
from finharm import test_functions as draw_test_functions
from finharm.harmonic import _dots, _kahan_rows
from oracle_helpers import (
    kahan_sum,
    scalar_check,
    scalar_frobenius,
    scalar_inversion,
    scalar_probe,
)

SPECS = ("symmetric:3", "quaternion", "dihedral:4", "product:cyclic:2*cyclic:4")


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.complex128).tobytes()


def _pairs(spec):
    G = make_named_group(spec)
    table = character_table(G)
    for U in enumerate_subgroups(G):
        for psi in linear_characters(U):
            yield pair_spectrum(table, U, psi)


def _random(rng, shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def test_dots_match_per_row_dot():
    rng = np.random.default_rng(0)
    for n in (1, 7, 129, 1000):
        F, B = _random(rng, (6, n)), _random(rng, (4, n))
        stacked = _dots(F[:, None, :], B)
        assert stacked.shape == (6, 4)
        assert _bits(stacked) == _bits([[np.dot(f, b) for b in B] for f in F])
        rowwise = _dots(F[:4], B)
        assert _bits(rowwise) == _bits([np.dot(f, b) for f, b in zip(F, B)])
        assert _bits(_dots(F, B[0])) == _bits([np.dot(f, B[0]) for f in F])


def test_kahan_rows_match_scalar_kahan():
    rng = np.random.default_rng(1)
    # terms of mixed magnitude, where compensation changes the result
    terms = _random(rng, (5, 40)) * 10.0 ** rng.integers(-12, 12, (5, 40))
    assert _bits(_kahan_rows(terms)) == _bits([kahan_sum(row.tolist()) for row in terms])
    assert _kahan_rows(terms[:, :0]).tolist() == [0j] * 5


@pytest.mark.parametrize("spec", SPECS)
def test_inversion_matches_scalar_oracle(spec):
    G = make_named_group(spec)
    table = character_table(G)
    F = draw_test_functions(G, 17, range(11))
    assert _bits(plancherel_invert_at_identity(table, F)) == _bits(scalar_inversion(table, F))


@pytest.mark.parametrize("spec", SPECS)
def test_check_and_multiplicities_match_scalar_oracles(spec):
    for spectrum in _pairs(spec):
        F = draw_test_functions(spectrum.table.group, 5, range(6))
        rec = generalized_plancherel_check_batch(spectrum, F)
        expected = scalar_check(spectrum, F)
        assert _bits(rec.lhs) == _bits([e[0] for e in expected])
        assert _bits(rec.phi) == _bits([e[1] for e in expected])
        assert _bits(rec.rhs) == _bits([e[2] for e in expected])
        assert rec.abs_error.tobytes() == np.array([e[3] for e in expected]).tobytes()
        assert rec.f_l1.tobytes() == np.array([e[4] for e in expected]).tobytes()
        table, U, psi = spectrum.table, spectrum.U, spectrum.psi
        assert frobenius_multiplicities(table, U, psi) == tuple(
            scalar_frobenius(table, pi, U, psi) for pi in range(table.num_irreps)
        )


@pytest.mark.parametrize("threshold", [1e-6, 4.0, 6.0])
def test_probe_matches_scalar_oracle(monkeypatch, threshold):
    monkeypatch.setattr(finharm.induction, "_THETA_ZERO_THRESHOLD", threshold)
    all_flagged = 0
    for spec in ("symmetric:3", "quaternion"):
        for spectrum in _pairs(spec):
            records = conjecture_probe(spectrum, 5, seed=3)
            expected = scalar_probe(spectrum, 5, 3, threshold)
            assert len(records) == len(expected)
            for rec, (ratios, flags, spread, constant) in zip(records, expected):
                assert _bits(rec.ratios) == _bits(ratios)
                assert rec.flagged.tolist() == flags
                assert np.float64(rec.spread).tobytes() == np.float64(spread).tobytes()
                assert rec.constant == constant
                assert not rec.ratios.flags.writeable and not rec.flagged.flags.writeable
                all_flagged += all(flags)
    # at 6.0 whole irreps exhaust their budget, and their records still hold
    if threshold == 6.0:
        assert all_flagged > 0
