"""The batched pairings against their per-row scalar forms, bit for bit."""

from __future__ import annotations

import numpy as np
import pytest

import finharm._rng
import finharm.induction
import finharm.reports
from finharm import (
    GroupMismatch,
    RunConfig,
    build_report,
    character_table,
    conjecture_probe,
    enumerate_subgroups,
    frobenius_multiplicities,
    generalized_plancherel_check_batch,
    linear_characters,
    make_named_group,
    pair_spectrum,
    plancherel_invert_at_identity,
    probe_plan,
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
        # the probe pairs an (irreps, slots, n) block with an (irreps, 1, n) view
        blocks = F.reshape(3, 2, n)
        paired = _dots(blocks, B[:3, None, :])
        assert paired.shape == (3, 2)
        assert _bits(paired) == _bits([[np.dot(f, b) for f in fs] for fs, b in zip(blocks, B)])


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


def _cached(plan):
    return [F for _, _, F in plan.blocks if F is not None]


def _probe_matches_oracle(threshold, count=5, seed=3):
    all_flagged = 0
    for spec in ("symmetric:3", "quaternion"):
        plan = None
        for spectrum in _pairs(spec):
            plan = plan or probe_plan(spectrum.table, count, seed)
            rec = conjecture_probe(spectrum, plan)
            expected = scalar_probe(spectrum, count, seed, threshold)
            assert rec.ratios.shape == rec.flagged.shape == (len(expected), count)
            for pi, (ratios, flags, spread, constant) in enumerate(expected):
                assert _bits(rec.ratios[pi]) == _bits(ratios)
                assert rec.flagged[pi].tolist() == flags
                assert rec.spread[pi].tobytes() == np.float64(spread).tobytes()
                assert rec.constant[pi] == constant
                clean = [r for r, f in zip(ratios, flags) if not f]
                first = clean[0] if clean else complex("nan+nanj")
                assert _bits(rec.first_ratio[pi]) == _bits(first)
                all_flagged += all(flags)
            for a in (rec.ratios, rec.flagged, rec.first_ratio, rec.spread, rec.constant):
                assert not a.flags.writeable
    return all_flagged


@pytest.mark.parametrize("threshold", [1e-6, 4.0, 6.0])
def test_probe_matches_scalar_oracle(monkeypatch, threshold):
    monkeypatch.setattr(finharm.induction, "_THETA_ZERO_THRESHOLD", threshold)
    all_flagged = _probe_matches_oracle(threshold)
    # at 6.0 whole irreps exhaust their budget, and their records still hold
    if threshold == 6.0:
        assert all_flagged > 0


@pytest.mark.parametrize("cache", ["all", "one block", "none"])
@pytest.mark.parametrize("threshold", [1e-6, 4.0])
def test_probe_plan_cache_changes_no_bits(monkeypatch, cache, threshold):
    monkeypatch.setattr(finharm.induction, "_THETA_ZERO_THRESHOLD", threshold)
    # blocks of two functions of S3 or Q8, so every plan has several blocks
    monkeypatch.setattr(finharm._rng, "_BLOCK_ELEMENTS", 16)
    G = make_named_group("quaternion")
    full = probe_plan(character_table(G), 5, 3)
    assert len(full.blocks) > 1 and len(_cached(full)) == len(full.blocks)
    budget = {"all": 1 << 30, "one block": _cached(full)[0].nbytes, "none": 0}[cache]
    monkeypatch.setattr(finharm.induction, "_PLAN_BYTES", budget)
    plan = probe_plan(full.table, 5, 3)
    assert len(_cached(plan)) == {"all": len(full.blocks), "one block": 1, "none": 0}[cache]
    assert _bits(plan.theta) == _bits(full.theta)
    for (p, s, F), (_, _, F_full) in zip(plan.functions(), full.functions()):
        assert _bits(F) == _bits(F_full)
    _probe_matches_oracle(threshold)


@pytest.mark.parametrize("block_elements", [16, 100, 1 << 16])
def test_probe_plan_cache_stays_in_budget(monkeypatch, block_elements):
    monkeypatch.setattr(finharm._rng, "_BLOCK_ELEMENTS", block_elements)
    table = character_table(make_named_group("dihedral:6"))
    for budget in (0, 100, 5000, 40000, 1 << 30):
        monkeypatch.setattr(finharm.induction, "_PLAN_BYTES", budget)
        plan = probe_plan(table, 37, 1)
        largest = max(F.nbytes for F in (f for _, _, f in plan.functions()))
        cached = sum(F.nbytes for F in _cached(plan))
        assert cached <= budget + largest
        # the blocks tile every (irrep, slot) exactly once
        cover = np.zeros(plan.indices.shape, dtype=int)
        for p, s, F in plan.functions():
            cover[p, s] += 1
            assert F.shape == (len(range(*p.indices(6))), len(range(*s.indices(37))), 12)
        assert (cover == 1).all()


def test_probe_rejects_plan_of_another_table():
    table = character_table(make_named_group("symmetric:3"))
    with pytest.raises(GroupMismatch):
        conjecture_probe(next(_pairs("quaternion")), probe_plan(table, 2))


def test_sweep_draws_one_plan(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return probe_plan(*args)

    monkeypatch.setattr(finharm.reports, "probe_plan", counting)
    report = build_report("sweep", RunConfig(group_spec="symmetric:4", num_test_functions=2))
    assert len(report.payload["probes"]) > 1
    assert len(calls) == 1
