"""The batched pairings against their per-row scalar forms, bit for bit.

The stacked spectrum of each subgroup, its check and its probe are compared
with the per-pair oracles of oracle_helpers on every (U, psi) of several
groups, at the default block of characters, at blocks of one character, and
with no probe function cached.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
import pytest

import finharm.groups
import finharm.induction
import finharm.reports
from finharm import (
    GroupMismatch,
    RunConfig,
    build_report,
    character_table,
    conjecture_probe,
    enumerate_subgroups,
    generalized_plancherel_check_batch,
    kernel_multiplicity_identity_check,
    linear_characters,
    make_named_group,
    plancherel_invert_at_identity,
    probe_plan,
    subgroup_spectra,
)
from finharm import test_functions as draw_test_functions
from finharm.harmonic import _dots, _kahan_rows
from oracle_helpers import (
    kahan_sum,
    scalar_check,
    scalar_frobenius,
    scalar_inversion,
    scalar_pair,
    scalar_probe,
    scalar_probe_slots,
)

SPECS = ("symmetric:3", "quaternion", "dihedral:4", "product:cyclic:2*cyclic:4")
# the five groups of the lattice benchmark, and a product whose 5th, 15th and
# 30th roots of unity are not quarter turns
STACKED_SPECS = SPECS + (
    "symmetric:4",
    "dihedral:12",
    "heisenberg:3",
    "product:quaternion*cyclic:3",
    "product:dihedral:4*cyclic:2",
    "product:cyclic:5*cyclic:6",
)
# (spec, test functions per check and probe slots per irrep): with one
# function, or on the trivial group, a block of one psi multiplies operands
# of one element each, and only values off the quarter turns round
STACKED_CASES = [(spec, 3) for spec in STACKED_SPECS] + [
    ("cyclic:1", 1),
    ("cyclic:1", 3),
    ("dihedral:5", 1),
    ("product:cyclic:5*cyclic:6", 1),
]


def _bits(values) -> bytes:
    return np.asarray(values, dtype=np.complex128).tobytes()


def _spectra(spec, samples=0):
    """(U, psis, spectrum) of every block of every subgroup of spec."""
    G = make_named_group(spec)
    table = character_table(G)
    for U in enumerate_subgroups(G):
        psis = linear_characters(U)
        done = 0
        for spectrum in subgroup_spectra(table, U, psis, samples):
            yield U, psis[done : done + len(spectrum.psi_values)], spectrum
            done += len(spectrum.psi_values)
        assert done == len(psis)


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
def test_inversion_matches_scalar_oracle(monkeypatch, spec):
    G = make_named_group(spec)
    table = character_table(G)
    F = draw_test_functions(G, 17, range(11))
    expected = _bits(scalar_inversion(table, F))
    assert _bits(plancherel_invert_at_identity(table, F)) == expected
    # at one element per block, Theta is filled one irrep of element_values at a time
    monkeypatch.setattr(finharm.groups, "_BLOCK_ELEMENTS", 1)
    assert len(list(finharm.groups.row_blocks(table.num_irreps, G.order))) == table.num_irreps >= 3
    assert _bits(plancherel_invert_at_identity(table, F)) == expected


def test_plancherel_report_blocks_change_no_bits(monkeypatch):
    config = RunConfig(group_spec="dihedral:6", num_test_functions=7, seed=4)
    whole = build_report("plancherel-check", config)
    # blocks of two functions of D6, so the seven are drawn and judged in four
    monkeypatch.setattr(finharm.groups, "_BLOCK_ELEMENTS", 24)
    draw = finharm.reports.test_functions
    drawn = []
    monkeypatch.setattr(
        finharm.reports, "test_functions", lambda *a: drawn.append(a[2]) or draw(*a)
    )
    blocked = build_report("plancherel-check", config)
    assert drawn == [range(0, 2), range(2, 4), range(4, 6), range(6, 7)]
    assert blocked.digest == whole.digest
    assert blocked.payload["max_abs_error"] == whole.payload["max_abs_error"]
    assert blocked.payload["checks"] == whole.payload["checks"]


@pytest.mark.parametrize("spec", SPECS)
def test_check_and_multiplicities_match_scalar_oracles(spec):
    for U, psis, spectrum in _spectra(spec):
        table = spectrum.table
        F = draw_test_functions(table.group, 5, range(6))
        rec = generalized_plancherel_check_batch(spectrum, F)
        for j, psi in enumerate(psis):
            expected = scalar_check(table, U, psi, scalar_pair(table, U, psi).kernels, F)
            assert _bits(rec.lhs[j]) == _bits([e[0] for e in expected])
            assert _bits(rec.phi[j]) == _bits([e[1] for e in expected])
            assert _bits(rec.rhs[j]) == _bits([e[2] for e in expected])
            assert rec.abs_error[j].tobytes() == np.array([e[3] for e in expected]).tobytes()
            # the reports' verdict norm, one per function for the whole report
            f_l1 = np.abs(F).sum(axis=1)
            assert f_l1.tobytes() == np.array([e[4] for e in expected]).tobytes()
            assert spectrum.multiplicities[j].tolist() == [
                scalar_frobenius(table, pi, U, psi) for pi in range(table.num_irreps)
            ]


_ORACLE_SEED = 5


@functools.lru_cache(maxsize=None)
def _oracle(spec, count):
    """Per pair, in sweep order: the scalar spectrum, check and probe."""
    G = make_named_group(spec)
    table = character_table(G)
    F = draw_test_functions(G, _ORACLE_SEED, range(count))
    slots = scalar_probe_slots(table, count, _ORACLE_SEED, 1e-6)
    out = []
    for U in enumerate_subgroups(G):
        for psi in linear_characters(U):
            pair = scalar_pair(table, U, psi)
            check = scalar_check(table, U, psi, pair.kernels, F)
            out.append((pair, check, scalar_probe(slots, pair.kernels)))
    return out


@pytest.mark.parametrize("mode", ["default block", "one psi per block", "no plan cache"])
@pytest.mark.parametrize("spec, count", STACKED_CASES)
def test_stacked_spectra_match_scalar_oracles(monkeypatch, spec, count, mode):
    G = make_named_group(spec)
    table = character_table(G)
    if mode == "one psi per block":
        one_psi = 16 * table.num_irreps * (G.order + count)
        monkeypatch.setattr(finharm.induction, "_SPECTRUM_BYTES", one_psi)
    if mode == "no plan cache":
        monkeypatch.setattr(finharm.induction, "_PLAN_BYTES", 0)
    F = draw_test_functions(G, _ORACLE_SEED, range(count))
    plan = probe_plan(table, count, _ORACLE_SEED)
    expected = iter(_oracle(spec, count))
    sizes = []
    for U in enumerate_subgroups(G):
        for spectrum in subgroup_spectra(table, U, linear_characters(U), count):
            sizes.append(len(spectrum.psi_values))
            rec = generalized_plancherel_check_batch(spectrum, F)
            probe = conjecture_probe(spectrum, plan)
            identity_ok = kernel_multiplicity_identity_check(spectrum)
            assert spectrum.kernels.shape == (sizes[-1], table.num_irreps, G.order)
            for j in range(sizes[-1]):
                pair, check, probe_rows = next(expected)
                assert _bits(spectrum.kernels[j]) == _bits(pair.kernels)
                assert spectrum.multiplicities[j].tolist() == list(pair.multiplicities)
                assert spectrum.conjugate_multiplicities[j].tolist() == list(
                    pair.conjugate_multiplicities
                )
                assert spectrum.residuals[j].tobytes() == np.array(pair.residuals).tobytes()
                assert identity_ok[j] == (max(pair.residuals) <= 1e-9)
                assert _bits(rec.lhs[j]) == _bits([e[0] for e in check])
                assert _bits(rec.phi[j]) == _bits([e[1] for e in check])
                assert _bits(rec.rhs[j]) == _bits([e[2] for e in check])
                assert rec.abs_error[j].tobytes() == np.array([e[3] for e in check]).tobytes()
                for pi, (ratios, flags, spread, constant) in enumerate(probe_rows):
                    assert _bits(probe.ratios[j, pi]) == _bits(ratios)
                    assert probe.flagged[pi].tolist() == flags
                    assert probe.spread[j, pi].tobytes() == np.float64(spread).tobytes()
                    assert probe.constant[j, pi] == constant
                    clean = [r for r, f in zip(ratios, flags) if not f]
                    assert _bits(probe.first_ratio[j, pi]) == _bits(clean[0])
    assert next(expected, None) is None
    if mode == "one psi per block":
        assert set(sizes) == {1}
    elif G.order > 1:
        assert max(sizes) > 1


def test_spectrum_block_bytes(monkeypatch):
    table = character_table(make_named_group("symmetric:3"))
    U = enumerate_subgroups(table.group)[-1]  # the whole group: two characters
    one_psi = 16 * table.num_irreps * (table.group.order + 7)
    for budget, sizes in (
        (0, [1, 1]),
        (one_psi, [1, 1]),
        (2 * one_psi - 1, [1, 1]),
        (2 * one_psi, [2]),
    ):
        monkeypatch.setattr(finharm.induction, "_SPECTRUM_BYTES", budget)
        spectra = subgroup_spectra(table, U, linear_characters(U), 7)
        assert [len(s.psi_values) for s in spectra] == sizes


def _cached(plan):
    return [F for _, _, F in plan.blocks if F is not None]


def _probe_matches_oracle(threshold, count=5, seed=3):
    all_flagged = 0
    for spec in ("symmetric:3", "quaternion"):
        plan = slots = None
        for U, psis, spectrum in _spectra(spec):
            plan = plan or probe_plan(spectrum.table, count, seed)
            slots = slots or scalar_probe_slots(spectrum.table, count, seed, threshold)
            rec = conjecture_probe(spectrum, plan)
            assert rec.ratios.shape == (len(psis),) + rec.flagged.shape
            assert rec.flagged.shape == (spectrum.table.num_irreps, count)
            for j, psi in enumerate(psis):
                expected = scalar_probe(slots, scalar_pair(spectrum.table, U, psi).kernels)
                for pi, (ratios, flags, spread, constant) in enumerate(expected):
                    assert _bits(rec.ratios[j, pi]) == _bits(ratios)
                    assert rec.flagged[pi].tolist() == flags
                    assert rec.spread[j, pi].tobytes() == np.float64(spread).tobytes()
                    assert rec.constant[j, pi] == constant
                    clean = [r for r, f in zip(ratios, flags) if not f]
                    first = clean[0] if clean else complex("nan+nanj")
                    assert _bits(rec.first_ratio[j, pi]) == _bits(first)
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
    # one function per plan block, so each block's samples are divided alone,
    # and at 6.0 some blocks have no clean slot to divide
    monkeypatch.setattr(finharm.groups, "_BLOCK_ELEMENTS", 1)
    assert _probe_matches_oracle(threshold) == all_flagged


@pytest.mark.parametrize("cache", ["all", "one block", "none"])
@pytest.mark.parametrize("threshold", [1e-6, 4.0])
def test_probe_plan_cache_changes_no_bits(monkeypatch, cache, threshold):
    monkeypatch.setattr(finharm.induction, "_THETA_ZERO_THRESHOLD", threshold)
    # blocks of two functions of S3 or Q8, so every plan has several blocks
    monkeypatch.setattr(finharm.groups, "_BLOCK_ELEMENTS", 16)
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
    monkeypatch.setattr(finharm.groups, "_BLOCK_ELEMENTS", block_elements)
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
    _, _, spectrum = next(_spectra("quaternion"))
    with pytest.raises(GroupMismatch):
        conjecture_probe(spectrum, probe_plan(table, 2))


def test_sweep_draws_one_plan(monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args)
        return probe_plan(*args)

    monkeypatch.setattr(finharm.reports, "probe_plan", counting)
    report = build_report("sweep", RunConfig(group_spec="symmetric:4", num_test_functions=2))
    assert len(report.payload["probes"]) > 1
    assert len(calls) == 1


def _rendered(command, config):
    report = dataclasses.replace(build_report(command, config), wall_time=0.0)
    return report.to_json(), report.to_csv()


@pytest.mark.parametrize("command", ["sweep", "conjecture-probe"])
def test_uncached_plan_blocks_are_redrawn_once_per_psi_block(monkeypatch, command):
    # blocks of three functions of Q8, so the plan has several blocks
    monkeypatch.setattr(finharm.groups, "_BLOCK_ELEMENTS", 24)
    config = RunConfig(group_spec="quaternion", num_test_functions=5, seed=2)
    cached = _rendered(command, config)
    draw = finharm.induction.test_functions
    make_plan = finharm.reports.probe_plan
    probe = finharm.reports.conjecture_probe
    draws, plans, psi_blocks = [], [], []

    def planning(*args):
        plans.append(make_plan(*args))
        draws.clear()  # count only the re-draws once the plan exists
        return plans[-1]

    def probing(spectrum, plan):
        psi_blocks.append(len(spectrum.psi_values))
        return probe(spectrum, plan)

    monkeypatch.setattr(
        finharm.induction, "test_functions", lambda *a: draws.append(a) or draw(*a)
    )
    monkeypatch.setattr(finharm.reports, "probe_plan", planning)
    monkeypatch.setattr(finharm.reports, "conjecture_probe", probing)
    monkeypatch.setattr(finharm.induction, "_PLAN_BYTES", 0)
    assert _rendered(command, config) == cached
    (plan,) = plans
    assert len(plan.blocks) > 1 and all(F is None for _, _, F in plan.blocks)
    assert len(psi_blocks) < sum(psi_blocks)  # fewer psi-blocks than pairs
    assert len(draws) == len(plan.blocks) * len(psi_blocks)
