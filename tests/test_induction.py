"""Induced representations, the kernel identity, and the derivation oracles."""

from __future__ import annotations

import numpy as np
import pytest

from finharm import (
    CharacterTable,
    GroupMismatch,
    IndexOutOfRange,
    NonIntegralMultiplicity,
    Subgroup,
    SubgroupMismatch,
    character_table,
    conjecture_probe,
    enumerate_subgroups,
    induced_character,
    induced_rep,
    kernel_multiplicity_identity_check,
    linear_characters,
    make_named_group,
    probe_plan,
    subgroup_closure,
    subgroup_spectra,
    subgroup_spectrum,
)
from finharm import test_functions as draw_test_functions
from oracle_helpers import (
    ChainNotExhaustive,
    ChainNotNested,
    ChainNotSymmetric,
    brute_fubini_value,
    brute_induced_character_value,
    brute_kernel_values,
    brute_multiplicity,
    fubini_interchange_oracle,
    truncation_demo,
)


def test_frobenius_matches_brute(s3_table, q8_table):
    for table in (s3_table, q8_table):
        G = table.group
        for U in enumerate_subgroups(G):
            psis = linear_characters(U)
            for psi, mults in zip(psis, subgroup_spectrum(table, U, psis).multiplicities):
                for pi, m in enumerate(mults.tolist()):
                    ref = brute_multiplicity(table, pi, U, psi)
                    assert abs(ref - m) < 1e-9
                    assert m >= 0


def test_induced_character_matches_brute(s3_table, q8_table, corpus_tables):
    for table in (s3_table, q8_table, corpus_tables["dihedral:4"]):
        G = table.group
        for U in enumerate_subgroups(G):
            for psi in linear_characters(U):
                ind = induced_character(U, psi, table)
                for k, rep in enumerate(G.class_reps):
                    ref = brute_induced_character_value(U, psi, int(rep))
                    assert abs(ind.values[k] - ref) < 1e-10
                assert ind.dimension == U.num_cosets


def test_induced_multiplicities_decompose_dimension(s3_table, q8_table):
    for table in (s3_table, q8_table):
        G = table.group
        for U in enumerate_subgroups(G):
            for psi in linear_characters(U):
                ind = induced_character(U, psi, table)
                total = sum(m * d for m, d in zip(ind.multiplicities, table.degrees))
                assert total == U.num_cosets


def test_monomial_matrices_structure(s3_table, s3):
    U = subgroup_closure(s3, [1])
    psi = linear_characters(U)[1]
    rep = induced_rep(U, psi)
    assert rep.dimension == 3
    G = s3
    for g in range(G.order):
        M = rep.matrix(g)
        nz = np.abs(M) > 1e-12
        assert nz.sum(axis=0).tolist() == [1, 1, 1]
        assert nz.sum(axis=1).tolist() == [1, 1, 1]
        assert np.allclose(np.abs(M[nz]), 1.0)
    assert np.allclose(rep.matrix(0), np.eye(3))
    # homomorphism, exhaustively
    for a in range(G.order):
        for b in range(G.order):
            product = rep.matrix(G.mul_table[a, b])
            assert np.allclose(rep.matrix(a) @ rep.matrix(b), product, atol=1e-12)


def test_monomial_trace_equals_induced_character(q8_table, q8):
    center = subgroup_closure(q8, [1])
    for psi in linear_characters(center):
        rep = induced_rep(center, psi)
        ind = induced_character(center, psi, q8_table)
        assert np.allclose(rep.character, ind.values, atol=1e-10)


def test_trivial_subgroup_induces_regular_representation(s3_table, s3):
    U = Subgroup(s3, [0])
    psi = linear_characters(U)[0]
    ind = induced_character(U, psi, s3_table)
    # regular representation: each irrep appears with multiplicity = degree
    assert ind.multiplicities == s3_table.degrees
    assert ind != induced_character(U, psi, s3_table)  # eq=False: by identity, never elementwise
    assert abs(ind.values[0] - 6) < 1e-12
    assert np.allclose(ind.values[1:], 0, atol=1e-12)


def test_full_subgroup_induces_by_multiplicity_of_psi(s3_table, s3):
    U = Subgroup(s3, range(6))
    trivial, sign = linear_characters(U)
    assert induced_character(U, trivial, s3_table).multiplicities == (1, 0, 0)
    assert induced_character(U, sign, s3_table).multiplicities == (0, 1, 0)


def test_induced_rep_past_the_old_index_cap():
    # index 128: the monomial action is computed per element, never stored
    G = make_named_group("cyclic:128")
    U = Subgroup(G, [0])
    psi = linear_characters(U)[0]
    rep = induced_rep(U, psi)
    assert rep.dimension == 128
    assert rep.character[0] == 128
    assert not rep.character[1:].any()
    assert np.array_equal(rep.character, induced_character(U, psi, character_table(G)).values)
    rng = np.random.default_rng(128)
    for a, b in rng.integers(0, G.order, size=(20, 2)).tolist():
        Ma, Mb = rep.matrix(a), rep.matrix(b)
        for M in (Ma, Mb):
            nz = M != 0
            assert nz.sum(axis=0).tolist() == nz.sum(axis=1).tolist() == [1] * 128
            assert np.array_equal(M[nz], np.ones(128))
        assert np.array_equal(Ma @ Mb, rep.matrix(G.mul_table[a, b]))
    for g in (-1, G.order):
        with pytest.raises(IndexOutOfRange):
            rep.matrix(g)


def test_nonintegral_multiplicity_detected(s3_table, s3):
    values = s3_table.values.copy()
    values[2, 2] += 0.5
    broken = CharacterTable(group=s3, values=values, degrees=s3_table.degrees)
    U = subgroup_closure(s3, [1])
    psi = linear_characters(U)[1]
    with pytest.raises(NonIntegralMultiplicity) as alone:
        subgroup_spectrum(broken, U, [psi])
    # the stacked snap fails on the first failing psi, with the same message
    with pytest.raises(NonIntegralMultiplicity) as stacked:
        subgroup_spectrum(broken, U, np.array([psi, linear_characters(U)[0]]))
    assert str(stacked.value) == str(alone.value)


def test_failing_block_yields_the_characters_before_it(s3_table, s3):
    U = Subgroup(s3, range(6))
    trivial, sign = linear_characters(U)
    bad = sign.copy()
    bad[1] = -bad[1]  # unit modulus and 1 at the identity, not multiplicative
    spectra = subgroup_spectra(s3_table, U, np.array([trivial, sign, bad, trivial]), 0)
    assert np.array_equal(next(spectra).psi_values, [trivial])
    assert np.array_equal(next(spectra).psi_values, [sign])
    with pytest.raises(NonIntegralMultiplicity) as err:
        next(spectra)
    with pytest.raises(NonIntegralMultiplicity) as alone:
        subgroup_spectrum(s3_table, U, [bad])
    assert str(err.value) == str(alone.value)


# --- kernel identity --------------------------------------------------------


def test_kernel_identity_spot_s3(s3_table, s3):
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    spectrum = subgroup_spectrum(s3_table, U, [sign])
    assert kernel_multiplicity_identity_check(spectrum).tolist() == [True]
    assert spectrum.residuals.max() < 1e-10
    assert [round(v.real) for v in spectrum.kernels[0, :, 0]] == [0, 2, 2]
    assert spectrum.multiplicities.tolist() == [[0, 1, 1]]
    assert spectrum.conjugate_multiplicities.tolist() == [[0, 1, 1]]


def test_kernel_identity_spot_q8_center(q8_table, q8):
    center = subgroup_closure(q8, [1])
    assert center.members == (0, 1)
    # the character with psi(-1) = -1
    at_1 = center.members.index(1)
    psi = next(p for p in linear_characters(center) if abs(p[at_1] + 1) < 1e-9)
    spectrum = subgroup_spectrum(q8_table, center, [psi])
    assert kernel_multiplicity_identity_check(spectrum).all()
    assert abs(spectrum.kernels[0, 4, 0] - 4) < 1e-10
    assert spectrum.multiplicities[0, 4] == 2
    assert [round(v.real) for v in spectrum.kernels[0, :4, 0]] == [0, 0, 0, 0]


def test_kernel_identity_needs_conjugate_for_complex_psi():
    # G = cyclic:3, U = G, psi a nontrivial character: the kernel value at the
    # identity pairs with the multiplicity of the CONJUGATE induction
    G = make_named_group("cyclic:3")
    table = character_table(G)
    U = Subgroup(G, range(3))
    psi = linear_characters(U)[1]
    spectrum = subgroup_spectrum(table, U, [psi])
    assert kernel_multiplicity_identity_check(spectrum).all()
    mults, conj_mults = spectrum.multiplicities[0], spectrum.conjugate_multiplicities[0]
    assert mults.tolist() != conj_mults.tolist()
    assert sorted(mults.tolist()) == [0, 0, 1]
    kernels = [round(v.real) for v in spectrum.kernels[0, :, 0]]
    assert sorted(kernels) == [0, 0, 3]
    # the naive pairing fails where the two multiplicity vectors differ
    naive = [abs(k - 3 * m) for k, m in zip(spectrum.kernels[0, :, 0], mults)]
    assert abs(max(naive) - 3) < 1e-9


def test_kernel_identity_across_sweep_spot(corpus_tables):
    table = corpus_tables["dihedral:4"]
    for U in enumerate_subgroups(table.group):
        spectrum = subgroup_spectrum(table, U, linear_characters(U))
        assert kernel_multiplicity_identity_check(spectrum).all()
        assert spectrum.residuals.max() < 1e-10


def test_subgroup_spectrum_wiring_and_read_only(s3_table, s3, q8):
    U = subgroup_closure(s3, [3])
    psis = linear_characters(U)
    spectrum = subgroup_spectrum(s3_table, U, psis)
    assert spectrum.kernels.shape == (3, 3, 6)
    assert spectrum.psi_values is psis  # the read-only stack, not a copy
    for a in (
        spectrum.psi_values,
        spectrum.kernels,
        spectrum.multiplicities,
        spectrum.conjugate_multiplicities,
        spectrum.residuals,
    ):
        assert not a.flags.writeable
    with pytest.raises(ValueError):
        spectrum.kernels[0, 0, 0] = 0
    other = subgroup_closure(q8, [1])
    with pytest.raises(GroupMismatch):
        subgroup_spectrum(s3_table, other, linear_characters(other)[:1])
    with pytest.raises(SubgroupMismatch):  # rows of two subgroups, a ragged list
        subgroup_spectrum(s3_table, U, [psis[0], linear_characters(subgroup_closure(s3, [1]))[0]])
    with pytest.raises(SubgroupMismatch):
        subgroup_spectrum(s3_table, U, linear_characters(subgroup_closure(s3, [1])))
    with pytest.raises(ValueError):
        subgroup_spectrum(s3_table, U, [])
    # a writable stack is copied, so the caller's array stays the caller's
    values = np.array(psis)
    spectrum = subgroup_spectrum(s3_table, U, values)
    assert values.flags.writeable and not spectrum.psi_values.flags.writeable
    values[1] = values[2]
    assert np.array_equal(spectrum.psi_values, psis)
    # so is a read-only view of a writable stack; a view of psis is not
    values = np.array(psis)
    view = values[:]
    view.setflags(write=False)
    spectrum = subgroup_spectrum(s3_table, U, view)
    assert spectrum.psi_values is not view
    values[1] = values[2]
    assert np.array_equal(spectrum.psi_values, psis)
    assert subgroup_spectrum(s3_table, U, psis[1:]).psi_values.base is psis


def test_scalar_stack_is_a_subgroup_mismatch(s3_table, s3):
    U = subgroup_closure(s3, [1])
    with pytest.raises(SubgroupMismatch, match="cover exactly the members"):
        subgroup_spectrum(s3_table, U, 5)
    with pytest.raises(SubgroupMismatch, match="cover exactly the members"):
        next(subgroup_spectra(s3_table, U, 5))
    with pytest.raises(SubgroupMismatch, match="cover exactly the members"):
        subgroup_spectrum(s3_table, U, np.array(1.0))


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
def test_identity_check_refuses_a_tolerance_that_is_not_positive(s3_table, s3, tol):
    U = subgroup_closure(s3, [1])
    spectrum = subgroup_spectrum(s3_table, U, linear_characters(U))
    with pytest.raises(ValueError, match="tol must be positive"):
        kernel_multiplicity_identity_check(spectrum, tol)


def test_character_values_are_checked_where_they_enter(s3_table, s3):
    U = subgroup_closure(s3, [1])
    psis = linear_characters(U)
    entries = (
        lambda row: subgroup_spectrum(s3_table, U, [row]),
        lambda row: induced_character(U, row, s3_table),
        lambda row: induced_rep(U, row),
    )
    for enter in entries:
        with pytest.raises(SubgroupMismatch, match="cover exactly the members"):
            enter([1.0])  # missing member 1
        with pytest.raises(SubgroupMismatch, match="cover exactly the members"):
            enter(linear_characters(subgroup_closure(s3, [3]))[1])  # another subgroup's
        with pytest.raises(SubgroupMismatch, match="cover exactly the members"):
            enter(psis)  # a stack where one row is taken, a 3-D stack for a spectrum
        with pytest.raises(ValueError, match="modulus 1"):
            enter([1.0, 2.0])
        with pytest.raises(ValueError, match="at the identity must be 1"):
            enter([-1.0, 1.0])
        with pytest.raises(ValueError, match="at the identity must be 1"):
            enter([1j, 1.0])


@pytest.mark.parametrize("row", [[1.0, np.nan], [np.nan, 1.0], [1.0, complex(np.nan, 1.0)]])
def test_nan_character_values_are_refused(s3_table, s3, row):
    # every comparison with NaN is false, so a check written as "too far"
    # would let it through, and a spectrum would blame the multiplicities
    U = subgroup_closure(s3, [1])
    entries = (
        lambda: subgroup_spectrum(s3_table, U, [row]),
        lambda: induced_character(U, row, s3_table),
        lambda: induced_rep(U, row),
    )
    for enter in entries:
        with pytest.raises(ValueError, match="modulus 1"):
            enter()


def test_kernel_values_match_brute(s3_table, s3):
    U = subgroup_closure(s3, [3])
    psis = linear_characters(U)
    kernels = subgroup_spectrum(s3_table, U, psis).kernels
    for j, psi in enumerate(psis):
        for pi in range(3):
            assert np.allclose(
                kernels[j, pi], brute_kernel_values(s3_table, pi, U, psi), atol=1e-10
            )


# --- fubini oracle ----------------------------------------------------------


def test_fubini_matches_brute_and_is_seed_independent(s3_table, q8_table):
    for table in (s3_table, q8_table):
        G = table.group
        fs = draw_test_functions(G, 5, range(3))
        for U in enumerate_subgroups(G)[:4]:
            for psi in linear_characters(U):
                for pi in range(table.num_irreps):
                    for f in fs:
                        a0, b0 = fubini_interchange_oracle(table, pi, U, psi, f, seed=0)
                        a1, b1 = fubini_interchange_oracle(table, pi, U, psi, f, seed=17)
                        ref = brute_fubini_value(table, pi, U, psi, f)
                        assert abs(a0 - ref) < 1e-10 * (1 + abs(ref))
                        assert abs(b0 - ref) < 1e-10 * (1 + abs(ref))
                        assert abs(a0 - a1) < 1e-10 * (1 + abs(ref))
                        assert abs(b0 - b1) < 1e-10 * (1 + abs(ref))


def test_fubini_requires_matching_group(s3_table, q8_table, q8):
    U = Subgroup(q8, [0, 1])
    psi = linear_characters(U)[0]
    delta = np.eye(q8.order, dtype=np.complex128)[0]
    with pytest.raises(GroupMismatch):
        fubini_interchange_oracle(s3_table, 0, U, psi, delta)
    # f is checked by its shape: one value per element of the table's group
    with pytest.raises(GroupMismatch):
        fubini_interchange_oracle(q8_table, 0, U, psi, delta[:6])


# --- truncation -------------------------------------------------------------


def test_truncation_final_stage_is_bit_identical(s3_table, s3, q8_table, q8):
    cases = [
        (s3_table, subgroup_closure(s3, [3]), [{0}, {0, 3, 4}]),
        (q8_table, subgroup_closure(q8, [2]), [{0}, {0, 1}, {0, 1, 2, 3}]),
    ]
    for table, U, chain in cases:
        psis = linear_characters(U)
        kernels = subgroup_spectrum(table, U, psis).kernels
        for psi, psi_kernels in zip(psis, kernels):
            for pi in range(table.num_irreps):
                stages = truncation_demo(U, psi, table, pi, chain)
                assert len(stages) == len(chain)
                assert np.array_equal(stages[-1], psi_kernels[pi])


def test_truncation_chain_validation(s3_table, s3):
    U = subgroup_closure(s3, [3])
    psi = linear_characters(U)[0]

    with pytest.raises(ChainNotNested):
        truncation_demo(U, psi, s3_table, 0, [{0, 1}])  # 1 outside U
    with pytest.raises(ChainNotNested):
        truncation_demo(U, psi, s3_table, 0, [{0, 3, 4}, {0}, {0, 3, 4}])
    with pytest.raises(ChainNotSymmetric):
        truncation_demo(U, psi, s3_table, 0, [{3, 4}, {0, 3, 4}])  # identity missing
    with pytest.raises(ChainNotSymmetric):
        truncation_demo(U, psi, s3_table, 0, [{0, 3}, {0, 3, 4}])  # inverse missing
    with pytest.raises(ChainNotExhaustive):
        truncation_demo(U, psi, s3_table, 0, [])
    with pytest.raises(ChainNotExhaustive):
        truncation_demo(U, psi, s3_table, 0, [{0}])


# --- probe ------------------------------------------------------------------


def test_probe_trivial_configuration_gives_unit_ratios(s3_table, s3):
    U = Subgroup(s3, [0])
    psi = linear_characters(U)[0]
    spectrum = subgroup_spectrum(s3_table, U, [psi])
    assert kernel_multiplicity_identity_check(spectrum).all()
    rec = conjecture_probe(spectrum, probe_plan(s3_table, 10, seed=1))
    assert not rec.flagged.any()
    assert rec.constant.all()
    for ratio in rec.ratios.ravel():
        assert abs(ratio - 1) <= 1e-9


def test_probe_s3_sign_distinguishes_irreps(s3_table, s3):
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    spectrum = subgroup_spectrum(s3_table, U, [sign])
    assert kernel_multiplicity_identity_check(spectrum).all()
    rec = conjecture_probe(spectrum, probe_plan(s3_table, 20, seed=0))
    triv, sgn, std = range(3)
    constant, ratios = rec.constant[0], rec.ratios[0]
    # trivial irrep: kernel vanishes identically, all ratios 0
    assert spectrum.multiplicities[0, 0] == 0
    assert constant[triv]
    assert all(abs(r) < 1e-12 for r in ratios[triv])
    # sign irrep: kernel = 2 * theta, ratio exactly 2 for every sample
    assert constant[sgn]
    assert all(abs(r - 2) < 1e-9 for r in ratios[sgn])
    # standard irrep: kernel is NOT proportional to theta
    assert not constant[std]
    # and the identity-point ratios reproduce the frozen spot values
    assert abs(spectrum.kernels[0, 1, 0] / s3_table.degrees[1] - 2) < 1e-10
    assert abs(spectrum.kernels[0, 2, 0] / s3_table.degrees[2] - 1) < 1e-10


def test_probe_ratio_at_delta_equals_kernel_over_degree(s3_table, s3):
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    delta = np.eye(s3.order, dtype=np.complex128)[0]
    spectrum = subgroup_spectrum(s3_table, U, [sign])
    for pi, expected in ((1, 2), (2, 1)):
        (ratio,) = spectrum.kernels[:, pi] @ delta / (delta @ s3_table.element_values[pi])
        assert abs(ratio - expected) < 1e-10


def test_probe_rejects_bad_count(s3_table):
    with pytest.raises(ValueError):
        probe_plan(s3_table, 0)


def test_probe_determinism(q8_table, q8):
    center = subgroup_closure(q8, [1])
    psi = linear_characters(center)[1]
    r1 = conjecture_probe(
        subgroup_spectrum(q8_table, center, [psi]), probe_plan(q8_table, 5, seed=42)
    )
    r2 = conjecture_probe(
        subgroup_spectrum(q8_table, center, [psi]), probe_plan(q8_table, 5, seed=42)
    )
    assert r1.ratios.shape == r2.ratios.shape == (1, q8_table.num_irreps, 5)
    assert np.array_equal(r1.ratios, r2.ratios)
    assert np.array_equal(r1.flagged, r2.flagged)
    assert np.array_equal(r1.spread, r2.spread)
