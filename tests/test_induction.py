"""Induced representations, the kernel identity, and the derivation oracles."""

from __future__ import annotations

import numpy as np
import pytest

from finharm import (
    ChainNotExhaustive,
    ChainNotNested,
    ChainNotSymmetric,
    CharacterTable,
    GroupFunction,
    GroupMismatch,
    IndexTooLarge,
    NonIntegralMultiplicity,
    Subgroup,
    SubgroupMismatch,
    character_table,
    conjecture_probe,
    enumerate_subgroups,
    fubini_interchange_oracle,
    induced_character,
    induced_rep_matrices,
    kernel_multiplicity_identity_check,
    linear_characters,
    make_named_group,
    multiplicity_frobenius,
    pair_spectrum,
    phi,
    random_test_functions,
    subgroup_closure,
    theta,
    truncation_demo,
)
from oracle_helpers import (
    brute_fubini_value,
    brute_induced_character_value,
    brute_kernel_values,
    brute_multiplicity,
)


def test_frobenius_matches_brute(s3_table, q8_table):
    for table in (s3_table, q8_table):
        G = table.group
        for U in enumerate_subgroups(G):
            for psi in linear_characters(U):
                for pi in range(table.num_irreps):
                    ref = brute_multiplicity(table, pi, U, psi)
                    m = multiplicity_frobenius(table, pi, U, psi)
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
    rep = induced_rep_matrices(U, psi)
    assert rep.dimension == 3
    G = s3
    for g in range(G.order):
        M = rep.matrices[g]
        nz = np.abs(M) > 1e-12
        assert nz.sum(axis=0).tolist() == [1, 1, 1]
        assert nz.sum(axis=1).tolist() == [1, 1, 1]
        assert np.allclose(np.abs(M[nz]), 1.0)
    assert np.allclose(rep.matrices[0], np.eye(3))
    # homomorphism, exhaustively
    for a in range(G.order):
        for b in range(G.order):
            assert np.allclose(
                rep.matrices[a] @ rep.matrices[b], rep.matrices[G.mul(a, b)], atol=1e-12
            )


def test_monomial_trace_equals_induced_character(q8_table, q8):
    center = subgroup_closure(q8, [1])
    for psi in linear_characters(center):
        rep = induced_rep_matrices(center, psi)
        ind = induced_character(center, psi, q8_table)
        assert np.allclose(rep.character, ind.values, atol=1e-10)


def test_trivial_subgroup_induces_regular_representation(s3_table, s3):
    U = Subgroup(s3, [0])
    psi = linear_characters(U)[0]
    ind = induced_character(U, psi, s3_table)
    # regular representation: each irrep appears with multiplicity = degree
    assert ind.multiplicities == s3_table.degrees
    assert abs(ind.values[0] - 6) < 1e-12
    assert np.allclose(ind.values[1:], 0, atol=1e-12)


def test_full_subgroup_induces_by_multiplicity_of_psi(s3_table, s3):
    U = Subgroup(s3, range(6))
    trivial, sign = linear_characters(U)
    assert induced_character(U, trivial, s3_table).multiplicities == (1, 0, 0)
    assert induced_character(U, sign, s3_table).multiplicities == (0, 1, 0)


def test_induced_matrix_index_cap():
    G = make_named_group("cyclic:128")
    U = Subgroup(G, [0])
    psi = linear_characters(U)[0]
    with pytest.raises(IndexTooLarge):
        induced_rep_matrices(U, psi)


def test_nonintegral_multiplicity_detected(s3_table, s3):
    values = s3_table.values.copy()
    values[2, 2] += 0.5
    broken = CharacterTable(
        group=s3,
        num_irreps=3,
        values=values,
        degrees=s3_table.degrees,
        plancherel_weights=s3_table.plancherel_weights,
    )
    U = subgroup_closure(s3, [1])
    psi = linear_characters(U)[1]
    with pytest.raises(NonIntegralMultiplicity):
        multiplicity_frobenius(broken, 2, U, psi)


# --- kernel identity --------------------------------------------------------


def test_kernel_identity_spot_s3(s3_table, s3):
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    spectrum = pair_spectrum(s3_table, U, sign)
    assert kernel_multiplicity_identity_check(spectrum)
    assert max(spectrum.residuals) < 1e-10
    assert [round(v.real) for v in spectrum.kernels[:, 0]] == [0, 2, 2]
    assert spectrum.multiplicities == (0, 1, 1)
    assert spectrum.conjugate_multiplicities == (0, 1, 1)


def test_kernel_identity_spot_q8_center(q8_table, q8):
    center = subgroup_closure(q8, [1])
    assert center.members == (0, 1)
    # the character with psi(-1) = -1
    psi = next(p for p in linear_characters(center) if abs(p(1) + 1) < 1e-9)
    spectrum = pair_spectrum(q8_table, center, psi)
    assert kernel_multiplicity_identity_check(spectrum)
    assert abs(spectrum.kernels[4, 0] - 4) < 1e-10
    assert spectrum.multiplicities[4] == 2
    assert [round(v.real) for v in spectrum.kernels[:4, 0]] == [0, 0, 0, 0]


def test_kernel_identity_needs_conjugate_for_complex_psi():
    # G = cyclic:3, U = G, psi a nontrivial character: the kernel value at the
    # identity pairs with the multiplicity of the CONJUGATE induction
    G = make_named_group("cyclic:3")
    table = character_table(G)
    U = Subgroup(G, range(3))
    psi = linear_characters(U)[1]
    spectrum = pair_spectrum(table, U, psi)
    assert kernel_multiplicity_identity_check(spectrum)
    assert spectrum.multiplicities != spectrum.conjugate_multiplicities
    assert sorted(spectrum.multiplicities) == [0, 0, 1]
    kernels = [round(v.real) for v in spectrum.kernels[:, 0]]
    assert sorted(kernels) == [0, 0, 3]
    # the naive pairing fails where the two multiplicity vectors differ
    naive = [abs(k - 3 * m) for k, m in zip(spectrum.kernels[:, 0], spectrum.multiplicities)]
    assert abs(max(naive) - 3) < 1e-9


def test_kernel_identity_across_sweep_spot(corpus_tables):
    table = corpus_tables["dihedral:4"]
    for U in enumerate_subgroups(table.group):
        for psi in linear_characters(U):
            spectrum = pair_spectrum(table, U, psi)
            assert kernel_multiplicity_identity_check(spectrum)
            assert max(spectrum.residuals) < 1e-10


def test_pair_spectrum_wiring_and_read_only(s3_table, s3, q8):
    U = subgroup_closure(s3, [3])
    psi = linear_characters(U)[1]
    spectrum = pair_spectrum(s3_table, U, psi)
    assert spectrum.kernels.shape == (3, 6)
    with pytest.raises(ValueError):
        spectrum.kernels[0, 0] = 0
    other = subgroup_closure(q8, [1])
    with pytest.raises(GroupMismatch):
        pair_spectrum(s3_table, other, linear_characters(other)[0])
    with pytest.raises(SubgroupMismatch):
        pair_spectrum(s3_table, U, linear_characters(subgroup_closure(s3, [1]))[0])


def test_kernel_values_match_brute(s3_table, s3):
    U = subgroup_closure(s3, [3])
    for psi in linear_characters(U):
        kernels = pair_spectrum(s3_table, U, psi).kernels
        for pi in range(3):
            assert np.allclose(kernels[pi], brute_kernel_values(s3_table, pi, U, psi), atol=1e-10)


# --- fubini oracle ----------------------------------------------------------


def test_fubini_matches_brute_and_is_seed_independent(s3_table, q8_table):
    for table in (s3_table, q8_table):
        G = table.group
        fs = random_test_functions(G, 3, seed=5)
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


def test_fubini_requires_matching_group(s3_table, q8):
    U = Subgroup(q8, [0, 1])
    psi = linear_characters(U)[0]
    with pytest.raises(GroupMismatch):
        fubini_interchange_oracle(s3_table, 0, U, psi, GroupFunction.delta(q8, 0))


# --- truncation -------------------------------------------------------------


def test_truncation_final_stage_is_bit_identical(s3_table, s3, q8_table, q8):
    cases = [
        (s3_table, subgroup_closure(s3, [3]), [{0}, {0, 3, 4}]),
        (q8_table, subgroup_closure(q8, [2]), [{0}, {0, 1}, {0, 1, 2, 3}]),
    ]
    for table, U, chain in cases:
        for psi in linear_characters(U):
            kernels = pair_spectrum(table, U, psi).kernels
            for pi in range(table.num_irreps):
                stages = truncation_demo(U, psi, table, pi, chain)
                assert len(stages) == len(chain)
                assert np.array_equal(stages[-1].values, kernels[pi])


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
    spectrum = pair_spectrum(s3_table, U, psi)
    assert kernel_multiplicity_identity_check(spectrum)
    for rec in conjecture_probe(spectrum, 10, seed=1):
        assert not any(rec.theta_zero_flags)
        assert rec.ratio_constant
        for ratio in rec.ratio_samples:
            assert abs(ratio - 1) <= 1e-9


def test_probe_s3_sign_distinguishes_irreps(s3_table, s3):
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    spectrum = pair_spectrum(s3_table, U, sign)
    assert kernel_multiplicity_identity_check(spectrum)
    triv, sgn, std = conjecture_probe(spectrum, 20, seed=0)
    # trivial irrep: kernel vanishes identically, all ratios 0
    assert spectrum.multiplicities[0] == 0
    assert triv.ratio_constant
    assert all(abs(r) < 1e-12 for r in triv.ratio_samples)
    # sign irrep: kernel = 2 * theta, ratio exactly 2 for every sample
    assert sgn.ratio_constant
    assert all(abs(r - 2) < 1e-9 for r in sgn.ratio_samples)
    # standard irrep: kernel is NOT proportional to theta
    assert not std.ratio_constant
    # and the identity-point ratios reproduce the frozen spot values
    assert abs(spectrum.kernels[1, 0] / s3_table.degrees[1] - 2) < 1e-10
    assert abs(spectrum.kernels[2, 0] / s3_table.degrees[2] - 1) < 1e-10


def test_probe_ratio_at_delta_equals_kernel_over_degree(s3_table, s3):
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    delta = GroupFunction.delta(s3, 0)
    spectrum = pair_spectrum(s3_table, U, sign)
    for pi, expected in ((1, 2), (2, 1)):
        ratio = phi(spectrum, pi, delta) / theta(s3_table, pi, delta)
        assert abs(ratio - expected) < 1e-10


def test_probe_rejects_bad_count(s3_table, s3):
    U = Subgroup(s3, [0])
    psi = linear_characters(U)[0]
    with pytest.raises(ValueError):
        conjecture_probe(pair_spectrum(s3_table, U, psi), 0)


def test_probe_determinism(q8_table, q8):
    center = subgroup_closure(q8, [1])
    psi = linear_characters(center)[1]
    r1 = conjecture_probe(pair_spectrum(q8_table, center, psi), 5, seed=42)
    r2 = conjecture_probe(pair_spectrum(q8_table, center, psi), 5, seed=42)
    assert r1 == r2
