"""Group functions, convolution, inversion, and the transform identity."""

from __future__ import annotations

import numpy as np
import pytest

from finharm import (
    GroupFunction,
    GroupMismatch,
    IndexOutOfRange,
    Subgroup,
    SubgroupMismatch,
    character_as_function,
    convolve_over_subgroup,
    enumerate_subgroups,
    generalized_plancherel_check_batch,
    linear_characters,
    make_named_group,
    pair_spectrum,
    plancherel_invert_at_identity,
    random_test_functions,
    subgroup_closure,
    theta,
    whittaker_transform,
)
from oracle_helpers import brute_convolve, brute_inversion, brute_whittaker_sides


def test_delta_and_indicator(s3):
    d = GroupFunction.delta(s3, 2)
    assert d.values.tolist() == [0, 0, 1, 0, 0, 0]
    assert d.at_identity == 0
    assert d.l1_norm == 1.0
    ind = GroupFunction.indicator(s3, [1, 2, 5])
    assert ind.l1_norm == 3.0
    with pytest.raises(IndexOutOfRange):
        GroupFunction.delta(s3, 6)
    with pytest.raises(IndexOutOfRange):
        GroupFunction.indicator(s3, [-1])
    with pytest.raises(ValueError):
        GroupFunction(s3, [1.0, 2.0])


def test_right_translate(s3):
    f = GroupFunction(s3, np.arange(6, dtype=float))
    g = 3
    shifted = f.right_translate(g)
    for x in range(6):
        assert shifted.values[x] == f.values[s3.mul(x, g)]
    with pytest.raises(IndexOutOfRange):
        f.right_translate(7)


def test_values_read_only(s3):
    f = GroupFunction.delta(s3, 0)
    with pytest.raises(ValueError):
        f.values[0] = 5.0


def test_convolution_matches_brute_loops(s3, q8):
    for G, seeds in ((s3, [1]), (q8, [1])):
        U = subgroup_closure(G, seeds)
        f = random_test_functions(G, 1, seed=41)[0]
        for psi in linear_characters(U):
            out = convolve_over_subgroup(psi.member_values, U, f.values)
            expected = brute_convolve(dict(zip(U.members, psi.member_values)), U, f)
            assert np.allclose(out, expected, atol=1e-12)


def test_convolution_rejects_bad_wiring(s3, q8):
    U = subgroup_closure(s3, [1])
    f_wrong = GroupFunction.delta(q8, 0)
    with pytest.raises(GroupMismatch):
        convolve_over_subgroup(np.ones(2), U, f_wrong.values)
    with pytest.raises(GroupMismatch):
        whittaker_transform(U, linear_characters(U)[0], f_wrong)
    f = GroupFunction.delta(s3, 0)
    with pytest.raises(SubgroupMismatch):
        convolve_over_subgroup(np.ones(3), U, f.values)  # U has 2 members, not 3


def test_theta_frozen_values(s3_table, s3):
    # sign character paired with the transposition-class indicator
    transpositions = GroupFunction.indicator(s3, [1, 2, 5])
    assert abs(theta(s3_table, 1, transpositions) - (-3)) < 1e-12
    assert abs(theta(s3_table, 2, GroupFunction.delta(s3, 0)) - 2) < 1e-12
    with pytest.raises(GroupMismatch):
        theta(s3_table, 0, GroupFunction.delta(make_named_group("cyclic:2"), 0))


def test_inversion_frozen_values(s3_table, s3):
    assert abs(plancherel_invert_at_identity(s3_table, GroupFunction.delta(s3, 0)) - 1) < 1e-12
    # functions vanishing at the identity invert to zero
    three_cycles = GroupFunction.indicator(s3, [3, 4])
    assert abs(plancherel_invert_at_identity(s3_table, three_cycles)) < 1e-12


def test_inversion_matches_brute(corpus_groups, corpus_tables):
    for spec in ("cyclic:6", "dihedral:3", "quaternion", "symmetric:4"):
        table = corpus_tables[spec]
        G = corpus_groups[spec]
        for f in random_test_functions(G, 3, seed=9):
            mine = plancherel_invert_at_identity(table, f)
            ref = brute_inversion(table, f)
            assert abs(mine - ref) < 1e-10
            assert abs(mine - f.at_identity) < 1e-8 * (1 + f.l1_norm)


def test_transform_equivariance(s3_table, q8_table):
    # W(u*g) = psi(u) * W(g) for every member u
    for table in (s3_table, q8_table):
        G = table.group
        f = random_test_functions(G, 1, seed=23)[0]
        for U in enumerate_subgroups(G):
            for psi in linear_characters(U):
                W = whittaker_transform(U, psi, f)
                for u in U.members:
                    for g in range(G.order):
                        lhs = W.values[G.mul(u, g)]
                        rhs = psi(u) * W.values[g]
                        assert abs(lhs - rhs) < 1e-10


def test_transform_idempotence(s3_table, q8_table):
    # psi * (psi * f) = |U| * (psi * f)
    for table in (s3_table, q8_table):
        G = table.group
        f = random_test_functions(G, 1, seed=29)[0]
        for U in enumerate_subgroups(G):
            for psi in linear_characters(U):
                once = whittaker_transform(U, psi, f)
                twice = whittaker_transform(U, psi, once)
                assert np.allclose(twice.values, U.order * once.values, atol=1e-10)


def test_kernel_total_mass(s3_table, q8_table):
    # sum_x kernel(x) = conj(sum_u psi(u)) * sum_x theta(x)
    for table in (s3_table, q8_table):
        G = table.group
        for U in enumerate_subgroups(G):
            for psi in linear_characters(U):
                kernels = pair_spectrum(table, U, psi).kernels
                for pi in range(table.num_irreps):
                    lhs = complex(kernels[pi].sum())
                    psi_mass = sum(psi(u) for u in U.members)
                    theta_mass = complex(table.character_on_elements(pi).sum())
                    assert abs(lhs - psi_mass.conjugate() * theta_mass) < 1e-10


def test_transform_surjectivity_rank(corpus_groups):
    # the transform maps onto a [G:U]-dimensional space
    for spec, G in corpus_groups.items():
        if G.order > 12:
            continue
        mul = G.mul_table
        inv = G.inv_table
        for U in enumerate_subgroups(G):
            for psi in linear_characters(U):
                kernel_matrix = psi.on_parent()[mul[:, inv]]
                assert np.linalg.matrix_rank(kernel_matrix) == U.num_cosets


def test_check_frozen_s3_spot(s3_table, s3):
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    spectrum = pair_spectrum(s3_table, U, sign)
    (record,) = generalized_plancherel_check_batch(spectrum, [GroupFunction.delta(s3, 0)])
    assert record.lhs == 1
    assert abs(record.rhs - 1) < 1e-12
    assert [round(t.phi.real, 9) for t in record.per_pi] == [0, 2, 2]
    assert [t.multiplicity for t in record.per_pi] == [0, 1, 1]
    assert record.abs_error < 1e-12
    assert record.f_l1 == 1.0


def test_check_matches_brute_sides(s3_table, q8_table):
    for table in (s3_table, q8_table):
        G = table.group
        fs = random_test_functions(G, 2, seed=77)
        for U in enumerate_subgroups(G):
            for psi in linear_characters(U):
                records = generalized_plancherel_check_batch(pair_spectrum(table, U, psi), fs)
                for f, rec in zip(fs, records):
                    lhs_ref, rhs_ref = brute_whittaker_sides(table, U, psi, f)
                    assert abs(rec.lhs - lhs_ref) < 1e-10
                    assert abs(rec.rhs - rhs_ref) < 1e-10
                    assert rec.abs_error <= 1e-10 * (1 + rec.f_l1)


def test_batch_matches_single(s3_table, s3):
    U = subgroup_closure(s3, [3])
    psi = linear_characters(U)[2]
    fs = random_test_functions(s3, 4, seed=13)
    spectrum = pair_spectrum(s3_table, U, psi)
    batch = generalized_plancherel_check_batch(spectrum, fs)
    for f, rec in zip(fs, batch):
        (single,) = generalized_plancherel_check_batch(spectrum, [f])
        assert rec.lhs == single.lhs
        assert rec.rhs == single.rhs
        assert rec.per_pi == single.per_pi


def test_trivial_subgroup_degenerates_to_inversion(corpus_groups, corpus_tables):
    # U = {identity}, psi trivial: the transform is the identity map and the
    # weighted kernel sum is plain pointwise inversion, bit for bit
    for spec in ("symmetric:3", "quaternion", "cyclic:6"):
        G = corpus_groups[spec]
        table = corpus_tables[spec]
        U = Subgroup(G, [0])
        psi = linear_characters(U)[0]
        f = random_test_functions(G, 1, seed=3)[0]
        W = whittaker_transform(U, psi, f)
        assert np.array_equal(W.values, f.values)
        spectrum = pair_spectrum(table, U, psi)
        (rec,) = generalized_plancherel_check_batch(spectrum, [f])
        assert rec.rhs == plancherel_invert_at_identity(table, f)
        for pi in range(table.num_irreps):
            kernel = spectrum.kernels[pi]
            assert np.array_equal(kernel, character_as_function(table, pi).values)


def test_character_as_function(s3_table, s3):
    f = character_as_function(s3_table, 2)
    assert np.allclose(f.values, [2, 0, 0, -1, -1, 0], atol=1e-12)
