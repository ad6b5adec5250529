"""Functions as arrays, convolution, inversion, and the transform identity."""

from __future__ import annotations

import numpy as np
import pytest

from finharm import (
    GroupMismatch,
    IndexOutOfRange,
    Subgroup,
    SubgroupMismatch,
    character_table,
    convolve_over_subgroup,
    enumerate_subgroups,
    generalized_plancherel_check_batch,
    linear_characters,
    make_named_group,
    plancherel_invert_at_identity,
    subgroup_closure,
    subgroup_spectrum,
)
from finharm import test_functions as draw_test_functions
from finharm.induction import _on_parent
from oracle_helpers import brute_convolve, brute_inversion, brute_whittaker_sides, psi_at


def _delta(G, g):
    """The function 1 at element g and 0 elsewhere."""
    return np.eye(G.order, dtype=np.complex128)[g]


def _indicator(G, elements):
    return np.isin(np.arange(G.order), elements).astype(np.complex128)


def test_delta_and_indicator(s3):
    d = _delta(s3, 2)
    assert d.tolist() == [0, 0, 1, 0, 0, 0]
    for U in (subgroup_closure(s3, [1]), subgroup_closure(s3, [3])):
        _check_delta_and_indicator(s3, U)
    # element indices reach the library through subgroups, which check them
    with pytest.raises(IndexOutOfRange):
        Subgroup(s3, [0, 6])
    with pytest.raises(IndexOutOfRange):
        subgroup_closure(s3, [-1])


def _check_delta_and_indicator(s3, U):
    for psi in linear_characters(U):
        on_G = _on_parent(U, psi)
        # psi *_U delta_g is psi(x g^-1) on the coset U g and zero off it
        for g in range(s3.order):
            expected = [on_G[s3.mul_table[x, s3.inv_table[g]]] for x in range(s3.order)]
            out = convolve_over_subgroup(psi, U, _delta(s3, g))
            assert out.tolist() == expected
        # psi *_U 1_U is |U| * 1_U for the trivial psi and zero otherwise
        total = psi.sum()
        out = convolve_over_subgroup(psi, U, _indicator(s3, U.members))
        assert np.allclose(out, total * _indicator(s3, U.members), atol=1e-12)


def test_right_translate(s3):
    f = draw_test_functions(s3, 17, [0])[0]
    U = subgroup_closure(s3, [3])
    for g in range(s3.order):
        shifted = f[s3.mul_table[:, g]]  # (R_g f)(x) = f(x g)
        for x in range(s3.order):
            assert shifted[x] == f[s3.mul_table[x, g]]
        # convolution over U acts on the left, so it commutes with R_g
        for psi in linear_characters(U):
            W = convolve_over_subgroup(psi, U, f)
            assert np.allclose(
                convolve_over_subgroup(psi, U, shifted),
                W[s3.mul_table[:, g]],
                atol=1e-12,
            )
    with pytest.raises(IndexError):
        s3.mul_table[0, 7]


def test_values_read_only(s3_table, s3):
    F = draw_test_functions(s3, 5, range(2))
    U = subgroup_closure(s3, [1])
    spectrum = subgroup_spectrum(s3_table, U, linear_characters(U))
    record = generalized_plancherel_check_batch(spectrum, F)
    arrays = [F, s3_table.element_values[0], s3.mul_table, U.members_array, U.left_coset_reps]
    arrays += [spectrum.psi_values, spectrum.kernels, spectrum.multiplicities]
    arrays += [record.lhs, record.phi, record.rhs, record.abs_error]
    for a in arrays:
        with pytest.raises(ValueError):
            a.flat[0] = 5


def test_convolution_matches_brute_loops(s3, q8):
    for G, seeds in ((s3, [1]), (q8, [1])):
        U = subgroup_closure(G, seeds)
        f = draw_test_functions(G, 41, [0])[0]
        for psi in linear_characters(U):
            out = convolve_over_subgroup(psi, U, f)
            expected = brute_convolve(psi_at(U, psi), U, f)
            assert np.allclose(out, expected, atol=1e-12)


def test_convolution_rejects_bad_wiring(s3, q8):
    U = subgroup_closure(s3, [1])
    f_wrong = _delta(q8, 0)
    with pytest.raises(GroupMismatch):
        convolve_over_subgroup(np.ones(2), U, f_wrong)
    with pytest.raises(GroupMismatch):
        convolve_over_subgroup(linear_characters(U)[0], U, f_wrong)
    f = _delta(s3, 0)
    with pytest.raises(SubgroupMismatch):
        convolve_over_subgroup(np.ones(3), U, f)  # U has 2 members, not 3


def test_theta_frozen_values(s3_table, s3):
    # sign character paired with the transposition-class indicator
    transpositions = _indicator(s3, [1, 2, 5])
    assert abs(transpositions @ s3_table.element_values[1] - (-3)) < 1e-12
    assert abs(_delta(s3, 0) @ s3_table.element_values[2] - 2) < 1e-12


def test_inversion_frozen_values(s3_table, s3):
    delta = _delta(s3, 0)
    assert abs(plancherel_invert_at_identity(s3_table, delta[None])[0] - 1) < 1e-12
    # functions vanishing at the identity invert to zero
    three_cycles = _indicator(s3, [3, 4])
    assert abs(plancherel_invert_at_identity(s3_table, three_cycles[None])[0]) < 1e-12
    with pytest.raises(GroupMismatch):
        plancherel_invert_at_identity(s3_table, np.zeros((1, 8)))


def test_inversion_builds_no_element_values():
    # each slice of irreps is gathered from the class values as it is used
    table = character_table(make_named_group("heisenberg:3"))
    F = draw_test_functions(table.group, 0, range(4))
    theta = plancherel_invert_at_identity(table, F)
    assert "element_values" not in vars(table)
    expected = (F @ table.element_values.T) @ table.plancherel_weights
    assert np.allclose(theta, expected, atol=1e-12)


def test_inversion_matches_brute(corpus_groups, corpus_tables):
    for spec in ("cyclic:6", "dihedral:3", "quaternion", "symmetric:4"):
        table = corpus_tables[spec]
        G = corpus_groups[spec]
        F = draw_test_functions(G, 9, range(3))
        stacked = plancherel_invert_at_identity(table, F)
        for f, mine in zip(F, stacked):
            assert mine == plancherel_invert_at_identity(table, f[None])[0]
            ref = brute_inversion(table, f)
            assert abs(mine - ref) < 1e-10
            assert abs(mine - f[0]) < 1e-8 * (1 + np.abs(f).sum())


def test_transform_equivariance(s3_table, q8_table):
    # W(u*g) = psi(u) * W(g) for every member u
    for table in (s3_table, q8_table):
        G = table.group
        f = draw_test_functions(G, 23, [0])[0]
        for U in enumerate_subgroups(G):
            for psi in linear_characters(U):
                W = convolve_over_subgroup(psi, U, f)
                for u, value in psi_at(U, psi).items():
                    for g in range(G.order):
                        lhs = W[G.mul_table[u, g]]
                        rhs = value * W[g]
                        assert abs(lhs - rhs) < 1e-10


def test_transform_idempotence(s3_table, q8_table):
    # psi * (psi * f) = |U| * (psi * f)
    for table in (s3_table, q8_table):
        G = table.group
        f = draw_test_functions(G, 29, [0])[0]
        for U in enumerate_subgroups(G):
            for psi in linear_characters(U):
                once = convolve_over_subgroup(psi, U, f)
                twice = convolve_over_subgroup(psi, U, once)
                assert np.allclose(twice, U.order * once, atol=1e-10)


def test_kernel_total_mass(s3_table, q8_table):
    # sum_x kernel(x) = conj(sum_u psi(u)) * sum_x theta(x)
    for table in (s3_table, q8_table):
        G = table.group
        for U in enumerate_subgroups(G):
            psis = linear_characters(U)
            for psi, kernels in zip(psis, subgroup_spectrum(table, U, psis).kernels):
                for pi in range(table.num_irreps):
                    lhs = complex(kernels[pi].sum())
                    psi_mass = sum(psi_at(U, psi).values())
                    theta_mass = complex(table.element_values[pi].sum())
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
                kernel_matrix = _on_parent(U, psi)[mul[:, inv]]
                assert np.linalg.matrix_rank(kernel_matrix) == U.num_cosets


def test_check_frozen_s3_spot(s3_table, s3):
    U = subgroup_closure(s3, [1])
    sign = linear_characters(U)[1]
    spectrum = subgroup_spectrum(s3_table, U, [sign])
    delta = _delta(s3, 0)
    record = generalized_plancherel_check_batch(spectrum, delta[None])
    assert record.lhs.shape == record.rhs.shape == record.abs_error.shape == (1, 1)
    assert record.phi.shape == (1, 1, 3)
    assert record.lhs[0, 0] == 1
    assert abs(record.rhs[0, 0] - 1) < 1e-12
    assert [round(p.real, 9) for p in record.phi[0, 0]] == [0, 2, 2]
    assert spectrum.multiplicities[0].tolist() == [0, 1, 1]
    assert record.abs_error[0, 0] < 1e-12
    # the verdict's norm, np.abs(F).sum(axis=1) once per report
    assert np.abs(delta[None]).sum(axis=1)[0] == 1.0
    for arr in (record.lhs, record.phi, record.rhs, record.abs_error):
        assert not arr.flags.writeable


def test_check_matches_brute_sides(s3_table, q8_table):
    for table in (s3_table, q8_table):
        G = table.group
        F = draw_test_functions(G, 77, range(2))
        f_l1 = np.abs(F).sum(axis=1)
        for U in enumerate_subgroups(G):
            psis = linear_characters(U)
            rec = generalized_plancherel_check_batch(subgroup_spectrum(table, U, psis), F)
            for j, psi in enumerate(psis):
                for i, f in enumerate(F):
                    lhs_ref, rhs_ref = brute_whittaker_sides(table, U, psi, f)
                    assert abs(rec.lhs[j, i] - lhs_ref) < 1e-10
                    assert abs(rec.rhs[j, i] - rhs_ref) < 1e-10
                    assert rec.abs_error[j, i] <= 1e-10 * (1 + f_l1[i])


def test_batch_matches_single(s3_table, s3):
    U = subgroup_closure(s3, [3])
    psi = linear_characters(U)[2]
    F = draw_test_functions(s3, 13, range(4))
    spectrum = subgroup_spectrum(s3_table, U, [psi])
    batch = generalized_plancherel_check_batch(spectrum, F)
    for i in range(len(F)):
        single = generalized_plancherel_check_batch(spectrum, F[i : i + 1])
        assert batch.lhs[0, i] == single.lhs[0, 0]
        assert batch.rhs[0, i] == single.rhs[0, 0]
        assert np.array_equal(batch.phi[0, i], single.phi[0, 0])
        # the left-hand side is the transform at the identity, bit for bit
        assert batch.lhs[0, i] == convolve_over_subgroup(psi, U, F[i])[0]
    with pytest.raises(GroupMismatch):
        generalized_plancherel_check_batch(spectrum, F[0])


def test_trivial_subgroup_degenerates_to_inversion(corpus_groups, corpus_tables):
    # U = {identity}, psi trivial: the transform is the identity map and the
    # weighted kernel sum is plain pointwise inversion, bit for bit
    for spec in ("symmetric:3", "quaternion", "cyclic:6"):
        G = corpus_groups[spec]
        table = corpus_tables[spec]
        U = Subgroup(G, [0])
        psi = linear_characters(U)[0]
        f = draw_test_functions(G, 3, [0])[0]
        W = convolve_over_subgroup(psi, U, f)
        assert np.array_equal(W, f)
        spectrum = subgroup_spectrum(table, U, [psi])
        rec = generalized_plancherel_check_batch(spectrum, f[None])
        assert rec.rhs[0, 0] == plancherel_invert_at_identity(table, f[None])[0]
        for pi in range(table.num_irreps):
            kernel = spectrum.kernels[0, pi]
            assert np.array_equal(kernel, table.element_values[pi])


def test_character_as_function(s3_table, s3):
    f = s3_table.element_values[2]
    assert np.allclose(f, [2, 0, 0, -1, -1, 0], atol=1e-12)
