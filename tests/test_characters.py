"""Character tables, orthogonality, and subgroup linear characters."""

from __future__ import annotations

import cmath

import numpy as np
import pytest

from finharm import (
    CharacterTable,
    SubgroupMismatch,
    Subgroup,
    LinearCharacter,
    character_table,
    enumerate_subgroups,
    linear_characters,
    make_named_group,
    subgroup_closure,
    verify_orthogonality,
)
from oracle_helpers import brute_multiplicity, perm_list, perm_parity

OMEGA = cmath.exp(2j * cmath.pi / 3)


def test_s3_table_frozen(s3_table):
    assert s3_table.degrees == (1, 1, 2)
    expected = np.array([[1, 1, 1], [1, 1, -1], [2, -1, 0]], dtype=complex)
    assert np.allclose(s3_table.values, expected, atol=1e-12)
    assert np.allclose(s3_table.plancherel_weights, [1 / 6, 1 / 6, 2 / 6])


def test_cyclic_tables_frozen():
    t1 = character_table(make_named_group("cyclic:1"))
    assert t1.degrees == (1,)
    assert t1.values.tolist() == [[1.0 + 0.0j]]

    t2 = character_table(make_named_group("cyclic:2"))
    assert np.allclose(t2.values, [[1, 1], [1, -1]], atol=1e-12)

    t3 = character_table(make_named_group("cyclic:3"))
    expected = [[1, 1, 1], [1, OMEGA, OMEGA**2], [1, OMEGA**2, OMEGA]]
    assert np.allclose(t3.values, expected, atol=1e-12)


def test_q8_table_frozen(q8_table):
    assert q8_table.degrees == (1, 1, 1, 1, 2)
    expected = np.array(
        [
            [1, 1, 1, 1, 1],
            [1, 1, 1, -1, -1],
            [1, 1, -1, 1, -1],
            [1, 1, -1, -1, 1],
            [2, -2, 0, 0, 0],
        ],
        dtype=complex,
    )
    assert np.allclose(q8_table.values, expected, atol=1e-12)


def test_s4_rows_against_permutation_oracle(corpus_tables, corpus_groups):
    table = corpus_tables["symmetric:4"]
    G = corpus_groups["symmetric:4"]
    assert sorted(table.degrees) == [1, 1, 2, 3, 3]
    perms = perm_list(4)
    sign_row = [perm_parity(perms[rep]) for rep in G.class_reps]
    fixed_minus_one = [
        sum(1 for x in range(4) if perms[rep][x] == x) - 1 for rep in G.class_reps
    ]
    rows = [table.values[i] for i in range(table.num_irreps)]
    assert any(np.allclose(r, sign_row, atol=1e-9) for r in rows)
    assert any(np.allclose(r, fixed_minus_one, atol=1e-9) for r in rows)
    # the whole table is rational integers for this group
    assert np.allclose(table.values.imag, 0, atol=1e-9)
    assert np.allclose(table.values.real, np.round(table.values.real), atol=1e-9)


def test_heisenberg_degrees(corpus_tables):
    assert corpus_tables["heisenberg:3"].degrees == (1,) * 9 + (3, 3)


def test_corpus_orthogonality_and_degree_sum(corpus_groups, corpus_tables):
    for spec, table in corpus_tables.items():
        report = verify_orthogonality(table, 1e-9)
        assert report.passed, spec
        assert report.max_deviation <= 1e-9
        assert sum(d * d for d in table.degrees) == corpus_groups[spec].order
        assert all(d >= 1 for d in table.degrees)


def test_trivial_character_sorts_first(corpus_tables):
    for spec, table in corpus_tables.items():
        assert table.degrees[0] == 1
        assert np.allclose(table.values[0], 1.0, atol=1e-12), spec


def test_identity_column_equals_degrees(corpus_tables):
    for table in corpus_tables.values():
        assert np.allclose(table.values[:, 0], table.degrees, atol=1e-9)


def test_column_orthogonality_brute(s3_table, q8_table):
    for table in (s3_table, q8_table):
        G = table.group
        n = G.order
        for k in range(len(G.classes)):
            for m in range(len(G.classes)):
                acc = sum(
                    complex(table.values[pi, k]) * complex(table.values[pi, m]).conjugate()
                    for pi in range(table.num_irreps)
                )
                expected = n / int(G.class_sizes[k]) if k == m else 0.0
                assert abs(acc - expected) < 1e-9


def test_element_values_expand_classes(s3_table):
    G = s3_table.group
    for pi in range(s3_table.num_irreps):
        row = s3_table.character_on_elements(pi)
        for x in range(G.order):
            assert row[x] == s3_table.values[pi, G.class_of[x]]


def test_table_determinism_and_seed_independence(s3):
    a = character_table(s3, seed=0)
    b = character_table(s3, seed=0)
    assert np.array_equal(a.values, b.values)
    assert a.degrees == b.degrees
    c = character_table(s3, seed=3)
    # different seed, same canonical row order
    assert np.allclose(a.values, c.values, atol=1e-10)


def test_table_tol_validation(s3):
    with pytest.raises(ValueError):
        character_table(s3, tol=1e-15)
    with pytest.raises(ValueError):
        character_table(s3, tol=1e-3)


def test_perturbed_table_fails_orthogonality(s3_table):
    values = s3_table.values.copy()
    values[2, 2] += 1e-3
    broken = CharacterTable(
        group=s3_table.group,
        num_irreps=s3_table.num_irreps,
        values=values,
        degrees=s3_table.degrees,
        plancherel_weights=s3_table.plancherel_weights,
    )
    report = verify_orthogonality(broken, 1e-9)
    assert not report.passed
    assert report.max_deviation >= 1e-4


def test_to_csv_layout(s3_table):
    lines = s3_table.to_csv().strip().split("\n")
    assert lines[0] == "degree,class0,class1,class2"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    assert lines[3].startswith("2,")


def test_character_on_elements_bounds(s3_table):
    from finharm import IndexOutOfRange

    with pytest.raises(IndexOutOfRange):
        s3_table.character_on_elements(3)


# --- linear characters ------------------------------------------------------


def test_s3_order2_subgroup_characters(s3):
    U = subgroup_closure(s3, [1])
    psis = linear_characters(U)
    assert len(psis) == 2
    assert psis[0].is_trivial
    assert [psis[1](u) for u in U.members] == [(1 + 0j), (-1 + 0j)]


def test_a3_characters_are_cube_roots(s3):
    U = subgroup_closure(s3, [3])
    psis = linear_characters(U)
    assert len(psis) == 3
    assert psis[0].is_trivial
    got = {complex(round(psis[k](3).real, 9), round(psis[k](3).imag, 9)) for k in (1, 2)}
    assert got == {
        complex(round(OMEGA.real, 9), round(OMEGA.imag, 9)),
        complex(round((OMEGA**2).real, 9), round((OMEGA**2).imag, 9)),
    }


def test_cyclic4_characters_frozen():
    G = make_named_group("cyclic:4")
    U = Subgroup(G, range(4))
    rows = [[psi(u) for u in U.members] for psi in linear_characters(U)]
    assert rows == [
        [1, 1, 1, 1],
        [1, 1j, -1, -1j],
        [1, -1j, -1, 1j],
        [1, -1, 1, -1],
    ]


def test_character_counts_equal_abelianization(s3, q8):
    # |U / [U, U]| per subgroup
    assert [len(linear_characters(U)) for U in enumerate_subgroups(s3)] == [
        1, 2, 2, 2, 3, 2]
    assert [len(linear_characters(U)) for U in enumerate_subgroups(q8)] == [
        1, 2, 4, 4, 4, 4]


def test_multiplicativity_exhaustive(corpus_groups):
    for spec in ("symmetric:3", "quaternion", "cyclic:12", "dihedral:4"):
        G = corpus_groups[spec]
        for U in enumerate_subgroups(G):
            for psi in linear_characters(U):
                assert abs(psi(0) - 1) == 0
                for a in U.members:
                    for b in U.members:
                        lhs = psi(a) * psi(b)
                        rhs = psi(G.mul(a, b))
                        assert abs(lhs - rhs) < 1e-12


def test_characters_are_distinct(q8):
    for U in enumerate_subgroups(q8):
        rows = [tuple(psi(u) for u in U.members) for psi in linear_characters(U)]
        assert len(set(rows)) == len(rows)


def test_conjugated_character(s3):
    U = subgroup_closure(s3, [3])
    psi = linear_characters(U)[1]
    bar = psi.conjugated()
    for u in U.members:
        assert bar(u) == psi(u).conjugate()


def test_on_parent_extends_by_zero(s3):
    U = subgroup_closure(s3, [1])
    psi = linear_characters(U)[1]
    full = psi.on_parent()
    assert full.tolist() == [1, -1, 0, 0, 0, 0]


def test_character_call_outside_subgroup(s3):
    U = subgroup_closure(s3, [1])
    psi = linear_characters(U)[0]
    with pytest.raises(SubgroupMismatch):
        psi(2)


def test_linear_character_validation(s3):
    U = subgroup_closure(s3, [1])
    with pytest.raises(SubgroupMismatch):
        LinearCharacter(U, [1.0])  # missing member 1
    with pytest.raises(ValueError):
        LinearCharacter(U, [1.0, 2.0])  # modulus
    with pytest.raises(ValueError):
        LinearCharacter(U, [-1.0, 1.0])  # identity value


def test_restriction_of_linear_parent_characters(s3_table, s3):
    # degree-1 table rows restrict to subgroup characters with multiplicity 1
    U = subgroup_closure(s3, [1])
    psis = linear_characters(U)
    for pi in (0, 1):
        inner = [abs(brute_multiplicity(s3_table, pi, U, psi)) for psi in psis]
        assert sum(round(v) for v in inner) == 1
