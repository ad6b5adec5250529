"""Character tables, orthogonality, and subgroup linear characters."""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import math
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from finharm import (
    CharacterTable,
    EigensplitFailure,
    Subgroup,
    character_table,
    enumerate_subgroups,
    linear_characters,
    make_named_group,
    subgroup_closure,
    verify_orthogonality,
)
import finharm.characters
from finharm._rng import derive_stream_seed, unit_uniforms
from finharm.characters import _ClassAlgebra, _descending_row_order, _schur
from finharm.induction import _on_parent
from conftest import CORPUS_SPECS
from oracle_helpers import (
    brute_multiplicity,
    fmt_complex_scalar,
    fraction_linear_characters,
    lexsort_row_order,
    perm_list,
    perm_parity,
    psi_at,
    quantized_descending_key,
    scipy_schur,
    structure_constants,
)

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
        for k in range(len(G.class_reps)):
            for m in range(len(G.class_reps)):
                acc = sum(
                    complex(table.values[pi, k]) * complex(table.values[pi, m]).conjugate()
                    for pi in range(table.num_irreps)
                )
                expected = n / int(G.class_sizes[k]) if k == m else 0.0
                assert abs(acc - expected) < 1e-9


# r <= 30: OpenBLAS contracts these on one thread whatever its thread count.
# Odd r takes slabs of 8 rows, so r = 11, 15 and 29 end on a short slab.
SLAB_SPECS = (
    "symmetric:5",
    "symmetric:6",
    "product:symmetric:4*symmetric:3",
    "product:symmetric:4*symmetric:4",
    "heisenberg:5",
    "product:dihedral:6*quaternion",
)


@pytest.mark.parametrize("slab_bytes", [1, 8 * 30 * 30 * 12, finharm.characters._SLAB_BYTES])
@pytest.mark.parametrize("spec", SLAB_SPECS)
def test_class_algebra_slabs_equal_full_contraction(spec, slab_bytes, monkeypatch):
    monkeypatch.setattr(finharm.characters, "_SLAB_BYTES", slab_bytes)
    G = make_named_group(spec)
    r = len(G.class_reps)
    a = structure_constants(G)
    algebra = _ClassAlgebra(G)
    if slab_bytes == 1:  # one step of rows per slab
        assert algebra.height == min(r, 8 // math.gcd(r, 8))
    for attempt in range(6):
        coeffs = unit_uniforms(derive_stream_seed(5, attempt), r)
        M = algebra.combination(coeffs)
        assert np.array_equal(M, np.tensordot(coeffs, a, axes=(0, 0)))
    # the slab buffer lives only for one call
    assert not any(
        isinstance(v, np.ndarray) and v.dtype == np.float64 for v in vars(algebra).values()
    )


# r = 16, 25, 26, 28 and 129: r = 0, 1, 2 and 4 (mod 8). At every budget
# but the whole tensor's, dihedral:252 ends on a short slab.
@pytest.mark.parametrize("slab_bytes", [1, 1 << 20, 1 << 23])
@pytest.mark.parametrize(
    "spec",
    ["dihedral:26", "product:symmetric:4*symmetric:4", "dihedral:46", "dihedral:50", "dihedral:252"],
)
def test_class_algebra_basis_combinations_are_structure_constants(spec, slab_bytes, monkeypatch):
    # one coefficient 1 and the rest 0: exact at any BLAS thread count
    monkeypatch.setattr(finharm.characters, "_SLAB_BYTES", slab_bytes)
    G = make_named_group(spec)
    a = structure_constants(G)
    algebra = _ClassAlgebra(G)
    for i, basis in enumerate(np.eye(len(G.class_reps))):
        assert np.array_equal(algebra.combination(basis), a[i])


def test_class_algebra_assembly_memory_is_bounded():
    # the int32 offsets (1.6 MB) with one int16 and one int32 temporary,
    # then one 2 MiB slab of 8 rows: 3.9 MiB at the peak. An 8 MiB slab with
    # int64 indices gathered per slab peaked at 13.0 MiB
    G = make_named_group("heisenberg:13")
    coeffs = unit_uniforms(derive_stream_seed(0, 0), len(G.class_reps))
    tracemalloc.start()
    try:
        _ClassAlgebra(G).combination(coeffs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 5 * 2**20


def test_class_algebra_memory_is_bounded():
    # the whole r^3 tensor of cyclic:256 alone would be 134 MB
    tracemalloc.start()
    try:
        character_table(make_named_group("cyclic:256"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2**20


def _eigensplit_matrix(G, attempt):
    """The matrix B that character_table hands to the Schur decomposition at
    the given attempt of seed 0."""
    sq = np.sqrt(G.class_sizes.astype(np.float64))
    coeffs = unit_uniforms(derive_stream_seed(0, attempt), len(G.class_reps))
    M = _ClassAlgebra(G).combination(coeffs)
    return (M * (sq[None, :] / sq[:, None])).astype(np.complex128, order="F")


@pytest.mark.parametrize("spec", CORPUS_SPECS + ("dihedral:500",))  # r = 253
def test_schur_equals_scipy_oracle_bit_for_bit(spec):
    G = make_named_group(spec)
    for attempt in range(2):
        B = _eigensplit_matrix(G, attempt)
        T0, Z0 = scipy_schur(B.copy())
        T, Z = _schur(B)
        assert T.tobytes() == T0.tobytes() and Z.tobytes() == Z0.tobytes()
        # the same layout too, so that reductions over them sum in the same order
        assert T.flags.f_contiguous == T0.flags.f_contiguous
        assert Z.flags.f_contiguous == Z0.flags.f_contiguous


def test_zgees_is_the_function_scipy_linalg_exports():
    import scipy.linalg

    assert scipy.linalg.lapack.zgees is finharm.characters._ZGEES


def test_zgees_fallback_is_the_same_function(monkeypatch):
    # no search locations, as for a scipy whose extension file is elsewhere:
    # zgees then comes from importing scipy.linalg.lapack
    def no_locations(name, package=None):
        return importlib.machinery.ModuleSpec(name, None, is_package=True)

    monkeypatch.setattr(importlib.util, "find_spec", no_locations)
    # nor an imported _flapack module to take it from
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack", raising=False)
    assert finharm.characters._load_zgees() is finharm.characters._ZGEES


def test_schur_rejects_non_finite_input():
    B = np.eye(3, dtype=np.complex128, order="F")
    B[1, 2] = np.nan
    assert _schur(B) is None


def test_lapack_failure_on_every_attempt_ends_in_eigensplit_failure(monkeypatch, s3):
    zgees = finharm.characters._ZGEES
    calls = []

    def failing(select, a, **kwargs):
        calls.append(kwargs.get("lwork"))
        return (*zgees(select, a, **kwargs)[:-1], 1)

    monkeypatch.setattr(finharm.characters, "_ZGEES", failing)
    with pytest.raises(EigensplitFailure, match="after 16 seeded attempts"):
        character_table(s3)
    assert len(calls) == 2 * 16 and calls[0] == -1  # a workspace query, then the call


def test_element_values_expand_classes(s3_table):
    G = s3_table.group
    for pi in range(s3_table.num_irreps):
        row = s3_table.element_values[pi]
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
    broken = CharacterTable(group=s3_table.group, values=values, degrees=s3_table.degrees)
    report = verify_orthogonality(broken, 1e-9)
    assert not report.passed
    assert report.max_deviation >= 1e-4


@pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
def test_orthogonality_refuses_a_tolerance_that_is_not_positive(s3_table, tol):
    # every comparison with NaN is false, so "tol <= 0" would let it through
    with pytest.raises(ValueError, match="tol must be positive"):
        verify_orthogonality(s3_table, tol)


def test_to_csv_layout(s3_table):
    lines = s3_table.to_csv().strip().split("\n")
    assert lines[0] == "degree,class0,class1,class2"
    assert len(lines) == 4
    assert lines[1].startswith("1,")
    assert lines[3].startswith("2,")


def test_value_strings_match_scalar_format(corpus_tables):
    for table in corpus_tables.values():
        expected = [[fmt_complex_scalar(v) for v in row] for row in table.values]
        assert [list(row) for row in table.value_strings] == expected
        lines = table.to_csv().split("\n")[1:-1]
        assert lines == [
            f"{d}," + ",".join(row) for d, row in zip(table.degrees, expected)
        ]


# half-quanta, exact ties, signed zeros and values that agree after quantizing
_ORDER_ALPHABET = np.array(
    [0.0, -0.0, 5e-10, -5e-10, 2.5e-9, -2.5e-9, 3.5e-9, 1e-10, 1.0, -1.0, 1 + 2.5e-9]
)


def test_row_order_matches_tuple_key_sort():
    rng = np.random.default_rng(7)
    for _ in range(20):
        r, c = int(rng.integers(1, 30)), int(rng.integers(1, 4))
        values = rng.choice(_ORDER_ALPHABET, (r, c)) + 1j * rng.choice(_ORDER_ALPHABET, (r, c))
        values[rng.integers(0, r, r // 3)] = values[0]  # whole-row ties
        degrees = rng.integers(1, 3, r)
        with_degree = sorted(
            range(r), key=lambda i: (int(degrees[i]), quantized_descending_key(values[i]))
        )
        assert _descending_row_order(values, degrees).tolist() == with_degree
        plain = sorted(range(r), key=lambda i: quantized_descending_key(values[i]))
        assert _descending_row_order(values).tolist() == plain


def _permuted_rows(values, seed):
    return values[np.random.default_rng(seed).permutation(len(values))]


def test_row_order_equals_one_lexsort():
    # heisenberg:13: its linear characters tie on the 13 central columns
    table = character_table(make_named_group("heisenberg:13"))
    degrees = np.array(table.degrees)
    cases = [(_permuted_rows(table.values, 0), _permuted_rows(degrees, 0))]
    # conjugate pairs, tied on every real part and on the imaginary parts of
    # their first 60 columns, which are real
    rng = np.random.default_rng(3)
    rows = rng.choice(_ORDER_ALPHABET, (20, 200)) + 1j * rng.choice(_ORDER_ALPHABET, (20, 200))
    rows[:, :60] = rows[:, :60].real
    cases.append((_permuted_rows(np.vstack([rows, rows.conj()]), 1), None))
    # quantized rows in runs tied on their first 150 columns, a few values
    # apart beyond
    tied = rng.choice(_ORDER_ALPHABET, (8, 150))[rng.integers(0, 8, 64)]
    rest = rng.choice(_ORDER_ALPHABET[:3], (64, 50))
    cases.append((np.hstack([tied, rest]) * (1 - 1j), rng.integers(1, 3, 64)))
    for values, leading in cases:
        expected = lexsort_row_order(values, leading)
        assert np.array_equal(_descending_row_order(values, leading), expected)


# signed zeros, half-quanta, values less than a quantum apart, and magnitudes
# from the smallest subnormal to about 2^63 quanta
_ORDER_POOL = (
    0.0, -0.0, 5e-10, -5e-10, 1.5e-9, 1.0, 1.0 + 4e-10, 1.0 + 6e-10, -1.0,
    9e9, -9e9, 5e-324, -1e-300,
)


@st.composite
def _few_valued_rows(draw):
    """1-40 rows of up to 6 columns whose parts are drawn from at most four
    values of _ORDER_POOL, so that ties run long; with a leading key or not."""
    alphabet = draw(st.lists(st.sampled_from(_ORDER_POOL), min_size=1, max_size=4))
    r, c = draw(st.integers(1, 40)), draw(st.integers(1, 6))
    parts = st.lists(st.sampled_from(alphabet), min_size=r * c, max_size=r * c)
    values = np.empty((r, c), dtype=np.complex128)
    values.real = np.reshape(draw(parts), (r, c))
    values.imag = np.reshape(draw(parts), (r, c))
    leading = draw(st.none() | st.lists(st.integers(1, 3), min_size=r, max_size=r).map(np.array))
    return values, leading


@settings(derandomize=True, deadline=None, max_examples=300)
@given(rows=_few_valued_rows())
def test_row_order_is_one_lexsort_on_few_valued_rows(rows):
    values, leading = rows
    expected = lexsort_row_order(values, leading)
    assert np.array_equal(_descending_row_order(values, leading), expected)


def test_linear_character_order_matches_tuple_key_sort(corpus_groups):
    for spec in ("cyclic:12", "product:cyclic:2*cyclic:4", "dihedral:8"):
        U = Subgroup(corpus_groups[spec], range(corpus_groups[spec].order))
        psis = linear_characters(U)
        keys = [quantized_descending_key(psi) for psi in psis]
        assert keys == sorted(keys)


def test_character_on_elements_bounds(s3_table):
    # a character on the elements is a row of element_values, which numpy
    # bounds-checks
    assert not hasattr(s3_table, "character_on_elements")
    with pytest.raises(IndexError):
        s3_table.element_values[3]


# --- linear characters ------------------------------------------------------


def test_s3_order2_subgroup_characters(s3):
    U = subgroup_closure(s3, [1])
    psis = linear_characters(U)
    assert psis.shape == (2, U.order)
    assert np.abs(psis[0] - 1.0).max() <= 1e-9
    assert psis[1].tolist() == [(1 + 0j), (-1 + 0j)]


def test_a3_characters_are_cube_roots(s3):
    U = subgroup_closure(s3, [3])
    psis = linear_characters(U)
    assert psis.shape == (3, U.order)
    assert np.abs(psis[0] - 1.0).max() <= 1e-9
    at3 = [psis[k][U.members.index(3)] for k in (1, 2)]
    got = {complex(round(v.real, 9), round(v.imag, 9)) for v in at3}
    assert got == {
        complex(round(OMEGA.real, 9), round(OMEGA.imag, 9)),
        complex(round((OMEGA**2).real, 9), round((OMEGA**2).imag, 9)),
    }


def test_cyclic4_characters_frozen():
    G = make_named_group("cyclic:4")
    U = Subgroup(G, range(4))
    rows = linear_characters(U).tolist()
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
                psi = psi_at(U, psi)
                assert abs(psi[0] - 1) == 0
                for a in U.members:
                    for b in U.members:
                        lhs = psi[a] * psi[b]
                        rhs = psi[int(G.mul_table[a, b])]
                        assert abs(lhs - rhs) < 1e-12


def test_characters_are_distinct(q8):
    for U in enumerate_subgroups(q8):
        rows = [tuple(psi.tolist()) for psi in linear_characters(U)]
        assert len(set(rows)) == len(rows)


LATTICE_SPECS = (
    "symmetric:4",
    "dihedral:12",
    "heisenberg:3",
    "product:quaternion*cyclic:3",
    "product:dihedral:4*cyclic:2",
)


def _character_bytes(psis) -> list[bytes]:
    return [psi.tobytes() for psi in psis]


def test_characters_equal_fraction_oracle_on_every_subgroup(corpus_groups):
    groups = list(corpus_groups.values()) + [make_named_group(s) for s in LATTICE_SPECS]
    for G in groups:
        for U in enumerate_subgroups(G):
            assert _character_bytes(linear_characters(U)) == _character_bytes(
                fraction_linear_characters(U)
            )


@pytest.mark.parametrize(
    "spec, count",
    [
        ("cyclic:200", 200),
        ("product:cyclic:10*cyclic:20", 200),
        ("product:cyclic:2*" * 5 + "cyclic:2", 64),
        ("product:quaternion*product:cyclic:5*cyclic:5", 100),
        ("symmetric:5", 2),
    ],
)
def test_whole_group_characters_equal_fraction_oracle(spec, count):
    G = make_named_group(spec)
    U = Subgroup(G, range(G.order))
    psis = linear_characters(U)
    assert len(psis) == count
    assert _character_bytes(psis) == _character_bytes(fraction_linear_characters(U))


def test_conjugated_character(s3):
    U = subgroup_closure(s3, [3])
    psi = linear_characters(U)[1]
    bar = np.conj(psi)
    for u, value in psi_at(U, psi).items():
        assert psi_at(U, bar)[u] == value.conjugate()


def test_on_parent_extends_by_zero(s3):
    U = subgroup_closure(s3, [1])
    psi = linear_characters(U)[1]
    full = _on_parent(U, psi)
    assert full.tolist() == [1, -1, 0, 0, 0, 0]


def test_linear_characters_are_one_read_only_array(s3):
    for U in enumerate_subgroups(s3):
        psis = linear_characters(U)
        assert psis.dtype == np.complex128 and psis.shape == (len(psis), U.order)
        assert psis.flags.c_contiguous and not psis.flags.writeable
        assert psis[0].tolist() == [1] * U.order  # the trivial character first
        with pytest.raises(ValueError):
            psis[-1, -1] = 1


def test_restriction_of_linear_parent_characters(s3_table, s3):
    # degree-1 table rows restrict to subgroup characters with multiplicity 1
    U = subgroup_closure(s3, [1])
    psis = linear_characters(U)
    for pi in (0, 1):
        inner = [abs(brute_multiplicity(s3_table, pi, U, psi)) for psi in psis]
        assert sum(round(v) for v in inner) == 1
