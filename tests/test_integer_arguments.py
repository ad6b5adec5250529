"""Every integer argument of the library, one table: element indices, seeds,
counts and degrees are read by operator.index, so a float, a numpy float or
a string is refused and a numpy integer is read as the int it holds."""

from __future__ import annotations

import numpy as np
import pytest

from finharm import (
    CharacterTable,
    FiniteGroup,
    IndexOutOfRange,
    Subgroup,
    build_from_permutations,
    character_table,
    induced_rep,
    linear_characters,
    probe_plan,
    subgroup_closure,
    subgroup_spectra,
)
from finharm import test_functions as draw_test_functions

Z2 = [[0, 1], [1, 0]]

# (site, call of the site with the integer v in place), run on S3 and its table
SITES = {
    "FiniteGroup generators": lambda G, T, v: FiniteGroup(Z2, generators=[v]),
    "FiniteGroup table entry": lambda G, T, v: FiniteGroup([[0, 1], [1, v]]),
    "Subgroup members": lambda G, T, v: Subgroup(G, [0, v]),
    "subgroup_closure generators": lambda G, T, v: subgroup_closure(G, [v]),
    "permutation entry": lambda G, T, v: build_from_permutations(3, [(v, 0, 2)]),
    "build_from_permutations degree": lambda G, T, v: build_from_permutations(v, [(1, 0, 2)]),
    "build_from_permutations order_cap": (
        lambda G, T, v: build_from_permutations(3, [(1, 0, 2)], order_cap=v)
    ),
    "CharacterTable degrees": (
        lambda G, T, v: CharacterTable(group=G, values=T.values, degrees=(v, 1, 2))
    ),
    "character_table seed": lambda G, T, v: character_table(G, seed=v),
    "InducedRep.matrix": lambda G, T, v: _rep(G).matrix(v),
    "probe_plan count": lambda G, T, v: probe_plan(T, v),
    "probe_plan seed": lambda G, T, v: probe_plan(T, 2, seed=v),
    "subgroup_spectra samples": lambda G, T, v: list(subgroup_spectra(T, *_psis(G), v)),
    "test_functions indices": lambda G, T, v: draw_test_functions(G, 0, [v]),
    "test_functions seed": lambda G, T, v: draw_test_functions(G, v, [0]),
}

# the sites that take an element index, and each one's group order
ELEMENT_SITES = {
    "FiniteGroup generators": 2,
    "Subgroup members": 6,
    "subgroup_closure generators": 6,
    "InducedRep.matrix": 6,
}

SEED_SITES = ("character_table seed", "probe_plan seed", "test_functions seed")


def _psis(G):
    U = Subgroup(G, [0, 1])  # a transposition of S3
    return U, linear_characters(U)


def _rep(G):
    U, psis = _psis(G)
    return induced_rep(U, psis[1])


@pytest.fixture(scope="module")
def s3_and_table(s3, s3_table):
    return s3, s3_table


@pytest.mark.parametrize("value", [1.5, np.float64(2.0), "1"], ids=["1.5", "float64(2.0)", "'1'"])
@pytest.mark.parametrize("site", list(SITES))
def test_non_integer_is_refused(s3_and_table, site, value):
    with pytest.raises(ValueError):
        SITES[site](*s3_and_table, value)


@pytest.mark.parametrize("site", list(ELEMENT_SITES))
def test_element_index_outside_the_group_is_refused(s3_and_table, site):
    order = ELEMENT_SITES[site]
    for value in (-1, order, 2**70):
        with pytest.raises(IndexOutOfRange, match=f"index {value} out of range for order {order}"):
            SITES[site](*s3_and_table, value)


@pytest.mark.parametrize("seed", [-1, 2**64, 1.5])
@pytest.mark.parametrize("site", SEED_SITES)
def test_seed_outside_uint64_is_refused(s3_and_table, site, seed):
    with pytest.raises(ValueError, match="seed must be an integer"):
        SITES[site](*s3_and_table, seed)


def test_numpy_integers_read_as_the_ints_they_hold(s3, s3_table):
    assert subgroup_closure(s3, [np.int16(1)]).members == subgroup_closure(s3, [1]).members
    assert Subgroup(s3, np.array([0, 1], dtype=np.int16)).members == (0, 1)
    assert FiniteGroup(Z2, generators=[np.uint8(1)]).generators == (1,)
    assert np.array_equal(_rep(s3).matrix(np.int16(3)), _rep(s3).matrix(3))
    F = draw_test_functions(s3, 0, [np.int16(3), np.uint64(2**63)])
    assert F.tobytes() == draw_test_functions(s3, 0, [3, 2**63]).tobytes()
    top = 2**64 - 1
    assert (
        draw_test_functions(s3, np.uint64(top), [0]).tobytes()
        == draw_test_functions(s3, top, [0]).tobytes()
    )
    assert (
        character_table(s3, seed=np.uint64(top)).values.tobytes()
        == character_table(s3, seed=top).values.tobytes()
    )
    a, b = probe_plan(s3_table, 3, seed=np.uint64(top)), probe_plan(s3_table, 3, seed=top)
    assert a.theta.tobytes() == b.theta.tobytes()
    assert np.array_equal(a.indices, b.indices)


def test_indices_mixing_small_and_large_ints_are_read_one_by_one(s3):
    # numpy reads the list [0, 2**63] as float64
    F = draw_test_functions(s3, 0, [0, 2**63])
    assert F[0].tobytes() == draw_test_functions(s3, 0, [0])[0].tobytes()
    assert F[1].tobytes() == draw_test_functions(s3, 0, [2**63])[0].tobytes()


@pytest.mark.parametrize(
    "table", [[[0, 1], [1, 0.7]], [[0, 1], [1, "0"]], [[0, 1], [1, None]], [[False]]]
)
def test_table_of_non_integer_type_is_refused(table):
    with pytest.raises(ValueError, match="table entries must be element indices"):
        FiniteGroup(table)


def test_negative_sample_count_is_refused(s3, s3_table):
    # -|G| samples per psi sized the spectrum blocks by a zero
    with pytest.raises(ValueError, match="samples must be nonnegative"):
        list(subgroup_spectra(s3_table, *_psis(s3), -s3.order))
