"""Property tests of the subgroup lattice on random permutation groups."""

from __future__ import annotations

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from finharm import (
    ClosureExceedsCap,
    SUBGROUP_ENUMERATION_CAP,
    build_from_permutations,
    enumerate_subgroups,
    linear_characters,
    subgroup_closure,
)
from oracle_helpers import (
    assert_structure_matches_oracle,
    element_subgroup_lattice,
    fraction_linear_characters,
    loop_cosets,
    set_closure,
)


@st.composite
def small_perm_groups(draw):
    """perm: groups of degree <= 5 on 1-3 random generators, order <= 48."""
    degree = draw(st.integers(min_value=1, max_value=5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    try:
        G = build_from_permutations(degree, gens, order_cap=SUBGROUP_ENUMERATION_CAP)
    except ClosureExceedsCap:
        assume(False)
    return G


@settings(derandomize=True, deadline=None, max_examples=40)
@given(G=small_perm_groups(), data=st.data())
def test_lattice_of_random_perm_group(G, data):
    assert_structure_matches_oracle(G)
    subgroups = enumerate_subgroups(G)
    subs = [U.members for U in subgroups]
    assert subs == element_subgroup_lattice(G)

    for U in subgroups:
        coset_of, reps = loop_cosets(U)
        assert np.array_equal(U.coset_of, coset_of)
        assert U.left_coset_reps == reps
        psis = linear_characters(U)
        oracle = fraction_linear_characters(U)
        assert [p.tobytes() for p in psis] == [p.tobytes() for p in oracle]
        position = np.zeros(G.order, dtype=np.int64)
        position[U.members_array] = np.arange(U.order)
        products = position[G.mul_table[np.ix_(U.members_array, U.members_array)]]
        for v in psis:
            assert np.abs(np.outer(v, v) - v[products]).max() < 1e-12

    member_sets = set(subs)
    for members in member_sets:
        for g in range(G.order):
            conj = tuple(sorted(G.mul(G.mul(g, m), G.inv(g)) for m in members))
            assert conj in member_sets

    element = st.integers(min_value=0, max_value=G.order - 1)
    seeds = data.draw(st.lists(element, max_size=3))
    assert subgroup_closure(G, seeds).members == tuple(sorted(set_closure(G, seeds)))
