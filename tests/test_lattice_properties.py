"""Property tests of permutation closures and of the subgroup lattice and
reports on random permutation groups."""

from __future__ import annotations

from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import finharm.groups
import finharm.reports
from finharm import (
    ClosureExceedsCap,
    SUBGROUP_ENUMERATION_CAP,
    build_from_permutations,
    enumerate_subgroups,
    linear_characters,
    subgroup_closure,
)
from finharm.reports import RunConfig, build_report
from oracle_helpers import (
    assert_structure_matches_oracle,
    dict_mul_table,
    element_subgroup_lattice,
    fraction_linear_characters,
    loop_cosets,
    perm_closure,
    set_closure,
)


@st.composite
def small_perm_generators(draw):
    """A degree <= 5 and 1-3 random permutations of that degree."""
    degree = draw(st.integers(min_value=1, max_value=5))
    gens = draw(st.lists(st.permutations(range(degree)), min_size=1, max_size=3))
    return degree, [tuple(g) for g in gens]


@st.composite
def small_perm_groups(draw):
    """perm: groups of degree <= 5 on 1-3 random generators, order <= 48."""
    degree, gens = draw(small_perm_generators())
    try:
        G = build_from_permutations(degree, gens, order_cap=SUBGROUP_ENUMERATION_CAP)
    except ClosureExceedsCap:
        assume(False)
    return G


@settings(derandomize=True, deadline=None, max_examples=100)
@given(generators=small_perm_generators())
def test_closure_matches_tuple_breadth_first_search(generators):
    degree, gens = generators
    elems = perm_closure(degree, gens)
    n = len(elems)
    spy = mock.patch.object(
        finharm.groups, "_mul_table_from_perms", wraps=finharm.groups._mul_table_from_perms
    )
    with spy as built:
        G = build_from_permutations(degree, gens, order_cap=n)
    # the same permutations in the same order, hence the same Cayley table
    assert [tuple(p) for p in built.call_args.args[0].tolist()] == elems
    assert G.mul_table.tolist() == dict_mul_table(elems)
    assert G.generators == tuple(dict.fromkeys(elems.index(g) for g in gens))
    # refused exactly when the closure finds an (order_cap + 1)-th element
    if n > 1:
        with pytest.raises(ClosureExceedsCap):
            build_from_permutations(degree, gens, order_cap=n - 1)
        with pytest.raises(ClosureExceedsCap):
            perm_closure(degree, gens, order_cap=n - 1)


@settings(derandomize=True, deadline=None, max_examples=40)
@given(G=small_perm_groups())
def test_reports_of_random_perm_group_pass(G):
    # a generator of several cycles has no perm: spec, so the report is
    # handed the group itself
    with mock.patch.object(finharm.reports, "make_named_group", return_value=G):
        inversion = build_report("plancherel-check", RunConfig(G.label, num_test_functions=8))
        sweep = build_report("sweep", RunConfig(G.label, num_test_functions=2))
    assert inversion.passed
    assert [check["pass"] for check in inversion.payload["checks"]] == [True]
    assert sweep.passed and sweep.payload["checks"]
    assert all(check["identity"]["pass"] and check["pass"] for check in sweep.payload["checks"])
    assert all(probe["identity_check"] for probe in sweep.payload["probes"])


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
        assert np.array_equal(U.left_coset_reps, reps)
        psis = linear_characters(U)
        oracle = fraction_linear_characters(U)
        assert [p.tobytes() for p in psis] == [p.tobytes() for p in oracle]
        position = np.zeros(G.order, dtype=np.int64)
        position[U.members_array] = np.arange(U.order)
        products = position[G.mul_table[np.ix_(U.members_array, U.members_array)]]
        for v in psis:
            assert np.abs(np.outer(v, v) - v[products]).max() < 1e-12

    mul, inv = G.mul_table, G.inv_table
    member_sets = set(subs)
    for members in member_sets:
        for g in range(G.order):
            conj = tuple(sorted(int(mul[mul[g, m], inv[g]]) for m in members))
            assert conj in member_sets

    element = st.integers(min_value=0, max_value=G.order - 1)
    seeds = data.draw(st.lists(element, max_size=3))
    assert subgroup_closure(G, seeds).members == tuple(sorted(set_closure(G, seeds)))
