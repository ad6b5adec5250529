"""Property tests of the group-spec parser: every string made of the spec
grammar's tokens, and every perm: spec with arbitrary cycles, either builds a
group or raises a FinharmError. A perm: group that builds has the classes of
the brute-force oracle and a table FiniteGroup(table) accepts, and one of at
most 720 elements the character table and the cosets of the loop oracle.
Specs of distinct points below a small degree always build, and run the same
oracles."""

from __future__ import annotations

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from finharm import (
    FinharmError,
    FiniteGroup,
    character_table,
    make_named_group,
    subgroup_closure,
    verify_orthogonality,
)
from oracle_helpers import (
    assert_classes_are,
    assert_table_round_trips,
    brute_classes,
    loop_cosets,
)

TOKENS = (
    "product:", "perm:", "cyclic:", "dihedral:", "symmetric:", "quaternion",
    "heisenberg:", "*", ":", ";", "(", ")", " ",
)

# integers stay small so that no drawn spec builds a large group
spec_strings = st.lists(
    st.one_of(st.sampled_from(TOKENS), st.integers(0, 3).map(str)), max_size=14
).map("".join)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(spec=spec_strings)
@example(spec="cyclic:" + "9" * 5000)
@example(spec="perm:3:(0 " + "1" * 5000 + ")")
@example(spec="symmetric:2000")
@example(spec="symmetric:200000")
@example(spec="heisenberg:1000000000000000003")
@example(spec="heisenberg:100000000000000003")  # 18 digits: parsed, then capped
@example(spec="cyclic:²")  # a digit to str.isdigit, not to int
def test_spec_strings_build_or_raise_finharm_error(spec):
    try:
        G = make_named_group(spec)
    except FinharmError:
        return
    assert isinstance(G, FiniteGroup)


def _perm_spec(degree, cycles):
    return f"perm:{degree}:" + ";".join("(" + " ".join(map(str, c)) + ")" for c in cycles)


# cycles may repeat a point or leave the degree; degrees run from 0 to 17 digits
perm_specs = st.builds(
    _perm_spec,
    st.one_of(st.integers(0, 8), st.integers(10**6, 10**17)),
    st.lists(st.lists(st.integers(0, 9), min_size=1, max_size=6), min_size=1, max_size=3),
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(spec=perm_specs)
def test_perm_specs_build_or_raise_finharm_error(spec):
    try:
        G = make_named_group(spec)
    except FinharmError:
        return
    assert isinstance(G, FiniteGroup)
    _assert_matches_oracles(G, spec)


# cycles of distinct points below a degree of at most 6: every spec builds,
# and groups up to the 720 elements of S6 come up
buildable_perm_specs = st.integers(1, 6).flatmap(
    lambda degree: st.builds(
        _perm_spec,
        st.just(degree),
        st.lists(
            st.lists(st.integers(0, degree - 1), min_size=1, max_size=degree, unique=True),
            min_size=1,
            max_size=3,
        ),
    )
)


@settings(derandomize=True, deadline=None, max_examples=200)
@given(spec=buildable_perm_specs)
def test_buildable_perm_specs_match_oracles(spec):
    _assert_matches_oracles(make_named_group(spec), spec)


def _assert_matches_oracles(G, spec):
    """The label, the classes, the table's round trip through
    FiniteGroup(table), and the character table and the cosets of one
    generator's subgroup of a perm: group against the oracles, the last two
    up to the order of S6."""
    assert G.label == spec
    assert_classes_are(G, brute_classes(G))
    assert_table_round_trips(G)
    if G.order <= 720:
        assert verify_orthogonality(character_table(G)).passed
        U = subgroup_closure(G, G.generators[:1])
        coset_of, reps = loop_cosets(U)
        assert np.array_equal(U.coset_of, coset_of)
        assert np.array_equal(U.left_coset_reps, reps)
