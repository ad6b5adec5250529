"""Property tests of the group-spec parser: every string made of the spec
grammar's tokens, and every perm: spec with arbitrary cycles, either builds a
group or raises a FinharmError. A perm: group that builds has the classes of
the brute-force oracle, and a small one the cosets of the loop oracle."""

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
from oracle_helpers import assert_classes_are, brute_classes, loop_cosets

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


# cycles may repeat a point or leave the degree; degrees run from 0 to 17 digits
perm_specs = st.builds(
    lambda degree, cycles: f"perm:{degree}:"
    + ";".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles),
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
    assert G.label == spec
    assert_classes_are(G, brute_classes(G))
    if G.order <= 120:
        assert verify_orthogonality(character_table(G)).passed
        U = subgroup_closure(G, G.generators[:1])
        coset_of, reps = loop_cosets(U)
        assert np.array_equal(U.coset_of, coset_of)
        assert np.array_equal(U.left_coset_reps, reps)
