"""Property test of the group-spec parser: every string made of the spec
grammar's tokens either builds a group or raises a FinharmError."""

from __future__ import annotations

from hypothesis import example, given, settings
from hypothesis import strategies as st

from finharm import FinharmError, FiniteGroup, make_named_group

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
