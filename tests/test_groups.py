"""Group construction, the spec DSL, subgroups, cosets, and axiom checking."""

from __future__ import annotations

import itertools
import tracemalloc

import numpy as np
import pytest

from finharm import (
    ClosureExceedsCap,
    FiniteGroup,
    IndexOutOfRange,
    InvalidPermutation,
    OrderTooLarge,
    ParseError,
    Subgroup,
    UnsupportedParameter,
    build_from_permutations,
    enumerate_subgroups,
    make_named_group,
    subgroup_closure,
)
import finharm.groups
from finharm.groups import _cyclic, _dihedral, _heisenberg, _owning, _perm_closure
from oracle_helpers import (
    assert_classes_are,
    assert_structure_matches_oracle,
    brute_classes,
    class_partition,
    compose,
    cycle_perm,
    dict_mul_table,
    element_orders,
    element_subgroup_lattice,
    loop_cosets,
    perm_closure,
    perm_list,
    perm_parity,
    search_mul_table,
    set_closure,
    verify_group_axioms,
)
from conftest import CORPUS_SPECS

# the groups swept by the benchmark's lattice workload
LATTICE_SPECS = (
    "symmetric:4",
    "dihedral:12",
    "heisenberg:3",
    "product:quaternion*cyclic:3",
    "product:dihedral:4*cyclic:2",
)

# the groups whose character tables the benchmark's tables workload builds
TABLES_SPECS = (
    "dihedral:500",
    "heisenberg:13",
    "heisenberg:11",
    "cyclic:256",
    "product:heisenberg:5*dihedral:5",
    "symmetric:6",
    "product:dihedral:6*quaternion",
)

# a Latin square with identity and two-sided inverses that is NOT associative
LOOP5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# a Latin square with identity whose left and right inverses disagree
ONE_SIDED5 = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 3, 4, 0, 1],
    [3, 4, 1, 2, 0],
    [4, 2, 0, 1, 3],
]


def test_cyclic_table_is_addition_mod_n():
    G = make_named_group("cyclic:4")
    assert G.mul_table.tolist() == [[(i + j) % 4 for j in range(4)] for i in range(4)]
    assert G.inv_table.tolist() == [0, 3, 2, 1]
    assert G.label == "cyclic:4"
    assert G.generators == (1,)


def test_symmetric_group_is_lex_ordered_composition():
    G = make_named_group("symmetric:3")
    perms = perm_list(3)
    index = {p: i for i, p in enumerate(perms)}
    expected = [
        [index[compose(perms[i], perms[j])] for j in range(6)] for i in range(6)
    ]
    assert G.mul_table.tolist() == expected


def test_symmetric_generators_are_transposition_and_cycle():
    G = make_named_group("symmetric:4")
    perms = perm_list(4)
    index = {p: i for i, p in enumerate(perms)}
    assert G.generators == (index[(1, 0, 2, 3)], index[(1, 2, 3, 0)])


def test_dihedral_matches_permutation_model():
    built = make_named_group("dihedral:4")
    model = make_named_group("perm:4:(0 1 2 3);(1 3)")
    assert built.order == model.order == 8
    assert element_orders(built) == element_orders(model)
    assert sorted(built.class_sizes.tolist()) == sorted(model.class_sizes.tolist())


def test_quaternion_element_orders():
    G = make_named_group("quaternion")
    assert element_orders(G) == [1, 2, 4, 4, 4, 4, 4, 4]
    assert len(G.class_reps) == 5


def test_heisenberg_has_exponent_p():
    G = make_named_group("heisenberg:3")
    assert G.order == 27
    assert element_orders(G) == [1] + [3] * 26
    assert len(G.class_reps) == 11
    assert sorted(G.class_sizes.tolist()) == [1, 1, 1] + [3] * 8


@pytest.mark.parametrize("p", [3, 5, 7])
def test_heisenberg_table_matches_broadcast_formula(p):
    n = p**3
    idx = np.arange(n, dtype=np.int64)
    a, b, c = idx // (p * p), (idx // p) % p, idx % p
    a1, b1, c1 = a[:, None], b[:, None], c[:, None]
    a2, b2, c2 = a[None, :], b[None, :], c[None, :]
    expected = ((a1 + a2) % p) * p * p + ((b1 + b2) % p) * p + ((c1 + c2 + a1 * b2) % p)
    table = _heisenberg(p).mul_table
    assert table.dtype == np.int16
    assert np.array_equal(table, expected)


@pytest.mark.parametrize("n", [1, 2, 3, 8, 15])
def test_cyclic_and_dihedral_tables_match_broadcast_formula(n):
    a = np.arange(n, dtype=np.int64)
    rr = (a[:, None] + a[None, :]) % n
    diff = (a[None, :] - a[:, None]) % n
    assert np.array_equal(_cyclic(n).mul_table, rr)
    expected = np.block([[rr, n + diff], [n + rr, diff]])
    table = _dihedral(n).mul_table
    assert table.dtype == np.int16
    assert np.array_equal(table, expected)


@pytest.mark.parametrize(
    "spec",
    [
        "cyclic:1",
        "cyclic:4096",
        "dihedral:6",
        "dihedral:2048",
        "quaternion",
        "heisenberg:3",
        "heisenberg:13",
        "symmetric:5",
        "perm:6:(1 3 5);(0 4)",
        "product:quaternion*cyclic:3",
        "product:dihedral:32*cyclic:64",
    ],
)
def test_every_builder_holds_an_int16_table(spec):
    G = make_named_group(spec)
    assert G.mul_table.dtype == np.int16
    for name in ("inv_table", "class_of", "class_sizes", "class_reps"):
        assert getattr(G, name).dtype == np.int64, name


def test_table_type_widens_above_two_bytes():
    assert finharm.groups._index_dtype(1) == np.int16
    assert finharm.groups._index_dtype(1 << 15) == np.int16
    assert finharm.groups._index_dtype((1 << 15) + 1) == np.int32


def test_table_from_lists_is_narrowed_only_after_its_range_check():
    G = FiniteGroup([[0, 1], [1, 0]])
    assert G.mul_table.dtype == np.int16
    assert G.mul_table.tolist() == [[0, 1], [1, 0]]
    # both would read as 1 once wrapped to int16, which passes every other check
    for entry in (65537, -65535):
        with pytest.raises(ValueError, match="table entries must be element indices"):
            FiniteGroup([[0, 1], [1, entry]])


def test_table_is_checked_in_its_own_integer_type():
    # an 8 MiB int16 table: widened to int64 first, the build peaked at 40 MiB
    table = make_named_group("cyclic:2048").mul_table
    tracemalloc.start()
    try:
        G = FiniteGroup(table)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert G.mul_table.dtype == np.int16 and not np.shares_memory(G.mul_table, table)
    assert np.array_equal(G.mul_table, table)
    assert peak < 3 * table.nbytes


@pytest.mark.parametrize("build, n", [(_cyclic, 1024), (_dihedral, 512)])
def test_cyclic_and_dihedral_build_without_table_temporaries(build, n):
    # both tables are 2 MiB; two table-sized temporaries would double the peak
    tracemalloc.start()
    try:
        table = build(n).mul_table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table.nbytes


def test_product_builds_without_table_temporaries():
    # 2 MiB table from two 2 KiB factors
    tracemalloc.start()
    try:
        table = make_named_group("product:cyclic:32*cyclic:32").mul_table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * table.nbytes


@pytest.mark.parametrize("spec", ["cyclic:1024", "heisenberg:7"])
def test_adoption_stays_far_below_the_table(spec):
    # validation, inverse and classes need no table-sized temporary; an argmin
    # over the table after it is made read-only would copy it whole
    table = np.array(make_named_group(spec).mul_table)
    tracemalloc.start()
    try:
        G = _owning(table, spec)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.shares_memory(G.mul_table, table)
    assert peak <= 0.25 * table.nbytes + (1 << 20)


def test_product_group_is_componentwise():
    G = make_named_group("product:cyclic:2*cyclic:4")
    assert G.order == 8
    # abelian: all singleton classes, table symmetric
    assert (G.class_sizes == 1).all()
    assert np.array_equal(G.mul_table, G.mul_table.T)
    assert element_orders(G) == [1, 2, 2, 2, 4, 4, 4, 4]
    # index convention (a, b) -> a*|B| + b
    assert G.mul_table[4, 1] == 5


def test_nested_product_parses_right_associatively():
    G = make_named_group("product:cyclic:2*product:cyclic:2*cyclic:2")
    assert G.order == 8
    assert element_orders(G) == [1] + [2] * 7


def test_perm_spec_builds_the_closure():
    G = make_named_group("perm:3:(0 1);(0 1 2)")
    assert G.order == 6
    S3 = make_named_group("symmetric:3")
    assert element_orders(G) == element_orders(S3)
    assert make_named_group("perm:4:(0 1 2 3)").order == 4
    assert make_named_group("perm:5:(0 1)").order == 2


def test_perm_spec_is_bounded_by_its_text():
    G = make_named_group("perm:100000000:(0 1)")
    assert G.label == "perm:100000000:(0 1)"
    assert np.array_equal(G.mul_table, make_named_group("perm:2:(0 1)").mul_table)


@pytest.mark.parametrize(
    "degree, cycles",
    [
        (5, [(0, 1)]),
        (4, [(0, 1, 2, 3), (1, 3)]),
        (6, [(1, 3, 5), (0, 4)]),
        (7, [(6, 2), (3,), (4, 5, 1)]),
        (8, [(7, 5, 3, 1), (2, 4)]),
        (9, [(8,)]),
    ],
)
def test_perm_spec_matches_full_degree_build(degree, cycles):
    body = ";".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)
    spec = f"perm:{degree}:{body}"
    G = make_named_group(spec)
    full = build_from_permutations(degree, [cycle_perm(c, degree) for c in cycles])
    assert G.label == spec
    assert np.array_equal(G.mul_table, full.mul_table)
    assert G.generators == full.generators
    assert_classes_are(G, class_partition(full))
    gens = [cycle_perm(c, degree) for c in cycles]
    assert np.array_equal(full.mul_table, search_mul_table(perm_closure(degree, gens)))


def test_builder_table_is_not_copied(monkeypatch):
    # a perm: group keeps its closure's table, and symmetric: the table it
    # renumbers that one into
    for name, spec in (("_perm_closure", "perm:5:(0 1 2);(3 4)"), ("_owning", "symmetric:4")):
        built = []
        real = getattr(finharm.groups, name)

        def recording(*args, name=name, real=real):
            result = real(*args)
            built.append(result[1] if name == "_perm_closure" else args[0])
            return result

        monkeypatch.setattr(finharm.groups, name, recording)
        G = make_named_group(spec)
        assert np.shares_memory(G.mul_table, built[-1])
        assert not G.mul_table.flags.writeable


def test_caller_table_is_copied_and_left_writable():
    table = np.array(make_named_group("symmetric:3").mul_table)
    G = FiniteGroup(table)
    assert not np.shares_memory(G.mul_table, table)
    assert table.flags.writeable
    table[:] = 0
    assert np.array_equal(G.mul_table, make_named_group("symmetric:3").mul_table)


@pytest.mark.parametrize(
    "bad",
    [
        "",
        "frobnicate:7",
        "cyclic:",
        "cyclic:x",
        "product:cyclic:2",
        "product:cyclic:2+cyclic:2",
        "perm:3:(0 1",
        "perm:3:",
        "cyclic:3junk",
        "quaternion:8",
    ],
)
def test_bad_specs_raise_parse_error(bad):
    with pytest.raises(ParseError):
        make_named_group(bad)


def test_parse_error_reports_position():
    with pytest.raises(ParseError) as err:
        make_named_group("product:cyclic:2!cyclic:2")
    assert "position 16" in str(err.value)


@pytest.mark.parametrize(
    "spec",
    ["cyclic:0", "dihedral:0", "symmetric:0", "heisenberg:4", "heisenberg:1", "perm:0:(0)"],
)
def test_unsupported_parameters(spec):
    with pytest.raises(UnsupportedParameter):
        make_named_group(spec)


@pytest.mark.parametrize("spec", ["cyclic:4097", "symmetric:7", "product:cyclic:70*cyclic:70"])
def test_named_order_cap(spec):
    with pytest.raises(OrderTooLarge):
        make_named_group(spec)


@pytest.mark.parametrize("spec", ["perm:3:(0 3)", "perm:3:(0 0)", "perm:3:(1 1 2)"])
def test_bad_cycles_raise_invalid_permutation(spec):
    with pytest.raises(InvalidPermutation):
        make_named_group(spec)


def test_build_from_permutations_closure_cap():
    five_cycle = (1, 2, 3, 4, 0)
    with pytest.raises(ClosureExceedsCap):
        build_from_permutations(5, [five_cycle], order_cap=3)
    assert build_from_permutations(5, [five_cycle]).order == 5
    assert build_from_permutations(3, []).order == 1


def test_build_from_permutations_rejects_non_permutation():
    with pytest.raises(InvalidPermutation):
        build_from_permutations(3, [(0, 0, 1)])
    with pytest.raises(InvalidPermutation):
        build_from_permutations(3, [(0, 1)])


# S4 on points 0..3 times a 16-cycle on 4..19: order 384
DEGREE20_SPEC = "perm:20:(0 1 2 3);(0 1);(4 5 6 7 8 9 10 11 12 13 14 15 16 17 18 19)"
DEGREE20_GENS = [
    (1, 2, 3, 0) + tuple(range(4, 20)),
    (1, 0) + tuple(range(2, 20)),
    tuple(range(4)) + tuple(range(5, 20)) + (4,),
]


S5_GENS = [(1, 0, 2, 3, 4), (1, 2, 3, 4, 0)]


@pytest.mark.parametrize(
    "degree, gens", [(5, S5_GENS), (20, DEGREE20_GENS)], ids=["S5", "degree20"]
)
def test_perm_mul_table_matches_dict_lookup(degree, gens):
    perms, mul, _ = _perm_closure(degree, gens, 5000)
    assert [tuple(p) for p in perms.tolist()] == perm_closure(degree, gens)
    expected = dict_mul_table(perm_closure(degree, gens))
    assert mul.tolist() == expected
    # with a spare, a repeated and an identity generator, in any order, the
    # table is still the one of the elements in the closure's order
    spare = [gens[-1], tuple(range(degree)), compose(gens[0], gens[-1])] + list(gens)
    assert build_from_permutations(degree, spare).mul_table.tolist() == dict_mul_table(
        perm_closure(degree, spare)
    )


def test_perm_table_past_int16_index_arithmetic():
    # S6 from 50 generators: 720 x 50 left products and 720 x 720 table
    # entries, each above 2^15, so no index product may be taken in int16
    gens = [(1, 0, 2, 3, 4, 5), (1, 2, 3, 4, 5, 0)]
    while len(gens) < 50:
        gens.append(compose(gens[-1], gens[len(gens) % 2]))
    G = build_from_permutations(6, gens)
    assert G.order == 720
    assert G.mul_table.tolist() == dict_mul_table(perm_closure(6, gens))


@pytest.mark.parametrize("n", range(1, 7))
def test_symmetric_table_matches_search_oracle(n):
    G = make_named_group(f"symmetric:{n}")
    assert np.array_equal(G.mul_table, search_mul_table(perm_list(n)))


def test_perm_spec_of_degree_20_uses_breadth_first_order():
    G = make_named_group(DEGREE20_SPEC)
    assert G.order == 384
    perms = perm_closure(20, DEGREE20_GENS)
    assert G.mul_table.tolist() == dict_mul_table(perms)
    assert np.array_equal(G.mul_table, search_mul_table(perms))


def test_constructor_rejects_malformed_tables():
    with pytest.raises(ValueError):
        FiniteGroup(np.zeros((2, 3), dtype=np.int64))
    with pytest.raises(ValueError):
        FiniteGroup([[1, 0], [0, 1]])  # 0 is not the identity
    with pytest.raises(ValueError, match="left translations must be bijective"):
        FiniteGroup([[0, 1], [1, 1]])  # row 1 not a bijection
    with pytest.raises(ValueError, match="right translations must be bijective"):
        FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 1, 0]])  # column 1 not a bijection
    with pytest.raises(ValueError):
        FiniteGroup(ONE_SIDED5)  # left inverse of 3 is 2, right inverse is 4


def test_bijectivity_is_checked_in_the_last_partial_block():
    # order 400 gives blocks of 163 rows or columns (0-162, 163-325, 326-399);
    # both swaps land in the third, partial one, and leave the other kind of
    # translation bijective
    table = np.array(make_named_group("cyclic:400").mul_table)
    table[350, [370, 390]] = table[350, [390, 370]]
    with pytest.raises(ValueError, match="right translations must be bijective"):
        FiniteGroup(table)
    table = np.array(make_named_group("cyclic:400").mul_table)
    table[[370, 390], 350] = table[[390, 370], 350]
    with pytest.raises(ValueError, match="left translations must be bijective"):
        FiniteGroup(table)


def test_axiom_checker_accepts_corpus(corpus_groups):
    for G in corpus_groups.values():
        assert verify_group_axioms(G) is True


def test_axiom_checker_rejects_nonassociative_loop():
    # passes every constructor check (Latin, identity, two-sided inverses)
    G = FiniteGroup(LOOP5)
    with pytest.raises(ValueError, match="associativity"):
        verify_group_axioms(G)


def test_axiom_checker_chunked_path():
    assert verify_group_axioms(make_named_group("cyclic:200")) is True


@pytest.mark.parametrize("spec", sorted(set(CORPUS_SPECS + LATTICE_SPECS + TABLES_SPECS)))
def test_group_structure_matches_oracle(spec):
    assert_structure_matches_oracle(make_named_group(spec))


def test_loop_structure_matches_oracle():
    # the constructor does not prove associativity; the orbit formula must
    # still give a non-associative loop the classes it always gave it
    assert_structure_matches_oracle(FiniteGroup(LOOP5))


@pytest.mark.parametrize("spec", ["symmetric:4", "heisenberg:7", "product:dihedral:6*quaternion"])
def test_row_blocks_do_not_change_the_group(spec, monkeypatch):
    G = make_named_group(spec)
    U = subgroup_closure(G, G.generators[:1])
    monkeypatch.setattr(finharm.groups, "_BLOCK_ELEMENTS", 1)  # one row per block
    H = FiniteGroup(G.mul_table)
    for name in ("inv_table", "class_of", "class_reps", "class_sizes"):
        assert np.array_equal(getattr(H, name), getattr(G, name)), name
    assert_classes_are(H, class_partition(G))
    V = Subgroup(H, U.members)
    assert np.array_equal(V.coset_of, U.coset_of)
    assert np.array_equal(V.left_coset_reps, U.left_coset_reps)
    with pytest.raises(ValueError, match="left translations must be bijective"):
        FiniteGroup([[0, 1], [1, 1]])
    with pytest.raises(ValueError, match="right translations must be bijective"):
        FiniteGroup([[0, 1, 2], [1, 2, 0], [2, 1, 0]])


@pytest.mark.parametrize(
    "spec",
    [
        "symmetric:3",
        "symmetric:4",
        "symmetric:5",
        "symmetric:6",
        "perm:6:(1 3 5);(0 4)",
        "perm:8:(0 1 2 3);(0 1);(4 5 6 7)",
        DEGREE20_SPEC,
    ],
)
def test_class_sizes_match_sympy(spec):
    # invariants only: sympy composes permutations left to right
    combinatorics = pytest.importorskip("sympy.combinatorics")
    G = make_named_group(spec)
    if spec.startswith("symmetric:"):
        reference = combinatorics.SymmetricGroup(int(spec.split(":")[1]))
    else:
        _, degree, body = spec.split(":")
        cycles = [[int(v) for v in c.strip("()").split()] for c in body.split(";")]
        reference = combinatorics.PermutationGroup(
            [combinatorics.Permutation([c], size=int(degree)) for c in cycles]
        )
    assert G.order == reference.order()
    expected = sorted(len(c) for c in reference.conjugacy_classes())
    assert sorted(G.class_sizes.tolist()) == expected


def test_classes_match_brute_force(corpus_groups):
    for spec in ("symmetric:3", "quaternion", "dihedral:4", "heisenberg:3"):
        G = corpus_groups[spec]
        assert_classes_are(G, brute_classes(G))


def test_s3_classes_frozen(s3):
    assert_classes_are(s3, ((0,), (3, 4), (1, 2, 5)))
    assert s3.class_reps.tolist() == [0, 3, 1]
    assert s3.class_sizes.tolist() == [1, 2, 3]
    assert s3.class_of.tolist() == [0, 2, 2, 1, 1, 2]


def test_mul_inv_bounds_checked(s3):
    # elements are read through the tables alone, which numpy bounds-checks
    assert not hasattr(s3, "mul") and not hasattr(s3, "inv")
    with pytest.raises(IndexError):
        s3.mul_table[0, 99]
    with pytest.raises(IndexError):
        s3.inv_table[6]
    with pytest.raises(IndexOutOfRange):
        FiniteGroup([[0]], generators=(5,))


def test_s3_subgroup_lattice_frozen(s3):
    subs = enumerate_subgroups(s3)
    assert [U.members for U in subs] == [
        (0,),
        (0, 1),
        (0, 2),
        (0, 5),
        (0, 3, 4),
        (0, 1, 2, 3, 4, 5),
    ]


def test_q8_subgroup_lattice_frozen(q8):
    subs = enumerate_subgroups(q8)
    assert [U.members for U in subs] == [
        (0,),
        (0, 1),
        (0, 1, 2, 3),
        (0, 1, 4, 5),
        (0, 1, 6, 7),
        (0, 1, 2, 3, 4, 5, 6, 7),
    ]


def test_subgroup_count_s4(corpus_groups):
    assert len(enumerate_subgroups(corpus_groups["symmetric:4"])) == 30


@pytest.mark.parametrize("spec", sorted(set(CORPUS_SPECS + LATTICE_SPECS)))
def test_subgroup_lattice_matches_element_oracle(spec):
    G = make_named_group(spec)
    assert [U.members for U in enumerate_subgroups(G)] == element_subgroup_lattice(G)


@pytest.mark.parametrize("spec", ["symmetric:4", "heisenberg:3"])
def test_subgroup_closure_matches_set_oracle(spec):
    G = make_named_group(spec)
    singletons = itertools.combinations(range(G.order), 1)
    pairs = itertools.combinations(range(G.order), 2)
    for seeds in itertools.chain(singletons, pairs):
        assert subgroup_closure(G, seeds).members == tuple(sorted(set_closure(G, seeds))), seeds


@pytest.mark.parametrize(
    "spec, count",
    [
        ("dihedral:24", 68),  # tau(24) + sigma(24)
        # (Z/2)^5: the Gaussian binomials [5 choose k]_2 sum to 374
        ("product:cyclic:2*product:cyclic:2*product:cyclic:2*product:cyclic:2*cyclic:2", 374),
        ("product:symmetric:3*symmetric:3", 60),
        ("product:symmetric:4*cyclic:2", 98),
    ],
)
def test_subgroup_counts_pinned(spec, count):
    assert len(enumerate_subgroups(make_named_group(spec))) == count


def test_symmetric_5_lattice_reaches_a5(monkeypatch):
    monkeypatch.setattr(finharm.groups, "SUBGROUP_ENUMERATION_CAP", 120)
    G = make_named_group("symmetric:5")
    subs = enumerate_subgroups(G)
    assert len(subs) == 156
    # A5, the only subgroup of order 60, is perfect: no cyclic extension by
    # normalising elements reaches it from a proper subgroup
    (a5,) = [U for U in subs if U.order == 60]
    even = {i for i, p in enumerate(perm_list(5)) if perm_parity(p) == 1}
    assert set(a5.members) == even


def test_subgroup_list_closed_under_conjugation(corpus_groups, sweep_specs):
    for spec in sweep_specs:
        G = corpus_groups[spec]
        mul, inv = G.mul_table, G.inv_table
        member_sets = {U.members for U in enumerate_subgroups(G)}
        for members in member_sets:
            for g in range(G.order):
                conj = tuple(
                    sorted(int(mul[mul[g, m], inv[g]]) for m in members)
                )
                assert conj in member_sets


def test_cosets_tile_the_group(s3, q8):
    for G in (s3, q8):
        for U in enumerate_subgroups(G):
            assert U.num_cosets * U.order == G.order
            seen: set[int] = set()
            for j, rep in enumerate(U.left_coset_reps.tolist()):
                coset = {int(G.mul_table[u, rep]) for u in U.members}
                assert len(coset) == U.order
                assert not (coset & seen)
                assert min(coset) == rep
                assert all(U.coset_of[x] == j for x in coset)
                seen |= coset
            assert seen == set(range(G.order))


@pytest.mark.parametrize("spec", sorted(set(CORPUS_SPECS + LATTICE_SPECS)))
def test_cosets_match_loop_oracle(spec):
    for U in enumerate_subgroups(make_named_group(spec)):
        coset_of, reps = loop_cosets(U)
        assert U.coset_of.dtype == coset_of.dtype
        assert np.array_equal(U.coset_of, coset_of), U.members
        assert not U.coset_of.flags.writeable
        assert U.left_coset_reps.dtype == np.int64
        assert not U.left_coset_reps.flags.writeable
        assert np.array_equal(U.left_coset_reps, reps)


def test_coset_reps_frozen_s3(s3):
    U = subgroup_closure(s3, [1])
    assert U.members == (0, 1)
    assert U.left_coset_reps.tolist() == [0, 2, 3]


def test_subgroup_closure(s3):
    assert subgroup_closure(s3, []).members == (0,)
    assert subgroup_closure(s3, [3]).members == (0, 3, 4)
    assert subgroup_closure(s3, [1, 2]).members == (0, 1, 2, 3, 4, 5)
    with pytest.raises(IndexOutOfRange):
        subgroup_closure(s3, [17])


def test_subgroup_rejects_bad_member_sets(s3):
    with pytest.raises(ValueError, match="closed"):
        Subgroup(s3, [0, 3])  # 3*3 = 4 is missing
    with pytest.raises(ValueError, match="identity"):
        Subgroup(s3, [1])
    with pytest.raises(ValueError):
        Subgroup(s3, [])
    with pytest.raises(IndexOutOfRange):
        Subgroup(s3, [0, 9])


def test_subgroup_enumeration_caps():
    big = make_named_group("cyclic:49")
    with pytest.raises(OrderTooLarge):
        enumerate_subgroups(big)


def test_group_function_of_generators(corpus_groups):
    # declared generators actually generate
    for spec, G in corpus_groups.items():
        if G.order == 1:
            continue
        assert subgroup_closure(G, G.generators).order == G.order, spec
