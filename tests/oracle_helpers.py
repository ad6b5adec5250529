"""Loop-only reference computations used to cross-check the package.

Functions on a group are (|G|,) complex arrays indexed by element, and a
linear character psi of U is a (|U|,) complex array of its values on
U.members, as in the package. Apart from truncation_demo, nothing here shares a code path with the
vectorized internals: sums run as plain Python loops over scalar table
lookups, or over one 1-D np.dot per function and irrep, so agreement between
these values and the package's is meaningful evidence. The summation-order
oracle shuffles its loops by seed. truncation_demo convolves its truncated
kernels through the package's convolve_over_subgroup on purpose: its final
stage must reproduce the package's kernel bit for bit, which only the same
summation can. verify_group_axioms is the exhaustive O(n^3) check that the
package's group constructor leaves out, and assert_table_round_trips hands a
builder's table, which the package adopts unchecked, to that constructor.
search_mul_table and table_structure are the whole-table group constructions
the package used before it built permutation tables from the generators'
left action: a binary search of all n^2 compositions, and classes by
np.unique of each orbit. perm_closure is
the closure the package found one tuple product at a time before it
composed whole breadth-first levels. scipy_schur is the
scipy.linalg call the package made before it took LAPACK zgees straight from
scipy's compiled extension. json_digest is the report digest as defined, by
json.dumps; the package computes it through orjson.
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import json
from fractions import Fraction
from types import SimpleNamespace

import numpy as np
import scipy.linalg

from finharm import (
    CharacterTable,
    ClosureExceedsCap,
    FiniteGroup,
    FinharmError,
    GroupMismatch,
    Subgroup,
    SubgroupMismatch,
    ToleranceViolation,
    convolve_over_subgroup,
    subgroup_closure,
    test_functions,
)
from finharm._rng import derive_stream_seed, unit_uniforms
from finharm.characters import _descending_row_order


def perm_list(n: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in itertools.permutations(range(n))]


def compose(p: tuple[int, ...], q: tuple[int, ...]) -> tuple[int, ...]:
    # (p . q)(x) = p[q[x]]: apply q first
    return tuple(p[q[x]] for x in range(len(p)))


def perm_parity(p: tuple[int, ...]) -> int:
    inversions = sum(
        1 for i in range(len(p)) for j in range(i + 1, len(p)) if p[i] > p[j]
    )
    return -1 if inversions % 2 else 1


def element_orders(G: FiniteGroup) -> list[int]:
    mul = G.mul_table
    orders = []
    for x in range(G.order):
        k, y = 1, x
        while y != 0:
            y = int(mul[y, x])
            k += 1
        orders.append(k)
    return sorted(orders)


def brute_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    mul, inv = G.mul_table, G.inv_table
    seen: set[int] = set()
    classes = []
    for g in range(G.order):
        if g in seen:
            continue
        orbit = {int(mul[mul[x, g], inv[x]]) for x in range(G.order)}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (len(c), c[0]))
    return tuple(classes)


def class_partition(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    """G's classes as ascending member tuples in G's class order, read back
    from class_of: class k holds the elements that class_of maps to k."""
    return tuple(
        tuple(np.flatnonzero(G.class_of == k).tolist()) for k in range(len(G.class_reps))
    )


def assert_classes_are(G: FiniteGroup, classes) -> None:
    """class_of, class_sizes and class_reps of G hold the partition classes,
    a sequence of ascending member tuples in (size, smallest member) order,
    as read-only int64 arrays."""
    classes = tuple(tuple(c) for c in classes)
    assert sorted(classes, key=lambda c: (len(c), c[0])) == list(classes)
    assert class_partition(G) == classes
    assert G.class_sizes.tolist() == [len(c) for c in classes]
    assert G.class_reps.tolist() == [c[0] for c in classes]
    for name in ("class_of", "class_sizes", "class_reps"):
        a = getattr(G, name)
        assert a.dtype == np.int64 and not a.flags.writeable, name


def brute_convolve(
    coeffs: dict[int, complex], U: Subgroup, f: np.ndarray
) -> list[complex]:
    mul, inv = U.parent.mul_table, U.parent.inv_table
    out = []
    for x in range(U.parent.order):
        acc = 0j
        for u, c in coeffs.items():
            acc += complex(c) * complex(f[mul[inv[u], x]])
        out.append(acc)
    return out


def psi_at(U: Subgroup, psi: np.ndarray) -> dict[int, complex]:
    """psi as a map from each member of U to its value, a Python complex."""
    return dict(zip(U.members, np.asarray(psi).tolist()))


def brute_inversion(table: CharacterTable, f: np.ndarray) -> complex:
    G = table.group
    total = 0j
    for pi in range(table.num_irreps):
        th = 0j
        for x in range(G.order):
            th += complex(f[x]) * complex(table.values[pi, G.class_of[x]])
        total += (table.degrees[pi] / G.order) * th
    return total


def brute_whittaker_sides(
    table: CharacterTable, U: Subgroup, psi: np.ndarray, f: np.ndarray
) -> tuple[complex, complex]:
    """Both sides of the transform identity: lhs (psi *_U f)(identity), rhs
    the weighted sum over irreps of the kernel pairing, by raw triple loops."""
    G = table.group
    mul, inv = G.mul_table, G.inv_table
    psi = psi_at(U, psi)
    lhs = 0j
    for u in U.members:
        lhs += psi[u] * complex(f[inv[u]])
    rhs = 0j
    for pi in range(table.num_irreps):
        pairing = 0j
        for x in range(G.order):
            for u in U.members:
                chi = complex(table.values[pi, G.class_of[mul[inv[u], x]]])
                pairing += psi[u].conjugate() * chi * complex(f[x])
        rhs += (table.degrees[pi] / G.order) * pairing
    return lhs, rhs


def brute_kernel_values(
    table: CharacterTable, pi: int, U: Subgroup, psi: np.ndarray
) -> list[complex]:
    G = table.group
    mul, inv = G.mul_table, G.inv_table
    psi = psi_at(U, psi)
    out = []
    for x in range(G.order):
        acc = 0j
        for u in U.members:
            chi = complex(table.values[pi, G.class_of[mul[inv[u], x]]])
            acc += psi[u].conjugate() * chi
        out.append(acc)
    return out


def brute_multiplicity(
    table: CharacterTable, pi: int, U: Subgroup, psi: np.ndarray
) -> complex:
    """Restriction inner product, left unsnapped."""
    G = table.group
    psi = psi_at(U, psi)
    total = 0j
    for u in U.members:
        total += complex(table.values[pi, G.class_of[u]]) * psi[u].conjugate()
    return total / U.order


def brute_induced_character_value(U: Subgroup, psi: np.ndarray, g: int) -> complex:
    G = U.parent
    mul, inv = G.mul_table, G.inv_table
    psi = psi_at(U, psi)
    total = 0j
    for x in range(G.order):
        c = int(mul[mul[inv[x], g], x])
        if c in psi:
            total += psi[c]
    return total / U.order


def brute_fubini_value(
    table: CharacterTable, pi: int, U: Subgroup, psi: np.ndarray, f: np.ndarray
) -> complex:
    """The double sum over (g, u) of theta(g) f(u^-1 g) psi(u), one fixed order."""
    G = table.group
    mul, inv = G.mul_table, G.inv_table
    psi = psi_at(U, psi)
    total = 0j
    for g in range(G.order):
        chi = complex(table.values[pi, G.class_of[g]])
        for u in U.members:
            total += chi * complex(f[mul[inv[u], g]]) * psi[u]
    return total


def fubini_interchange_oracle(
    table: CharacterTable,
    pi: int,
    U: Subgroup,
    psi: np.ndarray,
    f: np.ndarray,
    seed: int = 0,
) -> tuple[complex, complex]:
    """Evaluate sum_g sum_u theta_pi(g) f(u^-1 g) psi(u) three ways.

    Order A runs the g-sum outermost, order B the u-sum outermost, and a
    third form substitutes g = u * x before summing. The outer enumeration
    order is shuffled deterministically by `seed`, so agreement exercises
    genuine order-independence rather than one fixed loop nesting. The three
    values are required to agree; (orderA, orderB) is returned.
    """
    if not (
        U.parent is table.group and psi.shape == (U.order,) and f.shape == (table.group.order,)
    ):
        raise GroupMismatch("table, U, psi and f must share one group")
    G = table.group
    n = G.order
    mul = G.mul_table
    inv = G.inv_table
    theta_el = table.element_values[pi]
    members = U.members_array

    # f(u^-1 g) laid out as a |U| x |G| matrix
    translates = f[mul[np.ix_(inv[members], np.arange(n))]]
    inner_over_u = psi @ translates

    g_order = np.argsort(unit_uniforms(derive_stream_seed(int(seed), 0), n), kind="stable")
    order_a = 0.0 + 0.0j
    for g in g_order:
        order_a += complex(theta_el[g]) * complex(inner_over_u[g])

    u_order = np.argsort(
        unit_uniforms(derive_stream_seed(int(seed), 1), len(members)), kind="stable"
    )
    order_b = 0.0 + 0.0j
    for ui in u_order:
        u = int(members[ui])
        order_b += complex(psi[ui]) * complex(np.dot(theta_el, f[mul[inv[u]]]))

    substituted = 0.0 + 0.0j
    u_order_s = np.argsort(
        unit_uniforms(derive_stream_seed(int(seed), 2), len(members)), kind="stable"
    )
    for ui in u_order_s:
        u = int(members[ui])
        substituted += complex(psi[ui]) * complex(np.dot(theta_el[mul[u]], f))

    scale = 1.0 + max(abs(order_a), abs(order_b), abs(substituted))
    worst = max(
        abs(order_a - order_b), abs(order_a - substituted), abs(order_b - substituted)
    )
    if worst > 1e-10 * scale:
        raise ToleranceViolation(
            f"summation orders disagree by {worst:g} (scale {scale:g})"
        )
    return (order_a, order_b)


def verify_group_axioms(G: FiniteGroup) -> bool:
    """Exhaustive associativity/identity/inverse/class-consistency check.

    O(n^3) but chunked; meant for corpus groups (order <= a few hundred).
    Raises ValueError on the first violated axiom, returns True otherwise.
    """
    mul = G.mul_table
    inv = G.inv_table
    n = G.order
    ar = np.arange(n)
    if not (np.array_equal(mul[0], ar) and np.array_equal(mul[:, 0], ar)):
        raise ValueError("identity axiom fails")
    zero = np.zeros(n, dtype=np.int64)
    if not (np.array_equal(mul[ar, inv], zero) and np.array_equal(mul[inv, ar], zero)):
        raise ValueError("inverse axiom fails")
    chunk = max(1, (1 << 22) // max(n * n, 1))
    for start in range(0, n, chunk):
        rows = mul[start:start + chunk]
        left = mul[rows]          # (a*b)*c
        right = rows[:, mul]      # a*(b*c)
        if not np.array_equal(left, right):
            raise ValueError("associativity fails")
    # classes: every class nonempty, sized and represented by its smallest
    # member, plus conjugation invariance
    r = len(G.class_reps)
    if G.class_of.min() != 0 or G.class_of.max() != r - 1:
        raise ValueError("class_of names a class that is not there")
    if not np.array_equal(np.bincount(G.class_of, minlength=r), G.class_sizes):
        raise ValueError("class_sizes disagree with class_of")
    for k, rep in enumerate(G.class_reps.tolist()):
        if G.class_of[rep] != k or (G.class_of[:rep] == k).any():
            raise ValueError("class_reps are not the smallest members of their classes")
    for g in range(n):
        if not np.array_equal(G.class_of[mul[mul[g, :], inv[g]]], G.class_of):
            raise ValueError("conjugation does not preserve classes")
    return True


def structure_constants(G: FiniteGroup) -> np.ndarray:
    """The whole r^3 class-algebra tensor, a[i, j, k] = #{x in C_i : x^-1 z_k in C_j}."""
    r = len(G.class_reps)
    mul, inv = G.mul_table, G.inv_table
    a = np.zeros((r, r, r))
    for k, z in enumerate(G.class_reps):
        for x in range(G.order):
            a[G.class_of[x], G.class_of[mul[inv[x], z]], k] += 1.0
    return a


def scipy_schur(B: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The complex Schur form (T, Z) of B by scipy.linalg.schur, B = Z T Z^H."""
    return scipy.linalg.schur(B, output="complex")


def cycle_perm(points: tuple[int, ...], degree: int) -> tuple[int, ...]:
    """The cycle as a permutation of 0..degree-1 in one-line form."""
    perm = list(range(degree))
    for i, v in enumerate(points):
        perm[v] = points[(i + 1) % len(points)]
    return tuple(perm)


def perm_closure(
    degree: int, gens: list[tuple[int, ...]], order_cap: int | None = None
) -> list[tuple[int, ...]]:
    """Closure in breadth-first discovery order, right-multiplying by gens,
    one tuple product at a time; given an order_cap, ClosureExceedsCap at the
    first new element beyond it."""
    elems = [tuple(range(degree))]
    seen = set(elems)
    for base in elems:  # grows while iterating
        for g in gens:
            new = compose(base, g)
            if new not in seen:
                if order_cap is not None and len(elems) >= order_cap:
                    raise ClosureExceedsCap(f"closure exceeds order_cap={order_cap}")
                seen.add(new)
                elems.append(new)
    return elems


def dict_mul_table(perms: list[tuple[int, ...]]) -> list[list[int]]:
    """Cayley table by one dict lookup per product."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[compose(p, q)] for q in perms] for p in perms]


def search_mul_table(perms: list[tuple[int, ...]], block_entries: int = 1 << 16) -> np.ndarray:
    """Cayley table by binary search of every one of the n^2 compositions.

    Each permutation is one fixed-width byte key; the composed keys of a block
    of rows are looked up in the sorted keys, and a composition that is not in
    the list raises ValueError. perms[0] must be the identity.
    """
    degree = len(perms[0])
    arr = np.array(perms, dtype=np.min_scalar_type(degree - 1))
    n = len(perms)
    key = np.dtype((np.void, arr.itemsize * degree))
    keys = arr.view(key).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    mul = np.empty((n, n), dtype=np.int64)
    rows = max(1, block_entries // (n * degree))
    for start in range(0, n, rows):
        composed = arr[start:start + rows, arr]  # [i, j] = perms[i] o perms[j]
        composed_keys = np.ascontiguousarray(composed).view(key)[..., 0]
        pos = np.minimum(np.searchsorted(sorted_keys, composed_keys), n - 1)
        if not np.array_equal(sorted_keys[pos], composed_keys):
            raise ValueError("permutations are not closed under composition")
        mul[start:start + rows] = order[pos]
    return mul


def table_structure(mul: np.ndarray) -> SimpleNamespace:
    """Inverse and conjugacy classes of a validated table, derived by whole-
    table passes: the inverse from np.where over mul == 0, each class as the
    np.unique of its orbit mul[mul[:, x], inv], ordered by (size, smallest)."""
    n = mul.shape[0]
    inv = np.where(mul == 0)[1]
    seen = np.zeros(n, dtype=bool)
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = np.unique(mul[mul[:, x], inv])
        seen[orbit] = True
        classes.append(tuple(int(v) for v in orbit))
    classes.sort(key=lambda c: (len(c), c[0]))
    class_of = np.empty(n, dtype=np.int64)
    for k, cls in enumerate(classes):
        class_of[list(cls)] = k
    return SimpleNamespace(
        inv_table=inv,
        classes=tuple(classes),
        class_of=class_of,
        class_reps=np.array([c[0] for c in classes], dtype=np.int64),
        class_sizes=np.array([len(c) for c in classes], dtype=np.int64),
    )


def assert_table_round_trips(G: FiniteGroup) -> None:
    """FiniteGroup(G.mul_table), the one path that checks a table, accepts
    G's table and derives the inverses and classes G holds: a builder's
    table, adopted unchecked, passes every check a table from outside does."""
    H = FiniteGroup(G.mul_table)
    for name in ("inv_table", "class_of", "class_sizes", "class_reps"):
        assert np.array_equal(getattr(H, name), getattr(G, name)), name


def assert_structure_matches_oracle(G: FiniteGroup) -> None:
    """Every derived array of G equals table_structure's, dtype included,
    and G's table round-trips through FiniteGroup(table)."""
    expected = table_structure(np.array(G.mul_table))
    assert_classes_are(G, expected.classes)
    for name in ("inv_table", "class_of", "class_reps", "class_sizes"):
        got, want = getattr(G, name), getattr(expected, name)
        assert got.dtype == want.dtype and np.array_equal(got, want), name
        assert not got.flags.writeable, name
    assert_table_round_trips(G)


def loop_cosets(U: Subgroup) -> tuple[np.ndarray, np.ndarray]:
    """(coset_of, left_coset_reps), two int64 arrays, by one pass over G in
    ascending order: the first element not yet placed is the smallest of its
    coset U*x."""
    mul = U.parent.mul_table
    coset_of = np.full(U.parent.order, -1, dtype=np.int64)
    reps: list[int] = []
    for x in range(U.parent.order):
        if coset_of[x] >= 0:
            continue
        coset_of[mul[U.members_array, x]] = len(reps)
        reps.append(x)
    return coset_of, np.array(reps, dtype=np.int64)


def quantized_descending_key(values) -> tuple:
    """Row sort key: each (real, imag) quantized at 1e-9, negated."""
    return tuple((-int(round(v.real * 1e9)), -int(round(v.imag * 1e9))) for v in values)


def lexsort_row_order(values: np.ndarray, leading: np.ndarray | None = None) -> np.ndarray:
    """_descending_row_order by one np.lexsort over the leading key, if
    given, then each column's (real, imag) quantized at 1e-9, negated."""
    quantized = np.empty((values.shape[0], 2 * values.shape[1]), dtype=np.int64)
    quantized[:, 0::2] = -np.rint(values.real * 1e9)
    quantized[:, 1::2] = -np.rint(values.imag * 1e9)
    keys = quantized.T[::-1]  # np.lexsort sorts by its last key first
    if leading is not None:
        keys = np.vstack([keys, leading])
    return np.lexsort(keys)


def fmt_complex_scalar(z: complex) -> str:
    """Per-value report formatting: %.12g parts, -0 folded, sign joined."""
    parts = []
    for x in (complex(z).real, complex(z).imag):
        s = f"{float(x):.12g}"
        parts.append("0" if s == "-0" else s)
    re, im = parts
    return f"{re}-{im[1:]}i" if im.startswith("-") else f"{re}+{im}i"


def json_digest(payload) -> str:
    """The report digest's definition: sha256 of the compact sorted json text."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def set_closure(G: FiniteGroup, seeds) -> set[int]:
    """Subgroup generated by seeds, by a set-based breadth-first search:
    every new element is multiplied on both sides by every member so far."""
    mul = G.mul_table
    members = {0}
    queue = [0]
    for s in seeds:
        s = int(s)
        if s not in members:
            members.add(s)
            queue.append(s)
    while queue:
        x = queue.pop()
        for y in tuple(members):
            for z in (int(mul[x, y]), int(mul[y, x])):
                if z not in members:
                    members.add(z)
                    queue.append(z)
    return members


def element_subgroup_lattice(G: FiniteGroup) -> list[tuple[int, ...]]:
    """Member lists of every subgroup, sorted by (order, members): from each
    subgroup found, adjoin every outside element and close."""
    trivial = frozenset({0})
    found = {trivial}
    queue = [trivial]
    while queue:
        base = queue.pop()
        seeds = sorted(base)
        for g in range(1, G.order):
            if g in base:
                continue
            grown = frozenset(set_closure(G, seeds + [g]))
            if grown not in found:
                found.add(grown)
                queue.append(grown)
    return sorted((tuple(sorted(s)) for s in found), key=lambda m: (len(m), m))


# --- per-row forms of the batched pairings ----------------------------------
# One 1-D np.dot per (function, irrep) and a scalar Kahan loop per function:
# the package's stacked products and row-wise sums must match them bit for bit.


def kahan_sum(terms) -> complex:
    total = 0.0 + 0.0j
    carry = 0.0 + 0.0j
    for term in terms:
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def scalar_inversion(table: CharacterTable, F: np.ndarray) -> list[complex]:
    terms = list(zip(table.plancherel_weights, table.element_values))
    return [kahan_sum(float(w) * complex(np.dot(f, chi)) for w, chi in terms) for f in F]


def scalar_frobenius(
    table: CharacterTable, pi: int, U: Subgroup, psi: np.ndarray, tol: float = 1e-6
) -> int:
    restricted = table.element_values[pi][U.members_array]
    value = complex(np.dot(restricted, np.conj(psi))) / U.order
    rounded = int(round(value.real))
    assert rounded >= 0 and abs(value - rounded) <= tol
    return rounded


# --- per-pair forms of the stacked spectrum ---------------------------------
# One (U, psi) at a time, member by member with Python complex coefficients,
# as the package computed each pair before it stacked the characters of a
# subgroup: the stacked kernels, multiplicities, checks and probes must match
# these bit for bit.


def scalar_convolve(coeffs, U: Subgroup, values: np.ndarray) -> np.ndarray:
    """sum_{u in U} coeffs(u) * values(u^-1 x) for one coefficient vector,
    over the members in ascending order."""
    mul, inv = U.parent.mul_table, U.parent.inv_table
    out = np.zeros(values.shape, dtype=np.complex128)
    for u, c in zip(U.members, np.asarray(coeffs).tolist()):
        if c == 0:
            continue
        out += c * values[..., mul[int(inv[u])]]
    return out


def scalar_pair(table: CharacterTable, U: Subgroup, psi: np.ndarray) -> SimpleNamespace:
    """kernels (r, |G|), multiplicities, conjugate_multiplicities and
    residuals of one pair."""
    kernels = scalar_convolve(np.conj(psi), U, table.element_values)
    irreps = range(table.num_irreps)
    conj = tuple(scalar_frobenius(table, pi, U, np.conj(psi)) for pi in irreps)
    return SimpleNamespace(
        kernels=kernels,
        multiplicities=tuple(scalar_frobenius(table, pi, U, psi) for pi in irreps),
        conjugate_multiplicities=conj,
        residuals=tuple(abs(complex(kernels[pi, 0]) - U.order * m) for pi, m in enumerate(conj)),
    )


def scalar_check(
    table: CharacterTable, U: Subgroup, psi: np.ndarray, kernels: np.ndarray, F: np.ndarray
) -> list[tuple]:
    """(lhs, phi, rhs, abs_error, f_l1) per row of F; lhs is the transform
    of the row alone, at the identity."""
    out = []
    for f in F:
        lhs = complex(scalar_convolve(psi, U, f)[0])
        phis = tuple(complex(np.dot(f, kernel)) for kernel in kernels)
        rhs = kahan_sum(float(w) * p for w, p in zip(table.plancherel_weights, phis))
        out.append((lhs, phis, rhs, abs(lhs - rhs), float(np.abs(f).sum())))
    return out


def scalar_probe_slots(
    table: CharacterTable, count: int, seed: int, threshold: float, budget: int = 32
) -> list[list]:
    """(f, Theta_pi(f)) of every slot of every irrep, or None for a flagged
    slot, one slot at a time: a slot with |Theta| <= threshold tries its
    reserved indices count + slot*budget onwards in order, and is flagged
    when none clears the threshold."""
    out = []
    for pi in range(table.num_irreps):
        stream = derive_stream_seed(seed, pi)
        chi = table.element_values[pi]
        slots = []
        for slot in range(count):
            first = count + slot * budget
            for index in [slot] + list(range(first, first + budget)):
                f = test_functions(table.group, stream, [index])[0]
                th = complex(np.dot(f, chi))
                if abs(th) > threshold:
                    slots.append((f, th))
                    break
            else:
                slots.append(None)
        out.append(slots)
    return out


def scalar_probe(slots: list[list], kernels: np.ndarray) -> list[tuple]:
    """(ratios, flags, spread, constant) per irrep of one pair, whose
    kernels are (r, |G|), over the slots of scalar_probe_slots; a flagged
    slot's ratio is NaN."""
    out = []
    for kernel, row in zip(kernels, slots):
        nan = complex(float("nan"), float("nan"))
        ratios = [nan if s is None else complex(np.dot(s[0], kernel)) / s[1] for s in row]
        flags = [s is None for s in row]
        clean = [rv for rv, flagged in zip(ratios, flags) if not flagged]
        if clean:
            spread = max(abs(rv - clean[0]) for rv in clean)
            constant = all(abs(rv - clean[0]) <= 1e-6 * (1.0 + abs(clean[0])) for rv in clean)
        else:
            spread, constant = float("nan"), False
        out.append((ratios, flags, spread, constant))
    return out


# --- linear characters on exact rational angles -----------------------------
# The dict-of-Fraction construction the package used before its integer
# angles: the package's characters must equal these bit for bit. It shares
# subgroup_closure and _descending_row_order with the package; tests check
# those against set_closure and quantized_descending_key.


def _unit_root(turns: Fraction) -> complex:
    """exp(2*pi*i*turns) with quarter turns evaluated exactly."""
    turns %= 1
    quarters = 4 * turns
    if quarters.denominator == 1:
        exact = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))
        return exact[int(quarters) % 4]
    return cmath.exp(2j * cmath.pi * float(turns))


def fraction_linear_characters(U: Subgroup) -> np.ndarray:
    """All homomorphisms U -> unit circle, one row of values on U.members
    each; the trivial character comes first.

    Computed through the abelianization: commutators are closed up to the
    derived subgroup D, the quotient U/D is decomposed cyclically one
    generator at a time, and each character of the partial quotient extends in
    k ways along a new generator of relative order k.  Values are tracked as
    exact rational angles so products never accumulate rounding error.
    """
    G = U.parent
    mul = G.mul_table
    inv = G.inv_table
    members = U.members

    x, y = U.members_array[:, None], U.members_array[None, :]
    commutators = mul[mul[inv[x], inv[y]], mul[x, y]]
    derived = subgroup_closure(G, np.unique(commutators))

    # cosets of the derived subgroup inside U, reps in ascending member order
    coset_of: dict[int, int] = {}
    reps: list[int] = []
    for u in members:
        if u in coset_of:
            continue
        q = len(reps)
        reps.append(u)
        for d in derived.members:
            coset_of[int(mul[d, u])] = q
    m = len(reps)
    q_mul = [[coset_of[int(mul[reps[i], reps[j]])] for j in range(m)] for i in range(m)]

    covered = {0}
    chars: list[dict[int, Fraction]] = [{0: Fraction(0)}]
    while len(covered) < m:
        g = min(q for q in range(m) if q not in covered)
        k = 1
        t = g
        while t not in covered:
            t = q_mul[t][g]
            k += 1
        target = t  # g^k, already covered
        powers = [0]
        for _ in range(k - 1):
            powers.append(q_mul[powers[-1]][g])
        extended: list[dict[int, Fraction]] = []
        for chi in chars:
            base = chi[target]
            for j in range(k):
                root = (base + j) / k  # k-th root of the angle at g^k
                grown: dict[int, Fraction] = {}
                for a in range(k):
                    for h, angle in chi.items():
                        grown[q_mul[powers[a]][h]] = (a * root + angle) % 1
                extended.append(grown)
        chars = extended
        covered = set(chars[0].keys())

    lifted = np.array([[_unit_root(chi[coset_of[u]]) for u in members] for chi in chars])
    return lifted[_descending_row_order(lifted)]


# --- truncated kernels -------------------------------------------------------


class ChainNotNested(FinharmError):
    """Truncation chain is not an increasing chain of subsets."""


class ChainNotSymmetric(FinharmError):
    """Truncation chain member is not closed under inversion."""


class ChainNotExhaustive(FinharmError):
    """Truncation chain does not terminate at the full subgroup."""


def truncation_demo(
    U: Subgroup,
    psi: np.ndarray,
    table: CharacterTable,
    pi: int,
    chain,
) -> list[np.ndarray]:
    """Kernels of psi restricted to a growing chain of supports.

    chain is a nested sequence K_1 <= ... <= K_m of member subsets, each
    containing the identity and closed under inversion, ending at the full
    subgroup. Element n of the result is conj(psi * 1_{K_n}) *_U theta_pi, a
    (|G|,) array; the last one reproduces the untruncated kernel bit for bit
    because it runs through the identical summation.
    """
    if U.parent is not table.group:
        raise GroupMismatch("U must be a subgroup of the table's group")
    if psi.shape != (U.order,):
        raise SubgroupMismatch("psi must be a character of U")
    member_set = set(U.members)
    inv = U.parent.inv_table
    stages: list[list[int]] = []
    previous: set[int] | None = None
    for K in chain:
        current = {int(x) for x in K}
        if not current <= member_set:
            raise ChainNotNested("chain member leaves the subgroup")
        if previous is not None and not previous <= current:
            raise ChainNotNested("chain sets must be increasing")
        if 0 not in current:
            raise ChainNotSymmetric("each chain set must contain the identity")
        if any(int(inv[x]) not in current for x in current):
            raise ChainNotSymmetric("each chain set must be closed under inversion")
        previous = current
        stages.append(sorted(current))
    if not stages or set(stages[-1]) != member_set:
        raise ChainNotExhaustive("chain must terminate at the full subgroup")

    theta_values = table.element_values[pi]
    psi_bar = np.conj(psi)
    kernels = []
    for support in stages:
        coeffs = np.where(np.isin(U.members_array, support), psi_bar, 0)
        kernels.append(convolve_over_subgroup(coeffs, U, theta_values))
    return kernels
