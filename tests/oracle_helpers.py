"""Loop-only reference computations used to cross-check the package.

Nothing here shares a code path with the vectorized internals: every sum
runs as a plain Python loop over scalar table lookups, so agreement between
these values and the package's is meaningful evidence.
"""

from __future__ import annotations

import itertools

from finharm import CharacterTable, FiniteGroup, GroupFunction, LinearCharacter, Subgroup


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
    orders = []
    for x in range(G.order):
        k, y = 1, x
        while y != 0:
            y = G.mul(y, x)
            k += 1
        orders.append(k)
    return sorted(orders)


def brute_classes(G: FiniteGroup) -> tuple[tuple[int, ...], ...]:
    seen: set[int] = set()
    classes = []
    for g in range(G.order):
        if g in seen:
            continue
        orbit = {G.mul(G.mul(x, g), G.inv(x)) for x in range(G.order)}
        seen |= orbit
        classes.append(tuple(sorted(orbit)))
    classes.sort(key=lambda c: (len(c), c[0]))
    return tuple(classes)


def brute_convolve(
    coeffs: dict[int, complex], U: Subgroup, f: GroupFunction
) -> list[complex]:
    G = U.parent
    out = []
    for x in range(G.order):
        acc = 0j
        for u, c in coeffs.items():
            acc += complex(c) * complex(f.values[G.mul(G.inv(u), x)])
        out.append(acc)
    return out


def brute_inversion(table: CharacterTable, f: GroupFunction) -> complex:
    G = table.group
    total = 0j
    for pi in range(table.num_irreps):
        th = 0j
        for x in range(G.order):
            th += complex(f.values[x]) * complex(table.values[pi, G.class_of[x]])
        total += (table.degrees[pi] / G.order) * th
    return total


def brute_whittaker_sides(
    table: CharacterTable, U: Subgroup, psi: LinearCharacter, f: GroupFunction
) -> tuple[complex, complex]:
    """Both sides of the transform identity: lhs (psi *_U f)(identity), rhs
    the weighted sum over irreps of the kernel pairing, by raw triple loops."""
    G = table.group
    lhs = 0j
    for u in U.members:
        lhs += psi(u) * complex(f.values[G.inv(u)])
    rhs = 0j
    for pi in range(table.num_irreps):
        pairing = 0j
        for x in range(G.order):
            for u in U.members:
                chi = complex(table.values[pi, G.class_of[G.mul(G.inv(u), x)]])
                pairing += psi(u).conjugate() * chi * complex(f.values[x])
        rhs += (table.degrees[pi] / G.order) * pairing
    return lhs, rhs


def brute_kernel_values(
    table: CharacterTable, pi: int, U: Subgroup, psi: LinearCharacter
) -> list[complex]:
    G = table.group
    out = []
    for x in range(G.order):
        acc = 0j
        for u in U.members:
            chi = complex(table.values[pi, G.class_of[G.mul(G.inv(u), x)]])
            acc += psi(u).conjugate() * chi
        out.append(acc)
    return out


def brute_multiplicity(
    table: CharacterTable, pi: int, U: Subgroup, psi: LinearCharacter
) -> complex:
    """Restriction inner product, left unsnapped."""
    G = table.group
    total = 0j
    for u in U.members:
        total += complex(table.values[pi, G.class_of[u]]) * psi(u).conjugate()
    return total / U.order


def brute_induced_character_value(U: Subgroup, psi: LinearCharacter, g: int) -> complex:
    G = U.parent
    total = 0j
    for x in range(G.order):
        c = G.mul(G.mul(G.inv(x), g), x)
        if U.contains(c):
            total += psi(c)
    return total / U.order


def brute_fubini_value(
    table: CharacterTable, pi: int, U: Subgroup, psi: LinearCharacter, f: GroupFunction
) -> complex:
    """The double sum over (g, u) of theta(g) f(u^-1 g) psi(u), one fixed order."""
    G = table.group
    total = 0j
    for g in range(G.order):
        chi = complex(table.values[pi, G.class_of[g]])
        for u in U.members:
            total += chi * complex(f.values[G.mul(G.inv(u), g)]) * psi(u)
    return total


def perm_closure(degree: int, gens: list[tuple[int, ...]]) -> list[tuple[int, ...]]:
    """Closure in breadth-first discovery order, right-multiplying by gens."""
    elems = [tuple(range(degree))]
    seen = set(elems)
    for base in elems:  # grows while iterating
        for g in gens:
            new = compose(base, g)
            if new not in seen:
                seen.add(new)
                elems.append(new)
    return elems


def dict_mul_table(perms: list[tuple[int, ...]]) -> list[list[int]]:
    """Cayley table by one dict lookup per product."""
    index = {p: i for i, p in enumerate(perms)}
    return [[index[compose(p, q)] for q in perms] for p in perms]


def quantized_descending_key(values) -> tuple:
    """Row sort key: each (real, imag) quantized at 1e-9, negated."""
    return tuple((-int(round(v.real * 1e9)), -int(round(v.imag * 1e9))) for v in values)


def fmt_complex_scalar(z: complex) -> str:
    """Per-value report formatting: %.12g parts, -0 folded, sign joined."""
    parts = []
    for x in (complex(z).real, complex(z).imag):
        s = f"{float(x):.12g}"
        parts.append("0" if s == "-0" else s)
    re, im = parts
    return f"{re}-{im[1:]}i" if im.startswith("-") else f"{re}+{im}i"


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
