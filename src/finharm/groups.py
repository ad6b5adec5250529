"""Finite groups as dense multiplication tables, plus subgroup machinery.

Element convention: a group of order n uses element indices 0..n-1 with 0 as
the identity. All structure (inverses, conjugacy classes, cosets) is derived
from the multiplication table once at construction time and frozen.

Conjugacy classes are ordered canonically by (class size, smallest member),
which puts the identity class first. Named families use documented element
orders so that two runs of the same spec string index elements identically.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Sequence

import numpy as np

from .errors import (
    ClosureExceedsCap,
    IndexOutOfRange,
    InvalidPermutation,
    OrderTooLarge,
    ParseError,
    UnsupportedParameter,
)

# Hard cap for exhaustive subgroup enumeration; sweeps above it must name
# their subgroups explicitly.
SUBGROUP_ENUMERATION_CAP = 48

# Dense Cayley tables are the memory bound: 4096^2 int64 entries is ~134 MB.
MAX_NAMED_ORDER = 4096

# Default closure cap for perm:... specs and direct permutation builds.
DEFAULT_PERM_ORDER_CAP = 2048

# Table entries per block of rows, or per square tile, when a pass over a
# Cayley table needs an index temporary (bijectivity in _adopt, coset minima
# in Subgroup); an int64 temporary of a block is 256 KiB.
_BLOCK_ENTRIES = 1 << 15

# Deepest nesting of product: in a spec. Every tree of 13 nontrivial factors
# already exceeds MAX_NAMED_ORDER, so no group within the cap is lost.
_MAX_PRODUCT_DEPTH = 12

# Longest digit run in a spec. Every number of up to 18 digits fits an int64
# index, far beyond what any cap admits; longer runs are refused unparsed.
_MAX_SPEC_DIGITS = 18


class FiniteGroup:
    """A finite group given by its full multiplication table.

    The table is validated on construction: square, in-range, identity row
    and column at index 0, and bijective rows and columns. Associativity is
    not re-proved here; every builder in this module produces associative
    tables by construction, and the test suite checks them exhaustively with
    ``verify_group_axioms`` in ``tests/oracle_helpers.py``. The group keeps a
    read-only copy of the table it is given.
    """

    def __init__(
        self,
        mul_table: np.ndarray | Sequence[Sequence[int]],
        label: str = "",
        generators: Sequence[int] = (),
    ) -> None:
        # the caller may still write to its array, so the group keeps a copy
        self._adopt(np.array(mul_table, dtype=np.int64), label, generators)

    def _adopt(self, mul: np.ndarray, label: str, generators: Sequence[int]) -> None:
        """Validate mul, an int64 table nothing else writes to, and freeze it
        as this group's table."""
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise ValueError("multiplication table must be square")
        n = mul.shape[0]
        if n < 1:
            raise ValueError("a group has at least one element")
        if mul.min() < 0 or mul.max() >= n:
            raise ValueError("table entries must be element indices")
        ar = np.arange(n)
        if not np.array_equal(mul[0], ar) or not np.array_equal(mul[:, 0], ar):
            raise ValueError("element 0 must act as the identity")
        # with entries in range, a row or column is bijective iff it hits every
        # index. The cells hit are marked in one n^2 mask, by blocks of rows,
        # then by square tiles, whose columns write only their own rows of it
        rows, side = max(1, _BLOCK_ENTRIES // n), max(1, int(_BLOCK_ENTRIES**0.5))
        hit = np.zeros(n * n, dtype=bool)
        for i in range(0, n, rows):
            hit[ar[i:i + rows, None] * n + mul[i:i + rows]] = True  # (row, entry)
        if not hit.all():
            raise ValueError("left translations must be bijective")
        hit[:] = False
        for j in range(0, n, side):
            for i in range(0, n, side):
                hit[ar[j:j + side] * n + mul[i:i + side, j:j + side]] = True  # (column, entry)
        if not hit.all():
            raise ValueError("right translations must be bijective")

        # each row holds 0 exactly once, as its minimum; argmin before the
        # table is frozen, since numpy copies a read-only array to take it
        inv = np.argmin(mul, axis=1)
        mul.setflags(write=False)
        self._mul = mul
        if not (np.array_equal(mul[ar, inv], np.zeros(n, dtype=np.int64))
                and np.array_equal(mul[inv, ar], np.zeros(n, dtype=np.int64))):
            raise ValueError("left and right inverses disagree")
        inv.setflags(write=False)
        self._inv = inv
        self.label = str(label)
        for g in generators:
            if not 0 <= int(g) < n:
                raise IndexOutOfRange(f"generator index {g} out of range for order {n}")
        self.generators = tuple(int(g) for g in generators)

        seen = np.zeros(n, dtype=bool)
        in_orbit = np.zeros(n, dtype=bool)
        classes: list[tuple[int, ...]] = []
        for x in range(n):
            if seen[x]:
                continue
            in_orbit[mul[mul[:, x], inv]] = True  # all g*x*g^-1
            orbit = np.flatnonzero(in_orbit)
            in_orbit[orbit] = False
            seen[orbit] = True
            classes.append(tuple(orbit.tolist()))
        classes.sort(key=lambda c: (len(c), c[0]))
        self.classes = tuple(classes)
        class_of = np.empty(n, dtype=np.int64)
        for k, cls in enumerate(classes):
            class_of[list(cls)] = k
        class_of.setflags(write=False)
        self.class_of = class_of
        sizes = np.array([len(c) for c in classes], dtype=np.int64)
        sizes.setflags(write=False)
        self.class_sizes = sizes
        reps = np.array([c[0] for c in classes], dtype=np.int64)
        reps.setflags(write=False)
        self.class_reps = reps

    @property
    def order(self) -> int:
        return int(self._mul.shape[0])

    @property
    def mul_table(self) -> np.ndarray:
        return self._mul

    @property
    def inv_table(self) -> np.ndarray:
        return self._inv

    def mul(self, a: int, b: int) -> int:
        n = self.order
        if not (0 <= a < n and 0 <= b < n):
            raise IndexOutOfRange(f"element index out of range for order {n}")
        return int(self._mul[a, b])

    def inv(self, a: int) -> int:
        if not 0 <= a < self.order:
            raise IndexOutOfRange(f"element index out of range for order {self.order}")
        return int(self._inv[a])

    def __repr__(self) -> str:
        name = self.label or "unnamed"
        return f"<FiniteGroup {name!r} order {self.order}>"


def _owning(mul: np.ndarray, label: str, generators: Sequence[int] = ()) -> FiniteGroup:
    """The group of a table a builder here has just made, taken without a copy."""
    G = FiniteGroup.__new__(FiniteGroup)
    G._adopt(mul, label, generators)
    return G


class Subgroup:
    """An embedded subgroup with its left coset decomposition U\\g.

    Cosets are the sets U*x; the representative of each coset is its smallest
    element index, and `left_coset_reps` lists them in ascending order of that
    representative.
    """

    def __init__(self, parent: FiniteGroup, members: Iterable[int]) -> None:
        mem = sorted({int(m) for m in members})
        n = parent.order
        if not mem:
            raise ValueError("a subgroup is nonempty")
        if mem[0] < 0 or mem[-1] >= n:
            raise IndexOutOfRange(f"member index out of range for order {n}")
        if mem[0] != 0:
            raise ValueError("a subgroup contains the identity")
        arr = np.array(mem, dtype=np.int64)
        mask = np.zeros(n, dtype=bool)
        mask[arr] = True
        mul = parent.mul_table
        if not bool(mask[mul[np.ix_(arr, arr)]].all()):
            raise ValueError("member set is not closed under multiplication")
        if not bool(mask[parent.inv_table[arr]].all()):
            raise ValueError("member set is not closed under inversion")

        self.parent = parent
        self.members = tuple(mem)
        arr.setflags(write=False)
        self.members_array = arr
        mask.setflags(write=False)
        self.member_mask = mask

        # the smallest element of each U*x is the running minimum of column x
        # over the rows of the members, taken one block of rows at a time
        smallest = np.arange(n)  # the identity's row
        rows = max(1, _BLOCK_ENTRIES // n)
        for i in range(1, len(arr), rows):
            np.minimum(smallest, mul[arr[i:i + rows]].min(axis=0), out=smallest)
        reps, coset_of = np.unique(smallest, return_inverse=True)
        coset_of.setflags(write=False)
        self.coset_of = coset_of
        self.left_coset_reps = tuple(reps.tolist())

    @property
    def order(self) -> int:
        return len(self.members)

    @property
    def num_cosets(self) -> int:
        return len(self.left_coset_reps)

    def __repr__(self) -> str:
        return f"<Subgroup order {self.order} of {self.parent!r}>"


def _close_mask(mul: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Mask of the smallest subgroup containing the identity and mask's elements.

    Each round adds every product of two current members, so a round doubles
    the word length reached and log2 |H| + 1 rounds suffice. In a finite group
    a nonempty set closed under multiplication is a subgroup, because every
    inverse is a power.
    """
    grown = mask.copy()
    grown[0] = True
    count = np.count_nonzero(grown)
    while True:
        if 2 * count > grown.size:  # a proper subgroup has index >= 2
            grown[:] = True
            return grown
        m = grown.nonzero()[0]
        grown[mul[m[:, None], m]] = True
        new_count = np.count_nonzero(grown)
        if new_count == count:
            return grown
        count = new_count


def subgroup_closure(G: FiniteGroup, generators: Iterable[int]) -> Subgroup:
    """Smallest subgroup of G containing the generator elements."""
    mask = np.zeros(G.order, dtype=bool)
    for g in generators:
        g = int(g)
        if not 0 <= g < G.order:
            raise IndexOutOfRange(f"generator index {g} out of range for order {G.order}")
        mask[g] = True
    return Subgroup(G, np.flatnonzero(_close_mask(G.mul_table, mask)).tolist())


def _cyclic_subgroups(mul: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct cyclic subgroups <g>, as (generators, masks).

    Row k of masks is the member mask of <generators[k]>; generators[k] is the
    smallest element generating it. The powers of all elements are taken
    together, one multiplication per round, until the first round in which
    every power is the identity (the exponent of the group).
    """
    n = mul.shape[0]
    ar = np.arange(n)
    masks = np.zeros((n, n), dtype=bool)
    masks[:, 0] = True
    power = ar.copy()
    while power.any():
        masks[ar, power] = True
        power = mul[power, ar]
    _, first = np.unique(masks, axis=0, return_index=True)
    generators = np.sort(first)
    return generators, masks[generators]


def enumerate_subgroups(G: FiniteGroup) -> list[Subgroup]:
    """All subgroups of G, deduplicated, sorted by (order, member list).

    Subgroups are held as boolean member masks and found by joining cyclic
    subgroups (the cyclic-extension lattice of Neubueser, Numer. Math. 2,
    1960): starting from the trivial subgroup, every subgroup found is joined
    with every cyclic subgroup <g> it does not contain, and the join is closed
    and deduplicated on the bytes of its mask.

    Completeness: a subgroup K is the join of the cyclic subgroups <k>,
    k in K. Adding them one at a time, H_0 = 1, H_i = H_(i-1) v <k_i>, passes
    only through subgroups of K, and each step either leaves H unchanged
    (k_i already in H) or is a join the search makes from a subgroup it has
    already found. So K is found. No step asks <k_i> to normalise H, which is
    why perfect subgroups such as A5 < S5 are reached as well.
    """
    if G.order > SUBGROUP_ENUMERATION_CAP:
        raise OrderTooLarge(
            f"subgroup enumeration is capped at order {SUBGROUP_ENUMERATION_CAP}, "
            f"got {G.order}; pass explicit generators instead"
        )
    mul = G.mul_table
    generators, cyclic = _cyclic_subgroups(mul)
    trivial = np.zeros(G.order, dtype=bool)
    trivial[0] = True
    found = {trivial.tobytes(): trivial}
    queue = [trivial]
    while queue:
        base = queue.pop()
        for k in np.flatnonzero(~base[generators]):
            grown = _close_mask(mul, base | cyclic[k])
            key = grown.tobytes()
            if key not in found:
                found[key] = grown
                queue.append(grown)
    member_lists = [np.flatnonzero(mask).tolist() for mask in found.values()]
    member_lists.sort(key=lambda members: (len(members), members))
    return [Subgroup(G, members) for members in member_lists]


# ---------------------------------------------------------------------------
# permutation builders


def _validated_perm(perm: Sequence[int], degree: int) -> tuple[int, ...]:
    p = tuple(int(v) for v in perm)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise InvalidPermutation(f"{perm!r} is not a permutation of 0..{degree - 1}")
    return p


def _mul_table_from_perms(
    perms: list[tuple[int, ...]], gens: Sequence[Sequence[int]]
) -> np.ndarray:
    """Cayley table of the permutations gens generate, listed in perms.

    Composition convention everywhere in this package: (p*q)(x) = p(q(x)).
    perms[0] must be the identity. Only the products g*p of a generator and a
    listed permutation are looked up, each as one fixed-width byte key by
    binary search in the sorted keys; one that is not in the list raises
    ValueError. Breadth-first from the identity, row g*p of the table is then
    row p carried through the left action of g, and a listed permutation that
    no product of generators reaches raises ValueError.
    """
    degree = len(perms[0])
    dtype = np.min_scalar_type(degree - 1)
    arr = np.array(perms, dtype=dtype)
    n = len(perms)
    key = np.dtype((np.void, arr.itemsize * degree))
    keys = arr.view(key).ravel()
    order = np.argsort(keys)
    sorted_keys = keys[order]
    composed = np.array(gens, dtype=dtype).reshape(-1, degree)[:, arr]  # [k, j] = g_k o p_j
    composed_keys = np.ascontiguousarray(composed).view(key)[..., 0]
    pos = np.minimum(np.searchsorted(sorted_keys, composed_keys), n - 1)
    if not np.array_equal(sorted_keys[pos], composed_keys):
        raise ValueError("permutations are not closed under composition")
    left = order[pos]
    steps = left.tolist()
    mul = np.empty((n, n), dtype=np.int64)
    mul[0] = np.arange(n)
    filled = [True] + [False] * (n - 1)
    queue = [0]
    for p in queue:  # grows while iterating
        for g, step in enumerate(steps):
            x = step[p]
            if not filled[x]:
                filled[x] = True
                mul[x] = left[g, mul[p]]
                queue.append(x)
    if len(queue) < n:
        raise ValueError("generators do not reach every permutation")
    return mul


def build_from_permutations(
    degree: int,
    generators: Sequence[Sequence[int]],
    order_cap: int = DEFAULT_PERM_ORDER_CAP,
    *,
    label: str | None = None,
) -> FiniteGroup:
    """Close a set of permutations of {0..degree-1} under composition.

    Elements are indexed in breadth-first discovery order from the identity,
    multiplying by generators on the right; index 0 is the identity.
    """
    if degree < 1:
        raise UnsupportedParameter("degree must be at least 1")
    if order_cap < 1:
        raise ValueError("order_cap must be at least 1")
    gens = [_validated_perm(g, degree) for g in generators]
    identity = tuple(range(degree))
    index: dict[tuple[int, ...], int] = {identity: 0}
    elems: list[tuple[int, ...]] = [identity]
    head = 0
    while head < len(elems):
        base = elems[head]
        head += 1
        for g in gens:
            new = tuple(base[g[i]] for i in range(degree))
            if new not in index:
                if len(elems) >= order_cap:
                    raise ClosureExceedsCap(
                        f"closure exceeds order_cap={order_cap}"
                    )
                index[new] = len(elems)
                elems.append(new)
    mul = _mul_table_from_perms(elems, gens)
    gen_indices = tuple(dict.fromkeys(index[g] for g in gens))
    return _owning(mul, label or f"perm:{degree}", gen_indices)


# ---------------------------------------------------------------------------
# named families


def _check_named_order(order: int, what: str) -> None:
    if order > MAX_NAMED_ORDER:
        raise OrderTooLarge(f"{what} has order {order}, cap is {MAX_NAMED_ORDER}")


def _cyclic(n: int) -> FiniteGroup:
    if n < 1:
        raise UnsupportedParameter("cyclic:n needs n >= 1")
    _check_named_order(n, f"cyclic:{n}")
    idx = np.arange(n, dtype=np.int64)
    mul = idx[:, None] + idx[None, :]
    mul %= n  # in place: the table is the only n x n allocation
    gens = (1,) if n > 1 else ()
    return _owning(mul, f"cyclic:{n}", gens)


def _dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 are rotations r^a, and
    n..2n-1 are reflections s*r^a."""
    if n < 1:
        raise UnsupportedParameter("dihedral:n needs n >= 1")
    _check_named_order(2 * n, f"dihedral:{n}")
    a = np.arange(n, dtype=np.int64)
    # each quadrant is filled in place, so the table is the only large array
    mul = np.empty((2 * n, 2 * n), dtype=np.int64)
    rr, diff = mul[:n, :n], mul[n:, n:]
    np.add(a[:, None], a[None, :], out=rr)
    rr %= n                                     # r^a * r^b = r^(a+b)
    np.subtract(a[None, :], a[:, None], out=diff)
    diff %= n                                   # (s r^a)(s r^b) = r^(b-a)
    np.add(diff, n, out=mul[:n, n:])            # r^a * (s r^b) = s r^(b-a)
    np.add(rr, n, out=mul[n:, :n])              # (s r^a) * r^b = s r^(a+b)
    gens = (1, n) if n > 1 else (1,)
    return _owning(mul, f"dihedral:{n}", gens)


def _quaternion() -> FiniteGroup:
    """Quaternion group on {1, -1, i, -i, j, -j, k, -k} in that element order."""
    # basis products: (unit index, sign), units 0=1, 1=i, 2=j, 3=k
    base: dict[tuple[int, int], tuple[int, int]] = {}
    for t in range(4):
        base[(0, t)] = (t, 0)
        base[(t, 0)] = (t, 0)
    for t in (1, 2, 3):
        base[(t, t)] = (0, 1)
    base[(1, 2)] = (3, 0)
    base[(2, 3)] = (1, 0)
    base[(3, 1)] = (2, 0)
    base[(2, 1)] = (3, 1)
    base[(3, 2)] = (1, 1)
    base[(1, 3)] = (2, 1)
    mul = np.empty((8, 8), dtype=np.int64)
    for t1 in range(4):
        for s1 in range(2):
            for t2 in range(4):
                for s2 in range(2):
                    t3, flip = base[(t1, t2)]
                    s3 = (s1 + s2 + flip) % 2
                    mul[2 * t1 + s1, 2 * t2 + s2] = 2 * t3 + s3
    return _owning(mul, "quaternion", (2, 4))


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


def _heisenberg(p: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over integers mod p, order p^3.

    Element (a, b, c) (top row a, c; middle b) has index a*p^2 + b*p + c, so
    the center {(0,0,c)} occupies indices 0..p-1 and the generators
    x=(1,0,0), y=(0,1,0) sit at p^2 and p.
    """
    _check_named_order(p**3, f"heisenberg:{p}")
    if not _is_prime(p):
        raise UnsupportedParameter(f"heisenberg:p needs a prime p, got {p}")
    n = p**3
    # (a1, b1, c1)(a2, b2, c2) = (a1 + a2, b1 + b2, c1 + c2 + a1*b2); the
    # table is filled one index component at a time through a 6-axis view
    # [a1, b1, c1, a2, b2, c2], so no n x n temporary is built
    r = np.arange(p, dtype=np.int64)
    add = (r[:, None] + r[None, :]) % p
    mul = np.empty((n, n), dtype=np.int64)
    view = mul.reshape(p, p, p, p, p, p)
    view[...] = (add * (p * p))[:, None, None, :, None, None]
    view += (add * p)[None, :, None, None, :, None]
    # [a1, c1, b2, c2] -> c1 + c2 + a1*b2 mod p, p^4 entries
    top = (r[None, :, None, None] + r[None, None, None, :]
           + r[:, None, None, None] * r[None, None, :, None]) % p
    view += top[:, None, :, None, :, :]
    return _owning(mul, f"heisenberg:{p}", (p * p, p))


def _product(A: FiniteGroup, B: FiniteGroup) -> FiniteGroup:
    """Direct product; element (a, b) has index a*|B| + b."""
    _check_named_order(A.order * B.order, f"product of {A.label} and {B.label}")
    na, nb = A.order, B.order
    # filled in place through a 4-axis view [a1, b1, a2, b2]: the table is the
    # only large array
    mul = np.empty((na * nb, na * nb), dtype=np.int64)
    view = mul.reshape(na, nb, na, nb)
    np.multiply(A.mul_table[:, None, :, None], nb, out=view)
    view += B.mul_table[None, :, None, :]
    gens = tuple(g * nb for g in A.generators) + tuple(B.generators)
    return _owning(mul, f"product:{A.label}*{B.label}", gens)


def _symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n points, elements in lexicographic one-line order."""
    if n < 1:
        raise UnsupportedParameter("symmetric:n needs n >= 1")
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > MAX_NAMED_ORDER:
            raise OrderTooLarge(f"symmetric:{n} has order {n}!, cap is {MAX_NAMED_ORDER}")
    perms = [tuple(p) for p in itertools.permutations(range(n))]
    # the transposition (0 1) and the n-cycle
    gen_perms = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)] if n >= 2 else []
    mul = _mul_table_from_perms(perms, gen_perms)
    gens = tuple(dict.fromkeys(perms.index(g) for g in gen_perms))
    return _owning(mul, f"symmetric:{n}", gens)


# ---------------------------------------------------------------------------
# group-spec DSL
#
# spec   := family | "product:" spec "*" spec | "perm:" degree ":" cycles
# family := "cyclic:" n | "dihedral:" n | "symmetric:" n
#         | "quaternion" | "heisenberg:" p
# cycles := cycle (";" cycle)*        each cycle is one generator
# cycle  := "(" int (" " int)* ")"


class _SpecParser:
    __slots__ = ("text", "pos", "depth")

    def __init__(self, text: str) -> None:
        self.text = text
        self.pos = 0
        self.depth = 0

    def fail(self, message: str) -> None:
        raise ParseError(message, self.pos)

    def literal(self, token: str) -> bool:
        if self.text.startswith(token, self.pos):
            self.pos += len(token)
            return True
        return False

    def expect(self, token: str) -> None:
        if not self.literal(token):
            self.fail(f"expected {token!r}")

    def integer(self) -> int:
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in "0123456789":
            self.pos += 1
        if self.pos == start:
            self.fail("expected an integer")
        if self.pos - start > _MAX_SPEC_DIGITS:
            raise ParseError(f"integer longer than {_MAX_SPEC_DIGITS} digits", start)
        return int(self.text[start:self.pos])

    def group(self) -> FiniteGroup:
        if self.literal("product:"):
            self.depth += 1
            if self.depth > _MAX_PRODUCT_DEPTH:
                self.fail(f"product: nested deeper than {_MAX_PRODUCT_DEPTH} levels")
            a = self.group()
            self.expect("*")
            b = self.group()
            self.depth -= 1
            return _product(a, b)
        if self.literal("perm:"):
            degree = self.integer()
            self.expect(":")
            return _perm_spec_group(degree, self.cycles())
        if self.literal("cyclic:"):
            return _cyclic(self.integer())
        if self.literal("dihedral:"):
            return _dihedral(self.integer())
        if self.literal("symmetric:"):
            return _symmetric(self.integer())
        if self.literal("quaternion"):
            return _quaternion()
        if self.literal("heisenberg:"):
            return _heisenberg(self.integer())
        self.fail(
            "expected one of cyclic:, dihedral:, symmetric:, quaternion, "
            "heisenberg:, product:, perm:"
        )
        raise AssertionError("unreachable")

    def cycles(self) -> list[tuple[int, ...]]:
        out = [self.cycle()]
        while self.literal(";"):
            out.append(self.cycle())
        return out

    def cycle(self) -> tuple[int, ...]:
        self.expect("(")
        points = [self.integer()]
        while self.literal(" "):
            points.append(self.integer())
        self.expect(")")
        return tuple(points)


def _perm_spec_group(degree: int, cycles: list[tuple[int, ...]]) -> FiniteGroup:
    """The closure of the cycles of a perm: spec, built on the points they name.

    Every other point of 0..degree-1 is fixed by every generator, so leaving
    it out changes neither the breadth-first discovery order nor the Cayley
    table. The cost is bounded by the spec's text, whatever its degree.
    """
    if degree < 1:
        raise UnsupportedParameter("degree must be at least 1")
    for points in cycles:
        if len(set(points)) != len(points):
            raise InvalidPermutation(f"cycle {points!r} repeats a point")
        for v in points:
            if not 0 <= v < degree:
                raise InvalidPermutation(f"cycle point {v} outside 0..{degree - 1}")
    local = {v: i for i, v in enumerate(sorted({v for c in cycles for v in c}))}
    gens = []
    for points in cycles:
        perm = list(range(len(local)))
        for a, b in zip(points, points[1:] + points[:1]):
            perm[local[a]] = local[b]
        gens.append(perm)
    body = ";".join("(" + " ".join(str(v) for v in c) + ")" for c in cycles)
    return build_from_permutations(len(local), gens, label=f"perm:{degree}:{body}")


def make_named_group(spec: str) -> FiniteGroup:
    """Build a group from a spec string, e.g. "symmetric:4" or
    "product:cyclic:2*cyclic:4" or "perm:3:(0 1);(0 1 2)"."""
    if not isinstance(spec, str) or not spec:
        raise ParseError("empty group spec", 0)
    parser = _SpecParser(spec)
    G = parser.group()
    if parser.pos != len(spec):
        parser.fail("unexpected trailing text")
    return G
