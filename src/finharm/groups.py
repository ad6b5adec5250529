"""Finite groups as dense multiplication tables, plus subgroup machinery.

Element convention: a group of order n uses element indices 0..n-1 with 0 as
the identity. All structure (inverses, conjugacy classes, cosets) is derived
from the multiplication table once at construction time and frozen.

Conjugacy classes are ordered canonically by (class size, smallest member),
which puts the identity class first. Named families use documented element
orders so that two runs of the same spec string index elements identically.
"""

from __future__ import annotations

import math
import operator
from typing import Any, Iterable, Iterator, Sequence

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

# Dense Cayley tables are the memory bound: 4096^2 int16 entries is 32 MiB.
MAX_NAMED_ORDER = 4096

# Default closure cap for perm:... specs and direct permutation builds.
DEFAULT_PERM_ORDER_CAP = 2048

# Values per block of rows of length |G| in every pass that takes rows a
# block at a time (row_blocks): the Cayley table checks and coset minima
# here, test functions, Theta in the inversion, and the probe plan's grid.
# A float64 or intp temporary of a block is 512 KiB.
_BLOCK_ELEMENTS = 1 << 16

# Deepest nesting of product: in a spec. Every tree of 13 nontrivial factors
# already exceeds MAX_NAMED_ORDER, so no group within the cap is lost.
_MAX_PRODUCT_DEPTH = 12

# Longest digit run in a spec. Every number of up to 18 digits fits an int64
# index, far beyond what any cap admits; longer runs are refused unparsed.
_MAX_SPEC_DIGITS = 18


def row_blocks(num_rows: int, n: int) -> Iterator[slice]:
    """Consecutive row slices of about _BLOCK_ELEMENTS entries of length n."""
    step = max(1, _BLOCK_ELEMENTS // n)
    return (slice(start, start + step) for start in range(0, num_rows, step))


def _index(name: str, value: Any, order: int | None = None) -> int:
    """value as an int by operator.index, the package's one integer rule:
    ValueError for 1.5, 2.0 or "1"; given an order, IndexOutOfRange unless
    value is an element index."""
    try:
        value = operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if order is not None and not 0 <= value < order:
        raise IndexOutOfRange(f"{name} {value} out of range for order {order}")
    return value


def _index_dtype(n: int) -> np.dtype:
    """Entry type of a Cayley table of order n: int16 while every index
    0..n-1 fits in it, int32 above."""
    return np.dtype(np.int16 if n <= 1 << 15 else np.int32)


class FiniteGroup:
    """A finite group given by its full multiplication table.

    The table is validated on construction: square, in-range, identity row
    and column at index 0, and bijective rows and columns. Associativity is
    not re-proved here; every builder in this module produces associative
    tables by construction, and the test suite checks them exhaustively with
    ``verify_group_axioms`` in ``tests/oracle_helpers.py``. The group keeps a
    read-only copy of the table it is given.

    Elements are read through the read-only arrays ``mul_table``, of
    ``_index_dtype(order)`` (int16 up to order 2^15), and ``inv_table``, of
    int64. The conjugacy classes are held once, as three read-only
    int64 arrays in the canonical class order: ``class_of[x]`` is the class
    of element x, ``class_sizes[k]`` the size of class k and
    ``class_reps[k]`` its smallest member. A table of any integer type is
    checked in that type, then narrowed (never widened); any other is refused.
    """

    def __init__(
        self,
        mul_table: np.ndarray | Sequence[Sequence[int]],
        label: str = "",
        generators: Sequence[int] = (),
    ) -> None:
        # the caller may still write to its array, so the group keeps a copy
        self._adopt(np.array(mul_table), label, generators)

    def _adopt(self, mul: np.ndarray, label: str, generators: Sequence[int]) -> None:
        """Validate mul, a table nothing else writes to, and freeze it as this
        group's table, narrowed to _index_dtype once its entries are known to
        be indices (a table of that type is kept uncopied)."""
        if mul.ndim != 2 or mul.shape[0] != mul.shape[1]:
            raise ValueError("multiplication table must be square")
        n = mul.shape[0]
        if n < 1:
            raise ValueError("a group has at least one element")
        if mul.dtype.kind not in "iu" or mul.min() < 0 or mul.max() >= n:
            raise ValueError("table entries must be element indices")
        mul = mul.astype(_index_dtype(n), copy=False)
        ar = np.arange(n)
        if not np.array_equal(mul[0], ar) or not np.array_equal(mul[:, 0], ar):
            raise ValueError("element 0 must act as the identity")
        # with entries in range, a row or column is bijective iff it hits every
        # index; the cells a block of rows, then of columns, hits are marked
        # in a mask of that block by one flat-index scatter
        for side, lines in (("left", mul), ("right", mul.T)):
            for rows in row_blocks(n, n):
                block = lines[rows]
                hit = np.zeros(block.size, dtype=bool)
                hit[ar[:len(block), None] * n + block] = True  # (line, entry)
                if not hit.all():
                    raise ValueError(f"{side} translations must be bijective")

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
        self.generators = tuple(_index("generator index", g, n) for g in generators)

        # one orbit g*x*g^-1 per element x not yet placed, numbered as found;
        # x is the smallest member of its orbit, since every smaller element
        # was placed with its whole orbit before it. An orbit is one gather
        # from the flat table at (g*x)*n + g^-1 by intp indices, which spares
        # numpy's slower implicit cast of each gathered int16 index array
        class_of = np.full(n, -1, dtype=np.int64)
        smallest: list[int] = []
        flat = mul.reshape(-1)
        at = np.empty(n, dtype=np.intp)
        for x in range(n):
            if class_of[x] < 0:
                np.multiply(mul[:, x], n, out=at, dtype=np.intp)
                at += inv
                class_of[flat[at].astype(np.intp)] = len(smallest)
                smallest.append(x)
        reps = np.array(smallest, dtype=np.int64)
        sizes = np.bincount(class_of)
        # canonical order: by size, then by smallest member
        order = np.lexsort((reps, sizes))
        self.class_of = np.argsort(order)[class_of]  # the inverse permutation
        self.class_sizes = sizes[order]
        self.class_reps = reps[order]
        for a in (self.class_of, self.class_sizes, self.class_reps):
            a.setflags(write=False)

    @property
    def order(self) -> int:
        return int(self._mul.shape[0])

    @property
    def mul_table(self) -> np.ndarray:
        return self._mul

    @property
    def inv_table(self) -> np.ndarray:
        return self._inv

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

    `members` is the ascending tuple of member indices and `members_array`
    the same as a read-only int64 array. Cosets are the sets U*x; the
    representative of each coset is its smallest element index.
    `left_coset_reps` is the read-only int64 array of the representatives in
    ascending order, and `coset_of[x]` the read-only int64 position of the
    coset of x in it.
    """

    def __init__(self, parent: FiniteGroup, members: Iterable[int]) -> None:
        n = parent.order
        mem = sorted({_index("member index", m, n) for m in members})
        if not mem:
            raise ValueError("a subgroup is nonempty")
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

        # the smallest element of each U*x is the running minimum of column x
        # over the rows of the members, taken one block of rows at a time
        smallest = np.arange(n)  # the identity's row
        for rows in row_blocks(len(arr), n):
            np.minimum(smallest, mul[arr[rows]].min(axis=0), out=smallest)
        reps, coset_of = np.unique(smallest, return_inverse=True)
        for a in (reps, coset_of):
            a.setflags(write=False)
        self.coset_of = coset_of
        self.left_coset_reps = reps

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
    mask[[_index("generator index", g, G.order) for g in generators]] = True
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
    # every closure round indexes with gathered entries: an intp copy of the
    # table (at most 48^2 entries) spares a cast on each
    mul = G.mul_table.astype(np.intp)
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
    p = tuple(_index("permutation entry", v) for v in perm)
    if len(p) != degree or sorted(p) != list(range(degree)):
        raise InvalidPermutation(f"{perm!r} is not a permutation of 0..{degree - 1}")
    return p


def _perm_closure(
    degree: int, gens: Sequence[Sequence[int]], order_cap: int
) -> tuple[np.ndarray, np.ndarray, tuple[int, ...]]:
    """(perms, mul, gen_indices): the permutations of {0..degree-1} that gens
    generate, their Cayley table, and the generators' indices.

    Composition convention everywhere in this package: (p*q)(x) = p(q(x)).
    Elements are numbered breadth-first from the identity, multiplying by
    generators on the right: each level, as rows of the smallest unsigned
    type, is composed with every generator in one gather, and each product is
    looked up by its bytes in one dict of the permutations found, in order;
    ClosureExceedsCap at the first product beyond order_cap. The dict gives
    left[j, y], the index of g_j*y, and row p*g_j is row p carried through
    it, (p*g_j)*y = p*(g_j*y): a gather per level, generator and row block.
    Rows go by generator to share left[j]: one take_along_axis over left[via]
    per block measured a third slower on an order-1728, 5-generator closure.
    """
    dtype = np.min_scalar_type(degree - 1)
    gen_rows = np.array(gens, dtype=dtype).reshape(-1, degree)
    k = len(gen_rows)
    key = np.dtype((np.void, gen_rows.itemsize * degree))
    level = np.arange(degree, dtype=dtype)[None, :]
    index = {level.tobytes(): 0}
    levels = []  # the positions of each level's new products
    while len(level):
        products = level[:, gen_rows].reshape(-1, degree)  # [b * k + j] = base_b o g_j
        fresh = []
        for row, found in enumerate(products.view(key)[:, 0].tolist()):
            if found not in index:
                if len(index) >= order_cap:
                    raise ClosureExceedsCap(f"closure exceeds order_cap={order_cap}")
                index[found] = len(index)
                fresh.append(row)
        levels.append(np.array(fresh, dtype=np.intp))
        level = products[fresh]

    n = len(index)
    perms = np.frombuffer(b"".join(index), dtype).reshape(n, degree)
    composed = np.ascontiguousarray(gen_rows[:, perms]).reshape(-1, degree)  # g_j o perm_y
    left = np.array([index[c] for c in composed.view(key)[:, 0].tolist()], np.intp).reshape(k, n)
    mul = np.empty((n, n), dtype=_index_dtype(n))
    mul[0] = np.arange(n)
    start, first = 0, 1  # the first index of a level and of the next one
    for fresh in levels:
        parents, via = np.divmod(fresh, k)
        for j in range(k):
            at = np.flatnonzero(via == j)
            for rows in row_blocks(len(at), n):
                mul[first + at[rows]] = np.take(mul[start + parents[at[rows]]], left[j], axis=1)
        start, first = first, first + len(fresh)
    return perms, mul, tuple(dict.fromkeys(index[g.tobytes()] for g in gen_rows))


def build_from_permutations(
    degree: int,
    generators: Sequence[Sequence[int]],
    order_cap: int = DEFAULT_PERM_ORDER_CAP,
    *,
    label: str | None = None,
) -> FiniteGroup:
    """Close a set of permutations of {0..degree-1} under composition, in
    _perm_closure's breadth-first order (index 0 is the identity) and with
    its table; ClosureExceedsCap beyond order_cap elements."""
    if (degree := _index("degree", degree)) < 1:
        raise UnsupportedParameter("degree must be at least 1")
    if (order_cap := _index("order_cap", order_cap)) < 1:
        raise ValueError("order_cap must be at least 1")
    gens = [_validated_perm(g, degree) for g in generators]
    _, mul, gen_indices = _perm_closure(degree, gens, order_cap)
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
    idx = np.arange(n, dtype=_index_dtype(n))
    # i + j - n lies in -n..n-2, so it cannot wrap in the table's type
    mul = idx[:, None] - (n - idx)[None, :]
    mul %= n  # in place: the table is the only n x n allocation
    gens = (1,) if n > 1 else ()
    return _owning(mul, f"cyclic:{n}", gens)


def _dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n: indices 0..n-1 are rotations r^a, and
    n..2n-1 are reflections s*r^a."""
    if n < 1:
        raise UnsupportedParameter("dihedral:n needs n >= 1")
    _check_named_order(2 * n, f"dihedral:{n}")
    a = np.arange(n, dtype=_index_dtype(2 * n))
    # each quadrant is filled in place, so the table is the only large array;
    # a + b - n and b - a lie in -n..n-1, so neither wraps in the table's type
    mul = np.empty((2 * n, 2 * n), dtype=a.dtype)
    rr, diff = mul[:n, :n], mul[n:, n:]
    np.subtract(a[:, None], (n - a)[None, :], out=rr)
    rr %= n                                     # r^a * r^b = r^(a+b)
    np.subtract(a[None, :], a[:, None], out=diff)
    diff %= n                                   # (s r^a)(s r^b) = r^(b-a)
    np.add(diff, n, out=mul[:n, n:])            # r^a * (s r^b) = s r^(b-a)
    np.add(rr, n, out=mul[n:, :n])              # (s r^a) * r^b = s r^(a+b)
    gens = (1, n) if n > 1 else (1,)
    return _owning(mul, f"dihedral:{n}", gens)


def _quaternion() -> FiniteGroup:
    """Quaternion group on {1, -1, i, -i, j, -j, k, -k} in that element order:
    element 2t + s is (-1)^s times unit t of (1, i, j, k). By Hamilton's rule
    the product of units t1 and t2 is unit t1 ^ t2, negated where
    sign[t1, t2] is 1 (i^2 = j^2 = k^2 = -1, ij = k, ji = -k, ...)."""
    sign = np.array([[0, 0, 0, 0], [0, 1, 0, 1], [0, 1, 1, 0], [0, 0, 1, 1]], dtype=np.int64)
    t, s = np.divmod(np.arange(8, dtype=np.int64), 2)
    mul = 2 * (t[:, None] ^ t) + (s[:, None] ^ s ^ sign[t[:, None], t])
    return _owning(mul.astype(_index_dtype(8)), "quaternion", (2, 4))


def _is_prime(p: int) -> bool:
    return p >= 2 and all(p % d for d in range(2, math.isqrt(p) + 1))


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
    # [a1, b1, c1, a2, b2, c2], so no n x n temporary is built. No value
    # reaches n, so none wraps in the table's type: c1 + c2 + a1*b2 < p^2
    r = np.arange(p, dtype=_index_dtype(n))
    add = (r[:, None] + r[None, :]) % p
    mul = np.empty((n, n), dtype=r.dtype)
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
    mul = np.empty((na * nb, na * nb), dtype=_index_dtype(na * nb))
    view = mul.reshape(na, nb, na, nb)
    np.multiply(A.mul_table[:, None, :, None], nb, out=view, dtype=mul.dtype)
    view += B.mul_table[None, :, None, :]
    gens = tuple(g * nb for g in A.generators) + tuple(B.generators)
    return _owning(mul, f"product:{A.label}*{B.label}", gens)


def _symmetric(n: int) -> FiniteGroup:
    """Symmetric group on n points, elements in lexicographic one-line order:
    the closure of (0 1) and the n-cycle, renumbered by one argsort of its
    uint8 one-line rows as byte keys, which compare as the rows do."""
    if n < 1:
        raise UnsupportedParameter("symmetric:n needs n >= 1")
    order = 1
    for k in range(2, n + 1):
        order *= k
        if order > MAX_NAMED_ORDER:
            raise OrderTooLarge(f"symmetric:{n} has order {n}!, cap is {MAX_NAMED_ORDER}")
    gen_perms = [(1, 0) + tuple(range(2, n)), tuple(range(1, n)) + (0,)] if n >= 2 else []
    perms, mul, gens = _perm_closure(n, gen_perms, order)
    lex = np.argsort(perms.view(np.dtype((np.void, n)))[:, 0])
    rank = np.argsort(lex).astype(mul.dtype)  # the inverse permutation
    mul = mul[lex]  # the closure's table is released here
    for rows in row_blocks(order, order):
        mul[rows] = np.take(rank, np.take(mul[rows], lex, axis=1))
    return _owning(mul, f"symmetric:{n}", rank[list(gens)].tolist())


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
