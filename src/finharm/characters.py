"""Irreducible characters, Plancherel weights, and subgroup linear characters.

The character table is computed by the class-sum method: the structure
constant matrices (A_i)_{jk} = a_ijk of the class algebra commute and share
the eigenvectors omega^chi_k = |C_k| chi(g_k) / deg(chi). A seeded random
real combination M = sum c_i A_i generically has r distinct eigenvalues, so a
single eigendecomposition recovers every irreducible character at once.

Conditioning trick: with D = diag(class sizes), the rescaled matrix
B = D^(-1/2) M D^(1/2) has the mutually orthogonal eigenvectors
D^(-1/2) omega^chi (orthogonality is exactly row orthogonality of the
table), hence B is normal and its complex Schur form is diagonal. That keeps
the eigenvector recovery perfectly conditioned where a plain eig() on M can
lose digits.
"""

from __future__ import annotations

import cmath
import importlib.machinery
import importlib.util
import math
import os
import sys
from dataclasses import dataclass, field
from functools import cached_property
from typing import Iterable, Sequence

import numpy as np

from ._rng import derive_stream_seed, unit_uniforms
from .errors import (
    EigensplitFailure,
    OrderTooLarge,
    ToleranceViolation,
)
from .formatting import fmt_complex_rows
from .groups import FiniteGroup, Subgroup, _close_mask, _index

_RETRY_BUDGET = 16

# Most conjugacy classes a table is computed for. The Schur eigensplit takes
# O(r^3) time on r x r complex matrices: about 2 s and 150 MB at r = 512.
_MAX_CLASSES = 512

# Bytes of one slab of the class-algebra tensor (see _ClassAlgebra), so that
# it stays in a 2 MiB L2 cache while it is contracted. A budget of its own,
# not groups.row_blocks: slab heights are rounded to the multiple of 8
# outputs that keeps the contraction's bits those of the whole tensor.
_SLAB_BYTES = 1 << 20


def _load_zgees():
    """LAPACK zgees from scipy's compiled _flapack extension: from the module
    when it is imported, else from its file, so that scipy/linalg/__init__.py
    and the f2py and testing modules it imports never run; else from
    scipy.linalg.lapack, the same function object."""
    name = "scipy.linalg._flapack"
    if name in sys.modules:
        return sys.modules[name].zgees
    spec = importlib.util.find_spec("scipy")
    for root in (spec.submodule_search_locations or ()) if spec else ():
        for suffix in importlib.machinery.EXTENSION_SUFFIXES:
            path = os.path.join(root, "linalg", "_flapack" + suffix)
            if os.path.isfile(path):
                loader = importlib.machinery.ExtensionFileLoader(name, path)
                module_spec = importlib.util.spec_from_loader(name, loader)
                zgees = importlib.util.module_from_spec(module_spec).zgees
                # loading may register the module without its parent package; a
                # later import of scipy.linalg must bind it as its attribute
                sys.modules.pop(name, None)
                return zgees
    from scipy.linalg.lapack import zgees

    return zgees


# resolved at import, so that no operation pays for loading it
_ZGEES = _load_zgees()


def _schur(B: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
    """Complex Schur form (T, Z) of the square complex B, the same bits as
    scipy.linalg.schur(B, output="complex"): a workspace query, then zgees
    unsorted at the optimal workspace. A Fortran-ordered B is overwritten.
    None when B is not finite or zgees reports failure."""
    if not np.isfinite(B).all():
        return None
    lwork = int(_ZGEES(lambda z: None, B, lwork=-1)[-2][0].real)
    T, _, _, Z, _, info = _ZGEES(lambda z: None, B, lwork=lwork, overwrite_a=1, sort_t=0)
    return (T, Z) if info == 0 else None


@dataclass(eq=False)
class CharacterTable:
    """All irreducible characters of a group, as values on conjugacy classes.

    Built from the group, the values (one row per irrep, one column per
    class) and the degrees. Rows are sorted by degree, then by the values,
    descending (see _descending_row_order), which places the trivial
    character first. Derived on construction:
    num_irreps = len(degrees) and the read-only plancherel_weights[pi] =
    degrees[pi] / |G|; on first use, the read-only element_values.
    orthogonality is the check character_table accepted the table on.
    """

    group: FiniteGroup
    num_irreps: int = field(init=False)
    values: np.ndarray
    degrees: tuple[int, ...]
    plancherel_weights: np.ndarray = field(init=False)
    orthogonality: OrthogonalityReport | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        self.degrees = tuple(_index("degree", d) for d in self.degrees)
        self.num_irreps = len(self.degrees)
        vals = np.asarray(self.values, dtype=np.complex128).copy()
        if vals.shape != (self.num_irreps, len(self.group.class_reps)):
            raise ValueError("character value matrix has the wrong shape")
        vals.setflags(write=False)
        self.values = vals
        weights = np.array(self.degrees, dtype=np.float64) / self.group.order
        weights.setflags(write=False)
        self.plancherel_weights = weights

    @cached_property
    def element_values(self) -> np.ndarray:
        """element_values[pi, x] = values[pi, class_of[x]], read-only: the
        characters on the elements, num_irreps x |G| values."""
        ev = np.take(self.values, self.group.class_of, axis=1)
        ev.setflags(write=False)
        return ev

    @cached_property
    def value_strings(self) -> tuple[tuple[str, ...], ...]:
        """fmt_complex_rows of the table values, formatted once and shared
        by the CSV form and the report's rows block."""
        return fmt_complex_rows(self.values)

    def to_csv(self) -> str:
        return "\n".join(table_csv_lines(self.degrees, self.value_strings)) + "\n"


def table_csv_lines(degrees: Iterable[int], rows: Sequence[Sequence[str]]) -> list[str]:
    """The CSV lines of a character table: a header naming each class, then
    each irrep's degree and formatted values."""
    lines = ["degree," + ",".join(f"class{k}" for k in range(len(rows[0])))]
    lines.extend(f"{degree}," + ",".join(row) for degree, row in zip(degrees, rows))
    return lines


@dataclass(frozen=True)
class OrthogonalityReport:
    max_row_deviation: float
    max_column_deviation: float
    passed: bool

    @property
    def max_deviation(self) -> float:
        return max(self.max_row_deviation, self.max_column_deviation)


def verify_orthogonality(table: CharacterTable, tol: float = 1e-9) -> OrthogonalityReport:
    """Max deviation over all row-pair and column-pair orthogonality relations."""
    if not tol > 0:  # so that a NaN is refused
        raise ValueError("tol must be positive")
    V = table.values
    sizes = table.group.class_sizes.astype(np.float64)
    n = float(table.group.order)
    r = table.num_irreps
    row_gram = (V * sizes[None, :]) @ V.conj().T / n
    row_dev = float(np.max(np.abs(row_gram - np.eye(r))))
    col_gram = V.T @ V.conj()
    col_dev = float(np.max(np.abs(col_gram - np.diag(n / sizes))))
    return OrthogonalityReport(
        max_row_deviation=row_dev,
        max_column_deviation=col_dev,
        passed=bool(max(row_dev, col_dev) <= tol),
    )


class _ClassAlgebra:
    """Random combinations M = sum_i c_i A_i of the class-algebra matrices.

    (A_i)[j, k] = a[i, j, k] = #{x in C_i : x^-1 z_k in C_j} for the class rep
    z_k: the number of ways z_k factors as (element of C_i) times (element of
    C_j). The r^3 tensor a is never held whole. It is filled and contracted
    in slabs of output rows a[:, j0:j1, :] of about _SLAB_BYTES each, and of
    at least 8 // gcd(r, 8) rows. The constructor computes, once, where each
    of the n * r counted (x, k) falls in the slabs laid end to end, as int32
    offsets, and sorts them: each slab's entries are then one contiguous run.
    Each call to combination allocates one slab buffer, fills each slab by
    adding 1 at its run, resets it through the same run, and drops the
    buffer on return.

    Each slab is contracted by np.tensordot, a BLAS dgemv over the flattened
    (r, (j1 - j0) * r) slab, as the whole (r, r^2) tensor would be. Slab
    heights are multiples of 8 // gcd(r, 8), so every slab starts at a flat
    output offset that is a multiple of 8. With one BLAS thread, M is then
    the same bits as the contraction of the whole tensor, whatever the slab
    budget. This relies on how OpenBLAS's dgemv handles vector tails: it sums
    the outputs in blocks of 4 and the last m % 4 outputs with other
    arithmetic, so a slab that starts off a block boundary differs in the
    last bits; 8 leaves room for kernels with wider blocks. Other BLAS
    builds, and a contraction split across threads, need not match.
    """

    def __init__(self, G: FiniteGroup) -> None:
        r = len(G.class_reps)
        step = 8 // math.gcd(r, 8)
        self.height = h = min(r, max(step, _SLAB_BYTES // (8 * r * r) // step * step))
        # output row j lies in the slab of rows j0 = j // h * h to
        # j1 = min(j0 + h, r), which starts at j0 * r^2 and holds a[i, j, k]
        # at (i * (j1 - j0) + j - j0) * r + k from there; every offset is
        # below r^3 <= 2^27
        j = np.arange(r, dtype=np.int32)
        j0 = j // h * h
        stride = (np.minimum(j0 + h, r) - j0) * r
        origin = j0 * r * r + (j - j0) * r
        # with y = x^-1: a[i, j, k] counts the y with y^-1 in C_i and y z_k in C_j
        z = G.mul_table[:, G.class_reps]
        offsets = stride[G.class_of][z]
        offsets *= G.class_of[G.inv_table].astype(np.int32)[:, None]
        offsets += origin[G.class_of][z]
        offsets += np.arange(r, dtype=np.int32)
        offsets = offsets.ravel()
        offsets.sort()
        starts = range(0, r, h)
        self.bounds = np.searchsorted(offsets, np.array([*starts, r], np.int32) * r * r).tolist()
        for s, start in enumerate(starts):  # each run's offsets within its own slab
            offsets[self.bounds[s] : self.bounds[s + 1]] -= start * r * r
        self.offsets = offsets

    def combination(self, coeffs: np.ndarray) -> np.ndarray:
        r = len(coeffs)
        M = np.empty((r, r))
        buffer = np.zeros(r * self.height * r)
        for s, j0 in enumerate(range(0, r, self.height)):
            j1 = min(j0 + self.height, r)
            flat = self.offsets[self.bounds[s] : self.bounds[s + 1]]
            slab = buffer[: r * (j1 - j0) * r]
            np.add.at(slab, flat, 1.0)
            M[j0:j1] = np.tensordot(coeffs, slab.reshape(r, j1 - j0, r), axes=(0, 0))
            slab[flat] = 0.0
        return M


def character_table(G: FiniteGroup, seed: int = 0, tol: float = 1e-9) -> CharacterTable:
    """Compute every irreducible character of G.

    Deterministic for fixed (G, seed). Retries with fresh random coefficients
    up to 16 times if the eigenvalues fail to separate; raises
    EigensplitFailure when the budget runs out and ToleranceViolation if a
    structurally sound table still misses the orthogonality tolerance. Groups
    of more than 512 conjugacy classes raise OrderTooLarge before any work.
    """
    if not 1e-12 <= tol <= 1e-6:
        raise ValueError("tol must lie in [1e-12, 1e-6]")
    n = G.order
    r = len(G.class_reps)
    if r > _MAX_CLASSES:
        raise OrderTooLarge(
            f"class algebra of {r} classes exceeds the cap of {_MAX_CLASSES} classes"
        )
    algebra = _ClassAlgebra(G)
    sizes = G.class_sizes.astype(np.float64)
    sq = np.sqrt(sizes)
    split_ok = False
    orth_report: OrthogonalityReport | None = None
    for stream in derive_stream_seed(seed, np.arange(_RETRY_BUDGET)):  # one per attempt
        coeffs = unit_uniforms(stream, r)
        M = algebra.combination(coeffs)
        B = (M * (sq[None, :] / sq[:, None])).astype(np.complex128, order="F")
        if (schur := _schur(B)) is None:
            continue  # B is not finite, or zgees found no Schur form
        T, Z = schur
        lam = np.diag(T).copy()
        scale = max(1.0, float(np.max(np.abs(lam))))
        if float(np.max(np.abs(T - np.diag(lam)))) > 1e-7 * scale:
            continue  # Schur form not diagonal: combination was numerically degenerate
        gaps = np.abs(lam[:, None] - lam[None, :]) + np.eye(r) * (2.0 * scale)
        if float(np.min(gaps)) < 1e-7 * scale:
            continue  # two eigenvalues collide; try the next combination
        W = Z * sq[:, None]
        pivots = W[0, :]
        if float(np.min(np.abs(pivots))) < 1e-12:
            continue
        omega = W / pivots[None, :]  # columns: omega vectors with identity entry 1
        degree_sq = n / np.sum((np.abs(omega) ** 2) / sizes[:, None], axis=0)
        dval = np.sqrt(degree_sq)
        dint = np.rint(dval).astype(np.int64)
        if int(dint.min()) < 1 or float(np.max(np.abs(dval - dint))) > 1e-6:
            continue
        if int(np.sum(dint**2)) != n:
            continue
        split_ok = True
        chi = (omega / sizes[:, None]) * dint[None, :]
        rows = chi.T  # one irreducible character per row

        order = _descending_row_order(rows, dint)
        values = rows[order]
        degrees = tuple(int(dint[i]) for i in order)
        table = CharacterTable(group=G, values=values, degrees=degrees)
        orth_report = verify_orthogonality(table, tol)
        if orth_report.passed:
            table.orthogonality = orth_report
            return table
    if split_ok and orth_report is not None:
        raise ToleranceViolation(
            f"character table misses orthogonality tolerance {tol:g}: "
            f"max deviation {orth_report.max_deviation:g}"
        )
    raise EigensplitFailure(
        f"failed to separate the {r} class-algebra eigenvalues after "
        f"{_RETRY_BUDGET} seeded attempts"
    )


def _descending_row_order(values: np.ndarray, leading: np.ndarray | None = None) -> np.ndarray:
    """Stable row order by the leading key, if given, then by each column's
    (real, imag) quantized at 1e-9, descending, compared left to right: the
    permutation of one np.lexsort over every key.

    Each int64 key has its sign bit flipped and is stored big-endian, so a
    row's bytes compare left to right as its keys do; the rows are then
    sorted once, stably, as fixed-width byte strings."""
    quantized = np.empty((values.shape[0], 2 * values.shape[1]), dtype=np.int64)
    quantized[:, 0::2] = -np.rint(values.real * 1e9)
    quantized[:, 1::2] = -np.rint(values.imag * 1e9)
    keys = quantized if leading is None else np.column_stack([leading, quantized])
    rows = (keys.view(np.uint64) ^ np.uint64(1 << 63)).astype(">u8")
    key = np.dtype((np.void, rows.itemsize * rows.shape[1]))
    return np.argsort(rows.view(key)[:, 0], kind="stable")


def linear_characters(U: Subgroup) -> np.ndarray:
    """All homomorphisms U -> unit circle, as a read-only complex array of
    shape (num_characters, |U|): row j holds the j-th character on
    U.members, and the trivial character comes first.

    Computed through the abelianization: commutators are closed up to the
    derived subgroup D, the quotient U/D is decomposed cyclically one
    generator at a time, and each character of the partial quotient extends in
    k ways along a new generator of relative order k.  Values are tracked as
    integer angles modulo m = |U/D|, in units of 1/m turn, so products never
    accumulate rounding error; quarter turns are evaluated exactly.
    """
    G = U.parent
    mul = G.mul_table
    inv = G.inv_table

    x, y = U.members_array[:, None], U.members_array[None, :]
    commutators = np.zeros(G.order, dtype=bool)
    commutators[mul[mul[inv[x], inv[y]], mul[x, y]]] = True
    derived = np.flatnonzero(_close_mask(mul, commutators))

    # cosets of D inside U, numbered in ascending order of their smallest member
    smallest = mul[derived[:, None], U.members_array].min(axis=0)
    reps, coset = np.unique(smallest, return_inverse=True)
    m = len(reps)
    lookup = np.zeros(G.order, dtype=np.int64)
    lookup[U.members_array] = coset
    q_mul = lookup[mul[reps[:, None], reps]]

    angles = np.zeros((1, m), dtype=np.int64)  # row per character, column per coset
    covered = np.zeros(m, dtype=bool)
    covered[0] = True
    while not covered.all():
        g = int(np.argmin(covered))
        powers = [0, g]
        while not covered[powers[-1]]:
            powers.append(int(q_mul[powers[-1], g]))
        target = powers.pop()  # g^k, already covered
        k = len(powers)
        h = np.flatnonzero(covered)
        cols = q_mul[np.array(powers)[:, None], h]  # the cosets g^a h, a < k
        # the k-th roots of each angle at g^k: k divides m, and k divides the
        # angle because chi(g^k) = chi'(g)^k for any extension chi'
        roots = (angles[:, target, None] + m * np.arange(k)) // k
        steps = np.arange(k)[:, None] * roots[:, :, None, None]  # (char, root, a, 1)
        grown = ((steps + angles[:, None, None, h]) % m).reshape(-1, cols.size)
        angles = np.zeros((len(grown), m), dtype=np.int64)
        angles[:, cols.ravel()] = grown
        covered[cols] = True

    exact = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))
    unit_roots = [
        exact[4 * a // m] if 4 * a % m == 0 else cmath.exp(2j * cmath.pi * (a / m))
        for a in range(m)
    ]
    values = np.array(unit_roots)[angles[:, coset]]
    values = values[_descending_row_order(values)]
    values.setflags(write=False)
    return values
