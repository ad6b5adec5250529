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
    IndexOutOfRange,
    OrderTooLarge,
    ToleranceViolation,
)
from .formatting import fmt_complex_rows
from .groups import FiniteGroup, Subgroup, _close_mask

_RETRY_BUDGET = 16

# Most conjugacy classes a table is computed for. The Schur eigensplit takes
# O(r^3) time on r x r complex matrices: about 2 s and 150 MB at r = 512.
_MAX_CLASSES = 512

# Bytes of one slab of the class-algebra tensor (see _ClassAlgebra).
_SLAB_BYTES = 1 << 23


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

    Rows are sorted by (degree, then descending lexicographic value order,
    comparing (real, imag) quantized at 1e-9), which places the trivial
    character first. plancherel_weights[pi] = degrees[pi] / |G|.
    orthogonality is the check character_table accepted the table on.
    """

    group: FiniteGroup
    num_irreps: int
    values: np.ndarray
    degrees: tuple[int, ...]
    plancherel_weights: np.ndarray
    element_values: np.ndarray = field(init=False, repr=False)
    orthogonality: OrthogonalityReport | None = field(default=None, init=False, repr=False)

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, dtype=np.complex128).copy()
        if vals.shape != (self.num_irreps, len(self.group.classes)):
            raise ValueError("character value matrix has the wrong shape")
        vals.setflags(write=False)
        self.values = vals
        weights = np.asarray(self.plancherel_weights, dtype=np.float64).copy()
        weights.setflags(write=False)
        self.plancherel_weights = weights
        self.degrees = tuple(int(d) for d in self.degrees)
        ev = vals[:, self.group.class_of].copy()
        ev.setflags(write=False)
        self.element_values = ev

    def character_on_elements(self, pi: int) -> np.ndarray:
        """Row pi expanded from classes to elements (read-only view)."""
        if not 0 <= pi < self.num_irreps:
            raise IndexOutOfRange(f"irrep index {pi} out of range 0..{self.num_irreps - 1}")
        return self.element_values[pi]

    @cached_property
    def value_strings(self) -> tuple[tuple[str, ...], ...]:
        """fmt_complex of every table value, formatted once and shared by
        the CSV form and the report's rows block."""
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
    max_deviation: float
    passed: bool


def verify_orthogonality(table: CharacterTable, tol: float = 1e-9) -> OrthogonalityReport:
    """Max deviation over all row-pair and column-pair orthogonality relations."""
    if tol <= 0:
        raise ValueError("tol must be positive")
    V = table.values
    sizes = table.group.class_sizes.astype(np.float64)
    n = float(table.group.order)
    r = table.num_irreps
    row_gram = (V * sizes[None, :]) @ V.conj().T / n
    row_dev = float(np.max(np.abs(row_gram - np.eye(r))))
    col_gram = V.T @ V.conj()
    col_dev = float(np.max(np.abs(col_gram - np.diag(n / sizes))))
    worst = max(row_dev, col_dev)
    return OrthogonalityReport(
        max_row_deviation=row_dev,
        max_column_deviation=col_dev,
        max_deviation=worst,
        passed=bool(worst <= tol),
    )


class _ClassAlgebra:
    """Random combinations M = sum_i c_i A_i of the class-algebra matrices.

    (A_i)[j, k] = a[i, j, k] = #{x in C_i : x^-1 z_k in C_j} for the class rep
    z_k: the number of ways z_k factors as (element of C_i) times (element of
    C_j). The r^3 tensor a is never held whole. It is filled and contracted
    in slabs of output rows a[:, j0:j1, :] of about _SLAB_BYTES each, in one
    buffer that is reused and reset through the entries it was filled at.

    Each slab is contracted by np.tensordot, a BLAS dgemv over the flattened
    (r, (j1 - j0) * r) slab, as the whole (r, r^2) tensor would be. Slab
    heights are multiples of 8 // gcd(r, 8), so every slab starts at a flat
    output offset that is a multiple of 8. With one BLAS thread, M is then
    the same bits as the contraction of the whole tensor. This relies on how
    OpenBLAS's dgemv handles vector tails: it sums the outputs in blocks of 4
    and the last m % 4 outputs with other arithmetic, so a slab that starts
    off a block boundary differs in the last bits; 8 leaves room for kernels
    with wider blocks. Other BLAS builds, and a contraction split across
    threads, need not match.
    """

    def __init__(self, G: FiniteGroup) -> None:
        r = len(G.classes)
        step = 8 // math.gcd(r, 8)
        self.height = min(r, max(step, _SLAB_BYTES // (8 * r * r) // step * step))
        # with y = x^-1: a[i, j, k] counts the y with y^-1 in C_i and y z_k in C_j
        self.i = G.class_of[G.inv_table]
        j = G.class_of[G.mul_table[:, G.class_reps]].astype(np.int16)  # r <= 512
        self.slab, self.row = np.divmod(j, self.height)
        self.buffer = np.zeros(r * self.height * r)

    def combination(self, coeffs: np.ndarray) -> np.ndarray:
        r = len(coeffs)
        M = np.empty((r, r))
        for s, j0 in enumerate(range(0, r, self.height)):
            j1 = min(j0 + self.height, r)
            y, k = np.nonzero(self.slab == s)
            flat = (self.i[y] * (j1 - j0) + self.row[y, k]) * r + k
            slab = self.buffer[: r * (j1 - j0) * r]
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
    r = len(G.classes)
    if r > _MAX_CLASSES:
        raise OrderTooLarge(
            f"class algebra of {r} classes exceeds the cap of {_MAX_CLASSES} classes"
        )
    algebra = _ClassAlgebra(G)
    sizes = G.class_sizes.astype(np.float64)
    sq = np.sqrt(sizes)
    split_ok = False
    orth_report: OrthogonalityReport | None = None
    for attempt in range(_RETRY_BUDGET):
        coeffs = unit_uniforms(derive_stream_seed(int(seed), attempt), r)
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
        table = CharacterTable(
            group=G,
            num_irreps=r,
            values=values,
            degrees=degrees,
            plancherel_weights=np.array(degrees, dtype=np.float64) / n,
        )
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
    (real, imag) quantized at 1e-9, descending, compared left to right."""
    quantized = np.empty((values.shape[0], 2 * values.shape[1]), dtype=np.int64)
    quantized[:, 0::2] = -np.rint(values.real * 1e9)
    quantized[:, 1::2] = -np.rint(values.imag * 1e9)
    keys = quantized.T[::-1]  # np.lexsort sorts by its last key first
    if leading is not None:
        keys = np.vstack([keys, leading])
    return np.lexsort(keys)


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
