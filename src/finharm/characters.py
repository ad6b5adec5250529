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
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterable

import numpy as np
import scipy.linalg

from ._rng import derive_stream_seed, unit_uniforms
from .errors import (
    EigensplitFailure,
    IndexOutOfRange,
    SubgroupMismatch,
    ToleranceViolation,
)
from .formatting import fmt_complex
from .groups import FiniteGroup, Subgroup, subgroup_closure

_RETRY_BUDGET = 16


@dataclass(eq=False)
class CharacterTable:
    """All irreducible characters of a group, as values on conjugacy classes.

    Rows are sorted by (degree, then descending lexicographic value order,
    comparing (real, imag) quantized at 1e-9), which places the trivial
    character first. plancherel_weights[pi] = degrees[pi] / |G|.
    """

    group: FiniteGroup
    num_irreps: int
    values: np.ndarray
    degrees: tuple[int, ...]
    plancherel_weights: np.ndarray
    element_values: np.ndarray = field(init=False, repr=False)

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

    def to_csv(self) -> str:
        header = "degree," + ",".join(f"class{k}" for k in range(len(self.group.classes)))
        lines = [header]
        for i in range(self.num_irreps):
            row = ",".join(fmt_complex(v) for v in self.values[i])
            lines.append(f"{self.degrees[i]},{row}")
        return "\n".join(lines) + "\n"


@dataclass(frozen=True)
class OrthogonalityReport:
    max_row_deviation: float
    max_column_deviation: float
    max_deviation: float
    tol: float
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
        tol=float(tol),
        passed=bool(worst <= tol),
    )


def _structure_constants(G: FiniteGroup) -> np.ndarray:
    """a[i, j, k] = #{x in C_i : x^-1 * z_k in C_j} for the class rep z_k.

    Equivalently the number of ways z_k factors as (element of C_i) times
    (element of C_j), which is the class-algebra coefficient.
    """
    r = len(G.classes)
    a = np.zeros((r, r, r), dtype=np.float64)
    mul = G.mul_table
    inv = G.inv_table
    cls = G.class_of
    for k, rep in enumerate(G.class_reps):
        partner = cls[mul[inv, int(rep)]]
        np.add.at(a[:, :, k], (cls, partner), 1.0)
    return a


def character_table(G: FiniteGroup, seed: int = 0, tol: float = 1e-9) -> CharacterTable:
    """Compute every irreducible character of G.

    Deterministic for fixed (G, seed). Retries with fresh random coefficients
    up to 16 times if the eigenvalues fail to separate; raises
    EigensplitFailure when the budget runs out and ToleranceViolation if a
    structurally sound table still misses the orthogonality tolerance.
    """
    if not 1e-12 <= tol <= 1e-6:
        raise ValueError("tol must lie in [1e-12, 1e-6]")
    n = G.order
    r = len(G.classes)
    if r == 1:
        return CharacterTable(
            group=G,
            num_irreps=1,
            values=np.ones((1, 1), dtype=np.complex128),
            degrees=(1,),
            plancherel_weights=np.array([1.0 / n]),
        )

    a = _structure_constants(G)
    sizes = G.class_sizes.astype(np.float64)
    sq = np.sqrt(sizes)
    split_ok = False
    orth_report: OrthogonalityReport | None = None
    for attempt in range(_RETRY_BUDGET):
        coeffs = unit_uniforms(derive_stream_seed(int(seed), attempt), r)
        M = np.tensordot(coeffs, a, axes=(0, 0))
        B = (M * (sq[None, :] / sq[:, None])).astype(np.complex128)
        T, Z = scipy.linalg.schur(B, output="complex")
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

        order = sorted(
            range(r), key=lambda i: (int(dint[i]), _quantized_descending_key(rows[i]))
        )
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


class LinearCharacter:
    """A homomorphism from a subgroup to the unit circle.

    member_values[i] is the value at subgroup.members[i]: unit modulus, with
    value 1 at the identity.
    """

    def __init__(self, subgroup: Subgroup, member_values: Iterable[complex]) -> None:
        values = np.array(member_values, dtype=np.complex128)
        if values.shape != (subgroup.order,):
            raise SubgroupMismatch("character values must cover exactly the members")
        if float(np.max(np.abs(np.abs(values) - 1.0))) > 1e-6:
            raise ValueError("character values must have modulus 1")
        if abs(values[0] - 1.0) > 1e-6:
            raise ValueError("character value at the identity must be 1")
        values.setflags(write=False)
        self.subgroup = subgroup
        self.member_values = values

    def __call__(self, u: int) -> complex:
        try:
            return complex(self.member_values[self.subgroup.members.index(u)])
        except ValueError:
            raise SubgroupMismatch(f"element {u} is not a member of the subgroup") from None

    @property
    def is_trivial(self) -> bool:
        return bool(np.max(np.abs(self.member_values - 1.0)) <= 1e-9)

    def conjugated(self) -> "LinearCharacter":
        return LinearCharacter(self.subgroup, np.conj(self.member_values))

    def on_parent(self) -> np.ndarray:
        """Values extended by zero to the whole parent group."""
        out = np.zeros(self.subgroup.parent.order, dtype=np.complex128)
        out[self.subgroup.members_array] = self.member_values
        return out

    def __repr__(self) -> str:
        kind = "trivial" if self.is_trivial else "nontrivial"
        return f"<LinearCharacter {kind} on subgroup of order {self.subgroup.order}>"


def _quantized_descending_key(values: Iterable[complex]) -> tuple:
    return tuple((-int(round(v.real * 1e9)), -int(round(v.imag * 1e9))) for v in values)


def _unit_root(turns: Fraction) -> complex:
    """exp(2*pi*i*turns) with quarter turns evaluated exactly."""
    turns %= 1
    quarters = 4 * turns
    if quarters.denominator == 1:
        exact = (complex(1, 0), complex(0, 1), complex(-1, 0), complex(0, -1))
        return exact[int(quarters) % 4]
    return cmath.exp(2j * cmath.pi * float(turns))


def linear_characters(U: Subgroup) -> list[LinearCharacter]:
    """All homomorphisms U -> unit circle; the trivial character comes first.

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

    commutators = set()
    for x in members:
        for y in members:
            commutators.add(int(mul[mul[inv[x], inv[y]], mul[x, y]]))
    derived = subgroup_closure(G, sorted(commutators))

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

    lifted = []
    for chi in chars:
        lifted.append(LinearCharacter(U, [_unit_root(chi[coset_of[u]]) for u in members]))
    lifted.sort(key=lambda psi: _quantized_descending_key(psi.member_values))
    return lifted
