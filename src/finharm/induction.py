"""Induced representations, multiplicity bookkeeping, and derivation oracles.

Three independent routes to the multiplicity of an irreducible pi in the
representation induced from a subgroup character psi live here: the
restriction inner product (Frobenius reciprocity), the induced-character
formula, and the trace of explicit monomial matrices. They must agree
exactly; the test suite relies on that triple agreement.

The kernel identity, whose residuals pair_spectrum records once per
(U, psi) and kernel_multiplicity_identity_check compares with a tolerance, is

    (conj(psi) *_U theta_pi)(1) = sum_{u in U} psi(u) chi_pi(u)
                                = |U| * mult(pi, induced-from-conj(psi)),

note the conjugate: inducing from psi itself gives the same number only when
psi is real-valued. Reports carry both multiplicity vectors so the twist
stays visible.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from ._rng import derive_stream_seed, unit_uniforms
from .characters import CharacterTable, LinearCharacter
from .errors import (
    ChainNotExhaustive,
    ChainNotNested,
    ChainNotSymmetric,
    GroupMismatch,
    IndexTooLarge,
    NonIntegralMultiplicity,
    SubgroupMismatch,
    ToleranceViolation,
)
from .groups import Subgroup
from .harmonic import GroupFunction, convolve_over_subgroup
from .sampling import keyed_test_function

logger = logging.getLogger(__name__)

INDUCED_MATRIX_INDEX_CAP = 64

_THETA_ZERO_THRESHOLD = 1e-6
_RESAMPLE_BUDGET = 32


def _check_wiring(table: CharacterTable, U: Subgroup, psi: LinearCharacter) -> None:
    if U.parent is not table.group:
        raise GroupMismatch("U must be a subgroup of the table's group")
    if psi.subgroup is not U:
        raise SubgroupMismatch("psi must be a character of U")


def _snap_to_int(value: complex, tol: float, what: str) -> int:
    rounded = int(round(value.real))
    if rounded < 0 or abs(value - rounded) > tol:
        raise NonIntegralMultiplicity(f"{what} = {value} does not round to a nonnegative integer")
    return rounded


def multiplicity_frobenius(
    table: CharacterTable, pi: int, U: Subgroup, psi: LinearCharacter, tol: float = 1e-6
) -> int:
    """Multiplicity of pi in the induction of psi, via restriction:
    (1/|U|) sum_{u in U} chi_pi(u) * conj(psi(u))."""
    _check_wiring(table, U, psi)
    restricted = table.character_on_elements(pi)[U.members_array]
    value = complex(np.dot(restricted, np.conj(psi.member_values))) / U.order
    return _snap_to_int(value, tol, "Frobenius inner product")


@dataclass(frozen=True)
class InducedCharacter:
    """Character of the induced representation, on conjugacy classes."""

    values: np.ndarray
    multiplicities: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return int(round(self.values[0].real))


def induced_character(
    U: Subgroup, psi: LinearCharacter, table: CharacterTable, tol: float = 1e-6
) -> InducedCharacter:
    """chi(g) = (1/|U|) * sum over x in G with x^-1 g x in U of psi(x^-1 g x),
    together with its expansion coefficients in the irreducible rows."""
    _check_wiring(table, U, psi)
    G = U.parent
    mul = G.mul_table
    inv = G.inv_table
    n = G.order
    ar = np.arange(n)
    psi_on_G = psi.on_parent()
    r = len(G.classes)
    values = np.empty(r, dtype=np.complex128)
    for k in range(r):
        rep = int(G.class_reps[k])
        conjugated = mul[mul[inv, rep], ar]  # x^-1 * rep * x, per x
        values[k] = complex(psi_on_G[conjugated].sum()) / U.order
    sizes = G.class_sizes.astype(np.float64)
    mults = []
    for pi in range(r):
        inner = complex(np.sum(sizes * values * np.conj(table.values[pi]))) / n
        mults.append(_snap_to_int(inner, tol, f"coefficient of irrep {pi}"))
    for pi, m in enumerate(mults):
        if m != multiplicity_frobenius(table, pi, U, psi, tol):
            raise ToleranceViolation(
                f"induced-character coefficient of irrep {pi} disagrees with "
                "the restriction inner product"
            )
    values.setflags(write=False)
    return InducedCharacter(values=values, multiplicities=tuple(mults))


@dataclass(frozen=True)
class InducedRep:
    """Monomial matrices of the representation induced from a subgroup
    character, acting on coset functions. dimension = [G:U]."""

    dimension: int
    matrices: dict[int, np.ndarray]
    character: np.ndarray


def induced_rep_matrices(U: Subgroup, psi: LinearCharacter) -> InducedRep:
    """Explicit matrices: M(g)[i, j] = psi(u) where r_i * g = u * r_j.

    Each row and column carries exactly one unit-modulus entry, and
    g -> M(g) is a homomorphism with trace equal to the induced character.
    """
    if psi.subgroup is not U:
        raise SubgroupMismatch("psi must be a character of U")
    d = U.num_cosets
    if d > INDUCED_MATRIX_INDEX_CAP:
        raise IndexTooLarge(
            f"subgroup index {d} exceeds the explicit-matrix cap {INDUCED_MATRIX_INDEX_CAP}"
        )
    G = U.parent
    mul = G.mul_table
    inv = G.inv_table
    reps = np.array(U.left_coset_reps, dtype=np.int64)
    psi_on_G = psi.on_parent()
    rows = np.arange(d)
    matrices: dict[int, np.ndarray] = {}
    for g in range(G.order):
        moved = mul[reps, g]                   # r_i * g
        target = U.coset_of[moved]             # coset index j per row i
        unit = mul[moved, inv[reps[target]]]   # u = r_i * g * r_j^-1, a member of U
        M = np.zeros((d, d), dtype=np.complex128)
        M[rows, target] = psi_on_G[unit]
        M.setflags(write=False)
        matrices[g] = M
    character = np.array(
        [complex(np.trace(matrices[int(rep)])) for rep in G.class_reps],
        dtype=np.complex128,
    )
    character.setflags(write=False)
    return InducedRep(dimension=d, matrices=matrices, character=character)


@dataclass(frozen=True, eq=False)
class PairSpectrum:
    """Everything the pair checks read about one (U, psi), computed once.

    kernels[pi] is the kernel conj(psi) *_U theta_pi on the whole group, a
    read-only (num_irreps, |G|) array. multiplicities and
    conjugate_multiplicities count each pi in the representations induced
    from psi and from conj(psi), and residuals[pi] is
    |kernels[pi, identity] - |U| * conjugate_multiplicities[pi]|.
    """

    table: CharacterTable
    U: Subgroup
    psi: LinearCharacter
    kernels: np.ndarray
    multiplicities: tuple[int, ...]
    conjugate_multiplicities: tuple[int, ...]
    residuals: tuple[float, ...]


def pair_spectrum(table: CharacterTable, U: Subgroup, psi: LinearCharacter) -> PairSpectrum:
    """Build the kernels of (U, psi) for every irrep in one pass over U,
    together with both multiplicity vectors and the kernel-identity residuals."""
    _check_wiring(table, U, psi)
    kernels = convolve_over_subgroup(np.conj(psi.member_values), U, table.element_values)
    kernels.setflags(write=False)
    psi_bar = psi.conjugated()
    irreps = range(table.num_irreps)
    mults = tuple(multiplicity_frobenius(table, pi, U, psi) for pi in irreps)
    conj_mults = tuple(multiplicity_frobenius(table, pi, U, psi_bar) for pi in irreps)
    residuals = tuple(
        abs(complex(kernels[pi, 0]) - U.order * m_bar) for pi, m_bar in enumerate(conj_mults)
    )
    return PairSpectrum(
        table=table,
        U=U,
        psi=psi,
        kernels=kernels,
        multiplicities=mults,
        conjugate_multiplicities=conj_mults,
        residuals=residuals,
    )


def kernel_multiplicity_identity_check(spectrum: PairSpectrum, tol: float = 1e-9) -> bool:
    """Whether every kernel value at the identity matches |U| times the
    multiplicity of pi in the representation induced from conj(psi).

    This is a theorem-level identity: a failure signals an implementation
    bug, not a mathematical finding. The multiplicities for psi itself sit
    alongside in the spectrum; the two vectors coincide whenever psi is real.
    """
    return max(spectrum.residuals) <= tol


def fubini_interchange_oracle(
    table: CharacterTable,
    pi: int,
    U: Subgroup,
    psi: LinearCharacter,
    f: GroupFunction,
    seed: int = 0,
) -> tuple[complex, complex]:
    """Evaluate sum_g sum_u theta_pi(g) f(u^-1 g) psi(u) three ways.

    Order A runs the g-sum outermost, order B the u-sum outermost, and a
    third form substitutes g = u * x before summing. The outer enumeration
    order is shuffled deterministically by `seed`, so agreement exercises
    genuine order-independence rather than one fixed loop nesting. The three
    values are required to agree; (orderA, orderB) is returned and the
    substituted value is logged at debug level.
    """
    _check_wiring(table, U, psi)
    if f.group is not table.group:
        raise GroupMismatch("f must live on the table's group")
    G = table.group
    n = G.order
    mul = G.mul_table
    inv = G.inv_table
    theta_el = table.character_on_elements(pi)
    members = U.members_array
    psiv = psi.member_values

    # f(u^-1 g) laid out as a |U| x |G| matrix
    translates = f.values[mul[np.ix_(inv[members], np.arange(n))]]
    inner_over_u = psiv @ translates

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
        order_b += complex(psiv[ui]) * complex(np.dot(theta_el, f.values[mul[inv[u]]]))

    substituted = 0.0 + 0.0j
    u_order_s = np.argsort(
        unit_uniforms(derive_stream_seed(int(seed), 2), len(members)), kind="stable"
    )
    for ui in u_order_s:
        u = int(members[ui])
        substituted += complex(psiv[ui]) * complex(np.dot(theta_el[mul[u]], f.values))
    logger.debug("substituted-form value %s", substituted)

    scale = 1.0 + max(abs(order_a), abs(order_b), abs(substituted))
    worst = max(
        abs(order_a - order_b), abs(order_a - substituted), abs(order_b - substituted)
    )
    if worst > 1e-10 * scale:
        raise ToleranceViolation(
            f"summation orders disagree by {worst:g} (scale {scale:g})"
        )
    return (order_a, order_b)


def truncation_demo(
    U: Subgroup,
    psi: LinearCharacter,
    table: CharacterTable,
    pi: int,
    chain: Sequence[Iterable[int]],
) -> list[GroupFunction]:
    """Kernels of psi restricted to a growing chain of supports.

    chain is a nested sequence K_1 <= ... <= K_m of member subsets, each
    containing the identity and closed under inversion, ending at the full
    subgroup. Element n of the result is conj(psi * 1_{K_n}) *_U theta_pi;
    the last one reproduces the untruncated kernel bit for bit because it
    runs through the identical summation.
    """
    _check_wiring(table, U, psi)
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

    theta_values = table.character_on_elements(pi)
    psi_bar = np.conj(psi.member_values)
    kernels = []
    for support in stages:
        coeffs = np.where(np.isin(U.members_array, support), psi_bar, 0)
        kernels.append(GroupFunction(table.group, convolve_over_subgroup(coeffs, U, theta_values)))
    final = kernels[-1].values
    for i, k in enumerate(kernels[:-1]):
        logger.debug(
            "truncation stage %d sup-norm deviation %g",
            i,
            float(np.max(np.abs(k.values - final))),
        )
    return kernels


@dataclass(frozen=True)
class ProbeIrrepRecord:
    ratio_samples: tuple[complex, ...]
    ratio_constant: bool
    theta_zero_flags: tuple[bool, ...]


def conjecture_probe(
    spectrum: PairSpectrum, num_test_functions: int, seed: int = 0
) -> tuple[ProbeIrrepRecord, ...]:
    """Sample Phi/Theta ratios over seeded random test functions.

    Returns raw ratio evidence per irrep, deliberately free of any verdict:
    the sampled ratios Phi_pi(f) / Theta_pi(f) and whether they all agree,
    leaving any proportionality judgement to the reader. Each irrep uses an
    independent substream keyed by (seed, pi). A sample with
    |Theta_pi(f)| <= 1e-6 is resampled up to 32 times from reserved indices;
    exhausting the budget records a flagged NaN sample, not a dropped one.
    """
    if num_test_functions < 1:
        raise ValueError("num_test_functions must be at least 1")
    table = spectrum.table
    G = table.group
    records = []
    for pi in range(table.num_irreps):
        substream = derive_stream_seed(int(seed), pi)
        theta_el = table.character_on_elements(pi)
        kernel_values = spectrum.kernels[pi]
        ratios: list[complex] = []
        flags: list[bool] = []
        for slot in range(num_test_functions):
            f = keyed_test_function(G, substream, slot)
            th = complex(np.dot(f.values, theta_el))
            if abs(th) <= _THETA_ZERO_THRESHOLD:
                for retry in range(_RESAMPLE_BUDGET):
                    f = keyed_test_function(
                        G, substream, num_test_functions + slot * _RESAMPLE_BUDGET + retry
                    )
                    th = complex(np.dot(f.values, theta_el))
                    if abs(th) > _THETA_ZERO_THRESHOLD:
                        break
                else:
                    ratios.append(complex(float("nan"), float("nan")))
                    flags.append(True)
                    continue
            ph = complex(np.dot(f.values, kernel_values))
            ratios.append(ph / th)
            flags.append(False)
        clean = [rv for rv, flagged in zip(ratios, flags) if not flagged]
        if clean:
            first = clean[0]
            constant = all(abs(rv - first) <= 1e-6 * (1.0 + abs(first)) for rv in clean)
        else:
            constant = False
        records.append(
            ProbeIrrepRecord(
                ratio_samples=tuple(ratios),
                ratio_constant=constant,
                theta_zero_flags=tuple(flags),
            )
        )
    return tuple(records)
