"""Induced representations, multiplicity bookkeeping, and derivation oracles.

Three independent routes to the multiplicity of an irreducible pi in the
representation induced from a subgroup character psi live here: the
restriction inner product (Frobenius reciprocity), the induced-character
formula, and the trace of explicit monomial matrices. They must agree
exactly; the test suite relies on that triple agreement.

The kernel identity, whose residuals subgroup_spectrum records once per
(U, psi) and kernel_multiplicity_identity_check compares with a tolerance, is

    (conj(psi) *_U theta_pi)(1) = sum_{u in U} psi(u) chi_pi(u)
                                = |U| * mult(pi, induced-from-conj(psi)),

note the conjugate: inducing from psi itself gives the same number only when
psi is real-valued. Reports carry both multiplicity vectors so the twist
stays visible.

A spectrum stacks the characters psi of one subgroup U along a leading axis:
their kernels come from one accumulation over U, their multiplicities from
one stacked product, and the check and the probe pair them all at once.
Every psi keeps the bits it would have alone. subgroup_spectra cuts the
characters of U into blocks of about _SPECTRUM_BYTES.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

import numpy as np

from . import _rng
from ._rng import derive_stream_seed, row_blocks, test_functions
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
from .groups import FiniteGroup, Subgroup
from .harmonic import GroupFunction, _dots, _modulus, convolve_over_subgroup

logger = logging.getLogger(__name__)

INDUCED_MATRIX_INDEX_CAP = 64

_THETA_ZERO_THRESHOLD = 1e-6
_RESAMPLE_BUDGET = 32


def _check_wiring(table: CharacterTable, U: Subgroup, psi: LinearCharacter) -> None:
    if U.parent is not table.group:
        raise GroupMismatch("U must be a subgroup of the table's group")
    if psi.subgroup is not U:
        raise SubgroupMismatch("psi must be a character of U")


def _snap(inner: np.ndarray, order: int, tol: float, what: str) -> np.ndarray:
    """Each inner / order as a nonnegative integer, entry by entry as
    Python's complex(v) / order, round and abs would take it. Raises
    NonIntegralMultiplicity at the first entry not within tol of one, naming
    what, with {pi} standing for the entry's index along the last axis."""
    real, imag = inner.real / order, inner.imag / order
    rounded = np.rint(real)
    bad = ~((rounded >= 0) & (np.hypot(real - rounded, imag) <= tol))
    if bad.any():
        at = np.unravel_index(bad.argmax(), bad.shape)
        value = complex(inner[at]) / order
        raise NonIntegralMultiplicity(
            f"{what.format(pi=at[-1])} = {value} does not round to a nonnegative integer"
        )
    return rounded.astype(np.int64)


def frobenius_multiplicities(
    table: CharacterTable, U: Subgroup, psi: LinearCharacter, tol: float = 1e-6
) -> tuple[int, ...]:
    """Multiplicity of every irrep pi in the induction of psi, via restriction:
    (1/|U|) sum_{u in U} chi_pi(u) * conj(psi(u))."""
    _check_wiring(table, U, psi)
    restricted = table.element_values[:, U.members_array]
    inner = _dots(restricted, np.conj(psi.member_values))
    return tuple(_snap(inner, U.order, tol, "Frobenius inner product").tolist())


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
    inner = np.array([complex(np.sum(sizes * values * np.conj(row))) for row in table.values])
    mults = tuple(_snap(inner, n, tol, "coefficient of irrep {pi}").tolist())
    if mults != frobenius_multiplicities(table, U, psi, tol):
        raise ToleranceViolation(
            "induced-character coefficients disagree with the restriction inner product"
        )
    values.setflags(write=False)
    return InducedCharacter(values=values, multiplicities=mults)


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
class SubgroupSpectrum:
    """Everything the checks read about the pairs (U, psi) of a stack of
    characters psi of U, computed once, as read-only arrays with one row per
    psi.

    psi_values[j] holds psis[j] on U.members. kernels[j, pi] is the kernel
    conj(psis[j]) *_U theta_pi on the whole group, an array of shape
    (num_psis, num_irreps, |G|). multiplicities and conjugate_multiplicities,
    of shape (num_psis, num_irreps), count each pi in the representations
    induced from psi and from conj(psi), and residuals[j, pi] is
    |kernels[j, pi, identity] - |U| * conjugate_multiplicities[j, pi]|.
    """

    table: CharacterTable
    U: Subgroup
    psis: tuple[LinearCharacter, ...]
    psi_values: np.ndarray
    kernels: np.ndarray
    multiplicities: np.ndarray
    conjugate_multiplicities: np.ndarray
    residuals: np.ndarray


def subgroup_spectrum(
    table: CharacterTable, U: Subgroup, psis: Sequence[LinearCharacter]
) -> SubgroupSpectrum:
    """Build the kernels of every (U, psi), psi in psis, for every irrep in
    one pass over U, together with both multiplicity matrices and the
    kernel-identity residuals. Raises NonIntegralMultiplicity when a
    multiplicity does not snap to a nonnegative integer."""
    if not psis:
        raise ValueError("a spectrum needs at least one character")
    for psi in psis:
        _check_wiring(table, U, psi)
    psi_values = np.array([psi.member_values for psi in psis])
    restricted = table.element_values[:, U.members_array]
    what = "Frobenius inner product"
    mults = _snap(_dots(restricted, np.conj(psi_values)[:, None, :]), U.order, 1e-6, what)
    conj_mults = _snap(_dots(restricted, psi_values[:, None, :]), U.order, 1e-6, what)
    kernels = convolve_over_subgroup(np.conj(psi_values), U, table.element_values)
    residuals = _modulus(kernels[:, :, 0] - U.order * conj_mults)
    for a in (psi_values, kernels, mults, conj_mults, residuals):
        a.setflags(write=False)
    return SubgroupSpectrum(
        table, U, tuple(psis), psi_values, kernels, mults, conj_mults, residuals
    )


_SPECTRUM_BYTES = 4 << 20  # kernels and samples of one block of characters


def subgroup_spectra(
    table: CharacterTable, U: Subgroup, psis: Sequence[LinearCharacter], samples: int = 0
) -> Iterator[SubgroupSpectrum]:
    """subgroup_spectrum of consecutive blocks of psis, in order. A block
    holds about _SPECTRUM_BYTES of kernels and of `samples` complex pairings
    per (psi, irrep), such as the probe's ratios; the blocking changes no
    bits. A block that raises is redone one psi at a time, so the spectra of
    the characters before the failing one are yielded before it raises, with
    the message of that psi alone."""
    per_psi = 16 * table.num_irreps * (table.group.order + samples)
    step = max(1, _SPECTRUM_BYTES // per_psi)
    for start in range(0, len(psis), step):
        block = psis[start : start + step]
        try:  # yielded unbound, so no block outlives the caller's use of it
            yield subgroup_spectrum(table, U, block)
        except NonIntegralMultiplicity:
            yield from (subgroup_spectrum(table, U, [psi]) for psi in block)


def kernel_multiplicity_identity_check(
    spectrum: SubgroupSpectrum, tol: float = 1e-9
) -> np.ndarray:
    """Whether, for each psi of the spectrum, every kernel value at the
    identity matches |U| times the multiplicity of pi in the representation
    induced from conj(psi); a (num_psis,) boolean array.

    This is a theorem-level identity: a failure signals an implementation
    bug, not a mathematical finding. The multiplicities for psi itself sit
    alongside in the spectrum; the two coincide whenever psi is real.
    """
    return spectrum.residuals.max(axis=1) <= tol


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


_PLAN_BYTES = 64 << 20  # cached test functions per plan; past it, blocks are re-drawn
_RATIO_CHUNK = 1 << 12  # probe ratios divided per list of Python complex numbers


def _draw(G: FiniteGroup, streams: np.ndarray, indices: np.ndarray) -> np.ndarray:
    """Test function indices[i, j] of stream streams[i], as an (a, c, |G|) array."""
    a, c = indices.shape
    return test_functions(G, np.repeat(streams, c), indices.ravel()).reshape(a, c, G.order)


def _block_grid(r: int, count: int, n: int) -> list[tuple[slice, slice]]:
    """(irreps, slots) rectangles tiling r x count, each holding about
    _rng._BLOCK_ELEMENTS values of length-n functions."""
    rows = max(1, _rng._BLOCK_ELEMENTS // n)
    width = min(count, rows)
    height = max(1, rows // width)
    return [
        (slice(p, min(p + height, r)), slice(s, min(s + width, count)))
        for p in range(0, r, height)
        for s in range(0, count, width)
    ]


def _resample(
    table: CharacterTable, streams: np.ndarray, count: int, pis: np.ndarray, slots: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """For the zero-Theta slot slots[i] of irrep pis[i]: the first of its 32
    reserved indices, count + slot*32 onwards, whose Theta clears the
    threshold, that Theta, and whether none did."""
    budget = _RESAMPLE_BUDGET
    reserved = count + slots[:, None] * budget + np.arange(budget)
    theta = np.empty(reserved.shape, dtype=np.complex128)
    for rows in row_blocks(len(pis), budget * table.group.order):
        F = _draw(table.group, streams[pis[rows]], reserved[rows])
        theta[rows] = _dots(F, table.element_values[pis[rows], None, :])
    usable = _modulus(theta) > _THETA_ZERO_THRESHOLD
    pick = (np.arange(len(pis)), usable.argmax(axis=1))
    return reserved[pick], theta[pick], ~usable.any(axis=1)


@dataclass(frozen=True, eq=False)
class ProbePlan:
    """The probe's test functions for every (pi, slot), drawn and screened
    once: they depend on (table, count, seed), never on the pair.

    Slot j of irrep pi uses function indices[pi, j] of stream streams[pi]:
    j itself, or, when |Theta_pi| of that is at most 1e-6, the first usable
    of its 32 reserved indices. theta holds Theta_pi of the function used,
    and flagged marks slots whose reserve ran out; all three are read-only
    (r, count) arrays. blocks tiles (irreps, slots) into rectangles of about
    _rng._BLOCK_ELEMENTS values, each with its (irreps, slots, |G|)
    functions, or None past _PLAN_BYTES, when it is re-drawn on use from the
    same streams and indices, so the budget changes no bits.
    """

    table: CharacterTable
    streams: np.ndarray
    indices: np.ndarray
    theta: np.ndarray
    flagged: np.ndarray
    blocks: tuple[tuple[slice, slice, np.ndarray | None], ...]

    def functions(self) -> Iterator[tuple[slice, slice, np.ndarray]]:
        """(irreps, slots, functions) of every block, re-drawing uncached ones."""
        for p, s, F in self.blocks:
            if F is None:
                F = _draw(self.table.group, self.streams[p], self.indices[p, s])
            yield p, s, F


def probe_plan(table: CharacterTable, count: int, seed: int = 0) -> ProbePlan:
    """Draw and screen count test functions per irrep of table, in blocks,
    each irrep on its own substream keyed by (seed, pi)."""
    if count < 1:
        raise ValueError("num_test_functions must be at least 1")
    r, n = table.num_irreps, table.group.order
    streams = derive_stream_seed(int(seed), np.arange(r))
    indices = np.tile(np.arange(count), (r, 1))
    theta = np.empty((r, count), dtype=np.complex128)
    flagged = np.zeros((r, count), dtype=bool)
    room = _PLAN_BYTES
    blocks = []
    for p, s in _block_grid(r, count, n):
        F = _draw(table.group, streams[p], indices[p, s])
        theta[p, s] = _dots(F, table.element_values[p, None, :])
        zero_pis, zero_slots = np.nonzero(_modulus(theta[p, s]) <= _THETA_ZERO_THRESHOLD)
        if len(zero_pis):
            pis, slots = zero_pis + p.start, zero_slots + s.start
            indices[pis, slots], theta[pis, slots], flagged[pis, slots] = _resample(
                table, streams, count, pis, slots
            )
        if F.nbytes > room:
            F = None
        else:
            room -= F.nbytes
            if len(zero_pis):  # hold the resampled functions
                F = _draw(table.group, streams[p], indices[p, s])
        blocks.append((p, s, F))
    for a in (streams, indices, theta, flagged):
        a.setflags(write=False)
    return ProbePlan(table, streams, indices, theta, flagged, tuple(blocks))


@dataclass(frozen=True, eq=False)
class ProbeRecord:
    """Phi/Theta samples of every psi of a spectrum and every irrep, as
    read-only arrays. ratios has shape (num_psis, r, count) and flagged, the
    plan's, (r, count); a flagged sample's ratio is NaN. first_ratio is each
    (psi, irrep)'s first clean ratio, spread the largest |ratio - first_ratio|
    over its clean ratios (both NaN when every sample is flagged), and
    constant whether every clean ratio agrees with the first to 1e-6
    relative; these three have shape (num_psis, r)."""

    ratios: np.ndarray
    flagged: np.ndarray
    first_ratio: np.ndarray
    spread: np.ndarray
    constant: np.ndarray


def conjecture_probe(spectrum: SubgroupSpectrum, plan: ProbePlan) -> ProbeRecord:
    """Sample Phi/Theta ratios of every pair of the spectrum over the plan's
    test functions, pairing each block of the plan once with all kernels.

    Returns raw ratio evidence per irrep, deliberately free of any verdict:
    the sampled ratios Phi_pi(f) / Theta_pi(f) and their spread, leaving any
    proportionality judgement to the reader. A flagged slot of the plan
    records a NaN sample, not a dropped one.
    """
    if plan.table is not spectrum.table:
        raise GroupMismatch("the plan must be drawn for the spectrum's table")
    kernels = spectrum.kernels
    ratios = np.empty((len(kernels),) + plan.theta.shape, dtype=np.complex128)
    for p, s, F in plan.functions():
        ratios[:, p, s] = _dots(F, kernels[:, p, None, :])
    flagged = plan.flagged
    clean = ~flagged
    thetas = plan.theta[clean]
    r = flagged.shape[0]
    pick = (np.arange(r), np.argmin(flagged, axis=1))
    first = np.empty(ratios.shape[:2], dtype=np.complex128)
    spread = np.empty(first.shape)
    for row, row_first, row_spread in zip(ratios, first, spread):
        # Python complex division, numpy's differs in the last bits; in
        # chunks, so the lists of Python complex numbers stay small
        phis = row[clean]
        for a in range(0, len(thetas), _RATIO_CHUNK):
            b = a + _RATIO_CHUNK
            phis[a:b] = [p / t for p, t in zip(phis[a:b].tolist(), thetas[a:b].tolist())]
        row[clean] = phis
        row[flagged] = complex(float("nan"), float("nan"))
        row_first[:] = row[pick]
        distance = np.where(flagged, 0.0, _modulus(row - row_first[:, None]))
        row_spread[:] = distance.max(axis=1)
    spread[:, flagged.all(axis=1)] = np.nan
    constant = spread <= 1e-6 * (1.0 + _modulus(first))
    for a in (ratios, first, spread, constant):
        a.setflags(write=False)
    return ProbeRecord(ratios, flagged, first, spread, constant)
