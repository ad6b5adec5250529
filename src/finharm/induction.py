"""Induced representations, multiplicity bookkeeping, and the subgroup
spectra that the checks and the probe read.

Three independent routes to the multiplicity of an irreducible pi in the
representation induced from a subgroup character psi live here, and they
must agree exactly; the test suite relies on that triple agreement: the
restriction inner product (Frobenius reciprocity, _frobenius, the route of
subgroup_spectrum), the induced-character formula (induced_character, which
reads neither kernels nor spectra), and the trace of the monomial action on
the cosets U\\G (induced_rep). That action is computed when needed, never
held as a matrix per element, so the index [G:U] has no cap: r_i * g lies in
the coset U * r_j with phase psi(r_i g r_j^-1).

The kernel identity, whose residuals subgroup_spectrum records once per
(U, psi) and kernel_multiplicity_identity_check compares with a tolerance, is

    (conj(psi) *_U theta_pi)(1) = sum_{u in U} psi(u) chi_pi(u)
                                = |U| * mult(pi, induced-from-conj(psi)),

note the conjugate: inducing from psi itself gives the same number only when
psi is real-valued. Reports carry both multiplicity vectors so the twist
stays visible.

A character psi of U is a row of values on U.members, as linear_characters
returns them, and a stack of them is a (num_psis, |U|) array. A spectrum
stacks the characters psi of one subgroup U along that leading axis:
their kernels come from one accumulation over U, their multiplicities from
one stacked product, and the check and the probe pair them all at once.
Every psi keeps the bits it would have alone. subgroup_spectra cuts the
characters of U into blocks of about _SPECTRUM_BYTES. Test functions, the
probe plan's grid and its resamples take rows a block at a time by
groups.row_blocks, the package's one rule for blocks of length-|G| rows.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

import numpy as np

from ._rng import derive_stream_seed, test_functions
from .characters import CharacterTable
from .errors import (
    GroupMismatch,
    NonIntegralMultiplicity,
    SubgroupMismatch,
    ToleranceViolation,
)
from .groups import Subgroup, _index, _real, row_blocks
from .harmonic import _dots, _modulus, convolve_over_subgroup

if TYPE_CHECKING:
    from numpy.typing import ArrayLike

_THETA_ZERO_THRESHOLD = 1e-6
_SNAP_TOL = 1e-6  # farthest a multiplicity may lie from the integer it snaps to
_RESAMPLE_BUDGET = 32


def _check_wiring(table: CharacterTable, U: Subgroup) -> None:
    if U.parent is not table.group:
        raise GroupMismatch("U must be a subgroup of the table's group")


def _stack_length(psis: ArrayLike) -> int:
    """len(psis), refusing a scalar as a misshapen stack of characters."""
    try:
        return len(psis)
    except TypeError:
        raise SubgroupMismatch("character values must cover exactly the members") from None


def _psi_values(U: Subgroup, psis: ArrayLike, ndim: int) -> np.ndarray:
    """psis as a read-only complex array of ndim axes, one character of U
    per row of values on U.members: of unit modulus, and 1 at the identity.
    A complex array that no writable array shares memory with is returned
    as it is; any other input is copied."""
    try:
        values = np.asarray(psis, dtype=np.complex128)
    except ValueError as exc:  # ragged rows
        raise SubgroupMismatch("character values must cover exactly the members") from exc
    if values.ndim != ndim or values.shape[-1] != U.order:
        raise SubgroupMismatch("character values must cover exactly the members")
    if not (np.abs(np.abs(values) - 1.0) <= 1e-6).all():  # so that a NaN fails
        raise ValueError("character values must have modulus 1")
    if not (np.abs(values[..., 0] - 1.0) <= 1e-6).all():
        raise ValueError("character value at the identity must be 1")
    owner = values
    while isinstance(owner, np.ndarray) and not owner.flags.writeable:
        owner = owner.base
    if owner is not None:  # writable itself, a view of a writable array, or a foreign buffer
        values = values.copy()
        values.setflags(write=False)
    return values


def _on_parent(U: Subgroup, psi: np.ndarray) -> np.ndarray:
    """The values psi on U.members, extended by zero to the parent group."""
    out = np.zeros(U.parent.order, dtype=np.complex128)
    out[U.members_array] = psi
    return out


def _snap(inner: np.ndarray, order: int, what: str) -> np.ndarray:
    """Each inner / order as a nonnegative integer, entry by entry as
    Python's complex(v) / order, round and abs would take it. Raises
    NonIntegralMultiplicity at the first entry not within _SNAP_TOL of one,
    naming what, {pi} standing for the entry's index along the last axis."""
    real, imag = inner.real / order, inner.imag / order
    rounded = np.rint(real)
    bad = ~((rounded >= 0) & (np.hypot(real - rounded, imag) <= _SNAP_TOL))
    if bad.any():
        at = np.unravel_index(bad.argmax(), bad.shape)
        value = complex(inner[at]) / order
        raise NonIntegralMultiplicity(
            f"{what.format(pi=at[-1])} = {value} does not round to a nonnegative integer"
        )
    return rounded.astype(np.int64)


def _frobenius(table: CharacterTable, U: Subgroup, coeffs: np.ndarray) -> np.ndarray:
    """Multiplicity of every irrep pi in the representation induced from
    conj(c), for each member-aligned row c of coeffs: the snapped
    (1/|U|) sum_{u in U} chi_pi(u) * c(u)."""
    restricted = table.element_values[:, U.members_array]
    inner = _dots(restricted, coeffs[..., None, :])
    return _snap(inner, U.order, "Frobenius inner product")


@dataclass(frozen=True, eq=False)
class InducedCharacter:
    """Character of the induced representation, on conjugacy classes."""

    values: np.ndarray
    multiplicities: tuple[int, ...]

    @property
    def dimension(self) -> int:
        return int(round(self.values[0].real))


def induced_character(U: Subgroup, psi: ArrayLike, table: CharacterTable) -> InducedCharacter:
    """chi(g) = (1/|U|) * sum over x in G with x^-1 g x in U of psi(x^-1 g x),
    for psi one row of values on U.members, together with its expansion
    coefficients in the irreducible rows, which must equal the restriction
    inner product's."""
    _check_wiring(table, U)
    psi = _psi_values(U, psi, 1)
    G = U.parent
    mul = G.mul_table
    conjugated = mul[mul[G.inv_table, G.class_reps[:, None]], np.arange(G.order)]  # x^-1 c x
    values = _on_parent(U, psi)[conjugated].sum(axis=1) / U.order
    inner = (G.class_sizes * values * np.conj(table.values)).sum(axis=1)
    mults = tuple(_snap(inner, G.order, "coefficient of irrep {pi}").tolist())
    if mults != tuple(_frobenius(table, U, np.conj(psi)).tolist()):
        raise ToleranceViolation(
            "induced-character coefficients disagree with the restriction inner product"
        )
    values.setflags(write=False)
    return InducedCharacter(values=values, multiplicities=mults)


def _monomial_action(U: Subgroup, psi: np.ndarray, g: np.ndarray) -> tuple[np.ndarray, ...]:
    """For each element g[k] and coset representative r_i: the coset j of
    r_i * g[k] = u * r_j, and the phase psi(u) = psi(r_i g[k] r_j^-1); two
    (len(g), [G:U]) arrays."""
    G = U.parent
    psi_on_G = _on_parent(U, psi)
    reps = U.left_coset_reps
    moved = G.mul_table[reps, g[:, None]]  # r_i * g
    target = U.coset_of[moved]
    return target, psi_on_G[G.mul_table[moved, G.inv_table[reps[target]]]]


@dataclass(frozen=True, eq=False)
class InducedRep:
    """The representation induced from a subgroup character, as its monomial
    action on the cosets U\\G: dimension = [G:U], and character is its trace
    at each class representative. psi holds the character's values on
    U.members."""

    U: Subgroup
    psi: np.ndarray
    character: np.ndarray

    @property
    def dimension(self) -> int:
        return self.U.num_cosets

    def matrix(self, g: int) -> np.ndarray:
        """M(g)[i, j] = psi(u) where r_i * g = u * r_j, zero elsewhere: one
        unit-modulus entry per row and column, and g -> M(g) is a
        homomorphism."""
        g = _index("element index", g, self.U.parent.order)
        target, phase = _monomial_action(self.U, self.psi, np.array([g]))
        M = np.zeros((self.dimension, self.dimension), dtype=np.complex128)
        M[np.arange(self.dimension), target[0]] = phase[0]
        return M


def induced_rep(U: Subgroup, psi: ArrayLike) -> InducedRep:
    """The monomial representation induced from psi, one row of values on
    U.members, with its trace at every class representative: the phases of
    the cosets that g fixes."""
    psi = _psi_values(U, psi, 1)
    target, phase = _monomial_action(U, psi, U.parent.class_reps)
    character = np.where(target == np.arange(U.num_cosets), phase, 0).sum(axis=1)
    character.setflags(write=False)
    return InducedRep(U, psi, character)


@dataclass(frozen=True, eq=False)
class SubgroupSpectrum:
    """Everything the checks read about the pairs (U, psi) of a stack of
    characters psi of U, computed once, as read-only arrays with one row per
    psi.

    psi_values is the (num_psis, |U|) stack the spectrum was built from, so
    psi_values[j] holds the j-th psi on U.members. kernels[j, pi] is the
    kernel conj(psi) *_U theta_pi of that psi on the whole group, of shape
    (num_psis, num_irreps, |G|). multiplicities and conjugate_multiplicities,
    of shape (num_psis, num_irreps), count each pi in the representations
    induced from psi and from conj(psi), and residuals[j, pi] is
    |kernels[j, pi, identity] - |U| * conjugate_multiplicities[j, pi]|.
    """

    table: CharacterTable
    U: Subgroup
    psi_values: np.ndarray
    kernels: np.ndarray
    multiplicities: np.ndarray
    conjugate_multiplicities: np.ndarray
    residuals: np.ndarray


def subgroup_spectrum(table: CharacterTable, U: Subgroup, psis: ArrayLike) -> SubgroupSpectrum:
    """Build the kernels of every (U, psi), psi a row of the
    (num_psis, |U|) stack psis, for every irrep in one pass over U, together
    with both multiplicity matrices and the kernel-identity residuals.
    Raises NonIntegralMultiplicity when a multiplicity does not snap to a
    nonnegative integer."""
    if _stack_length(psis) == 0:
        raise ValueError("a spectrum needs at least one character")
    _check_wiring(table, U)
    psi_values = _psi_values(U, psis, 2)
    # one gather and one snap; conj(psi) rows first, whose failures raised first
    both = _frobenius(table, U, np.vstack([np.conj(psi_values), psi_values]))
    mults, conj_mults = np.split(both, 2)
    kernels = convolve_over_subgroup(np.conj(psi_values), U, table.element_values)
    residuals = _modulus(kernels[:, :, 0] - U.order * conj_mults)
    for a in (kernels, mults, conj_mults, residuals):
        a.setflags(write=False)
    return SubgroupSpectrum(table, U, psi_values, kernels, mults, conj_mults, residuals)


# Kernels and samples of one block of characters: how many characters share a
# pass over U (at 1 MiB, `sweep cyclic:200 --subgroup 1` takes a fifth longer).
_SPECTRUM_BYTES = 4 << 20


def subgroup_spectra(
    table: CharacterTable, U: Subgroup, psis: np.ndarray, samples: int = 0
) -> Iterator[SubgroupSpectrum]:
    """subgroup_spectrum of consecutive blocks of rows of the stack psis, in
    order. A block holds about _SPECTRUM_BYTES of kernels and of `samples`
    complex pairings per (psi, irrep), such as the probe's ratios; the
    blocking changes no bits. A block that raises is redone one row at a
    time, so the spectra of the characters before the failing one are
    yielded before it raises, with the message of that psi alone."""
    if (samples := _index("samples", samples)) < 0:
        raise ValueError("samples must be nonnegative")
    per_psi = 16 * table.num_irreps * (table.group.order + samples)
    step = max(1, _SPECTRUM_BYTES // per_psi)
    for start in range(0, _stack_length(psis), step):
        block = psis[start : start + step]
        try:  # yielded unbound, so no block outlives the caller's use of it
            yield subgroup_spectrum(table, U, block)
        except NonIntegralMultiplicity:
            yield from (subgroup_spectrum(table, U, block[i : i + 1]) for i in range(len(block)))


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
    if not (tol := _real("tol", tol)) > 0:  # so that a NaN is refused
        raise ValueError("tol must be positive")
    return spectrum.residuals.max(axis=1) <= tol


# Test functions a plan caches, memory traded for time: past it, blocks are
# re-drawn from their streams once per block of characters.
_PLAN_BYTES = 64 << 20


def _block_grid(r: int, count: int, n: int) -> list[tuple[slice, slice]]:
    """(irreps, slots) rectangles tiling r x count, irreps outermost: the
    row_blocks of count slots of length-n functions, times the row_blocks of
    r irreps of as many such functions as the first slot block holds."""
    width = min(count, next(row_blocks(count, n)).stop)
    return [(p, s) for p in row_blocks(r, width * n) for s in row_blocks(count, n)]


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
        F = test_functions(table.group, streams[pis[rows], None], reserved[rows])
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
    (r, count) arrays. blocks tiles (irreps, slots) into the rectangles of
    _block_grid, each with its (irreps, slots, |G|) functions, or None past
    _PLAN_BYTES, when it is re-drawn on use from the same streams and
    indices, so the budget changes no bits.
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
                F = test_functions(self.table.group, self.streams[p, None], self.indices[p, s])
            yield p, s, F


def probe_plan(table: CharacterTable, count: int, seed: int = 0) -> ProbePlan:
    """Draw and screen count test functions per irrep of table, in blocks,
    each irrep on its own substream keyed by (seed, pi)."""
    if (count := _index("num_test_functions", count)) < 1:
        raise ValueError("num_test_functions must be at least 1")
    r, n = table.num_irreps, table.group.order
    streams = derive_stream_seed(seed, np.arange(r))
    indices = np.tile(np.arange(count), (r, 1))
    theta = np.empty((r, count), dtype=np.complex128)
    flagged = np.zeros((r, count), dtype=bool)
    room = _PLAN_BYTES
    blocks = []
    for p, s in _block_grid(r, count, n):
        F = test_functions(table.group, streams[p, None], indices[p, s])
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
                F = test_functions(table.group, streams[p, None], indices[p, s])
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
    flagged = plan.flagged
    ratios = np.empty((len(kernels),) + flagged.shape, dtype=np.complex128)
    for p, s, F in plan.functions():
        block = _dots(F, kernels[:, p, None, :])
        clean = ~flagged[p, s]
        # Python complex division, numpy's differs in the last bits
        thetas = plan.theta[p, s][clean].tolist()
        rows = block[:, clean].tolist()
        block[:, clean] = [[phi / theta for phi, theta in zip(row, thetas)] for row in rows]
        block[:, ~clean] = complex(float("nan"), float("nan"))
        ratios[:, p, s] = block
    first = ratios[:, np.arange(flagged.shape[0]), np.argmin(flagged, axis=1)]
    spread = np.where(flagged, 0.0, _modulus(ratios - first[..., None])).max(axis=2)
    spread[:, flagged.all(axis=1)] = np.nan
    constant = spread <= 1e-6 * (1.0 + _modulus(first))
    for a in (ratios, first, spread, constant):
        a.setflags(write=False)
    return ProbeRecord(ratios, flagged, first, spread, constant)
