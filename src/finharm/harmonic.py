"""Convolution over a subgroup, distribution characters, and the transform
layer: everything needed to state and verify the identity

    (psi *_U f)(1) = sum_pi mu_pi * Phi_pi(f),

where Phi_pi(f) = sum_g f(g) * (conj(psi) *_U theta_pi)(g), mu_pi is the
Plancherel weight deg(pi)/|G|, and all sums run over the finite group with
counting measure.

A function on G is a row of a (k, |G|) complex array indexed by element:
Theta_pi(f) is f @ table.element_values[pi], Phi_pi(f) for the j-th psi of a
spectrum is spectrum.kernels[j, pi] @ f, and psi *_U f is
convolve_over_subgroup(psi, U, f) for psi a row of linear_characters(U).

Accumulation over irreps uses compensated (Kahan) summation in ascending
index order so reports are reproducible to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .characters import CharacterTable
from .errors import GroupMismatch, SubgroupMismatch
from .groups import Subgroup

if TYPE_CHECKING:
    from .induction import SubgroupSpectrum


def _dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """sum_x a[..., x] * b[..., x] over broadcast stacks of vectors. Each
    entry is the vector.vector product np.dot(a_row, b_row) bit for bit,
    which F @ B.T and einsum are not."""
    return (a[..., None, :] @ b[..., :, None])[..., 0, 0]


def _kahan_rows(terms: np.ndarray) -> np.ndarray:
    """Compensated sum of each row of terms, over its columns in ascending
    order; the same operations per row as a scalar Kahan loop."""
    total = np.zeros(terms.shape[:-1], dtype=np.complex128)
    carry = np.zeros_like(total)
    for column in np.moveaxis(terms, -1, 0):
        y = column - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


def _modulus(z: np.ndarray) -> np.ndarray:
    """|z| with the bits of Python abs(complex), which np.abs does not give."""
    return np.hypot(z.real, z.imag)


def _coefficient_shape(stack: tuple[int, ...], ndim: int) -> tuple[int, ...]:
    """The shape that broadcasts a stack of coefficients over ndim trailing
    axes; () for a single coefficient. A single one stays a 0-d scalar,
    because numpy rounds a complex product whose operands all hold one
    element differently from a scalar times an array."""
    return () if np.prod(stack, dtype=int) == 1 else stack + (1,) * ndim


def convolve_over_subgroup(coeffs: np.ndarray, U: Subgroup, values: np.ndarray) -> np.ndarray:
    """x -> sum_{u in U} coeffs(u) * values(u^-1 x), counting measure on U.

    coeffs is aligned with U.members along its last axis; a leading axis of
    it stacks coefficient vectors, and out[i] convolves coeffs[i]. values
    indexes the parent group along its last axis, so a stack of functions is
    convolved in one pass. Members are consumed in ascending index order so
    the accumulation order is reproducible, and every coefficient vector of a
    stack sees the same products and sums as it would alone. A member whose
    coefficients are all zero is skipped.
    """
    coeffs = np.asarray(coeffs)
    if coeffs.ndim not in (1, 2) or coeffs.shape[-1] != U.order:
        raise SubgroupMismatch("coefficients must be aligned with the members of U")
    if values.shape[-1:] != (U.parent.order,):
        raise GroupMismatch("values must live on the parent group of U")
    mul = U.parent.mul_table
    inv = U.parent.inv_table
    out = np.zeros(coeffs.shape[:-1] + values.shape, dtype=np.complex128)
    term = np.empty_like(out)  # one product buffer, not a fresh array per member
    spread = _coefficient_shape(coeffs.shape[:-1], values.ndim)
    live = coeffs.reshape(-1, U.order).any(axis=0).tolist()
    for u, c, nonzero in zip(U.members, np.moveaxis(coeffs, -1, 0), live):
        if nonzero:
            out += np.multiply(c.reshape(spread), values[..., mul[int(inv[u])]], out=term)
    return out


def plancherel_invert_at_identity(table: CharacterTable, F: np.ndarray) -> np.ndarray:
    """sum_pi mu_pi * Theta_pi(f) for each row f of F, a (k, |G|) array;
    equals f(identity) for a correct table."""
    if F.ndim != 2 or F.shape[1] != table.group.order:
        raise GroupMismatch("F must hold functions on the table's group, one per row")
    return _kahan_rows(_dots(F[:, None, :], table.element_values) * table.plancherel_weights)


@dataclass(frozen=True, eq=False)
class WhittakerCheckRecord:
    """Both sides of the transform identity for every psi of a spectrum and
    k test functions, as read-only arrays: lhs, rhs and abs_error of shape
    (num_psis, k), and phi of shape (num_psis, k, num_irreps) with
    phi[j, i, pi] = Phi_pi(f_i) for the j-th psi."""

    lhs: np.ndarray
    phi: np.ndarray
    rhs: np.ndarray
    abs_error: np.ndarray


def generalized_plancherel_check_batch(
    spectrum: SubgroupSpectrum, F: np.ndarray
) -> WhittakerCheckRecord:
    """Compare (psi *_U f)(1) against sum_pi mu_pi * Phi_pi(f) for every psi
    of the spectrum and each row f of F, a (k, |G|) array, reading the
    kernels from the spectrum."""
    G = spectrum.table.group
    if F.ndim != 2 or F.shape[1] != G.order:
        raise GroupMismatch("F must hold functions on the table's group, one per row")
    # (psi *_U f)(1) = sum_u psi(u) f(u^-1), over U in ascending order as in
    # convolve_over_subgroup
    psi_values = spectrum.psi_values
    lhs = np.zeros((len(psi_values), len(F)), dtype=np.complex128)
    spread = _coefficient_shape(psi_values.shape[:1], 1)
    for u, c in zip(spectrum.U.members, psi_values.T):
        lhs += c.reshape(spread) * F[:, G.inv_table[u]]
    phis = _dots(F[:, None, :], spectrum.kernels[:, None])
    rhs = _kahan_rows(phis * spectrum.table.plancherel_weights)
    arrays = (lhs, phis, rhs, _modulus(lhs - rhs))
    for a in arrays:
        a.setflags(write=False)
    return WhittakerCheckRecord(*arrays)
