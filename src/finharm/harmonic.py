"""Convolution over a subgroup, distribution characters, and the transform
layer: everything needed to state and verify the identity

    (psi *_U f)(1) = sum_pi mu_pi * Phi_pi(f),

where Phi_pi(f) = sum_g f(g) * (conj(psi) *_U theta_pi)(g), mu_pi is the
Plancherel weight deg(pi)/|G|, and all sums run over the finite group with
counting measure.

Accumulation over irreps uses compensated (Kahan) summation in ascending
index order so reports are reproducible to the last bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .characters import CharacterTable, LinearCharacter
from .errors import GroupMismatch, IndexOutOfRange, SubgroupMismatch
from .groups import FiniteGroup, Subgroup

if TYPE_CHECKING:
    from .induction import PairSpectrum


class GroupFunction:
    """A complex-valued function on a group, stored per element index."""

    __slots__ = ("group", "values")

    def __init__(self, group: FiniteGroup, values: Sequence[complex] | np.ndarray) -> None:
        vals = np.array(values, dtype=np.complex128)
        if vals.shape != (group.order,):
            raise ValueError(
                f"expected {group.order} values, got shape {vals.shape}"
            )
        vals.setflags(write=False)
        self.group = group
        self.values = vals

    @classmethod
    def delta(cls, group: FiniteGroup, g: int) -> "GroupFunction":
        if not 0 <= g < group.order:
            raise IndexOutOfRange(f"element index {g} out of range")
        vals = np.zeros(group.order, dtype=np.complex128)
        vals[g] = 1.0
        return cls(group, vals)

    @classmethod
    def indicator(cls, group: FiniteGroup, elements: Iterable[int]) -> "GroupFunction":
        vals = np.zeros(group.order, dtype=np.complex128)
        for g in elements:
            if not 0 <= int(g) < group.order:
                raise IndexOutOfRange(f"element index {g} out of range")
            vals[int(g)] = 1.0
        return cls(group, vals)

    @property
    def at_identity(self) -> complex:
        return complex(self.values[0])

    @property
    def l1_norm(self) -> float:
        return float(np.abs(self.values).sum())

    def right_translate(self, g: int) -> "GroupFunction":
        """The function x -> f(x * g); the supported idiom for evaluating
        identity-pinned checks at an arbitrary point."""
        if not 0 <= g < self.group.order:
            raise IndexOutOfRange(f"element index {g} out of range")
        return GroupFunction(self.group, self.values[self.group.mul_table[:, g]])

    def __repr__(self) -> str:
        return f"<GroupFunction on {self.group!r}>"


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


def character_as_function(table: CharacterTable, pi: int) -> GroupFunction:
    """theta_pi expanded from conjugacy classes to the whole group."""
    return GroupFunction(table.group, table.character_on_elements(pi))


def convolve_over_subgroup(coeffs: np.ndarray, U: Subgroup, values: np.ndarray) -> np.ndarray:
    """x -> sum_{u in U} coeffs(u) * values(u^-1 x), counting measure on U.

    coeffs is aligned with U.members; values indexes the parent group along
    its last axis, so a stack of functions is convolved in one pass. Members
    are consumed in ascending index order so the accumulation order is
    reproducible.
    """
    if np.shape(coeffs) != (U.order,):
        raise SubgroupMismatch("coefficients must be aligned with the members of U")
    if values.shape[-1:] != (U.parent.order,):
        raise GroupMismatch("values must live on the parent group of U")
    mul = U.parent.mul_table
    inv = U.parent.inv_table
    out = np.zeros(values.shape, dtype=np.complex128)
    for u, c in zip(U.members, np.asarray(coeffs).tolist()):
        if c == 0:
            continue
        out += c * values[..., mul[int(inv[u])]]
    return out


def theta(table: CharacterTable, pi: int, f: GroupFunction) -> complex:
    """Distribution character: sum_x f(x) * chi_pi(class of x)."""
    if f.group is not table.group:
        raise GroupMismatch("f must live on the table's group")
    return complex(np.dot(f.values, table.character_on_elements(pi)))


def plancherel_invert_at_identity(table: CharacterTable, F: np.ndarray) -> np.ndarray:
    """sum_pi mu_pi * Theta_pi(f) for each row f of F, a (k, |G|) array;
    equals f(identity) for a correct table."""
    if F.ndim != 2 or F.shape[1] != table.group.order:
        raise GroupMismatch("F must hold functions on the table's group, one per row")
    return _kahan_rows(_dots(F[:, None, :], table.element_values) * table.plancherel_weights)


def whittaker_transform(U: Subgroup, psi: LinearCharacter, f: GroupFunction) -> GroupFunction:
    """psi *_U f. The output W satisfies W(u*g) = psi(u) * W(g) for u in U."""
    if psi.subgroup is not U:
        raise SubgroupMismatch("psi must be a character of U")
    if f.group is not U.parent:
        raise GroupMismatch("f must live on the parent group of U")
    return GroupFunction(U.parent, convolve_over_subgroup(psi.member_values, U, f.values))


def phi(spectrum: PairSpectrum, pi: int, f: GroupFunction) -> complex:
    """Generalized character: sum_g f(g) * (conj(psi) *_U theta_pi)(g)."""
    if f.group is not spectrum.table.group:
        raise GroupMismatch("f must live on the table's group")
    if not 0 <= pi < spectrum.table.num_irreps:
        raise IndexOutOfRange(f"irrep index {pi} out of range")
    return complex(np.dot(f.values, spectrum.kernels[pi]))


@dataclass(frozen=True, eq=False)
class WhittakerCheckRecord:
    """Both sides of the transform identity for k test functions, as
    read-only arrays: lhs, rhs, abs_error and f_l1 of shape (k,), and phi of
    shape (k, num_irreps) with phi[i, pi] = Phi_pi(f_i)."""

    lhs: np.ndarray
    phi: np.ndarray
    rhs: np.ndarray
    abs_error: np.ndarray
    f_l1: np.ndarray


def generalized_plancherel_check_batch(
    spectrum: PairSpectrum, F: np.ndarray
) -> WhittakerCheckRecord:
    """Compare (psi *_U f)(1) against sum_pi mu_pi * Phi_pi(f) for each row f
    of F, a (k, |G|) array, reading the kernels of the pair from its spectrum."""
    G = spectrum.table.group
    if F.ndim != 2 or F.shape[1] != G.order:
        raise GroupMismatch("F must hold functions on the table's group, one per row")
    # (psi *_U f)(1) = sum_u psi(u) f(u^-1), over U in ascending order as in
    # convolve_over_subgroup
    lhs = np.zeros(len(F), dtype=np.complex128)
    for u, c in zip(spectrum.U.members, spectrum.psi.member_values.tolist()):
        lhs += c * F[:, G.inv_table[u]]
    phis = _dots(F[:, None, :], spectrum.kernels)
    rhs = _kahan_rows(phis * spectrum.table.plancherel_weights)
    arrays = (lhs, phis, rhs, _modulus(lhs - rhs), np.abs(F).sum(axis=1))
    for a in arrays:
        a.setflags(write=False)
    return WhittakerCheckRecord(*arrays)
