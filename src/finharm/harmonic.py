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
from typing import TYPE_CHECKING, Iterable, NamedTuple, Sequence

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


def _kahan_sum(terms: Iterable[complex]) -> complex:
    total = 0.0 + 0.0j
    carry = 0.0 + 0.0j
    for term in terms:
        y = term - carry
        t = total + y
        carry = (t - total) - y
        total = t
    return total


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


def plancherel_invert_at_identity(table: CharacterTable, f: GroupFunction) -> complex:
    """sum_pi mu_pi * theta(pi, f); equals f(identity) for a correct table."""
    if f.group is not table.group:
        raise GroupMismatch("f must live on the table's group")
    weights = table.plancherel_weights
    return _kahan_sum(
        float(weights[pi]) * theta(table, pi, f) for pi in range(table.num_irreps)
    )


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


class IrrepTerm(NamedTuple):
    mu: float
    theta: complex
    phi: complex
    multiplicity: int


@dataclass(frozen=True)
class WhittakerCheckRecord:
    """Both sides of the transform identity for one test function."""

    lhs: complex
    per_pi: tuple[IrrepTerm, ...]
    rhs: complex
    abs_error: float
    f_l1: float


def generalized_plancherel_check_batch(
    spectrum: PairSpectrum, fs: Sequence[GroupFunction]
) -> list[WhittakerCheckRecord]:
    """Compare (psi *_U f)(1) against sum_pi mu_pi * Phi_pi(f) for each f,
    reading the kernels and multiplicities of the pair from its spectrum."""
    table = spectrum.table
    weights = table.plancherel_weights
    records = []
    for f in fs:
        lhs = complex(whittaker_transform(spectrum.U, spectrum.psi, f).values[0])
        terms = tuple(
            IrrepTerm(
                mu=float(weights[pi]),
                theta=complex(np.dot(f.values, table.element_values[pi])),
                phi=complex(np.dot(f.values, spectrum.kernels[pi])),
                multiplicity=spectrum.multiplicities[pi],
            )
            for pi in range(table.num_irreps)
        )
        rhs = _kahan_sum(term.mu * term.phi for term in terms)
        records.append(
            WhittakerCheckRecord(
                lhs=lhs,
                per_pi=terms,
                rhs=rhs,
                abs_error=abs(lhs - rhs),
                f_l1=f.l1_norm,
            )
        )
    return records
