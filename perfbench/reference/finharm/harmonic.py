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
from typing import Iterable, Mapping, NamedTuple, Sequence

import numpy as np

from .characters import CharacterTable, LinearCharacter
from .errors import GroupMismatch, IndexOutOfRange, SubgroupMismatch
from .groups import FiniteGroup, Subgroup


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


def convolve_over_subgroup(
    g: Mapping[int, complex], U: Subgroup, f: GroupFunction
) -> GroupFunction:
    """x -> sum_{u in U} g(u) * f(u^-1 x), counting measure on U.

    g maps subgroup member indices to coefficients; members are consumed in
    ascending index order so the accumulation order is reproducible.
    """
    if f.group is not U.parent:
        raise GroupMismatch("f must live on the parent group of U")
    mul = U.parent.mul_table
    inv = U.parent.inv_table
    out = np.zeros(U.parent.order, dtype=np.complex128)
    for u in sorted(g):
        if not U.member_mask[u]:
            raise SubgroupMismatch(f"coefficient index {u} is not a member of U")
        c = complex(g[u])
        if c == 0:
            continue
        out += c * f.values[mul[int(inv[u])]]
    return GroupFunction(U.parent, out)


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
    return convolve_over_subgroup(psi.values, U, f)


def whittaker_kernel(
    table: CharacterTable, pi: int, U: Subgroup, psi: LinearCharacter
) -> GroupFunction:
    """x -> sum_{u in U} conj(psi(u)) * chi_pi(class of u^-1 x)."""
    if U.parent is not table.group:
        raise GroupMismatch("U must be a subgroup of the table's group")
    if psi.subgroup is not U:
        raise SubgroupMismatch("psi must be a character of U")
    theta_fn = character_as_function(table, pi)
    conj_map = {u: v.conjugate() for u, v in psi.values.items()}
    return convolve_over_subgroup(conj_map, U, theta_fn)


def phi(
    table: CharacterTable, pi: int, U: Subgroup, psi: LinearCharacter, f: GroupFunction
) -> complex:
    """Generalized character: sum_g f(g) * kernel(g) with the kernel above."""
    if f.group is not table.group:
        raise GroupMismatch("f must live on the table's group")
    kernel = whittaker_kernel(table, pi, U, psi)
    return complex(np.dot(f.values, kernel.values))


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
    table: CharacterTable,
    U: Subgroup,
    psi: LinearCharacter,
    fs: Sequence[GroupFunction],
) -> list[WhittakerCheckRecord]:
    """Run the identity check for several test functions at once.

    Kernels and multiplicities depend only on (table, U, psi), so they are
    computed once and reused across the batch.
    """
    from .induction import multiplicity_frobenius  # deferred: induction imports us

    r = table.num_irreps
    kernels = [whittaker_kernel(table, pi, U, psi).values for pi in range(r)]
    mults = [multiplicity_frobenius(table, pi, U, psi) for pi in range(r)]
    weights = table.plancherel_weights
    records = []
    for f in fs:
        transformed = whittaker_transform(U, psi, f)
        lhs = complex(transformed.values[0])
        terms = tuple(
            IrrepTerm(
                mu=float(weights[pi]),
                theta=complex(np.dot(f.values, table.element_values[pi])),
                phi=complex(np.dot(f.values, kernels[pi])),
                multiplicity=mults[pi],
            )
            for pi in range(r)
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


def generalized_plancherel_check(
    table: CharacterTable, U: Subgroup, psi: LinearCharacter, f: GroupFunction
) -> WhittakerCheckRecord:
    """Compare (psi *_U f)(1) against sum_pi mu_pi * Phi_pi(f)."""
    return generalized_plancherel_check_batch(table, U, psi, [f])[0]
