"""Exact harmonic analysis on finite groups.

Builds finite groups, computes their full character tables, and
machine-verifies the subgroup-transform identity
(psi *_U f)(1) = sum_pi mu_pi Phi_pi(f) together with the multiplicity
bookkeeping behind it, with every integral an exact finite sum.
"""

from ._rng import test_functions
from .characters import (
    CharacterTable,
    OrthogonalityReport,
    character_table,
    linear_characters,
    verify_orthogonality,
)
from .errors import (
    ClosureExceedsCap,
    EigensplitFailure,
    FinharmError,
    GroupMismatch,
    IndexOutOfRange,
    InvalidPermutation,
    NonIntegralMultiplicity,
    OrderTooLarge,
    ParseError,
    SubgroupMismatch,
    SweepAborted,
    ToleranceViolation,
    UnsupportedParameter,
)
from .groups import (
    DEFAULT_PERM_ORDER_CAP,
    MAX_NAMED_ORDER,
    SUBGROUP_ENUMERATION_CAP,
    FiniteGroup,
    Subgroup,
    build_from_permutations,
    enumerate_subgroups,
    make_named_group,
    subgroup_closure,
)
from .harmonic import (
    WhittakerCheckRecord,
    convolve_over_subgroup,
    generalized_plancherel_check_batch,
    plancherel_invert_at_identity,
)
from .induction import (
    InducedCharacter,
    InducedRep,
    ProbePlan,
    ProbeRecord,
    SubgroupSpectrum,
    conjecture_probe,
    induced_character,
    induced_rep,
    kernel_multiplicity_identity_check,
    probe_plan,
    subgroup_spectra,
    subgroup_spectrum,
)
from .reports import RunConfig, SweepReport, build_report

__version__ = "0.1.0"

__all__ = [
    "CharacterTable",
    "OrthogonalityReport",
    "character_table",
    "linear_characters",
    "verify_orthogonality",
    "ClosureExceedsCap",
    "EigensplitFailure",
    "FinharmError",
    "GroupMismatch",
    "IndexOutOfRange",
    "InvalidPermutation",
    "NonIntegralMultiplicity",
    "OrderTooLarge",
    "ParseError",
    "SubgroupMismatch",
    "SweepAborted",
    "ToleranceViolation",
    "UnsupportedParameter",
    "DEFAULT_PERM_ORDER_CAP",
    "MAX_NAMED_ORDER",
    "SUBGROUP_ENUMERATION_CAP",
    "FiniteGroup",
    "Subgroup",
    "build_from_permutations",
    "enumerate_subgroups",
    "make_named_group",
    "subgroup_closure",
    "WhittakerCheckRecord",
    "convolve_over_subgroup",
    "generalized_plancherel_check_batch",
    "plancherel_invert_at_identity",
    "InducedCharacter",
    "InducedRep",
    "ProbePlan",
    "ProbeRecord",
    "SubgroupSpectrum",
    "conjecture_probe",
    "induced_character",
    "induced_rep",
    "kernel_multiplicity_identity_check",
    "probe_plan",
    "subgroup_spectra",
    "subgroup_spectrum",
    "RunConfig",
    "SweepReport",
    "build_report",
    "test_functions",
    "__version__",
]
