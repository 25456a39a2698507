"""High-precision laboratory for the series sum 1/(sin^2(n) * n^3).

Everything rests on ball arithmetic with certified error bounds: exact
big-integer combinatorics, a pi engine with canonical rounding, one argument
reduction mod pi for integer and dyadic arguments, continued-fraction analysis of
the near-resonances, deterministic checkpointable partial sums, and a
scan of the bounding inequality that controls convergence.
"""

from .combinatorics import (
    GValue,
    binomial,
    g_value,
    g_value_double_sum,
    multiple_angle_coefficients,
)
from .criterion import (
    CriterionReport,
    ScanResult,
    check_criterion,
    scan_criterion,
)
from .errors import (
    CheckpointMismatchError,
    DegenerateInputError,
    DomainError,
    FlintlabError,
    PrecisionError,
    ResourceLimitError,
    UndecidableError,
    UsageError,
)
from .identities import (
    ResidualReport,
    seeded_thetas,
    verify_angle_difference,
    verify_multiple_angle,
    verify_multiple_angle_sweep,
    verify_sinc_limit,
)
from .mpreal import (
    MAX_BITS,
    MpReal,
    compute_pi,
    cos_reduced,
    exact_decimal,
    guaranteed_decimal,
    sin_int,
    sin_reduced,
)
from .rationality import (
    CfExpansion,
    Convergent,
    SpikeRecord,
    cf_terms,
    convergent_numerators_up_to,
    convergents,
    local_exponent,
    spike_indices,
)
from .series import (
    EquivalenceRow,
    PartialSumResult,
    SeriesSpec,
    equivalence_experiment,
    load_checkpoint,
    partial_sum,
    save_checkpoint,
    term,
)

__version__ = "0.1.0"

__all__ = [
    "MAX_BITS",
    "CfExpansion",
    "CheckpointMismatchError",
    "Convergent",
    "CriterionReport",
    "DegenerateInputError",
    "DomainError",
    "EquivalenceRow",
    "FlintlabError",
    "GValue",
    "MpReal",
    "PartialSumResult",
    "PrecisionError",
    "ResidualReport",
    "ResourceLimitError",
    "ScanResult",
    "SeriesSpec",
    "SpikeRecord",
    "UndecidableError",
    "UsageError",
    "binomial",
    "cf_terms",
    "check_criterion",
    "compute_pi",
    "convergent_numerators_up_to",
    "convergents",
    "cos_reduced",
    "equivalence_experiment",
    "exact_decimal",
    "g_value",
    "g_value_double_sum",
    "guaranteed_decimal",
    "load_checkpoint",
    "local_exponent",
    "multiple_angle_coefficients",
    "partial_sum",
    "save_checkpoint",
    "scan_criterion",
    "seeded_thetas",
    "sin_int",
    "sin_reduced",
    "spike_indices",
    "term",
    "verify_angle_difference",
    "verify_multiple_angle",
    "verify_multiple_angle_sweep",
    "verify_sinc_limit",
]
