"""High-precision laboratory for the series sum 1/(sin^2(n) * n^3).

Everything rests on ball arithmetic with certified error bounds: exact
big-integer combinatorics, a pi engine with canonical rounding, one argument
reduction mod pi for integer and dyadic arguments, continued-fraction analysis of
the near-resonances, deterministic checkpointable partial sums, and a
scan of the bounding inequality that controls convergence.
"""

import importlib

# public name -> submodule that defines it; imported on first use (PEP 562),
# so ``import flintlab`` and ``python -m flintlab <cmd>`` load only what runs
_HOME = {
    **dict.fromkeys(("GValue", "binomial", "g_value", "g_value_double_sum",
                     "multiple_angle_coefficients"), "combinatorics"),
    **dict.fromkeys(("CriterionReport", "ScanResult", "check_criterion",
                     "scan_criterion"), "criterion"),
    **dict.fromkeys(("CheckpointMismatchError", "DegenerateInputError", "DomainError",
                     "FlintlabError", "PrecisionError", "ResourceLimitError",
                     "UndecidableError", "UsageError"), "errors"),
    **dict.fromkeys(("ResidualReport", "seeded_thetas", "verify_angle_difference",
                     "verify_multiple_angle", "verify_multiple_angle_sweep",
                     "verify_sinc_limit"), "identities"),
    **dict.fromkeys(("MAX_BITS", "MpReal", "compute_pi", "cos_reduced", "exact_decimal",
                     "guaranteed_decimal", "sin_int", "sin_reduced"), "mpreal"),
    **dict.fromkeys(("CfExpansion", "Convergent", "SpikeRecord", "cf_terms",
                     "convergent_numerators_up_to", "convergents", "local_exponent",
                     "spike_indices"), "rationality"),
    **dict.fromkeys(("EquivalenceRow", "PartialSumResult", "SeriesSpec",
                     "equivalence_experiment", "load_checkpoint", "partial_sum",
                     "save_checkpoint", "term"), "series"),
}

__version__ = "0.1.0"

__all__ = sorted(_HOME)


def __getattr__(name):
    try:
        home = _HOME[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{home}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
