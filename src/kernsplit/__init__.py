"""Kernel arithmetic, powered-number counting, and certified two-part splits.

The public names resolve on first access (PEP 562), so ``import
kernsplit`` imports no submodule and a command loads only what it runs.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_SOURCES = {
    **dict.fromkeys(
        [
            "KERNEL_BOUND_4TH",
            "CheckResult",
            "Decomposition",
            "RangeScanReport",
            "SplitWitness",
            "choose_exponents",
            "solve_diophantine",
            "split",
            "split_parts",
            "verify_exact",
            "verify_range",
            "verify_structural",
        ],
        "decompose",
    ),
    **dict.fromkeys(
        [
            "FactorLimitError",
            "Factorization",
            "RadicalTable",
            "SieveLimitError",
            "factorize",
            "radical",
            "radical_sieve",
        ],
        "kernel",
    ),
    **dict.fromkeys(
        [
            "BestSplit",
            "ComparisonReport",
            "ProbeReport",
            "best_decomposition",
            "conjecture_probe",
            "constructive_vs_oracle",
        ],
        "oracle",
    ),
    **dict.fromkeys(
        [
            "CountReport",
            "Theta",
            "count_log_weighted",
            "count_members",
            "is_member",
            "multiplicity_index",
            "subset_check_powers",
        ],
        "powered",
    ),
}

__all__ = sorted(_SOURCES)


def __getattr__(name: str):
    try:
        module = _SOURCES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
