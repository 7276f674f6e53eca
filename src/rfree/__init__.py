"""Exact distribution of r-free numbers in arithmetic progressions.

A positive integer is r-free when no r-th power of a prime divides it
(r = 2: the squarefree numbers).  This package counts r-free numbers up
to x and in progressions exactly (by a windowed sieve that holds no
table), evaluates Euler-product main terms and error terms, verifies the
small-d/large-d split of the count as an exact identity, counts power
residues mod s, and drives averaged worst-case error experiments over
sweeps of moduli.

Every public name is imported from its module on first use (PEP 562), so
``import rfree`` loads no submodule and no numpy; ``from rfree import X``
loads only the module that defines X.
"""

import importlib

__version__ = "0.1.0"

# public name -> the submodule that defines it
_EXPORTS = {
    **dict.fromkeys(
        ("Factorization", "is_r_free", "mu_r_direct", "trial_factorize"),
        "arith",
    ),
    **dict.fromkeys(("ConfigError", "ResourceLimitError", "SelfCheckError"), "errors"),
    **dict.fromkeys(
        ("BvRow", "ExperimentConfig", "class_counts", "modulus_threshold",
         "rows_to_csv", "run_experiment", "write_plot"),
        "harness",
    ),
    **dict.fromkeys(
        ("FValue", "TauSumRow", "f_value", "tau_partial_sum_check", "tau_value", "zeta"),
        "multiplicative",
    ),
    **dict.fromkeys(
        ("DecompositionReport", "LemmaBoundRatios", "ProgressionReport",
         "count_r_free_bruteforce", "count_r_free_in_progression", "decompose",
         "decompose_many", "error_term", "lemma_bound_probe", "main_term"),
        "progressions",
    ),
    **dict.fromkeys(
        ("ModulusMaximum", "ResidueCount", "count_solutions",
         "count_solutions_bruteforce", "counts_vector", "per_modulus_maxima"),
        "residues",
    ),
    **dict.fromkeys(
        ("mobius_sieve", "r_free_counts", "save_cache"),
        "sieve",
    ),
}

__all__ = sorted(_EXPORTS)


def __getattr__(name):
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
