"""Exact distribution of r-free numbers in arithmetic progressions.

A positive integer is r-free when no r-th power of a prime divides it
(r = 2: the squarefree numbers).  This package builds sieve tables for the
relevant arithmetic functions, counts r-free numbers in progressions
exactly, evaluates Euler-product main terms and error terms, verifies the
small-d/large-d split of the count as an exact identity, counts power
residues mod s, and drives averaged worst-case error experiments over
sweeps of moduli.
"""

from .errors import ConfigError, ResourceLimitError, SelfCheckError
from .harness import (
    BvRow,
    ExperimentConfig,
    class_counts,
    modulus_threshold,
    rows_to_csv,
    run_experiment,
    write_plot,
)
from .multiplicative import (
    FValue,
    TauSumRow,
    TauTable,
    f_value,
    omega_vs_tau_check,
    tau_partial_sum_check,
    tau_table,
    tau_value,
    zeta,
)
from .progressions import (
    DecompositionReport,
    LemmaBoundRatios,
    ProgressionReport,
    count_r_free_bruteforce,
    count_r_free_in_progression,
    decompose,
    decompose_many,
    error_term,
    lemma_bound_probe,
    main_term,
)
from .residues import (
    ModulusMaximum,
    ResidueCount,
    count_solutions,
    count_solutions_bruteforce,
    counts_vector,
    per_modulus_maxima,
)
from .sieve import (
    FactorTable,
    Factorization,
    SieveTable,
    build_sieve,
    factor_sieve,
    is_r_free,
    load_cache,
    mu_r_direct,
    r_free_counts,
    save_cache,
    small_primes,
    totient_value,
    trial_factorize,
)

__version__ = "0.1.0"

__all__ = [
    "BvRow",
    "ConfigError",
    "DecompositionReport",
    "ExperimentConfig",
    "FValue",
    "FactorTable",
    "Factorization",
    "LemmaBoundRatios",
    "ModulusMaximum",
    "ProgressionReport",
    "ResidueCount",
    "ResourceLimitError",
    "SelfCheckError",
    "SieveTable",
    "TauSumRow",
    "TauTable",
    "build_sieve",
    "class_counts",
    "count_r_free_bruteforce",
    "count_r_free_in_progression",
    "count_solutions",
    "count_solutions_bruteforce",
    "counts_vector",
    "decompose",
    "decompose_many",
    "error_term",
    "f_value",
    "factor_sieve",
    "is_r_free",
    "lemma_bound_probe",
    "load_cache",
    "main_term",
    "modulus_threshold",
    "mu_r_direct",
    "r_free_counts",
    "omega_vs_tau_check",
    "per_modulus_maxima",
    "rows_to_csv",
    "run_experiment",
    "save_cache",
    "small_primes",
    "tau_partial_sum_check",
    "tau_table",
    "tau_value",
    "totient_value",
    "trial_factorize",
    "write_plot",
    "zeta",
]
