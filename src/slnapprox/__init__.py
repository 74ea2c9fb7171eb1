"""Exact rational approximation on determinant-one matrix groups.

Enumerate the group points of a prescribed denominator inside a small ball
around a real target, measure the p-adic ball volumes and congruence
densities that govern how many there should be, run sieve lower bounds and
spectral decay checks on the results, and search for approximants whose
polynomial values have few prime factors.
"""

from .config import DEFAULT_CONFIG, Config
from .core import (
    BallSpec,
    Polynomial,
    PolynomialFamily,
    RationalGroupPoint,
    ball_membership,
    family_from_file,
    family_from_preset,
    n_coprime_part,
    padic_norm,
    reduce,
    snap_dyadic,
)
from .densities import (
    DensityFunction,
    GcdCertificate,
    delta_n,
    density_table,
    lang_weil_report,
    local_density,
)
from .engine import (
    BOUNDED_CENTERS,
    CountingReport,
    ExponentParameters,
    WitnessRecord,
    counting_verification,
    find_witness,
    exponent_parameters,
)
from .enumeration import EnumerationResult, enumerate_points
from .errors import SlnApproxError
from .sieve import (
    SievedValue,
    SieveReport,
    almost_prime_count,
    axiom_report,
    beta_sieve_lower_bound,
    coprime_part,
    is_r_prime,
    run_sieve,
)
from .spectral import (
    GapDecayReport,
    HeckeOperatorGraph,
    build_hecke_graph,
    gap_decay_report,
    second_singular_value,
)
from .volumes import (
    finite_volume,
    growth_exponent,
    harish_chandra_xi,
    hnf_coset_oracle,
    local_ball_volume,
)

__version__ = "0.1.0"

__all__ = [
    "BOUNDED_CENTERS",
    "BallSpec",
    "Config",
    "CountingReport",
    "DEFAULT_CONFIG",
    "DensityFunction",
    "EnumerationResult",
    "GapDecayReport",
    "GcdCertificate",
    "HeckeOperatorGraph",
    "Polynomial",
    "PolynomialFamily",
    "RationalGroupPoint",
    "SievedValue",
    "SieveReport",
    "SlnApproxError",
    "ExponentParameters",
    "WitnessRecord",
    "almost_prime_count",
    "axiom_report",
    "ball_membership",
    "beta_sieve_lower_bound",
    "build_hecke_graph",
    "coprime_part",
    "counting_verification",
    "delta_n",
    "density_table",
    "enumerate_points",
    "family_from_file",
    "family_from_preset",
    "find_witness",
    "finite_volume",
    "gap_decay_report",
    "growth_exponent",
    "harish_chandra_xi",
    "hnf_coset_oracle",
    "is_r_prime",
    "lang_weil_report",
    "local_ball_volume",
    "local_density",
    "n_coprime_part",
    "padic_norm",
    "reduce",
    "run_sieve",
    "second_singular_value",
    "snap_dyadic",
    "exponent_parameters",
]
