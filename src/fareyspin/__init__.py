"""Modified Farey fractions on the hypercube group, their Walsh-Hadamard
spectra, machine checks of the ferromagnetic sign structure, and partition
sums linked to the Riemann zeta function."""

from . import _threads  # first, so that numpy loads without OpenBLAS's thread pool

from .farey import (
    DEFAULT_MAX_LEVEL,
    FareyRow,
    LevelTooLargeError,
    bits_to_index,
    cross_check_routes,
    extended_row,
    farey_value,
    index_to_bits,
    seed_eval,
    seed_pair,
    verify_row,
    write_row_csv,
)
from .ferro import (
    DEFAULT_SEED,
    check_cone_map_identities,
    check_cone_map_series,
    check_cone_membership,
    check_convergence,
    check_decay,
    check_extremes,
    check_nonnegativity,
    check_reciprocal_sum,
    check_seed_identities,
    check_spectrum_decomposition,
    check_zero_coefficient,
    cone_map_series,
    cone_map_series_closed,
    cone_observable,
    reciprocal_sum,
    verify_suite,
)
from .report import CheckReport, all_passed
from .spectral import (
    K_EXACT,
    LimitEstimate,
    Spectrum,
    fwht,
    interaction,
    limit_estimate,
    max_support,
    naive_transform,
    rational_wht,
    tau_mask,
    write_spectrum_csv,
)
from .zeta import (
    DenominatorHistogram,
    PartitionEval,
    check_endpoint_identities,
    denominator_histogram,
    moebius_dirichlet_sum,
    moebius_sieve,
    partition_sum,
    tail_bound,
    totient_sieve,
    zeta_oracle,
)

__version__ = "0.1.0"
