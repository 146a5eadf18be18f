"""Ramanujan sums, Abel-summed Ramanujan-Fourier series, and the
Hardy-Littlewood constants they predict, with desk-scale verification."""

__version__ = "0.1.0"

from .errors import InternalConsistencyError, ResourceLimitError
from .sieve import (
    SieveTables,
    build_sieve,
    load_tables,
    save_tables,
)
from .ramanujan import (
    check_property_catalog,
    cq_int,
    cq_real,
    direct_oracle,
)
from .rf_series import (
    AbelTrace,
    abel_ladder,
    lambda1_at,
    lambda1_series,
    required_Q,
    sigma_rf,
    tail_bound,
)
from .mean_values import (
    MeanValueReport,
    cq_orthogonality,
    conjecture_d_mean,
    goldbach_correlation,
    odd_gap_mean,
    pair_autocorrelation,
    pnt_mean,
    polynomial_cq_mean,
    tuple_mean,
)
from .singular import (
    SingularConstant,
    conjecture_d_constant,
    pair_constant,
    series_constant,
    series_wk,
    tuple_constant,
    twin_constant,
    validate_tuple,
)
