"""Long-range first-passage percolation on the discrete torus.

Exact simulation of the exploration birth process, shortest-path oracles on
edge-weight realizations drawn by difference class, numerical evaluation of
the large-torus limit constants, and the statistics that verify the 1-2-3
scaling law and the Gumbel fluctuations of cluster growth times.
"""

__version__ = "0.1.0"

from .constants import (
    ConstantQuery,
    MonteCarloResult,
    QuadratureResult,
    limit_constant_gamma_mc,
    limit_constant_max_norm,
    limit_constant_planar,
    limit_constant_quadrature,
)
from .errors import (
    ConfigError,
    EnumerationCapError,
    InvariantViolation,
    ManifestError,
)
from .explore import (
    EdgeWeightSample,
    ExplorationRecord,
    StopRule,
    diameter_exact,
    dijkstra_oracle,
    distance_matrix,
    flooding_time,
    run_exploration,
    transmission_time,
)
from .stats import (
    ExperimentSpec,
    StatSummary,
    estimate_scaled,
    gumbel_cdf,
    gumbel_test,
    ks_one_sample,
    ks_two_sample,
)
from .torus import Site, TorusConfig, canonicalize, origin, sites_by_distance, torus_norm
from .weights import (
    WeightField,
    nearest_rate_sum,
    rate_bounds,
    total_rate,
)

__all__ = [
    "ConfigError",
    "ConstantQuery",
    "EdgeWeightSample",
    "EnumerationCapError",
    "ExperimentSpec",
    "ExplorationRecord",
    "InvariantViolation",
    "ManifestError",
    "MonteCarloResult",
    "QuadratureResult",
    "Site",
    "StatSummary",
    "StopRule",
    "TorusConfig",
    "WeightField",
    "canonicalize",
    "diameter_exact",
    "dijkstra_oracle",
    "distance_matrix",
    "estimate_scaled",
    "flooding_time",
    "gumbel_cdf",
    "gumbel_test",
    "ks_one_sample",
    "ks_two_sample",
    "limit_constant_gamma_mc",
    "limit_constant_max_norm",
    "limit_constant_planar",
    "limit_constant_quadrature",
    "nearest_rate_sum",
    "origin",
    "rate_bounds",
    "run_exploration",
    "sites_by_distance",
    "torus_norm",
    "total_rate",
    "transmission_time",
]
