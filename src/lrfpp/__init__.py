"""Long-range first-passage percolation on the discrete torus.

Exact simulation of the exploration birth process, shortest-path oracles on
edge-weight realizations drawn by difference class, numerical evaluation of
the large-torus limit constants, and the statistics that verify the 1-2-3
scaling law and the Gumbel fluctuations of cluster growth times.
"""

__version__ = "0.1.0"

from .constants import (
    ConstantQuery,
    ConstantResult,
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
    run_exploration,
    run_explorations,
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
from .torus import Site, TorusConfig, canonicalize, origin, torus_norm
from .weights import (
    WeightField,
    rate_bounds,
    total_rate,
)

__all__ = [
    "ConfigError",
    "ConstantQuery",
    "ConstantResult",
    "EdgeWeightSample",
    "EnumerationCapError",
    "ExperimentSpec",
    "ExplorationRecord",
    "InvariantViolation",
    "ManifestError",
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
    "gumbel_cdf",
    "gumbel_test",
    "ks_one_sample",
    "ks_two_sample",
    "limit_constant_gamma_mc",
    "limit_constant_max_norm",
    "limit_constant_planar",
    "limit_constant_quadrature",
    "origin",
    "rate_bounds",
    "run_exploration",
    "run_explorations",
    "torus_norm",
    "total_rate",
]
