"""Normalization sums, the thinning tables, and the reference attraction field.

``total_rate`` is the sum of ``norm(u)**-alpha`` over all nonzero sites: the
total transmission rate out of any single vertex, the normalization that
scales every limit theorem in this package, and the rate at which each
discovered vertex proposes in the thinning sampler.  ``rate_bounds`` turns it
and the nearest-site prefix sums into the deterministic sandwich that the
exploration's event rate obeys; the sampler never computes that rate, and the
tests audit it from the site order of sampled runs.

The thinning sampler of ``explore.run_explorations`` keeps no per-site field.
It draws an offset u with probability norm(u)**-alpha / R_n by inverting
``nearest_prefix_sums``.  ``site_keys`` is the one key format for "site plus
offset"; ``difference_table`` holds the weight between two sites at the
difference of their keys, so ``WeightField`` finds a site's weights to every
other site with one gather.

``WeightField`` keeps, for a growing discovered set, the attraction weight
of every undiscovered site

    W(z) = sum_i norm(z - v_i)**-alpha

together with its aggregate ``total``, which equals the jump rate of the
exploration process at every step.  Updates cost O(n) per discovery; the
sampler does not use it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Tuple

import numpy as np

from . import torus
from .errors import ConfigError, EnumerationCapError, InvariantViolation
from .torus import Site, TorusConfig

#: Cadence, in births, of WeightField's full re-summation consistency check.
RESUM_INTERVAL = 100
#: Tolerance scale for the re-summation check: 1e-9 * n * max summand.
RESUM_RTOL = 1e-9


@lru_cache(maxsize=64)
def _weight_table(cfg: TorusConfig) -> np.ndarray:
    """Flat array of norm(u)**-alpha per site; 0 at the origin.

    Read-only shared cache; callers must not mutate the returned array.
    """
    norms = torus.norm_table(cfg)
    # x**-0.0 == 1.0 for every x, so alpha = 0 needs no branch of its own.
    with np.errstate(divide="ignore"):
        w = norms**-cfg.alpha
    w[torus.origin_index(cfg)] = 0.0
    w.setflags(write=False)
    return w


@lru_cache(maxsize=64)
def total_rate(cfg: TorusConfig) -> float:
    """Sum of norm(u)**-alpha over all n-1 nonzero sites (exactly rounded).

    Uses ``math.fsum``, so the result is the correctly rounded value of the
    exact real sum regardless of summation order.
    """
    return math.fsum(_weight_table(cfg))


@lru_cache(maxsize=64)
def nearest_prefix_sums(cfg: TorusConfig) -> np.ndarray:
    """prefix[k] = sum of the weights of the first k nonzero sites of ``torus.sorted_order``."""
    out = np.zeros(cfg.n, dtype=np.float64)
    # The origin sorts first (norm 0, weight 0); drop it.
    np.cumsum(_weight_table(cfg)[torus.sorted_order(cfg)[1:]], out=out[1:])
    out.setflags(write=False)
    return out


def check_thinning_size(cfg: TorusConfig) -> None:
    """Raise EnumerationCapError unless (2m)**d <= ENUMERATION_CAP: the size of
    the ``site_keys`` table that every exploration run reads, so the size
    limit of every run, and of ``difference_table``."""
    if (2 * cfg.m) ** cfg.d > torus.ENUMERATION_CAP:
        raise EnumerationCapError(
            f"(2m)**d = {(2 * cfg.m) ** cfg.d} exceeds the dense enumeration cap "
            f"{torus.ENUMERATION_CAP}"
        )


@lru_cache(maxsize=16)
def site_keys(cfg: TorusConfig) -> Tuple[np.ndarray, np.ndarray, int]:
    """The base-2m site keys ``(key_of, site_of, key_zero)``, read-only int32.

    ``key_of[i]`` is sum_a g_a * (2m)**(d-1-a) for the grid coordinates g of
    flat index i, and ``site_of`` maps a key of digits e_a in [0, 2m) to the
    site of grid coordinates (e_a - floor(m/2)) mod m.  So for a site u and an
    offset c, ``site_of[key_of[u] + key_of[c]]`` is u + c: no digit carries.
    For sites y and z, key(y) - key(z) + ``key_zero`` (every digit m) has
    digits in [1, 2m - 1], where ``difference_table`` holds the weight of y - z.
    """
    check_thinning_size(cfg)
    m, wrap = cfg.m, ((np.arange(2 * cfg.m) - cfg.half) % cfg.m).astype(np.int32)
    key_of, site_of = np.zeros(1, dtype=np.int32), np.zeros(1, dtype=np.int32)
    for _ in range(cfg.d):
        key_of = (key_of[:, None] * (2 * m) + np.arange(m, dtype=np.int32)).ravel()
        site_of = (site_of[:, None] * m + wrap).ravel()
    key_of.setflags(write=False)
    site_of.setflags(write=False)
    return key_of, site_of, m * sum((2 * m) ** a for a in range(cfg.d))


@lru_cache(maxsize=16)
def difference_table(cfg: TorusConfig) -> np.ndarray:
    """Weight norm(y - z)**-alpha (0 when y == z) at key(y) - key(z) + key_zero
    of ``site_keys``, for all sites y and z; (2m)**d entries, read-only."""
    check_thinning_size(cfg)
    m, d = cfg.m, cfg.d
    # Digit e on an axis is the difference e - m, whose grid index is
    # (e - m + floor(m/2)) mod m.
    axis = (np.arange(2 * m) - m + cfg.half) % m
    grid = _weight_table(cfg).reshape((m,) * d)[np.ix_(*([axis] * d))]
    table = np.ascontiguousarray(grid).ravel()
    table.setflags(write=False)
    return table


def kahan_add(total: float, comp: float, delta: float) -> Tuple[float, float]:
    """One Kahan-compensated step: (total + delta, new compensation)."""
    y = delta - comp
    t = total + y
    return t, (t - total) - y


@dataclass
class WeightField:
    """Attraction weights of undiscovered sites for one exploration run.

    Single-writer mutable state: one run owns one field.  ``values[i]`` is
    W(site i) for undiscovered i and exactly 0.0 for discovered i; ``total``
    is the Kahan-compensated sum of ``values`` and equals the exploration
    jump rate at every step.
    """

    cfg: TorusConfig
    values: np.ndarray
    discovered_mask: np.ndarray
    total: float
    _comp: float = 0.0
    _since_resum: int = 0

    @classmethod
    def initial(cls, source: Site, cfg: TorusConfig) -> "WeightField":
        """Field with only ``source`` discovered; total equals total_rate(cfg)."""
        src = torus.site_to_index(source, cfg)
        values = _rolled_weights(cfg, src)
        mask = np.zeros(cfg.n, dtype=bool)
        mask[src] = True
        return cls(cfg=cfg, values=values, discovered_mask=mask, total=math.fsum(values))

    def discover_index(self, z: int) -> None:
        """Move site z from undiscovered to discovered and update all weights."""
        if self.discovered_mask[z]:
            raise ConfigError(f"site index {z} is already discovered")
        w_z = float(self.values[z])
        self.discovered_mask[z] = True
        self.values[z] = 0.0
        # Every remaining undiscovered y gains norm(y - z)**-alpha.
        add = np.where(self.discovered_mask, 0.0, _rolled_weights(self.cfg, z))
        self.values += add
        self.total, self._comp = kahan_add(self.total, self._comp, float(np.sum(add)) - w_z)
        self._since_resum += 1
        if self._since_resum >= RESUM_INTERVAL:
            self._since_resum = 0
            self.check_resummation()

    def check_resummation(self) -> None:
        """Assert |total - sum(values)| <= 1e-9 * n * max summand."""
        fresh = float(np.sum(self.values))
        peak = float(self.values.max()) if self.values.size else 0.0
        tol = RESUM_RTOL * self.cfg.n * max(peak, 1.0)
        if abs(self.total - fresh) > tol:
            raise InvariantViolation(
                f"weight-field drift: total={self.total!r} resum={fresh!r} tol={tol!r}"
            )


def _rolled_weights(cfg: TorusConfig, center: int) -> np.ndarray:
    """Weight of every site y toward ``center``, norm(y - center)**-alpha (0 at
    y == center), as a new array: one gather from ``difference_table``."""
    key_of, _, key_zero = site_keys(cfg)
    return difference_table(cfg).take(key_of - (key_of[center] - key_zero))


def rate_bounds(cfg: TorusConfig, j):
    """Deterministic sandwich for the jump rate from a j-vertex cluster.

    Lower bound j * (total_rate - nearest_prefix_sums[j]), upper bound
    j * total_rate: each of the j vertices has every other site at rate R_n,
    less at most the j - 1 nearest ones inside the cluster.  ``j`` is an int,
    or an integer array for a table of bounds.
    """
    rn = total_rate(cfg)
    return j * (rn - nearest_prefix_sums(cfg)[j]), j * rn
