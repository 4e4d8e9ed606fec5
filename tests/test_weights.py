"""Normalization sums and the incremental attraction field."""

import math

import numpy as np
import pytest

from lrfpp import (
    ConfigError,
    InvariantViolation,
    TorusConfig,
    WeightField,
    origin,
    rate_bounds,
    total_rate,
)
from lrfpp import torus, weights
from lrfpp.constants import ConstantQuery, limit_constant_quadrature


def test_total_rate_all_unit_summands():
    for d, m in [(1, 4), (2, 3), (2, 5)]:
        cfg = TorusConfig(d, m, 2.0, 0.0)
        assert total_rate(cfg) == float(cfg.n - 1)


def test_total_rate_line_of_five_hand_enumeration():
    # Norms on the 5-cycle are {1, 1, 2, 2}; with exponent 1/2 the sum is
    # 1 + 1 + 2/sqrt(2) = 2 + sqrt(2).
    cfg = TorusConfig(1, 5, 2.0, 0.5)
    assert total_rate(cfg) == pytest.approx(2.0 + math.sqrt(2.0), rel=1e-15)


def test_nearest_prefix_sums_examples():
    cfg = TorusConfig(1, 5, 2.0, 0.5)
    prefix = weights.nearest_prefix_sums(cfg)
    assert prefix.shape == (cfg.n,) and prefix[0] == 0.0
    # The two norm-1 sites have weight 1 regardless of the exponent.
    assert prefix[2] == 2.0
    # k = n - 1 recovers the full sum.
    assert prefix[cfg.n - 1] == total_rate(cfg)
    cfg0 = TorusConfig(2, 4, 2.0, 0.0)
    for k in (1, 5, 15):
        assert weights.nearest_prefix_sums(cfg0)[k] == float(k)


def test_scaled_rate_approaches_limit_constant():
    # Mid-size check of the n**(1 - alpha/d) scaling against the quadrature
    # constant; the acceptance suite sweeps the full grid.
    cfg = TorusConfig(2, 64, 2.0, 1.0)
    limit = limit_constant_quadrature(ConstantQuery(2, 2.0, 1.0, "quadrature", 1e-9)).value
    ratio = total_rate(cfg) / cfg.n**0.5
    assert abs(ratio - limit) / limit < 0.05


def test_field_init_total_equals_total_rate():
    for alpha in (0.0, 0.5, 1.3):
        cfg = TorusConfig(2, 5, 2.0, alpha)
        f = WeightField.initial(origin(cfg), cfg)
        # Same fsum over a permuted array: identical float.
        assert f.total == total_rate(cfg)
        # Every undiscovered site has strictly positive weight; discovered
        # slots hold exactly 0.
        assert (f.values[~f.discovered_mask] > 0.0).all()
        assert (f.values[f.discovered_mask] == 0.0).all()


def test_field_translation_invariance_of_init():
    cfg = TorusConfig(2, 5, 2.0, 1.0)
    src = torus.index_to_site(7, cfg)
    f = WeightField.initial(src, cfg)
    assert f.total == total_rate(cfg)


def test_complete_graph_rates_exact():
    # With exponent 0 every pair has weight 1 and the aggregate rate after j
    # discoveries is exactly j * (n - j), as on the complete graph.
    cfg = TorusConfig(2, 4, 2.0, 0.0)
    f = WeightField.initial(origin(cfg), cfg)
    gen = np.random.default_rng(0)
    for j in range(1, cfg.n):
        assert f.total == float(j * (cfg.n - j))
        undisc = np.nonzero(~f.discovered_mask)[0]
        f.discover_index(int(gen.choice(undisc)))
    assert f.total == 0.0


def test_field_exhaustion():
    cfg = TorusConfig(1, 3, 2.0, 0.5)
    f = WeightField.initial(origin(cfg), cfg)
    for z in list(np.nonzero(~f.discovered_mask)[0]):
        f.discover_index(int(z))
    assert f.total == pytest.approx(0.0, abs=1e-12)
    assert not f.values.any()


def test_double_discovery_rejected():
    cfg = TorusConfig(1, 4, 2.0, 0.5)
    f = WeightField.initial(origin(cfg), cfg)
    f.discover_index(0)
    with pytest.raises(ConfigError):
        f.discover_index(0)


def test_discovery_order_independence():
    cfg = TorusConfig(2, 5, 2.0, 1.0)
    z1, z2 = 3, 17
    f12 = WeightField.initial(origin(cfg), cfg)
    f12.discover_index(z1)
    f12.discover_index(z2)
    f21 = WeightField.initial(origin(cfg), cfg)
    f21.discover_index(z2)
    f21.discover_index(z1)
    assert np.allclose(f12.values, f21.values, rtol=0, atol=1e-12)
    assert f12.total == pytest.approx(f21.total, rel=1e-12)


def test_resummation_check_runs_and_passes():
    cfg = TorusConfig(2, 12, 2.0, 1.0)
    f = WeightField.initial(origin(cfg), cfg)
    gen = np.random.default_rng(1)
    for _ in range(130):  # crosses the every-100 re-summation cadence
        undisc = np.nonzero(~f.discovered_mask)[0]
        f.discover_index(int(gen.choice(undisc)))
    f.check_resummation()


def test_resummation_detects_corruption():
    cfg = TorusConfig(2, 5, 2.0, 1.0)
    f = WeightField.initial(origin(cfg), cfg)
    f.total += 1.0
    with pytest.raises(InvariantViolation):
        f.check_resummation()


def test_rate_bounds_bracket_complete_graph():
    cfg = TorusConfig(2, 4, 2.0, 0.0)
    n = cfg.n
    for j in range(1, n):
        lo, hi = rate_bounds(cfg, j)
        exact = j * (n - j)
        assert lo <= exact <= hi
        assert lo == pytest.approx(j * (n - 1 - j), rel=1e-12)
        assert hi == pytest.approx(j * (n - 1), rel=1e-12)


def test_rate_bounds_table_equals_the_scalar_bounds():
    cfg = TorusConfig(2, 8, 2.0, 1.0)
    lower, upper = rate_bounds(cfg, np.arange(1, cfg.n))
    assert [rate_bounds(cfg, j) for j in range(1, cfg.n)] == list(zip(lower, upper))


def test_weight_table_cache_not_mutated_by_field_use():
    cfg = TorusConfig(2, 4, 2.0, 1.0)
    before = weights._weight_table(cfg).copy()
    f = WeightField.initial(torus.index_to_site(5, cfg), cfg)
    f.discover_index(0)
    f.discover_index(1)
    assert np.array_equal(before, weights._weight_table(cfg))
