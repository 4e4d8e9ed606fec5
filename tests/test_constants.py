"""Limit-constant routes cross-validated against analytic oracles.

Frozen oracle values, each derived independently of the code under test:

* exponent 1, 1-norm, d = 2: the cube integral of 1/(y1 + y2) is 2 ln 2 by
  direct integration, so the constant is 4 ln 2;
* exponent 1, 2-norm, d = 2: the cube integral of 1/|y| is 2 asinh(1), so the
  constant is 4 asinh(1);
* d = 1: the constant is 2**a / (1 - a) from the elementary integral.
"""

import math
import tracemalloc

import numpy as np
import pytest

from lrfpp import ConfigError, ConstantQuery, ConstantResult, constants
from lrfpp.errors import NotApplicable
from lrfpp.constants import (
    MC_MAX_SAMPLES,
    _mixture_draw,
    check_mc_samples,
    evaluate,
    limit_constant_gamma_mc,
    limit_constant_max_norm,
    limit_constant_planar,
    limit_constant_quadrature,
)

FOUR_LN_2 = 4.0 * math.log(2.0)          # 2.772588722239781
FOUR_ASINH_1 = 4.0 * math.asinh(1.0)     # 3.525494348078172
TWO_SQRT_2 = 2.0 * math.sqrt(2.0)        # 2.828427124746190


def _quad(d, p, alpha, tol=1e-9):
    return limit_constant_quadrature(ConstantQuery(d, p, alpha, "quadrature", tol))


# ---------------------------------------------------------------------------
# Quadrature
# ---------------------------------------------------------------------------


def test_quadrature_alpha_zero_exact():
    for d, p in [(1, 2.0), (2, 1.0), (3, math.inf)]:
        res = _quad(d, p, 0.0)
        assert res.value == 1.0 and res.error == 0.0


def test_quadrature_d2_p1_analytic():
    res = _quad(2, 1.0, 1.0)
    assert res.converged
    assert res.value == pytest.approx(FOUR_LN_2, abs=1e-9)


def test_quadrature_d2_p2_analytic():
    res = _quad(2, 2.0, 1.0)
    assert res.value == pytest.approx(FOUR_ASINH_1, abs=1e-9)


def test_quadrature_d1_analytic():
    res = _quad(1, 2.0, 0.5)
    assert res.value == pytest.approx(TWO_SQRT_2, abs=1e-10)
    for alpha in (0.25, 0.75):
        res = _quad(1, 7.0, alpha)
        assert res.value == pytest.approx(2.0**alpha / (1.0 - alpha), abs=1e-10)


def test_quadrature_matches_max_norm_closed_form():
    for d, alpha in [(2, 0.5), (2, 1.5), (3, 1.0), (4, 2.5)]:
        res = _quad(d, math.inf, alpha)
        assert res.value == pytest.approx(limit_constant_max_norm(d, alpha), abs=1e-9)


def test_quadrature_d3_p2_against_split_oracle():
    # Independent oracle for d = 3, 2-norm: inside the unit ball the radial
    # law is exact (volume of {|y| <= r} in the octant is pi r^3 / 6, so the
    # singular part integrates to (pi/2)/(3 - alpha)); outside the ball the
    # integrand is bounded in [3**(-alpha/2), 1] and plain Monte Carlo on the
    # cube estimates it tightly.
    alpha = 1.5
    inner = (math.pi / 2.0) / (3.0 - alpha)
    rng = np.random.default_rng(0)
    pts = rng.random((2_000_000, 3))
    norms = np.sqrt((pts**2).sum(axis=1))
    outer_samples = np.where(norms > 1.0, norms**-alpha, 0.0)
    outer = float(outer_samples.mean())
    outer_se = float(outer_samples.std(ddof=1)) / math.sqrt(len(outer_samples))
    res = _quad(3, 2.0, alpha)
    assert res.value / 2.0**alpha == pytest.approx(inner + outer, abs=5 * outer_se)


def test_quadrature_reports_convergence_failure(monkeypatch):
    # An impossible tolerance forces refinement up to the evaluation budget;
    # the achieved error must be reported honestly instead of faked.  At
    # alpha = 1 the constant is 2 times the cube integral, its error too.
    monkeypatch.setattr(constants, "QUADRATURE_MAX_EVALS", 20_000)
    res = _quad(2, 2.0, 1.0, 2.0 * 1e-30)
    assert not res.converged
    assert res.error > 2.0 * 1e-30
    assert res.evaluations <= 20_000
    assert res.value / 2.0 == pytest.approx(2.0 * math.asinh(1.0), abs=1e-9)
    # A budget too small for even the first rule spends nothing.
    monkeypatch.setattr(constants, "QUADRATURE_MAX_EVALS", 100)
    res = _quad(2, 2.0, 1.0, 2.0 * 1e-9)
    assert (res.converged, res.error, res.evaluations) == (False, math.inf, 0)


# The benchmark's constants grid: d 1-4, p 1, 2, inf, alpha < d.
BENCH_GRID = [
    (d, p, alpha)
    for d in (1, 2, 3, 4)
    for p in (1.0, 2.0, math.inf)
    for alpha in (0.25, 0.5, 1.0, 1.5, 2.5)
    if alpha < d
]


def test_quadrature_keeps_its_budget_and_converges_on_the_bench_grid():
    for d, p, alpha in BENCH_GRID:
        res = _quad(d, p, alpha, 1e-9 * 2.0**alpha)
        assert res.converged and res.evaluations <= 4_000_000, (d, p, alpha, res)


@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("alpha", [0.25, 0.5, 1.0, 1.5, 2.5])
def test_quadrature_d4_evaluation_count(p, alpha):
    # Order 8: the 15 shell boxes' rules (15 * 8**4) and one refinement step
    # of each (15 * 16 * 8**4), where each box already meets its tolerance.
    res = _quad(4, p, alpha)
    assert res.converged and res.evaluations <= 1_044_480


@pytest.mark.parametrize("p, alpha", [(2.0, 3.5), (1.5, 2.5), (1.5, 3.5)])
def test_quadrature_d4_near_alpha_d_converges_within_the_default_budget(p, alpha):
    # These cells need 5.2 M to 11.5 M evaluations at tolerance 1e-9.
    res = limit_constant_quadrature(ConstantQuery(4, p, alpha, "quadrature", 1e-9))
    assert res.converged and res.error <= 1e-9, res
    assert 4_000_000 < res.evaluations <= 16_000_000


def test_quadrature_converged_once_the_summed_error_meets_the_tolerance():
    # At tolerance 1e-12 this cell spends its budget with boxes still queued,
    # but their summed error, about 3.9e-13, meets the tolerance.
    res = limit_constant_quadrature(ConstantQuery(4, 1.5, 3.5, "quadrature", 1e-12))
    assert res.evaluations > 15_000_000
    assert res.converged and res.error <= 1e-12, res
    # At 1e-13 the same error estimate misses the tolerance.
    res = limit_constant_quadrature(ConstantQuery(4, 1.5, 3.5, "quadrature", 1e-13))
    assert not res.converged and res.error > 1e-13, res


def test_quadrature_non_integer_p_converges():
    res = _quad(3, 1.5, 0.5)
    assert res.converged and res.error <= 1e-9
    for p in (1.5, 1.25, 3.5):
        for alpha in (0.25, 1.0, 1.9):
            res = _quad(2, p, alpha)
            assert res.converged
            assert res.value == pytest.approx(limit_constant_planar(p, alpha), abs=1e-9)


def test_quadrature_validation():
    with pytest.raises(ConfigError):
        _quad(5, 2.0, 1.0)
    with pytest.raises(ConfigError):
        ConstantQuery(2, 2.0, 2.0, "quadrature")


# ---------------------------------------------------------------------------
# Closed form for the max-coordinate norm
# ---------------------------------------------------------------------------


def test_max_norm_closed_form_values():
    assert limit_constant_max_norm(2, 1.0) == 4.0
    assert limit_constant_max_norm(3, 1.5) == pytest.approx(4.0 * math.sqrt(2.0), rel=1e-15)
    for d in (1, 2, 5):
        assert limit_constant_max_norm(d, 0.0) == 1.0
    with pytest.raises(ConfigError):
        limit_constant_max_norm(2, 2.0)


# ---------------------------------------------------------------------------
# Hypergeometric closed form (d = 2)
# ---------------------------------------------------------------------------


def test_planar_constant_p1_is_four_ln_two():
    assert limit_constant_planar(1.0, 1.0) == pytest.approx(FOUR_LN_2, rel=1e-14)


def test_planar_constant_alpha_zero_limit():
    assert limit_constant_planar(3.0, 0.0) == 1.0
    assert limit_constant_planar(2.0, 1e-12) == pytest.approx(1.0, abs=1e-11)


def test_planar_constant_matches_quadrature():
    assert limit_constant_planar(2.0, 1.0) == pytest.approx(
        _quad(2, 2.0, 1.0).value, abs=1e-6
    )


def test_planar_constant_validation():
    with pytest.raises(ConfigError):
        limit_constant_planar(math.inf, 1.0)
    with pytest.raises(ConfigError):
        limit_constant_planar(2.0, 2.0)


def test_planar_constant_large_p_approaches_max_norm():
    for alpha in (0.5, 1.0, 1.5):
        gap = abs(limit_constant_planar(1e4, alpha) - limit_constant_max_norm(2, alpha))
        assert gap <= 1e-3


def test_constant_monotone_in_p():
    # Pointwise the p-norm shrinks as p grows (||y||_1 >= ||y||_2 >= ||y||_inf),
    # so the negative-power integrand and hence the constant grow with p.
    for d, alpha in [(1, 0.5), (2, 0.5), (2, 1.0)]:
        vals = [_quad(d, p, alpha).value for p in (1.0, 2.0)]
        vals.append(limit_constant_max_norm(d, alpha))
        assert all(a <= b + 1e-9 for a, b in zip(vals, vals[1:]))


# ---------------------------------------------------------------------------
# Gamma-max Monte Carlo
# ---------------------------------------------------------------------------


def test_mc_d1_matches_elementary_constant():
    # d = 1 collapses to 2**a/(1 - a).
    mc = limit_constant_gamma_mc(1, 2.0, 0.5, 200_000, seed=0)
    target = 2.0**0.5 / 0.5
    assert abs(mc.value - target) <= 4.0 * mc.error


def test_mc_d2_p1_matches_four_ln_two():
    mc = limit_constant_gamma_mc(2, 1.0, 1.0, 1_000_000, seed=0)
    assert abs(mc.value - FOUR_LN_2) <= 3.0 * mc.error


def test_mc_d2_p2_matches_quadrature():
    mc = limit_constant_gamma_mc(2, 2.0, 0.5, 1_000_000, seed=0)
    assert abs(mc.value - _quad(2, 2.0, 0.5).value) <= 3.0 * mc.error


def test_mc_reports_effective_sample_size():
    mc = limit_constant_gamma_mc(2, 2.0, 0.5, 50_000, seed=1)
    assert 0 < mc.effective_samples < 50_000  # unequal importance weights shrink it


def test_mc_weights_keep_effective_sample_size():
    # Sampling the Gamma maximum directly gives weights of infinite variance
    # at alpha < d/2 (an ESS under 1% of the sample here); the bounded
    # defensive-mixture weights keep most of the sample.
    mc = limit_constant_gamma_mc(2, 2.0, 0.25, 100_000, seed=0)
    assert mc.effective_samples >= 100_000 / 10


@pytest.mark.parametrize(
    "d, p, alpha",
    [
        (2, 1.0, 0.02),  # x = U**50: x**((alpha - d)/p) overflows in linear space
        (1, 1.0, 0.01),  # x = U**100 underflows to 0
        (2, 2.0, 0.01),  # ... and P(1/p, x) underflows with it
    ],
)
def test_mc_small_alpha_is_finite_and_accurate(d, p, alpha):
    mc = limit_constant_gamma_mc(d, p, alpha, 100_000, seed=0)
    target = 2.0**alpha / (1.0 - alpha) if d == 1 else limit_constant_planar(p, alpha)
    assert math.isfinite(mc.value) and math.isfinite(mc.error)
    assert abs(mc.value - target) <= 3.0 * mc.error


@pytest.mark.parametrize("d, p, alpha", [(1, 500.0, 0.5), (2, 200.0, 1.0)])
def test_mc_large_p_is_finite_and_accurate(d, p, alpha):
    # Gamma(1/p) variates below 1e-323 would be 0 in linear space (log x = -inf).
    mc = limit_constant_gamma_mc(d, p, alpha, 100_000, seed=0)
    target = 2.0**alpha / (1.0 - alpha) if d == 1 else limit_constant_planar(p, alpha)
    assert math.isfinite(mc.value) and math.isfinite(mc.error)
    assert abs(mc.value - target) <= 3.0 * mc.error


def test_mc_default_seed_is_zero():
    a = limit_constant_gamma_mc(2, 1.0, 1.0, 50_000)
    b = limit_constant_gamma_mc(2, 1.0, 1.0, 50_000, seed=0)
    assert a.value == b.value


def _fields(res):
    return (res.value, res.error, res.converged, res.samples, res.effective_samples)


@pytest.mark.parametrize("d", [1, 3])
@pytest.mark.parametrize("p", [1.0, 2.0])
@pytest.mark.parametrize("alpha, other", [(0.01, 0.5), (0.5, 0.01)])
def test_mc_cached_draw_cannot_be_seen(d, p, alpha, other):
    # A call after one at another alpha reuses the draw and returns what a
    # fresh draw returns; another seed or sample count draws afresh.  A miss
    # resets the cache's counters, so reuse is read off the kept arrays.
    limit_constant_gamma_mc(d, p, other, 20_000, seed=5)
    kept = _mixture_draw(d, p, 20_000, 5)
    warm = limit_constant_gamma_mc(d, p, alpha, 20_000, seed=5)
    assert _mixture_draw(d, p, 20_000, 5) is kept
    _mixture_draw.cache_clear()
    assert _fields(warm) == _fields(limit_constant_gamma_mc(d, p, alpha, 20_000, seed=5))
    for samples, seed in ((20_000, 6), (20_001, 5)):
        limit_constant_gamma_mc(d, p, other, 20_000, seed=5)
        kept = _mixture_draw(d, p, 20_000, 5)
        got = limit_constant_gamma_mc(d, p, alpha, samples, seed)
        assert _mixture_draw(d, p, samples, seed)[0] is not kept[0]
        _mixture_draw.cache_clear()
        assert _fields(got) == _fields(limit_constant_gamma_mc(d, p, alpha, samples, seed))
    arrays = [a for a in _mixture_draw(d, p, 20_000, 5) if a is not None]
    assert len(arrays) == (3 if d == 1 else 4)
    for arr in arrays:
        with pytest.raises(ValueError, match="read-only"):
            arr[:1] = 0


def test_mc_peak_memory_per_sample():
    # The draw holds two arrays of d * samples / 2 variates, computed in
    # place; the weights one array of samples, computed in chunks.  The
    # second (d, p) drops the first's cached draw before it draws, so it
    # peaks no higher.  Measured: 32 bytes per sample each.
    samples = 200_000
    _mixture_draw.cache_clear()
    tracemalloc.start()
    try:
        limit_constant_gamma_mc(4, 1.0, 0.5, samples, seed=1)
        cold = tracemalloc.get_traced_memory()[1] / samples
        tracemalloc.reset_peak()
        limit_constant_gamma_mc(4, 2.0, 0.5, samples, seed=1)
        second = tracemalloc.get_traced_memory()[1] / samples
    finally:
        tracemalloc.stop()
    assert cold <= 36 and second <= 36, (cold, second)


def test_mc_validation():
    with pytest.raises(ConfigError):
        limit_constant_gamma_mc(2, math.inf, 1.0, 50_000)
    with pytest.raises(ConfigError):
        limit_constant_gamma_mc(2, 2.0, 0.0, 50_000)
    with pytest.raises(ConfigError):
        limit_constant_gamma_mc(2, 2.0, 1.0, 5_000)
    # The cap is checked before any draw, so this allocates nothing.
    with pytest.raises(ConfigError, match="samples must lie in"):
        limit_constant_gamma_mc(2, 2.0, 1.0, MC_MAX_SAMPLES + 1)
    # A whole float is still not an integer; it would reach numpy as a size.
    with pytest.raises(ConfigError, match="samples must be an integer"):
        check_mc_samples(10_000.0, 2)


_DISPATCH = {
    "closed-p-infinity": (2, math.inf, 1.0),
    "hypergeometric-d2": (2, 1.0, 1.0),
    "quadrature": (2, 2.0, 0.5),
    "gamma-max-mc": (2, 1.0, 1.0),
}


@pytest.mark.parametrize("method", list(_DISPATCH))
def test_evaluate_dispatch(method):
    # Every method returns one ConstantResult; the fields a method does not
    # fill keep their defaults.
    res = evaluate(ConstantQuery(*_DISPATCH[method], method), samples=50_000, seed=0)
    assert isinstance(res, ConstantResult)
    if method == "gamma-max-mc":
        assert res == limit_constant_gamma_mc(2, 1.0, 1.0, 50_000, seed=0)
        assert res.converged is None and res.evaluations == 0 and res.samples == 50_000
        assert 0 < res.effective_samples < 50_000 and res.error > 0
    elif method == "quadrature":
        assert res == _quad(2, 2.0, 0.5)
        assert res.converged is True and res.evaluations > 0
        assert res.samples == 0 and res.effective_samples is None
    else:
        assert res.error == 0.0 and res.converged is True
        assert (res.evaluations, res.samples, res.effective_samples) == (0, 0, None)
        expect = 4.0 if method == "closed-p-infinity" else pytest.approx(FOUR_LN_2, rel=1e-14)
        assert res.value == expect


def test_query_validation():
    with pytest.raises(ConfigError):
        ConstantQuery(2, 2.0, 1.0, "closed-p-infinity")
    with pytest.raises(ConfigError):
        ConstantQuery(1, 2.0, 0.5, "hypergeometric-d2")
    # A cell a method does not apply to raises NotApplicable, which a grid
    # skips; a parameter out of range raises a plain ConfigError.
    for d, p, alpha, method in [
        (2, math.inf, 1.0, "gamma-max-mc"), (2, 2.0, 0.0, "gamma-max-mc"),
        (5, 2.0, 1.0, "quadrature"), (2, 2.0, 2.0, "quadrature"),
    ]:
        with pytest.raises(NotApplicable):
            ConstantQuery(d, p, alpha, method)
    for d, p, alpha, method in [
        (2, 2.0, -0.5, "quadrature"), (2, 0.5, 1.0, "quadrature"), (2, 2.0, 1.0, "simpson"),
    ]:
        with pytest.raises(ConfigError) as err:
            ConstantQuery(d, p, alpha, method)
        assert not isinstance(err.value, NotApplicable)


def test_query_rejects_a_non_integer_dimension():
    # A whole float would pass every range check, then fail inside quadrature.
    for d in (2.0, 2.5, "2"):
        with pytest.raises(ConfigError, match="d must be an integer") as err:
            ConstantQuery(d, 2.0, 1.0)
        assert not isinstance(err.value, NotApplicable)
