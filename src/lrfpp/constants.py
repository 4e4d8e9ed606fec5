"""Four independent evaluations of the large-torus limit constant.

The normalization sum grows like ``const * n**(1 - alpha/d)``; the constant
equals ``2**alpha`` times the integral of ``norm(y)**-alpha`` over the unit
cube.  This module evaluates it by

* singular-aware adaptive quadrature (any d <= 4, any p),
* an exact closed form for the max-coordinate norm,
* a Gauss hypergeometric closed form for d = 2 and finite p,
* a Monte Carlo identity through the maximum of d Gamma(1/p, 1) variates,

and the test suite cross-validates all four.

Quadrature scheme: the integrand is self-similar under halving the cube, so

    I = S0 / (1 - 2**(alpha - d)),   S0 = integral over [0,1]^d \\ [0,1/2]^d.

The shell S0 keeps the integrand bounded (some coordinate >= 1/2), is split
into its 2^d - 1 natural boxes, and each box is integrated by adaptive
tensor-product Gauss-Legendre rules with dyadic refinement.  The geometric
tail toward the singular corner is therefore summed exactly rather than
truncated.  For the max-coordinate norm the integral is first pushed forward
through the max statistic (volume factor d * t**(d-1)) to one dimension,
which removes the ridge lines that defeat tensor rules.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Optional

import numpy as np
import scipy.special

from . import rng
from .errors import ConfigError, NotApplicable

_METHODS = ("quadrature", "closed-p-infinity", "hypergeometric-d2", "gamma-max-mc")

# Share of Monte Carlo draws taken from the power-law component near 0.
_MC_DEFENSIVE_EPS = 0.5


@dataclass(frozen=True)
class ConstantQuery:
    """A request for the limit constant by one specific method.

    Construction is the one place where a (d, p, alpha, method) cell is
    validated.  Parameters out of range raise ConfigError.  A valid cell that
    the method cannot evaluate raises its subclass NotApplicable, so a grid
    can skip exactly those cells.
    """

    d: int
    p: float
    alpha: float
    method: str = "quadrature"
    tolerance: float = 1e-9

    def __post_init__(self):
        if self.d < 1:
            raise ConfigError(f"d must be >= 1, got {self.d}")
        if not (self.p >= 1.0):
            raise ConfigError(f"p must satisfy p >= 1, got {self.p}")
        if not (self.alpha >= 0.0):
            raise ConfigError(f"alpha must be >= 0, got {self.alpha}")
        if self.method not in _METHODS:
            raise ConfigError(f"method must be one of {_METHODS}, got {self.method!r}")
        if not (self.tolerance > 0):
            raise ConfigError("tolerance must be positive")
        if not (self.alpha < self.d):
            raise NotApplicable(f"alpha must be < d (got alpha={self.alpha}, d={self.d})")
        if self.method == "quadrature" and self.d > 4:
            raise NotApplicable("quadrature supports d <= 4")
        if self.method == "closed-p-infinity" and self.p != math.inf:
            raise NotApplicable("closed-p-infinity requires p = inf")
        if self.method == "hypergeometric-d2" and (self.d != 2 or self.p == math.inf):
            raise NotApplicable("hypergeometric-d2 requires d = 2 and finite p")
        if self.method == "gamma-max-mc" and (self.p == math.inf or self.alpha == 0.0):
            raise NotApplicable("gamma-max Monte Carlo requires finite p and alpha > 0")


@dataclass(frozen=True)
class QuadratureResult:
    value: float
    error: float
    converged: bool
    evaluations: int


@dataclass(frozen=True)
class MonteCarloResult:
    value: float
    std_error: float
    effective_samples: float
    samples: int


# ---------------------------------------------------------------------------
# Adaptive tensor-product Gauss quadrature on boxes
# ---------------------------------------------------------------------------


@lru_cache(maxsize=8)
def _gauss_rule(order: int):
    nodes, wts = np.polynomial.legendre.leggauss(order)
    return nodes, wts


def _box_eval(f: Callable[[np.ndarray], np.ndarray], lo, hi, order: int) -> float:
    """Tensor-product Gauss-Legendre approximation over the box [lo, hi]."""
    nodes, wts = _gauss_rule(order)
    d = len(lo)
    axes_pts = []
    axes_wts = []
    for i in range(d):
        half = 0.5 * (hi[i] - lo[i])
        axes_pts.append(0.5 * (lo[i] + hi[i]) + half * nodes)
        axes_wts.append(half * wts)
    mesh = np.meshgrid(*axes_pts, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=-1)
    vals = f(pts)
    w = axes_wts[0]
    for i in range(1, d):
        w = np.multiply.outer(w, axes_wts[i])
    return float(np.sum(vals * w.ravel()))


def _split_box(lo, hi):
    d = len(lo)
    mid = [0.5 * (lo[i] + hi[i]) for i in range(d)]
    for sel in np.ndindex(*(2,) * d):
        clo = tuple(lo[i] if sel[i] == 0 else mid[i] for i in range(d))
        chi = tuple(mid[i] if sel[i] == 0 else hi[i] for i in range(d))
        yield clo, chi


def _adaptive_box(
    f: Callable[[np.ndarray], np.ndarray],
    lo,
    hi,
    tol: float,
    order: int,
    max_evals: int,
) -> tuple[float, float, bool, int]:
    """Adaptive dyadic refinement; error estimated from two-level differences."""
    total = 0.0
    err = 0.0
    evals = 0
    converged = True
    stack = [(tuple(lo), tuple(hi), tol)]
    pts_per_eval = order ** len(lo)
    while stack:
        blo, bhi, btol = stack.pop()
        coarse = _box_eval(f, blo, bhi, order)
        children = list(_split_box(blo, bhi))
        fine = sum(_box_eval(f, clo, chi, order) for clo, chi in children)
        evals += pts_per_eval * (1 + len(children))
        diff = abs(fine - coarse)
        if diff <= btol or evals >= max_evals:
            total += fine
            err += diff
            if diff > btol:
                converged = False
        else:
            child_tol = btol / len(children)
            for clo, chi in children:
                stack.append((clo, chi, child_tol))
    return total, err, converged, evals


def _norm_power_integrand(p: float, alpha: float) -> Callable[[np.ndarray], np.ndarray]:
    if p == 1.0:
        return lambda y: np.sum(y, axis=-1) ** -alpha
    if p == 2.0:
        return lambda y: np.sum(y * y, axis=-1) ** (-0.5 * alpha)
    return lambda y: np.sum(y**p, axis=-1) ** (-alpha / p)


def unit_cube_integral(
    d: int, p: float, alpha: float, tolerance: float, max_evals: int = 4_000_000
) -> QuadratureResult:
    """Integral of ``norm(y)_p**-alpha`` over the unit cube, certified error.

    Exploits exact self-similarity of the integrand under dyadic scaling: only
    the outer shell is integrated numerically and the geometric series toward
    the singular corner is summed in closed form.
    """
    ConstantQuery(d, p, alpha, "quadrature", tolerance)
    if alpha == 0.0:
        return QuadratureResult(1.0, 0.0, True, 0)

    scale = 1.0 / (1.0 - 2.0 ** (alpha - d))
    shell_tol = tolerance / scale

    if p == math.inf or d == 1:
        # Pushforward through the max statistic: the image measure of the
        # max-coordinate on [0,1]^d has density d * t**(d-1), so the integral
        # equals int_0^1 d * t**(d-1-alpha) dt.  For d = 1 every p-norm is |y|
        # and this is the integrand itself.
        g = lambda t: d * np.squeeze(t, axis=-1) ** (d - 1 - alpha)
        val, err, ok, ev = _adaptive_box(g, (0.5,), (1.0,), shell_tol, 32, max_evals)
        return QuadratureResult(scale * val, scale * err, ok, ev)

    f = _norm_power_integrand(p, alpha)
    total = 0.0
    err = 0.0
    evals = 0
    converged = True
    boxes = [sel for sel in np.ndindex(*(2,) * d) if any(sel)]
    for sel in boxes:
        lo = tuple(0.5 * s for s in sel)
        hi = tuple(0.5 * (s + 1) for s in sel)
        v, e, ok, ev = _adaptive_box(
            f, lo, hi, shell_tol / len(boxes), 12, max_evals - evals
        )
        total += v
        err += e
        evals += ev
        converged &= ok
    return QuadratureResult(scale * total, scale * err, converged, evals)


def limit_constant_quadrature(query: ConstantQuery) -> QuadratureResult:
    """Limit constant by singular quadrature: 2**alpha times the cube integral."""
    inner = unit_cube_integral(query.d, query.p, query.alpha, query.tolerance / 2**query.alpha)
    factor = 2.0**query.alpha
    return QuadratureResult(
        factor * inner.value, factor * inner.error, inner.converged, inner.evaluations
    )


# ---------------------------------------------------------------------------
# Closed forms and series
# ---------------------------------------------------------------------------


def limit_constant_max_norm(d: int, alpha: float) -> float:
    """Exact constant for the max-coordinate norm: d / (d - alpha) * 2**alpha."""
    ConstantQuery(d, math.inf, alpha, "closed-p-infinity")
    return d / (d - alpha) * 2.0**alpha


def limit_constant_planar(p: float, alpha: float) -> float:
    """Constant for d = 2 and finite p via the hypergeometric closed form.

        2**(1 + alpha*(1 - 1/p)) / (2 - alpha) * 2F1(1, alpha/p; 1 + 1/p; 1/2)
    """
    ConstantQuery(2, p, alpha, "hypergeometric-d2")
    pref = 2.0 ** (1.0 + alpha * (1.0 - 1.0 / p)) / (2.0 - alpha)
    return pref * float(scipy.special.hyp2f1(1.0, alpha / p, 1.0 + 1.0 / p, 0.5))


def limit_constant_gamma_mc(
    d: int,
    p: float,
    alpha: float,
    samples: int = 1_000_000,
    seed: Optional[int] = None,
) -> MonteCarloResult:
    """Monte Carlo identity through the max of d independent Gamma(1/p, 1).

    The constant is a closed-form prefactor times E[M**((alpha - d)/p)], where
    M is the maximum of d Gamma(1/p, 1) variates.  Sampling M directly gives
    weights of infinite variance for alpha < d/2: near 0 the law of M has
    F_M(x) ~ c * x**(d/p), so small maxima dominate.  Instead x is drawn from
    the defensive mixture (Hesterberg 1995)

        q = (1 - eps) * f_M + eps * h,   h(x) = a * x**(a - 1) on (0, 1],

    with eps = 1/2 and a = alpha/p, and weighted by x**((alpha - d)/p) *
    f_M(x) / q(x).  The exact density f_M(x) = d * P(1/p, x)**(d - 1) *
    x**(1/p - 1) * exp(-x) / Gamma(1/p) uses the regularized incomplete gamma
    function P.  The h part matches the integrand's x**(alpha/p - 1) behaviour
    at 0 and the f_M part covers x > 1, so every weight is bounded by a
    constant.  The weights then have finite variance, the central limit theorem
    applies, and the sample standard error is a valid yardstick.  The method
    uses no quadrature, so it stays an independent check on it.
    """
    ConstantQuery(d, p, alpha, "gamma-max-mc")
    if samples < 10_000:
        raise ConfigError(f"samples must be >= 10000, got {samples}")
    if seed is None:
        seed = 0

    shape = 1.0 / p
    a = alpha / p
    gen = rng.generator(seed, rng.STREAM_MC)
    # Component sizes are Binomial(samples, eps); the estimator only uses
    # permutation-invariant sums, so this is an i.i.d. sample from q.
    n_h = int(gen.binomial(samples, _MC_DEFENSIVE_EPS))
    n_m = samples - n_h
    maxima = rng.gamma_small_shape(shape, n_m * d, gen).reshape(n_m, d).max(axis=1)
    # The weight is formed in log space: at small a the h draws x = U**(1/a)
    # underflow, while the weight itself stays bounded.
    log_x = np.concatenate([np.log(maxima), np.log(rng.uniform_open_closed(gen, n_h)) / a])

    # q / f_M = (1 - eps) + eps * h / f_M, with h = 0 beyond 1.
    near = log_x <= 0.0
    ln = log_x[near]
    xn = np.exp(ln)
    log_h_over_f = math.log(a) + math.lgamma(shape) - math.log(d) + (a - shape) * ln + xn
    if d > 1:
        # Where P underflows, x < 1e-300 and the leading term of its series
        # P(s, x) = x**s * exp(-x) / Gamma(s + 1) * (1 + x/(s + 1) + ...) is exact.
        pn = scipy.special.gammainc(shape, xn)
        tiny = pn < np.finfo(np.float64).tiny
        log_p = np.log(np.where(tiny, 1.0, pn))
        log_p[tiny] = shape * ln[tiny] - xn[tiny] - math.lgamma(shape + 1.0)
        log_h_over_f -= (d - 1) * log_p
    log_q_over_f = np.full(samples, math.log1p(-_MC_DEFENSIVE_EPS))
    log_q_over_f[near] = np.logaddexp(
        log_q_over_f[near], math.log(_MC_DEFENSIVE_EPS) + log_h_over_f
    )
    w = np.exp((alpha - d) / p * log_x - log_q_over_f)

    log_pref = (
        alpha * math.log(2.0)
        + d * math.lgamma(1.0 / p)
        - (d - 1) * math.log(p)
        - math.lgamma(alpha / p)
        - math.log(d - alpha)
    )
    pref = math.exp(log_pref)
    mean = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(samples))
    ssum = float(np.sum(w))
    ess = ssum * ssum / float(np.sum(w * w))
    return MonteCarloResult(pref * mean, pref * se, ess, samples)


def evaluate(query: ConstantQuery, samples: int = 1_000_000, seed: Optional[int] = None):
    """Dispatch a ConstantQuery to its method; returns the method's result type."""
    if query.method == "quadrature":
        return limit_constant_quadrature(query)
    if query.method == "closed-p-infinity":
        return limit_constant_max_norm(query.d, query.alpha)
    if query.method == "hypergeometric-d2":
        return limit_constant_planar(query.p, query.alpha)
    return limit_constant_gamma_mc(query.d, query.p, query.alpha, samples, seed)
