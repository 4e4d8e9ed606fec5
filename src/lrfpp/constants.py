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
into its 2^d - 1 natural boxes, and these are refined dyadically with
tensor-product Gauss-Legendre rules (order 8 at every d, which measured
cheapest).  The geometric tail toward the singular corner is therefore summed
exactly rather than truncated.  One evaluation budget covers all boxes and is
checked before each refinement step.  A step evaluates the rule on a box's
2^d children only, against the box's own value from its parent's step.  A box
still waiting when the budget runs out keeps that value, and its share of its
parent's difference is added to the error.  The result counts as converged
when no box is left or the summed error meets the tolerance.  For
non-integer p, y**p is not smooth at y = 0, so each shell coordinate in
[0, 1/2] is substituted as y = t**k with k*p an integer.  For the
max-coordinate norm the integral is first pushed forward through the max
statistic (volume factor d * t**(d-1)) to one dimension, which removes the
ridge lines that defeat tensor rules.
"""

from __future__ import annotations

import functools
import math
from collections import deque
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np
import scipy.special

from . import rng
from .errors import ConfigError, NotApplicable

_METHODS = ("quadrature", "closed-p-infinity", "hypergeometric-d2", "gamma-max-mc")

# Share of Monte Carlo draws taken from the power-law component near 0.
_MC_DEFENSIVE_EPS = 0.5
# h-part draws per chunk of a Monte Carlo estimate's per-alpha weights.
_MC_CHUNK = 1 << 16
#: Fewest and most samples a Monte Carlo estimate takes.  It draws d * samples / 2
#: log-Gamma variates, at a peak of 29, 32 and 127 bytes per sample at d = 1, 4 and
#: 16 and p <= 2, so d * samples is held to 4 * MC_MAX_SAMPLES, one estimate near 0.4 GB.
MC_MIN_SAMPLES = 10_000
MC_MAX_SAMPLES = 10**7


def check_mc_samples(samples: int, d: int) -> None:
    """Raise ConfigError unless samples is an integer, MC_MIN_SAMPLES <= samples <=
    MC_MAX_SAMPLES and d * samples <= 4 * MC_MAX_SAMPLES."""
    if not isinstance(samples, int):
        raise ConfigError(f"samples must be an integer, got {samples!r}")
    if not MC_MIN_SAMPLES <= samples <= MC_MAX_SAMPLES:
        raise ConfigError(f"samples must lie in [{MC_MIN_SAMPLES}, {MC_MAX_SAMPLES}], got {samples}")
    if d * samples > 4 * MC_MAX_SAMPLES:
        raise ConfigError(f"d * samples must be <= {4 * MC_MAX_SAMPLES}, got {d} * {samples}")


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
        if not isinstance(self.d, int):
            raise ConfigError(f"d must be an integer, got {self.d!r}")
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
class ConstantResult:
    """A limit constant, in one shape for every method.

    ``error`` is quadrature's certified estimate, Monte Carlo's standard error
    and 0.0 for a closed form.  ``converged`` says whether quadrature met its
    tolerance within budget; it is None for Monte Carlo and True for a closed
    form.  ``evaluations`` (quadrature), ``samples`` and ``effective_samples``
    (Monte Carlo) keep their defaults for the other methods.
    """

    value: float
    error: float
    converged: Optional[bool]
    evaluations: int = 0
    samples: int = 0
    effective_samples: Optional[float] = None


# ---------------------------------------------------------------------------
# Adaptive tensor-product Gauss quadrature on boxes
# ---------------------------------------------------------------------------


# Gauss-Legendre points per axis.  Measured per d on the benchmark grid at
# tolerance 1e-9, order 8 spent the fewest evaluations at every d (against 6,
# 7, 10 and 12); at d = 4, order 12 cannot refine all 15 boxes once in budget.
_ORDER = 8
_NODES, _WEIGHTS = np.polynomial.legendre.leggauss(_ORDER)
QUADRATURE_MAX_EVALS = 16_000_000


def _axis(lo: float, hi: float, k: int, p: float, pieces: int):
    """One axis of a tensor rule: [lo, hi] cut into equal pieces.

    The coordinate is y = t**k in the rule's variable t.  Returns y**p and
    the Gauss weights times dy/dt at the nodes, each of shape (pieces, order).
    """
    half = 0.5 * (hi - lo) / pieces
    t = (lo + half * (2 * np.arange(pieces) + 1))[:, None] + half * _NODES
    return t ** (k * p), half * _WEIGHTS * k * t ** (k - 1)


def _tensor_rule(outer: Callable[[np.ndarray], np.ndarray], axes) -> np.ndarray:
    """Tensor rule for ``outer(sum_i y_i**p)`` on every box of a product of axes.

    ``axes[i]`` is what `_axis` returns.  The boxes' grids together form one
    product grid, so the integrand is evaluated there once: the powers are
    summed by broadcasting and only ``outer`` runs per point.  Returns the
    rule on each box, shape (pieces_0, ..., pieces_{d-1}).
    """
    d = len(axes)
    s = sum(u.reshape([-1 if j == i else 1 for j in range(d)]) for i, (u, _) in enumerate(axes))
    vals = outer(s)
    for _, w in axes:
        vals = np.einsum("cnr,cn->rc", vals.reshape(*w.shape, -1), w)
    return vals.reshape([w.shape[0] for _, w in axes])


def _adaptive_boxes(
    outer: Callable[[np.ndarray], np.ndarray], p: float, boxes, tol: float, max_evals: int
) -> tuple[float, float, bool, int]:
    """Dyadic refinement of ``boxes`` under one budget, as the module docstring says.

    Each box is (lo, hi, ks): its corners in the rule's variables and the
    exponent k of y = t**k on each axis.
    """
    d = len(boxes[0][0])
    step = 2**d * _ORDER**d
    evals = len(boxes) * _ORDER**d
    if evals > max_evals:
        return 0.0, math.inf, False, 0

    def rule(lo, hi, ks, pieces):
        return _tensor_rule(outer, [_axis(a, b, k, p, pieces) for a, b, k in zip(lo, hi, ks)])

    queue = deque(
        (lo, hi, ks, tol / len(boxes), float(rule(lo, hi, ks, 1).sum()), math.inf)
        for lo, hi, ks in boxes
    )
    total = err = 0.0
    while queue and evals + step <= max_evals:
        lo, hi, ks, btol, coarse, _ = queue.popleft()
        evals += step
        children = rule(lo, hi, ks, 2)
        fine = float(children.sum())
        diff = abs(fine - coarse)
        if diff <= btol:
            total += fine
            err += diff
            continue
        mid = [0.5 * (a + b) for a, b in zip(lo, hi)]
        for sel in np.ndindex(children.shape):
            clo = tuple(mid[i] if s else lo[i] for i, s in enumerate(sel))
            chi = tuple(hi[i] if s else mid[i] for i, s in enumerate(sel))
            queue.append((clo, chi, ks, btol / 2**d, float(children[sel]), diff / 2**d))
    total += sum(box[4] for box in queue)
    err += sum(box[5] for box in queue)
    return total, err, not queue or err <= tol, evals


def limit_constant_quadrature(query: ConstantQuery) -> ConstantResult:
    """Limit constant by singular quadrature: 2**alpha times the cube integral.

    The integral of ``norm(y)_p**-alpha`` over the unit cube exploits exact
    self-similarity of the integrand under dyadic scaling: only the outer
    shell is integrated numerically and the geometric series toward the
    singular corner is summed in closed form.  At most ``QUADRATURE_MAX_EVALS``
    integrand evaluations are spent.
    """
    d, p, alpha = query.d, query.p, query.alpha
    if alpha == 0.0:
        return ConstantResult(1.0, 0.0, True)

    factor = 2.0**alpha
    scale = 1.0 / (1.0 - 2.0 ** (alpha - d))
    shell_tol = query.tolerance / factor / scale

    if p == math.inf or d == 1:
        # Pushforward through the max statistic: the image measure of the
        # max-coordinate on [0,1]^d has density d * t**(d-1), so the integral
        # equals int_0^1 d * t**(d-1-alpha) dt.  For d = 1 every p-norm is |y|
        # and this is the integrand itself.
        outer = lambda t: d * t ** (d - 1 - alpha)
        p, boxes = 1.0, [((0.5,), (1.0,), (1,))]  # one axis: the max coordinate t
    else:
        # The shell's 2^d - 1 boxes.  An axis in [0, 1/2] is substituted,
        # y = t**k with t in [0, 2**(-1/k)]; an axis in [1/2, 1] is not.
        # y**p is not smooth at 0 unless p is an integer, which stalls a Gauss
        # rule; t**(k*p) is a polynomial for the smallest k <= 8 making k*p
        # an integer, and k times smoother than y**p if there is none.
        k = next((k for k in range(1, 9) if float(k * p).is_integer()), 8)
        boxes = [
            tuple(zip(*((0.5, 1.0, 1) if s else (0.0, 0.5 ** (1.0 / k), k) for s in sel)))
            for sel in np.ndindex(*(2,) * d) if any(sel)
        ]
        outer = lambda s: s ** (-alpha / p)
    val, err, ok, ev = _adaptive_boxes(outer, p, boxes, shell_tol, QUADRATURE_MAX_EVALS)
    return ConstantResult(factor * (scale * val), factor * (scale * err), ok, ev)


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


def _log_p(shape: float, ln: np.ndarray, xn: np.ndarray) -> np.ndarray:
    """log P(shape, x) at x = exp(ln) = xn <= 1, for the regularized incomplete gamma P.

    By DLMF 8.7.1, P = x**s exp(-x) / Gamma(s + 1) * (1 + sum_k x**k / ((s+1)...(s+k))),
    summed by Horner's rule in one new buffer; xn is overwritten.  At x <= 1 term k is
    below 1/k!, so 18 terms reach 2**-53.  Both callers have x <= 1 (the maxima <= 1,
    and U**(1/a) for the h part), and log space keeps subnormal x and an underflowing
    P exact.
    """
    coef = np.cumprod(1.0 / (shape + np.arange(1.0, 19.0)))
    log_p = np.multiply(xn, coef[-1])
    for c in coef[-2::-1]:
        log_p += c
        log_p *= xn
    np.log1p(log_p, out=log_p)
    log_p -= xn
    log_p += np.multiply(ln, shape, out=xn)
    log_p -= math.lgamma(shape + 1.0)
    return log_p


@functools.lru_cache(maxsize=1)
def _mixture_draw(d: int, p: float, samples: int, seed: int):
    """The alpha-free part of a Monte Carlo estimate: its draws from q, in log space.

    Returns read-only arrays (log_m, log_u, near, log_p): the logs of the n_m
    Gamma maxima of the f_M part, log U of the n_h draws of the h part (an h
    variate is U**(1/a), so log x = log U / a), the indices of the maxima
    <= 1, and log P(1/p, M) at those maxima for d > 1 (None for d = 1).
    One draw is kept, so the cells of one (d, p) evaluated in a row draw once;
    a miss drops it first, so at most one draw is ever alive.
    """
    _mixture_draw.cache_clear()
    shape = 1.0 / p
    gen = rng.generator(seed, rng.STREAM_MC)
    # Component sizes are Binomial(samples, eps); the estimator only uses
    # permutation-invariant sums, so this is an i.i.d. sample from q.
    n_h = int(gen.binomial(samples, _MC_DEFENSIVE_EPS))
    n_m = samples - n_h
    log_m = np.maximum.reduce(rng.log_gamma_small_shape(shape, d * n_m, gen).reshape(d, n_m))
    log_u = rng.uniform_open_closed(gen, n_h)
    np.log(log_u, out=log_u)
    near = np.flatnonzero(log_m <= 0.0)
    log_p = None
    if d > 1:
        ln = log_m[near]
        log_p = _log_p(shape, ln, np.exp(ln))
    for arr in (log_m, log_u, near, log_p):
        if arr is not None:
            arr.setflags(write=False)
    return log_m, log_u, near, log_p


def limit_constant_gamma_mc(
    d: int,
    p: float,
    alpha: float,
    samples: int,
    seed: int = 0,
) -> ConstantResult:
    """Monte Carlo identity through the max of d independent Gamma(1/p, 1).

    The constant is a closed-form prefactor times E[M**((alpha - d)/p)], where
    M is the maximum of d Gamma(1/p, 1) variates.  Sampling M directly gives
    weights of infinite variance for alpha < d/2: near 0 the law of M has
    F_M(x) ~ c * x**(d/p), so small maxima dominate.  Instead x is drawn from
    the defensive mixture (Hesterberg 1995)

        q = (1 - eps) * f_M + eps * h,   h(x) = a * x**(a - 1) on (0, 1],

    with eps = 1/2 and a = alpha/p, and weighted by x**((alpha - d)/p) *
    f_M(x) / q(x).  The exact density f_M(x) = d * P(1/p, x)**(d - 1) * x**(1/p - 1) *
    exp(-x) / Gamma(1/p) uses the regularized incomplete gamma function P, needed only
    at x <= 1 and summed there by its series in log space (`_log_p`).  The h part
    matches the integrand's x**(alpha/p - 1) behaviour at 0 and the f_M part covers
    x > 1, so every weight is bounded by a constant.  The weights then have finite
    variance, the central limit theorem applies, and the sample standard error is a
    valid yardstick.  The method uses no quadrature, so it stays independent of it.

    Every draw is made and kept in log space: a Gamma(1/p) variate as
    log Gamma(1/p + 1) + p * log(U) (Stuart's identity), laid out as (d, n)
    so that the maximum is one contiguous reduction, and an h variate as
    log(U) / a.  At large p or small alpha x is far below the smallest float,
    yet log x and the weight stay finite.

    Nothing drawn depends on alpha but the scale of the h part, so the draw
    (`_mixture_draw`) is kept for the next call with the same (d, p, samples,
    seed), and only the weights are computed per alpha, those of the h part
    in chunks of ``_MC_CHUNK``.  The result is the same as with a fresh draw.  Cells of one
    (d, p) at one seed therefore have correlated errors across alpha, while
    each standard error stays valid for its own cell.
    """
    ConstantQuery(d, p, alpha, "gamma-max-mc")
    check_mc_samples(samples, d)
    log_m, log_u, near, log_pm = _mixture_draw(d, p, samples, seed)

    shape = 1.0 / p
    a = alpha / p
    slope = (alpha - d) / p
    log_far = math.log1p(-_MC_DEFENSIVE_EPS)
    log_h_over_f0 = math.log(a) + math.lgamma(shape) - math.log(d)

    def log_w_near(ln, log_p):
        # The log weight slope * log x - log(q / f_M) at x = exp(ln) <= 1,
        # with q / f_M = (1 - eps) + eps * h / f_M; ln is overwritten.
        xn = np.exp(ln)
        log_q = np.multiply(ln, a - shape)
        log_q += log_h_over_f0
        log_q += xn
        if d > 1:
            log_p = _log_p(shape, ln, xn) if log_p is None else log_p
            log_q -= np.multiply(log_p, d - 1, out=xn)
        log_q += math.log(_MC_DEFENSIVE_EPS)
        # np.logaddexp(log_far, log_q) by its own formula, max + log1p(exp(min - max)).
        np.minimum(log_q, log_far, out=xn)
        np.maximum(log_q, log_far, out=log_q)
        xn -= log_q
        log_q += np.log1p(np.exp(xn, out=xn), out=xn)
        ln *= slope
        return np.subtract(ln, log_q, out=ln)

    n_m = log_m.size
    w = np.empty(samples)
    # Beyond 1, h = 0 and q / f_M = 1 - eps.
    np.multiply(log_m, slope, out=w[:n_m])
    w[:n_m] -= log_far
    w[near] = log_w_near(log_m[near], log_pm)
    for lo in range(0, log_u.size, _MC_CHUNK):
        w[n_m + lo:n_m + lo + _MC_CHUNK] = log_w_near(log_u[lo:lo + _MC_CHUNK] / a, None)
    np.exp(w, out=w)

    pref = math.exp(
        alpha * math.log(2.0)
        + d * math.lgamma(1.0 / p)
        - (d - 1) * math.log(p)
        - math.lgamma(alpha / p)
        - math.log(d - alpha)
    )
    mean = float(np.mean(w))
    se = float(np.std(w, ddof=1) / math.sqrt(samples))
    ssum = float(np.sum(w))
    ess = ssum * ssum / float(np.sum(np.square(w, out=w)))
    return ConstantResult(pref * mean, pref * se, None, samples=samples, effective_samples=ess)


def evaluate(query: ConstantQuery, samples: int, seed: int = 0) -> ConstantResult:
    """Dispatch a ConstantQuery to its method; a closed form has error 0.0."""
    if query.method == "quadrature":
        return limit_constant_quadrature(query)
    if query.method == "gamma-max-mc":
        return limit_constant_gamma_mc(query.d, query.p, query.alpha, samples, seed)
    if query.method == "closed-p-infinity":
        value = limit_constant_max_norm(query.d, query.alpha)
    else:
        value = limit_constant_planar(query.p, query.alpha)
    return ConstantResult(value, 0.0, True)
