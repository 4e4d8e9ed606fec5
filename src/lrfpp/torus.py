"""Geometry of the discrete d-dimensional torus.

Points live in the canonical window ``[-floor(m/2), ceil(m/2) - 1]`` per axis,
which contains exactly ``m`` representatives for both parities of ``m``.  The
torus p-norm of a point is the minimum p-norm over all integer representatives
of its equivalence class modulo ``m * Z^d``; per coordinate this reduces to the
minimal absolute residue (the tests check it against the minimum over the 3^d
nearest representatives).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Tuple

import numpy as np

from .errors import ConfigError, EnumerationCapError

#: Largest table accepted for dense enumeration: n entries for the norm tables,
#: and (2m)**d = 2**d * n for the thinning sampler's key table
#: (``weights.site_keys``) and ``weights.difference_table``, 12 bytes per entry.
ENUMERATION_CAP = 2**26


@dataclass(frozen=True)
class TorusConfig:
    """Parameter block of the model: dimension, side length, norm, exponent.

    Attributes:
        d: dimension, >= 1.
        m: side length, >= 2; the volume is n = m**d.
        p: norm index in [1, inf); ``math.inf`` selects the max-coordinate norm.
        alpha: long-range exponent, 0 <= alpha < d (strict).
    """

    d: int
    m: int
    p: float = 2.0
    alpha: float = 0.0

    def __post_init__(self):
        if not isinstance(self.d, int) or self.d < 1:
            raise ConfigError(f"d must be a positive integer, got {self.d!r}")
        if not isinstance(self.m, int) or self.m < 2:
            raise ConfigError(f"m must be an integer >= 2, got {self.m!r}")
        if not (self.p >= 1.0):
            raise ConfigError(f"p must satisfy p >= 1, got {self.p!r}")
        if not (self.alpha >= 0.0):
            raise ConfigError(f"alpha must be >= 0, got {self.alpha!r}")
        if not (self.alpha < self.d):
            raise ConfigError(f"alpha must be < d (got alpha={self.alpha!r}, d={self.d})")
        # Exact integer volume; reject sizes whose float image is no longer exact,
        # so n can be used in rate formulas without silent precision loss.  As
        # m >= 2, d > 53 alone gives m**d > 2**53; it is checked first, because
        # building m**d takes time that grows faster than d.
        if self.d > 53 or self.m**self.d > 2**53:
            raise ConfigError("m**d exceeds the exactly representable integer range")

    @property
    def n(self) -> int:
        """Volume of the torus, computed exactly in integer arithmetic."""
        return self.m**self.d

    @property
    def half(self) -> int:
        """Offset floor(m/2) between grid indices and canonical coordinates."""
        return self.m // 2


@dataclass(frozen=True)
class Site:
    """A lattice point in canonical coordinates."""

    coords: Tuple[int, ...]


def canonicalize(coords: Iterable[int], cfg: TorusConfig) -> Site:
    """Map arbitrary integer coordinates to the canonical representative.

    Idempotent, and constant on equivalence classes modulo m * Z^d.
    """
    half = cfg.half
    m = cfg.m
    canon = tuple((int(c) + half) % m - half for c in coords)
    if len(canon) != cfg.d:
        raise ConfigError(f"expected {cfg.d} coordinates, got {len(canon)}")
    return Site(canon)


def origin(cfg: TorusConfig) -> Site:
    return Site((0,) * cfg.d)


def _check_canonical(u: Site, cfg: TorusConfig) -> None:
    if not isinstance(u, Site):
        raise ConfigError(f"expected a Site, got {u!r}")
    if len(u.coords) != cfg.d:
        raise ConfigError(f"site has {len(u.coords)} coordinates, expected {cfg.d}")
    lo, hi = -cfg.half, (cfg.m + 1) // 2 - 1
    for c in u.coords:
        if not (lo <= c <= hi):
            raise ConfigError(f"coordinate {c} outside canonical window [{lo}, {hi}]")


def torus_norm(u: Site, cfg: TorusConfig) -> float:
    """Torus p-norm of a canonical site: p-norm of minimal absolute residues.

    For canonical coordinates the minimal residue per axis is just ``abs(c)``
    (for even m the antipode -m/2 attains abs value m/2, which is minimal).
    """
    _check_canonical(u, cfg)
    residues = [abs(c) for c in u.coords]
    if cfg.p == math.inf:
        return float(max(residues))
    if cfg.p == 1.0:
        return float(sum(residues))
    if cfg.p == 2.0:
        return math.sqrt(sum(r * r for r in residues))
    return float(sum(float(r) ** cfg.p for r in residues)) ** (1.0 / cfg.p)


# ---------------------------------------------------------------------------
# Array-level tables, shared by the weight and exploration machinery.
# Grid index g per axis maps to canonical coordinate c = g - floor(m/2);
# flat indices are C-order over the d axes.
# ---------------------------------------------------------------------------


def _check_cap(cfg: TorusConfig) -> None:
    if cfg.n > ENUMERATION_CAP:
        raise EnumerationCapError(
            f"n = {cfg.n} exceeds the dense enumeration cap {ENUMERATION_CAP}"
        )


@lru_cache(maxsize=64)
def norm_table(cfg: TorusConfig) -> np.ndarray:
    """Flat array of torus norms for every site, indexed by flat grid index."""
    _check_cap(cfg)
    axis = np.abs(np.arange(cfg.m) - cfg.half).astype(np.float64)
    if cfg.p == math.inf:
        grid = axis
        for _ in range(cfg.d - 1):
            grid = np.maximum(grid[..., None], axis)
    else:
        # numpy takes x**1.0, x**2.0, x**0.5 as copy, square, sqrt: p = 1, 2 need no branch.
        grid = axis**cfg.p
        for _ in range(cfg.d - 1):
            grid = grid[..., None] + axis**cfg.p
        grid = grid ** (1.0 / cfg.p)
    return grid.ravel()


@lru_cache(maxsize=64)
def sorted_order(cfg: TorusConfig) -> np.ndarray:
    """Flat indices of all n sites sorted by (norm, lexicographic coordinates);
    read-only.  C-order flat indices are lexicographic, so a stable sort keeps that order."""
    order = np.argsort(norm_table(cfg), kind="stable")
    order.setflags(write=False)
    return order


def site_to_index(u: Site, cfg: TorusConfig) -> int:
    _check_canonical(u, cfg)
    idx = 0
    for c in u.coords:
        idx = idx * cfg.m + (c + cfg.half)
    return idx


def index_to_site(i: int, cfg: TorusConfig) -> Site:
    if not (0 <= i < cfg.n):
        raise ConfigError(f"flat index {i} out of range for n = {cfg.n}")
    coords = []
    for _ in range(cfg.d):
        coords.append(i % cfg.m - cfg.half)
        i //= cfg.m
    return Site(tuple(reversed(coords)))


def origin_index(cfg: TorusConfig) -> int:
    return site_to_index(origin(cfg), cfg)


def pair_difference_index(i: np.ndarray, j: np.ndarray, cfg: TorusConfig) -> np.ndarray:
    """Flat index of the canonical difference site(i) - site(j), vectorized."""
    m, half, d = cfg.m, cfg.half, cfg.d
    i = np.asarray(i, dtype=np.int64)
    j = np.asarray(j, dtype=np.int64)
    out = np.zeros_like(i)
    # Peel axes from the least significant (last) coordinate.
    scale = 1
    for _ in range(d):
        gi = (i // scale) % m
        gj = (j // scale) % m
        out += ((gi - gj + half) % m) * scale
        scale *= m
    return out
