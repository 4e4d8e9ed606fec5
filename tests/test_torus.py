"""Torus geometry: canonical coordinates and the minimal-residue norm."""

import math
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lrfpp import ConfigError, Site, TorusConfig, canonicalize, torus_norm
from lrfpp import torus
from lrfpp.errors import EnumerationCapError


def _norm_enumerated(u, cfg):
    """Reference norm: minimum over the 3^d representatives ``coords + m*k``.

    Exponentially slower than ``torus_norm``; an independent oracle for its
    per-coordinate residue form.
    """
    best = math.inf
    d, m, p = cfg.d, cfg.m, cfg.p
    for shift in np.ndindex(*(3,) * d):
        rep = [abs(c + (k - 1) * m) for c, k in zip(u.coords, shift)]
        if p == math.inf:
            val = float(max(rep))
        elif p == 1.0:
            val = float(sum(rep))
        elif p == 2.0:
            val = math.sqrt(sum(r * r for r in rep))
        else:
            val = float(sum(float(r) ** p for r in rep)) ** (1.0 / p)
        best = min(best, val)
    return best


def test_config_validation():
    with pytest.raises(ConfigError):
        TorusConfig(0, 4)
    with pytest.raises(ConfigError):
        TorusConfig(2, 1)
    with pytest.raises(ConfigError):
        TorusConfig(2, 4, p=0.5)
    with pytest.raises(ConfigError):
        TorusConfig(2, 4, alpha=2.0)  # alpha < d is strict
    with pytest.raises(ConfigError):
        TorusConfig(1, 5, alpha=1.0)
    cfg = TorusConfig(2, 4, math.inf, 1.5)
    assert cfg.n == 16


def test_volume_limit_is_checked_before_the_volume_is_built():
    # m >= 2 and d > 53 give m**d > 2**53, so a huge d fails at once rather
    # than after building an integer of d * log2(m) bits.
    started = time.perf_counter()
    with pytest.raises(ConfigError, match="exactly representable"):
        TorusConfig(10**12, 3, alpha=0.5)
    assert time.perf_counter() - started < 1.0
    # The accepted tori are those with m**d <= 2**53, checked on both sides of
    # the largest accepted m for every d up to past 53.
    for d in range(1, 60):
        top = math.floor(2 ** (53 / d))
        for m in range(max(2, top - 2), top + 3):
            try:
                accepted = TorusConfig(d, m).n == m**d
            except ConfigError:
                accepted = False
            assert accepted == (m**d <= 2**53), (d, m)


def test_zero_vector_norm_is_zero():
    for d, m, p in [(1, 5, 2.0), (2, 4, 1.0), (3, 3, math.inf)]:
        cfg = TorusConfig(d, m, p, 0.0)
        assert torus_norm(Site((0,) * d), cfg) == 0.0


def test_wraparound_representative():
    # (4, 0) on the 5-torus is equivalent to (-1, 0); all 9 representatives
    # confirm the max-norm value 1.
    cfg = TorusConfig(2, 5, math.inf, 0.0)
    u = canonicalize((4, 0), cfg)
    assert u == Site((-1, 0))
    assert torus_norm(u, cfg) == 1.0
    assert _norm_enumerated(u, cfg) == 1.0


def test_antipodal_even_side():
    # On the even 4-torus (2, 2) is its own antipode; every minimal
    # representative gives 1-norm 4.
    cfg = TorusConfig(2, 4, 1.0, 0.0)
    u = canonicalize((2, 2), cfg)
    assert torus_norm(u, cfg) == 4.0
    assert _norm_enumerated(u, cfg) == 4.0


def test_noncanonical_input_rejected():
    cfg = TorusConfig(2, 5, 2.0, 0.0)
    with pytest.raises(ConfigError):
        torus_norm(Site((4, 0)), cfg)
    with pytest.raises(ConfigError):
        torus_norm(Site((0,)), cfg)
    # Only a Site is a site: a tuple or a string of coordinates is refused.
    for u in ((0, 0), "00"):
        with pytest.raises(ConfigError, match="expected a Site"):
            torus_norm(u, cfg)
        with pytest.raises(ConfigError, match="expected a Site"):
            torus.site_to_index(u, cfg)


def _nearest_sites(cfg):
    """(site, norm) of the n - 1 nonzero sites in ``sorted_order``, which puts
    the origin first."""
    order, norms = torus.sorted_order(cfg), torus.norm_table(cfg)
    assert order[0] == torus.origin_index(cfg)
    return [(torus.index_to_site(int(i), cfg), float(norms[i])) for i in order[1:]]


def test_sorted_order_line_of_five():
    cfg = TorusConfig(1, 5, 2.0, 0.5)
    got = _nearest_sites(cfg)
    assert got == [
        (Site((-1,)), 1.0),
        (Site((1,)), 1.0),
        (Site((-2,)), 2.0),
        (Site((2,)), 2.0),
    ]


def test_sorted_order_all_neighbors():
    cfg = TorusConfig(2, 3, math.inf, 0.0)
    got = _nearest_sites(cfg)
    assert len(got) == 8
    assert all(norm == 1.0 for _, norm in got)


def test_sorted_order_two_point_torus():
    cfg = TorusConfig(1, 2, 2.0, 0.5)
    got = _nearest_sites(cfg)
    # The canonical representative of the single nonzero class is -1.
    assert got == [(Site((-1,)), 1.0)]


@pytest.mark.parametrize("d, m", [(1, 7), (2, 6), (2, 9), (3, 4), (3, 5), (4, 4), (4, 5)])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_sorted_order_breaks_norm_ties_by_coordinates(d, m, p):
    # Reference: sort by norm, then lexicographically by canonical coordinates.
    cfg = TorusConfig(d, m, p, 0.5)
    coords = np.indices((m,) * d).reshape(d, -1).T - cfg.half
    key = tuple(coords[:, i] for i in reversed(range(d))) + (torus.norm_table(cfg),)
    assert np.array_equal(torus.sorted_order(cfg), np.lexsort(key))


def test_enumeration_cap():
    cfg = TorusConfig(1, 2**27, 2.0, 0.5)
    with pytest.raises(EnumerationCapError):
        torus.sorted_order(cfg)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=9),
    st.data(),
)
def test_canonicalize_idempotent_and_class_invariant(d, m, data):
    cfg = TorusConfig(d, m, 2.0, 0.0)
    coords = data.draw(st.tuples(*(st.integers(-50, 50) for _ in range(d))))
    shifts = data.draw(st.tuples(*(st.integers(-3, 3) for _ in range(d))))
    u = canonicalize(coords, cfg)
    assert canonicalize(u.coords, cfg) == u
    shifted = tuple(c + k * m for c, k in zip(coords, shifts))
    assert canonicalize(shifted, cfg) == u
    lo, hi = -cfg.half, (m + 1) // 2 - 1
    assert all(lo <= c <= hi for c in u.coords)


@settings(max_examples=150, deadline=None)
@given(
    st.integers(min_value=1, max_value=3),
    st.integers(min_value=2, max_value=8),
    st.sampled_from([1.0, 1.7, 2.0, 3.5, math.inf]),
    st.data(),
)
def test_norm_symmetry(d, m, p, data):
    cfg = TorusConfig(d, m, p, 0.0)
    coords = data.draw(st.tuples(*(st.integers(-20, 20) for _ in range(d))))
    u = canonicalize(coords, cfg)
    neg = canonicalize(tuple(-c for c in u.coords), cfg)
    assert torus_norm(u, cfg) == pytest.approx(torus_norm(neg, cfg), abs=1e-12)


def _all_sites(cfg):
    return [torus.index_to_site(i, cfg) for i in range(cfg.n)]


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, math.inf])
@pytest.mark.parametrize("d,m", [(1, 5), (1, 8), (2, 4), (2, 6), (3, 4)])
def test_residue_form_matches_enumeration(d, m, p):
    cfg = TorusConfig(d, m, p, 0.0)
    for u in _all_sites(cfg):
        assert torus_norm(u, cfg) == pytest.approx(
            _norm_enumerated(u, cfg), rel=1e-12
        )


@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
@pytest.mark.parametrize("d,m", [(1, 5), (1, 8), (2, 5), (2, 6), (3, 3), (3, 4)])
def test_norm_table_equals_scalar_norm_exactly(d, m, p):
    # The table uses one p-norm formula for every finite p; numpy's fast paths
    # for x**1.0, x**2.0 and x**0.5 make it equal the scalar norm bit for bit.
    cfg = TorusConfig(d, m, p, 0.0)
    assert torus.norm_table(cfg).tolist() == [torus_norm(u, cfg) for u in _all_sites(cfg)]


@pytest.mark.parametrize("d,m", [(1, 5), (1, 6), (2, 4), (2, 5), (2, 6)])
def test_triangle_inequality_exhaustive(d, m):
    cfg = TorusConfig(d, m, 2.0, 0.0)
    sites = _all_sites(cfg)
    norms = {s: torus_norm(s, cfg) for s in sites}

    def dist(a, b):
        diff = tuple(x - y for x, y in zip(a.coords, b.coords))
        return norms[canonicalize(diff, cfg)]

    for a in sites:
        for b in sites:
            for c in sites:
                assert dist(a, c) <= dist(a, b) + dist(b, c) + 1e-12


def test_norm_monotone_in_p():
    cfg_base = TorusConfig(2, 7, 2.0, 0.0)
    for i in range(cfg_base.n):
        u = torus.index_to_site(i, cfg_base)
        vals = [
            torus_norm(u, TorusConfig(2, 7, p, 0.0)) for p in (1.0, 1.5, 2.0, 4.0, math.inf)
        ]
        assert all(a >= b - 1e-12 for a, b in zip(vals, vals[1:]))


def test_index_roundtrip():
    cfg = TorusConfig(3, 5, 2.0, 0.0)
    for i in range(cfg.n):
        assert torus.site_to_index(torus.index_to_site(i, cfg), cfg) == i


def test_pair_difference_index():
    cfg = TorusConfig(2, 5, 2.0, 0.0)
    rng = np.random.default_rng(3)
    i = rng.integers(cfg.n, size=50)
    j = rng.integers(cfg.n, size=50)
    got = torus.pair_difference_index(i, j, cfg)
    for a, b, g in zip(i, j, got):
        sa = torus.index_to_site(int(a), cfg)
        sb = torus.index_to_site(int(b), cfg)
        diff = canonicalize(
            tuple(x - y for x, y in zip(sa.coords, sb.coords)), cfg
        )
        assert torus.site_to_index(diff, cfg) == int(g)
