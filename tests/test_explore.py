"""Exploration process, edge-weight realizations, and shortest-path oracles."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.stats
from scipy.sparse import csgraph, csr_matrix

from lrfpp import (
    ConfigError,
    EdgeWeightSample,
    StopRule,
    TorusConfig,
    diameter_exact,
    dijkstra_oracle,
    distance_matrix,
    ks_one_sample,
    ks_two_sample,
    origin,
    run_exploration,
    run_explorations,
    total_rate,
)
from lrfpp import explore, rng, stats, torus, weights
from lrfpp.explore import THRESHOLD_SCALE

from exact_laws import birth_chain, event_rates, newborn_law, set_chain


def _runs(cfg, stop, seeds, sources=None):
    """``run_explorations`` records, one per seed, from the origin unless ``sources`` says."""
    sources = [origin(cfg)] * len(seeds) if sources is None else sources
    return run_explorations(cfg, seeds, sources, [stop] * len(seeds))


def _meeting_runs(cfg, seeds, srcs):
    """Meeting runs of one ``_Lockstep`` block with room for every site: each
    run's sites and times, and the side each of its sites was held on."""
    block = explore._Lockstep(cfg, seeds, srcs, cfg.n)
    while block.rows.size:
        block.birth()
    sites = [block.site_indices(r) for r in range(len(block.born))]
    return [(s, block.times[r, : s.size], block.side[r, s]) for r, s in enumerate(sites)]


def _largest_block(cfg, cap, meeting=False, bound=1000):
    """The most runs of at most ``cap`` sites that ``block_count`` puts in one block."""
    assert explore.block_count(cfg, cap, bound, meeting) > 1, "raise the search bound"
    return max(s for s in range(1, bound) if explore.block_count(cfg, cap, s, meeting) == 1)


# ---------------------------------------------------------------------------
# Record structure and stop rules
# ---------------------------------------------------------------------------


def test_record_structure_and_monotone_times():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    rec = run_exploration(origin(cfg), StopRule.full(), cfg, 0)
    assert rec.n_born == cfg.n
    assert rec.times[0] == 0.0
    assert (np.diff(rec.times) > 0).all()
    assert rec.site_indices[0] == torus.origin_index(cfg)
    # The audited rate before the j-th birth comes from a j-vertex cluster.
    rates = event_rates(cfg, rec.site_indices)
    for j in range(1, rec.n_born):
        lo, hi = weights.rate_bounds(cfg, j)
        assert lo - 1e-9 * hi <= rates[j] <= hi + 1e-9 * hi
    assert np.searchsorted(rec.times, 0.0, side="right") == 1
    assert np.searchsorted(rec.times, rec.times[-1], side="right") == cfg.n


def test_stop_count():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    rec = run_exploration(origin(cfg), StopRule.count(5), cfg, 1)
    assert rec.n_born == 6
    with pytest.raises(ConfigError):
        run_exploration(origin(cfg), StopRule.count(cfg.n), cfg, 1)


def test_stop_target_and_self_target():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    v = torus.index_to_site(7, cfg)
    rec = run_exploration(origin(cfg), StopRule.target(v), cfg, 2)
    assert rec.site_indices[-1] == torus.site_to_index(v, cfg)
    assert run_exploration(origin(cfg), StopRule.target(origin(cfg)), cfg, 3).times[-1] == 0.0
    # A source or a target that is not a Site is a configuration error.
    for u, stop in (((0, 0), StopRule.target(v)), (origin(cfg), StopRule.target((1, 2)))):
        with pytest.raises(ConfigError, match="expected a Site"):
            run_explorations(cfg, [3], [u], [stop])


def test_count_stop_is_the_prefix_of_the_full_run():
    # Same seed, same stream: a run stopped after k births reproduces the
    # first k + 1 entries of the full run, bit for bit.
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    full = run_exploration(origin(cfg), StopRule.full(), cfg, 4)
    for k in (1, cfg.n // 2, cfg.n - 1):
        rec = run_exploration(origin(cfg), StopRule.count(k), cfg, 4)
        assert np.array_equal(rec.site_indices, full.site_indices[: k + 1])
        assert np.array_equal(rec.times, full.times[: k + 1])


def test_stop_rule_takes_a_count_of_one_or_more_or_a_target_alone():
    cfg = TorusConfig(2, 8, 2.0, 0.5)
    v = torus.index_to_site(9, cfg)
    for kwargs in ({"k": 0}, {"k": -3}, {"k": 3, "site": v}, {"k": 2.5}, {"k": 3.0},
                   {"k": True}):
        with pytest.raises(ConfigError, match="a stop takes a count >= 1 or a target site"):
            StopRule(**kwargs)
    assert StopRule(k=1).k == 1 and StopRule(site=v).site == v
    assert _runs(cfg, StopRule(k=np.int64(3)), [0])[0].n_born == 4


def test_records_own_their_arrays():
    # A record holds copies, not views into its block's output arrays, so a
    # kept record does not keep the whole block alive; a full run passes n/2
    # and mirrors, so S has lived in a buffer of its own.
    cfg = TorusConfig(2, 8, 2.0, 1.0)
    v = torus.index_to_site(36, cfg)
    for stop in (StopRule.count(5), StopRule.target(v), StopRule.full()):
        for rec in _runs(cfg, stop, [(6, r) for r in range(3)]):
            assert all(x.base is None for x in (rec.site_indices, rec.times))


def test_meeting_record_holds_both_sides_then_the_target():
    # A target stop records the source, the newborns of both sides in event
    # order at their radius times, and the target at twice the meeting radius.
    # The audited first event rate is cut(U) + cut(V) = 2 R_n, and before
    # entry i the run holds i + 1 sites, each side inside its own sandwich.
    cfg = TorusConfig(2, 8, 2.0, 1.0)
    u, v, rn = torus.index_to_site(0, cfg), torus.index_to_site(36, cfg), total_rate(cfg)
    seeds = [(24, r) for r in range(50)]
    records = _runs(cfg, StopRule.target(v), seeds, [u] * 50)
    for rec, (sites, times, sides) in zip(records, _meeting_runs(cfg, seeds, [[0, 36]] * 50)):
        assert np.array_equal(rec.site_indices, sites) and np.array_equal(rec.times, times)
        assert (sites[0], sites[-1]) == (0, 36) and len(set(sites.tolist())) == rec.n_born
        assert (np.diff(rec.times[:-1]) > 0).all() and rec.times[-1] >= 2.0 * rec.times[-2]
        rates = event_rates(cfg, sites, sides)
        assert rates[1] == 2.0 * rn
        b = np.r_[1, 1 + np.cumsum(sides[1:-1] == 2)]  # on side 2 before entry 1, 2, ...
        held = np.arange(2, rec.n_born + 1)
        lower = weights.rate_bounds(cfg, held - b)[0] + weights.rate_bounds(cfg, b)[0]
        assert (lower - 1e-9 * held * rn <= rates[1:]).all()
        assert (rates[1:] <= held * rn * (1.0 + 1e-12)).all()


def test_two_site_torus_single_birth():
    cfg = TorusConfig(1, 2, 2.0, 0.5)
    samples = np.array(
        [rec.times[1] for rec in _runs(cfg, StopRule.full(), [(5, r) for r in range(2000)])]
    )
    # Single edge of norm 1: birth time is a rate-1 exponential.
    _, p = ks_one_sample(samples, lambda t: 1.0 - np.exp(-np.asarray(t)))
    assert p > 1e-4
    assert samples.mean() == pytest.approx(1.0, abs=5.0 / math.sqrt(2000))


def test_first_interbirth_time_is_exponential_at_total_rate():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    rn = total_rate(cfg)
    first = np.array(
        [rec.times[1] for rec in _runs(cfg, StopRule.count(1), [(6, r) for r in range(2000)])]
    )
    _, p = ks_one_sample(first, lambda t: 1.0 - np.exp(-rn * np.asarray(t)))
    assert p > 1e-4


def test_complete_graph_flooding_mean_identity():
    # With exponent 0 the jump rates are exactly j(n - j), so the mean
    # flooding time is the exact double-harmonic sum.
    cfg = TorusConfig(1, 8, 2.0, 0.0)
    n = cfg.n
    target = sum(1.0 / (j * (n - j)) for j in range(1, n))
    reps = 3000
    records = _runs(cfg, StopRule.full(), [(7, r) for r in range(reps)])
    times = np.array([rec.times[-1] for rec in records])
    se = times.std(ddof=1) / math.sqrt(reps)
    assert abs(times.mean() - target) <= 3.5 * se


def _tau_sample(cfg, k, tag, reps):
    records = _runs(cfg, StopRule.count(k), [(tag, r) for r in range(reps)])
    return np.array([rec.times[k] for rec in records])


def test_exact_laws_agree_with_closed_forms():
    # The reference itself: at alpha = 0 the set chain lumps onto the birth
    # chain; at any alpha the first birth is Exp(R_n) and the first newborn
    # is z with probability norm(z)**-alpha / R_n; on two sites the one birth
    # is Exp(1).
    t = np.linspace(0.0, 3.0, 61)
    flat = TorusConfig(2, 3, 2.0, 0.0)
    lumped = birth_chain(flat.n, flat.n - 1, 3.0)
    law = set_chain(flat, flat.n - 1, 3.0)
    assert np.abs(law.sizes(t) - lumped.sizes(t)).max() <= 1e-12
    assert np.abs(law.typical_cdf(t) - lumped.typical_cdf(t)).max() <= 1e-12
    cfg = TorusConfig(2, 4, 2.0, 1.0)
    rn = total_rate(cfg)
    assert np.abs(set_chain(cfg, 3, 3.0).tau_cdf(1)(t) + np.expm1(-rn * t)).max() <= 1e-12
    first = newborn_law(cfg, torus.origin_index(cfg), 1)
    assert np.abs(first - weights._weight_table(cfg) / rn).max() <= 1e-15
    assert np.abs(birth_chain(2, 1, 3.0).tau_cdf(1)(t) + np.expm1(-t)).max() <= 1e-12


@pytest.mark.parametrize(
    "k, p, tag",
    [(6, 2.0, 8), (12, 2.0, 43), (15, 2.0, 36), (15, 1.0, 44), (15, math.inf, 45)],
    ids=["tau6", "tau12", "flooding", "flooding-p1", "flooding-pinf"],
)
def test_thinning_matches_exact_law(k, p, tag):
    # tau12 passes n/2 = 8 sites and stops before S, the free sites that
    # propose past it, is first rebuilt; the floodings rebuild it twice.
    cfg = TorusConfig(2, 4, p, 1.0)
    a = _tau_sample(cfg, k, tag, 1500)
    _, pvalue = ks_one_sample(a, set_chain(cfg, k, a.max()).tau_cdf(k))
    assert pvalue > 1e-4


def test_exact_tau_law_rejects_a_raised_alpha():
    # The reference has power: the tau_6 law of the same torus with alpha
    # raised by 0.3 rejects the sample that ``[tau6]`` above accepts.
    cfg = TorusConfig(2, 4, 2.0, 1.0)
    a = _tau_sample(cfg, 6, 8, 1500)
    raised = TorusConfig(cfg.d, cfg.m, cfg.p, cfg.alpha + 0.3)
    _, p = ks_one_sample(a, set_chain(raised, 6, a.max()).tau_cdf(6))
    assert p < 1e-4


@pytest.mark.parametrize("alpha, p", [(1.5, 2.0), (0.5, 1.0)], ids=["a1.5-p2", "a0.5-p1"])
def test_thinning_matches_oracle_on_flooding(alpha, p):
    # Beyond the set chain's reach: the largest single-source oracle distance.
    cfg = TorusConfig(2, 16, p, alpha)
    a = _tau_sample(cfg, cfg.n - 1, 30, 600)
    b = np.array([dijkstra_oracle(origin(cfg), cfg, (31, r)).max() for r in range(600)])
    _, pvalue = ks_two_sample(a, b)
    assert pvalue > 1e-4


def test_thinning_matches_exact_law_on_third_newborn():
    # Where the third newborn lands, over the 24 non-source sites: chi-square
    # goodness of fit against the law summed over the first two newborns.
    cfg = TorusConfig(2, 5, 1.0, 1.0)
    reps, src = 4000, torus.origin_index(cfg)
    records = _runs(cfg, StopRule.count(3), [(32, r) for r in range(reps)])
    counts = np.bincount([rec.site_indices[3] for rec in records], minlength=cfg.n)
    law = newborn_law(cfg, src, 3)
    others = np.arange(cfg.n) != src
    assert counts[src] == 0 and (law[others] > 0).all()
    _, p = scipy.stats.chisquare(counts[others], reps * law[others])
    assert p > 1e-4


@pytest.mark.parametrize("k", [16, 255])
def test_thinning_matches_janson_at_alpha_zero(k):
    # At alpha = 0 every W_D(z) is |D|, so tau_k is Janson's sum of
    # independent Exp(j (n - j)), j <= k; k = n - 1 is the flooding time.
    cfg = TorusConfig(2, 16, 2.0, 0.0)
    a = _tau_sample(cfg, k, 37, 1000)
    _, p = ks_one_sample(a, birth_chain(cfg.n, k, a.max()).tau_cdf(k))
    assert p > 1e-4


def _typical_sample(cfg, tag, reps):
    pairs = [stats._ends(cfg, (tag, r)) for r in range(reps)]
    records = run_explorations(cfg, [(tag, r, 0) for r in range(reps)], [u for u, _ in pairs],
                               [StopRule.target(v) for _, v in pairs])
    return np.array([rec.times[-1] for rec in records])


@pytest.mark.parametrize("alpha", [0.0, 0.5, 1.0, 1.5])
def test_meeting_explorations_match_exact_typical_law(alpha):
    # Two explorations that meet give d(U, V) with the set chain's law of the
    # passage time to a uniform other site.
    cfg = TorusConfig(2, 4, 2.0, alpha)
    a = _typical_sample(cfg, 41, 4000)
    _, p = ks_one_sample(a, set_chain(cfg, cfg.n - 1, a.max()).typical_cdf)
    assert p > 1e-4


def test_meeting_explorations_match_janson_at_alpha_zero():
    # At alpha = 0 and n = 256 the law is that of the lumped birth chain.
    cfg = TorusConfig(2, 16, 2.0, 0.0)
    a = _typical_sample(cfg, 42, 3000)
    _, p = ks_one_sample(a, birth_chain(cfg.n, cfg.n - 1, a.max()).typical_cdf)
    assert p > 1e-4


@pytest.mark.parametrize(
    "cfg",
    [
        TorusConfig(2, 8, 2.0, 1.0),
        TorusConfig(1, 9, 1.0, 0.5),
        TorusConfig(3, 4, math.inf, 1.5),
        TorusConfig(2, 5, 2.0, 0.0),
    ],
)
def test_thinning_rates_equal_pair_sum(cfg):
    # The audit's rates[j] = j * R_n minus the weights of all ordered pairs
    # inside the first j sites, recomputed from scratch with an exactly
    # rounded sum.
    rec = run_exploration(origin(cfg), StopRule.full(), cfg, 12)
    rates = event_rates(cfg, rec.site_indices)
    w = weights._weight_table(cfg)
    rn = total_rate(cfg)
    for j in range(1, cfg.n):
        born = rec.site_indices[:j]
        ii, jj = np.meshgrid(born, born)
        inside = math.fsum(w[torus.pair_difference_index(ii.ravel(), jj.ravel(), cfg)])
        fresh = j * rn - inside
        assert abs(rates[j] - fresh) <= 1e-12 * fresh, (j, rates[j], fresh)


def _scaled_waits(cfg, law):
    """Waits of full runs and of meeting runs on ``cfg``, each times the audited
    rate on ``law`` of the sites held before it, and the part of them at the
    late births, where more than 3n/4 sites are held."""
    n, scaled, held = cfg.n, [], []
    for rec in _runs(cfg, StopRule.full(), [(45, r) for r in range(40)]):
        scaled.append(np.diff(rec.times) * event_rates(law, rec.site_indices)[1:])
        held.append(np.arange(1, n))
    srcs = [[r % n, (7 * r + 3) % n] for r in range(200)]
    for sites, times, sides in _meeting_runs(cfg, [(46, r) for r in range(200)], srcs):
        radius = np.r_[times[:-1], 0.5 * times[-1]]
        scaled.append(np.diff(radius) * event_rates(law, sites, sides)[1:])
        held.append(np.arange(2, len(sites) + 1))
    scaled, held = np.concatenate(scaled), np.concatenate(held)
    return scaled, scaled[4 * held > 3 * n]


def _exp_cdf(t):
    return -np.expm1(-np.asarray(t))


@pytest.mark.parametrize("alpha", [1.0, 1.5])
def test_waits_at_the_audited_rates_are_exponential(alpha):
    # Given the sites held, a birth's wait, G clock exponentials over j R_n,
    # is Exp(rate_j) with rate_j = cut(A) + cut(B), so the waits times the
    # audited rates pool to Exp(1): of full and meeting runs, and of the late
    # births alone, where G is largest.
    cfg = TorusConfig(2, 8, 2.0, alpha)
    for sample in _scaled_waits(cfg, cfg):
        _, p = ks_one_sample(sample, _exp_cdf)
        assert p > 1e-4, (sample.size, p)


def test_audited_waits_reject_a_raised_alpha():
    # The check has power: the rates of the same site orders with alpha
    # raised by 0.3 reject the waits that the test above accepts.
    cfg = TorusConfig(2, 8, 2.0, 1.0)
    for sample in _scaled_waits(cfg, TorusConfig(2, 8, 2.0, 1.3)):
        _, p = ks_one_sample(sample, _exp_cdf)
        assert p < 1e-4, (sample.size, p)


_BLOCK_TORI = [TorusConfig(1, 9, 1.0, 0.5), TorusConfig(2, 16, 2.0, 1.0),
               TorusConfig(2, 64, 2.0, 1.0), TorusConfig(3, 10, 2.0, 0.5)]


@pytest.mark.parametrize("cfg, meeting", [
    pytest.param(cfg, meeting, id=f"cfg{i}" + "-meeting" * meeting)
    for meeting in (False, True) for i, cfg in enumerate(_BLOCK_TORI)])
def test_block_count_holds_every_array_of_a_block(cfg, meeting):
    # The largest block block_count allows for runs of at most cap sites, or
    # for meeting runs of two sources with cap clipped as block_count clips
    # it: its arrays, less the shared read-only tables, and its widest
    # windows fit, at 36 bytes per proposal of THINNING_BATCH.  A one-sided
    # block that can pass n/2 is measured once it mirrors, with S's buffer.
    n = cfg.n
    for cap in (n, 3 * n // 4, math.isqrt(n) + 1):
        cap = min(cap, explore.MEETING_SPAN * math.isqrt(n)) if meeting else cap
        size = _largest_block(cfg, cap, meeting)
        block = explore._Lockstep(cfg, list(range(size)), [[0, 1] if meeting else 0] * size, cap)
        while 2 * cap > n and not meeting and block.held == n:
            block.birth()
        held = sum(a.nbytes for a in vars(block).values()
                   if isinstance(a, np.ndarray) and a.flags.writeable)
        assert held + 36 * size * explore.THINNING_BATCH <= explore.BLOCK_BYTES, (cap, size)
    if cfg.n == 4096:
        assert [explore.block_count(cfg, n, c) for c in (29, 30)] == [1, 2]


@pytest.mark.parametrize("meeting", [False, True])
def test_largest_block_peaks_within_the_budget(meeting):
    # The largest block of full or meeting runs block_count allows at n =
    # 1024 allocates at most BLOCK_BYTES while it runs, the shared read-only
    # tables aside.
    cfg = TorusConfig(2, 32, 2.0, 1.0)
    size = _largest_block(cfg, cfg.n, meeting)
    stops = [StopRule.target(torus.index_to_site(1 + 37 * r % (cfg.n - 1), cfg)) if meeting
             else StopRule.full() for r in range(size)]
    _runs(cfg, StopRule.count(2), [0])  # fills the shared caches
    tracemalloc.start()
    try:
        run_explorations(cfg, [(40, r) for r in range(size)], [origin(cfg)] * size, stops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= explore.BLOCK_BYTES, (size, peak)


def test_meeting_block_at_its_cap_peaks_within_the_budget(monkeypatch):
    # The largest meeting block at n = 2**18, with room for only sqrt(n) = 512
    # sites per run against meetings of about 2 sqrt(n) births: most of its
    # rows fill all cap columns, and each meeting drops a row without copying
    # the n-wide side rows.  _run_block alone is measured, so the runs that
    # outgrow the block do not run again.
    monkeypatch.setattr(explore, "MEETING_SPAN", 1)
    cfg = TorusConfig(2, 512, 2.0, 1.0)
    cap = math.isqrt(cfg.n)
    size = _largest_block(cfg, cfg.n, meeting=True)
    srcs = [[r, (r + 1) * (cfg.n // (size + 1)) + 7] for r in range(size)]
    limit = np.full(size, cap - 1)
    _runs(cfg, StopRule.count(2), [0])  # fills the shared caches
    tracemalloc.start()
    try:
        records = explore._run_block(cfg, [(41, r) for r in range(size)], srcs, cap, limit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sum(rec is None for rec in records) > size // 2, records
    assert peak <= explore.BLOCK_BYTES, (size, peak)


def test_largest_default_meeting_block_peaks_within_the_budget():
    # The largest meeting block block_count allows at n = 2**18 and the
    # default MEETING_SPAN, of runs of up to 16 sqrt(n) sites: a meeting
    # drops a row without copying a run's keys, and the block peaks within
    # BLOCK_BYTES, the shared read-only tables aside.
    cfg = TorusConfig(2, 512, 2.0, 1.0)
    cap = explore.MEETING_SPAN * math.isqrt(cfg.n)
    size = _largest_block(cfg, cap, meeting=True)
    srcs = [[r, (r + 1) * (cfg.n // (size + 1)) + 7] for r in range(size)]
    _runs(cfg, StopRule.count(2), [0])  # fills the shared caches
    tracemalloc.start()
    try:
        records = explore._run_block(cfg, [(42, r) for r in range(size)], srcs, cap,
                                     np.full(size, cap - 1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert None not in records
    assert peak <= explore.BLOCK_BYTES, (size, peak / explore.BLOCK_BYTES)


def test_runs_that_outgrow_a_meeting_block_run_again_together(monkeypatch):
    # A meeting block holds runs of up to MEETING_SPAN * sqrt(n) sites; the
    # runs that outgrow it run again together, each on its own stream, with
    # four times the room, so a smaller block leaves every record as it was.
    # Here 60 runs take room 32, 33 of them room 128 and one room n = 256:
    # three blocks, where one block per rerun would take 35.
    cfg = TorusConfig(2, 16, 2.0, 1.0)
    sources = [torus.index_to_site(r, cfg) for r in range(60)]
    stops = [StopRule.target(torus.index_to_site((7 * r + 3) % cfg.n, cfg)) for r in range(60)]
    seeds = [(8, r) for r in range(60)]
    wide = run_explorations(cfg, seeds, sources, stops)
    monkeypatch.setattr(explore, "MEETING_SPAN", 2)
    assert sum(rec.n_born >= 2 * math.isqrt(cfg.n) for rec in wide) >= 10
    calls, run_block = [], explore._run_block
    monkeypatch.setattr(explore, "_run_block", lambda *args: calls.append(args) or run_block(*args))
    for a, b in zip(wide, run_explorations(cfg, seeds, sources, stops)):
        assert (a.n_born, a.proposals) == (b.n_born, b.proposals)
        assert np.array_equal(a.site_indices, b.site_indices) and np.array_equal(a.times, b.times)
    assert len(calls) <= 3, [len(args[1]) for args in calls]


def test_outgrown_meeting_runs_run_again_within_the_budget(monkeypatch):
    # Runs that outgrow a meeting block of sqrt(n) = 256 sites at n = 2**16,
    # the first four of seeds (50, s) whose run passes 4 sqrt(n) births, run
    # again together with four times the room until they fit, within
    # BLOCK_BYTES, not with room for all n sites.  Their records equal those
    # of a wide block.
    cfg = TorusConfig(2, 256, 2.0, 1.0)
    seeds = [(50, s) for s in range(1, 41)]
    stops = [StopRule.target(torus.index_to_site(cfg.n // 2 + 128 + s, cfg)) for _, s in seeds]
    wide = run_explorations(cfg, seeds, [origin(cfg)] * len(seeds), stops)
    chosen = [i for i, rec in enumerate(wide) if rec.n_born > 4 * math.isqrt(cfg.n)][:4]
    assert len(chosen) == 4, "try more seeds"
    seeds, stops, wide = ([x[i] for i in chosen] for x in (seeds, stops, wide))
    sources = [origin(cfg)] * len(seeds)
    monkeypatch.setattr(explore, "MEETING_SPAN", 1)
    tracemalloc.start()
    try:
        records = run_explorations(cfg, seeds, sources, stops)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert min(rec.n_born for rec in records) > math.isqrt(cfg.n)
    assert peak <= explore.BLOCK_BYTES, peak
    for a, b in zip(wide, records):
        assert (a.n_born, a.proposals) == (b.n_born, b.proposals)
        assert np.array_equal(a.site_indices, b.site_indices) and np.array_equal(a.times, b.times)


@pytest.mark.parametrize(
    "cfg",
    [
        TorusConfig(1, 9, 1.0, 0.5),
        TorusConfig(2, 4, 2.0, 0.0),
        TorusConfig(2, 5, 2.0, 1.0),
        TorusConfig(3, 4, 2.0, 2.0),
        TorusConfig(2, 32, 2.0, 1.0),
    ],
)
def test_batched_runs_equal_lone_runs(cfg):
    # Each replicate of one batched call, over two lockstep blocks and with
    # two count stops, full and per-replicate target stops mixed, equals a
    # lone run at its seed.  m = 4 at full stop is rejection-heavy; at m = 32
    # a mirrored step takes several births, fewer in a block than alone.
    reps = _largest_block(cfg, cfg.n) + 6
    stops = [
        [StopRule.count(1 + r % (cfg.n - 1)), StopRule.full(),
         StopRule.target(torus.index_to_site((5 * r + 1) % cfg.n, cfg)),
         StopRule.count(1 + 7 * r % (cfg.n - 1))][r % 4]
        for r in range(reps)
    ]
    sources = [torus.index_to_site(3 * r % cfg.n, cfg) for r in range(reps)]
    seeds = [(35, r) for r in range(reps)]
    assert explore.block_count(cfg, cfg.n, reps) == 2
    records = run_explorations(cfg, seeds, sources, stops)
    for u, stop, seed, rec in zip(sources, stops, seeds, records):
        if stop.site is None:
            assert rec.n_born == (cfg.n if stop.k is None else stop.k + 1)
        else:
            assert rec.site_indices[-1] == torus.site_to_index(stop.site, cfg)
        lone = run_exploration(u, stop, cfg, seed)
        assert rec.site_indices[0] == torus.site_to_index(u, cfg)
        assert (rec.n_born, rec.proposals) == (lone.n_born, lone.proposals)
        assert np.array_equal(rec.site_indices, lone.site_indices)
        assert np.array_equal(rec.times, lone.times)


def test_mirrored_steps_take_several_births(monkeypatch):
    # Past half the torus a block of full runs steps fewer times than it has
    # births, as each step takes as many births as every run settles.
    cfg, steps = TorusConfig(2, 32, 2.0, 1.0), []
    birth = explore._Lockstep.birth
    monkeypatch.setattr(explore._Lockstep, "birth",
                        lambda block, *most: steps.append(birth(block, *most)))
    records = _runs(cfg, StopRule.full(), [(36, r) for r in range(12)])
    assert [rec.n_born for rec in records] == [cfg.n] * 12
    assert len(steps) < cfg.n - 1, len(steps)


def test_proposals_counted():
    # At alpha = 0 a proposal hits with probability (n - j)/(n - 1) from a
    # j-vertex cluster.  Once 2j > n the |S| held sites propose instead, and
    # a proposal hits when its proposer is one of the n - j free sites and it
    # lands on one of the j discovered ones, with probability
    # (n - j) j / (|S| (n - 1)).  A birth takes on average P_j (n - 1) /
    # (j (n - j)) proposals, with P_j = j before the switch and |S| after it.
    # S is rebuilt from the free sites at the switch and whenever they fall
    # to half of it.
    cfg = TorusConfig(2, 8, 2.0, 0.0)
    n = cfg.n
    reps = 400
    counts = np.array(
        [rec.proposals for rec in _runs(cfg, StopRule.full(), [(34, r) for r in range(reps)])]
    )
    assert counts.min() >= n - 1
    held, exact = n, 0.0
    for j in range(1, n):
        if n - j < j and 2 * (n - j) <= held:
            held = n - j
        exact += min(j, held) * (n - 1) / (j * (n - j))
    se = counts.std(ddof=1) / math.sqrt(reps)
    assert abs(counts.mean() - exact) <= 5 * se, (counts.mean(), exact, se)


def test_seed_determinism():
    cfg = TorusConfig(2, 5, 2.0, 1.0)
    a = run_exploration(origin(cfg), StopRule.full(), cfg, (10, 3))
    b = run_exploration(origin(cfg), StopRule.full(), cfg, (10, 3))
    assert np.array_equal(a.site_indices, b.site_indices)
    assert np.array_equal(a.times, b.times)


def test_monotone_coupling_mean_bracket():
    # The k-th birth time is stochastically between the sums of independent
    # exponentials with rates j * total and j * (total - nearest_j); compare
    # the sample mean with the exact deterministic bracket.
    cfg = TorusConfig(2, 16, 2.0, 0.5)
    k = 32
    rn = total_rate(cfg)
    prefix = weights.nearest_prefix_sums(cfg)
    lower = sum(1.0 / (j * rn) for j in range(1, k + 1))
    upper = sum(1.0 / (j * (rn - float(prefix[j]))) for j in range(1, k + 1))
    reps = 10_000
    records = _runs(cfg, StopRule.count(k), [(11, r) for r in range(reps)])
    taus = np.array([rec.times[k] for rec in records])
    se = taus.std(ddof=1) / math.sqrt(reps)
    assert taus.mean() >= lower - 3 * se
    assert taus.mean() <= upper + 3 * se


# ---------------------------------------------------------------------------
# Edge-weight sample
# ---------------------------------------------------------------------------


def test_edge_sample_symmetry_positivity_reproducibility():
    cfg = TorusConfig(2, 6, 2.0, 1.0)
    mat = EdgeWeightSample.from_seed(cfg, 42).dense_matrix()
    assert np.array_equal(mat, EdgeWeightSample.from_seed(cfg, 42).dense_matrix())
    assert not np.array_equal(mat, EdgeWeightSample.from_seed(cfg, 43).dense_matrix())
    assert np.array_equal(mat, mat.T)
    assert (np.diag(mat) == 0.0).all()
    off = mat[~np.eye(cfg.n, dtype=bool)]
    assert (off > 0.0).all()


def test_edge_sample_alpha_zero_is_plain_exponential():
    cfg = TorusConfig(2, 5, 2.0, 0.0)
    s = EdgeWeightSample.from_seed(cfg, 7)
    mat = s.dense_matrix()
    iu, ju = np.triu_indices(cfg.n, k=1)
    w = mat[iu, ju]
    _, p = ks_one_sample(w, lambda t: 1.0 - np.exp(-np.asarray(t)))
    assert p > 1e-4


def test_edge_sample_long_range_scaling():
    # Dividing by the distance power recovers unit exponentials.
    cfg = TorusConfig(2, 5, 2.0, 1.5)
    s = EdgeWeightSample.from_seed(cfg, 8)
    mat = s.dense_matrix()
    norms = torus.norm_table(cfg)
    iu, ju = np.triu_indices(cfg.n, k=1)
    d_idx = torus.pair_difference_index(iu, ju, cfg)
    scaled = mat[iu, ju] / norms[d_idx] ** cfg.alpha
    _, p = ks_one_sample(scaled, lambda t: 1.0 - np.exp(-np.asarray(t)))
    assert p > 1e-4


# ---------------------------------------------------------------------------
# Oracles
# ---------------------------------------------------------------------------


def test_dijkstra_oracle_basics():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    dist = dijkstra_oracle(origin(cfg), cfg, 9)
    src = torus.origin_index(cfg)
    assert dist[src] == 0.0
    assert len(dist) == cfg.n
    assert all(dist[i] > 0.0 for i in range(cfg.n) if i != src)
    # Distances never exceed the direct edge.
    direct = EdgeWeightSample.from_seed(cfg, 9).dense_matrix()[src]
    for i in range(cfg.n):
        if i != src:
            assert dist[i] <= direct[i] + 1e-12


def test_two_site_oracle_is_the_single_edge():
    cfg = TorusConfig(1, 2, 2.0, 0.5)
    edge = EdgeWeightSample.from_seed(cfg, 10).dense_matrix()[torus.origin_index(cfg), 0]
    dist = dijkstra_oracle(origin(cfg), cfg, 10)[0]
    assert dist == pytest.approx(edge, rel=1e-15)
    assert run_exploration(origin(cfg), StopRule.full(), cfg, 10).times[-1] > 0.0
    assert diameter_exact(cfg, 10) == pytest.approx(dist, rel=1e-15)


def test_flooding_dominates_fixed_target_and_diameter_dominates_flooding():
    cfg = TorusConfig(2, 4, 2.0, 1.0)
    dist = distance_matrix(cfg, 11)
    assert np.allclose(dist, dist.T, rtol=0, atol=0)
    u = 3
    flooding = dist[u].max()
    assert flooding >= dist[u, 9]
    assert dist.max() >= flooding


def test_oracle_caps():
    with pytest.raises(ConfigError):
        distance_matrix(TorusConfig(2, 64, 2.0, 0.5), 0)  # 4096 > 1024
    with pytest.raises(ConfigError):
        dijkstra_oracle(origin(TorusConfig(2, 128, 2.0, 0.5)), TorusConfig(2, 128, 2.0, 0.5), 0)


def _assert_same_distances(dist, ref):
    # The pruned oracle sums each path's weights in another order than
    # Floyd-Warshall, so the two may differ in the last bits only.
    assert np.array_equal(dist, dist.T)
    assert (np.diag(dist) == 0.0).all()
    off = ~np.eye(len(ref), dtype=bool)
    assert np.max(np.abs(dist[off] - ref[off]) / ref[off]) <= 1e-14


@pytest.mark.parametrize("d, m", [(1, 48), (2, 7), (3, 4)])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_distance_matrix_matches_floyd_warshall(d, m, p, monkeypatch):
    # At scale 0.5 every first threshold on this grid fails the certificate.
    for alpha in (0.0, 0.5, d - 0.05):
        cfg = TorusConfig(d, m, p, alpha)
        for seed in range(3):
            mat = EdgeWeightSample.from_seed(cfg, (24, seed)).dense_matrix()
            ref = csgraph.floyd_warshall(mat, directed=True)
            for scale in (THRESHOLD_SCALE, 0.5):
                monkeypatch.setattr(explore, "THRESHOLD_SCALE", scale)
                _assert_same_distances(distance_matrix(cfg, (24, seed)), ref)


@pytest.mark.parametrize("d, m", [(1, 48), (2, 7), (3, 4)])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_single_source_oracle_matches_dense_dijkstra(d, m, p, monkeypatch):
    # Bit for bit from every source: no dropped edge can win a relaxation.
    # At scale 0.5 every first threshold on this grid fails the certificate.
    for alpha in (0.0, 0.5, d - 0.05):
        cfg = TorusConfig(d, m, p, alpha)
        for seed in range(3):
            mat = EdgeWeightSample.from_seed(cfg, (24, seed)).dense_matrix()
            for u in range(cfg.n):
                ref = csgraph.dijkstra(mat, indices=u)
                for scale in (THRESHOLD_SCALE, 0.5):
                    monkeypatch.setattr(explore, "THRESHOLD_SCALE", scale)
                    dist = dijkstra_oracle(torus.index_to_site(u, cfg), cfg, (24, seed))
                    assert np.array_equal(dist, ref), (alpha, seed, u, scale)


@pytest.mark.parametrize("d, m", [(1, 48), (2, 7), (3, 4)])
@pytest.mark.parametrize("p", [1.0, 2.0, math.inf])
def test_diameter_is_the_largest_directed_distance(d, m, p, monkeypatch):
    # Bit for bit against all-sources Dijkstra on the same certified graph,
    # from every start vertex, and to 1e-14 against Floyd-Warshall on the
    # complete graph.  At scale 0.5 every first threshold fails the
    # certificate.
    for alpha in (0.0, 0.5, d - 0.05):
        cfg = TorusConfig(d, m, p, alpha)
        for seed in range(3):
            ref = csgraph.floyd_warshall(
                EdgeWeightSample.from_seed(cfg, (24, seed)).dense_matrix(), directed=True
            ).max()
            for scale in (THRESHOLD_SCALE, 0.5):
                monkeypatch.setattr(explore, "THRESHOLD_SCALE", scale)
                graph = explore._all_pairs_graph(cfg, (24, seed))
                full = csgraph.dijkstra(graph, directed=True)
                diameter = diameter_exact(cfg, (24, seed))
                assert diameter == full.max(), (alpha, seed, scale)
                assert abs(diameter - ref) <= 1e-14 * ref
                for start in range(cfg.n):
                    found, row, _ = explore._bounded_diameter(graph, start)
                    assert found == diameter and np.array_equal(row, full[start])


def test_bound_loop_visits_every_vertex_when_eccentricities_tie():
    # On a unit-weight cycle every eccentricity is n/2, so no bound ever
    # drops a vertex that has not been a source.
    n = 12
    i = np.arange(n, dtype=np.int32)
    graph = explore._symmetric_graph(n, i, (i + 1) % n, np.ones(n))
    diameter, row, runs = explore._bounded_diameter(graph, 5)
    assert (diameter, runs) == (n // 2, n)
    assert np.array_equal(row, np.minimum(np.abs(i - 5), n - np.abs(i - 5)))


def test_symmetric_graph_matches_the_coo_construction():
    # Same rows and the same entries per row as SciPy's COO path; Dijkstra
    # distances are the same bits (a row's order cannot change a distance).
    cfg = TorusConfig(2, 16, 2.0, 0.5)
    i, j, w = EdgeWeightSample.from_seed(cfg, 28).edges_up_to(0.5)
    graph = explore._symmetric_graph(cfg.n, i, j, w)
    coo = csr_matrix(
        (np.concatenate([w, w]), (np.concatenate([i, j]), np.concatenate([j, i]))),
        shape=(cfg.n, cfg.n),
    )
    assert np.array_equal(graph.indptr, coo.indptr)
    assert (graph != coo).nnz == 0
    assert np.array_equal(
        csgraph.dijkstra(graph, directed=True), csgraph.dijkstra(coo, directed=True)
    )


def test_single_source_oracle_holds_no_complete_graph():
    # At n = 4,096 the complete graph in both orientations is 16.8 M CSR
    # entries (576 MB traced); the certified edges are not.
    cfg = TorusConfig(2, 64, 2.0, 0.5)
    tracemalloc.start()
    try:
        explore.oracle_transmission_time(origin(cfg), torus.index_to_site(1234, cfg), cfg, 27)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20, peak / 2**20


#: Tori for the realization's exactness tests: d = 1, 2 and 3, odd and even m
#: (an even m has classes with z = -z), p = 1, 2 and inf, alpha = 0, and the
#: m = 3 torus of ``lrfpp validate``.
_REALIZATION_GRID = [
    TorusConfig(1, 7, 1.0, 0.0),
    TorusConfig(1, 8, 2.0, 0.5),
    TorusConfig(2, 3, 2.0, 0.0),
    TorusConfig(2, 3, 2.0, 1.0),
    TorusConfig(2, 5, 1.0, 1.5),
    TorusConfig(2, 6, 2.0, 1.0),
    TorusConfig(3, 4, math.inf, 2.5),
    TorusConfig(3, 3, 2.0, 0.0),
]
_REALIZATION_IDS = [f"d{c.d}-m{c.m}-p{c.p:g}-a{c.alpha:g}" for c in _REALIZATION_GRID]


def _sorted_edges(i, j, w, n):
    order = np.argsort(i.astype(np.int64) * n + j)
    return i[order], j[order], w[order]


@pytest.mark.parametrize("cfg", _REALIZATION_GRID, ids=_REALIZATION_IDS)
def test_edges_up_to_is_the_dense_matrix_below_the_threshold(cfg):
    # Every pair once, the dense matrix symmetric, and at any threshold, on a
    # rung's end or between two, the kept edges are its upper-triangle entries
    # <= T bit for bit; a lower threshold keeps exactly the part of a higher
    # one's edges that lies below it, in the same order.
    n = cfg.n
    sample = EdgeWeightSample.from_seed(cfg, 25)
    mat = sample.dense_matrix()
    assert np.array_equal(mat, mat.T) and (np.diag(mat) == 0.0).all()
    i, j, w = sample.edges_up_to(math.inf)
    assert i.size == n * (n - 1) // 2 and (i < j).all()
    assert np.unique(i.astype(np.int64) * n + j).size == i.size
    # Each pair lies in the class _rungs gave it: its difference, by the
    # torus arithmetic, is the class's z (the site whose key is the class
    # offset) or -z.
    cls = np.concatenate([part for part, _, _ in sample._rungs(math.inf)])
    z = np.searchsorted(weights.site_keys(cfg)[0], explore._difference_classes(cfg).offset)[cls]
    assert ((torus.pair_difference_index(j, i, cfg) == z)
            | (torus.pair_difference_index(i, j, cfg) == z)).all()
    ladder = explore._ladder(cfg)[:-1]
    thresholds = np.sort(np.concatenate([
        ladder, 0.3 * ladder, 1.5 * ladder, np.nextafter(ladder, 0.0), [2.0 * ladder[-1], math.inf]
    ]))
    iu, ju = np.triu_indices(n, k=1)
    upper = mat[iu, ju]
    prev = None
    for threshold in thresholds:
        edges = sample.edges_up_to(threshold)
        keep = upper <= threshold
        got = _sorted_edges(*edges, n)
        assert np.array_equal(got[0], iu[keep]) and np.array_equal(got[1], ju[keep])
        assert np.array_equal(got[2], upper[keep])
        if prev is not None:
            below = edges[2] <= prev[0]
            for a, b in zip(prev[1], edges):
                assert np.array_equal(a, b[below])
        prev = (threshold, edges)


@pytest.mark.parametrize("cfg", _REALIZATION_GRID, ids=_REALIZATION_IDS)
def test_rungs_keep_the_truncated_exponential_law_in_every_class(cfg):
    # Per (rung, class) over 300 realizations: the number kept is
    # Binomial(free, q) given the free pairs (exact binomial test), and the
    # unit weights are exponentials truncated to the rung, by KS on the
    # probability integral transform; rung 0's positions are uniform over the
    # class.  Bonferroni over the groups.
    classes = explore._difference_classes(cfg)
    ladder = explore._ladder(cfg)
    lows = np.concatenate([[0.0], ladder[:-1]])
    jitter = rng.generator(31, rng.STREAM_CHOICE)
    pit, counts, positions = {}, {}, []
    for seed in range(300):
        free = classes.size.copy()
        rungs = EdgeWeightSample.from_seed(cfg, (30, seed))._rungs(math.inf)
        for k, (cls, pos, w) in enumerate(rungs):
            q = -np.expm1(-(ladder[k] - lows[k]) / classes.scale)
            unit = -np.expm1(-(w - lows[k]) / classes.scale[cls]) / q[cls]
            hits = np.bincount(cls, minlength=free.size)
            for c in np.flatnonzero(free):
                pit.setdefault((k, c), []).append(unit[cls == c])
                tally = counts.setdefault((k, c), [0, 0, q[c]])
                tally[0] += hits[c]
                tally[1] += free[c]
            free -= hits
            if k == 0:
                positions.append((pos + jitter.random(pos.size)) / classes.size[cls])
        assert (free == 0).all()
    level = 0.01 / (len(pit) + len(counts) + 1)
    for key, (hits, free_total, q) in counts.items():
        # q depends on the class and rung only, so the total is binomial too.
        assert scipy.stats.binomtest(int(hits), int(free_total), q).pvalue >= level, key
    tested = 0
    for key, parts in pit.items():
        values = np.concatenate(parts)
        if values.size >= 25:
            tested += 1
            assert scipy.stats.kstest(values, "uniform").pvalue >= level, key
    assert tested >= classes.size.size
    assert scipy.stats.kstest(np.concatenate(positions), "uniform").pvalue >= level


class _HashedSample:
    """Reference realization: each pair's weight from the stateless pair hash,
    norm(z)**alpha * -log(U) with U = ``rng.pair_uniform`` of the pair."""

    def __init__(self, cfg, seed):
        self.cfg, self.key = cfg, rng.hash_key(seed, rng.STREAM_EDGES)

    def edges_up_to(self, threshold):
        i, j = np.triu_indices(self.cfg.n, k=1)
        diff = torus.pair_difference_index(i, j, self.cfg)
        scale = torus.norm_table(self.cfg)[diff] ** self.cfg.alpha
        w = scale * -np.log(rng.pair_uniform(i, j, self.key))
        keep = w <= threshold
        return i[keep].astype(np.int32), j[keep].astype(np.int32), w[keep]


@pytest.mark.parametrize("m, alpha, reps", [(16, 0.0, 150), (16, 1.0, 150), (32, 0.5, 50)])
def test_class_realization_matches_the_hashed_realization(m, alpha, reps):
    # Same law as independent hashed weights: two-sample KS of the diameter
    # and of the passage time from site 0 to a spread of targets, on the same
    # certified-edge oracles, Bonferroni over both quantities and the cells.
    cfg = TorusConfig(2, m, 2.0, alpha)
    level = 0.01 / 6
    ours, ref = np.empty((2, reps)), np.empty((2, reps))
    for r in range(reps):
        target = 1 + (r * 7919) % (cfg.n - 1)
        ours[0, r] = diameter_exact(cfg, (32, r))
        ours[1, r] = dijkstra_oracle(torus.index_to_site(0, cfg), cfg, (32, r))[target]
        # Span 2 certifies span 1 too, so b is the exact distance from site 0.
        i, j, w, b = explore._certified_edges(_HashedSample(cfg, (33, r)), 0, span=2)
        keep = w <= b[i] + b[j]
        graph = explore._symmetric_graph(cfg.n, i[keep], j[keep], w[keep])
        ref[:, r] = explore._bounded_diameter(graph, 0)[0], b[target]
    for quantity in range(2):
        _, p = ks_two_sample(ours[quantity], ref[quantity])
        assert p >= level, (quantity, p)


def test_certified_graph_raises_a_small_threshold(monkeypatch):
    cfg = TorusConfig(2, 6, 2.0, 1.0)
    sample = EdgeWeightSample.from_seed(cfg, 26)
    mat = sample.dense_matrix()
    ref = csgraph.floyd_warshall(mat, directed=True)
    # Below the lightest edge the kept graph has no edges (disconnected).  At
    # the heaviest minimum-spanning-tree edge it is connected, but every path
    # from the source to the far side of that edge crosses an edge at least
    # as heavy, so span * max b exceeds the threshold: from site 0 with
    # span 2 (all pairs), and from site 17 with span 1 (single source).
    lightest = mat[mat > 0].min()
    bottleneck = csgraph.minimum_spanning_tree(mat).max()
    iu, ju = np.triu_indices(cfg.n, k=1)
    rn_per_log = total_rate(cfg) / math.log(cfg.n)
    for source, span in ((0, 2), (17, 1)):
        # The nudge keeps the first threshold from rounding below the bottleneck.
        for threshold in (0.5 * lightest, bottleneck * (1 + 1e-12)):
            monkeypatch.setattr(explore, "THRESHOLD_SCALE", threshold * rn_per_log)
            i, j, w, b = explore._certified_edges(sample, source, span)
            # b is exact, so this threshold failed the certificate.
            assert span * b.max() > threshold
            assert np.array_equal(b, csgraph.dijkstra(mat, indices=source))
            # Every edge no heavier than span * max b is kept, bit for bit.
            needed = mat[iu, ju] <= span * b.max()
            kept = {(a, c): x for a, c, x in zip(i.tolist(), j.tolist(), w.tolist())}
            for a, c in zip(iu[needed].tolist(), ju[needed].tolist()):
                assert kept[a, c] == mat[a, c]
            if span == 2:
                graph = explore._symmetric_graph(cfg.n, i, j, w)
                dist = csgraph.dijkstra(graph, directed=True)
                _assert_same_distances(np.minimum(dist, dist.T), ref)


def test_exploration_matches_oracle_over_grid():
    # Same law two ways: exploration birth times vs shortest-path times on
    # edge realizations, two-sample KS per grid cell with a Bonferroni
    # correction over the ten cells.  Each route's sample also meets the
    # exact typical-time law of the set chain by one-sample KS, Bonferroni
    # over both routes and the cells.
    cells = [
        (d, m, alpha)
        for d in (1, 2)
        for m in (3, 4)
        for alpha in (0.0, 0.5, 1.0)
        if alpha < d
    ]
    n_samples = 5000
    level = 0.01 / len(cells)
    for cell_idx, (d, m, alpha) in enumerate(cells):
        cfg = TorusConfig(d, m, 2.0, alpha)
        pairs = [stats._ends(cfg, (20, cell_idx, r)) for r in range(n_samples)]
        records = run_explorations(
            cfg, [(20, cell_idx, r, 0) for r in range(n_samples)], [u for u, _ in pairs],
            [StopRule.target(v) for _, v in pairs],
        )
        ex = np.array([rec.times[-1] for rec in records])
        orc = np.empty(n_samples)
        for r, (u, v) in enumerate(pairs):
            orc[r] = explore.oracle_transmission_time(u, v, cfg, (20, cell_idx, r, 1))
        _, p = ks_two_sample(ex, orc)
        assert p >= level, (d, m, alpha, p)
        law = set_chain(cfg, cfg.n - 1, max(ex.max(), orc.max()))
        for route, sample in (("exploration", ex), ("oracle", orc)):
            _, p = ks_one_sample(sample, law.typical_cdf)
            assert p >= level / 2, (route, d, m, alpha, p)


def test_ball_size_consistency_with_oracle():
    # Mean cardinality of the time-t ball agrees between the exploration
    # record and the oracle metric (3 combined standard errors).  A full run
    # holds every ball: a stopped run would be its prefix.
    cfg = TorusConfig(2, 3, 2.0, 0.5)
    t_probe = 0.35
    reps = 2500
    records = _runs(cfg, StopRule.full(), [(21, r, 0) for r in range(reps)])
    expl = np.array([np.searchsorted(rec.times, t_probe, side="right") for rec in records],
                    dtype=float)
    orac = np.empty(reps)
    for r in range(reps):
        dist = dijkstra_oracle(origin(cfg), cfg, (21, r, 1))
        orac[r] = int((dist <= t_probe).sum())
    se = math.sqrt(expl.var(ddof=1) / reps + orac.var(ddof=1) / reps)
    assert abs(expl.mean() - orac.mean()) <= 3 * se


def test_flooding_source_translation_invariance():
    # The flooding law does not depend on the source; spot-check via means.
    cfg = TorusConfig(2, 3, 2.0, 1.0)
    reps = 1500
    u = torus.index_to_site(5, cfg)
    a, b = (
        np.array([rec.times[-1] for rec in _runs(cfg, StopRule.full(), seeds, sources)])
        for seeds, sources in (([(22, r) for r in range(reps)], None),
                               ([(23, r) for r in range(reps)], [u] * reps))
    )
    se = math.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
    assert abs(a.mean() - b.mean()) <= 3 * se
