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
    InvariantViolation,
    StopRule,
    TorusConfig,
    diameter_exact,
    dijkstra_oracle,
    distance_matrix,
    flooding_time,
    ks_one_sample,
    ks_two_sample,
    origin,
    run_exploration,
    total_rate,
    transmission_time,
)
from lrfpp import explore, rng, stats, torus, weights
from lrfpp.explore import THRESHOLD_SCALE


def _uniform_pair(cfg, seed):
    gen = rng.generator(seed, rng.STREAM_CHOICE)
    iu = int(gen.integers(cfg.n))
    iv = iu
    while iv == iu:
        iv = int(gen.integers(cfg.n))
    return torus.index_to_site(iu, cfg), torus.index_to_site(iv, cfg)


# ---------------------------------------------------------------------------
# Record structure and stop rules
# ---------------------------------------------------------------------------


def test_record_structure_and_monotone_times():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    rec = run_exploration(origin(cfg), StopRule.full(), cfg, 0)
    assert rec.horizon == "full"
    assert rec.n_born == cfg.n
    assert rec.times[0] == 0.0 and math.isnan(rec.rates[0])
    assert (np.diff(rec.times) > 0).all()
    assert rec.site(0) == origin(cfg)
    # rate before the j-th birth comes from a j-vertex cluster
    for j in range(1, rec.n_born):
        lo, hi = weights.rate_bounds(cfg, j)
        assert lo - 1e-9 * hi <= rec.rates[j] <= hi + 1e-9 * hi
    assert rec.ball_size(0.0) == 1
    assert rec.ball_size(float(rec.times[-1])) == cfg.n
    assert rec.tau(3) == float(rec.times[3])


def test_stop_count():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    rec = run_exploration(origin(cfg), StopRule.count(5), cfg, 1)
    assert rec.horizon == "count" and rec.n_born == 6
    with pytest.raises(ConfigError):
        run_exploration(origin(cfg), StopRule.count(cfg.n), cfg, 1)


def test_stop_target_and_self_target():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    v = torus.index_to_site(7, cfg)
    rec = run_exploration(origin(cfg), StopRule.target(v), cfg, 2)
    assert rec.horizon == "target"
    assert rec.site(rec.n_born - 1) == v
    assert transmission_time(origin(cfg), origin(cfg), cfg, 3) == 0.0


def test_stop_time_horizon():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    full = run_exploration(origin(cfg), StopRule.full(), cfg, 4)
    t_half = float(full.times[cfg.n // 2])
    rec = run_exploration(origin(cfg), StopRule.time(t_half), cfg, 4)
    # Same seed, same stream: the truncated run reproduces the full prefix.
    assert rec.horizon in ("time", "full")
    assert (rec.times <= t_half).all()
    assert np.array_equal(rec.site_indices, full.site_indices[: rec.n_born])


def test_two_site_torus_single_birth():
    cfg = TorusConfig(1, 2, 2.0, 0.5)
    samples = np.array(
        [run_exploration(origin(cfg), StopRule.full(), cfg, (5, r)).times[1] for r in range(2000)]
    )
    # Single edge of norm 1: birth time is a rate-1 exponential.
    _, p = ks_one_sample(samples, lambda t: 1.0 - np.exp(-np.asarray(t)))
    assert p > 1e-4
    assert samples.mean() == pytest.approx(1.0, abs=5.0 / math.sqrt(2000))


def test_first_interbirth_time_is_exponential_at_total_rate():
    cfg = TorusConfig(2, 4, 2.0, 0.5)
    rn = total_rate(cfg)
    first = np.array(
        [run_exploration(origin(cfg), StopRule.count(1), cfg, (6, r)).times[1] for r in range(2000)]
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
    times = np.array([flooding_time(origin(cfg), cfg, (7, r)) for r in range(reps)])
    se = times.std(ddof=1) / math.sqrt(reps)
    assert abs(times.mean() - target) <= 3.5 * se


def _tau_sample(cfg, k, tag, reps, selection):
    return np.array(
        [
            run_exploration(origin(cfg), StopRule.count(k), cfg, (tag, r), selection=selection).tau(k)
            for r in range(reps)
        ]
    )


def test_thinning_matches_scan_on_tau():
    cfg = TorusConfig(2, 4, 2.0, 1.0)
    a = _tau_sample(cfg, 6, 8, 1500, "thinning")
    b = _tau_sample(cfg, 6, 9, 1500, "scan")
    _, p = ks_two_sample(a, b)
    assert p > 1e-4


def test_thinning_matches_scan_on_flooding():
    cfg = TorusConfig(2, 16, 2.0, 1.5)
    a = _tau_sample(cfg, cfg.n - 1, 30, 600, "thinning")
    b = _tau_sample(cfg, cfg.n - 1, 31, 600, "scan")
    _, p = ks_two_sample(a, b)
    assert p > 1e-4


def test_thinning_matches_scan_on_third_newborn():
    # Where the third newborn lands, as a contingency table over the 24
    # non-source sites: thinning against the scan reference.
    cfg = TorusConfig(2, 5, 1.0, 1.0)
    reps = 4000
    counts = np.zeros((2, cfg.n), dtype=np.int64)
    for row, (selection, tag) in enumerate((("thinning", 32), ("scan", 33))):
        for r in range(reps):
            rec = run_exploration(origin(cfg), StopRule.count(3), cfg, (tag, r), selection=selection)
            counts[row, rec.site_indices[3]] += 1
    counts = counts[:, counts.sum(axis=0) > 0]
    assert counts.shape[1] == cfg.n - 1
    _, p, _, _ = scipy.stats.chi2_contingency(counts)
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
    # rates[j] = j * R_n minus the weights of all ordered pairs inside the
    # first j sites, recomputed from scratch with an exactly rounded sum.
    rec = run_exploration(origin(cfg), StopRule.full(), cfg, 12)
    w = weights._weight_table(cfg)
    rn = total_rate(cfg)
    for j in range(1, cfg.n):
        born = rec.site_indices[:j]
        ii, jj = np.meshgrid(born, born)
        inside = math.fsum(w[torus.pair_difference_index(ii.ravel(), jj.ravel(), cfg)])
        fresh = j * rn - inside
        assert abs(rec.rates[j] - fresh) <= 1e-12 * fresh, (j, rec.rates[j], fresh)


def test_thinning_resummation_check_catches_drift():
    cfg = TorusConfig(2, 6, 2.0, 1.0)
    sampler = explore._ThinningSampler(0, cfg, rng.generator(0))
    for _ in range(10):
        sampler.birth()
    sampler.check_resummation()
    sampler.rate *= 1.0 + 1e-6
    with pytest.raises(InvariantViolation):
        sampler.check_resummation()


def test_unknown_selection_mode_rejected():
    cfg = TorusConfig(2, 4, 2.0, 1.0)
    with pytest.raises(ConfigError):
        run_exploration(origin(cfg), StopRule.count(1), cfg, 0, selection="bogus")


def test_proposals_counted():
    # At alpha = 0 a proposal from a j-vertex cluster hits an undiscovered
    # site with probability (n - j)/(n - 1), so a full run makes
    # (n - 1) * H_{n-1} proposals on average; the scan sampler makes one per
    # birth.
    cfg = TorusConfig(2, 8, 2.0, 0.0)
    n = cfg.n
    scan = run_exploration(origin(cfg), StopRule.full(), cfg, 0, selection="scan")
    assert scan.proposals == n - 1
    reps = 400
    counts = np.array(
        [run_exploration(origin(cfg), StopRule.full(), cfg, (34, r)).proposals for r in range(reps)]
    )
    assert counts.min() >= n - 1
    exact = (n - 1) * sum(1.0 / i for i in range(1, n))
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
    taus = np.array(
        [
            run_exploration(origin(cfg), StopRule.count(k), cfg, (11, r)).tau(k)
            for r in range(reps)
        ]
    )
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


def test_norm_power_table_is_shared_and_read_only():
    cfg = TorusConfig(2, 6, 2.0, 1.0)
    table = explore._norm_power_table(cfg)
    assert table is explore._norm_power_table(cfg)
    assert not table.flags.writeable
    assert np.array_equal(table, torus.norm_table(cfg) ** cfg.alpha)


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
    assert flooding_time(origin(cfg), cfg, 10) > 0.0
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
        scale = explore._norm_power_table(self.cfg)[torus.pair_difference_index(i, j, self.cfg)]
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
    # correction over the twelve cells.
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
        ex = np.empty(n_samples)
        orc = np.empty(n_samples)
        for r in range(n_samples):
            u, v = _uniform_pair(cfg, (20, cell_idx, r))
            ex[r] = transmission_time(u, v, cfg, (20, cell_idx, r, 0))
            orc[r] = explore.oracle_transmission_time(u, v, cfg, (20, cell_idx, r, 1))
        _, p = ks_two_sample(ex, orc)
        assert p >= level, (d, m, alpha, p)


def test_ball_size_consistency_with_oracle():
    # Mean cardinality of the time-t ball agrees between the exploration
    # record and the oracle metric (3 combined standard errors).
    cfg = TorusConfig(2, 3, 2.0, 0.5)
    t_probe = 0.35
    reps = 2500
    expl = np.empty(reps)
    orac = np.empty(reps)
    for r in range(reps):
        rec = run_exploration(origin(cfg), StopRule.time(t_probe), cfg, (21, r, 0))
        expl[r] = rec.ball_size(t_probe)
        dist = dijkstra_oracle(origin(cfg), cfg, (21, r, 1))
        orac[r] = int((dist <= t_probe).sum())
    se = math.sqrt(expl.var(ddof=1) / reps + orac.var(ddof=1) / reps)
    assert abs(expl.mean() - orac.mean()) <= 3 * se


def test_flooding_source_translation_invariance():
    # The flooding law does not depend on the source; spot-check via means.
    cfg = TorusConfig(2, 3, 2.0, 1.0)
    reps = 1500
    a = np.array([flooding_time(origin(cfg), cfg, (22, r)) for r in range(reps)])
    u = torus.index_to_site(5, cfg)
    b = np.array([flooding_time(u, cfg, (23, r)) for r in range(reps)])
    se = math.sqrt(a.var(ddof=1) / reps + b.var(ddof=1) / reps)
    assert abs(a.mean() - b.mean()) <= 3 * se
