"""The simulator core: exact exploration birth process plus an edge oracle.

``run_exploration`` grows a cluster one vertex at a time.  With a set D of j
vertices discovered, the next birth happens after an Exp(rate_j) waiting time,
where rate_j = sum over v in D and z not in D of norm(z - v)**-alpha, and the
newborn is z with probability W_D(z)/rate_j, where W_D(z) is the attraction
of z to D.  By memorylessness of the exponential edge weights this
reproduces, exactly in distribution, the order and times at which
first-passage percolation discovers the torus from the source.

The default sampler finds the newborn by thinning (Lewis & Shedler 1979).
Every discovered vertex emits at the same total rate R_n = total_rate(cfg),
so a proposal is a uniform discovered parent plus an offset u drawn with
probability norm(u)**-alpha / R_n; it is rejected when its target is already
discovered, and the first accepted target has the newborn law exactly.  The
waiting time is drawn once per birth at the exact rate_j; the holding time
and the newborn are independent, so this equals in law the sum of Exp(j R_n)
waits over the proposals.  The run keeps no per-site field, only the
discovered list and a one-byte mask.
rate_j follows exactly from rate_{j+1} = rate_j + R_n - 2 W_D(z), with W_D(z)
gathered over the j discovered sites, so a birth costs O(j) and a proposal
O(1); the expected number of proposals per birth is j * R_n / rate_j, near 1
until most of the torus is discovered.

``selection="scan"`` is the reference path: a ``WeightField`` holds W_D(z)
for every site, updated in O(n) per birth, and the newborn is found by a
cumulative scan.  Both paths record rate_j before every birth, assert the
deterministic rate sandwich on it, and re-sum it periodically; they agree in
distribution.

``EdgeWeightSample`` realizes one joint assignment of all edge weights
``norm(u - v)**alpha * E`` lazily through a counter-based hash, and the
oracles compute passage times on that realization as an independent route to
the same law.  Both hash the edge matrix a block of rows at a time and keep
only edges no heavier than a threshold that Dijkstra from one source
certifies, so no shortest path loses an edge; the single-source oracle
returns that run's distances.  ``distance_matrix`` also drops edges heavier
than a bound on the distance between their ends, keeping about 6-8 per
vertex of the 1023 at n = 1024, and runs Dijkstra from every source.  The
diameter is the largest directed distance (no ``min`` of a pair's two
directions) and needs a few dozen sources: eccentricity bounds (Takes &
Kosters 2011) drop every vertex whose row cannot hold it, with a margin
above the float error of path sums that keeps the result exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Tuple

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from . import rng, torus, weights
from .errors import ConfigError, InvariantViolation
from .torus import Site, TorusConfig
from .weights import WeightField

#: Caps for the oracles: the single-source oracle keeps few edges but hashes
#: all n(n-1)/2 pairs, so its cap bounds hashing time, not memory; the
#: all-pairs oracle returns an n x n matrix, and the diameter shares its cap.
DIJKSTRA_CAP = 4096
ALL_PAIRS_CAP = 1024

#: Rows of the upper triangle hashed at a time when the oracles build edges.
EDGE_BLOCK_ROWS = 64
#: First edge threshold of both oracles, in units of log(n) / R_n;
#: about this many edges per vertex per unit of log n are kept.
THRESHOLD_SCALE = 6.0

#: Relative slack on the diameter's eccentricity bounds.  It exceeds the float
#: error of path sums, about n * eps relative, so it keeps the result exact.
ECC_MARGIN = 1e-9

#: Relative float slack allowed on the hard rate-sandwich assertion.
SANDWICH_RTOL = 1e-9

#: Waiting times, parent uniforms and offsets drawn per refill by the
#: thinning sampler.
THINNING_BATCH = 256


@dataclass(frozen=True)
class StopRule:
    """When to stop an exploration run."""

    kind: str  # "count" | "target" | "full" | "time"
    k: Optional[int] = None
    site: Optional[Site] = None
    t: Optional[float] = None

    @classmethod
    def count(cls, k: int) -> "StopRule":
        if k < 1:
            raise ConfigError(f"count must be >= 1, got {k}")
        return cls("count", k=k)

    @classmethod
    def target(cls, site: Site) -> "StopRule":
        return cls("target", site=site)

    @classmethod
    def full(cls) -> "StopRule":
        return cls("full")

    @classmethod
    def time(cls, t: float) -> "StopRule":
        if not (t >= 0.0):
            raise ConfigError(f"time horizon must be >= 0, got {t}")
        return cls("time", t=t)


@dataclass(frozen=True)
class ExplorationRecord:
    """Births of one exploration run: sites, times, and pre-birth rates.

    ``times[0] == 0`` is the source; ``rates[i]`` is the jump rate just
    before the i-th birth (``rates[0]`` is NaN).  ``proposals`` counts the
    newborn proposals the sampler made, accepted or rejected; it equals the
    births for the scan sampler.  A record with n births is a complete
    flooding.
    """

    cfg: TorusConfig
    source: Site
    site_indices: np.ndarray
    times: np.ndarray
    rates: np.ndarray
    horizon: str
    proposals: int

    @property
    def n_born(self) -> int:
        return len(self.times)

    def site(self, i: int) -> Site:
        return torus.index_to_site(int(self.site_indices[i]), self.cfg)

    def tau(self, k: int) -> float:
        """Time of the k-th birth (cluster reaches size k + 1)."""
        if not (0 <= k < self.n_born):
            raise ConfigError(f"k = {k} out of range, record has {self.n_born} births")
        return float(self.times[k])

    def ball_size(self, t: float) -> int:
        """Number of sites discovered by time t (including the source)."""
        return int(np.searchsorted(self.times, t, side="right"))

    def flooding(self) -> float:
        if self.n_born != self.cfg.n:
            raise ConfigError("flooding time requires a complete run")
        return float(self.times[-1])


def _check_sandwich(j: int, rate: float, rn: float, prefix: np.ndarray) -> None:
    """Assert the rate sandwich; R_n and the prefix sums are fetched once per run."""
    lower, upper = weights.sandwich_bounds(rn, prefix, j)
    slack = SANDWICH_RTOL * upper
    if rate > upper + slack or rate < lower - slack:
        raise InvariantViolation(
            f"rate sandwich violated at j={j}: {lower!r} <= {rate!r} <= {upper!r}"
        )


def _select_scan(field: WeightField, u: float) -> int:
    """Newborn by cumulative scan in deterministic site order (O(n))."""
    cum = np.cumsum(field.values)
    mass = cum[-1]
    if not (mass > 0.0):
        raise InvariantViolation("selection requested from an exhausted field")
    idx = int(np.searchsorted(cum, u * mass, side="right"))
    # Float ties land on zero-weight (discovered) slots at most at boundaries;
    # advance in site order, which is the documented tie-break.
    while idx < len(field.values) and field.values[idx] <= 0.0:
        idx += 1
    if idx >= len(field.values):
        idx = int(np.max(np.nonzero(field.values > 0.0)[0]))
    return idx


class _ScanSampler:
    """Reference sampler: the full WeightField, newborn by cumulative scan."""

    def __init__(self, source: Site, cfg: TorusConfig, gen: np.random.Generator) -> None:
        self.field = WeightField.initial(source, cfg)
        self.gen = gen
        self.proposals = 0

    @property
    def rate(self) -> float:
        return self.field.total

    def wait(self) -> float:
        return -math.log(1.0 - self.gen.random())

    def birth(self) -> int:
        z = _select_scan(self.field, self.gen.random())
        self.field.discover_index(z)
        self.proposals += 1
        return z


class _ThinningSampler:
    """Newborn by thinning, rate by exact increments; no per-site field.

    Waiting times, parent uniforms and offsets come from ``gen`` in batches
    of THINNING_BATCH.  Refills happen when a batch runs out, whatever the
    stop rule, so a truncated run draws the same numbers as a full one up to
    where it stops.
    """

    def __init__(self, src: int, cfg: TorusConfig, gen: np.random.Generator) -> None:
        self.cfg, self.gen = cfg, gen
        self.rn = weights.total_rate(cfg)
        self.rate = self.rn
        self.proposals = 0
        self._comp = 0.0
        self._increments = [self.rn]
        self._cdf = weights.nearest_prefix_sums(cfg)
        self._by_distance = torus.sorted_order(cfg)
        self._offsets = torus.coordinate_table(cfg)
        self._diff = weights.difference_table(cfg)
        self._key_zero = self._key([cfg.m] * cfg.d)
        self._flat_scales = cfg.m ** np.arange(cfg.d - 1, -1, -1, dtype=np.int64)
        self._mask = np.zeros(cfg.n, dtype=bool)
        self._mask[src] = True
        g = self._offsets[src] + cfg.half
        # Discovered grid coordinates: lists for single proposals, an array
        # for look-ahead; keys for the W_D gather.
        self._grid = [g.tolist()]
        self._grid_arr = np.empty((64, cfg.d), dtype=np.int64)
        self._grid_arr[0] = g
        self._keys = np.empty(64, dtype=np.int64)
        self._keys[0] = self._key(self._grid[0])
        self._waits: List[float] = []
        self._wait_pos = 0
        self._parent_u = np.empty(0)
        self._offset_rows = np.empty((0, cfg.d), dtype=np.int64)
        self._offset_list: List[List[int]] = []
        self._pos = 0

    def wait(self) -> float:
        if self._wait_pos == len(self._waits):
            self._waits = self.gen.standard_exponential(THINNING_BATCH).tolist()
            self._wait_pos = 0
        self._wait_pos += 1
        return self._waits[self._wait_pos - 1]

    def _refill(self) -> None:
        gen = self.gen
        self._parent_u = gen.random(THINNING_BATCH)
        # cdf[i] sums the i nearest nonzero-site weights, so U * R_n falls in
        # [cdf[i-1], cdf[i]) with probability equal to the weight of the i-th
        # nearest site, sorted_order[i].  The clip catches U * R_n rounding up
        # to cdf[-1].
        u = gen.random(THINNING_BATCH) * self._cdf[-1]
        rank = np.minimum(np.searchsorted(self._cdf, u, side="right"), self.cfg.n - 1)
        self._offset_rows = self._offsets[self._by_distance[rank]]
        self._offset_list = self._offset_rows.tolist()
        self._pos = 0

    def _key(self, grid: List[int]) -> int:
        """Base-2m key of grid coordinates, as ``weights.difference_table`` reads it."""
        key = 0
        for a in grid:
            key = key * 2 * self.cfg.m + a
        return key

    def _select(self, j: int) -> Tuple[int, List[int]]:
        """First accepted proposal from j vertices: flat index, grid coordinates."""
        m, mask = self.cfg.m, self._mask
        while True:
            if self._pos == len(self._parent_u):
                self._refill()
            i = self._pos
            parent = self._grid[min(int(self._parent_u[i] * j), j - 1)]
            g = [(a + c) % m for a, c in zip(parent, self._offset_list[i])]
            z = 0
            for a in g:
                z = z * m + a
            self._pos += 1
            self.proposals += 1
            if not mask[z]:
                return z, g
            # Rejected: look ahead over the batch in one pass, about four
            # times the expected number of proposals per birth at a time.
            while self._pos < len(self._parent_u):
                expected = j * self.rn / self.rate
                stop = min(len(self._parent_u), self._pos + 4 * math.ceil(expected))
                window = slice(self._pos, stop)
                parents = np.minimum((self._parent_u[window] * j).astype(np.int64), j - 1)
                grid = (self._grid_arr[parents] + self._offset_rows[window]) % m
                flat = grid @ self._flat_scales
                free = ~mask[flat]
                hit = int(free.argmax())
                if free[hit]:
                    self._pos += hit + 1
                    self.proposals += hit + 1
                    return int(flat[hit]), grid[hit].tolist()
                self.proposals += stop - self._pos
                self._pos = stop

    def birth(self) -> int:
        j = len(self._grid)
        z, g = self._select(j)
        key = self._key(g)
        w_dz = float(self._diff[self._keys[:j] - (key - self._key_zero)].sum())
        delta = self.rn - 2.0 * w_dz
        # rate_{j+1} = rate_j + R_n - 2 W_D(z), Kahan-compensated.
        self.rate, self._comp = weights.kahan_add(self.rate, self._comp, delta)
        self._increments.append(delta)
        self._mask[z] = True
        if j == len(self._keys):
            self._keys = np.concatenate([self._keys, np.empty_like(self._keys)])
            self._grid_arr = np.concatenate([self._grid_arr, np.empty_like(self._grid_arr)])
        self._keys[j] = key
        self._grid_arr[j] = g
        self._grid.append(g)
        if j % weights.RESUM_INTERVAL == 0:
            self.check_resummation()
        return z

    def check_resummation(self) -> None:
        """Assert |rate - fsum(increments)| <= 1e-9 * n * R_n.

        Every increment R_n - 2 W_D(z) lies in [-R_n, R_n], so R_n bounds the
        largest summand.
        """
        fresh = math.fsum(self._increments)
        tol = weights.RESUM_RTOL * self.cfg.n * max(self.rn, 1.0)
        if abs(self.rate - fresh) > tol:
            raise InvariantViolation(
                f"rate drift: incremental={self.rate!r} resum={fresh!r} tol={tol!r}"
            )


def run_exploration(
    source: Site,
    stop: StopRule,
    cfg: TorusConfig,
    seed: rng.SeedLike,
    selection: str = "thinning",
) -> ExplorationRecord:
    """Simulate the exploration birth process from ``source`` until ``stop``.

    ``selection`` chooses the newborn sampler: "thinning" (default, no
    per-site field) or "scan" (the reference WeightField and cumulative scan);
    the two agree in distribution but draw different random numbers.  Every
    step asserts the deterministic rate sandwich; a violation raises
    InvariantViolation.
    """
    if selection not in ("thinning", "scan"):
        raise ConfigError(f"unknown selection mode {selection!r}")
    if stop.kind == "count" and stop.k > cfg.n - 1:
        raise ConfigError(f"count {stop.k} exceeds n - 1 = {cfg.n - 1}")
    if stop.kind == "target":
        tgt: Optional[int] = torus.site_to_index(stop.site, cfg)
    else:
        tgt = None

    src = torus.site_to_index(source, cfg)
    if tgt is not None and tgt == src:
        return ExplorationRecord(
            cfg=cfg,
            source=source,
            site_indices=np.array([src], dtype=np.int64),
            times=np.zeros(1),
            rates=np.array([math.nan]),
            horizon="target",
            proposals=0,
        )

    gen = rng.generator(seed, rng.STREAM_EXPLORE)
    rn, prefix = weights.total_rate(cfg), weights.nearest_prefix_sums(cfg)
    if selection == "scan":
        sampler = _ScanSampler(source, cfg, gen)
    else:
        sampler = _ThinningSampler(src, cfg, gen)
    sites = [src]
    times = [0.0]
    rates = [math.nan]
    t = 0.0
    horizon = "exhausted"

    while True:
        if stop.kind == "count" and len(sites) - 1 >= stop.k:
            horizon = "count"
            break
        if len(sites) == cfg.n:
            horizon = "full"
            break

        rate = sampler.rate
        if not (rate > 0.0):
            break
        _check_sandwich(len(sites), rate, rn, prefix)

        t += sampler.wait() / rate
        if stop.kind == "time" and t > stop.t:
            horizon = "time"
            break

        z = sampler.birth()
        sites.append(z)
        times.append(t)
        rates.append(rate)

        if tgt is not None and z == tgt:
            horizon = "target"
            break

    return ExplorationRecord(
        cfg=cfg,
        source=source,
        site_indices=np.array(sites, dtype=np.int64),
        times=np.array(times),
        rates=np.array(rates),
        horizon=horizon,
        proposals=sampler.proposals,
    )


def transmission_time(u: Site, v: Site, cfg: TorusConfig, seed: rng.SeedLike) -> float:
    """Passage time from u to v: birth time of v when exploring from u."""
    record = run_exploration(u, StopRule.target(v), cfg, seed)
    return float(record.times[-1])


def flooding_time(u: Site, cfg: TorusConfig, seed: rng.SeedLike) -> float:
    """Time to discover every site from u: final birth time of a full run."""
    record = run_exploration(u, StopRule.full(), cfg, seed)
    return record.flooding()


# ---------------------------------------------------------------------------
# Edge-weight realization and shortest-path oracle
# ---------------------------------------------------------------------------


@lru_cache(maxsize=64)
def _norm_power_table(cfg: TorusConfig) -> np.ndarray:
    """Flat array of norm(u)**alpha per site; 0 at the origin (read-only).

    The factor that turns a unit exponential into an edge weight, shared by
    every ``EdgeWeightSample`` of the configuration.
    """
    table = torus.norm_table(cfg)
    if cfg.alpha == 0.0:
        out = np.ones_like(table)
        out[torus.origin_index(cfg)] = 0.0
    else:
        out = table**cfg.alpha
    out.setflags(write=False)
    return out


@dataclass(frozen=True)
class EdgeWeightSample:
    """One deterministic realization of all edge weights, O(1) memory.

    The weight of {u, v} is norm(u - v)**alpha * E, with E a rate-one
    exponential obtained by hashing (seed, sorted pair) to a uniform in (0,1)
    and inverting the CDF.  Symmetric, strictly positive, reproducible; with
    alpha = 0 the weights are plain exponentials.
    """

    cfg: TorusConfig
    key: Tuple[int, int]

    @classmethod
    def from_seed(cls, cfg: TorusConfig, seed: rng.SeedLike) -> "EdgeWeightSample":
        return cls(cfg=cfg, key=rng.hash_key(seed, rng.STREAM_EDGES))

    def pair_weights(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        """Weights of the pairs {i[k], j[k]} of flat site indices (0 where i == j)."""
        u01 = rng.pair_uniform(i, j, self.key)
        diff = torus.pair_difference_index(i, j, self.cfg)
        return _norm_power_table(self.cfg)[diff] * -np.log(u01)

    def weight(self, u: Site, v: Site) -> float:
        iu = torus.site_to_index(u, self.cfg)
        iv = torus.site_to_index(v, self.cfg)
        if iu == iv:
            raise ConfigError("edge weights are defined for distinct sites")
        return float(self.pair_weights(np.array([iu]), np.array([iv]))[0])

    def dense_matrix(self) -> np.ndarray:
        """Full symmetric weight matrix (diagonal 0); n <= DIJKSTRA_CAP."""
        n = self.cfg.n
        if n > DIJKSTRA_CAP:
            raise ConfigError(f"dense edge matrix capped at n <= {DIJKSTRA_CAP}")
        iu, ju = np.triu_indices(n, k=1)
        w = self.pair_weights(iu, ju)
        mat = np.zeros((n, n), dtype=np.float64)
        mat[iu, ju] = w
        mat[ju, iu] = w
        return mat

    def edges_up_to(self, threshold: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges {i, j}, i < j, of weight <= threshold, as arrays (i, j, weight).

        The upper triangle is hashed EDGE_BLOCK_ROWS rows at a time, so only
        one block and the kept edges are held, never the whole triangle.
        """
        n = self.cfg.n
        cols = np.arange(n)
        parts = []
        for start in range(0, n - 1, EDGE_BLOCK_ROWS):
            rows = np.arange(start, min(start + EDGE_BLOCK_ROWS, n - 1))
            i, j = np.nonzero(cols > rows[:, None])
            i += start
            w = self.pair_weights(i, j)
            keep = w <= threshold
            # Site indices fit in int32, as the pair hash requires.
            parts.append((i[keep].astype(np.int32), j[keep].astype(np.int32), w[keep]))
        return tuple(np.concatenate(part) for part in zip(*parts))


def _symmetric_graph(n: int, i: np.ndarray, j: np.ndarray, w: np.ndarray) -> csr_matrix:
    """Edge list {i, j} with both orientations stored, for directed Dijkstra.

    Reading a symmetric CSR in directed mode gives the undirected distances
    without SciPy's dense-input conversion, undirected transpose or COO
    checks; n <= DIJKSTRA_CAP fits the uint16 sort key.
    """
    rows = np.concatenate([i, j])
    order = np.argsort(rows.astype(np.uint16), kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    data = (np.concatenate([w, w])[order], np.concatenate([j, i])[order], indptr)
    return csr_matrix(data, shape=(n, n))


def _certified_edges(
    sample: EdgeWeightSample, source: int, span: int
) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Edges that can lie on a shortest path, and the distances b from ``source``.

    Keeps the edges of weight <= T, starting from T = THRESHOLD_SCALE *
    log(n) / R_n, with b the Dijkstra distances from ``source`` on them.
    Until span * max b <= T, T is raised to span * max b (doubled while some
    b is infinite) and the edges are rebuilt.  Returns (i, j, weight, b) with
    i < j.

    Why this is exact: an edge {x, y} heavier than d(x, y) lies on no
    shortest path, so dropping it changes no distance, and the b of any
    subgraph bound the true distances from above.
    - span 1: every edge on a shortest path from the source to y weighs at
      most d(source, y) <= b(y) <= max b <= T, so each such path is kept and
      b is the single-source distance vector.  It equals Dijkstra on the
      complete graph bit for bit: a dropped edge's relaxation is no smaller
      than its weight, which exceeds T and so every distance.
    - span 2: d(x, y) <= b(x) + b(y) <= 2 max b <= T, so every edge heavier
      than T, and every kept edge heavier than b(x) + b(y), is heavier than
      d(x, y).  ``distance_matrix`` drops the latter too and runs every
      source.
    """
    n = sample.cfg.n
    threshold = THRESHOLD_SCALE * math.log(n) / weights.total_rate(sample.cfg)
    while True:
        i, j, w = sample.edges_up_to(threshold)
        bound = csgraph.dijkstra(_symmetric_graph(n, i, j, w), directed=True, indices=source)
        reach = float(bound.max())
        if span * reach <= threshold:
            return i, j, w, bound
        threshold = span * reach if math.isfinite(reach) else 2.0 * threshold


def dijkstra_oracle(u: Site, cfg: TorusConfig, seed: rng.SeedLike) -> np.ndarray:
    """Passage times from u to every site on one edge realization, by flat index.

    Independent oracle for the exploration law: exact shortest-path distances
    under EdgeWeightSample on the complete graph, from one Dijkstra on the
    edges ``_certified_edges`` keeps with span 1.  Every pair is still
    hashed, so n <= DIJKSTRA_CAP.
    """
    if cfg.n > DIJKSTRA_CAP:
        raise ConfigError(f"dijkstra oracle capped at n <= {DIJKSTRA_CAP}")
    sample = EdgeWeightSample.from_seed(cfg, seed)
    return _certified_edges(sample, torus.site_to_index(u, cfg), span=1)[3]


def oracle_transmission_time(
    u: Site, v: Site, cfg: TorusConfig, seed: rng.SeedLike
) -> float:
    """Oracle-side sample of the u-to-v passage time (fresh realization)."""
    return float(dijkstra_oracle(u, cfg, seed)[torus.site_to_index(v, cfg)])


def _all_pairs_graph(cfg: TorusConfig, seed: rng.SeedLike) -> csr_matrix:
    """Edges ``_certified_edges`` keeps from site 0 with span 2, less those
    heavier than b(u) + b(v); its docstring says why this is exact."""
    if cfg.n > ALL_PAIRS_CAP:
        raise ConfigError(f"all-pairs oracle capped at n <= {ALL_PAIRS_CAP}")
    i, j, w, bound = _certified_edges(EdgeWeightSample.from_seed(cfg, seed), 0, span=2)
    keep = w <= bound[i] + bound[j]
    return _symmetric_graph(cfg.n, i[keep], j[keep], w[keep])


def _bounded_diameter(graph: csr_matrix, start: int) -> Tuple[float, np.ndarray, int]:
    """Largest entry of ``csgraph.dijkstra(graph, directed=True)`` bit for bit,
    the row of ``start``, and the number of Dijkstra runs made.

    A run from v gives ecc(v), the max of its row, and bounds every w by
    lo(w) >= max(d(v, w), ecc(v) - d(v, w)) and hi(w) <= ecc(v) + d(v, w).
    A vertex leaves once run or once hi(w) < best * (1 - ECC_MARGIN); the
    next source alternates between the largest hi and the smallest lo left.
    """
    n = graph.shape[0]
    lo, hi, left = np.zeros(n), np.full(n, math.inf), np.ones(n, dtype=bool)
    best, v, runs = 0.0, start, 0
    while True:
        row = csgraph.dijkstra(graph, directed=True, indices=v)
        first = row if runs == 0 else first
        runs += 1
        ecc = float(row.max())
        best = max(best, ecc)
        np.maximum(lo, np.maximum(row, ecc - row), out=lo)
        np.minimum(hi, ecc + row, out=hi)
        left[v] = False
        left &= hi >= best * (1.0 - ECC_MARGIN)
        candidates = np.flatnonzero(left)
        if candidates.size == 0:
            return best, first, runs
        v = int(candidates[np.argmax(hi[candidates] if runs % 2 else -lo[candidates])])


def distance_matrix(cfg: TorusConfig, seed: rng.SeedLike) -> np.ndarray:
    """All-pairs passage times on one shared edge realization; n <= ALL_PAIRS_CAP.

    Dijkstra from every source on ``_all_pairs_graph``.  The result differs
    from a dense all-pairs method only in the order each path's weights are
    summed; each pair takes the smaller of its two directions' sums, so the
    matrix is exactly symmetric.
    """
    dist = csgraph.dijkstra(_all_pairs_graph(cfg, seed), directed=True)
    return np.minimum(dist, dist.T)


def diameter_exact(cfg: TorusConfig, seed: rng.SeedLike) -> float:
    """Max passage time over all pairs on one shared edge realization: the
    largest directed Dijkstra distance (no ``min`` of a pair's two directions),
    exact because ECC_MARGIN drops no row that could hold it."""
    return _bounded_diameter(_all_pairs_graph(cfg, seed), 0)[0]
