"""The simulator core: exact exploration birth process plus an edge oracle.

``run_exploration`` grows a cluster one vertex at a time.  With j vertices
discovered in D, the next birth comes after an Exp(rate_j) wait, rate_j the
sum of norm(z - v)**-alpha over v in D and z not in D, and the newborn is z
with probability W_D(z)/rate_j, W_D(z) the attraction of z to D.  By
memorylessness of the exponential edge weights this is exactly the order and
times at which first-passage percolation discovers the torus.

The sampler never computes rate_j.  Every discovered vertex emits at R_n =
total_rate(cfg), so the j of them make proposals at the times of a Poisson
stream of rate j * R_n: a uniform discovered parent plus an offset u drawn
with probability norm(u)**-alpha / R_n, rejected when its target is
discovered.  A rejected proposal is the clock of an edge inside D, which
changes nothing, so the first accepted one is the birth (thinning, Lewis &
Shedler 1979, read as uniformization): a birth that takes G proposals waits
Gamma(G, 1) / (j * R_n), the sum of their G standard exponentials over
j * R_n.  A run stores each site once, as its key (``weights.site_keys``) in
event order and its side in a byte per site of the torus.

Past half the torus the free sites are the fewer, and a one-sided run mirrors
the thinning: once 2j > n the proposers are a list S that holds every free
site, each at R_n, and a proposal from z in S with offset u is accepted when
z is free and z + u discovered, and then z is the newborn.  The norm is
symmetric, so z is born at rate sum_{v in D} norm(v - z)**-alpha = W_D(z); an
entry of S discovered since S was built is a fictitious clock, always
rejected.  So a birth that takes G proposals waits Gamma(G, 1) / (|S| * R_n),
the same uniformization with |S| in place of j, and as the proposers are
chosen afresh at each birth, switching between births is exact.  S is built
in a buffer of its own at the switch, and rebuilt from the free sites when
they fall to half of it.  A birth costs its G proposals, about min(j, |S|) *
R_n / rate_j; at alpha = 0 that is (n - 1)/(n - j) forward, which would reach
n - 1 at the last birth, and under 4 mirrored.  Meeting runs do not mirror.

Mirrored, a run reads several births off one window of proposals.  Neither
the proposer S[floor(U * |S|)] nor the target of a proposal depends on j, and
a birth changes the state only at its newborn, so judged on the state before
the window, every proposal up to the break has the verdict it has after the
births before it.  The break is the first proposal whose proposer or target
is the proposer of an accepted one before it; the accepted proposals before
it are the next births in order, and birth k waits the exponentials of the
proposals after birth k - 1 up to its own over |S| * R_n.

A target stop grows disjoint explorations A from U and B from V at one common
radius t until they meet (Bhamidi, van der Hofstad & Hooghiemstra 2010, Ann.
Appl. Probab. 20): a proposal to the proposer's side is rejected, one to a
free site is a birth on that side at t, and one across is the meeting, with
d(U, V) = 2t.  By radius t the edge {x, y}, x in A reached at a and y in B at
b, is covered from both ends to 2t - a - b, so each cross pair meets at rate
2 norm(x - y)**-alpha, and the first meeting closes a shortest path a + w + b
= 2t; as b <= t, A cannot cross into B first.  The event rate is cut(A) +
cut(B), and the j = |A| + |B| sites propose at j * R_n, so the clock is the
same; about 3 sqrt(n) births end a run, against n/2 from U.

``run_explorations`` runs replicates in lockstep blocks, sized by BLOCK_BYTES
alone, of one-sided or meeting runs; a step is one event in every run, or
once mirrored the births that every run's window settles, with the proposals
and the clock as array operations.  Meeting runs that outgrow their room run
again, in blocks, with four times it.  ``run_exploration`` is a block of one.

``EdgeWeightSample`` realizes one joint assignment of all edge weights
``norm(u - v)**alpha * E``, and the oracles compute passage times on that
realization as an independent route to the same law.  The pairs {u, u + z},
placed by the same keys, are grouped by difference class {z, -z}, whose pairs
share one scale, and only the pairs below a threshold are drawn: on a fixed
ladder of thresholds, each rung draws its pairs' number, positions and weights
for all classes at once from its own stream, so an oracle costs about the
edges it keeps, not n(n-1)/2 pairs.  Both oracles keep only edges no heavier
than a threshold that Dijkstra from one source certifies, so no shortest path
loses an edge; the single-source oracle returns that run's distances.
``distance_matrix`` also drops edges heavier than a bound on the distance
between their ends, keeping about 6-8 per vertex of the 1023 at n = 1024, and
runs Dijkstra from every source.  The diameter is the largest directed
distance (no ``min`` of a pair's two directions) and needs a few dozen
sources: eccentricity bounds (Takes & Kosters 2011) drop every vertex whose
row cannot hold it, with a margin above the float error of path sums that
keeps the result exact.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

import numpy as np
from scipy.sparse import csgraph, csr_matrix

from . import rng, torus, weights
from .errors import ConfigError
from .torus import Site, TorusConfig

#: Caps for the oracles: the single-source oracle shares its cap with the
#: dense edge matrix, n**2 floats (128 MB at the cap), and the uint16 row key
#: of ``_symmetric_graph``; the all-pairs oracle returns an n x n matrix, and
#: the diameter shares its cap.
DIJKSTRA_CAP = 4096
ALL_PAIRS_CAP = 1024

#: Upper end T_0 of the first rung of the edge-weight ladder, in units of
#: log(n) / R_n; rung k ends at T_0 * 2**k, and one more rung of upper end inf
#: follows the last.  About this many edges per vertex per unit of log n lie
#: on rung 0.  The last finite rung ends at 8 T_0, over ten times a diameter
#: of about 3 log(n) / R_n, so a certificate that starts at T_0 stays on it.
LADDER_SCALE = 6.0
LADDER_RUNGS = 4
#: First edge threshold of both oracles, in the same units: the certificate
#: starts by reading rung 0 only.
THRESHOLD_SCALE = LADDER_SCALE

#: Relative slack on the diameter's eccentricity bounds.  It exceeds the float
#: error of path sums, about n * eps relative, so it keeps the result exact.
ECC_MARGIN = 1e-9

#: Proposals drawn per refill by the thinning sampler, each a standard
#: exponential of the clock, a parent uniform and an offset.
THINNING_BATCH = 256
#: Memory budget of one lockstep block of thinning runs, in bytes: it alone
#: sizes a block.
BLOCK_BYTES = 5 << 19
#: First room of a meeting run, in units of sqrt(n) sites; the runs that outgrow
#: it, 1 in 100 at n = 4,096 and alpha = 1.5, run again with four times the room.
MEETING_SPAN = 16
#: Narrowest first window of a mirrored step, in proposals per run.  A
#: mirrored step takes as many births as every run's window settles, and
#: with a window of four times the proposals per run of the last step alone,
#: a step of few births would keep the next one short.
MIRROR_WIDTH = 32
#: Widest window of a mirrored step: ``_settle`` marks a site in the int8
#: ``side`` with its position in the window less MIRROR_SPAN, which fits.
MIRROR_SPAN = 128


@dataclass(frozen=True)
class StopRule:
    """When a run ends: after ``k`` births, an integer >= 1 (n - 1 if None, as in
    ``full()``), or, with ``site`` and no ``k``, when it meets an exploration from ``site``."""

    k: Optional[int] = None
    site: Optional[Site] = None

    def __post_init__(self):
        k = self.k
        if k is not None and (isinstance(k, bool) or not isinstance(k, (int, np.integer))
                              or k < 1 or self.site is not None):
            raise ConfigError(f"a stop takes a count >= 1 or a target site, not {self}")

    @classmethod
    def count(cls, k: int) -> "StopRule":
        return cls(k=k)

    @classmethod
    def target(cls, site: Site) -> "StopRule":
        """Grow explorations from the source and from ``site`` until they meet;
        the record ends with ``site`` at d(source, site), or at 0 if it is the source."""
        return cls(site=site)

    @classmethod
    def full(cls) -> "StopRule":
        return cls()


@dataclass(frozen=True)
class ExplorationRecord:
    """Entries of one exploration run up to its stop, in event order.

    ``site_indices[0]`` is the source's flat index, at ``times[0] == 0``;
    ``proposals`` counts the thinning sampler's proposals.  After the source
    come the newborns at their times: of both sides, at their radius, for a
    target stop, whose last entry is the target at d(source, target).
    """

    site_indices: np.ndarray
    times: np.ndarray
    proposals: int

    @property
    def n_born(self) -> int:
        return len(self.times)


class _Lockstep:
    """Thinning runs of a block of replicates, advanced together one step at a time.

    Row r of the state is a live run of replicate ``rows[r]`` with j sites.
    Replicate i stores its sites once: ``keys[i, :j]`` holds their keys in
    event order, sources first, and ``side[i, x]`` the side of site x, 0
    while x is free; side 1 grows from the first source and, in a meeting
    block (``ends`` = 2), side 2 from the second.  They and ``times``, the
    record's times, are by replicate, so an ending run copies none of them.
    Each run draws from its own stream as alone, THINNING_BATCH proposals at
    a time, each when first needed, whatever the stop rule: their
    exponentials, then their parent uniforms, then their offsets.
    ``clock[r, i]`` sums the first i exponentials of the refill, so a wait is
    the difference of two of its entries, whatever windows ``_select`` reads.
    Once a one-sided block mirrors, ``pool[i, :held]`` holds the keys of S.
    A step is one event in every run, or once mirrored the same number of
    births in every run.
    """

    _LIVE = ("rows", "t", "clock", "parent_u", "offsets", "pos", "refills")

    def __init__(self, cfg: TorusConfig, seeds: Sequence[rng.SeedLike], srcs, cap: int) -> None:
        srcs = np.asarray(srcs, dtype=np.int64).reshape(len(seeds), -1)
        (size, self.ends), batch = srcs.shape, THINNING_BATCH
        self.cfg, self.j, self.rn = cfg, self.ends, weights.total_rate(cfg)
        self.gens = [rng.generator(seed, rng.STREAM_EXPLORE) for seed in seeds]
        self._cdf = weights.nearest_prefix_sums(cfg)
        self._key_of, self._site_of, _ = weights.site_keys(cfg)
        self._order = torus.sorted_order(cfg)  # offset of rank i: key_of[order[i]]
        self._zero = self._key_of[self._order[0]]  # the offset to the site itself
        self._index_of = self._site_of[self._zero :]  # a site's flat index at its key
        self.rows, self.t = np.arange(size), np.zeros(size)
        self.proposals, self.born = np.zeros(size, dtype=np.int64), np.zeros(size, dtype=np.int64)
        self.side = np.zeros((size, cfg.n), dtype=np.int8)
        self.side[self.rows[:, None], srcs] = np.arange(1, self.ends + 1)
        self.keys, self.times = np.empty((size, cap), dtype=np.int32), np.empty((size, cap))
        self.keys[:, : self.ends], self.times[:, 0] = self._key_of[srcs], 0.0
        self.clock = np.zeros((size, batch + 1))
        # Proposal batches, padded to twice their length with proposals from
        # the first site to itself, which are rejected, so windows may overrun.
        self.parent_u = np.zeros((size, 2 * batch))
        self.offsets = np.full((size, 2 * batch), self._zero, dtype=np.int32)
        self.pos, self.refills = np.full(size, batch), np.zeros(size, dtype=np.int64)
        self.mean_g = 1.0  # proposals per run in the last step
        self.held = cfg.n  # |S| once mirrored; n before, so the first mirrored step builds S
        self._span = np.arange(batch)  # a window's positions
        self._marks = np.arange(-MIRROR_SPAN, 0, dtype=np.int8)  # see _settle
        self._index()

    def _index(self) -> None:
        """Row r's offsets into the flat windows and sides, kept until a run ends."""
        self._at = np.arange(len(self.rows))
        self._cell_at = self._at * (2 * THINNING_BATCH)
        self._side_at = self.rows * self.cfg.n

    def keep(self, live: np.ndarray) -> None:
        """Drop the runs whose entry of ``live`` is False, counting their entries and proposals."""
        if live.all():
            return
        gone = ~live
        self.born[self.rows[gone]] = self.j
        self.proposals[self.rows[gone]] = (self.refills[gone] - 1) * THINNING_BATCH + self.pos[gone]
        self.gens = [gen for gen, kept in zip(self.gens, live) if kept]
        for name in self._LIVE:
            setattr(self, name, getattr(self, name)[live])
        self._index()

    def _refill(self, row: int) -> None:
        """Draw the next THINNING_BATCH proposals of run ``row``."""
        gen, batch = self.gens[row], THINNING_BATCH
        np.cumsum(gen.standard_exponential(batch), out=self.clock[row, 1:])
        self.parent_u[row, :batch] = gen.random(batch)
        # cdf[i] sums the i nearest nonzero-site weights, so U * R_n falls in
        # [cdf[i-1], cdf[i]) with probability equal to the weight of the i-th
        # nearest site, sorted_order[i].  The clip catches U * R_n rounding up
        # to cdf[-1].
        u = gen.random(batch) * self._cdf[-1]
        rank = np.minimum(np.searchsorted(self._cdf, u, side="right"), self.cfg.n - 1)
        self.offsets[row, :batch] = self._key_of[self._order[rank]]
        self.pos[row], self.refills[row] = 0, self.refills[row] + 1

    def _select(self, most: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The next births of every live run, or its meeting site, as flat
        indices of ``side`` in a (runs, c) array, their proposers' sides, and
        their times: birth k waits the exponentials of the proposals after
        birth k - 1 up to its own over min(j, held) * R_n.

        The proposers are the j sites, or once mirrored the ``held`` entries of
        S, and a proposal from one is accepted when it lands off the
        proposer's side, or, mirrored, when it comes from a free site and lands
        on a discovered one, whose proposer is then the newborn.  Runs read
        their proposals in windows, at first four times the proposals per run
        of the last step, doubling while they miss.  Forward, c is 1: each run
        takes its first accepted proposal.  Mirrored, a window holds at least
        MIRROR_WIDTH and at most MIRROR_SPAN proposals, and c is the fewest
        births that the window of any run settles (``_settle``), at most
        ``most``.
        """
        j, batch, count = self.j, THINNING_BATCH, len(self.rows)
        mirror, size = self.held < j, min(j, self.held)
        # A run at the end of its batch refills before its wait starts:
        # -clock[batch] + clock[batch] and -clock[0] are both 0.
        if self.pos.max() == batch:
            for row in np.flatnonzero(self.pos == batch):
                self._refill(row)
        todo, pos, parts = self._at, self.pos, []
        made, spent = self.refills * batch + pos, -self.clock[todo, pos]
        top = MIRROR_SPAN if mirror else batch
        width = min(top, math.ceil(max(MIRROR_WIDTH if mirror else 1, 4.0 * self.mean_g)))
        keys = self.pool if mirror else self.keys
        cell_at, side_at = self._cell_at, self._side_at[:, None]
        key_at = (self.rows * keys.shape[1])[:, None]
        while True:
            cell = (cell_at + pos)[:, None] + self._span[:width]
            key = self.offsets.take(cell)
            parent = (self.parent_u.take(cell) * size).astype(np.int64)
            del cell  # In place from here, which keeps a window small.
            np.minimum(parent, size - 1, out=parent)
            parent += key_at
            home = keys.take(parent)
            del parent
            key += home
            target = self._site_of.take(key)
            target += side_at
            # The side a target must differ from: the proposer's, 1 in a
            # one-sided run (an int8 compares fast), or 0 (free) once mirrored.
            own = np.int8(1)
            if mirror or self.ends == 2:
                flat = self._index_of.take(home)
                flat += side_at
                own = self.side.take(flat)
            ok = self.side.take(target) != own
            if mirror:
                ok &= own == 0
                self._settle(ok, flat, target)
                born = ok.sum(axis=1)
                found, done = born > 0, (todo, pos, ok, flat, born)
            else:
                first = self._at[: todo.size]
                hit = ok.argmax(axis=1)
                found = ok[first, hit]
                done = (todo, target[first, hit, None], (pos + hit + 1)[:, None])
                if self.ends == 2:
                    done += (own[first, hit, None],)
            if found.all():
                parts.append(done)
                break
            parts.append(tuple(a[found] for a in done))
            miss = ~found
            todo, cell_at, key_at, side_at = todo[miss], cell_at[miss], key_at[miss], side_at[miss]
            self.pos[todo] = np.minimum(pos[miss] + width, batch)
            for row in todo[self.pos[todo] == batch]:
                spent[row] += self.clock[row, batch]
                self._refill(row)
            pos, width = self.pos[todo], min(top, 2 * width)
        c = 1
        if mirror:
            c = min(most, *(part[-1].min(initial=most) for part in parts))
            for k, (rows, pos, ok, flat, _) in enumerate(parts):
                ok &= np.cumsum(ok, axis=1) <= c
                ends = ok.nonzero()[1].reshape(-1, c) + (pos + 1)[:, None]
                parts[k] = (rows, flat[ok].reshape(-1, c), ends)
        _, z, ends, *s = parts[0]
        if len(parts) > 1:  # back in row order
            rows, *out = (np.concatenate(a) for a in zip(*parts))
            order = np.argsort(rows)
            z, ends, *s = (a[order] for a in out)
        self.pos = ends[:, -1]
        self.mean_g = int((self.refills * batch + self.pos - made).sum()) / count
        times = self.clock[self._at[:, None], ends]
        if c > 1:
            times[:, 1:] -= times[:, :-1]
        times[:, 0] += spent
        times /= size * self.rn
        times[:, 0] += self.t
        if c > 1:
            np.cumsum(times, axis=1, out=times)
        return z, s[0] if s else 1, times

    def _settle(self, ok: np.ndarray, flat: np.ndarray, target: np.ndarray) -> None:
        """Keep in ``ok``, a mirrored window's accepted proposals, those before
        the break (see the module docstring): the first proposal whose
        proposer (``flat``) or target is the proposer of an accepted one
        before it.  The accepted proposal at position k marks its proposer in
        ``side`` with k - MIRROR_SPAN, the first mark if the proposer recurs,
        so a proposal at k is a break when its proposer or target holds a
        smaller mark; the marks go before ``_settle`` returns.
        """
        side, born = self.side.reshape(-1), flat[ok]
        marks = self._marks[: ok.shape[1]]
        np.minimum.at(side, born, marks[ok.nonzero()[1]])
        past = side.take(flat) < marks
        past |= side.take(target) < marks
        side[born] = 0
        np.logical_or.accumulate(past, axis=1, out=past)
        np.greater(ok, past, out=ok)

    def birth(self, most: int = 1) -> None:
        """One event in every live run, after its wait: a birth, or a meeting,
        which ends it.  Once mirrored, up to ``most`` births in every run."""
        free = self.cfg.n - self.j
        if self.ends == 1 and free < self.j and 2 * free <= self.held:
            # S is every free site: at the switch, or once half of S is stale.
            if self.held == self.cfg.n:
                self.pool = np.empty((len(self.side), free), dtype=np.int32)
            self.held = free
            for row in self.rows:
                self.pool[row, :free] = self._key_of[np.flatnonzero(self.side[row] == 0)]
        mirror = self.held < self.j
        # No birth of a step finds S half stale: 2 (free - c + 1) > held.
        z, s, times = self._select(min(most, free - self.held // 2) if mirror else 1)
        j, c, self.t = self.j, z.shape[1], times[:, -1]
        side = self.side.reshape(-1)
        if self.ends == 2:
            met = side[z[:, 0]] != 0
            if met.any():
                self.times[self.rows[met], j - 1] = 2.0 * self.t[met]
                self.keep(~met)
                z, s, times = z[~met], s[~met], times[~met]
                if not self.rows.size:
                    return
        col = j + 1 - self.ends
        side[z] = s
        self.times[self.rows, col : col + c] = times
        self.keys[self.rows, j : j + c] = self._key_of.take(z - self._side_at[:, None])
        self.j = j + c

    def site_indices(self, r: int) -> np.ndarray:
        """Replicate r's sites in record order: the source, the newborns, a meeting's target."""
        b = self.born[r]
        return self._index_of.take(self.keys[r, np.r_[0, 2:b, 1] if self.ends == 2 else slice(b)])


def block_count(cfg: TorusConfig, cap: int, count: int, meeting: bool = False) -> int:
    """Blocks of equal size, each within BLOCK_BYTES, for ``count`` runs of at
    most ``cap`` sites, or of meeting runs in their first room.  A run holds its
    sides (a byte per site of the torus), its keys and times (12 bytes per site
    it holds), the keys of S if it can pass n/2 (4 more, as |S| < n/2 < cap),
    its clock, parent uniforms and offsets (32 bytes per proposal of a refill),
    2 KB of objects, and ``_select``'s windows (33 bytes per proposal measured);
    a block holds no cached per-torus table.  A later, larger room of meeting
    runs is charged as one-sided runs: at most 4 bytes per site too many."""
    n = cfg.n
    cap = min(cap, n, MEETING_SPAN * math.isqrt(n)) if meeting else cap
    per_run = n + (16 if 2 * cap > n and not meeting else 12) * cap + 68 * THINNING_BATCH + 2048
    return -(-count // max(1, BLOCK_BYTES // per_run))


def _run_block(
    cfg: TorusConfig, seeds: Sequence[rng.SeedLike], srcs: np.ndarray, cap: int,
    limit: np.ndarray,
) -> List[ExplorationRecord]:
    """The runs of one block from ``srcs``, one source per side, each ending after
    ``limit`` births or at a meeting (None if a meeting run passes it)."""
    block, low = _Lockstep(cfg, seeds, srcs, cap), -1
    while True:
        if block.j > low:  # past the smallest limit of a live run
            block.keep(limit[block.rows] >= block.j)
            low = limit[block.rows].min(initial=cfg.n)
        if not block.rows.size:
            break
        block.birth(low + 1 - block.j)
    # Copies, so that no record holds the block's arrays.
    return [None if block.ends == 2 and b > limit[r] else ExplorationRecord(
        block.site_indices(r), block.times[r, :b].copy(), int(block.proposals[r]))
        for r, b in enumerate(block.born)]


def run_explorations(
    cfg: TorusConfig, seeds: Sequence[rng.SeedLike], sources: Sequence[Site],
    stops: Sequence[StopRule],
) -> List[ExplorationRecord]:
    """Thinning runs of many replicates in lockstep blocks (``block_count``).

    Replicate i explores from ``sources[i]`` until ``stops[i]`` on the stream
    of ``seeds[i]``, and its record equals ``run_exploration(sources[i],
    stops[i], cfg, seeds[i])`` bit for bit.  Target stops run in meeting
    blocks and the rest in one-sided blocks; the records keep the input order."""
    if not len(seeds) == len(sources) == len(stops):
        raise ConfigError("run_explorations needs one seed, source and stop per replicate")
    n, records = cfg.n, [None] * len(seeds)
    # The source and a target other than it, which a run meets before j passes n.
    ends = [list(dict.fromkeys(torus.site_to_index(x, cfg) for x in (u, stop.site)
                               if x is not None)) for u, stop in zip(sources, stops)]
    limit = np.array([n if len(e) == 2 else 0 if stop.site is not None
                      else n - 1 if stop.k is None else stop.k for e, stop in zip(ends, stops)])
    for sides in sorted({len(e) for e in ends}):
        group, meeting = np.flatnonzero([len(e) == sides for e in ends]), sides == 2
        cap = min(n, MEETING_SPAN * math.isqrt(n)) if meeting else int(limit[group].max()) + 1
        if cap > n:
            raise ConfigError(f"count {cap - 1} exceeds n - 1 = {n - 1}")
        while group.size:
            for part in np.array_split(group, block_count(cfg, cap, group.size, meeting)):
                for i, rec in zip(part, _run_block(
                        cfg, [seeds[i] for i in part], [ends[i] for i in part], cap,
                        np.minimum(limit[part], cap - 1 if cap < n else n))):
                    records[i] = rec
            group = group[[records[i] is None for i in group]]
            cap, meeting = min(n, 4 * cap), False
    return records


def run_exploration(
    source: Site, stop: StopRule, cfg: TorusConfig, seed: rng.SeedLike
) -> ExplorationRecord:
    """Simulate the exploration birth process from ``source`` until ``stop``:
    ``run_explorations`` of one replicate.
    """
    return run_explorations(cfg, [seed], [source], [stop])[0]


# ---------------------------------------------------------------------------
# Edge-weight realization and shortest-path oracle
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class _DifferenceClasses:
    """The unordered pairs {u, u + z} of the torus, one class per difference {z, -z}.

    Class c holds ``size[c]`` pairs: n, or n/2 when z = -z.  Its position k
    is the pair {u, u + z} with u = k + (k // fold) * fold, where fold = n
    (so u = k) unless z = -z; then every coordinate of z is 0 or m/2, and u
    runs over the sites below m/2 on the first axis where z is m/2.
    """

    n: int
    offset: np.ndarray  # key of z + floor(m/2): u + z is site_of[key_of[u] + offset]
    scale: np.ndarray  # norm(z)**alpha
    size: np.ndarray
    fold: np.ndarray


@lru_cache(maxsize=64)
def _difference_classes(cfg: TorusConfig) -> _DifferenceClasses:
    m, n, shape = cfg.m, cfg.n, (cfg.m,) * cfg.d
    z = np.arange(1, n)
    step = np.stack(np.unravel_index(z, shape), axis=-1)
    neg = np.ravel_multi_index(tuple((-step % m).T), shape)
    rep = z <= neg
    step, own = step[rep], (z == neg)[rep]
    site = np.ravel_multi_index(tuple(((step + cfg.half) % m).T), shape)
    first = np.argmax(step == m // 2, axis=1)
    fold = np.where(own, (m // 2) * m ** (cfg.d - 1 - first), n)
    # x ** 0.0 == 1.0, and no class is the origin.
    scale = torus.norm_table(cfg)[site] ** cfg.alpha
    offset = weights.site_keys(cfg)[0][site]
    return _DifferenceClasses(n, offset, scale, np.where(own, n // 2, n), fold)


def _ladder(cfg: TorusConfig) -> np.ndarray:
    """Upper ends T_k = T_0 * 2**k of the LADDER_RUNGS rungs, then inf."""
    t0 = LADDER_SCALE * math.log(cfg.n) / weights.total_rate(cfg)
    return np.append(t0 * 2.0 ** np.arange(LADDER_RUNGS), math.inf)


def _draw_rung(
    gen: np.random.Generator, classes: _DifferenceClasses, kept: np.ndarray, lo: float, hi: float
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Class, position and weight of every pair of weight in (lo, hi].

    ``kept`` holds class * n + position of the pairs of weight <= lo, sorted.
    Given that, each other pair of class c lies in (lo, hi] independently,
    with probability q = 1 - exp(-x), x = (hi - lo) / scale[c]: so their
    number is Binomial(free, q) and their positions are uniform without
    replacement among the free ones.  They are found by geometric skipping
    over the free ranks, with gaps 1 + floor(E / x), and each weighs
    lo + scale[c] * E', E' an exponential truncated to (0, x].
    """
    n = classes.n
    counts = np.bincount(kept // n, minlength=len(classes.size))
    free = classes.size - counts
    x = (hi - lo) / classes.scale
    q = -np.expm1(-x)
    done = np.zeros_like(free)
    active = np.flatnonzero(free)
    cls_parts, rank_parts = [active[:0]], [active[:0]]
    while active.size:
        # A batch a few standard deviations above the expected hits; the few
        # classes it does not carry past their last free rank draw again.
        left = free[active] - done[active]
        mean = left * q[active]
        batch = np.minimum(left + 1, np.ceil(mean + 4.0 * np.sqrt(mean) + 2.0)).astype(np.int64)
        cls = np.repeat(active, batch)
        # On the last rung, x = inf, every free pair is kept.
        skips = (np.floor(gen.standard_exponential(cls.size) / x[cls])
                 if math.isfinite(hi) else np.zeros(cls.size))
        gaps = 1 + np.minimum(skips, np.repeat(left, batch)).astype(np.int64)
        ends = np.cumsum(batch)
        reach = np.cumsum(gaps)
        rank = reach - np.repeat(reach[ends - batch] - gaps[ends - batch] - done[active], batch)
        hit = rank <= free[cls]
        cls_parts.append(cls[hit])
        rank_parts.append(rank[hit] - 1)
        done[active] = rank[ends - 1]
        active = active[done[active] < free[active]]
    cls, rank = np.concatenate(cls_parts), np.concatenate(rank_parts)
    # The r-th free position of a class is r plus the number of its kept
    # positions p_t (t-th of the class) with p_t - t <= r.
    first = np.cumsum(counts) - counts
    below = kept - (np.arange(kept.size) - np.repeat(first, counts))
    pos = rank + np.searchsorted(below, cls * n + rank, side="right") - first[cls]
    u = 1.0 - gen.random(cls.size)
    e = -np.log(u) if math.isinf(hi) else -np.log1p(-u * q[cls])
    # Kept inside (lo, hi] also where the sum rounds to lo or e to inf.
    return cls, pos, np.clip(lo + classes.scale[cls] * e, np.nextafter(lo, math.inf), hi)


@dataclass(frozen=True)
class EdgeWeightSample:
    """One deterministic realization of all edge weights, drawn by difference class.

    Every pair {u, u + z} weighs norm(z)**alpha * E with E a rate-one
    exponential, independently.  The weights are drawn on the ladder of
    ``_ladder``: rung k holds the pairs of weight in (T_{k-1}, T_k] (T_{-1} = 0)
    and is drawn, for all difference classes at once, from its own stream
    ``rng.generator(seed, STREAM_EDGES, k)`` given the pairs of the rungs
    below it (see ``_draw_rung``).  By memorylessness this is the law of
    independent weights, and a pair's weight does not depend on how many
    rungs a caller reads.  The last rung, of upper end inf, gives every pair
    left its weight.
    """

    cfg: TorusConfig
    seed: rng.SeedLike

    @classmethod
    def from_seed(cls, cfg: TorusConfig, seed: rng.SeedLike) -> "EdgeWeightSample":
        return cls(cfg=cfg, seed=seed)

    def _rungs(self, threshold: float):
        """Yield (class, position, weight) of rung 0, 1, ... up to the first
        rung whose upper end reaches ``threshold``."""
        classes, n = _difference_classes(self.cfg), self.cfg.n
        kept, lo = np.empty(0, dtype=np.int64), 0.0
        for k, hi in enumerate(_ladder(self.cfg)):
            gen = rng.generator(self.seed, rng.STREAM_EDGES, k)
            cls, pos, w = _draw_rung(gen, classes, kept, lo, hi)
            yield cls, pos, w
            if hi >= threshold:
                return
            kept, lo = np.sort(np.concatenate([kept, cls * n + pos]), kind="stable"), hi

    def edges_up_to(self, threshold: float) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
        """Edges {i, j}, i < j, of weight <= threshold, as arrays (i, j, weight).

        Costs about the number of edges kept plus the number of classes per
        rung read, not n(n-1)/2.
        """
        classes, (key_of, site_of, _) = _difference_classes(self.cfg), weights.site_keys(self.cfg)
        cls, pos, w = (np.concatenate(part) for part in zip(*self._rungs(threshold)))
        keep = w <= threshold
        cls, pos, fold = cls[keep], pos[keep], classes.fold[cls[keep]]
        # Site indices fit in int32, like the CSR indices built from them.
        u = (pos + pos // fold * fold).astype(np.int32)
        v = site_of.take(key_of.take(u) + classes.offset[cls])
        return np.minimum(u, v), np.maximum(u, v), w[keep]

    def dense_matrix(self) -> np.ndarray:
        """Full symmetric weight matrix (diagonal 0); n <= DIJKSTRA_CAP."""
        n = self.cfg.n
        if n > DIJKSTRA_CAP:
            raise ConfigError(f"dense edge matrix capped at n <= {DIJKSTRA_CAP}")
        i, j, w = self.edges_up_to(math.inf)
        mat = np.zeros((n, n), dtype=np.float64)
        mat[i, j] = w
        mat[j, i] = w
        return mat


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

    Keeps the edges of weight <= T of the sample, starting from T =
    THRESHOLD_SCALE * log(n) / R_n, the end of the ladder's first rung, with
    b the Dijkstra distances from ``source`` on them.  Until span * max b <= T,
    T is raised to span * max b (doubled while some b is infinite) and the
    edges are read again, up to the rung that holds T; the realization is the
    same at every T.  Returns (i, j, weight, b) with i < j.

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
    edges ``_certified_edges`` keeps with span 1; n <= DIJKSTRA_CAP.
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
