"""Exact finite-n laws of the exploration, the reference for its sampler.

The exploration from a source s is a continuous-time Markov chain on the
discovered sets D that hold s: D -> D + {z} at rate W_D(z), the sum of
norm(z - v)**-alpha over v in D.  On a tiny torus the chain is small enough
to solve exactly, and its passage-time laws are phase-type (Neuts 1981).  At
alpha = 0 every W_D(z) is |D|, so the chain lumps onto j = |D| with rate
j (n - j), and its laws are Janson's (1999) sums of exponentials.

``SizeLaw`` gives the law of |D_t| by uniformization.  With Lambda the
largest exit rate and P = I + Q / Lambda the uniformized step,
P(D_t = D) = sum_i Pois(i; Lambda t) (pi_0 P^i)(D), cut where the Poisson
tail is below ``TAIL`` at the horizon.  Then tau_k <= t iff |D_t| > k, and a
uniform target other than the source is found by t with probability
(E|D_t| - 1) / (n - 1).

``event_rates`` is the audit of a sampled record: the event rate before each
entry, recomputed from the record's site order alone, as the sampler itself
never computes it.
"""

from functools import lru_cache

import numpy as np
import scipy.stats
from scipy.sparse import csr_matrix, diags

from lrfpp import torus, weights

#: Poisson mass left out of the uniformized sum at the horizon.
TAIL = 1e-12


@lru_cache(maxsize=4)
def pair_weights(cfg):
    """n x n matrix of norm(y - z)**-alpha, 0 on the diagonal; read-only."""
    y, z = np.divmod(np.arange(cfg.n**2), cfg.n)
    diff = torus.pair_difference_index(y, z, cfg).reshape(cfg.n, cfg.n)
    w = weights._weight_table(cfg)[diff]
    w.setflags(write=False)
    return w


def event_rates(cfg, sites, sides=None):
    """The event rate before each entry of a record with flat indices ``sites``:
    NaN before the source, then cut(A) + cut(B) of the sets held, where cut(S)
    = |S| R_n - sum of norm(x - y)**-alpha over ordered pairs x != y in S.

    A one-sided record (``sides`` None) holds its first i entries before entry
    i.  A meeting record, whose last entry is its target, passes each entry's
    side, 1 or 2: before entry i it holds the source, the target and the i - 1
    newborns between them.  A site added to side s adds R_n - 2 W_s(z) to the
    rate, W_s(z) its attraction to the sites of side s held before it.
    """
    sites = np.asarray(sites)
    held, side, skip = sites, np.ones(len(sites)), 0
    if sides is not None:
        held, skip = np.r_[sites[0], sites[-1], sites[1:-1]], 1
        side = np.r_[sides[0], sides[-1], sides[1:-1]]
    w = pair_weights(cfg)[np.ix_(held, held)] * (side[:, None] == side)
    cut = np.cumsum(weights.total_rate(cfg) - 2.0 * np.tril(w, -1).sum(axis=1))
    return np.r_[np.nan, cut[skip : skip + len(sites) - 1]]


class SizeLaw:
    """Law of |D_t|, 0 <= t <= ``horizon``, of a birth chain that starts in state 0.

    ``jumps[a, b]`` is the rate from state a to state b, and ``size[a]`` the
    number of sites discovered in state a, at most n.
    """

    def __init__(self, jumps, size, n, horizon):
        out = np.asarray(jumps.sum(axis=1)).ravel()
        self.lam, self.n = float(out.max()), n
        step = (jumps.T + diags(self.lam - out)).tocsr() / self.lam  # P transposed
        steps = int(scipy.stats.poisson.isf(TAIL, self.lam * horizon)) + 1
        pi = np.zeros(len(size))
        pi[0] = 1.0
        self.layers = np.empty((steps, n + 1))
        for i in range(steps):
            self.layers[i] = np.bincount(size, weights=pi, minlength=n + 1)
            pi = step @ pi

    def sizes(self, t):
        """P(|D_t| = j), by t along the rows and j along the columns."""
        t = np.asarray(t, dtype=np.float64)
        pois = scipy.stats.poisson.pmf(np.arange(len(self.layers)), self.lam * t[:, None])
        return pois @ self.layers

    def tau_cdf(self, k):
        """The CDF of tau_k, the time of the k-th birth."""
        return lambda t: self.sizes(t)[:, k + 1:].sum(axis=1)

    def typical_cdf(self, t):
        """P(T <= t) for T the passage time to a uniform other site."""
        return (self.sizes(t) @ np.arange(self.n + 1) - 1.0) / (self.n - 1)


def set_chain(cfg, births, horizon):
    """``SizeLaw`` of the chain on discovered sets from site 0, stopped at
    ``births`` births; by translation invariance it is the law from any source.

    States are bit masks over the n sites; there are about 2**(n-1) of them
    for a full flooding, so n <= 16 or so.
    """
    n = cfg.n
    masks = np.arange(1, 1 << n, 2)
    bits = ((masks[:, None] >> np.arange(n)) & 1).astype(bool)
    size = bits.sum(axis=1)
    keep = np.argsort(size, kind="stable")  # the source alone first
    keep = keep[size[keep] <= births + 1]
    masks, bits, size = masks[keep], bits[keep], size[keep]
    index = np.full(1 << n, -1)
    index[masks] = np.arange(masks.size)
    rate = np.where(bits, 0.0, bits.astype(np.float64) @ pair_weights(cfg))
    rate[size > births] = 0.0
    a, z = np.nonzero(rate)
    jumps = csr_matrix((rate[a, z], (a, index[masks[a] | (1 << z)])), shape=(masks.size,) * 2)
    return SizeLaw(jumps, size, n, horizon)


def birth_chain(n, births, horizon):
    """``SizeLaw`` at alpha = 0: j -> j + 1 at rate j (n - j), up to ``births`` births."""
    j = np.arange(1, births + 1)
    jumps = csr_matrix((j * (n - j), (j - 1, j)), shape=(births + 1,) * 2)
    return SizeLaw(jumps, np.arange(1, births + 2), n, horizon)


def newborn_law(cfg, source, k):
    """P(the k-th newborn from ``source`` is z), by flat index z, summed over
    every ordered sequence of the first k - 1 newborns."""
    w = pair_weights(cfg)
    paths, prob = np.array([[source]]), np.ones(1)
    for _ in range(k):
        attraction = w[paths].sum(axis=1)
        np.put_along_axis(attraction, paths, 0.0, axis=1)
        step = prob[:, None] * attraction / attraction.sum(axis=1, keepdims=True)
        row, z = np.nonzero(step)
        paths, prob = np.column_stack([paths[row], z]), step[row, z]
    return np.bincount(paths[:, -1], weights=prob, minlength=cfg.n)
