"""Exact event-level simulation of the queueing network.

One decision epoch freezes the routing behavior of every scheduler; the
network then runs as a continuous-time Markov chain over [0, delta_t):
packets arrive at each scheduler at the shared modulated rate, are routed
per the frozen rule, and each nonempty queue serves at its service rate.
Arrivals to a full queue are dropped and attributed to that queue.

Every queue is advanced as an independent birth-death chain: per-packet
routing thins each scheduler's Poisson stream into independent per-queue
Poisson streams at the effective rates.  The walk is vectorized across
queues and takes 8 ticks per step: the 8 bytes of one random 64-bit word
decide each queue's next 8 ticks (arrival or service attempt), and their
outcome is looked up in a table built once per buffer (this is what makes
systems of several thousand queues cheap).  The literal race
of competing exponential clocks with per-packet routing samples the same
law one event at a time; it is kept beside the tests as their oracle.
"""
from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from . import kernel as _kernel
from .traffic import regime_init, regime_step

__all__ = [
    "SystemParams",
    "DecisionProfile",
    "EpochOutcome",
    "EpisodeResult",
    "empirical_distribution",
    "simulate_queue_bank",
    "run_epoch",
    "Episode",
    "run_episode",
]


@dataclass(frozen=True)
class SystemParams:
    """Physical parameters shared by simulator, environment and harness."""

    buffer: int = 5
    service_rate: float | tuple = 1.0
    rate_high: float = 0.9
    rate_low: float = 0.6
    p_high_to_low: float = 0.2
    p_low_to_high: float = 0.5
    start_distribution: tuple | None = None

    def __post_init__(self) -> None:
        if not isinstance(self.buffer, (int, np.integer)) or self.buffer < 1:
            raise ValueError(f"buffer must be an integer >= 1, not {self.buffer!r}")
        if not (0.0 <= self.rate_low <= self.rate_high):
            raise ValueError("need 0 <= rate_low <= rate_high")
        for p in (self.p_high_to_low, self.p_low_to_high):
            if not (0.0 <= p <= 1.0):
                raise ValueError("switch probabilities must lie in [0, 1]")
        if self.start_distribution is not None:
            nu = np.asarray(self.start_distribution, dtype=np.float64)
            if nu.shape != (self.buffer + 1,) or np.any(nu < 0) or abs(nu.sum() - 1.0) > 1e-9:
                raise ValueError("start_distribution must be a distribution over {0..buffer}")

    def service_rates(self, n: int) -> np.ndarray:
        rates = np.asarray(self.service_rate, dtype=np.float64)
        if rates.ndim == 0:
            rates = np.full(n, float(rates))
        if rates.shape != (n,):
            raise ValueError("service_rate must be a scalar or one value per queue")
        if np.any(rates < 0):
            raise ValueError("service rates must be nonnegative")
        return rates


@dataclass(frozen=True)
class DecisionProfile:
    """Frozen per-epoch routing for all schedulers.

    Exactly one of the two fields is set: ``offload`` gives each
    scheduler's probability of forwarding an arriving packet to a
    uniformly chosen neighbor (keep otherwise), ``targets`` routes every
    packet of scheduler i deterministically to queue targets[i].
    """

    offload: np.ndarray | None = None
    targets: np.ndarray | None = None

    def __post_init__(self) -> None:
        if (self.offload is None) == (self.targets is None):
            raise ValueError("profile needs exactly one of offload / targets")


@dataclass(frozen=True)
class EpochOutcome:
    next_queues: np.ndarray
    drops: np.ndarray
    arrivals: np.ndarray
    services: np.ndarray
    arrival_rates: np.ndarray      # per-queue Poisson rates the epoch ran at


@dataclass
class EpisodeResult:
    """Per-epoch system totals of one episode of T epochs."""

    drop_counts: np.ndarray        # (T,) packets dropped
    arrivals: np.ndarray           # (T,) packets arrived, dropped ones included
    services: np.ndarray           # (T,) packets served
    rates: np.ndarray              # (T,) shared arrival rate during each epoch
    distributions: np.ndarray      # (T+1, buffer+1) empirical queue distribution
    total_drops: float             # sum of drop_counts / n (episode objective)


def empirical_distribution(queues, buffer: int) -> np.ndarray:
    """Fraction of queues at each fill level 0..buffer."""
    q, = checked_queues(queues, buffer)
    if q.ndim != 1 or q.size == 0:
        raise ValueError("need a vector of at least one queue")
    return np.bincount(q, minlength=buffer + 1) / q.size


def profile_rates(profile: DecisionProfile, topology, base_rate: float) -> np.ndarray:
    """Per-queue Poisson arrival rates induced by a frozen profile."""
    if profile.targets is not None:
        counts = np.bincount(np.asarray(profile.targets, dtype=np.int64),
                             minlength=topology.n_nodes)
        return base_rate * counts.astype(np.float64)
    return _kernel.effective_rates(topology, profile.offload, base_rate)


def checked_queues(queues, buffer: int | None, *rates) -> tuple:
    """Start fills as a fresh int64 vector in {0..buffer} (any nonnegative
    fill when ``buffer`` is None), or an (E, n) bank of such rows, then
    ``rates`` as float arrays of the same shape; anything else raises
    ValueError."""
    q = np.asarray(queues)
    ok = q.ndim in (1, 2) and q.dtype.kind in "iu"
    if ok:
        q = q.astype(np.int64)
        # read as unsigned, a negative fill lies above any buffer, so one
        # reduction checks both bounds (this runs every epoch and observation)
        top = np.iinfo(np.int64).max if buffer is None else buffer
        ok = q.size == 0 or q.view(np.uint64).max() <= top
    if not ok:
        bound = "" if buffer is None else f" in {{0..{buffer}}}"
        raise ValueError(f"queues must be a vector or an (E, n) bank of nonnegative "
                         f"integer fills{bound}")
    rates = tuple(np.asarray(r, dtype=np.float64) for r in rates)
    if any(r.shape != q.shape for r in rates):
        raise ValueError(f"need one rate per queue {q.shape}")
    return (q, *rates)


# ---- independent per-queue birth-death bank ----


# Ticks per table lookup: byte r of one random 64-bit word decides tick r
# of a walk step, and the WALK arrival bits pack into one byte.
WALK = 8
_ROW = WALK << 8                                      # entries per fill class


def _fill_class(z, buffer: int):
    """What WALK ticks can tell apart of a fill: its distance to either
    boundary, capped at WALK.  Fills in [WALK, buffer - WALK] share class 0;
    the others are fill - WALK (< 0) or fill - buffer + WALK (> 0).  Below
    buffer 2 * WALK no fill is WALK from both boundaries and the class is
    fill + WALK - buffer.  Either way it lies in -WALK..WALK."""
    return z - np.clip(z, WALK, buffer - WALK)


def _walk_key(fill_class, live, pattern):
    """Table index of ``live`` (1..WALK) ticks with arrival bits ``pattern``
    from a fill of class ``fill_class``.  It is signed: negative classes and
    short walks index from the end of the table, as numpy does, and all
    (2 * WALK + 1) * _ROW keys are distinct modulo the table length."""
    return fill_class * _ROW + ((live - WALK) << 8) + pattern


@functools.lru_cache(maxsize=8)
def _walk_table(buffer: int):
    """The outcome of every WALK-tick walk at ``buffer``: int8 change of
    fill, int64 drops + (idle service attempts << 32), and the key offset
    ``base[fill]`` of each fill 0..buffer.  Bit r of the pattern is an
    arrival at tick r, else a service attempt."""
    # every fill within WALK of a boundary, once each: they cover every class
    z0 = np.r_[0:min(buffer, WALK) + 1, max(buffer - WALK, WALK + 1):buffer + 1]
    room = np.minimum(buffer - z0, WALK).astype(np.int8)[:, None, None]
    depth = np.minimum(z0, WALK).astype(np.int8)[:, None, None]
    live = np.arange(1, WALK + 1)[:, None]
    pattern = np.arange(256)
    d, drops, idle = np.zeros((3, z0.size, WALK, 256), dtype=np.int8)
    for r in range(WALK):
        up = (r < live) & (pattern >> r & 1).astype(bool)
        down = (r < live) & ~up
        full, empty = d == room, d == -depth
        drops += up & full
        idle += down & empty
        d += (up & ~full).view(np.int8) - (down & ~empty).view(np.int8)
    key = _walk_key(_fill_class(z0, buffer)[:, None, None], live, pattern)
    dfill = np.zeros((2 * WALK + 1) * _ROW, dtype=np.int8)
    tally = np.zeros_like(dfill, dtype=np.int64)
    dfill[key] = d
    tally[key] = drops + (idle.astype(np.int64) << 32)
    base = _walk_key(_fill_class(np.arange(buffer + 1), buffer), WALK, 0)
    for a in (dfill, tally, base):
        a.flags.writeable = False                          # shared by every call
    return dfill, tally, base


def _word_source(rng):
    """The bit generator of ``rng``: it must be a numpy Generator whose raw
    output is a whole 64-bit word, else ValueError."""
    if not isinstance(rng, np.random.Generator):
        raise ValueError(f"need a numpy.random.Generator, not {type(rng).__name__}")
    bits = rng.bit_generator
    # named here, not at import: importing numpy.random costs set-up time
    if not isinstance(bits, (np.random.PCG64, np.random.PCG64DXSM, np.random.Philox,
                             np.random.SFC64)):
        raise ValueError(f"{type(bits).__name__} gives raw words narrower than the 64 "
                         "random bits of a walk step; use PCG64, PCG64DXSM, Philox "
                         "or SFC64")
    return bits


def _bank_words(row, rank, bits):
    """One walk step's words of a bank, in walk order.  ``row`` and ``rank``
    give each live queue its row and its place in that row's walk order;
    row e draws one word per live queue from bits[e], as a one-row call
    would, and each queue takes the word of its rank."""
    k = np.bincount(row, minlength=len(bits))
    words = np.concatenate([b.random_raw(c) for b, c in zip(bits, k.tolist()) if c])
    return words.take((np.cumsum(k) - k)[row] + rank)


def _bank_ties(at, row, gens):
    """The tie bytes ``at`` of a bank step put in draw order (row by row,
    each in its walk order) and their uniforms, one draw per row."""
    r = row.take(at // WALK)
    at = at[np.argsort(r, kind="stable")]
    k = np.bincount(r, minlength=len(gens)).tolist()
    return at, np.concatenate([g.random(c) for g, c in zip(gens, k) if c])


def simulate_queue_bank(queues, arrival_rates, service_rates, buffer: int,
                        delta_t: float, rng):
    """Advance independent bounded queues over one epoch; exact sampling.

    Uses one uniformized clock per queue at rate arrival + service: each
    tick is an arrival with the arrival fraction p (dropped when the queue
    is full) and otherwise a service attempt (a no-op on an empty queue).
    Ticks are Poisson, so arrivals per queue are Poisson at the arrival
    rate.  The queues are walked in the order of descending tick count
    (ties in input order), WALK ticks a step.  The random stream is the
    tick counts, then for each step s = 0, WALK, 2 * WALK, ... one raw
    64-bit word from the bit generator for each of the m queues with more
    than s ticks, in walk order, then one uniform for each tie among those
    words' bytes.  Byte r of a queue's word (bits 8r to 8r + 7) decides
    its tick s + r against t = min(floor(256 p), 255): below t is an
    arrival, above it a service attempt, and a tie is an arrival iff its
    uniform u < 256 p - t.  So P(arrival) is p rounded up to a multiple of
    2**-61.  Ties draw in walk order, byte by byte within a queue; bytes
    past a queue's last tick are drawn and ignored, ties among them too.
    The step's arrival bits pack into one byte per queue, and the step
    looks the change of fill, the drops and the idle service attempts up
    in the buffer's walk table by (boundary class of the fill, live ticks,
    arrival bits).  Arrivals and services follow from arrivals + services
    + idle = ticks and arrivals - drops - services = change of fill.
    ``rng`` must be a numpy Generator on a 64-bit bit generator (PCG64,
    PCG64DXSM, Philox or SFC64), and every rate nonnegative, else
    ValueError.

    A bank of E episodes passes (E, n) fills and rates and a sequence of
    E generators, and gets (E, n) results: row e draws from rng[e]
    exactly what a one-row call with rng[e] draws, its tick counts and
    then, each step, its own words and its own ties.  All E * n queues
    share one walk in the order of descending tick count (ties in
    row-major order), so each row's walk order is a subsequence of it and
    the live queues are still a prefix.

    Returns (next_queues, drops, arrivals, services).
    """
    q, lam, mu = checked_queues(queues, buffer, arrival_rates, service_rates)
    if q.size and np.minimum(lam, mu).min() < 0:
        raise ValueError("arrival and service rates must be nonnegative")
    shape = q.shape
    bank = q.ndim == 2
    total = lam + mu
    if bank:
        try:
            gens = list(rng)
        except TypeError:
            raise ValueError("an (E, n) bank needs a sequence of E generators, "
                             "one per row") from None
        if len(gens) != shape[0]:
            raise ValueError(f"need one generator per row ({shape[0]}), not {len(gens)}")
        bits = [_word_source(g) for g in gens]
        counts = np.concatenate([g.poisson(x) for g, x in zip(gens, total * delta_t)])
        q, lam, total = q.ravel(), lam.ravel(), total.ravel()
    else:
        bits = _word_source(rng)
        counts = rng.poisson(total * delta_t)
    n = q.size
    kmax = int(counts.max()) if n else 0
    if kmax == 0:
        return tuple(x.reshape(shape) for x in (q, *np.zeros((3, n), dtype=np.int64)))
    # descending tick counts; a stable sort of small unsigned keys is a radix sort
    order = np.argsort((kmax - counts).astype(np.min_scalar_type(kmax)), kind="stable")
    ticks = counts.take(order)
    live = np.searchsorted(-ticks, -np.arange(kmax + WALK - 1)).tolist()  # ticks > s
    # byte thresholds in walk order, WALK copies a queue: 256 p is exact
    o = order[:live[0]]
    p = lam.take(o) / total.take(o) * 256
    t = np.minimum(p, 255).astype(np.uint8)
    frac = p - t
    t = np.repeat(t, WALK)
    # a queue's last step walks WALK - short ticks
    short = (-ticks & (WALK - 1)) << 8
    dfill, tally, base = _walk_table(buffer)
    z = q.take(order)
    acc = np.zeros(n, dtype=np.int64)                      # drops + (idle << 32)
    arrive, tie = np.empty((2, WALK * live[0]), dtype=bool)
    if bank:
        row = order // shape[1]                            # row of each walk place
        rank = np.empty_like(row)                          # place in its row's walk
        rank[np.argsort(row, kind="stable")] = np.arange(n) % shape[1]
    for s in range(0, kmax, WALK):
        m, m_full = live[s], live[s + WALK - 1]            # queues with 1+ / WALK ticks left
        words = _bank_words(row[:m], rank[:m], bits) if bank else bits.random_raw(m)
        byte = words.view(np.uint8)                        # little-endian: byte r is bits 8r..
        a, th = arrive[:WALK * m], t[:WALK * m]
        np.less(byte, th, out=a)
        at = np.equal(byte, th, out=tie[:WALK * m]).nonzero()[0]
        if at.size:
            at, u = _bank_ties(at, row, gens) if bank else (at, rng.random(at.size))
            a[at] = u < frac.take(at // WALK)
        key = base.take(z[:m])
        key += np.packbits(a, bitorder="little")           # bit r is tick s + r
        key[m_full:] -= short[m_full:m]
        z[:m] += dfill.take(key)
        acc[:m] += tally.take(key)
    nq, tallies = np.empty((2, n), dtype=np.int64)         # back in input order
    nq[order], tallies[order] = z, acc
    drops = tallies & 0xFFFFFFFF                           # tick counts stay below 2**32
    active = counts - (tallies >> 32)                      # arrivals + services
    arrivals = (active + nq - q + drops) >> 1
    result = nq, drops, arrivals, active - arrivals
    return tuple(x.reshape(shape) for x in result) if bank else result


def run_epoch(queues, profile, topology, base_rate: float, service_rates,
              buffer: int, delta_t: float, rng: np.random.Generator) -> EpochOutcome:
    """Advance the whole network by one epoch under a frozen profile; a bank
    of E networks takes (E, n) queues and offloads, E base rates and E
    generators, as ``simulate_queue_bank`` does."""
    if delta_t <= 0.0:
        raise ValueError("delta_t must be positive")
    if profile.targets is not None:
        t, n = np.asarray(profile.targets), topology.n_nodes
        if t.shape != (n,) or not np.issubdtype(t.dtype, np.integer) \
                or t.min() < 0 or t.max() >= n:
            raise ValueError(f"targets must be {n} integer queue indices in [0, {n})")
    lam = profile_rates(profile, topology, base_rate)
    counts = simulate_queue_bank(queues, lam, service_rates, buffer, delta_t, rng)
    return EpochOutcome(*counts, lam)


# ---- episodes ----


def init_queues(params: SystemParams, n: int, rng: np.random.Generator) -> np.ndarray:
    """All queues empty unless a start distribution is configured."""
    if params.start_distribution is None:
        return np.zeros(n, dtype=np.int64)
    nu = np.asarray(params.start_distribution, dtype=np.float64)
    return rng.choice(params.buffer + 1, size=n, p=nu).astype(np.int64)


class Episode:
    """The state and random stream of one episode, advanced epoch by epoch.

    ``reset`` draws the start queues and then the initial arrival phase;
    ``advance`` runs one epoch under a frozen profile and then redraws the
    phase.  The phase is ``high`` (True for the high rate) and ``rate``
    reads the matching rate from ``params``.  ``run_episode`` and the
    control environment both step this class, so one seed gives one
    trajectory whichever of them drives it.  Reset with a list of seeds,
    it is a bank of episodes stepped together, one row and one generator
    each, and row e follows the trajectory of seed e.
    """

    def __init__(self, topology, params: SystemParams, delta_t: float):
        if delta_t <= 0:
            raise ValueError("delta_t must be positive")
        self.topology = topology
        self.params = params
        self.delta_t = float(delta_t)
        self.service_rates = params.service_rates(topology.n_nodes)
        self.rng = None
        self.queues = None
        self.high = None
        self.epoch = 0

    @property
    def bank(self) -> bool:
        """Whether this is a bank of episodes, one row each."""
        return isinstance(self.rng, list)

    @property
    def rate(self):
        """The shared arrival rate of the current phase; one per row of a bank."""
        p = self.params
        if self.bank:
            return np.where(self.high, p.rate_high, p.rate_low)
        return p.rate_high if self.high else p.rate_low

    def reset(self, seed) -> None:
        """Start a new episode from an int seed or a Generator, or a bank of
        E episodes from a list of them: queues (E, n), phases (E,) and a
        list of E generators."""
        n = self.topology.n_nodes
        if isinstance(seed, list):
            self.rng = [np.random.default_rng(s) for s in seed]
            self.queues = np.stack([init_queues(self.params, n, g) for g in self.rng])
            self.high = np.array([regime_init(g) for g in self.rng])
        else:
            self.rng = np.random.default_rng(seed)     # a Generator comes back as itself
            self.queues = init_queues(self.params, n, self.rng)
            self.high = regime_init(self.rng)
        self.epoch = 0

    def advance(self, profile) -> EpochOutcome:
        """Run one epoch under ``profile``, then redraw the arrival phase;
        a bank takes an (E, n) offload and redraws each row's phase."""
        p = self.params
        rates = self.service_rates
        if self.bank:
            rates = np.broadcast_to(rates, self.queues.shape)
        out = run_epoch(self.queues, profile, self.topology, self.rate,
                        rates, p.buffer, self.delta_t, self.rng)
        self.queues = out.next_queues
        if self.bank:
            self.high = np.array([regime_step(h, p.p_high_to_low, p.p_low_to_high, g)
                                  for h, g in zip(self.high, self.rng)])
        else:
            self.high = regime_step(self.high, p.p_high_to_low, p.p_low_to_high, self.rng)
        self.epoch += 1
        return out


def run_episode(topology, policy, horizon: int, delta_t: float,
                params: SystemParams, seed) -> EpisodeResult:
    """Run one episode of ``horizon`` epochs under a fixed policy.

    ``policy`` supplies a frozen DecisionProfile from the queue snapshot at
    the start of every epoch.  A table policy must match ``params.buffer``.
    """
    held = getattr(policy, "buffer", params.buffer)
    if held != params.buffer:
        raise ValueError(f"policy is built for buffer {held}, the system has "
                         f"buffer {params.buffer}")
    ep = Episode(topology, params, delta_t)
    ep.reset(seed)
    b = params.buffer
    counts = np.zeros((3, horizon), dtype=np.int64)    # drops, arrivals, services
    rates = np.zeros(horizon)
    dists = np.zeros((horizon + 1, b + 1))
    for t in range(horizon):
        dists[t] = empirical_distribution(ep.queues, b)
        rates[t] = ep.rate
        out = ep.advance(policy.profile(ep.queues, topology, ep.service_rates))
        counts[:, t] = out.drops.sum(), out.arrivals.sum(), out.services.sum()
    dists[horizon] = empirical_distribution(ep.queues, b)
    drops, arrivals, services = counts
    return EpisodeResult(drops, arrivals, services, rates, dists,
                         total_drops=float((drops / topology.n_nodes).sum()))
