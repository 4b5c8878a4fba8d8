"""Reference engine: the literal global race of competing exponential clocks.

Under a frozen profile, per-packet routing thins each scheduler's Poisson
stream into independent per-queue Poisson streams at the effective rates,
which is what ``sparselb.simulator.simulate_queue_bank`` samples.  This
engine does not use that fact: it runs one event at a time, picks the
arriving scheduler, routes the packet per the profile and serves queues
in proportion to their service rates.  It is slow and serves as the
fidelity oracle the bank engine and the exact kernel are tested against.
"""
from __future__ import annotations

import numpy as np

from sparselb import kernel as _kernel
from sparselb.simulator import DecisionProfile, checked_queues, init_queues
from sparselb.traffic import regime_init, regime_step


def gillespie_epoch(queues, profile: DecisionProfile, topology, base_rate: float,
                    service_rates, buffer: int, delta_t: float,
                    rng: np.random.Generator, holding_out: list | None = None):
    """One epoch of the race from ``queues``; returns (next_queues, drops,
    arrivals, services).  With ``holding_out`` every drawn waiting time is
    appended to it."""
    q, mu = checked_queues(queues, buffer, service_rates)
    n = q.size
    drops = np.zeros(n, dtype=np.int64)
    arrivals = np.zeros(n, dtype=np.int64)
    services = np.zeros(n, dtype=np.int64)
    if profile.offload is not None:
        # degree-0 schedulers have nowhere to forward
        off = np.where(topology.degrees > 0,
                       _kernel.checked_offload(profile.offload, topology.n_nodes), 0.0)
    lam_total = n * base_rate
    t = 0.0
    while True:
        svc_total = float(mu[q > 0].sum())
        total = lam_total + svc_total
        if total <= 0.0:
            break
        dt = rng.exponential(1.0 / total)
        if holding_out is not None:
            holding_out.append(dt)
        t += dt
        if t >= delta_t:
            break
        u = rng.random() * total
        if u < lam_total:
            i = int(rng.integers(n))
            if profile.targets is not None:
                j = int(profile.targets[i])
            elif off[i] > 0.0 and rng.random() < off[i]:
                nb = topology.neighbors[i]
                j = int(nb[int(rng.integers(len(nb)))])
            else:
                j = i
            arrivals[j] += 1
            if q[j] >= buffer:
                drops[j] += 1
            else:
                q[j] += 1
        else:
            busy = np.flatnonzero(q > 0)
            w = mu[busy]
            j = int(busy[np.searchsorted(np.cumsum(w), u - lam_total, side="right")])
            q[j] -= 1
            services[j] += 1
    return q, drops, arrivals, services


def reference_epochs(topology, params, delta_t: float, seed, rules):
    """Oracle epochs on the random stream of ``sparselb.simulator.Episode``:
    the start queues from ``init_queues``, then the arrival phase, then per
    rule one race epoch and the next phase.  Each rule maps the epoch-start
    queues to a DecisionProfile; yields (start_queues, epoch counts)."""
    rng = np.random.default_rng(seed)
    n = topology.n_nodes
    q = init_queues(params, n, rng)
    high = regime_init(rng)
    mu = params.service_rates(n)
    for rule in rules:
        rate = params.rate_high if high else params.rate_low
        out = gillespie_epoch(q, rule(q), topology, rate, mu, params.buffer,
                              delta_t, rng)
        yield q, out
        q = out[0]
        high = regime_step(high, params.p_high_to_low, params.p_low_to_high, rng)
