"""Per-queue transition kernels for one decision epoch.

With decision rules frozen for an epoch, each queue evolves as an
independent birth-death chain on {0, ..., B}: packets arrive at the queue's
effective rate and leave at its service rate.  This module builds the
generator of that chain, computes the exact epoch transition law through
the matrix exponential (scipy.linalg.expm), and computes the expected
number of dropped packets via an augmented absorbing counter state.  Both
tables are stacked: they take arrays of (arrival, service) rate pairs and
cover all of them with one exponential.

Conventions: generators are column-oriented, Q[i, j] is the rate from
state j to state i, so columns sum to zero and the epoch law is
exp(Q * dt) applied to a basis vector.
"""
from __future__ import annotations

import numpy as np
from scipy.linalg import expm

__all__ = [
    "effective_rates",
    "epoch_law_table",
    "expected_drops_table",
]


def checked_offload(offload, n_nodes: int) -> np.ndarray:
    """``offload`` as floats, one probability in [0, 1] per node (NaN fails)."""
    a = np.asarray(offload, dtype=np.float64)
    if a.shape != (n_nodes,):
        raise ValueError("offload must have one entry per node")
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError("offload probabilities must lie in [0, 1]")
    return a


def effective_rates(topology, offload, base_rate: float) -> np.ndarray:
    """Per-queue arrival rates induced by offload probabilities.

    Scheduler i keeps a packet with probability 1 - offload[i] and otherwise
    forwards it to a uniformly chosen neighbor, so queue i collects

        base_rate * (1 - offload[i] + sum_{j in N(i)} offload[j] / deg(j)).

    Nodes without neighbors cannot offload; their probability is treated as
    zero.  The neighbor inflow is accumulated with a balanced pairwise
    reduction over the padded neighbor matrix, which keeps the total exactly
    base_rate on regular graphs whenever every share is a dyadic multiple
    of the offload value (degrees 2, 3 and 4 in particular).
    """
    a = checked_offload(offload, topology.n_nodes)
    deg = topology.degrees
    a = np.where(deg > 0, a, 0.0)
    share = np.divide(a, deg, out=np.zeros_like(a), where=deg > 0)

    pad = topology.padded_neighbors
    if pad.shape[1] == 0:
        inflow = np.zeros(topology.n_nodes)
    else:
        cols = np.where(topology.padded_mask, share[np.where(pad >= 0, pad, 0)], 0.0)
        while cols.shape[1] > 1:
            if cols.shape[1] % 2:
                cols = np.concatenate([cols, np.zeros((cols.shape[0], 1))], axis=1)
            cols = cols[:, 0::2] + cols[:, 1::2]
        inflow = cols[:, 0]
    return base_rate * ((1.0 - a) + inflow)


def _augmented_generators(arrival_rates, service_rates, buffer: int,
                          epoch_length: float) -> np.ndarray:
    """Stacked augmented generators, shape (k, B+2, B+2), one per rate pair.

    The leading (B+1)x(B+1) block of each slice is the birth-death
    generator; the last row is an absorbing counter fed at the arrival
    rate from the full state, so its mass after one epoch is the expected
    drop count.  The epoch length is only validated here; callers scale
    by it.
    """
    lam = np.asarray(arrival_rates, dtype=np.float64).reshape(-1)
    mu = np.asarray(service_rates, dtype=np.float64).reshape(-1)
    if lam.shape != mu.shape:
        raise ValueError("arrival and service rates must pair up")
    if not (np.all(lam >= 0.0) and np.all(mu >= 0.0)):
        raise ValueError("rates must be nonnegative")
    if buffer < 1:
        raise ValueError("buffer must be >= 1")
    if not epoch_length > 0.0:
        raise ValueError("epoch_length must be positive")
    m = buffer + 1
    fill = np.arange(buffer)
    aug = np.zeros((lam.size, m + 1, m + 1))
    aug[:, fill + 1, fill] = lam[:, None]     # arrival while space remains
    aug[:, fill, fill + 1] = mu[:, None]      # service while nonempty
    diag = np.arange(m)
    aug[:, diag, diag] = -aug[:, :m, :m].sum(axis=1)
    aug[:, m, buffer] = lam                   # arrivals seen by a full queue
    return aug


def epoch_law_table(arrival_rates, service_rates, buffer: int,
                    epoch_length: float) -> np.ndarray:
    """Epoch transition laws, shape (k, B+1, B+1).

    Slice i is exp(Q_i * epoch_length) for the birth-death generator Q_i
    of the pair (arrival_rates[i], service_rates[i]); column s is the
    distribution of the queue length after one epoch from start state s.
    """
    aug = _augmented_generators(arrival_rates, service_rates, buffer, epoch_length)
    return expm(aug[:, :-1, :-1] * epoch_length)


def expected_drops_table(arrival_rates, service_rates, buffer: int,
                         epoch_length: float) -> np.ndarray:
    """Expected drops over one epoch, shape (k, B+1).

    Row i holds the expected drop count from every start state for the
    pair (arrival_rates[i], service_rates[i]); one stacked exponential
    covers all pairs.
    """
    aug = _augmented_generators(arrival_rates, service_rates, buffer, epoch_length)
    return expm(aug * epoch_length)[:, buffer + 1, :buffer + 1]

