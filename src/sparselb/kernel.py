"""Per-queue transition kernels for one decision epoch.

With decision rules frozen for an epoch, each queue evolves as an
independent birth-death chain on {0, ..., B}: packets arrive at the queue's
effective rate and leave at its service rate.  This module builds the
generator of that chain, computes the exact epoch transition law through
the matrix exponential, and computes the expected number of dropped
packets via an augmented absorbing counter state.  Both tables are
stacked: they take arrays of (arrival, service) rate pairs and cover all
of them with one call of ``_expm_nonneg``, a batched exponential that
works on the whole stack at once in nonnegative arithmetic.  It
evaluates a degree-18 Taylor polynomial of the scaled, shifted generator
by Paterson-Stockmeyer (X^2, X^3 and X^4 formed, 7 matrix products per
stack), with a truncation error below 8.7e-18 of the result's norm, and
then squares.

Conventions: generators are column-oriented, Q[i, j] is the rate from
state j to state i, so columns sum to zero and the epoch law is
exp(Q * dt) applied to a basis vector.
"""
from __future__ import annotations

import math

import numpy as np

__all__ = [
    "effective_rates",
    "epoch_law_table",
    "expected_drops_table",
]


def checked_offload(offload, n_nodes: int) -> np.ndarray:
    """``offload`` as floats, one probability in [0, 1] per node (NaN fails);
    an (E, n) bank holds one such row per episode."""
    a = np.asarray(offload, dtype=np.float64)
    if a.ndim not in (1, 2) or a.shape[-1] != n_nodes:
        raise ValueError("offload must have one entry per node")
    if not np.all((a >= 0.0) & (a <= 1.0)):
        raise ValueError("offload probabilities must lie in [0, 1]")
    return a


def effective_rates(topology, offload, base_rate) -> np.ndarray:
    """Per-queue arrival rates induced by offload probabilities.

    Scheduler i keeps a packet with probability 1 - offload[i] and otherwise
    forwards it to a uniformly chosen neighbor, so queue i collects

        base_rate * (1 - offload[i] + sum_{j in N(i)} offload[j] / deg(j)).

    Nodes without neighbors cannot offload; their probability is treated as
    zero.  The neighbor inflow is accumulated with a balanced pairwise
    reduction over the padded neighbor matrix, which keeps the total exactly
    base_rate on regular graphs whenever every share is a dyadic multiple
    of the offload value (degrees 2, 3 and 4 in particular).  An (E, n)
    bank of offloads takes one base rate per row and gives (E, n) rates,
    each row equal to its one-row call.
    """
    a = checked_offload(offload, topology.n_nodes)
    if a.ndim == 2:
        base_rate = np.asarray(base_rate, dtype=np.float64)
        if base_rate.shape != a.shape[:1]:
            raise ValueError(f"an offload bank of {a.shape[0]} rows needs one base rate "
                             "per row")
        base_rate = base_rate[:, None]
    deg = topology.degrees
    a = np.where(deg > 0, a, 0.0)
    share = np.divide(a, deg, out=np.zeros_like(a), where=deg > 0)

    pad = topology.padded_neighbors
    if pad.shape[1] == 0:
        inflow = np.zeros_like(a)
    else:
        # padded cells read the last share and are zeroed by the mask
        cols = np.where(topology.padded_mask, share.take(pad, axis=-1), 0.0)
        while cols.shape[-1] > 1:
            if cols.shape[-1] % 2:
                cols = np.concatenate([cols, np.zeros(cols.shape[:-1] + (1,))], axis=-1)
            cols = cols[..., 0::2] + cols[..., 1::2]
        inflow = cols[..., 0]
    return base_rate * ((1.0 - a) + inflow)


def _augmented_generators(arrival_rates, service_rates, buffer: int,
                          epoch_length: float) -> np.ndarray:
    """Stacked augmented generators, shape (k, B+2, B+2), one per rate pair.

    The leading (B+1)x(B+1) block of each slice is the birth-death
    generator; the last row is an absorbing counter fed at the arrival
    rate from the full state, so its mass after one epoch is the expected
    drop count.  The epoch length is only validated here; callers scale
    by it.  Rates, the epoch length and their products must be finite.
    """
    lam = np.asarray(arrival_rates, dtype=np.float64).reshape(-1)
    mu = np.asarray(service_rates, dtype=np.float64).reshape(-1)
    if lam.shape != mu.shape:
        raise ValueError("arrival and service rates must pair up")
    if not (np.all(lam >= 0.0) and np.all(mu >= 0.0)):
        raise ValueError("rates must be nonnegative")
    if buffer < 1:
        raise ValueError("buffer must be >= 1")
    if not (epoch_length > 0.0 and math.isfinite(epoch_length)):
        raise ValueError("epoch_length must be positive and finite")
    # twice the largest scaled rate bounds every column sum _expm_nonneg
    # takes the logarithm of, so that sum must stay finite
    with np.errstate(over="ignore"):
        bound = 2.0 * (lam + mu) * epoch_length
    if not np.all(np.isfinite(bound)):
        raise ValueError("rates times epoch_length must be finite")
    m = buffer + 1
    fill = np.arange(buffer)
    aug = np.zeros((lam.size, m + 1, m + 1))
    aug[:, fill + 1, fill] = lam[:, None]     # arrival while space remains
    aug[:, fill, fill + 1] = mu[:, None]      # service while nonempty
    diag = np.arange(m)
    aug[:, diag, diag] = -aug[:, :m, :m].sum(axis=1)
    aug[:, m, buffer] = lam                   # arrivals seen by a full queue
    return aug


# Taylor degree of _expm_nonneg, and 1/k! for k = 0..degree; see its
# docstring for the truncation bound.
_TAYLOR_DEGREE = 18
_TAYLOR_COEFFS = tuple(1.0 / math.factorial(k) for k in range(_TAYLOR_DEGREE + 1))
# Paterson-Stockmeyer block size: X, X^2 and X^3 form the blocks, Y = X^4
# runs Horner over them.
_PS_BLOCK = 4


def _expm_nonneg(a: np.ndarray) -> np.ndarray:
    """exp of every slice of a (k, m, m) stack with nonnegative off-diagonals.

    Each slice i is shifted to N_i = A_i + c_i I with c_i = max(-diag A_i),
    so N_i >= 0 entrywise, and scaled to X_i = N_i / 2^s_i with
    s_i = ceil(log2 ||N_i||_1), floored at ceil(log2(m - 1)); so
    ||X_i||_1 <= 1.  The degree-18 Taylor polynomial of exp(X_i) then
    misses sum_{k >= 19} X_i^k / k!, whose 1-norm is at most
    sum_{k >= 19} 1/k! < 8.7e-18: relative to ||exp(X_i)||_1 >= 1, below
    the float64 rounding unit 2^-53.  The floor makes 2^s_i at least the
    longest path between two states (m - 1 steps), so each of the 2^s_i
    factors of the result carries about one step of it; without it, an
    entry more than 18 states away from its column's state would come out
    0 at small norms.

    The polynomial is evaluated by Paterson-Stockmeyer: X^2, X^3 and
    Y = X^4 are formed, the five blocks C_j = sum_{i<4} X^i / (4j + i)!
    (C_4 stops at X^2) are summed elementwise, and Horner runs in Y,
    C_0 + Y (C_1 + Y (C_2 + Y (C_3 + Y C_4))): 7 matrix products per
    stack instead of 18.  The result is multiplied by exp(-c_i / 2^s_i)
    and squared s_i times: the whole stack is squared unmasked while every
    slice still needs it, and from min s on np.copyto keeps the slices
    that are done.

    All the work happens with ``out=`` in one (6, k, m, m) workspace, and
    the result is a view into it.  All arithmetic is on nonnegative
    numbers, so entries come out >= 0, and slice i never depends on the
    other slices or on the size of the stack.  Entries must be finite.
    """
    k, m = a.shape[:2]
    diag = np.arange(m)
    work = np.empty((_PS_BLOCK + 2, k, m, m))
    powers, p, t = work[:_PS_BLOCK], work[_PS_BLOCK], work[_PS_BLOCK + 1]
    x, y = powers[0], powers[-1]
    np.copyto(x, a)
    shift = -x[:, diag, diag].min(axis=1)
    x[:, diag, diag] += shift[:, None]
    mantissa, exponent = np.frexp(x.sum(axis=1).max(axis=1))
    s = np.maximum(exponent - (mantissa == 0.5), math.ceil(math.log2(m - 1)))
    np.ldexp(x, -s[:, None, None], out=x)
    for i in range(1, _PS_BLOCK):
        np.matmul(powers[i - 1], x, out=powers[i])
    # Horner in Y from the highest block down; p starts at zero, and t
    # takes each scaled power before it is added
    top = _TAYLOR_DEGREE - _TAYLOR_DEGREE % _PS_BLOCK
    p.fill(0.0)
    for first in range(top, -1, -_PS_BLOCK):
        if first < top:
            np.matmul(y, p, out=t)
            p, t = t, p
        for i in range(min(_PS_BLOCK, _TAYLOR_DEGREE + 1 - first) - 1, 0, -1):
            np.multiply(powers[i - 1], _TAYLOR_COEFFS[first + i], out=t)
            p += t
        p[:, diag, diag] += _TAYLOR_COEFFS[first]
    p *= np.exp(-np.ldexp(shift, -s))[:, None, None]
    hi = int(s.max(initial=0))
    lo = int(s.min(initial=hi))
    for r in range(hi):
        np.matmul(p, p, out=t)
        if r >= lo:
            np.copyto(t, p, where=(s <= r)[:, None, None])
        p, t = t, p
    return p


def epoch_law_table(arrival_rates, service_rates, buffer: int,
                    epoch_length: float) -> np.ndarray:
    """Epoch transition laws, shape (k, B+1, B+1).

    Slice i is exp(Q_i * epoch_length) for the birth-death generator Q_i
    of the pair (arrival_rates[i], service_rates[i]); column s is the
    distribution of the queue length after one epoch from start state s.
    """
    aug = _augmented_generators(arrival_rates, service_rates, buffer, epoch_length)
    return _expm_nonneg(aug[:, :-1, :-1] * epoch_length).copy()


def expected_drops_table(arrival_rates, service_rates, buffer: int,
                         epoch_length: float) -> np.ndarray:
    """Expected drops over one epoch, shape (k, B+1).

    Row i holds the expected drop count from every start state for the
    pair (arrival_rates[i], service_rates[i]); one stacked exponential
    covers all pairs.
    """
    aug = _augmented_generators(arrival_rates, service_rates, buffer, epoch_length)
    return _expm_nonneg(aug * epoch_length)[:, buffer + 1, :buffer + 1].copy()

