"""Two-state randomly switching arrival intensity.

All schedulers share one Poisson arrival intensity that sits in a high or a
low state.  The state is redrawn once per decision epoch from a two-state
Markov chain; packet-level arrivals inside an epoch are handled by the
event engine, which only needs the current rate.  The rates and switch
probabilities live in ``SystemParams``; the phase itself is one bool,
True for high.
"""
from __future__ import annotations

import numpy as np

__all__ = ["regime_init", "regime_step"]


def regime_init(rng: np.random.Generator) -> bool:
    """Draw the initial phase uniformly from {high, low}; True is high."""
    return rng.random() < 0.5


def regime_step(high: bool, p_high_to_low: float, p_low_to_high: float,
                rng: np.random.Generator) -> bool:
    """Advance the phase chain by one epoch; exactly one uniform is consumed."""
    u = rng.random()
    if high:
        return u >= p_high_to_low
    return u < p_low_to_high
