"""Single-controller environment over the queueing network.

One step covers one decision epoch: the controller observes a summary of
the queue fills, broadcasts a table of offload probabilities indexed by
own fill level, every scheduler applies its entry, the network runs for
delta_t time units, and the reward is the negative number of dropped
packets per scheduler.  The shared arrival phase is redrawn after every
epoch.  ``act`` runs that epoch for one episode or for a bank of them;
``step`` is its checked one-episode form.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernel import expected_drops_table
from .nn import OBSERVATION_MODES
from .policies import observations
from .simulator import DecisionProfile, Episode, SystemParams, check_count

__all__ = ["McTransition", "LoadBalanceEnv"]


@dataclass(frozen=True)
class McTransition:
    reward: float
    next_observation: np.ndarray


class LoadBalanceEnv(Episode):
    """Finite-horizon epoch-level control of the load-balancing network."""

    def __init__(self, topology, params: SystemParams, delta_t: float,
                 horizon: int, observation_mode: str = "global",
                 reward_mode: str = "realized"):
        super().__init__(topology, params, delta_t)
        check_count("horizon", horizon)
        if observation_mode not in OBSERVATION_MODES:
            raise ValueError(f"unknown observation_mode {observation_mode!r}")
        if reward_mode not in ("realized", "expected"):
            raise ValueError(f"unknown reward_mode {reward_mode!r}")
        self.horizon = horizon
        self.observation_mode = observation_mode
        self.reward_mode = reward_mode

    # ---- observation ----

    def observation(self) -> np.ndarray:
        """The deployed policy's observation; scheduler 0's row outside
        global mode.  A bank of episodes gives one row per episode."""
        obs = observations(self.queues, self.topology, self.params.buffer,
                           self.observation_mode)
        if self.observation_mode != "global":
            obs = obs[..., 0, :]
        return obs

    @property
    def done(self) -> bool:
        return self.epoch >= self.horizon

    # ---- dynamics ----

    def reset(self, seed) -> np.ndarray:
        super().reset(seed)
        return self.observation()

    def step(self, zeta) -> McTransition:
        """One epoch of one episode under the offload table ``zeta``, checked
        and clamped into [0, 1]; a bank steps through ``act``."""
        if self.queues is None or self.bank:
            raise RuntimeError("call reset with one seed before step")
        if self.done:
            raise RuntimeError("episode finished; call reset")
        zeta = np.asarray(zeta, dtype=np.float64)
        if zeta.shape != (self.params.buffer + 1,):
            raise ValueError("action must hold one offload probability per fill level")
        if zeta.min() < 0.0 or zeta.max() > 1.0:
            warnings.warn("offload probabilities clamped into [0, 1]")
            zeta = np.clip(zeta, 0.0, 1.0)
        return McTransition(self.act(zeta), self.observation())

    def act(self, zeta) -> float | np.ndarray:
        """Run one epoch in which every scheduler offloads with the entry of
        ``zeta`` at its own start fill; a bank takes one (B+1,) table per
        row.  Returns minus the drops per scheduler, realized or their
        conditional expectation: a float, or one per row of a bank."""
        start = self.queues
        offload = zeta[start] if zeta.ndim == 1 else np.take_along_axis(zeta, start, axis=-1)
        out = self.advance(DecisionProfile(offload=offload))
        if self.reward_mode == "realized":
            drops = out.drops.sum(axis=-1)
        else:
            # the expectation given the start fills and the rates the epoch
            # ran at: a table row covers every start fill of one (arrival,
            # service) pair and does not depend on the other rows, so a bank
            # shares one table.  Complex keys sort by real, then imaginary
            # part, so the unique pairs come in row order.
            pairs, inv = np.unique(out.arrival_rates + 1j * self.service_rates,
                                   return_inverse=True)
            table = expected_drops_table(pairs.real, pairs.imag, self.params.buffer,
                                         self.delta_t)
            drops = table[inv.reshape(start.shape), start].sum(axis=-1)
        return -drops / self.topology.n_nodes
