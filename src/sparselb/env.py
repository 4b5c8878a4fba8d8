"""Single-controller environment over the queueing network.

One step covers one decision epoch: the controller observes a summary of
the queue fills, broadcasts a table of offload probabilities indexed by
own fill level, every scheduler applies its entry, the network runs for
delta_t time units, and the reward is the negative number of dropped
packets per scheduler.  The shared arrival phase is redrawn after every
epoch.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .kernel import expected_drops_table
from .policies import observations
from .simulator import DecisionProfile, Episode, SystemParams

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
        if horizon < 1:
            raise ValueError("horizon must be >= 1")
        if observation_mode not in ("global", "neighborhood", "ownstate"):
            raise ValueError(f"unknown observation_mode {observation_mode!r}")
        if reward_mode not in ("realized", "expected"):
            raise ValueError(f"unknown reward_mode {reward_mode!r}")
        self.horizon = int(horizon)
        self.observation_mode = observation_mode
        self.reward_mode = reward_mode

    # ---- observation ----

    @property
    def observation_dim(self) -> int:
        return self.params.buffer + 1

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
        """One epoch of one episode under the offload table ``zeta``; a bank
        advances through ``advance`` and ``reward`` instead."""
        if self.queues is None or self.bank:
            raise RuntimeError("call reset with one seed before step")
        if self.done:
            raise RuntimeError("episode finished; call reset")
        zeta = np.asarray(zeta, dtype=np.float64)
        if zeta.shape != (self.params.buffer + 1,):
            raise ValueError("action must hold one offload probability per fill level")
        if np.any(zeta < 0.0) or np.any(zeta > 1.0):
            warnings.warn("offload probabilities clamped into [0, 1]")
            zeta = np.clip(zeta, 0.0, 1.0)
        start = self.queues
        out = self.advance(DecisionProfile(offload=zeta[start]))
        return McTransition(self.reward(start, out), self.observation())

    def reward(self, start: np.ndarray, out) -> float | np.ndarray:
        """Minus the drops per scheduler of the epoch ``out`` run from the
        fills ``start``: realized, or their conditional expectation; a bank
        gets one per row."""
        if self.reward_mode == "realized":
            drops = out.drops.sum(axis=-1)
        elif self.bank:
            drops = np.array([self._expected_epoch_drops(r, q)
                              for r, q in zip(out.arrival_rates, start)])
        else:
            drops = self._expected_epoch_drops(out.arrival_rates, start)
        return -drops / self.topology.n_nodes

    def _expected_epoch_drops(self, rates: np.ndarray, start: np.ndarray) -> float:
        # variance-reduced reward: conditional expectation given the
        # epoch-start fills and the per-queue rates the epoch ran at, from
        # the per-queue transition kernel; one row of the drop table covers
        # every start state of a rate pair.  Complex keys sort by real part,
        # then imaginary part, so the 1-D unique gives the (rate, service
        # rate) pairs in row order.
        pairs, inv = np.unique(rates + 1j * self.service_rates, return_inverse=True)
        table = expected_drops_table(pairs.real, pairs.imag, self.params.buffer,
                                     self.delta_t)
        return float(table[inv, start].sum())
