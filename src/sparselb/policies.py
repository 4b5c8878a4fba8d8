"""Routing policies: how a scheduler disposes of arriving packets.

Every policy turns the queue snapshot taken at the start of an epoch into
a frozen DecisionProfile for the engine.  Baselines:

* jsq  - send everything to the shortest accessible queue (own included);
  ties prefer the scheduler's own queue, then the lowest node index.
* sed  - shortest expected delay, argmin (fill + 1) / service_rate over
  the accessible set, same tie-breaking; equals jsq when rates are equal.
* rnd  - route each packet uniformly over the accessible set (own
  included), i.e. forward with probability degree / (degree + 1).
* own  - keep everything.

The learned family maps an observation to a vector of offload
probabilities indexed by the scheduler's own fill level; each scheduler
then applies the entry matching its own queue.
"""
from __future__ import annotations

import numpy as np

from .nn import PolicyParameters, load_policy_parameters, policy_zeta
from .simulator import DecisionProfile, checked_queues, empirical_distribution

__all__ = [
    "JsqPolicy",
    "RndPolicy",
    "OwnPolicy",
    "SedPolicy",
    "StaticZetaPolicy",
    "MfrPolicy",
    "observations",
    "threshold_zeta",
    "make_policy",
    "policy_key",
]


def _node_fills(queues, topology, buffer: int | None, *rates) -> tuple:
    """``checked_queues`` with one fill per node of ``topology``."""
    q, *rates = checked_queues(queues, buffer, *rates)
    if q.shape != (topology.n_nodes,):
        raise ValueError(f"need one fill per node ({topology.n_nodes})")
    return (q, *rates)


class _ArgminPolicy:
    """Shared machinery for jsq/sed: each node routes to the first node of
    lowest score among itself and its ``Topology.padded_neighbors`` row."""

    def _scores(self, queues, service_rates) -> np.ndarray:
        raise NotImplementedError

    def profile(self, queues, topology, service_rates) -> DecisionProfile:
        scores = self._scores(*_node_fills(queues, topology, None, service_rates))
        table = topology.padded_neighbors.T
        # scan own first, then neighbors in index order; only a strictly
        # lower score moves the target, so the first minimal one wins and a
        # padded slot, which repeats the node's own score, never does
        targets, low = np.arange(topology.n_nodes, dtype=np.int64), scores.copy()
        for node, score in zip(table, scores.take(table)):
            np.copyto(targets, node, where=score < low)
            np.minimum(low, score, out=low)
        return DecisionProfile(targets=targets)


class JsqPolicy(_ArgminPolicy):
    def _scores(self, queues, service_rates):
        return queues.astype(np.float64)


class SedPolicy(_ArgminPolicy):
    def _scores(self, queues, service_rates):
        if np.any(service_rates <= 0):
            raise ValueError("sed needs positive service rates")
        return (queues + 1.0) / service_rates


class RndPolicy:
    def profile(self, queues, topology, service_rates) -> DecisionProfile:
        deg = topology.degrees.astype(np.float64)
        return DecisionProfile(offload=deg / (deg + 1.0))


class OwnPolicy:
    def profile(self, queues, topology, service_rates) -> DecisionProfile:
        return DecisionProfile(offload=np.zeros(topology.n_nodes))


class StaticZetaPolicy:
    """Fixed offload probabilities per own fill level, applied every epoch."""

    def __init__(self, zeta):
        self.zeta = np.asarray(zeta, dtype=np.float64)
        if np.any(self.zeta < 0) or np.any(self.zeta > 1):
            raise ValueError("offload probabilities must lie in [0, 1]")
        self.buffer = self.zeta.size - 1        # one entry per fill level 0..buffer

    def profile(self, queues, topology, service_rates) -> DecisionProfile:
        q, = _node_fills(queues, topology, self.buffer)
        return DecisionProfile(offload=self.zeta[q])


def threshold_zeta(buffer: int) -> np.ndarray:
    """Offload only when the own queue is full."""
    z = np.zeros(buffer + 1)
    z[buffer] = 1.0
    return z


def observations(queues, topology, buffer: int, mode: str) -> np.ndarray:
    """What a learned policy observes of the queue fills.

    ``global`` is the systemwide fill distribution, shape (buffer+1,);
    ``neighborhood`` (each scheduler's neighbor fill distribution) and
    ``ownstate`` (one-hot own fill) have one row per scheduler.  An (E, n)
    bank of episodes adds a leading axis of E.
    """
    if mode == "global" and np.ndim(queues) == 1:
        return empirical_distribution(queues, buffer)
    q, = checked_queues(queues, buffer)
    if q.shape[-1] != topology.n_nodes:
        raise ValueError(f"need one fill per node ({topology.n_nodes})")
    fills = np.arange(buffer + 1)
    if mode in ("global", "ownstate"):
        own = (q[..., None] == fills).astype(np.float64)      # one-hot own fill
        return own if mode == "ownstate" else own.mean(axis=-2)
    if mode == "neighborhood":
        # count (scheduler, neighbor fill) pairs; padding slots weigh 0
        m = fills.size
        cells = (np.arange(q.size) * m).reshape(q.shape)[..., None] \
            + q[..., topology.padded_neighbors]
        weights = np.broadcast_to(topology.padded_mask, cells.shape)
        counts = np.bincount(cells.ravel(), weights=weights.ravel(),
                             minlength=q.size * m).reshape(*q.shape, m)
        deg = topology.degrees
        obs = counts / np.maximum(deg, 1)[:, None]
        # an isolated scheduler falls back to its own fill level
        lone = np.flatnonzero(deg == 0)
        obs[..., lone, :] = q[..., lone, None] == fills
        return obs
    raise ValueError(f"unknown observation_mode {mode!r}")


class MfrPolicy:
    """Learned policy evaluated deterministically.

    The network reads ``observations`` in the parameters' observation_mode:
    in ``global`` mode it runs once and its offload table is broadcast; in
    ``neighborhood`` and ``ownstate`` mode every scheduler applies the
    output for its own row, for decentralized execution.
    """

    def __init__(self, params: PolicyParameters):
        if params.layer_sizes[0] != params.buffer + 1:
            raise ValueError(
                f"policy network takes {params.layer_sizes[0]} inputs but MfrPolicy "
                f"feeds {params.buffer + 1} fill fractions")
        self.params = params
        self.buffer = params.buffer

    def profile(self, queues, topology, service_rates) -> DecisionProfile:
        q, = _node_fills(queues, topology, self.buffer)
        obs = observations(q, topology, self.buffer, self.params.observation_mode)
        zeta = policy_zeta(self.params, obs)
        if obs.ndim == 1:
            return DecisionProfile(offload=zeta[q])
        return DecisionProfile(offload=zeta[np.arange(topology.n_nodes), q])


def _entry(spec, key: str):
    """``spec[key]``; a missing key is a ValueError that names it."""
    if key not in spec:
        raise ValueError(f"policy spec {spec!r} has no {key!r} key")
    return spec[key]


def make_policy(spec, buffer: int):
    """Build a policy from a config entry (string or {kind: ...} mapping)."""
    if isinstance(spec, str):
        spec = {"kind": spec}
    kind = _entry(spec, "kind").lower()
    if kind == "jsq":
        return JsqPolicy()
    if kind == "sed":
        return SedPolicy()
    if kind == "rnd":
        return RndPolicy()
    if kind == "own":
        return OwnPolicy()
    if kind == "threshold":
        return StaticZetaPolicy(threshold_zeta(buffer))
    if kind == "static":
        zeta = np.asarray(_entry(spec, "zeta"), dtype=np.float64)
        if zeta.shape != (buffer + 1,):
            raise ValueError(f"static zeta must hold one offload probability per fill "
                             f"level 0..{buffer} ({buffer + 1}), not shape {zeta.shape}")
        return StaticZetaPolicy(zeta)
    if kind == "mfr":
        params = load_policy_parameters(_entry(spec, "checkpoint"))
        if params.buffer != buffer:
            raise ValueError("checkpoint buffer size differs from the experiment")
        return MfrPolicy(params)
    raise ValueError(f"unknown policy {spec!r}")


def policy_key(spec) -> str:
    """A spec's result name: the string, an mfr/static ``name`` (``kind`` in
    any case, as ``make_policy`` reads it), else ``kind`` as given."""
    if isinstance(spec, str):
        return spec
    kind = _entry(spec, "kind")
    if kind.lower() in ("mfr", "static"):
        return spec.get("name", kind)
    return kind
