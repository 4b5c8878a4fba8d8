"""Small feedforward networks with hand-written reverse-mode gradients.

The policy and value networks are plain tanh MLPs over flat parameter
vectors; keeping the parameters flat makes the gradient check, the Adam
updates and the population-based optimizer all operate on one array.
Gradients come from a manual backward pass that is validated against
central finite differences in the tests.
"""
from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

__all__ = [
    "Mlp",
    "sigmoid",
    "PolicyParameters",
    "policy_zeta",
    "save_policy_parameters",
    "load_policy_parameters",
    "STD_FLOOR",
]

STD_FLOOR = 0.01           # exploration stddev never decays below this
CHECKPOINT_VERSION = 1


def sigmoid(x: np.ndarray) -> np.ndarray:
    # exp of -|x| never overflows; for x < 0 it is exp(x), bit for bit
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def n_params(sizes) -> int:
    return sum(sizes[i + 1] * sizes[i] + sizes[i + 1] for i in range(len(sizes) - 1))


class Mlp:
    """Tanh MLP over a flat parameter vector; linear output layer."""

    def __init__(self, sizes, flat: np.ndarray):
        sizes = tuple(int(s) for s in sizes)
        if len(sizes) < 2:
            raise ValueError("need at least input and output sizes")
        flat = np.asarray(flat, dtype=np.float64)
        if flat.shape != (n_params(sizes),):
            raise ValueError("flat parameter vector has the wrong length")
        self.sizes = sizes
        self.flat = flat
        self.weights = []
        self.biases = []
        k = 0
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            self.weights.append(flat[k:k + fan_out * fan_in].reshape(fan_out, fan_in))
            k += fan_out * fan_in
            self.biases.append(flat[k:k + fan_out])
            k += fan_out

    @classmethod
    def init(cls, sizes, rng: np.random.Generator) -> "Mlp":
        flat = np.empty(n_params(sizes))
        k = 0
        for i in range(len(sizes) - 1):
            fan_in, fan_out = sizes[i], sizes[i + 1]
            w = rng.normal(0.0, 1.0 / np.sqrt(fan_in), size=(fan_out, fan_in))
            flat[k:k + fan_out * fan_in] = w.ravel()
            k += fan_out * fan_in
            flat[k:k + fan_out] = 0.0
            k += fan_out
        return cls(sizes, flat)

    def forward(self, x: np.ndarray):
        """Batched forward; returns (output, cache for backward)."""
        x = np.atleast_2d(np.asarray(x, dtype=np.float64))
        acts = [x]
        h = x
        last = len(self.weights) - 1
        for i, (w, b) in enumerate(zip(self.weights, self.biases)):
            z = h @ w.T + b
            h = z if i == last else np.tanh(z)
            acts.append(h)
        return h, acts

    def backward(self, acts, dout: np.ndarray) -> np.ndarray:
        """Gradient of sum(dout * output) w.r.t. the flat parameters."""
        grad = np.zeros_like(self.flat)
        views = Mlp(self.sizes, grad)
        d = np.atleast_2d(np.asarray(dout, dtype=np.float64))
        last = len(self.weights) - 1
        for i in range(last, -1, -1):
            h_in = acts[i]
            if i != last:
                d = d * (1.0 - acts[i + 1] ** 2)   # tanh'
            views.weights[i] += d.T @ h_in
            views.biases[i] += d.sum(axis=0)
            if i > 0:
                d = d @ self.weights[i]
        return grad


@dataclass
class PolicyParameters:
    """Everything needed to reproduce a routing policy network.

    ``weights`` is the flat MLP parameter vector mapping an observation to
    pre-squash outputs, one per own-queue fill level; ``log_std`` holds
    the state-independent exploration scales (std = STD_FLOOR + exp(.)).
    """

    layer_sizes: tuple
    weights: np.ndarray
    log_std: np.ndarray
    observation_mode: str = "global"
    buffer: int = 5

    def mlp(self) -> Mlp:
        return Mlp(self.layer_sizes, self.weights)

    @property
    def std(self) -> np.ndarray:
        return STD_FLOOR + np.exp(self.log_std)

    @classmethod
    def init(cls, buffer: int, hidden, rng: np.random.Generator,
             observation_mode: str = "global", obs_dim: int | None = None,
             explore_init: float = 0.2) -> "PolicyParameters":
        dim = buffer + 1 if obs_dim is None else obs_dim
        sizes = (dim, *hidden, buffer + 1)
        mlp = Mlp.init(sizes, rng)
        log_std = np.full(buffer + 1, np.log(max(explore_init - STD_FLOOR, 1e-6)))
        return cls(sizes, mlp.flat, log_std, observation_mode, buffer)


def policy_zeta(params: PolicyParameters, obs: np.ndarray) -> np.ndarray:
    """Deterministic policy output: offload probabilities per fill level."""
    out, _ = params.mlp().forward(obs)
    z = sigmoid(out)
    return z[0] if np.asarray(obs).ndim == 1 else z


def save_policy_parameters(params: PolicyParameters, path) -> None:
    doc = {
        "version": CHECKPOINT_VERSION,
        "layer_sizes": list(params.layer_sizes),
        "weights": params.weights.tolist(),
        "log_std": params.log_std.tolist(),
        "observation_mode": params.observation_mode,
        "buffer": params.buffer,
    }
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True)
        fh.write("\n")


def load_policy_parameters(path) -> PolicyParameters:
    with open(path) as fh:
        doc = json.load(fh)
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ValueError(f"unsupported checkpoint version {doc.get('version')!r}")
    params = PolicyParameters(
        layer_sizes=tuple(doc["layer_sizes"]),
        weights=np.asarray(doc["weights"], dtype=np.float64),
        log_std=np.asarray(doc["log_std"], dtype=np.float64),
        observation_mode=doc["observation_mode"],
        buffer=int(doc["buffer"]),
    )
    sizes, width = params.layer_sizes, params.buffer + 1
    if params.weights.shape != (n_params(sizes),):
        raise ValueError(f"checkpoint holds {params.weights.size} weights but layer "
                         f"sizes {sizes} need {n_params(sizes)}")
    if sizes[-1] != width or params.log_std.shape != (width,):
        raise ValueError(f"checkpoint has {sizes[-1]} outputs and {params.log_std.size} "
                         f"log_std entries; buffer {params.buffer} needs {width} of each")
    return params
