"""Policy optimization for the epoch-level control problem.

The main path is clipped-surrogate policy gradient with an adaptive KL
penalty, generalized advantage estimation and minibatch Adam updates; all
gradients are hand-derived through the Gaussian exploration head, the
logistic squash and the tanh MLP (validated against finite differences in
the tests).  A cross-entropy method over the flat parameter vector serves
as a derivative-free fallback that is robust for small networks.
"""
from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from .env import LoadBalanceEnv
from .nn import STD_FLOOR, Mlp, PolicyParameters, save_policy_parameters, sigmoid
from .seeding import derive_seed, parallel_map
from .simulator import SystemParams, check_count

__all__ = [
    "TrainerConfig",
    "CemConfig",
    "RolloutBatch",
    "collect_batch",
    "compute_advantages",
    "ppo_update",
    "train",
    "cem_train",
    "evaluate_params",
]


@dataclass
class TrainerConfig:
    gamma: float = 0.99
    gae_lambda: float = 1.0
    clip: float = 0.3
    kl_coeff: float = 0.2
    kl_target: float = 0.01
    learning_rate: float = 5e-5
    batch_size: int = 4000            # transitions per iteration (whole episodes)
    minibatch_size: int = 512
    sgd_iters: int = 6
    epochs: int = 50                  # training iterations
    hidden: tuple = (256, 256)
    explore_init: float = 0.2
    eval_episodes: int = 4
    workers: int = 1
    observation_mode: str = "global"

    def __post_init__(self) -> None:
        for name in ("batch_size", "minibatch_size", "sgd_iters", "epochs", "eval_episodes"):
            check_count(name, getattr(self, name))
        if self.minibatch_size > self.batch_size:
            raise ValueError("minibatch_size must lie in [1, batch_size]")


@dataclass
class CemConfig:
    population: int = 24
    elite_frac: float = 0.25
    iterations: int = 30
    eval_episodes: int = 4
    hidden: tuple = (16, 16)
    init_std: float = 0.5
    noise: float = 0.25
    noise_decay: float = 0.9
    observation_mode: str = "global"

    def __post_init__(self) -> None:
        for name in ("population", "iterations", "eval_episodes"):
            check_count(name, getattr(self, name))
        if self.population < 4:
            raise ValueError("population must be >= 4")
        if not (0.0 < self.elite_frac <= 1.0):
            raise ValueError("elite_frac must lie in (0, 1]")


@dataclass
class RolloutBatch:
    obs: np.ndarray            # (M, D), M = E * T; row e * T + t is step t of episode e
    actions: np.ndarray        # (M, A) raw pre-clamp samples
    mu_old: np.ndarray         # (M, A)
    sigma_old: np.ndarray      # (A,)
    logp_old: np.ndarray       # (M,)
    rewards: np.ndarray        # (E, T)
    returns: np.ndarray | None = None       # (M,)
    advantages: np.ndarray | None = None    # (M,)

    @property
    def size(self) -> int:
        return self.obs.shape[0]


def _make_env(topology, params, delta_t, horizon, cfg) -> LoadBalanceEnv:
    return LoadBalanceEnv(topology, params, delta_t, horizon,
                          observation_mode=cfg.observation_mode)


def _explore_bank(env: LoadBalanceEnv, policy: PolicyParameters, seeds: list):
    """Run one episode per seed as one bank; returns observations, actions
    and means, each (E, T, .), and rewards (E, T).

    The action is the squashed network output plus Gaussian noise of the
    policy's scale, from a generator derived from the episode's seed; it is
    stored raw and clipped into [0, 1] for the environment.  The network
    reads the bank as (E, 1, D), so every row gets the batch-1 matmul that
    one episode alone would get, bit for bit.
    """
    net, sigma = policy.mlp(), policy.std
    noise = [np.random.default_rng(derive_seed(s, "explore")) for s in seeds]
    obs = env.reset(seeds)
    n_ep, horizon = len(seeds), env.horizon
    obs_all = np.empty((n_ep, horizon, obs.shape[-1]))
    act_all, mu_all = np.empty((2, n_ep, horizon, sigma.size))
    rewards = np.empty((n_ep, horizon))
    for t in range(horizon):
        mu = sigmoid(net.forward(obs[:, None])[0][:, 0])
        raw = mu + sigma * np.array([g.standard_normal(mu.shape[1]) for g in noise])
        obs_all[:, t], act_all[:, t], mu_all[:, t] = obs, raw, mu
        rewards[:, t] = env.act(np.clip(raw, 0.0, 1.0))
        obs = env.observation()
    return obs_all, act_all, mu_all, rewards


def collect_batch(env: LoadBalanceEnv, cfg: TrainerConfig, policy: PolicyParameters,
                  seed: int) -> RolloutBatch:
    """Roll whole episodes until at least batch_size transitions are stored.

    Episode seeds derive from (seed, episode index).  Each worker steps one
    contiguous chunk of them as one bank, and a bank row draws what its
    episode alone would, so the batch content is identical for any worker
    count.
    """
    episodes = max(1, math.ceil(cfg.batch_size / env.horizon))
    seeds = [derive_seed(seed, "episode", e) for e in range(episodes)]
    chunks = min(max(1, cfg.workers), episodes)
    rolls = parallel_map(
        partial(_explore_bank, env, policy),
        [seeds[k * episodes // chunks:(k + 1) * episodes // chunks] for k in range(chunks)],
        cfg.workers)
    obs, actions, mu_old, rewards = (np.concatenate(parts) for parts in zip(*rolls))
    obs, actions, mu_old = (x.reshape(-1, x.shape[-1]) for x in (obs, actions, mu_old))
    sigma = policy.std
    logp_old = _gaussian_logp(actions, mu_old, sigma)
    return RolloutBatch(obs, actions, mu_old, sigma.copy(), logp_old, rewards)


# ---- advantage estimation ----


def compute_advantages(batch: RolloutBatch, critic: Mlp, gamma: float,
                       gae_lambda: float) -> None:
    """Fill batch.returns (value targets) and batch.advantages in place.

    Returns-to-go are plain discounted sums; advantages follow the
    lambda-weighted temporal-difference recursion with terminal value 0 at
    the end of each episode.  With lambda = 1 the advantage reduces to
    return-to-go minus the value baseline.  One backward pass over the
    horizon updates every episode of the batch at once.
    """
    r = batch.rewards
    n_ep, horizon = r.shape
    v = np.zeros((n_ep, horizon + 1))           # column T is the terminal value
    v[:, :horizon] = critic.forward(batch.obs)[0][:, 0].reshape(n_ep, horizon)
    returns, adv = np.empty(r.shape), np.empty(r.shape)
    g = a = np.zeros(n_ep)
    for t in range(horizon - 1, -1, -1):
        g = r[:, t] + gamma * g
        delta = r[:, t] + gamma * v[:, t + 1] - v[:, t]
        a = delta + gamma * gae_lambda * a
        returns[:, t] = g
        adv[:, t] = a
    batch.returns = returns.ravel()
    batch.advantages = adv.ravel()


# ---- gaussian helpers ----


def _gaussian_logp(x: np.ndarray, mu: np.ndarray, sigma: np.ndarray) -> np.ndarray:
    z = (x - mu) / sigma
    return (-0.5 * z * z - np.log(sigma) - 0.5 * math.log(2.0 * math.pi)).sum(axis=-1)


def _gaussian_kl(mu_old, sigma_old, mu_new, sigma_new) -> np.ndarray:
    """KL(old || new) per sample for diagonal Gaussians."""
    var_new = sigma_new ** 2
    return (np.log(sigma_new / sigma_old)
            + (sigma_old ** 2 + (mu_old - mu_new) ** 2) / (2.0 * var_new)
            - 0.5).sum(axis=-1)


# ---- losses with hand-derived gradients ----


def policy_loss_and_grad(policy_sizes, flat, log_std, batch: RolloutBatch,
                         idx: np.ndarray, clip: float, kl_coeff: float):
    """Clipped surrogate plus KL penalty on one minibatch.

    Returns (loss, grad_flat, grad_log_std).
    """
    obs = batch.obs[idx]
    act = batch.actions[idx]
    adv = batch.advantages[idx]
    mu_old = batch.mu_old[idx]
    logp_old = batch.logp_old[idx]
    sigma_old = batch.sigma_old
    m = idx.size

    net = Mlp(policy_sizes, flat)
    out, acts = net.forward(obs)
    mu = sigmoid(out)
    sigma = STD_FLOOR + np.exp(log_std)
    logp = _gaussian_logp(act, mu, sigma)
    ratio = np.exp(logp - logp_old)

    unclipped = ratio * adv
    clipped = np.clip(ratio, 1.0 - clip, 1.0 + clip) * adv
    surrogate = np.minimum(unclipped, clipped)
    # gradient flows through the unclipped branch unless clipping cut it off
    active = ~(((ratio > 1.0 + clip) & (adv > 0)) | ((ratio < 1.0 - clip) & (adv < 0)))
    kl = _gaussian_kl(mu_old, sigma_old, mu, sigma)
    loss = -surrogate.mean() + kl_coeff * kl.mean()

    dlogp = -(adv * ratio * active) / m                       # (m,)
    inv_var = 1.0 / sigma ** 2
    dmu = dlogp[:, None] * (act - mu) * inv_var \
        + (kl_coeff / m) * (mu - mu_old) * inv_var
    dsigma = (dlogp[:, None] * ((act - mu) ** 2 / sigma ** 3 - 1.0 / sigma)
              + (kl_coeff / m) * (1.0 / sigma
                                  - (sigma_old ** 2 + (mu_old - mu) ** 2) / sigma ** 3)
              ).sum(axis=0)
    grad_log_std = dsigma * (sigma - STD_FLOOR)               # d sigma / d log_std
    dout = dmu * mu * (1.0 - mu)                              # logistic squash
    grad_flat = net.backward(acts, dout)
    return float(loss), grad_flat, grad_log_std


def critic_loss_and_grad(critic_sizes, flat, batch: RolloutBatch, idx: np.ndarray):
    net = Mlp(critic_sizes, flat)
    out, acts = net.forward(batch.obs[idx])
    v = out[:, 0]
    err = v - batch.returns[idx]
    loss = float(np.mean(err ** 2))
    dout = (2.0 * err / idx.size)[:, None]
    return loss, net.backward(acts, dout)


class Adam:
    def __init__(self, dim: int, lr: float):
        self.lr = lr
        self.m = np.zeros(dim)
        self.v = np.zeros(dim)
        self.t = 0

    def step(self, x: np.ndarray, grad: np.ndarray) -> np.ndarray:
        self.t += 1
        self.m = 0.9 * self.m + 0.1 * grad
        self.v = 0.999 * self.v + 0.001 * grad * grad
        mh = self.m / (1.0 - 0.9 ** self.t)
        vh = self.v / (1.0 - 0.999 ** self.t)
        return x - self.lr * mh / (np.sqrt(vh) + 1e-8)


@dataclass
class TrainState:
    policy: PolicyParameters
    critic_sizes: tuple
    critic_flat: np.ndarray
    kl_coeff: float
    opt_policy: Adam = field(repr=False, default=None)
    opt_log_std: Adam = field(repr=False, default=None)
    opt_critic: Adam = field(repr=False, default=None)


def init_train_state(policy: PolicyParameters, cfg: TrainerConfig,
                     rng: np.random.Generator) -> TrainState:
    critic_sizes = (policy.layer_sizes[0], *cfg.hidden, 1)
    critic = Mlp.init(critic_sizes, rng)
    state = TrainState(policy, critic_sizes, critic.flat, cfg.kl_coeff)
    state.opt_policy = Adam(policy.weights.size, cfg.learning_rate)
    state.opt_log_std = Adam(policy.log_std.size, cfg.learning_rate)
    state.opt_critic = Adam(critic.flat.size, cfg.learning_rate)
    return state


def ppo_update(state: TrainState, batch: RolloutBatch, cfg: TrainerConfig,
               rng: np.random.Generator) -> dict:
    """Minibatch updates over the batch; adapts the KL penalty afterwards."""
    adv = batch.advantages
    batch.advantages = (adv - adv.mean()) / (adv.std() + 1e-8)
    policy = state.policy
    diag = {"aborted": False, "policy_loss": 0.0, "value_loss": 0.0,
            "kl": 0.0, "clip_fraction": 0.0, "kl_coeff": state.kl_coeff}
    for _ in range(cfg.sgd_iters):
        perm = rng.permutation(batch.size)
        for lo in range(0, batch.size, cfg.minibatch_size):
            idx = perm[lo:lo + cfg.minibatch_size]
            loss, g_flat, g_ls = policy_loss_and_grad(
                policy.layer_sizes, policy.weights, policy.log_std,
                batch, idx, cfg.clip, state.kl_coeff)
            vloss, g_critic = critic_loss_and_grad(
                state.critic_sizes, state.critic_flat, batch, idx)
            finite = (math.isfinite(loss) and math.isfinite(vloss)
                      and np.all(np.isfinite(g_flat)) and np.all(np.isfinite(g_ls))
                      and np.all(np.isfinite(g_critic)))
            if not finite:
                diag["aborted"] = True
                return diag
            policy.weights = state.opt_policy.step(policy.weights, g_flat)
            policy.log_std = state.opt_log_std.step(policy.log_std, g_ls)
            state.critic_flat = state.opt_critic.step(state.critic_flat, g_critic)
            diag["policy_loss"] = loss
            diag["value_loss"] = vloss

    out, _ = Mlp(policy.layer_sizes, policy.weights).forward(batch.obs)
    mu = sigmoid(out)
    sigma = STD_FLOOR + np.exp(policy.log_std)
    kl = float(_gaussian_kl(batch.mu_old, batch.sigma_old, mu, sigma).mean())
    logp = _gaussian_logp(batch.actions, mu, sigma)
    ratio = np.exp(logp - batch.logp_old)
    diag["kl"] = kl
    diag["clip_fraction"] = float(np.mean((ratio > 1 + cfg.clip) | (ratio < 1 - cfg.clip)))
    if kl > 2.0 * cfg.kl_target:
        state.kl_coeff *= 2.0
    elif kl < cfg.kl_target / 2.0:
        state.kl_coeff *= 0.5
    diag["kl_coeff"] = state.kl_coeff
    return diag


# ---- evaluation of fixed parameters ----


def evaluate_params(env: LoadBalanceEnv, policy: PolicyParameters, seeds) -> float:
    """Mean episode return of the deterministic policy over the given seeds,
    one ``LoadBalanceEnv.step`` per epoch of each episode."""
    net = policy.mlp()
    returns = []
    for seed in seeds:
        obs, rewards = env.reset(seed), []
        while not env.done:
            tr = env.step(np.clip(sigmoid(net.forward(obs)[0])[0], 0.0, 1.0))
            rewards.append(tr.reward)
            obs = tr.next_observation
        returns.append(np.sum(rewards))
    return float(np.mean(returns))


# ---- drivers ----


def _write_curve(path, rows) -> None:
    if not rows:
        return
    keys = list(rows[0].keys())
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=keys)
        w.writeheader()
        for row in rows:
            w.writerow({k: f"{v:.10g}" if isinstance(v, float) else v
                        for k, v in row.items()})


def _finish(best: PolicyParameters, curve: list, out_dir):
    """Write the checkpoint and the curve under ``out_dir``, if given."""
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        save_policy_parameters(best, os.path.join(out_dir, "checkpoint.json"))
        _write_curve(os.path.join(out_dir, "curve.csv"), curve)
    return best, curve


def train(topology, params: SystemParams, delta_t: float, horizon: int,
          cfg: TrainerConfig, seed: int, out_dir=None):
    """Full policy-gradient run; returns (best parameters, curve rows).

    Best is judged by deterministic evaluation on a fixed seed set, so the
    returned parameters never regress because of a late bad iteration.
    """
    rng = np.random.default_rng(derive_seed(seed, "init"))
    env = _make_env(topology, params, delta_t, horizon, cfg)
    policy = PolicyParameters.init(params.buffer, cfg.hidden, rng,
                                   observation_mode=cfg.observation_mode,
                                   explore_init=cfg.explore_init)
    state = init_train_state(policy, cfg, rng)
    update_rng = np.random.default_rng(derive_seed(seed, "update"))
    eval_seeds = [derive_seed(seed, "eval", k) for k in range(cfg.eval_episodes)]
    best_score = -np.inf
    best = None
    curve = []
    for it in range(cfg.epochs):
        batch = collect_batch(env, cfg, state.policy, derive_seed(seed, "batch", it))
        compute_advantages(batch, Mlp(state.critic_sizes, state.critic_flat),
                           cfg.gamma, cfg.gae_lambda)
        mean_return = float(batch.rewards.sum(axis=1).mean())
        diag = ppo_update(state, batch, cfg, update_rng)
        score = evaluate_params(env, state.policy, eval_seeds)
        if score > best_score:
            best_score = score
            best = replace(state.policy, weights=state.policy.weights.copy(),
                           log_std=state.policy.log_std.copy())
        curve.append({"iteration": it, "mean_return": mean_return,
                      "eval_return": score, **diag})
        if diag["aborted"]:
            break
    return _finish(best if best is not None else state.policy, curve, out_dir)


def cem_train(topology, params: SystemParams, delta_t: float, horizon: int,
              cfg: CemConfig, seed: int, out_dir=None):
    """Cross-entropy search over the flat policy parameters.

    Every candidate is scored by deterministic evaluation on one shared
    seed set, so scores are comparable across the population and across
    iterations.  Returns (best parameters, curve rows).
    """
    rng = np.random.default_rng(derive_seed(seed, "cem"))
    env = _make_env(topology, params, delta_t, horizon, cfg)
    template = PolicyParameters.init(params.buffer, cfg.hidden, rng,
                                     observation_mode=cfg.observation_mode)
    eval_seeds = [derive_seed(seed, "cemeval", k) for k in range(cfg.eval_episodes)]

    def score(flat: np.ndarray) -> float:
        return evaluate_params(env, replace(template, weights=flat), eval_seeds)

    dim = template.weights.size
    mean = template.weights.copy()
    std = np.full(dim, cfg.init_std)
    n_elite = max(1, int(round(cfg.elite_frac * cfg.population)))
    best_flat, best_score = mean.copy(), score(mean)
    noise = cfg.noise
    curve = []
    for it in range(cfg.iterations):
        pop = mean + std * rng.standard_normal((cfg.population, dim))
        scores = np.array([score(p) for p in pop])
        order = np.argsort(scores)[::-1]
        elites = pop[order[:n_elite]]
        if scores[order[0]] > best_score:
            best_score = float(scores[order[0]])
            best_flat = pop[order[0]].copy()
        mean = elites.mean(axis=0)
        std = np.sqrt(elites.var(axis=0) + noise)
        noise *= cfg.noise_decay
        curve.append({"iteration": it, "eval_mean": float(scores.mean()),
                      "eval_best": float(scores[order[0]]),
                      "best_so_far": best_score})
    return _finish(replace(template, weights=best_flat), curve, out_dir)
