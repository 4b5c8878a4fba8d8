from __future__ import annotations

import numpy as np
import pytest
from scipy import stats as sps

from sparselb.env import LoadBalanceEnv
from sparselb.nn import STD_FLOOR, Mlp, PolicyParameters, n_params, sigmoid
from sparselb.policies import MfrPolicy, OwnPolicy, StaticZetaPolicy
from sparselb.seeding import derive_seed
from sparselb.simulator import SystemParams, run_episode
from sparselb.topology import build_cyc1d, from_edges
from sparselb.trainer import (Adam, CemConfig, RolloutBatch, TrainerConfig,
                              _gaussian_kl, _gaussian_logp, cem_train,
                              collect_batch, compute_advantages,
                              critic_loss_and_grad, evaluate_params,
                              init_train_state, policy_loss_and_grad,
                              ppo_update, train)

from reference_engine import reference_epochs

TOPO = build_cyc1d(5)
PARAMS = SystemParams()


def tiny_env():
    return LoadBalanceEnv(TOPO, PARAMS, 1.0, 5)


def tiny_cfg(**kw):
    defaults = dict(batch_size=20, minibatch_size=10, sgd_iters=2, epochs=2,
                    hidden=(8,), eval_episodes=2)
    defaults.update(kw)
    return TrainerConfig(**defaults)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainerConfig(batch_size=10, minibatch_size=20)
    with pytest.raises(ValueError):
        TrainerConfig(sgd_iters=0)
    with pytest.raises(ValueError):
        CemConfig(population=3)
    with pytest.raises(ValueError):
        CemConfig(elite_frac=0.0)


@pytest.mark.parametrize("config", [TrainerConfig, CemConfig])
def test_config_rejects_no_eval_episodes(config):
    # with none, every eval_return is a NaN mean and CEM keeps its template
    for count in (0, -1):
        with pytest.raises(ValueError, match="eval_episodes"):
            config(eval_episodes=count)
    assert config(eval_episodes=1).eval_episodes == 1


def _manual_batch(obs, rewards):
    m = obs.shape[0]
    return RolloutBatch(obs, np.zeros((m, 1)), np.zeros((m, 1)), np.ones(1),
                        np.zeros(m), rewards)


def _per_episode_gae(rewards, values, starts, gamma, gae_lambda):
    """Frozen oracle: the scalar recursion run episode by episode over a
    flat batch, each episode ending in terminal value 0."""
    returns = np.empty(rewards.size)
    adv = np.empty(rewards.size)
    bounds = list(starts) + [rewards.size]
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        r = rewards[lo:hi]
        v = values[lo:hi]
        g = 0.0
        a = 0.0
        for t in range(r.size - 1, -1, -1):
            g = r[t] + gamma * g
            v_next = v[t + 1] if t + 1 < r.size else 0.0
            delta = r[t] + gamma * v_next - v[t]
            a = delta + gamma * gae_lambda * a
            returns[lo + t] = g
            adv[lo + t] = a
    return returns, adv


@pytest.mark.parametrize("gamma", [0.5, 0.99])
@pytest.mark.parametrize("gae_lambda", [0.0, 0.9, 1.0])
def test_advantages_match_per_episode_recursion(gamma, gae_lambda):
    rng = np.random.default_rng(31)
    critic = Mlp.init((3, 5, 1), rng)
    for n_ep, horizon in ((1, 1), (1, 7), (6, 1), (9, 13)):
        obs = rng.normal(size=(n_ep * horizon, 3))
        batch = _manual_batch(obs, rng.normal(size=(n_ep, horizon)))
        compute_advantages(batch, critic, gamma, gae_lambda)
        values = critic.forward(obs)[0][:, 0]
        want_ret, want_adv = _per_episode_gae(batch.rewards.ravel(), values,
                                              range(0, n_ep * horizon, horizon),
                                              gamma, gae_lambda)
        assert np.array_equal(batch.returns, want_ret)
        assert np.array_equal(batch.advantages, want_adv)


def test_returns_to_go_frozen_values():
    # single episode, gamma 0.5, rewards (1, 2, 3):
    # G2 = 3, G1 = 2 + 1.5 = 3.5, G0 = 1 + 1.75 = 2.75
    obs = np.zeros((3, 2))
    batch = _manual_batch(obs, np.array([[1.0, 2.0, 3.0]]))
    critic = Mlp((2, 1), np.zeros(n_params((2, 1))))
    compute_advantages(batch, critic, gamma=0.5, gae_lambda=1.0)
    assert np.array_equal(batch.returns, np.array([2.75, 3.5, 3.0]))
    # zero critic, lambda 1: advantage is exactly the return-to-go
    assert np.array_equal(batch.advantages, batch.returns)


def test_gae_lambda_zero_is_td_residual():
    # critic reads out the first observation coordinate, V = (1, 2, 3)
    obs = np.array([[1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    critic = Mlp((2, 1), np.array([1.0, 0.0, 0.0]))
    batch = _manual_batch(obs, np.array([[1.0, 1.0, 1.0]]))
    compute_advantages(batch, critic, gamma=0.5, gae_lambda=0.0)
    # delta_t = r + gamma V(next) - V(cur), terminal value 0
    assert np.allclose(batch.advantages, np.array([1.0, 0.5, -2.0]))
    assert np.allclose(batch.returns, np.array([1.75, 1.5, 1.0]))


def test_advantages_respect_episode_boundaries():
    # two episodes, one per row: nothing flows from the second into the first
    obs = np.zeros((4, 2))
    batch = _manual_batch(obs, np.array([[1.0, 1.0], [5.0, 7.0]]))
    critic = Mlp((2, 1), np.zeros(3))
    compute_advantages(batch, critic, gamma=1.0, gae_lambda=1.0)
    assert np.array_equal(batch.returns, np.array([2.0, 1.0, 12.0, 7.0]))


def test_gaussian_helpers_match_scipy():
    rng = np.random.default_rng(0)
    x = rng.normal(size=(6, 3))
    mu = rng.normal(size=(6, 3))
    sigma = np.array([0.5, 1.0, 2.0])
    got = _gaussian_logp(x, mu, sigma)
    want = sps.norm.logpdf(x, mu, sigma).sum(axis=1)
    assert np.allclose(got, want)
    assert np.allclose(_gaussian_kl(mu, sigma, mu, sigma), 0.0)
    # KL grows when the means move apart
    kl = _gaussian_kl(mu, sigma, mu + 1.0, sigma)
    assert np.all(kl > 0)


def test_collect_batch_deterministic():
    cfg = tiny_cfg()
    rng = np.random.default_rng(0)
    policy = PolicyParameters.init(5, cfg.hidden, rng)
    a = collect_batch(tiny_env(), cfg, policy, seed=7)
    b = collect_batch(tiny_env(), cfg, policy, seed=7)
    assert a.size >= cfg.batch_size
    assert np.array_equal(a.obs, b.obs)
    assert np.array_equal(a.actions, b.actions)
    assert np.array_equal(a.rewards, b.rewards)
    assert np.array_equal(a.logp_old, b.logp_old)
    c = collect_batch(tiny_env(), cfg, policy, seed=8)
    assert not np.array_equal(a.actions, c.actions)


def test_collect_batch_is_episodes_by_horizon():
    # 22 transitions at horizon 5 take ceil(22 / 5) = 5 whole episodes
    cfg = tiny_cfg(batch_size=22)
    policy = PolicyParameters.init(5, cfg.hidden, np.random.default_rng(9))
    batch = collect_batch(tiny_env(), cfg, policy, seed=2)
    assert batch.rewards.shape == (5, 5)
    assert batch.size == 25
    assert batch.obs.shape[0] == batch.actions.shape[0] == batch.logp_old.size == 25


def test_collect_batch_worker_invariance():
    rng = np.random.default_rng(1)
    policy = PolicyParameters.init(5, (8,), rng)
    one = collect_batch(tiny_env(), tiny_cfg(workers=1), policy, seed=3)
    two = collect_batch(tiny_env(), tiny_cfg(workers=2), policy, seed=3)
    assert np.array_equal(one.obs, two.obs)
    assert np.array_equal(one.actions, two.actions)
    assert np.array_equal(one.rewards, two.rewards)


def test_collect_batch_ignores_env_left_mid_episode():
    # the env is shared by every rollout of a run, so reset must clear all of it
    cfg = tiny_cfg()
    policy = PolicyParameters.init(5, cfg.hidden, np.random.default_rng(12))
    used = tiny_env()
    used.reset(99)
    used.step(np.full(6, 0.7))
    used.step(np.full(6, 0.2))
    a = collect_batch(used, cfg, policy, seed=4)
    b = collect_batch(tiny_env(), cfg, policy, seed=4)
    for field in ("obs", "actions", "mu_old", "logp_old", "rewards"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def rollout_oracle(env, policy, seed):
    """One exploring episode through ``LoadBalanceEnv.step``, the way the
    trainer collected its batches before it stepped them as one bank:
    returns (observations, raw actions, means, rewards)."""
    net, sigma = policy.mlp(), policy.std
    noise = np.random.default_rng(derive_seed(seed, "explore"))
    obs = env.reset(seed)
    obs_list, act_list, mu_list, rew_list = [], [], [], []
    while not env.done:
        out, _ = net.forward(obs)
        mu = sigmoid(out)[0]
        raw = mu + sigma * noise.standard_normal(mu.size)
        tr = env.step(np.clip(raw, 0.0, 1.0))
        obs_list.append(obs)
        act_list.append(raw)
        mu_list.append(mu)
        rew_list.append(tr.reward)
        obs = tr.next_observation
    return (np.asarray(obs_list), np.asarray(act_list),
            np.asarray(mu_list), np.asarray(rew_list))


# a path, a triangle with a pendant and an isolated node: degrees 0 to 3
MIXED = from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4), (6, 3)])


@pytest.mark.parametrize("mode, deep, start, workers, reward", [
    ("global", False, None, 1, "realized"),
    ("global", True, None, 2, "realized"),
    ("neighborhood", False, None, 1, "realized"),
    ("neighborhood", True, (0.2, 0.2, 0.2, 0.2, 0.1, 0.1), 2, "realized"),
    ("ownstate", True, None, 1, "realized"),
    ("ownstate", False, (0.5, 0.0, 0.0, 0.0, 0.0, 0.5), 2, "realized"),
    ("global", False, None, 1, "expected"),
])
def test_collect_batch_matches_per_episode_oracle(mode, deep, start, workers, reward):
    # the bank must reproduce one LoadBalanceEnv episode per seed, bit for
    # bit; 7 episodes split unevenly over two workers, through a network of
    # two hidden layers (deep) or one
    params = SystemParams(start_distribution=start)
    topo = MIXED if mode == "neighborhood" else TOPO

    def make_env():
        return LoadBalanceEnv(topo, params, 1.5, 6, observation_mode=mode,
                              reward_mode=reward)
    env = make_env()
    cfg = tiny_cfg(batch_size=40, workers=workers, observation_mode=mode)
    policy = PolicyParameters.init(5, (16, 8) if deep else (16,), np.random.default_rng(4),
                                   observation_mode=mode, obs_dim=env.observation_dim)
    batch = collect_batch(env, cfg, policy, seed=31)
    rolls = [rollout_oracle(make_env(), policy, derive_seed(31, "episode", e))
             for e in range(7)]
    want = {"obs": np.concatenate([r[0] for r in rolls]),
            "actions": np.concatenate([r[1] for r in rolls]),
            "mu_old": np.concatenate([r[2] for r in rolls]),
            "rewards": np.stack([r[3] for r in rolls])}
    want["logp_old"] = _gaussian_logp(want["actions"], want["mu_old"], policy.std)
    for field, value in want.items():
        got = getattr(batch, field)
        assert got.shape == value.shape and np.array_equal(got, value), field


def test_collect_batch_logp_consistent():
    cfg = tiny_cfg()
    rng = np.random.default_rng(2)
    policy = PolicyParameters.init(5, cfg.hidden, rng)
    batch = collect_batch(tiny_env(), cfg, policy, seed=11)
    want = _gaussian_logp(batch.actions, batch.mu_old, batch.sigma_old)
    assert np.array_equal(batch.logp_old, want)
    assert np.array_equal(batch.sigma_old, policy.std)


def test_policy_gradient_matches_finite_difference():
    cfg = tiny_cfg(hidden=(6,))
    rng = np.random.default_rng(3)
    policy = PolicyParameters.init(5, cfg.hidden, rng)
    batch = collect_batch(tiny_env(), cfg, policy, seed=5)
    critic = Mlp.init((6, 4, 1), rng)
    compute_advantages(batch, critic, 0.99, 1.0)
    idx = np.arange(batch.size)
    loss, g_flat, g_ls = policy_loss_and_grad(
        policy.layer_sizes, policy.weights, policy.log_std, batch, idx,
        clip=0.3, kl_coeff=0.2)

    def f(flat, log_std):
        l, _, _ = policy_loss_and_grad(policy.layer_sizes, flat, log_std,
                                          batch, idx, 0.3, 0.2)
        return l

    eps = 1e-6
    sample = rng.choice(policy.weights.size, size=30, replace=False)
    for k in sample:
        p = policy.weights.copy()
        p[k] += eps
        up = f(p, policy.log_std)
        p[k] -= 2 * eps
        down = f(p, policy.log_std)
        fd = (up - down) / (2 * eps)
        assert abs(g_flat[k] - fd) < 1e-4 * max(1.0, abs(fd))
    for k in range(policy.log_std.size):
        ls = policy.log_std.copy()
        ls[k] += eps
        up = f(policy.weights, ls)
        ls[k] -= 2 * eps
        down = f(policy.weights, ls)
        fd = (up - down) / (2 * eps)
        assert abs(g_ls[k] - fd) < 1e-4 * max(1.0, abs(fd))


def test_critic_gradient_matches_finite_difference():
    cfg = tiny_cfg(hidden=(6,))
    rng = np.random.default_rng(4)
    policy = PolicyParameters.init(5, cfg.hidden, rng)
    batch = collect_batch(tiny_env(), cfg, policy, seed=6)
    critic = Mlp.init((6, 5, 1), rng)
    compute_advantages(batch, critic, 0.99, 1.0)
    idx = np.arange(batch.size)
    loss, grad = critic_loss_and_grad(critic.sizes, critic.flat, batch, idx)
    eps = 1e-6
    for k in rng.choice(critic.flat.size, size=20, replace=False):
        p = critic.flat.copy()
        p[k] += eps
        up, _ = critic_loss_and_grad(critic.sizes, p, batch, idx)
        p[k] -= 2 * eps
        down, _ = critic_loss_and_grad(critic.sizes, p, batch, idx)
        fd = (up - down) / (2 * eps)
        assert abs(grad[k] - fd) < 1e-4 * max(1.0, abs(fd))


def test_clipped_out_sample_has_zero_gradient():
    # ratio far above 1 + clip with positive advantage: the surrogate is
    # flat there, so with no KL penalty every gradient entry must vanish
    sizes = (1, 1)
    flat = np.zeros(2)            # mu = sigmoid(0) = 0.5
    log_std = np.log(np.array([0.2 - STD_FLOOR]))
    batch = RolloutBatch(
        obs=np.array([[1.0]]),
        actions=np.array([[0.6]]),
        mu_old=np.array([[0.9]]),
        sigma_old=np.array([0.2]),
        logp_old=_gaussian_logp(np.array([[0.6]]), np.array([[0.9]]),
                                np.array([0.2])),
        rewards=np.array([[0.0]]),
        returns=np.array([0.0]),
        advantages=np.array([1.0]),
    )
    idx = np.array([0])
    loss, g_flat, g_ls = policy_loss_and_grad(sizes, flat, log_std,
                                              batch, idx, 0.3, 0.0)
    # the loss is the clipped branch, -(1 + clip) * advantage
    assert loss == pytest.approx(-1.3)
    assert np.array_equal(g_flat, np.zeros(2))
    assert np.array_equal(g_ls, np.zeros(1))


def test_zero_advantage_leaves_policy_untouched():
    # standardized zero advantages and mu_old equal to the update's own
    # network output produce an exactly zero policy gradient.  The rollout's
    # batch-1 forwards need not round like a batched forward, so mu_old is
    # set from the one forward the update makes: one minibatch of the whole
    # batch, one pass, rows in the order its rng permutes them.
    cfg = tiny_cfg(minibatch_size=20, sgd_iters=1)
    rng = np.random.default_rng(5)
    policy = PolicyParameters.init(5, cfg.hidden, rng)
    state = init_train_state(policy, cfg, rng)
    batch = collect_batch(tiny_env(), cfg, policy, seed=13)
    assert batch.size == cfg.minibatch_size
    critic = Mlp(state.critic_sizes, state.critic_flat)
    compute_advantages(batch, critic, cfg.gamma, cfg.gae_lambda)
    batch.advantages = np.zeros(batch.size)
    perm = np.random.default_rng(0).permutation(batch.size)
    out, _ = Mlp(policy.layer_sizes, policy.weights).forward(batch.obs[perm])
    batch.mu_old[perm] = sigmoid(out)
    w_before = state.policy.weights.copy()
    ls_before = state.policy.log_std.copy()
    ppo_update(state, batch, cfg, np.random.default_rng(0))
    assert np.array_equal(state.policy.weights, w_before)
    assert np.array_equal(state.policy.log_std, ls_before)


def test_kl_coeff_adaptation():
    cfg = tiny_cfg(learning_rate=0.0, kl_coeff=0.2)
    rng = np.random.default_rng(6)
    policy = PolicyParameters.init(5, cfg.hidden, rng)
    state = init_train_state(policy, cfg, rng)
    batch = collect_batch(tiny_env(), cfg, policy, seed=17)
    compute_advantages(batch, Mlp(state.critic_sizes, state.critic_flat),
                       cfg.gamma, cfg.gae_lambda)
    diag = ppo_update(state, batch, cfg, np.random.default_rng(1))
    # zero learning rate: the policy cannot move, KL stays 0, coeff halves
    assert diag["kl"] == 0.0
    assert state.kl_coeff == pytest.approx(0.1)

    cfg = tiny_cfg(learning_rate=0.5, sgd_iters=4, kl_coeff=0.2)
    policy = PolicyParameters.init(5, cfg.hidden, np.random.default_rng(6))
    state = init_train_state(policy, cfg, np.random.default_rng(6))
    batch = collect_batch(tiny_env(), cfg, policy, seed=17)
    compute_advantages(batch, Mlp(state.critic_sizes, state.critic_flat),
                       cfg.gamma, cfg.gae_lambda)
    diag = ppo_update(state, batch, cfg, np.random.default_rng(1))
    if diag["kl"] > 2.0 * cfg.kl_target:
        assert state.kl_coeff == pytest.approx(0.4)
    assert diag["kl"] > 0.0


def test_nonfinite_batch_aborts_without_stepping():
    cfg = tiny_cfg()
    rng = np.random.default_rng(7)
    policy = PolicyParameters.init(5, cfg.hidden, rng)
    state = init_train_state(policy, cfg, rng)
    batch = collect_batch(tiny_env(), cfg, policy, seed=19)
    compute_advantages(batch, Mlp(state.critic_sizes, state.critic_flat),
                       cfg.gamma, cfg.gae_lambda)
    batch.advantages[0] = np.nan
    w_before = state.policy.weights.copy()
    diag = ppo_update(state, batch, cfg, np.random.default_rng(2))
    assert diag["aborted"] is True
    assert np.array_equal(state.policy.weights, w_before)


def test_adam_first_step_is_signed_lr():
    opt = Adam(1, lr=0.1)
    x = opt.step(np.array([0.0]), np.array([3.0]))
    assert x[0] == pytest.approx(-0.1, rel=1e-6)


def test_evaluate_params_matches_batch_runner():
    # all-zero network emits a constant 0.5 forwarding rule, so evaluation
    # must reproduce the batch runner with that static rule, seed by seed
    policy = PolicyParameters.init(5, (4,), np.random.default_rng(8))
    policy.weights[:] = 0.0
    zeta = np.full(6, 0.5)
    env = LoadBalanceEnv(TOPO, PARAMS, 2.0, 10)
    for seed in (1, 2, 3):
        got = evaluate_params(env, policy, [seed])
        res = run_episode(TOPO, StaticZetaPolicy(zeta), 10, 2.0, PARAMS,
                          seed=seed)
        assert got == pytest.approx(-res.total_drops)


def test_train_smoke_and_deterministic(tmp_path):
    cfg = tiny_cfg()
    best_a, curve_a = train(TOPO, PARAMS, 1.0, 5, cfg, seed=23,
                            out_dir=tmp_path / "a")
    best_b, curve_b = train(TOPO, PARAMS, 1.0, 5, cfg, seed=23,
                            out_dir=tmp_path / "b")
    assert np.array_equal(best_a.weights, best_b.weights)
    assert np.array_equal(best_a.log_std, best_b.log_std)
    assert len(curve_a) == cfg.epochs
    assert [r["eval_return"] for r in curve_a] == [r["eval_return"] for r in curve_b]
    assert (tmp_path / "a" / "checkpoint.json").exists()
    assert (tmp_path / "a" / "curve.csv").exists()
    assert (tmp_path / "a" / "checkpoint.json").read_bytes() == \
        (tmp_path / "b" / "checkpoint.json").read_bytes()


def test_cem_smoke_and_deterministic(tmp_path):
    cfg = CemConfig(population=4, iterations=3, eval_episodes=2, hidden=(4,))
    best_a, curve_a = cem_train(TOPO, PARAMS, 1.0, 5, cfg, seed=29,
                                out_dir=tmp_path / "a")
    best_b, curve_b = cem_train(TOPO, PARAMS, 1.0, 5, cfg, seed=29)
    assert np.array_equal(best_a.weights, best_b.weights)
    assert len(curve_a) == 3
    # the tracked best never regresses
    series = [r["best_so_far"] for r in curve_a]
    assert all(b >= a for a, b in zip(series, series[1:]))
    assert (tmp_path / "a" / "checkpoint.json").exists()


def test_isolated_node_ignores_forwarding_rule():
    # a scheduler with no neighbors has nowhere to send work, so any rule,
    # learned or not, must reproduce the keep-everything dynamics exactly
    lone = from_edges(1, [])
    learned = MfrPolicy(PolicyParameters.init(5, (8,), np.random.default_rng(3)))
    rivals = (learned, StaticZetaPolicy(np.ones(6)))
    base = run_episode(lone, OwnPolicy(), 20, 1.0, PARAMS, seed=11)
    for rival in rivals:
        res = run_episode(lone, rival, 20, 1.0, PARAMS, seed=11)
        assert np.array_equal(res.drop_counts, base.drop_counts)
        assert res.total_drops == base.total_drops

    def oracle_drops(policy):
        rules = [lambda q: policy.profile(q, lone, np.ones(1))] * 20
        return [int(out[1].sum()) for _, out in
                reference_epochs(lone, PARAMS, 1.0, 11, rules)]
    base = oracle_drops(OwnPolicy())
    for rival in rivals:
        assert oracle_drops(rival) == base
