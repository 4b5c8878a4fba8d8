from __future__ import annotations

import numpy as np
import pytest

from sparselb.env import LoadBalanceEnv
from sparselb.nn import PolicyParameters
from sparselb.policies import MfrPolicy, StaticZetaPolicy, observations, threshold_zeta
from sparselb.simulator import SystemParams, run_episode
from sparselb.topology import build_config_model, build_cyc1d, from_edges


def make_env(**kw):
    defaults = dict(topology=build_cyc1d(9), params=SystemParams(),
                    delta_t=2.0, horizon=10)
    defaults.update(kw)
    return LoadBalanceEnv(**defaults)


def test_reset_returns_empty_distribution():
    env = make_env()
    obs = env.reset(seed=0)
    assert obs.shape == (6,)
    assert np.array_equal(obs, np.array([1.0, 0, 0, 0, 0, 0]))


def test_step_shapes_and_reward_sign():
    env = make_env()
    env.reset(seed=0)
    total = 0.0
    steps = 0
    while not env.done:
        tr = env.step(threshold_zeta(5))
        assert tr.next_observation.shape == (6,)
        assert tr.reward <= 0.0
        total += tr.reward
        steps += 1
    assert steps == 10
    assert np.isfinite(total)


def test_step_requires_reset():
    env = make_env()
    with pytest.raises(RuntimeError):
        env.step(threshold_zeta(5))
    env.reset(seed=0)
    for _ in range(10):
        env.step(threshold_zeta(5))
    with pytest.raises(RuntimeError):
        env.step(threshold_zeta(5))


def test_bank_reset_observes_each_row_and_refuses_step():
    # a list of seeds makes a bank: one observation row per seed, each the
    # one-seed observation; step stays one-episode and refuses it
    kw = dict(observation_mode="neighborhood",
              params=SystemParams(start_distribution=(0.5, 0, 0, 0, 0.5, 0)))
    env = make_env(**kw)
    obs = env.reset([3, 4, 5])
    assert env.bank and env.queues.shape == (3, 9) and obs.shape == (3, 6)
    for row, seed in zip(obs, (3, 4, 5)):
        assert np.array_equal(row, make_env(**kw).reset(seed))
    with pytest.raises(RuntimeError, match="one seed"):
        env.step(threshold_zeta(5))
    env.reset(3)
    assert not env.bank and env.step(threshold_zeta(5)).next_observation.shape == (6,)


@pytest.mark.parametrize("kw, match", [
    (dict(delta_t=float("nan")), "delta_t must be positive and finite"),
    (dict(delta_t=float("inf")), "delta_t must be positive and finite"),
    (dict(horizon=2.5), "horizon must be an integer >= 1"),
    (dict(horizon=0), "horizon must be an integer >= 1"),
    (dict(horizon="3"), "horizon must be an integer >= 1"),
    (dict(observation_mode="foo"), "unknown observation_mode 'foo'"),
    (dict(horizon=True), "horizon must be an integer >= 1"),
])
def test_env_rejects_bad_settings(kw, match):
    # horizon=2.5 used to run 2 epochs, and delta_t=nan to construct
    with pytest.raises(ValueError, match=match):
        make_env(**kw)
    assert make_env(horizon=np.int64(3)).horizon == 3


def test_step_rejects_bad_shape():
    env = make_env()
    env.reset(seed=0)
    with pytest.raises(ValueError):
        env.step(np.zeros(3))


def test_step_clamps_and_warns():
    env = make_env()
    env.reset(seed=1)
    with pytest.warns(UserWarning):
        tr_a = env.step(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.7]))
    env.reset(seed=1)
    tr_b = env.step(np.array([0.0, 0.0, 0.0, 0.0, 0.0, 1.0]))
    assert tr_a.reward == tr_b.reward
    assert np.array_equal(tr_a.next_observation, tr_b.next_observation)


def test_env_matches_run_episode():
    # one env step per epoch, same seed, same constant rule: rewards must be
    # the bitwise-negated drop counts from the batch runner
    topo = build_cyc1d(9)
    params = SystemParams()
    zeta = threshold_zeta(5)
    res = run_episode(topo, StaticZetaPolicy(zeta), 20, 2.0, params, seed=42)
    env = LoadBalanceEnv(topo, params, 2.0, 20)
    env.reset(seed=42)
    rewards = []
    while not env.done:
        rewards.append(env.step(zeta).reward)
    assert np.array_equal(np.asarray(rewards), -res.drop_counts / topo.n_nodes)


def test_env_accepts_generator_seed():
    env = make_env()
    a = env.reset(seed=np.random.default_rng(7))
    env2 = make_env()
    b = env2.reset(seed=np.random.default_rng(7))
    assert np.array_equal(a, b)
    ra = env.step(threshold_zeta(5)).reward
    rb = env2.step(threshold_zeta(5)).reward
    assert ra == rb


def test_ownstate_observation_mode():
    env = make_env(observation_mode="ownstate")
    obs = env.reset(seed=0)
    assert np.array_equal(obs, np.array([1.0, 0, 0, 0, 0, 0]))
    tr = env.step(np.zeros(6))
    # one-hot on scheduler 0's fill
    assert tr.next_observation.sum() == 1.0
    assert set(np.unique(tr.next_observation)) <= {0.0, 1.0}


def test_neighborhood_observation_mode():
    env = make_env(observation_mode="neighborhood")
    obs = env.reset(seed=0)
    assert obs.shape == (6,)
    assert obs.sum() == pytest.approx(1.0)


@pytest.mark.parametrize("mode", ["global", "neighborhood", "ownstate"])
def test_observation_matches_deployed_policy(mode):
    # the controller trains on env.observation() and MfrPolicy builds the
    # deployed observation from the same queues; the two must agree
    rng = np.random.default_rng(31)
    params = SystemParams(start_distribution=(0.1, 0.2, 0.2, 0.2, 0.2, 0.1))
    policy = MfrPolicy(PolicyParameters.init(5, (4,), rng, observation_mode=mode))
    checked = 0
    for _ in range(6):
        n = int(rng.integers(4, 12))
        pairs = [(i, j) for i in range(n - 2) for j in range(i + 1, n - 2)]
        pick = rng.random(len(pairs)) < 0.4
        # the last two nodes stay isolated
        edges = [p for p, keep in zip(pairs, pick) if keep]
        for agent in range(n):
            # relabel so that ``agent`` is scheduler 0, whose row the env reads
            swap = np.arange(n)
            swap[[0, agent]] = swap[[agent, 0]]
            topo = from_edges(n, [(swap[i], swap[j]) for i, j in edges])
            env = LoadBalanceEnv(topo, params, 1.0, 3, observation_mode=mode)
            env.reset(seed=int(rng.integers(2**31)))
            while True:
                want = observations(env.queues, topo, policy.params.buffer,
                                    policy.params.observation_mode)
                if mode != "global":
                    want = want[0]
                assert np.array_equal(env.observation(), want)
                checked += 1
                if env.done:
                    break
                env.step(rng.random(6))
    assert checked > 100


def test_expected_reward_mode():
    # variance-reduced reward equals the summed per-queue kernel
    # expectation at the epoch-start fills; dynamics stay the realized ones
    from sparselb.kernel import effective_rates, expected_drops_table

    topo = build_cyc1d(9)
    # per-queue service rates, some repeated, and a fill-dependent table so
    # that queues share (arrival, service) pairs only where both rates agree
    mu = (1.0, 1.0, 0.8, 1.2, 1.0, 0.8, 1.0, 1.2, 1.0)
    for params, zeta in ((SystemParams(), np.full(6, 0.4)),
                         (SystemParams(service_rate=mu), np.linspace(0.0, 0.8, 6))):
        service = params.service_rates(9)
        env = make_env(params=params, reward_mode="expected")
        env.reset(seed=21)
        realized = make_env(params=params)
        realized.reset(seed=21)
        for _ in range(4):
            q0 = env.queues.copy()
            rate = env.rate
            tr = env.step(zeta)
            rates = effective_rates(topo, zeta[q0], rate)
            want = sum(expected_drops_table(r, m, 5, 2.0)[0, z]
                       for r, m, z in zip(rates, service, q0))
            assert tr.reward == pytest.approx(-want / 9.0, rel=1e-12)
            # the reward computation consumes no randomness
            tr_r = realized.step(zeta)
            assert np.array_equal(tr.next_observation, tr_r.next_observation)
    with pytest.raises(ValueError):
        make_env(reward_mode="sampled")


def test_expected_step_computes_rates_once(monkeypatch):
    # the reward reads the rates the epoch ran at instead of recomputing them
    from sparselb import env as env_mod
    from sparselb import kernel

    calls = []
    original = kernel.effective_rates

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)
    monkeypatch.setattr(kernel, "effective_rates", counting)
    monkeypatch.setattr(env_mod, "effective_rates", counting, raising=False)
    env = make_env(reward_mode="expected")
    env.reset(seed=3)
    for steps in range(1, 4):
        env.step(np.linspace(0.1, 0.9, 6))
        assert len(calls) == steps


@pytest.mark.parametrize("mode", ["global", "neighborhood", "ownstate"])
@pytest.mark.parametrize("reward", ["realized", "expected"])
def test_act_on_a_bank_matches_one_episode_envs(mode, reward):
    # a bank of E rows, each with its own table every epoch, gives bit for
    # bit what E one-episode envs give with the same seeds: rewards,
    # observations, queues and the generators' end states
    topo = build_config_model(30, [1, 2, 3, 4], 5)
    mu = tuple(np.random.default_rng(2).choice([0.7, 1.0, 1.3], 30))
    params = SystemParams(service_rate=mu,
                          start_distribution=(0.3, 0.2, 0.1, 0.1, 0.1, 0.2))
    seeds = [3, 17, 40, 41]

    def make():
        return LoadBalanceEnv(topo, params, 3.0, 5, observation_mode=mode,
                              reward_mode=reward)
    bank = make()
    obs = bank.reset(seeds)
    singles = [make() for _ in seeds]
    assert np.array_equal(obs, np.stack([e.reset(s) for e, s in zip(singles, seeds)]))
    zetas = np.random.default_rng(8).random((bank.horizon, len(seeds), 6))
    for zeta in zetas:
        rewards = bank.act(zeta)
        assert rewards.shape == (len(seeds),)
        steps = [e.step(z) for e, z in zip(singles, zeta)]
        assert np.array_equal(rewards, [tr.reward for tr in steps])
        assert np.array_equal(bank.observation(),
                              np.stack([tr.next_observation for tr in steps]))
        assert np.array_equal(bank.queues, np.stack([e.queues for e in singles]))
    assert bank.epoch == bank.horizon and all(e.done for e in singles)
    assert [g.bit_generator.state for g in bank.rng] == \
        [e.rng.bit_generator.state for e in singles]
