from __future__ import annotations

import json

import numpy as np
import pytest

from sparselb.kernel import effective_rates
from sparselb.nn import PolicyParameters, n_params, policy_zeta, save_policy_parameters
from sparselb.policies import (JsqPolicy, MfrPolicy, OwnPolicy, RndPolicy,
                               SedPolicy, StaticZetaPolicy, make_policy,
                               observations, threshold_zeta)
from sparselb.simulator import empirical_distribution, profile_rates, run_episode
from sparselb.simulator import SystemParams
from sparselb.topology import (build_bethe, build_ccc, build_config_model, build_cyc1d,
                               build_torus, from_edges)


# Per-agent oracles for the vectorized argmin policies: scan the agent's
# accessible set (own queue first, then neighbors) and return the target.


def jsq_rule(agent, queues, topology, service_rates):
    cand = [agent, *topology.neighbors[agent]]
    return min(cand, key=lambda j: (queues[j], 0 if j == agent else 1, j))


def sed_rule(agent, queues, topology, service_rates):
    cand = [agent, *topology.neighbors[agent]]
    return min(cand, key=lambda j: ((queues[j] + 1.0) / service_rates[j],
                                    0 if j == agent else 1, j))


def test_jsq_rule_prefers_shortest_neighbor():
    topo = build_cyc1d(5)
    queues = np.array([3, 1, 2, 2, 2])
    assert JsqPolicy().profile(queues, topo, np.ones(5)).targets[0] == 1


def test_jsq_rule_tie_breaks_own_first():
    topo = build_cyc1d(5)
    queues = np.array([2, 2, 2, 2, 2])
    assert JsqPolicy().profile(queues, topo, np.ones(5)).targets[0] == 0
    # own queue loses only strictly
    queues = np.array([2, 1, 3, 3, 1])
    # lowest index among tied neighbors
    assert JsqPolicy().profile(queues, topo, np.ones(5)).targets[0] == 1


def test_sed_rule_scales_by_service_rate():
    topo = build_cyc1d(3)
    queues = np.array([1, 3, 3])
    # neighbor 1 is fast enough that (3+1)/4 < (1+1)/1
    mu = np.array([1.0, 4.0, 1.0])
    assert SedPolicy().profile(queues, topo, mu).targets[0] == 1
    # equal rates: SED reduces to JSQ
    mu = np.ones(3)
    assert SedPolicy().profile(queues, topo, mu).targets[0] == \
        JsqPolicy().profile(queues, topo, mu).targets[0]


def test_rnd_and_own_rules():
    # rnd on a 5-cycle is uniform over {0, 1, 4}: agent 0 keeps a third of
    # its jobs and splits the rest evenly over its two neighbors
    topo = build_cyc1d(5)
    q = np.zeros(5, dtype=int)
    rnd = RndPolicy().profile(q, topo, np.ones(5))
    assert rnd.offload[0] == pytest.approx(2 / 3, abs=1e-15)
    assert rnd.targets is None
    own = OwnPolicy().profile(q, topo, np.ones(5))
    assert np.array_equal(own.offload, np.zeros(5))


@pytest.mark.parametrize("policy_cls,rule_fn", [
    (JsqPolicy, jsq_rule),
    (SedPolicy, sed_rule),
])
def test_vectorized_profile_matches_per_agent_rules(policy_cls, rule_fn):
    # the irregular graphs scan padded slots: bethe leaves, cm degrees 1-5
    # and two isolated nodes
    rng = np.random.default_rng(5)
    for topo in (build_cyc1d(9), build_ccc(3), build_torus(4), build_bethe(3, 3),
                 build_config_model(40, range(1, 6), seed=2),
                 from_edges(6, [(0, 1), (1, 2), (1, 3), (2, 3)])):
        mu = rng.uniform(0.5, 2.0, size=topo.n_nodes)
        for _ in range(20):
            queues = rng.integers(0, 6, size=topo.n_nodes)
            prof = policy_cls().profile(queues, topo, mu)
            for i in range(topo.n_nodes):
                assert prof.targets[i] == rule_fn(i, queues, topo, mu)


def test_sed_equals_jsq_for_equal_rates():
    topo = build_torus(5)
    rng = np.random.default_rng(6)
    mu = np.ones(topo.n_nodes)
    for _ in range(10):
        queues = rng.integers(0, 6, size=topo.n_nodes)
        a = JsqPolicy().profile(queues, topo, mu)
        b = SedPolicy().profile(queues, topo, mu)
        assert np.array_equal(a.targets, b.targets)


def test_sed_rejects_nonpositive_rates():
    topo = build_cyc1d(3)
    with pytest.raises(ValueError):
        SedPolicy().profile(np.zeros(3, dtype=int), topo, np.array([1.0, 0.0, 1.0]))


def test_rnd_uniform_over_accessible_set():
    # offload d/(d+1) with uniform neighbor split equals a uniform rule over
    # the agent's own queue plus its neighbors
    for topo in (build_cyc1d(9), build_ccc(3), build_torus(4)):
        prof = RndPolicy().profile(np.zeros(topo.n_nodes, dtype=int), topo,
                                   np.ones(topo.n_nodes))
        d = topo.degrees.astype(float)
        assert np.array_equal(prof.offload, d / (d + 1.0))


def test_own_and_rnd_rates_exactly_equal():
    for topo in (build_cyc1d(9), build_ccc(3), build_torus(4)):
        n = topo.n_nodes
        mu = np.ones(n)
        q = np.zeros(n, dtype=int)
        own = profile_rates(OwnPolicy().profile(q, topo, mu), topo, 0.9)
        rnd = profile_rates(RndPolicy().profile(q, topo, mu), topo, 0.9)
        assert np.array_equal(own, rnd)
        assert np.array_equal(own, np.full(n, 0.9))


def test_static_zeta_policy():
    topo = build_cyc1d(4)
    zeta = np.array([0.0, 0.1, 0.2, 0.5, 0.9, 1.0])
    pol = StaticZetaPolicy(zeta)
    queues = np.array([0, 3, 5, 1])
    prof = pol.profile(queues, topo, np.ones(4))
    assert np.array_equal(prof.offload, zeta[queues])
    with pytest.raises(ValueError):
        StaticZetaPolicy(np.array([0.0, 1.5]))


def test_threshold_zeta():
    assert np.array_equal(threshold_zeta(5), np.array([0, 0, 0, 0, 0, 1.0]))


def test_constant_zeta_reduces_to_state_free_offload():
    # a rule constant in the fill level is a plain Bernoulli offload, so
    # the induced rates must match the direct effective-rate computation
    topo = build_cyc1d(7)
    c = 0.35
    pol = StaticZetaPolicy(np.full(6, c))
    queues = np.array([0, 5, 2, 3, 1, 4, 2])
    prof = pol.profile(queues, topo, np.ones(7))
    assert np.array_equal(prof.offload, np.full(7, c))
    got = profile_rates(prof, topo, 0.9)
    want = effective_rates(topo, np.full(7, c), 0.9)
    assert np.array_equal(got, want)


def test_mfr_policy_matches_per_agent_rule():
    topo = build_cyc1d(6)
    rng = np.random.default_rng(11)
    params = PolicyParameters.init(buffer=5, hidden=(8,), rng=rng)
    pol = MfrPolicy(params)
    queues = np.array([0, 1, 5, 2, 2, 4])
    prof = pol.profile(queues, topo, np.ones(6))
    obs = empirical_distribution(queues, 5)
    zeta = policy_zeta(params, obs)
    assert np.array_equal(prof.offload, zeta[queues])


def test_mfr_ownstate_observations_are_one_hot():
    topo = build_cyc1d(4)
    rng = np.random.default_rng(3)
    params = PolicyParameters.init(buffer=5, hidden=(8,), rng=rng,
                                   observation_mode="ownstate")
    pol = MfrPolicy(params)
    queues = np.array([0, 5, 2, 2])
    obs = observations(queues, topo, 5, "ownstate")
    assert obs.shape == (4, 6)
    assert np.array_equal(obs[1], np.eye(6)[5])
    # each agent applies its own row of the network output
    prof = pol.profile(queues, topo, np.ones(4))
    zeta = policy_zeta(params, obs)
    assert np.array_equal(prof.offload, zeta[np.arange(4), queues])


def test_mfr_neighborhood_observations():
    topo = build_cyc1d(5)
    rng = np.random.default_rng(4)
    params = PolicyParameters.init(buffer=5, hidden=(8,), rng=rng,
                                   observation_mode="neighborhood")
    pol = MfrPolicy(params)
    queues = np.array([0, 3, 3, 1, 0])
    obs = observations(queues, topo, 5, "neighborhood")
    # agent 0 sees neighbors 1 and 4: states 3 and 0, half weight each
    assert np.array_equal(obs[0], np.array([0.5, 0, 0, 0.5, 0, 0]))
    assert np.allclose(obs.sum(axis=1), 1.0)
    prof = pol.profile(queues, topo, np.ones(5))
    assert np.array_equal(prof.offload, policy_zeta(params, obs)[np.arange(5), queues])



def test_mfr_rejects_rate_observing_network(tmp_path):
    # a network that also read the arrival rate (earlier versions could
    # train one) takes one input more than the fill distribution MfrPolicy
    # builds; it must fail on load, not mid-sweep
    sizes = (7, 4, 6)
    params = PolicyParameters(sizes, np.zeros(n_params(sizes)), np.zeros(6))
    with pytest.raises(ValueError, match="takes 7 inputs"):
        MfrPolicy(params)
    path = tmp_path / "ckpt.json"
    save_policy_parameters(params, path)
    with pytest.raises(ValueError, match="takes 7 inputs"):
        make_policy({"kind": "mfr", "checkpoint": str(path)}, 5)

def test_make_policy_dispatch():
    assert isinstance(make_policy("jsq", 5), JsqPolicy)
    assert isinstance(make_policy("sed", 5), SedPolicy)
    assert isinstance(make_policy("rnd", 5), RndPolicy)
    assert isinstance(make_policy("own", 5), OwnPolicy)
    pol = make_policy("threshold", 3)
    assert isinstance(pol, StaticZetaPolicy)
    assert np.array_equal(pol.zeta, threshold_zeta(3))
    pol = make_policy({"kind": "static", "zeta": [0.0, 0.5, 1.0]}, 2)
    assert np.array_equal(pol.zeta, np.array([0.0, 0.5, 1.0]))
    with pytest.raises(ValueError):
        make_policy("nosuch", 5)


@pytest.mark.parametrize("zeta", [[0, 1], [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 1.0],
                                  [[0.0] * 6]])
def test_make_policy_static_table_must_match_buffer(zeta):
    # too short used to fail mid-episode blaming the queues; too long ran
    # silently on its first buffer + 1 entries
    with pytest.raises(ValueError, match="zeta"):
        make_policy({"kind": "static", "zeta": zeta}, 5)


def test_run_episode_rejects_static_table_for_another_buffer():
    # an 8-entry table at buffer 5 used to run on its first six entries
    with pytest.raises(ValueError, match="buffer 7"):
        run_episode(build_cyc1d(9), StaticZetaPolicy(np.linspace(0, 1, 8)), 5, 1.0,
                    SystemParams(), 1)


def test_run_episode_rejects_network_for_another_buffer():
    # a buffer-7 network at buffer 5 used to run to the end, its fill
    # levels 6 and 7 always empty
    rng = np.random.default_rng(0)
    with pytest.raises(ValueError, match="buffer 7"):
        run_episode(build_cyc1d(9), MfrPolicy(PolicyParameters.init(7, (4,), rng)), 5,
                    1.0, SystemParams(), 1)


@pytest.mark.parametrize("spec, key", [({"zeta": [0.0, 1.0]}, "kind"),
                                       ({"kind": "static"}, "zeta"),
                                       ({"kind": "mfr"}, "checkpoint")])
def test_make_policy_names_missing_keys(spec, key):
    with pytest.raises(ValueError, match=f"no '{key}' key"):
        make_policy(spec, 1)


def test_make_policy_checkpoint_round_trip(tmp_path):
    rng = np.random.default_rng(21)
    params = PolicyParameters.init(buffer=5, hidden=(8, 8), rng=rng)
    path = tmp_path / "ckpt.json"
    save_policy_parameters(params, path)
    pol = make_policy({"kind": "mfr", "checkpoint": str(path)}, 5)
    assert isinstance(pol, MfrPolicy)
    obs = np.array([0.2, 0.2, 0.2, 0.2, 0.1, 0.1])
    assert np.array_equal(policy_zeta(pol.params, obs), policy_zeta(params, obs))
    with pytest.raises(ValueError):
        make_policy({"kind": "mfr", "checkpoint": str(path)}, 3)


def test_make_policy_rejects_malformed_checkpoints(tmp_path):
    # each of these used to load, then fail mid-run or read the wrong outputs
    params = PolicyParameters.init(buffer=5, hidden=(4,), rng=np.random.default_rng(8))
    path = tmp_path / "ckpt.json"
    save_policy_parameters(params, path)
    good = json.loads(path.read_text())
    bad = [{"weights": good["weights"][:-3]}]
    for width in (8, 3):
        sizes = [6, 4, width]
        bad.append({"layer_sizes": sizes, "weights": [0.0] * n_params(sizes)})
    bad.append({"log_std": good["log_std"][:4]})
    for change in bad:
        path.write_text(json.dumps({**good, **change}))
        with pytest.raises(ValueError):
            make_policy({"kind": "mfr", "checkpoint": str(path)}, 5)
    path.write_text(json.dumps(good))
    make_policy({"kind": "mfr", "checkpoint": str(path)}, 5)


def test_policy_episode_ordering_sanity():
    # a quick physical check: greedy routing beats blind routing when
    # decisions are frequent
    topo = build_cyc1d(31)
    params = SystemParams()
    jsq = np.mean([run_episode(topo, JsqPolicy(), 40, 1.0, params, seed=s)
                   .total_drops for s in range(5)])
    rnd = np.mean([run_episode(topo, RndPolicy(), 40, 1.0, params, seed=s)
                   .total_drops for s in range(5)])
    assert jsq < rnd


@pytest.mark.parametrize("mode", ["global", "ownstate", "neighborhood"])
def test_observations_reject_fractional_and_negative_fills(mode):
    topo = build_cyc1d(4)
    for queues in ([0.5, 1.7, 2.0, 3.0], [0, -1, 2, 3]):
        with pytest.raises(ValueError):
            observations(queues, topo, 5, mode)


@pytest.mark.parametrize("make", [
    JsqPolicy,
    SedPolicy,
    lambda: StaticZetaPolicy(threshold_zeta(5)),
    lambda: MfrPolicy(PolicyParameters.init(buffer=5, hidden=(8,),
                                            rng=np.random.default_rng(0))),
], ids=["jsq", "sed", "threshold", "mfr"])
def test_profile_rejects_fractional_negative_and_misshapen_fills(make):
    topo, pol = build_cyc1d(4), make()
    for queues in ([0.5, 1.7, 2.0, 3.0], [0, -1, 2, 3], [[0, 1], [2, 3]], [0, 1, 2]):
        with pytest.raises(ValueError):
            pol.profile(queues, topo, np.ones(4))
    pol.profile([0, 1, 2, 3], topo, np.ones(4))
