"""End-to-end acceptance gate: twelve numbered shipping criteria.

Every criterion prints one pass/fail line in the terminal summary.
Episode cells are cached at module scope and shared between criteria;
each cell derives from the single master seed below, so the whole module
is reproducible bit for bit.
"""
from __future__ import annotations

import numpy as np
import pytest

from sparselb.harness import (ExperimentConfig, build_topology, evaluate,
                              policy_key, sweep, topology_key)
from sparselb.kernel import effective_rates, epoch_law_table, expected_drops_table
from sparselb.nn import Mlp, save_policy_parameters
from sparselb.simulator import DecisionProfile, SystemParams
from sparselb.trainer import (CemConfig, RolloutBatch, TrainerConfig,
                              _gaussian_logp, cem_train,
                              policy_loss_and_grad, train)

from reference_engine import gillespie_epoch

pytestmark = pytest.mark.acceptance

ACCEPT_SEED = 20260822
EPISODES = 100
HORIZON = 50

CYC9 = {"family": "cyc1d", "n": 9}
CYC91 = {"family": "cyc1d", "n": 91}
CYC101 = {"family": "cyc1d", "n": 101}
CYC901 = {"family": "cyc1d", "n": 901}
CYC5001 = {"family": "cyc1d", "n": 5001}
CCC160 = {"family": "ccc", "order": 5}
TORUS121 = {"family": "torus", "side": 11}
BETHE6142 = {"family": "bethe", "depth": 11, "branching": 3}

_TOPOS: dict = {}
_CELLS: dict = {}


def _config() -> ExperimentConfig:
    cfg = ExperimentConfig()
    cfg.episodes = EPISODES
    cfg.horizon = HORIZON
    cfg.seed = ACCEPT_SEED
    return cfg


def _topology(spec):
    key = topology_key(spec)
    if key not in _TOPOS:
        _TOPOS[key] = build_topology(spec, ACCEPT_SEED)
    return key, _TOPOS[key]


def _cell(spec, policy, delta_t):
    tkey, topo = _topology(spec)
    key = (tkey, policy_key(policy), float(delta_t))
    if key not in _CELLS:
        _CELLS[key] = evaluate(topo, policy, float(delta_t), _config(), tkey)
    return _CELLS[key]


def _separated(a, b) -> bool:
    return a.ci_bounds()[1] < b.ci_bounds()[0] \
        or b.ci_bounds()[1] < a.ci_bounds()[0]


def _overlap(a, b) -> bool:
    return not _separated(a, b)


def test_criterion_01_kernel_closed_form(criterion_report):
    got = float(expected_drops_table(1.0, 1.0, 1, 1.0)[0, 0])
    closed = (1.0 + np.exp(-2.0)) / 4.0
    err_drops = abs(got - 0.283834)
    ok = err_drops < 1e-6 and abs(got - closed) < 1e-12

    max_err = 0.0
    for lam, mu, dt in ((0.9, 1.0, 1.0), (0.6, 1.0, 5.0), (1.3, 0.7, 2.0)):
        r = lam + mu
        pi1 = lam / r
        for z0 in (0, 1):
            law = epoch_law_table(lam, mu, 1, dt)[0][:, z0]
            p1 = pi1 + ((1.0 if z0 == 1 else 0.0) - pi1) * np.exp(-r * dt)
            want = np.array([1.0 - p1, p1])
            max_err = max(max_err, float(np.abs(law - want).max()))
    ok = ok and max_err < 1e-9
    criterion_report(1, ok,
                     f"expected drops {got:.9f} vs 0.283834 (err {err_drops:.2e} "
                     f"< 1e-6); epoch law max err {max_err:.2e} < 1e-9")


def test_criterion_02_kernel_engine_equivalence(criterion_report):
    # frozen offload profile and frozen high rate on a 3-cycle; the
    # per-queue laws at the effective rates are exact, so 1e5 sampled
    # epochs from the event-driven reference engine must match them
    _, topo = _topology({"family": "cyc1d", "n": 3})
    offload = np.array([0.3, 0.7, 1.0])
    lam, buffer, delta_t = 0.9, 5, 1.0
    mu = np.ones(3)
    start = np.array([2, 0, 4])
    rates = effective_rates(topo, offload, lam)

    n_epochs = 100_000
    rng = np.random.default_rng(7)
    profile = DecisionProfile(offload=offload)
    states = np.zeros((n_epochs, 3), dtype=np.int64)
    drops = np.zeros(n_epochs)
    for r in range(n_epochs):
        nq, dr, _, _ = gillespie_epoch(start, profile, topo, lam, mu, buffer,
                                       delta_t, rng)
        states[r] = nq
        drops[r] = dr.sum()

    max_tv = 0.0
    want_drops = 0.0
    laws = epoch_law_table(rates, mu, buffer, delta_t)
    table = expected_drops_table(rates, mu, buffer, delta_t)
    for i in range(3):
        law = laws[i][:, start[i]]
        emp = np.bincount(states[:, i], minlength=buffer + 1) / n_epochs
        max_tv = max(max_tv, 0.5 * float(np.abs(emp - law).sum()))
        want_drops += table[i, start[i]]
    se = drops.std(ddof=1) / np.sqrt(n_epochs)
    z = abs(drops.mean() - want_drops) / se
    ok = max_tv < 0.01 and z < 3.0
    criterion_report(2, ok,
                     f"max per-queue TV {max_tv:.4f} < 0.01; drop mean "
                     f"{drops.mean():.5f} vs {want_drops:.5f} at |z|={z:.2f} < 3 "
                     f"({n_epochs} epochs)")


def test_criterion_03_rate_conservation(criterion_report):
    specs = [CYC101, {"family": "ccc", "order": 4},
             {"family": "torus", "side": 7},
             {"family": "cm", "n": 40, "degree_set": [2, 3]},
             {"family": "bethe", "depth": 5, "branching": 3}]
    lam = 0.9
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    count = 0
    for spec in specs:
        _, topo = _topology(spec)
        for _ in range(200):
            a = rng.random(topo.n_nodes)
            total = effective_rates(topo, a, lam).sum()
            worst = max(worst, abs(total - topo.n_nodes * lam)
                        / (topo.n_nodes * lam))
            count += 1
    ok = worst <= 1e-12 and count == 1000
    criterion_report(3, ok,
                     f"max relative conservation error {worst:.2e} <= 1e-12 "
                     f"over {count} action vectors on 5 families")


def test_criterion_04_regular_graph_equivalence(criterion_report):
    exact = True
    for spec in (CYC901, CCC160, TORUS121):
        _, topo = _topology(spec)
        n = topo.n_nodes
        own = effective_rates(topo, np.zeros(n), 0.9)
        rnd = effective_rates(topo, topo.degrees / (topo.degrees + 1.0), 0.9)
        exact = exact and np.array_equal(own, rnd) \
            and np.array_equal(own, np.full(n, 0.9))
    overlaps = []
    for spec in (CYC901, CCC160, TORUS121):
        for dt in (1.0, 5.0, 10.0):
            overlaps.append(_overlap(_cell(spec, "own", dt),
                                     _cell(spec, "rnd", dt)))
    ok = exact and all(overlaps)
    criterion_report(4, ok,
                     f"rate vectors bitwise equal on 3 regular families: {exact}; "
                     f"own/rnd CI overlap in {sum(overlaps)}/9 cells "
                     f"(dt in {{1,5,10}}, {EPISODES} episodes)")


def test_criterion_05_jsq_degradation(criterion_report):
    jsq1 = _cell(CYC901, "jsq", 1.0)
    jsq7 = _cell(CYC901, "jsq", 7.0)
    rnd1 = _cell(CYC901, "rnd", 1.0)
    own1 = _cell(CYC901, "own", 1.0)
    below = jsq1.mean_drops < rnd1.mean_drops \
        and jsq1.mean_drops < own1.mean_drops \
        and _separated(jsq1, rnd1) and _separated(jsq1, own1)
    worsens = jsq7.mean_drops > jsq1.mean_drops
    ok = below and worsens
    criterion_report(5, ok,
                     f"dt=1: jsq {jsq1.mean_drops:.3f} below rnd "
                     f"{rnd1.mean_drops:.3f} and own {own1.mean_drops:.3f}, "
                     f"CIs disjoint; dt=7 jsq {jsq7.mean_drops:.3f} above dt=1")


def test_criterion_06_large_epoch_randomization(criterion_report):
    parts = []
    ok = True
    for spec in (CYC901, TORUS121):
        rnd = _cell(spec, "rnd", 10.0)
        jsq = _cell(spec, "jsq", 10.0)
        good = rnd.mean_drops <= jsq.mean_drops and _separated(rnd, jsq)
        ok = ok and good
        parts.append(f"{rnd.topology}: rnd {rnd.mean_drops:.2f} <= jsq "
                     f"{jsq.mean_drops:.2f} separated={_separated(rnd, jsq)}")
    criterion_report(6, ok, "dt=10: " + "; ".join(parts))


def test_criterion_07_tree_violation(criterion_report):
    own = _cell(BETHE6142, "own", 10.0)
    rnd = _cell(BETHE6142, "rnd", 10.0)
    ok = own.mean_drops < rnd.mean_drops and _separated(own, rnd)
    criterion_report(7, ok,
                     f"bethe depth=11 (N=6142) dt=10: own {own.mean_drops:.2f} "
                     f"< rnd {rnd.mean_drops:.2f}, CI-separated")


def test_criterion_08_mean_field_concentration(criterion_report):
    cells = [_cell(spec, "rnd", 5.0) for spec in (CYC9, CYC91, CYC901)]
    stds = [float(np.std(c.per_episode, ddof=1)) for c in cells]
    decreasing = stds[0] > stds[1] > stds[2]
    lo, hi = cells[1].ci_bounds()
    within = lo <= cells[2].mean_drops <= hi
    ok = decreasing and within
    criterion_report(8, ok,
                     f"rnd across-seed std {stds[0]:.3f} > {stds[1]:.3f} > "
                     f"{stds[2]:.3f} for N=9,91,901; N=901 mean "
                     f"{cells[2].mean_drops:.3f} inside N=91 CI [{lo:.3f},{hi:.3f}]")


def test_criterion_09_ranking_stability(criterion_report):
    policies = ("jsq", "rnd", "own")
    checked = 0
    consistent = True
    for dt in (1.0, 5.0, 10.0):
        small = {p: _cell(CYC901, p, dt) for p in policies}
        large = {p: _cell(CYC5001, p, dt) for p in policies}
        for i in range(len(policies)):
            for j in range(i + 1, len(policies)):
                a, b = policies[i], policies[j]
                if _separated(small[a], small[b]) and _separated(large[a], large[b]):
                    checked += 1
                    same = ((small[a].mean_drops < small[b].mean_drops)
                            == (large[a].mean_drops < large[b].mean_drops))
                    consistent = consistent and same
    ok = consistent and checked > 0
    criterion_report(9, ok,
                     f"ordering of {{jsq,rnd,own}} identical at N=901 and N=5001 "
                     f"for all {checked} pairs with disjoint CIs at both sizes "
                     f"(dt in {{1,5,10}})")


def test_criterion_10_gradient_check(criterion_report):
    rng = np.random.default_rng(ACCEPT_SEED)
    worst = 0.0
    for sizes in ((4, 8, 4), (6, 5, 5, 6), (3, 12, 3)):
        m, d, a = 16, sizes[0], sizes[-1]
        obs = rng.normal(size=(m, d))
        mu_old = rng.uniform(0.2, 0.8, size=(m, a))
        sigma_old = rng.uniform(0.1, 0.3, size=a)
        actions = mu_old + sigma_old * rng.standard_normal((m, a))
        batch = RolloutBatch(
            obs, actions, mu_old, sigma_old,
            _gaussian_logp(actions, mu_old, sigma_old),
            np.zeros((1, m)),
            returns=rng.normal(size=m), advantages=rng.normal(size=m))
        flat = Mlp.init(sizes, rng).flat
        log_std = np.log(rng.uniform(0.1, 0.3, size=a))
        idx = np.arange(m)
        _, g_flat, g_ls = policy_loss_and_grad(sizes, flat, log_std, batch,
                                               idx, 0.3, 0.2)

        def f(fl, ls):
            loss, _, _ = policy_loss_and_grad(sizes, fl, ls, batch, idx,
                                              0.3, 0.2)
            return loss

        eps = 1e-5
        sample = rng.choice(flat.size, size=min(60, flat.size), replace=False)
        fd = np.empty(sample.size + log_std.size)
        an = np.empty(sample.size + log_std.size)
        for s, k in enumerate(sample):
            p = flat.copy()
            p[k] += eps
            up = f(p, log_std)
            p[k] -= 2 * eps
            fd[s] = (up - f(p, log_std)) / (2 * eps)
            an[s] = g_flat[k]
        for k in range(log_std.size):
            ls = log_std.copy()
            ls[k] += eps
            up = f(flat, ls)
            ls[k] -= 2 * eps
            fd[sample.size + k] = (up - f(flat, ls)) / (2 * eps)
            an[sample.size + k] = g_ls[k]
        rel = float(np.linalg.norm(an - fd) / np.linalg.norm(fd))
        worst = max(worst, rel)
    ok = worst < 1e-4
    criterion_report(10, ok,
                     f"analytic vs central finite-difference gradient, worst "
                     f"relative error {worst:.2e} < 1e-4 over 3 network shapes")


def test_criterion_11_trained_policy(criterion_report, tmp_path_factory):
    _, topo = _topology(CYC101)
    params = SystemParams()
    cem = CemConfig(population=24, iterations=30, eval_episodes=4,
                    hidden=(16, 16))
    best, _ = cem_train(topo, params, 5.0, HORIZON, cem, seed=ACCEPT_SEED)
    ckpt = tmp_path_factory.mktemp("accept") / "checkpoint.json"
    save_policy_parameters(best, ckpt)
    mfr_spec = {"kind": "mfr", "checkpoint": str(ckpt), "name": "mfr"}

    mfr = _cell(CYC101, mfr_spec, 5.0)
    jsq = _cell(CYC101, "jsq", 5.0)
    rnd = _cell(CYC101, "rnd", 5.0)
    own = _cell(CYC101, "own", 5.0)
    thr = _cell(CYC101, "threshold", 5.0)

    stretch = (mfr.mean_drops <= jsq.mean_drops
               and mfr.mean_drops <= rnd.mean_drops
               and (_separated(mfr, jsq) or _separated(mfr, rnd)))
    floor = thr.mean_drops < own.mean_drops
    ok = stretch and floor
    criterion_report(11, ok,
                     f"trained policy {mfr.mean_drops:.2f} <= jsq "
                     f"{jsq.mean_drops:.2f} and rnd {rnd.mean_drops:.2f} "
                     f"(CI-separated from at least one); floor: threshold "
                     f"{thr.mean_drops:.2f} < own {own.mean_drops:.2f}")


def test_criterion_12_determinism(criterion_report, tmp_path_factory):
    base = tmp_path_factory.mktemp("determinism")
    cfg = ExperimentConfig()
    cfg.topologies = [CYC9]
    cfg.policies = ["jsq", "own"]
    cfg.delta_ts = [1.0]
    cfg.episodes = 4
    cfg.horizon = 10
    cfg.seed = ACCEPT_SEED
    sweep(cfg, out_dir=base / "a")
    sweep(cfg, out_dir=base / "b")
    sweep_same = ((base / "a" / "results.csv").read_bytes()
                  == (base / "b" / "results.csv").read_bytes()
                  and (base / "a" / "results.json").read_bytes()
                  == (base / "b" / "results.json").read_bytes())

    _, topo = _topology(CYC9)
    params = SystemParams()
    tcfg = TrainerConfig(batch_size=16, minibatch_size=8, sgd_iters=1,
                         epochs=2, hidden=(4,), eval_episodes=1)
    train(topo, params, 1.0, 8, tcfg, seed=ACCEPT_SEED, out_dir=base / "p1")
    train(topo, params, 1.0, 8, tcfg, seed=ACCEPT_SEED, out_dir=base / "p2")
    ppo_same = ((base / "p1" / "checkpoint.json").read_bytes()
                == (base / "p2" / "checkpoint.json").read_bytes()
                and (base / "p1" / "curve.csv").read_bytes()
                == (base / "p2" / "curve.csv").read_bytes())

    ccfg = CemConfig(population=4, iterations=2, eval_episodes=2, hidden=(4,))
    cem_train(topo, params, 1.0, 8, ccfg, seed=ACCEPT_SEED, out_dir=base / "c1")
    cem_train(topo, params, 1.0, 8, ccfg, seed=ACCEPT_SEED, out_dir=base / "c2")
    cem_same = ((base / "c1" / "checkpoint.json").read_bytes()
                == (base / "c2" / "checkpoint.json").read_bytes())

    ok = sweep_same and ppo_same and cem_same
    criterion_report(12, ok,
                     f"repeat runs bit-identical: sweep files {sweep_same}, "
                     f"policy-gradient outputs {ppo_same}, cross-entropy "
                     f"checkpoint {cem_same}")
