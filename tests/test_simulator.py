from __future__ import annotations

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from sparselb.kernel import effective_rates, epoch_law_table, expected_drops_table
from sparselb.policies import OwnPolicy, RndPolicy, StaticZetaPolicy, threshold_zeta
from sparselb.simulator import (DecisionProfile, EpochOutcome, Episode,
                                SystemParams, empirical_distribution, init_queues,
                                profile_rates, run_epoch, run_episode,
                                simulate_queue_bank)
from sparselb.simulator import WALK, _fill_class, _walk_key, _walk_table
from sparselb.topology import build_cyc1d, from_edges

from reference_engine import gillespie_epoch, reference_epochs


def test_empirical_distribution_example():
    queues = np.array([0, 1, 1, 5, 5, 5])
    want = np.array([1, 2, 0, 0, 0, 3]) / 6.0
    assert np.array_equal(empirical_distribution(queues, 5), want)


def test_empirical_distribution_validation():
    with pytest.raises(ValueError):
        empirical_distribution(np.array([0, 7]), 5)
    with pytest.raises(ValueError):
        empirical_distribution(np.array([], dtype=int), 5)


def test_empirical_distribution_rejects_fractional_fills():
    # the engines' input check: fills are integers, never truncated
    with pytest.raises(ValueError):
        empirical_distribution([0.5, 1.7], 5)
    with pytest.raises(ValueError):
        empirical_distribution(np.array([[0, 1], [2, 3]]), 5)


def test_system_params_validation():
    with pytest.raises(ValueError):
        SystemParams(buffer=0)
    # a float buffer (say 5.0 from a JSON config) used to pass here and
    # fail in the first episode's bincount
    for bad in (5.0, 2.5, "5"):
        with pytest.raises(ValueError, match="buffer"):
            SystemParams(buffer=bad)
    assert SystemParams(buffer=np.int64(5)).buffer == 5
    with pytest.raises(ValueError):
        SystemParams(start_distribution=(0.5, 0.2))
    p = SystemParams(service_rate=(1.0, 2.0, 1.0))
    assert np.array_equal(p.service_rates(3), np.array([1.0, 2.0, 1.0]))
    with pytest.raises(ValueError):
        p.service_rates(4)


def test_decision_profile_validation():
    with pytest.raises(ValueError):
        DecisionProfile()
    with pytest.raises(ValueError):
        DecisionProfile(offload=np.zeros(3), targets=np.zeros(3, dtype=int))


def test_profile_rates_targets():
    topo = build_cyc1d(5)
    targets = np.array([1, 1, 1, 4, 4])
    rates = profile_rates(DecisionProfile(targets=targets), topo, 0.5)
    assert np.array_equal(rates, 0.5 * np.array([0, 3, 0, 0, 2]))


def test_profile_rates_offload_matches_kernel():
    topo = build_cyc1d(7)
    rng = np.random.default_rng(2)
    a = rng.random(7)
    got = profile_rates(DecisionProfile(offload=a), topo, 0.9)
    assert np.array_equal(got, effective_rates(topo, a, 0.9))


def engine_epoch(engine, *args):
    """(next_queues, drops, arrivals, services) of one ``run_epoch`` or one
    reference-engine epoch."""
    if engine == "reference":
        return gillespie_epoch(*args)
    out = run_epoch(*args)
    assert isinstance(out, EpochOutcome)
    return out.next_queues, out.drops, out.arrivals, out.services


@pytest.mark.parametrize("engine", ["bank", "reference"])
def test_flow_conservation(engine):
    topo = build_cyc1d(9)
    params = SystemParams()
    mu = params.service_rates(9)
    rng = np.random.default_rng(31)
    for trial in range(20):
        q0 = rng.integers(0, 6, size=9)
        a = rng.random(9)
        nq, drops, arrivals, services = engine_epoch(
            engine, q0, DecisionProfile(offload=a), topo, 0.9, mu, 5, 3.0, rng)
        balance = q0 + arrivals - services - drops - nq
        assert np.all(balance == 0)
        assert np.all(nq >= 0)
        assert np.all(nq <= 5)
        if engine == "reference":
            continue
        # run_epoch records the rates the epoch ran at, for either profile kind
        targets = DecisionProfile(targets=rng.integers(0, 9, size=9))
        for profile in (DecisionProfile(offload=a), targets):
            out = run_epoch(q0, profile, topo, 0.9, mu, 5, 3.0, rng)
            assert np.array_equal(out.arrival_rates, profile_rates(profile, topo, 0.9))


@pytest.mark.parametrize("engine", ["bank", "reference"])
def test_zero_traffic_drains(engine):
    topo = build_cyc1d(6)
    mu = np.ones(6)
    q0 = np.array([5, 4, 3, 2, 1, 0])
    nq, drops, arrivals, services = engine_epoch(
        engine, q0, DecisionProfile(offload=np.zeros(6)), topo, 0.0, mu, 5, 60.0,
        np.random.default_rng(4))
    assert arrivals.sum() == 0
    assert drops.sum() == 0
    assert nq.sum() == 0
    assert services.sum() == q0.sum()


def test_drops_attributed_to_receiving_queue():
    # all queues full and frozen (no service): every arrival is dropped where
    # it lands, and with zero offload that is the scheduler's own queue
    topo = build_cyc1d(5)
    q0 = np.full(5, 3)
    out = run_epoch(q0, DecisionProfile(offload=np.zeros(5)), topo, 1.0,
                    np.zeros(5), 3, 5.0, np.random.default_rng(8))
    assert np.array_equal(out.drops, out.arrivals)
    assert np.array_equal(out.next_queues, q0)
    assert out.drops.sum() > 0


def test_run_epoch_rejects_bad_delta_t():
    topo = build_cyc1d(3)
    with pytest.raises(ValueError):
        run_epoch(np.zeros(3, dtype=int), DecisionProfile(offload=np.zeros(3)),
                  topo, 0.9, np.ones(3), 5, 0.0, np.random.default_rng(0))


def test_run_epoch_rejects_bad_targets():
    topo = build_cyc1d(4)
    good = np.array([1, 0, 3, 3])
    for bad in (np.array([1, 0, 3, -1]), np.array([1, 0, 3, 4]),
                np.array([1.7, 0.0, 3.0, 3.0]), np.array([1, 0, 3]),
                np.array([[1, 0, 3, 3]])):
        with pytest.raises(ValueError, match="targets"):
            run_epoch(np.zeros(4, dtype=int), DecisionProfile(targets=bad), topo,
                      0.9, np.ones(4), 5, 1.0, np.random.default_rng(0))
    out = run_epoch(np.zeros(4, dtype=int), DecisionProfile(targets=good), topo,
                    0.9, np.ones(4), 5, 1.0, np.random.default_rng(0))
    assert out.arrivals[2] == 0


def test_run_epoch_rejects_bad_offload():
    topo = build_cyc1d(4)
    for bad in (np.array([0.2, 1.5, 0.0, -0.3]), np.array([0.2, np.nan, 0.0, 0.0]),
                np.full(3, 0.5), np.full((1, 4), 0.5)):
        with pytest.raises(ValueError, match="offload"):
            run_epoch(np.zeros(4, dtype=int), DecisionProfile(offload=bad), topo,
                      0.9, np.ones(4), 5, 1.0, np.random.default_rng(0))


def test_run_epoch_rejects_bad_start_queues():
    topo = build_cyc1d(3)
    profile = DecisionProfile(offload=np.zeros(3))
    for bad in ([9, -2, 3], [0, 6, 0], [0, -1, 0], np.array([0.0, 1.0, 2.0]),
                [[0, 1, 2]], [0, 1], np.array([0, 1, 2**64 - 1], dtype=np.uint64)):
        with pytest.raises(ValueError, match="queue"):
            run_epoch(bad, profile, topo, 0.5, np.ones(3), 5, 3.0,
                      np.random.default_rng(0))
    for mu in (1.0, np.ones(2)):
        with pytest.raises(ValueError, match="rate per queue"):
            run_epoch([0, 1, 2], profile, topo, 0.5, mu, 5, 3.0,
                      np.random.default_rng(0))
    for lam in (0.5, [0.5] * 2, [[0.5] * 3]):
        with pytest.raises(ValueError, match="rate per queue"):
            simulate_queue_bank([0, 1, 2], lam, [1.0] * 3, 5, 3.0,
                                np.random.default_rng(0))


def test_queue_bank_rejects_negative_rates():
    # a negative rate under a larger other rate used to run: a negative
    # arrival rate as a queue with no arrivals, a negative service rate as
    # one whose every tick is an arrival
    q = np.zeros(3, dtype=np.int64)
    for lam, mu in (([0.5, -0.5, 0.5], [1.0] * 3), ([0.5] * 3, [1.0, -0.2, 1.0])):
        with pytest.raises(ValueError, match="nonnegative"):
            simulate_queue_bank(q, lam, mu, 5, 10.0, np.random.default_rng(0))
    with pytest.raises(ValueError, match="nonnegative"):
        simulate_queue_bank(np.zeros((2, 3), dtype=np.int64), [[0.5] * 3, [-0.5] * 3],
                            np.ones((2, 3)), 5, 10.0, [np.random.default_rng(0)] * 2)


def test_offload_array_accepted_directly():
    topo = build_cyc1d(4)
    out = run_epoch(np.zeros(4, dtype=int), DecisionProfile(offload=np.full(4, 0.5)),
                    topo, 0.9, np.ones(4), 5, 1.0, np.random.default_rng(1))
    assert np.all(out.next_queues >= 0)


def test_queue_bank_matches_kernel_marginal():
    # one frozen queue replicated many times against the exact epoch law
    lam, mu, b, dt, z0 = 0.8, 1.0, 4, 2.0, 1
    reps = 40_000
    rng = np.random.default_rng(12)
    q0 = np.full(reps, z0)
    nq, drops, _, _ = simulate_queue_bank(q0, np.full(reps, lam),
                                          np.full(reps, mu), b, dt, rng)
    law = epoch_law_table(lam, mu, b, dt)[0][:, z0]
    emp = np.bincount(nq, minlength=b + 1) / reps
    assert 0.5 * np.abs(emp - law).sum() < 0.01
    want = expected_drops_table(lam, mu, b, dt)[0, z0]
    se = drops.std(ddof=1) / np.sqrt(reps)
    assert abs(drops.mean() - want) < 3.0 * se + 1e-12


@pytest.mark.parametrize("seed, lam, mu, b, dt, z0", [
    (0, 0.8, 1.0, 4, 2.0, 1),       # one walk step, mostly short walks
    (1, 0.9, 0.0, 5, 3.0, 3),       # no service: every tick is an arrival
    (2, 6.0, 0.5, 5, 2.0, 5),       # arrivals far above service, start full
    (3, 0.9, 1.0, 5, 10.0, 0),      # start empty, several walk steps
    (4, 1.5, 1.0, 20, 10.0, 20),    # start full, a buffer past 2 * WALK
])
def test_queue_bank_law_at_every_walk_position(seed, lam, mu, b, dt, z0):
    # one queue replicated 40000 times among 40000 queues at random rates
    # and fills, so its copies sit at every position of the walk order and
    # share their uniform blocks with others: the copies must follow the
    # exact epoch law (TV < 0.01) and drop mean (|z| < 4)
    copies = 40_000
    rng = np.random.default_rng(seed)
    is_copy = rng.permutation(2 * copies) < copies
    q0 = rng.integers(0, b + 1, size=2 * copies)
    lam_v = rng.uniform(0.0, 2.0 * (lam + mu), size=2 * copies)
    mu_v = rng.uniform(0.0, lam + mu, size=2 * copies)
    q0[is_copy], lam_v[is_copy], mu_v[is_copy] = z0, lam, mu
    nq, drops, _, _ = simulate_queue_bank(q0, lam_v, mu_v, b, dt, rng)
    law = epoch_law_table(lam, mu, b, dt)[0][:, z0]
    emp = np.bincount(nq[is_copy], minlength=b + 1) / copies
    assert 0.5 * np.abs(emp - law).sum() < 0.01
    d = drops[is_copy]
    want = expected_drops_table(lam, mu, b, dt)[0, z0]
    assert abs(d.mean() - want) < 4.0 * d.std(ddof=1) / np.sqrt(copies) + 1e-12


@pytest.mark.parametrize("lam, mu", [
    (1 / 256, 255 / 256),           # p = 1/256: a tie is never an arrival
    (100 / 256, 156 / 256),         # p = 100/256
    (255 / 256, 1 / 256),           # p = 255/256, the top threshold
    (0.5 / 256, 255.5 / 256),       # p = (0 + 1/2)/256: only ties arrive
    (127.5 / 256, 128.5 / 256),     # p = (127 + 1/2)/256
    (255.5 / 256, 0.5 / 256),       # p = (255 + 1/2)/256
    (1 - 2.0**-30, 2.0**-30),       # p just below 1
    (0.0, 1.0),                     # no arrivals
    (1.0, 0.0),                     # no service: every tick is an arrival
])
def test_queue_bank_law_on_the_tie_path(lam, mu):
    # 40000 copies of one queue at arrival fractions where a word's byte
    # ties its threshold, or only a tie can arrive: the arrival frequency
    # per tick is p within |z| < 4 (exact at p = 0 and 1), and the fills
    # and drops follow the exact epoch law (TV < 0.01, drop mean |z| < 4)
    copies, b, dt, z0 = 40_000, 5, 10.0, 2
    nq, drops, arrivals, services = simulate_queue_bank(
        np.full(copies, z0), np.full(copies, lam), np.full(copies, mu), b, dt,
        np.random.default_rng(17))
    p = lam / (lam + mu)
    # the tick counts are the call's first draw; the ticks that are neither
    # arrivals nor services are idle service attempts at an empty queue
    ticks = np.random.default_rng(17).poisson(np.full(copies, (lam + mu) * dt))
    assert np.all(ticks - arrivals - services >= 0)
    a, t = arrivals.sum(), ticks.sum()
    if p in (0.0, 1.0):
        assert a == p * t
    else:
        assert abs(a - p * t) < 4.0 * np.sqrt(t * p * (1 - p))
    law = epoch_law_table(lam, mu, b, dt)[0][:, z0]
    assert 0.5 * np.abs(np.bincount(nq, minlength=b + 1) / copies - law).sum() < 0.01
    # drops are rare at small p: a count's variance is at least about its mean
    want = expected_drops_table(lam, mu, b, dt)[0, z0]
    assert abs(drops.mean() - want) <= 4.0 * np.sqrt(max(drops.var(ddof=1), want) / copies)


@pytest.mark.parametrize("make", [
    lambda: np.random.Generator(np.random.MT19937(3)),
    lambda: np.random.RandomState(3),
    lambda: 3,
    lambda: None,
])
def test_queue_bank_rejects_a_generator_without_64_bit_words(make):
    # a walk step reads 64 random bits from one raw word of the bit
    # generator; MT19937's raw words hold 32, and anything but a numpy
    # Generator has none: each is refused loudly, also as a bank row
    q, lam = np.zeros(3, dtype=np.int64), np.ones(3)
    with pytest.raises(ValueError, match="Generator|raw words"):
        simulate_queue_bank(q, lam, lam, 5, 1.0, make())
    with pytest.raises(ValueError, match="Generator|raw words"):
        simulate_queue_bank(np.stack([q, q]), np.stack([lam, lam]), np.stack([lam, lam]),
                            5, 1.0, [np.random.default_rng(0), make()])
    with pytest.raises(ValueError, match="sequence of E generators"):
        simulate_queue_bank(np.stack([q, q]), np.stack([lam, lam]), np.stack([lam, lam]),
                            5, 1.0, np.random.default_rng(0))


@pytest.mark.parametrize("bits", [np.random.PCG64DXSM, np.random.Philox, np.random.SFC64])
def test_queue_bank_law_on_other_64_bit_generators(bits):
    # the other bit generators with 64-bit raw words drive the same law
    copies, lam, mu, b, dt, z0 = 40_000, 0.8, 1.0, 4, 2.0, 1
    nq, drops, arrivals, services = simulate_queue_bank(
        np.full(copies, z0), np.full(copies, lam), np.full(copies, mu), b, dt,
        np.random.Generator(bits(5)))
    law = epoch_law_table(lam, mu, b, dt)[0][:, z0]
    assert 0.5 * np.abs(np.bincount(nq, minlength=b + 1) / copies - law).sum() < 0.01
    want = expected_drops_table(lam, mu, b, dt)[0, z0]
    assert abs(drops.mean() - want) < 4.0 * drops.std(ddof=1) / np.sqrt(copies) + 1e-12


def test_engines_agree_in_distribution():
    # same frozen profile on a 3-cycle: per-queue marginals and drop means
    topo = build_cyc1d(3)
    a = np.array([0.3, 0.7, 1.0])
    mu = np.ones(3)
    q0 = np.array([2, 0, 4])
    b, dt, lam = 4, 1.0, 0.9
    reps = 20_000
    bank_states = np.zeros((reps, 3), dtype=np.int64)
    ref_states = np.zeros((reps, 3), dtype=np.int64)
    bank_drops = np.zeros(reps)
    ref_drops = np.zeros(reps)
    rng_a = np.random.default_rng(100)
    rng_b = np.random.default_rng(200)
    prof = DecisionProfile(offload=a)
    for r in range(reps):
        out = run_epoch(q0, prof, topo, lam, mu, b, dt, rng_a)
        bank_states[r] = out.next_queues
        bank_drops[r] = out.drops.sum()
        nq, drops, _, _ = gillespie_epoch(q0, prof, topo, lam, mu, b, dt, rng_b)
        ref_states[r] = nq
        ref_drops[r] = drops.sum()
    for i in range(3):
        pa = np.bincount(bank_states[:, i], minlength=b + 1) / reps
        pb = np.bincount(ref_states[:, i], minlength=b + 1) / reps
        assert 0.5 * np.abs(pa - pb).sum() < 0.02
    se = np.sqrt(bank_drops.var(ddof=1) / reps + ref_drops.var(ddof=1) / reps)
    assert abs(bank_drops.mean() - ref_drops.mean()) < 4.0 * se + 1e-12


def test_reference_holding_times_exponential():
    # with services disabled the total event rate is constantly n * lam, so
    # every drawn waiting time must be Exp(n * lam)
    topo = build_cyc1d(3)
    lam = 0.9
    times: list = []
    rng = np.random.default_rng(77)
    q0 = np.zeros(3, dtype=np.int64)
    prof = DecisionProfile(offload=np.zeros(3))
    for _ in range(4000):
        gillespie_epoch(q0, prof, topo, lam, np.zeros(3), 50, 1.0, rng,
                        holding_out=times)
    res = stats.kstest(np.asarray(times), "expon", args=(0.0, 1.0 / (3 * lam)))
    assert res.pvalue > 0.01


def test_reference_thinning_per_queue_poisson():
    # arrivals routed per packet look Poisson at the effective rates
    topo = build_cyc1d(3)
    a = np.array([0.3, 0.7, 1.0])
    lam, dt = 1.0, 1.0
    want = effective_rates(topo, a, lam) * dt
    rng = np.random.default_rng(13)
    reps = 6000
    counts = np.zeros((reps, 3), dtype=np.int64)
    prof = DecisionProfile(offload=a)
    q0 = np.zeros(3, dtype=np.int64)
    for r in range(reps):
        _, _, arrivals, _ = gillespie_epoch(q0, prof, topo, lam, np.zeros(3),
                                            50, dt, rng)
        counts[r] = arrivals
    for i in range(3):
        mean = counts[:, i].mean()
        se = counts[:, i].std(ddof=1) / np.sqrt(reps)
        assert abs(mean - want[i]) < 4.0 * se + 1e-12
        # chi-square against the Poisson pmf, tail binned together
        kmax = 6
        obs = np.bincount(np.minimum(counts[:, i], kmax), minlength=kmax + 1)
        pmf = stats.poisson.pmf(np.arange(kmax), want[i])
        probs = np.append(pmf, 1.0 - pmf.sum())
        res = stats.chisquare(obs, probs * reps)
        assert res.pvalue > 1e-3


def test_run_episode_shapes_and_totals():
    topo = build_cyc1d(9)
    params = SystemParams()
    res = run_episode(topo, RndPolicy(), 50, 5.0, params, seed=3)
    assert res.drop_counts.shape == (50,)
    assert res.distributions.shape == (51, 6)
    assert np.allclose(res.distributions.sum(axis=1), 1.0)
    for per_epoch in (res.arrivals, res.services, res.rates):
        assert per_epoch.shape == (50,)
    assert res.total_drops == float((res.drop_counts / 9).sum())
    assert set(np.unique(res.rates)) <= {0.6, 0.9}
    assert res.distributions[0, 0] == 1.0  # starts empty


def test_run_episode_deterministic():
    topo = build_cyc1d(9)
    params = SystemParams()
    a = run_episode(topo, OwnPolicy(), 30, 2.0, params, seed=9)
    b = run_episode(topo, OwnPolicy(), 30, 2.0, params, seed=9)
    assert np.array_equal(a.drop_counts, b.drop_counts)
    assert np.array_equal(a.distributions, b.distributions)
    c = run_episode(topo, OwnPolicy(), 30, 2.0, params, seed=10)
    assert not np.array_equal(a.drop_counts, c.drop_counts)


def test_run_episode_trace():
    # the per-epoch record balances: arrivals = drops + services + the
    # change of the total queue content read from the distributions
    topo = build_cyc1d(5)
    res = run_episode(topo, StaticZetaPolicy(threshold_zeta(5)), 8, 1.0,
                      SystemParams(), seed=1)
    content = np.rint(5 * res.distributions @ np.arange(6)).astype(np.int64)
    assert np.array_equal(res.arrivals - res.drop_counts - res.services,
                          np.diff(content))
    assert res.arrivals.sum() > 0 and res.services.sum() > 0


def test_init_queues_start_distribution():
    params = SystemParams(start_distribution=(0.0, 0.0, 0.0, 0.0, 0.0, 1.0))
    q = init_queues(params, 40, np.random.default_rng(0))
    assert np.all(q == 5)
    empty = init_queues(SystemParams(), 40, np.random.default_rng(0))
    assert np.all(empty == 0)


rates = st.one_of(st.just(0.0), st.floats(0.05, 2.0))


@st.composite
def small_systems(draw):
    """A small graph (possibly with isolated nodes), parameters and profiles."""
    linked = draw(st.integers(0, 6))
    n = linked + draw(st.integers(1 if linked < 2 else 0, 2))
    pairs = [(i, j) for i in range(linked) for j in range(i + 1, linked)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True)) if pairs else []
    buffer = draw(st.integers(1, 6))
    rate_high = draw(rates)
    start = None
    if draw(st.booleans()):
        start = tuple(np.full(buffer + 1, 1.0 / (buffer + 1)))
    params = SystemParams(
        buffer=buffer,
        service_rate=tuple(draw(st.lists(rates, min_size=n, max_size=n))),
        rate_high=rate_high,
        rate_low=rate_high * draw(st.floats(0.0, 1.0)),
        p_high_to_low=draw(st.floats(0.0, 1.0)),
        p_low_to_high=draw(st.floats(0.0, 1.0)),
        start_distribution=start)
    profiles = []
    for _ in range(draw(st.integers(1, 3))):
        if draw(st.booleans()):
            offload = draw(st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n))
            profiles.append(DecisionProfile(offload=np.asarray(offload)))
        else:
            targets = draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))
            profiles.append(DecisionProfile(targets=np.asarray(targets)))
    return (from_edges(n, edges), params, draw(st.floats(0.05, 4.0)), profiles,
            draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=50, deadline=None)
@given(small_systems())
def test_episode_conserves_packets_per_queue(system):
    # every arrival at a queue is dropped, stored or served within the epoch
    topo, params, delta_t, profiles, seed = system

    def check(start, nq, drops, arrivals, services):
        assert np.array_equal(arrivals, drops + (nq - start) + services)
        assert np.all((nq >= 0) & (nq <= params.buffer))
        assert np.all(drops <= arrivals)

    ep = Episode(topo, params, delta_t)
    ep.reset(seed)
    for profile in profiles:
        start = ep.queues.copy()
        out = ep.advance(profile)
        check(start, out.next_queues, out.drops, out.arrivals, out.services)
        assert ep.queues is out.next_queues
    assert ep.epoch == len(profiles)
    rules = [lambda q, p=p: p for p in profiles]
    for start, counts in reference_epochs(topo, params, delta_t, seed, rules):
        check(start, *counts)


def bank_oracle(queues, arrival_rates, service_rates, buffer, delta_t, rng):
    """Per-tick reading of the bank's random stream: the tick counts, then
    for each step s = 0, WALK, ... one raw 64-bit word for each of the m
    queues with more than s ticks, in the order of descending tick count
    (ties in input order), then one uniform for each byte of those words
    that equals its queue's threshold t = min(floor(256 p), 255), queue by
    queue in that order and byte by byte.  Byte r of a word is
    (word >> 8r) & 255 and decides tick s + r: an arrival iff it is below
    t, or it equals t and its uniform is below 256 p - t.  Each tick then
    masks all n queues."""
    q = np.asarray(queues, dtype=np.int64).copy()
    lam = np.asarray(arrival_rates, dtype=np.float64)
    mu = np.asarray(service_rates, dtype=np.float64)
    n = q.size
    total = lam + mu
    drops = np.zeros(n, dtype=np.int64)
    arrivals = np.zeros(n, dtype=np.int64)
    services = np.zeros(n, dtype=np.int64)
    counts = rng.poisson(total * delta_t)
    kmax = int(counts.max()) if n else 0
    if kmax == 0:
        return q, drops, arrivals, services
    p = np.divide(lam, total, out=np.zeros_like(lam), where=total > 0)
    t = np.minimum(np.floor(256 * p), 255)
    order = np.argsort(-counts, kind="stable")
    one = np.int64(1)
    for s0 in range(0, kmax, WALK):
        m = int(np.count_nonzero(counts > s0))
        words = [int(w) for w in rng.bit_generator.random_raw(m)]
        up = np.zeros((WALK, n), dtype=bool)
        for i, word in zip(order[:m], words):
            for r in range(WALK):
                byte = word >> (8 * r) & 255
                if byte == t[i]:
                    up[r, i] = rng.random() < 256 * p[i] - t[i]
                else:
                    up[r, i] = byte < t[i]
        for s in range(s0, s0 + WALK):
            live = counts > s
            arr = live & up[s - s0]
            svc = live & ~arr
            full = q >= buffer
            hit = arr & full
            grow = arr & ~full
            shrink = svc & (q > 0)
            np.add(drops, one, out=drops, where=hit)
            np.add(arrivals, one, out=arrivals, where=arr)
            np.add(services, one, out=services, where=shrink)
            np.add(q, one, out=q, where=grow)
            np.subtract(q, one, out=q, where=shrink)
    return q, drops, arrivals, services


def assert_bank_matches_oracle(queues, lam, mu, buffer, delta_t, seed):
    rng_a, rng_b = np.random.default_rng(seed), np.random.default_rng(seed)
    got = simulate_queue_bank(queues, lam, mu, buffer, delta_t, rng_a)
    want = bank_oracle(queues, lam, mu, buffer, delta_t, rng_b)
    for g, w in zip(got, want):
        assert g.dtype == w.dtype and np.array_equal(g, w)
    assert rng_a.bit_generator.state == rng_b.bit_generator.state


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_queue_bank_matches_oracle(data):
    n = data.draw(st.integers(1, 40))
    buffer = data.draw(st.sampled_from([1, 2, 5, 7, 8, 9, 16, 17, 126, 127, 128, 200]))
    vec = st.lists(rates, min_size=n, max_size=n)
    assert_bank_matches_oracle(
        data.draw(st.lists(st.integers(0, buffer), min_size=n, max_size=n)),
        data.draw(vec), data.draw(vec), buffer, data.draw(st.floats(0.01, 40.0)),
        data.draw(st.integers(0, 2**32 - 1)))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_queue_bank_rows_match_one_row_oracle(data):
    # one (E, n) call is E one-row calls, row e on rng[e]: the same four
    # outputs and every generator left where the one-row oracle leaves it.
    # Each row scales its rates, so rows reach different largest tick
    # counts and a row of scale 0 has no ticks at all.
    rows, n = data.draw(st.integers(1, 6)), data.draw(st.integers(1, 40))
    buffer = data.draw(st.sampled_from([1, 5, 17, 200]))
    delta_t = data.draw(st.floats(0.01, 40.0))
    vec = st.lists(rates, min_size=n, max_size=n)
    queues = np.array([data.draw(st.lists(st.integers(0, buffer), min_size=n,
                                          max_size=n)) for _ in range(rows)])
    scale = np.array([data.draw(st.sampled_from([0.0, 0.1, 1.0, 4.0]))
                      for _ in range(rows)])[:, None]
    lam = scale * np.array([data.draw(vec) for _ in range(rows)])
    mu = scale * np.array([data.draw(vec) for _ in range(rows)])
    seeds = data.draw(st.lists(st.integers(0, 2**32 - 1), min_size=rows, max_size=rows))
    gens = [np.random.default_rng(s) for s in seeds]
    got = simulate_queue_bank(queues, lam, mu, buffer, delta_t, gens)
    for e, seed in enumerate(seeds):
        ref = np.random.default_rng(seed)
        want = bank_oracle(queues[e], lam[e], mu[e], buffer, delta_t, ref)
        for g, w in zip(got, want):
            assert g.shape == queues.shape and g.dtype == w.dtype
            assert np.array_equal(g[e], w)
        assert gens[e].bit_generator.state == ref.bit_generator.state


def test_queue_bank_rows_need_one_generator_and_rate_each():
    q, lam = np.zeros((2, 3), dtype=np.int64), np.ones((2, 3))
    gens = [np.random.default_rng(0), np.random.default_rng(1)]
    with pytest.raises(ValueError, match="generator per row"):
        simulate_queue_bank(q, lam, lam, 5, 1.0, gens[:1])
    with pytest.raises(ValueError, match="rate per queue"):
        simulate_queue_bank(q, lam, np.ones(3), 5, 1.0, gens)
    with pytest.raises(ValueError, match="rate per queue"):
        simulate_queue_bank(q, lam.ravel(), lam, 5, 1.0, gens)


@pytest.mark.parametrize("buffer", [1, 5])
@pytest.mark.parametrize("n", [1, 7])
@pytest.mark.parametrize("kmax", [0, 1, WALK, WALK + 1, 2 * WALK, 2 * WALK + 1])
def test_queue_bank_matches_oracle_at_chunk_edges(kmax, n, buffer):
    # the first seed whose largest tick count is exactly kmax, at the edges
    # of the WALK-tick blocks of uniforms; n=7 includes a queue with no
    # arrivals, one with no service and one with neither
    lam = np.array([0.9, 0.0, 1.5, 0.4, 0.0, 2.0, 0.7])[:n]
    mu = np.array([1.0, 1.0, 0.0, 0.5, 0.0, 1.0, 1.0])[:n]
    total = lam + mu
    delta_t = max(kmax, 0.1) / total.max()
    seed = next(s for s in range(10_000)
                if np.random.default_rng(s).poisson(total * delta_t).max() == kmax)
    queues = np.random.default_rng(seed + 1).integers(0, buffer + 1, size=n)
    assert_bank_matches_oracle(queues, lam, mu, buffer, delta_t, seed)


@pytest.mark.parametrize("buffer", [126, 127, 128, 32766, 32767, 32768])
def test_queue_bank_drops_at_a_full_buffer(buffer):
    # the walk must hold buffer + 1: queues start full or one short and
    # mostly see arrivals, so every buffer here drops on most ticks
    queues = np.array([buffer, buffer, buffer - 1, 0, buffer])
    lam, mu = np.array([3.0, 3.0, 3.0, 3.0, 0.0]), np.array([0.1, 0.0, 0.1, 0.1, 1.0])
    assert_bank_matches_oracle(queues, lam, mu, buffer, 5.0, 3)
    nq, drops, _, _ = simulate_queue_bank(queues, lam, mu, buffer, 5.0,
                                          np.random.default_rng(3))
    assert drops[:3].min() > 0 and nq[1] == buffer


@pytest.mark.parametrize("buffer", [1, 5, 8, 16, 17, 32767])
def test_walk_table_matches_brute_force(buffer):
    # walk every start fill through every arrival pattern one tick at a
    # time: after r + 1 ticks it must read the entry for r + 1 live ticks,
    # both at the key _walk_key gives and at the engine's base[fill] form
    dfill, tally, base = _walk_table(buffer)
    pattern = np.arange(256)
    for lo in range(0, buffer + 1, 4096):
        start = np.arange(lo, min(lo + 4096, buffer + 1))[:, None]
        fill = np.repeat(start, 256, axis=1)
        drops, idle = np.zeros_like(fill), np.zeros_like(fill)
        for r in range(WALK):
            arrive = (pattern >> r & 1).astype(bool)
            full, empty = fill == buffer, fill == 0
            drops += arrive & full
            idle += ~arrive & empty
            fill = fill + (arrive & ~full) - (~arrive & ~empty)
            key = _walk_key(_fill_class(start, buffer), r + 1, pattern)
            assert np.array_equal(key, base[start] + ((r + 1 - WALK) << 8) + pattern)
            assert np.array_equal(dfill[key], fill - start)
            assert np.array_equal(tally[key], drops + (idle << 32))


def test_queue_bank_memory_is_bounded_by_the_chunk():
    # Bound, fixed before measuring: 16 * WALK * n bytes for the buffers of
    # one walk step (set for a block of float64 uniforms; a step now holds
    # one word, the byte thresholds and the arrival and tie flags, 4 bytes
    # per queue and tick); the per-queue vectors (rates, tick counts, sort
    # order, keys, lookups, tallies, outputs) stay under 256 * n bytes.
    # At dt=200 the mean tick count is 380, so one (kmax, n) float64 draw
    # alone would be ~6 MB.  A bank of E rows is
    # held to the same bound with n replaced by E * n.  The buffer's walk
    # table is a cache shared by every call, so it is built before measuring.
    n, delta_t = 2000, 200.0
    _walk_table(5)
    for rows in (None, 8):
        shape = (n,) if rows is None else (rows, n)
        size = int(np.prod(shape))
        bound = 16 * WALK * size + 256 * size
        queues, lam, mu = np.zeros(shape, dtype=np.int64), np.full(shape, 0.9), np.ones(shape)
        rng = np.random.default_rng(5)
        if rows is not None:
            rng = [np.random.default_rng([5, e]) for e in range(rows)]
        tracemalloc.start()
        try:
            simulate_queue_bank(queues, lam, mu, 5, delta_t, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < bound, (rows, peak, bound)
