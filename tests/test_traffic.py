from __future__ import annotations

import numpy as np
import pytest

from sparselb.policies import OwnPolicy
from sparselb.simulator import Episode, SystemParams
from sparselb.topology import build_cyc1d
from sparselb.traffic import regime_init, regime_step


def test_rate_property():
    # the episode's rate follows its phase: rate_high when high, else rate_low
    params = SystemParams(rate_high=0.9, rate_low=0.6)
    ep = Episode(build_cyc1d(5), params, 1.0)
    rates = set()
    for seed in range(8):
        ep.reset(seed)
        for _ in range(5):
            assert ep.rate == (0.9 if ep.high else 0.6)
            rates.add(ep.rate)
            ep.advance(OwnPolicy().profile(ep.queues, ep.topology, ep.service_rates))
    assert rates == {0.6, 0.9}


def test_validation():
    # the phase law is checked once, where the parameters are built
    with pytest.raises(ValueError):
        SystemParams(rate_high=0.5, rate_low=0.9)
    with pytest.raises(ValueError):
        SystemParams(rate_low=-0.1)
    with pytest.raises(ValueError):
        SystemParams(p_high_to_low=1.2)
    with pytest.raises(ValueError):
        SystemParams(p_low_to_high=-0.1)


def test_init_uniform_over_phases():
    rng = np.random.default_rng(7)
    highs = sum(regime_init(rng) for _ in range(10_000))
    assert 0.47 < highs / 10_000 < 0.53


def test_step_frequencies():
    rng = np.random.default_rng(11)
    n = 100_000
    from_high = sum(not regime_step(True, 0.2, 0.5, rng) for _ in range(n))
    assert abs(from_high / n - 0.2) < 0.005
    from_low = sum(regime_step(False, 0.2, 0.5, rng) for _ in range(n))
    assert abs(from_low / n - 0.5) < 0.006


def test_step_is_pure():
    # the next phase depends only on the arguments and the generator's
    # state, and each step consumes exactly one uniform
    rng = np.random.default_rng(0)
    ref = np.random.default_rng(0)
    again = np.random.default_rng(0)
    for high in (True, False, True):
        nxt = regime_step(high, 0.2, 0.5, rng)
        assert isinstance(nxt, bool)
        assert nxt == regime_step(high, 0.2, 0.5, again)
        ref.random()
    assert rng.random() == ref.random()


def test_long_run_high_fraction():
    # 1e6-step simulation concentrates near 5/7 ~ 0.714
    rng = np.random.default_rng(23)
    high = regime_init(rng)
    count = 0
    n = 1_000_000
    for _ in range(n):
        high = regime_step(high, 0.2, 0.5, rng)
        count += high
    assert abs(count / n - 5.0 / 7.0) < 0.005
