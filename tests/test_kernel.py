from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from sparselb.kernel import (EpochKernel, build_generator, effective_rates,
                             epoch_law, expected_drops, expected_drops_table)
from sparselb.topology import build_bethe, build_ccc, build_config_model, \
    build_cyc1d, build_torus, from_edges

# closed form for buffer 1, arrival = service = 1, unit epoch, empty start:
# drops = (1 + exp(-2)) / 4
DROPS_B1_BALANCED = 0.2838338208091532


def test_effective_rates_three_cycle():
    topo = build_cyc1d(3)
    rates = effective_rates(topo, np.array([1.0, 0.0, 0.0]), 1.0)
    assert np.array_equal(rates, np.array([0.0, 1.5, 1.5]))


def test_effective_rates_no_offload():
    topo = build_torus(5)
    rates = effective_rates(topo, np.zeros(25), 0.9)
    assert np.array_equal(rates, np.full(25, 0.9))


def test_effective_rates_conservation():
    rng = np.random.default_rng(17)
    topos = [build_cyc1d(51), build_ccc(4), build_torus(7),
             build_config_model(41, {2, 3}, seed=3), build_bethe(4, 3)]
    for topo in topos:
        for _ in range(50):
            a = rng.random(topo.n_nodes)
            rates = effective_rates(topo, a, 0.9)
            assert np.all(rates >= 0)
            total = float(rates.sum())
            want = 0.9 * topo.n_nodes
            assert abs(total - want) <= 1e-12 * want


def test_effective_rates_isolated_node():
    # node 2 has no neighbors; its offload request is ignored
    topo = from_edges(3, [(0, 1)])
    rates = effective_rates(topo, np.array([0.0, 0.0, 1.0]), 1.0)
    assert np.array_equal(rates, np.ones(3))


def test_effective_rates_validation():
    topo = build_cyc1d(3)
    with pytest.raises(ValueError):
        effective_rates(topo, np.array([0.5, 0.5]), 1.0)
    with pytest.raises(ValueError):
        effective_rates(topo, np.array([0.5, 0.5, 1.5]), 1.0)


def test_generator_matrix_buffer_one():
    k = build_generator(0.9, 1.0, 1)
    assert np.array_equal(k.generator, np.array([[-0.9, 1.0], [0.9, -1.0]]))


def test_generator_columns_sum_to_zero():
    k = build_generator(0.7, 1.3, 7)
    assert np.allclose(k.generator.sum(axis=0), 0.0, atol=1e-15)
    off = k.generator - np.diag(np.diag(k.generator))
    assert np.all(off >= 0)


def test_augmented_matrix_shape():
    k = build_generator(0.8, 1.0, 3)
    aug = k.augmented
    assert aug.shape == (5, 5)
    assert np.array_equal(aug[:4, :4], k.generator)
    assert np.all(aug[:, 4] == 0.0)
    assert aug[4, 3] == 0.8
    assert np.all(aug[4, :3] == 0.0)


def test_build_generator_validation():
    with pytest.raises(ValueError):
        build_generator(-0.1, 1.0, 1)
    with pytest.raises(ValueError):
        build_generator(1.0, 1.0, 0)
    with pytest.raises(ValueError):
        build_generator(1.0, 1.0, 2, epoch_length=0.0)


def test_epoch_law_two_state_analytic():
    # two-state chain: P(full at t) = lam/(lam+mu) * (1 - exp(-(lam+mu) t))
    for lam, mu, dt in [(0.7, 1.3, 2.5), (1.0, 1.0, 1.0), (0.2, 2.0, 10.0)]:
        k = build_generator(lam, mu, 1, dt)
        law = epoch_law(k, 0)
        r = lam + mu
        p_full = lam / r * (1.0 - math.exp(-r * dt))
        assert abs(law[1] - p_full) < 1e-9
        assert abs(law[0] - (1.0 - p_full)) < 1e-9


def test_epoch_law_pure_death():
    # no arrivals: P(empty at t | start full) = 1 - exp(-t)
    k = build_generator(0.0, 1.0, 1, 0.73)
    law = epoch_law(k, 1)
    assert abs(law[0] - (1.0 - math.exp(-0.73))) < 1e-12


def test_epoch_law_is_distribution():
    k = build_generator(0.9, 1.0, 5, 3.0)
    for z0 in range(6):
        law = epoch_law(k, z0)
        assert law.shape == (6,)
        assert np.all(law >= -1e-15)
        assert abs(law.sum() - 1.0) < 1e-12


def test_epoch_law_matches_scipy():
    k = build_generator(0.6, 1.1, 6, 4.0)
    want = scipy_expm(k.generator * 4.0)
    for z0 in range(7):
        assert np.allclose(epoch_law(k, z0), want[:, z0], atol=1e-10)


def test_epoch_law_balanced_long_run_uniform():
    # arrival = service makes the stationary law uniform on {0..B}
    k = build_generator(1.0, 1.0, 1, 200.0)
    assert np.allclose(epoch_law(k, 0), [0.5, 0.5], atol=1e-9)
    k3 = build_generator(1.0, 1.0, 3, 400.0)
    assert np.allclose(epoch_law(k3, 2), np.full(4, 0.25), atol=1e-9)


def test_expected_drops_closed_form():
    k = build_generator(1.0, 1.0, 1, 1.0)
    assert expected_drops(k, 0) == pytest.approx(DROPS_B1_BALANCED, abs=1e-9)


def test_expected_drops_no_arrivals():
    k = build_generator(0.0, 1.0, 4, 5.0)
    assert expected_drops(k, 4) == 0.0


def test_expected_drops_quadrature_oracle():
    # drops = lam * integral of P(full at s) ds, via Simpson on the epoch law
    lam, mu, b, dt = 0.9, 1.0, 3, 2.0
    grid = np.linspace(0.0, dt, 201)
    p_full = np.array([epoch_law(build_generator(lam, mu, b, max(s, 1e-12)), 1)[b]
                       for s in grid])
    from scipy.integrate import simpson
    want = lam * simpson(p_full, x=grid)
    got = expected_drops(build_generator(lam, mu, b, dt), 1)
    assert got == pytest.approx(want, rel=1e-6)


def test_expected_drops_monotone_in_start_state():
    for dt in (1.0, 5.0):
        k = build_generator(0.9, 1.0, 5, dt)
        vals = [expected_drops(k, z) for z in range(6)]
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]


def test_expected_drops_monotone_in_rate_and_epoch_length():
    lams = np.linspace(0.2, 2.0, 10)
    vals = [expected_drops(build_generator(lam, 1.0, 3, 2.0), 1) for lam in lams]
    assert all(b > a for a, b in zip(vals, vals[1:]))
    dts = np.linspace(0.5, 8.0, 10)
    vals = [expected_drops(build_generator(0.9, 1.0, 3, dt), 1) for dt in dts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_expected_drops_state_validation():
    k = build_generator(1.0, 1.0, 2)
    with pytest.raises(ValueError):
        expected_drops(k, 3)
    with pytest.raises(ValueError):
        epoch_law(k, -1)


def test_expected_drops_table_matches_scalar():
    # every row of the stacked table equals the scalar kernel, start state
    # by start state, including rate pairs with no arrivals or no service
    rng = np.random.default_rng(8)
    for _ in range(12):
        b = int(rng.integers(1, 8))
        dt = float(rng.uniform(0.1, 10.0))
        lam = rng.uniform(0.0, 2.0, 6)
        mu = rng.uniform(0.0, 2.0, 6)
        lam[0], mu[1], lam[2], mu[2] = 0.0, 0.0, 0.0, 0.0
        table = expected_drops_table(lam, mu, b, dt)
        assert table.shape == (6, b + 1)
        for i in range(6):
            kern = build_generator(lam[i], mu[i], b, dt)
            for z in range(b + 1):
                assert table[i, z] == pytest.approx(expected_drops(kern, z), rel=1e-12)


def test_expected_drops_table_validation():
    with pytest.raises(ValueError):
        expected_drops_table([0.5, -0.1], [1.0, 1.0], 2, 1.0)
    with pytest.raises(ValueError):
        expected_drops_table([0.5, 0.5], [1.0], 2, 1.0)
    with pytest.raises(ValueError):
        expected_drops_table([0.5], [1.0], 0, 1.0)
    with pytest.raises(ValueError):
        expected_drops_table([0.5], [1.0], 2, 0.0)


def test_kernel_dataclass_fields():
    k = build_generator(0.5, 1.5, 2, 3.0)
    assert isinstance(k, EpochKernel)
    assert (k.arrival_rate, k.service_rate, k.buffer, k.epoch_length) == (0.5, 1.5, 2, 3.0)
