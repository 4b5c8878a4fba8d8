from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import expm as scipy_expm

from sparselb.kernel import (_augmented_generators, effective_rates,
                             epoch_law_table, expected_drops_table)
from sparselb.topology import build_bethe, build_ccc, build_config_model, \
    build_cyc1d, build_torus, from_edges

# closed form for buffer 1, arrival = service = 1, unit epoch, empty start:
# drops = (1 + exp(-2)) / 4
DROPS_B1_BALANCED = 0.2838338208091532


def _law(lam, mu, b, dt, z0):
    return epoch_law_table(lam, mu, b, dt)[0][:, z0]


def _drops(lam, mu, b, dt, z0):
    return float(expected_drops_table(lam, mu, b, dt)[0, z0])


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


@pytest.mark.parametrize("topo", [
    from_edges(8, [(0, 1), (1, 2), (2, 3), (4, 5), (5, 6), (6, 4), (6, 3)]),
    build_config_model(40, [2, 3, 4, 5], 2),
    from_edges(3, []),
], ids=["degrees-0-to-3", "cm-degrees-2-to-5", "no-edges"])
def test_effective_rates_bank_rows_match_one_row_calls(topo):
    # an (E, n) offload with one base rate per row gives each row exactly
    # its one-row rates, padding, odd degrees and isolated nodes included
    rng = np.random.default_rng(7)
    offload = rng.random((5, topo.n_nodes))
    base = np.array([0.9, 0.6, 0.9, 0.0, 1.7])
    got = effective_rates(topo, offload, base)
    assert got.shape == offload.shape
    for row, a, b in zip(got, offload, base):
        assert np.array_equal(row, effective_rates(topo, a, b))
    with pytest.raises(ValueError, match="one base rate per row"):
        effective_rates(topo, offload, 0.9)
    with pytest.raises(ValueError, match="one entry per node"):
        effective_rates(topo, offload[:, None], base)


def test_generator_matrix_buffer_one():
    q = _augmented_generators(0.9, 1.0, 1, 1.0)[0][:-1, :-1]
    assert np.array_equal(q, np.array([[-0.9, 1.0], [0.9, -1.0]]))


def test_generator_columns_sum_to_zero():
    q = _augmented_generators(0.7, 1.3, 7, 1.0)[0][:-1, :-1]
    assert np.allclose(q.sum(axis=0), 0.0, atol=1e-15)
    off = q - np.diag(np.diag(q))
    assert np.all(off >= 0)


def test_augmented_matrix_shape():
    aug = _augmented_generators(0.8, 1.0, 3, 1.0)[0]
    assert aug.shape == (5, 5)
    d = -(0.8 + 1.0)
    assert np.array_equal(aug[:4, :4], np.array([[-0.8, 1.0, 0.0, 0.0],
                                                 [0.8, d, 1.0, 0.0],
                                                 [0.0, 0.8, d, 1.0],
                                                 [0.0, 0.0, 0.8, -1.0]]))
    assert np.all(aug[:, 4] == 0.0)
    assert aug[4, 3] == 0.8
    assert np.all(aug[4, :3] == 0.0)


def test_build_generator_validation():
    # the generator is built inside the stacked API, which validates its inputs
    with pytest.raises(ValueError):
        epoch_law_table(-0.1, 1.0, 1, 1.0)
    with pytest.raises(ValueError):
        epoch_law_table(1.0, 1.0, 0, 1.0)
    with pytest.raises(ValueError):
        epoch_law_table(1.0, 1.0, 2, 0.0)
    with pytest.raises(ValueError):
        epoch_law_table([0.5, 0.5], [1.0], 2, 1.0)


def test_epoch_law_two_state_analytic():
    # two-state chain: P(full at t) = lam/(lam+mu) * (1 - exp(-(lam+mu) t))
    for lam, mu, dt in [(0.7, 1.3, 2.5), (1.0, 1.0, 1.0), (0.2, 2.0, 10.0)]:
        law = _law(lam, mu, 1, dt, 0)
        r = lam + mu
        p_full = lam / r * (1.0 - math.exp(-r * dt))
        assert abs(law[1] - p_full) < 1e-9
        assert abs(law[0] - (1.0 - p_full)) < 1e-9


def test_epoch_law_pure_death():
    # no arrivals: P(empty at t | start full) = 1 - exp(-t)
    law = _law(0.0, 1.0, 1, 0.73, 1)
    assert abs(law[0] - (1.0 - math.exp(-0.73))) < 1e-12


def test_epoch_law_is_distribution():
    table = epoch_law_table(0.9, 1.0, 5, 3.0)
    assert table.shape == (1, 6, 6)
    for z0 in range(6):
        law = table[0][:, z0]
        assert law.shape == (6,)
        assert np.all(law >= -1e-15)
        assert abs(law.sum() - 1.0) < 1e-12


def test_epoch_law_matches_scipy():
    q = _augmented_generators(0.6, 1.1, 6, 4.0)[0][:-1, :-1]
    want = scipy_expm(q * 4.0)
    for z0 in range(7):
        assert np.allclose(_law(0.6, 1.1, 6, 4.0, z0), want[:, z0], atol=1e-10)


def test_epoch_law_balanced_long_run_uniform():
    # arrival = service makes the stationary law uniform on {0..B}
    assert np.allclose(_law(1.0, 1.0, 1, 200.0, 0), [0.5, 0.5], atol=1e-9)
    assert np.allclose(_law(1.0, 1.0, 3, 400.0, 2), np.full(4, 0.25), atol=1e-9)


def test_expected_drops_closed_form():
    assert _drops(1.0, 1.0, 1, 1.0, 0) == pytest.approx(DROPS_B1_BALANCED, abs=1e-9)


def test_expected_drops_no_arrivals():
    assert _drops(0.0, 1.0, 4, 5.0, 4) == 0.0


def test_expected_drops_quadrature_oracle():
    # drops = lam * integral of P(full at s) ds, via Simpson on the epoch law
    lam, mu, b, dt = 0.9, 1.0, 3, 2.0
    grid = np.linspace(0.0, dt, 201)
    p_full = np.array([_law(lam, mu, b, max(s, 1e-12), 1)[b] for s in grid])
    from scipy.integrate import simpson
    want = lam * simpson(p_full, x=grid)
    got = _drops(lam, mu, b, dt, 1)
    assert got == pytest.approx(want, rel=1e-6)


def test_expected_drops_monotone_in_start_state():
    for dt in (1.0, 5.0):
        vals = list(expected_drops_table(0.9, 1.0, 5, dt)[0])
        assert all(b >= a - 1e-12 for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]


def test_expected_drops_monotone_in_rate_and_epoch_length():
    lams = np.linspace(0.2, 2.0, 10)
    vals = list(expected_drops_table(lams, np.ones(10), 3, 2.0)[:, 1])
    assert all(b > a for a, b in zip(vals, vals[1:]))
    dts = np.linspace(0.5, 8.0, 10)
    vals = [_drops(0.9, 1.0, 3, dt, 1) for dt in dts]
    assert all(b > a for a, b in zip(vals, vals[1:]))


def test_expected_drops_table_matches_scalar():
    # stacking rate pairs changes nothing: every slice equals the table of
    # its pair alone, bit for bit, including pairs with no arrivals or no
    # service
    rng = np.random.default_rng(8)
    for _ in range(12):
        b = int(rng.integers(1, 8))
        dt = float(rng.uniform(0.1, 10.0))
        lam = rng.uniform(0.0, 2.0, 6)
        mu = rng.uniform(0.0, 2.0, 6)
        lam[0], mu[1], lam[2], mu[2] = 0.0, 0.0, 0.0, 0.0
        laws = epoch_law_table(lam, mu, b, dt)
        drops = expected_drops_table(lam, mu, b, dt)
        assert laws.shape == (6, b + 1, b + 1)
        assert drops.shape == (6, b + 1)
        for i in range(6):
            assert np.array_equal(laws[i], epoch_law_table(lam[i], mu[i], b, dt)[0])
            assert np.array_equal(drops[i], expected_drops_table(lam[i], mu[i], b, dt)[0])
    # a large stack whose squaring counts spread from the floor, 3 at B=5,
    # up to 7: a lone pair squares unmasked only, while the stack squares
    # unmasked up to its least count and masked beyond it.  The shifted
    # generator's norm is (lam + mu) * dt.
    b, dt = 5, 2.0
    counts = np.repeat(np.arange(3, 8), 48)
    total = np.ldexp(rng.uniform(0.55, 0.95, counts.size), counts) / dt
    lam = total * rng.uniform(0.0, 1.0, counts.size)
    mu = total - lam
    assert np.array_equal(np.maximum(np.ceil(np.log2((lam + mu) * dt)), 3), counts)
    laws = epoch_law_table(lam, mu, b, dt)
    drops = expected_drops_table(lam, mu, b, dt)
    for i in range(counts.size):
        assert np.array_equal(laws[i], epoch_law_table(lam[i], mu[i], b, dt)[0])
        assert np.array_equal(drops[i], expected_drops_table(lam[i], mu[i], b, dt)[0])
    # an empty stack
    assert epoch_law_table([], [], b, dt).shape == (0, b + 1, b + 1)
    assert expected_drops_table([], [], b, dt).shape == (0, b + 1)


@pytest.mark.parametrize("table", [epoch_law_table, expected_drops_table])
@pytest.mark.parametrize("lam, mu, dt", [
    (np.inf, 1.0, 1.0), (1.0, np.inf, 1.0), (1.0, 1.0, np.inf),
    (np.nan, 1.0, 1.0), (1.0, 1.0, np.nan), (1e200, 1.0, 1e200),
])
def test_non_finite_inputs_raise(table, lam, mu, dt):
    # an infinite rate, epoch length or scaled rate has no epoch kernel
    with pytest.raises(ValueError):
        table([0.5, lam], [1.0, mu], 5, dt)


def _assert_close(got, want):
    # relative where an entry is large against the slice's own scale; scipy
    # is accurate to about eps * ||exp|| only, so below that both sides are
    # compared in absolute terms
    axes = tuple(range(1, want.ndim))
    scale = np.maximum(want.max(axis=axes, keepdims=True), 1.0)
    assert np.all(np.abs(got - want) <= 1e-12 * want + 1e-14 * scale)


def test_tables_match_scipy_expm():
    rng = np.random.default_rng(31)
    for _ in range(40):
        b = int(rng.integers(1, 31))
        dt = float(np.exp(rng.uniform(np.log(0.01), np.log(50.0))))
        lam = rng.uniform(0.0, 2.0, 5)
        mu = rng.uniform(0.0, 2.0, 5)
        lam[0], mu[1], lam[2], mu[2] = 0.0, 0.0, 0.0, 0.0
        aug = _augmented_generators(lam, mu, b, dt) * dt
        laws = epoch_law_table(lam, mu, b, dt)
        drops = expected_drops_table(lam, mu, b, dt)
        _assert_close(laws, scipy_expm(aug[:, :-1, :-1]))
        _assert_close(drops, scipy_expm(aug)[:, b + 1, :b + 1])
        assert np.all(laws >= 0.0)
        assert np.all(np.abs(laws.sum(axis=1) - 1.0) <= 1e-13)
        assert np.all(drops[[0, 2]] == 0.0)
        assert np.all(drops >= 0.0)


def test_tables_match_high_precision_oracle():
    # every entry above 1e-200, however small, to a relative 1e-12: entries
    # far from the start state need the exponential's squaring floor
    mpmath = pytest.importorskip("mpmath")
    for lam, mu, b, dt in [(1.0, 1.0, 30, 0.01), (1.5, 0.3, 20, 1.0),
                           (0.01, 2.0, 30, 50.0), (0.9, 1.0, 5, 5.0)]:
        aug = _augmented_generators(lam, mu, b, dt)[0] * dt
        with mpmath.workdps(40):
            exact = mpmath.expm(mpmath.matrix(aug.tolist()))
        # both tables together are the augmented exponential less its
        # counter column
        want = np.array([[float(exact[i, j]) for j in range(b + 1)]
                         for i in range(b + 2)])
        got = np.vstack([epoch_law_table(lam, mu, b, dt)[0],
                         expected_drops_table(lam, mu, b, dt)])
        big = want > 1e-200
        err = np.abs(got - want)
        assert np.all(err[big] <= 1e-12 * want[big])
        assert np.all(err[~big] <= 1e-14)


def test_expected_drops_table_memory_is_bounded():
    # Bound, fixed before measuring: 12 slabs of k (B+2)^2 float64, the
    # size of one stacked augmented generator.  The exponential's workspace
    # is 6 slabs; the generator and its scaled copy are 2 more.
    k, b = 300, 5
    bound = 12 * k * (b + 2) ** 2 * 8
    lam, mu = np.linspace(0.0, 3.0, k), np.ones(k)
    tracemalloc.start()
    try:
        expected_drops_table(lam, mu, b, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < bound, (peak, bound)


def test_expected_drops_table_validation():
    with pytest.raises(ValueError):
        expected_drops_table([0.5, -0.1], [1.0, 1.0], 2, 1.0)
    with pytest.raises(ValueError):
        expected_drops_table([0.5, 0.5], [1.0], 2, 1.0)
    with pytest.raises(ValueError):
        expected_drops_table([0.5], [1.0], 0, 1.0)
    with pytest.raises(ValueError):
        expected_drops_table([0.5], [1.0], 2, 0.0)
