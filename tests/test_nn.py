from __future__ import annotations

import numpy as np
import pytest

from sparselb.nn import (STD_FLOOR, Mlp, PolicyParameters, load_policy_parameters,
                         n_params, policy_zeta, save_policy_parameters, sigmoid)


def masked_sigmoid(x):
    """The earlier masked formula, kept as an oracle."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_matches_masked_formula_bit_for_bit():
    rng = np.random.default_rng(0)
    edges = np.array([0.0, -0.0, 745.0, -745.0, 1e308, -1e308, np.inf, -np.inf,
                      5e-324, -5e-324, 36.7, -36.7, 709.8, -709.8])
    scales = 10.0 ** np.arange(-3, 3)
    x = np.concatenate([edges, (rng.standard_normal((6, 5000)) * scales[:, None]).ravel(),
                        rng.uniform(-800.0, 800.0, 5000)])
    got, want = sigmoid(x), masked_sigmoid(x)
    assert got.dtype == want.dtype and got.shape == want.shape
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    m = x.reshape(-1, 2)[:6]                  # a batch shape, as the MLP gives
    assert np.array_equal(sigmoid(m), masked_sigmoid(m))


def test_sigmoid_stable_and_correct():
    assert sigmoid(np.array([0.0]))[0] == 0.5
    assert sigmoid(np.array([800.0]))[0] == 1.0
    assert sigmoid(np.array([-800.0]))[0] == 0.0
    x = np.linspace(-5, 5, 11)
    assert np.allclose(sigmoid(x), 1.0 / (1.0 + np.exp(-x)))


def test_n_params():
    # (3 -> 4 -> 2): 3*4 + 4 + 4*2 + 2
    assert n_params((3, 4, 2)) == 26


def test_mlp_views_share_memory():
    rng = np.random.default_rng(0)
    mlp = Mlp.init((3, 4, 2), rng)
    mlp.weights[0][0, 0] = 123.0
    mlp.biases[0][-1] = -7.0
    assert mlp.flat[0] == 123.0
    # mutating flat is visible through the views
    mlp.flat[:] = 0.0
    assert mlp.weights[0][0, 0] == 0.0 and mlp.biases[0][-1] == 0.0


def test_mlp_forward_linear_case():
    # no hidden layer: the network is exactly W x + b
    mlp = Mlp((3, 2), np.zeros(n_params((3, 2))))
    mlp.weights[0][:] = np.array([[1.0, 0.0, 2.0], [0.0, -1.0, 0.0]])
    mlp.biases[0][:] = np.array([0.5, 0.25])
    out, _ = mlp.forward(np.array([1.0, 2.0, 3.0]))
    assert np.allclose(out, np.array([7.5, -1.75]))


def test_mlp_backward_matches_finite_difference():
    rng = np.random.default_rng(7)
    sizes = (5, 8, 8, 3)
    mlp = Mlp.init(sizes, rng)
    x = rng.normal(size=(4, 5))
    dout = rng.normal(size=(4, 3))

    def loss(flat):
        out, _ = Mlp(sizes, flat).forward(x)
        return float((out * dout).sum())

    out, acts = mlp.forward(x)
    grad = mlp.backward(acts, dout)
    eps = 1e-6
    idx = rng.choice(mlp.flat.size, size=40, replace=False)
    for k in idx:
        p = mlp.flat.copy()
        p[k] += eps
        up = loss(p)
        p[k] -= 2 * eps
        down = loss(p)
        fd = (up - down) / (2 * eps)
        assert abs(grad[k] - fd) < 1e-4 * max(1.0, abs(fd))


def test_policy_parameters_init_std():
    rng = np.random.default_rng(1)
    params = PolicyParameters.init(buffer=5, hidden=(16,), rng=rng)
    assert params.std.shape == (6,)
    assert np.allclose(params.std, 0.2)
    assert params.layer_sizes == (6, 16, 6)
    assert np.all(params.std >= STD_FLOOR)


def test_policy_zeta_in_unit_interval():
    rng = np.random.default_rng(2)
    params = PolicyParameters.init(buffer=5, hidden=(8,), rng=rng)
    obs = rng.random((10, 6))
    zeta = policy_zeta(params, obs)
    assert zeta.shape == (10, 6)
    assert np.all(zeta > 0.0) and np.all(zeta < 1.0)
    one = policy_zeta(params, obs[0])
    assert np.allclose(one, zeta[0], rtol=1e-12, atol=0.0)


def test_save_load_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    params = PolicyParameters.init(buffer=5, hidden=(8, 4), rng=rng,
                                   observation_mode="ownstate", obs_dim=6)
    path = tmp_path / "p.json"
    save_policy_parameters(params, path)
    back = load_policy_parameters(path)
    assert back.layer_sizes == params.layer_sizes
    assert back.observation_mode == "ownstate"
    assert back.buffer == 5
    assert np.array_equal(back.weights, params.weights)
    assert np.array_equal(back.log_std, params.log_std)


def test_load_rejects_unknown_version(tmp_path):
    import json
    rng = np.random.default_rng(4)
    params = PolicyParameters.init(buffer=5, hidden=(4,), rng=rng)
    path = tmp_path / "p.json"
    save_policy_parameters(params, path)
    blob = json.loads(path.read_text())
    blob["version"] = 999
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError):
        load_policy_parameters(path)


def test_save_is_deterministic(tmp_path):
    rng = np.random.default_rng(5)
    params = PolicyParameters.init(buffer=5, hidden=(4,), rng=rng)
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    save_policy_parameters(params, a)
    save_policy_parameters(params, b)
    assert a.read_bytes() == b.read_bytes()
