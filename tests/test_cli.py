from __future__ import annotations

import json

import numpy as np
import pytest

from sparselb import cli
from sparselb.cli import main
from sparselb.nn import load_policy_parameters, policy_zeta
from sparselb.topology import load_edge_list


def write_cfg(tmp_path, doc):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    return str(path)


SMALL = {
    "topologies": [{"family": "cyc1d", "n": 9}],
    "policies": ["jsq", "own"],
    "delta_ts": [1.0],
    "episodes": 3,
    "horizon": 8,
    "seed": 4,
}


def test_topology_info(capsys, tmp_path):
    export = tmp_path / "g.edges"
    rc = main(["topology-info", "--family", "ccc", "--order", "3",
               "--export", str(export)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "nodes:     24" in out
    assert "3: 24" in out
    assert "connected: True" in out
    assert load_edge_list(export).n_nodes == 24


def test_topology_info_config_model(capsys):
    rc = main(["topology-info", "--family", "cm", "--n", "12",
               "--degree-set", "2,3", "--seed", "3"])
    assert rc == 0
    assert "connected: True" in capsys.readouterr().out


def test_evaluate_writes_results(capsys, tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    out_dir = tmp_path / "out"
    rc = main(["evaluate", "--config", cfg, "--policy", "own",
               "--out", str(out_dir)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "own" in out and "drops=" in out
    assert (out_dir / "results.csv").exists()
    assert (out_dir / "results.json").exists()


def test_evaluate_trace(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    out_dir = tmp_path / "out"
    rc = main(["evaluate", "--config", cfg, "--policy", "own", "--trace",
               "--out", str(out_dir)])
    assert rc == 0
    capsys.readouterr()
    traces = list(out_dir.glob("trace_*.jsonl"))
    assert len(traces) == 1
    first = json.loads(traces[0].read_text().splitlines()[0])
    assert "drops" in first


def test_sweep_deterministic(tmp_path, capsys):
    cfg = write_cfg(tmp_path, SMALL)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["sweep", "--config", cfg, "--out", str(a)]) == 0
    assert main(["sweep", "--config", cfg, "--out", str(b)]) == 0
    capsys.readouterr()
    assert (a / "results.csv").read_bytes() == (b / "results.csv").read_bytes()
    assert (a / "results.json").read_bytes() == (b / "results.json").read_bytes()


def test_train_cem_then_evaluate_checkpoint(tmp_path, capsys):
    doc = dict(SMALL)
    doc["trainer"] = {"population": 4, "iterations": 2, "eval_episodes": 2,
                      "hidden": [4]}
    cfg = write_cfg(tmp_path, doc)
    out_dir = tmp_path / "run"
    rc = main(["train", "--config", cfg, "--method", "cem",
               "--out", str(out_dir)])
    assert rc == 0
    assert "trained cem for 2 iterations" in capsys.readouterr().out
    ckpt = out_dir / "checkpoint.json"
    params = load_policy_parameters(ckpt)
    zeta = policy_zeta(params, np.full(6, 1 / 6))
    assert zeta.shape == (6,)
    assert np.all((zeta >= 0) & (zeta <= 1))

    # the saved policy is directly usable by the evaluator
    doc2 = dict(SMALL)
    doc2["policies"] = [{"kind": "mfr", "checkpoint": str(ckpt), "name": "learned"}]
    cfg2 = write_cfg(tmp_path / ".", {**doc2})
    out2 = tmp_path / "eval"
    assert main(["evaluate", "--config", cfg2, "--out", str(out2)]) == 0
    assert "learned" in capsys.readouterr().out


def test_train_ppo_smoke(tmp_path, capsys):
    doc = dict(SMALL)
    doc["trainer"] = {"batch_size": 16, "minibatch_size": 8, "sgd_iters": 1,
                      "epochs": 1, "hidden": [4], "eval_episodes": 1}
    cfg = write_cfg(tmp_path, doc)
    rc = main(["train", "--config", cfg, "--method", "ppo",
               "--out", str(tmp_path / "run")])
    assert rc == 0
    assert "trained ppo for 1 iterations" in capsys.readouterr().out
    assert (tmp_path / "run" / "curve.csv").exists()


def test_compare(capsys, tmp_path):
    cfg = write_cfg(tmp_path, SMALL)
    rc = main(["compare", "--config", cfg])
    assert rc == 0
    out = capsys.readouterr().out
    assert " < " in out
    assert "vs" in out


def test_bethe_ablation(capsys, tmp_path):
    doc = dict(SMALL)
    doc["topologies"] = [{"family": "bethe", "depth": 4, "branching": 3}]
    doc["policies"] = ["own", "rnd"]
    cfg = write_cfg(tmp_path, doc)
    out_dir = tmp_path / "out"
    rc = main(["bethe-ablation", "--config", cfg, "--out", str(out_dir)])
    assert rc == 0
    assert "own_beats_rnd" in capsys.readouterr().out
    report = json.loads((out_dir / "ablation.json").read_text())
    assert report["groups"]


def test_train_method_from_config_block(tmp_path, capsys):
    # "method" may live in the trainer block; the flag overrides it
    doc = dict(SMALL)
    doc["trainer"] = {"method": "cem", "population": 4, "iterations": 2,
                      "eval_episodes": 2, "hidden": [4]}
    cfg = write_cfg(tmp_path, doc)
    rc = main(["train", "--config", cfg, "--out", str(tmp_path / "r")])
    assert rc == 0
    assert "trained cem for 2 iterations" in capsys.readouterr().out
    # the block's "method" is not a config key of the flag's method
    rc = main(["train", "--config", cfg, "--method", "cem", "--iterations", "1",
               "--out", str(tmp_path / "r2")])
    assert rc == 0
    assert "trained cem for 1 iterations" in capsys.readouterr().out


def test_evaluate_policy_flag_selects_configured_spec(tmp_path, capsys):
    # --policy by name must pick up the configured mfr spec, checkpoint
    # included, rather than degrade it to a bare string
    doc = dict(SMALL)
    doc["trainer"] = {"population": 4, "iterations": 1, "eval_episodes": 2,
                      "hidden": [4]}
    cfg = write_cfg(tmp_path, doc)
    out_dir = tmp_path / "run"
    assert main(["train", "--config", cfg, "--method", "cem",
                 "--out", str(out_dir)]) == 0
    capsys.readouterr()
    doc2 = dict(SMALL)
    doc2["policies"] = ["own", {"kind": "mfr", "name": "learned",
                                "checkpoint": str(out_dir / "checkpoint.json")}]
    cfg2 = write_cfg(tmp_path / ".", doc2)
    assert main(["evaluate", "--config", cfg2, "--policy", "learned"]) == 0
    out = capsys.readouterr().out
    assert "learned" in out and "own" not in out


def test_evaluate_trace_per_named_policy(tmp_path, capsys):
    # two named specs of the same kind must not share a trace file
    doc = dict(SMALL)
    doc["policies"] = [{"kind": "static", "zeta": [0.0] * 6, "name": "keep"},
                       {"kind": "static", "zeta": [1.0] * 6, "name": "push"}]
    cfg = write_cfg(tmp_path, doc)
    out_dir = tmp_path / "out"
    assert main(["evaluate", "--config", cfg, "--trace", "--out", str(out_dir)]) == 0
    capsys.readouterr()
    names = sorted(p.name for p in out_dir.glob("trace_*.jsonl"))
    assert names == ["trace_cyc1d[n=9]_keep_1.0.jsonl", "trace_cyc1d[n=9]_push_1.0.jsonl"]


def test_train_workers_precedence(tmp_path, monkeypatch, capsys):
    # --workers, then the trainer block, then the top-level key
    seen = []

    def fake_train(topo, params, delta_t, horizon, tc, seed, out_dir=None):
        seen.append(tc.workers)
        return None, []

    monkeypatch.setattr(cli, "train", fake_train)
    block = write_cfg(tmp_path, {**SMALL, "trainer": {"workers": 2}})
    assert main(["train", "--config", block, "--method", "ppo"]) == 0
    assert main(["train", "--config", block, "--method", "ppo", "--workers", "3"]) == 0
    top = write_cfg(tmp_path, {**SMALL, "workers": 4, "trainer": {}})
    assert main(["train", "--config", top, "--method", "ppo"]) == 0
    bare = write_cfg(tmp_path, SMALL)
    assert main(["train", "--config", bare, "--method", "ppo"]) == 0
    capsys.readouterr()
    assert seen == [2, 3, 4, 1]


def test_train_rejects_unknown_trainer_keys(tmp_path):
    # a typo, or a key the other method owns, is named before any training
    typo = write_cfg(tmp_path, {**SMALL, "trainer": {"epoch": 1}})
    with pytest.raises(SystemExit, match="'ppo'.*'epoch'"):
        main(["train", "--config", typo, "--method", "ppo"])
    other = write_cfg(tmp_path, {**SMALL, "trainer": {"workers": 2, "iterations": 1}})
    with pytest.raises(SystemExit, match="'cem'.*'workers'"):
        main(["train", "--config", other, "--method", "cem"])
