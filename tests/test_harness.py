from __future__ import annotations

import csv
import json
import re
import time
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

from sparselb import nn, policies
from sparselb.harness import (CellResult, ExperimentConfig, bethe_ablation,
                              build_topology, compare_ranking, episode_seed,
                              evaluate, policy_key, sweep, topology_key,
                              write_results, _student_t_ci)
from sparselb.nn import PolicyParameters, save_policy_parameters
from sparselb.simulator import SystemParams
from sparselb.topology import build_cyc1d, save_edge_list


def small_cfg(**kw):
    defaults = dict(topologies=[{"family": "cyc1d", "n": 9}],
                    policies=["jsq", "rnd", "own"], delta_ts=[1.0],
                    episodes=6, horizon=10, seed=0)
    cfg = ExperimentConfig()
    for k, v in {**defaults, **kw}.items():
        setattr(cfg, k, v)
    return cfg


def read_csv(path) -> list:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_episode_seed_stable_and_sensitive():
    base = episode_seed(0, "cyc1d[n=9]", "jsq", 1.0, 0)
    assert base == episode_seed(0, "cyc1d[n=9]", "jsq", 1.0, 0)
    others = [episode_seed(1, "cyc1d[n=9]", "jsq", 1.0, 0),
              episode_seed(0, "cyc1d[n=8]", "jsq", 1.0, 0),
              episode_seed(0, "cyc1d[n=9]", "rnd", 1.0, 0),
              episode_seed(0, "cyc1d[n=9]", "jsq", 2.0, 0),
              episode_seed(0, "cyc1d[n=9]", "jsq", 1.0, 1)]
    assert base not in others
    assert len(set(others)) == len(others)


def test_keys():
    assert topology_key({"family": "cyc1d", "n": 9}) == "cyc1d[n=9]"
    assert topology_key({"family": "bethe", "depth": 5, "branching": 3}) == \
        "bethe[branching=3,depth=5]"
    assert policy_key("jsq") == "jsq"
    assert policy_key({"kind": "static", "zeta": [0, 1], "name": "thr"}) == "thr"
    assert policy_key({"kind": "mfr", "checkpoint": "x.json"}) == "mfr"
    # a sweep keys every cell (and names its trace) before building its policy
    with pytest.raises(ValueError, match="no 'kind' key"):
        policy_key({"zeta": [0, 1]})


def test_policy_key_reads_kind_in_any_case():
    # make_policy lowercases kind, so two capitalized static tables run as
    # static policies; each must keep its own name, and with it its own
    # episode seeds, instead of both filing under "Static"
    specs = [{"kind": "Static", "name": "ramp", "zeta": [0, 0, 0.2, 0.5, 0.8, 1]},
             {"kind": "Static", "name": "flat", "zeta": [0.3] * 6}]
    cells = sweep(small_cfg(policies=specs))
    assert [c.policy for c in cells] == ["ramp", "flat"]
    assert policy_key({"kind": "MFR", "checkpoint": "x.json", "name": "net"}) == "net"
    assert policy_key({"kind": "Static", "zeta": [0, 1]}) == "Static"
    assert policy_key({"kind": "JSQ"}) == "JSQ"


def test_build_topology_dispatch(tmp_path):
    assert build_topology({"family": "cyc1d", "n": 9}).n_nodes == 9
    assert build_topology({"family": "ccc", "order": 3}).n_nodes == 24
    assert build_topology({"family": "torus", "side": 4}).n_nodes == 16
    assert build_topology({"family": "bethe", "depth": 3, "branching": 3}).n_nodes == 22
    cm = build_topology({"family": "cm", "n": 10, "degree_set": [2, 3]},
                        master_seed=5)
    assert cm.n_nodes == 10
    again = build_topology({"family": "cm", "n": 10, "degree_set": [2, 3]},
                           master_seed=5)
    assert cm.neighbors == again.neighbors
    path = tmp_path / "g.edges"
    save_edge_list(build_cyc1d(7), path)
    loaded = build_topology({"family": "edge_list", "path": str(path)})
    assert loaded.n_nodes == 7
    with pytest.raises(ValueError):
        build_topology({"family": "nosuch"})


def test_student_t_ci_frozen():
    # n = 4, sd = 1 => half width t(0.975, 3) / 2 = 1.5912230...
    x = np.array([0.0, 1.0, 2.0, 3.0])
    mean, half = _student_t_ci(x)
    assert mean == 1.5
    sd = float(x.std(ddof=1))
    assert half == pytest.approx(3.182446305284263 * sd / 2.0, rel=1e-12)
    _, zero = _student_t_ci(np.array([5.0]))
    assert zero == 0.0


def test_evaluate_repeatable_and_worker_invariant():
    cfg = small_cfg()
    topo = build_cyc1d(9)
    a = evaluate(topo, "jsq", 1.0, cfg, "cyc1d[n=9]")
    b = evaluate(topo, "jsq", 1.0, cfg, "cyc1d[n=9]")
    assert a.per_episode == b.per_episode
    assert a.mean_drops == b.mean_drops
    cfg2 = small_cfg(workers=2)
    c = evaluate(topo, "jsq", 1.0, cfg2, "cyc1d[n=9]")
    assert a.per_episode == c.per_episode


def test_cell_result_ci_bounds():
    cell = CellResult("t", "p", 1.0, 4, 10.0, 2.5, [])
    assert cell.ci_bounds() == (7.5, 12.5)


def test_sweep_counts_and_cells():
    cfg = small_cfg(delta_ts=[1.0, 5.0])
    cells = sweep(cfg)
    assert len(cells) == 1 * 3 * 2
    keys = {(c.topology, c.policy, c.delta_t) for c in cells}
    assert ("cyc1d[n=9]", "rnd", 5.0) in keys
    for c in cells:
        assert len(c.per_episode) == cfg.episodes
        assert c.mean_drops == pytest.approx(np.mean(c.per_episode))


def test_write_read_round_trip(tmp_path):
    cfg = small_cfg(episodes=4)
    cells = sweep(cfg, out_dir=tmp_path)
    rows = read_csv(tmp_path / "results.csv")
    assert len(rows) == len(cells)
    for row, cell in zip(rows, cells):
        assert row["topology"] == cell.topology
        assert row["policy"] == cell.policy
        assert float(row["mean_drops"]) == pytest.approx(cell.mean_drops, rel=1e-11)
        assert int(row["episodes"]) == cell.episodes
        assert float(row["seconds"]) == 0.0
    doc = json.loads((tmp_path / "results.json").read_text())
    assert doc[0]["per_episode"] == cells[0].per_episode


def test_rewrite_is_byte_identical(tmp_path):
    cfg = small_cfg(episodes=4)
    a_dir, b_dir = tmp_path / "a", tmp_path / "b"
    sweep(cfg, out_dir=a_dir)
    time.sleep(0.05)  # wall time must not leak into the files
    sweep(cfg, out_dir=b_dir)
    assert (a_dir / "results.csv").read_bytes() == (b_dir / "results.csv").read_bytes()
    assert (a_dir / "results.json").read_bytes() == (b_dir / "results.json").read_bytes()


def test_timing_opt_in(tmp_path):
    cfg = small_cfg(episodes=2)
    cells = sweep(cfg)
    write_results(cells, tmp_path, include_timing=True)
    rows = read_csv(tmp_path / "results.csv")
    assert any(float(r["seconds"]) > 0.0 for r in rows)


def test_compare_ranking_synthetic():
    cells = [
        CellResult("t", "a", 1.0, 4, 1.0, 0.1, []),
        CellResult("t", "b", 1.0, 4, 5.0, 0.2, []),
        CellResult("t", "c", 1.0, 4, 5.1, 0.2, []),
    ]
    rep = compare_ranking(cells)
    assert rep["ranking"] == ["a", "b", "c"]
    sep = {(p["low"], p["high"]): p["separated"] for p in rep["pairs"]}
    assert sep[("a", "b")] is True
    assert sep[("a", "c")] is True
    assert sep[("b", "c")] is False
    with pytest.raises(ValueError):
        compare_ranking(cells + [CellResult("u", "d", 1.0, 4, 0.0, 0.0, [])])


def test_bethe_ablation_small(tmp_path):
    cfg = small_cfg(topologies=[{"family": "bethe", "depth": 5, "branching": 3}],
                    policies=["own", "rnd"], delta_ts=[5.0], episodes=8,
                    horizon=20)
    report = bethe_ablation(cfg, out_dir=tmp_path)
    (group,) = report["groups"]
    assert group["topology"] == "bethe[branching=3,depth=5]"
    assert "own_beats_rnd" in group
    assert (tmp_path / "ablation.json").exists()
    with pytest.raises(ValueError):
        bethe_ablation(small_cfg())


def test_bethe_ablation_reports_only_learned_policies(tmp_path):
    # rules (threshold, a named static table) are not learned policies; a
    # checkpoint-backed mfr cell is, whatever it is named
    path = tmp_path / "ckpt.json"
    save_policy_parameters(
        PolicyParameters.init(buffer=5, hidden=(4,), rng=np.random.default_rng(6)), path)
    cfg = small_cfg(topologies=[{"family": "bethe", "depth": 3, "branching": 3}],
                    policies=["own", "rnd", "threshold",
                              {"kind": "static", "name": "ramp",
                               "zeta": [0.0, 0.2, 0.4, 0.6, 0.8, 1.0]},
                              {"kind": "mfr", "name": "net", "checkpoint": str(path)}],
                    delta_ts=[5.0], episodes=4, horizon=5)
    (group,) = bethe_ablation(cfg)["groups"]
    assert set(group["learned_behind_own"]) == {"net"}
    assert set(group["ranking"]["ranking"]) == {"own", "rnd", "threshold", "ramp", "net"}


def test_config_from_json(tmp_path):
    doc = {
        "topology": {"family": "torus", "side": 4},
        "policies": ["own"],
        "delta_ts": [2.0],
        "episodes": 3,
        "horizon": 7,
        "seed": 11,
        "params": {"buffer": 3, "rate_high": 0.8, "service_rate": [1.0] * 16},
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    cfg = ExperimentConfig.from_json(path)
    assert cfg.topologies == [{"family": "torus", "side": 4}]
    assert cfg.episodes == 3
    assert cfg.seed == 11
    assert cfg.params.buffer == 3
    assert cfg.params.rate_high == 0.8
    assert cfg.params.service_rate == (1.0,) * 16
    cells = sweep(cfg)
    assert len(cells) == 1


def test_config_rejects_unknown_keys():
    # a typo must fail loudly rather than run the default episode count
    with pytest.raises(ValueError, match="'episode'"):
        ExperimentConfig.from_dict({"episode": 5})
    with pytest.raises(ValueError, match="'polices'"):
        ExperimentConfig.from_dict({"episodes": 5, "polices": ["own"]})
    # every documented key is accepted, the train command's block included
    cfg = ExperimentConfig.from_dict({
        "topologies": [{"family": "cyc1d", "n": 9}], "policies": ["own"],
        "delta_ts": [1.0], "episodes": 2, "horizon": 3, "seed": 1,
        "workers": 1, "record_trace": False,
        "params": {"buffer": 3}, "trainer": {"epochs": 1}})
    assert cfg.episodes == 2 and cfg.params.buffer == 3
    assert cfg.trainer == {"epochs": 1}
    # the engine option is gone: an old config fails instead of running
    with pytest.raises(ValueError, match="'engine'"):
        ExperimentConfig.from_dict({"engine": "bank"})


def test_readme_config_schema_is_the_dataclass():
    # the documented schema names every field and nothing else, and loads
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = re.search(r"### Config schema\s+```json\n(.*?)```", readme, re.S)
    doc = json.loads(block.group(1))
    assert set(doc) == {f.name for f in fields(ExperimentConfig)}
    cfg = ExperimentConfig.from_dict(doc)
    assert cfg.params.buffer == doc["params"]["buffer"]


@pytest.mark.parametrize("name", ["episodes", "horizon"])
def test_config_rejects_run_lengths_below_one(name):
    # episodes=0 used to write a NaN mean_drops, horizon=0 to report 0.0
    # drops and horizon=-1 to fail inside numpy
    for count in (0, -1):
        with pytest.raises(ValueError, match=name):
            ExperimentConfig.from_dict({name: count})
    assert getattr(ExperimentConfig.from_dict({name: 1}), name) == 1


def test_evaluate_rejects_run_lengths_set_after_construction():
    # assignment skips __post_init__; this used to give a NaN mean_drops
    cfg = ExperimentConfig()
    cfg.episodes = 0
    with pytest.raises(ValueError, match="episodes"):
        evaluate(build_cyc1d(9), "own", 1.0, cfg)


def test_mfr_cell_reads_checkpoint_once(tmp_path, monkeypatch):
    # a cell builds its policy once, not once per episode
    path = tmp_path / "ckpt.json"
    save_policy_parameters(
        PolicyParameters.init(buffer=5, hidden=(4,), rng=np.random.default_rng(2)), path)
    loads = []

    def counting_load(p):
        loads.append(p)
        return nn.load_policy_parameters(p)
    monkeypatch.setattr(policies, "load_policy_parameters", counting_load)
    cell = evaluate(build_cyc1d(9), {"kind": "mfr", "checkpoint": str(path)}, 1.0,
                    small_cfg(episodes=4), "cyc1d[n=9]")
    assert len(cell.per_episode) == 4
    assert loads == [str(path)]


def test_trace_written_when_requested(tmp_path):
    cfg = small_cfg(episodes=2, record_trace=True)
    topo = build_cyc1d(9)
    trace_path = tmp_path / "trace.jsonl"
    evaluate(topo, "own", 1.0, cfg, "cyc1d[n=9]", trace_path=trace_path)
    lines = trace_path.read_text().strip().split("\n")
    assert len(lines) == 2 * cfg.horizon
    row = json.loads(lines[0])
    assert row["episode"] == 0 and "drops" in row


def test_trace_written_for_any_given_path(tmp_path):
    # a path alone asks for the trace; record_trace only tells sweep to name one
    cfg = small_cfg(episodes=3, horizon=4)
    assert not cfg.record_trace
    trace_path = tmp_path / "trace.jsonl"
    evaluate(build_cyc1d(9), "rnd", 1.0, cfg, "cyc1d[n=9]", trace_path=trace_path)
    rows = [json.loads(line) for line in trace_path.read_text().splitlines()]
    assert [(r["episode"], r["epoch"]) for r in rows] == \
        [(e, t) for e in range(3) for t in range(4)]



def test_sweep_writes_trace_per_cell(tmp_path):
    cfg = small_cfg(episodes=2, delta_ts=[1.0, 5.0], record_trace=True)
    cells = sweep(cfg, out_dir=tmp_path)
    names = sorted(p.name for p in tmp_path.glob("trace_*.jsonl"))
    assert names == sorted(f"trace_{c.topology}_{c.policy}_{c.delta_t}.jsonl"
                           for c in cells)
    assert len(names) == 1 * 3 * 2
    lines = (tmp_path / "trace_cyc1d[n=9]_rnd_5.0.jsonl").read_text().splitlines()
    assert len(lines) == cfg.episodes * cfg.horizon
    # without record_trace a sweep writes results only
    plain = tmp_path / "plain"
    sweep(small_cfg(episodes=2), out_dir=plain)
    assert not list(plain.glob("trace_*"))

def test_large_cell_completes_quickly():
    # generous wall-clock guard for the vectorized engine on a big graph
    cfg = small_cfg(topologies=[{"family": "cyc1d", "n": 901}], episodes=4,
                    horizon=50)
    topo = build_topology(cfg.topologies[0])
    t0 = time.perf_counter()
    evaluate(topo, "jsq", 10.0, cfg, "cyc1d[n=901]")
    assert time.perf_counter() - t0 < 60.0
