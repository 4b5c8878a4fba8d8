"""Experiment harness: evaluation cells, sweeps and reports.

A cell is one (topology, policy, delta_t) combination evaluated over a
fixed number of independent episodes.  Every episode seed derives from
the master seed and the cell coordinates, so results do not depend on
scheduling or worker count, and a repeated invocation writes identical
result files.  Wall-clock timing is collected in memory but written to
the result files only on request, to keep the default outputs
reproducible byte for byte.
"""
from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, fields
from functools import partial

import numpy as np

from . import topology as topo_mod
from .policies import make_policy, policy_key
from .seeding import derive_seed, parallel_map
from .simulator import SystemParams, check_count, run_episode

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "build_topology",
    "topology_key",
    "policy_key",
    "episode_seed",
    "evaluate",
    "sweep",
    "write_results",
    "compare_ranking",
    "bethe_ablation",
]


def _reject_unknown(what: str, doc, known: set) -> None:
    unknown = sorted(set(doc) - known)
    if unknown:
        raise ValueError(f"unknown {what} keys: {', '.join(map(repr, unknown))}")


@dataclass
class ExperimentConfig:
    """Declarative description of a sweep, loadable from JSON."""

    topologies: list = field(default_factory=lambda: [{"family": "cyc1d", "n": 101}])
    policies: list = field(default_factory=lambda: ["jsq", "rnd", "own"])
    delta_ts: list = field(default_factory=lambda: [1.0, 5.0, 10.0])
    episodes: int = 100
    horizon: int = 50
    seed: int = 0
    workers: int = 1
    params: SystemParams = field(default_factory=SystemParams)
    record_trace: bool = False
    trainer: dict = field(default_factory=dict)     # read by the train command

    def __post_init__(self) -> None:
        self.check_run_lengths()

    def check_run_lengths(self) -> None:
        """Also run by ``evaluate``: fields may be set after construction."""
        for name in ("episodes", "horizon"):
            check_count(name, getattr(self, name))

    @classmethod
    def from_dict(cls, doc: dict) -> "ExperimentConfig":
        """Every field is a key; ``topology`` is accepted for one topology,
        and ``params`` takes the fields of ``SystemParams``."""
        _reject_unknown("config", doc, {f.name for f in fields(cls)} | {"topology"})
        doc = dict(doc)
        p = dict(doc.pop("params", {}))
        _reject_unknown("params", p, {f.name for f in fields(SystemParams)})
        if "service_rate" in p and isinstance(p["service_rate"], list):
            p["service_rate"] = tuple(p["service_rate"])
        if "start_distribution" in p and p["start_distribution"] is not None:
            p["start_distribution"] = tuple(p["start_distribution"])
        topology = doc.pop("topology", None)
        if doc.get("topologies") is None and topology is not None:
            doc["topologies"] = [topology]
        return cls(params=SystemParams(**p), **doc)

    @classmethod
    def from_json(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_dict(json.load(fh))


def build_topology(spec: dict, master_seed: int = 0):
    """Dispatch on the family name; the configuration model derives its
    seed from the master seed unless one is given explicitly."""
    spec = dict(spec)
    family = spec.pop("family").lower()
    if family == "cyc1d":
        return topo_mod.build_cyc1d(int(spec["n"]))
    if family == "ccc":
        return topo_mod.build_ccc(int(spec["order"]))
    if family == "torus":
        return topo_mod.build_torus(int(spec["side"]))
    if family == "cm":
        seed = spec.get("seed")
        if seed is None:
            seed = derive_seed(master_seed, "cm", spec["n"],
                               tuple(spec["degree_set"]))
        return topo_mod.build_config_model(int(spec["n"]), spec["degree_set"], seed)
    if family == "bethe":
        return topo_mod.build_bethe(int(spec["depth"]), int(spec["branching"]))
    if family == "edge_list":
        return topo_mod.load_edge_list(spec["path"])
    raise ValueError(f"unknown topology family {family!r}")


def topology_key(spec: dict) -> str:
    spec = dict(spec)
    family = spec.pop("family").lower()
    parts = [f"{k}={spec[k]}" for k in sorted(spec)]
    return family + ("[" + ",".join(parts) + "]" if parts else "")


def episode_seed(master: int, topo_key: str, pol_key: str, delta_t: float,
                 episode: int) -> int:
    return derive_seed(master, topo_key, pol_key, delta_t, episode)


@dataclass
class CellResult:
    topology: str
    policy: str
    delta_t: float
    episodes: int
    mean_drops: float
    ci95: float                 # half-width of the 95% interval
    per_episode: list
    seconds: float = 0.0

    def ci_bounds(self) -> tuple:
        return self.mean_drops - self.ci95, self.mean_drops + self.ci95


def evaluate(topology, policy_spec, delta_t: float, cfg: ExperimentConfig,
             topo_key: str | None = None, trace_path=None) -> CellResult:
    """Evaluate one cell; per-episode seeds fix the content completely.

    With a ``trace_path``, one JSON row per episode and epoch goes there,
    read from the episode records.
    """
    cfg.check_run_lengths()
    tkey = topo_key if topo_key is not None else "custom"
    pkey = policy_key(policy_spec)
    t0 = time.perf_counter()
    run = partial(run_episode, topology, make_policy(policy_spec, cfg.params.buffer),
                  cfg.horizon, delta_t, cfg.params)
    seeds = [episode_seed(cfg.seed, tkey, pkey, delta_t, e) for e in range(cfg.episodes)]
    results = parallel_map(run, seeds, cfg.workers)
    totals = [r.total_drops for r in results]
    seconds = time.perf_counter() - t0
    if trace_path is not None:
        with open(trace_path, "w") as fh:
            for e, r in enumerate(results):
                for t in range(cfg.horizon):
                    row = {"episode": e, "epoch": t, "rate": float(r.rates[t]),
                           "drops": int(r.drop_counts[t]),
                           "arrivals": int(r.arrivals[t]),
                           "services": int(r.services[t]),
                           "distribution": r.distributions[t].tolist()}
                    fh.write(json.dumps(row, sort_keys=True) + "\n")
    mean, half = _student_t_ci(np.asarray(totals, dtype=np.float64))
    return CellResult(tkey, pkey, float(delta_t), cfg.episodes, mean, half,
                      [float(v) for v in totals], seconds)


def _student_t_ci(x: np.ndarray, level: float = 0.95) -> tuple:
    mean = float(x.mean())
    if x.size < 2:
        return mean, 0.0
    # imported here, so that importing the package does not load scipy
    from scipy import stats

    sem = float(x.std(ddof=1) / np.sqrt(x.size))
    tcrit = float(stats.t.ppf(0.5 + level / 2.0, x.size - 1))
    return mean, tcrit * sem


def sweep(cfg: ExperimentConfig, out_dir=None, include_timing: bool = False) -> list:
    """Full factorial over topologies x policies x delta_ts.

    With ``cfg.record_trace`` and an output directory, every cell's
    per-epoch rows go to ``trace_<topology>_<policy>_<delta_t>.jsonl`` there.
    """
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
    cells = []
    for tspec in cfg.topologies:
        tkey = topology_key(tspec)
        topo = build_topology(tspec, cfg.seed)
        for pspec in cfg.policies:
            for dt in cfg.delta_ts:
                trace_path = None
                if cfg.record_trace and out_dir is not None:
                    trace_path = os.path.join(
                        out_dir, f"trace_{tkey}_{policy_key(pspec)}_{dt}.jsonl")
                cells.append(evaluate(topo, pspec, float(dt), cfg, tkey, trace_path))
    if out_dir is not None:
        write_results(cells, out_dir, include_timing=include_timing)
    return cells


def write_results(cells, out_dir, include_timing: bool = False) -> None:
    """results.csv (one row per cell) and results.json (full per-episode data).

    Timing is zeroed unless requested so repeated identical invocations
    produce identical bytes.
    """
    os.makedirs(out_dir, exist_ok=True)
    rows = []
    for c in cells:
        rows.append({
            "topology": c.topology,
            "policy": c.policy,
            "delta_t": c.delta_t,
            "mean_drops": c.mean_drops,
            "ci95": c.ci95,
            "episodes": c.episodes,
            "seconds": round(c.seconds, 3) if include_timing else 0.0,
        })
    with open(os.path.join(out_dir, "results.csv"), "w") as fh:
        cols = ["topology", "policy", "delta_t", "mean_drops", "ci95",
                "episodes", "seconds"]
        fh.write(",".join(cols) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(row[c]) for c in cols) + "\n")
    doc = []
    for c, row in zip(cells, rows):
        doc.append({**row, "per_episode": c.per_episode})
    with open(os.path.join(out_dir, "results.json"), "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def _fmt(v) -> str:
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def compare_ranking(cells) -> dict:
    """Order policies by mean drops for one (topology, delta_t) group.

    Flags every pair whose 95% intervals do not overlap as separated.
    """
    group = {(c.topology, c.delta_t) for c in cells}
    if len(group) != 1:
        raise ValueError("ranking needs cells from a single topology and delta_t")
    ordered = sorted(cells, key=lambda c: c.mean_drops)
    pairs = []
    for i in range(len(ordered)):
        for j in range(i + 1, len(ordered)):
            a, b = ordered[i], ordered[j]
            separated = a.ci_bounds()[1] < b.ci_bounds()[0] \
                or b.ci_bounds()[1] < a.ci_bounds()[0]
            pairs.append({"low": a.policy, "high": b.policy,
                          "separated": bool(separated)})
    return {
        "topology": ordered[0].topology,
        "delta_t": ordered[0].delta_t,
        "ranking": [c.policy for c in ordered],
        "means": {c.policy: c.mean_drops for c in ordered},
        "ci95": {c.policy: c.ci95 for c in ordered},
        "pairs": pairs,
    }


def bethe_ablation(cfg: ExperimentConfig, out_dir=None,
                   include_timing: bool = False) -> dict:
    """Evaluate the configured policies on a tree topology and report where
    keeping packets locally beats random forwarding, and where a learned
    policy falls behind the keep-local baseline: in both, ``own`` is the
    low side of a separated pair of ``compare_ranking``."""
    for tspec in cfg.topologies:
        if tspec.get("family") != "bethe":
            raise ValueError("bethe_ablation expects bethe topologies only")
    cells = sweep(cfg, out_dir=out_dir, include_timing=include_timing)
    learned_keys = {policy_key(p) for p in cfg.policies
                    if isinstance(p, dict) and p.get("kind", "").lower() == "mfr"}
    report = {"groups": []}
    for tspec in cfg.topologies:
        tkey = topology_key(tspec)
        for dt in cfg.delta_ts:
            group = [c for c in cells if c.topology == tkey and c.delta_t == float(dt)]
            ranking = compare_ranking(group)
            names = set(ranking["means"])
            ahead = {(p["low"], p["high"]) for p in ranking["pairs"] if p["separated"]}
            entry = {"topology": tkey, "delta_t": float(dt), "ranking": ranking}
            if {"own", "rnd"} <= names:
                entry["own_beats_rnd"] = ("own", "rnd") in ahead
            learned = [c.policy for c in group if c.policy in learned_keys]
            if learned and "own" in names:
                entry["learned_behind_own"] = {p: ("own", p) in ahead for p in learned}
            report["groups"].append(entry)
    if out_dir is not None:
        with open(os.path.join(out_dir, "ablation.json"), "w") as fh:
            json.dump(report, fh, sort_keys=True, indent=1)
            fh.write("\n")
    return report
