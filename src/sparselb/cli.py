"""Command line front end.

Subcommands: topology-info, evaluate, sweep, train, compare,
bethe-ablation.  Experiment settings come from a JSON config file; the
seed, worker count and output directory can be overridden on the command
line.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import fields

from .harness import (ExperimentConfig, bethe_ablation, build_topology,
                      compare_ranking, policy_key, sweep, topology_key)
from .topology import save_edge_list
from .trainer import CemConfig, TrainerConfig, cem_train, train


def _load_config(args) -> ExperimentConfig:
    if args.config:
        cfg = ExperimentConfig.from_json(args.config)
    else:
        cfg = ExperimentConfig()
    if args.seed is not None:
        cfg.seed = args.seed
    if args.workers is not None:
        cfg.workers = args.workers
    return cfg


def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON experiment config")
    p.add_argument("--seed", type=int, default=None, help="master seed override")
    p.add_argument("--workers", type=int, default=None, help="parallel episode workers")
    p.add_argument("--out", default=None, help="output directory")


def _topology_spec(args, cfg: ExperimentConfig) -> dict:
    if args.family:
        spec = {"family": args.family}
        for key in ("n", "order", "side", "depth", "branching"):
            val = getattr(args, key, None)
            if val is not None:
                spec[key] = val
        if args.degree_set:
            spec["degree_set"] = [int(d) for d in args.degree_set.split(",")]
        return spec
    return cfg.topologies[0]


def cmd_topology_info(args) -> int:
    cfg = _load_config(args)
    spec = _topology_spec(args, cfg)
    topo = build_topology(spec, cfg.seed)
    print(f"family:    {topology_key(spec)}")
    print(f"nodes:     {topo.n_nodes}")
    print(f"edges:     {len(topo.edges())}")
    print(f"connected: {topo.is_connected()}")
    hist = topo.degree_histogram()
    print("degrees:   " + ", ".join(f"{d}: {c}" for d, c in sorted(hist.items())))
    if args.export:
        save_edge_list(topo, args.export)
        print(f"edge list written to {args.export}")
    return 0


def cmd_evaluate(args) -> int:
    cfg = _load_config(args)
    if args.delta_t is not None:
        cfg.delta_ts = [args.delta_t]
    if args.policy is not None:
        # prefer the configured spec with that key (it may carry a
        # checkpoint path); fall back to the bare built-in name
        matches = [p for p in cfg.policies if policy_key(p) == args.policy]
        cfg.policies = matches if matches else [args.policy]
    if args.trace:
        cfg.record_trace = True
    return cmd_sweep(args, cfg)


def cmd_sweep(args, cfg: ExperimentConfig | None = None) -> int:
    cfg = _load_config(args) if cfg is None else cfg
    cells = sweep(cfg, out_dir=args.out, include_timing=args.timing)
    for cell in cells:
        print(f"{cell.topology:24s} {cell.policy:10s} dt={cell.delta_t:<5g} "
              f"drops={cell.mean_drops:.4f} +/- {cell.ci95:.4f}")
    if args.out:
        print(f"results written to {args.out}")
    return 0


def cmd_train(args) -> int:
    cfg = _load_config(args)
    topo = build_topology(cfg.topologies[0], cfg.seed)
    delta_t = float(cfg.delta_ts[0] if args.delta_t is None else args.delta_t)
    overrides = dict(cfg.trainer)
    # the flag wins over a "method" key in the config's trainer block
    method = overrides.pop("method", "ppo")
    method = args.method or method
    if method not in ("ppo", "cem"):
        raise SystemExit(f"unknown training method {method!r}")
    known = {f.name for f in fields(TrainerConfig if method == "ppo" else CemConfig)}
    unknown = sorted(set(overrides) - known)
    if unknown:
        raise SystemExit(f"unknown trainer keys for method {method!r}: "
                         + ", ".join(map(repr, unknown)))
    if args.iterations is not None:
        overrides["epochs" if method == "ppo" else "iterations"] = args.iterations
    if method == "ppo":
        # --workers wins over the trainer block, which wins over the top level
        if args.workers is not None:
            overrides["workers"] = args.workers
        else:
            overrides.setdefault("workers", cfg.workers)
        tc = TrainerConfig(**{k: tuple(v) if k == "hidden" else v
                              for k, v in overrides.items()})
        best, curve = train(topo, cfg.params, delta_t, cfg.horizon, tc,
                            cfg.seed, out_dir=args.out)
    else:
        cc = CemConfig(**{k: tuple(v) if k == "hidden" else v
                          for k, v in overrides.items()})
        best, curve = cem_train(topo, cfg.params, delta_t, cfg.horizon, cc,
                                cfg.seed, out_dir=args.out)
    last = curve[-1] if curve else {}
    print(f"trained {method} for {len(curve)} iterations; last: "
          + ", ".join(f"{k}={v:.5g}" if isinstance(v, float) else f"{k}={v}"
                      for k, v in last.items()))
    if args.out:
        print(f"checkpoint and curve written to {args.out}")
    return 0


def cmd_compare(args) -> int:
    cfg = _load_config(args)
    if args.delta_t is not None:
        cfg.delta_ts = [args.delta_t]
    groups: dict = {}
    for cell in sweep(cfg):
        groups.setdefault((cell.topology, cell.delta_t), []).append(cell)
    for (tkey, dt), cells in groups.items():
        ranking = compare_ranking(cells)
        print(f"{tkey} dt={dt}: " + " < ".join(ranking["ranking"]))
        for pair in ranking["pairs"]:
            tag = "separated" if pair["separated"] else "overlapping"
            print(f"  {pair['low']} vs {pair['high']}: {tag}")
    return 0


def cmd_bethe_ablation(args) -> int:
    cfg = _load_config(args)
    report = bethe_ablation(cfg, out_dir=args.out, include_timing=args.timing)
    for g in report["groups"]:
        line = f"{g['topology']} dt={g['delta_t']}: " + " < ".join(
            g["ranking"]["ranking"])
        if "own_beats_rnd" in g:
            line += f"  own_beats_rnd={g['own_beats_rnd']}"
        print(line)
    if args.out:
        print(f"report written to {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="sparselb",
        description="Load-balancing simulator for sparse queueing networks")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("topology-info", help="describe a topology")
    _add_common(p)
    p.add_argument("--family", choices=["cyc1d", "ccc", "torus", "cm", "bethe"])
    p.add_argument("--n", type=int)
    p.add_argument("--order", type=int)
    p.add_argument("--side", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--branching", type=int)
    p.add_argument("--degree-set", dest="degree_set")
    p.add_argument("--export", help="write the edge list to this path")
    p.set_defaults(func=cmd_topology_info)

    p = sub.add_parser("evaluate", help="evaluate policies on configured cells")
    _add_common(p)
    p.add_argument("--policy", help="evaluate just this policy")
    p.add_argument("--delta-t", dest="delta_t", type=float)
    p.add_argument("--trace", action="store_true", help="write per-epoch traces")
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock seconds in result files")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("sweep", help="full factorial sweep from the config")
    _add_common(p)
    p.add_argument("--timing", action="store_true",
                   help="include wall-clock seconds in result files")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("train", help="train a routing policy")
    _add_common(p)
    p.add_argument("--method", choices=["ppo", "cem"])
    p.add_argument("--delta-t", dest="delta_t", type=float)
    p.add_argument("--iterations", type=int)
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("compare", help="rank configured policies per cell group")
    _add_common(p)
    p.add_argument("--delta-t", dest="delta_t", type=float)
    p.set_defaults(func=cmd_compare)

    p = sub.add_parser("bethe-ablation", help="tree-topology policy report")
    _add_common(p)
    p.add_argument("--timing", action="store_true")
    p.set_defaults(func=cmd_bethe_ablation)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
