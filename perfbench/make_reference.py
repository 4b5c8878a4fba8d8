"""Regenerate ``perfbench/reference.json``, the pinned statistical bands.

    python3 perfbench/make_reference.py

Runs each band-checked workload for many units on a seed that the
benchmark's own seeds do not reach, and stores each cell's mean episode
value, its per-episode standard deviation and the episode count. The
benchmark then requires every run's pooled mean to lie within
``workloads.Z_BAND`` standard errors of it. Regenerate it only when the
law being simulated changes on purpose, and say so in the change.
"""
from __future__ import annotations

import json
import statistics
import sys

import run

REFERENCE_SEED = -1          # the benchmark's seeds are nonnegative
UNITS = {"sweep-long-epoch": 40, "env-expected": 100}


def summary(values) -> dict:
    return {"mean": statistics.fmean(values), "sd": statistics.stdev(values),
            "episodes": len(values)}


def main() -> int:
    run.locate_program()
    import workloads
    out = {}
    for name, units in UNITS.items():
        wl = workloads.WORKLOADS[name]()
        wl.setup(REFERENCE_SEED)
        results = [wl.run_unit(k) for k in range(units)]
        if name == "env-expected":
            out[name] = {"return": summary([sum(r.outputs) for r in results])}
        else:
            pooled: dict = {}
            for r in results:
                for topo, pol, per_episode in r.outputs:
                    pooled.setdefault(f"{topo}/{pol}", []).extend(per_episode)
            out[name] = {k: summary(v) for k, v in pooled.items()}
        print(name, json.dumps(out[name]), file=sys.stderr)
    (run.HERE / "reference.json").write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
