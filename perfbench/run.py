"""sparselb benchmark: one workload per process, end to end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the program is imported from ``src/``.
The workloads are listed in ``BENCHMARK.json`` and described in
``perfbench/README.md``.

``--trace 0`` measures the end-to-end metrics with tracing off. ``--trace 1``
runs the same units untraced and then again with every public sparselb
function wrapped, and reports the per-layer metrics and the tracing
overhead. Both print human-readable lines, write a report under
``perfbench/out/``, and end with one JSON line:
``{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}``.
The exit code is 0 when every output check passed, 1 when one failed and 2
when the benchmark cannot run at all (no ``src/sparselb`` to measure).
"""
from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

# One BLAS thread, set before numpy is first imported. On a 2-core machine
# default OpenBLAS threading made train-ppo iterations take 3.0-4.4 s
# against 2.7-2.9 s with one thread, with bit-identical eval returns.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 2              # fresh processes timed for setup_s, besides this one
# Runs of each unit on the same inputs; each step and instance keeps the
# median of its timings. A step that is slow because of the program is slow
# in every repeat. A hiccup or a spell of a faster or slower machine that
# touches one repeat does not move the median; without repeats, single
# hiccups set the p99.9 of a run's steps, and the fastest of two repeats
# moved with how often the machine had a fast spell.
REPEATS = 3
TAIL_GRID = (99.9, 99.5, 99.0, 98.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10              # samples that must lie beyond the tail percentile


def fail(msg: str) -> None:
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(2)


def locate_program() -> dict:
    """Put ``src`` on the path and return the declared metrics, or exit 2."""
    if not (ROOT / "src" / "sparselb" / "__init__.py").is_file():
        fail(f"no src/sparselb under {ROOT}; run from a full checkout")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, ValueError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    sys.path.insert(0, str(ROOT / "src"))
    return spec


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: machine-noise diagnostic only."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(1_000_000):
        acc += i * i
    return time.perf_counter() - t0


def setup_probe(workload: str, seed: int) -> None:
    t0 = time.perf_counter()
    import workloads
    workloads.WORKLOADS[workload]().setup(seed)
    print(json.dumps({"setup_s": time.perf_counter() - t0}))


def probe_setups(workload: str, seed: int) -> list:
    out = []
    for _ in range(SETUP_PROBES):
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            capture_output=True, text=True, timeout=120, cwd=ROOT, check=True)
        out.append(json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"])
    return out


def run_units(wl, seconds: float | None = None, count: int | None = None,
              repeats: int = REPEATS) -> dict:
    """Run units until ``count`` are done, or while one more fits in ``seconds``.

    Each unit runs ``repeats`` times back to back on the same inputs, so
    every repeat does the same work, step for step. Every step and every
    instance (see ``end_to_end_metrics``) keeps the median of its
    ``repeats`` timings, and ``unit_s`` is the mean time of a unit's repeats.
    """
    import workloads
    t = wl.timings
    typical = workloads.Timings()
    results, unit_s, raised_ops, mismatched = [], [], 0, 0
    t_start = time.perf_counter()
    k = 0
    while True:
        if count is not None:
            if k >= count:
                break
        elif k > 0 and (time.perf_counter() - t_start) * (k + 1) / k > seconds:
            break
        runs = []
        for _ in range(repeats):
            s0, i0, t0 = len(t.step_s), len(t.instances), time.perf_counter()
            try:
                out = wl.run_unit(k)
            except Exception:       # count the unit as failed and end the run
                traceback.print_exc(file=sys.stderr)
                raised_ops += wl.planned_ops()
                runs = []
                break
            runs.append((time.perf_counter() - t0, out, t.step_s[s0:], t.instances[i0:]))
        k += 1
        if not runs:
            break
        unit_s.append(statistics.fmean(r[0] for r in runs))
        results.append(runs[0][1])
        if any(r[1] != runs[0][1] or len(r[2]) != len(runs[0][2])
               or len(r[3]) != len(runs[0][3]) for r in runs):
            mismatched += 1
            continue
        typical.step_s.extend(map(statistics.median, zip(*(r[2] for r in runs))))
        for same in zip(*(r[3] for r in runs)):
            typical.add(same[0].kind, statistics.median(i.seconds for i in same),
                        same[0].episodes)
    return {"results": results, "units": k, "unit_s": unit_s, "raised_ops": raised_ops,
            "mismatched": mismatched, "timings": typical}


def tail(samples) -> tuple:
    """Highest grid percentile with at least TAIL_BEYOND samples beyond it."""
    import numpy as np
    p = next((p for p in TAIL_GRID
              if round(len(samples) * (100.0 - p) / 100.0, 6) >= TAIL_BEYOND), 50.0)
    return p, float(np.percentile(samples, p))


def end_to_end_metrics(wl, t, setups: list, peak_rss_mb: float) -> tuple:
    """The end-to-end metrics over every timed instance and step of the run,
    and a note on how each was taken.

    A run is a sequence of short instances (sweep cells, PPO iterations or
    closed-loop episodes) made of steps. Every unit covers every kind of
    instance, so the mix is the same from run to run. Each instance and step
    time is the median of its REPEATS runs (see ``run_units``).

    Throughput is the episodes of one instance of each kind over the sum of
    the kinds' median instance times, so a spell of a faster or slower
    machine that covers less than half of a run does not move it.
    """
    if not t.instances:         # every unit raised; the run is already failed
        return dict.fromkeys(("setup_s", "episodes_per_s", "iter_s_p50", "step_ms_p50",
                              "step_ms_tail", "peak_rss_mb"), 0.0), {}
    tail_p, tail_s = tail(t.step_s)
    kinds: dict = {}
    for inst in t.instances:
        kinds.setdefault(inst.kind, []).append(inst)
    episodes = sum(v[0].episodes for v in kinds.values())
    seconds = sum(statistics.median(i.seconds for i in v) for v in kinds.values())
    metrics = {
        "setup_s": statistics.median(setups),
        "episodes_per_s": episodes / seconds,
        "iter_s_p50": statistics.median(i.seconds for i in t.instances),
        "step_ms_p50": 1e3 * statistics.median(t.step_s),
        "step_ms_tail": 1e3 * tail_s,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "episodes_per_s": f"{episodes} episodes in {seconds:.3f} s: one median instance "
                          f"of each of {len(kinds)} kinds, {len(t.instances)} instances",
        "iter_s_p50": f"{len(t.instances)} x {wl.iter_what}",
        "step_ms_p50": f"{len(t.step_s)} x {wl.step_what}, "
                       f"each the median of {REPEATS} repeats",
        "step_ms_tail": f"p{tail_p:g} of {len(t.step_s)} steps, "
                        f"{len(t.step_s) * (1 - tail_p / 100):.0f} beyond it",
    }
    return metrics, notes


def git_sha() -> str:
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def metadata() -> dict:
    import platform

    import numpy
    import scipy

    numpy.ones((64, 64)) @ numpy.ones((64, 64))     # start BLAS threads, if any
    threads = None
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                threads = int(line.split()[1])
    except OSError:
        pass
    return {"git_sha": git_sha(), "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "blas_threads_pinned": int(BLAS_THREADS), "process_threads": threads}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args()
    spec = locate_program()
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    t0 = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(args.seed)
    setups = [time.perf_counter() - t0] + probe_setups(args.workload, args.seed)

    import tracing
    meta = metadata()
    calib_before = calibrate()
    reference = json.loads((HERE / "reference.json").read_text())

    wl.timings = workloads.Timings()
    with tracing.Patches() as patches:
        wl.install_clocks(patches, tracing.sparselb_modules())
        plain = run_units(wl, seconds=args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    timings = plain["timings"]
    checks = wl.checks(plain["results"], reference)
    checks.append(workloads.Check(
        f"the {REPEATS} repeats of a unit give the same outputs and steps",
        plain["mismatched"] == 0, f"{plain['mismatched']} of {len(plain['results'])} units differ"))

    traced = tracer = None
    if args.trace:
        tracer = tracing.Tracer(tracing.LayerCounters())
        wl.timings = workloads.Timings()
        with tracing.Patches() as patches:
            wrapped = tracer.install(patches)
            # the same clocks as the untraced run, so the tracer is the only difference
            wl.install_clocks(patches, tracing.sparselb_modules())
            traced = run_units(wl, count=plain["units"], repeats=1)
        same = [r.outputs for r in traced["results"]] == [r.outputs for r in plain["results"]]
        checks.append(workloads.Check("traced replay gives the same outputs", same,
                                      f"{traced['units']} units, {wrapped} wrapped functions"))
        violations = tracer.counters.conservation_violations
        checks.append(workloads.Check(
            "per-queue conservation on every simulate_queue_bank return", violations == 0,
            f"{violations} queue-epochs violate it out of {tracer.counters.queue_epochs}"))
        if hasattr(wl, "expected_drops"):
            z = tracing.expected_vs_realized_z(wl.expected_drops(traced["results"]),
                                               tracer.counters.epoch_drops)
            checks.append(workloads.Check(
                "expected rewards against realized drops", abs(z) <= workloads.Z_BAND,
                f"z {z:+.2f} over {len(tracer.counters.epoch_drops)} steps"))
    calib_after = calibrate()

    attempted = sum(r.ops for r in plain["results"]) + plain["raised_ops"] + len(checks)
    failed = plain["raised_ops"] + sum(1 for c in checks if not c.ok)
    end_to_end, notes = end_to_end_metrics(wl, timings, setups, peak_rss_mb)

    if args.trace:
        metrics = tracing.per_layer_metrics(tracer, sum(plain["unit_s"]),
                                            sum(traced["unit_s"]))
        declared = spec["per_layer"]
    else:
        metrics = end_to_end
        declared = spec["end_to_end"]
    if set(metrics) != {m["name"] for m in declared}:
        fail(f"metrics differ from BENCHMARK.json: "
             f"{sorted(set(metrics) ^ {m['name'] for m in declared})}")
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}

    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("# " + " ".join(f"{k}={v}" for k, v in meta.items()))
    print(f"# calibration loop {calib_before:.3f} s before, {calib_after:.3f} s after "
          "(recorded, not used to scale any metric)")
    for name, value in end_to_end.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"{name} {value:.6g} {units[name]}{note}")
    print(f"failed_frac {failed / attempted:.6g} ratio  ({failed} of {attempted} "
          f"{wl.op}s and checks)")
    for c in checks:
        print(f"check {'ok  ' if c.ok else 'FAIL'} {c.name}: {c.detail}")
    roadmap = wl.roadmap(timings)
    if args.trace:
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        overhead = metrics["trace.overhead_frac"]
        gap = metrics["trace.self_sum_s"] / metrics["trace.untraced_s"] - 1.0
        print(f"# wrapped self times sum to {metrics['trace.self_sum_s']:.3f} s against "
              f"{metrics['trace.untraced_s']:.3f} s untraced ({gap:+.1%}); tracing overhead "
              f"{overhead:+.1%}, of which output checks {metrics['trace.check_s']:.3f} s; "
              f"within the overhead: {'yes' if abs(gap) <= max(overhead, 0.0) else 'no'}")
        for line in roadmap:
            print(f"# roadmap: {line}")
        print("# not measured: the ProcessPoolExecutor paths (workers > 1), the reference "
              "engine (a test oracle) and the command-line front end")

    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "meta": meta,
              "calibration_s": {"before": calib_before, "after": calib_after},
              "setup_s": setups, "unit_s": plain["unit_s"], "end_to_end": end_to_end,
              "notes": notes, "checks": [vars(c) for c in checks], "roadmap": roadmap,
              "per_layer": metrics if args.trace else None,
              "spans": {k: {"calls": v[0], "s": v[1], "self_s": v[2]}
                        for k, v in sorted(tracer.stats.items()) if v[0]} if tracer else None}
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(report, indent=1) + "\n")

    correct = failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": units[k]}
                                  for k, v in metrics.items()}}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
