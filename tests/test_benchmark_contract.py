"""The benchmark in ``perfbench/`` drives sparselb through its public API.

A cheap guard that a simplification of the library has not broken what
the benchmark calls: every workload's set-up, one env-expected unit, the
boundary clocks that the sweep and train workloads install, and the
per-layer tracer of ``--trace 1``.  Nothing is written under
``perfbench/``: no bytecode, no output files.
"""
from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

from sparselb import env, harness, simulator, trainer
from sparselb.topology import build_cyc1d

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture(scope="module")
def bench():
    """The ``workloads`` and ``tracing`` modules, imported without bytecode."""
    saved_path, saved_flag = list(sys.path), sys.dont_write_bytecode
    sys.path.insert(0, str(PERFBENCH))
    sys.dont_write_bytecode = True
    try:
        yield importlib.import_module("workloads"), importlib.import_module("tracing")
    finally:
        sys.path[:] = saved_path
        sys.dont_write_bytecode = saved_flag
        sys.modules.pop("workloads", None)
        sys.modules.pop("tracing", None)


def test_workloads_set_up_and_run(bench):
    workloads, _ = bench
    assert set(workloads.WORKLOADS) == {"sweep-long-epoch", "train-ppo", "env-expected"}
    built = {name: make() for name, make in workloads.WORKLOADS.items()}
    for w in built.values():
        w.setup(3)
    w = built["env-expected"]
    unit = w.run_unit(0)
    assert unit.ops == len(unit.outputs) == w.horizon
    assert all(-w.params.rate_high * w.delta_t <= r <= 0.0 for r in unit.outputs)


def test_clocks_record_and_restore(bench):
    workloads, tracing = bench
    sweep_w = workloads.WORKLOADS["sweep-long-epoch"]()
    train_w = workloads.WORKLOADS["train-ppo"]()
    originals = (harness.evaluate, simulator.run_epoch, env.LoadBalanceEnv.step)
    with tracing.Patches() as patches:
        modules = tracing.sparselb_modules()
        sweep_w.install_clocks(patches, modules)
        train_w.install_clocks(patches, modules)
        cfg = harness.ExperimentConfig.from_dict({
            "topologies": [{"family": "cyc1d", "n": 9}], "policies": ["jsq", "own"],
            "delta_ts": [1.0], "episodes": 2, "horizon": 3})
        harness.sweep(cfg)
        lb = env.LoadBalanceEnv(build_cyc1d(9), simulator.SystemParams(), 1.0, 3)
        lb.reset(0)
        lb.step([0.0] * 6)
    assert [(i.kind, i.episodes) for i in sweep_w.timings.instances] == \
        [("cyc1d[n=9]/jsq", 2), ("cyc1d[n=9]/own", 2)]
    # run_epoch is clocked wherever it runs: 2 cells x 2 episodes x 3 epochs + 1 step
    assert len(sweep_w.timings.step_s) == 2 * 2 * 3 + 1
    assert len(train_w.timings.step_s) == 1
    assert (harness.evaluate, simulator.run_epoch, env.LoadBalanceEnv.step) == originals


def test_traced_path_reports_every_metric(bench):
    _, tracing = bench
    declared = json.loads((PERFBENCH.parent / "BENCHMARK.json").read_text())["per_layer"]
    tracer = tracing.Tracer(tracing.LayerCounters())
    params = simulator.SystemParams()

    def counts():
        return [tracer.get(name)[0]
                for name in ("kernel.effective_rates", "env.LoadBalanceEnv.step")]
    with tracing.Patches() as patches:
        tracer.install(patches)
        harness.sweep(harness.ExperimentConfig.from_dict({
            "topologies": [{"family": "cyc1d", "n": 9}], "policies": ["jsq", "threshold"],
            "delta_ts": [2.0], "episodes": 2, "horizon": 3}))
        cfg = trainer.TrainerConfig(batch_size=6, minibatch_size=6, sgd_iters=1,
                                    epochs=1, hidden=(4,), eval_episodes=1)
        trainer.train(build_cyc1d(9), params, 1.0, 3, cfg, seed=0)
        before = counts()
        lb = env.LoadBalanceEnv(build_cyc1d(9), params, 2.0, 4, reward_mode="expected")
        lb.reset(1)
        while not lb.done:
            lb.step([0.1, 0.2, 0.3, 0.5, 0.8, 1.0])
        rates_calls, steps = (b - a for a, b in zip(before, counts()))
    metrics = tracing.per_layer_metrics(tracer, 1.0, 1.0)
    assert list(metrics) == [m["name"] for m in declared]
    assert metrics["simulator.simulate_queue_bank.queue_epochs"] > 0
    assert metrics["simulator.simulate_queue_bank.conservation_violations"] == 0
    assert metrics["trainer.ppo_update.aborted"] == 0
    # an expected-reward step works out its per-queue rates once
    assert steps == 4 and rates_calls == steps
