"""The benchmark's three workloads.

Every workload runs in units. A unit draws its inputs from the benchmark
seed and its own index alone, so a traced replay of the same units does
exactly the same work as the untraced run it is compared with. sparselb
only ever sees the generated inputs: configs with derived master seeds,
episode seeds and action tables.

``setup`` is what a user pays before the first result: importing
sparselb, building the topology and the configuration. The runner times
it in fresh processes.
"""
from __future__ import annotations

import hashlib
import math
import statistics
import time
from dataclasses import dataclass, field

import numpy as np

from tracing import clocked

HORIZON = 50
Z_BAND = 5.0          # half-width of every statistical band, in standard errors


def derive(seed: int, *parts) -> int:
    """A 64-bit input seed from the benchmark seed and a key."""
    key = "|".join(str(p) for p in ("perfbench", seed, *parts))
    return int.from_bytes(hashlib.sha256(key.encode()).digest()[:8], "big")


@dataclass
class UnitResult:
    ops: int                 # operations run: episodes, iterations or steps
    outputs: list            # what the checks read; equal on a replay


@dataclass
class Instance:
    """One short, repeated piece of a run: a sweep cell, a PPO iteration or an
    env episode. Instances of one kind do the same work on other inputs."""

    kind: str
    seconds: float
    episodes: int


@dataclass
class Timings:
    """Boundary-clock samples of the untraced run, in seconds."""

    step_s: list = field(default_factory=list)
    instances: list = field(default_factory=list)

    def add(self, kind: str, seconds: float, episodes: int) -> None:
        self.instances.append(Instance(kind, seconds, episodes))


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def band_check(name: str, values, ref: dict) -> Check:
    """Mean of ``values`` against a pinned reference mean, as a z-score.

    The standard error uses the reference's per-episode spread for both the
    sample and the reference mean, so a change of RNG stream that keeps the
    law passes and a change of law fails.
    """
    x = np.asarray(values, dtype=np.float64)
    if x.size == 0 or not np.all(np.isfinite(x)):
        return Check(name, False, f"{x.size} values, finite={bool(np.all(np.isfinite(x)))}")
    se = ref["sd"] * math.sqrt(1.0 / x.size + 1.0 / ref["episodes"])
    z = (float(x.mean()) - ref["mean"]) / se
    return Check(name, abs(z) <= Z_BAND,
                 f"mean {x.mean():.6g} over {x.size}, reference {ref['mean']:.6g} "
                 f"over {ref['episodes']}, z {z:+.2f}")


class SweepWorkload:
    """``harness.sweep`` over a fixed grid; one unit is one sweep call."""

    op = "episode"
    iter_what = "harness.evaluate cell"
    step_what = "simulator.run_epoch call"

    def __init__(self, name, topologies, policies, delta_t, episodes, roadmap_targets):
        self.name = name
        self.roadmap_targets = roadmap_targets
        self.topologies = topologies
        self.policies = policies
        self.delta_t = delta_t
        self.episodes = episodes
        self.timings = Timings()

    def setup(self, seed: int) -> None:
        from sparselb import harness
        self.harness = harness
        self.seed = seed
        # timed as set-up only: every sweep call builds its own topologies
        for spec in self.topologies:
            harness.build_topology(spec)
        self.config(0)

    def config(self, k: int):
        return self.harness.ExperimentConfig.from_dict({
            "topologies": self.topologies, "policies": self.policies,
            "delta_ts": [self.delta_t], "episodes": self.episodes,
            "horizon": HORIZON, "seed": derive(self.seed, "sweep", k), "workers": 1})

    def planned_ops(self) -> int:
        return len(self.topologies) * len(self.policies) * self.episodes

    def install_clocks(self, patches, modules) -> None:
        from sparselb import harness, simulator
        t = self.timings
        evaluate = harness.evaluate

        def timed_evaluate(*args, **kwargs):
            t0 = time.perf_counter()
            cell = evaluate(*args, **kwargs)
            t.add(f"{cell.topology}/{cell.policy}", time.perf_counter() - t0, cell.episodes)
            return cell
        patches.replace(harness, "evaluate", timed_evaluate)
        patches.replace_everywhere(modules, simulator.run_epoch,
                                   clocked(simulator.run_epoch, t.step_s))

    def run_unit(self, k: int) -> UnitResult:
        cells = self.harness.sweep(self.config(k))
        outputs = [(c.topology, c.policy, list(c.per_episode)) for c in cells]
        return UnitResult(sum(c.episodes for c in cells), outputs)

    def checks(self, units, reference) -> list:
        pooled: dict = {}
        for u in units:
            for topo, pol, per_episode in u.outputs:
                pooled.setdefault(f"{topo}/{pol}", []).extend(per_episode)
        refs = reference[self.name]
        out = [band_check(f"band {key}", pooled.get(key, []), ref)
               for key, ref in refs.items()]
        extra = sorted(set(pooled) - set(refs))
        if extra:
            out.append(Check("cells", False, f"cells without a reference: {extra}"))
        return out

    def roadmap(self, timings: Timings) -> list:
        acc: dict = {}
        for inst in timings.instances:
            a = acc.setdefault(inst.kind, [0.0, 0])
            a[0] += inst.seconds
            a[1] += inst.episodes
        lines = []
        for cell, target in self.roadmap_targets.items():
            if cell in acc:
                s, n = acc[cell]
                lines.append(f"{cell} episode {1e3 * s / n:.1f} ms over {n} episodes "
                             "of the whole run; "
                             f"roadmap {target}")
        return lines


class TrainWorkload:
    """``trainer.train`` with the default config; one unit is a one-iteration run.

    Every unit trains from a fresh seed for one iteration, so an iteration is
    a unit of its own; the work per iteration does not depend on how far
    training has got (the batch size fixes it). The abort check therefore
    only ever sees the first update of a freshly initialised policy.
    """

    op = "iteration"
    iter_what = "PPO iteration"
    step_what = "LoadBalanceEnv.step call (realized reward)"

    def __init__(self, name, n, delta_t):
        self.name = name
        self.n = n
        self.delta_t = delta_t
        self.timings = Timings()

    def setup(self, seed: int) -> None:
        from sparselb import simulator, topology, trainer
        self.trainer = trainer
        self.seed = seed
        self.topology = topology.build_cyc1d(self.n)
        self.params = simulator.SystemParams()
        self.cfg = trainer.TrainerConfig(epochs=1, workers=1)
        self.episodes_per_iteration = \
            math.ceil(self.cfg.batch_size / HORIZON) + self.cfg.eval_episodes

    def planned_ops(self) -> int:
        return 1

    def install_clocks(self, patches, modules) -> None:
        from sparselb import env
        patches.replace(env.LoadBalanceEnv, "step",
                        clocked(env.LoadBalanceEnv.step, self.timings.step_s))

    def run_unit(self, k: int) -> UnitResult:
        t0 = time.perf_counter()
        _, curve = self.trainer.train(self.topology, self.params, self.delta_t,
                                      HORIZON, self.cfg, derive(self.seed, "train", k))
        self.timings.add("iteration", time.perf_counter() - t0, self.episodes_per_iteration)
        outputs = [(bool(r["aborted"]), float(r["mean_return"]), float(r["eval_return"]))
                   for r in curve]
        return UnitResult(1, outputs)

    def roadmap(self, timings: Timings) -> list:
        p50 = 1e3 * statistics.median(timings.step_s)
        return [f"env.step (realized reward, cyc1d n={self.n}, dt={self.delta_t:g}, in PPO "
                f"rollouts and evaluation) p50 {p50:.3f} ms over the whole run; roadmap "
                "0.4-0.65 ms at n=901, so this n has 9x fewer queues"]

    def checks(self, units, reference) -> list:
        rows = [r for u in units for r in u.outputs]
        aborted = sum(1 for r in rows if r[0])
        nonfinite = sum(1 for r in rows if not (math.isfinite(r[1]) and math.isfinite(r[2])))
        return [Check("ppo no aborted update", aborted == 0,
                      f"{aborted} aborted of {len(rows)} iterations"),
                Check("ppo finite returns", nonfinite == 0,
                      f"{nonfinite} iterations with a non-finite return")]


class EnvWorkload:
    """Closed loop over ``LoadBalanceEnv(reward_mode="expected")``.

    The benchmark is the only client and sends its next action when the
    previous step has returned. One unit is one short episode; its actions
    are uniform offload tables drawn from the seed.
    """

    op = "step"
    iter_what = "closed-loop episode"
    step_what = "LoadBalanceEnv.step call (expected reward)"
    horizon = 10

    def __init__(self, name, topology, delta_t):
        self.name = name
        self.topology_spec = topology
        self.delta_t = delta_t
        self.timings = Timings()

    def setup(self, seed: int) -> None:
        from sparselb import env, harness, simulator
        self.seed = seed
        self.params = simulator.SystemParams()
        topo = harness.build_topology(self.topology_spec)
        self.env = env.LoadBalanceEnv(topo, self.params, self.delta_t, self.horizon,
                                      reward_mode="expected")

    def planned_ops(self) -> int:
        return self.horizon

    def install_clocks(self, patches, modules) -> None:
        pass            # the loop below times every step itself

    def run_unit(self, k: int) -> UnitResult:
        env, t = self.env, self.timings
        actions = np.random.default_rng(derive(self.seed, "actions", k)) \
            .random((self.horizon, self.params.buffer + 1))
        t_ep = time.perf_counter()
        env.reset(derive(self.seed, "episode", k))
        rewards = []
        for zeta in actions:
            t0 = time.perf_counter()
            tr = env.step(zeta)
            t.step_s.append(time.perf_counter() - t0)
            rewards.append(float(tr.reward))
        t.add("episode", time.perf_counter() - t_ep, 1)
        return UnitResult(self.horizon, rewards)

    def checks(self, units, reference) -> list:
        # expected drops per agent lie in [0, rate * dt]: the effective
        # rates of all queues sum to n times the shared rate
        cap = self.params.rate_high * self.delta_t
        rewards = [r for u in units for r in u.outputs]
        bad = sum(1 for r in rewards if not (math.isfinite(r) and -cap <= r <= 0.0))
        returns = [sum(u.outputs) for u in units]
        return [Check("rewards in [-rate*dt, 0]", bad == 0,
                      f"{bad} of {len(rewards)} outside"),
                band_check("band episode return", returns, reference[self.name]["return"])]

    def roadmap(self, timings: Timings) -> list:
        p50 = 1e3 * statistics.median(timings.step_s)
        return [f"env.step (expected reward, cm n=301 degrees 2-4, dt={self.delta_t:g}) p50 "
                f"{p50:.2f} ms over the whole run; roadmap 11-18 ms at n=901 on cyc1d, "
                "where far more per-queue kernel keys repeat within a step"]

    def expected_drops(self, units) -> list:
        n = self.env.topology.n_nodes
        return [-r * n for u in units for r in u.outputs]


WORKLOADS = {
    # Long epochs over thousands of queues with very uneven tick counts:
    # simulate_queue_bank is over 90% of the time. Compaction and chunked
    # uniforms should show here; per-epoch overhead should not.
    "sweep-long-epoch": lambda: SweepWorkload(
        "sweep-long-epoch",
        [{"family": "cyc1d", "n": 5001}, {"family": "bethe", "depth": 11, "branching": 3}],
        ["jsq", "rnd", "own", "threshold"], 10.0, 1,
        {"cyc1d[n=5001]/rnd": "370-406 ms for rnd dt=10 on cyc1d n=5001, the same cell",
         "cyc1d[n=5001]/jsq": "30-38 ms for jsq dt=1 at n=901, so this cell has 5.6x the "
                              "queues and 10x the epoch length"}),
    # The `sparselb train` path with the default TrainerConfig: rollouts
    # (realized-reward env.step, batch-1 MLP forwards), ppo_update and
    # evaluate_params.
    "train-ppo": lambda: TrainWorkload("train-ppo", 101, 5.0),
    # The only path into kernel.build_generator / expected_drops. Mixed
    # degrees make most per-queue (rate, service, fill) keys miss the
    # per-step cache, so the matrix exponential dominates.
    "env-expected": lambda: EnvWorkload(
        "env-expected", {"family": "cm", "n": 301, "degree_set": [2, 3, 4], "seed": 0}, 5.0),
}
