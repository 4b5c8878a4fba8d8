"""Timing shims and the per-layer tracer, installed from outside sparselb.

Both work by replacing attributes of the sparselb modules and classes and
putting the originals back afterwards. A function that another module
imports by name (harness imports ``run_episode``, env imports
``run_epoch``, ``effective_rates``, ``build_generator`` and
``expected_drops``) is replaced in every module that holds it, not only
in the module that defines it.

* ``clocked`` is the boundary clock: two clock reads around a call, so the
  end-to-end figures can be split into steps.
* ``Tracer`` wraps every public function of every sparselb module (the
  names in ``__all__``) and every public method of its public classes,
  keeps one span stack, and sums calls, inclusive time and self time per
  wrapped name. ``LayerCounters`` adds counts and output checks that are
  computed from a call's arguments and result; their time is kept out of
  every span's self time and reported on its own.
"""
from __future__ import annotations

import inspect
import math
import time
from functools import cached_property, wraps

import numpy as np

# The command-line front end is left out of the trace: it only parses
# arguments and calls the same harness and trainer functions.
TRACED_MODULES = ("seeding", "topology", "traffic", "kernel", "simulator",
                  "policies", "nn", "env", "trainer", "harness")


class Patches:
    """Attribute replacements that can be undone in reverse order."""

    def __init__(self):
        self._undo = []

    def replace(self, owner, attr, new) -> None:
        own = vars(owner)
        self._undo.append((owner, attr, own.get(attr), attr in own))
        setattr(owner, attr, new)

    def replace_everywhere(self, modules, old, new) -> None:
        """Replace every module attribute that is ``old``."""
        for mod in modules:
            for attr, val in list(vars(mod).items()):
                if val is old:
                    self.replace(mod, attr, new)

    def restore(self) -> None:
        while self._undo:
            owner, attr, old, had = self._undo.pop()
            if had:
                setattr(owner, attr, old)
            else:
                delattr(owner, attr)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.restore()
        return False


def clocked(fn, sink: list):
    """``fn`` that appends each call's time in seconds to ``sink``."""
    @wraps(fn)
    def shim(*args, **kwargs):
        t0 = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            sink.append(time.perf_counter() - t0)
    return shim


def sparselb_modules():
    import importlib
    return [importlib.import_module(f"sparselb.{m}") for m in TRACED_MODULES]


class Tracer:
    """Calls, inclusive seconds and self seconds per wrapped name."""

    def __init__(self, counters: "LayerCounters"):
        self.counters = counters
        self.stats: dict[str, list] = {}    # name -> [calls, s, self_s]
        self._stack: list[float] = []       # child time of each open span
        self.check_s = 0.0

    def wrap(self, fn, name: str):
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        stack = self._stack
        observe = self.counters.observer(name, fn)

        @wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dt = time.perf_counter() - t0
                child = stack.pop()
                stats[0] += 1
                stats[1] += dt
                stats[2] += dt - child
                if stack:
                    stack[-1] += dt
            if observe is not None:
                t1 = time.perf_counter()
                observe(args, kwargs, out)
                dc = time.perf_counter() - t1
                self.check_s += dc
                if stack:
                    stack[-1] += dc
            return out
        return span

    def install(self, patches: Patches) -> int:
        """Wrap the public surface of every traced module; returns the count."""
        modules = sparselb_modules()
        wrapped = 0
        for mod in modules:
            short = mod.__name__.rsplit(".", 1)[-1]
            for name in getattr(mod, "__all__", ()):
                obj = getattr(mod, name)
                if inspect.isfunction(obj) and _ours(obj):
                    home = obj.__module__.rsplit(".", 1)[-1]
                    if home != short:
                        continue        # wrapped under its defining module
                    patches.replace_everywhere(modules, obj,
                                               self.wrap(obj, f"{short}.{name}"))
                    wrapped += 1
                elif inspect.isclass(obj) and _ours(obj) \
                        and obj.__module__.endswith("." + short):
                    wrapped += self._install_class(patches, obj, short)
        return wrapped

    def _install_class(self, patches: Patches, cls, short: str) -> int:
        wrapped = 0
        for attr in dir(cls):
            if attr.startswith("_"):
                continue
            raw = inspect.getattr_static(cls, attr)
            if isinstance(raw, (staticmethod, classmethod, property, cached_property)):
                continue
            raw = getattr(raw, "__wrapped__", raw)
            if inspect.isfunction(raw) and _ours(raw):
                patches.replace(cls, attr,
                                self.wrap(raw, f"{short}.{cls.__name__}.{attr}"))
                wrapped += 1
        return wrapped

    def get(self, name: str) -> tuple:
        calls, s, self_s = self.stats.get(name, (0, 0.0, 0.0))
        return calls, s, self_s

    def self_sum(self) -> float:
        return sum(v[2] for v in self.stats.values())


def _ours(obj) -> bool:
    return getattr(obj, "__module__", "").startswith("sparselb.")


class LayerCounters:
    """Counts and output checks taken from wrapped calls' arguments and results."""

    def __init__(self):
        self.queue_epochs = 0
        self.events = 0
        self.conservation_violations = 0
        self.epoch_drops: list[int] = []     # realized drops of each run_epoch call
        self.expected_queue_steps = 0
        self.mlp = {"forward": [0, 0.0], "backward": [0, 0.0]}   # rows, flop
        self.ppo_aborted = 0

    def observer(self, name: str, fn):
        sig = inspect.signature(fn)
        if name == "simulator.simulate_queue_bank":
            return lambda a, k, out: self._bank(sig.bind(*a, **k).arguments, out)
        if name == "simulator.run_epoch":
            return lambda a, k, out: self.epoch_drops.append(int(out.drops.sum()))
        if name == "env.LoadBalanceEnv.step":
            return lambda a, k, out: self._env_step(a[0])
        if name == "nn.Mlp.forward":
            return lambda a, k, out: self._mlp("forward", sig.bind(*a, **k).arguments)
        if name == "nn.Mlp.backward":
            return lambda a, k, out: self._mlp("backward", sig.bind(*a, **k).arguments)
        if name == "trainer.ppo_update":
            return lambda a, k, out: self._ppo(out)
        return None

    def _bank(self, args, out) -> None:
        start = np.asarray(args["queues"], dtype=np.int64)
        nxt, drops, arrivals, services = (np.asarray(x, dtype=np.int64) for x in out)
        self.queue_epochs += start.size
        self.events += int(arrivals.sum() + services.sum())
        # per queue: arrivals = drops + (next - start) + services, inside 0..B
        bad = (arrivals - drops - services != nxt - start) \
            | (nxt < 0) | (nxt > int(args["buffer"])) | (drops < 0) | (drops > arrivals)
        self.conservation_violations += int(np.count_nonzero(bad))

    def _env_step(self, env) -> None:
        if env.reward_mode == "expected":
            self.expected_queue_steps += env.topology.n_nodes

    def _mlp(self, which: str, args) -> None:
        net = args["self"]
        sizes = net.sizes
        rows = np.atleast_2d(args["x" if which == "forward" else "dout"]).shape[0]
        macs = [sizes[i] * sizes[i + 1] for i in range(len(sizes) - 1)]
        # forward: one matmul per layer; backward: the weight gradient of
        # every layer plus the input gradient of every layer but the first
        per_row = 2 * sum(macs) if which == "forward" else 2 * sum(macs) + 2 * sum(macs[1:])
        self.mlp[which][0] += rows
        self.mlp[which][1] += rows * per_row

    def _ppo(self, diag) -> None:
        if diag.get("aborted"):
            self.ppo_aborted += 1


def per_layer_metrics(tracer: Tracer, untraced_s: float, traced_s: float) -> dict:
    """The per-layer metric values named in BENCHMARK.json."""
    c = tracer.counters
    m = {}
    calls, s, _ = tracer.get("simulator.simulate_queue_bank")
    m["simulator.simulate_queue_bank.calls"] = calls
    m["simulator.simulate_queue_bank.s"] = s
    m["simulator.simulate_queue_bank.queue_epochs"] = c.queue_epochs
    m["simulator.simulate_queue_bank.events"] = c.events
    m["simulator.simulate_queue_bank.ns_per_queue_epoch"] = \
        s * 1e9 / c.queue_epochs if c.queue_epochs else 0.0
    m["simulator.simulate_queue_bank.us_per_call"] = s * 1e6 / calls if calls else 0.0
    m["simulator.simulate_queue_bank.conservation_violations"] = c.conservation_violations
    m["simulator.run_epoch.self_s"] = tracer.get("simulator.run_epoch")[2]
    m["simulator.run_episode.self_s"] = tracer.get("simulator.run_episode")[2]
    calls, _, self_s = tracer.get("kernel.effective_rates")
    m["kernel.effective_rates.calls"] = calls
    m["kernel.effective_rates.self_s"] = self_s
    for cls in ("JsqPolicy", "RndPolicy", "OwnPolicy", "StaticZetaPolicy"):
        m[f"policies.{cls}.profile.self_s"] = tracer.get(f"policies.{cls}.profile")[2]
    m["kernel.build_generator.s"] = tracer.get("kernel.build_generator")[1]
    calls, s, _ = tracer.get("kernel.expected_drops")
    m["kernel.expected_drops.calls"] = calls
    m["kernel.expected_drops.s"] = s
    m["env.expected_reward.hit_ratio"] = \
        1.0 - calls / c.expected_queue_steps if c.expected_queue_steps else 0.0
    calls, _, self_s = tracer.get("env.LoadBalanceEnv.step")
    m["env.LoadBalanceEnv.step.calls"] = calls
    m["env.LoadBalanceEnv.step.self_s"] = self_s
    for which in ("forward", "backward"):
        rows, flop = c.mlp[which]
        m[f"nn.Mlp.{which}.calls"] = tracer.get(f"nn.Mlp.{which}")[0]
        m[f"nn.Mlp.{which}.rows"] = rows
        m[f"nn.Mlp.{which}.gflop"] = flop / 1e9
    for fn in ("collect_batch", "compute_advantages", "ppo_update", "evaluate_params"):
        m[f"trainer.{fn}.s"] = tracer.get(f"trainer.{fn}")[1]
    m["trainer.ppo_update.aborted"] = c.ppo_aborted
    calls, s, _ = tracer.get("harness.evaluate")
    m["harness.evaluate.calls"] = calls
    m["harness.evaluate.s"] = s
    m["trace.untraced_s"] = untraced_s
    m["trace.traced_s"] = traced_s
    m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    m["trace.self_sum_s"] = tracer.self_sum()
    m["trace.check_s"] = tracer.check_s
    return m


def expected_vs_realized_z(expected: list, realized: list) -> float:
    """Self-normalized z of realized minus expected drops, step by step.

    Each step's expected drops are the conditional mean of its realized
    drops given the epoch's start, so the differences have mean zero and
    their sum over their root sum of squares is close to standard normal.
    Unpaired sequences give an infinite z, which fails any bound.
    """
    if len(expected) != len(realized):
        return math.inf
    d = np.asarray(realized, dtype=np.float64) - np.asarray(expected, dtype=np.float64)
    scale = math.sqrt(float(np.sum(d * d)))
    return float(d.sum()) / scale if scale > 0 else 0.0
